"""The partition rule: determinism, coverage, int/float collapse, errors."""

from __future__ import annotations

import pytest

from repro.cluster import HashPartitioner, canonical_key
from repro.exceptions import ConfigurationError
from repro.stores import RelationalEngine
from repro.stores.relational.partition import partition_of, partitions_equal_to


class TestPartitionRule:
    def test_deterministic_and_in_range(self):
        for key in ["user/1", "user/2", 17, 3.5, None, ("a", 1)]:
            first = partition_of(key, 4)
            assert 0 <= first < 4
            assert partition_of(key, 4) == first

    def test_int_and_equivalent_float_land_together(self):
        assert partition_of(2, 8) == partition_of(2.0, 8)
        assert canonical_key(2) == canonical_key(2.0)
        assert canonical_key(2) != canonical_key("2")
        assert canonical_key(True) != canonical_key(1)

    def test_spreads_keys_across_all_partitions(self):
        counts = [0] * 4
        for i in range(400):
            counts[partition_of(f"key/{i}", 4)] += 1
        assert all(count > 0 for count in counts)
        # CRC32 over 400 keys should not be pathologically skewed.
        assert max(counts) < 4 * min(counts)

    @pytest.mark.parametrize("value", [0, 1, 0.0, 1.0, False, True])
    def test_a_zero_or_one_names_the_bool_and_the_number_it_equals(self, value):
        assert partitions_equal_to(value, 5) == {partition_of(bool(value), 5),
                                                 partition_of(int(value), 5)}

    def test_any_other_value_names_its_own_partition(self):
        for value in [2, 2.0, -1, 0.5, "1", None]:
            assert partitions_equal_to(value, 5) == {partition_of(value, 5)}

    def test_an_engine_needs_one_partition_at_least(self):
        with pytest.raises(ConfigurationError):
            RelationalEngine("db", partitions=0)


class TestHashPartitionerShim:
    def test_it_names_the_rules_partition(self):
        partitioner = HashPartitioner(4)
        assert all(partitioner.shard_for(key) == partition_of(key, 4)
                   for key in ["user/1", 17, 3.5, None])

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)
