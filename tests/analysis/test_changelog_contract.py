"""changelog-contract: engine mutators must emit deltas."""

from __future__ import annotations

import pytest

from repro.analysis.rules.changelog_contract import ChangelogContractRule

ENGINE_PATH = "src/repro/stores/demo/engine.py"


@pytest.fixture
def run(run_rule):
    def _run(code, path=ENGINE_PATH):
        return run_rule(ChangelogContractRule(), code, path=path)
    return _run


class TestMutatorDetection:
    def test_unmarked_public_mutator_flagged_at_def(self, run):
        findings = run("""\
            class DemoEngine(Engine):
                def put(self, key, value):
                    self._data[key] = value
            """)
        assert len(findings) == 1
        assert findings[0].line == 2  # anchored at the def, not the store
        assert "DemoEngine.put" in findings[0].message

    def test_marked_mutator_is_clean(self, run):
        assert run("""\
            class DemoEngine(Engine):
                def put(self, key, value):
                    self._data[key] = value
                    self.mark_data_changed(self._scope(), entries=[])
            """) == []

    def test_mark_through_same_class_helper(self, run):
        # The ShardedEngine _routed_write pattern: the public mutator only
        # reaches mark_data_changed through a private relay.
        assert run("""\
            class DemoEngine(Engine):
                def put(self, key, value):
                    with self._routed_write("put") as relay:
                        relay.put(key, value)
                        self._relay(key)

                def _relay(self, key):
                    self.mark_data_changed(self._scope(), entries=[key])
            """) == []

    def test_mutation_through_tainted_local(self, run):
        findings = run("""\
            class DemoEngine(Engine):
                def route(self, key, value):
                    owner = self._shards[0]
                    owner.put(key, value)
            """)
        assert len(findings) == 1
        assert "DemoEngine.route" in findings[0].message

    def test_mutating_call_on_self_state(self, run):
        findings = run("""\
            class DemoEngine(Engine):
                def push(self, row):
                    self._rows.append(row)
            """)
        assert len(findings) == 1

    def test_emit_durability_meta_satisfies(self, run):
        assert run("""\
            class DemoEngine(Engine):
                def create_index(self, name):
                    self._indexes[name] = {}
                    self.emit_durability_meta(("create_index", name))
            """) == []


class TestScope:
    def test_non_engine_file_is_out_of_scope(self, run):
        assert run("""\
            class DemoEngine(Engine):
                def put(self, key, value):
                    self._data[key] = value
            """, path="src/repro/middleware/session.py") == []

    def test_non_engine_class_is_out_of_scope(self, run):
        assert run("""\
            class Helper:
                def put(self, key, value):
                    self._data[key] = value
            """) == []

    def test_private_methods_and_properties_exempt(self, run):
        assert run("""\
            class DemoEngine(Engine):
                def _internal(self, key, value):
                    self._data[key] = value

                @property
                def size(self):
                    self._cache = None
                    return len(self._data)
            """) == []

    def test_lifecycle_hooks_exempt_by_name(self, run):
        assert run("""\
            class DemoEngine(Engine):
                def attach_spill(self, spill):
                    self._spill = spill
            """) == []

    def test_readonly_method_is_clean(self, run):
        assert run("""\
            class DemoEngine(Engine):
                def get(self, key):
                    return self._data.get(key)
            """) == []

    def test_bookkeeping_writes_do_not_count(self, run):
        assert run("""\
            class DemoEngine(Engine):
                def scan(self, query):
                    self.changelog.reads["scan"] += 1
                    return list(self._data)
            """) == []
