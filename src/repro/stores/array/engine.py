"""The array data-processing engine (SciDB stand-in).

Stores named chunked 2-D arrays and exposes the matrix operators the paper
cites as SciDB's strength (§I: "matrix operations in SciDB") — slicing,
element-wise maps, matrix multiplication and reductions.  GEMM work counts
are reported so the GPU/TPU simulators can cost the offload.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.exceptions import StorageError
from repro.stores.array.chunks import ChunkedArray
from repro.stores.base import DataModel, Engine


class ArrayEngine(Engine):
    """A chunked dense-array store with matrix operators."""

    data_model = DataModel.ARRAY

    def __init__(self, name: str = "array", *, chunk_shape: tuple[int, int] = (256, 256)) -> None:
        super().__init__(name)
        self._arrays: dict[str, ChunkedArray] = {}
        self._chunk_shape = chunk_shape

    # -- storage -----------------------------------------------------------------

    def store(self, name: str, array: np.ndarray, *, replace: bool = False) -> None:
        """Store a dense array under ``name``."""
        if name in self._arrays and not replace:
            raise StorageError(f"array {name!r} already exists")
        self._arrays[name] = ChunkedArray.from_numpy(array, self._chunk_shape)
        self.mark_data_changed()

    def load(self, name: str) -> np.ndarray:
        """Materialize the named array."""
        return self._chunked(name).to_numpy()

    def exists(self, name: str) -> bool:
        """Whether an array is stored under ``name``."""
        return name in self._arrays

    def list_arrays(self) -> list[str]:
        """Names of stored arrays."""
        return sorted(self._arrays)

    def shape(self, name: str) -> tuple[int, int]:
        """Shape of the named array."""
        return self._chunked(name).shape

    # -- operators ---------------------------------------------------------------------

    def slice(self, name: str, row_start: int, row_stop: int,
              col_start: int, col_stop: int) -> np.ndarray:
        """Window slice of a stored array (chunk-pruned)."""
        return self._chunked(name).slice(row_start, row_stop, col_start, col_stop)

    def matmul(self, left: str | np.ndarray, right: str | np.ndarray,
               *, store_as: str | None = None) -> np.ndarray:
        """Matrix product of two arrays (stored names or dense arrays)."""
        a = self._resolve(left)
        b = self._resolve(right)
        if a.shape[1] != b.shape[0]:
            raise StorageError(f"matmul shape mismatch: {a.shape} x {b.shape}")
        result = a @ b
        if store_as is not None:
            self.store(store_as, result, replace=True)
        return result

    def elementwise(self, name: str, fn: Callable[[np.ndarray], np.ndarray],
                    *, store_as: str | None = None) -> np.ndarray:
        """Apply an element-wise function to a stored array."""
        result = fn(self.load(name))
        if store_as is not None:
            self.store(store_as, result, replace=True)
        return result

    def reduce(self, name: str, *, axis: int | None = None,
               reduction: str = "sum") -> np.ndarray | float:
        """Reduce a stored array (sum/mean/min/max) along an axis or fully."""
        array = self.load(name)
        reducers = {"sum": np.sum, "mean": np.mean, "min": np.min, "max": np.max}
        if reduction not in reducers:
            raise StorageError(f"unknown reduction {reduction!r}")
        result = reducers[reduction](array, axis=axis)
        if np.isscalar(result) or result.ndim == 0:
            return float(result)
        return result

    def statistics(self) -> dict[str, Any]:
        """Engine statistics for the catalog."""
        return {
            "arrays": len(self._arrays),
            "total_bytes": sum(a.nbytes for a in self._arrays.values()),
            "total_chunks": sum(a.num_chunks for a in self._arrays.values()),
        }

    # -- helpers --------------------------------------------------------------------------

    def _chunked(self, name: str) -> ChunkedArray:
        try:
            return self._arrays[name]
        except KeyError as exc:
            raise StorageError(f"array {name!r} does not exist") from exc

    def _resolve(self, ref: str | np.ndarray) -> np.ndarray:
        if isinstance(ref, str):
            return self.load(ref)
        return np.atleast_2d(np.asarray(ref, dtype=np.float64))
