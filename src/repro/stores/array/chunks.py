"""Chunked storage for the array engine.

SciDB-style array stores split large dense arrays into fixed-size chunks so
that operators touch only the chunks they need.  This module implements a
2-D chunked array over numpy with chunk-level access counting, which is how
the cost model estimates the bytes an array operator reads.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import StorageError


class ChunkedArray:
    """A dense 2-D float64 array stored as a grid of chunks."""

    def __init__(self, shape: tuple[int, int], chunk_shape: tuple[int, int] = (256, 256)) -> None:
        if len(shape) != 2 or len(chunk_shape) != 2:
            raise StorageError("ChunkedArray is 2-D only")
        if min(shape) < 0 or min(chunk_shape) <= 0:
            raise StorageError("invalid shape or chunk shape")
        self.shape = shape
        self.chunk_shape = chunk_shape
        self._grid_shape = (
            max(1, math.ceil(shape[0] / chunk_shape[0])),
            max(1, math.ceil(shape[1] / chunk_shape[1])),
        )
        self._chunks: dict[tuple[int, int], np.ndarray] = {}
        self.chunk_reads = 0
        self.chunk_writes = 0

    @classmethod
    def from_numpy(cls, array: np.ndarray,
                   chunk_shape: tuple[int, int] = (256, 256)) -> "ChunkedArray":
        """Build a chunked array by splitting ``array``."""
        array = np.atleast_2d(np.asarray(array, dtype=np.float64))
        chunked = cls(array.shape, chunk_shape)
        rows, cols = chunk_shape
        for ci in range(chunked._grid_shape[0]):
            for cj in range(chunked._grid_shape[1]):
                block = array[ci * rows:(ci + 1) * rows, cj * cols:(cj + 1) * cols]
                if block.size:
                    chunked._chunks[(ci, cj)] = np.array(block, dtype=np.float64)
                    chunked.chunk_writes += 1
        return chunked

    def to_numpy(self) -> np.ndarray:
        """Materialize the full dense array."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows, cols = self.chunk_shape
        for (ci, cj), block in self._chunks.items():
            self.chunk_reads += 1
            out[ci * rows:ci * rows + block.shape[0],
                cj * cols:cj * cols + block.shape[1]] = block
        return out

    def slice(self, row_start: int, row_stop: int, col_start: int, col_stop: int) -> np.ndarray:
        """A dense copy of ``[row_start:row_stop, col_start:col_stop]``.

        Only chunks overlapping the requested window are read.
        """
        row_start, row_stop = max(0, row_start), min(self.shape[0], row_stop)
        col_start, col_stop = max(0, col_start), min(self.shape[1], col_stop)
        if row_stop <= row_start or col_stop <= col_start:
            return np.zeros((max(0, row_stop - row_start), max(0, col_stop - col_start)))
        out = np.zeros((row_stop - row_start, col_stop - col_start), dtype=np.float64)
        rows, cols = self.chunk_shape
        first_ci, last_ci = row_start // rows, (row_stop - 1) // rows
        first_cj, last_cj = col_start // cols, (col_stop - 1) // cols
        for ci in range(first_ci, last_ci + 1):
            for cj in range(first_cj, last_cj + 1):
                block = self._chunks.get((ci, cj))
                if block is None:
                    continue
                self.chunk_reads += 1
                block_r0, block_c0 = ci * rows, cj * cols
                r0 = max(row_start, block_r0)
                r1 = min(row_stop, block_r0 + block.shape[0])
                c0 = max(col_start, block_c0)
                c1 = min(col_stop, block_c0 + block.shape[1])
                out[r0 - row_start:r1 - row_start, c0 - col_start:c1 - col_start] = \
                    block[r0 - block_r0:r1 - block_r0, c0 - block_c0:c1 - block_c0]
        return out

    @property
    def num_chunks(self) -> int:
        """Number of stored (non-empty) chunks."""
        return len(self._chunks)

    @property
    def nbytes(self) -> int:
        """Total stored bytes."""
        return sum(block.nbytes for block in self._chunks.values())
