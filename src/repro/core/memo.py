"""The FP32 dequant memo every decode path reads packed K/V through.

The paper's Packing Kernel dequantizes tiles in registers and never stores
full-precision K/V.  The numpy decode paths instead keep the reconstructed
packed part in host memory, (32 / bits)x the packed words, so this one
class bounds what that costs: the memo is filled chunk by chunk into a
capacity-backed buffer (no transient spans the whole context), a flush
writes only its new blocks into spare capacity, and a memo hit hands back
the very same view objects.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

KV = Tuple[np.ndarray, np.ndarray]


class DequantMemo:
    """FP32 K/V ``[batch, hkv, n_blocks * N_r, d]`` of an append-only cache.

    ``tag`` is the owner's validity token (a store epoch, say); the memo
    only carries it.  :meth:`read` takes a ``chunks(lo, hi, step)``
    generator yielding the dequantized blocks ``[lo, hi)`` at most
    ``step`` blocks at a time; it is asked for only the blocks the memo
    lacks.  Dequantization is per-block independent, so the result is
    bit-identical to dequantizing every block at once.
    """

    #: Blocks dequantized per chunk: the fill's transient working set.
    CHUNK_BLOCKS = 4
    #: Growth allocates ``1 / SLACK`` spare blocks (at least one).
    SLACK = 16

    def __init__(self, block_tokens: int, tag=None):
        self.block_tokens = block_tokens
        self.tag = tag
        self.n_blocks = 0
        self.kv: Optional[KV] = None
        self._buf: Optional[KV] = None

    @property
    def capacity_blocks(self) -> int:
        return 0 if self._buf is None else self._buf[0].shape[2] // self.block_tokens

    def read(self, n_blocks: int, chunks: Callable[[int, int, int], Iterator[KV]]) -> KV:
        """The memoized K/V of blocks ``[0, n_blocks)``, filling what is missing.

        A shrink (the owner's cache was rebuilt shorter) starts over in a
        fresh buffer, so views handed out earlier never change under
        their holders; growth only writes past them.
        """
        if self.kv is not None and n_blocks == self.n_blocks:
            return self.kv
        if n_blocks < self.n_blocks:
            self.n_blocks, self._buf = 0, None
        end = self.n_blocks * self.block_tokens
        for k, v in chunks(self.n_blocks, n_blocks, self.CHUNK_BLOCKS):
            if self.capacity_blocks < n_blocks:
                self._grow(k, n_blocks + max(1, n_blocks // self.SLACK), end)
            stop = end + k.shape[2]
            self._buf[0][:, :, end:stop] = k
            self._buf[1][:, :, end:stop] = v
            end = stop
        self.n_blocks = n_blocks
        self.kv = (self._buf[0][:, :, :end], self._buf[1][:, :, :end])
        return self.kv

    def _grow(self, like: np.ndarray, blocks: int, keep: int) -> None:
        """Move to a ``blocks``-block buffer, keeping the first ``keep`` tokens."""
        shape = like.shape[:2] + (blocks * self.block_tokens,) + like.shape[3:]
        grown = (np.empty(shape, like.dtype), np.empty(shape, like.dtype))
        if keep:
            for new, old in zip(grown, self._buf):
                new[:, :, :keep] = old[:, :, :keep]
        self._buf = grown
