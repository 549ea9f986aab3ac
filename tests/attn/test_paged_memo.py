"""Host bytes and state safety of the paged decode path.

- A flush extends the dequant memo in place: the step's allocation peak
  stays a small fraction of the memo instead of a second copy of it.
- A memo the store can no longer serve (its epoch advanced) is freed with
  the change, not when the entry cap finally evicts it.
- A write rejected for non-finite rows leaves every handle, page and slot
  exactly as it was.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.attn import PagedBitBackend
from repro.attn.paged import PagedBitKVCache
from repro.core.config import BitDecodingConfig

CONFIG = BitDecodingConfig(bits=4, wn=1)  # N_r = 32
NR = CONFIG.residual_block_size
HKV, HQ, D = 2, 4, 64


def _rows(rng, *shape):
    return (
        rng.standard_normal(shape).astype(np.float16),
        rng.standard_normal(shape).astype(np.float16),
    )


@pytest.mark.parametrize("batch", [1, 2], ids=["per_sequence", "grouped"])
def test_flush_step_does_not_copy_the_memo(rng, batch):
    # The paged pool is preallocated, so the memo is the only thing a
    # flush could copy.  (The contiguous cache's packed part still grows
    # by concatenation, an eighth of the memo per flush at 4 bits.)
    blocks = 64
    backend = PagedBitBackend(CONFIG, n_pages=batch * (blocks + 2), n_slots=batch)
    handle = backend.new_handle(batch, HKV, D)
    # Two tokens short of a flush: one warm step builds the memo, the
    # next step's append flushes block ``blocks + 1``.
    backend.prefill(None, _rows(rng, batch, HKV, (blocks + 1) * NR - 2, D), handle)

    def step():
        backend.append_kv(_rows(rng, batch, HKV, D), handle)
        q = rng.standard_normal((batch, 1, HQ, D)).astype(np.float32)
        return backend.decode_step(q, handle)

    step()
    memo_bytes = 2 * batch * HKV * blocks * NR * D * 4
    tracemalloc.start()
    try:
        out = step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(out).all()
    assert peak < memo_bytes / 4, f"flush step peaked at {peak / memo_bytes:.2f}x the memo"


def _group_batch(backend, lengths, rng):
    store = backend.store_for(HKV, D)
    handles = []
    for length in lengths:
        h = store.add_sequence()
        store.reserve(h, length)
        store.write_rows(h, *_rows(rng, HKV, length, D))
        handles.append(h)
    return store, handles


def test_release_frees_the_group_memo(rng):
    backend = PagedBitBackend(CONFIG, n_pages=16, n_slots=4)
    store, handles = _group_batch(backend, [3 * NR + 1, 3 * NR + 5], rng)
    k_hat, v_hat = store.dequant_group(handles)
    refs = [weakref.ref(a) for a in (k_hat, v_hat, k_hat.base, v_hat.base)]
    del k_hat, v_hat
    for h in handles:
        store.release(h)
    gc.collect()
    assert all(r() is None for r in refs)


def test_live_groups_keep_their_memos_across_steps_and_migrations(rng):
    backend = PagedBitBackend(CONFIG, n_pages=32, n_slots=5)
    lengths = [NR + 3, NR + 4, 3 * NR + 1, 3 * NR + 2]
    store, handles = _group_batch(backend, lengths, rng)
    groups = [handles[:2], handles[2:]]
    first = [store.dequant_group(g) for g in groups]
    # A frames-only advance (a tier migration) moves words, not values.
    store.copy_frame(0, 0)
    again = [store.dequant_group(g) for g in groups]
    for (k0, v0), (k1, v1) in zip(first, again):
        assert k0 is k1 and v0 is v1
    # A content advance retires every group memo at once.
    store.add_sequence()
    rebuilt = store.dequant_group(groups[0])
    assert rebuilt[0] is not first[0][0]
    np.testing.assert_array_equal(rebuilt[0], first[0][0])


def _state(store, handles):
    return (
        [(h.seq_len, h.n_blocks, h.res_len, list(h.block_ids)) for h in handles],
        [list(store.table.sequences[h.seq_id].pages) for h in handles],
        [a.copy() for a in store._pools()] + [store.res_k.copy(), store.res_v.copy()],
    )


def _assert_same_state(before, after):
    assert before[:2] == after[:2]
    for a, b in zip(before[2], after[2]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e6])
@pytest.mark.parametrize("at", [0, -1])
@pytest.mark.parametrize("write", ["append_rows", "write_rows", "write_rows_group"])
def test_rejected_non_finite_write_changes_nothing(rng, write, at, bad):
    store = PagedBitKVCache(CONFIG, HKV, 16, n_pages=16, n_slots=4)
    handles = [store.add_sequence() for _ in range(2)]
    # append_rows: one row short of a flush, so the bad row lands on the
    # flushing step.  write_rows: mid-block, so the write completes a
    # block, flushes whole blocks and leaves a tail.  write_rows_group:
    # block-aligned, as it requires.
    start = {"append_rows": 2 * NR - 1, "write_rows": NR - 3, "write_rows_group": NR}[write]
    n = 1 if write == "append_rows" else 2 * NR + 5
    for h in handles:
        store.reserve(h, start + n)
        store.write_rows(h, *_rows(rng, HKV, start, 16))
    k, v = (a.astype(np.float32) for a in _rows(rng, 2, HKV, n, 16))
    k[1, 0, at] = bad
    before = _state(store, handles)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        if write == "append_rows":
            store.append_rows(handles, k[:, :, 0], v[:, :, 0])
        elif write == "write_rows":
            store.write_rows(handles[1], k[1], v[1])
        else:
            store.write_rows_group(handles, k, v)
    _assert_same_state(before, _state(store, handles))
