"""The capacity-backed dequant memo: chunked fill, in-place growth, stable views."""

import numpy as np
import pytest

from repro.core.memo import DequantMemo

NR, D = 4, 3


def _source(calls):
    """A chunk source over block values ``k = block id``, ``v = -block id``,
    recording every ``(lo, hi)`` chunk it is asked for."""

    def chunks(lo, hi, step):
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            calls.append((a, b))
            ids = np.repeat(np.arange(a, b, dtype=np.float32), NR)
            k = np.broadcast_to(ids[None, None, :, None], (2, 1, ids.size, D)).copy()
            yield k, -k

    return chunks


def _expected(n_blocks):
    ids = np.repeat(np.arange(n_blocks, dtype=np.float32), NR)
    return np.broadcast_to(ids[None, None, :, None], (2, 1, ids.size, D))


def test_fill_is_chunked_and_only_missing_blocks_are_dequantized():
    calls = []
    memo = DequantMemo(NR)
    k, v = memo.read(10, _source(calls))
    assert calls == [(0, 4), (4, 8), (8, 10)]
    np.testing.assert_array_equal(k, _expected(10))
    np.testing.assert_array_equal(v, -_expected(10))
    calls.clear()
    hit = memo.read(10, _source(calls))
    assert hit[0] is k and hit[1] is v  # a hit hands back the same views
    assert calls == []
    k2, _ = memo.read(11, _source(calls))
    assert calls == [(10, 11)]
    np.testing.assert_array_equal(k2, _expected(11))


def test_flush_writes_into_spare_capacity_without_moving_the_buffer():
    memo = DequantMemo(NR)
    k, _ = memo.read(32, _source([]))
    assert memo.capacity_blocks == 32 + 32 // DequantMemo.SLACK
    k2, _ = memo.read(33, _source([]))
    assert np.shares_memory(k, k2)  # extended in place
    np.testing.assert_array_equal(k, _expected(32))  # earlier views untouched


def test_growth_reallocates_geometrically_and_keeps_values():
    memo = DequantMemo(NR)
    k_old, _ = memo.read(2, _source([]))
    assert memo.capacity_blocks == 3  # at least one spare block
    memo.read(3, _source([]))
    k, v = memo.read(4, _source([]))
    assert memo.capacity_blocks == 5
    assert not np.shares_memory(k, k_old)
    np.testing.assert_array_equal(k, _expected(4))
    np.testing.assert_array_equal(v, -_expected(4))
    np.testing.assert_array_equal(k_old, _expected(2))


@pytest.mark.parametrize("n_blocks", [1, 5])
def test_shrink_starts_over_in_a_fresh_buffer(n_blocks):
    calls = []
    memo = DequantMemo(NR)
    k_old, _ = memo.read(6, _source(calls))
    calls.clear()
    k, _ = memo.read(n_blocks, _source(calls))
    assert calls[0][0] == 0
    assert not np.shares_memory(k, k_old)
    np.testing.assert_array_equal(k, _expected(n_blocks))
    np.testing.assert_array_equal(k_old, _expected(6))
