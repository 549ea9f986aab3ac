"""Tensor-parallel page sharding: bit-exactness, pricing, validation.

TP shards the KV-head space; per-head independence (quantization,
softmax, PV never mix heads) means the sharded backend must reproduce
the single-rank run *bit for bit*, not approximately.  Every numeric
test here asserts ``array_equal``, never ``allclose``.
"""

import numpy as np
import pytest

from repro.attn import PagedBitBackend
from repro.cluster import ShardedPagedBackend, ShardedPagedStore
from repro.core.attention import BitDecoding
from repro.model.config import TINY, get_model
from repro.model.inference import decode_step_breakdown
from repro.verify import INT4_KERNEL, NR

#: TINY's attention geometry: 4 query heads grouped over 2 KV heads.
HQ, HKV, HEAD_DIM = TINY.hq, TINY.hkv, TINY.head_dim


def _qkv(rng, batch, n, hq=HQ, hkv=HKV, head_dim=HEAD_DIM):
    q = rng.standard_normal((batch, n, hq, head_dim)).astype(np.float32)
    k = rng.standard_normal((batch, hkv, n, head_dim)).astype(np.float32)
    v = rng.standard_normal((batch, hkv, n, head_dim)).astype(np.float32)
    return q, k, v


def _pair(a100, tp=2):
    sharded = ShardedPagedBackend(BitDecoding(INT4_KERNEL, a100), tp=tp)
    single = PagedBitBackend(BitDecoding(INT4_KERNEL, a100))
    return sharded, single


class TestBitExactness:
    def test_prefill_matches_single_rank(self, rng, a100):
        sharded, single = _pair(a100)
        q, k, v = _qkv(rng, batch=2, n=3 * NR + 7)
        out_s = sharded.prefill(q, (k, v), sharded.new_handle(2, HKV, HEAD_DIM))
        out_1 = single.prefill(q, (k, v), single.new_handle(2, HKV, HEAD_DIM))
        assert out_s.shape == out_1.shape
        assert np.array_equal(out_s, out_1)

    def test_decode_stream_matches_single_rank(self, rng, a100):
        sharded, single = _pair(a100)
        bt_s = sharded.new_handle(2, HKV, HEAD_DIM)
        bt_1 = single.new_handle(2, HKV, HEAD_DIM)
        q0, k0, v0 = _qkv(rng, batch=2, n=2 * NR + 5)
        sharded.prefill(q0, (k0, v0), bt_s)
        single.prefill(q0, (k0, v0), bt_1)
        for _ in range(2 * NR + 3):  # crosses a residual-block flush
            q, k, v = _qkv(rng, batch=2, n=1)
            k, v = k[:, :, 0], v[:, :, 0]  # one token: [batch, hkv, d] rows
            sharded.append_kv((k, v), bt_s)
            single.append_kv((k, v), bt_1)
            out_s = sharded.decode_step(q, bt_s)
            out_1 = single.decode_step(q, bt_1)
            assert np.array_equal(out_s, out_1)

    def test_looped_decode_matches_single_rank(self, rng, a100):
        sharded, single = _pair(a100)
        bt_s = sharded.new_handle(3, HKV, HEAD_DIM)
        bt_1 = single.new_handle(3, HKV, HEAD_DIM)
        q0, k0, v0 = _qkv(rng, batch=3, n=NR + 9)
        sharded.prefill(q0, (k0, v0), bt_s)
        single.prefill(q0, (k0, v0), bt_1)
        q, k, v = _qkv(rng, batch=3, n=1)
        k, v = k[:, :, 0], v[:, :, 0]
        sharded.append_kv((k, v), bt_s)
        single.append_kv((k, v), bt_1)
        assert np.array_equal(
            sharded.decode_step_looped(q, bt_s),
            single.decode_step_looped(q, bt_1),
        )

    def test_tp_equals_hkv_still_exact(self, rng, a100):
        # One KV head per rank: the finest legal shard.
        sharded, single = _pair(a100, tp=HKV)
        q, k, v = _qkv(rng, batch=1, n=NR + 3)
        out_s = sharded.prefill(q, (k, v), sharded.new_handle(1, HKV, HEAD_DIM))
        out_1 = single.prefill(q, (k, v), single.new_handle(1, HKV, HEAD_DIM))
        assert np.array_equal(out_s, out_1)


class TestShardedStore:
    def test_tp_must_divide_hkv(self, a100):
        with pytest.raises(ValueError, match="does not divide"):
            ShardedPagedStore(INT4_KERNEL, hkv=2, head_dim=16, tp=3)

    def test_tp_must_be_positive(self, a100):
        with pytest.raises(ValueError, match="tp must be >= 1"):
            ShardedPagedStore(INT4_KERNEL, hkv=2, head_dim=16, tp=0)
        with pytest.raises(ValueError, match="tp must be >= 1"):
            ShardedPagedBackend(BitDecoding(INT4_KERNEL, a100), tp=0)

    def test_tiers_rejected(self):
        class FakeTiers:
            pass

        with pytest.raises(NotImplementedError, match="tiered offload"):
            ShardedPagedStore(INT4_KERNEL, hkv=2, head_dim=16, tp=2, tiers=FakeTiers())

    def test_swap_reattach_rejected(self):
        store = ShardedPagedStore(INT4_KERNEL, hkv=2, head_dim=16, tp=2)
        with pytest.raises(NotImplementedError, match="swap-in"):
            store.reattach(0, 32)

    def test_sharded_bytes_sum_to_single_rank_bytes(self, a100):
        # Sharding partitions the head space; it must not duplicate or
        # drop any storage relative to one pool holding all the heads.
        sharded = ShardedPagedStore(INT4_KERNEL, hkv=4, head_dim=16, tp=2, n_slots=8)
        single = PagedBitBackend(BitDecoding(INT4_KERNEL, a100), n_slots=8).make_store(
            4, 16, n_slots=8, table=sharded.table
        )
        assert sharded.packed_nbytes == single.packed_nbytes
        assert sharded.meta_nbytes == single.meta_nbytes
        assert sharded.residual_nbytes == single.residual_nbytes

    def test_head_split_requires_divisible_heads(self, rng, a100):
        sharded, _ = _pair(a100, tp=2)
        q = rng.standard_normal((1, 1, 3, HEAD_DIM)).astype(np.float32)
        with pytest.raises(ValueError, match="does not split"):
            sharded._split_heads(q, axis=2)


class TestTPPricing:
    def test_allreduce_tax_is_charged(self, a100):
        model = get_model("llama-3.1-8b")
        kernel = BitDecoding(INT4_KERNEL, a100)
        tp2 = decode_step_breakdown(model, a100, kernel, 8, 4096, n_gpus=2, tp=2)
        tp1 = decode_step_breakdown(model, a100, kernel, 8, 4096)
        assert tp2.comm_ms > 0.0
        assert tp1.comm_ms == 0.0
        # Head sharding shrinks the attention kernel strictly.
        assert tp2.attention_ms < tp1.attention_ms

    def test_backend_pricing_defaults_to_its_own_degree(self, a100):
        sharded, single = _pair(a100, tp=2)
        model = get_model("llama-3.1-8b")
        # No n_gpus/tp arguments: the sharded backend prices at tp=2.
        ms_sharded = sharded.decode_step_ms(model, a100, 8, 4096)
        ms_explicit = single.decode_step_ms(model, a100, 8, 4096, n_gpus=2, tp=2)
        ms_single = single.decode_step_ms(model, a100, 8, 4096)
        assert ms_sharded == pytest.approx(ms_explicit)
        assert ms_sharded != pytest.approx(ms_single)

    def test_arch_interconnect_fields_validated(self, a100):
        import dataclasses

        assert a100.nvlink_bw_gbs > 0
        assert a100.allreduce_latency_us >= 0
        with pytest.raises(ValueError, match="nvlink_bw_gbs"):
            dataclasses.replace(a100, nvlink_bw_gbs=0.0)
        with pytest.raises(ValueError, match="nvlink_bw_gbs"):
            dataclasses.replace(a100, allreduce_latency_us=-1.0)
