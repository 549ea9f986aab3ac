"""Backend parity: paged and contiguous decode must agree exactly.

The acceptance contract of the AttentionBackend redesign: with identical
inputs, ``PagedBitBackend`` decode outputs are bit-identical to
``ContiguousBitBackend`` under ``numerics_mode="exact_tiled"`` (and
within ``FUSED_NUMERICS_TOLERANCE`` under ``"fused"``), across bit
widths, granularities, flush boundaries and a preemption/resume
schedule.  The paged backend stores the *same* packed words behind block
tables, and decode runs through the *same* ``BitDecoding.decode`` code
path, so any divergence is a real storage or gather bug.
"""

import numpy as np
import pytest

from repro.attn import ContiguousBitBackend, PagedBitBackend
from repro.core.config import BitDecodingConfig
from repro.core.packing_kernel import FUSED_NUMERICS_TOLERANCE
from repro.model.transformer import TinyTransformer


def _assert_decode_parity(out_cont, out_paged, numerics_mode):
    if numerics_mode == "exact_tiled":
        np.testing.assert_array_equal(out_cont, out_paged)
    else:
        tol = FUSED_NUMERICS_TOLERANCE["int"]
        denom = max(1.0, float(np.abs(out_cont).max()))
        assert float(np.abs(out_cont - out_paged).max()) / denom <= tol


class TestDecodeParity:
    # Two flushes outgrow the dequant memos' spare block (2 packed blocks
    # at the first decode), so both caches reallocate mid-run.
    @pytest.mark.parametrize("flushes", [1, 2])
    @pytest.mark.parametrize("bits", [2, 4])
    @pytest.mark.parametrize("granularity", ["channel", "token"])
    @pytest.mark.parametrize("numerics_mode", ["exact_tiled", "fused"])
    def test_paged_matches_contiguous_across_flushes(
        self, rng, bits, granularity, numerics_mode, flushes
    ):
        config = BitDecodingConfig(
            bits=bits, granularity=granularity, numerics_mode=numerics_mode, wn=1
        )
        nr = config.residual_block_size
        batch, hkv, hq, d = 2, 2, 4, 16
        seq = nr * 2 + 5
        cont = ContiguousBitBackend(config)
        paged = PagedBitBackend(config, n_pages=8 * (seq // nr + 4))
        hc = cont.new_handle(batch, hkv, d)
        hp = paged.new_handle(batch, hkv, d)

        k = rng.standard_normal((batch, hkv, seq, d)).astype(np.float16)
        v = rng.standard_normal((batch, hkv, seq, d)).astype(np.float16)
        q_pre = rng.standard_normal((batch, seq, hq, d)).astype(np.float32)
        out_c = cont.prefill(q_pre, (k, v), hc)
        out_p = paged.prefill(q_pre, (k, v), hp)
        # Prefill attention is exact FP32 either way: bit-identical always.
        np.testing.assert_array_equal(out_c, out_p)

        # Decode across flush boundaries (the residual fills and packs).
        for _ in range(flushes * nr + 3):
            k_new = rng.standard_normal((batch, hkv, d)).astype(np.float32)
            v_new = rng.standard_normal((batch, hkv, d)).astype(np.float32)
            cont.append_kv((k_new, v_new), hc)
            paged.append_kv((k_new, v_new), hp)
            q = rng.standard_normal((batch, 1, hq, d)).astype(np.float32)
            _assert_decode_parity(cont.decode_step(q, hc), paged.decode_step(q, hp), numerics_mode)

    @pytest.mark.parametrize("bits", [2, 4])
    def test_preemption_resume_schedule_stays_bit_identical(self, rng, bits):
        """Preempt (release pages), re-admit, re-pack: decode must equal the
        contiguous cache fed the same tokens — recycled pages included."""
        config = BitDecodingConfig(bits=bits, numerics_mode="exact_tiled", wn=1)
        nr = config.residual_block_size
        hkv, hq, d = 2, 4, 16
        seq = nr * 2 + 7
        paged = PagedBitBackend(config, n_pages=3 * (seq // nr + 2))
        k = rng.standard_normal((1, hkv, seq, d)).astype(np.float16)
        v = rng.standard_normal((1, hkv, seq, d)).astype(np.float16)

        # Victim fills pages, then is preempted (pages recycled).
        victim = paged.new_handle(1, hkv, d)
        paged.prefill(None, (k, v), victim)
        freed = set(victim.seqs[0].block_ids)
        paged.release(victim)

        # A new sequence re-admitted through the backend API lands in the
        # SAME physical pool and must reuse the victim's recycled pages.
        resumed = paged.new_handle(1, hkv, d)
        assert resumed.store is victim.store
        paged.prefill(None, (k, v), resumed)
        assert set(resumed.seqs[0].block_ids) & freed

        cont = ContiguousBitBackend(config)
        hc = cont.new_handle(1, hkv, d)
        cont.prefill(None, (k, v), hc)
        for _ in range(3):
            k_new = rng.standard_normal((1, hkv, d)).astype(np.float32)
            v_new = rng.standard_normal((1, hkv, d)).astype(np.float32)
            cont.append_kv((k_new, v_new), hc)
            paged.append_kv((k_new, v_new), resumed)
            q = rng.standard_normal((1, 1, hq, d)).astype(np.float32)
            np.testing.assert_array_equal(cont.decode_step(q, hc), paged.decode_step(q, resumed))


class TestTransformerParity:
    def test_tiny_transformer_identical_on_both_backends(self, rng):
        """End to end: a TinyTransformer wired to the paged backend decodes
        the exact same hidden states as one wired to the contiguous cache."""
        config = BitDecodingConfig(bits=4, numerics_mode="exact_tiled", wn=1)
        dims = dict(n_layers=2, hq=4, hkv=2, head_dim=16, hidden=64, intermediate=128)
        cont_model = TinyTransformer(**dims, backend=ContiguousBitBackend(config), seed=0)
        paged_model = TinyTransformer(**dims, backend=PagedBitBackend(config, n_pages=16), seed=0)
        nr = config.residual_block_size
        x = rng.standard_normal((1, nr + 5, 64)).astype(np.float32) * 0.5
        h_c = cont_model.prefill(x.copy())
        h_p = paged_model.prefill(x.copy())
        np.testing.assert_array_equal(h_c, h_p)
        for _ in range(3):
            step = rng.standard_normal((1, 64)).astype(np.float32) * 0.5
            np.testing.assert_array_equal(
                cont_model.decode_step(step.copy()), paged_model.decode_step(step.copy())
            )

    def test_repeated_prefill_recycles_the_shared_pool(self, rng):
        """Re-prefilling a paged-backend model must release the old
        session's pages and residual slots, not leak the shared pool."""
        config = BitDecodingConfig(bits=4, wn=1)
        dims = dict(n_layers=2, hq=4, hkv=2, head_dim=16, hidden=64, intermediate=128)
        backend = PagedBitBackend(config, n_pages=8, n_slots=2)
        model = TinyTransformer(**dims, backend=backend, seed=0)
        store = backend.store_for(2, 16)
        for _ in range(6):  # > n_slots and > n_pages worth of prompts
            model.prefill(rng.standard_normal((1, 40, 64)).astype(np.float32) * 0.5)
            assert store.slots.used_pages == dims["n_layers"]
        model.release_session(model._session)
        assert store.slots.used_pages == 0
        assert store.table.allocator.used_pages == 0

    def test_chunked_prefill_tracks_whole_prompt(self, rng):
        """Chunked prefill over the paged cache stays close to whole-prompt
        prefill: chunks re-read context through the quantized cache, so the
        match is tolerance-level, not bitwise."""
        config = BitDecodingConfig(bits=8, wn=1)  # INT8: tiny quantization error
        dims = dict(n_layers=2, hq=4, hkv=2, head_dim=16, hidden=64, intermediate=128)
        whole = TinyTransformer(**dims, backend=PagedBitBackend(config, n_pages=32), seed=0)
        chunked = TinyTransformer(**dims, backend=PagedBitBackend(config, n_pages=32), seed=0)
        x = rng.standard_normal((1, 40, 64)).astype(np.float32) * 0.5
        h_whole = whole.prefill(x.copy())
        sess = chunked.new_session()
        outs = [chunked.prefill_chunk(x[:, c : c + 16].copy(), sess) for c in (0, 16, 32)]
        h_chunked = np.concatenate(outs, axis=1)
        rel = np.abs(h_chunked - h_whole).max() / (np.abs(h_whole).max() + 1e-9)
        assert rel < 0.05
        # And decode continues seamlessly from the chunked session.
        step = rng.standard_normal((1, 64)).astype(np.float32) * 0.5
        out = chunked.decode_step(step, sess)
        assert out.shape == (1, 64) and np.all(np.isfinite(out))
