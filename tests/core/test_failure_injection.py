"""Failure injection: corrupted data, poisoned inputs, config mismatches.

A cache is storage; storage fails.  These tests pin how the system behaves
when things go wrong — corrupt packed words must visibly change outputs
(no silent masking), non-finite inputs must be rejected before they poison
group scales, and mismatched kernel configurations must refuse to run.
"""

import numpy as np
import pytest

from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.core.quantization import quantize


class TestCorruption:
    def test_flipped_word_changes_decode_output(self, rng):
        """Bit flips in the packed cache must propagate to the output —
        the layout round trip is lossless, including for damage.  In-place
        mutation bypasses the append-only memo bookkeeping, so the memoized
        reconstruction must be dropped explicitly."""
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        k = rng.standard_normal((1, 1, 256, 32)).astype(np.float16)
        v = rng.standard_normal((1, 1, 256, 32)).astype(np.float16)
        cache = engine.prefill(k, v)
        q = rng.standard_normal((1, 1, 4, 32)).astype(np.float16)
        clean = engine.decode(q, cache)
        cache.packed.v_words.flat[::7] ^= np.uint16(0xFFFF)  # corrupt V storage
        cache.invalidate_dequant_cache()
        corrupted = engine.decode(q, cache)
        assert not np.allclose(clean, corrupted, atol=1e-3)

    def test_corrupt_metadata_changes_reconstruction(self, rng):
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        k = rng.standard_normal((1, 1, 128, 32)).astype(np.float16)
        v = rng.standard_normal((1, 1, 128, 32)).astype(np.float16)
        cache = engine.prefill(k, v)
        k_before, _ = cache.dequantized_packed(0, 0)
        k_before = k_before.copy()
        cache.packed.k_params.scale *= 3.0
        cache.invalidate_dequant_cache()
        k_after, _ = cache.dequantized_packed(0, 0)
        assert np.abs(k_after - k_before).max() > 0.1

    def test_memoized_dequant_masks_mutation_until_invalidated(self, rng):
        """The other side of the memoization contract: without an
        invalidate (or a flush), the cached reconstruction is returned."""
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        k = rng.standard_normal((1, 1, 128, 32)).astype(np.float16)
        v = rng.standard_normal((1, 1, 128, 32)).astype(np.float16)
        cache = engine.prefill(k, v)
        k_before, _ = cache.dequant_kv()
        cache.packed.k_params.scale *= 3.0
        k_memo, _ = cache.dequant_kv()
        assert k_memo is k_before  # same cached array, no re-dequant
        cache.invalidate_dequant_cache()
        k_after, _ = cache.dequant_kv()
        assert np.abs(k_after - k_before).max() > 0.1


class TestPoisonedInputs:
    def test_nan_in_keys_rejected_at_quantization(self):
        x = np.zeros((32, 4), dtype=np.float32)
        x[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            quantize(x, 4, axis=0, group_size=32)

    def test_inf_in_values_rejected(self):
        x = np.zeros((32, 4), dtype=np.float32)
        x[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            quantize(x, 4, axis=0, group_size=32)

    def test_nan_prefill_rejected_end_to_end(self, rng):
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        k = rng.standard_normal((1, 1, 128, 32)).astype(np.float16)
        v = rng.standard_normal((1, 1, 128, 32)).astype(np.float16)
        k[0, 0, 7, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            engine.prefill(k, v)


class TestConfigMismatch:
    def test_block_refuses_wrong_instruction_config(self, rng):
        """Sec. IV-A(4): Residual and Packing kernels must share the
        ldmatrix/mma configuration; the block enforces it."""
        engine4 = BitDecoding(BitDecodingConfig(bits=4), "a100")
        k = rng.standard_normal((1, 1, 128, 32)).astype(np.float16)
        v = rng.standard_normal((1, 1, 128, 32)).astype(np.float16)
        cache = engine4.prefill(k, v)
        with pytest.raises(ValueError, match="instruction configuration"):
            cache.packed.dequant_kv(BitDecodingConfig(bits=2))

    def test_cache_and_engine_bits_must_agree(self, rng):
        """Decoding a 4-bit cache with a 2-bit engine's Packing Kernel
        fails fast rather than unpacking garbage."""
        engine4 = BitDecoding(BitDecodingConfig(bits=4), "a100")
        engine2 = BitDecoding(BitDecodingConfig(bits=2), "a100")
        k = rng.standard_normal((1, 1, 256, 32)).astype(np.float16)
        v = rng.standard_normal((1, 1, 256, 32)).astype(np.float16)
        cache = engine4.prefill(k, v)
        q = rng.standard_normal((1, 1, 4, 32)).astype(np.float16)
        with pytest.raises(ValueError):
            engine2.decode(q, cache)
