"""Executed cluster serving: sharded TP decode is bit-exact, config gates.

The strongest cluster claim: with ``execute=True`` at ``tp=2`` behind
routed replicas, every replica's decoded streams must be bit-identical
to a single-rank (``tp=1``) rerun of exactly the requests that replica
served.  The rerun preserves each replica's prefix-cache hit pattern —
a cache hit makes the suffix prefill attend dequantized (lossy) prefix
KV while a miss attends exact FP32 KV, so only same-subset reruns are
comparable, not a whole-trace merge.
"""

import pytest

from repro.attn import PagedBitBackend
from repro.cluster import Router, ShardedPagedBackend
from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.serving import EngineConfig, poisson_trace
from repro.verify import int4_paged_stack, matches_single_engine, matches_single_rank

STACK = int4_paged_stack(
    TINY, get_arch("a100"), n_pages=96, max_batch=8, max_steps=600, execute_seed=0
)


class TestExecutedCluster:
    @pytest.mark.parametrize("prefix_cache", [False, True])
    def test_tp2_replicas2_bit_exact_vs_single_rank_reruns(self, prefix_cache):
        trace = poisson_trace(
            8,
            200.0,
            prompt_len=96,
            output_len=12,
            seed=3,
            shared_prefix_fraction=0.5,
            prefix_groups=3,
        )
        router = Router(
            STACK.config(n_gpus=2, tp=2, prefix_cache=prefix_cache),
            trace,
            replicas=2,
            policy="prefix_affinity",
        )
        report = router.run()
        assert report.completed == len(trace)
        assert matches_single_rank(router, STACK.config(prefix_cache=prefix_cache))

    def test_without_prefix_cache_matches_whole_trace_single_engine(self):
        # With the prefix cache off there is no hit-pattern dependence,
        # so the merged cluster output must equal one engine serving the
        # whole trace at tp=1.
        trace = poisson_trace(6, 100.0, prompt_len=64, output_len=10, seed=1)
        router = Router(STACK.config(n_gpus=2, tp=2), trace, replicas=2, policy="round_robin")
        router.run()
        assert matches_single_engine(router, STACK.config(), trace)


class TestConfigValidation:
    def test_tp_must_be_positive(self):
        with pytest.raises(ValueError, match="tp must be >= 1"):
            STACK.config(execute=False, tp=0)

    def test_tp_must_divide_kv_heads(self):
        with pytest.raises(ValueError, match="does not divide"):
            STACK.config(execute=False, tp=3, n_gpus=3)

    def test_tp_spans_the_engines_gpus(self):
        with pytest.raises(ValueError, match="n_gpus must equal"):
            STACK.config(execute=False, tp=2, n_gpus=1)

    def test_execute_tp_needs_matching_sharded_backend(self):
        single, wrong_tp = PagedBitBackend(STACK.kernel), ShardedPagedBackend(STACK.kernel, tp=4)
        for backend in (single, wrong_tp):
            with pytest.raises(ValueError, match="ShardedPagedBackend"):
                EngineConfig(backend=backend, execute=True, n_gpus=2, tp=2, **STACK.knobs)

    def test_execute_tp_rejects_swap_preemption(self):
        with pytest.raises(ValueError, match="swap"):
            STACK.config(n_gpus=2, tp=2, preemption="swap")
