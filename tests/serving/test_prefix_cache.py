"""Prefix caching end to end: hit accounting, sharing, and bit-exactness.

The cache reuses page-aligned flushed packed blocks across requests with
a common prompt prefix.  Three contracts under test:

1. *Priced and executed alike*: with ``execute=True`` the schedule is
   byte-for-byte the analytical one — hits skip the same prefill compute
   in both worlds.
2. *Sharing is free*: ``prefix_share=False`` is a diagnostic mode that
   copies hit pages into private ones instead of mapping them shared.
   Schedules and decoded hidden states must be bit-identical either way —
   copy-on-write and refcounts change *where* bits live, never the bits.
3. *Never worse*: caching on beats caching off on a shared-prefix trace
   (hit rate > 0, strictly higher tokens/s, more effective capacity).
"""

import pytest

from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.serving import EngineConfig, poisson_trace
from repro.verify import EXECUTE_FIELDS, NR, decoded_bit_exact, int4_paged_stack, schedule_match

STACK = int4_paged_stack(TINY, get_arch("a100"), n_pages=96, max_batch=8, max_steps=2000)


def _trace(n=8, rate=5000.0, prompt=96, output=24, shared=0.5, groups=1, seed=7):
    # High arrival rate so requests overlap in residence: concurrent
    # sharing (not just cached-pool resurrection) is what stresses CoW.
    return poisson_trace(
        n, rate, prompt_len=prompt, output_len=output, seed=seed,
        shared_prefix_fraction=shared, prefix_groups=groups,
    )


class TestAnalytical:
    def test_hits_on_shared_prefix_trace(self):
        trace = _trace()
        report = STACK.engine(trace, execute=False, prefix_cache=True).run()
        assert report.prefix_cache_enabled
        assert report.prefix_hit_tokens > 0
        assert report.prefix_probe_tokens > 0
        assert 0.0 < report.prefix_hit_rate <= 1.0
        assert report.shared_pages_peak > 0
        assert report.effective_capacity_pages > 96

    def test_no_hits_without_shared_prefix(self):
        trace = _trace(shared=0.0)
        report = STACK.engine(trace, execute=False, prefix_cache=True).run()
        assert report.prefix_hit_tokens == 0
        assert report.prefix_hit_rate == 0.0

    def test_disabled_reports_zeroes(self):
        report = STACK.engine(_trace(), execute=False).run()
        assert not report.prefix_cache_enabled
        assert report.prefix_hit_tokens == 0
        assert report.effective_capacity_pages == 96

    def test_caching_strictly_helps(self):
        trace = _trace()
        on = STACK.engine(trace, execute=False, prefix_cache=True).run()
        off = STACK.engine(trace, execute=False).run()
        assert on.total_generated_tokens == off.total_generated_tokens
        assert on.sustained_tokens_per_s > off.sustained_tokens_per_s
        assert on.effective_capacity_pages > off.effective_capacity_pages

    def test_prefix_groups_partition_hits(self):
        # Two disjoint prefix groups: requests only hit within their group.
        trace = _trace(groups=2)
        report = STACK.engine(trace, execute=False, prefix_cache=True).run()
        assert report.prefix_hit_tokens > 0

    def test_eviction_under_tiny_pool(self):
        # Pool too small to keep every group's prefix cached: the LRU
        # pool must recycle registered pages without ever wedging.
        trace = _trace(n=10, prompt=64, output=8, groups=5)
        report = STACK.engine(
            trace, execute=False, n_pages=10, max_batch=2, prefix_cache=True
        ).run()
        assert report.completed == 10
        assert report.prefix_evictions > 0

    def test_share_flag_requires_cache(self):
        # The validation fires before any field is touched, so the other
        # required fields can be placeholders.
        with pytest.raises(ValueError, match="prefix_share"):
            EngineConfig(model=TINY, arch=None, fmt=None, prefix_share=False)


class TestExecuted:
    def test_schedule_matches_analytical(self):
        trace = _trace()
        analytical = STACK.engine(trace, execute=False, prefix_cache=True).run()
        executed = STACK.engine(trace, prefix_cache=True).run()
        # schedule_match also pins executed_tokens == total_generated_tokens
        # on its second (executed) report.
        assert schedule_match(analytical, executed, ("prefix_hit_tokens", *EXECUTE_FIELDS))
        assert executed.sim_time_s == pytest.approx(analytical.sim_time_s)

    def test_share_vs_copy_is_bit_exact(self):
        """The load-bearing numerics check: mapping hit pages shared must
        decode the exact same hidden states as copying them privately."""
        trace = _trace()
        shared_eng = STACK.engine(trace, prefix_cache=True)
        shared = shared_eng.run()
        copied_eng = STACK.engine(trace, prefix_cache=True, prefix_share=False)
        copied = copied_eng.run()
        assert shared.sim_time_s == pytest.approx(copied.sim_time_s)
        assert shared.prefix_hit_tokens == copied.prefix_hit_tokens
        # Sharing actually happened in the shared run and not in the copy run.
        assert shared.shared_pages_peak > 0
        assert copied.shared_pages_peak == 0
        assert decoded_bit_exact(shared_eng, copied_eng)

    def test_executes_under_chunked_prefill(self):
        trace = _trace(prompt=70, output=10)
        chunked = dict(prefix_cache=True, prefill_chunk_tokens=NR, n_pages=64)
        analytical = STACK.engine(trace, execute=False, **chunked).run()
        executed = STACK.engine(trace, **chunked).run()
        assert analytical.prefix_hit_tokens > 0
        assert executed.prefix_hit_tokens == analytical.prefix_hit_tokens
        assert executed.total_generated_tokens == analytical.total_generated_tokens
        assert executed.sim_time_s == pytest.approx(analytical.sim_time_s)

    def test_executes_through_preemption(self):
        # Tight pool: decode growth forces preemptions; a preempted victim
        # re-probes the cache on re-admission and must still execute every
        # generated token.
        trace = _trace(n=6, prompt=64, output=30, rate=5000.0)
        tight = dict(prefix_cache=True, n_pages=8, max_batch=4)
        analytical = STACK.engine(trace, execute=False, **tight).run()
        executed = STACK.engine(trace, **tight).run()
        assert analytical.preemptions > 0
        assert executed.preemptions == analytical.preemptions
        assert executed.total_generated_tokens == analytical.total_generated_tokens
        assert executed.executed_tokens == executed.total_generated_tokens
