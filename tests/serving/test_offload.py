"""Swap-based preemption: tiered offload executed end to end.

The parity contract: a swap run's decode outputs are bit-identical to a
*never-swapped* run over the same total page budget — demotion and
promotion move packed pages without touching a bit.  (Recompute replay
is bit-exact too — the runner re-decodes consumed inputs through the
quantized cache — but swap runs are the cleaner reference because their
schedule never re-prefills at all.)
"""

import pytest

from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.model.memory import MemoryTierModel
from repro.serving import ContinuousBatchingEngine, poisson_trace
from repro.verify import NR, decoded_bit_exact, int4_paged_stack, schedule_match

#: Near-simultaneous arrivals whose aggregate context (8 requests x 4
#: pages) far exceeds the 8-page device tier — admission must succeed
#: through the host tier and decode must proceed by swapping.
DEVICE, HOST = 8, 28
STACK = int4_paged_stack(TINY, get_arch("a100"), max_batch=16, max_steps=2000)
SWAP_STACK = int4_paged_stack(
    TINY,
    get_arch("a100"),
    max_batch=16,
    max_steps=2000,
    preemption="swap",
    device_pages=DEVICE,
    host_pages=HOST,
)


def _trace():
    return poisson_trace(8, 100000.0, prompt_len=40, output_len=60, seed=3)


class TestSwapExecution:
    def test_over_capacity_trace_completes_by_swapping(self):
        engine = ContinuousBatchingEngine(SWAP_STACK.config(), _trace())
        report = engine.run()
        assert report.completed == 8 and report.rejected == 0
        assert report.preemptions == 0  # pressure was paid in swaps
        assert report.swap_outs > 0
        assert report.swap_ins == report.swap_outs
        assert report.executed_tokens == report.total_generated_tokens == 8 * 60
        assert report.offload_d2h_bytes > 0 and report.offload_h2d_bytes > 0
        assert report.preemption == "swap"
        assert report.device_pages == DEVICE and report.host_pages == HOST
        assert report.n_pages == DEVICE + HOST

    def test_swapped_decode_bit_identical_to_never_swapped(self):
        swap = ContinuousBatchingEngine(SWAP_STACK.config(), _trace())
        swap_report = swap.run()
        assert swap_report.swap_outs > 0
        baseline = ContinuousBatchingEngine(STACK.config(n_pages=DEVICE + HOST), _trace())
        baseline_report = baseline.run()
        assert baseline_report.preemptions == 0  # truly unpressured
        assert decoded_bit_exact(swap, baseline)

    def test_swap_beats_recompute_at_equal_device_budget(self):
        swap = ContinuousBatchingEngine(SWAP_STACK.config(), _trace()).run()
        recompute = ContinuousBatchingEngine(STACK.config(n_pages=DEVICE), _trace()).run()
        assert recompute.preemptions > 0
        assert swap.total_generated_tokens == recompute.total_generated_tokens
        assert swap.sustained_tokens_per_s > recompute.sustained_tokens_per_s

    def test_executed_schedule_matches_analytical(self):
        executed = ContinuousBatchingEngine(SWAP_STACK.config(), _trace()).run()
        analytical = ContinuousBatchingEngine(SWAP_STACK.config(execute=False), _trace()).run()
        assert analytical.executed_tokens is None
        fields = ("total_generated_tokens", "decode_steps", "swap_outs", "swap_ins")
        assert schedule_match(analytical, executed, fields)
        assert executed.sim_time_s == pytest.approx(analytical.sim_time_s)

    def test_faults_and_stall_are_priced(self):
        report = ContinuousBatchingEngine(SWAP_STACK.config(), _trace()).run()
        pcie_only = ContinuousBatchingEngine(STACK.config(n_pages=DEVICE + HOST), _trace()).run()
        # Tier traffic costs real simulated time on top of the compute.
        assert report.sim_time_s > pcie_only.sim_time_s
        assert report.offload_stall_s >= 0.0
        assert report.offload_overlapped_s > 0.0

    def test_slower_tier_model_costs_more_time(self):
        fast = ContinuousBatchingEngine(SWAP_STACK.config(), _trace()).run()
        slow = ContinuousBatchingEngine(
            SWAP_STACK.config(tier_model=MemoryTierModel(pcie_gbs=0.001)), _trace()
        ).run()
        assert slow.sim_time_s > fast.sim_time_s

    def test_request_larger_than_device_tier_rejected(self):
        trace = poisson_trace(1, 10.0, prompt_len=DEVICE * NR + 40, output_len=4, seed=0)
        report = ContinuousBatchingEngine(SWAP_STACK.config(host_pages=64), trace).run()
        assert report.rejected == 1 and report.completed == 0


class TestSwapConfigValidation:
    def test_swap_needs_tier_sizes(self):
        with pytest.raises(ValueError, match="device_pages"):
            STACK.config(preemption="swap", host_pages=8)
        with pytest.raises(ValueError, match="host_pages"):
            STACK.config(preemption="swap", device_pages=8)

    def test_swap_derives_the_pool(self):
        with pytest.raises(ValueError, match="derived"):
            SWAP_STACK.config(n_pages=64)

    def test_recompute_forbids_tier_geometry(self):
        with pytest.raises(ValueError, match='preemption="swap"'):
            STACK.config(n_pages=16, device_pages=8)
        with pytest.raises(ValueError, match='preemption="swap"'):
            STACK.config(n_pages=16, tier_model=MemoryTierModel())

    def test_unknown_preemption_rejected(self):
        with pytest.raises(ValueError, match="preemption"):
            STACK.config(n_pages=16, preemption="migrate")

    def test_recompute_report_shows_whole_pool_as_device(self):
        report = ContinuousBatchingEngine(STACK.config(n_pages=DEVICE + HOST), _trace()).run()
        assert report.preemption == "recompute"
        assert report.device_pages == report.n_pages
        assert report.swap_outs == 0 and report.offload_h2d_bytes == 0
