"""Real-token execution mode: the scheduler and the numerics share pages.

``execute=True`` runs every scheduler step's tokens through
TinyTransformer + the paged low-bit cache, with the runner's per-layer
pools indexed by the engine's own page table.  The schedule must be
byte-for-byte the analytical one (same clock, same admissions, same
preemptions), and every generated token must actually have been run.
"""

import pytest

from repro.attn import AnalyticalBackend
from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.model.memory import int_format
from repro.serving import ContinuousBatchingEngine, EngineConfig, poisson_trace
from repro.verify import INT4_KERNEL, NR, int4_paged_stack

STACK = int4_paged_stack(TINY, get_arch("a100"), max_batch=8, max_steps=400)


def _run_pair(trace, **overrides):
    analytical = STACK.engine(trace, execute=False, **overrides).run()
    executed = STACK.engine(trace, **overrides).run()
    return analytical, executed


class TestExecuteMode:
    def test_schedule_matches_analytical(self):
        trace = poisson_trace(6, 50.0, prompt_len=48, output_len=8, seed=3)
        analytical, executed = _run_pair(trace, n_pages=96)
        assert executed.total_generated_tokens == analytical.total_generated_tokens
        assert executed.decode_steps == analytical.decode_steps
        assert executed.prefill_steps == analytical.prefill_steps
        assert executed.preemptions == analytical.preemptions
        assert executed.sim_time_s == pytest.approx(analytical.sim_time_s)
        assert analytical.executed_tokens is None
        assert executed.executed_tokens == executed.total_generated_tokens

    def test_executes_through_preemption_and_recompute(self):
        # A pool tight enough that decode growth forces a preemption; the
        # victim recomputes its full context through the runner's recorded
        # input program on re-admission.
        trace = poisson_trace(6, 100.0, prompt_len=40, output_len=30, seed=0)
        analytical, executed = _run_pair(trace, n_pages=7)
        assert executed.preemptions > 0
        assert executed.preemptions == analytical.preemptions
        assert executed.total_generated_tokens == analytical.total_generated_tokens
        assert executed.executed_tokens == executed.total_generated_tokens

    def test_executes_under_chunked_prefill(self):
        trace = poisson_trace(5, 100.0, prompt_len=70, output_len=10, seed=1)
        analytical, executed = _run_pair(trace, n_pages=12, prefill_chunk_tokens=NR)
        assert executed.mixed_steps == analytical.mixed_steps
        assert executed.total_generated_tokens == analytical.total_generated_tokens
        assert executed.executed_tokens == executed.total_generated_tokens

    def test_execute_requires_numeric_backend(self):
        backend = AnalyticalBackend(STACK.kernel)
        with pytest.raises(ValueError, match="token-executing"):
            EngineConfig(backend=backend, execute=True, n_pages=16, **STACK.knobs)
        with pytest.raises(ValueError, match="token-executing"):
            EngineConfig(attention=STACK.kernel, execute=True, n_pages=16, **STACK.knobs)

    def test_execute_requires_page_size_nr(self):
        with pytest.raises(ValueError, match="N_r"):
            ContinuousBatchingEngine(
                STACK.config(n_pages=16, page_size=NR * 2),
                poisson_trace(2, 10.0, prompt_len=16, output_len=2),
            )

    def test_execute_requires_explicit_pool_size(self):
        with pytest.raises(ValueError, match="n_pages"):
            STACK.config()

    def test_config_requires_some_attention(self, a100):
        with pytest.raises(ValueError, match="attention"):
            EngineConfig(model=TINY, arch=a100, fmt=int_format(4, TINY))

    def test_execute_rejects_non_paged_numeric_backend(self, a100):
        from repro.attn import ContiguousBitBackend

        with pytest.raises(ValueError, match="paged-bit"):
            EngineConfig(
                backend=ContiguousBitBackend(INT4_KERNEL, a100),
                execute=True,
                n_pages=16,
                **STACK.knobs,
            )
