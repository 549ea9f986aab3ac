"""Differential oracles: the equivalences the low-bit decode must survive.

BitDecoding's claim only counts if the low-bit decode is bit-exact no
matter what the serving machinery does around it.  Each oracle below
names the equivalence it proves and returns a :class:`Verdict`: truthy
when it holds, else naming the first mismatch.  :func:`int4_paged_stack`
builds the stack the cross-checks run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from repro.attn import PagedBitBackend
from repro.cluster.sharding import ShardedPagedBackend
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.model.memory import int_format
from repro.serving import ContinuousBatchingEngine, EngineConfig

#: The kernel every cross-check runs: INT4 with ``wn=1``, which keeps the
#: residual block size ``N_r`` (one scheduler page of an executed run)
#: small enough for short prompts to span several pages.
INT4_KERNEL = BitDecodingConfig(bits=4, wn=1)
NR = INT4_KERNEL.residual_block_size
#: Report counters an executed run must share with its analytical twin.
EXECUTE_FIELDS = ("total_generated_tokens", "decode_steps", "prefill_steps", "preemptions")
#: Under fault injection: every fault outcome, recovery action and
#: deadline decision must land on the same step in both modes.
CHAOS_FIELDS = EXECUTE_FIELDS + (
    "mixed_steps",
    "swap_outs",
    "swap_ins",
    "transfer_retries",
    "lost_pages",
    "checksum_failures",
    "healed_pages",
    "healed_requests",
    "shed",
    "timed_out",
    "failed",
    "completed",
    "slow_steps",
)


@dataclass(frozen=True)
class Verdict:
    """An oracle's answer: truthy when the equivalence holds."""

    ok: bool
    why: str = ""

    def __bool__(self) -> bool:
        return self.ok


def schedule_match(a, b, fields, time_tol: Optional[float] = None) -> Verdict:
    """Executed ≡ analytical: reports ``a`` and ``b`` agree on every named counter.

    ``b`` is an executed run: it must have run exactly the tokens it
    generated, so a report with no runner behind it (``executed_tokens``
    None) fails.  ``a`` may be analytical; if it ran tokens, the same
    holds for it.  With ``time_tol`` the simulated clocks must agree to
    that relative tolerance (plus 1 ns).
    """
    for name in fields:
        if getattr(a, name) != getattr(b, name):
            return Verdict(False, f"{name}: {getattr(a, name)} vs {getattr(b, name)}")
    if b.executed_tokens != b.total_generated_tokens:
        return Verdict(False, f"ran {b.executed_tokens} of {b.total_generated_tokens} tokens")
    if a.executed_tokens not in (None, a.total_generated_tokens):
        return Verdict(False, f"ran {a.executed_tokens} of {a.total_generated_tokens} tokens")
    ta, tb = a.sim_time_s, b.sim_time_s
    if time_tol is not None and abs(ta - tb) > 1e-9 + time_tol * max(abs(ta), abs(tb)):
        return Verdict(False, f"sim_time_s: {ta} vs {tb}")
    return Verdict(True)


def finished_ids(engine) -> set:
    """Request ids an engine ran to completion."""
    return {lc.request.req_id for lc in engine.lifecycles if lc.finished}


def _decoded(run) -> Mapping:
    return run if isinstance(run, Mapping) else run._runner.decoded


def decoded_bit_exact(a, b, finished=None) -> Verdict:
    """Swapped ≡ never-swapped, shared ≡ copied: ``a``'s decode equals ``b``'s, bitwise.

    ``a``/``b`` are executed engines or ``req_id -> [hidden states]`` maps.
    By default both hold the same requests with streams of equal length.
    With ``finished`` set (recovered ≡ fault-free), ``a`` may stop requests
    early (a chaos run sheds and times out): each of its streams must be a
    prefix of ``b``'s, and a request in ``finished`` must match in full.
    """
    a, b = _decoded(a), _decoded(b)
    if finished is None and a.keys() != b.keys():
        return Verdict(False, f"request sets differ: {sorted(a.keys() ^ b.keys())}")
    for req_id, steps in a.items():
        if req_id not in b:
            return Verdict(False, f"request {req_id}: no reference stream")
        ref = b[req_id]
        full = finished is None or req_id in finished
        if len(steps) > len(ref) or (full and len(steps) != len(ref)):
            return Verdict(False, f"request {req_id}: {len(steps)} vs {len(ref)} decode steps")
        for i, (x, y) in enumerate(zip(steps, ref)):
            if not np.array_equal(x, y):
                return Verdict(False, f"request {req_id}: decode step {i} differs")
    return Verdict(True)


def exactly_once(router, trace) -> Verdict:
    """Exactly-once dispatch: one replica handled each request and it finished once."""
    handled = sorted(lc.request.req_id for e in router.engines for lc in e.lifecycles)
    done = [lc.request.req_id for e in router.engines for lc in e.lifecycles if lc.finished]
    if handled != sorted(r.req_id for r in trace):
        return Verdict(False, f"handled {handled}")
    if len(done) != len(set(done)) or len(done) != len(trace):
        return Verdict(False, f"finished {sorted(done)} of {len(trace)} requests")
    return Verdict(True)


def matches_single_rank(router, config: EngineConfig) -> Verdict:
    """Sharded ≡ single-rank: each replica's decode ≡ its subset rerun on ``config``.

    The schedules may differ (tp pricing moves the clock) but decode is
    schedule-independent, and the same subset keeps prefix-cache hits alike.
    """
    for i, engine in enumerate(router.engines):
        subset = [lc.request for lc in engine.lifecycles]
        if not subset:
            continue
        reference = ContinuousBatchingEngine(config, subset)
        reference.run()
        verdict = decoded_bit_exact(engine, reference)
        if not verdict:
            return Verdict(False, f"replica {i}: {verdict.why}")
    return Verdict(True)


def matches_single_engine(router, config: EngineConfig, trace) -> Verdict:
    """The replicas' merged decode ≡ one ``config`` engine serving ``trace``.

    Only meaningful without the prefix cache, whose hit pattern depends
    on which requests share a replica.
    """
    merged = {k: v for engine in router.engines for k, v in _decoded(engine).items()}
    whole = ContinuousBatchingEngine(config, trace)
    whole.run()
    return decoded_bit_exact(merged, whole)


@dataclass(frozen=True)
class PagedStack:
    """One INT4 kernel plus the engine knobs a cross-check's runs share.

    ``knobs`` is read-only: a run that differs says so through
    :meth:`config`'s overrides.
    """

    kernel: BitDecoding
    knobs: Mapping

    def config(self, execute: bool = True, **overrides) -> EngineConfig:
        """An engine config; executing ones shard the backend when tp > 1."""
        knobs = {**self.knobs, **overrides}
        if not execute:
            return EngineConfig(attention=self.kernel, **knobs)
        backend = PagedBitBackend(self.kernel)
        if knobs.get("tp", 1) > 1:
            backend = ShardedPagedBackend(self.kernel, tp=knobs["tp"])
        return EngineConfig(backend=backend, execute=True, **knobs)

    def engine(self, trace, execute: bool = True, **overrides) -> ContinuousBatchingEngine:
        return ContinuousBatchingEngine(self.config(execute, **overrides), trace)


def int4_paged_stack(
    model, arch, page_size: Optional[int] = None, residual_window: Optional[int] = None, **knobs
) -> PagedStack:
    """The :data:`INT4_KERNEL` stack; page size and residual window default to N_r."""
    window = NR if residual_window is None else residual_window
    fmt = int_format(4, model, residual_window=window)
    page_size = NR if page_size is None else page_size
    knobs = dict(model=model, arch=arch, fmt=fmt, page_size=page_size, **knobs)
    return PagedStack(BitDecoding(INT4_KERNEL, arch), MappingProxyType(knobs))
