"""The benchmark's four workloads.

Each workload builds its inputs from the seed alone, sets up the system
(:meth:`Workload.prepare`, timed as set-up), and runs one *round* of
fixed work (:meth:`Workload.run`, timed as the measured phase).  Every
round of a run repeats the same inputs, so its modeled values — priced
by ``repro.gpu`` / ``repro.model.inference`` — must repeat bit for bit;
the wall clock only measures how fast this implementation gets there.
Work that is needed for checks or for modeled twins (other cache
formats on the same inputs) runs once, after the measured phase, in
:meth:`Workload.offline`.

Why these four (``BENCHMARK.json`` gives each a one-line reason, which
every run's manifest records):

- ``decode_longctx`` is decode-bound with FP16 pool-limited, so the
  paper's low-bit serving effect shows; it bypasses numerics, the prefix
  cache, the tiers and the router.
- ``prefix_chat`` is the latency workload below capacity: open-loop
  Poisson arrivals, shared prefixes, chunked prefill, two routed
  replicas.
- ``executed_swap`` is the only workload where real tokens pass through
  the runner, the transformer and the paged gather while the tier store
  swaps frames.
- ``paged_kernel`` is the paper's dequantize-and-tile-walk decode path at
  kernel size, which the serving workloads bypass or run at toy size.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.attn import PagedBitBackend
from repro.baselines.flash_decoding import FlashDecodingV2
from repro.cluster.router import Router
from repro.core.attention import BitDecoding
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B, TINY
from repro.model.inference import decode_step_breakdown
from repro.model.memory import fp16_format, int_format
from repro.serving import (
    ContinuousBatchingEngine,
    EngineConfig,
    Request,
    paper_serving_stacks,
    poisson_trace,
)

FORMATS = ("fp16", "int4", "int2")


def burst(trace: List[Request]) -> List[Request]:
    """``trace`` as an offline batch: every request arrives at t=0."""
    return [replace(r, arrival_s=0.0) for r in trace]


@dataclass
class Round:
    """What one measured round produced."""

    #: Generated (decoded) tokens.
    tokens: int
    #: Deterministic values: ``priced_*`` metrics plus modeled per-layer
    #: values.  Every round of a run must reproduce them exactly.
    modeled: Dict[str, float]
    #: Raw samples behind percentile metrics (for sample counts).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Requests (or sequences) the round attempted / did not complete.
    attempted: int = 0
    incomplete: int = 0
    #: Objects the offline checks and the per-layer metrics read.
    state: Dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def tail_supported(n: int, q: float) -> bool:
    """At least ten samples lie beyond percentile ``q`` of ``n`` samples."""
    return n * (100.0 - q) / 100.0 >= 10.0


def _mean_batch(reports) -> float:
    steps = sum(r.decode_steps for r in reports)
    return sum(r.total_generated_tokens for r in reports) / steps if steps else 0.0


def _kernel_us(model, attention, batch: float, ctx: float) -> float:
    """Modeled attention-kernel microseconds of one layer's decode step at
    a mean batch, interpolated between the whole batches around it (so the
    value moves smoothly with the batch instead of jumping at roundings)."""
    lo = max(1, int(batch))
    us = [
        attention.decode_time_ms(model.attention_geometry(b, int(ctx))) * 1e3
        for b in (lo, lo + 1)
    ]
    return us[0] + max(0.0, batch - lo) * (us[1] - us[0])


def _attention_share(model, arch, attention, batch: float, ctx: float) -> float:
    """Modeled attention ms over total ms of one decode step (the Amdahl
    bound from kernel speed-up to end-to-end speed-up)."""
    step = decode_step_breakdown(model, arch, attention, max(1, round(batch)), int(ctx))
    return step.attention_ms / step.total_ms


class Workload:
    """One set of inputs the benchmark runs."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.arch = get_arch("a100")

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def prepare(self) -> Any:
        raise NotImplementedError

    def run(self, prepared: Any) -> Round:
        raise NotImplementedError

    def discard(self, prepared: Any) -> None:
        """Drop a set-up that will not run (releases what it holds)."""

    def offline(self, first: Round) -> Dict[str, bool]:
        """Twins and correctness checks outside the measured phase.

        May add modeled values to ``first.modeled``; returns named checks.
        """
        return {}


# --------------------------------------------------------------- serving


def _replicas(report) -> list:
    """The per-engine reports behind a serving or cluster report."""
    return getattr(report, "per_replica", [report])


def _tbt_metrics(tbt_ms: List[float]) -> Dict[str, float]:
    return {
        "priced_tbt_ms.p50": percentile(tbt_ms, 50),
        "priced_tbt_ms.p99": percentile(tbt_ms, 99),
    }


class ServingWorkload(Workload):
    """A request trace through the continuous-batching engine."""

    model = LLAMA31_8B

    def serving_round(self, trace, engines, reports, int4_engines, share_stacks) -> Round:
        """The round of one trace: ``engines`` are every engine the
        measured phase ran, ``reports`` maps their formats to a report;
        the INT4 engines supply the latency samples.  ``share_stacks``
        are the FP16 and INT4 ``(format, attention)`` pairs the attention
        share is priced on."""
        lifecycles = [lc for e in int4_engines for lc in e.lifecycles]
        tbt = [s * 1e3 for e in int4_engines for s in e.tbt_samples]
        queue_waits = [
            lc.admitted_s - lc.request.arrival_s for lc in lifecycles if lc.admitted_s is not None
        ]
        ttfts = [
            lc.first_token_s - lc.request.arrival_s
            for lc in lifecycles
            if lc.first_token_s is not None
        ]
        ctx = statistics.median(r.prompt_len + r.output_len / 2 for r in trace)
        int4 = _replicas(reports["int4"])
        batch = _mean_batch(int4)
        modeled = {f"priced_tok_s.{k}": r.sustained_tokens_per_s for k, r in reports.items()}
        modeled.update(_tbt_metrics(tbt))
        modeled["priced_kernel_us"] = _kernel_us(self.model, share_stacks[1][1], batch, ctx)
        modeled["serving.steps"] = sum(e._steps for e in engines)
        for key, report in reports.items():
            modeled[f"serving.batch_mean.{key}"] = _mean_batch(_replicas(report))
            modeled[f"serving.peak_resident.{key}"] = max(
                r.peak_resident_batch for r in _replicas(report)
            )
        modeled["serving.preemptions"] = sum(
            r.preemptions for report in reports.values() for r in _replicas(report)
        )
        for q in (50, 95):
            for name, samples in (("serving.queue_wait_s", queue_waits), ("serving.ttft_s", ttfts)):
                supported = tail_supported(len(samples), q)
                modeled[f"{name}.p{q}"] = percentile(samples, q) if supported else 0.0
        probe = sum(r.prefix_probe_tokens for r in int4)
        hits = sum(r.prefix_hit_tokens for r in int4)
        modeled.update(
            {
                "pages.prefix_hit_rate": hits / probe if probe else 0.0,
                "pages.prefix_evictions": sum(r.prefix_evictions for r in int4),
                "pages.shared_pages_peak": max(r.shared_pages_peak for r in int4),
                "pages.tiers.swap_outs": sum(r.swap_outs for r in int4),
                "pages.tiers.h2d_mb": sum(r.offload_h2d_bytes for r in int4) / 1e6,
                "pages.tiers.d2h_mb": sum(r.offload_d2h_bytes for r in int4) / 1e6,
                "pages.tiers.stall_s": sum(r.offload_stall_s for r in int4),
                "pages.tiers.overlapped_s": sum(r.offload_overlapped_s for r in int4),
            }
        )
        for key, (_, attention) in zip(("fp16", "int4"), share_stacks):
            modeled[f"model.attention_share.{key}"] = _attention_share(
                self.model, self.arch, attention, batch, ctx
            )
        return Round(
            tokens=sum(r.total_generated_tokens for r in reports.values()),
            modeled=modeled,
            samples={
                "priced_tbt_ms": tbt,
                "serving.queue_wait_s": queue_waits,
                "serving.ttft_s": ttfts,
            },
            attempted=len(trace) * len(reports),
            incomplete=sum(r.n_requests - r.completed for r in reports.values()),
        )


class DecodeLongCtx(ServingWorkload):
    name = "decode_longctx"
    n_requests = 48
    prompt_len = 16384
    output_len = 256

    def params(self):
        return dict(
            model=self.model.name,
            arch=self.arch.name,
            requests=self.n_requests,
            arrival="burst (every request at t=0)",
            prompt_len=f"{self.prompt_len} +-25%",
            output_len=f"{self.output_len} +-25%",
            stacks="paper_serving_stacks FP16/INT4/INT2 at equal device memory",
            prefill="whole prompt",
        )

    def prepare(self):
        trace = burst(
            poisson_trace(
                self.n_requests,
                rate_rps=1.0,
                prompt_len=self.prompt_len,
                output_len=self.output_len,
                seed=self.seed,
                prompt_jitter=0.25,
                output_jitter=0.25,
            )
        )
        stacks = paper_serving_stacks(self.model, self.arch)
        engines = [
            ContinuousBatchingEngine(
                EngineConfig(model=self.model, arch=self.arch, fmt=fmt, attention=attention),
                trace,
            )
            for fmt, attention in stacks
        ]
        return trace, stacks, engines

    def run(self, prepared):
        trace, stacks, engines = prepared
        reports = {key: engine.run() for key, engine in zip(FORMATS, engines)}
        result = self.serving_round(trace, engines, reports, [engines[1]], stacks[:2])
        result.state = {"reports": reports}
        return result

    def offline(self, first):
        reports = first.state["reports"]
        tokens = {r.total_generated_tokens for r in reports.values()}
        return {
            "all_requests_complete": all(r.completed == r.n_requests for r in reports.values()),
            "token_totals_equal_across_formats": len(tokens) == 1,
            "peak_resident_fp16_lt_int4_le_int2": (
                reports["fp16"].peak_resident_batch
                < reports["int4"].peak_resident_batch
                <= reports["int2"].peak_resident_batch
            ),
        }


class PrefixChat(ServingWorkload):
    name = "prefix_chat"
    n_requests = 600
    rate_rps = 7.0
    prompt_len = 4096
    output_len = 128
    replicas = 2
    prefix_groups = 15
    chunk = 512

    def params(self):
        return dict(
            model=self.model.name,
            arch=self.arch.name,
            requests=self.n_requests,
            arrival=f"open-loop, exponential gaps at {self.rate_rps} req/s (modeled clock)",
            prompt_len=(
                f"{self.prompt_len} +-25%, 75% shared prefix over {self.prefix_groups} groups"
            ),
            output_len=f"{self.output_len} +-50%",
            replicas=self.replicas,
            router="prefix_affinity",
            prefix_cache=True,
            prefill_chunk_tokens=self.chunk,
            stack="INT4 timed; FP16/INT2 priced as offline twins",
        )

    def _router(self, trace, fmt, attention) -> Router:
        config = EngineConfig(
            model=self.model,
            arch=self.arch,
            fmt=fmt,
            attention=attention,
            prefix_cache=True,
            prefill_chunk_tokens=self.chunk,
        )
        return Router(config, trace, self.replicas, policy="prefix_affinity")

    def prepare(self):
        trace = poisson_trace(
            self.n_requests,
            rate_rps=self.rate_rps,
            prompt_len=self.prompt_len,
            output_len=self.output_len,
            seed=self.seed,
            prompt_jitter=0.25,
            output_jitter=0.5,
            shared_prefix_fraction=0.75,
            prefix_groups=self.prefix_groups,
        )
        stacks = paper_serving_stacks(self.model, self.arch)
        return trace, stacks, self._router(trace, *stacks[1])

    def run(self, prepared):
        trace, stacks, router = prepared
        report = router.run()
        engines = router.engines
        result = self.serving_round(trace, engines, {"int4": report}, engines, stacks[:2])
        result.modeled.update(
            {
                "cluster.cross_replica_misses": report.cross_replica_prefix_misses,
                "cluster.load_imbalance": report.load_imbalance,
                "cluster.groups_split": report.prefix_groups_split,
            }
        )
        result.state = {"report": report, "router": router, "trace": trace, "stacks": stacks}
        return result

    def offline(self, first):
        trace, stacks, router = first.state["trace"], first.state["stacks"], first.state["router"]
        report = first.state["report"]
        twins = {}
        for key, (fmt, attention) in zip(FORMATS, stacks):
            if key != "int4":
                twins[key] = self._router(trace, fmt, attention).run()
                first.modeled[f"priced_tok_s.{key}"] = twins[key].sustained_tokens_per_s
        served = sorted(lc.request.req_id for e in router.engines for lc in e.lifecycles)
        return {
            "every_request_dispatched_once": (
                served == sorted(r.req_id for r in trace)
                and sorted(router.dispatch_log) == served
                and sum(router.dispatch_counts) == len(trace)
            ),
            "all_requests_complete": all(
                r.completed == r.n_requests for r in [report, *twins.values()]
            ),
            "prefix_hit_rate_positive": report.prefix_hit_rate > 0,
        }


class ExecutedSwap(ServingWorkload):
    name = "executed_swap"
    model = TINY
    n_requests = 20
    prompt_len = 512
    output_len = 256
    device_pages = 200
    host_pages = 1200
    max_batch = 16

    def __init__(self, seed):
        super().__init__(seed)
        self.kernel = BitDecoding(BitDecodingConfig(bits=4, wn=1), self.arch)
        self.page_size = self.kernel.config.residual_block_size

    def params(self):
        return dict(
            model=self.model.name,
            arch=self.arch.name,
            requests=self.n_requests,
            arrival="burst (every request at t=0)",
            prompt_len=f"{self.prompt_len} +-25%",
            output_len=f"{self.output_len} +-25%",
            backend="paged-bit INT4, wn=1 (page size = N_r = 32)",
            preemption="swap",
            device_pages=self.device_pages,
            host_pages=self.host_pages,
            max_batch=self.max_batch,
            twins="analytical INT4 (checks), FP16 and INT2 (priced)",
        )

    def _config(self, fmt, **kind) -> EngineConfig:
        return EngineConfig(
            model=self.model,
            arch=self.arch,
            fmt=fmt,
            page_size=self.page_size,
            max_batch=self.max_batch,
            preemption="swap",
            device_pages=self.device_pages,
            host_pages=self.host_pages,
            **kind,
        )

    def _int4(self):
        return int_format(4, self.model, residual_window=self.page_size)

    def prepare(self):
        trace = burst(
            poisson_trace(
                self.n_requests,
                rate_rps=1.0,
                prompt_len=self.prompt_len,
                output_len=self.output_len,
                seed=self.seed,
                prompt_jitter=0.25,
                output_jitter=0.25,
            )
        )
        config = self._config(
            self._int4(),
            backend=PagedBitBackend(self.kernel),
            execute=True,
            execute_seed=self.seed,
        )
        return trace, ContinuousBatchingEngine(config, trace)

    def run(self, prepared):
        trace, engine = prepared
        report = engine.run()
        share_stacks = [(fp16_format(), FlashDecodingV2(self.arch)), (self._int4(), self.kernel)]
        result = self.serving_round(trace, [engine], {"int4": report}, [engine], share_stacks)
        result.state = {"report": report, "trace": trace, "layers": self.model.n_layers}
        return result

    def offline(self, first):
        trace, executed = first.state["trace"], first.state["report"]
        twin = ContinuousBatchingEngine(
            self._config(self._int4(), attention=self.kernel), trace
        ).run()
        for key, fmt, attention in (
            ("fp16", fp16_format(), FlashDecodingV2(self.arch)),
            (
                "int2",
                int_format(2, self.model, residual_window=self.page_size),
                BitDecoding(BitDecodingConfig(bits=2, wn=1), self.arch),
            ),
        ):
            priced = ContinuousBatchingEngine(self._config(fmt, attention=attention), trace).run()
            first.modeled[f"priced_tok_s.{key}"] = priced.sustained_tokens_per_s
        return {
            "executed_tokens_match_schedule": (
                executed.executed_tokens == executed.total_generated_tokens
            ),
            "all_requests_complete": executed.completed == executed.n_requests,
            "analytical_twin_reproduces_sim_time": twin.sim_time_s == executed.sim_time_s,
            "analytical_twin_reproduces_swaps": (
                (twin.swap_outs, twin.swap_ins) == (executed.swap_outs, executed.swap_ins)
            ),
            "swap_path_exercised": executed.swap_outs > 0,
        }


# ---------------------------------------------------------------- kernel


def _uniform16(rng: np.random.Generator, shape) -> np.ndarray:
    """FP16 values uniform in [-0.5, 0.5): a third of the cost of normal
    draws, which keeps the kernel workload's set-up short."""
    return (rng.random(shape, dtype=np.float32) - 0.5).astype(np.float16)


class PagedKernel(Workload):
    name = "paged_kernel"
    batch = 8
    heads = 8
    head_dim = 64
    prefill_target = 8192
    prefill_chunk = 2048
    steady_steps = 128

    def __init__(self, seed):
        super().__init__(seed)
        self.config = BitDecodingConfig(bits=4)
        self.nr = self.config.residual_block_size
        rng = np.random.default_rng([seed, 0])
        # A prefill that is not a multiple of N_r: its residual fill makes
        # the steady steps cross one flush between step 16 and step 96.
        fill = int(rng.integers(self.nr - 96, self.nr - 16))
        self.prefill_len = self.prefill_target - self.nr + fill
        self.check_step = int(rng.integers(0, self.steady_steps))
        total = self.prefill_len + 1 + self.steady_steps
        self.n_pages = self.batch * -(-total // self.nr)
        self.backend: Optional[PagedBitBackend] = None

    def params(self):
        return dict(
            backend="paged-bit",
            config=self.config.short_name,
            arch=self.arch.name,
            batch=self.batch,
            hq=self.heads,
            hkv=self.heads,
            head_dim=self.head_dim,
            prefill_len=self.prefill_len,
            prefill_chunk=self.prefill_chunk,
            residual_block_n_r=self.nr,
            steady_steps=self.steady_steps,
            pages=self.n_pages,
        )

    def contexts(self) -> List[int]:
        """Context length each decode step attends over (cold step first)."""
        return [self.prefill_len + 1 + i for i in range(self.steady_steps + 1)]

    def prepare(self):
        rng = np.random.default_rng([self.seed, 1])
        steps = self.steady_steps + 1
        k, v = (
            _uniform16(rng, (self.batch, self.heads, self.prefill_len, self.head_dim))
            for _ in range(2)
        )
        q = rng.random((steps, self.batch, 1, self.heads, self.head_dim), dtype=np.float32) - 0.5
        k_new, v_new = (
            _uniform16(rng, (steps, self.batch, self.heads, self.head_dim)) for _ in range(2)
        )
        if self.backend is None:
            self.backend = PagedBitBackend(
                self.config, self.arch, n_pages=self.n_pages, n_slots=self.batch
            )
        handle = self.backend.new_handle(self.batch, self.heads, self.head_dim)
        return handle, k, v, q, k_new, v_new

    def discard(self, prepared):
        self.backend.release(prepared[0])

    def run(self, prepared):
        handle, k, v, q, k_new, v_new = prepared
        backend = self.backend
        clock = time.perf_counter
        for lo in range(0, self.prefill_len, self.prefill_chunk):
            hi = min(lo + self.prefill_chunk, self.prefill_len)
            backend.prefill(None, (k[:, :, lo:hi], v[:, :, lo:hi]), handle)
        t0 = clock()
        backend.append_kv((k_new[0], v_new[0]), handle)
        out = backend.decode_step(q[0], handle)
        cold_ms = (clock() - t0) * 1e3
        finite = bool(np.isfinite(out).all())
        step_ms: List[float] = []
        for i in range(1, self.steady_steps + 1):
            t0 = clock()
            backend.append_kv((k_new[i], v_new[i]), handle)
            out = backend.decode_step(q[i], handle)
            step_ms.append((clock() - t0) * 1e3)
            finite = finite and bool(np.isfinite(out).all())
        store = handle.store
        packed_bytes = store.packed_nbytes + store.meta_nbytes
        backend.release(handle)
        return Round(
            tokens=self.batch * (self.steady_steps + 1),
            modeled={
                "attn.packed_mb": packed_bytes / 1e6,
                "core.bytes_per_step_mb": self.bytes_per_step(packed_bytes) / 1e6,
            },
            attempted=self.batch,
            incomplete=0 if finite else self.batch,
            state={"cold_ms": cold_ms, "step_ms": step_ms, "finite": finite},
        )

    def bytes_per_step(self, packed_bytes: int) -> float:
        """Bytes one steady decode step reads at the median context,
        computed from tensor sizes (not measured traffic): the packed
        words + metadata of every full block, the FP16 residual rows, and
        the query and output."""
        ctx = statistics.median(self.contexts())
        blocks = int(ctx) // self.nr
        res = int(ctx) - blocks * self.nr
        per_page = packed_bytes / self.n_pages
        residual = self.batch * self.heads * res * self.head_dim * 2 * 2
        q_out = 2 * self.batch * self.heads * self.head_dim * 4
        return self.batch * blocks * per_page + residual + q_out

    def priced(self) -> Dict[str, Any]:
        """Modeled kernel time of every step, per cache format."""
        systems = {
            "fp16": FlashDecodingV2(self.arch),
            "int4": BitDecoding(self.config, self.arch),
            "int2": BitDecoding(BitDecodingConfig(bits=2), self.arch),
        }
        out: Dict[str, Any] = {}
        for key, system in systems.items():
            out[key] = [
                system.decode_time_ms(
                    AttentionGeometry(
                        batch=self.batch,
                        hq=self.heads,
                        hkv=self.heads,
                        seq_len=ctx,
                        head_dim=self.head_dim,
                    )
                )
                for ctx in self.contexts()
            ]
        return out

    def offline(self, first):
        step_ms = self.priced()
        tokens = self.batch * len(self.contexts())
        for key, ms in step_ms.items():
            first.modeled[f"priced_tok_s.{key}"] = tokens / (sum(ms) * 1e-3)
        # Tokens after the first come one per sequence per steady step.
        tbt = [ms for ms in step_ms["int4"][1:] for _ in range(self.batch)]
        first.samples["priced_tbt_ms"] = tbt
        first.modeled.update(_tbt_metrics(tbt))
        first.modeled["priced_kernel_us"] = statistics.median(step_ms["int4"]) * 1e3
        return {
            "outputs_finite": first.state["finite"],
            "grouped_decode_bit_identical_to_looped": self.grouped_matches_looped(),
        }

    def grouped_matches_looped(self) -> bool:
        """Replay the seeded check step on a short copy of the round (eight
        blocks of prefill, same residual fill) and compare the grouped
        decode with the per-sequence loop bit for bit.  A separate backend
        keeps the check's extra dequant memos out of the measured round."""
        rng = np.random.default_rng([self.seed, 2])
        prefill = 8 * self.nr + self.prefill_len % self.nr
        shape = (self.batch, self.heads, prefill, self.head_dim)
        k, v = _uniform16(rng, shape), _uniform16(rng, shape)
        pages = self.batch * -(-(prefill + self.steady_steps + 1) // self.nr)
        backend = PagedBitBackend(self.config, self.arch, n_pages=pages, n_slots=self.batch)
        handle = backend.new_handle(self.batch, self.heads, self.head_dim)
        backend.prefill(None, (k, v), handle)
        kv_shape = (self.batch, self.heads, self.head_dim)
        for _ in range(self.check_step + 1):
            q = rng.random((self.batch, 1, self.heads, self.head_dim), dtype=np.float32) - 0.5
            backend.append_kv((_uniform16(rng, kv_shape), _uniform16(rng, kv_shape)), handle)
            grouped = backend.decode_step(q, handle)
        equal = bool(np.array_equal(grouped, backend.decode_step_looped(q, handle)))
        backend.release(handle)
        return equal


WORKLOADS = {w.name: w for w in (DecodeLongCtx, PrefixChat, ExecutedSwap, PagedKernel)}
