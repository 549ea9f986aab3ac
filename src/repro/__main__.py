"""Command-line entry point: quick tours of the reproduction.

Usage::

    python -m repro devices                 # registered GPU table
    python -m repro demo                    # tiny numerics demo
    python -m repro sweep [--arch a100]     # kernel speedup sweep
    python -m repro experiment fig10        # run one paper experiment
    python -m repro serve-sim [--steps 50]  # continuous-batching simulation
    python -m repro serve-sim --model tiny --execute  # real token execution
    python -m repro serve-sim --prefix-cache --shared-prefix 0.5  # prefix caching
    python -m repro serve-sim --model tiny --execute --preemption swap \\
        --device-pages 16 --host-pages 48   # tiered KV offload
    python -m repro serve-sim --model tiny --execute --chaos 7 \\
        --device-pages 8 --host-pages 28 --max-batch 3 --requests 8 \\
        --rate 100000 --prompt-len 40 --output-len 60 --seed 3 \\
        --deadline-ms 6                     # fault injection + recovery proof
    python -m repro serve-sim --model tiny --execute --tp 2 --replicas 2 \\
        --router prefix_affinity --prefix-cache --shared-prefix 0.5 \\
        --prefix-groups 3                   # TP sharding + replica routing
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _cmd_devices() -> None:
    from repro.gpu.arch import GPU_REGISTRY

    header = (
        f"{'name':<14} {'gen':<10} {'SMs':>4} {'GB/s':>6} {'TC fp16':>8} "
        f"{'TC fp4':>7} {'mem GB':>7} {'wgmma':>6} {'fp4':>4}"
    )
    print(header)
    print("-" * len(header))
    for spec in GPU_REGISTRY.values():
        print(
            f"{spec.name:<14} {spec.generation:<10} {spec.sm_count:>4} "
            f"{spec.dram_bw_gbs:>6.0f} {spec.tc_fp16_tflops:>8.1f} "
            f"{spec.tc_fp4_tflops:>7.1f} {spec.memory_gb:>7.0f} "
            f"{str(spec.has_wgmma):>6} {str(spec.has_native_fp4):>4}"
        )


def _cmd_demo() -> None:
    from repro import BitDecodingConfig, get_arch
    from repro.core.attention import BitDecoding
    from repro.core.softmax import reference_attention

    rng = np.random.default_rng(0)
    engine = BitDecoding(BitDecodingConfig(bits=4), get_arch("a100"))
    k = rng.standard_normal((1, 2, 400, 64)).astype(np.float16)
    v = rng.standard_normal((1, 2, 400, 64)).astype(np.float16)
    cache = engine.prefill(k, v)
    q = rng.standard_normal((1, 1, 8, 64)).astype(np.float16)
    out = engine.decode(q, cache)
    ref = reference_attention(
        q[0, 0, 0:1].astype(np.float32), k[0, 0].astype(np.float32), v[0, 0].astype(np.float32)
    )
    print(f"cache: {cache.packed_len()} packed + {cache.res_len()} residual tokens")
    print(f"compression: {cache.compression_ratio():.2f}x")
    print(f"head-0 max error vs FP16: {np.abs(out[0, 0, 0] - ref[0]).max():.4f}")


def _cmd_sweep(arch: str) -> None:
    from repro import AttentionGeometry, BitDecodingConfig, get_arch
    from repro.baselines import FlashDecodingV2
    from repro.core.attention import BitDecoding
    from repro.core.arch_support import resolve_version

    spec = get_arch(arch)
    version = resolve_version(spec)
    config = (
        BitDecodingConfig(version="fp4")
        if version == "fp4"
        else BitDecodingConfig(bits=4, version=version)
    )
    engine = BitDecoding(config, spec)
    baseline = FlashDecodingV2(spec)
    print(f"{spec.name}: {engine.config.short_name} vs FP16 FlashDecoding-v2")
    for seq in (8192, 32768, 131072):
        geom = AttentionGeometry(1, 32, 8, seq, 128)
        ratio = baseline.decode_time_ms(geom) / engine.decode_time_ms(geom)
        print(f"  seq {seq:>7}: {ratio:.2f}x")


def _cmd_experiment(name: str) -> None:
    from repro.bench import figures

    lookup = {
        "fig4": figures.fig4_motivation,
        "fig8": figures.fig8_blackwell,
        "fig9": figures.fig9_hopper,
        "fig10": figures.fig10_rtx4090,
        "fig11": figures.fig11_a100,
        "fig12": figures.fig12_e2e_kivi,
        "fig13": figures.fig13_e2e_qserve,
        "fig14": figures.fig14_residual_overhead,
        "fig15": figures.fig15_dequant_overhead,
        "fig16": figures.fig16_breakdown,
        "table1": figures.table1_accuracy,
        "table2": figures.table2_quantpack,
        "table3": figures.table3_coop_softmax,
    }
    if name not in lookup:
        print(f"unknown experiment {name!r}; choose from {sorted(lookup)}")
        sys.exit(2)
    lookup[name]().show()


def _check_flags(args, model, trace, nr: int) -> None:
    """Reject flags the chosen serve-sim mode would ignore or misread.

    One rule set for every mode; raises ValueError with the one-line
    reason, which ``serve-sim`` turns into exit 2.
    """
    chaos, execute = args.chaos is not None, args.execute
    cluster = args.tp > 1 or args.replicas > 1
    swap = args.preemption == "swap"
    tiers = args.device_pages is not None or args.host_pages is not None or args.disk_pages
    tiered = chaos or (execute and swap)
    pool_mode = "--chaos" if chaos else "--preemption swap"
    if not chaos and (args.deadline_ms, args.audit_every, args.max_heals) != (None,) * 3:
        raise ValueError("--deadline-ms, --audit-every and --max-heals only apply to --chaos runs")
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        raise ValueError(f"--deadline-ms must be positive (got {args.deadline_ms:g})")
    if args.tp < 1 or args.replicas < 1:
        raise ValueError(
            f"--tp and --replicas must be >= 1 (got tp={args.tp}, replicas={args.replicas})"
        )
    if args.replicas == 1 and args.router != "round_robin":
        raise ValueError(
            f"--router {args.router} routes across replicas; pass --replicas > 1 (or drop --router)"
        )
    if cluster and (chaos or swap or tiers):
        raise ValueError(
            "--chaos, --preemption swap and the tier sizes do not compose with "
            "--tp/--replicas yet; use recompute preemption"
        )
    if cluster and args.n_gpus not in (1, args.tp):
        raise ValueError(
            f"--tp {args.tp} spans one replica's GPUs, so --n-gpus must equal the tp degree "
            f"(or be left at its default 1); got --n-gpus {args.n_gpus}"
        )
    if (chaos or execute) and (args.page_size is not None or args.residual_window is not None):
        raise ValueError(
            f"{'--chaos' if chaos else '--execute'} derives --page-size and --residual-window "
            "from the kernel's residual block size N_r; drop those flags"
        )
    # The runner allocates the model's weights for real; a serving-scale
    # LLM would be tens of GB of float32 before the first step runs.
    if execute and model.param_count > 1e6:
        raise ValueError(
            f"--execute runs real numerics and {model.name} has "
            f"{model.param_count / 1e9:.1f}B parameters; use a toy model (e.g. --model tiny)"
        )
    if args.pages is not None and (tiered or not execute):
        raise ValueError(
            f"{pool_mode} sizes the pool from the tier geometry; use "
            "--device-pages/--host-pages, not --pages"
            if tiered
            else "--pages only applies to --execute runs"
        )
    if tiered and (args.device_pages is None or args.host_pages is None):
        raise ValueError(
            f"{pool_mode} needs --device-pages and --host-pages (the pool is their sum "
            "plus --disk-pages)"
        )
    if not tiered and (swap or tiers):
        raise ValueError(
            "--preemption swap and the tier sizes only apply to --execute --preemption swap "
            "(or --chaos) runs"
        )
    if chaos and args.prefix_cache:
        raise ValueError("--chaos does not compose with --prefix-cache yet")
    # A request whose context outgrows the tier it must decode in could never
    # finish; the engine would silently reject it, so fail fast with the fix.
    worst = max(trace, key=lambda r: r.total_len)
    need = -(-worst.total_len // nr)
    fit = args.device_pages if tiered else 96 if args.pages is None else args.pages
    if (execute or chaos) and need > fit:
        fix = f"raise --{'device-pages' if tiered else 'pages'} to at least {need}"
        if not (tiered or cluster):
            fix += f", or offload with --preemption swap --device-pages {need} --host-pages {need}"
        raise ValueError(
            f"request {worst.req_id} needs {need} pages for its {worst.total_len}-token "
            f"context (prompt + output) but the {'device tier' if tiered else 'page pool'} "
            f"holds only {fit}; it can never complete, even alone — {fix}"
        )


def _knobs(args) -> dict:
    """Engine fields every serve-sim mode takes straight from its flags."""
    return dict(
        max_batch=args.max_batch,
        n_gpus=args.tp if args.tp > 1 else args.n_gpus,
        max_steps=args.steps,
        prefill_chunk_tokens=args.prefill_chunk,
        prefix_cache=args.prefix_cache,
    )


def _stack(args, model, arch):
    """The INT4 paged stack every engine of a cross-check mode runs on."""
    from repro.verify import int4_paged_stack

    knobs = dict(_knobs(args), tp=args.tp, execute_seed=args.seed)
    if args.chaos is not None or args.preemption == "swap":
        knobs.update(
            preemption="swap",
            device_pages=args.device_pages,
            host_pages=args.host_pages,
            disk_pages=args.disk_pages,
        )
    elif args.execute:
        knobs["n_pages"] = 96 if args.pages is None else args.pages
    return int4_paged_stack(model, arch, args.page_size, args.residual_window, **knobs)


def _tier_pool(args) -> str:
    disk = f" + disk {args.disk_pages}" if args.disk_pages else ""
    return f"device {args.device_pages} + host {args.host_pages}{disk} pages, swap preemption"


def _emit(args, model, arch, payload, lines, show_checks=True) -> None:
    """Print a cross-check run as JSON or text; exit 1 if any check failed."""
    checks = payload["checks"] = {name: bool(ok) for name, ok in payload["checks"].items()}
    if show_checks:
        lines += [f"  check {name}: {ok}" for name, ok in checks.items()]
    payload = {"model": model.name, "arch": arch.name, **payload}
    print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
    if not all(checks.values()):
        sys.exit(1)


def _run_chaos(args, model, arch, stack, trace) -> None:
    """``--chaos``: the seeded demo fault plan over the swap-tiered stack.

    Plain mode reports the analytical degradation counters.  ``--execute``
    also proves recovery — schedule parity under faults, all damage
    healed, outputs bit-exact against a fault-free run — and that the
    plan exercised a retry, a heal and (under a deadline) a shed.
    """
    from repro import verify
    from repro.faults import demo_fault_spec
    from repro.serving import DeadlinePolicy

    # An executed run defaults to the committed demo plan's shed pressure.
    deadline_ms = 6.0 if args.deadline_ms is None and args.execute else args.deadline_ms
    audit_every = 10 if args.audit_every is None else args.audit_every
    chaos = dict(
        faults=demo_fault_spec(args.chaos),
        audit_every=audit_every,
        max_heals=5 if args.max_heals is None else args.max_heals,
        deadline_policy=(
            None if deadline_ms is None else DeadlinePolicy(default_deadline_s=deadline_ms * 1e-3)
        ),
    )
    report = analytical = stack.engine(trace, execute=False, **chaos).run()
    reports, checks = {"analytical": analytical.to_dict()}, {}
    if args.execute:
        chaos_engine = stack.engine(trace, **chaos)
        report = chaos_engine.run()
        free_engine = stack.engine(trace)
        fault_free = free_engine.run()
        checks = {
            "schedule_match": verify.schedule_match(
                analytical, report, verify.CHAOS_FIELDS, time_tol=1e-6
            ),
            "all_damage_healed": report.failed == 0 and not chaos_engine.tiers.has_bad_pages,
            "outputs_bit_exact_after_recovery": verify.decoded_bit_exact(
                chaos_engine, free_engine, finished=verify.finished_ids(chaos_engine)
            ),
            "exercised_retry": report.transfer_retries >= 1,
            "exercised_heal": report.healed_pages >= 1,
        }
        if deadline_ms is not None:
            checks["exercised_shed"] = report.shed >= 1
        reports.update(executed=report.to_dict(), fault_free=fault_free.to_dict())
    payload = {
        "mode": "chaos-execute" if args.execute else "chaos",
        "chaos_seed": args.chaos,
        "deadline_ms": deadline_ms,
        "audit_every": audit_every,
        "checks": checks,
        "reports": reports,
    }
    lines = [
        f"serve-sim --chaos {args.chaos}: {model.name} on {arch.name} | "
        f"INT4 paged-bit, {_tier_pool(args)}"
        + (", best-effort" if deadline_ms is None else f", deadline {deadline_ms:g} ms")
        + (", executed" if args.execute else ", analytical"),
        f"  outcome: {report.completed} finished ({report.deadline_met} in "
        f"deadline), {report.shed} shed, {report.timed_out} timed out, "
        f"{report.failed} failed of {report.n_requests}",
        f"  faults: {report.transfer_retries} retries "
        f"({report.retry_backoff_s * 1e3:.3f} ms backoff), "
        f"{report.lost_pages} lost pages, {report.checksum_failures} "
        f"checksum failures, {report.slow_steps} slow steps",
        f"  recovery: {report.healed_pages} pages healed via "
        f"{report.healed_requests} request replays, {report.audits} audits clean",
        f"  goodput: {report.goodput_tokens_per_s:.1f} tok/s in-deadline vs "
        f"{report.sustained_tokens_per_s:.1f} tok/s generated",
    ]
    _emit(args, model, arch, payload, lines)


def _run_execute(args, model, arch, stack, trace) -> None:
    """``--execute``: real tokens through TinyTransformer + the paged cache.

    The executed schedule must match the analytical one token for token.
    ``--preemption swap`` adds never-swapped and recompute references;
    ``--prefix-cache`` adds a page-copying run (bit-identical decode) and
    a cache-off run (strictly slower on a shared-prefix trace).
    """
    from repro import verify

    swap = args.preemption == "swap"
    analytical = stack.engine(trace, execute=False).run()
    engine = stack.engine(trace)
    executed = engine.run()
    checks = {"schedule_match": verify.schedule_match(analytical, executed, verify.EXECUTE_FIELDS)}
    reports = {"analytical": analytical.to_dict(), "executed": executed.to_dict()}
    pool = _tier_pool(args) if swap else f"{stack.knobs['n_pages']} pages"
    lines = [
        f"serve-sim --execute: {model.name} on {arch.name} | INT4 paged-bit, "
        f"page {verify.NR} tok (= N_r), {pool}" + (", prefix cache on" if args.prefix_cache else "")
    ]
    for label, r in (("analytical", analytical), ("executed", executed)):
        ran = "-" if r.executed_tokens is None else str(r.executed_tokens)
        lines.append(
            f"  {label:<10} generated {r.total_generated_tokens:>5} tok (ran {ran:>5}), "
            f"decode steps {r.decode_steps}, preemptions {r.preemptions}, done {r.completed}"
        )
    if swap:
        # Two recompute references bracket the swap run: an unpressured pool
        # of the same total pages (swapped ≡ never-swapped decode) and one of
        # just the device tier (the same budget paid in recomputation).
        untiered = dict(preemption="recompute", device_pages=None, host_pages=None, disk_pages=0)
        total_pages = args.device_pages + args.host_pages + args.disk_pages
        baseline_engine = stack.engine(trace, n_pages=total_pages, **untiered)
        baseline = baseline_engine.run()
        pressured = stack.engine(trace, n_pages=args.device_pages, **untiered).run()
        checks["all_completed"] = executed.completed == len(trace)
        checks["swap_vs_unpressured_bit_exact"] = verify.decoded_bit_exact(engine, baseline_engine)
        if executed.swap_outs:
            checks["swap_faster_than_recompute"] = (
                executed.sustained_tokens_per_s > pressured.sustained_tokens_per_s
            )
        reports["recompute_unpressured"] = baseline.to_dict()
        reports["recompute_pressured"] = pressured.to_dict()
        lines += [
            f"  offload: swap-outs {executed.swap_outs}, swap-ins {executed.swap_ins}, "
            f"faults {executed.offload_faults}, stall {executed.offload_stall_s * 1e3:.2f} ms, "
            f"d2h {executed.offload_d2h_bytes} B, h2d {executed.offload_h2d_bytes} B",
            f"  throughput: swap {executed.sustained_tokens_per_s:.1f} tok/s vs "
            f"recompute@device {pressured.sustained_tokens_per_s:.1f} tok/s vs "
            f"unpressured {baseline.sustained_tokens_per_s:.1f} tok/s",
        ]
    if args.prefix_cache:
        copied_engine = stack.engine(trace, prefix_share=False)
        copied = copied_engine.run()
        off = stack.engine(trace, prefix_cache=False).run()
        checks["share_vs_copy_schedule_match"] = verify.schedule_match(
            executed, copied, ("sim_time_s", "prefix_hit_tokens", "total_generated_tokens")
        )
        checks["share_vs_copy_bit_exact"] = verify.decoded_bit_exact(engine, copied_engine)
        if args.shared_prefix > 0:
            checks["hit_rate_positive"] = executed.prefix_hit_rate > 0
            checks["faster_than_cache_off"] = (
                executed.sustained_tokens_per_s > off.sustained_tokens_per_s
            )
            checks["more_effective_capacity"] = (
                executed.effective_capacity_pages > off.effective_capacity_pages
            )
        reports.update(executed_copy=copied.to_dict(), cache_off=off.to_dict())
        lines.append(
            f"  prefix cache: hit rate {executed.prefix_hit_rate:.3f} "
            f"({executed.prefix_hit_tokens}/{executed.prefix_probe_tokens} tok), "
            f"shared pages peak {executed.shared_pages_peak}, "
            f"effective capacity {executed.effective_capacity_pages} pages"
        )
    cross_checked = swap or args.prefix_cache
    if not cross_checked:
        lines.append(f"token counts match the analytical schedule: {all(checks.values())}")
    payload = {
        "mode": "execute",
        "page_size": verify.NR,
        "prefix_cache": args.prefix_cache,
        "schedule_match": bool(checks["schedule_match"]),
        "checks": checks,
        "reports": reports,
    }
    _emit(args, model, arch, payload, lines, show_checks=cross_checked)


def _run_cluster(args, model, arch, stack, trace) -> None:
    """``--tp``/``--replicas``: TP-sharded engines behind a request router.

    ``--execute`` checks exactly-once dispatch, each replica against a
    single-rank rerun of its subset and — without ``--prefix-cache``,
    whose hits depend on request co-location — the merged outputs
    against one single-rank engine serving the whole trace.
    """
    from repro import verify
    from repro.cluster import Router
    from repro.model.inference import decode_step_breakdown

    tp = args.tp
    router = Router(stack.config(args.execute), trace, replicas=args.replicas, policy=args.router)
    cluster = router.run()
    checks = {}
    if args.execute:
        single = stack.config(n_gpus=1, tp=1)
        checks["exactly_once_across_replicas"] = verify.exactly_once(router, trace)
        checks["tp_decode_bit_exact_vs_single_rank"] = verify.matches_single_rank(router, single)
        if not args.prefix_cache:
            checks["cluster_bit_exact_vs_single_engine"] = verify.matches_single_engine(
                router, single, trace
            )
    peak = max((r.peak_resident_batch for r in cluster.per_replica), default=0) or 1
    seq = max((r.total_len for r in trace), default=1)
    sharded = decode_step_breakdown(model, arch, stack.kernel, peak, seq, n_gpus=tp, tp=tp)
    full = decode_step_breakdown(model, arch, stack.kernel, peak, seq)
    payload = {
        "mode": "cluster-execute" if args.execute else "cluster",
        "tp": tp,
        "replicas": args.replicas,
        "router": args.router,
        "allreduce_tax_ms": sharded.comm_ms,
        "rank_attention_ms": sharded.attention_ms,
        "full_attention_ms": full.attention_ms,
        "checks": checks,
        "cluster": cluster.to_dict(),
    }
    p99_ttft = cluster.p99_ttft_s if cluster.p99_ttft_s is None else round(cluster.p99_ttft_s, 4)
    p99_tbt = cluster.p99_tbt_s if cluster.p99_tbt_s is None else round(cluster.p99_tbt_s * 1e3, 3)
    lines = [
        f"serve-sim cluster: {model.name} on {arch.name} | INT4, "
        f"tp {tp} x {args.replicas} replica{'s' if args.replicas != 1 else ''}, "
        f"router {args.router}"
        + (", prefix cache on" if args.prefix_cache else "")
        + (", executed" if args.execute else ", analytical"),
        f"  aggregate: {cluster.completed} done of {cluster.n_requests}, "
        f"{cluster.sustained_tokens_per_s:.1f} tok/s "
        f"(goodput {cluster.goodput_tokens_per_s:.1f}), "
        f"p99 ttft {p99_ttft} s, p99 tbt {p99_tbt} ms",
        f"  routing: dispatch {cluster.dispatch_counts}, "
        f"imbalance {cluster.load_imbalance:.2f}, "
        f"prefix groups {cluster.prefix_groups_seen} ({cluster.prefix_groups_split} split), "
        f"cross-replica prefix misses {cluster.cross_replica_prefix_misses}",
    ]
    if tp > 1:
        lines.append(
            f"  tp pricing: all-reduce tax {sharded.comm_ms:.4f} ms/step, "
            f"rank attention {sharded.attention_ms:.4f} ms vs full "
            f"{full.attention_ms:.4f} ms (batch {peak}, seq {seq})"
        )
    for i, r in enumerate(cluster.per_replica):
        lines.append(
            f"  replica {i}: {cluster.dispatch_counts[i]} requests, done {r.completed}, "
            f"{r.sustained_tokens_per_s:.1f} tok/s, preemptions {r.preemptions}"
            + (f", prefix hit rate {r.prefix_hit_rate:.3f}" if args.prefix_cache else "")
        )
    _emit(args, model, arch, payload, lines)


def _cmd_serve_sim(args) -> None:
    from repro.gpu.arch import get_arch
    from repro.model.config import get_model
    from repro.model.serving import ServingOOMError
    from repro.serving import compare_formats, paper_serving_stacks, poisson_trace
    from repro.verify import NR

    try:
        model = get_model(args.model)
        arch = get_arch(args.arch)
        trace = poisson_trace(
            args.requests,
            args.rate,
            args.prompt_len,
            args.output_len,
            seed=args.seed,
            prompt_jitter=args.prompt_jitter,
            output_jitter=args.output_jitter,
            shared_prefix_fraction=args.shared_prefix,
            prefix_groups=args.prefix_groups,
        )
        _check_flags(args, model, trace, NR)
        if not (args.execute or args.chaos is not None):  # priced-only runs: 64-token pages
            args.page_size = 64 if args.page_size is None else args.page_size
            args.residual_window = 64 if args.residual_window is None else args.residual_window
        cluster = args.tp > 1 or args.replicas > 1
        if cluster or args.chaos is not None or args.execute:
            serve = _run_cluster if cluster else _run_execute if args.chaos is None else _run_chaos
            return serve(args, model, arch, _stack(args, model, arch), trace)
        stacks = paper_serving_stacks(model, arch, residual_window=args.residual_window)
        reports = compare_formats(
            model, arch, stacks, trace, page_size=args.page_size, **_knobs(args)
        )
    except (KeyError, ValueError, ServingOOMError) as err:
        message = err.args[0] if err.args else err
        print(f"serve-sim: {message}")
        sys.exit(2)
    if args.json:
        print(json.dumps({
            "model": model.name,
            "arch": arch.name,
            "requests": args.requests,
            "rate_rps": args.rate,
            "seed": args.seed,
            "prefill_chunk_tokens": args.prefill_chunk,
            "reports": [r.to_dict() for r in reports],
        }, indent=2))
        return

    def fmt_s(value, width=10) -> str:
        return f"{value:{width}.2f}" if value is not None else f"{'-':>{width}}"

    def fmt_ms(value, width=9) -> str:
        return f"{value * 1e3:{width}.1f}" if value is not None else f"{'-':>{width}}"

    print(
        f"serve-sim: {model.name} on {arch.name} | {args.requests} requests, "
        f"Poisson {args.rate:.1f} req/s, seed {args.seed}"
    )
    print(
        f"prompt {args.prompt_len} tok, output {args.output_len} tok, "
        f"page {args.page_size} tok, max batch {args.max_batch}"
        + (f", step cap {args.steps}" if args.steps else "")
        + (
            f", chunked prefill {args.prefill_chunk} tok/step"
            if args.prefill_chunk
            else ", whole-prompt prefill"
        )
        + (
            f", prefix cache on ({args.shared_prefix:.0%} shared, "
            f"{args.prefix_groups} group{'s' if args.prefix_groups != 1 else ''})"
            if args.prefix_cache
            else ""
        )
    )
    header = (
        f"{'format':<6} {'pages':>7} {'peak':>5} {'preempt':>8} {'done':>5} "
        f"{'tok/s':>9} {'p50 ttft s':>10} {'p99 ttft s':>10} "
        f"{'p99 tbt ms':>10} {'p99 lat s':>10}"
    )
    if args.prefix_cache:
        header += f" {'hit %':>6} {'eff cap':>8}"
    print()
    print(header)
    print("-" * len(header))
    for r in reports:
        row = (
            f"{r.format_name:<6} {r.n_pages:>7} {r.peak_resident_batch:>5} "
            f"{r.preemptions:>8} {r.completed:>5} {r.sustained_tokens_per_s:>9.1f} "
            f"{fmt_s(r.p50_ttft_s)} {fmt_s(r.p99_ttft_s)} "
            f"{fmt_ms(r.p99_tbt_s, 10)} {fmt_s(r.p99_latency_s)}"
        )
        if args.prefix_cache:
            row += f" {r.prefix_hit_rate * 100:>6.1f} {r.effective_capacity_pages:>8}"
        print(row)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("devices")
    sub.add_parser("demo")
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--arch", default="a100")
    experiment = sub.add_parser("experiment")
    experiment.add_argument("name")
    serve = sub.add_parser(
        "serve-sim",
        help="continuous-batching simulation: FP16 vs INT4 vs INT2 serving",
    )
    serve.add_argument("--model", default="llama-3.1-8b")
    serve.add_argument("--arch", default="a100")
    serve.add_argument("--requests", type=int, default=96)
    serve.add_argument("--rate", type=float, default=32.0, help="Poisson req/s")
    serve.add_argument("--prompt-len", type=int, default=8192)
    serve.add_argument("--output-len", type=int, default=256)
    serve.add_argument("--prompt-jitter", type=float, default=0.0)
    serve.add_argument("--output-jitter", type=float, default=0.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="pool page size in tokens (default 64; incompatible with "
        "--execute, which uses N_r)",
    )
    serve.add_argument("--max-batch", type=int, default=384)
    serve.add_argument(
        "--residual-window",
        type=int,
        default=None,
        help="FP16 residual window tokens per sequence (default 64; "
        "incompatible with --execute, which uses N_r)",
    )
    serve.add_argument("--n-gpus", type=int, default=1)
    serve.add_argument(
        "--tp",
        type=int,
        default=1,
        help="tensor-parallel degree per engine: the KV-head space is "
        "sharded across tp ranks behind shared block tables (must divide "
        "the model's KV-head count; pricing pays one rank's attention "
        "plus the all-reduce tax, --execute cross-checks rank-local "
        "decode bit-exactly against a single-rank run)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="data-parallel engine replicas behind the request router",
    )
    serve.add_argument(
        "--router",
        choices=("round_robin", "least_loaded", "prefix_affinity"),
        default="round_robin",
        help="dispatch policy across --replicas engines: round_robin, "
        "least_loaded (fewest in-flight requests), or prefix_affinity "
        "(shared-prefix groups land on the replica whose prefix cache "
        "already holds their pages)",
    )
    serve.add_argument("--steps", type=int, default=None, help="scheduler step cap")
    serve.add_argument(
        "--prefill-chunk",
        type=int,
        default=None,
        help="chunked-prefill token budget per step (None = whole-prompt prefill)",
    )
    serve.add_argument(
        "--execute",
        action="store_true",
        help="run real tokens through TinyTransformer + the paged low-bit "
        "cache (use a tiny model, e.g. --model tiny)",
    )
    serve.add_argument(
        "--pages",
        type=int,
        default=None,
        help="page-pool size for --execute runs (pages of N_r tokens; default 96)",
    )
    serve.add_argument(
        "--preemption",
        choices=("recompute", "swap"),
        default="recompute",
        help="page-pressure discipline for --execute runs: recompute "
        "releases the victim's pages and replays its prefill; swap demotes "
        "them to the host tier and promotes them back bit-exactly (also "
        "cross-checks against recompute runs at the total and device-only "
        "page budgets)",
    )
    serve.add_argument(
        "--device-pages",
        type=int,
        default=None,
        help="device-tier frames under --preemption swap (the decode "
        "working set must fit here at once)",
    )
    serve.add_argument(
        "--host-pages",
        type=int,
        default=None,
        help="host-tier frames backing the device tier under --preemption swap",
    )
    serve.add_argument(
        "--disk-pages",
        type=int,
        default=0,
        help="modeled NVMe frames behind the host tier (default 0)",
    )
    serve.add_argument(
        "--prefix-cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="probe a radix-style prefix cache at admission and share hit "
        "pages copy-on-write (with --execute, also cross-checks sharing "
        "against a page-copying run and a cache-off run)",
    )
    serve.add_argument(
        "--shared-prefix",
        type=float,
        default=0.0,
        help="fraction of every prompt that is a common prefix within its "
        "prefix group (what the cache can hit; default 0.0)",
    )
    serve.add_argument(
        "--prefix-groups",
        type=int,
        default=1,
        help="number of disjoint shared-prefix families in the trace",
    )
    serve.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="arm the demo fault plan seeded here (transfer retries, lost "
        "pages, corruption, latency spikes, slow steps) over a swap-tiered "
        "INT4 stack; with --execute also proves recovery: schedule parity, "
        "all damage healed, outputs bit-identical to a fault-free run",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request completion deadline for --chaos runs (shed + "
        "timeout + goodput; --execute defaults to the committed demo's 6 ms)",
    )
    serve.add_argument(
        "--audit-every",
        type=int,
        default=None,
        help="invariant-audit cadence in scheduler steps for --chaos runs (default 10)",
    )
    serve.add_argument(
        "--max-heals",
        type=int,
        default=None,
        help="replay budget per request for --chaos runs (default 5); a sequence "
        "the plan keeps damaging past this many heals ends FAILED",
    )
    serve.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "devices":
        _cmd_devices()
    elif args.command == "demo":
        _cmd_demo()
    elif args.command == "sweep":
        _cmd_sweep(args.arch)
    elif args.command == "experiment":
        _cmd_experiment(args.name)
    elif args.command == "serve-sim":
        _cmd_serve_sim(args)


if __name__ == "__main__":
    main()
