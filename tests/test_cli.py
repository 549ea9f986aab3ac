"""CLI entry point (`python -m repro`)."""

import contextlib
import io
import json
import random

import pytest

from repro.__main__ import main


class TestCli:
    def test_devices(self, capsys):
        main(["devices"])
        out = capsys.readouterr().out
        for name in ("a100", "rtx4090", "h100", "rtx5090", "rtx_pro_6000"):
            assert name in out

    def test_demo(self, capsys):
        main(["demo"])
        out = capsys.readouterr().out
        assert "compression" in out
        assert "max error" in out

    def test_sweep(self, capsys):
        main(["sweep", "--arch", "rtx4090"])
        out = capsys.readouterr().out
        assert "BitDecoding" in out
        assert "131072" in out

    def test_experiment(self, capsys):
        main(["experiment", "table2"])
        out = capsys.readouterr().out
        assert "Marlin" in out

    def test_serve_sim(self, capsys):
        main([
            "serve-sim", "--requests", "6", "--rate", "100",
            "--prompt-len", "512", "--output-len", "16",
        ])
        out = capsys.readouterr().out
        for token in ("FP16", "INT4", "INT2", "tok/s", "p99 tbt ms", "whole-prompt prefill"):
            assert token in out

    def test_serve_sim_chunked(self, capsys):
        main([
            "serve-sim", "--requests", "6", "--rate", "100",
            "--prompt-len", "512", "--output-len", "16",
            "--prefill-chunk", "128",
        ])
        out = capsys.readouterr().out
        assert "chunked prefill 128 tok/step" in out
        for token in ("FP16", "INT4", "INT2", "tok/s"):
            assert token in out

    def test_serve_sim_step_cap_and_json(self, capsys):
        import json

        main([
            "serve-sim", "--requests", "6", "--rate", "100",
            "--prompt-len", "512", "--output-len", "64",
            "--steps", "5", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert [r["format_name"] for r in payload["reports"]] == ["FP16", "INT4", "INT2"]
        assert all(r["decode_steps"] <= 5 for r in payload["reports"])

    def test_serve_sim_chunked_json(self, capsys):
        import json

        main([
            "serve-sim", "--requests", "6", "--rate", "100",
            "--prompt-len", "512", "--output-len", "16",
            "--prefill-chunk", "128", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["prefill_chunk_tokens"] == 128
        for report in payload["reports"]:
            assert report["prefill_chunk_tokens"] == 128
            assert report["completed"] == 6
            assert report["p99_tbt_s"] is not None

    def test_unknown_experiment_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestServeSimExecute:
    _ARGS = [
        "serve-sim", "--model", "tiny", "--execute",
        "--requests", "4", "--rate", "100",
        "--prompt-len", "40", "--output-len", "6",
        "--pages", "64", "--max-batch", "4", "--steps", "120",
    ]

    def test_execute_reports_matching_schedule(self, capsys):
        main(self._ARGS)
        out = capsys.readouterr().out
        assert "token counts match the analytical schedule: True" in out
        assert "executed" in out and "analytical" in out

    def test_execute_json_carries_both_reports(self, capsys):
        import json

        main(self._ARGS + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "execute"
        assert payload["schedule_match"] is True
        executed = payload["reports"]["executed"]
        analytical = payload["reports"]["analytical"]
        assert executed["executed_tokens"] == executed["total_generated_tokens"]
        assert analytical["executed_tokens"] is None
        assert executed["total_generated_tokens"] == analytical["total_generated_tokens"]


class TestServeSimPrefixCache:
    # Prompts long enough that half of one is page-aligned in *both* page
    # geometries: the analytical default (64 tok) and execute's N_r (32).
    _ARGS = [
        "serve-sim", "--model", "tiny", "--requests", "8", "--rate", "5000",
        "--prompt-len", "256", "--output-len", "24", "--max-batch", "8",
        "--seed", "7", "--shared-prefix", "0.5", "--prefix-cache",
    ]

    def test_analytical_table_has_hit_columns(self, capsys):
        main(self._ARGS)
        out = capsys.readouterr().out
        assert "prefix cache on (50% shared, 1 group)" in out
        assert "hit %" in out and "eff cap" in out

    def test_analytical_json_carries_hit_rate(self, capsys):
        import json

        main(self._ARGS + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        for report in payload["reports"]:
            assert report["prefix_cache_enabled"] is True
            assert report["prefix_hit_rate"] > 0
            assert report["effective_capacity_pages"] > report["n_pages"]

    def test_execute_runs_all_cross_checks(self, capsys):
        main(self._ARGS + ["--execute", "--pages", "96"])
        out = capsys.readouterr().out
        for check in (
            "check schedule_match: True",
            "check share_vs_copy_schedule_match: True",
            "check share_vs_copy_bit_exact: True",
            "check hit_rate_positive: True",
            "check faster_than_cache_off: True",
            "check more_effective_capacity: True",
        ):
            assert check in out

    def test_execute_json_carries_all_reports(self, capsys):
        import json

        main(self._ARGS + ["--execute", "--pages", "96", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["prefix_cache"] is True
        assert all(payload["checks"].values())
        assert set(payload["reports"]) == {
            "analytical", "executed", "executed_copy", "cache_off",
        }
        assert payload["reports"]["executed"]["prefix_hit_rate"] > 0
        assert payload["reports"]["cache_off"]["prefix_hit_rate"] == 0

    def test_no_prefix_cache_flag_restores_plain_run(self, capsys):
        main([
            "serve-sim", "--model", "tiny", "--requests", "4", "--rate", "100",
            "--prompt-len", "64", "--output-len", "8", "--no-prefix-cache",
        ])
        out = capsys.readouterr().out
        assert "prefix cache on" not in out
        assert "hit %" not in out


class TestServeSimCluster:
    _ARGS = [
        "serve-sim", "--model", "tiny", "--execute",
        "--tp", "2", "--replicas", "2", "--router", "prefix_affinity",
        "--prefix-cache", "--requests", "8", "--rate", "200",
        "--prompt-len", "96", "--output-len", "12",
        "--shared-prefix", "0.5", "--prefix-groups", "3", "--seed", "3",
    ]

    def test_executed_cluster_passes_all_checks(self, capsys):
        main(self._ARGS)
        out = capsys.readouterr().out
        assert "tp 2 x 2 replicas" in out
        assert "router prefix_affinity" in out
        assert "check exactly_once_across_replicas: True" in out
        assert "check tp_decode_bit_exact_vs_single_rank: True" in out

    def test_executed_cluster_json(self, capsys):
        import json

        main(self._ARGS + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "cluster-execute"
        assert payload["tp"] == 2 and payload["replicas"] == 2
        assert payload["allreduce_tax_ms"] > 0
        assert payload["rank_attention_ms"] < payload["full_attention_ms"]
        assert all(payload["checks"].values())
        cluster = payload["cluster"]
        assert cluster["completed"] == 8
        assert cluster["cross_replica_prefix_misses"] == 0
        assert len(cluster["per_replica"]) == 2

    def test_analytical_cluster_runs(self, capsys):
        main([
            "serve-sim", "--tp", "2", "--replicas", "2",
            "--router", "least_loaded", "--requests", "8", "--rate", "100",
            "--prompt-len", "256", "--output-len", "8",
        ])
        out = capsys.readouterr().out
        assert "analytical" in out
        assert "8 done of 8" in out

    def test_router_without_replicas_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve-sim", "--router", "prefix_affinity"])
        assert exc.value.code == 2

    def test_nonpositive_tp_or_replicas_exits_2(self):
        for flags in (["--tp", "0"], ["--replicas", "0"], ["--tp", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(["serve-sim", "--requests", "4", *flags])
            assert exc.value.code == 2

    def test_tp_must_divide_kv_heads_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve-sim", "--model", "tiny", "--tp", "3", "--requests", "4"])
        assert exc.value.code == 2

    def test_cluster_rejects_chaos_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([
                "serve-sim", "--model", "tiny", "--replicas", "2",
                "--chaos", "7", "--requests", "4",
            ])
        assert exc.value.code == 2

    def test_cluster_rejects_swap_preemption_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([
                "serve-sim", "--model", "tiny", "--tp", "2",
                "--preemption", "swap", "--requests", "4",
            ])
        assert exc.value.code == 2


def _run(argv):
    """Run the CLI in-process; return its exit code and stdout."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _run_json(argv):
    """Run the CLI in-process; return its exit code and parsed JSON output."""
    code, out = _run(argv + ["--json"])
    return code, json.loads(out)


def _assert_rejected(argv, reason):
    """Exit 2 with exactly one ``serve-sim: `` line naming ``reason``."""
    code, out = _run(argv)
    assert code == 2, out
    assert out.count("\n") == 1 and out.startswith("serve-sim: "), out
    assert reason in out, out


class TestCiCrossCheckPins:
    """The CI smoke commands' cross-checks, pinned by name and value."""

    _TIERED = [
        "--device-pages", "8", "--host-pages", "28", "--requests", "8",
        "--rate", "100000", "--prompt-len", "40", "--output-len", "60", "--seed", "3",
    ]

    def test_swap_execute_checks(self):
        code, payload = _run_json(
            ["serve-sim", "--model", "tiny", "--execute", "--preemption", "swap", *self._TIERED]
        )
        assert code == 0
        assert set(payload["checks"]) == {
            "schedule_match",
            "all_completed",
            "swap_vs_unpressured_bit_exact",
            "swap_faster_than_recompute",
        }
        assert all(value is True for value in payload["checks"].values())

    def test_chaos_execute_checks(self):
        code, payload = _run_json(
            [
                "serve-sim", "--model", "tiny", "--execute", "--chaos", "7",
                "--max-batch", "3", "--deadline-ms", "6", *self._TIERED,
            ]
        )
        assert code == 0
        assert set(payload["checks"]) == {
            "schedule_match",
            "all_damage_healed",
            "outputs_bit_exact_after_recovery",
            "exercised_retry",
            "exercised_heal",
            "exercised_shed",
        }
        assert all(value is True for value in payload["checks"].values())


class TestServeSimFlagValidation:
    _TIERED = [
        "--model", "tiny", "--device-pages", "8", "--host-pages", "28",
        "--requests", "4", "--prompt-len", "40", "--output-len", "20",
    ]

    def test_execute_recompute_rejects_tier_flags(self):
        for flag in (["--device-pages", "8"], ["--host-pages", "28"], ["--disk-pages", "4"]):
            _assert_rejected(
                ["serve-sim", "--model", "tiny", "--execute", "--requests", "2", *flag],
                "--preemption swap",
            )

    def test_chaos_deadline_zero_rejected(self):
        # 0 used to read as "no deadline" and silently run best-effort.
        for value in ("0", "-1"):
            _assert_rejected(
                ["serve-sim", "--chaos", "7", *self._TIERED, "--deadline-ms", value],
                "--deadline-ms must be positive",
            )

    def test_chaos_only_flags_rejected_even_at_their_defaults(self):
        for flag in (["--audit-every", "10"], ["--max-heals", "5"], ["--deadline-ms", "6"]):
            _assert_rejected(
                ["serve-sim", "--requests", "2", *flag], "only apply to --chaos runs"
            )

    def test_chaos_json_keeps_default_audit_cadence(self):
        code, payload = _run_json(["serve-sim", "--chaos", "7", *self._TIERED, "--steps", "20"])
        assert code == 0
        assert payload["audit_every"] == 10
        assert payload["deadline_ms"] is None

    def test_negative_residual_window_rejected(self):
        for extra in ([], ["--tp", "2"]):
            _assert_rejected(
                ["serve-sim", "--requests", "2", "--residual-window", "-5", *extra],
                "residual_window_tokens must be non-negative",
            )

    def test_trace_lengths_and_jitter_validated(self):
        for flags, reason in (
            (["--prompt-len", "0"], "must be positive"),
            (["--prompt-jitter", "1.0"], "prompt_jitter"),
            (["--output-jitter", "-0.1"], "output_jitter"),
        ):
            _assert_rejected(["serve-sim", "--requests", "2", *flags], reason)


#: Flag groups the fuzz test draws from: invalid values, flags that belong
#: to another mode, and valid knobs.  The test drops ``--execute`` from any
#: draw with ``--model tiny``, so ``--execute`` only meets the default
#: serving-scale model, which the toy-model guard rejects: every case stays
#: analytical and cheap.
_FUZZ_FLAGS = [
    ["--model", "tiny"],
    ["--model", "no-such-model"],
    ["--arch", "no-such-gpu"],
    ["--arch", "rtx4090"],
    ["--execute"],
    ["--chaos", "7"],
    ["--tp", "2"],
    ["--tp", "3"],
    ["--tp", "0"],
    ["--replicas", "2"],
    ["--replicas", "0"],
    ["--router", "least_loaded"],
    ["--router", "prefix_affinity"],
    ["--preemption", "swap"],
    ["--device-pages", "8"],
    ["--device-pages", "0"],
    ["--host-pages", "28"],
    ["--disk-pages", "4"],
    ["--pages", "96"],
    ["--pages", "0"],
    ["--page-size", "64"],
    ["--page-size", "0"],
    ["--residual-window", "-5"],
    ["--residual-window", "32"],
    ["--deadline-ms", "0"],
    ["--deadline-ms", "6"],
    ["--audit-every", "0"],
    ["--audit-every", "10"],
    ["--max-heals", "0"],
    ["--max-heals", "5"],
    ["--prefix-cache"],
    ["--shared-prefix", "0.5"],
    ["--shared-prefix", "1.5"],
    ["--prefix-groups", "0"],
    ["--prefix-groups", "3"],
    ["--prompt-len", "0"],
    ["--output-len", "0"],
    ["--prompt-jitter", "1.0"],
    ["--prompt-jitter", "0.5"],
    ["--output-jitter", "-0.1"],
    ["--requests", "0"],
    ["--rate", "-1"],
    ["--prefill-chunk", "0"],
    ["--prefill-chunk", "32"],
    ["--n-gpus", "2"],
    ["--max-batch", "0"],
]


def test_fuzz_serve_sim_flags():
    """Seeded flag combinations end in exit 0, or exit 2 with one reason line."""
    rng = random.Random(0)
    base = ["serve-sim", "--requests", "4", "--rate", "100", "--prompt-len", "64"]
    base += ["--output-len", "8", "--steps", "20"]
    for _ in range(200):
        groups = rng.sample(_FUZZ_FLAGS, rng.randint(1, 3))
        if ["--model", "tiny"] in groups:  # an executed run may fail a check under --steps
            groups = [group for group in groups if group != ["--execute"]]
        argv = base + [f for group in groups for f in group]
        code, out = _run(argv)
        if code == 2:
            assert out.count("\n") == 1 and out.startswith("serve-sim: "), (argv, out)
        else:
            assert code == 0, (argv, out)
