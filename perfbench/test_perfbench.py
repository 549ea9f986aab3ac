"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

The workload tests run every workload for real (about a minute on two
cores): sample counts are checked at the sizes the benchmark uses, not
at shrunken ones.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads_and_bounds_setup_widest():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert all(run.why(name) for name in workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in BENCH["end_to_end"]:
        assert m["better"] == ("higher" if "tok" in m["name"].split(".")[0] else "lower")


def _fake_workload(ok: bool):
    class Fake(workloads.Workload):
        name = "fake"

        def params(self):
            return {}

        def prepare(self):
            return None

        def run(self, prepared):
            modeled = {
                name: 1.0 for name, _ in run.declared("end_to_end") if run.clock(name) == "modeled"
            }
            return workloads.Round(tokens=1, modeled=modeled, attempted=1)

        def offline(self, first):
            return {"fake_check": ok}

    return Fake


@pytest.mark.parametrize("ok", [True, False])
def test_a_failed_check_prints_incorrect_and_exits_nonzero(ok, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "fake", _fake_workload(ok))
    code = run.main(["--workload", "fake", "--seed", "3", "--seconds", "0.001", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == (0 if ok else 1)
    assert result["correct"] is ok
    assert result["failed"] == (0 if ok else 1)
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == dict(run.declared("end_to_end"))
    manifest = json.loads((tmp_path / "runs" / "fake-seed3-trace0" / "manifest.json").read_text())
    assert manifest["seed"] == 3 and manifest["pinned_threads"] == run.THREADS
    assert {"git_sha", "python", "numpy", "nproc", "held_out_seed", "params"} <= set(manifest)


def test_without_the_library_the_runner_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("runs", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "paged_kernel", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ----------------------------------------------------------------- tracer


def test_tracer_self_time_is_span_time_minus_child_spans():
    class Layer:
        def outer(self):
            time.sleep(0.002)
            self.inner()
            self.inner()

        def inner(self):
            time.sleep(0.003)
            self.tick()

        def tick(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.patch(Layer, "outer", lambda fn: tracer.span("a", "outer", fn))
    tracer.patch(Layer, "inner", lambda fn: tracer.span("b", "inner", fn))
    tracer.patch(Layer, "tick", lambda fn: tracer.counter("ticks", fn))
    Layer().outer()
    tracer.restore()
    assert Layer.__dict__["outer"] is original

    layers = tracer.layer_table()
    assert layers["a"]["calls"] == 1 and layers["b"]["calls"] == 2
    assert tracer.counts == {"ticks": 2}
    assert layers["a"]["self_s"] + layers["b"]["self_s"] == pytest.approx(layers["a"]["incl_s"])
    assert layers["b"]["self_s"] >= 0.006 and layers["a"]["self_s"] >= 0.002
    assert tracer.outer_calls(lambda key: key[0] == "b") == 2

    events = tracer.chrome_trace("unit", tracer.spans[0][1])["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["outer", "inner", "inner"]
    assert [e["args"]["parent"] for e in spans] == [-1, 0, 0]


# -------------------------------------------------------------- workloads


@pytest.fixture(scope="module")
def rounds():
    """Two independent runs of every workload at one seed (round + offline)."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        pair = []
        for _ in range(2):
            workload = cls(7)
            first = workload.run(workload.prepare())
            checks = workload.offline(first)
            pair.append((workload, first, checks))
        out[name] = pair
    return out


def test_every_workload_passes_its_checks(rounds):
    for name, ((_, first, checks), _) in rounds.items():
        assert checks and all(checks.values()), (name, checks)
        assert first.incomplete == 0, name


def test_priced_and_modeled_values_repeat_exactly_at_one_seed(rounds):
    modeled_names = {n for n, _ in run.declared("end_to_end") if run.clock(n) == "modeled"}
    for name, ((_, a, _), (_, b, _)) in rounds.items():
        assert modeled_names <= set(a.modeled), name
        assert a.modeled == b.modeled, name
        assert all(a.modeled[n] > 0 for n in modeled_names), name
        assert set(a.modeled) - modeled_names <= {n for n, _ in run.declared("per_layer")}, name


def test_percentiles_keep_ten_samples_beyond_them(rounds):
    for name, ((_, first, _), _) in rounds.items():
        for metric, _ in run.declared("end_to_end"):
            base, _, q = metric.rpartition(".p")
            if not q.isdigit():
                continue
            samples = first.samples[base]
            assert workloads.tail_supported(len(samples), int(q)), (name, metric, len(samples))
        for metric, _ in run.declared("per_layer"):
            base, _, q = metric.rpartition(".p")
            if q.isdigit() and metric in first.modeled and first.modeled[metric]:
                assert workloads.tail_supported(len(first.samples[base]), int(q)), (name, metric)
    kernel_steps = rounds["paged_kernel"][0][1].state["step_ms"]
    assert workloads.tail_supported(len(kernel_steps), 90)


def test_the_workloads_produce_every_per_layer_metric_benchmark_json_names(rounds):
    tracer = Tracer()
    dequant = layers.instrument(tracer)
    tracer.restore()
    # The runner adds these three from the traced run's two rounds.
    produced = {"bench.tok_per_wall_s", "trace.traced_wall_s", "trace.overhead_s"}
    for (_, first, _), _ in rounds.values():
        produced |= set(first.modeled)
        produced |= set(layers.per_layer_metrics(tracer, dequant, first.modeled, first.state))
    assert {name for name, _ in run.declared("per_layer")} <= produced
