"""Fast tests of the benchmark itself, at reduced sizes."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import sublra
import workloads
import worker
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _small(name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name](seed, small=True, workdir=str(tmp_path))
    wl.prepare()
    wl.setup()
    wl.reference()
    return wl


def _measure(wl, cycles, tracer=None):
    """Exactly ``cycles`` cycles: with no time to spend, the loop stops at
    the first cycle boundary after ``min_trials`` trials."""
    per_call = getattr(wl, "trials", 1)
    outcomes, busy = worker.measure(wl, 0, cycles * wl.cycle * per_call,
                                    tracer=tracer)
    assert len(outcomes) == cycles * wl.cycle
    return outcomes, busy


def _run(wl, cycles=2, tracer=None):
    outcomes, busy = _measure(wl, cycles, tracer)
    extra, problems, _ = wl.finish()
    return worker.summarize(outcomes + [extra], busy), problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    summary, problems = _run(_small(name, tmp_path))
    assert problems == [] and summary["problems"] == []
    assert summary["failed"] == 0 and summary["trials"] > 0
    assert summary["trials_per_s"] > 0
    assert summary["latencies"] == summary["trials"]
    assert 0 < summary["read_frac"]
    assert summary["rel_err_median"] is not None
    assert math.isfinite(summary["rel_err_median"])


@pytest.mark.parametrize("name", ["tables_dense", "cross_sublinear",
                                  "montecarlo_tails"])
def test_counts_repeat_for_a_fixed_seed(name, tmp_path):
    def counts():
        wl = _small(name, tmp_path)
        tracer = Tracer().install()
        try:
            outcomes, _ = _measure(wl, 2, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        return ([(o.trials, o.reads, o.errors, o.degenerate)
                 for o in outcomes],
                {k: v for k, v in layers.items()
                 if not k.endswith(("_s", ".s"))})

    first, second = counts(), counts()
    assert first == second
    assert first[1]["sketch.calls"] > 0


@pytest.mark.parametrize("name", ["tables_dense", "cross_sublinear"])
def test_errors_do_not_depend_on_run_length(name, tmp_path):
    def errors(cycles):
        wl = _small(name, tmp_path)
        wl.error_calls = wl.cycle
        outcomes, _ = _measure(wl, cycles)
        return [e for o in outcomes for e in o.errors]

    assert errors(1) == errors(3) != []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_min_trials_reach_the_error_set(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, workdir=str(tmp_path))
    per_call = getattr(wl, "trials", 1)
    assert wl.min_trials >= getattr(wl, "error_calls", 0) * per_call
    if name == "montecarlo_tails":
        assert wl.min_trials // wl.cycle >= wl.replay_trials


def test_non_finite_replayed_ratio_fails_its_trial(tmp_path, monkeypatch):
    wl = _small("montecarlo_tails", tmp_path)
    _measure(wl, 2)
    replay = wl.replay
    monkeypatch.setattr(wl, "replay", lambda name, t: (
        (math.nan, 0.5) if name == "factor_gaussian" else replay(name, t)))
    extra, problems, _ = wl.finish()
    assert extra.failed == wl.replay_trials
    assert len(problems) == wl.replay_trials
    assert all(g == "random_space" for g, _ in extra.errors)


def test_traced_run_restores_every_module_attribute(tmp_path):
    modules = [m for k, m in sys.modules.items()
               if k == "sublra" or k.startswith("sublra.")]
    before = [(m, dict(vars(m))) for m in modules]
    original = vars(sublra.cross)["maxvol_rows"]
    wl = _small("cross_sublinear", tmp_path)
    tracer = Tracer().install()
    assert sublra.cross.maxvol_rows is not original
    try:
        _run(wl, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    for module, attrs in before:
        now = vars(module)
        assert set(now) == set(attrs), module.__name__
        assert all(now[k] is v for k, v in attrs.items()), module.__name__
    metrics = tracer.layer_metrics()
    assert metrics["cur.maxvol_calls"] > 0 and metrics["cross.sweeps"] > 0
    assert metrics["cur.maxvol_s"] > 0 and metrics["bench.self_s"] == 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans[:] = [
        (1, 0, "cur", "maxvol_rows", 10, 30, 0, False),
        (2, 0, "linalg", "pinv", 40, 50, 0, True),
        (0, None, "cross", "ca_iterate", 0, 100, 7, True),
    ]
    m = tracer.layer_metrics()
    assert m["cross.self_s"] == pytest.approx(70e-9)
    assert m["cross.s"] == pytest.approx(100e-9)
    assert m["cross.reads"] == 7
    assert m["cur.maxvol_s"] == pytest.approx(20e-9)
    assert m["linalg.calls"] == 1


def test_every_layer_module_is_wrapped():
    tracer = Tracer().install()
    try:
        layers = {getattr(m, a).__module__.rsplit(".", 1)[1]
                  for m, a, _ in tracer._saved}
    finally:
        tracer.uninstall()
    assert layers == set(LAYERS)


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cross_sublinear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
