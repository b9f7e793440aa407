"""The sublra benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout holding ``src/sublra``.  Each workload runs
in fresh child processes with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 set for
the children only.  ``--trace 0`` reports the end-to-end metrics; set-up runs
three times (two set-up-only children plus the measuring child) and its
median is reported.  ``--trace 1`` reports the per-layer metrics from a
traced run and the tracing overhead.  Earlier lines of standard output carry
run metadata (versions, thread count, commit, source line count, check
details); the last line is the result object.  See README.md in this
directory for the metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "out")
WORKLOADS = ("tables_dense", "cross_sublinear", "montecarlo_tails",
             "cross_lram_large")

END_TO_END = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "read_frac": "fraction",
    "rel_err_median": "ratio",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "bench.self_s": "s",
    "linalg.s": "s",
    "linalg.calls": "count",
    "montecarlo.self_s": "s",
    "synth.s": "s",
    "synth.calls": "count",
    "testmat.s": "s",
    "testmat.calls": "count",
    "sketch.s": "s",
    "sketch.calls": "count",
    "sketch.reads": "count",
    "sketch.degenerate": "count",
    "cur.maxvol_s": "s",
    "cur.maxvol_calls": "count",
    "cur.maxvol_swaps": "count",
    "cur.log_volume_calls": "count",
    "cross.self_s": "s",
    "cross.sweeps": "count",
    "cross.restarts": "count",
    "cross.reads": "count",
    "leverage.s": "s",
    "leverage.reads": "count",
    "matio.read_s": "s",
    "matio.bytes": "bytes",
    "trace.trials_per_s_untraced": "1/s",
    "trace.trials_per_s_traced": "1/s",
    "trace.overhead_frac": "fraction",
}

# Time allowed for all child processes of one run: the measuring phase may
# run past --seconds (it ends on a cycle boundary and after min_trials
# trials), and set-up, reference values and checks come on top.  At
# --seconds 20 this is 170 s.
DEADLINE_BASE_S = 120
DEADLINE_PER_SECOND = 2.5
SETUP_PROBES = 2


class BenchError(Exception):
    pass


def child(role, args, deadline):
    """Run one worker process to completion and return its JSON record."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--workdir", WORKDIR]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {role} process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process printed nothing")
    return json.loads(lines[-1])


def result_line(args, main, setup_times):
    s = main["summary"]
    problems = list(s["problems"])
    if s["failed"]:
        problems.append(f"{s['failed']} of {s['trials']} trials failed")
    if args.trace:
        layers = main["layers"]
        metrics = {name: {"value": float(layers.get(name, 0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "trials_per_s": s["trials_per_s"],
            "trial_ms_p50": s.get("trial_ms_p50"),
            "trial_ms_p90": s.get("trial_ms_p90"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": main["peak_rss_mb"],
            "read_frac": s["read_frac"],
            "rel_err_median": s["rel_err_median"],
            "ok_frac": 1 - s["failed"] / s["trials"],
        }
        if s["latencies"] < 100:
            problems.append(f"only {s['latencies']} latency samples")
        missing = [k for k, v in values.items() if v is None]
        if missing:
            raise BenchError(f"no value for {missing}")
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    return problems, {"correct": not problems, "attempted": s["trials"],
                      "failed": s["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("need --seconds > 0 and --seed >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "sublra", "__init__.py")):
        print(f"no sublra sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = (time.monotonic() + DEADLINE_BASE_S
                + DEADLINE_PER_SECOND * args.seconds)
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.workload == "cross_lram_large":
            child("prepare", args, deadline)
        setup_times = []
        if not args.trace:
            setup_times = [child("setup", args, deadline)["setup_s"]
                           for _ in range(SETUP_PROBES)]
        main_record = child("main", args, deadline)
        if not args.trace:
            setup_times.append(main_record["setup_s"])
        problems, result = result_line(args, main_record, setup_times)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    meta = dict(main_record["meta"], workload=args.workload, seed=args.seed,
                trace=args.trace, setup_times_s=setup_times,
                summary=main_record["summary"], problems=problems)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
