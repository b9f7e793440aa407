"""One workload in one process; started by ``run.py`` with one BLAS thread.

Roles: ``prepare`` writes input files, ``setup`` only sets up and reports the
time, ``main`` sets up, measures and checks.  The last line of standard
output is one JSON object for ``run.py``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def measure(wl, seconds, min_trials, tracer=None):
    """Closed loop over ``wl.call`` until ``seconds`` of wall time would be
    exceeded by one more cycle, never stopping inside a cycle or before
    ``min_trials`` trials.  Returns the outcomes and the summed call time."""
    from tracer import Tracer
    clock = tracer
    if clock is None and wl.trial_clock:
        clock = Tracer(only=wl.trial_clock).install()
    outcomes, busy_ns, i = [], 0, 0
    start = time.perf_counter()
    try:
        while True:
            if i and i % wl.cycle == 0:
                elapsed = time.perf_counter() - start
                per_cycle = elapsed / (i // wl.cycle)
                if (sum(o.trials for o in outcomes) >= min_trials
                        and elapsed + per_cycle > seconds):
                    break
            first_span = len(clock.spans) if clock else 0
            root = tracer.open_root() if tracer else None
            t0 = time.perf_counter_ns()
            try:
                result, exc = wl.call(i), None
            except Exception as err:    # a failed call is counted, not fatal
                result, exc = None, err
            t1 = time.perf_counter_ns()
            if root:
                tracer.close_root(root, "call")
            busy_ns += t1 - t0
            marks = (sorted(s[4] for s in clock.spans[first_span:]
                            if s[3] in wl.trial_clock)
                     if clock and wl.trial_clock else [])
            outcomes.append(wl.failed_call(i, exc) if exc else
                            wl.check(i, result, (t1 - t0) / 1e6, marks, t1))
            i += 1
    finally:
        if clock is not None and clock is not tracer:
            clock.uninstall()
    return outcomes, busy_ns / 1e9


def summarize(outcomes, busy_s):
    """End-to-end figures of one measured phase."""
    trials = sum(o.trials for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    latencies = [ms for o in outcomes for ms in o.trial_ms]
    reads = [r for o in outcomes for r in o.reads]
    groups = {}
    for o in outcomes:
        for group, err in o.errors:
            groups.setdefault(group, []).append(err)
    alg33 = [e for o in outcomes for e in o.alg33_errors]
    out = {
        "trials": trials,
        "failed": failed,
        "trials_per_s": (trials - failed) / busy_s,
        "latencies": len(latencies),
        "read_frac": statistics.fmean(reads) if reads else None,
        "rel_err_median": (statistics.median(
            statistics.median(v) for v in groups.values()) if groups else None),
        "rel_err_group_medians": {g: statistics.median(v)
                                  for g, v in groups.items()},
        "alg33_rel_err_median": statistics.median(alg33) if alg33 else None,
        "degenerate": sum(o.degenerate for o in outcomes),
        "problems": [p for o in outcomes for p in o.problems],
    }
    if len(latencies) >= 2:
        out["trial_ms_p50"] = statistics.median(latencies)
        out["trial_ms_p90"] = statistics.quantiles(latencies, n=10)[8]
    return out


def src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(root):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return {
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "src_lines": src_lines(root),
    }


def run_main(wl, args):
    """Set up, measure and check; returns the record for ``run.py``."""
    from tracer import Tracer
    record = {"meta": {}}
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl.setup()
    setup_s = time.perf_counter() - STARTED
    if tracer:
        tracer.uninstall()
    phases = record["meta"]["phase_s"] = {"setup": setup_s}
    lap = time.perf_counter()
    wl.reference()
    wl.call(0)      # warm-up: lazy imports and first-touch allocations
    phases["reference_and_warmup"] = time.perf_counter() - lap
    lap = time.perf_counter()
    if tracer:
        # Same calls twice: untraced, then traced; the difference in
        # throughput is the tracing overhead.
        half = args.seconds / 2
        plain, plain_busy = measure(wl, half, 1)
        rate_plain = summarize(plain, plain_busy)["trials_per_s"]
        tracer.install()
        try:
            outcomes, busy = measure(wl, half, 1, tracer=tracer)
        finally:
            tracer.uninstall()
    else:
        outcomes, busy = measure(wl, args.seconds, wl.min_trials)
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        record["setup_s"] = setup_s
    phases["measure"] = time.perf_counter() - lap
    lap = time.perf_counter()
    extra, problems, meta = wl.finish()
    summary = summarize(outcomes + [extra], busy)
    if tracer:
        layers = tracer.layer_metrics()
        layers["trace.trials_per_s_untraced"] = rate_plain
        layers["trace.trials_per_s_traced"] = summary["trials_per_s"]
        layers["trace.overhead_frac"] = 1 - summary["trials_per_s"] / rate_plain
        record["layers"] = dict(layers)
        record["meta"]["self_s_by_layer"] = {
            k[:-len(".self_s")]: v for k, v in sorted(layers.items())
            if k.endswith(".self_s")}
        spans = os.path.join(args.workdir,
                             f"spans-{wl.name}-seed{args.seed}.jsonl")
        tracer.write_spans(spans)
        record["meta"]["spans_file"] = os.path.relpath(spans, args.root)
    phases["finish"] = time.perf_counter() - lap
    summary["problems"] += problems
    record["summary"] = summary
    record["meta"].update(meta)
    record["meta"]["environment"] = environment(args.root)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("prepare", "setup", "main"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import sublra
    import workloads
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(sublra.__file__).startswith(src + os.sep):
        raise SystemExit(f"sublra imported from {sublra.__file__}, "
                         f"not from {src}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir=args.workdir)
    if args.role == "prepare":
        wl.prepare()
        record = {}
    elif args.role == "setup":
        wl.setup()
        record = {"setup_s": time.perf_counter() - STARTED}
    else:
        record = run_main(wl, args)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
