#!/usr/bin/env python3
"""Benchmark of monopair: one workload per run, end to end or traced.

From the root of a checkout:

    python3 perfbench/run.py --workload compgroup_mid --seed 0 --seconds 28 --trace 0

Set-up builds the seeded corpus SETUP_REPS times (setup_s is the median),
then a single caller runs whole passes over the corpus in a closed loop
and stops at the pass end nearest --seconds.  A traced run spends half of
--seconds untraced and half traced, so it also measures the tracing
overhead.  Every answer is checked afterwards, outside the timed phase.

The last line of stdout is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  The line before it
records the environment, the input and output digests and, where a run
holds at least 100 ops, op_p90_ms.  .bench_out/ keeps the full record and
the spans of traced runs.

The package is imported from src/ of the same checkout and nowhere else, so
the benchmark fails (exit status 1, no result line) where src/ is missing.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_UNITS = {
    "count.h_total": "count",
    "count.edges_total": "count",
    "count.det_bits_max": "bits",
    "count.gram_nonzero_frac": "frac",
    "count.classes_enumerated": "count",
    "count.fiber_total": "count",
}
# p90 needs at least 10 samples beyond it.
P90_MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compgroup_mid", "monodromy_large", "extpan_torsor", "oracle_sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_monopair():
    sys.path.insert(0, str(SRC))
    try:
        import monopair
    except ImportError as exc:
        sys.exit("perfbench: cannot import monopair from %s: %s" % (SRC, exc))
    if Path(monopair.__file__).resolve().parent.parent != SRC:
        sys.exit("perfbench: monopair was imported from %s, not %s" % (monopair.__file__, SRC))
    return monopair


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in tracing.LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update(COUNT_UNITS)
    units["trace_overhead_frac"] = "frac"
    return units


def cold_import_s():
    """Wall time of a fresh interpreter that imports the package and exits.

    No timeout: with one, the wait polls in steps of up to 50 ms, which
    would quantize the measurement.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import monopair, monopair.cli"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, check=True,
    )
    return time.perf_counter() - start


def set_up(workload_cls, seed, workdir):
    """Build the corpus SETUP_REPS times; keep the last, report the median.

    One set-up is a cold import of the package, the seeded corpus (files,
    class enumeration), and one untimed warm-up op.  The corpus is then
    frozen out of the garbage collector's scans, as a one-shot CLI process
    would not hold it.  Returns the workload, setup_s and each set-up as
    (import s, corpus and warm-up s).

    Every set-up writes into the same directory, so after the first the
    curve files are rewritten, not created.  Creating a file costs 0.3 to
    0.8 ms on an ext4 checkout and drifts with the file system's state, so
    840 creations would swamp the program's own set-up; the median drops
    the first set-up.
    """
    reps = []
    workdir.mkdir()
    for _ in range(SETUP_REPS):
        workload = None  # the previous corpus must not add to peak_rss_mb
        gc.collect()
        import_s = cold_import_s()
        start = time.perf_counter()
        workload = workload_cls(seed, workdir)
        harness.guarded_call(workload.run, workload.warmup)
        reps.append((import_s, time.perf_counter() - start))
    gc.collect()
    gc.freeze()
    return workload, statistics.median(a + b for a, b in reps), reps


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(monopair):
    backend = getattr(monopair, "kernel_backend", None)
    return {
        "python": platform.python_version(),
        "kernel_backend": backend() if backend else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop, setup_s, peak_mb):
    ms = [x * 1000.0 for x in loop.latencies]
    values = {
        "ops_per_s": loop.completed / loop.elapsed,
        "op_p50_ms": statistics.median(ms),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }
    extra = {}
    if len(ms) >= P90_MIN_OPS:
        extra["op_p90_ms"] = statistics.quantiles(ms, n=10)[8]
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, extra


def per_layer(workload, plain, traced, tracer, verdict):
    corpus = len(workload.items)
    passes = traced.passes(corpus)
    values = {}
    for layer in tracer.calls:
        values[layer + ".calls"] = tracer.calls[layer] / passes
        values[layer + ".self_s"] = tracer.self_s[layer] / passes
    counts = dict.fromkeys(COUNT_UNITS, 0)
    if len(verdict.outputs) == corpus:
        counts.update(("count." + k, v) for k, v in workload.counts(verdict.outputs).items())
    counts["count.classes_enumerated"] = tracer.classes_enumerated / passes
    values.update(counts)
    per_pass_traced = traced.elapsed / passes
    per_pass_plain = plain.elapsed / plain.passes(corpus)
    values["trace_overhead_frac"] = per_pass_traced / per_pass_plain - 1.0
    units = per_layer_metric_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None):
    args = parse_args(argv)
    monopair = import_monopair()
    import workloads  # imports monopair, so only once src/ is on the path

    OUT.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = Path(tempfile.mkdtemp(prefix=tag + "-", dir=OUT)) / "corpus"
    try:
        workload, setup_s, setup_reps = set_up(
            workloads.WORKLOADS[args.workload], args.seed, workdir
        )
        extra = {"setup_reps_s": setup_reps}
        if args.trace:
            plain = harness.run_passes(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = harness.run_passes(workload, args.seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            verdict = harness.Verdict(workload, [plain, traced])
            metrics = per_layer(workload, plain, traced, tracer, verdict)
            tracer.write_spans(OUT / (tag + "-spans.jsonl"))
            extra["absent_layers"] = tracer.absent_layers()
            extra["absent_targets"] = tracer.absent_targets
        else:
            plain = harness.run_passes(workload, args.seconds)
            peak_mb = peak_rss_mb()  # before the answer checks, which are not the program's
            verdict = harness.Verdict(workload, [plain])
            metrics, p90 = end_to_end(plain, setup_s, peak_mb)
            extra.update(p90)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(monopair),
        "input_sha256": harness.input_digest(workload),
        "output_sha256": verdict.output_digest,
        "corpus_size": len(workload.items),
        "timeouts": verdict.timeouts,
        "problems": verdict.problems[:20],
        **extra,
    }
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }
    with open(OUT / (tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump({**record, **result}, handle, indent=1)
    for problem in verdict.problems[:5]:
        print("perfbench: failed %s" % problem, file=sys.stderr)
    print("perfbench: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
