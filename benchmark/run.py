"""tripsem benchmark: one workload per call, closed loop, one client.

Run from the root of a checkout of the repository:

    python3 benchmark/run.py --workload verify-fit --seed 1 --seconds 30 --trace 0

Workloads: verify-fit, compose-forest, lexicon-io (see README.md). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from
wrapped module functions instead. The program is imported from ``src/``
of the checkout and from nowhere else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("verify-fit", "compose-forest", "lexicon-io")
DEFAULT_SEED = 1
# setup_s is the median of this many set-ups, each in a fresh process: the
# run's own and child processes spread evenly over the timed phase, so that
# the median spans the same stretch of time as the other metrics.
SETUP_SAMPLES = 7
# The tail is the slowest sample with at least this many slower than it.
TAIL_BEYOND = 10
MAX_PROBLEM_LINES = 20

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="tripsem benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(args, workdir: Path):
    """Import tripsem from src/ and write the workload's inputs.

    Returns (workload, import seconds, set-up seconds). Nothing may import
    numpy before this, or ``import tripsem`` would be timed without it.
    """
    if not (SRC / "tripsem" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no tripsem package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    tripsem = importlib.import_module("tripsem")
    import_s = time.perf_counter() - start
    if Path(tripsem.__file__).resolve().parent != (SRC / "tripsem").resolve():
        raise SystemExit(f"benchmark: imported tripsem from {tripsem.__file__}, not {SRC}")
    workloads = importlib.import_module("workloads")
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    return workload, import_s, time.perf_counter() - start


def probe_setup(args) -> dict:
    """Import and set-up seconds of one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


class Phase:
    """Operation times and outcomes of one set of rounds."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.wrong = 0

    @property
    def busy(self) -> float:
        return sum(self.times)

    def ops_per_s(self) -> float:
        return (len(self.times) - self.failed) / self.busy


def run_round(workload, phase: Phase, tracer, first_op: int, problems: list[str]):
    """Every operation of one round: timed alone, then checked untimed."""
    for k in range(workload.ops_per_round):
        op_id = first_op + k
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run_op(k)
            else:
                output = tracer.operation(op_id, lambda: workload.run_op(k))
        except Exception:  # an operation's failure is counted; the run goes on
            phase.times.append(time.perf_counter() - start)
            phase.failed += 1
            problems.append(f"op {op_id}: raised\n{traceback.format_exc()}")
            continue
        phase.times.append(time.perf_counter() - start)
        found = workload.check(k, output)
        if found:
            phase.failed += 1
            phase.wrong += 1
            problems.extend(f"op {op_id}: {p}" for p in found)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest sample with TAIL_BEYOND slower
    ones; the maximum (percentile 100) when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload, import_s, setup_s = set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
            return 0
        workload.prepare_checks()
        return measure(args, workload, [{"import_s": import_s, "setup_s": setup_s}])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, samples) -> int:
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = Phase(), Phase()
    problems: list[str] = []
    op_id = 0
    # The traced run alternates untraced and traced rounds, so the two are
    # measured under the same conditions and their ratio is the overhead.
    while plain.busy + traced.busy < args.seconds:
        if len(samples) < SETUP_SAMPLES and plain.busy + traced.busy >= (
            (len(samples) - 1) * args.seconds / (SETUP_SAMPLES - 1)
        ):
            samples.append(probe_setup(args))
            continue
        run_round(workload, plain, None, op_id, problems)
        op_id += workload.ops_per_round
        if tracer is not None:
            tracer.install()
            try:
                run_round(workload, traced, tracer, op_id, problems)
            finally:
                tracer.uninstall()
            op_id += workload.ops_per_round

    while len(samples) < SETUP_SAMPLES:
        samples.append(probe_setup(args))
    for line in problems[:MAX_PROBLEM_LINES]:
        print(f"benchmark: {line}", file=sys.stderr)
    attempted = len(plain.times) + len(traced.times)
    value, pct = tail(plain.times)
    median = statistics.median
    print(f"workload {workload.name}, seed {args.seed}: {attempted} operations, "
          f"{plain.busy + traced.busy:.3f} s of operation time")
    slower = min(TAIL_BEYOND, len(plain.times) - 1)
    print(f"op_ms_tail is percentile {pct:.1f} of {len(plain.times)} operations, "
          f"{slower} of them slower")
    if tracer is None:
        metrics = {
            "ops_per_s": plain.ops_per_s(),
            "op_ms_p50": 1e3 * median(plain.times),
            "op_ms_tail": 1e3 * value,
            "setup_s": median(s["setup_s"] for s in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        n_ops = len(traced.times)
        layer = tracing.layer_metrics(tracer.spans, tracer.counts, n_ops)
        absent = sorted(name for name, v in layer.items() if v is None)
        if absent:
            print("not reached on this workload (reported as 0): " + ", ".join(absent))
        metrics = {name: v or 0.0 for name, v in layer.items()}
        metrics["process.import_s"] = median(s["import_s"] for s in samples)
        traced_rate = traced.ops_per_s()
        overhead = 100.0 * (plain.ops_per_s() / traced_rate - 1.0) if traced_rate else 0.0
        metrics["trace.overhead_pct"] = overhead
        print(f"tracing overhead: untraced {plain.ops_per_s():.4f} ops/s, "
              f"traced {traced_rate:.4f} ops/s ({overhead:+.2f}%)")
        units = {m[0]: m[1] for m in tracing.LAYER_METRICS}
        units.update({"process.import_s": "s", "trace.overhead_pct": "%"})

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    result = {
        "correct": plain.wrong + traced.wrong == 0,
        "attempted": attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  tail_percentile=pct, samples=len(plain.times), setup=samples,
                  environment=environment())
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
