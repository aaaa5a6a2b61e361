"""qheatnet benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, with BLAS thread pools pinned to one thread.  One process
and one closed-loop client: each operation starts when the previous one and
its correctness check are done.

With --trace 0 the run measures the end-to-end metrics: set-up time of a
fresh interpreter, then whole rounds of operations for S seconds.  With
--trace 1 it runs a fixed number of rounds twice, untraced and then traced,
and reports per-layer calls, self times and counts, plus the tracing
overhead.  Every operation's output is checked outside the timed region; a
failed check, an error row or a raised exception counts the operation as
failed and makes the command exit with status 1.

The last stdout line is the result object; the line before it is the run
record: versions, BLAS thread setting, source hash, sample count per metric,
failed share, the mix of operations (for oracle_audit, the histogram of
truncations) and the sha256 of the fig2/fig3/fig4 CSVs.  Scratch output and
the traced run's spans go to `.bench_out/` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 7  # timed fresh interpreters per run, after one untimed
MIN_OPS = 3


def load_program():
    """Import qheatnet from this checkout's src/, refusing any other copy."""
    if not (SRC / "qheatnet" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qheatnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qheatnet

    if Path(qheatnet.__file__).resolve().parent != SRC / "qheatnet":
        raise SystemExit(f"bench: imported qheatnet from {qheatnet.__file__}, not {SRC}")
    return qheatnet


def _pin_blas_threads() -> None:
    # Must happen before numpy is imported: the pools size themselves then.
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


# --- set-up time --------------------------------------------------------------


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import qheatnet and evaluate one point."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "qheatnet", "point", "--approach", "local"]
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        started = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - started
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) != 2 or not lines[1].startswith("local,"):
            raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
        if launch > 0:  # the first launch also writes the bytecode caches
            times.append(elapsed)
    return times


# --- the closed loop ----------------------------------------------------------


class Loop:
    """Runs operations one after another, timing each and checking its output."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.durations: list[float] = []
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.mix: Counter = Counter()
        self.out_path = str(OUT / f"{workload.name}.csv")

    def step(self, op, tracer=None) -> None:
        self.attempted += 1
        self.mix[op.label] += 1
        try:
            if tracer is not None:
                tracer.recording = True
            started = time.perf_counter()
            try:
                result = self.workload.run(op, self.out_path)
            finally:
                elapsed = time.perf_counter() - started
                if tracer is not None:
                    tracer.recording = False
            problems = self.workload.check(op, result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        self.durations.append(elapsed)
        self.points += op.points
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"bench: check failed: {problem}", file=sys.stderr)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(workload, rng, seconds: float) -> tuple[Loop, dict]:
    """Whole rounds, each with the same mix of work, until `seconds` pass."""
    rounds = workload.rounds(rng)
    loop = Loop(workload)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(loop.durations) < MIN_OPS:
        timed = len(loop.durations)
        for op in next(rounds):
            loop.step(op)
        if len(loop.durations) == timed:
            break  # every operation fails; nothing to time
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not loop.durations:
        return loop, {}
    ms = [1e3 * d for d in loop.durations]
    metrics = {  # name -> (value, unit, sample count)
        "points_per_s": (loop.points / sum(loop.durations), "1/s", len(ms)),
        "op_ms_p50": (statistics.median(ms), "ms", len(ms)),
        "op_ms_p90": (percentile(ms, 90), "ms", len(ms)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    return loop, metrics


def run_traced(workload, rng) -> tuple[Loop, dict, str]:
    import tracing

    rounds = workload.rounds(rng)
    ops = [op for _ in range(workload.trace_rounds) for op in next(rounds)]
    loop = Loop(workload)
    for op in ops:
        loop.step(op)
    untraced_s = sum(loop.durations)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Loop(workload)
        for op in ops:
            traced.step(op, tracer)
    finally:
        tracer.uninstall()
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    traced_s = sum(traced.durations)
    n = len(traced.durations)
    metrics = {}
    for layer, (calls, self_s) in tracer.layer_times().items():
        metrics[f"{layer}.calls"] = (calls, "count", n)
        metrics[f"{layer}.self_s"] = (self_s, "s", n)
    for name, value in tracer.counts.items():
        metrics[name] = (value, "count", n)
    metrics["trace.wall_s"] = (traced_s, "s", n)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s", n)
    spans_path = str(OUT / f"spans-{workload.name}.npz")
    tracer.write(spans_path)
    return loop, metrics, spans_path


# --- the run record -----------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    argv = ["git", "-C", str(ROOT), "rev-parse", "HEAD"]
    done = subprocess.run(argv, capture_output=True, text=True)
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    load_program()
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = run_record(args)

    if not args.trace:
        setup_times = measure_setup()
    # Warm-up: the first operation of an independent stream, checked, untimed.
    warm = Loop(workload)
    warm.step(next(workload.rounds(np.random.default_rng([args.seed, 1])))[0])
    rng = np.random.default_rng(args.seed)
    if args.trace:
        loop, metrics, record["spans_file"] = run_traced(workload, rng)
    else:
        loop, metrics = run_untraced(workload, rng, args.seconds)
        metrics = {"setup_s": (statistics.median(setup_times), "s", len(setup_times)), **metrics}
    attempted = warm.attempted + loop.attempted
    failed = warm.failed + loop.failed

    record["samples"] = {name: samples for name, (_, _, samples) in metrics.items()}
    record["points"] = loop.points
    record["op_mix"] = dict(loop.mix)
    record["failed_share"] = failed / attempted
    written = {workload.preset: loop.out_path} if workload.preset else {}
    record["fingerprints"] = workloads.fingerprints(str(OUT), written)
    Path(loop.out_path).unlink(missing_ok=True)

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"run_record": record}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
