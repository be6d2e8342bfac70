"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The run sets the workload up three times (``setup_s`` is the median),
then runs whole rounds of the workload in a closed loop, one caller in
this process, until ``--seconds`` have passed. With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it runs the first half
of the time untraced and the second half traced, and prints the
per-layer metrics, with the tracing overhead as the difference of the
two halves' mean round times. Checks run after the timed part; the
last line of standard output is the result, and a copy of it with the
environment, the round times and the output digest goes to
``bench/results/``. Spans of a traced run go to ``bench/traces/``.
"""

from __future__ import annotations

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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3

# The run is serial: with BLAS threads, a matrix product waits for the
# slower of two vCPUs, which on a shared host made ensemble-cell's wall
# time swing by a quarter between runs of unchanged code.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_hash() -> str:
    """Hash of the package and benchmark sources: outputs recorded under
    one hash must repeat exactly."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + sorted(BENCH.glob("*.py"))
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        described = ""
    return {"git_describe": described or "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def timed_rounds(workload, seconds: float, rounds: list, digests: list
                 ) -> tuple[int, int]:
    """Whole rounds until ``seconds`` have passed; appends (wall, cpu)
    per round. Returns (attempted, failed) over the rounds run."""
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        a, f, out = workload.round()
        rounds.append((time.perf_counter() - t0, time.process_time() - c0))
        attempted, failed = attempted + a, failed + f
        digests.append(out)
        if time.perf_counter() - start >= seconds:
            return attempted, failed


def recorded_digest(key: str, value: str, store: Path) -> str | None:
    """The digest an earlier run stored under key; stores value and
    returns None when there is none."""
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return known[key]
    known[key] = value
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import checks
        import spans
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"cannot import swipebench or its test oracles: {err}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = BENCH / "_work" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir)

    tracer = None
    if args.trace:
        tracer = spans.Tracer(args.seed)
        tracer.install()
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.phase_runs["setup"] += 1

    rounds: list[tuple[float, float]] = []
    digests: list[str] = []
    if tracer:
        tracer.uninstall()
        attempted, failed = timed_rounds(workload, args.seconds / 2,
                                         rounds, digests)
        untraced = len(rounds)
        tracer.phase = "round"
        tracer.install()
        a, f = timed_rounds(workload, args.seconds / 2, rounds, digests)
        tracer.uninstall()
        tracer.phase_runs["round"] = len(rounds) - untraced
        attempted, failed = attempted + a, failed + f
    else:
        start = time.perf_counter()
        attempted, failed = timed_rounds(workload, args.seconds, rounds,
                                         digests)
        timed_wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    try:
        for d in digests[1:]:
            checks.check_same_digest("round outputs", d, digests[0])
        key = f"{args.workload}:{args.seed}:{source_hash()}"
        store = BENCH / "_work" / "digests.json"
        checks.check_same_digest("outputs of an earlier run", digests[0],
                                 recorded_digest(key, digests[0], store))
        workload.check()
        if tracer:
            checks.check_sampled_eers(tracer.samples["eer"])
            checks.check_sampled_reductions(tracer.samples["reduce"])
    except checks.CheckFailed as err:
        failures.append(str(err))

    if tracer:
        walls = [w for w, _ in rounds]
        overhead = (statistics.mean(walls[untraced:])
                    - statistics.mean(walls[:untraced]))
        values = tracer.metrics(overhead)
        shares = tracer.layer_shares(sum(walls[untraced:]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": {"value": timed_wall / len(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "cpu_s": {"value": sum(c for _, c in rounds) / len(rounds),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": (attempted - failed) / timed_wall,
                          "unit": "1/s"},
        }
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds,
                  check_failures=failures, digest=digests[0],
                  rounds=[{"wall_s": w, "cpu_s": c} for w, c in rounds],
                  setups_s=setup_times, environment=environment())
    if tracer:
        record.update(layer_shares=shares, untraced_rounds=untraced,
                      oracle_checked_calls={
                          what: len(calls)
                          for what, calls in tracer.samples.items()})
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    if tracer:
        traces_dir = BENCH / "traces"
        traces_dir.mkdir(exist_ok=True)
        (traces_dir / f"{stamp}.json").write_text(json.dumps(
            {"untraced_rounds": untraced, "spans": tracer.span_records()}))
    for reason in failures:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
