"""Compare two sets of benchmark runs, for example a parent and a change.

    python3 bench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds result files written by ``bench/run.py``. For every
workload and end-to-end metric of ``BENCHMARK.json`` the command prints
each side's median and quartiles over its untraced runs, the change's
delta against the parent's median, and one verdict:

- ``unresolved``: either side's spread (quartile distance over median)
  is wider than the metric's bound, and not every run of the change
  reads better than every run of the parent;
- ``worse``: the change's median is worse by more than the bound;
- ``better``: the change's median is better by more than the parent's
  own spread;
- ``within bound``: anything else.

It also flags every (workload, seed) whose output digest (the EERs, or
the exported tables for corpus) differs between the two sides, and
prints the environment each side recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    return [r for r in runs if r.get("trace") == 0]


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """The verdict and the change's signed delta as a share of the
    parent's median (positive means the metric went up)."""
    bq1, bmed, bq3 = summary(base)
    cq1, cmed, cq3 = summary(change)
    delta = (cmed - bmed) / bmed
    gain = -delta if better == "lower" else delta
    base_spread = (bq3 - bq1) / bmed
    spread = max(base_spread, (cq3 - cq1) / cmed)
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if spread > bound:
        return ("better" if all_better else "unresolved"), delta
    if gain < -bound:
        return "worse", delta
    if gain > base_spread:
        return "better", delta
    return "within bound", delta


def compare(base_runs: list[dict], change_runs: list[dict],
            spec: dict) -> tuple[list[str], list[str]]:
    """Report rows and digest mismatches."""
    rows = []
    workloads = sorted({r["workload"] for r in base_runs}
                       & {r["workload"] for r in change_runs})
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base]
            b = [r["metrics"][name]["value"] for r in change]
            word, delta = verdict(a, b, metric["better"], metric["bound"])
            (aq1, amed, aq3), (bq1, bmed, bq3) = summary(a), summary(b)
            rows.append(
                f"{workload:14s} {name:12s} {metric['unit']:>5s} "
                f"{amed:12.5g} [{aq1:.5g}, {aq3:.5g}] n={len(a):<3d} "
                f"{bmed:12.5g} [{bq1:.5g}, {bq3:.5g}] n={len(b):<3d} "
                f"{delta:+8.2%}  {word}")
    mismatches = []
    base_digests = {(r["workload"], r["seed"]): r["digest"] for r in base_runs}
    for r in change_runs:
        key = (r["workload"], r["seed"])
        if key in base_digests and base_digests[key] != r["digest"]:
            mismatches.append(f"{key[0]} seed {key[1]}: outputs differ")
    return rows, sorted(set(mismatches))


def environments(runs: list[dict]) -> list[str]:
    seen = {json.dumps(r.get("environment", {}), sort_keys=True)
            for r in runs}
    return sorted(seen)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load_runs(args.parent), load_runs(args.change)
    if not base or not change:
        print("both directories need untraced result files", file=sys.stderr)
        return 2
    rows, mismatches = compare(base, change, spec)
    print(f"{'workload':14s} {'metric':12s} {'unit':>5s} "
          f"{'parent median [q1, q3]':>42s} {'change median [q1, q3]':>42s} "
          f"{'delta':>8s}  verdict")
    print("\n".join(rows))
    for label, runs in (("parent", base), ("change", change)):
        for env in environments(runs):
            print(f"{label} environment: {env}")
    for line in mismatches:
        print(f"FLAG {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
