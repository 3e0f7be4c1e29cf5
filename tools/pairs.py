"""Run alternating parent/change pairs of the benchmark and summarize them.

    python tools/pairs.py PARENT CHANGE --workload geodesic --pairs 10 --seconds 50 [--seed 1]

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
`perfbench/run.py` once in each checkout, one after the other; the checkout
that runs first alternates from pair to pair, so that a drift of the machine
weighs on both sides alike.  Only the last line of a run's standard output,
its JSON result, is read.  For each end-to-end metric of BENCHMARK.json the
summary gives each side's median and quartiles, the number of pairs the
change won (better in the metric's direction), and |change median - parent
median| / parent interquartile range: a gain counts where the change wins
nearly every pair and this ratio exceeds 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one benchmark run in ``checkout``, each metric
    reduced to its value."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), by the exclusive method of
    :func:`statistics.quantiles`."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(parent: list, change: list, metrics) -> list:
    """One row per metric (name, better) of ``metrics``: its name, the
    parent's and the change's quartiles, the change's wins over the pairs
    (``parent[i]`` against ``change[i]``, each a metric dict), the number of
    pairs, and |change median - parent median| / parent IQR (inf where the
    IQR is 0 and the medians differ)."""
    rows = []
    for name, better in metrics:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (b - a) > 0.0 for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        gap, iqr = abs(cq[1] - pq[1]), pq[2] - pq[0]
        ratio = gap / iqr if iqr > 0.0 else (0.0 if gap == 0.0 else float("inf"))
        rows.append((name, pq, cq, wins, len(p), ratio))
    return rows


def table(rows) -> str:
    lines = [f"{'metric':<16} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'wins':>6} {'|dmed|/IQR':>10}"]
    for name, pq, cq, wins, n, ratio in rows:
        lines.append(
            f"{name:<16} {' / '.join(f'{v:.4g}' for v in pq):>30} {' / '.join(f'{v:.4g}' for v in cq):>30}"
            f" {f'{wins}/{n}':>6} {ratio:>10.3g}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            results[side].append(result)
            values = " ".join(f"{name}={value:.4g}" for name, value in result["metrics"].items())
            print(f"pair {i + 1} {side}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}", flush=True)
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        print(f"{side}: {failed} of {sum(r['attempted'] for r in runs)} operations failed")
    print(table(summarize([r["metrics"] for r in results["parent"]], [r["metrics"] for r in results["change"]], metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
