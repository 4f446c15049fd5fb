"""Summarize and compare saved benchmark outputs.

Usage:
    python3 covbench/compare.py RUN.txt...                    # spread per metric
    python3 covbench/compare.py BASE.txt... --against NEW.txt...

Each file is the standard output of one covbench/run.py run.  For every
workload and metric it prints the median, the quartile spread as a share
of the median, and, with --against, the change of the median against the
metric's bound in BENCHMARK.json.  Runs whose kernel backends differ are
not comparable: the comparison is refused with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    """({(workload, metric): [values]}, {backend, ...})."""
    values, backends = defaultdict(list), set()
    for path in paths:
        with open(path) as f:
            lines = f.read().splitlines()
        report = json.loads(lines[-2])["covbench"]
        backends.add(report["environment"]["backend"])
        for name, metric in json.loads(lines[-1])["metrics"].items():
            values[report["workload"], name].append(metric["value"])
    return values, backends


def spread(vals):
    """(median, (q3 - q1) / median)."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("runs", nargs="+")
    p.add_argument("--against", nargs="+", default=[])
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, backends = load(args.runs)
    new, new_backends = load(args.against)
    if len(backends | new_backends) > 1:
        print(f"compare: runs use different kernel backends "
              f"{sorted(backends | new_backends)}; refusing to compare",
              file=sys.stderr)
        return 1
    worse = 0
    for (workload, name), vals in sorted(base.items()):
        med, rel = spread(vals)
        bound = spec.get(name, {}).get("bound")
        line = f"{workload:12} {name:24} n={len(vals):<3} median={med:<12.6g} spread={rel:.4f}"
        if bound is not None:
            line += f" bound={bound}"
        if (workload, name) in new and bound is not None:
            new_med, _ = spread(new[workload, name])
            change = new_med / med - 1
            if spec[name]["better"] == "higher":
                change = -change
            line += f"  new={new_med:<12.6g} worse_by={change:+.4f}"
            if change > bound:
                line += "  REGRESSION"
                worse += 1
        print(line)
    return 2 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
