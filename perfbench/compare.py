#!/usr/bin/env python3
"""Summarise benchmark records, or compare two sets of them.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

``RESULTS_DIR`` holds the JSON records ``run.py`` writes to
``.perfbench_out/results/``.  With one directory each metric is shown per
workload as the median and quartiles over its runs, with the spread (the
interquartile range over the median) next to the metric's bound from
``BENCHMARK.json``.  With two, the change's median is set against the
base's: ``worse`` marks an end-to-end metric whose median is worse by more
than its bound, and ``wins`` counts the change's runs that beat the base's
median.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values, one per run."""
    runs: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        meta = record["meta"]
        values = runs[meta["workload"] if not meta["trace"] else "traced", meta["trace"]]
        for name, metric in {**record["metrics"], **record.get("extra", {})}.items():
            values[name].append(metric["value"])
        values["attempted"].append(record["attempted"])
        values["failed"].append(record["failed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else None
    for key in sorted(base):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        for name, values in sorted(base[key].items()):
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound, direction = bounds.get(name, (None, better.get(name, "lower")))
            line = f"  {name:44s} n={len(values):<3d} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f}"
            if bound is not None:
                line += f" bound {bound}" + (" SPREAD>BOUND" if spread > bound else "")
            if change is not None and name in change.get(key, {}):
                other = change[key][name]
                c_med = statistics.median(other)
                sign = 1 if direction == "lower" else -1
                worse = sign * (c_med - med) / abs(med) if med else 0.0
                wins = sum(sign * (v - med) < 0 for v in other)
                line += f" | change {c_med:<12.6g} ({-worse:+.1%} better) wins {wins}/{len(other)}"
                if bound is not None and worse > bound:
                    line += " WORSE"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
