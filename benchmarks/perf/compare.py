"""Compare two result sets metric by metric.

A result set is a directory of files written by ``run``; each file holds
one run of every workload. For every workload and metric the comparison
prints each side's median and quartiles and a verdict against the bound
``BENCHMARK.json`` fixes for that metric:

* ``worse`` — the new median is worse than the base median by more than
  the bound, and the runs separate (every new run worse than every base
  run, or the spread within each side is below the bound);
* ``better`` — the new median is better by more than the base set's
  spread (its interquartile distance) and the new side wins at least
  nine tenths of all base/new pairs;
* ``within bound`` — neither, and each side's spread is within the bound;
* ``unresolved`` — the spread within a side is wider than the bound, so
  the sets cannot show either way.

Per-layer metrics have no bound; they are listed with their medians only.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Dict, List, Tuple

from . import load_benchmark

#: Share of all base/new pairs the new side must win to claim a gain.
WIN_SHARE = 0.9


def format_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def load_set(directory: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values over every run file in ``directory``."""
    values: Dict[Tuple[str, str], List[float]] = {}
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        raise FileNotFoundError(f"no result files in {directory}")
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for workload, result in doc["workloads"].items():
            for metric, m in result["metrics"].items():
                values.setdefault((workload, metric), []).append(m["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> str:
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    scale = abs(bm) or 1.0
    # positive = the new side is worse, as a share of the base median
    worse_by = sign * (nm - bm) / scale
    spread = max((b3 - b1) / scale, (n3 - n1) / (abs(nm) or 1.0))
    pairs = [sign * (n - b) for b in base for n in new]
    all_worse = all(p > 0 for p in pairs)
    wins = sum(p < 0 for p in pairs) / len(pairs)
    if worse_by > bound:
        return "worse" if all_worse or spread <= bound else "unresolved"
    if -worse_by > (b3 - b1) / scale and wins >= WIN_SHARE:
        return "better"
    return "within bound" if spread <= bound else "unresolved"


def compare_sets(base_dir: str, new_dir: str) -> int:
    bounded = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    base, new = load_set(base_dir), load_set(new_dir)
    print(f"{'workload':15s} {'metric':28s} "
          f"{'base q1/median/q3':>32s} {'new q1/median/q3':>32s}  verdict")
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        cells = []
        for values in (base[key], new[key]):
            q1, med, q3 = quartiles(values)
            cells.append("/".join(format_value(v) for v in (q1, med, q3)))
        spec = bounded.get(metric)
        result = (verdict(base[key], new[key], spec["better"], spec["bound"])
                  if spec else "-")
        worse += result == "worse"
        print(f"{workload:15s} {metric:28s} {cells[0]:>32s} "
              f"{cells[1]:>32s}  {result}")
    return 1 if worse else 0
