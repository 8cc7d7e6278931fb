"""Compare two sets of benchmark results, workload by workload.

Usage:

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --out FILE`` appends, one per run.
For every end-to-end metric of BENCHMARK.json the table gives each side's
median and quartiles and a verdict:

* ``unresolved`` when either side's quartile distance over its median
  exceeds the metric's bound, unless every new run reads better than
  every base run;
* ``worse`` when the new median is worse than the base median by more
  than the bound;
* ``better`` when the new run wins at least nine tenths of the seeds both
  sides ran and the medians differ by more than the base quartile distance;
* ``unchanged`` otherwise.

Metrics the run prints but BENCHMARK.json does not gate (``op_ms_tail``,
``failed_frac`` and the unscaled wall-time figures ``*_wall``) have no bound: they read ``better`` or ``worse`` only when
every run of one side beats every run of the other, ``unchanged`` when all
runs agree exactly, and ``unresolved`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
UNGATED = {"op_ms_tail": "lower", "failed_frac": "lower", "ops_per_s_wall": "higher",
           "op_ms_p50_wall": "lower", "setup_s_wall": "lower"}   # metric -> which way is better


def load(path: str) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> end-to-end metric values of untraced runs."""
    runs: Dict[str, Dict[int, dict]] = defaultdict(dict)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["trace"] == 0:
            metrics = record["metrics"]
            runs[record["workload"]][record["seed"]] = {k: v["value"] for k, v in metrics.items()}
    return runs


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: Dict[int, float], new: Dict[int, float], bound, lower_is_better: bool) -> str:
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    if bound is None:
        if set(base.values()) | set(new.values()) == set(base.values()) & set(new.values()):
            return "unchanged"
        if all(better(n, b) for n in new.values() for b in base.values()):
            return "better"
        if all(better(b, n) for n in new.values() for b in base.values()):
            return "worse"
        return "unresolved"
    bq1, bmed, bq3 = quartiles(list(base.values()))
    nq1, nmed, nq3 = quartiles(list(new.values()))
    if (bq3 - bq1) > bound * abs(bmed) or (nq3 - nq1) > bound * abs(nmed):
        if all(better(n, b) for n in new.values() for b in base.values()):
            return "better"
        return "unresolved"
    if better(bmed * (1 + bound) if lower_is_better else bmed * (1 - bound), nmed):
        return "worse"
    seeds = sorted(set(base) & set(new))
    wins = sum(better(new[s], base[s]) for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and abs(nmed - bmed) > (bq3 - bq1):
        return "better"
    return "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    rules = {**{name: (None, way) for name, way in UNGATED.items()}, **gated}
    print(f"{'workload':<14}{'metric':<16}{'base median [q1, q3]':>34}{'new median [q1, q3]':>34}"
          f"{'change':>9}  verdict")
    summary = []
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            summary.append(f"{workload}: only in one result set")
            continue
        verdicts = []
        for name in next(iter(base[workload].values())):
            bound, way = rules[name]
            b = {s: m[name] for s, m in base[workload].items()}
            n = {s: m[name] for s, m in new[workload].items()}
            bq1, bmed, bq3 = quartiles(list(b.values()))
            nq1, nmed, nq3 = quartiles(list(n.values()))
            word = verdict(b, n, bound, way == "lower")
            verdicts.append(f"{name} {word}")
            print(f"{workload:<14}{name:<16}"
                  f"{f'{bmed:.4f} [{bq1:.4f}, {bq3:.4f}]':>34}"
                  f"{f'{nmed:.4f} [{nq1:.4f}, {nq3:.4f}]':>34}"
                  f"{(nmed - bmed) / bmed if bmed else 0.0:>+9.1%}  {word}")
        summary.append(f"{workload}: " + ", ".join(verdicts))
    print()
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
