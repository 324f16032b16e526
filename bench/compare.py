"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...

Each file is one ``run.py --out`` record.  The i-th base file and the i-th
change file form a pair, so run them alternately: base first in odd pairs,
change first in even ones.  For every (metric, workload) the table shows
each side's median and quartiles, the ratio of the change's median to the
base's, the pairs the change won (ties count for neither) and a verdict:

* ``regression``: the change's median is worse than the base's by more than
  the metric's bound in ``BENCHMARK.json``.  The exit status is then 1.
* ``unresolved``: one side's spread, the distance between its quartiles
  over its median, is wider than the bound, and not every change run is
  better than every base run.
* ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the base's quartile distance.
* ``same``: none of these.

Per-layer metrics have no bound; they get medians and pair wins only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Share of pairs the change must win to claim a gain.
PAIR_WIN_SHARE = 0.9


def load(path: Path) -> Dict[Tuple[str, str], float]:
    """``(workload, metric) -> value`` of one ``run.py --out`` record."""
    values = {}
    for run in json.loads(path.read_text())["runs"]:
        for name, m in run["result"]["metrics"].items():
            if m["value"] is not None:
                values[(run["workload"], name)] = float(m["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cell(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(base: List[float], change: List[float], better: str, bound) -> Tuple[str, int, int]:
    """The verdict, and the pairs the change won out of those run."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if bound is None:
        return "-", wins, len(pairs)
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    if sign * (cm - bm) > bound * abs(bm):
        return "regression", wins, len(pairs)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if wins >= PAIR_WIN_SHARE * len(pairs) and abs(cm - bm) > b3 - b1:
        return "gain", wins, len(pairs)
    return "same", wins, len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = [load(p) for p in args.base]
    change = [load(p) for p in args.change]
    keys = sorted(
        set().union(*base) & set().union(*change),
        key=lambda k: (k[0], "bound" not in metrics.get(k[1], {}), k[1]),
    )

    regressions = 0
    print(f"{'workload':14} {'metric':38} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'ratio':>6} {'wins':>5}  verdict")
    for workload, name in keys:
        if name not in metrics:
            continue
        b = [run[(workload, name)] for run in base if (workload, name) in run]
        c = [run[(workload, name)] for run in change if (workload, name) in run]
        m = metrics[name]
        result, wins, pairs = verdict(b, c, m["better"], m.get("bound"))
        regressions += result == "regression"
        bm, cm = quartiles(b)[1], quartiles(c)[1]
        ratio = f"{cm / bm:6.3f}" if bm else "     -"
        print(f"{workload:14} {name:38} {cell(b):>32} {cell(c):>32} {ratio} "
              f"{wins:>2}/{pairs:<2}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
