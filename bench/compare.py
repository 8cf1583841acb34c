"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE HEAD

BASE and HEAD are files, or directories of files, holding the captured
stdout of bench/run.py runs (a ``{"meta": ...}`` line, then the result line).
For every (workload, metric) it prints each side's median and quartiles and
one verdict, using the bounds in BENCHMARK.json:

  within      HEAD's median is no worse than BASE's by more than the bound
  worse       HEAD's median is worse than BASE's by more than the bound
  unresolved  either side's quartile spread, as a share of its median,
              exceeds the bound, so the difference cannot be told from noise

Per-layer metrics have no bound and get no verdict.  Exit status is 1 when
any pair is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, from captured run.py output."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    out: dict[tuple[str, str], list[float]] = {}
    for file in files:
        meta = None
        for line in file.read_text(encoding="utf-8").splitlines():
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(doc, dict):
                continue
            if "meta" in doc:
                meta = doc["meta"]
            elif "metrics" in doc and meta is not None:
                for name, metric in doc["metrics"].items():
                    out.setdefault((meta["workload"], name), []).append(metric["value"])
                meta = None
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], head: list[float], bound: float, better: str) -> str:
    if max(spread(base), spread(head)) > bound:
        return "unresolved"
    b, h = statistics.median(base), statistics.median(head)
    worse_by = (h - b) / abs(b) if better == "lower" else (b - h) / abs(b)
    return "worse" if worse_by > bound else "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, head = load(Path(argv[0])), load(Path(argv[1]))
    any_worse = False
    print(f"{'workload':14s} {'metric':28s} {'base q1/med/q3':>36s} {'head q1/med/q3':>36s} verdict")
    for key in sorted(set(base) & set(head)):
        workload, name = key
        cells = ["/".join(f"{v:.4g}" for v in quartiles(side[key])) for side in (base, head)]
        if name in bounds:
            v = verdict(base[key], head[key], bounds[name]["bound"], bounds[name]["better"])
            any_worse |= v == "worse"
        else:
            v = "-"
        print(f"{workload:14s} {name:28s} {cells[0]:>36s} {cells[1]:>36s} {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
