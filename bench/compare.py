"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 bench/compare.py BASE.json NEW.json

Both files are written by ``bench/repeat.py``, with the same ``--trace``.
Each row gives the base median, the new median and their ratio new/base,
with each side's run-to-run spread (quartile distance over median).  For an
end-to-end metric the verdict is:

- ``unresolved`` when either side's spread exceeds the metric's bound,
  unless every new run reads better than every base run;
- ``WORSE`` or ``better`` when the medians differ by more than the bound;
- ``same`` otherwise.

Per-layer metrics have no bound; their rows carry the ratio only.  Exits
with code 1 when any row is ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import sys

import common


def _runs(path: str) -> dict[str, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    by_workload: dict[str, list[dict]] = {}
    for r in doc["runs"]:
        by_workload.setdefault(r["workload"], []).append(r["metrics"])
    return by_workload


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    _, b, _ = common.quartiles(base)
    _, n, _ = common.quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if max(common.spread(base), common.spread(new)) > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "WORSE"
    if -worse_by > bound:
        return "better"
    return "same"


def compare(base_path: str, new_path: str) -> tuple[list[str], bool]:
    spec = common.benchmark_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    base, new = _runs(base_path), _runs(new_path)
    lines = [f"{'workload':20s} {'metric':34s} {'base':>12s} {'new':>12s} {'new/base':>9s} "
             f"{'spread b/n':>15s}  verdict"]
    any_worse = False
    for workload in base:
        if workload not in new:
            lines.append(f"{workload:20s} missing from {new_path}")
            continue
        for m in metrics:
            name = m["name"]
            if name not in base[workload][0] or name not in new[workload][0]:
                continue
            b = [r[name] for r in base[workload]]
            n = [r[name] for r in new[workload]]
            mb, mn = common.quartiles(b)[1], common.quartiles(n)[1]
            ratio = f"{mn / mb:9.4f}" if mb else f"{'-':>9s}"
            v = verdict(b, n, m["better"], m.get("bound"))
            any_worse |= v == "WORSE"
            spreads = f"{common.spread(b):6.1%}/{common.spread(n):6.1%}"
            lines.append(f"{workload:20s} {name + ' [' + m['unit'] + ']':34s} {mb:12.6g} "
                         f"{mn:12.6g} {ratio} {spreads:>15s}  {v}")
    return lines, any_worse


def main() -> int:
    p = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args()
    lines, any_worse = compare(args.base, args.new)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
