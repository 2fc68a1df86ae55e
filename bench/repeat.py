"""Repeat benchmark runs over seeds and report each metric's run-to-run spread.

    python3 bench/repeat.py --runs 10 [--trace 0|1] [--first-seed 1] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one after another, for
the run length fixed in BENCHMARK.json, and
prints for every workload and metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: their
distance as a share of the median.  A spread is marked ``ok`` below a third
of the metric's bound, ``wide`` below the bound and ``TOO WIDE`` beyond it.
``--runs 1`` prints every metric of every workload once.  The run records
are written to ``--out`` (default ``bench/out/runs-t<trace>.json``), the
input of ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common


def collect(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (common.OUT_DIR / f"{workload}-s{seed}-t{trace}.json").read_text(encoding="utf-8"))
    for key in ("layers", "op_ms", "traced_op_ms"):  # keep result files small
        record.pop(key, None)
    record["result"] = result
    return record


def _extra_metrics(run: dict) -> dict[str, tuple[float, str]]:
    """Printed beside the gated metrics: error_rate, and noon_infidelity on runs."""
    extra = {"error_rate": (run["failed"] / run["attempted"], "ratio")}
    if run.get("noon_infidelity"):
        extra["noon_infidelity"] = (statistics.median(run["noon_infidelity"]), "1-F")
    return extra


def table(records: list[dict], metrics: list[dict]) -> list[str]:
    lines = [f"{'workload':20s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
             f"{'spread':>8s} {'bound':>6s}  status"]
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        rows = [(m["name"], m["unit"], m.get("bound"), [r["metrics"][m["name"]] for r in runs])
                for m in metrics]
        extras = [_extra_metrics(r) for r in runs]
        rows += [(name, unit, None, [e[name][0] for e in extras])
                 for name, (_, unit) in extras[0].items()]
        for name, unit, bound, values in rows:
            q1, med, q3 = common.quartiles(values)
            sp = common.spread(values)
            status = "" if bound is None or len(values) < 2 else (
                "ok" if sp < bound / 3 else "wide" if sp <= bound else "TOO WIDE")
            lines.append((
                f"{workload:20s} {name + ' [' + unit + ']':34s} {med:12.6g} "
                f"{q1:12.6g} {q3:12.6g} {sp:8.2%} {'' if bound is None else bound:>6}  {status}"
            ).rstrip())
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"{workload:20s} {'ops failed / attempted':34s} {failed} / {attempted}")
    return lines


def main() -> int:
    spec = common.benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="Repeat benchmark runs over seeds.")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    records = []
    for workload in names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            records.append(collect(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: {json.dumps(records[-1]['result'])}", flush=True)
    out = args.out or common.OUT_DIR / f"runs-t{args.trace}.json"
    doc = {"trace": args.trace, "seconds": spec["run_seconds"], "runs": records}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("\n".join(table(records, metrics)))
    print(f"records: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
