"""noonsim benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and defined in bench/workloads.py.
A run is ten fresh worker processes, one after another, each of which sets
up and then runs the closed loop for a tenth of the seconds.  The host's
speed drifts over seconds, so set-up is timed in every process and spread
over the whole run rather than taken once at its start.  With
``--trace 0`` the run reports the end-to-end metrics over the ops of all
processes; with ``--trace 1`` it reports the per-layer metrics from the
span tracer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.  The full record, with the environment, goes to
``bench/out/<workload>-s<seed>-t<trace>.json``.  Exits with code 2, and
prints no result, when the program source or the workload is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import common
import worker
import workloads

SEGMENTS = 10  # worker processes per run
PROCESS_TIMEOUT_S = 60


def _worker(args: list[str], out_file) -> dict:
    env = dict(os.environ, **common.BLAS_ENV)
    subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "worker.py"), *args, "--out", str(out_file)],
        env=env, check=True, timeout=PROCESS_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    return json.loads(out_file.read_text(encoding="utf-8"))


def merge(parts: list[dict]) -> dict:
    """One record for the run from the records of its worker processes."""
    record = {k: parts[0][k] for k in ("workload", "seed", "env")}
    for key in ("attempted", "failed", "loop_s"):
        record[key] = sum(part[key] for part in parts)
    for key in ("failures", "op_ms", "traced_op_ms", "layers", "noon_infidelity"):
        record[key] = [x for part in parts for x in part[key]]
    record["failures"] = record["failures"][:worker.MAX_FAILURES_KEPT]
    record["op_p50_samples_ms"] = [statistics.median(part["op_ms"]) for part in parts]
    record["setup_samples_s"] = [part["setup_s"] for part in parts]
    record["peak_rss_samples_mb"] = [part["peak_rss_mb"] for part in parts]
    return record


def end_to_end(record: dict) -> dict[str, float]:
    ops = record["op_ms"]
    tail_ms, pct, beyond = common.tail(ops)
    top_ms, top_pct, _ = common.tail(ops, max_percentile=100)
    record["op_tail"] = {"percentile": pct, "beyond": beyond, "ops": len(ops),
                         "top_percentile": top_pct, "top_ms": top_ms}
    return {
        # The host switches between fast and slow spells lasting seconds, so a
        # median over all ops jumps with the share of slow spells in the run,
        # and a plain mean of the processes' medians follows the one or two
        # that a spell slows most; the mean of the middle ones does neither.
        "op_p50_ms": common.interquartile_mean(record["op_p50_samples_ms"]),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(ops) / record["loop_s"],
        "setup_s": statistics.median(record["setup_samples_s"]),
        "peak_rss_mb": statistics.median(record["peak_rss_samples_mb"]),
        "success_rate": 1.0 - record["failed"] / record["attempted"],
    }


def per_layer(record: dict) -> dict[str, float]:
    from spans import summarize

    out = summarize(record["layers"])
    out["trace.overhead_ms"] = (
        statistics.median(record["traced_op_ms"]) - statistics.median(record["op_ms"]))
    return out


def report(record: dict, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['attempted']} ops, {record['failed']} failed")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, value in metrics.items():
        line = f"  {name:40s} {value:14.6g} {units[name]}"
        if name == "op_tail_ms":
            t = record["op_tail"]
            line += (f"  (p{t['percentile']} of {t['ops']} ops, {t['beyond']} beyond;"
                     f" p{t['top_percentile']}, ten beyond, is {t['top_ms']:.6g} ms)")
        print(line)
    if "success_rate" in metrics:
        print(f"  {'error_rate':40s} {1.0 - metrics['success_rate']:14.6g} ratio")
    if record.get("noon_infidelity"):
        print(f"  {'noon_infidelity':40s} "
              f"{statistics.median(record['noon_infidelity']):14.6g} 1-F")
    if "cli.self_ms" in metrics:
        op = statistics.median(record["traced_op_ms"])
        dyn = sum(v for k, v in metrics.items() if k.startswith("dynamics.") and k.endswith("_ms"))
        print(f"  share of traced op {op:.3f} ms: dynamics.* self {dyn / op:.1%}, "
              f"protocol.resolve_duration {metrics['protocol.resolve_duration_ms'] / op:.1%}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one workload of the noonsim benchmark.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (common.SRC / "noonsim" / "__init__.py").is_file():
        print(f"benchmark: program source not found under {common.SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = common.benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = common.OUT_DIR / tag
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    parts = [
        _worker(["--workload", args.workload, "--seed", str(args.seed),
                 "--first-op", str(j * workloads.POOL // SEGMENTS),
                 "--seconds", str(args.seconds / SEGMENTS), "--trace", str(args.trace)],
                scratch / f"worker{j}.json")
        for j in range(SEGMENTS)
    ]
    record = merge(parts)

    metrics = per_layer(record) if args.trace else end_to_end(record)
    metrics = {name: metrics[name] for name in units}
    record["metrics"] = metrics
    record["units"] = units
    (common.OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    report(record, metrics, units)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
