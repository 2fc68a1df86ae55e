"""Size sweep: per-layer numbers for NOON-8 at several truncations, both forms.

    python3 bench/sweep.py

A traced report, not a gated workload.  For each n_max in SIZES and each
form (all four pulses ``closed`` or all ``full``; horizon 1000; couplings
and outcome drawn by seed 1) one fresh process runs one warm-up, one
untraced and one traced ``noonsim run`` op and reports the op times, the
peak RSS and the per-layer metrics of the traced op.  A size that would not
fit is recorded as skipped, with its reason, before it is started.  Its
need is scaled from the last size measured in the same form: peak RSS by
dim^2, the size of a dense operator, and op time by dim^2 for the closed
form (dense operator builds) or dim^3 for the full form (``eigh``).  The
report goes to ``bench/out/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import common

SIZES = (12, 24, 48, 96)
MEM_BUDGET_MB = 2048
TIME_BUDGET_S = 60  # for the three ops of one size
TIME_EXPONENT = {"closed": 2, "full": 3}
OPS_PER_SIZE = 3  # warm-up, untraced, traced


def measure_one(nmax: int, form: str, work_dir: Path) -> dict:
    """Run one size in this process (a fresh one, started by ``sweep``)."""
    import run
    import worker
    from workloads import Workload

    full = (1, 3, 5, 6) if form == "full" else ()
    w = Workload(f"sweep_n{nmax}_{form}", "run", nmax, 1000, full_steps=full)
    record = worker.run(w, seed=1, first_op=0, seconds=0.0, trace=True, work_dir=work_dir)
    return {
        "nmax": nmax, "form": form, "dim": 2 * (nmax + 1) ** 2,
        "op_ms": record["op_ms"][0], "traced_op_ms": record["traced_op_ms"][0],
        "peak_rss_mb": record["peak_rss_mb"],
        "failures": record["failures"],
        "noon_infidelity": record["noon_infidelity"][-1] if record["noon_infidelity"] else None,
        "layers": run.per_layer(record),
        "env": record["env"],
    }


def skip_reasons(nmax: int, form: str, prev: dict | None) -> list[str]:
    """Why n_max would not fit, predicted from ``prev``, the last size measured."""
    if prev is None:
        return []
    dim = 2 * (nmax + 1) ** 2
    scale = dim / prev["dim"]
    reasons = []
    peak_mb = prev["peak_rss_mb"] * scale**2
    if peak_mb > MEM_BUDGET_MB:
        reasons.append(
            f"predicted peak RSS {peak_mb:.0f} MB ({prev['peak_rss_mb']:.0f} MB at "
            f"n_max={prev['nmax']} x (dim ratio {scale:.2f})^2; one dense operator is "
            f"{16 * dim * dim / 1e9:.2f} GB) exceeds the {MEM_BUDGET_MB} MB budget")
    exponent = TIME_EXPONENT[form]
    op_s = prev["op_ms"] / 1000 * scale**exponent
    if op_s * OPS_PER_SIZE > TIME_BUDGET_S:
        reasons.append(
            f"predicted {op_s:.0f} s per op ({prev['op_ms'] / 1000:.1f} s at n_max={prev['nmax']} "
            f"x (dim ratio {scale:.2f})^{exponent}) x {OPS_PER_SIZE} ops exceeds the "
            f"{TIME_BUDGET_S} s budget")
    return reasons


def sweep() -> list[dict]:
    rows = []
    for form in ("closed", "full"):
        prev = None
        for nmax in SIZES:
            row = {"nmax": nmax, "form": form, "dim": 2 * (nmax + 1) ** 2}
            reasons = skip_reasons(nmax, form, prev)
            if reasons:
                row["skipped"] = "; ".join(reasons)
                rows.append(row)
                print(f"n_max={nmax} form={form}: skipped", flush=True)
                continue
            out = _one_path(nmax, form)
            cmd = [sys.executable, __file__, "--one", str(nmax), form]
            env = dict(os.environ, **common.BLAS_ENV)
            try:
                subprocess.run(cmd, env=env, check=True, timeout=2 * TIME_BUDGET_S,
                               stdout=subprocess.DEVNULL)
                row = json.loads(out.read_text(encoding="utf-8"))
                prev = row
            except subprocess.TimeoutExpired:
                row["skipped"] = f"did not finish within {2 * TIME_BUDGET_S} s"
            except subprocess.CalledProcessError as exc:
                row["skipped"] = f"process failed with exit code {exc.returncode}"
            rows.append(row)
            print(f"n_max={nmax} form={form}: " +
                  (row.get("skipped") or f"{row['op_ms']:.1f} ms/op"), flush=True)
    return rows


def _one_path(nmax: int, form: str) -> Path:
    return common.OUT_DIR / f"sweep-n{nmax}-{form}.json"


LAYER_COLUMNS = (
    "protocol.resolve_duration_ms", "dynamics.closed_form_unitary_ms",
    "dynamics.carrier_rotation_ms", "dynamics.apply_operator_ms",
    "dynamics.sideband_hamiltonian_ms", "dynamics.expm_oracle_ms",
    "dynamics.dense_operator_bytes", "trace.coverage",
)


def report(rows: list[dict]) -> list[str]:
    lines = []
    for r in rows:
        head = f"n_max={r['nmax']:3d} form={r['form']:6s} dim={r['dim']:6d}"
        if "skipped" in r:
            lines.append(f"{head}  skipped: {r['skipped']}")
            continue
        lines.append(f"{head}  op {r['op_ms']:.1f} ms (traced {r['traced_op_ms']:.1f} ms), "
                     f"peak RSS {r['peak_rss_mb']:.0f} MB, 1-F {r['noon_infidelity']!r}, "
                     f"{len(r['failures'])} failed")
        lines.extend(f"    {k:36s} {r['layers'][k]:.6g}" for k in LAYER_COLUMNS)
    return lines


def main() -> int:
    p = argparse.ArgumentParser(description="Per-layer size sweep of NOON-8.")
    p.add_argument("--one", nargs=2, metavar=("NMAX", "FORM"), help=argparse.SUPPRESS)
    args = p.parse_args()
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.one:
        nmax, form = int(args.one[0]), args.one[1]
        out = _one_path(nmax, form)
        row = measure_one(nmax, form, out.parent / (out.stem + ".work"))
        out.write_text(json.dumps(row), encoding="utf-8")
        return 0
    rows = sweep()
    out = common.OUT_DIR / "sweep.json"
    out.write_text(json.dumps(rows, indent=1), encoding="utf-8")
    print("\n".join(report(rows)))
    print(f"report: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
