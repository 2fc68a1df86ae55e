"""One fresh process of a benchmark run: set-up, then the closed loop.

    python3 bench/worker.py --workload W --seed N --first-op K --seconds S --trace 0|1 --out FILE

Set-up is timed from the first line of this file: importing noonsim,
generating and parsing the seed's programs, and one warm-up op.  The loop
then runs ops one after another (one client, closed loop) until the
seconds are spent.  Op ``i`` runs program ``i mod 32`` of the pool,
counting from ``--first-op`` for the warm-up, so that the processes of one
run start at different programs.  Each op is one in-process
``noonsim.cli.main`` call that writes its output to a scratch file; only
that call is timed, and its output is checked afterwards.  The warm-up
op's scan rows are also checked against scipy, after the loop.  With
``--trace 1`` every other op runs under the span tracer, so that traced
and untraced op times are interleaved.  Writes one JSON record to ``--out``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_KEPT = 5


def run(w, seed: int, first_op: int, seconds: float, trace: bool, work_dir: Path,
        t0: float | None = None) -> dict:
    """Set up and run one workload in this process; returns the record."""
    t0 = time.perf_counter() if t0 is None else t0
    common.use_program_source()
    import noonsim.cli
    import noonsim.program

    work_dir.mkdir(parents=True, exist_ok=True)
    programs = workloads.generate(w, seed)
    paths = []
    for i, text in enumerate(programs):
        path = work_dir / f"prog{i:02d}.pp"
        path.write_text(text, encoding="utf-8")
        noonsim.program.parse(text)
        paths.append(path)
    out_path = work_dir / ("out.json" if w.kind == "run" else "out.csv")
    argvs = [workloads.cli_args(w, str(p), str(out_path)) for p in paths]

    failures: list[str] = []
    infidelities: list[float] = []
    spot_rows: list[tuple[int, list]] = []  # the warm-up op's (program, rows), for scipy

    def one_op(i: int, tracer=None) -> float:
        """Run op ``i``; returns its wall time, records a failed check."""
        k = i % len(programs)
        out_path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.begin_op(i)
            tracer.install()
        start = time.perf_counter()
        try:
            code = noonsim.cli.main(argvs[k])
        except Exception:  # an op that raises counts as failed; the loop goes on
            code, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        if code is not None:
            error = f"exit code {code}" if code != 0 else None
        if error is None:
            error = check(k)
        if error is not None:
            failures.append(f"op {i} (program {k}): {error}")
        return wall

    def check(k: int) -> str | None:
        try:
            text = out_path.read_text(encoding="utf-8")
        except OSError as exc:
            return f"no output: {exc}"
        if w.kind == "run":
            error, infidelity = workloads.check_run(w, text)
            if infidelity is not None:
                infidelities.append(infidelity)
            return error
        error, rows = workloads.check_scan(text)
        if error is None and not spot_rows:
            spot_rows.append((k, rows))
        return error

    one_op(first_op)  # warm-up
    setup_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    op_s, traced_s, layers = [], [], []
    i = first_op + 1
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    while time.perf_counter() < deadline or len(op_s) < 1 or (trace and not traced_s):
        if trace and (i - first_op) % 2 == 0:
            wall = one_op(i, tracer)
            traced_s.append(wall)
            layers.append(tracer.op_layers(i, wall))
        else:
            op_s.append(one_op(i))
        i += 1
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # spot checks against scipy, outside the timed loop and after the RSS reading
    spots = workloads.spot_samples(seed)
    for k, rows in spot_rows:
        ref = workloads.scan_reference(programs[k], [rows[j][0] for j in spots])
        for j, expected in zip(spots, ref):
            got = rows[j][1:]
            if any(abs(a - b) > workloads.PROBABILITY_TOL for a, b in zip(got, expected)):
                failures.append(f"program {k} sample {j}: {got} != scipy {expected}")
                break

    return dict(
        workload=w.name,
        seed=seed,
        setup_s=setup_s,
        attempted=i - first_op,
        failed=len(failures),
        failures=failures[:MAX_FAILURES_KEPT],
        op_ms=[1000.0 * t for t in op_s],
        traced_op_ms=[1000.0 * t for t in traced_s],
        layers=layers,
        loop_s=loop_s,
        peak_rss_mb=peak_rss_mb,
        noon_infidelity=infidelities,
        spot_checked=len(spot_rows),
        env=common.environment(seed),
    )


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--first-op", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    out = Path(args.out)
    record = run(workloads.WORKLOADS[args.workload], args.seed, args.first_op, args.seconds,
                 bool(args.trace), out.parent / (out.stem + ".work"), t0=T0)
    out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
