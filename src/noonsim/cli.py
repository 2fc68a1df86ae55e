"""Command line: run a pulse program, or scan one pulse's duration.

Exit codes: 0 success, 2 parse or usage error, 3 physics/guard error, 4 I/O
error.  Errors go to stderr as one JSON object so callers can machine-read
them; a usage error (a bad or missing flag) is ``{"error": "usage"}`` with
argparse's message naming the flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .dynamics import PhysicsError, apply_pulse
from .fock import QUBIT_LABELS
from .program import ParseError, Program, parse, serialize
from .protocol import (
    MeasureQubit,
    Prepare,
    Rotate,
    SidebandPulse,
    noon_fidelity,
    run_sequence,
)

SCHEMA_VERSION = 1

EXIT_PARSE = 2
EXIT_PHYSICS = 3
EXIT_IO = 4


def _step_kind(step) -> str:
    return {
        Prepare: "prepare",
        SidebandPulse: "pulse",
        Rotate: "rotate",
        MeasureQubit: "measure",
    }[type(step)]


def _state_rows(state) -> list[list[float]]:
    rows = []
    amp = state.amp
    for q in range(2):
        for nx in range(amp.shape[1]):
            for ny in range(amp.shape[2]):
                a = amp[q, nx, ny]
                if a != 0:
                    rows.append([q, nx, ny, a.real, a.imag])
    return rows


def result_document(
    program: Program,
    result,
    *,
    dump_states: bool = False,
    noon_n: int = 8,
) -> dict:
    """JSON-serializable record of one run."""
    steps = []
    measurements = {m.step_index: m for m in result.measurements}
    for idx, state, leakage in result.snapshots:
        p_g, p_e = state.qubit_populations()
        rec = {
            "step": idx,
            "kind": _step_kind(program.steps[idx]),
            "p_g": p_g,
            "p_e": p_e,
            "leakage": leakage,
        }
        if idx in measurements:
            rec["outcome"] = measurements[idx].outcome
            rec["probability"] = measurements[idx].probability
        if dump_states:
            rec["state"] = _state_rows(state)
        steps.append(rec)

    diagnostics = dict(result.diagnostics)
    diagnostics["postselect_probability"] = result.postselect_probability
    try:
        nf = noon_fidelity(result.final_state, noon_n)
        diagnostics["noon_n"] = float(noon_n)
        diagnostics["noon_best_fidelity"] = nf.best_fidelity
        diagnostics["noon_best_phase"] = nf.best_phase
        diagnostics["noon_fidelity_chi_0"] = nf.fidelity_chi_0
        diagnostics["noon_fidelity_chi_pi"] = nf.fidelity_chi_pi
    except ValueError:
        pass  # final state not post-selected; no NOON score

    return {
        "schema_version": SCHEMA_VERSION,
        "program": serialize(program),
        "steps": steps,
        "diagnostics": diagnostics,
    }


def cmd_run(args) -> int:
    program = _load_program(args.program)
    result = run_sequence(
        list(program.steps),
        program.trunc,
        outcome_override=args.outcome,
    )
    doc = result_document(
        program, result, dump_states=args.dump_states, noon_n=args.noon_n
    )
    text = json.dumps(doc, indent=2) + "\n"
    _write_out(args.out, text)
    return 0


def cmd_scan(args) -> int:
    program = _load_program(args.program)
    if not (0 <= args.step < len(program.steps)):
        raise PhysicsError(f"step index {args.step} out of range")
    target = program.steps[args.step]
    if not isinstance(target, SidebandPulse):
        raise PhysicsError(f"step {args.step} is not a sideband pulse")

    # evolve up to (not including) the scanned pulse
    prefix = list(program.steps[: args.step])
    result = run_sequence(prefix, program.trunc, leakage_limit=math.inf)
    base = result.final_state

    if args.samples == 1:
        ts = [args.t_min]
    else:
        dt = (args.t_max - args.t_min) / (args.samples - 1)
        ts = [args.t_min + i * dt for i in range(args.samples)]

    lines = ["t,p_e,p_g,leakage"]
    for t in ts:
        state, leakage = apply_pulse(base, dataclasses.replace(target.spec, duration=t))
        p_g, p_e = state.qubit_populations()
        lines.append(f"{t!r},{p_e!r},{p_g!r},{leakage!r}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def _load_program(path: str) -> Program:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one JSON line on stderr, then exits 2."""

    def error(self, message: str):
        _emit_error("usage", message)
        sys.exit(EXIT_PARSE)


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="noonsim", description="Trapped-ion NOON-state pulse-program simulator"
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a pulse program")
    run.add_argument("program", help="pulse-program file (.pp)")
    run.add_argument("--outcome", choices=QUBIT_LABELS, default=None,
                     help="override the measured outcome")
    run.add_argument("--dump-states", action="store_true",
                     help="include per-step state amplitudes in the output")
    run.add_argument("--out", default=None, help="output file (default stdout)")
    run.add_argument("--noon-n", type=int, default=8, dest="noon_n",
                     help="NOON order scored in the diagnostics")
    run.set_defaults(func=cmd_run)

    scan = sub.add_parser("scan", help="scan one pulse's duration, CSV output")
    scan.add_argument("program", help="pulse-program file (.pp)")
    scan.add_argument("--step", type=int, required=True,
                      help="index of the sideband-pulse step to scan")
    scan.add_argument("--t-min", type=_finite_float, required=True, dest="t_min")
    scan.add_argument("--t-max", type=_finite_float, required=True, dest="t_max")
    scan.add_argument("--samples", type=_positive_int, default=200)
    scan.add_argument("--out", default=None, help="output file (default stdout)")
    scan.set_defaults(func=cmd_scan)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit_error("parse", str(exc), line=exc.line, col=exc.col)
        return EXIT_PARSE
    except (PhysicsError, ValueError) as exc:
        _emit_error("physics", str(exc))
        return EXIT_PHYSICS
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_IO


def _emit_error(kind: str, message: str, **extra) -> None:
    doc = {"error": kind, "message": message}
    doc.update(extra)
    print(json.dumps(doc), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
