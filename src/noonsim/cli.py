"""Command line: run a pulse program, or scan one pulse's duration.

``run`` writes its result document as one line of compact JSON, and
``scan`` its samples as CSV.

Exit codes: 0 success, 2 parse or usage error (a pulse whose k exceeds
the guard band included), 3 physics error or guard-band leakage (a
truncation whose state does not fit in memory included), 4 I/O error.
Errors go to stderr as one JSON object so callers can machine-read
them; a usage error (a bad or missing flag) is ``{"error": "usage"}`` with
a message naming the flag.  ``scan``'s flag values go through the field
checks of ``fock``, before the program is read, as in
``argument --samples: must be >= 1, got 0``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .dynamics import PhysicsError, scan_pulse
from .fock import QUBIT_LABELS, FieldError, _require_finite, _require_int
from .program import ParseError, Program, _text_lines, parse, serialize, step_keyword
from .protocol import MeasureQubit, SidebandPulse, noon_fidelity, qubit_level, run_sequence

SCHEMA_VERSION = 2

EXIT_PARSE = 2
EXIT_PHYSICS = 3
EXIT_IO = 4


def _state_rows(state) -> list[list[float]]:
    """(q, nx, ny, re, im) of every nonzero amplitude, in layout order."""
    amp = state.amp
    return [[q, nx, ny, amp[q, nx, ny].real, amp[q, nx, ny].imag]
            for q, nx, ny in np.argwhere(amp).tolist()]


def result_document(
    program: Program,
    result,
    *,
    dump_states: bool = False,
) -> dict:
    """JSON-serializable record of one run, ``schema_version`` 2.

    A step's entry holds its index, keyword, qubit populations and the
    ``StepRecord`` fields that are not None; its state only with
    ``dump_states``.  A final state with a definite qubit level is scored as
    NOON(2k) if every pulse has sideband order k and 2k fits both modes.
    """
    steps = []
    for rec in result.steps:
        p_g, p_e = rec.state.qubit_populations()
        entry = {"step": rec.index, "kind": step_keyword(program.steps[rec.index]),
                 "p_g": p_g, "p_e": p_e}
        entry.update((k, v) for k, v in vars(rec).items()
                     if v is not None and k not in ("index", "state"))
        if dump_states:
            entry["state"] = _state_rows(rec.state)
        steps.append(entry)

    diagnostics = {"postselect_probability": result.postselect_probability}
    orders = {2 * step.spec.k for step in program.steps if isinstance(step, SidebandPulse)}
    top = min(program.trunc.n_max_x, program.trunc.n_max_y)
    if len(orders) == 1 and max(orders) <= top and qubit_level(result.final_state) is not None:
        (noon_n,) = orders
        nf = noon_fidelity(result.final_state, noon_n)
        diagnostics["noon_n"] = float(noon_n)
        diagnostics.update((f"noon_{k}", v) for k, v in vars(nf).items())

    return {
        "schema_version": SCHEMA_VERSION,
        "program": serialize(program),
        "steps": steps,
        "diagnostics": diagnostics,
    }


def cmd_run(args) -> int:
    program = _load_program(args.program)
    if args.outcome and not any(isinstance(step, MeasureQubit) for step in program.steps):
        build_parser().error(f"argument --outcome: {args.outcome!r} overrides no measurement; "
                             "the program has no measure step")
    result = run_sequence(list(program.steps), program.trunc, outcome_override=args.outcome)
    doc = result_document(program, result, dump_states=args.dump_states)
    # one compact line: indent= would turn off json's C encoder
    _write_out(args.out, json.dumps(doc) + "\n")
    return 0


def cmd_scan(args) -> int:
    try:
        _require_finite(t_min=args.t_min, t_max=args.t_max)
        _require_int(1, samples=args.samples)
    except FieldError as exc:  # names the flag's dest
        build_parser().error(f"argument --{exc.field.replace('_', '-')}: {exc.detail}")
    if args.samples == 1:
        ts = [args.t_min]
    else:
        dt = (args.t_max - args.t_min) / (args.samples - 1)
        ts = [args.t_min + i * dt for i in range(args.samples)]
    if not all(map(math.isfinite, ts)):
        build_parser().error(f"argument --t-max: the grid from --t-min {args.t_min!r} "
                             f"to {args.t_max!r} overflows")

    program = _load_program(args.program)
    n = len(program.steps)
    if not (0 <= args.step < n and isinstance(program.steps[args.step], SidebandPulse)):
        build_parser().error(f"argument --step: {args.step} is not the index of a "
                             f"sideband pulse among the {n} steps")
    target = program.steps[args.step]

    # evolve up to (not including) the scanned pulse, with run's leakage limit
    base = run_sequence(list(program.steps[: args.step]), program.trunc).final_state

    p_g, p_e, leakage = scan_pulse(base, target.spec, ts)
    lines = ["t,p_e,p_g,leakage"]
    lines += [f"{t!r},{pe!r},{pg!r},{lk!r}"
              for t, pe, pg, lk in zip(ts, p_e.tolist(), p_g.tolist(), leakage.tolist())]
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def _load_program(path: str) -> Program:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines as parse reads them, a byte-order mark dropped; the last one ends at the bad byte
        lines = _text_lines(data[: exc.start].decode("utf-8") + "?")
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                         len(lines), len(lines[-1])) from None
    program = parse(text)
    if not program.steps:
        raise ParseError("no steps; a program starts with a prepare", len(_text_lines(text)) + 1)
    return program


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one JSON line on stderr, then exits 2."""

    def error(self, message: str):
        _emit_error("usage", message)
        sys.exit(EXIT_PARSE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``noonsim`` parser, built once per process and shared: do not modify it."""
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
    run.set_defaults(func=cmd_run)

    scan = sub.add_parser("scan", help="scan one pulse's duration, CSV output")
    scan.add_argument("program", help="pulse-program file (.pp)")
    scan.add_argument("--step", type=int, required=True,
                      help="index of the sideband-pulse step to scan")
    scan.add_argument("--t-min", type=float, required=True, dest="t_min")
    scan.add_argument("--t-max", type=float, required=True, dest="t_max")
    scan.add_argument("--samples", type=int, default=200)
    scan.add_argument("--out", default=None, help="output file (default stdout)")
    # read an argument that starts like a negative number (-5e-1, -1E3, -inf) as a value:
    # argparse's own pattern matches only -1 and -.5, and takes -5e-1 for an unknown option
    scan._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)
    scan.set_defaults(func=cmd_scan)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit_error("parse", str(exc), line=exc.line, col=exc.col)
        return EXIT_PARSE
    except (PhysicsError, MemoryError) as exc:
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
