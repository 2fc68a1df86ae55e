"""Pulse-program text format: parser and canonical serializer.

One step per line, ``keyword key=value ...``; ``#`` starts a comment and
blank lines are ignored.  Config (``set``) lines precede steps.  Example:

    set nmax_x=12 nmax_y=12 guard=4
    prepare q=e nx=0 ny=0
    pulse axis=x k=4 eta=0.2 omega=15000.0 t=auto_vacuum_pi form=closed
    rotate theta=pi phi=-pi/2
    measure q=e

Serialization is canonical (fixed key order, repr floats), and
parse(serialize(p)) == p for every valid program.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .fock import Truncation
from .dynamics import PulseSpec, RotationSpec
from .protocol import (
    MeasureQubit,
    Prepare,
    Rotate,
    SidebandPulse,
    Step,
    SuperpositionPi,
    VacuumPi,
)


class ParseError(Exception):
    """Syntax or semantic error in a pulse program, with location."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Program:
    """Parsed pulse program: truncation config plus ordered steps."""

    trunc: Truncation = field(default_factory=Truncation)
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        prepares = [i for i, s in enumerate(self.steps) if isinstance(s, Prepare)]
        if self.steps and prepares != [0]:
            raise ValueError("a non-empty program needs exactly one Prepare, first")


_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d*)?)?\*?pi(?:/(\d+(?:\.\d*)?))?$")
_SUPER_RE = re.compile(r"^auto_super_pi\((\d+)\)$")


def _parse_angle(text: str, line: int, col: int) -> float:
    """Float literal, or a pi expression like ``pi``, ``-pi/2``, ``2pi``."""
    m = _PI_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        return sign * num * math.pi / den
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"invalid angle {text!r}", line, col) from None
    return _finite(value, text, line, col)


def _parse_real(text: str, line: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"invalid number {text!r}", line, col) from None
    return _finite(value, text, line, col)


def _finite(value: float, text: str, line: int, col: int) -> float:
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {text!r}", line, col)
    return value


def _parse_int(text: str, line: int, col: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"invalid integer {text!r}", line, col) from None


def _parse_duration(text: str, line: int, col: int):
    if text == "auto_vacuum_pi":
        return VacuumPi()
    m = _SUPER_RE.match(text)
    if m:
        return SuperpositionPi(int(m.group(1)))
    return _parse_real(text, line, col)


def _split_fields(tokens: list[tuple[str, int]], allowed: list[str], line: int) -> dict:
    """key=value tokens -> dict, rejecting unknown or duplicate keys."""
    out: dict[str, tuple[str, int]] = {}
    for tok, col in tokens:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}", line, col)
        key, _, value = tok.partition("=")
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}", line, col)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line, col)
        out[key] = (value, col)
    missing = [k for k in allowed if k not in out]
    if missing:
        raise ParseError(f"missing key(s): {', '.join(missing)}", line)
    return out


def _check_choice(value: str, choices: tuple[str, ...], what: str, line: int, col: int) -> str:
    if value not in choices:
        raise ParseError(
            f"invalid {what} {value!r} (expected one of {', '.join(choices)})", line, col
        )
    return value


def parse(text: str) -> Program:
    """Parse pulse-program text; raises ParseError with line/column."""
    trunc_fields: dict[str, int] = {}
    steps: list[Step] = []
    seen_step = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = []
        for m in re.finditer(r"\S+", line):
            tokens.append((m.group(0), m.start() + 1))
        keyword, kw_col = tokens[0]
        rest = tokens[1:]

        try:
            if keyword == "set":
                if seen_step:
                    raise ParseError("config lines must precede steps", lineno, kw_col)
                fields = _split_fields(rest, ["nmax_x", "nmax_y", "guard"], lineno)
                for key, target in (("nmax_x", "n_max_x"), ("nmax_y", "n_max_y"), ("guard", "guard")):
                    v, col = fields[key]
                    trunc_fields[target] = _parse_int(v, lineno, col)
            elif keyword == "prepare":
                if seen_step:
                    raise ParseError("prepare may only appear first", lineno, kw_col)
                fields = _split_fields(rest, ["q", "nx", "ny"], lineno)
                q, qcol = fields["q"]
                _check_choice(q, ("g", "e"), "qubit level", lineno, qcol)
                steps.append(
                    Prepare(
                        q,
                        _parse_int(fields["nx"][0], lineno, fields["nx"][1]),
                        _parse_int(fields["ny"][0], lineno, fields["ny"][1]),
                    )
                )
                seen_step = True
            elif keyword == "pulse":
                fields = _split_fields(rest, ["axis", "k", "eta", "omega", "t", "form"], lineno)
                axis, acol = fields["axis"]
                _check_choice(axis, ("x", "y"), "axis", lineno, acol)
                form, fcol = fields["form"]
                _check_choice(form, ("closed", "full"), "form", lineno, fcol)
                try:
                    spec = PulseSpec(
                        axis,
                        _parse_int(fields["k"][0], lineno, fields["k"][1]),
                        _parse_real(fields["eta"][0], lineno, fields["eta"][1]),
                        _parse_real(fields["omega"][0], lineno, fields["omega"][1]),
                        _parse_duration(fields["t"][0], lineno, fields["t"][1]),
                        form,
                    )
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, kw_col) from None
                steps.append(SidebandPulse(spec))
                seen_step = True
            elif keyword == "rotate":
                fields = _split_fields(rest, ["theta", "phi"], lineno)
                steps.append(
                    Rotate(
                        RotationSpec(
                            _parse_angle(fields["theta"][0], lineno, fields["theta"][1]),
                            _parse_angle(fields["phi"][0], lineno, fields["phi"][1]),
                        )
                    )
                )
                seen_step = True
            elif keyword == "measure":
                fields = _split_fields(rest, ["q"], lineno)
                q, qcol = fields["q"]
                _check_choice(q, ("g", "e"), "qubit level", lineno, qcol)
                steps.append(MeasureQubit(q))
                seen_step = True
            else:
                raise ParseError(f"unknown keyword {keyword!r}", lineno, kw_col)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), lineno, kw_col) from None

    try:
        trunc = Truncation(**trunc_fields)
        return Program(trunc, tuple(steps))
    except ValueError as exc:
        raise ParseError(str(exc), len(text.splitlines()) or 1) from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_duration(d) -> str:
    if isinstance(d, VacuumPi):
        return "auto_vacuum_pi"
    if isinstance(d, SuperpositionPi):
        return f"auto_super_pi({d.horizon})"
    return _fmt(d)


def serialize(program: Program) -> str:
    """Canonical text form; deterministic, round-trips through parse()."""
    lines = [
        f"set nmax_x={program.trunc.n_max_x} nmax_y={program.trunc.n_max_y} "
        f"guard={program.trunc.guard}"
    ]
    for step in program.steps:
        if isinstance(step, Prepare):
            lines.append(f"prepare q={step.q} nx={step.nx} ny={step.ny}")
        elif isinstance(step, SidebandPulse):
            s = step.spec
            lines.append(
                f"pulse axis={s.axis} k={s.k} eta={_fmt(s.eta)} omega={_fmt(s.omega)} "
                f"t={_fmt_duration(s.duration)} form={s.form}"
            )
        elif isinstance(step, Rotate):
            lines.append(f"rotate theta={_fmt(step.spec.theta)} phi={_fmt(step.spec.phi)}")
        elif isinstance(step, MeasureQubit):
            lines.append(f"measure q={step.outcome}")
        else:
            raise ValueError(f"unknown step {step!r}")
    return "\n".join(lines) + "\n"
