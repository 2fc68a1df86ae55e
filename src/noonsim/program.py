"""Pulse-program text format: parser and canonical serializer.

One step per line, ``keyword key=value ...``; ``#`` starts a comment and
blank lines are ignored.  Config lines precede steps, and the first step
prepares the initial state; ``demos/noon8.pp`` is a complete program.

The format is written down once, in the table ``_FORMAT``: each keyword
names what its line builds and its keys in canonical order, and each key
names the attribute it sets, its parser and its formatter.  ``parse``,
``serialize`` and ``step_keyword`` all read that table.  Serialization is
canonical (fixed key order, repr floats), and parse(serialize(p)) == p for
every valid program.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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


_TOKEN_RE = re.compile(r"\S+")
_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d*)?)?\*?pi(?:/(\d+(?:\.\d*)?))?$")
_SUPER_RE = re.compile(r"^auto_super_pi\((\d+)\)$")

# Value parsers take the text after ``key=`` and raise ValueError, which
# ``parse`` reports at the key's column.


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid integer {text!r}") from None


def _parse_real(text: str, what: str = "number") -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid {what} {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parse_angle(text: str) -> float:
    """Float literal, or a pi expression like ``pi``, ``-pi/2``, ``2pi``."""
    m = _PI_RE.match(text)
    if not m:
        return _parse_real(text, "angle")
    num = float(m.group(1) + (m.group(2) or "1"))
    den = float(m.group(3) or "1")
    if den == 0:
        raise ValueError(f"invalid angle {text!r} (zero denominator)")
    return num * math.pi / den


def _parse_duration(text: str):
    if text == "auto_vacuum_pi":
        return VacuumPi()
    m = _SUPER_RE.match(text)
    if m:
        return SuperpositionPi(int(m.group(1)))
    return _parse_real(text)


def _choice(what: str, *choices: str) -> Callable[[str], str]:
    def parse_choice(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid {what} {text!r} (expected one of {', '.join(choices)})")
        return text

    return parse_choice


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_duration(d) -> str:
    if isinstance(d, VacuumPi):
        return "auto_vacuum_pi"
    if isinstance(d, SuperpositionPi):
        return f"auto_super_pi({d.horizon})"
    return _fmt(d)


class _Key(NamedTuple):
    name: str  # as written before the '='
    attr: str  # attribute of the object the line builds
    parse: Callable[[str], object]
    fmt: Callable[[object], str]


class _Line(NamedTuple):
    builds: type  # a Step class, or Truncation for a config line
    spec: type | None  # for a step that wraps a spec: the class the keys fill
    keys: tuple[_Key, ...]  # canonical order
    first_only: str | None = None  # error message if the line follows a step


_QUBIT = _choice("qubit level", "g", "e")

_FORMAT: dict[str, _Line] = {
    "set": _Line(Truncation, None, (
        _Key("nmax_x", "n_max_x", _parse_int, str),
        _Key("nmax_y", "n_max_y", _parse_int, str),
        _Key("guard", "guard", _parse_int, str),
    ), "config lines must precede steps"),
    "prepare": _Line(Prepare, None, (
        _Key("q", "q", _QUBIT, str),
        _Key("nx", "nx", _parse_int, str),
        _Key("ny", "ny", _parse_int, str),
    ), "prepare may only appear first"),
    "pulse": _Line(SidebandPulse, PulseSpec, (
        _Key("axis", "axis", _choice("axis", "x", "y"), str),
        _Key("k", "k", _parse_int, str),
        _Key("eta", "eta", _parse_real, _fmt),
        _Key("omega", "omega", _parse_real, _fmt),
        _Key("t", "duration", _parse_duration, _fmt_duration),
        _Key("form", "form", _choice("form", "closed", "full"), str),
    )),
    "rotate": _Line(Rotate, RotationSpec, (
        _Key("theta", "theta", _parse_angle, _fmt),
        _Key("phi", "phi", _parse_angle, _fmt),
    )),
    "measure": _Line(MeasureQubit, None, (
        _Key("q", "outcome", _QUBIT, str),
    )),
}
_KEY_NAMES = {keyword: [key.name for key in line.keys] for keyword, line in _FORMAT.items()}
_KEYWORDS = {line.builds: keyword for keyword, line in _FORMAT.items()}


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


def parse(text: str) -> Program:
    """Parse pulse-program text; raises ParseError with line/column."""
    trunc = Truncation()
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(raw.split("#", 1)[0])]
        if not tokens:
            continue
        keyword, kw_col = tokens[0]
        line = _FORMAT.get(keyword)
        if line is None:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, kw_col)
        if steps and line.first_only:
            raise ParseError(line.first_only, lineno, kw_col)
        if not steps and line.builds not in (Truncation, Prepare):
            raise ParseError("the first step must be a prepare", lineno, kw_col)
        fields = _split_fields(tokens[1:], _KEY_NAMES[keyword], lineno)
        values = {}
        for key in line.keys:
            value, col = fields[key.name]
            try:
                values[key.attr] = key.parse(value)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, col) from None
        try:
            obj = line.builds(line.spec(**values)) if line.spec else line.builds(**values)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, kw_col) from None
        if line.builds is Prepare:
            for key, top in (("nx", trunc.n_max_x), ("ny", trunc.n_max_y)):
                if not 0 <= values[key] <= top:
                    message = f"{key}={values[key]} is outside the truncation, 0..{top}"
                    raise ParseError(message, lineno, fields[key][1])
        if line.builds is Truncation:
            trunc = obj
        else:
            steps.append(obj)

    return Program(trunc, tuple(steps))


def step_keyword(step) -> str:
    """The keyword that starts the line of a step (or of a Truncation)."""
    try:
        return _KEYWORDS[type(step)]
    except KeyError:
        raise ValueError(f"unknown step {step!r}") from None


def _format_line(obj) -> str:
    keyword = step_keyword(obj)
    line = _FORMAT[keyword]
    holder = obj.spec if line.spec else obj
    return " ".join([keyword] + [f"{k.name}={k.fmt(getattr(holder, k.attr))}" for k in line.keys])


def serialize(program: Program) -> str:
    """Canonical text form; deterministic, round-trips through parse()."""
    lines = [_format_line(program.trunc)] + [_format_line(step) for step in program.steps]
    return "\n".join(lines) + "\n"
