"""Pulse-program text format: parser and canonical serializer.

One step per line, ``keyword key=value ...``; ``#`` starts a comment that
runs to the end of its line, whatever it holds, and blank lines are
ignored.  At most one config line, ``set``, precedes the steps, and the
first step prepares the initial state; ``demos/noon8.pp`` is a complete
program.  What a line is, ``_text_lines`` decides, for ``parse`` and for
the positions the command line reports: a leading byte-order mark is
dropped, and a line ends only at a newline, ``\\n``, ``\\r\\n`` or ``\\r``.

The format is written down once, in the table ``_FORMAT``: each keyword
names what its line builds and its keys in canonical order, and each key
names the attribute it sets, its parser and its formatter.  ``parse``,
``serialize`` and ``step_keyword`` all read that table.  Serialization is
canonical (fixed key order, repr floats), and parse(serialize(p)) == p for
every valid program.  A program is valid only where it fits its
truncation.

``parse`` checks only syntax and where the ``set`` line stands.  Each
value is checked once, by the constructors of ``Truncation`` and the
steps, and each step once, by the ``Program`` that ``parse`` builds from
all of them, with one rule, ``protocol._check_step``, which
``run_sequence`` runs too: a step of a known type, a ``prepare`` first
and nowhere else, and a fit to the truncation (``fock._level_index`` for
a ``prepare`` level, ``dynamics._driven_dim`` for a ``pulse``'s k).  A
value or fit error is a ``fock.FieldError``, which ``parse`` reports as a
``ParseError`` at the key that set the value, by the key's name, as in
``nmax_x must be >= 1, got 0``, ``omega must be finite, got inf`` or
``k must be <= the guard band 4, got 5``; a step out of place is reported
at its keyword.  A line's syntax and values are read before any step is
placed or fitted, so of several errors the first of a line's syntax or
value is reported before any step's place or fit.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .fock import FieldError, Truncation
from .dynamics import PulseSpec, RotationSpec, SuperpositionPi, VacuumPi
from .protocol import MeasureQubit, Prepare, Rotate, SidebandPulse, Step, _check_step


class ParseError(Exception):
    """Syntax or semantic error in a pulse program, with location."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Program:
    """Parsed pulse program: truncation config plus ordered steps.

    Each step is checked by ``protocol._check_step``, and this is the one
    check ``parse`` makes of a step, so a program that builds serializes
    to text that parses back to it.  The error of a step that fails
    carries its index as ``_step_index``, for ``parse`` to report its line.
    """

    trunc: Truncation = field(default_factory=Truncation)
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        for index, step in enumerate(self.steps):
            try:
                _check_step(index, step, self.trunc)
            except ValueError as exc:
                exc._step_index = index
                raise


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
        return float(text)
    except ValueError:
        raise ValueError(f"invalid {what} {text!r}") from None


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


_FORMAT: dict[str, _Line] = {
    "set": _Line(Truncation, None, (
        _Key("nmax_x", "n_max_x", _parse_int, str),
        _Key("nmax_y", "n_max_y", _parse_int, str),
        _Key("guard", "guard", _parse_int, str),
    )),
    "prepare": _Line(Prepare, None, (
        _Key("q", "q", str, str),
        _Key("nx", "nx", _parse_int, str),
        _Key("ny", "ny", _parse_int, str),
    )),
    "pulse": _Line(SidebandPulse, PulseSpec, (
        _Key("axis", "axis", str, str),
        _Key("k", "k", _parse_int, str),
        _Key("eta", "eta", _parse_real, _fmt),
        _Key("omega", "omega", _parse_real, _fmt),
        _Key("t", "duration", _parse_duration, _fmt_duration),
        _Key("form", "form", str, str),
    )),
    "rotate": _Line(Rotate, RotationSpec, (
        _Key("theta", "theta", _parse_angle, _fmt),
        _Key("phi", "phi", _parse_angle, _fmt),
    )),
    "measure": _Line(MeasureQubit, None, (
        _Key("q", "outcome", str, str),
    )),
}
_KEY_NAMES = {keyword: [key.name for key in line.keys] for keyword, line in _FORMAT.items()}
_KEYWORDS = {line.builds: keyword for keyword, line in _FORMAT.items()}


def _split_fields(text: str, words: list[str], allowed: list[str], line: int) -> dict:
    """The key=value words after the keyword -> {key: (value, word index)}.

    ``words`` are the words of ``text``, a line without its comment, the
    keyword first.  Rejects unknown or duplicate keys.
    """
    out: dict[str, tuple[str, int]] = {}
    for index, word in enumerate(words[1:], start=1):
        if "=" not in word:
            raise ParseError(f"expected key=value, got {word!r}", line, _column(text, index))
        key, _, value = word.partition("=")
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}", line, _column(text, index))
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line, _column(text, index))
        out[key] = (value, index)
    missing = [k for k in allowed if k not in out]
    if missing:
        raise ParseError(f"missing key(s): {', '.join(missing)}", line)
    return out


def _column(text: str, index: int) -> int:
    """The column of word ``index`` of ``text`` (0 is the first word), counted from 1.

    Worked out only for an error: ``parse`` splits a line with ``str.split``,
    whose whitespace is ``_TOKEN_RE``'s.
    """
    return list(_TOKEN_RE.finditer(text))[index].start() + 1


def _text_lines(text: str) -> list[str]:
    """The lines of program text, each with its end read as ``\\n``.

    One leading U+FEFF (a byte-order mark) is dropped, and a line ends only
    at ``\\n``, ``\\r\\n`` or ``\\r``, Python's universal newlines: a form
    feed, ``\\v``, U+0085 or U+2028 is whitespace inside its line, though
    ``str``'s own line split takes each of them for a line end.
    """
    return io.StringIO(text.removeprefix("\ufeff"), newline=None).readlines()


def parse(text: str) -> Program:
    """Parse pulse-program text; raises ParseError with line/column.

    Lines are read by ``_text_lines``, so a text that starts with a
    byte-order mark parses as the same text without it, and columns are
    counted without the mark.
    """
    trunc = Truncation()
    set_line = None
    steps = []  # (step, line, fields, lineno, body) of each step line
    try:
        for lineno, raw in enumerate(_text_lines(text), start=1):
            body = raw.split("#", 1)[0]
            words = body.split()
            if not words:
                continue
            keyword = words[0]
            line = _FORMAT.get(keyword)
            if line is None:
                raise ParseError(f"unknown keyword {keyword!r}", lineno, _column(body, 0))
            if line.builds is Truncation and steps:
                raise ParseError("config lines must precede steps", lineno, _column(body, 0))
            if line.builds is Truncation and set_line is not None:
                raise ParseError(f"the truncation is already set on line {set_line}",
                                 lineno, _column(body, 0))
            fields = _split_fields(body, words, _KEY_NAMES[keyword], lineno)
            values = {}
            for key in line.keys:
                value, index = fields[key.name]
                try:
                    values[key.attr] = key.parse(value)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, _column(body, index)) from None
            obj = line.builds(line.spec(**values)) if line.spec else line.builds(**values)
            if line.builds is Truncation:
                trunc, set_line = obj, lineno
            else:
                steps.append((obj, line, fields, lineno, body))
        return Program(trunc, tuple(step for step, *_ in steps))
    except ValueError as exc:  # a constructor's, on the line being read, or Program's check
        if hasattr(exc, "_step_index"):  # of the step it names: report at that step's line
            _, line, fields, lineno, body = steps[exc._step_index]
        if isinstance(exc, FieldError):  # names the attribute that one key sets
            key = next(k for k in line.keys if k.attr == exc.field)
            raise ParseError(f"{key.name} {exc.detail}", lineno,
                             _column(body, fields[key.name][1])) from None
        raise ParseError(str(exc), lineno, _column(body, 0)) from None  # the step may not stand here


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
