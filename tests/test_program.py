import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from noonsim import (
    MeasureQubit,
    ParseError,
    Prepare,
    Program,
    Rotate,
    SidebandPulse,
    SuperpositionPi,
    Truncation,
    VacuumPi,
    build_noon8,
    parse,
    serialize,
)
from noonsim.fock import FieldError
from noonsim import program as program_module
from noonsim.program import step_keyword
from conftest import random_program

NOON8_PP = Path(__file__).resolve().parent.parent / "demos" / "noon8.pp"


VALID = (
    "set nmax_x=12 nmax_y=12 guard=4\n"
    "prepare q=e nx=0 ny=0\n"
    "pulse axis=x k=4 eta=0.2 omega=15000.0 t=auto_super_pi(1000) form=closed\n"
    "rotate theta=pi phi=-pi/2\n"
    "measure q=e\n"
    "rotate theta=0.5 phi=0.25\n"
)

# one bad value per key of VALID, and the whole message parse reports at that key
BAD_VALUES = [
    (1, "nmax_x", "a", "invalid integer 'a'"),
    (1, "nmax_y", "1.5", "invalid integer '1.5'"),
    (1, "guard", "four", "invalid integer 'four'"),
    (2, "q", "x", "q must be 'g' or 'e', got 'x'"),
    (2, "nx", "zero", "invalid integer 'zero'"),
    (2, "ny", "-", "invalid integer '-'"),
    (3, "axis", "z", "axis must be 'x' or 'y', got 'z'"),
    (3, "k", "two", "invalid integer 'two'"),
    (3, "eta", "small", "invalid number 'small'"),
    (3, "omega", "1e999", "omega must be finite, got inf"),
    (3, "t", "auto_super_pi(0)", "horizon must be >= 1, got 0"),
    (3, "form", "f", "form must be 'closed' or 'full', got 'f'"),
    (4, "theta", "tau", "invalid angle 'tau'"),
    (4, "theta", "pi/0", "invalid angle 'pi/0' (zero denominator)"),
    (4, "theta", "1" + "9" * 309 + "pi", "theta must be finite, got inf"),
    (4, "phi", "nan", "phi must be finite, got nan"),
    (4, "phi", "-pi/0.0", "invalid angle '-pi/0.0' (zero denominator)"),
    (5, "q", "x", "q must be 'g' or 'e', got 'x'"),
]

# a prepare level outside 0..12, at its key
FOCK_INDICES_OUTSIDE = [
    ("prepare q=e nx=99 ny=0", 13, "nx must be <= 12, got 99"),
    ("prepare q=e nx=-1 ny=0", 13, "nx must be >= 0, got -1"),
    ("prepare q=e nx=13 ny=0", 13, "nx must be <= 12, got 13"),
    ("prepare q=e nx=0 ny=13", 18, "ny must be <= 12, got 13"),
    ("  prepare q=g ny=-2 nx=12", 15, "ny must be >= 0, got -2"),
]


class TestParse:
    def test_single_prepare(self):
        program = parse("prepare q=e nx=0 ny=0\n")
        assert program.steps == (Prepare("e", 0, 0),)
        assert program.trunc == Truncation()

    def test_comments_and_blank_lines(self):
        text = "\n# a comment\nprepare q=g nx=1 ny=2   # trailing\n\n"
        assert parse(text).steps == (Prepare("g", 1, 2),)

    def test_config_line(self):
        program = parse("set nmax_x=14 nmax_y=16 guard=5\nprepare q=e nx=0 ny=0\n")
        assert program.trunc == Truncation(14, 16, 5)

    def test_pulse_line(self):
        text = (
            "prepare q=e nx=0 ny=0\n"
            "pulse axis=x k=4 eta=0.2 omega=15000.0 t=auto_vacuum_pi form=closed\n"
        )
        step = parse(text).steps[1]
        assert isinstance(step, SidebandPulse)
        assert step.spec.duration == VacuumPi()

    def test_super_pi_duration(self):
        text = (
            "prepare q=e nx=0 ny=0\n"
            "pulse axis=y k=4 eta=0.1 omega=3.0 t=auto_super_pi(250) form=closed\n"
        )
        assert parse(text).steps[1].spec.duration == SuperpositionPi(250)

    def test_pi_literals_in_rotate(self):
        program = parse("prepare q=e nx=0 ny=0\nrotate theta=pi phi=-pi/2\n")
        spec = program.steps[1].spec
        assert spec.theta == pytest.approx(math.pi)
        assert spec.phi == pytest.approx(-math.pi / 2)
        program = parse("prepare q=e nx=0 ny=0\nrotate theta=2pi phi=0.5\n")
        assert program.steps[1].spec.theta == pytest.approx(2 * math.pi)

    def test_every_keyword_parses(self):
        program = parse(VALID)
        assert [type(step) for step in program.steps] == [
            Prepare, SidebandPulse, Rotate, MeasureQubit, Rotate
        ]
        assert [step_keyword(step) for step in program.steps] == [
            line.split()[0] for line in VALID.splitlines()[1:]
        ]
        assert step_keyword(program.trunc) == "set"
        with pytest.raises(ValueError, match="unknown step"):
            step_keyword(object())

    def test_each_step_is_checked_once(self, monkeypatch):
        # by the Program that parse builds; parse itself checks no step
        calls = []
        check = program_module._check_step

        def counted(index, step, trunc):
            calls.append(index)
            return check(index, step, trunc)

        monkeypatch.setattr(program_module, "_check_step", counted)
        parse(NOON8_PP.read_text())
        assert calls == list(range(9))

    def test_byte_order_mark_is_dropped(self):
        # as the command line drops it, with columns counted without it
        text = NOON8_PP.read_text(encoding="utf-8")
        assert parse("\ufeff" + text) == parse(text)
        with pytest.raises(ParseError) as err:
            parse("\ufeffprepare q=x nx=0 ny=0")
        assert str(err.value) == "line 1, col 9: q must be 'g' or 'e', got 'x'"

    def test_shipped_noon8_matches_builder(self):
        program = parse(NOON8_PP.read_text())
        assert program.steps == tuple(build_noon8(1.0, 1.0, 1000))
        assert program.trunc == Truncation(12, 12, 4)


class TestParseErrors:
    def test_invalid_axis_names_axis_and_line(self):
        text = (
            "prepare q=e nx=0 ny=0\n"
            "pulse axis=z k=4 eta=0.2 omega=1.0 t=0.5 form=closed\n"
        )
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "'z'" in str(err.value)
        assert err.value.line == 2

    def test_unknown_keyword(self):
        with pytest.raises(ParseError) as err:
            parse("prepare q=e nx=0 ny=0\nteleport q=g\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "line, col, message",
        [
            ("prepare q=e nx=0 ny=0 color=red", 23, "unknown key 'color'"),
            ("prepare q=e nx=0 ny", 18, "expected key=value, got 'ny'"),
        ],
        ids=["unknown-key", "no-equals-sign"],
    )
    def test_bad_key_token_names_its_column(self, line, col, message):
        with pytest.raises(ParseError) as err:
            parse(line + "\n")
        assert str(err.value) == f"line 1, col {col}: {message}"

    def test_a_form_feed_is_whitespace_inside_its_line(self):
        # a line ends only at a newline, so the measure is one more token of the prepare line
        with pytest.raises(ParseError) as err:
            parse("prepare q=e nx=0 ny=0\fmeasure q=e")
        assert str(err.value) == "line 1, col 23: expected key=value, got 'measure'"

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse("prepare q=e q=g nx=0 ny=0\n")

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse("prepare q=e nx=0\n")

    def test_config_after_step(self):
        with pytest.raises(ParseError):
            parse("prepare q=e nx=0 ny=0\nset nmax_x=12 nmax_y=12 guard=4\n")

    def test_second_set_line_names_its_keyword(self):
        text = "set nmax_x=12 nmax_y=12 guard=4\n# again\n  set nmax_x=6 nmax_y=6 guard=4\n"
        with pytest.raises(ParseError) as err:
            parse(text + "prepare q=e nx=0 ny=0\n")
        assert (err.value.line, err.value.col) == (3, 3)
        assert "already set on line 1" in str(err.value)

    def test_prepare_not_first(self):
        with pytest.raises(ParseError):
            parse("measure q=e\nprepare q=e nx=0 ny=0\n")

    def test_bad_number(self):
        with pytest.raises(ParseError) as err:
            parse("prepare q=e nx=zero ny=0\n")
        assert "zero" in str(err.value)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize(
        "line, key",
        [
            ("pulse axis=x k=4 eta={} omega=1.0 t=0.5 form=closed", "eta"),
            ("pulse axis=x k=4 eta=0.2 omega={} t=0.5 form=closed", "omega"),
            ("pulse axis=x k=4 eta=0.2 omega=1.0 t={} form=closed", "t"),
            ("rotate theta={} phi=0.5", "theta"),
            ("rotate theta=pi phi={}", "phi"),
        ],
    )
    def test_non_finite_number_names_line_and_column(self, line, key, text):
        # parsed as a float; the constructor rejects it by field, and parse reports it at its key
        shown = {"nan": "nan", "inf": "inf", "-inf": "-inf", "1e999": "inf"}[text]
        line = line.format(text)
        with pytest.raises(ParseError) as err:
            parse("prepare q=e nx=0 ny=0\n" + line + "\n")
        col = line.index(f" {key}=") + 2
        assert str(err.value) == f"line 2, col {col}: {key} must be finite, got {shown}"
        assert (err.value.line, err.value.col) == (2, col)

    @pytest.mark.parametrize(
        "lineno, key, bad, message",
        BAD_VALUES,
        ids=[f"{lineno}-{key}-{bad}" for lineno, key, bad, _ in BAD_VALUES],
    )
    def test_bad_value_names_its_key_line_and_column(self, lineno, key, bad, message):
        lines = VALID.splitlines()
        before, _, after = lines[lineno - 1].partition(f" {key}=")
        lines[lineno - 1] = f"{before} {key}={bad} {after.partition(' ')[2]}".rstrip()
        with pytest.raises(ParseError) as err:
            parse("\n".join(lines) + "\n")
        col = len(before) + 2
        assert str(err.value) == f"line {lineno}, col {col}: {message}"
        assert (err.value.line, err.value.col) == (lineno, col)

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            ("prepare q=e nx=0 ny=0\nprepare q=e nx=0 ny=0\nmeasure q=x\n",
             3, 9, "q must be 'g' or 'e', got 'x'"),
            ("prepare q=e nx=0 ny=0\npulse axis=x k=5 eta=0.2 omega=1.0 t=1.0 form=closed\n"
             "rotate theta=tau phi=0\n", 3, 8, "invalid angle 'tau'"),
            ("prepare q=e nx=0 ny=0\nmeasure q=e\nprepare q=e nx=0 ny=0\n"
             "pulse axis=x k=5 eta=0.2 omega=1.0 t=1.0 form=closed\n",
             3, 1, "prepare may only appear first"),
        ],
        ids=["place-then-value", "fit-then-syntax", "place-then-fit"],
    )
    def test_values_are_read_before_any_step_is_placed_or_fitted(self, text, line, col, message):
        # of several errors, a line's syntax or value comes first, then the first step's place or fit
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line {line}, col {col}: {message}"

    def test_first_step_that_is_not_a_prepare_names_its_line(self):
        with pytest.raises(ParseError) as err:
            parse("rotate theta=1 phi=1\nmeasure q=e\n\n# end\n")
        assert (err.value.line, err.value.col) == (1, 1)
        assert "prepare" in str(err.value)

    @pytest.mark.parametrize(
        "line, col, message",
        FOCK_INDICES_OUTSIDE,
        ids=[f"{line}-{col}" for line, col, _ in FOCK_INDICES_OUTSIDE],
    )
    def test_fock_index_outside_the_truncation_names_its_key(self, line, col, message):
        with pytest.raises(ParseError) as err:
            parse("set nmax_x=12 nmax_y=12 guard=4\n# comment\n" + line + "\n")
        assert str(err.value) == f"line 3, col {col}: {message}"
        assert (err.value.line, err.value.col) == (3, col)

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            ("set nmax_x=12 nmax_y=12 guard=4\nprepare q=e nx=0 ny=0\n"
             "pulse axis=x k=5 eta=0.2 omega=1.0 t=1.0 form=closed\n",
             3, 14, "k must be <= the guard band 4, got 5"),
            ("set nmax_x=9 nmax_y=6 guard=2\nprepare q=e nx=0 ny=0\n"
             "pulse axis=x k=2 eta=0.2 omega=1.0 t=1.0 form=full\n"
             "  pulse form=closed t=auto_vacuum_pi omega=1.0 eta=0.2 k=3 axis=y\n",
             4, 56, "k must be <= the guard band 2, got 3"),
            # without a set line, the default truncation is in force
            ("prepare q=e nx=0 ny=0\npulse axis=y k=7 eta=0.2 omega=1.0 t=1.0 form=closed\n",
             2, 14, "k must be <= the guard band 4, got 7"),
        ],
        ids=["set-line", "keys-reordered", "default-truncation"],
    )
    def test_pulse_beyond_the_guard_band_names_its_k(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line {line}, col {col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)

    def test_pulse_filling_the_guard_band_parses(self):
        program = parse("set nmax_x=5 nmax_y=5 guard=5\nprepare q=e nx=0 ny=0\n"
                        "pulse axis=y k=5 eta=0.2 omega=1.0 t=1.0 form=full\n")
        assert program.steps[1].spec.k == 5

    def test_fock_index_at_the_truncation_edge_parses(self):
        program = parse("set nmax_x=12 nmax_y=14 guard=4\nprepare q=e nx=12 ny=14\n")
        assert program.steps == (Prepare("e", 12, 14),)

    @pytest.mark.parametrize(
        "old, new, line, col, message",
        [
            # each is one field's error: reported at its key, by the key's name
            ("guard=4", "guard=99", 1, 25, "guard must be <= 12, got 99"),
            ("nmax_x=12", "nmax_x=3", 1, 24, "guard must be <= 3, got 4"),
            ("nmax_x=12 nmax_y=12", "nmax_x=5 nmax_y=2", 1, 23, "guard must be <= 2, got 4"),
            ("nmax_x=12", "nmax_x=0", 1, 5, "nmax_x must be >= 1, got 0"),
            ("guard=4", "guard=-1", 1, 25, "guard must be >= 0, got -1"),
            ("q=e", "q=x", 2, 9, "q must be 'g' or 'e', got 'x'"),
            ("axis=x", "axis=z", 3, 7, "axis must be 'x' or 'y', got 'z'"),
            ("k=4", "k=0", 3, 14, "k must be >= 1, got 0"),
            ("eta=0.2", "eta=-0.1", 3, 18, "eta must be >= 0, got -0.1"),
            ("omega=15000.0", "omega=-1", 3, 26, "omega must be >= 0, got -1.0"),
            ("form=closed", "form=f", 3, 62, "form must be 'closed' or 'full', got 'f'"),
            ("measure q=e", "measure q=x", 5, 9, "q must be 'g' or 'e', got 'x'"),
        ],
        ids=["guard-above-n_max", "guard-above-n_max_x", "guard-above-n_max_y", "zero-n_max_x",
             "negative-guard", "prepare-bad-qubit", "bad-axis", "zero-k", "negative-eta", "negative-omega", "bad-form",
             "measure-bad-qubit"],
    )
    def test_value_its_constructor_rejects_names_the_line(self, old, new, line, col, message):
        with pytest.raises(ParseError) as err:
            parse(VALID.replace(old, new, 1))
        assert str(err.value) == f"line {line}, col {col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)

    def test_an_error_column_starts_the_word_at_fault(self):
        # columns are worked out only for an error; each names col 1 (a missing
        # key), the keyword, or the key=value word whose key or value the message names
        rng = random.Random(26)
        base = NOON8_PP.read_text()
        inserts = list("az09=#.-/( \t\n") + ["\x1c", "\u3000", "\xa0", "k=", "pi", "prepare ", "set "]
        errors = 0
        for _ in range(2000):
            text = base
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(text) + 1)
                if rng.random() < 0.4:
                    text = text[:i] + text[i + rng.randint(1, 6):]
                else:
                    text = text[:i] + rng.choice(inserts) + text[i:]
            try:
                parse(text)
            except ParseError as err:
                errors += 1
                message = str(err).split(": ", 1)[1]
                body = program_module._text_lines(text)[err.line - 1].split("#", 1)[0]
                words = {m.start() + 1: m[0] for m in re.finditer(r"\S+", body)}
                if err.col == 1 or err.col == min(words):
                    continue
                word = words[err.col]
                key, eq, value = word.partition("=")
                assert (key in message or value in message) if eq else (
                    message == f"expected key=value, got {word!r}"), (text, str(err))
        assert errors > 1000

    def test_words_may_be_separated_by_any_whitespace(self):
        # U+3000 and the information separator \x1c split words, as a space does
        line = "prepare\u3000q=e\x1cnx=0 ny=0"
        assert parse(line) == parse("prepare q=e nx=0 ny=0")
        with pytest.raises(ParseError) as err:
            parse(line.replace("ny=0", "ny=x"))
        assert str(err.value) == "line 1, col 18: invalid integer 'x'"
        with pytest.raises(ParseError) as err:
            parse(line.replace("nx=0", "nx"))
        assert str(err.value) == "line 1, col 13: expected key=value, got 'nx'"

    def test_totality_on_garbage(self):
        rng = random.Random(99)
        alphabet = "abcxyz=()/#0123456789_. \tpulse"
        for _ in range(200):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 80))
            )
            try:
                parse(text)
            except ParseError:
                pass  # structured diagnostics only, never a crash


class TestSerialize:
    def test_round_trip_of_generated_programs(self):
        rng = random.Random(2024)
        for _ in range(100):
            program = random_program(rng)
            assert parse(serialize(program)) == program

    def test_deterministic(self):
        program = Program(Truncation(12, 12, 4), tuple(build_noon8(1.0, 1.0, 50)))
        assert serialize(program) == serialize(program)

    def test_closed_form_k2_round_trips(self):
        program = parse(
            "set nmax_x=12 nmax_y=12 guard=4\n"
            "prepare q=e nx=0 ny=0\n"
            "pulse axis=x k=2 eta=0.2 omega=1.0 t=auto_vacuum_pi form=closed\n"
            "pulse axis=y k=2 eta=0.3 omega=2.5 t=auto_super_pi(40) form=closed\n"
        )
        assert program.steps[1].spec.k == 2
        assert program.steps[2].spec.form == "closed"
        assert parse(serialize(program)) == program

    def test_empty_step_list_round_trips(self):
        program = Program(Truncation(10, 11, 4), ())
        assert parse(serialize(program)) == program

    def test_canonical_noon8_text(self):
        program = Program(Truncation(12, 12, 4), tuple(build_noon8(1.0, 1.0, 1000)))
        lines = serialize(program).splitlines()
        assert lines[0] == "set nmax_x=12 nmax_y=12 guard=4"
        assert lines[1] == "prepare q=e nx=0 ny=0"
        assert lines[-1] == "measure q=e"
        # the shipped file is canonical text apart from its comment line
        shipped = [line for line in NOON8_PP.read_text().splitlines() if not line.startswith("#")]
        assert lines == shipped


class TestProgramInvariants:
    @pytest.mark.parametrize(
        "args, message",
        [
            (("e", 1.0, 0), "^nx must be an integer, got 1.0$"),
            (("x", 0, 0), "^q must be 'g' or 'e', got 'x'$"),
            (("e", -1, 0), "^nx must be >= 0, got -1$"),
            (("e", True, 0), "^nx must be an integer, got True$"),
        ],
        ids=["float-nx", "bad-qubit", "negative-nx", "bool-nx"],
    )
    def test_prepare_holds_only_what_its_line_can(self, args, message):
        # each of these would serialize to a prepare line that parse rejects
        with pytest.raises(ValueError, match=message):
            Prepare(*args)
        program = Program(Truncation(), (Prepare("g", 3, np.int64(2)),))
        assert parse(serialize(program)) == program

    def test_prepare_must_lead(self):
        with pytest.raises(ValueError, match="^the first step must be a prepare$"):
            Program(Truncation(), (MeasureQubit("e"),))
        with pytest.raises(ValueError, match="^prepare may only appear first$"):
            Program(Truncation(), (Prepare("e", 0, 0), Prepare("g", 0, 0)))
        # each would serialize to a program that parse rejects, or not serialize at all
        with pytest.raises(FieldError, match="^nx must be <= 8, got 9$"):
            Program(Truncation(8, 8, 2), (Prepare("e", 9, 0),))
        with pytest.raises(FieldError, match="^k must be <= the guard band 2, got 4$"):
            Program(Truncation(8, 8, 2), (Prepare("e", 0, 0), *build_noon8(1.0, 1.0)[1:]))
        with pytest.raises(ValueError, match="^unknown step 'measure q=e'$"):
            Program(Truncation(), (Prepare("e", 0, 0), "measure q=e"))
