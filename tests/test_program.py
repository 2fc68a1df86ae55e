import math
import random
from pathlib import Path

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

    def test_unknown_key(self):
        with pytest.raises(ParseError) as err:
            parse("prepare q=e nx=0 ny=0 color=red\n")
        assert "color" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse("prepare q=e q=g nx=0 ny=0\n")

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse("prepare q=e nx=0\n")

    def test_config_after_step(self):
        with pytest.raises(ParseError):
            parse("prepare q=e nx=0 ny=0\nset nmax_x=12 nmax_y=12 guard=4\n")

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
        line = line.format(text)
        with pytest.raises(ParseError) as err:
            parse("prepare q=e nx=0 ny=0\n" + line + "\n")
        assert err.value.line == 2
        assert err.value.col == line.index(f" {key}=") + 2
        assert "non-finite" in str(err.value)

    @pytest.mark.parametrize(
        "lineno, key, bad",
        [
            (1, "nmax_x", "a"),
            (1, "nmax_y", "1.5"),
            (1, "guard", "four"),
            (2, "q", "x"),
            (2, "nx", "zero"),
            (2, "ny", "-"),
            (3, "axis", "z"),
            (3, "k", "two"),
            (3, "eta", "small"),
            (3, "omega", "1e999"),
            (3, "t", "auto_super_pi(0)"),
            (3, "form", "f"),
            (4, "theta", "tau"),
            (4, "theta", "pi/0"),
            (4, "phi", "nan"),
            (4, "phi", "-pi/0.0"),
            (5, "q", "x"),
        ],
    )
    def test_bad_value_names_its_key_line_and_column(self, lineno, key, bad):
        lines = VALID.splitlines()
        before, _, after = lines[lineno - 1].partition(f" {key}=")
        lines[lineno - 1] = f"{before} {key}={bad} {after.partition(' ')[2]}".rstrip()
        with pytest.raises(ParseError) as err:
            parse("\n".join(lines) + "\n")
        assert (err.value.line, err.value.col) == (lineno, len(before) + 2)
        assert repr(bad) in str(err.value) or "horizon" in str(err.value)

    def test_first_step_that_is_not_a_prepare_names_its_line(self):
        with pytest.raises(ParseError) as err:
            parse("rotate theta=1 phi=1\nmeasure q=e\n\n# end\n")
        assert (err.value.line, err.value.col) == (1, 1)
        assert "prepare" in str(err.value)

    @pytest.mark.parametrize(
        "line, col",
        [
            ("prepare q=e nx=99 ny=0", 13),
            ("prepare q=e nx=-1 ny=0", 13),
            ("prepare q=e nx=0 ny=13", 18),
            ("  prepare q=g ny=-2 nx=12", 15),
        ],
    )
    def test_fock_index_outside_the_truncation_names_its_key(self, line, col):
        with pytest.raises(ParseError) as err:
            parse("set nmax_x=12 nmax_y=12 guard=4\n# comment\n" + line + "\n")
        assert (err.value.line, err.value.col) == (3, col)
        assert "outside the truncation" in str(err.value)

    def test_fock_index_at_the_truncation_edge_parses(self):
        program = parse("set nmax_x=12 nmax_y=14 guard=4\nprepare q=e nx=12 ny=14\n")
        assert program.steps == (Prepare("e", 12, 14),)

    def test_bad_truncation_names_its_set_line(self):
        text = VALID.replace("guard=4", "guard=99")
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, 1)
        assert "guard" in str(err.value)

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
    def test_prepare_must_lead(self):
        with pytest.raises(ValueError):
            Program(Truncation(), (MeasureQubit("e"),))
        with pytest.raises(ValueError):
            Program(Truncation(), (Prepare("e", 0, 0), Prepare("g", 0, 0)))
