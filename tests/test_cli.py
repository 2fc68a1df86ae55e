import json
import math
from pathlib import Path

import numpy as np
import pytest

from noonsim import cli, dynamics, fock, parse, protocol, run_sequence
from noonsim.fock import HybridState
from noonsim.cli import main, result_document

NOON8_PP = Path(__file__).resolve().parent.parent / "demos" / "noon8.pp"

# a k = 5 pulse under a guard band of 4 levels, and the parse error it gets
GUARD_TOO_SMALL = (
    "set nmax_x=12 nmax_y=12 guard=4\n"
    "prepare q=e nx=0 ny=0\n"
    "pulse axis=x k=5 eta=0.2 omega=1.0 t=1.0 form=closed\n"
)
GUARD_TOO_SMALL_ERROR = {
    "error": "parse",
    "message": "line 3, col 14: k must be <= the guard band 4, got 5",
    "line": 3,
    "col": 14,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """The message of the one JSON usage-error line that argv exits 2 with."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "usage"
    return doc["message"]


def bits(value):
    """``value`` with each float as its hex and each tuple as a list, for a bit-exact comparison."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


class TestRun:
    def test_noon8_outcome_g(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(NOON8_PP), "--outcome", "g")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert doc["diagnostics"]["noon_best_fidelity"] >= 0.999
        assert doc["diagnostics"]["postselect_probability"] == pytest.approx(0.5, abs=1e-3)

    def test_dump_states(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(NOON8_PP), "--dump-states")
        assert code == 0
        doc = json.loads(out)
        assert all("state" in rec for rec in doc["steps"])
        # rows are (qubit, nx, ny, re, im)
        assert len(doc["steps"][0]["state"][0]) == 5

    def test_step_kinds_are_the_program_keywords(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(NOON8_PP))
        assert code == 0
        keywords = [
            line.split()[0] for line in NOON8_PP.read_text().splitlines()
            if line and not line.startswith(("#", "set"))
        ]
        assert [rec["kind"] for rec in json.loads(out)["steps"]] == keywords

    def test_program_without_pulses_is_not_scored(self, capsys, tmp_path):
        prog = tmp_path / "small.pp"
        prog.write_text("set nmax_x=6 nmax_y=6 guard=1\nprepare q=g nx=0 ny=0\n")
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, err) == (0, "")
        assert json.loads(out)["diagnostics"] == {"postselect_probability": 1.0}

    @pytest.mark.parametrize("outcome", ["g", "e"])
    @pytest.mark.parametrize("form", ["closed", "full"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_noon_order_is_twice_the_sideband_order(self, capsys, tmp_path, k, form, outcome):
        # the nine-step sequence with k-phonon pulses at g = 1: omega = k! / eta^k
        omega = math.factorial(k) / 0.2**k
        text = NOON8_PP.read_text().replace("nmax_x=12 nmax_y=12 guard=4",
                                            f"nmax_x={3 * k + 4} nmax_y={3 * k + 4} guard={k}")
        text = text.replace("k=4 eta=0.2 omega=15000.0", f"k={k} eta=0.2 omega={omega!r}")
        prog = tmp_path / "noon2k.pp"
        prog.write_text(text.replace("form=closed", f"form={form}"))
        code, out, err = run_cli(capsys, "run", str(prog), "--outcome", outcome)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        diagnostics = doc["diagnostics"]
        assert diagnostics["noon_n"] == 2.0 * k
        assert diagnostics["postselect_probability"] == pytest.approx(0.5, abs=1e-15)
        # 1 - F is each superposition pulse's predicted infidelity; measured to
        # agree within 3.4e-16 for k = 1..3, which is 1.5 ulp of 1
        for rec in doc["steps"][5:7]:
            assert 1 - diagnostics["noon_best_fidelity"] == pytest.approx(
                rec["timing_infidelity"], rel=0, abs=1e-15)

        # solved durations pasted in as numbers are scored the same
        for rec in doc["steps"]:
            if "duration" in rec:
                text = text.replace("auto_vacuum_pi" if rec["step"] < 5 else "auto_super_pi(1000)",
                                    repr(rec["duration"]), 1)
        prog.write_text(text.replace("form=closed", f"form={form}"))
        code, out, err = run_cli(capsys, "run", str(prog), "--outcome", outcome)
        assert (code, err) == (0, "")
        assert json.loads(out)["diagnostics"] == diagnostics

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "run", str(NOON8_PP), "--outcome", "e")
        _, out2, _ = run_cli(capsys, "run", str(NOON8_PP), "--outcome", "e")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "run", str(NOON8_PP), "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["program"].startswith("set nmax_x=12")

    @pytest.mark.parametrize("flags", [[], ["--outcome", "g", "--dump-states"]],
                             ids=["plain", "outcome-g-dump-states"])
    def test_the_document_is_one_line_of_json(self, capsys, tmp_path, flags):
        code, out, err = run_cli(capsys, "run", str(NOON8_PP), *flags)
        assert (code, err) == (0, "")
        assert out.count("\n") == 1 and out.endswith("\n")
        program = parse(NOON8_PP.read_text())
        result = run_sequence(list(program.steps), program.trunc,
                              outcome_override="g" if flags else None)
        expected = result_document(program, result, dump_states=bool(flags))
        assert bits(json.loads(out)) == bits(expected)
        target = tmp_path / "result.json"
        assert main(["run", str(NOON8_PP), *flags, "--out", str(target)]) == 0
        assert target.read_bytes() == out.encode()

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.pp"
        bad.write_text("prepare q=e nx=0 ny=0\npulse axis=z k=4 eta=0.1 omega=1 t=0 form=closed\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "parse"
        assert doc["line"] == 2

    def test_non_finite_number_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.pp"
        bad.write_text("prepare q=e nx=0 ny=0\nrotate theta=nan phi=0\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        doc = json.loads(err)
        assert (doc["error"], doc["line"], doc["col"]) == ("parse", 2, 8)

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.pp"))
        assert code == 4
        assert json.loads(err)["error"] == "io"

    def test_pulse_beyond_the_guard_band_is_a_parse_error_at_its_k(self, capsys, tmp_path):
        prog = tmp_path / "k5.pp"
        prog.write_text(GUARD_TOO_SMALL)
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out) == (2, "")
        assert json.loads(err) == GUARD_TOO_SMALL_ERROR

    def test_physics_error_exit_code(self, capsys, tmp_path):
        prog = tmp_path / "degenerate.pp"
        prog.write_text("prepare q=g nx=0 ny=0\nmeasure q=e\n")
        code, _, err = run_cli(capsys, "run", str(prog))
        assert code == 3
        assert json.loads(err)["error"] == "physics"

    @pytest.mark.parametrize(
        "nmax, message",
        [
            # 2 x 10^14 complex amplitudes: numpy refuses 2.84 PiB without allocating
            (10**7, "Unable to allocate 2.84 PiB"),
            # shapes numpy rejects outright, before it tries to allocate
            (4 * 10**9, "cannot allocate a state of shape (2, 4000000001, 4000000001): "),
            (10**23 - 1, f"cannot allocate a state of shape (2, {10**23}, {10**23}): "),
        ],
        ids=["unable-to-allocate", "array-too-big", "dimension-beyond-numpy"],
    )
    def test_truncation_beyond_memory_is_one_physics_error_line(self, capsys, tmp_path,
                                                                nmax, message):
        prog = tmp_path / "huge.pp"
        prog.write_text(f"set nmax_x={nmax} nmax_y={nmax} guard=4\n"
                        "prepare q=e nx=0 ny=0\n")
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out, err.count("\n")) == (3, "", 1)
        doc = json.loads(err)
        assert doc["error"] == "physics"
        assert doc["message"].startswith(message)

    def test_overflowing_phase_is_one_physics_error_line(self, capsys, tmp_path):
        prog = tmp_path / "long.pp"
        prog.write_text(NOON8_PP.read_text().replace("t=auto_vacuum_pi", "t=1e308", 1))
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out, err.count("\n")) == (3, "", 1)
        doc = json.loads(err)
        assert doc["error"] == "physics"
        assert doc["message"].startswith("pulse axis=x k=4: phase Omega_n t = inf")

    @pytest.mark.parametrize("t", ["1", "auto_super_pi(10)"])
    def test_overflowing_frequency_table_is_one_physics_error_line(self, capsys, tmp_path, t):
        # g = 0.9e308 is finite, g sqrt(4) at n = 3 is not
        prog = tmp_path / "strong.pp"
        prog.write_text("set nmax_x=12 nmax_y=12 guard=4\nprepare q=e nx=0 ny=0\n"
                        f"pulse axis=x k=1 eta=0.9 omega=1e308 t={t} form=closed\n")
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out, err.count("\n")) == (3, "", 1)
        doc = json.loads(err)
        assert doc["error"] == "physics"
        assert doc["message"].startswith(
            "pulse axis=x k=1: phase Omega_n t = inf is not finite at n = 3"
        )

    @pytest.mark.parametrize("set_line, pulse, message", [
        ("set nmax_x=12 nmax_y=12 guard=4", "k=2 eta=1e200 omega=1 t=1 form=closed",
         "pulse axis=x k=2: phase Omega_n t = inf is not finite at n = 0"),
        ("set nmax_x=12 nmax_y=12 guard=4", "k=2 eta=1e200 omega=1 t=1 form=full",
         "pulse axis=x k=2: phase Omega_n t = nan is not finite at n = 1"),
        ("set nmax_x=180 nmax_y=180 guard=171", "k=171 eta=0.2 omega=1 t=1 form=closed",
         "pulse axis=x k=171: phase Omega_n t = nan is not finite at n = 0"),
    ], ids=["eta-closed", "eta-full", "k171-closed"])
    def test_overflowing_coupling_is_one_physics_error_line(self, capsys, tmp_path,
                                                            set_line, pulse, message):
        # eta^k or k! beyond the float range, where Python's float arithmetic raises
        prog = tmp_path / "overflow.pp"
        prog.write_text(f"{set_line}\nprepare q=e nx=0 ny=0\npulse axis=x {pulse}\n")
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out, err.count("\n")) == (3, "", 1)
        doc = json.loads(err)
        assert doc["error"] == "physics"
        assert doc["message"].startswith(message)

    @pytest.mark.parametrize("pulse, message", [
        # Omega_0 = 0.5e-320 sqrt(2) is a subnormal, and pi / (2 Omega_0) is inf
        ("axis=x k=2 eta=1e-160 omega=1 t=auto_vacuum_pi form=closed",
         "pulse axis=x k=2: pulse duration inf is beyond the float range"),
        ("axis=y k=3 eta=0.2 omega=0 t=auto_super_pi(10) form=full",
         "pulse axis=y k=3: pulse coupling Omega_0 = 0.0 is not positive"),
    ], ids=["inf-duration", "zero-coupling"])
    def test_unsolvable_duration_is_a_physics_error_naming_the_pulse(self, capsys, tmp_path,
                                                                     pulse, message):
        prog = tmp_path / "weak.pp"
        prog.write_text(f"prepare q=e nx=0 ny=0\npulse {pulse}\n")
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert json.loads(err)["message"].startswith(message)

    def test_non_utf8_program_is_a_parse_error_at_the_bad_byte(self, capsys, tmp_path):
        prog = tmp_path / "latin1.pp"
        prog.write_bytes(b"prepare q=e nx=0 ny=0\r\n# caf\xc3\xa9\nrotate theta=pi phi=\xff0\n")
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert (doc["error"], doc["line"], doc["col"]) == ("parse", 3, 21)
        assert "byte 0xff" in doc["message"]

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        prog = tmp_path / "bom.pp"
        prog.write_bytes(b"\xef\xbb\xbf" + NOON8_PP.read_bytes())
        assert run_cli(capsys, "run", str(prog)) == run_cli(capsys, "run", str(NOON8_PP))
        # a bad byte after the mark is reported at its column counted without the mark
        prog.write_bytes(b"\xef\xbb\xbfprepare q=e nx=0 ny=0\xff\n")
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert (doc["error"], doc["line"], doc["col"]) == ("parse", 1, 22)
        assert "byte 0xff" in doc["message"]

    @pytest.mark.parametrize("text, kinds", [
        ("# note\fmeasure q=g\nprepare q=e nx=0 ny=0\n", ["prepare"]),
        ("prepare q=e nx=0 ny=0\nrotate theta=pi/2 phi=0  # then\u2028measure q=g\n",
         ["prepare", "rotate"]),
    ], ids=["form-feed", "line-separator"])
    def test_a_comment_runs_to_the_newline(self, capsys, tmp_path, text, kinds):
        # a form feed or U+2028 ends no line, so the measure after it is comment
        prog = tmp_path / "comment.pp"
        prog.write_bytes(text.encode())
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, err) == (0, "")
        assert [step["kind"] for step in json.loads(out)["steps"]] == kinds

    def test_bad_byte_after_a_next_line_character_is_on_its_line(self, capsys, tmp_path):
        # U+0085 ends no line
        prog = tmp_path / "nel.pp"
        prog.write_bytes(b"prepare q=e nx=0 ny=0\n\xc2\x85\xff")
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert (doc["error"], doc["line"], doc["col"]) == ("parse", 2, 2)
        assert "byte 0xff" in doc["message"]

    def test_value_error_is_not_reported_as_physics(self, monkeypatch):
        # only PhysicsError means physics; any other ValueError is a fault of the program
        def broken(*args, **kwargs):
            raise ValueError("not physics")

        monkeypatch.setattr(cli, "run_sequence", broken)
        with pytest.raises(ValueError, match="not physics"):
            main(["run", str(NOON8_PP)])

    def test_second_set_line_is_a_parse_error(self, capsys, tmp_path):
        prog = tmp_path / "twice.pp"
        first, second = "set nmax_x=12 nmax_y=12 guard=4\n", "set nmax_x=6 nmax_y=6 guard=4\n"
        prog.write_text(NOON8_PP.read_text().replace(first, first + second))
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out, err.count("\n")) == (2, "", 1)
        doc = json.loads(err)
        assert (doc["error"], doc["line"], doc["col"]) == ("parse", 3, 1)
        assert "already set on line 2" in doc["message"]

    @pytest.mark.parametrize("outcome", ["g", "e"])
    def test_outcome_without_a_measure_step_is_a_usage_error(self, capsys, tmp_path, outcome):
        prog = tmp_path / "unmeasured.pp"
        prog.write_text("prepare q=e nx=0 ny=0\nrotate theta=pi/2 phi=0\n")
        message = usage_error(capsys, "run", str(prog), "--outcome", outcome)
        assert message.startswith("argument --outcome:")
        assert "no measure step" in message
        assert main(["run", str(prog)]) == 0

    def test_each_pulse_times_and_runs_on_the_table_built_from_its_own_spec(self, monkeypatch):
        built, timed, applied = [], [], []

        def build(spec, trunc, table=dynamics.rabi_frequencies):
            built.append((spec, table(spec, trunc)))
            return built[-1][1]

        def timing(spec, freq, resolve=protocol.resolve_duration):
            timed.append((spec, freq))
            return resolve(spec, freq)

        def pulse(state, spec, duration, freq=None, apply=protocol.apply_pulse):
            applied.append((spec, freq))
            return apply(state, spec, duration, freq)

        for module in (dynamics, protocol):
            monkeypatch.setattr(module, "rabi_frequencies", build)
        monkeypatch.setattr(protocol, "resolve_duration", timing)
        monkeypatch.setattr(protocol, "apply_pulse", pulse)
        assert main(["run", str(NOON8_PP)]) == 0
        pulses = [s.spec for s in parse(NOON8_PP.read_text()).steps
                  if isinstance(s, protocol.SidebandPulse)]
        assert [spec for spec, _ in built] == pulses
        assert [spec.axis for spec in pulses] == ["x", "y", "x", "y"]
        # each pulse runs the program's own spec object, not a copy that holds its seconds
        for built_one, timed_one, applied_one in zip(built, timed, applied, strict=True):
            assert all(x is y for x, y in zip(built_one, timed_one, strict=True))
            assert all(x is y for x, y in zip(built_one, applied_one, strict=True))

    def test_schema_2_reports_timing_and_measurement_in_the_step_records(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(NOON8_PP))
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert not [key for key in doc["diagnostics"] if key.startswith("step")]
        for rec in doc["steps"][5:7]:
            assert rec["duration"] == 481.91809868332035
            assert rec["timing_infidelity"] == 9.752225993420183e-08
        assert [rec["step"] for rec in doc["steps"] if "duration" in rec] == [1, 3, 5, 6]
        assert [rec["step"] for rec in doc["steps"] if "outcome" in rec] == [8]

    @pytest.mark.parametrize("command", [["run"], ["scan", "--step", "0", "--t-min", "0",
                                                   "--t-max", "1"]])
    def test_program_without_steps_is_a_parse_error(self, capsys, tmp_path, command):
        prog = tmp_path / "empty.pp"
        prog.write_text("set nmax_x=12 nmax_y=12 guard=4\n")
        code, out, err = run_cli(capsys, command[0], str(prog), *command[1:])
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert (doc["error"], doc["line"], doc["col"]) == ("parse", 2, 1)

    def test_fock_index_outside_the_truncation_is_a_parse_error(self, capsys, tmp_path):
        prog = tmp_path / "big.pp"
        prog.write_text("set nmax_x=12 nmax_y=12 guard=4\nprepare q=e nx=99 ny=0\n")
        code, _, err = run_cli(capsys, "run", str(prog))
        assert code == 2
        doc = json.loads(err)
        assert (doc["error"], doc["line"], doc["col"]) == ("parse", 2, 13)


class TestResultDocument:
    def document(self, text):
        program = parse(text)
        return result_document(program, run_sequence(list(program.steps), program.trunc))

    def test_measured_run_is_scored(self):
        diagnostics = self.document(NOON8_PP.read_text())["diagnostics"]
        assert diagnostics["noon_n"] == 8.0
        assert diagnostics["noon_best_fidelity"] >= 0.999

    def test_run_ending_in_a_qubit_superposition_is_not_scored(self):
        doc = self.document("prepare q=g nx=0 ny=0\nrotate theta=pi/2 phi=0\n")
        assert json.dumps(doc["diagnostics"]) == '{"postselect_probability": 1.0}'

    @pytest.mark.parametrize("set_line, pulses", [
        ("set nmax_x=12 nmax_y=12 guard=4", ["x k=1", "y k=2"]),  # orders differ
        ("set nmax_x=12 nmax_y=7 guard=4", ["x k=4"]),  # NOON-8 does not fit y
    ], ids=["mixed-orders", "order-above-truncation"])
    def test_program_without_one_fitting_order_is_not_scored(self, set_line, pulses):
        lines = [set_line, "prepare q=e nx=0 ny=0"]
        lines += [f"pulse axis={p} eta=0.2 omega=1 t=auto_vacuum_pi form=closed" for p in pulses]
        doc = self.document("\n".join(lines) + "\n")
        assert doc["steps"][-1]["p_g"] == 1.0
        assert list(doc["diagnostics"]) == ["postselect_probability"]

    def test_value_error_inside_the_scoring_is_not_swallowed(self, monkeypatch):
        def broken(state, n):
            raise ValueError("scoring bug")

        monkeypatch.setattr(cli, "noon_fidelity", broken)
        with pytest.raises(ValueError, match="scoring bug"):
            self.document(NOON8_PP.read_text())


class TestScan:
    def test_first_pulse_rabi_oscillation(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", str(NOON8_PP),
            "--step", "1", "--t-min", "0", "--t-max", "0.7", "--samples", "100",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,p_e,p_g,leakage"
        assert len(lines) == 101
        g = 15000.0 * 0.2**4 / 24.0
        for line in lines[1:]:
            t, p_e, p_g, leakage = map(float, line.split(","))
            assert p_e == pytest.approx(math.cos(math.sqrt(24) * g * t) ** 2, abs=1e-10)
            assert p_e + p_g == pytest.approx(1.0, abs=1e-12)

    def test_first_zero_matches_vacuum_time(self, capsys):
        from noonsim import vacuum_pulse_time

        t_pi = vacuum_pulse_time(1.0)
        _, out, _ = run_cli(
            capsys, "scan", str(NOON8_PP),
            "--step", "1", "--t-min", "0", "--t-max", "0.7", "--samples", "701",
        )
        rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
        zero_row = min(rows, key=lambda r: r[1])
        assert zero_row[0] == pytest.approx(t_pi, abs=0.7 / 700)

    def test_single_sample(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", str(NOON8_PP),
            "--step", "1", "--t-min", "0.25", "--t-max", "0.9", "--samples", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.25

    def test_non_pulse_step_rejected(self, capsys):
        message = usage_error(capsys, "scan", str(NOON8_PP),
                              "--step", "0", "--t-min", "0", "--t-max", "1")
        assert message.startswith("argument --step:")

    def test_full_form_scan_builds_no_dense_operator(self, capsys, tmp_path, no_dense_operators):
        prog = tmp_path / "full.pp"
        prog.write_text(NOON8_PP.read_text().replace("form=closed", "form=full"))
        code, out, _ = run_cli(
            capsys, "scan", str(prog),
            "--step", "5", "--t-min", "0", "--t-max", "0.7", "--samples", "16",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 17

    BAD_FLAGS = [
        ("--t-min", "-inf", "must be finite, got -inf"),
        ("--t-max", "inf", "must be finite, got inf"),
        ("--t-max", "nan", "must be finite, got nan"),
        ("--t-max", "1e999", "must be finite, got inf"),
        ("--t-max", "abc", "invalid float value: 'abc'"),
        ("--samples", "0", "must be >= 1, got 0"),
        ("--samples", "-3", "must be >= 1, got -3"),
        ("--samples", "2.5", "invalid int value: '2.5'"),
    ]
    BAD_FLAG_IDS = [f"{flag}-{value}" for flag, value, _ in BAD_FLAGS]

    @staticmethod
    def scan_argv(program, flag, value):
        argv = {"--t-min": "0", "--t-max": "0.7", "--samples": "4"}
        argv[flag] = value
        return ["scan", str(program), "--step", "1",
                *[f"{name}={text}" for name, text in argv.items()]]

    @pytest.mark.parametrize("flag, value, detail", BAD_FLAGS, ids=BAD_FLAG_IDS)
    def test_bad_flag_is_a_usage_error_naming_it(self, capsys, flag, value, detail):
        message = usage_error(capsys, *self.scan_argv(NOON8_PP, flag, value))
        assert message == f"argument {flag}: {detail}"

    def test_bad_flag_is_reported_before_the_program_is_read(self, capsys, tmp_path):
        # a usage error (exit 2), not the missing file's I/O error (exit 4)
        message = usage_error(capsys, *self.scan_argv(tmp_path / "nope.pp", "--samples", "0"))
        assert message == "argument --samples: must be >= 1, got 0"

    @pytest.mark.parametrize("t_min", ["-5e-1", "-1E3", "-.5", "-0.5"])
    def test_negative_flag_value_in_the_space_form(self, capsys, t_min):
        # argparse alone reads -5e-1 and -1E3 as unknown options
        code, out, _ = run_cli(capsys, "scan", str(NOON8_PP), "--step", "1",
                               "--t-min", t_min, "--t-max", "0", "--samples", "2")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == ["t", repr(float(t_min)), "0.0"]

    def test_negative_infinity_in_the_space_form_is_checked_as_a_value(self, capsys):
        message = usage_error(capsys, "scan", str(NOON8_PP), "--step", "1",
                              "--t-min", "-inf", "--t-max", "0")
        assert message == "argument --t-min: must be finite, got -inf"

    def test_overflowing_grid_is_a_usage_error_naming_t_max(self, capsys):
        message = usage_error(capsys, "scan", str(NOON8_PP), "--step", "1",
                              "--t-min=-1e308", "--t-max=1e308")
        assert message.startswith("argument --t-max:")

    def test_overflowing_phase_is_one_physics_error_line(self, capsys):
        code, out, err = run_cli(capsys, "scan", str(NOON8_PP), "--step", "1",
                                 "--t-min", "0", "--t-max", "1e308", "--samples", "3")
        assert (code, out, err.count("\n")) == (3, "", 1)
        doc = json.loads(err)
        assert doc["error"] == "physics"
        assert doc["message"].startswith("pulse axis=x k=4: phase Omega_n t = inf")

    def test_pulse_beyond_the_guard_band_is_a_parse_error_at_its_k(self, capsys, tmp_path):
        prog = tmp_path / "k5.pp"
        prog.write_text(GUARD_TOO_SMALL)
        code, out, err = run_cli(capsys, "scan", str(prog), "--step", "1",
                                 "--t-min", "0", "--t-max", "1")
        assert (code, out) == (2, "")
        assert json.loads(err) == GUARD_TOO_SMALL_ERROR

    def test_leaky_prefix_is_the_physics_error_of_run(self, capsys, tmp_path):
        # the x pulse leaves 79% of the state in the x guard band before the scanned y pulse
        prog = tmp_path / "leaky.pp"
        prog.write_text("set nmax_x=8 nmax_y=8 guard=4\nprepare q=e nx=4 ny=0\n"
                        "pulse axis=x k=4 eta=0.2 omega=15000.0 t=0.05 form=closed\n"
                        "pulse axis=y k=4 eta=0.2 omega=15000.0 t=0.05 form=closed\n")
        ran = run_cli(capsys, "run", str(prog))
        scanned = run_cli(capsys, "scan", str(prog), "--step", "2",
                          "--t-min", "0", "--t-max", "0.1", "--samples", "3")
        assert scanned == ran
        assert ran[:2] == (3, "")
        assert json.loads(ran[2]) == {"error": "physics", "message": (
            "guard-band leakage 7.879e-01 at step 1 exceeds 1.000e-06; increase the truncation")}

    def test_step_out_of_range(self, capsys):
        message = usage_error(capsys, "scan", str(NOON8_PP),
                              "--step", "42", "--t-min", "0", "--t-max", "1")
        assert message.startswith("argument --step:")


class TestScanIsBatched:
    """Structural guards: the cost of a scan sample stays out of the per-state path."""

    def count_calls(self, monkeypatch, *argv):
        counts = {"rabi_frequencies": 0, "apply_pulse": 0, "qubit_populations": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(dynamics, "rabi_frequencies",
                      counted("rabi_frequencies", dynamics.rabi_frequencies))
            for module in (dynamics, protocol, cli):
                if hasattr(module, "apply_pulse"):
                    m.setattr(module, "apply_pulse", counted("apply_pulse", module.apply_pulse))
            m.setattr(HybridState, "qubit_populations",
                      counted("qubit_populations", HybridState.qubit_populations))
            assert main(list(argv)) == 0
        return counts

    def test_scan_of_4000_samples_builds_one_frequency_table(self, capsys, monkeypatch):
        counts = self.count_calls(monkeypatch, "scan", str(NOON8_PP), "--step", "1",
                                  "--t-min", "0", "--t-max", "0.7", "--samples", "4000")
        assert counts == {"rabi_frequencies": 1, "apply_pulse": 0, "qubit_populations": 0}
        assert len(capsys.readouterr().out.splitlines()) == 4001

    def test_scan_cost_outside_the_kernel_does_not_grow_with_samples(self, capsys, monkeypatch):
        argv = ["scan", str(NOON8_PP), "--step", "5", "--t-min", "0", "--t-max", "700"]
        one = self.count_calls(monkeypatch, *argv, "--samples", "1")
        many = self.count_calls(monkeypatch, *argv, "--samples", "4000")
        assert many == one
        assert one["apply_pulse"] == 2  # the two pulses of the prefix

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_after_a_run_is_one_json_line(self, capsys):
        assert main(["run", str(NOON8_PP)]) == 0
        capsys.readouterr()
        message = usage_error(capsys, "run", str(NOON8_PP), "--outcome", "x")
        assert message.startswith("argument --outcome:")
        assert main(["run", str(NOON8_PP), "--outcome", "g"]) == 0


class TestRunReducesEachStateOnce:
    """Structural guard: a run squares each state's amplitudes once, in its norm check."""

    def test_noon8_run_reduces_each_of_its_nine_states_once(self, capsys, monkeypatch):
        counts = {"check_normalized": 0, "np.abs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (fock, dynamics):
            monkeypatch.setattr(module, "check_normalized",
                                counted("check_normalized", fock.check_normalized))
        monkeypatch.setattr(np, "abs", counted("np.abs", np.abs))
        assert main(["run", str(NOON8_PP)]) == 0
        assert len(parse(NOON8_PP.read_text()).steps) == 9
        # the populations of every step entry, the measurement and the NOON score
        # are the ones each state's norm check computed
        assert counts == {"check_normalized": 9, "np.abs": 0}
