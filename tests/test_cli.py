import json
import math
from pathlib import Path

import pytest

from noonsim.cli import main

NOON8_PP = Path(__file__).resolve().parent.parent / "demos" / "noon8.pp"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_noon8_outcome_g(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(NOON8_PP), "--outcome", "g")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["diagnostics"]["noon_best_fidelity"] >= 0.999
        assert doc["diagnostics"]["postselect_probability"] == pytest.approx(0.5, abs=1e-3)

    def test_dump_states(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(NOON8_PP), "--dump-states")
        assert code == 0
        doc = json.loads(out)
        assert all("state" in rec for rec in doc["steps"])
        # rows are (qubit, nx, ny, re, im)
        assert len(doc["steps"][0]["state"][0]) == 5

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

    def test_physics_error_exit_code(self, capsys, tmp_path):
        prog = tmp_path / "degenerate.pp"
        prog.write_text("prepare q=g nx=0 ny=0\nmeasure q=e\n")
        code, _, err = run_cli(capsys, "run", str(prog))
        assert code == 3
        assert json.loads(err)["error"] == "physics"


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
        code, _, err = run_cli(
            capsys, "scan", str(NOON8_PP),
            "--step", "0", "--t-min", "0", "--t-max", "1",
        )
        assert code == 3
        assert json.loads(err)["error"] == "physics"

    def test_full_form_scan_builds_no_dense_operator(self, capsys, tmp_path, no_dense_operators):
        prog = tmp_path / "full.pp"
        prog.write_text(NOON8_PP.read_text().replace("form=closed", "form=full"))
        code, out, _ = run_cli(
            capsys, "scan", str(prog),
            "--step", "5", "--t-min", "0", "--t-max", "0.7", "--samples", "16",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 17

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--t-min", "-inf"),
            ("--t-max", "inf"),
            ("--t-max", "nan"),
            ("--t-max", "1e999"),
            ("--t-max", "abc"),
            ("--samples", "0"),
            ("--samples", "-3"),
            ("--samples", "2.5"),
        ],
    )
    def test_bad_flag_is_a_usage_error_naming_it(self, capsys, flag, value):
        argv = {"--t-min": "0", "--t-max": "0.7", "--samples": "4"}
        argv[flag] = value
        with pytest.raises(SystemExit) as exc:
            main(["scan", str(NOON8_PP), "--step", "1"]
                 + [f"{name}={text}" for name, text in argv.items()])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "usage"
        assert doc["message"].startswith(f"argument {flag}:")

    def test_step_out_of_range(self, capsys):
        code, _, _ = run_cli(
            capsys, "scan", str(NOON8_PP),
            "--step", "42", "--t-min", "0", "--t-max", "1",
        )
        assert code == 3
