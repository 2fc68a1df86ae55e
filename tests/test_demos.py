"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import noonsim

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def run_demo(demo, cwd):
    # the demos import the package under test and may write files into their cwd
    src = str(Path(noonsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_rabi_scan_csv_holds_plain_numbers(tmp_path):
    demo = next(d for d in DEMOS if d.name == "rabi_scan.py")
    assert run_demo(demo, tmp_path).returncode == 0
    header, *rows = (tmp_path / "rabi_scan.csv").read_text().splitlines()
    assert header == "t,p_e,p_g,leakage"
    assert len(rows) == 400
    for row in rows:
        assert all(repr(float(field)) == field for field in row.split(","))
