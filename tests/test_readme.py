"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from noonsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
COMMAND_LINE = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def fenced(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


COMMANDS = [
    shlex.split(line, comments=True)
    for block in fenced(COMMAND_LINE, "sh")
    for line in block.splitlines()
    if line.startswith(("noonsim run ", "noonsim scan "))
]


def test_python_example_runs(capsys):
    (block,) = fenced(README, "python")
    exec(compile(block, "README.md", "exec"), {})
    fidelity, duration, timing_infidelity = capsys.readouterr().out.split()
    assert float(fidelity) >= 0.999
    assert float(duration) == pytest.approx(481.918, abs=1e-3)
    assert float(timing_infidelity) == pytest.approx(9.75e-8, rel=1e-3)


def test_command_line_section_shows_run_and_scan():
    assert sorted({argv[1] for argv in COMMANDS}) == ["run", "scan"]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_exits_cleanly(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an --out file lands here
    args = [str(ROOT / arg) if arg == "demos/noon8.pp" else arg for arg in argv[1:]]
    assert main(args) == 0
