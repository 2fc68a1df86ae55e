"""The benchmark's own tests.

    python3 -m pytest -q bench/checks.py

Kept out of the repository's test run (the file name does not match
``test_*.py``); they take about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import common
import run
import worker
import workloads
from spans import Tracer

common.use_program_source()
import noonsim.cli  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS.values())
DEEP = workloads.WORKLOADS["noon8_deep_horizon"]
SCAN = workloads.WORKLOADS["scan_full"]


def _op_output(w, tmp_path) -> str:
    prog = tmp_path / "p.pp"
    prog.write_text(workloads.generate(w, 3)[0], encoding="utf-8")
    out = tmp_path / "out"
    assert noonsim.cli.main(workloads.cli_args(w, str(prog), str(out))) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("w", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_generates_identical_programs(w):
    first = [text.encode() for text in workloads.generate(w, 7)]
    assert first == [text.encode() for text in workloads.generate(w, 7)]
    assert first != [text.encode() for text in workloads.generate(w, 8)]
    assert len(set(first)) > 1


def test_tampered_fidelity_fails_the_run_check(tmp_path):
    text = _op_output(DEEP, tmp_path)
    assert workloads.check_run(DEEP, text)[0] is None
    doc = json.loads(text)
    doc["diagnostics"]["noon_best_fidelity"] -= 1e-9
    assert workloads.check_run(DEEP, json.dumps(doc))[0] is not None
    doc = json.loads(text)
    doc["diagnostics"]["postselect_probability"] = 0.49
    assert workloads.check_run(DEEP, json.dumps(doc))[0] is not None


def test_dropped_scan_row_fails_the_scan_check(tmp_path):
    text = _op_output(SCAN, tmp_path)
    assert workloads.check_scan(text)[0] is None
    lines = text.splitlines()
    assert workloads.check_scan("\n".join(lines[:7] + lines[8:]) + "\n")[0] is not None


def test_scan_rows_match_scipy_reference(tmp_path):
    text = _op_output(SCAN, tmp_path)
    _, rows = workloads.check_scan(text)
    program = workloads.generate(SCAN, 3)[0]
    ref = workloads.scan_reference(program, [rows[j][0] for j in (3, 9)])
    for j, expected in zip((3, 9), ref):
        assert rows[j][1:] == pytest.approx(expected, abs=workloads.PROBABILITY_TOL)


def test_tampered_outputs_count_as_failures_and_the_loop_goes_on(tmp_path, monkeypatch):
    real_main = noonsim.cli.main
    calls = []

    def tampering_main(argv):
        code = real_main(argv)
        calls.append(argv)
        if len(calls) % 2 == 0:  # every second op loses its fidelity
            out = argv[argv.index("--out") + 1]
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            del doc["diagnostics"]["noon_best_fidelity"]
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return code

    monkeypatch.setattr(noonsim.cli, "main", tampering_main)
    record = worker.run(DEEP, 1, 0, 0.3, False, tmp_path)
    assert record["attempted"] == len(calls) >= 3
    assert record["failed"] == len(calls) // 2
    assert run.end_to_end(run.merge([record]))["success_rate"] < 1.0


@pytest.mark.parametrize("w", WORKLOADS, ids=lambda w: w.name)
def test_traced_run_reports_every_per_layer_metric(w, tmp_path):
    record = worker.run(w, 1, 0, 0.0, True, tmp_path)
    assert record["failed"] == 0 and record["traced_op_ms"]
    layers = run.per_layer(record)
    assert set(layers) == {m["name"] for m in common.benchmark_spec()["per_layer"]}
    assert 0.9 < layers["trace.coverage"] <= 1.0
    assert noonsim.cli.parse is noonsim.program.parse  # tracer uninstalled
    expected_eigh = workloads.SCAN_SAMPLES if w.kind == "scan" else 0
    assert layers["dynamics.eigh_calls"] == expected_eigh


def test_coverage_drops_when_a_layer_escapes_the_tracer(tmp_path, monkeypatch):
    import spans

    w = workloads.WORKLOADS["noon8_closed"]
    monkeypatch.setattr(spans, "TRACED", tuple(t for t in spans.TRACED if t[0] != "dynamics"))
    layers = run.per_layer(worker.run(w, 1, 0, 0.0, True, tmp_path))
    assert layers["trace.coverage"] < 0.5


def test_sweep_skips_sizes_predicted_not_to_fit():
    import sweep

    closed_48 = {"nmax": 48, "dim": 2 * 49**2, "peak_rss_mb": 470.0, "op_ms": 1700.0}
    reasons = sweep.skip_reasons(96, "closed", closed_48)
    assert any("peak RSS" in r for r in reasons)
    full_24 = {"nmax": 24, "dim": 2 * 25**2, "peak_rss_mb": 80.0, "op_ms": 7300.0}
    assert any("per op" in r for r in sweep.skip_reasons(48, "full", full_24))
    assert sweep.skip_reasons(24, "closed", None) == []


def test_tracer_restores_every_function():
    import numpy as np

    before = (noonsim.cli.main, noonsim.protocol.resolve_duration, np.linalg.eigh,
              noonsim.fock.HybridState.qubit_populations)
    tracer = Tracer()
    tracer.install()
    try:
        assert noonsim.cli.main is not before[0]
    finally:
        tracer.uninstall()
    after = (noonsim.cli.main, noonsim.protocol.resolve_duration, np.linalg.eigh,
             noonsim.fock.HybridState.qubit_populations)
    assert after == before


def test_interquartile_mean_drops_the_outer_quarters():
    assert common.interquartile_mean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 100.0]) == 5.5
    assert common.interquartile_mean([7.0]) == 7.0


def test_tail_has_ten_values_beyond():
    assert common.tail([float(x) for x in range(1, 51)], max_percentile=100) == (40.0, 80, 10)
    assert common.tail([float(x) for x in range(1, 201)], max_percentile=100) == (190.0, 95, 10)
    assert common.tail([float(x) for x in range(1, 201)]) == (150.0, 75, 50)
    assert common.tail([1.0, 2.0, 3.0, 4.0]) == (2.5, 50, 2)


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "noon8_closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
