"""The benchmark's workloads: generated pulse programs and output checks.

Each workload is the canonical N = 8 NOON sequence (the steps of
``demos/noon8.pp``) at one truncation and timing horizon, driven through
``noonsim run`` or ``noonsim scan``.  The seed draws, for each program of
the pool, the couplings g_x and g_y (written as omega = 15000 g, so that
g = omega eta^4 / 24 with eta = 0.2) and the measured outcome.  Neither
changes the cost of an op.  The program sees only the generated text.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

POOL = 32  # distinct programs per run, cycled by the closed loop

SCAN_STEP = 5  # the x superposition pulse
SCAN_T_MIN, SCAN_T_MAX, SCAN_SAMPLES = 0.0, 0.7, 16
SCAN_HEADER = "t,p_e,p_g,leakage"
SPOT_SAMPLES = 3

POSTSELECT = 0.5
POSTSELECT_TOL = 1e-9
INFIDELITY_RTOL = 0.02  # 1 - F moves by ~0.2% with g through rounding alone
PROBABILITY_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" or "scan"
    nmax: int
    horizon: int
    full_steps: tuple[int, ...] = ()  # pulse steps with form=full
    ref_infidelity: float | None = None  # 1 - noon_best_fidelity of the seed code


# Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("noon8_closed", "run", 24, 1000, ref_infidelity=9.752226071135794e-08),
        Workload("noon8_deep_horizon", "run", 12, 1_000_000,
                 ref_infidelity=3.8613556796462944e-13),
        Workload("scan_full", "scan", 12, 1000, full_steps=(SCAN_STEP,)),
    )
}

_TEMPLATE = """\
# N=8 NOON sequence, g_x={g_x!r} g_y={g_y!r}
set nmax_x={nmax} nmax_y={nmax} guard=4
prepare q=e nx=0 ny=0
pulse axis=x k=4 eta=0.2 omega={omega_x!r} t=auto_vacuum_pi form={form1}
rotate theta=3.141592653589793 phi=-1.5707963267948966
pulse axis=y k=4 eta=0.2 omega={omega_y!r} t=auto_vacuum_pi form={form3}
rotate theta=1.5707963267948966 phi=1.5707963267948966
pulse axis=x k=4 eta=0.2 omega={omega_x!r} t=auto_super_pi({horizon}) form={form5}
pulse axis=y k=4 eta=0.2 omega={omega_y!r} t=auto_super_pi({horizon}) form={form6}
rotate theta=1.5707963267948966 phi=-1.5707963267948966
measure q={outcome}
"""


def program_text(w: Workload, g_x: float, g_y: float, outcome: str) -> str:
    forms = {f"form{s}": "full" if s in w.full_steps else "closed" for s in (1, 3, 5, 6)}
    return _TEMPLATE.format(
        g_x=g_x, g_y=g_y, omega_x=15000.0 * g_x, omega_y=15000.0 * g_y,
        nmax=w.nmax, horizon=w.horizon, outcome=outcome, **forms,
    )


def generate(w: Workload, seed: int) -> list[str]:
    """The seed's program pool; the same seed gives byte-identical programs."""
    rng = random.Random(f"{w.name}:{seed}")
    programs = []
    for _ in range(POOL):
        g_x = round(rng.uniform(0.5, 2.0), 6)
        g_y = round(rng.uniform(0.5, 2.0), 6)
        programs.append(program_text(w, g_x, g_y, rng.choice("ge")))
    return programs


def spot_samples(seed: int) -> list[int]:
    """Scan sample indices checked against scipy for this seed."""
    return sorted(random.Random(f"spot:{seed}").sample(range(1, SCAN_SAMPLES), SPOT_SAMPLES))


def cli_args(w: Workload, program: str, out: str) -> list[str]:
    if w.kind == "run":
        return ["run", program, "--out", out]
    return [
        "scan", program, "--step", str(SCAN_STEP),
        "--t-min", repr(SCAN_T_MIN), "--t-max", repr(SCAN_T_MAX),
        "--samples", str(SCAN_SAMPLES), "--out", out,
    ]


def check_run(w: Workload, text: str) -> tuple[str | None, float | None]:
    """(error or None, 1 - noon_best_fidelity) of a ``run`` document."""
    try:
        diag = json.loads(text)["diagnostics"]
        prob = float(diag["postselect_probability"])
        infidelity = 1.0 - float(diag["noon_best_fidelity"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed run document: {exc!r}", None
    if not abs(prob - POSTSELECT) <= POSTSELECT_TOL:
        return f"postselect_probability {prob!r} != {POSTSELECT}", infidelity
    ref = w.ref_infidelity
    if ref is not None and not abs(infidelity - ref) <= INFIDELITY_RTOL * ref:
        return f"1 - noon_best_fidelity {infidelity!r} != reference {ref!r}", infidelity
    return None, infidelity


def check_scan(text: str) -> tuple[str | None, list[tuple[float, ...]]]:
    """(error or None, rows) of a ``scan`` CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return "scan header missing", []
    try:
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    except ValueError as exc:
        return f"malformed scan row: {exc}", []
    if len(rows) != SCAN_SAMPLES or any(len(r) != 4 for r in rows):
        return f"expected {SCAN_SAMPLES} rows of 4 values, got {len(rows)} rows", rows
    dt = (SCAN_T_MAX - SCAN_T_MIN) / (SCAN_SAMPLES - 1)
    for j, (t, p_e, p_g, leak) in enumerate(rows):
        if not all(math.isfinite(v) for v in (t, p_e, p_g, leak)):
            return f"row {j}: non-finite value", rows
        if abs(t - (SCAN_T_MIN + j * dt)) > 1e-12:
            return f"row {j}: t = {t!r} off the requested grid", rows
        if abs(p_e + p_g - 1.0) > PROBABILITY_TOL:
            return f"row {j}: p_e + p_g = {p_e + p_g!r}", rows
        if not -PROBABILITY_TOL <= leak <= 1.0 + PROBABILITY_TOL:
            return f"row {j}: leakage {leak!r} out of range", rows
    return None, rows


def scan_reference(text: str, times: list[float]) -> list[tuple[float, float, float]]:
    """(p_e, p_g, leakage) after the scanned pulse, by ``scipy.linalg.expm``.

    The state before the pulse comes from ``run_sequence`` of the prefix;
    the pulse itself is exponentiated by scipy from ``sideband_hamiltonian``,
    independently of the program's own propagators.
    """
    import numpy as np
    import scipy.linalg
    from noonsim.dynamics import sideband_hamiltonian
    from noonsim.program import parse
    from noonsim.protocol import run_sequence

    prog = parse(text)
    trunc = prog.trunc
    base = run_sequence(list(prog.steps[:SCAN_STEP]), trunc, leakage_limit=math.inf).final_state
    spec = prog.steps[SCAN_STEP].spec
    h = sideband_hamiltonian(spec, trunc)
    g = trunc.guard
    out = []
    for t in times:
        amp = (scipy.linalg.expm(-1j * t * h) @ base.amp.reshape(-1)).reshape(base.amp.shape)
        p = np.abs(amp) ** 2
        band = p[:, -g:, :] if spec.axis == "x" else p[:, :, -g:]
        out.append((float(p[1].sum()), float(p[0].sum()), float(band.sum())))
    return out
