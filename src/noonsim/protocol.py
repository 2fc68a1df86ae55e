"""Pulse-sequence execution and the canonical N=8 NOON protocol.

The sequence alternates four-phonon sideband pulses on the two modes with
carrier rotations, then post-selects on a qubit measurement.  Two pulse
durations matter:

- the vacuum pulse, exactly t = pi / (2 sqrt(24) g), which moves all
  population |e, 0> -> |g, 4>;
- the superposition pulse, which must simultaneously drive |g,4> -> |e,0>
  (frequency sqrt(24) g) and |e,4> -> |g,8> (frequency sqrt(1680) g).
  The frequency ratio sqrt(70) is irrational, so no duration serves both
  exactly; we search the grid t = (2m + 3/2) pi / (sqrt(24) g), which is
  exact for the first transition, and pick the candidate that best hits
  the second.  The residual is reported, not hidden.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .fock import (
    QUBIT_INDEX,
    QUBIT_LABELS,
    HybridState,
    Truncation,
    basis_state,
    fidelity,
    norm,
)
from .dynamics import (
    PhysicsError,
    PulseSpec,
    RotationSpec,
    apply_pulse,
    apply_rotation,
    rabi_frequencies,
)

SQRT24 = math.sqrt(24.0)
SQRT1680 = math.sqrt(1680.0)


@dataclass(frozen=True)
class VacuumPi:
    """Exact four-phonon pi time from the vacuum: t = pi / (2 sqrt(24) g)."""


@dataclass(frozen=True)
class SuperpositionPi:
    """Grid-searched duration for the simultaneous |g,4>/|e,4> transfer."""

    horizon: int = 1000

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("search horizon must be >= 1")


@dataclass(frozen=True)
class Prepare:
    q: str
    nx: int
    ny: int


@dataclass(frozen=True)
class SidebandPulse:
    spec: PulseSpec


@dataclass(frozen=True)
class Rotate:
    spec: RotationSpec


@dataclass(frozen=True)
class MeasureQubit:
    outcome: str

    def __post_init__(self):
        if self.outcome not in QUBIT_INDEX:
            raise ValueError(f"measurement outcome must be 'g' or 'e', got {self.outcome!r}")


Step = Union[Prepare, SidebandPulse, Rotate, MeasureQubit]


@dataclass(frozen=True)
class MeasurementRecord:
    step_index: int
    outcome: str
    probability: float


@dataclass
class RunResult:
    """Per-step snapshots plus measurement and timing diagnostics."""

    snapshots: list[tuple[int, HybridState, float]]
    measurements: list[MeasurementRecord]
    final_state: HybridState
    diagnostics: dict[str, float] = field(default_factory=dict)

    @property
    def postselect_probability(self) -> float:
        p = 1.0
        for m in self.measurements:
            p *= m.probability
        return p


def vacuum_pulse_time(g: float) -> float:
    """Smallest t > 0 with full |e,0> -> |g,4> transfer."""
    if g <= 0:
        raise ValueError("coupling g must be positive")
    return math.pi / (2.0 * SQRT24 * g)


def _grid_search_time(w_vac: float, w_super: float, horizon: int) -> tuple[float, float]:
    """Best simultaneous transfer for two Rabi frequencies.

    Candidates t_m = (2m + 3/2) pi / w_vac, m = 0..horizon, satisfy
    sin^2(w_vac t) = 1 exactly; the returned duration maximizes
    sin^2(w_super t).  Returns (t, 1 - min of the two sin^2 values).
    """
    m = np.arange(horizon + 1)
    t = (2.0 * m + 1.5) * math.pi / w_vac
    obj = np.sin(w_super * t) ** 2
    best = int(np.argmax(obj))
    return float(t[best]), float(1.0 - obj[best])


def superposition_pulse_time(g: float, horizon: int) -> tuple[float, float]:
    """Search the sqrt(24)-resonance grid for the best simultaneous transfer.

    The pulse must drive |g,4> -> |e,0> (frequency sqrt(24) g) and
    |e,4> -> |g,8> (frequency sqrt(1680) g) at once; the frequency ratio
    sqrt(70) is irrational, so the returned duration is exact for the
    first transition and as close as the horizon allows for the second.
    Returns (t, predicted_infidelity).
    """
    if g <= 0:
        raise ValueError("coupling g must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return _grid_search_time(SQRT24 * g, SQRT1680 * g, horizon)


def _pulse_frequencies(spec: PulseSpec) -> tuple[float, float]:
    """Rabi frequencies of the |e,0><->|g,k> and |e,k><->|g,2k> transitions.

    They come from the same frequency table the pulse is propagated with:
    for the closed form sqrt(24) g and sqrt(1680) g; for the full
    Hamiltonian with the exp(-eta^2/2) and Laguerre corrections, since the
    pulse times must be solved from the dynamics actually applied or the
    O(eta^2) frequency shifts accumulate over the long superposition pulse.
    """
    w_vac, w_super = rabi_frequencies(spec, [0, spec.k]).tolist()
    return w_vac, w_super


def resolve_duration(spec: PulseSpec) -> tuple[PulseSpec, float]:
    """Replace a symbolic duration by its numeric value.

    Returns (resolved spec, predicted infidelity of the timing choice);
    the latter is 0 for exact durations.
    """
    d = spec.duration
    if isinstance(d, (int, float)):
        return spec, 0.0
    w_vac, w_super = _pulse_frequencies(spec)
    if w_vac <= 0:
        raise ValueError("pulse has zero coupling; cannot solve a duration")
    if isinstance(d, VacuumPi):
        t, infid = math.pi / (2.0 * w_vac), 0.0
    elif isinstance(d, SuperpositionPi):
        t, infid = _grid_search_time(w_vac, w_super, d.horizon)
    else:
        raise ValueError(f"unknown duration marker {d!r}")
    return PulseSpec(spec.axis, spec.k, spec.eta, spec.omega, t, spec.form), infid


def _measure(state: HybridState, outcome: str) -> tuple[HybridState, float]:
    idx = QUBIT_INDEX[outcome]
    amp = np.zeros_like(state.amp)
    amp[idx] = state.amp[idx]
    prob = float(np.sum(np.abs(amp) ** 2))
    if prob < 1e-15:
        raise PhysicsError(
            f"measurement branch {outcome!r} has probability {prob:.3e} (degenerate)"
        )
    return HybridState(amp / math.sqrt(prob), state.trunc), prob


def run_sequence(
    steps: list[Step],
    trunc: Truncation,
    *,
    outcome_override: str | None = None,
    leakage_limit: float = 1e-6,
) -> RunResult:
    """Execute a pulse program step by step.

    Measurements project onto the requested qubit level (or the override),
    record the branch probability, and renormalize.  A snapshot (state,
    guard-band leakage) is stored after every step.  Leakage above
    ``leakage_limit`` raises; pass ``math.inf`` to disable the check.
    """
    if not steps or not isinstance(steps[0], Prepare):
        raise ValueError("a sequence must start with a Prepare step")
    if any(isinstance(s, Prepare) for s in steps[1:]):
        raise ValueError("Prepare may only appear as the first step")

    state = basis_state(steps[0].q, steps[0].nx, steps[0].ny, trunc)
    snapshots: list[tuple[int, HybridState, float]] = [(0, state, 0.0)]
    measurements: list[MeasurementRecord] = []
    diagnostics: dict[str, float] = {}

    for i, step in enumerate(steps[1:], start=1):
        leakage = 0.0
        if isinstance(step, SidebandPulse):
            spec, timing_infid = resolve_duration(step.spec)
            if not isinstance(step.spec.duration, (int, float)):
                diagnostics[f"step{i}_resolved_duration"] = float(spec.duration)
                diagnostics[f"step{i}_timing_infidelity"] = timing_infid
            state, leakage = apply_pulse(state, spec)
            if leakage > leakage_limit:
                raise PhysicsError(
                    f"guard-band leakage {leakage:.3e} at step {i} exceeds "
                    f"{leakage_limit:.3e}; increase the truncation"
                )
        elif isinstance(step, Rotate):
            state = apply_rotation(state, step.spec)
        elif isinstance(step, MeasureQubit):
            outcome = outcome_override or step.outcome
            p_g, p_e = state.qubit_populations()
            diagnostics[f"step{i}_p_g"] = p_g
            diagnostics[f"step{i}_p_e"] = p_e
            state, prob = _measure(state, outcome)
            measurements.append(MeasurementRecord(i, outcome, prob))
        else:
            raise ValueError(f"unknown step {step!r}")
        snapshots.append((i, state, leakage))

    return RunResult(snapshots, measurements, state, diagnostics)


DEFAULT_ETA = 0.2


def _pulse_for_coupling(axis: str, g: float, duration) -> PulseSpec:
    # closed-form pulses depend on (eta, omega) only through g; fix eta and
    # back out omega so that coupling_g reproduces the requested g
    # (24 / 0.2^4 = 15000 exactly)
    return PulseSpec(axis, 4, DEFAULT_ETA, 15000.0 * g, duration, "closed")


def build_noon8(g_x: float, g_y: float, horizon: int = 1000) -> list[Step]:
    """The canonical N=8 sequence.

    Prepare |e,0,0>; vacuum pi pulse on x; reset rotation g -> e; vacuum
    pi pulse on y; half rotation to (|e>+|g>)/sqrt(2); superposition pulse
    on x then y; analysis rotation; measure.  The shipped measurement
    outcome is 'e'; override at run time for the other branch.
    """
    if g_x <= 0 or g_y <= 0:
        raise ValueError("couplings must be positive")
    half_pi = math.pi / 2.0
    return [
        Prepare("e", 0, 0),
        SidebandPulse(_pulse_for_coupling("x", g_x, VacuumPi())),
        Rotate(RotationSpec(math.pi, -half_pi)),
        SidebandPulse(_pulse_for_coupling("y", g_y, VacuumPi())),
        Rotate(RotationSpec(half_pi, half_pi)),
        SidebandPulse(_pulse_for_coupling("x", g_x, SuperpositionPi(horizon))),
        SidebandPulse(_pulse_for_coupling("y", g_y, SuperpositionPi(horizon))),
        Rotate(RotationSpec(half_pi, -half_pi)),
        MeasureQubit("e"),
    ]


def noon_target(n: int, chi: float, trunc: Truncation) -> np.ndarray:
    """Two-mode NOON state (|n>_x |0>_y + e^{i chi} |0>_x |n>_y) / sqrt(2).

    Returned as a (dim_x, dim_y) amplitude array; the qubit factor is not
    part of the target.
    """
    if n > min(trunc.n_max_x, trunc.n_max_y):
        raise ValueError(f"N = {n} exceeds the truncation")
    amp = np.zeros((trunc.dim_x, trunc.dim_y), dtype=complex)
    amp[n, 0] = 1.0 / math.sqrt(2.0)
    amp[0, n] = cmath.exp(1j * chi) / math.sqrt(2.0)
    return amp


@dataclass(frozen=True)
class NoonFidelity:
    best_fidelity: float
    best_phase: float
    fidelity_chi_0: float
    fidelity_chi_pi: float


def mode_amplitudes(state: HybridState) -> np.ndarray:
    """Mode-part amplitudes of a state with a definite qubit level."""
    p_g, p_e = state.qubit_populations()
    total = p_g + p_e
    if min(p_g, p_e) > 1e-9 * total:
        raise ValueError(
            "state has support on both qubit levels; measure or project first"
        )
    idx = QUBIT_INDEX["g"] if p_g >= p_e else QUBIT_INDEX["e"]
    return state.amp[idx] / math.sqrt(total)


def noon_fidelity(state: HybridState, n: int) -> NoonFidelity:
    """Overlap of a definite-qubit-level state with the NOON(n, chi) family.

    The overlap with NOON(n, chi) is (a_n0 + e^{-i chi} a_0n) / sqrt(2), so
    the best phase is chi* = arg(a_0n) - arg(a_n0) and the maximum is
    (|a_n0| + |a_0n|)^2 / 2; no numeric scan is needed.
    """
    modes = mode_amplitudes(state)
    a_n0 = complex(modes[n, 0])
    a_0n = complex(modes[0, n])
    best = (abs(a_n0) + abs(a_0n)) ** 2 / 2.0
    if abs(a_n0) > 0 and abs(a_0n) > 0:
        chi_star = cmath.phase(a_0n / a_n0)  # wrapped to (-pi, pi]
    else:
        chi_star = 0.0
    f0 = abs(a_n0 + a_0n) ** 2 / 2.0
    fpi = abs(a_n0 - a_0n) ** 2 / 2.0
    return NoonFidelity(best, chi_star, f0, fpi)
