"""Pulse-sequence execution and the canonical N=8 NOON protocol.

The sequence alternates four-phonon sideband pulses on the two modes with
carrier rotations, then post-selects on a qubit measurement.  Two pulse
durations matter:

- the vacuum pulse, exactly t = pi / (2 sqrt(24) g), which moves all
  population |e, 0> -> |g, 4>;
- the superposition pulse, which must simultaneously drive |g,4> -> |e,0>
  (frequency sqrt(24) g) and |e,4> -> |g,8> (frequency sqrt(1680) g).
  The frequency ratio sqrt(70) is irrational, so no duration serves both
  exactly.  Of the candidates t_m = (2m + 3/2) pi / (sqrt(24) g),
  m = 0..M, which are exact for the first transition, we take the one that
  best hits the second.  An exact best-approximation search on the
  rational ratio of the two frequencies finds it in O(log M) integer steps
  with no O(M) array (``solve_duration``).  The residual is reported, not
  hidden.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .fock import QUBIT_INDEX, HybridState, Truncation, basis_state
from .dynamics import (
    PhysicsError,
    PulseSpec,
    RotationSpec,
    apply_pulse,
    apply_rotation,
    closed_form_frequencies,
    rabi_frequencies,
)


@dataclass(frozen=True)
class VacuumPi:
    """Exact pi time from the vacuum, t = pi / (2 w_vac): moves |e,0> to |g,k>."""


@dataclass(frozen=True)
class SuperpositionPi:
    """Best duration within the horizon for the simultaneous |g,k>/|e,k> transfer.

    Chosen among the ``horizon + 1`` candidates t_m = (2m + 3/2) pi / w_vac,
    m = 0..horizon, by an exact search whose cost grows as log(horizon)
    (``solve_duration``).
    """

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


def solve_duration(
    marker: VacuumPi | SuperpositionPi, w_vac: float, w_super: float
) -> tuple[float, float]:
    """Duration of an auto marker from the two Rabi frequencies of its pulse.

    ``w_vac`` drives |e,0> <-> |g,k> and ``w_super`` its partner
    |e,k> <-> |g,2k>.  Returns (t, predicted infidelity of the timing
    choice).  ``VacuumPi`` gives the exact pi / (2 w_vac).
    ``SuperpositionPi(M)`` gives the candidate t_m = (2m + 3/2) pi / w_vac,
    m = 0..M, that maximizes sin^2(w_super t_m), the smallest m among ties;
    each candidate has sin^2(w_vac t_m) = 1, so the infidelity is
    1 - sin^2(w_super t).
    """
    if not (math.isfinite(w_vac) and math.isfinite(w_super)):
        raise ValueError(f"Rabi frequencies must be finite, got {w_vac!r} and {w_super!r}")
    if w_vac <= 0:
        raise ValueError("pulse has zero coupling; cannot solve a duration")
    if isinstance(marker, VacuumPi):
        return math.pi / (2.0 * w_vac), 0.0
    if isinstance(marker, SuperpositionPi):
        m = _best_candidate(w_vac, w_super, marker.horizon)
        t = (2.0 * m + 1.5) * math.pi / w_vac
        s = float(np.sin(w_super * t))
        return t, 1.0 - s * s
    raise ValueError(f"unknown duration marker {marker!r}")


def _best_candidate(w_vac: float, w_super: float, horizon: int) -> int:
    """Smallest m in [0, horizon] that maximizes sin^2(w_super t_m).

    With r = w_super / w_vac, sin^2(w_super t_m) = cos^2(pi D_m), where D_m
    is the distance of 2 r m + (3r - 1)/2 to the nearest integer.  Taking r
    as the exact rational p / q of the two floats makes this integer
    arithmetic: D_m = min(v_m, c - v_m) / c with v_m = (a m + b) mod c,
    c = 2q, a = 4p, b = 3p - q.  The search walks the records, the m where
    D_m drops below every earlier value; the next record is the first m
    after the current one whose v_m lies within the current distance of 0,
    which ``_first_at_most`` finds in O(log c) steps.  It stops at the first
    record beyond the horizon, so no O(horizon) work or memory is needed.
    """
    p_super, q_super = w_super.as_integer_ratio()
    p_vac, q_vac = w_vac.as_integer_ratio()
    p, q = p_super * q_vac, q_super * p_vac
    common = math.gcd(p, q)
    p, q = p // common, q // common
    c = 2 * q
    a, b = 4 * p % c, (3 * p - q) % c
    m, v = 0, b
    dist = min(v, c - v)
    while dist > 0:
        # min(v, c - v) < dist  <=>  (v + dist - 1) mod c <= 2 dist - 2
        step = _first_at_most(a, (a * (m + 1) + b + dist - 1) % c, c, 2 * dist - 2)
        if step is None or m + 1 + step > horizon:
            break
        m += 1 + step
        v = (a * m + b) % c
        dist = min(v, c - v)
    return m


def _first_at_most(a: int, b: int, c: int, w: int) -> int | None:
    """Smallest x >= 0 with (a x + b) mod c <= w, or None if there is none.

    Requires 0 <= a, b, w < c.  Until a x + b first reaches c the value
    only grows from b, so either b <= w or the answer lies past a wrap.  If
    the window is at least a wide, the first wrap lands in it.  Otherwise
    the y-th wrap (y >= 1) lands in it iff a multiple of a lies in
    [c y - b, c y - b + w], which is the same question for (c mod a, a):
    a Euclid step, so the recursion depth is O(log c).
    """
    if b <= w:
        return 0
    if a == 0:
        return None
    if w + 1 >= a:
        return -(-(c - b) // a)
    y = _first_at_most(c % a, (c + w - b) % a, a, w)
    if y is None:
        return None
    return -(-(c * (y + 1) - b) // a)


def vacuum_pulse_time(g: float) -> float:
    """Smallest t > 0 with full |e,0> -> |g,4> transfer: pi / (2 sqrt(24) g)."""
    return solve_duration(VacuumPi(), *closed_form_frequencies(g, 4, [0, 4]).tolist())[0]


def superposition_pulse_time(g: float, horizon: int) -> tuple[float, float]:
    """Best simultaneous transfer within the horizon for a closed-form pulse.

    The pulse must drive |g,4> -> |e,0> (frequency sqrt(24) g) and
    |e,4> -> |g,8> (frequency sqrt(1680) g) at once; the frequency ratio
    sqrt(70) is irrational, so the returned duration is exact for the
    first transition and as close as the horizon allows for the second.
    Returns (t, predicted_infidelity).
    """
    return solve_duration(
        SuperpositionPi(horizon), *closed_form_frequencies(g, 4, [0, 4]).tolist()
    )


def resolve_duration(spec: PulseSpec) -> tuple[PulseSpec, float]:
    """Replace a symbolic duration by its numeric value.

    The two frequencies come from the table the pulse is propagated with,
    ``rabi_frequencies`` at n = 0 and n = k: for the full Hamiltonian they
    carry the exp(-eta^2/2) and Laguerre corrections, whose O(eta^2) shifts
    would otherwise accumulate over the long superposition pulse.  Returns
    (resolved spec, predicted infidelity of the timing choice); the latter
    is 0 for exact durations.
    """
    d = spec.duration
    if isinstance(d, (int, float)):
        return spec, 0.0
    w_vac, w_super = rabi_frequencies(spec, [0, spec.k]).tolist()
    t, infid = solve_duration(d, w_vac, w_super)
    return replace(spec, duration=t), infid


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
