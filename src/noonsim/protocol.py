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
  best hits the second, found by the exact search of ``solve_duration``.
  The residual is reported, not hidden.

The two markers, ``VacuumPi`` and ``SuperpositionPi``, live with
``PulseSpec`` in ``dynamics``; this module solves them.

One rule says which sequences are well formed, ``_check_step``: each
step is one of the four ``Step`` types, a ``Prepare`` stands first and
nowhere else, and each step fits the truncation.  ``run_sequence`` and
``program.Program`` check each step by it, and ``program.parse`` through
the ``Program`` it builds.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fock import QUBIT_INDEX, QUBIT_LABELS, HybridState, Truncation, basis_state
from .fock import FieldError, _level_index, _require_choice, _require_finite, _require_int
from .dynamics import (
    PhysicsError,
    PulseSpec,
    RotationSpec,
    SuperpositionPi,
    VacuumPi,
    _AutoDuration,
    _driven_dim,
    apply_pulse,
    apply_rotation,
    closed_form_frequencies,
    rabi_frequencies,
)

# records evaluated in floating point at the end of each run of the duration search
_RUN_TAIL = 16


@dataclass(frozen=True)
class Prepare:
    q: str
    nx: int
    ny: int

    def __post_init__(self):
        _require_choice(QUBIT_LABELS, q=self.q)
        _require_int(0, nx=self.nx, ny=self.ny)


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
        _require_choice(QUBIT_LABELS, outcome=self.outcome)


Step = Union[Prepare, SidebandPulse, Rotate, MeasureQubit]


def _check_step(index: int, step, trunc: Truncation) -> None:
    """ValueError unless ``step`` is a ``Step`` that may stand at ``index`` and fits ``trunc``.

    A ``Prepare`` stands at index 0 and nowhere else.  The fit is checked
    where its rules live, ``fock._level_index`` for a prepared level and
    ``dynamics._driven_dim`` for a pulse's k, and their ``FieldError``
    names the field.
    """
    if not isinstance(step, Step.__args__):  # isinstance of the Union itself costs 4x more
        raise ValueError(f"unknown step {step!r}")
    if isinstance(step, Prepare) != (index == 0):
        raise ValueError("prepare may only appear first" if index
                         else "the first step must be a prepare")
    if isinstance(step, Prepare):
        _level_index(step.q, step.nx, step.ny, trunc)
    elif isinstance(step, SidebandPulse):
        _driven_dim(step.spec.k, step.spec.axis, trunc)


@dataclass(frozen=True)
class StepRecord:
    """What one step of a run reports; a field that does not apply is None.

    ``state`` follows the step; ``leakage`` is what a pulse left in the guard
    band.  An auto-timed pulse adds its solved ``duration`` and predicted
    ``timing_infidelity``, a measurement its ``outcome`` and ``probability``;
    a pulse given in seconds adds neither.  Records compare by value.
    """

    index: int
    state: HybridState
    leakage: float
    duration: float | None = None
    timing_infidelity: float | None = None
    outcome: str | None = None
    probability: float | None = None


@dataclass(frozen=True)
class RunResult:
    """The records of a run, one per step in program order."""

    steps: tuple[StepRecord, ...]

    @property
    def final_state(self) -> HybridState:
        if not self.steps:
            raise ValueError("the run has no steps, so it has no final state")
        return self.steps[-1].state

    @property
    def measurements(self) -> list[StepRecord]:
        return [rec for rec in self.steps if rec.outcome is not None]

    @property
    def postselect_probability(self) -> float:
        return math.prod((m.probability for m in self.measurements), start=1.0)


def solve_duration(
    marker: VacuumPi | SuperpositionPi, w_vac: float, w_super: float
) -> tuple[float, float]:
    """Duration of an auto marker from the two Rabi frequencies of its pulse.

    ``w_vac`` drives |e,0> <-> |g,k> and ``w_super`` its partner
    |e,k> <-> |g,2k>.  Returns (t, predicted infidelity of the timing
    choice).  ``VacuumPi`` gives the exact pi / (2 w_vac).
    ``SuperpositionPi(M)`` gives a candidate t_m = (2m + 3/2) pi / w_vac,
    m = 0..M; each has sin^2(w_vac t_m) = 1, so its infidelity is
    1 - sin^2(w_super t_m).  A candidate beyond the float range is skipped,
    and if t_0 is, the duration is a ``PhysicsError``.

    Float rule: of the records within the horizon (``_runs``), the last 16
    (``_RUN_TAIL``) of each run, or all of a shorter run, get a float
    evaluation, and the one with the lowest infidelity wins, the smallest m
    among ties.  In exact arithmetic each record of a run is nearer than the
    one before it, so the last record of all, which is always evaluated, is
    the exact best candidate; where the floats keep the exact order, as for
    the sqrt(70) of NOON-8 below a horizon of 1e7 to 1e10, depending on the
    coupling, that is the result.  Beyond it the rounding of t (about
    ulp(t) w_super in phase) can outweigh what a later record gains, and an
    earlier record that rounds better is kept.  Where no run within the
    horizon is longer than 16, every record is evaluated, and a larger
    horizon never gives a worse pulse.  A longer run, as near a rational
    ratio with a small denominator, whose records can tie to 1e-11, has its
    earlier records skipped.
    """
    if not (math.isfinite(w_vac) and math.isfinite(w_super)):
        raise PhysicsError(f"Rabi frequencies must be finite, got {w_vac!r} and {w_super!r}")
    if w_vac <= 0:
        raise PhysicsError(f"pulse coupling Omega_0 = {w_vac!r} is not positive; "
                           "cannot solve a duration")
    if isinstance(marker, VacuumPi):
        t, infid = math.pi / (2.0 * w_vac), 0.0
    else:
        runs, descents = _runs(w_vac, w_super, marker.horizon)
        ms = [first + j * step for first, step, count in runs
              for j in range(max(0, count - _RUN_TAIL), count)]
        ts = [(2.0 * m + 1.5) * math.pi / w_vac for m in ms]
        # t_m beyond the float range scores nan, which never wins after the first record
        with np.errstate(invalid="ignore"):
            s = np.sin([w_super * t for t in ts])
        infids = (1.0 - s * s).tolist()
        best = min(range(len(ms)), key=infids.__getitem__)  # the first of ties
        m, t, infid = ms[best], ts[best], infids[best]
        _debug(
            "superposition pulse, horizon %d: %d runs, %d descents, m = %d, infidelity %.3e",
            marker.horizon, len(runs), descents, m, infid,
        )
    if not math.isfinite(t):
        raise PhysicsError(f"pulse duration {t!r} is beyond the float range "
                           f"at Omega_0 = {w_vac!r}")
    return t, infid


def _debug(msg: str, *args) -> None:
    """Log at DEBUG on the ``noonsim.protocol`` logger, without importing ``logging``.

    The import costs a process about 7 ms and 0.3 MB; a program that has not
    imported ``logging`` cannot have enabled the logger either.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(msg, *args)


def _runs(
    w_vac: float, w_super: float, horizon: int
) -> tuple[list[tuple[int, int, int]], int]:
    """The records up to the horizon as runs (first, step, count), and the descents made.

    With r = w_super / w_vac, sin^2(w_super t_m) = cos^2(pi D_m), where D_m
    is the distance of 2 r m + (3r - 1)/2 to the nearest integer.  Taking r
    as the exact rational p / q of the two floats makes this integer
    arithmetic: D_m = |s_m| / c with the signed distance s_m = v_m if
    2 v_m <= c, else v_m - c, where v_m = (a m + b) mod c, c = 2q, a = 4p,
    b = 3p - q.  A record is an m where |s_m| drops below every earlier
    value, so m = 0 is the first.

    From a record r0 the next one, r1 = r0 + d, is the first m after it
    with |s_m| < |s_r0|: d is the first step whose a d mod c lies in
    [1, 2|s_r0| - 1] if s_r0 < 0, or in [c - 2|s_r0| + 1, c - 1] if
    s_r0 > 0.  That is a descent, and ``_nearer_steps`` answers it from one
    table for the whole walk.  Each step of d adds the same a d mod c to v,
    so if s_r0 and s_r1 have the same sign it lowers |s| by the same
    delta = |s_r0| - |s_r1|.  No m strictly between r1 and r1 + d is a
    record either: m - d lies between r0 and r1, so it is no nearer than r0,
    and the step brings it at most delta nearer.  By the same argument one
    step on, the records run on at r1 + d, r1 + 2d, ... as long as |s|
    keeps dropping, J = floor((2 |s_r1| + delta - 1) / (2 delta)) more of
    them, of which only the last can cross to the other sign.  The run
    (r1, d, 1 + J) costs one descent and one division, cut at the horizon,
    and the walk descends again from its last member.  If the signs differ
    the run is r1 alone.  The walk stops at an exact hit (s = 0), or when
    the next record is beyond the horizon or does not exist.

    The number of runs is counted in tests, not proven: over random, golden,
    integer and near-rational ratios each run starts at least as far out as
    the sum of the last members of the two runs before it, so the runs grow
    like the Fibonacci numbers and at most log_phi(M) + 2 of them, phi the
    golden ratio, start within a horizon M.  The table costs one Euclid
    division per block, and a descent only moves forward through it, since
    |s_r0| falls from one descent to the next.
    """
    p_super, q_super = w_super.as_integer_ratio()
    p_vac, q_vac = w_vac.as_integer_ratio()
    p, q = p_super * q_vac, q_super * p_vac
    common = math.gcd(p, q)
    p, q = p // common, q // common
    c = 2 * q
    a, b = 4 * p % c, (3 * p - q) % c
    sides, at = _nearer_steps(a, c, horizon), [0, 0]
    m, s = 0, (b if 2 * b <= c else b - c)
    runs, descents = [(0, 1, 1)], 0
    while s:
        dist = abs(s)
        w = 2 * dist - 1
        descents += 1
        # s > 0 needs a step from above, s < 0 one from below
        blocks, i = sides[s > 0], at[s > 0]
        while i < len(blocks) and blocks[i][4] > w:
            i += 1
        at[s > 0] = i
        if i == len(blocks):
            break
        x0, dx, r0, dr, _ = blocks[i]
        step = x0 + max(0, -(-(r0 - w) // dr)) * dx
        if m + step > horizon:
            break
        m += step
        v = (a * m + b) % c
        s_next = v if 2 * v <= c else v - c
        more = 0
        if (s_next > 0) == (s > 0):
            delta = dist - abs(s_next)
            more = (2 * abs(s_next) + delta - 1) // (2 * delta)
            room = (horizon - m) // step
            if more > room:
                runs.append((m, step, 1 + room))
                break
        runs.append((m, step, 1 + more))
        m += more * step
        s = s_next + more * (s_next - s)
    return runs, descents


def _nearer_steps(a: int, c: int, horizon: int) -> tuple[list, list]:
    """The steps x >= 1 that bring a x mod c nearer to 0 than every shorter step does.

    Returns (below, above), one list per side, each in increasing x, of
    blocks (x0, dx, r0, dr, r_last): the steps x0 + j dx, j = 0, 1, ..., have
    a x = r0 - j dr (below) or a x = -(r0 - j dr) (above) mod c, down to
    r_last, all above 0.  Requires 0 <= a < c.

    The points (x, r) with r = a x (mod c) form a lattice.  A lower point
    (x_lo, r_lo) and an upper point (x_hi, -r_hi), r_lo and r_hi > 0, start
    as its basis (0, c), (1, a - c), the first step above (x = 1 is the
    first on both sides), and stay a basis when the one with the
    larger |r| is replaced by their sum (x_lo + x_hi, r_lo - r_hi): the
    subtractive Euclid algorithm.  A point with 0 < x < x_lo + x_hi is
    u (x_lo, r_lo) + v (x_hi, -r_hi) with u or v <= 0, so its r is not inside
    (-r_hi, r_lo): a x mod c lies in [r_lo, c - r_hi].  So the sum is the
    first step to come nearer than both points, on the side of its sign,
    and the sums, taken a Euclid quotient at a time, are every nearer step.
    The table ends at an exact return (r = 0), after which the residues
    repeat, or at the first block beyond the horizon.
    """
    below, above = [], []
    if a == 0:
        return below, above
    above.append((1, 1, c - a, 1, c - a))
    x_lo, r_lo, x_hi, r_hi = 0, c, 1, c - a
    while x_lo + x_hi <= horizon:
        if r_lo > r_hi:
            q, rem = divmod(r_lo, r_hi)
            n = q if rem else q - 1
            if n:
                below.append((x_lo + x_hi, x_hi, r_lo - r_hi, r_hi, r_lo - n * r_hi))
            x_lo, r_lo = x_lo + q * x_hi, rem
        else:
            q, rem = divmod(r_hi, r_lo)
            n = q if rem else q - 1
            if n:
                above.append((x_hi + x_lo, x_lo, r_hi - r_lo, r_lo, r_hi - n * r_lo))
            x_hi, r_hi = x_hi + q * x_lo, rem
        if not rem:
            break
    return below, above


def vacuum_pulse_time(g: float) -> float:
    """Smallest t > 0 with full |e,0> -> |g,4> transfer: pi / (2 sqrt(24) g).

    Solved for the coupling g exactly.  ``build_noon8(g, ...)`` drives
    omega = 15000 g, whose coupling is only within a few ulps of g, so its
    run may solve a duration that differs in the last bits.  A g that is
    not a finite real number is a ``FieldError``; g <= 0 is the solver's
    ``PhysicsError``.
    """
    _require_finite(g=g)
    return solve_duration(VacuumPi(), *closed_form_frequencies(g, 4, [0, 4]).tolist())[0]


def superposition_pulse_time(g: float, horizon: int) -> tuple[float, float]:
    """Best simultaneous transfer within the horizon for a closed-form pulse.

    The pulse must drive |g,4> -> |e,0> (frequency sqrt(24) g) and
    |e,4> -> |g,8> (frequency sqrt(1680) g) at once; the frequency ratio
    sqrt(70) is irrational, so the returned duration is exact for the
    first transition and as close as the horizon allows for the second.
    Returns (t, predicted_infidelity), solved for the coupling g exactly:
    the run of ``build_noon8(g, g, horizon)``, whose coupling is within a
    few ulps of g, may differ in the last bits (at g = 1 this gives
    t = 481.91809868332047, the run 481.91809868332035).  ``g`` is checked
    as in ``vacuum_pulse_time``.
    """
    _require_finite(g=g)
    return solve_duration(
        SuperpositionPi(horizon), *closed_form_frequencies(g, 4, [0, 4]).tolist()
    )


def resolve_duration(spec: PulseSpec, freq: np.ndarray) -> tuple[float, float | None]:
    """A pulse's duration in seconds: (seconds, predicted timing infidelity).

    A given duration is returned as it is, the same object, with
    infidelity None; an auto marker is solved, with infidelity 0 for
    ``VacuumPi``.  ``freq`` is the table the pulse is propagated with,
    ``rabi_frequencies(spec, trunc)``, and the two frequencies are its
    Omega_0 and Omega_k: for the full Hamiltonian they carry the
    exp(-eta^2/2) and Laguerre corrections, whose O(eta^2) shifts would
    otherwise accumulate over the long superposition pulse.  A solver
    ``PhysicsError`` names the pulse.
    """
    d = spec.duration
    if not isinstance(d, _AutoDuration):
        return d, None
    try:
        return solve_duration(d, float(freq[0]), float(freq[spec.k]))
    except PhysicsError as exc:
        raise PhysicsError(f"pulse axis={spec.axis} k={spec.k}: {exc}") from None


def _measure(state: HybridState, outcome: str) -> tuple[HybridState, float]:
    """Project onto one qubit level; the branch probability is that level's population."""
    idx = QUBIT_INDEX[outcome]
    prob = state.qubit_populations()[idx]
    if prob < 1e-15:
        raise PhysicsError(
            f"measurement branch {outcome!r} has probability {prob:.3e} (degenerate)"
        )
    amp = np.zeros_like(state.amp)
    amp[idx] = state.amp[idx] / math.sqrt(prob)
    return HybridState(amp, state.trunc), prob


def run_sequence(
    steps: list[Step],
    trunc: Truncation,
    *,
    outcome_override: str | None = None,
    leakage_limit: float = 1e-6,
) -> RunResult:
    """Execute a pulse program step by step, one ``StepRecord`` per step.

    Each pulse builds its own table of Rabi frequencies,
    ``rabi_frequencies``, and takes both its duration and its propagation
    from that one table: ``resolve_duration`` gives the seconds, and
    ``apply_pulse(state, step.spec, seconds, table)`` runs the program's
    own spec for them, so no spec is rebuilt.  Measurements project onto
    the requested qubit level (or the override), record the branch
    probability, and renormalize; ``outcome_override``, if given, is 'g'
    or 'e'.  Every record keeps its state.  Leakage above
    ``leakage_limit`` raises; pass ``math.inf`` to disable the check.  Any
    other limit that is not a finite real number >= 0 is a ``FieldError``.

    Every step is checked by ``_check_step`` before the first state is
    built, so a step that is unknown, out of place or does not fit raises
    before any step runs.  An empty sequence runs to no records.
    """
    if outcome_override is not None:
        _require_choice(QUBIT_LABELS, outcome_override=outcome_override)
    if leakage_limit != math.inf:
        _require_finite(0, leakage_limit=leakage_limit)
    for i, step in enumerate(steps):
        _check_step(i, step, trunc)

    records = []
    for i, step in enumerate(steps):
        if isinstance(step, Prepare):
            state = basis_state(step.q, step.nx, step.ny, trunc)
            rec = StepRecord(i, state, 0.0)
        elif isinstance(step, SidebandPulse):
            freq = rabi_frequencies(step.spec, trunc)
            t, timing_infid = resolve_duration(step.spec, freq)
            state, leakage = apply_pulse(state, step.spec, t, freq)
            if leakage > leakage_limit:
                raise PhysicsError(
                    f"guard-band leakage {leakage:.3e} at step {i} exceeds "
                    f"{leakage_limit:.3e}; increase the truncation"
                )
            solved = None if timing_infid is None else t
            rec = StepRecord(i, state, leakage, solved, timing_infid)
        elif isinstance(step, Rotate):
            state = apply_rotation(state, step.spec)
            rec = StepRecord(i, state, 0.0)
        else:  # a MeasureQubit, the one step type left
            outcome = outcome_override or step.outcome
            state, prob = _measure(state, outcome)
            rec = StepRecord(i, state, 0.0, outcome=outcome, probability=prob)
        records.append(rec)

    return RunResult(tuple(records))


DEFAULT_ETA = 0.2
_OMEGA_PER_G = 15000.0  # 4! / DEFAULT_ETA^4, see _pulse_for_coupling


def _pulse_for_coupling(axis: str, g: float, duration) -> PulseSpec:
    # closed-form pulses depend on (eta, omega) only through g; fix eta and
    # back out omega = 4! / 0.2^4 * g, so that coupling_g gives g in exact
    # arithmetic.  In floats the coupling is within a few ulps of g, not
    # equal to it (1.0000000000000002 at g = 1)
    return PulseSpec(axis, 4, DEFAULT_ETA, _OMEGA_PER_G * float(g), duration, "closed")


def build_noon8(g_x: float, g_y: float, horizon: int = 1000) -> list[Step]:
    """The canonical N=8 sequence.

    Prepare |e,0,0>; vacuum pi pulse on x; reset rotation g -> e; vacuum
    pi pulse on y; half rotation to (|e>+|g>)/sqrt(2); superposition pulse
    on x then y; analysis rotation; measure.  The shipped measurement
    outcome is 'e'; override at run time for the other branch.  Each
    coupling is a finite real number > 0 whose omega = 15000 g is finite,
    or a ``FieldError`` names it.
    """
    _require_finite(0, g_x=g_x, g_y=g_y)
    for name, g in (("g_x", g_x), ("g_y", g_y)):
        if g <= 0:
            raise FieldError(name, f"must be > 0, got {g!r}")
        if not math.isfinite(_OMEGA_PER_G * float(g)):
            raise FieldError(name, f"must keep omega = {_OMEGA_PER_G!r} * g finite, got {g!r}")
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


@dataclass(frozen=True)
class NoonFidelity:
    best_fidelity: float
    best_phase: float
    fidelity_chi_0: float
    fidelity_chi_pi: float


def qubit_level(state: HybridState) -> str | None:
    """The qubit level holding all but 1e-9 of the state's norm, or None."""
    p_g, p_e = state.qubit_populations()
    if min(p_g, p_e) > 1e-9 * (p_g + p_e):
        return None
    return "g" if p_g >= p_e else "e"


def mode_amplitudes(state: HybridState) -> np.ndarray:
    """Mode-part amplitudes of a state with a definite qubit level."""
    level = qubit_level(state)
    if level is None:
        raise ValueError("state has support on both qubit levels; measure or project first")
    return state.amp[QUBIT_INDEX[level]] / math.sqrt(sum(state.qubit_populations()))


def noon_fidelity(state: HybridState, n: int) -> NoonFidelity:
    """Overlap of a definite-qubit-level state with the NOON(n, chi) family.

    The overlap with NOON(n, chi) is (a_n0 + e^{-i chi} a_0n) / sqrt(2), so
    the best phase is chi* = arg(a_0n) - arg(a_n0) and the maximum is
    (|a_n0| + |a_0n|)^2 / 2; no numeric scan is needed.  An n that is not
    an integer is a ValueError, one outside 1..min(n_max_x, n_max_y) a
    PhysicsError.
    """
    _require_int(n=n)
    top = min(state.trunc.n_max_x, state.trunc.n_max_y)
    if not 1 <= n <= top:
        raise PhysicsError(f"NOON order N = {n} is outside 1..{top} for this truncation")
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
