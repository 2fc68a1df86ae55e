"""Sideband Hamiltonians and propagators.

The k-th sideband couples |g, n+k> to |e, n> with the displacement-operator
matrix element Omega <n| e^{i eta (a + a^dag)} |n+k> / i^k, that is

    Omega_n = Omega * exp(-eta^2/2) * eta^k * L_n^(k)(eta^2) * sqrt(n! / (n+k)!)

To leading order in eta this is the closed form g_k * sqrt((n+k)! / n!) with
g_k = Omega * eta^k / k!.  Either way the Hamiltonian only couples the pairs
(|e, n>, |g, n+k>) of the driven mode, so e^{-iHt} is a direct sum of 2x2
rotations: cos(Omega_n t) on the diagonal, -i sin(Omega_n t) off it.  The
two pulse forms differ only in their table of frequencies Omega_n, and one
function, ``rabi_frequencies``, builds a pulse's table.  The carrier
rotation R(theta, phi) is the k = 0 case: the same rotation by theta/2 on
every pair (|e, n>, |g, n>), with the laser phase phi on the off-diagonal
(Wineland et al., J. Res. NIST 103, 259 (1998)); the model leaves out the
carrier's Debye-Waller factor, which would make the angle depend on n.

One kernel, ``_rotate_pairs``, applies every step's rotations directly to
the (2, dx, dy) amplitude tensor, with one 2x2 block for every pair at
every phi; a sideband pulse is its phi = 0 case.  It broadcasts its angles
against the pairs and puts their leading shape in front: one angle gives
(2, dx, dy), an (S, d - k) table (S, 2, dx, dy).  ``apply_rotation``
passes it the one angle theta/2 at k = 0.  A sideband pulse enters it
through ``_rotate_pulse``, with the angles Omega_n t of one duration or of
a 1-D array of them, which it checks before the kernel takes cos and sin,
so an overflowing duration or table is a ``PhysicsError`` naming the
pulse.  ``apply_pulse`` passes one duration, with a table it builds or one
the caller already built (the protocol engine builds each pulse's table and
solves its auto duration from it); ``scan_pulse`` builds the table once
and sends a duration scan through it in chunks of about 2^14 amplitudes,
returning only the qubit populations and leakage of each sample.  Both
take the qubit populations from the norm check, ``check_normalized``, and
the leakage from one sum, ``_guard_sum``, that squares only the guard
band.  These are the runtime propagators, and their cost is linear in the
number of amplitudes.  A pulse fits its truncation by one rule,
``_driven_dim``: a guard band of at least k levels, or a ``FieldError`` on
k, as for the fit rules of ``fock``.

A pulse's duration is seconds or one of the two auto markers defined here
beside ``PulseSpec``, ``VacuumPi`` and ``SuperpositionPi``; every check
tells them apart by one name, ``_AutoDuration``, and the protocol engine
solves a marker before the kernel sees the pulse.

The dense dim x dim builders -- ``sideband_hamiltonian``,
``closed_form_unitary``, ``expm_oracle`` (Hermitian eigendecomposition),
``carrier_rotation`` and ``apply_operator`` -- are reference oracles that
tests compare the runtime propagators against; nothing on the runtime path
builds them.  The two that build a sideband operator lift it from the
qubit and one mode to the full space through one function,
``_embed_qubit_axis``; ``carrier_rotation`` is the Pauli-matrix
``_qubit_rotation`` times the identity on both modes, so it shares no
arithmetic with the kernel it checks.

Phase convention: the sideband coupling is taken real.  The i^k phase of
the plane-wave expansion is a global gauge on each pulse and is dropped;
fidelities are insensitive to it.  Beyond the Lamb-Dicke regime the
Laguerre factor, and so Omega_n, changes sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    AXES,
    QUBIT_INDEX,
    FieldError,
    HybridState,
    Truncation,
    _require_choice,
    _require_finite,
    _require_int,
    check_normalized,
    laguerre_table,
)


class PhysicsError(Exception):
    """What a run produces, not what it is given.

    Guard-band leakage, a degenerate measurement branch, a coupling the
    duration solver cannot time, or an overflowing phase or duration.
    """


@dataclass(frozen=True)
class VacuumPi:
    """Exact pi time from the vacuum, t = pi / (2 w_vac): moves |e,0> to |g,k>."""


@dataclass(frozen=True)
class SuperpositionPi:
    """Best duration within the horizon for the simultaneous |g,k>/|e,k> transfer.

    Chosen among the ``horizon + 1`` candidates t_m = (2m + 3/2) pi / w_vac,
    m = 0..horizon, by ``protocol.solve_duration``.
    """

    horizon: int = 1000

    def __post_init__(self):
        _require_int(1, horizon=self.horizon)


_AutoDuration = VacuumPi | SuperpositionPi


@dataclass(frozen=True)
class PulseSpec:
    """One sideband pulse on one vibrational mode.

    The trap frequencies and detuning enter only through sideband
    selection (delta = k * nu of the driven axis); they are not simulated.
    ``duration`` is seconds or a marker, ``VacuumPi`` or ``SuperpositionPi``,
    that the protocol engine solves.  ``form`` selects the table of Rabi
    frequencies the pulse is propagated with: the leading Lamb-Dicke order
    ("closed") or the full sideband matrix elements ("full"); see ``rabi_frequencies``.
    The closed form is only the leading order in eta; nothing checks eta < 1.
    """

    axis: str
    k: int
    eta: float
    omega: float
    duration: float | _AutoDuration
    form: str = "closed"

    def __post_init__(self):
        _require_finite(0, eta=self.eta, omega=self.omega)
        if not isinstance(self.duration, _AutoDuration):
            _require_finite(duration=self.duration)
        _require_choice(AXES, axis=self.axis)
        _require_int(1, k=self.k)
        _require_choice(("closed", "full"), form=self.form)


@dataclass(frozen=True)
class RotationSpec:
    """Carrier rotation R(theta, phi); angles in radians, unrestricted."""

    theta: float
    phi: float

    def __post_init__(self):
        _require_finite(theta=self.theta, phi=self.phi)


def coupling_g(spec: PulseSpec) -> float:
    """Effective k-phonon coupling g_k = Omega * eta^k / k! of the closed form.

    Where eta^k or k! is beyond the float range, g_k is taken through
    logarithms (``_from_logs``) and may round to 0 or inf.
    """
    try:
        return spec.omega * spec.eta**spec.k / math.factorial(spec.k)
    except OverflowError:
        return _from_logs(spec.omega, spec.eta, spec.k, -math.lgamma(spec.k + 1))


def _from_logs(omega: float, eta: float, k: int, log_rest: float) -> float:
    """omega * eta^k * e^log_rest as a sum of logarithms, 0 or inf beyond the float range.

    The fallback where Python's float power or int-to-float conversion
    raises OverflowError.  It warns of nothing; a table that is not finite
    is reported by the kernel or the duration solver.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.exp(np.log(omega) + k * np.log(eta) + log_rest))


def _embed_qubit_axis(block: np.ndarray, axis: str, trunc: Truncation) -> np.ndarray:
    """Lift an operator on (qubit, driven mode) to the full space.

    ``block`` is indexed (q * d + n) with d the driven-mode dimension.
    """
    d = trunc.dim_of(axis)
    other = np.eye(trunc.dim_y if axis == "x" else trunc.dim_x, dtype=complex)
    subscripts = "qapb,yw->qaypbw" if axis == "x" else "qapb,xw->qxapwb"
    return np.einsum(subscripts, block.reshape(2, d, 2, d), other).reshape(trunc.dim, trunc.dim)


def _driven_dim(k: int, axis: str, trunc: Truncation) -> int:
    """Dimension of the mode ``axis``; FieldError on ``k`` unless guard >= k, the one fit rule.

    As ``Truncation`` keeps guard <= n_max, a fitting pulse has d > k: one pair or more.
    """
    if trunc.guard < k:
        raise FieldError("k", f"must be <= the guard band {trunc.guard}, got {k!r}")
    return trunc.dim_of(axis)


def sideband_hamiltonian(spec: PulseSpec, trunc: Truncation) -> np.ndarray:
    """Full-space Hermitian sideband Hamiltonian for one pulse.

    Couples |e, n> <-> |g, n+k> on the driven axis with the full-form
    elements ``sideband_elements``, whatever ``spec.form`` says; all other
    elements vanish.
    """
    d = _driven_dim(spec.k, spec.axis, trunc)
    n = np.arange(d - spec.k)
    e, g = QUBIT_INDEX["e"] * d + n, QUBIT_INDEX["g"] * d + n + spec.k
    h = np.zeros((2 * d, 2 * d), dtype=complex)
    h[e, g] = h[g, e] = sideband_elements(d - spec.k, spec.k, spec.eta, spec.omega)
    return _embed_qubit_axis(h, spec.axis, trunc)


def sideband_elements(count: int, k: int, eta: float, omega: float) -> np.ndarray:
    """<e, n| H |g, n+k> of the k-th sideband Hamiltonian for n = 0 .. count-1.

    The full-form element of the module docstring, with every
    L_n^(k)(eta^2) from one ``laguerre_table`` sweep.
    """
    x = eta * eta
    try:
        scale = omega * math.exp(-x / 2.0) * eta**k
    except OverflowError:
        scale = _from_logs(omega, eta, k, -x / 2.0)
    return np.array([
        scale * lag * math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + k + 1)))
        for n, lag in enumerate(laguerre_table(count, k, x))
    ])


def closed_form_frequencies(g: float, k: int, n) -> np.ndarray:
    """k-phonon Rabi frequencies g sqrt((n+k)(n+k-1)...(n+1)) in the Lamb-Dicke limit.

    The product is taken left to right from (n+k), so for k = 4 the values
    are bit-identical to g * sqrt((n+4)(n+3)(n+2)(n+1)).  A value beyond
    the float range is inf, and g = 0 times a product beyond it is nan,
    without a warning; the kernel's phase check and the duration solver
    report either.
    """
    n = np.asarray(n, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = n + float(k)
        for j in range(k - 1, 0, -1):
            prod = prod * (n + float(j))
        return g * np.sqrt(prod)


def rabi_frequencies(spec: PulseSpec, trunc: Truncation) -> np.ndarray:
    """The pulse's table: Omega_n of the pair (|e, n>, |g, n+k>) for n < max(d - k, k + 1).

    d is the dimension of the driven mode, checked first.  The kernel
    rotates the d - k pairs inside the mode with the head of the table, and
    an auto duration is solved from Omega_0 and Omega_k, which the table
    holds even when the mode is too small for the pair at n = k.
    ``form="closed"`` gives ``closed_form_frequencies(coupling_g(spec), k, n)``,
    the leading order in eta; ``form="full"`` gives ``sideband_elements``.
    """
    count = max(_driven_dim(spec.k, spec.axis, trunc) - spec.k, spec.k + 1)
    if spec.form == "closed":
        return closed_form_frequencies(coupling_g(spec), spec.k, np.arange(count))
    return sideband_elements(count, spec.k, spec.eta, spec.omega)


def closed_form_unitary(g: float, t: float, trunc: Truncation, axis: str) -> np.ndarray:
    """Closed-form propagator of the four-phonon sideband Hamiltonian.

    Acts as, with f(n) = sqrt((n+4)(n+3)(n+2)(n+1)):

        |e, n>       ->  cos(f(n) g t) |e, n> - i sin(f(n) g t) |g, n+4>
        |g, n>, n>=4 ->  cos(f(n-4) g t) |g, n> - i sin(f(n-4) g t) |e, n-4>
        |g, n < 4>   ->  fixed

    States |e, n> whose four-phonon partner falls above the cutoff are left
    fixed, which keeps the matrix exactly unitary; such population is what
    the guard band is for.
    """
    k = 4
    d = _driven_dim(k, axis, trunc)
    n = np.arange(d - k)
    ie, ig = QUBIT_INDEX["e"] * d + n, QUBIT_INDEX["g"] * d + n + k
    phase = closed_form_frequencies(1.0, k, n) * g * t
    u = np.eye(2 * d, dtype=complex)
    u[ie, ie] = u[ig, ig] = np.cos(phase)
    u[ie, ig] = u[ig, ie] = -1j * np.sin(phase)
    return _embed_qubit_axis(u, axis, trunc)


def expm_oracle(h: np.ndarray, t: float) -> np.ndarray:
    """e^{-i H t} via eigendecomposition of the Hermitian matrix H.

    Independent of the closed-form route; unitary to machine precision.
    """
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("expm_oracle requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _qubit_rotation(spec: RotationSpec) -> np.ndarray:
    """R(theta, phi) = cos(theta/2) 1 - i sin(theta/2) (cos phi sigma_x + sin phi sigma_y).

    A 2x2 matrix in the (g, e) ordering of the qubit index, where
    cos phi sigma_x + sin phi sigma_y = [[0, e^{-i phi}], [e^{i phi}, 0]].
    R(pi/2, -pi/2) maps |e> -> (|e> + |g>)/sqrt(2) and
    |g> -> (-|e> + |g>)/sqrt(2).
    """
    sigma = np.array([[0, cmath.exp(-1j * spec.phi)], [cmath.exp(1j * spec.phi), 0]])
    return math.cos(spec.theta / 2.0) * np.eye(2) - 1j * math.sin(spec.theta / 2.0) * sigma


def carrier_rotation(spec: RotationSpec, trunc: Truncation) -> np.ndarray:
    """Dense on-resonance qubit rotation, identity on both modes.

    Reference form of ``apply_rotation``: the 2x2 matrix ``_qubit_rotation``,
    written from the Pauli matrices, times the identity on the modes, and so
    independent of the pair kernel that ``apply_rotation`` runs.
    """
    return np.kron(_qubit_rotation(spec), np.eye(trunc.dim_x * trunc.dim_y))


def apply_rotation(state: HybridState, spec: RotationSpec) -> HybridState:
    """Apply the carrier rotation R(theta, phi): the k = 0 pair rotation by theta / 2 on every pair.

    The one angle goes to the kernel as a one-element array, which it
    broadcasts over the pairs, so cos and sin are numpy's.
    """
    angle = np.array([spec.theta / 2.0])
    return HybridState(_rotate_pairs(state.amp, "x", 0, angle, spec.phi), state.trunc)


def apply_operator(u: np.ndarray, state: HybridState) -> HybridState:
    if u.shape != (state.trunc.dim, state.trunc.dim):
        raise ValueError("operator dimension does not match state truncation")
    amp = (u @ state.ravel()).reshape(state.amp.shape)
    return HybridState(amp, state.trunc)


def guard_band_population(state: HybridState, axis: str) -> float:
    """Probability mass in the top ``guard`` Fock levels of one axis."""
    return float(_guard_sum(state.amp, axis, state.trunc))


def _guard_sum(amp: np.ndarray, axis: str, trunc: Truncation) -> np.ndarray:
    """Population of the amplitudes ``amp`` (..., 2, dx, dy) in the top ``guard`` levels of one axis.

    Squares only the band, as re^2 + im^2 on the float view.  One sum for
    a single state and for a batch of them, so a scan row reduces in the
    same order as ``apply_pulse``.
    """
    top = trunc.dim_of(axis) - trunc.guard
    band = (amp[..., top:, :] if axis == "x" else amp[..., top:]).view(float)
    return np.add.reduce(band * band, axis=(-3, -2, -1))


# amplitudes rotated per chunk of scan samples: a few hundred KB of complex128
_CHUNK_AMPLITUDES = 2**14


def _rotate_pulse(state: HybridState, spec: PulseSpec, freq: np.ndarray, ts) -> np.ndarray:
    """The amplitudes after the sideband pulse of duration ``ts``, one or a 1-D array of them.

    (2, dx, dy) for one duration and (S, 2, dx, dy) for S of them.
    ``freq`` is the pulse's table (``rabi_frequencies``), of which the d - k
    pairs inside the driven mode use the head: the kernel rotates pair n by
    the angle freq[n] * t at phi = 0.  An angle that is not finite is a
    ``PhysicsError`` naming the pulse, its n and its t, raised before the
    kernel runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.multiply.outer(ts, freq[: state.trunc.dim_of(spec.axis) - spec.k])
    if not np.isfinite(phase).all():
        *i, n = np.argwhere(~np.isfinite(phase))[0].tolist()
        raise PhysicsError(f"pulse axis={spec.axis} k={spec.k}: phase Omega_n t = "
                           f"{float(phase[(*i, n)])!r} is not finite at n = {n}, "
                           f"t = {float(np.asarray(ts)[tuple(i)])!r}")
    return _rotate_pairs(state.amp, spec.axis, spec.k, phase)


def _rotate_pairs(amp: np.ndarray, axis: str, k: int, angles: np.ndarray,
                  phi: float = 0.0) -> np.ndarray:
    """Rotate each pair (|e, n>, |g, n+k>) of the mode ``axis`` by its angle in ``angles``.

    ``amp`` is one (2, dx, dy) tensor, k >= 0, and ``angles`` an array whose
    last axis broadcasts against the d - k pairs: one angle for every pair,
    a row of d - k, or an (S, d - k) table.  The result has the leading
    shape of ``angles`` in front of (2, dx, dy).  With a the angle of pair
    n, the pair (e, g) is mapped by [[cos a, -i e^{i phi} sin a],
    [-i e^{-i phi} sin a, cos a]]: a sideband pulse with a = Omega_n t and
    phi = 0, and at k = 0 the carrier R(theta, phi) with a = theta / 2.
    One block serves every phi: at phi = 0 its factors 1 + 0i and 1 - 0i
    give the values of the real block [[cos a, -i sin a], [-i sin a, cos a]],
    and only where an angle is exactly 0 can a zero part differ in its sign.
    Amplitudes without a partner inside the mode (|e, n> with n >= d - k,
    |g, n> with n < k) are copied unchanged, as in ``closed_form_unitary``;
    every amplitude is written once.
    """
    c, s, w = np.cos(angles)[..., None], -1j * np.sin(angles)[..., None], cmath.exp(1j * phi)
    out = np.empty(np.shape(angles)[:-1] + amp.shape, dtype=complex)
    # bring the driven mode next to the qubit; swapaxes gives views, so writes to o land in out
    a, o = (amp, out) if axis == "x" else (amp.swapaxes(1, 2), out.swapaxes(-2, -1))
    e_idx, g_idx, m = QUBIT_INDEX["e"], QUBIT_INDEX["g"], a.shape[1] - k
    e, g = a[e_idx, :m], a[g_idx, k:]
    o[..., e_idx, :m, :] = c * e + s * w * g
    o[..., g_idx, k:, :] = s * w.conjugate() * e + c * g
    o[..., e_idx, m:, :], o[..., g_idx, :k, :] = a[e_idx, m:], a[g_idx, :k]
    return out


def apply_pulse(
    state: HybridState, spec: PulseSpec, freq: np.ndarray | None = None
) -> tuple[HybridState, float]:
    """Propagate one sideband pulse; returns (new state, guard-band leakage).

    ``spec.duration`` must be seconds; auto markers are solved by the
    protocol engine first.  ``freq`` is the pulse's table,
    ``rabi_frequencies(spec, state.trunc)``, built here when not given.
    """
    if isinstance(spec.duration, _AutoDuration):
        raise ValueError(f"apply_pulse needs seconds; solve the marker {spec.duration!r} first")
    if freq is None:
        freq = rabi_frequencies(spec, state.trunc)
    out = HybridState(_rotate_pulse(state, spec, freq, float(spec.duration)), state.trunc)
    return out, guard_band_population(out, spec.axis)


def scan_pulse(
    state: HybridState, spec: PulseSpec, durations
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_g, p_e, leakage) after the pulse for each of ``durations``, a 1-D sequence.

    Each duration is checked as ``PulseSpec`` checks its own, by
    ``_require_finite``, before any is converted.  ``spec.duration`` is
    ignored.  Equal, bit for bit, to ``apply_pulse`` of each duration
    followed by ``qubit_populations``: the frequency table
    is built once, and the samples go through ``_rotate_pulse`` in chunks
    of about ``_CHUNK_AMPLITUDES`` amplitudes, each checked as a
    ``HybridState`` checks its own, by ``check_normalized``, whose
    populations are the rows' p_g and p_e, and with the leakage from the
    same ``_guard_sum``.
    """
    shape = np.shape(durations)
    if len(shape) != 1:
        raise ValueError(f"durations must be a 1-D sequence, got shape {shape}")
    for t in durations:
        _require_finite(duration=t)
    ts = np.asarray(durations, dtype=float)
    freq = rabi_frequencies(spec, state.trunc)
    chunk = max(1, _CHUNK_AMPLITUDES // state.amp.size)
    p_g, p_e, leakage = np.empty(len(ts)), np.empty(len(ts)), np.empty(len(ts))
    for start in range(0, len(ts), chunk):
        rows = slice(start, start + chunk)
        amp = _rotate_pulse(state, spec, freq, ts[rows])
        pops = check_normalized(amp)
        p_g[rows], p_e[rows] = pops[:, 0], pops[:, 1]
        leakage[rows] = _guard_sum(amp, spec.axis, state.trunc)
    return p_g, p_e, leakage
