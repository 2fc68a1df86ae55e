"""Sideband Hamiltonians and propagators.

The k-th sideband couples |g, n+k> to |e, n> with matrix element

    Omega_n = Omega * exp(-eta^2/2) * eta^k * L_n^(k)(eta^2) * sqrt(n! / (n+k)!)

To leading order in eta this is the closed form g_k * sqrt((n+k)! / n!) with
g_k = Omega * eta^k / k!.  Either way the Hamiltonian only couples the pairs
(|e, n>, |g, n+k>) of the driven mode, so e^{-iHt} is a direct sum of 2x2
rotations: cos(Omega_n t) on the diagonal, -i sin(Omega_n t) off it.  The
two pulse forms differ only in their table of frequencies Omega_n, and one
function, ``rabi_frequencies``, builds a pulse's table.  One kernel,
``_rotate_pairs``, applies the rotations directly to the (2, dx, dy)
amplitude tensor for a batch of S durations at once, giving
(S, 2, dx, dy).  ``apply_pulse`` is its batch of one, from a table it
builds or one the caller already built (the protocol engine solves auto
durations from the same table); ``scan_pulse`` builds the table once and
sends a duration scan through it in chunks of about 2^14 amplitudes,
returning only the qubit populations and leakage of each sample.  Both
reduce the guard band with one sum, ``_guard_sum``.  The kernel checks its
table of phases Omega_n t before taking cos and sin, so an overflowing
duration or table is a ``PhysicsError`` naming the pulse.
``apply_rotation`` applies a carrier pulse as one 2x2 matrix on the qubit
axis.  These are the runtime propagators, and their cost is linear in the
number of amplitudes.

The dense dim x dim builders -- ``sideband_hamiltonian``,
``closed_form_unitary``, ``expm_oracle`` (Hermitian eigendecomposition),
``carrier_rotation`` and ``apply_operator`` -- are reference oracles that
tests compare the runtime propagators against; nothing on the runtime path
builds them.

Phase convention: the sideband coupling is taken real and positive.  The
i^k phase of the plane-wave expansion is a global gauge on each pulse and
is dropped; fidelities are insensitive to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .fock import (
    QUBIT_INDEX,
    HybridState,
    Truncation,
    check_normalized,
    laguerre_assoc,
)

if TYPE_CHECKING:
    from .protocol import VacuumPi, SuperpositionPi

    Duration = Union[float, "VacuumPi", "SuperpositionPi"]


class PhysicsError(Exception):
    """Truncation, guard-band, or measurement-branch violation."""


@dataclass(frozen=True)
class PulseSpec:
    """One sideband pulse on one vibrational mode.

    The trap frequencies and detuning enter only through sideband
    selection (delta = k * nu of the driven axis); they are not simulated.
    ``duration`` is seconds, or a symbolic auto marker resolved by the
    protocol engine.  ``form`` selects the table of Rabi frequencies the
    pulse is propagated with: the leading Lamb-Dicke order ("closed") or
    the full sideband matrix elements ("full"); see ``rabi_frequencies``.
    The closed form is only the leading order in eta; nothing checks eta < 1.
    """

    axis: str
    k: int
    eta: float
    omega: float
    duration: "Duration"
    form: str = "closed"

    def __post_init__(self):
        _require_finite(eta=self.eta, omega=self.omega)
        if isinstance(self.duration, (int, float)):
            _require_finite(duration=self.duration)
        if self.axis not in ("x", "y"):
            raise ValueError(f"pulse axis must be 'x' or 'y', got {self.axis!r}")
        if self.k < 1:
            raise ValueError("sideband order k must be >= 1")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.omega < 0:
            raise ValueError("omega must be >= 0")
        if self.form not in ("closed", "full"):
            raise ValueError(f"form must be 'closed' or 'full', got {self.form!r}")


@dataclass(frozen=True)
class RotationSpec:
    """Carrier rotation R(theta, phi); angles in radians, unrestricted."""

    theta: float
    phi: float

    def __post_init__(self):
        _require_finite(theta=self.theta, phi=self.phi)


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


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
    b4 = block.reshape(2, d, 2, d)
    if axis == "x":
        iy = np.eye(trunc.dim_y, dtype=complex)
        full = np.einsum("qapb,yw->qaypbw", b4, iy)
    else:
        ix = np.eye(trunc.dim_x, dtype=complex)
        full = np.einsum("qapb,xw->qxapwb", b4, ix)
    return full.reshape(trunc.dim, trunc.dim)


def _check_guard(k: int, trunc: Truncation) -> None:
    if trunc.guard < k:
        raise PhysicsError(f"guard band {trunc.guard} too small for a k = {k} pulse")


def _driven_dim(spec: PulseSpec, trunc: Truncation) -> int:
    """Dimension of the driven mode, once the pulse is known to fit it."""
    _check_guard(spec.k, trunc)
    d = trunc.dim_of(spec.axis)
    if d <= spec.k:
        raise PhysicsError("truncation too small for the requested sideband order")
    return d


def sideband_element(n: int, k: int, eta: float, omega: float) -> float:
    """<e, n| H |g, n+k> of the k-th sideband Hamiltonian."""
    lg_fact = math.lgamma(n + 1) - math.lgamma(n + k + 1)
    return (
        omega
        * math.exp(-eta * eta / 2.0)
        * eta**k
        * laguerre_assoc(n, k, eta * eta)
        * math.exp(0.5 * lg_fact)
    )


def sideband_hamiltonian(spec: PulseSpec, trunc: Truncation) -> np.ndarray:
    """Full-space Hermitian sideband Hamiltonian for one pulse.

    Couples |e, n> <-> |g, n+k> on the driven axis; all other elements
    vanish.
    """
    d = _driven_dim(spec, trunc)
    g_idx, e_idx = QUBIT_INDEX["g"], QUBIT_INDEX["e"]
    h = np.zeros((2 * d, 2 * d), dtype=complex)
    for n in range(d - spec.k):
        elem = sideband_element(n, spec.k, spec.eta, spec.omega)
        h[e_idx * d + n, g_idx * d + n + spec.k] = elem
        h[g_idx * d + n + spec.k, e_idx * d + n] = elem
    return _embed_qubit_axis(h, spec.axis, trunc)


def sideband_elements(count: int, k: int, eta: float, omega: float) -> np.ndarray:
    """``sideband_element(n, k, eta, omega)`` for n = 0 .. count-1, in one sweep.

    One pass of the Laguerre recurrence in n gives every L_n^(k)(eta^2);
    the arithmetic per n is that of ``sideband_element``, so the values are
    bit-identical to it.
    """
    x = eta * eta
    try:
        scale = omega * math.exp(-x / 2.0) * eta**k
    except OverflowError:
        scale = _from_logs(omega, eta, k, -x / 2.0)
    out = []
    l_prev, l_cur = 0.0, 1.0  # L_{n-1}, L_n, starting at n = 0
    for n in range(count):
        if n == 1:
            l_prev, l_cur = l_cur, k + 1.0 - x
        elif n > 1:
            m = n - 1
            l_prev, l_cur = l_cur, ((2 * m + k + 1 - x) * l_cur - (m + k) * l_prev) / (m + 1)
        lg_fact = math.lgamma(n + 1) - math.lgamma(n + k + 1)
        out.append(scale * l_cur * math.exp(0.5 * lg_fact))
    return np.array(out)


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
    the leading order in eta; ``form="full"`` gives
    ``sideband_element(n, k, eta, omega)``.
    """
    count = max(_driven_dim(spec, trunc) - spec.k, spec.k + 1)
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
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    _check_guard(4, trunc)
    d = trunc.dim_of(axis)
    g_idx, e_idx = QUBIT_INDEX["g"], QUBIT_INDEX["e"]
    u = np.eye(2 * d, dtype=complex)
    freq = closed_form_frequencies(1.0, 4, np.arange(d - 4))
    for n in range(d - 4):
        phase = float(freq[n]) * g * t
        c, s = math.cos(phase), math.sin(phase)
        ie, ig = e_idx * d + n, g_idx * d + n + 4
        u[ie, ie] = c
        u[ig, ig] = c
        u[ig, ie] = -1j * s
        u[ie, ig] = -1j * s
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
    """R(theta, phi) = exp(-i (theta/2) (cos phi sigma_x + sin phi sigma_y)).

    A 2x2 matrix in the (g, e) ordering of the qubit index.  R(pi/2, -pi/2)
    maps |e> -> (|e> + |g>)/sqrt(2) and |g> -> (-|e> + |g>)/sqrt(2).
    """
    c = math.cos(spec.theta / 2.0)
    s = math.sin(spec.theta / 2.0)
    # -i (cos(phi) sigma_x + sin(phi) sigma_y), basis (|g>, |e>)
    off_ge = -1j * (math.cos(spec.phi) - 1j * math.sin(spec.phi))
    off_eg = -1j * (math.cos(spec.phi) + 1j * math.sin(spec.phi))
    return np.array([[c, s * off_ge], [s * off_eg, c]], dtype=complex)


def carrier_rotation(spec: RotationSpec, trunc: Truncation) -> np.ndarray:
    """Dense on-resonance qubit rotation, identity on both modes.

    Reference form of ``apply_rotation``, built from the same 2x2 matrix.
    """
    iq = np.eye(trunc.dim_x * trunc.dim_y, dtype=complex)
    return np.kron(_qubit_rotation(spec), iq)


def apply_rotation(state: HybridState, spec: RotationSpec) -> HybridState:
    """Apply the carrier rotation R(theta, phi) to the qubit axis."""
    amp = np.einsum("pq,qxy->pxy", _qubit_rotation(spec), state.amp)
    return HybridState(amp, state.trunc)


def apply_operator(u: np.ndarray, state: HybridState) -> HybridState:
    if u.shape != (state.trunc.dim, state.trunc.dim):
        raise ValueError("operator dimension does not match state truncation")
    amp = (u @ state.ravel()).reshape(state.amp.shape)
    return HybridState(amp, state.trunc)


def guard_band_population(state: HybridState, axis: str) -> float:
    """Probability mass in the top ``guard`` Fock levels of one axis."""
    return float(_guard_sum(np.abs(state.amp) ** 2, axis, state.trunc))


def _guard_sum(p: np.ndarray, axis: str, trunc: Truncation) -> np.ndarray:
    """Sum of the populations ``p`` (..., 2, dx, dy) in the top ``guard`` levels of one axis.

    One sum for a single state and for a batch of them, so a scan row
    reduces in the same order as ``apply_pulse``.
    """
    top = trunc.dim_of(axis) - trunc.guard
    band = p[..., top:, :] if axis == "x" else p[..., top:]
    return np.sum(band, axis=(-3, -2, -1))


# amplitudes rotated per chunk of scan samples: a few hundred KB of complex128
_CHUNK_AMPLITUDES = 2**14


def _rotate_pairs(amp: np.ndarray, spec: PulseSpec, freq: np.ndarray,
                  ts: np.ndarray) -> np.ndarray:
    """Rotate every pair (|e, n>, |g, n+k>) of the driven mode by freq[n] * t, for each t.

    ``amp`` is one (2, dx, dy) tensor, ``freq`` the pulse's table
    (``rabi_frequencies``), of which the d - k pairs inside the mode use the
    head, and ``ts`` a 1-D array of S durations; the result is
    (S, 2, dx, dy).  The pair is mapped by [[cos, -i sin], [-i sin, cos]].
    Amplitudes without a partner inside the mode (|e, n> with n + k above
    the cutoff, |g, n> with n < k) are left fixed, as in
    ``closed_form_unitary``.
    """
    freq = freq[: amp.shape[1 if spec.axis == "x" else 2] - spec.k]
    with np.errstate(over="ignore", invalid="ignore"):
        phase = freq * ts[:, None]
    if not np.isfinite(phase).all():
        i, n = np.argwhere(~np.isfinite(phase))[0].tolist()
        raise PhysicsError(
            f"pulse axis={spec.axis} k={spec.k}: phase Omega_n t = {float(phase[i, n])!r} "
            f"is not finite at n = {n}, t = {float(ts[i])!r}"
        )
    e_idx, g_idx, k, m = QUBIT_INDEX["e"], QUBIT_INDEX["g"], spec.k, len(freq)
    c, s = np.cos(phase)[..., None], -1j * np.sin(phase)[..., None]
    out = np.repeat(amp[None], len(ts), axis=0)
    # bring the driven mode next to the qubit; swapaxes gives views, so writes to o land in out
    a, o = (amp, out) if spec.axis == "x" else (amp.swapaxes(1, 2), out.swapaxes(2, 3))
    e, g = a[e_idx, :m], a[g_idx, k : k + m]
    o[:, e_idx, :m] = c * e + s * g
    o[:, g_idx, k : k + m] = s * e + c * g
    return out


def apply_pulse(
    state: HybridState, spec: PulseSpec, freq: np.ndarray | None = None
) -> tuple[HybridState, float]:
    """Propagate one sideband pulse; returns (new state, guard-band leakage).

    ``spec.duration`` must already be numeric; symbolic auto durations are
    resolved by the protocol engine.  ``freq`` is the pulse's table,
    ``rabi_frequencies(spec, state.trunc)``, built here when not given.
    """
    if not isinstance(spec.duration, (int, float)):
        raise ValueError(
            "apply_pulse needs a numeric duration; resolve auto markers first"
        )
    if freq is None:
        freq = rabi_frequencies(spec, state.trunc)
    amp = _rotate_pairs(state.amp, spec, freq, np.array([float(spec.duration)]))
    out = HybridState(amp[0], state.trunc)
    return out, guard_band_population(out, spec.axis)


def scan_pulse(
    state: HybridState, spec: PulseSpec, durations
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_g, p_e, leakage) after the pulse for each of ``durations``.

    ``spec.duration`` is ignored.  Equal, bit for bit, to ``apply_pulse``
    of each duration followed by ``qubit_populations``: the frequency table
    is built once, and the samples go through ``_rotate_pairs`` in chunks
    of about ``_CHUNK_AMPLITUDES`` amplitudes, each checked as a
    ``HybridState`` checks its own, with the qubit populations reduced in
    the same order and the leakage by the same ``_guard_sum``.
    """
    ts = np.asarray(durations, dtype=float)
    if not np.isfinite(ts).all():
        _require_finite(duration=float(ts[~np.isfinite(ts)][0]))
    freq = rabi_frequencies(spec, state.trunc)
    chunk = max(1, _CHUNK_AMPLITUDES // state.amp.size)
    p_g, p_e, leakage = np.empty(len(ts)), np.empty(len(ts)), np.empty(len(ts))
    for start in range(0, len(ts), chunk):
        rows = slice(start, start + chunk)
        amp = _rotate_pairs(state.amp, spec, freq, ts[rows])
        check_normalized(amp)
        p = np.abs(amp) ** 2
        pops = np.sum(p, axis=(2, 3))
        p_g[rows], p_e[rows] = pops[:, 0], pops[:, 1]
        leakage[rows] = _guard_sum(p, spec.axis, state.trunc)
    return p_g, p_e, leakage
