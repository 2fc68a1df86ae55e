"""Truncated two-mode Fock space for a single two-level ion.

The system state lives on (qubit) x (x phonons) x (y phonons).  Amplitude
layout is fixed: qubit index slowest, then x, then y, so that flattened
state vectors are bit-comparable across implementations.  The qubit index
is 0 for |g> and 1 for |e>.

Everything here is a pure function of its inputs; states and operators are
never mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QUBIT_LABELS = ("g", "e")
QUBIT_INDEX = {"g": 0, "e": 1}

AXES = ("x", "y", "qubit")


@dataclass(frozen=True)
class Truncation:
    """Fock-space cutoffs plus a guard band used for leakage diagnostics.

    The top ``guard`` levels of each mode are reserved: population found
    there after a pulse signals that the cutoff is too low.
    """

    n_max_x: int = 12
    n_max_y: int = 12
    guard: int = 4

    def __post_init__(self):
        if self.n_max_x < 1 or self.n_max_y < 1:
            raise ValueError("n_max_x and n_max_y must be >= 1")
        if self.guard < 0:
            raise ValueError("guard must be >= 0")
        if self.guard > min(self.n_max_x, self.n_max_y):
            raise ValueError("guard exceeds the mode dimension")

    @property
    def dim_x(self) -> int:
        return self.n_max_x + 1

    @property
    def dim_y(self) -> int:
        return self.n_max_y + 1

    @property
    def dim(self) -> int:
        return 2 * self.dim_x * self.dim_y

    def dim_of(self, axis: str) -> int:
        if axis == "x":
            return self.dim_x
        if axis == "y":
            return self.dim_y
        if axis == "qubit":
            return 2
        raise ValueError(f"unknown axis {axis!r}")


@dataclass(frozen=True)
class HybridState:
    """Complex amplitudes over (qubit, n_x, n_y), with squared norm 1."""

    amp: np.ndarray
    trunc: Truncation

    def __post_init__(self):
        expected = (2, self.trunc.dim_x, self.trunc.dim_y)
        if self.amp.shape != expected:
            raise ValueError(
                f"amplitude shape {self.amp.shape} does not match truncation {expected}"
            )
        check_normalized(self.amp)

    def ravel(self) -> np.ndarray:
        return self.amp.reshape(-1)

    def population(self, q: str, nx: int, ny: int) -> float:
        return float(abs(self.amp[QUBIT_INDEX[q], nx, ny]) ** 2)

    def qubit_populations(self) -> tuple[float, float]:
        """(P(g), P(e))."""
        p = np.sum(np.abs(self.amp) ** 2, axis=(1, 2))
        return float(p[0]), float(p[1])


def check_normalized(amp: np.ndarray) -> None:
    """Raise ValueError unless each (2, dx, dy) tensor of ``amp`` has squared norm 1.

    ``amp`` is one state's tensor or a stack of them along leading axes;
    the first failing one is reported.
    """
    # an elementwise sum, not a BLAS call: np.vdot with several BLAS
    # threads costs milliseconds per state
    v = amp.view(float)
    for n2 in np.add.reduce(v * v, axis=(-3, -2, -1)).reshape(-1).tolist():
        if not math.isfinite(n2):
            raise ValueError("non-finite amplitude")
        if abs(n2 - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |psi|^2 = {n2}")


@dataclass(frozen=True)
class ModeOperator:
    """Dense matrix acting on a single factor (x mode, y mode, or qubit)."""

    mat: np.ndarray
    axis: str

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("operator matrix must be square")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def laguerre_assoc(n: int, k: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^(k)(x).

    Forward three-term recurrence in n, which is stable for the x >= 0,
    small n and k needed here.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    l_prev = 1.0  # L_0
    if n == 0:
        return l_prev
    l_cur = k + 1.0 - x  # L_1
    for m in range(1, n):
        l_prev, l_cur = l_cur, ((2 * m + k + 1 - x) * l_cur - (m + k) * l_prev) / (m + 1)
    return l_cur


def ladder(dim: int, which: str, axis: str = "x") -> ModeOperator:
    """Annihilation ("lower") or creation ("raise") operator on a mode.

    lower |n> = sqrt(n) |n-1>; raise is the conjugate transpose.  The
    coupling out of the top level is truncated away.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    diag = np.sqrt(np.arange(1, dim, dtype=float))
    a = np.diag(diag, k=1).astype(complex)
    if which == "lower":
        return ModeOperator(a, axis)
    if which == "raise":
        return ModeOperator(a.conj().T, axis)
    raise ValueError(f"which must be 'lower' or 'raise', got {which!r}")


def _kron3(q: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.kron(q, np.kron(x, y))


def embed(op: ModeOperator, trunc: Truncation) -> np.ndarray:
    """Lift a single-factor operator to the full (qubit, x, y) space.

    Identity on the other two factors.  Index order of the result matches
    HybridState.ravel().
    """
    if op.dim != trunc.dim_of(op.axis):
        raise ValueError(
            f"operator dimension {op.dim} does not match axis {op.axis} "
            f"dimension {trunc.dim_of(op.axis)}"
        )
    iq = np.eye(2, dtype=complex)
    ix = np.eye(trunc.dim_x, dtype=complex)
    iy = np.eye(trunc.dim_y, dtype=complex)
    if op.axis == "qubit":
        return _kron3(op.mat, ix, iy)
    if op.axis == "x":
        return _kron3(iq, op.mat, iy)
    return _kron3(iq, ix, op.mat)


def basis_state(q: str, nx: int, ny: int, trunc: Truncation) -> HybridState:
    if q not in QUBIT_INDEX:
        raise ValueError(f"qubit level must be 'g' or 'e', got {q!r}")
    if not (0 <= nx <= trunc.n_max_x and 0 <= ny <= trunc.n_max_y):
        raise ValueError(f"Fock indices ({nx}, {ny}) outside truncation")
    amp = np.zeros((2, trunc.dim_x, trunc.dim_y), dtype=complex)
    amp[QUBIT_INDEX[q], nx, ny] = 1.0
    return HybridState(amp, trunc)
