"""Truncated two-mode Fock space for a single two-level ion.

The system state lives on (qubit) x (x phonons) x (y phonons).  Amplitude
layout is fixed: qubit index slowest, then x, then y, so that flattened
state vectors are bit-comparable across implementations.  The qubit index
is 0 for |g> and 1 for |e>.

Everything here is a pure function of its inputs; states and operators are
never mutated after construction.  ``check_normalized`` is the one place
that reduces |psi|^2: it keeps the qubit axis, checks P(g) + P(e) = 1 and
returns the pair, and a ``HybridState`` carries the pair its own check
computed, so ``qubit_populations`` reduces nothing again.

The three field checks of every constructor live here: ``_require_int``
and ``_require_finite`` reject a bool or a value of another type, and a
value below the lower bound the caller passes; ``_require_choice`` rejects
anything that is not one of a fixed set of strings.  Two of the three fit
rules live here too: a guard band no deeper than either mode
(``Truncation``) and a Fock level within it (``_level_index``); the third,
a pulse's k within the guard band, is ``dynamics._driven_dim``.  Each check
and fit rule raises a ``FieldError``, a ValueError naming the field, which
``program.parse`` reports at the key that set it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

QUBIT_LABELS = ("g", "e")
QUBIT_INDEX = {q: i for i, q in enumerate(QUBIT_LABELS)}

AXES = ("x", "y")


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
        _require_int(1, n_max_x=self.n_max_x, n_max_y=self.n_max_y)
        _require_int(0, guard=self.guard)
        top = min(self.n_max_x, self.n_max_y)
        if self.guard > top:
            raise FieldError("guard", f"must be <= {top}, got {self.guard!r}")

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
        _require_choice(AXES, axis=axis)
        return self.dim_x if axis == "x" else self.dim_y


@dataclass(frozen=True, eq=False)
class HybridState:
    """Complex amplitudes over (qubit, n_x, n_y), with squared norm 1.

    ``amp`` may be any array-like; the state keeps it as a C-contiguous
    complex128 array, the input itself where it already is one.  The state
    carries the qubit populations that its norm check computed, outside the
    constructor, the comparison and the repr.  Two states are equal when
    their truncations and amplitudes are; a state is unhashable.
    """

    amp: np.ndarray
    trunc: Truncation
    _populations: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "amp", np.ascontiguousarray(self.amp, dtype=complex))
        expected = (2, self.trunc.dim_x, self.trunc.dim_y)
        if self.amp.shape != expected:
            raise ValueError(
                f"amplitude shape {self.amp.shape} does not match truncation {expected}"
            )
        object.__setattr__(self, "_populations", tuple(check_normalized(self.amp).tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HybridState):
            return NotImplemented
        return self.trunc == other.trunc and np.array_equal(self.amp, other.amp)

    def ravel(self) -> np.ndarray:
        return self.amp.reshape(-1)

    def population(self, q: str, nx: int, ny: int) -> float:
        return float(abs(self.amp[_level_index(q, nx, ny, self.trunc)]) ** 2)

    def qubit_populations(self) -> tuple[float, float]:
        """(P(g), P(e)), as the norm check computed them."""
        return self._populations


def check_normalized(amp: np.ndarray) -> np.ndarray:
    """The qubit populations of ``amp``; ValueError unless each tensor has squared norm 1.

    ``amp`` is one (2, dx, dy) state tensor or a stack of them along leading
    axes, and the result has the shape of ``amp[..., 0, 0]``: P(g) and P(e)
    of each.  Their sum is the squared norm checked; the first failing
    tensor is reported.
    """
    # an elementwise sum of re^2 and im^2, not np.abs or a BLAS call: np.vdot
    # with several BLAS threads costs milliseconds per state
    v = amp.view(float)
    pops = np.add.reduce(v * v, axis=(-2, -1))
    for p_g, p_e in pops.reshape(-1, 2).tolist():
        n2 = p_g + p_e
        if not math.isfinite(n2):
            raise ValueError("non-finite amplitude")
        if abs(n2 - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |psi|^2 = {n2}")
    return pops


@dataclass(frozen=True)
class ModeOperator:
    """Dense matrix acting on one mode (x or y)."""

    mat: np.ndarray
    axis: str

    def __post_init__(self):
        _require_choice(AXES, axis=self.axis)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("operator matrix must be square")


def laguerre_table(count: int, k: int, x: float) -> list[float]:
    """Associated Laguerre polynomials L_0^(k)(x) .. L_{count-1}^(k)(x), in one sweep.

    Forward three-term recurrence in n, which is stable for the x >= 0,
    small n and k needed here.
    """
    table = [1.0, k + 1.0 - x][:count]
    for m in range(1, count - 1):
        table.append(((2 * m + k + 1 - x) * table[m] - (m + k) * table[m - 1]) / (m + 1))
    return table


def laguerre_assoc(n: int, k: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^(k)(x): entry n of ``laguerre_table``."""
    _require_int(0, n=n, k=k)
    return laguerre_table(n + 1, k, x)[n]


def ladder(dim: int, which: str, axis: str = "x") -> ModeOperator:
    """Annihilation ("lower") or creation ("raise") operator on a mode.

    lower |n> = sqrt(n) |n-1>; raise is the conjugate transpose.  The
    coupling out of the top level is truncated away.
    """
    _require_int(1, dim=dim)
    _require_choice(("lower", "raise"), which=which)
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return ModeOperator(a if which == "lower" else a.conj().T, axis)


def _level_index(q: str, nx: int, ny: int, trunc: Truncation) -> tuple[int, int, int]:
    """The amplitude index of |q, nx, ny>; FieldError unless the level is in the truncation."""
    _require_choice(QUBIT_LABELS, q=q)
    _require_int(0, nx=nx, ny=ny)
    for name, n, top in (("nx", nx, trunc.n_max_x), ("ny", ny, trunc.n_max_y)):
        if n > top:
            raise FieldError(name, f"must be <= {top}, got {n!r}")
    return QUBIT_INDEX[q], nx, ny


def basis_state(q: str, nx: int, ny: int, trunc: Truncation) -> HybridState:
    """|q, nx, ny>; MemoryError where the truncation's state does not fit in memory."""
    index = _level_index(q, nx, ny, trunc)
    shape = (2, trunc.dim_x, trunc.dim_y)
    try:
        amp = np.zeros(shape, dtype=complex)
    except ValueError as exc:  # a shape numpy refuses before it allocates
        raise MemoryError(f"cannot allocate a state of shape {shape}: {exc}") from None
    amp[index] = 1.0
    return HybridState(amp, trunc)


class FieldError(ValueError):
    """A value a constructor rejects: the ``field`` it was given for, and what is wrong with it."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"{field} {detail}")
        self.field, self.detail = field, detail


def _require_int(lower: int | None = None, /, **values) -> None:
    """FieldError unless each value is a Python or numpy integer >= ``lower``, not bool."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise FieldError(name, f"must be an integer, got {value!r}")
        if lower is not None and value < lower:
            raise FieldError(name, f"must be >= {lower}, got {value!r}")


def _require_finite(lower: float | None = None, /, **values) -> None:
    """``_require_int``'s contract for a finite Python or numpy integer or float >= ``lower``."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise FieldError(name, f"must be a real number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range, too long to quote
            size = value.bit_length()
            raise FieldError(name, f"must be finite, got an integer of {size} bits") from None
        if not finite:
            raise FieldError(name, f"must be finite, got {value!r}")
        if lower is not None and value < lower:
            raise FieldError(name, f"must be >= {lower}, got {value!r}")


def _require_choice(choices: tuple[str, ...], /, **values) -> None:
    """``_require_int``'s contract for a ``str`` among ``choices``."""
    for name, value in values.items():
        if not (isinstance(value, str) and value in choices):
            raise FieldError(name, f"must be {' or '.join(map(repr, choices))}, got {value!r}")
