import math

import numpy as np
import pytest

from noonsim import (
    HybridState,
    ModeOperator,
    PulseSpec,
    Truncation,
    apply_pulse,
    basis_state,
    ladder,
    laguerre_assoc,
)
from noonsim.fock import FieldError, check_normalized

# a (2, dx, dy) complex128 array in the forms a caller may hand to HybridState
AMPLITUDE_FORMS = {
    "complex128": lambda amp: amp,
    "complex64": lambda amp: amp.astype(np.complex64),
    "int64": lambda amp: amp.real.astype(np.int64),
    "float64": lambda amp: amp.real.copy(),
    "fortran-ordered": np.asfortranarray,
    "strided": lambda amp: np.repeat(amp, 2, axis=-1)[..., ::2],
    "nested-list": lambda amp: amp.tolist(),
}


class TestLaguerre:
    def test_order_zero_is_one(self):
        assert laguerre_assoc(0, 3, 7.5) == 1.0

    def test_order_one(self):
        # L_1^(k)(x) = k + 1 - x
        assert laguerre_assoc(1, 1, 0.04) == pytest.approx(1.96, abs=1e-14)

    def test_order_two_plain(self):
        # L_2^(0)(x) = 1 - 2x + x^2/2
        assert laguerre_assoc(2, 0, 1.0) == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("n,k", [(-1, 0), (0, -2)])
    def test_negative_arguments(self, n, k):
        name, value = ("n", n) if n < 0 else ("k", k)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {value}$"):
            laguerre_assoc(n, k, 1.0)

    @pytest.mark.parametrize("x", [0.0, 0.01, 0.04, 1.0, 5.0])
    def test_three_term_recurrence(self, x):
        for k in range(9):
            for n in range(31):
                lhs = (n + 1) * laguerre_assoc(n + 1, k, x)
                rhs = (2 * n + k + 1 - x) * laguerre_assoc(n, k, x) - (
                    n + k
                ) * laguerre_assoc(n - 1, k, x) if n >= 1 else (
                    k + 1 - x
                ) * laguerre_assoc(0, k, x)
                scale = max(1.0, abs(lhs))
                assert abs(lhs - rhs) <= 1e-9 * scale

    def test_value_at_zero_is_binomial(self):
        for n in range(21):
            for k in range(21 - n):
                assert laguerre_assoc(n, k, 0.0) == math.comb(n + k, k)


class TestLadder:
    def test_lower_action(self):
        a = ladder(6, "lower").mat
        v = np.zeros(6)
        v[1] = 1.0
        out = a @ v
        assert out[0] == pytest.approx(1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_raise_action(self):
        adag = ladder(6, "raise").mat
        v = np.zeros(6)
        v[0] = 1.0
        assert (adag @ v)[1] == pytest.approx(1.0)

    def test_commutator_on_subblock(self):
        dim = 10
        a = ladder(dim, "lower").mat
        adag = ladder(dim, "raise").mat
        comm = a @ adag - adag @ a
        assert np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1))) <= 1e-12

    @pytest.mark.parametrize(
        "dim, which, message",
        [
            (4, "sideways", "^which must be 'lower' or 'raise', got 'sideways'$"),
            (0, "lower", "^dim must be >= 1, got 0$"),
            (4.0, "lower", "^dim must be an integer, got 4.0$"),
        ],
        ids=["bad-which", "zero-dim", "float-dim"],
    )
    def test_bad_arguments(self, dim, which, message):
        with pytest.raises(ValueError, match=message):
            ladder(dim, which)

    def test_mode_operator_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="^operator matrix must be square$"):
            ModeOperator(np.zeros((3, 4)), "x")

    def test_only_the_two_modes_are_axes(self):
        trunc = Truncation(6, 5, 2)
        assert (trunc.dim_of("x"), trunc.dim_of("y")) == (7, 6)
        with pytest.raises(ValueError, match="^axis must be 'x' or 'y', got 'qubit'$"):
            trunc.dim_of("qubit")
        with pytest.raises(ValueError, match="^axis must be 'x' or 'y', got 'qubit'$"):
            ladder(2, "lower", "qubit")


class TestTruncation:
    @pytest.mark.parametrize(
        "sizes, message",
        [
            ((12.0, 12, 4), r"^n_max_x must be an integer, got 12.0$"),
            ((12, True, 4), r"^n_max_y must be an integer, got True$"),
            ((12, 12, "4"), r"^guard must be an integer, got '4'$"),
        ],
        ids=["float-n_max_x", "bool-n_max_y", "str-guard"],
    )
    def test_sizes_must_be_integers(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            Truncation(*sizes)
        assert Truncation(*map(np.int64, (12, 12, 4))) == Truncation(12, 12, 4)


class TestHybridState:
    @pytest.mark.parametrize("form", AMPLITUDE_FORMS.values(), ids=AMPLITUDE_FORMS)
    def test_norm_enforced(self, form):
        trunc = Truncation(4, 4, 4)
        amp = np.zeros((2, 5, 5), dtype=complex)
        amp[1, 0, 0] = 2.0
        with pytest.raises(ValueError, match=r"^state is not normalized: \|psi\|\^2 = 4.0$"):
            HybridState(form(amp), trunc)
        amp[1, 0, 0] = 1.0
        state = HybridState(form(amp), trunc)
        assert state.amp.dtype == np.complex128 and state.amp.flags.c_contiguous
        assert state == basis_state("e", 0, 0, trunc)
        spec = PulseSpec("x", 4, 0.2, 15000.0, 0.1)
        out, leakage = apply_pulse(state, spec, 0.1)
        ref, ref_leakage = apply_pulse(basis_state("e", 0, 0, trunc), spec, 0.1)
        assert (out.amp.tobytes(), leakage) == (ref.amp.tobytes(), ref_leakage)
        amp[1, 0, 0], amp[0, 2, 3] = 0.5, math.sqrt(0.75)
        if np.array_equal(np.asarray(form(amp), dtype=complex), amp):  # forms that hold it
            HybridState(form(amp), trunc)  # fine

    def test_shape_must_match_the_truncation(self):
        amp = basis_state("e", 0, 0, Truncation(4, 4, 4)).amp
        with pytest.raises(ValueError, match=r"^amplitude shape \(2, 5, 5\) does not match truncation \(2, 5, 6\)$"):
            HybridState(amp, Truncation(4, 5, 4))

    def test_states_compare_by_value_and_are_unhashable(self):
        trunc = Truncation(4, 4, 4)
        state = basis_state("g", 1, 2, trunc)
        assert state == basis_state("g", 1, 2, trunc)
        assert state != basis_state("g", 2, 1, trunc)
        assert state != basis_state("g", 1, 2, Truncation(4, 4, 3))
        assert state != "state"
        with pytest.raises(TypeError, match="unhashable type: 'HybridState'"):
            hash(state)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_nonfinite_rejected(self, bad):
        amp = np.zeros((2, 5, 5), dtype=complex)
        amp[0, 0, 0] = 1.0
        amp[1, 4, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            HybridState(amp, Truncation(4, 4, 1))

    def test_stack_reports_its_first_bad_state(self):
        good = basis_state("g", 1, 2, Truncation(4, 4, 1)).amp
        check_normalized(np.stack([good, good, good]))
        with pytest.raises(ValueError, match=r"^state is not normalized: \|psi\|\^2 = 4.0$"):
            check_normalized(np.stack([good, 2 * good, np.nan * good]))
        with pytest.raises(ValueError, match="^non-finite amplitude$"):
            check_normalized(np.stack([good, np.nan * good, 2 * good]))

    def test_basis_state_outside_truncation(self):
        with pytest.raises(FieldError, match="^nx must be <= 12, got 13$") as err:
            basis_state("e", 13, 0, Truncation())
        assert err.value.field == "nx"

    @pytest.mark.parametrize(
        "q, nx, ny, message",
        [
            ("e", -13, 0, r"^nx must be >= 0, got -13$"),
            ("e", 13, 0, r"^nx must be <= 12, got 13$"),
            ("g", 0, -1, r"^ny must be >= 0, got -1$"),
            ("g", 0, 13, r"^ny must be <= 12, got 13$"),
            ("x", 0, 0, r"^q must be 'g' or 'e', got 'x'$"),
            ("e", 1.0, 0, r"^nx must be an integer, got 1.0$"),
            ("g", 0, True, r"^ny must be an integer, got True$"),
        ],
        ids=["negative-nx", "nx-above-cutoff", "negative-ny", "ny-above-cutoff", "bad-qubit",
             "float-nx", "bool-ny"],
    )
    def test_population_outside_truncation(self, q, nx, ny, message):
        trunc = Truncation(12, 12, 4)
        state = basis_state("e", 0, 0, trunc)
        with pytest.raises(ValueError, match=message):
            state.population(q, nx, ny)
        with pytest.raises(ValueError, match=message):
            basis_state(q, nx, ny, trunc)
        assert state.population("e", 0, 0) == 1.0
        assert state.population("g", 12, 12) == 0.0
