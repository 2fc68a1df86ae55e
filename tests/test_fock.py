import math

import numpy as np
import pytest

from noonsim import (
    HybridState,
    Truncation,
    basis_state,
    embed,
    ladder,
    laguerre_assoc,
)
from noonsim.fock import check_normalized


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
        with pytest.raises(ValueError):
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

    def test_bad_which(self):
        with pytest.raises(ValueError):
            ladder(4, "sideways")


class TestEmbed:
    trunc = Truncation(6, 5, 2)

    def test_identity_embeds_to_identity(self):
        from noonsim.fock import ModeOperator

        full = embed(ModeOperator(np.eye(7, dtype=complex), "x"), self.trunc)
        state = basis_state("g", 3, 2, self.trunc)
        assert np.allclose(full @ state.ravel(), state.ravel())

    def test_lower_x_on_fock_state(self):
        full = embed(ladder(7, "lower", "x"), self.trunc)
        state = basis_state("g", 4, 4, self.trunc)
        out = (full @ state.ravel()).reshape(state.amp.shape)
        assert out[0, 3, 4] == pytest.approx(2.0)  # sqrt(4)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(4.0)

    def test_lower_y_on_vacuum(self):
        full = embed(ladder(6, "lower", "y"), self.trunc)
        state = basis_state("e", 4, 0, self.trunc)
        assert np.allclose(full @ state.ravel(), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed(ladder(9, "lower", "x"), self.trunc)

    def test_cross_axis_operators_commute(self):
        ax = embed(ladder(7, "lower", "x"), self.trunc)
        by = embed(ladder(6, "raise", "y"), self.trunc)
        assert np.array_equal(ax @ by, by @ ax)


class TestHybridState:
    def test_norm_enforced(self):
        amp = np.zeros((2, 5, 5), dtype=complex)
        amp[0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="not normalized"):
            HybridState(amp, Truncation(4, 4, 1))
        amp[1, 2, 3] = math.sqrt(0.75)
        HybridState(amp, Truncation(4, 4, 1))  # fine

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
        with pytest.raises(ValueError):
            basis_state("g", 13, 0, Truncation(12, 12, 4))
