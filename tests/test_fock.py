import math

import numpy as np
import pytest

from noonsim import (
    HybridState,
    LambDickeInput,
    Truncation,
    basis_state,
    embed,
    fidelity,
    inner,
    ladder,
    laguerre_assoc,
    lamb_dicke,
    norm,
    sg_lower,
)


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


class TestSusskindGlogower:
    def test_shift(self):
        v_op = sg_lower(8).mat
        ket5 = np.eye(8)[5]
        assert np.allclose(v_op @ ket5, np.eye(8)[4])

    def test_vacuum_annihilated(self):
        v_op = sg_lower(8).mat
        assert np.allclose(v_op @ np.eye(8)[0], 0.0)

    def test_fourth_power_kills_three_phonons(self):
        v_op = sg_lower(8).mat
        assert np.allclose(np.linalg.matrix_power(v_op, 4) @ np.eye(8)[3], 0.0)

    def test_isometry_identities(self):
        dim = 9
        v = sg_lower(dim).mat
        vv = v @ v.conj().T
        sub = slice(0, dim - 1)
        assert np.max(np.abs(vv[sub, sub] - np.eye(dim - 1))) <= 1e-12
        vdv = v.conj().T @ v
        expected = np.eye(dim)
        expected[0, 0] = 0.0
        assert np.max(np.abs(vdv[sub, sub] - expected[sub, sub])) <= 1e-12

    def test_agrees_with_number_weighted_lowering(self):
        # (n+1)^(-1/2) a and the shift matrix must agree on n >= 1
        dim = 10
        a = ladder(dim, "lower").mat
        weights = np.diag(1.0 / np.sqrt(np.arange(dim) + 1.0))
        alt = weights @ a
        assert np.max(np.abs(alt - sg_lower(dim).mat)) <= 1e-12


class TestLambDicke:
    def test_cancellation(self):
        lam = 313e-9
        assert lamb_dicke(LambDickeInput(lam / (2 * math.pi), lam)) == pytest.approx(1.0)

    def test_linearity(self):
        lam = 500e-9
        eta = lamb_dicke(LambDickeInput(0.1 * lam / (2 * math.pi), lam))
        assert eta == pytest.approx(0.1)

    def test_beryllium_numbers(self):
        eta = lamb_dicke(LambDickeInput(10e-9, 313e-9))
        assert eta == pytest.approx(2 * math.pi * 10 / 313, rel=1e-14)
        assert eta == pytest.approx(0.2007, abs=5e-5)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            LambDickeInput(0.0, 313e-9)
        with pytest.raises(ValueError):
            LambDickeInput(1e-9, -1.0)


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


class TestInnerProducts:
    trunc = Truncation(10, 10, 2)

    def test_self_inner_is_one(self):
        s = basis_state("e", 3, 5, self.trunc)
        assert inner(s, s) == pytest.approx(1.0)
        assert norm(s) == pytest.approx(1.0)

    def test_orthogonal_fock_states(self):
        a = basis_state("g", 0, 8, self.trunc)
        b = basis_state("g", 8, 0, self.trunc)
        assert fidelity(a, b) == 0.0

    def test_half_overlap_with_noon(self):
        amp = np.zeros((2, 11, 11), dtype=complex)
        amp[0, 8, 0] = 1 / math.sqrt(2)
        amp[0, 0, 8] = 1 / math.sqrt(2)
        noon = HybridState(amp, self.trunc)
        assert fidelity(noon, basis_state("g", 8, 0, self.trunc)) == pytest.approx(0.5)

    def test_truncation_mismatch(self):
        with pytest.raises(ValueError):
            inner(basis_state("g", 0, 0, self.trunc), basis_state("g", 0, 0, Truncation(9, 9, 2)))


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

    def test_basis_state_outside_truncation(self):
        with pytest.raises(ValueError):
            basis_state("g", 13, 0, Truncation(12, 12, 4))
