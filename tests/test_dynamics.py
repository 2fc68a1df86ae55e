import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noonsim import (
    PhysicsError,
    Prepare,
    PulseSpec,
    RotationSpec,
    SidebandPulse,
    Truncation,
    apply_operator,
    apply_pulse,
    apply_rotation,
    basis_state,
    build_noon8,
    carrier_rotation,
    closed_form_unitary,
    coupling_g,
    expm_oracle,
    ladder,
    noon_fidelity,
    run_sequence,
    scan_pulse,
    sideband_hamiltonian,
    SuperpositionPi,
)
from noonsim import dynamics
from noonsim.dynamics import (
    closed_form_frequencies,
    guard_band_population,
    rabi_frequencies,
)
from noonsim.fock import QUBIT_INDEX, FieldError, HybridState
from noonsim.protocol import VacuumPi, resolve_duration
from conftest import closed_form_hamiltonian

TRUNC = Truncation(12, 12, 4)


def closed_spec(axis="x", eta=0.2, omega=15000.0, t=0.0):
    return PulseSpec(axis, 4, eta, omega, t, "closed")


def random_state(rng, trunc):
    """Normalized state with support on every amplitude, guard band included."""
    shape = (2, trunc.dim_x, trunc.dim_y)
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return HybridState(amp / np.linalg.norm(amp), trunc)


class TestCouplingG:
    def test_small_eta(self):
        assert coupling_g(closed_spec(eta=0.2, omega=1.0)) == pytest.approx(
            6.666666666666667e-5, rel=1e-12
        )

    def test_factorial_cancellation(self):
        spec = PulseSpec("x", 4, 1.0, 24.0, 0.0, "closed")
        assert coupling_g(spec) == pytest.approx(1.0)

    def test_zero_omega(self):
        assert coupling_g(closed_spec(omega=0.0)) == 0.0

    def test_third_order(self):
        spec = PulseSpec("x", 3, 0.2, 15000.0, 0.0, "closed")
        assert coupling_g(spec) == 15000.0 * 0.2**3 / 6

    @pytest.mark.parametrize("k, eta, expected", [
        (2, 1e200, math.inf),  # eta^k is beyond the float range
        (171, 0.2, 0.0),  # k! is
        (200, 100.0, math.exp(200 * math.log(100.0) - math.lgamma(201))),  # both; g is not
    ])
    def test_beyond_the_float_range(self, k, eta, expected):
        spec = PulseSpec("x", k, eta, 1.0, 0.0, "closed")
        assert coupling_g(spec) == pytest.approx(expected, rel=1e-12)


class TestSidebandHamiltonian:
    def test_hermitian_exactly(self):
        h = sideband_hamiltonian(closed_spec(eta=0.1, omega=3.0), TRUNC)
        assert np.array_equal(h, h.conj().T)

    def test_zero_omega_gives_zero(self):
        h = sideband_hamiltonian(closed_spec(omega=0.0), TRUNC)
        assert np.all(h == 0)

    def test_small_eta_limit_matches_effective_coupling(self):
        # <e,0|H|g,4> / eta^4 -> Omega / sqrt(24) as eta -> 0
        omega = 2.5
        for eta in (1e-3, 1e-4):
            spec = PulseSpec("x", 4, eta, omega, 0.0, "full")
            h = sideband_hamiltonian(spec, TRUNC)
            bra = basis_state("e", 0, 0, TRUNC).ravel()
            ket = basis_state("g", 4, 0, TRUNC).ravel()
            elem = (bra.conj() @ h @ ket).real
            assert elem / eta**4 == pytest.approx(omega / math.sqrt(24), rel=5e-6)

    def test_guard_too_small(self):
        with pytest.raises(FieldError, match="^k must be <= the guard band 2, got 4$"):
            sideband_hamiltonian(closed_spec(), Truncation(12, 12, 2))


@functools.lru_cache(maxsize=None)
def displacement(eta: float) -> np.ndarray:
    """e^{i eta (a + a^dag)} on 220 levels, from ``ladder`` and ``expm_oracle``.

    For eta <= 1.5, growing the basis to 320 levels moves its elements up
    to level 102 by less than 1e-14, so the truncation plays no role.
    """
    a = ladder(220, "lower").mat
    return expm_oracle(a + a.conj().T, -eta)


@functools.lru_cache(maxsize=None)
def displacement_normal_order(eta: float) -> np.ndarray:
    """The same operator on 103 levels as e^{-eta^2/2} e^{i eta a^dag} e^{i eta a}.

    Each factor is the finite power series of the nilpotent truncated
    ladder, so every element is exact up to rounding, however small it is.
    """
    a = ladder(103, "lower").mat
    e_a = term = np.eye(103, dtype=complex)
    for j in range(1, 103):
        term = term @ (1j * eta * a) / j
        e_a = e_a + term
    return math.exp(-eta * eta / 2.0) * e_a.T @ e_a  # e^{i eta a^dag} is e^{i eta a}.T


def displaced_pairs(op: np.ndarray, k: int, levels) -> np.ndarray:
    """<n| op |n+k> / i^k for each n of ``levels``: Omega_n at Omega = 1."""
    n = np.asarray(levels)
    return op[n, n + k] / 1j**k


class TestRabiFrequencies:
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.4, 1.5])
    def test_full_table_is_the_displacement_operator_element(self, k, eta):
        # d - k = 97 pairs on the driven mode
        table = rabi_frequencies(PulseSpec("x", k, eta, 1.0, 0.0, "full"),
                                 Truncation(96 + k, 6, 6))
        ref = displaced_pairs(displacement(eta), k, range(97))
        assert np.max(np.abs(ref.imag)) <= 2e-13
        assert np.max(np.abs(table - ref.real)) <= 2e-13
        if eta <= 0.4:
            # a relative check for the entries far below the absolute bound
            ref = displaced_pairs(displacement_normal_order(eta), k, range(97))
            np.testing.assert_allclose(table, ref.real, rtol=1e-10, atol=0.0)

    def test_full_table_beyond_the_float_range(self):
        # 40^200 overflows and e^-800 underflows; their product does not
        omega_0 = dynamics.sideband_elements(1, 200, 40.0, 1.0)[0]
        expected = math.exp(-800.0 + 200 * math.log(40.0) - 0.5 * math.lgamma(201))
        assert omega_0 == pytest.approx(expected, rel=1e-10)
        # eta^2 = inf: the Laguerre values are nan, which the kernel reports
        assert not np.isfinite(dynamics.sideband_elements(3, 2, 1e200, 1.0)).all()

    def test_full_table_at_chosen_levels(self):
        # a smaller mode's table is the head of a larger one's, bit for bit
        spec = PulseSpec("x", 3, 0.2, 15000.0, 0.0, "full")
        levels = [5, 0, 3, 3]
        full = rabi_frequencies(spec, Truncation(8, 8, 4))
        small = rabi_frequencies(spec, Truncation(3, 3, 3))
        assert small.shape == (4,)
        assert np.array_equal(small, full[:4])
        ref = 15000.0 * displaced_pairs(displacement_normal_order(0.2), 3, levels).real
        np.testing.assert_allclose(full[levels], ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("g", [1.0, 6.666666666666667e-5, 0.7, 2.3])
    def test_closed_table_at_k4_is_the_four_phonon_product(self, g):
        n = np.arange(97, dtype=float)
        old = g * np.sqrt((n + 4.0) * (n + 3.0) * (n + 2.0) * (n + 1.0))
        assert np.array_equal(closed_form_frequencies(g, 4, n), old)

    def test_closed_table_is_the_loop_of_products_bit_for_bit(self):
        # the one reduction against k - 1 array products from (n + k) down, kept here as the
        # reference: same order, so same bits, inf and nan beyond the float range included
        def loop(g, k, n):
            n = np.asarray(n, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                prod = n + float(k)
                for j in range(k - 1, 0, -1):
                    prod = prod * (n + float(j))
                return g * np.sqrt(prod)

        rng = np.random.default_rng(17)
        for _ in range(1200):
            k = int(rng.integers(1, 40))
            g = [0.0, 1e-300, rng.uniform(0.0, 3.0), 1e300][rng.integers(4)]
            top = 10.0 ** rng.uniform(0.0, 90.0)
            n = rng.uniform(0.0, top) if rng.random() < 0.3 else rng.uniform(0.0, top, 7)
            out, ref = closed_form_frequencies(g, k, n), loop(g, k, n)
            assert np.shape(out) == np.shape(ref)
            assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()
        assert np.shape(closed_form_frequencies(1.0, 4, 3)) == ()


class TestClosedFormUnitary:
    def test_zero_time_is_identity(self):
        u = closed_form_unitary(1.0, 0.0, TRUNC, "x")
        assert np.allclose(u, np.eye(TRUNC.dim))

    def test_vacuum_pi_transfer(self):
        g = 1.3
        t = math.pi / (2 * math.sqrt(24) * g)
        u = closed_form_unitary(g, t, TRUNC, "x")
        out = apply_operator(u, basis_state("e", 0, 0, TRUNC))
        assert out.population("g", 4, 0) == pytest.approx(1.0, abs=1e-12)
        # phase is -i
        assert out.amp[QUBIT_INDEX["g"], 4, 0] == pytest.approx(-1j, abs=1e-12)

    def test_low_fock_ground_states_fixed(self):
        u = closed_form_unitary(1.0, 0.83, TRUNC, "x")
        for n in range(4):
            s = basis_state("g", n, 2, TRUNC)
            assert np.allclose(u @ s.ravel(), s.ravel())

    def test_exactly_unitary(self):
        u = closed_form_unitary(0.7, 2.9, TRUNC, "y")
        assert np.max(np.abs(u.conj().T @ u - np.eye(TRUNC.dim))) <= 1e-12

    def test_composition(self):
        g, t1, t2 = 1.1, 0.4, 1.9
        u1 = closed_form_unitary(g, t1, TRUNC, "x")
        u2 = closed_form_unitary(g, t2, TRUNC, "x")
        u12 = closed_form_unitary(g, t1 + t2, TRUNC, "x")
        assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-12

    def test_guard_violation(self):
        with pytest.raises(FieldError, match="^k must be <= the guard band 3, got 4$"):
            closed_form_unitary(1.0, 0.1, Truncation(12, 12, 3), "x")

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_unitary_at_the_smallest_fitting_truncation(self, axis):
        # n_max = guard = 4: one pair (|e, 0>, |g, 4>) per spectator level
        trunc = Truncation(4, 4, 4)
        u = closed_form_unitary(0.7, 2.9, trunc, axis)
        assert np.max(np.abs(u.conj().T @ u - np.eye(trunc.dim))) <= 1e-12
        assert np.count_nonzero(u - np.eye(trunc.dim)) == 4 * 5  # 4 entries per pair, 5 pairs

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="^axis must be 'x' or 'y', got 'z'$"):
            closed_form_unitary(1.0, 0.1, TRUNC, "z")

    def test_conserves_phonons_plus_excitation(self):
        rng = np.random.default_rng(7)
        n_x = np.arange(TRUNC.dim_x)
        for _ in range(20):
            amp = rng.normal(size=(2, 13, 13)) + 1j * rng.normal(size=(2, 13, 13))
            amp /= np.linalg.norm(amp)
            state = HybridState(amp, TRUNC)
            u = closed_form_unitary(rng.uniform(0.1, 2), rng.uniform(0, 3), TRUNC, "x")
            out = apply_operator(u, state)

            def charge(s):
                p = np.abs(s.amp) ** 2
                return float(np.sum(p * n_x[None, :, None]) + 4.0 * np.sum(p[1]))

            assert abs(charge(out) - charge(state)) <= 1e-12

    def test_pulse_leaves_other_axis_marginal(self):
        rng = np.random.default_rng(11)
        amp = rng.normal(size=(2, 13, 13)) + 1j * rng.normal(size=(2, 13, 13))
        amp /= np.linalg.norm(amp)
        state = HybridState(amp, TRUNC)
        u = closed_form_unitary(0.9, 1.7, TRUNC, "x")
        out = apply_operator(u, state)
        marg = lambda s: np.sum(np.abs(s.amp) ** 2, axis=(0, 1))
        assert np.max(np.abs(marg(out) - marg(state))) <= 1e-12


class TestEmbedQubitAxis:
    """The one lift of a (qubit, driven mode) operator into the full space."""

    trunc = Truncation(6, 5, 2)

    def lift(self, mode_op, axis, qubit_op=np.eye(2)):
        return dynamics._embed_qubit_axis(np.kron(qubit_op, mode_op), axis, self.trunc)

    def test_identity_lifts_to_identity(self):
        full = self.lift(np.eye(7, dtype=complex), "x")
        state = basis_state("g", 3, 2, self.trunc)
        assert np.array_equal(full, np.eye(self.trunc.dim))
        assert np.allclose(full @ state.ravel(), state.ravel())

    def test_lower_x_on_fock_state(self):
        full = self.lift(ladder(7, "lower", "x").mat, "x")
        state = basis_state("g", 4, 4, self.trunc)
        out = (full @ state.ravel()).reshape(state.amp.shape)
        assert out[0, 3, 4] == pytest.approx(2.0)  # sqrt(4)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(4.0)

    def test_lower_y_on_vacuum(self):
        full = self.lift(ladder(6, "lower", "y").mat, "y")
        state = basis_state("e", 4, 0, self.trunc)
        assert np.allclose(full @ state.ravel(), 0.0)

    def test_qubit_factor_acts_on_the_qubit_index(self):
        sigma_plus = np.zeros((2, 2), dtype=complex)
        sigma_plus[QUBIT_INDEX["e"], QUBIT_INDEX["g"]] = 1.0
        full = self.lift(ladder(6, "raise", "y").mat, "y", sigma_plus)
        out = full @ basis_state("g", 2, 3, self.trunc).ravel()
        expected = 2.0 * basis_state("e", 2, 4, self.trunc).ravel()  # sqrt(3 + 1)
        assert np.allclose(out, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.lift(ladder(9, "lower", "x").mat, "x")
        state = basis_state("g", 0, 0, self.trunc)
        with pytest.raises(ValueError, match="^operator dimension does not match state truncation$"):
            apply_operator(np.eye(self.trunc.dim - 1), state)

    def test_cross_axis_operators_commute(self):
        ax = self.lift(ladder(7, "lower", "x").mat, "x")
        by = self.lift(ladder(6, "raise", "y").mat, "y")
        assert np.array_equal(ax @ by, by @ ax)


class TestExpmOracle:
    def test_zero_hamiltonian(self):
        assert np.allclose(expm_oracle(np.zeros((6, 6)), 1.3), np.eye(6))

    def test_zero_time(self):
        h = np.diag([0.0, 1.0, 2.0])
        assert np.allclose(expm_oracle(h, 0.0), np.eye(3))

    def test_semigroup(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = m + m.conj().T
        u = lambda t: expm_oracle(h, t)
        assert np.max(np.abs(u(0.3) @ u(1.1) - u(1.4))) <= 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        h = m + m.conj().T
        u = expm_oracle(h, 2.2)
        assert np.max(np.abs(u.conj().T @ u - np.eye(10))) <= 1e-10

    def test_non_hermitian_rejected(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(ValueError):
            expm_oracle(h, 1.0)


class TestCarrierRotation:
    def test_is_the_qubit_rotation_times_the_mode_identity(self):
        trunc = Truncation(5, 8, 2)
        rng = np.random.default_rng(8)
        for _ in range(10):
            spec = RotationSpec(rng.uniform(-7, 7), rng.uniform(-7, 7))
            ref = np.kron(dynamics._qubit_rotation(spec), np.eye(trunc.dim_x * trunc.dim_y))
            assert np.array_equal(carrier_rotation(spec, trunc), ref)

    def test_zero_angle(self):
        u = carrier_rotation(RotationSpec(0.0, 1.2), TRUNC)
        assert np.allclose(u, np.eye(TRUNC.dim))

    def test_two_pi_is_minus_identity(self):
        u = carrier_rotation(RotationSpec(2 * math.pi, 0.3), TRUNC)
        assert np.max(np.abs(u + np.eye(TRUNC.dim))) <= 1e-12

    def test_half_pi_convention(self):
        u = carrier_rotation(RotationSpec(math.pi / 2, -math.pi / 2), TRUNC)
        e = basis_state("e", 0, 0, TRUNC)
        out = apply_operator(u, e)
        r = 1 / math.sqrt(2)
        assert out.amp[QUBIT_INDEX["e"], 0, 0] == pytest.approx(r, abs=1e-12)
        assert out.amp[QUBIT_INDEX["g"], 0, 0] == pytest.approx(r, abs=1e-12)
        g = basis_state("g", 0, 0, TRUNC)
        out = apply_operator(u, g)
        assert out.amp[QUBIT_INDEX["e"], 0, 0] == pytest.approx(-r, abs=1e-12)
        assert out.amp[QUBIT_INDEX["g"], 0, 0] == pytest.approx(r, abs=1e-12)

    def test_analysis_rotation_splits_entangled_state(self):
        # (|e>|0,8> + |g>|8,0>)/sqrt(2) -> [|e>(|0,8>-|8,0>) + |g>(|0,8>+|8,0>)]/2
        amp = np.zeros((2, 13, 13), dtype=complex)
        r = 1 / math.sqrt(2)
        amp[QUBIT_INDEX["e"], 0, 8] = r
        amp[QUBIT_INDEX["g"], 8, 0] = r
        state = HybridState(amp, TRUNC)
        u = carrier_rotation(RotationSpec(math.pi / 2, -math.pi / 2), TRUNC)
        out = apply_operator(u, state)
        assert out.amp[QUBIT_INDEX["e"], 0, 8] == pytest.approx(0.5, abs=1e-12)
        assert out.amp[QUBIT_INDEX["e"], 8, 0] == pytest.approx(-0.5, abs=1e-12)
        assert out.amp[QUBIT_INDEX["g"], 0, 8] == pytest.approx(0.5, abs=1e-12)
        assert out.amp[QUBIT_INDEX["g"], 8, 0] == pytest.approx(0.5, abs=1e-12)


class TestApplyPulse:
    def test_zero_duration(self):
        state = basis_state("e", 2, 3, TRUNC)
        out, leakage = apply_pulse(state, closed_spec(), 0.0)
        assert abs(np.vdot(out.amp, state.amp)) ** 2 == pytest.approx(1.0)
        assert leakage == 0.0

    def test_vacuum_transfer_closed(self):
        spec = PulseSpec("x", 4, 0.2, 15000.0, VacuumPi(), "closed")
        t, _ = resolve_duration(spec, rabi_frequencies(spec, TRUNC))
        out, leakage = apply_pulse(basis_state("e", 0, 0, TRUNC), spec, t)
        assert out.population("g", 4, 0) == pytest.approx(1.0, abs=1e-12)
        assert leakage <= 1e-12

    def test_full_form_matches_closed_at_small_eta(self):
        eta = 0.05
        omega = 24.0 / eta**4  # g = 1
        t = math.pi / (2 * math.sqrt(24))
        closed, _ = apply_pulse(
            basis_state("e", 0, 0, TRUNC), PulseSpec("x", 4, 0.2, 15000.0, t, "closed"), t
        )
        full, _ = apply_pulse(
            basis_state("e", 0, 0, TRUNC), PulseSpec("x", 4, eta, omega, t, "full"), t
        )
        assert abs(np.vdot(closed.amp, full.amp)) ** 2 >= 1 - 1e-3

    @pytest.mark.parametrize("held", [0.1, VacuumPi(), SuperpositionPi(10)],
                             ids=["seconds", "vacuum", "super"])
    def test_spec_duration_is_ignored(self, held):
        # the pulse runs for the seconds it is given: a marker's solved ones, or 0.2 for a
        # spec that holds 0.1, exactly as a spec that holds those seconds runs
        spec = closed_spec(t=held)
        solved, _ = resolve_duration(spec, rabi_frequencies(spec, TRUNC))
        t = 0.2 if isinstance(held, float) else solved
        state = random_state(np.random.default_rng(12), TRUNC)
        out, leakage = apply_pulse(state, spec, t)
        ref, ref_leakage = apply_pulse(state, closed_spec(t=t), t)
        assert (out.amp.tobytes(), leakage) == (ref.amp.tobytes(), ref_leakage)

    @pytest.mark.parametrize("scalar", [np.float32, np.float64, np.int64])
    def test_numpy_scalar_duration_runs_as_its_float(self, scalar):
        rng = np.random.default_rng(3)
        if scalar is np.int64:
            values = rng.integers(0, 5, 6).tolist()
        else:  # values exact in float32, so that the cast keeps them
            values = rng.uniform(0.0, 2.0, 6).astype(np.float32).tolist()
        state = random_state(rng, TRUNC)
        for value in values:
            out, leakage = apply_pulse(state, closed_spec(), scalar(value))
            ref, ref_leakage = apply_pulse(state, closed_spec(), float(value))
            assert (out.amp.tobytes(), leakage) == (ref.amp.tobytes(), ref_leakage)
            run, ref_run = (
                run_sequence([Prepare("e", 1, 2), SidebandPulse(closed_spec(t=t))], TRUNC)
                for t in (scalar(value), float(value))
            )
            assert run == ref_run
            assert run.final_state.amp.tobytes() == ref_run.final_state.amp.tobytes()


class TestOracleEquivalence:
    @pytest.mark.parametrize("eta", [0.01, 0.05])
    def test_closed_vs_full_propagation(self, eta):
        rng = np.random.default_rng(42)
        omega = 24.0 / eta**4  # g = 1
        h = sideband_hamiltonian(PulseSpec("x", 4, eta, omega, 0.0, "full"), TRUNC)
        t_transfer = math.pi / (2 * math.sqrt(24))  # vacuum pi time at g = 1
        for _ in range(20):
            # durations on the single-transfer timescale; over much longer
            # pulses the O(eta^2) frequency shifts accumulate without bound
            t = rng.uniform(0.0, t_transfer)
            amp = np.zeros((2, 13, 13), dtype=complex)
            # keep support below the guard band so truncation plays no role
            core = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
            amp[:, :8, :8] = core / np.linalg.norm(core)
            state = HybridState(amp, TRUNC)
            u_closed = closed_form_unitary(1.0, t, TRUNC, "x")
            u_full = expm_oracle(h, t)
            f = abs(np.vdot(u_closed @ state.ravel(), u_full @ state.ravel())) ** 2
            assert f >= 1 - 5 * eta**2


class TestPairRotationKernel:
    """The runtime propagators against the dense reference builders."""

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_full_form_matches_expm_oracle(self, k, axis):
        # n_max_x != n_max_y, so applying the pulse to the wrong axis shows
        trunc = Truncation(7, 10, k)
        rng = np.random.default_rng(100 + k)
        # three random eta, then two beyond the Lamb-Dicke regime, where
        # the Laguerre factor turns some Omega_n negative
        for eta in (None, None, None, 1.0, 1.5):
            eta = rng.uniform(0.05, 0.6) if eta is None else eta
            spec = PulseSpec(axis, k, eta, rng.uniform(1.0, 50.0),
                             rng.uniform(0.0, 3.0), "full")
            state = random_state(rng, trunc)
            out, leakage = apply_pulse(state, spec, spec.duration)
            u = expm_oracle(sideband_hamiltonian(spec, trunc), spec.duration)
            ref = apply_operator(u, state)
            assert np.max(np.abs(out.amp - ref.amp)) <= 1e-12
            assert leakage == pytest.approx(guard_band_population(ref, axis), abs=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_closed_form_matches_expm_oracle(self, k, axis):
        # the closed form is exp(-i g_k (sigma_+ a^k + h.c.) t)
        trunc = Truncation(7, 10, k)
        top = math.sqrt(math.perm(trunc.dim_of(axis) - 1, k))  # largest pair frequency at g = 1
        rng = np.random.default_rng(200 + k)
        for _ in range(3):
            eta = rng.uniform(0.05, 0.6)
            omega = rng.uniform(1.0, 10.0) / top * math.factorial(k) / eta**k
            spec = PulseSpec(axis, k, eta, omega, rng.uniform(0.0, 3.0), "closed")
            state = random_state(rng, trunc)
            out, leakage = apply_pulse(state, spec, spec.duration)
            ref = apply_operator(expm_oracle(closed_form_hamiltonian(spec, trunc), spec.duration),
                                 state)
            assert np.max(np.abs(out.amp - ref.amp)) <= 1e-12
            assert leakage == pytest.approx(guard_band_population(ref, axis), abs=1e-12)

    @pytest.mark.parametrize("form", ["closed", "full"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_smallest_fitting_truncation_matches_expm_oracle(self, k, axis, form):
        # n_max = guard = k leaves the driven mode k + 1 levels: one pair
        # (|e, 0>, |g, k>) per spectator level
        trunc = Truncation(k, k, k)
        rng = np.random.default_rng(300 + k)
        spec = PulseSpec(axis, k, rng.uniform(0.05, 0.6), rng.uniform(1.0, 50.0),
                         rng.uniform(0.0, 3.0), form)
        assert len(rabi_frequencies(spec, trunc)) == k + 1  # Omega_0 .. Omega_k for the solver
        spectator_levels = trunc.dim_of("y" if axis == "x" else "x")
        full = sideband_hamiltonian(spec, trunc)
        h = full if form == "full" else closed_form_hamiltonian(spec, trunc)
        assert np.count_nonzero(np.triu(full)) == np.count_nonzero(np.triu(h)) == spectator_levels
        state = random_state(rng, trunc)
        out, leakage = apply_pulse(state, spec, spec.duration)
        ref = apply_operator(expm_oracle(h, spec.duration), state)
        assert np.max(np.abs(out.amp - ref.amp)) <= 1e-12
        assert leakage == pytest.approx(guard_band_population(ref, axis), abs=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_closed_form_matches_closed_form_unitary(self, axis):
        trunc = Truncation(9, 13, 4)
        rng = np.random.default_rng(5)
        for _ in range(5):
            spec = closed_spec(axis, omega=rng.uniform(1e3, 3e4), t=rng.uniform(0.0, 2.0))
            state = random_state(rng, trunc)
            out, _ = apply_pulse(state, spec, spec.duration)
            ref = apply_operator(
                closed_form_unitary(coupling_g(spec), spec.duration, trunc, axis), state
            )
            assert np.max(np.abs(out.amp - ref.amp)) <= 1e-13

    @pytest.mark.parametrize("trunc", [Truncation(5, 8, 2), Truncation(9, 3, 0),
                                       Truncation(1, 12, 1), Truncation(12, 1, 0)])
    def test_rotation_matches_dense_carrier(self, trunc):
        # the k = 0 pair kernel against the Pauli-matrix oracle, dx != dy
        rng = np.random.default_rng(6)
        thetas = [0.0, 2 * math.pi, -2 * math.pi] + rng.uniform(-7, 7, 5).tolist()
        for theta in thetas:
            spec = RotationSpec(theta, rng.uniform(-7, 7))
            state = random_state(rng, trunc)
            ref = apply_operator(carrier_rotation(spec, trunc), state)
            assert np.max(np.abs(apply_rotation(state, spec).amp - ref.amp)) <= 1e-14

    def test_carrier_is_the_same_along_either_axis(self):
        # at k = 0 a pair is (|e, n>, |g, n>), so the driven axis only orders the pairs
        trunc = Truncation(7, 4, 0)
        rng = np.random.default_rng(9)
        for _ in range(5):
            amp = random_state(rng, trunc).amp
            theta, phi = rng.uniform(-7, 7, 2)
            along = {axis: dynamics._rotate_pairs(amp, axis, 0, np.full((1, trunc.dim_of(axis)),
                                                                         theta / 2), phi)
                     for axis in "xy"}
            assert along["x"].tobytes() == along["y"].tobytes()
            assert along["x"][0].tobytes() == apply_rotation(
                HybridState(amp, trunc), RotationSpec(theta, phi)).amp.tobytes()

    def test_guard_check_applies_to_the_kernel(self):
        with pytest.raises(FieldError, match="^k must be <= the guard band 2, got 4$"):
            apply_pulse(basis_state("e", 0, 0, Truncation(12, 12, 2)), closed_spec(), 0.1)

    @pytest.mark.parametrize("form", ["closed", "full"])
    def test_noon8_at_nmax_96_matches_nmax_24(self, form, no_dense_operators):
        # one dense operator at n_max = 96 would take about 5.7 GB
        steps = build_noon8(1.0, 1.0, 1000)
        steps = [
            SidebandPulse(dataclasses.replace(s.spec, form=form))
            if isinstance(s, SidebandPulse) else s
            for s in steps
        ]
        for outcome in ("g", "e"):
            small = run_sequence(steps, Truncation(24, 24, 4), outcome_override=outcome)
            large = run_sequence(steps, Truncation(96, 96, 4), outcome_override=outcome)
            f_small = noon_fidelity(small.final_state, 8).best_fidelity
            f_large = noon_fidelity(large.final_state, 8).best_fidelity
            assert f_small >= 0.999
            assert f_large == pytest.approx(f_small, abs=1e-12)
            assert large.postselect_probability == pytest.approx(
                small.postselect_probability, abs=1e-12
            )


class TestScanPulse:
    """The batched scan against one ``apply_pulse`` per sample, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_apply_pulse_per_sample(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        # at least 6, so that one chunk holds at most a few hundred samples
        n_max_x = data.draw(st.integers(max(k + 1, 6), 14), label="n_max_x")
        n_max_y = data.draw(st.integers(max(k + 1, 6), 14).filter(lambda n: n != n_max_x),
                            label="n_max_y")
        guard = data.draw(st.one_of(st.just(0), st.integers(k, min(n_max_x, n_max_y))),
                          label="guard")
        trunc = Truncation(n_max_x, n_max_y, guard)
        spec = PulseSpec(
            data.draw(st.sampled_from("xy"), label="axis"), k,
            data.draw(st.floats(0.01, 0.9), label="eta"),
            data.draw(st.floats(0.1, 50.0), label="omega"),
            0.0, data.draw(st.sampled_from(["closed", "full"]), label="form"),
        )
        state = random_state(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), trunc)
        # sample counts on both sides of one and two chunks
        chunk = dynamics._CHUNK_AMPLITUDES // state.amp.size
        count = data.draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]),
                          label="samples")
        t0, t1 = data.draw(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)))
        ts = np.linspace(t0, t1, count)

        if guard < k:
            message = f"^k must be <= the guard band {guard}, got {k}$"
            with pytest.raises(FieldError, match=message) as one:
                apply_pulse(state, spec, ts[0])
            with pytest.raises(FieldError, match=message) as batch:
                scan_pulse(state, spec, ts)
            assert str(batch.value) == str(one.value)
            return

        p_g, p_e, leakage = scan_pulse(state, spec, ts)
        freq = rabi_frequencies(spec, trunc)
        angles = freq[: trunc.dim_of(spec.axis) - k] * ts[:, None]
        amps = dynamics._rotate_pairs(state.amp, spec.axis, k, angles)
        rows = []
        for i, t in enumerate(ts.tolist()):
            out, leak = apply_pulse(state, spec, t)
            assert np.array_equal(amps[i], out.amp)
            rows.append((*out.qubit_populations(), leak))
        assert list(zip(p_g.tolist(), p_e.tolist(), leakage.tolist())) == rows

    def test_spec_duration_is_ignored(self):
        state = basis_state("e", 0, 0, TRUNC)
        p_g, p_e, leakage = scan_pulse(state, closed_spec(t=VacuumPi()), [0.0])
        assert (p_g.tolist(), p_e.tolist(), leakage.tolist()) == ([0.0], [1.0], [0.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration(self, value):
        with pytest.raises(ValueError, match="duration must be finite"):
            scan_pulse(basis_state("e", 0, 0, TRUNC), closed_spec(), [0.1, value, 0.2])

    @pytest.mark.parametrize("value", [True, "0.1", None, "a", 1 + 1j])
    def test_duration_that_is_not_a_real_number(self, value):
        # rejected as PulseSpec rejects it, also next to a float that numpy would coerce it to
        with pytest.raises(FieldError) as spec:
            closed_spec(t=value)
        with pytest.raises(FieldError) as scan:
            scan_pulse(basis_state("e", 0, 0, TRUNC), closed_spec(), [0.1, value])
        assert str(scan.value) == str(spec.value) == f"duration must be a real number, got {value!r}"

    @pytest.mark.parametrize(
        "durations, shape", [(0.1, r"\(\)"), ([[0.1, 0.2]], r"\(1, 2\)")], ids=["scalar", "2-D"]
    )
    def test_durations_must_be_one_dimensional(self, durations, shape):
        with pytest.raises(ValueError, match=f"^durations must be a 1-D sequence, got shape {shape}$"):
            scan_pulse(basis_state("e", 0, 0, TRUNC), closed_spec(), durations)

    @pytest.mark.parametrize("scale", [2.0, math.nan])
    def test_each_sample_is_checked_as_a_hybrid_state(self, scale):
        state = basis_state("e", 0, 0, TRUNC)
        bad = state.amp * scale
        with pytest.raises(ValueError) as direct:
            HybridState(bad, TRUNC)
        state.amp[...] = bad  # past the constructor's check
        with pytest.raises(ValueError) as batch:
            scan_pulse(state, closed_spec(), [0.0, 0.1])
        assert str(batch.value) == str(direct.value)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_overflowing_phase_names_the_pulse(self, axis):
        # Omega_n t overflows to inf; cos / sin of it would warn and give nan
        state = basis_state("e", 0, 0, TRUNC)
        message = f"pulse axis={axis} k=4: phase Omega_n t = inf is not finite at n = 0"
        with pytest.raises(PhysicsError, match=message):
            apply_pulse(state, closed_spec(axis), 1e308)
        with pytest.raises(PhysicsError, match=message):
            scan_pulse(state, closed_spec(axis), [0.0, 1e308])


class TestNonFiniteInput:
    @pytest.mark.parametrize("field", ["eta", "omega", "duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32("nan")])
    def test_pulse_spec(self, field, value):
        spec = closed_spec(t=0.1)
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(spec, **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("duration", "0.1", r"^duration must be a real number, got '0.1'$"),
            ("duration", None, "^duration must be a real number, got None$"),
            ("duration", True, "^duration must be a real number, got True$"),
            ("duration", 1 + 0j, r"^duration must be a real number, got \(1\+0j\)$"),
            ("eta", True, "^eta must be a real number, got True$"),
            ("eta", "0.2", "^eta must be a real number, got '0.2'$"),
            ("omega", False, "^omega must be a real number, got False$"),
            ("omega", 1 + 0j, r"^omega must be a real number, got \(1\+0j\)$"),
            ("k", True, "^k must be an integer, got True$"),
            ("k", 4.0, "^k must be an integer, got 4.0$"),
            ("axis", 0, "^axis must be 'x' or 'y', got 0$"),
            ("form", None, "^form must be 'closed' or 'full', got None$"),
        ],
        ids=[
            "str-duration", "None-duration", "bool-duration", "complex-duration",
            "bool-eta", "str-eta", "bool-omega", "complex-omega",
            "bool-k", "float-k", "int-axis", "None-form",
        ],
    )
    def test_pulse_spec_field_of_the_wrong_type(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(closed_spec(t=0.1), **{field: value})

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, np.float32("nan"), 10**400, "0.1", None, True, 1 + 0j,
         VacuumPi(), SuperpositionPi(10)],
        ids=["nan", "inf", "-inf", "float32-nan", "huge-int", "str", "None", "bool", "complex",
             "vacuum-marker", "super-marker"],
    )
    def test_pulse_duration_argument(self, value):
        # both entry points check a duration as PulseSpec checks its own; a marker is
        # solved into seconds by the protocol engine, so as a duration it is not a number
        state = basis_state("e", 0, 0, TRUNC)
        with pytest.raises(FieldError) as one:
            apply_pulse(state, closed_spec(t=0.1), value)
        with pytest.raises(FieldError) as scan:
            scan_pulse(state, closed_spec(t=0.1), [0.1, value])
        assert one.value.field == "duration"
        assert str(one.value) == str(scan.value)
        if not isinstance(value, (VacuumPi, SuperpositionPi)):
            with pytest.raises(FieldError) as spec:
                closed_spec(t=value)
            assert str(one.value) == str(spec.value)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda value: PulseSpec("x", 4, value, 1.0, 0.1), "eta"),
            (lambda value: RotationSpec(value, 0.0), "theta"),
        ],
        ids=["pulse-eta", "rotation-theta"],
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_beyond_the_float_range(self, build, field, sign):
        # 10**400 is finite as an int, but no float holds it; its 401 digits are not quoted
        with pytest.raises(ValueError, match=f"^{field} must be finite, got an integer of 1329 bits$"):
            build(sign * 10**400)
        build(10**300)  # an int within the float range stands

    @pytest.mark.parametrize("field", ["theta", "phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True])
    def test_rotation_spec(self, field, value):
        kind = "a real number" if value is True else "finite"
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {value!r}$"):
            dataclasses.replace(RotationSpec(1.0, 0.5), **{field: value})
