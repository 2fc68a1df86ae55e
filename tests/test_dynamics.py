import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noonsim import (
    PhysicsError,
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
    embed,
    expm_oracle,
    ladder,
    noon_fidelity,
    run_sequence,
    scan_pulse,
    sideband_hamiltonian,
)
from noonsim import dynamics
from noonsim.dynamics import (
    closed_form_frequencies,
    guard_band_population,
    rabi_frequencies,
    sideband_element,
)
from noonsim.fock import QUBIT_INDEX, HybridState, ModeOperator
from noonsim.protocol import VacuumPi, resolve_duration

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
        with pytest.raises(PhysicsError):
            sideband_hamiltonian(closed_spec(), Truncation(12, 12, 2))


class TestRabiFrequencies:
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.4])
    def test_full_table_matches_sideband_element(self, k, eta):
        # d - k = 97 pairs on the driven mode
        table = rabi_frequencies(PulseSpec("x", k, eta, 15000.0, 0.0, "full"),
                                 Truncation(96 + k, 6, 6))
        ref = np.array([sideband_element(m, k, eta, 15000.0) for m in range(97)])
        np.testing.assert_allclose(table, ref, rtol=1e-14, atol=0.0)

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
        ref = np.array([sideband_element(m, 3, 0.2, 15000.0) for m in levels])
        np.testing.assert_allclose(full[levels], ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("g", [1.0, 6.666666666666667e-5, 0.7, 2.3])
    def test_closed_table_at_k4_is_the_four_phonon_product(self, g):
        n = np.arange(97, dtype=float)
        old = g * np.sqrt((n + 4.0) * (n + 3.0) * (n + 2.0) * (n + 1.0))
        assert np.array_equal(closed_form_frequencies(g, 4, n), old)


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
        with pytest.raises(PhysicsError):
            closed_form_unitary(1.0, 0.1, Truncation(12, 12, 3), "x")

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
        out, leakage = apply_pulse(state, closed_spec(t=0.0))
        assert abs(np.vdot(out.amp, state.amp)) ** 2 == pytest.approx(1.0)
        assert leakage == 0.0

    def test_vacuum_transfer_closed(self):
        spec = PulseSpec("x", 4, 0.2, 15000.0, VacuumPi(), "closed")
        spec, _ = resolve_duration(spec, rabi_frequencies(spec, TRUNC))
        out, leakage = apply_pulse(basis_state("e", 0, 0, TRUNC), spec)
        assert out.population("g", 4, 0) == pytest.approx(1.0, abs=1e-12)
        assert leakage <= 1e-12

    def test_full_form_matches_closed_at_small_eta(self):
        eta = 0.05
        omega = 24.0 / eta**4  # g = 1
        t = math.pi / (2 * math.sqrt(24))
        closed, _ = apply_pulse(
            basis_state("e", 0, 0, TRUNC), PulseSpec("x", 4, 0.2, 15000.0, t, "closed")
        )
        full, _ = apply_pulse(
            basis_state("e", 0, 0, TRUNC), PulseSpec("x", 4, eta, omega, t, "full")
        )
        assert abs(np.vdot(closed.amp, full.amp)) ** 2 >= 1 - 1e-3

    def test_symbolic_duration_rejected(self):
        spec = PulseSpec("x", 4, 0.2, 15000.0, VacuumPi(), "closed")
        with pytest.raises(ValueError):
            apply_pulse(basis_state("e", 0, 0, TRUNC), spec)


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
        for _ in range(3):
            spec = PulseSpec(axis, k, rng.uniform(0.05, 0.6), rng.uniform(1.0, 50.0),
                             rng.uniform(0.0, 3.0), "full")
            state = random_state(rng, trunc)
            out, leakage = apply_pulse(state, spec)
            u = expm_oracle(sideband_hamiltonian(spec, trunc), spec.duration)
            ref = apply_operator(u, state)
            assert np.max(np.abs(out.amp - ref.amp)) <= 1e-12
            assert leakage == pytest.approx(guard_band_population(ref, axis), abs=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_closed_form_matches_expm_oracle(self, k, axis):
        # the closed form is exp(-i g_k (sigma_+ a^k + h.c.) t), built here
        # from the ladder operator, independently of the frequency table
        trunc = Truncation(7, 10, k)
        d = trunc.dim_of(axis)
        sigma_plus = np.zeros((2, 2), dtype=complex)
        sigma_plus[QUBIT_INDEX["e"], QUBIT_INDEX["g"]] = 1.0
        a_k = np.linalg.matrix_power(ladder(d, "lower", axis).mat, k)
        coupling = embed(ModeOperator(sigma_plus, "qubit"), trunc) @ embed(
            ModeOperator(a_k, axis), trunc
        )
        top = math.sqrt(math.perm(d - 1, k))  # largest pair frequency at g = 1
        rng = np.random.default_rng(200 + k)
        for _ in range(3):
            eta = rng.uniform(0.05, 0.6)
            omega = rng.uniform(1.0, 10.0) / top * math.factorial(k) / eta**k
            spec = PulseSpec(axis, k, eta, omega, rng.uniform(0.0, 3.0), "closed")
            h = coupling_g(spec) * coupling
            state = random_state(rng, trunc)
            out, leakage = apply_pulse(state, spec)
            ref = apply_operator(expm_oracle(h + h.conj().T, spec.duration), state)
            assert np.max(np.abs(out.amp - ref.amp)) <= 1e-12
            assert leakage == pytest.approx(guard_band_population(ref, axis), abs=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_closed_form_matches_closed_form_unitary(self, axis):
        trunc = Truncation(9, 13, 4)
        rng = np.random.default_rng(5)
        for _ in range(5):
            spec = closed_spec(axis, omega=rng.uniform(1e3, 3e4), t=rng.uniform(0.0, 2.0))
            state = random_state(rng, trunc)
            out, _ = apply_pulse(state, spec)
            ref = apply_operator(
                closed_form_unitary(coupling_g(spec), spec.duration, trunc, axis), state
            )
            assert np.max(np.abs(out.amp - ref.amp)) <= 1e-13

    def test_rotation_matches_dense_carrier(self):
        trunc = Truncation(5, 8, 2)
        rng = np.random.default_rng(6)
        for _ in range(5):
            spec = RotationSpec(rng.uniform(-7, 7), rng.uniform(-7, 7))
            state = random_state(rng, trunc)
            ref = apply_operator(carrier_rotation(spec, trunc), state)
            assert np.max(np.abs(apply_rotation(state, spec).amp - ref.amp)) <= 1e-14

    def test_guard_check_applies_to_the_kernel(self):
        with pytest.raises(PhysicsError):
            apply_pulse(basis_state("e", 0, 0, Truncation(12, 12, 2)), closed_spec())

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
            with pytest.raises(PhysicsError) as one:
                apply_pulse(state, spec)
            with pytest.raises(PhysicsError) as batch:
                scan_pulse(state, spec, ts)
            assert str(batch.value) == str(one.value)
            return

        p_g, p_e, leakage = scan_pulse(state, spec, ts)
        freq = rabi_frequencies(spec, trunc)
        amps = dynamics._rotate_pairs(state.amp, spec, freq, ts)
        rows = []
        for i, t in enumerate(ts.tolist()):
            out, leak = apply_pulse(state, dataclasses.replace(spec, duration=t))
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
            apply_pulse(state, closed_spec(axis, t=1e308))
        with pytest.raises(PhysicsError, match=message):
            scan_pulse(state, closed_spec(axis), [0.0, 1e308])


class TestNonFiniteInput:
    @pytest.mark.parametrize("field", ["eta", "omega", "duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_pulse_spec(self, field, value):
        spec = closed_spec(t=0.1)
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(spec, **{field: value})

    @pytest.mark.parametrize("field", ["theta", "phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rotation_spec(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(RotationSpec(1.0, 0.5), **{field: value})
