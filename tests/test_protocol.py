import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from noonsim import (
    MeasureQubit,
    PhysicsError,
    Prepare,
    PulseSpec,
    Rotate,
    RotationSpec,
    SidebandPulse,
    SuperpositionPi,
    Truncation,
    VacuumPi,
    apply_pulse,
    build_noon8,
    noon_fidelity,
    noon_target,
    run_sequence,
    superposition_pulse_time,
    vacuum_pulse_time,
)
from noonsim.fock import HybridState, basis_state
from noonsim.dynamics import rabi_frequencies
from noonsim.protocol import mode_amplitudes, resolve_duration, solve_duration

TRUNC = Truncation(12, 12, 4)
SQRT24 = math.sqrt(24.0)
SQRT1680 = math.sqrt(1680.0)


class TestVacuumPulseTime:
    def test_unit_coupling(self):
        assert vacuum_pulse_time(1.0) == pytest.approx(0.320637457540466, rel=1e-12)

    def test_cancellation(self):
        assert vacuum_pulse_time(math.pi / (2 * SQRT24)) == pytest.approx(1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            vacuum_pulse_time(0.0)

    def test_simulated_excited_population_vanishes(self):
        g = 0.7
        steps = [
            Prepare("e", 0, 0),
            SidebandPulse(PulseSpec("x", 4, 0.2, 15000.0 * g, VacuumPi(), "closed")),
        ]
        result = run_sequence(steps, TRUNC)
        _, p_e = result.final_state.qubit_populations()
        assert p_e <= 1e-12


class TestSuperpositionPulseTime:
    def test_on_vacuum_resonance_grid(self):
        for horizon in (1, 10, 500):
            t, _ = superposition_pulse_time(1.0, horizon)
            assert math.sin(SQRT24 * t) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_large_horizon_is_accurate(self):
        _, infid = superposition_pulse_time(1.0, 1000)
        assert infid <= 1e-3

    def test_reported_infidelity_matches_grid(self):
        t, infid = superposition_pulse_time(2.3, 100)
        assert 1 - math.sin(SQRT1680 * 2.3 * t) ** 2 == pytest.approx(infid, abs=1e-12)

    @pytest.mark.parametrize("horizon", [1, 3, 10, 50])
    def test_monotone_in_horizon(self, horizon):
        _, infid_small = superposition_pulse_time(1.0, horizon)
        _, infid_large = superposition_pulse_time(1.0, 10 * horizon)
        assert infid_large <= infid_small

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            superposition_pulse_time(-1.0, 10)
        with pytest.raises(ValueError):
            superposition_pulse_time(1.0, 0)


def grid_candidates(w_vac, w_super, horizon):
    """Every candidate of the superposition search, evaluated in numpy.

    t_m = (2m + 3/2) pi / w_vac for m = 0..horizon; returns (t, sin^2(w_super t)).
    """
    m = np.arange(horizon + 1)
    t = (2.0 * m + 1.5) * math.pi / w_vac
    return t, np.sin(w_super * t) ** 2


def grid_oracle(w_vac, w_super, horizon):
    """The grid search that the exact solver replaced, kept as its oracle."""
    t, transfer = grid_candidates(w_vac, w_super, horizon)
    best = int(np.argmax(transfer))
    return float(t[best]), float(1.0 - transfer[best])


def solve_super(w_vac, w_super, horizon):
    return solve_duration(SuperpositionPi(horizon), w_vac, w_super)


def _closed_pair(g):
    return SQRT24 * g, SQRT1680 * g


def _full_pair(k, eta):
    spec = PulseSpec("x", k, eta, 15000.0, 0.0, "full")
    w_vac, w_super = rabi_frequencies(spec, [0, k]).tolist()
    return w_vac, w_super


FREQUENCY_PAIRS = [
    pytest.param(*_closed_pair(g), id=f"closed-g{g}") for g in (0.3, 0.5, 1.0, 1.7, 2.3, 7.9)
] + [
    pytest.param(*_full_pair(k, eta), id=f"full-k{k}-eta{eta}")
    for k in range(1, 7)
    for eta in (0.05, 0.2, 0.4)
]


class TestExactSuperpositionSolver:
    @pytest.mark.parametrize("w_vac, w_super", FREQUENCY_PAIRS)
    def test_matches_grid_at_every_record_horizon(self, w_vac, w_super):
        # a record is an m whose candidate beats every earlier one; at each
        # record horizon and one below it the oracle's answer changes
        t, transfer = grid_candidates(w_vac, w_super, 10**5)
        best_so_far = np.maximum.accumulate(transfer)
        records = np.flatnonzero(np.r_[True, transfer[1:] > best_so_far[:-1]])
        assert len(records) >= 8
        for previous, record in zip(np.r_[0, records[:-1]], records):
            for horizon, best in ((record, record), (record - 1, previous)):
                if horizon >= 1:
                    expected = (float(t[best]), float(1.0 - transfer[best]))
                    assert solve_super(w_vac, w_super, int(horizon)) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        w_vac=st.floats(1e-2, 1e3),
        n=st.integers(1, 10**4),
        d=st.integers(1, 100),
        horizons=st.tuples(st.integers(1, 5000), st.integers(1, 5000)).map(sorted),
    )
    def test_matches_grid_for_random_ratios(self, w_vac, n, d, horizons):
        # ratio sqrt(n / d), irrational as the sideband ratios sqrt(C(2k, k))
        # are: at a rational ratio with a small denominator candidates tie
        # exactly, and the grid breaks the tie by float rounding
        assume(math.isqrt(n * d) ** 2 != n * d)
        w_super = w_vac * math.sqrt(n / d)
        small, large = horizons
        t_small, infid_small = solve_super(w_vac, w_super, small)
        assert (t_small, infid_small) == grid_oracle(w_vac, w_super, small)
        _, infid_large = solve_super(w_vac, w_super, large)
        assert infid_large <= infid_small

    def test_matches_grid_at_horizon_1e6(self):
        w_vac, w_super = _closed_pair(1.0)
        assert superposition_pulse_time(1.0, 10**6) == grid_oracle(w_vac, w_super, 10**6)

    def test_horizon_1e12_is_fast_and_small(self):
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            superposition_pulse_time(1.0, 10**12)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.01
        tracemalloc.start()
        try:
            t, _ = superposition_pulse_time(1.0, 10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        m = round((t * SQRT24 / math.pi - 1.5) / 2.0)
        assert 10**6 < m <= 10**12
        assert t == (2.0 * m + 1.5) * math.pi / SQRT24

    def test_zero_partner_frequency_takes_the_first_candidate(self):
        # sin^2(0 t) = 0 for every candidate: all tie, the first one wins
        assert solve_super(2.0, 0.0, 10) == (1.5 * math.pi / 2.0, 1.0)

    def test_negative_partner_frequency_acts_as_its_magnitude(self):
        assert solve_super(1.0, -SQRT1680 / SQRT24, 1000) == solve_super(
            1.0, SQRT1680 / SQRT24, 1000
        )

    @pytest.mark.parametrize("w_vac, w_super", [(0.0, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_bad_frequencies_rejected(self, w_vac, w_super):
        with pytest.raises(ValueError):
            solve_super(w_vac, w_super, 10)


class TestResolveDuration:
    def test_vacuum_pi_for_k2_closed_pulse(self):
        spec, infid = resolve_duration(PulseSpec("x", 2, 0.2, 15000.0, VacuumPi(), "closed"))
        assert infid == 0.0
        out, _ = apply_pulse(basis_state("e", 0, 0, TRUNC), spec)
        assert out.population("g", 2, 0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("form", ["full", "closed"])
    def test_super_pi_for_k2_pulse_transfers_as_predicted(self, form):
        # the pulse must drive |g,2> -> |e,0> and its partner |e,2> -> |g,4>
        spec = PulseSpec("x", 2, 0.2, 15000.0, SuperpositionPi(1000), form)
        resolved, infid = resolve_duration(spec)
        out, _ = apply_pulse(basis_state("e", 2, 0, TRUNC), resolved)
        assert out.population("g", 4, 0) == pytest.approx(1.0 - infid, abs=1e-12)
        assert infid <= 1e-3
        out, _ = apply_pulse(basis_state("g", 2, 0, TRUNC), resolved)
        assert out.population("e", 0, 0) == pytest.approx(1.0, abs=1e-12)


class TestRunSequence:
    def test_prepare_only(self):
        result = run_sequence([Prepare("e", 0, 0)], TRUNC)
        assert result.final_state.population("e", 0, 0) == pytest.approx(1.0)
        assert result.measurements == []

    def test_prepare_must_be_first(self):
        with pytest.raises(ValueError):
            run_sequence([Rotate(RotationSpec(1.0, 0.0))], TRUNC)
        with pytest.raises(ValueError):
            run_sequence([Prepare("e", 0, 0), Prepare("g", 0, 0)], TRUNC)

    def test_outcome_probabilities_sum_to_one(self):
        steps = [
            Prepare("g", 0, 0),
            Rotate(RotationSpec(math.pi / 2, math.pi / 2)),
            MeasureQubit("e"),
        ]
        result = run_sequence(steps, TRUNC)
        p_g = result.diagnostics["step2_p_g"]
        p_e = result.diagnostics["step2_p_e"]
        assert p_g + p_e == pytest.approx(1.0, abs=1e-12)
        assert result.measurements[0].probability == pytest.approx(0.5)

    def test_degenerate_branch_raises(self):
        steps = [Prepare("g", 0, 0), MeasureQubit("e")]
        with pytest.raises(PhysicsError):
            run_sequence(steps, TRUNC)

    def test_norm_telescoping(self):
        steps = build_noon8(1.0, 1.0, 200)
        result = run_sequence(steps, TRUNC, outcome_override="e")
        # single measurement: branch probability equals the unnormalized
        # branch norm; the final state is renormalized
        from noonsim.fock import norm

        assert norm(result.final_state) == pytest.approx(1.0, abs=1e-12)
        assert result.postselect_probability == pytest.approx(
            result.measurements[0].probability
        )

    def test_leakage_limit_enforced(self):
        # drive from a state near the cutoff so four-phonon transfer leaks
        steps = [
            Prepare("e", 10, 0),
            SidebandPulse(PulseSpec("x", 4, 0.2, 15000.0, 0.05, "full")),
        ]
        with pytest.raises(PhysicsError):
            run_sequence(steps, TRUNC, leakage_limit=1e-12)


class TestCanonicalProtocol:
    steps = build_noon8(1.0, 1.0, 1000)

    def test_intermediate_fock_product(self):
        result = run_sequence(self.steps, TRUNC, outcome_override="e")
        _, state, _ = result.snapshots[4]  # after the second vacuum pulse
        sector = sum(state.population(q, 4, 4) for q in ("g", "e"))
        assert sector >= 1 - 1e-10

    def test_split_after_x_superposition_pulse(self):
        result = run_sequence(self.steps, TRUNC, outcome_override="e")
        _, state, _ = result.snapshots[5]  # after the x superposition pulse
        assert state.population("e", 0, 4) == pytest.approx(0.5, abs=1e-3)
        assert state.population("g", 8, 4) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("outcome", ["e", "g"])
    def test_measurement_probability(self, outcome):
        result = run_sequence(self.steps, TRUNC, outcome_override=outcome)
        assert result.measurements[0].probability == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("outcome", ["e", "g"])
    def test_noon_fidelity(self, outcome):
        result = run_sequence(self.steps, TRUNC, outcome_override=outcome)
        nf = noon_fidelity(result.final_state, 8)
        assert nf.best_fidelity >= 0.999
        if outcome == "g":
            assert abs(nf.best_phase) <= 0.1
        else:
            assert abs(abs(nf.best_phase) - math.pi) <= 0.1

    def test_outcome_states_orthogonal(self):
        m_e = mode_amplitudes(
            run_sequence(self.steps, TRUNC, outcome_override="e").final_state
        )
        m_g = mode_amplitudes(
            run_sequence(self.steps, TRUNC, outcome_override="g").final_state
        )
        assert abs(np.vdot(m_e, m_g)) ** 2 <= 1e-6

    def test_snapshot_leakage_small(self):
        result = run_sequence(self.steps, TRUNC, outcome_override="g")
        assert all(leakage < 1e-10 for _, _, leakage in result.snapshots)


class TestNoonTarget:
    def test_unit_norm(self):
        amp = noon_target(8, 0.7, TRUNC)
        assert np.linalg.norm(amp) == pytest.approx(1.0)

    def test_minus_combination(self):
        amp = noon_target(8, math.pi, TRUNC)
        assert amp[8, 0] == pytest.approx(1 / math.sqrt(2))
        assert amp[0, 8] == pytest.approx(-1 / math.sqrt(2))

    def test_plus_combination(self):
        amp = noon_target(8, 0.0, TRUNC)
        assert amp[8, 0] == pytest.approx(1 / math.sqrt(2))
        assert amp[0, 8] == pytest.approx(1 / math.sqrt(2))

    def test_truncation_too_small(self):
        with pytest.raises(ValueError):
            noon_target(13, 0.0, TRUNC)


class TestNoonFidelity:
    def test_exact_target(self):
        amp = np.zeros((2, 13, 13), dtype=complex)
        amp[0] = noon_target(8, 0.0, TRUNC)
        nf = noon_fidelity(HybridState(amp, TRUNC), 8)
        assert nf.best_fidelity == pytest.approx(1.0)
        assert nf.best_phase == pytest.approx(0.0)
        assert nf.fidelity_chi_0 == pytest.approx(1.0)
        assert nf.fidelity_chi_pi == pytest.approx(0.0, abs=1e-12)

    def test_single_fock_component(self):
        nf = noon_fidelity(basis_state("g", 8, 0, TRUNC), 8)
        assert nf.best_fidelity == pytest.approx(0.5)
        assert nf.fidelity_chi_0 == pytest.approx(0.5)
        assert nf.fidelity_chi_pi == pytest.approx(0.5)

    def test_mixed_qubit_level_rejected(self):
        amp = np.zeros((2, 13, 13), dtype=complex)
        amp[0, 8, 0] = amp[1, 0, 8] = 1 / math.sqrt(2)
        with pytest.raises(ValueError):
            noon_fidelity(HybridState(amp, TRUNC), 8)


class TestBuildNoon8:
    def test_shape_of_sequence(self):
        steps = build_noon8(1.0, 2.0, 300)
        kinds = [type(s).__name__ for s in steps]
        assert kinds == [
            "Prepare",
            "SidebandPulse",
            "Rotate",
            "SidebandPulse",
            "Rotate",
            "SidebandPulse",
            "SidebandPulse",
            "Rotate",
            "MeasureQubit",
        ]
        assert steps[1].spec.axis == "x"
        assert steps[3].spec.axis == "y"
        assert isinstance(steps[5].spec.duration, SuperpositionPi)
        assert steps[5].spec.duration.horizon == 300

    def test_positive_couplings_required(self):
        with pytest.raises(ValueError):
            build_noon8(0.0, 1.0, 10)

    def test_asymmetric_couplings_still_work(self):
        result = run_sequence(build_noon8(1.0, 1.7, 1000), TRUNC, outcome_override="g")
        assert noon_fidelity(result.final_state, 8).best_fidelity >= 0.999
