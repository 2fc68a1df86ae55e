import math

import numpy as np
import pytest

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
from noonsim.protocol import mode_amplitudes, resolve_duration

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


class TestResolveDuration:
    def test_super_pi_for_k2_full_pulse_transfers_as_predicted(self):
        # the pulse must drive |g,2> -> |e,0> and its partner |e,2> -> |g,4>
        spec = PulseSpec("x", 2, 0.2, 15000.0, SuperpositionPi(1000), "full")
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
