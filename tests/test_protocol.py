import logging
import math
import random
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from noonsim import (
    MeasureQubit,
    PhysicsError,
    Prepare,
    PulseSpec,
    Rotate,
    RotationSpec,
    SidebandPulse,
    StepRecord,
    SuperpositionPi,
    Truncation,
    VacuumPi,
    apply_pulse,
    apply_rotation,
    build_noon8,
    ladder,
    noon_fidelity,
    run_sequence,
    superposition_pulse_time,
    vacuum_pulse_time,
)
from noonsim.fock import FieldError, HybridState, basis_state
from noonsim.dynamics import rabi_frequencies
from noonsim.protocol import (
    _RUN_TAIL,
    _nearer_steps,
    _runs,
    mode_amplitudes,
    qubit_level,
    resolve_duration,
    solve_duration,
)
from conftest import random_program, run_dense

TRUNC = Truncation(12, 12, 4)
SQRT24 = math.sqrt(24.0)
SQRT1680 = math.sqrt(1680.0)

# a coupling the pulse-time helpers reject as a field, and the message
BAD_COUPLINGS = pytest.mark.parametrize(
    "g, message",
    [
        (True, "must be a real number, got True"),
        ("1", "must be a real number, got '1'"),
        (None, "must be a real number, got None"),
        (1 + 0j, "must be a real number, got (1+0j)"),
        (math.nan, "must be finite, got nan"),
        (math.inf, "must be finite, got inf"),
    ],
    ids=["bool", "str", "None", "complex", "nan", "inf"],
)


class TestVacuumPulseTime:
    def test_unit_coupling(self):
        assert vacuum_pulse_time(1.0) == pytest.approx(0.320637457540466, rel=1e-12)

    def test_cancellation(self):
        assert vacuum_pulse_time(math.pi / (2 * SQRT24)) == pytest.approx(1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(PhysicsError):
            vacuum_pulse_time(0.0)

    @BAD_COUPLINGS
    def test_coupling_is_a_field(self, g, message):
        with pytest.raises(FieldError, match=f"^g {re.escape(message)}$"):
            vacuum_pulse_time(g)

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
        with pytest.raises(PhysicsError):
            superposition_pulse_time(-1.0, 10)
        with pytest.raises(ValueError):
            superposition_pulse_time(1.0, 0)
        with pytest.raises(ValueError, match="^horizon must be an integer, got 1.5$"):
            superposition_pulse_time(1.0, 1.5)
        with pytest.raises(ValueError, match="^horizon must be an integer, got True$"):
            SuperpositionPi(True)

    @BAD_COUPLINGS
    def test_coupling_is_a_field(self, g, message):
        with pytest.raises(FieldError, match=f"^g {re.escape(message)}$"):
            superposition_pulse_time(g, 10)


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


def first_at_most(a, b, c, w):
    """Smallest x >= 0 with (a x + b) mod c <= w, or None if there is none.

    Requires 0 <= a, b, w < c.  Until a x + b first reaches c the value
    only grows from b, so either b <= w or the answer lies past a wrap.  If
    the window is at least a wide, the first wrap lands in it.  Otherwise
    the y-th wrap (y >= 1) lands in it iff a multiple of a lies in
    [c y - b, c y - b + w], which is the same question for (c mod a, a):
    a Euclid step, so the recursion depth is O(log c).
    """
    if b <= w:
        return 0
    if a == 0:
        return None
    if w + 1 >= a:
        return -(-(c - b) // a)
    y = first_at_most(c % a, (c + w - b) % a, a, w)
    if y is None:
        return None
    return -(-(c * (y + 1) - b) // a)


def record_walk(w_vac, w_super, horizon):
    """The records up to the horizon, one descent each, with their signed distances.

    The walk that the run walk replaced, kept as its oracle.  The record
    after m is the first later candidate whose v lies within the current
    distance of 0, found by a Euclid descent of its own; see
    ``protocol._runs`` for the integer arithmetic.
    """
    p_super, q_super = w_super.as_integer_ratio()
    p_vac, q_vac = w_vac.as_integer_ratio()
    p, q = p_super * q_vac, q_super * p_vac
    common = math.gcd(p, q)
    p, q = p // common, q // common
    c = 2 * q
    a, b = 4 * p % c, (3 * p - q) % c

    def signed(m):
        v = (a * m + b) % c
        return v if 2 * v <= c else v - c

    m = 0
    records, distances = [m], [signed(m)]
    while distances[-1]:
        dist = abs(distances[-1])
        step = first_at_most(a, (a * (m + 1) + b + dist - 1) % c, c, 2 * dist - 2)
        if step is None or m + 1 + step > horizon:
            break
        m += 1 + step
        records.append(m)
        distances.append(signed(m))
    return records, distances


def expand(runs):
    """The records of ``protocol._runs``, one list per run."""
    return [[first + j * step for j in range(count)] for first, step, count in runs]


def split_runs(records, distances):
    """The records grouped into runs.

    Record j continues the run of record j - 1 if it follows it by the same
    step as j - 1 followed j - 2, and j - 2 and j - 1 lie on the same side.
    """
    runs = []
    for j, m in enumerate(records):
        if (
            j >= 2
            and m - records[j - 1] == records[j - 1] - records[j - 2]
            and (distances[j - 2] > 0) == (distances[j - 1] > 0)
        ):
            runs[-1].append(m)
        else:
            runs.append([m])
    return runs


def float_rule(w_vac, w_super, runs):
    """(t, infidelity) of the float-best of the last 16 records of each run.

    The first among ties wins.
    """
    best = None
    for m in (m for run in runs for m in run[-_RUN_TAIL:]):
        t = (2.0 * m + 1.5) * math.pi / w_vac
        s = float(np.sin(w_super * t))
        infid = 1.0 - s * s  # s ** 2 goes through pow, which can be 1 ulp off
        if best is None or infid < best[1]:
            best = (t, infid)
    return best


@st.composite
def near_rational_pairs(draw):
    """(w_vac, w_super) with w_super / w_vac within a few ulp of p / q, q <= 50."""
    w_vac = draw(st.floats(1e-2, 1e3))
    q = draw(st.integers(1, 50))
    w_super = w_vac * (draw(st.integers(0, 50 * q)) / q)
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        w_super = math.nextafter(w_super, math.copysign(math.inf, ulps))
    return w_vac, w_super


def solve_super(w_vac, w_super, horizon):
    return solve_duration(SuperpositionPi(horizon), w_vac, w_super)


def _closed_pair(g):
    return SQRT24 * g, SQRT1680 * g


def _full_pair(k, eta):
    spec = PulseSpec("x", k, eta, 15000.0, 0.0, "full")
    freq = rabi_frequencies(spec, Truncation(k, k, k))
    return float(freq[0]), float(freq[k])


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

    @pytest.mark.parametrize("g", [0.3, 0.6032, 1.0, 1.7, 2.3, 7.9])
    def test_larger_horizon_never_gives_a_worse_pulse(self, g):
        # beyond about 1e8 the rounding of t outweighs the exact gain of a
        # later record; the solver then keeps the earlier, better pulse.  The
        # pulse changes only when its infidelity drops: at g = 0.6032 the
        # records m = 91918219 and 1607970275 tie at 2.2e-16
        pulses = [superposition_pulse_time(g, 10**k) for k in range(3, 17)]
        for (t0, infid0), (t1, infid1) in zip(pulses, pulses[1:]):
            assert infid1 < infid0 or (t1, infid1) == (t0, infid0)
        assert pulses[-1][1] < 1e-13

    @pytest.mark.parametrize("w_vac, w_super", FREQUENCY_PAIRS)
    def test_runs_hold_the_records_of_the_descent_walk(self, w_vac, w_super):
        runs, descents = _runs(w_vac, w_super, 10**5)
        expected = split_runs(*record_walk(w_vac, w_super, 10**5))
        assert expand(runs) == expected
        # one descent finds each run after m = 0; one more finds no record
        # within the horizon, unless the walk ended at it or at an exact hit
        assert descents in (len(runs) - 1, len(runs))
        assert solve_super(w_vac, w_super, 10**5) == float_rule(w_vac, w_super, expected)

    @settings(max_examples=100, deadline=None)
    @given(pair=near_rational_pairs(), horizon=st.integers(1, 10**4))
    @example(pair=(1.0, 3.5510204081632653), horizon=2)  # s * s != s ** 2 at m = 2
    def test_near_rational_ratio_walks_the_same_records(self, pair, horizon):
        # within rounding of p / q the candidates improve by rounding-sized
        # steps, so a run can hold thousands of records
        w_vac, w_super = pair
        runs, _ = _runs(w_vac, w_super, horizon)
        expected = split_runs(*record_walk(w_vac, w_super, horizon))
        assert expand(runs) == expected
        assert solve_super(w_vac, w_super, horizon) == float_rule(w_vac, w_super, expected)

    @pytest.mark.parametrize("g", [0.3, 0.6032, 1.0, 1.7, 2.3, 7.9])
    def test_noon8_pulse_is_the_float_best_of_all_records(self, g):
        # as the descent walk chose it: the runs of sqrt(70) are at most 16
        # long up to 1e16, except one of 25 at g = 0.6032 from 1e8 on, whose
        # skipped records round no better
        w_vac, w_super = _closed_pair(g)
        for k in range(3, 17):
            records, _ = record_walk(w_vac, w_super, 10**k)
            every_record = [[m] for m in records]
            assert solve_super(w_vac, w_super, 10**k) == float_rule(w_vac, w_super, every_record)

    @pytest.mark.parametrize("horizon", [1, 1000, 10**6])
    def test_records_are_scored_as_one_by_one(self, horizon):
        # the solver scores its records in one np.sin call on an array; each
        # (t, infidelity) equals float_rule's scalar np.sin per record, bit for bit
        rng = random.Random(horizon)
        pairs = [_closed_pair(1.0), (13.395954891471767, 205.40464166923377)]  # sqrt(70), ~46/3
        pairs += [(w, w * rng.uniform(0.1, 40.0)) for w in (10 ** rng.uniform(-2, 3) for _ in range(100))]
        for w_vac, w_super in pairs:
            runs, _ = _runs(w_vac, w_super, horizon)
            t, infid = solve_super(w_vac, w_super, horizon)
            expected_t, expected_infid = float_rule(w_vac, w_super, expand(runs))
            assert (t.hex(), infid.hex()) == (expected_t.hex(), expected_infid.hex())

    def test_exact_ratios_with_small_denominators(self):
        # w_super / w_vac = p / q exactly: the distances of two candidates can
        # tie, and a tie is not a record
        for q in range(1, 41):
            for p in range(4 * q + 1):
                for horizon in (1, 7, 50, 200):
                    runs, _ = _runs(float(q), float(p), horizon)
                    assert expand(runs) == split_runs(*record_walk(float(q), float(p), horizon))

    def test_nearer_steps_are_every_one_sided_record(self):
        for c in range(1, 61):
            for a in range(c):
                for horizon in (1, 5, c, 3 * c):
                    expected = {False: [], True: []}
                    best = {False: c, True: c}
                    for x in range(1, horizon + 1):
                        below = a * x % c
                        for above, r in ((False, below), (True, (c - below) % c)):
                            if 0 < r < best[above]:
                                best[above] = r
                                expected[above].append((x, r))
                    for above, blocks in zip((False, True), _nearer_steps(a, c, horizon)):
                        steps = [
                            (x0 + j * dx, r0 - j * dr)
                            for x0, dx, r0, dr, r_last in blocks
                            for j in range((r0 - r_last) // dr + 1)
                        ]
                        assert [step for step in steps if step[0] <= horizon] == expected[above]

    def test_near_rational_horizon_1e12_is_fast_and_small(self):
        # w_super / w_vac = 15.333333333333334, within rounding of 46/3:
        # every third candidate is a record, 333,333,333,335 of them
        pair = (13.395954891471767, 205.40464166923377)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            solve_super(*pair, 10**12)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.01
        tracemalloc.start()
        try:
            solve_super(*pair, 10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        runs, _ = _runs(*pair, 10**12)
        assert sum(count for _, _, count in runs) == 333_333_333_335

    def test_run_count_grows_as_log_phi_of_the_horizon(self):
        # counted, not proven: each run starts at least as far out as the sum
        # of the last members of the two runs before it, so at most
        # log_phi(M) + 2 runs start within a horizon M
        rng = random.Random(70)
        golden = (1 + math.sqrt(5)) / 2
        pairs = [_closed_pair(g) for g in (0.3, 0.6032, 1.0, 1.7, 2.3, 7.9)]
        for _ in range(400):
            w_vac = 10 ** rng.uniform(-2, 3)
            q = rng.randint(1, 50)
            near = w_vac * rng.randint(0, 50 * q) / q
            for _ in range(rng.randint(1, 4)):
                near = math.nextafter(near, math.inf)
            pairs += [
                (w_vac, near),
                (w_vac, w_vac * (rng.randint(0, 20) + rng.choice([golden, 1 / golden]) / 2)),
                (w_vac, w_vac * math.sqrt(rng.randint(1, 10**4) / rng.randint(1, 100))),
                (w_vac, float(rng.randint(0, 100)) * w_vac),
            ]
        for w_vac, w_super in pairs:
            horizon = rng.choice([1, 10, 10**3, 10**6, 10**9, 10**12, 10**16])
            runs, _ = _runs(w_vac, w_super, horizon)
            firsts = [first for first, _, _ in runs]
            lasts = [first + (count - 1) * step for first, step, count in runs]
            for i in range(len(runs) - 2):
                assert firsts[i + 2] >= lasts[i + 1] + lasts[i]
            assert len(runs) <= math.log(horizon, golden) + 2

    def test_solver_logs_its_walk_at_debug(self, caplog):
        w_vac, w_super = _closed_pair(1.0)
        with caplog.at_level(logging.DEBUG, logger="noonsim.protocol"):
            t, infid = superposition_pulse_time(1.0, 10**6)
        (record,) = caplog.records
        assert (record.name, record.levelno) == ("noonsim.protocol", logging.DEBUG)
        runs, descents = _runs(w_vac, w_super, 10**6)
        m = round((t * w_vac / math.pi - 1.5) / 2.0)
        assert record.getMessage() == (
            f"superposition pulse, horizon 1000000: {len(runs)} runs, {descents} descents, "
            f"m = {m}, infidelity {infid:.3e}"
        )

    def test_solver_is_silent_by_default(self, caplog):
        superposition_pulse_time(1.0, 10**6)
        assert caplog.records == []

    def test_zero_partner_frequency_takes_the_first_candidate(self):
        # sin^2(0 t) = 0 for every candidate: all tie, the first one wins
        assert solve_super(2.0, 0.0, 10) == (1.5 * math.pi / 2.0, 1.0)

    def test_negative_partner_frequency_acts_as_its_magnitude(self):
        assert solve_super(1.0, -SQRT1680 / SQRT24, 1000) == solve_super(
            1.0, SQRT1680 / SQRT24, 1000
        )

    @pytest.mark.parametrize("w_vac, w_super", [(0.0, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_bad_frequencies_rejected(self, w_vac, w_super):
        with pytest.raises(PhysicsError):
            solve_super(w_vac, w_super, 10)

    def test_candidates_beyond_the_float_range_are_skipped(self):
        # t_m = (2m + 3/2) pi / w_vac is inf from m of about 3e7 on
        t, infid = solve_super(1e-300, SQRT1680 / SQRT24 * 1e-300, 10**12)
        assert math.isfinite(t) and 0.0 <= infid < 1e-6

    def test_duration_beyond_the_float_range_rejected(self):
        # pi / (2 w_vac) and every t_m overflow
        for marker in (VacuumPi(), SuperpositionPi(10)):
            with pytest.raises(PhysicsError, match="^pulse duration inf is beyond the float range"):
                solve_duration(marker, 5e-324, 1.0)


class TestResolveDuration:
    @pytest.mark.parametrize("form", ["closed", "full"])
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    @pytest.mark.parametrize("n_max", [6, 8, 12])
    def test_pulse_table_gives_the_same_duration(self, form, k, n_max):
        # n_max = 6 leaves d - k = 1 pair for k = 6: the table still reaches n = k,
        # so the duration is the one of the least mode that holds the pulse
        trunc = Truncation(n_max, n_max, 6)
        for marker in (VacuumPi(), SuperpositionPi(10**6)):
            spec = PulseSpec("y", k, 0.3, 15000.0, marker, form)
            freq = rabi_frequencies(spec, trunc)
            assert len(freq) == max(n_max + 1 - k, k + 1)
            least = rabi_frequencies(spec, Truncation(k, k, k))
            assert resolve_duration(spec, freq) == resolve_duration(spec, least)
            # the seconds and infidelity are the solver's, from Omega_0 and Omega_k of the table
            solved = solve_duration(marker, float(freq[0]), float(freq[k]))
            assert [x.hex() for x in resolve_duration(spec, freq)] == [x.hex() for x in solved]

    @pytest.mark.parametrize("duration", [0.1, -2.5, 0, 10**300, np.float32(0.25), np.int64(3)],
                             ids=["float", "negative", "int", "large-int", "float32", "int64"])
    def test_a_given_duration_comes_back_unchanged(self, duration):
        spec = PulseSpec("x", 4, 0.2, 15000.0, duration)
        t, infid = resolve_duration(spec, rabi_frequencies(spec, TRUNC))
        assert t is duration and infid is None

    def test_vacuum_pi_for_k2_closed_pulse(self):
        spec = PulseSpec("x", 2, 0.2, 15000.0, VacuumPi(), "closed")
        t, infid = resolve_duration(spec, rabi_frequencies(spec, TRUNC))
        assert infid == 0.0
        out, _ = apply_pulse(basis_state("e", 0, 0, TRUNC), spec, t)
        assert out.population("g", 2, 0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("form", ["full", "closed"])
    def test_super_pi_for_k2_pulse_transfers_as_predicted(self, form):
        # the pulse must drive |g,2> -> |e,0> and its partner |e,2> -> |g,4>
        spec = PulseSpec("x", 2, 0.2, 15000.0, SuperpositionPi(1000), form)
        t, infid = resolve_duration(spec, rabi_frequencies(spec, TRUNC))
        out, _ = apply_pulse(basis_state("e", 2, 0, TRUNC), spec, t)
        assert out.population("g", 4, 0) == pytest.approx(1.0 - infid, abs=1e-12)
        assert infid <= 1e-3
        out, _ = apply_pulse(basis_state("g", 2, 0, TRUNC), spec, t)
        assert out.population("e", 0, 0) == pytest.approx(1.0, abs=1e-12)


class TestRunSequence:
    def test_prepare_only(self):
        result = run_sequence([Prepare("e", 0, 0)], TRUNC)
        assert result.final_state.population("e", 0, 0) == pytest.approx(1.0)
        assert result.measurements == []

    def test_prepare_must_be_first(self, monkeypatch):
        with pytest.raises(ValueError, match="^the first step must be a prepare$"):
            run_sequence([Rotate(RotationSpec(1.0, 0.0))], TRUNC)
        with pytest.raises(ValueError, match="^prepare may only appear first$"):
            run_sequence([Prepare("e", 0, 0), Prepare("g", 0, 0)], TRUNC)
        # every step is checked before the first is run: step 5 does not fit, and no pulse runs
        applied = []
        monkeypatch.setattr("noonsim.protocol.apply_pulse",
                            lambda *args: applied.append(args) or apply_pulse(*args))
        steps = build_noon8(1.0, 1.0)
        steps[5] = SidebandPulse(PulseSpec("x", 6, 0.2, 1.0, 0.1))
        with pytest.raises(FieldError, match="^k must be <= the guard band 4, got 6$"):
            run_sequence(steps, TRUNC)
        assert applied == []
        run_sequence(build_noon8(1.0, 1.0), TRUNC)
        assert len(applied) == 4
        # an empty sequence has no step out of place, and runs to no records and no final state
        assert run_sequence([], TRUNC).steps == ()
        with pytest.raises(ValueError, match="^the run has no steps, so it has no final state$"):
            run_sequence([], TRUNC).final_state

    @pytest.mark.parametrize("field, value", [("eta", 0.25), ("omega", 20000.0), ("form", "full")])
    def test_each_pulse_runs_on_its_own_table(self, field, value):
        # two x pulses that differ only in one field their table reads: a run that reused the
        # first pulse's table for the second would time and rotate the second wrongly
        first = PulseSpec("x", 4, 0.2, 15000.0, VacuumPi())
        second = replace(first, **{field: value})
        assert not np.array_equal(rabi_frequencies(first, TRUNC), rabi_frequencies(second, TRUNC))
        steps = [Prepare("e", 0, 0), SidebandPulse(first),
                 Rotate(RotationSpec(math.pi / 2, math.pi / 2)), SidebandPulse(second)]
        state = basis_state("e", 0, 0, TRUNC)
        expected = [StepRecord(0, state, 0.0)]
        for i, step in enumerate(steps[1:], 1):
            if isinstance(step, Rotate):
                state = apply_rotation(state, step.spec)
                expected.append(StepRecord(i, state, 0.0))
            else:
                freq = rabi_frequencies(step.spec, TRUNC)
                t, infid = resolve_duration(step.spec, freq)
                state, leakage = apply_pulse(state, step.spec, t, freq)
                expected.append(StepRecord(i, state, leakage, t, infid))
        assert run_sequence(steps, TRUNC).steps == tuple(expected)

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError, match="^unknown step 'measure q=e'$"):
            run_sequence([Prepare("e", 0, 0), "measure q=e"], TRUNC)

    def test_outcome_probabilities_sum_to_one(self):
        steps = [
            Prepare("g", 0, 0),
            Rotate(RotationSpec(math.pi / 2, math.pi / 2)),
            MeasureQubit("e"),
        ]
        result = run_sequence(steps, TRUNC)
        p_g, p_e = result.steps[1].state.qubit_populations()  # before the measurement
        assert p_g + p_e == pytest.approx(1.0, abs=1e-12)
        assert result.measurements[0].probability == pytest.approx(0.5)

    @pytest.mark.parametrize("override", ["x", "", "E"])
    def test_outcome_override_must_be_a_qubit_level(self, override):
        steps = [Prepare("g", 0, 0), MeasureQubit("g")]
        with pytest.raises(ValueError, match=f"^outcome_override must be 'g' or 'e', got '{override}'$"):
            run_sequence(steps, TRUNC, outcome_override=override)
        with pytest.raises(ValueError, match=f"^outcome must be 'g' or 'e', got '{override}'$"):
            MeasureQubit(override)

    def test_degenerate_branch_raises(self):
        steps = [Prepare("g", 0, 0), MeasureQubit("e")]
        with pytest.raises(PhysicsError):
            run_sequence(steps, TRUNC)

    def test_norm_telescoping(self):
        steps = build_noon8(1.0, 1.0, 200)
        result = run_sequence(steps, TRUNC, outcome_override="e")
        # single measurement: branch probability equals the unnormalized
        # branch norm; the final state is renormalized
        assert np.linalg.norm(result.final_state.amp) == pytest.approx(1.0, abs=1e-12)
        assert result.postselect_probability == pytest.approx(
            result.measurements[0].probability
        )

    def test_pulse_beyond_the_guard_band_raises(self):
        # a hand-built sequence is not parsed, so the pulse's own fit check reports it
        steps = [Prepare("e", 0, 0), SidebandPulse(PulseSpec("x", 5, 0.2, 1.0, 1.0, "closed"))]
        with pytest.raises(FieldError, match="^k must be <= the guard band 4, got 5$"):
            run_sequence(steps, TRUNC)

    def test_leakage_limit_enforced(self):
        # drive from a state near the cutoff so four-phonon transfer leaks
        steps = [
            Prepare("e", 10, 0),
            SidebandPulse(PulseSpec("x", 4, 0.2, 15000.0, 0.05, "full")),
        ]
        with pytest.raises(PhysicsError):
            run_sequence(steps, TRUNC, leakage_limit=1e-12)

    @pytest.mark.parametrize(
        "limit, message",
        [
            (math.nan, "must be finite, got nan"),
            (-1.0, "must be >= 0, got -1.0"),
            (-1, "must be >= 0, got -1"),
            ("1e-6", "must be a real number, got '1e-6'"),
            (None, "must be a real number, got None"),
            (True, "must be a real number, got True"),
        ],
        ids=["nan", "negative", "negative-int", "str", "None", "bool"],
    )
    def test_leakage_limit_must_be_a_bound(self, limit, message):
        # at n_max = 8 this pulse leaves 7.1e-2 in the guard band; NaN would let it pass
        leaky = [Prepare("e", 4, 0), SidebandPulse(PulseSpec("x", 4, 0.2, 15000.0, 0.3))]
        trunc = Truncation(8, 8, 4)
        with pytest.raises(PhysicsError, match="^guard-band leakage 7.116e-02 at step 1"):
            run_sequence(leaky, trunc)
        assert run_sequence(leaky, trunc, leakage_limit=math.inf).steps[1].leakage > 0.07
        for steps in (leaky, [Prepare("e", 0, 0)]):  # a run without leakage, too
            with pytest.raises(FieldError, match=f"^leakage_limit {re.escape(message)}$"):
                run_sequence(steps, trunc, leakage_limit=limit)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda label: Prepare(label, 0, 0), "q"),
        (lambda label: MeasureQubit(label), "outcome"),
        (lambda label: basis_state(label, 0, 0, TRUNC), "q"),
        (lambda label: basis_state("e", 0, 0, TRUNC).population(label, 0, 0), "q"),
        (lambda label: PulseSpec(label, 4, 0.2, 1.0, 0.1), "axis"),
        (lambda label: PulseSpec("x", 4, 0.2, 1.0, 0.1, label), "form"),
        (lambda label: ladder(3, label), "which"),
        (lambda label: run_sequence([Prepare("g", 0, 0)], TRUNC, outcome_override=label),
         "outcome_override"),
    ],
    ids=["prepare", "measure", "basis-state", "population", "pulse-axis", "pulse-form", "ladder",
         "outcome-override"],
)
def test_a_label_that_is_not_a_string_names_its_field(build, field):
    # a list is unhashable: a membership test on a set or dict raises TypeError, not this
    with pytest.raises(ValueError, match=rf"^{field} must be '\w+' or '\w+', got \['e'\]$"):
        build(["e"])


@pytest.fixture(scope="module")
def random_runs():
    """(program, result) for seeded random programs that run to the end."""
    rng = random.Random(11)
    runs = []
    for _ in range(300):
        program = random_program(rng)
        try:
            result = run_sequence(list(program.steps), program.trunc, leakage_limit=math.inf)
        except PhysicsError:  # a measurement branch of zero probability
            continue
        runs.append((program, result))
    assert len(runs) >= 200
    return runs


class TestStepRecords:
    def test_one_record_per_step_ending_in_the_final_state(self, random_runs):
        for program, result in random_runs:
            assert [rec.index for rec in result.steps] == list(range(len(program.steps)))
            assert result.final_state is result.steps[-1].state

    def test_outcome_and_probability_exactly_on_measurements(self, random_runs):
        for program, result in random_runs:
            for step, rec in zip(program.steps, result.steps):
                measured = isinstance(step, MeasureQubit)
                assert (rec.outcome is not None, rec.probability is not None) == (measured,) * 2
                if measured:
                    assert rec.outcome == step.outcome
                    assert rec.leakage == 0.0

    def test_duration_and_timing_infidelity_exactly_on_auto_timed_pulses(self, random_runs):
        given = 0
        for program, result in random_runs:
            for step, rec in zip(program.steps, result.steps):
                if not isinstance(step, SidebandPulse):
                    assert (rec.duration, rec.timing_infidelity) == (None, None)
                    continue
                t, infid = resolve_duration(step.spec, rabi_frequencies(step.spec, program.trunc))
                if isinstance(step.spec.duration, (VacuumPi, SuperpositionPi)):
                    assert infid is not None
                    assert (rec.duration, rec.timing_infidelity) == (t, infid)
                else:
                    given += 1
                    assert t is step.spec.duration and infid is None
                    assert (rec.duration, rec.timing_infidelity) == (None, None)
        assert given > 0

    def test_leakage_is_what_the_pulse_left_in_the_guard_band(self, random_runs):
        leaked = 0
        for program, result in random_runs:
            for step, before, rec in zip(program.steps[1:], result.steps, result.steps[1:]):
                if isinstance(step, SidebandPulse):
                    freq = rabi_frequencies(step.spec, program.trunc)
                    state, leakage = apply_pulse(
                        before.state, step.spec, resolve_duration(step.spec, freq)[0]
                    )
                    assert rec.leakage == leakage
                    assert np.array_equal(rec.state.amp, state.amp)
                    leaked += leakage > 1e-6
                else:
                    assert rec.leakage == 0.0
        assert leaked > 0

    def test_postselect_probability_is_the_product_of_the_probabilities(self, random_runs):
        measured = 0
        for program, result in random_runs:
            p = 1.0
            for rec in result.steps:
                if rec.probability is not None:
                    p *= rec.probability
                    measured += 1
            assert result.postselect_probability == p
            assert result.measurements == [rec for rec in result.steps if rec.outcome]
        assert measured > 0


class TestDenseReferenceRun:
    # the worst measured ratio of error to eps (1 + area) was 1.1 over 120 programs of seed 11
    # and 1.8 over 120 of each of seeds 1-11; a timing error of 1e-9 gives a ratio near 1e6
    C = 4.0

    def test_every_record_agrees_with_a_dense_run_of_the_program(self):
        # whole programs through a second engine: each record's state against run_dense's
        # within C eps (1 + the sum over the pulses so far of max_n |Omega_n t|)
        eps = np.finfo(float).eps
        rng = random.Random(11)
        compared = skipped = records = 0
        while compared + skipped < 50:
            program = random_program(rng)
            if program.trunc.dim > 450:  # one dense operator per step
                continue
            try:
                result = run_sequence(list(program.steps), program.trunc, leakage_limit=math.inf)
            except PhysicsError:  # a measurement branch of zero probability
                skipped += 1
                continue
            area = 0.0
            for step, rec, dense in zip(program.steps, result.steps, run_dense(program),
                                        strict=True):
                if isinstance(step, SidebandPulse):
                    freq = rabi_frequencies(step.spec, program.trunc)
                    pairs = program.trunc.dim_of(step.spec.axis) - step.spec.k
                    t, _ = resolve_duration(step.spec, freq)
                    area += float(np.max(np.abs(freq[:pairs]))) * abs(t)
                assert np.max(np.abs(rec.state.amp - dense)) <= self.C * eps * (1.0 + area)
                records += 1
            compared += 1
        print(f"dense reference: {compared} programs, {records} records compared; "
              f"{skipped} programs skipped at a PhysicsError")
        assert compared >= 30 and records >= 120


class TestCanonicalProtocol:
    steps = build_noon8(1.0, 1.0, 1000)

    def test_intermediate_fock_product(self):
        result = run_sequence(self.steps, TRUNC, outcome_override="e")
        state = result.steps[4].state  # after the y vacuum pulse and the split
        sector = sum(state.population(q, 4, 4) for q in ("g", "e"))
        assert sector >= 1 - 1e-10

    def test_split_after_x_superposition_pulse(self):
        result = run_sequence(self.steps, TRUNC, outcome_override="e")
        state = result.steps[5].state  # after the x superposition pulse
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

    def test_runs_compare_by_value(self):
        run = run_sequence(self.steps, TRUNC)
        assert run == run_sequence(self.steps, TRUNC)
        assert run != run_sequence(self.steps, TRUNC, outcome_override="g")
        with pytest.raises(TypeError, match="unhashable type: 'HybridState'"):
            hash(run.final_state)

    def test_snapshot_leakage_small(self):
        result = run_sequence(self.steps, TRUNC, outcome_override="g")
        assert all(rec.leakage < 1e-10 for rec in result.steps)


class TestNoonFidelity:
    def test_exact_target(self):
        amp = np.zeros((2, 13, 13), dtype=complex)
        amp[0, 8, 0] = amp[0, 0, 8] = 1 / math.sqrt(2)
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

    @pytest.mark.parametrize("n", [-5, 0, 13, 99])
    def test_order_outside_the_truncation_rejected(self, n):
        with pytest.raises(PhysicsError, match=f"N = {n} "):
            noon_fidelity(basis_state("g", 8, 0, TRUNC), n)

    @pytest.mark.parametrize("n", [8.0, True, "8"])
    def test_order_must_be_an_integer(self, n):
        state = basis_state("g", 8, 0, TRUNC)
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            noon_fidelity(state, n)
        assert noon_fidelity(state, np.int64(8)) == noon_fidelity(state, 8)

    def test_qubit_level_allows_a_relative_1e_9_in_the_other_level(self):
        for p_e, level in [(0.0, "g"), (1e-10, "g"), (1e-8, None), (0.5, None), (1 - 1e-10, "e")]:
            amp = np.zeros((2, 13, 13), dtype=complex)
            amp[0, 8, 0], amp[1, 0, 8] = math.sqrt(1 - p_e), math.sqrt(p_e)
            assert qubit_level(HybridState(amp, TRUNC)) == level

    def test_order_at_the_truncation_edge(self):
        assert noon_fidelity(basis_state("g", 12, 0, TRUNC), 12).best_fidelity == 0.5


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

    @pytest.mark.parametrize(
        "g, message",
        [
            (0.0, "must be > 0, got 0.0"),
            (-0.0, "must be > 0, got -0.0"),
            (-1.0, "must be >= 0, got -1.0"),
            (math.nan, "must be finite, got nan"),
            (math.inf, "must be finite, got inf"),
            ("1", "must be a real number, got '1'"),
            (None, "must be a real number, got None"),
            (True, "must be a real number, got True"),
            (1e305, "must keep omega = 15000.0 * g finite, got 1e+305"),
        ],
        ids=["zero", "negative-zero", "negative", "nan", "inf", "str", "None", "bool",
             "overflowing"],
    )
    def test_positive_couplings_required(self, g, message):
        for name, args in (("g_x", (g, 1.0)), ("g_y", (1.0, g))):
            with pytest.raises(FieldError, match=f"^{name} {re.escape(message)}$"):
                build_noon8(*args, 10)

    def test_asymmetric_couplings_still_work(self):
        result = run_sequence(build_noon8(1.0, 1.7, 1000), TRUNC, outcome_override="g")
        assert noon_fidelity(result.final_state, 8).best_fidelity >= 0.999
