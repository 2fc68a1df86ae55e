"""Hypothesis properties of the propagators, the program format, runs and the CLI.

The program strategies here are their own; ``conftest.random_program`` stays
as the acceptance gate draws from it.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from noonsim import (
    MeasureQubit,
    PhysicsError,
    Prepare,
    Program,
    PulseSpec,
    Rotate,
    RotationSpec,
    SidebandPulse,
    SuperpositionPi,
    Truncation,
    VacuumPi,
    apply_pulse,
    apply_rotation,
    parse,
    run_sequence,
    serialize,
)
from noonsim.cli import main
from noonsim.fock import QUBIT_INDEX, HybridState

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def truncations(draw, k=1):
    """n_max_x != n_max_y, both at least k, and a guard band of k or more."""
    n_max_x = draw(st.integers(k, 14), label="n_max_x")
    n_max_y = draw(st.integers(k, 14).filter(lambda n: n != n_max_x), label="n_max_y")
    guard = draw(st.integers(k, min(n_max_x, n_max_y)), label="guard")
    return Truncation(n_max_x, n_max_y, guard)


def random_state(draw, trunc):
    seed = draw(st.integers(0, 2**32 - 1), label="state seed")
    rng = np.random.default_rng(seed)
    shape = (2, trunc.dim_x, trunc.dim_y)
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return HybridState(amp / np.linalg.norm(amp), trunc)


def pulse_specs(k, duration):
    return st.builds(
        PulseSpec, st.sampled_from("xy"), st.just(k), st.floats(0.01, 0.9),
        st.floats(0.1, 50.0), duration, st.sampled_from(["closed", "full"]),
    )


class TestPropagators:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pulse_keeps_the_norm_and_every_charge_sector(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        trunc = data.draw(truncations(k))
        spec = data.draw(pulse_specs(k, st.floats(-50.0, 50.0)), label="spec")
        state = random_state(data.draw, trunc)
        out, _ = apply_pulse(state, spec)

        # the charge n_axis + k P(e) is what a pair (|e,n>, |g,n+k>) shares
        q, nx, ny = np.indices(state.amp.shape)
        charge = (nx if spec.axis == "x" else ny) + k * (q == QUBIT_INDEX["e"])

        def sectors(amp):
            return np.bincount(charge.ravel(), weights=(np.abs(amp) ** 2).ravel())

        assert abs(np.sum(np.abs(out.amp) ** 2) - 1.0) <= 1e-12
        np.testing.assert_allclose(sectors(out.amp), sectors(state.amp), rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_rotation_keeps_every_mode_population(self, data):
        trunc = data.draw(truncations())
        spec = RotationSpec(data.draw(st.floats(-7.0, 7.0)), data.draw(st.floats(-7.0, 7.0)))
        state = random_state(data.draw, trunc)
        out = apply_rotation(state, spec)
        np.testing.assert_allclose(np.sum(np.abs(out.amp) ** 2, axis=0),
                                   np.sum(np.abs(state.amp) ** 2, axis=0), rtol=0, atol=1e-13)


DURATIONS = st.one_of(
    st.floats(-20.0, 20.0), FINITE, st.just(VacuumPi()),
    st.integers(1, 10**6).map(SuperpositionPi),
)


@st.composite
def programs(draw):
    """A valid program: every k in 1..6, both forms, all three kinds of duration."""
    k_top = draw(st.integers(1, 6), label="largest k")
    trunc = draw(truncations(k_top))
    steps = [Prepare(draw(st.sampled_from("ge")), draw(st.integers(0, trunc.n_max_x)),
                     draw(st.integers(0, trunc.n_max_y)))]
    step = st.one_of(
        st.integers(1, k_top).flatmap(lambda k: pulse_specs(k, DURATIONS)).map(SidebandPulse),
        st.builds(RotationSpec, st.one_of(st.floats(-7.0, 7.0), FINITE),
                  st.floats(-7.0, 7.0)).map(Rotate),
        st.sampled_from("ge").map(MeasureQubit),
    )
    steps += draw(st.lists(step, max_size=5), label="steps")
    return Program(trunc, tuple(steps))


def outcome(program):
    """The run's records, or the PhysicsError it stops with."""
    try:
        return run_sequence(list(program.steps), program.trunc, leakage_limit=math.inf).steps
    except PhysicsError as exc:
        return str(exc)


class TestPrograms:
    @settings(max_examples=40, deadline=None)
    @given(program=programs())
    def test_parse_of_serialize_is_the_program(self, program):
        assert parse(serialize(program)) == program

    @settings(max_examples=25, deadline=None)
    @given(program=programs())
    def test_two_runs_give_bit_identical_records(self, program):
        first, second = outcome(program), outcome(program)
        if isinstance(first, str):
            assert first == second
            return
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.state.amp.tobytes() == b.state.amp.tobytes()
            # repr spells every float exactly
            assert repr(replace(a, state=None)) == repr(replace(b, state=None))


EXTREME = {
    "eta": ["0", "5e-324", "1e-160", "0.2", "0.99", "1.5", "40", "1e3", "1e200",
            "1.7976931348623157e308", "1e999"],
    "omega": ["0", "5e-324", "1e-300", "1", "15000", "1e300", "1.7976931348623157e308"],
    "t": ["0", "5e-324", "1", "-1", "1e300", "-1.7976931348623157e308", "auto_vacuum_pi",
          "auto_super_pi(1)", "auto_super_pi(1000)", "auto_super_pi(1000000000000)",
          "auto_super_pi(0)"],
}


@st.composite
def extreme_programs(draw):
    """Program text with extreme pulse values, k up to 171; eta=1e999 and auto_super_pi(0) are invalid."""
    k = draw(st.sampled_from([1, 2, 4, 6, 170, 171]), label="k")
    nmax_x, nmax_y = k + draw(st.integers(0, 3)), k + draw(st.integers(4, 6))
    lines = [f"set nmax_x={nmax_x} nmax_y={nmax_y} guard={k}",
             f"prepare q={draw(st.sampled_from('ge'))} nx=0 ny=0"]
    for axis in "xy":
        values = {key: draw(st.sampled_from(choices), label=key)
                  for key, choices in EXTREME.items()}
        form = draw(st.sampled_from(["closed", "full"]))
        lines.append(f"pulse axis={axis} k={k} eta={values['eta']} omega={values['omega']} "
                     f"t={values['t']} form={form}")
        lines.append("rotate theta=pi/2 phi=0")
    lines.append(f"measure q={draw(st.sampled_from('ge'))}")
    return "\n".join(lines) + "\n"


class TestExtremePrograms:
    @settings(max_examples=60, deadline=None)
    @given(text=extreme_programs(), command=st.sampled_from(["run", "scan"]))
    def test_cli_exits_0_2_or_3_with_at_most_one_stderr_line(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "extreme.pp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = ["run", path] if command == "run" else [
                "scan", path, "--step", "3", "--t-min", "0", "--t-max", "1", "--samples", "3"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3)
        assert err.getvalue().count("\n") == (code != 0)
        if code:
            assert json.loads(err.getvalue())["error"] == ("parse" if code == 2 else "physics")
