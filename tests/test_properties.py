"""Hypothesis properties of the propagators, the program format, runs and the CLI.

The program strategies here are their own; ``conftest.random_program`` stays
as the acceptance gate draws from it.
"""

import contextlib
import io
import json
import math
import os
import string
import tempfile
from dataclasses import replace

import numpy as np
import pytest
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
    dynamics,
    parse,
    run_sequence,
    scan_pulse,
    serialize,
)
from noonsim.cli import main
from noonsim.fock import QUBIT_INDEX, HybridState, check_normalized

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
        out, _ = apply_pulse(state, spec, spec.duration)

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

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_the_pair_kernel_broadcasts_its_angles(self, data):
        trunc = data.draw(truncations())
        axis = data.draw(st.sampled_from("xy"), label="axis")
        d = trunc.dim_of(axis)
        k = data.draw(st.integers(0, d - 1), label="k")
        angle = data.draw(st.floats(-50.0, 50.0), label="angle")
        phi = data.draw(st.one_of(st.just(0.0), st.floats(-7.0, 7.0)), label="phi")
        amp = random_state(data.draw, trunc).amp
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="angles seed"))
        table = rng.uniform(-50.0, 50.0, (data.draw(st.integers(1, 4), label="rows"), d - k))
        i = data.draw(st.integers(0, len(table) - 1), label="row")

        def rotate(angles):
            return dynamics._rotate_pairs(amp, axis, k, angles, phi)

        one = rotate(np.array([angle]))
        assert one.shape == amp.shape
        assert one.tobytes() == rotate(np.full(d - k, angle)).tobytes()
        assert rotate(table)[i].tobytes() == rotate(table[i]).tobytes()
        # |e, n> with n >= d - k and |g, n> with n < k have no partner inside the mode
        before, after = (amp, one) if axis == "x" else (amp.swapaxes(1, 2), one.swapaxes(1, 2))
        e, g = QUBIT_INDEX["e"], QUBIT_INDEX["g"]
        assert after[e, d - k:].tobytes() == before[e, d - k:].tobytes()
        assert after[g, :k].tobytes() == before[g, :k].tobytes()
        if phi == 0:
            # the partnered amplitudes see the real block [[c, -is], [-is, c]], applied by hand
            c, s = np.cos([angle]), -1j * np.sin([angle])
            e_n, g_n = before[e, :d - k], before[g, k:]
            assert after[e, :d - k].tobytes() == (c * e_n + s * g_n).tobytes()
            assert after[g, k:].tobytes() == (s * e_n + c * g_n).tobytes()


class TestNormCheck:
    """The norm check is the one reduction of |psi|^2; its populations are the state's."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_populations_are_the_squared_norm_of_each_qubit_level(self, data):
        trunc = data.draw(truncations())
        stack = np.stack([random_state(data.draw, trunc).amp
                          for _ in range(data.draw(st.integers(1, 4), label="stack size"))])
        pops = check_normalized(stack)
        for amp, row in zip(stack, pops):
            p = HybridState(amp, trunc).qubit_populations()
            assert p == tuple(row.tolist())
            # re^2 + im^2 summed against |amp|^2 summed: each sum of n non-negative
            # terms is within about n eps / 2 of the exact one, in any order
            ref = np.sum(np.abs(amp) ** 2, axis=(1, 2))
            n = amp[0].size * 2
            np.testing.assert_allclose(p, ref, rtol=2 * n * np.finfo(float).eps, atol=0)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_scan_rows_are_apply_pulse_then_populations_and_leakage(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        trunc = data.draw(truncations(k))
        spec = data.draw(pulse_specs(k, st.just(0.0)), label="spec")
        state = random_state(data.draw, trunc)
        # up to 80 samples: more than one chunk of the scan at the larger truncations
        ts = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=80), label="ts")
        p_g, p_e, leakage = scan_pulse(state, spec, ts)
        for row, t in zip(zip(p_g.tolist(), p_e.tolist(), leakage.tolist()), ts):
            out, leak = apply_pulse(state, spec, t)
            assert row == (*out.qubit_populations(), leak)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_bad_state_single_or_stacked_raises_the_norm_check_message(self, data):
        trunc = data.draw(truncations())
        count = data.draw(st.integers(1, 4), label="stack size")
        stack = np.stack([random_state(data.draw, trunc).amp for _ in range(count)])
        bad = data.draw(st.integers(0, count - 1), label="bad state")
        value = data.draw(st.one_of(
            st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, -np.inf),
                             complex(np.inf, np.nan), complex(1.0, np.nan)]),
            st.floats(0.0, 0.999), st.floats(1.001, 1e3)), label="bad value")
        if isinstance(value, float) and math.isfinite(value):
            stack[bad] *= value
            message = r"^state is not normalized: \|psi\|\^2 = "
        else:
            index = tuple(data.draw(st.integers(0, d - 1)) for d in stack.shape[1:])
            stack[(bad, *index)] = value
            message = "^non-finite amplitude$"
        with pytest.raises(ValueError, match=message) as stacked:
            check_normalized(stack)
        with pytest.raises(ValueError, match=message) as single:
            HybridState(stack[bad], trunc)
        assert str(stacked.value) == str(single.value)
        if "normalized" in message:
            n2 = float(str(single.value).rsplit(" ", 1)[1])
            assert n2 == pytest.approx(value * value, rel=1e-12, abs=1e-300)


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


# what str.splitlines would end a line at, besides the newlines, may stand in a comment
COMMENTS = st.one_of(st.just(""), st.text(
    st.sampled_from(string.ascii_letters + "# \v\f\x1c\x1d\x1e\x85\u2028\u2029"), max_size=12,
).map("#".__add__))
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_program_that_builds_round_trips(self, data):
        # levels and k's drawn without the fit constraint: Program rejects what parse would
        trunc = data.draw(truncations())
        steps = [Prepare("e", data.draw(st.integers(0, 16), label="nx"),
                         data.draw(st.integers(0, 16), label="ny"))]
        for axis, k in data.draw(st.lists(st.tuples(st.sampled_from("xy"), st.integers(1, 16)),
                                          max_size=3), label="pulses"):
            steps.append(SidebandPulse(PulseSpec(axis, k, 0.2, 1.0, 0.1)))
        try:
            program = Program(trunc, tuple(steps))
        except ValueError:
            return
        assert parse(serialize(program)) == program

    @settings(max_examples=60, deadline=None)
    @given(program=programs(), data=st.data())
    def test_a_line_ends_only_at_a_newline(self, program, data):
        # any newline, a comment or blank line before each line, a comment after it
        text = data.draw(st.sampled_from(["", "\ufeff"]), label="byte-order mark")
        for line in serialize(program).splitlines():
            for body in (data.draw(COMMENTS), f"{line} {data.draw(COMMENTS)}"):
                text += body + data.draw(LINE_ENDS)
        assert parse(text) == program

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
