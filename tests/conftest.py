import random

import numpy as np
import pytest

from noonsim import (
    MeasureQubit,
    Prepare,
    Program,
    PulseSpec,
    Rotate,
    RotationSpec,
    SidebandPulse,
    SuperpositionPi,
    Truncation,
    VacuumPi,
    basis_state,
    carrier_rotation,
    coupling_g,
    expm_oracle,
    ladder,
    sideband_hamiltonian,
)
from noonsim.dynamics import _embed_qubit_axis, rabi_frequencies
from noonsim.fock import QUBIT_INDEX
from noonsim.protocol import resolve_duration


def random_program(rng: random.Random) -> Program:
    """One random valid pulse program; used for round-trip testing."""
    guard = rng.randint(4, 6)
    trunc = Truncation(
        n_max_x=rng.randint(8 + guard, 20),
        n_max_y=rng.randint(8 + guard, 20),
        guard=guard,
    )
    steps = [Prepare(rng.choice("ge"), rng.randint(0, 4), rng.randint(0, 4))]
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(["pulse", "rotate", "measure"])
        if kind == "pulse":
            form = rng.choice(["closed", "full"])
            k = rng.randint(1, guard)
            duration = rng.choice(
                [rng.uniform(0.0, 5.0), VacuumPi(), SuperpositionPi(rng.randint(1, 2000))]
            )
            steps.append(
                SidebandPulse(
                    PulseSpec(
                        axis=rng.choice("xy"),
                        k=k,
                        eta=rng.uniform(0.01, 0.9),
                        omega=rng.uniform(0.1, 2e4),
                        duration=duration,
                        form=form,
                    )
                )
            )
        elif kind == "rotate":
            steps.append(
                Rotate(RotationSpec(rng.uniform(-7, 7), rng.uniform(-7, 7)))
            )
        else:
            steps.append(MeasureQubit(rng.choice("ge")))
    return Program(trunc, tuple(steps))


def closed_form_hamiltonian(spec, trunc):
    """g_k (sigma_+ a^k + h.c.) from the ladder operator, independently of the frequency table."""
    d = trunc.dim_of(spec.axis)
    sigma_plus = np.zeros((2, 2), dtype=complex)
    sigma_plus[QUBIT_INDEX["e"], QUBIT_INDEX["g"]] = 1.0
    a_k = np.linalg.matrix_power(ladder(d, "lower", spec.axis).mat, spec.k)
    h = coupling_g(spec) * _embed_qubit_axis(np.kron(sigma_plus, a_k), spec.axis, trunc)
    return h + h.conj().T


def run_dense(program: Program) -> list[np.ndarray]:
    """The (2, dx, dy) amplitudes after each step of ``program``, from dense reference operators.

    A second engine for whole programs, sharing with ``run_sequence`` only
    the seconds of each pulse, from ``resolve_duration``, whose solver has
    its own oracles.  A pulse is ``expm_oracle`` of its dense Hamiltonian,
    ``closed_form_hamiltonian`` for the closed form and
    ``sideband_hamiltonian`` for the full one; a rotation is
    ``carrier_rotation``; a measurement zeroes the other qubit level and
    renormalizes.  Each step multiplies a dim x dim matrix, so keep
    ``Truncation.dim`` to a few hundred.
    """
    trunc = program.trunc
    shape = (2, trunc.dim_x, trunc.dim_y)
    states = []
    for step in program.steps:
        if isinstance(step, Prepare):
            vec = basis_state(step.q, step.nx, step.ny, trunc).ravel()
        elif isinstance(step, SidebandPulse):
            spec = step.spec
            t, _ = resolve_duration(spec, rabi_frequencies(spec, trunc))
            full = spec.form == "full"
            h = sideband_hamiltonian(spec, trunc) if full else closed_form_hamiltonian(spec, trunc)
            vec = expm_oracle(h, t) @ vec
        elif isinstance(step, Rotate):
            vec = carrier_rotation(step.spec, trunc) @ vec
        else:  # a MeasureQubit
            amp = vec.reshape(shape).copy()
            amp[QUBIT_INDEX["g" if step.outcome == "e" else "e"]] = 0.0
            vec = amp.ravel() / np.linalg.norm(amp)
        states.append(vec.reshape(shape))
    return states


DENSE_BUILDERS = (
    "sideband_hamiltonian",
    "closed_form_unitary",
    "expm_oracle",
    "carrier_rotation",
    "apply_operator",
    "_embed_qubit_axis",
)


@pytest.fixture
def no_dense_operators(monkeypatch):
    """Make every dense dim x dim builder raise, wherever noonsim holds it.

    At n_max = 96 one dense operator takes about 5.7 GB, so a regression
    that puts one back on the runtime path fails here instead of exhausting
    memory.
    """
    import noonsim
    from noonsim import cli, dynamics, protocol

    def refuse(*args, **kwargs):
        raise AssertionError("dense operator built on the runtime path")

    for module in (noonsim, dynamics, protocol, cli):
        for name in DENSE_BUILDERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
