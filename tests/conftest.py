import random

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
)


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
