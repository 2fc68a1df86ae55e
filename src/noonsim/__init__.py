"""Desk-scale simulator for generating N=8 NOON states of the vibrational
motion of a single trapped ion.

The package is organized in four layers:

- :mod:`noonsim.fock` -- truncated two-mode Fock space: states, ladder
  operators, associated Laguerre polynomials.
- :mod:`noonsim.dynamics` -- sideband pulses and carrier rotations.  The
  runtime propagator is a pair-rotation kernel on the amplitude tensor:
  each sideband pulse is a set of 2x2 rotations on the pairs
  (|e,n>, |g,n+k>), with the closed and full forms differing only in their
  table of Rabi frequencies, which one function builds per pulse.  A pulse
  enters the kernel through ``apply_pulse(state, spec, duration)``, or a
  whole duration scan at once through ``scan_pulse(state, spec,
  durations)``, and a carrier rotation is the same kernel at k = 0, on the
  pairs (|e,n>, |g,n>), through ``apply_rotation``.  A program's pulse
  duration is seconds or an auto marker (``VacuumPi``,
  ``SuperpositionPi``), defined beside ``PulseSpec``; the kernel takes
  seconds as an argument, which ``protocol.resolve_duration`` gives.  The
  dense builders (sideband Hamiltonian, closed-form four-phonon unitary,
  eigendecomposition matrix exponential, dense carrier rotation) are kept
  as reference oracles for tests.
- :mod:`noonsim.protocol` -- pulse-sequence execution, pulse-time solving
  (exact for the vacuum pulse; for the superposition pulse the best
  candidate within a horizon, found by ``solve_duration``), measurement
  post-selection and NOON fidelity scoring.
- :mod:`noonsim.program` / :mod:`noonsim.cli` -- the pulse-program text
  format, parser/serializer, and the ``run`` / ``scan`` command line.
"""

from .fock import (
    Truncation,
    HybridState,
    ModeOperator,
    QUBIT_INDEX,
    QUBIT_LABELS,
    laguerre_assoc,
    ladder,
    basis_state,
)
from .dynamics import (
    PulseSpec,
    RotationSpec,
    VacuumPi,
    SuperpositionPi,
    PhysicsError,
    coupling_g,
    sideband_hamiltonian,
    closed_form_unitary,
    expm_oracle,
    carrier_rotation,
    apply_pulse,
    scan_pulse,
    apply_rotation,
    apply_operator,
)
from .protocol import (
    Prepare,
    SidebandPulse,
    Rotate,
    MeasureQubit,
    StepRecord,
    RunResult,
    NoonFidelity,
    vacuum_pulse_time,
    superposition_pulse_time,
    run_sequence,
    build_noon8,
    noon_fidelity,
)
from .program import Program, ParseError, parse, serialize

__all__ = [
    "Truncation", "HybridState", "ModeOperator",
    "QUBIT_INDEX", "QUBIT_LABELS",
    "laguerre_assoc", "ladder", "basis_state",
    "PulseSpec", "RotationSpec", "PhysicsError",
    "coupling_g", "sideband_hamiltonian", "closed_form_unitary",
    "expm_oracle", "carrier_rotation", "apply_pulse", "scan_pulse",
    "apply_rotation", "apply_operator",
    "Prepare", "SidebandPulse", "Rotate", "MeasureQubit",
    "VacuumPi", "SuperpositionPi", "StepRecord", "RunResult",
    "NoonFidelity", "vacuum_pulse_time", "superposition_pulse_time",
    "run_sequence", "build_noon8", "noon_fidelity",
    "Program", "ParseError", "parse", "serialize",
]

__version__ = "0.1.0"
