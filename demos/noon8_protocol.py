"""Walk through the canonical N=8 NOON-state protocol, step by step.

Starts from |e, 0, 0>, gives four phonons to each mode with vacuum pi
pulses, splits the qubit, runs the two superposition pulses, rotates, and
post-selects on each measurement outcome.  Prints the dominant amplitudes
after every step, the solved duration and predicted timing infidelity of
each auto-timed pulse, and the final NOON fidelity for both branches.

Run:  python demos/noon8_protocol.py
"""

import numpy as np

from noonsim import (
    Truncation,
    build_noon8,
    noon_fidelity,
    run_sequence,
)
from noonsim.fock import QUBIT_LABELS

trunc = Truncation(n_max_x=12, n_max_y=12, guard=4)
steps = build_noon8(g_x=1.0, g_y=1.0, horizon=1000)

names = [
    "prepare |e,0,0>",
    "x vacuum pi pulse",
    "reset rotation g -> e",
    "y vacuum pi pulse",
    "split qubit to (|e>+|g>)/sqrt(2)",
    "x superposition pulse",
    "y superposition pulse",
    "analysis rotation",
    "measure qubit",
]


def show(state, top=4):
    p = np.abs(state.amp) ** 2
    order = np.argsort(p, axis=None)[::-1]
    for flat in order[:top]:
        q, nx, ny = np.unravel_index(flat, p.shape)
        if p[q, nx, ny] < 1e-6:
            break
        a = state.amp[q, nx, ny]
        print(
            f"      |{QUBIT_LABELS[q]},{nx},{ny}>  "
            f"p = {p[q, nx, ny]:.6f}  amp = {a:.4f}"
        )


for outcome in ("e", "g"):
    print(f"\n=== measurement outcome {outcome!r} ===")
    result = run_sequence(steps, trunc, outcome_override=outcome)
    for rec, name in zip(result.steps, names):
        print(f"  step {rec.index}: {name}   (guard-band leakage {rec.leakage:.2e})")
        if rec.timing_infidelity is not None:
            print(f"      t = {rec.duration:.6f}, predicted timing infidelity "
                  f"{rec.timing_infidelity:.2e}")
        show(rec.state)
    m = result.measurements[0]
    nf = noon_fidelity(result.final_state, 8)
    print(f"  branch probability      : {m.probability:.6f}")
    print(f"  best NOON(8) fidelity   : {nf.best_fidelity:.9f}")
    print(f"  best relative phase chi*: {nf.best_phase:+.4f} rad")
    print(f"  fidelity at chi = 0     : {nf.fidelity_chi_0:.9f}")
    print(f"  fidelity at chi = pi    : {nf.fidelity_chi_pi:.9f}")
