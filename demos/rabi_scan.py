"""Four-phonon Rabi oscillations of the first protocol pulse.

Scans the duration of the x sideband pulse acting on |e, 0, 0> and writes
a CSV of P(e), P(g) and guard-band leakage versus t.  From the vacuum the
oscillation frequency is sqrt(4!) g, so P(e)(t) = cos^2(sqrt(24) g t) and
the first zero sits at t = pi / (2 sqrt(24) g).

Run:  python demos/rabi_scan.py         (writes rabi_scan.csv)
The same table is available from the CLI:

    noonsim scan demos/noon8.pp --step 1 --t-min 0 --t-max 1.3 --samples 400
"""

import numpy as np

from noonsim import (
    Truncation,
    basis_state,
    build_noon8,
    scan_pulse,
    vacuum_pulse_time,
)

trunc = Truncation(12, 12, 4)
state = basis_state("e", 0, 0, trunc)
g = 1.0
spec = build_noon8(g, g)[1].spec  # the protocol's first x pulse

t_pi = vacuum_pulse_time(g)
print(f"vacuum pi time: {t_pi:.6f}  (pi / (2 sqrt(24) g))")

# one batched evaluation of all 400 durations; spec.duration, the auto marker, is not used
ts = np.linspace(0.0, 4.0 * t_pi, 400)
p_g, p_e, leakage = scan_pulse(state, spec, ts)
predicted = np.cos(np.sqrt(24.0) * g * ts) ** 2
assert np.max(np.abs(p_e - predicted)) < 1e-10

with open("rabi_scan.csv", "w") as fh:
    fh.write("t,p_e,p_g,leakage\n")
    for row in zip(ts.tolist(), p_e.tolist(), p_g.tolist(), leakage.tolist()):
        fh.write(",".join(map(repr, row)) + "\n")

print("wrote rabi_scan.csv (P(e) matches cos^2(sqrt(24) g t) at every sample)")
