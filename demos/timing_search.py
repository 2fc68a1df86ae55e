"""How good can a single superposition-pulse duration be?

The superposition pulse must complete |g,4> -> |e,0> (frequency
sqrt(24) g) and |e,4> -> |g,8> (frequency sqrt(1680) g) at the same time.
Their ratio sqrt(70) is irrational, so no duration is exact for both.
Of the candidates t_m = (2m + 3/2) pi / (sqrt(24) g), m = 0..M, which are
exact for the first transition, the engine takes the one that best hits
the second, found by ``noonsim.protocol.solve_duration``, whose exact
search stays cheap at large horizons.

This script shows how the predicted timing infidelity and the end-to-end
NOON fidelity improve as the search horizon grows.  Both the duration and
the predicted infidelity are the ones the run solved for its x-axis
superposition pulse (step 5).

Run:  python demos/timing_search.py
"""

from noonsim import (
    Truncation,
    build_noon8,
    noon_fidelity,
    run_sequence,
)

g = 1.0
trunc = Truncation(12, 12, 4)

print(f"{'horizon M':>10} {'t':>14} {'predicted infid':>16} {'NOON fidelity':>14}")
for horizon in (1, 3, 10, 30, 100, 300, 1000, 10**4, 10**5, 10**6):
    result = run_sequence(build_noon8(g, g, horizon), trunc, outcome_override="g")
    t, infid = result.steps[5].duration, result.steps[5].timing_infidelity
    f = noon_fidelity(result.final_state, 8).best_fidelity
    print(f"{horizon:>10} {t:>14.6f} {infid:>16.3e} {f:>14.9f}")

print(
    "\nThe predicted infidelity is monotone non-increasing in the horizon;"
    "\nthe residual quantifies the gap left by the sqrt(70) incommensurability."
)
