"""Monte Carlo cross-validation of the dynamic-programming values.

Simulated optimal play is a fully independent consumer of the solver: it
only asks "which arm here?" and then draws observations from the pulled
arm's predictive.  Sample means must land within a few standard errors of
the backward-induction value.

The simulation follows a histogram of observation paths rather than each
trajectory: at every stage the trajectories on a path are split over the
pulled arm's atoms by one multinomial draw.  That is the same estimator as
stepping every trajectory, so a million trajectories cost no more than the
few paths they share.
"""
from dirichlet_bandits import (
    BanditState,
    InstanceGen,
    make_discount,
    make_measure,
    point_mass,
    simulate_policy,
    value,
)
from dirichlet_bandits.verify import random_state

# ---------------------------------------------------------------------------
# The hand-checkable instance: DP value 13/12.
# ---------------------------------------------------------------------------
state = BanditState(
    make_measure([(0, 1), (1, 1)]), point_mass(0.5), make_discount([1, 1])
)
dp = value(state).w
mean_v, se = simulate_policy(state, trials=1_000_000, seed=2024)
print("coin vs known 1/2, two stages:")
print(f"  DP value     : {dp:.6f}")
print(f"  simulated    : {mean_v:.6f} +/- {se:.6f}")
print(f"  |difference| : {abs(mean_v - dp):.6f} = {abs(mean_v - dp) / se:.2f} SE")

# Degenerate arms simulate with zero variance and match exactly.
flat = BanditState(point_mass(0.3), point_mass(0.8), make_discount([1, 0.5, 0.25]))
m, s = simulate_policy(flat, trials=1_000, seed=0)
print(f"\nboth arms known: simulated {m:.10f}, SE {s}, DP {value(flat).w:.10f}")

# ---------------------------------------------------------------------------
# A seeded batch of random instances: every simulation should sit within
# four standard errors of its DP value.
# ---------------------------------------------------------------------------
gen = InstanceGen(seed=99)
print("\nrandom instances, 100k trajectories each:")
print(f"{'instance':>8} {'DP value':>12} {'simulated':>12} {'SE':>10} {'z':>7}")
for i in range(8):
    st = random_state(gen, gen.rng(i))
    w = value(st).w
    m, s = simulate_policy(st, trials=100_000, seed=1_000 + i)
    z = abs(m - w) / s if s else 0.0
    print(f"{i:>8} {w:>12.6f} {m:>12.6f} {s:>10.6f} {z:>7.2f}")
    assert abs(m - w) <= 4 * s + 1e-12
print("all within four standard errors")
