"""Break-even values and break-even observations for one-armed bandits.

Against a known arm paying a constant rate, a regular discount sequence
turns the problem into optimal stopping: pull the unknown arm until it
disappoints, then retire.  The break-even value is the known rate at which
you are indifferent at the start; the break-even observation is the first
draw at which you stay rather than retire.
"""
from dirichlet_bandits import (
    SolverOptions,
    break_even_observation,
    break_even_value,
    index_sweep,
    make_discount,
    make_measure,
    make_uniform,
    mean,
    scale,
    sweep_csv,
    value_one_armed,
)

arm = make_measure([(0, 1), (1, 1)])  # mass 2, mean 1/2
A = make_discount([1, 1])
exact = SolverOptions(mode="exact")

# ---------------------------------------------------------------------------
# Break-even value: smallest known rate at which retiring immediately is
# optimal.  For this instance the pull payoff on [1/3, 2/3] is
# 5/6 + lam/2, and it meets the retirement line 2*lam at lam = 5/9.  The
# search takes Newton steps on that slope: from the mean 1/2 the first step
# lands on 5/9, and the second stopping pass confirms it.
# ---------------------------------------------------------------------------
res = break_even_value(arm, A)
print(f"break-even value: {res.value:.10f} (hand solution 5/9 = {5/9:.10f})")
print(f"  bracket width {res.bracket[1] - res.bracket[0]:.2e}, "
      f"{res.iterations} stopping passes, residual {res.residual:.2e}")
print(f"  in exact arithmetic: {break_even_value(arm, A, options=exact).value}")

# Sanity: above the index the known arm is taken and the value is exactly
# the retirement stream; below it the unknown arm is pulled.
above = value_one_armed(arm, res.value + 0.01, A)
below = value_one_armed(arm, res.value - 0.01, A)
print(f"  at lambda+0.01: action={above.action.value}, W - lam*T1 = "
      f"{above.w - (res.value + 0.01) * A.total:.2e}")
print(f"  at lambda-0.01: action={below.action.value}")

# ---------------------------------------------------------------------------
# Break-even observation: observing x = 2/3 leaves the one-stage posterior
# break-even value at exactly 5/9 (the posterior mean (1 + x)/3), so 2/3 is
# the threshold between retiring and continuing after one pull.
# ---------------------------------------------------------------------------
b = break_even_observation(arm, A)
print(f"\nbreak-even observation: {b.value:.10f} (hand solution 2/3)")
print(f"  in exact arithmetic: {break_even_observation(arm, A, options=exact).value}")
print(f"  it never falls below the break-even value: {b.value >= res.value}")

# ---------------------------------------------------------------------------
# Sweeps.  More prior weight on the same mean distribution means less left
# to learn, so the break-even value falls; spreading the prior mean out
# raises it; shifting all payoffs translates it exactly.
# ---------------------------------------------------------------------------
bernoulli = make_measure([(0, 0.5), (1, 0.5)])
masses = [1, 2, 4, 8]
sweep = index_sweep(
    lambda M: scale(bernoulli, M), make_uniform(4), masses, expected="nonincreasing"
)
print("\nprior-weight sweep on a fair two-point arm, four uniform stages:")
print(sweep_csv(sweep))
assert not sweep.flags

values = [row.value for row in sweep.rows]
print("strictly decreasing:", all(a > b for a, b in zip(values, values[1:])))
print(f"all above the prior mean {mean(bernoulli):.2f}: "
      f"{all(v > 0.5 for v in values)} (information never hurts)")

# Clayton & Berry's (1985) setting: the same fall at a long uniform horizon,
# pinned in exact arithmetic (each root a Fraction, residual zero).
long_run = [break_even_value(scale(bernoulli, M), make_uniform(50), options=exact).value
            for M in (1, 2, 4)]
print("\nexact break-even values of the coin at M = 1, 2, 4, fifty uniform stages:")
print("  " + ", ".join(f"{float(v):.6f}" for v in long_run))
print("  strictly decreasing:", all(a > b for a, b in zip(long_run, long_run[1:])))
