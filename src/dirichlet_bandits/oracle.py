"""Exhaustive oracle for small instances, independent of the lattice solver.

`brute_force_value` walks the full observation-history tree: at each raw
history it scores both arms by averaging over that arm's predictive outcomes
and keeps the better one.  This evaluates the entire space of deterministic
history-dependent strategies (the best strategy's expected payoff is the
max-over-choices of outcome-averaged subtree payoffs) without materializing
each strategy.  Nothing is shared with the solver: histories stay raw tuples
of observed values, posterior weights are recounted from the history on
every visit, there is no memoization, and all arithmetic is exact rational.

`enumerate_strategy_values` is the literal version -- every deterministic
strategy built explicitly and scored by summing path probabilities -- kept
for tiny instances as a cross-check of the oracle itself.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import TooLargeError
from .solver import BanditState

#: Guards on the full-tree walk; beyond these the outcome tree is too big.
MAX_HORIZON = 5
MAX_TOTAL_ATOMS = 6

#: Tighter guards for literal strategy enumeration (strategy counts explode).
MAX_ENUM_HORIZON = 3
MAX_ENUM_TOTAL_ATOMS = 4


def _exact_atoms(measure):
    return tuple((Fraction(x), Fraction(w)) for x, w in measure.atoms)


def _check_size(state: BanditState, max_horizon: int, max_atoms: int):
    n = len(state.discount.values)
    total = len(state.arm1.atoms) + len(state.arm2.atoms)
    if n > max_horizon or total > max_atoms:
        raise TooLargeError(
            f"instance with horizon {n} and {total} atoms exceeds the "
            f"exhaustive-evaluation guard ({max_horizon} stages, {max_atoms} atoms)"
        )
    return n


def brute_force_value_exact(state: BanditState) -> Fraction:
    """Exact rational value of a small instance via the full history tree."""
    n = _check_size(state, MAX_HORIZON, MAX_TOTAL_ATOMS)
    arms = (_exact_atoms(state.arm1), _exact_atoms(state.arm2))
    base_mass = tuple(sum(w for _, w in atoms) for atoms in arms)
    a = tuple(Fraction(v) for v in state.discount.values)

    def best(h1, h2, t):
        if t == n:
            return Fraction(0)
        value = None
        for arm, hist in ((0, h1), (1, h2)):
            mass = base_mass[arm] + len(hist)
            acc = Fraction(0)
            for x, w0 in arms[arm]:
                w = w0 + hist.count(x)
                if arm == 0:
                    cont = best(h1 + (x,), h2, t + 1)
                else:
                    cont = best(h1, h2 + (x,), t + 1)
                acc += w * (a[t] * x + cont)
            acc /= mass
            if value is None or acc > value:
                value = acc
        return value

    return best((), (), 0)


def brute_force_value(state: BanditState) -> float:
    """Float value of :func:`brute_force_value_exact`."""
    return float(brute_force_value_exact(state))


def enumerate_strategy_values(state: BanditState) -> list[Fraction]:
    """Expected payoff of every deterministic strategy, scored path by path.

    A strategy assigns an arm to each reachable history; its payoff is the
    sum over complete observation paths of path probability times discounted
    path payoff.  Only viable for very small instances.
    """
    n = _check_size(state, MAX_ENUM_HORIZON, MAX_ENUM_TOTAL_ATOMS)
    arms = (_exact_atoms(state.arm1), _exact_atoms(state.arm2))
    base_mass = tuple(sum(w for _, w in atoms) for atoms in arms)
    a = tuple(Fraction(v) for v in state.discount.values)

    def strategies(t, h1, h2):
        # A strategy subtree is (arm, (child for each observation of that arm)).
        if t == n:
            return [None]
        out = []
        for arm, hist in ((0, h1), (1, h2)):
            child_lists = []
            for x, _ in arms[arm]:
                if arm == 0:
                    child_lists.append(strategies(t + 1, h1 + (x,), h2))
                else:
                    child_lists.append(strategies(t + 1, h1, h2 + (x,)))
            for combo in product(*child_lists):
                out.append((arm, combo))
        return out

    def score(node, t, h1, h2, prob, payoff, sink):
        if node is None:
            sink[0] += prob * payoff
            return
        arm, children = node
        hist = h1 if arm == 0 else h2
        mass = base_mass[arm] + len(hist)
        for j, (x, w0) in enumerate(arms[arm]):
            w = w0 + hist.count(x)
            p = Fraction(w, 1) / mass
            gain = a[t] * x
            if arm == 0:
                score(children[j], t + 1, h1 + (x,), h2, prob * p, payoff + gain, sink)
            else:
                score(children[j], t + 1, h1, h2 + (x,), prob * p, payoff + gain, sink)

    values = []
    for strat in strategies(0, (), ()):
        sink = [Fraction(0)]
        score(strat, 0, (), (), Fraction(1), Fraction(0), sink)
        values.append(sink[0])
    return values
