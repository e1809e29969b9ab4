"""Exhaustive oracle for small instances, independent of the lattice solver.

`brute_force_value` walks the full observation-history tree: at each raw
history it scores both arms by averaging over that arm's predictive outcomes
and keeps the better one.  This evaluates the entire space of deterministic
history-dependent strategies (the best strategy's expected payoff is the
max-over-choices of outcome-averaged subtree payoffs) without materializing
each strategy.  Nothing is shared with the solver: histories stay raw tuples
of observed values, posterior weights are recounted from the history on
every visit, and there is no memoization.  The arithmetic is exact, on
integer numerators over one denominator per node, and one ``Fraction`` is
built at the root.

`enumerate_strategy_values` is the literal version -- every deterministic
strategy built explicitly and scored by summing path probabilities -- kept
for tiny instances as a cross-check of the oracle itself.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

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
    """Exact rational value of a small instance via the full history tree.

    The walk adds and multiplies Python integers, with no gcd, and builds
    one ``Fraction`` at the root.  Locations are numerators over Dx, the lcm
    of both arms' location denominators; discounts over Da, the lcm of
    theirs; arm i's weights over Dw_i, the lcm of its own, so one
    observation adds Dw_i to a weight.  A node with r stages left returns
    ``(N, L)``, worth ``N / (Da·Dx·L)``, where L is the product over those r
    stages of both arms' scaled posterior masses counted from the node.
    The children of one arm share their L'.  Pulling arm i gives
    ``N_i = e·Σ_j W_ij·(G_tij·L' + N'_j)`` and ``L = m_i·L'·e``: m_i is arm
    i's mass now, e the other arm's mass after r - 1 more observations, and
    ``G_tij = a_t·x_ij·Da·Dx``.  L comes out the same for either arm, so the
    larger N_i picks the better arm.
    """
    n = _check_size(state, MAX_HORIZON, MAX_TOTAL_ATOMS)
    arms = (_exact_atoms(state.arm1), _exact_atoms(state.arm2))
    a = tuple(Fraction(v) for v in state.discount.values)
    dx = lcm(*(x.denominator for atoms in arms for x, _ in atoms))
    da = lcm(*(v.denominator for v in a))
    a_num = [v.numerator * (da // v.denominator) for v in a]
    # Per arm: Dw, the scaled base mass, and per atom its location numerator
    # (what a history records), its base weight W and its payoffs G[t].
    scaled = []
    for atoms in arms:
        dw = lcm(*(w.denominator for _, w in atoms))
        xs = [x.numerator * (dx // x.denominator) for x, _ in atoms]
        ws = [w.numerator * (dw // w.denominator) for _, w in atoms]
        pays = [tuple(at * x for at in a_num) for x in xs]
        scaled.append((dw, sum(ws), tuple(zip(xs, ws, pays))))

    def best(h1, h2, t):
        if t == n:
            return 0, 1
        later = n - t - 1
        pulls = []
        for arm, hist, other in ((0, h1, h2), (1, h2, h1)):
            dw, base, atoms = scaled[arm]
            acc = 0
            for x, w0, g in atoms:
                if arm == 0:
                    num, den = best(h1 + (x,), h2, t + 1)
                else:
                    num, den = best(h1, h2 + (x,), t + 1)
                acc += (w0 + dw * hist.count(x)) * (g[t] * den + num)
            dw_o, base_o, _ = scaled[1 - arm]
            e = base_o + dw_o * (len(other) + later)
            pulls.append((acc * e, (base + dw * len(hist)) * den * e))
        # Both pulls share L, so the larger pair is the larger numerator.
        return max(pulls)

    num, den = best((), (), 0)
    return Fraction(num, da * dx * den)


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
