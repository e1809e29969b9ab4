"""The exhaustive oracle and its literal strategy-enumeration cross-check."""
import random
from fractions import Fraction

import pytest

from dirichlet_bandits import (
    BanditState,
    InstanceGen,
    TooLargeError,
    brute_force_value,
    brute_force_value_exact,
    drop_first,
    enumerate_strategy_values,
    make_discount,
    make_measure,
    make_uniform,
    mean,
    point_mass,
    value,
)
from dirichlet_bandits.oracle import MAX_HORIZON, MAX_TOTAL_ATOMS
from dirichlet_bandits.solver import EXACT_OPTIONS
from dirichlet_bandits.verify import random_discount, random_measure

GEN = InstanceGen(seed=31)

#: Non-dyadic denominators, so no rational below is a float.
DENOMINATORS = (3, 7, 10, 100, 1000)


def _rational(rng, lo, hi):
    d = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo * d, hi * d), d)


def _nondyadic_state(rng, atoms1, atoms2, n):
    """An exact instance with non-dyadic weights, locations and discounts:
    arm 1 has a negative location and, past one stage, one discount stage
    is zero."""
    arms = []
    for s in (atoms1, atoms2):
        locs = set() if arms else {_rational(rng, -1, 0) - Fraction(1, 7)}
        while len(locs) < s:
            locs.add(_rational(rng, -1, 2))
        arms.append(make_measure([(x, _rational(rng, 0, 2) + Fraction(1, 3)) for x in locs],
                                 exact=True))
    a = [_rational(rng, 0, 1) + Fraction(1, 10) for _ in range(n)]
    if n > 1:
        a[rng.randrange(n)] = Fraction(0)
    return BanditState(arms[0], arms[1], make_discount(a, exact=True))


def test_single_stage_closed_form():
    for i in range(20):
        rng = GEN.rng(i)
        arm1 = random_measure(GEN, rng, atoms=2)
        arm2 = random_measure(GEN, rng, atoms=2)
        a1 = float(rng.uniform(0.1, 2.0))
        state = BanditState(arm1, arm2, make_discount([a1]))
        expected = a1 * max(mean(arm1), mean(arm2))
        assert brute_force_value(state) == pytest.approx(expected, abs=1e-12)


def test_worked_instance_is_exact():
    state = BanditState(make_measure([(0, 1), (1, 1)]), point_mass(0.5), make_discount([1, 1]))
    assert brute_force_value_exact(state) == Fraction(13, 12)


def test_zero_stage_suffix_is_worth_zero():
    A = drop_first(drop_first(make_discount([1, 1])))
    state = BanditState(make_measure([(0, 1), (1, 1)]), point_mass(0.5), A)
    assert brute_force_value_exact(state) == 0


def test_coin_with_a_negative_location_against_a_known_arm():
    # Coin first pays -1/2, then the known arm's -1/2 after a -2 or the
    # coin's posterior mean 0 after a 1; the known arm twice pays -1.
    state = BanditState(make_measure([(-2, 1), (1, 1)]), point_mass(-0.5), make_discount([1, 1]))
    assert brute_force_value_exact(state) == Fraction(-3, 4)


def _guard_states():
    rng = random.Random(19)
    states = [_nondyadic_state(rng, 3, 3, 5) for _ in range(20)]
    # Non-dyadic decimals in float mode: their exact values carry 2**-55
    # denominators.
    arm1 = make_measure([(-0.3, 0.55), (0.1, 0.3), (0.55, 0.1)])
    arm2 = make_measure([(0.1, 0.1), (0.3, 0.55), (0.55, 0.3)])
    states.append(BanditState(arm1, arm2, make_discount([1, 0.55, 0.3, 0, 0.1])))
    return states


@pytest.mark.parametrize("state", _guard_states())
def test_agrees_exactly_with_the_exact_solver_at_the_guard(state):
    # Five stages and 3 + 3 atoms: the largest instance the oracle takes.
    assert len(state.discount.values) == MAX_HORIZON
    assert len(state.arm1) + len(state.arm2) == MAX_TOTAL_ATOMS
    assert brute_force_value_exact(state) == value(state, EXACT_OPTIONS).w


def test_size_guard():
    big_arm = make_measure([(i, 1) for i in range(4)])
    with pytest.raises(TooLargeError):
        brute_force_value(BanditState(big_arm, big_arm, make_uniform(2)))
    with pytest.raises(TooLargeError):
        brute_force_value(BanditState(point_mass(0), point_mass(1), make_uniform(6)))


def _enumerable_states():
    states = []
    for i in range(15):
        rng = GEN.rng(100 + i)
        arm1 = random_measure(GEN, rng, atoms=2)
        arm2 = random_measure(GEN, rng, atoms=int(rng.integers(1, 3)))
        n = int(rng.integers(1, 4))
        A = random_discount(GEN, rng, min_n=n, max_n=n)
        states.append(BanditState(arm1, arm2, A))
    rng = random.Random(3)
    states += [_nondyadic_state(rng, 2, rng.randint(1, 2), rng.randint(1, 3)) for _ in range(10)]
    return states


def test_literal_strategy_enumeration_matches_oracle():
    # Every deterministic strategy scored by path sums; the best one must
    # reproduce the oracle value exactly, on dyadic float draws and on
    # exact non-dyadic instances.
    for state in _enumerable_states():
        vals = enumerate_strategy_values(state)
        assert max(vals) == brute_force_value_exact(state)


def test_suboptimal_strategies_do_not_exceed_oracle():
    state = BanditState(
        make_measure([(0, 1), (1, 1)]), point_mass(0.5), make_discount([1, 1])
    )
    best = brute_force_value_exact(state)
    for v in enumerate_strategy_values(state):
        assert v <= best


def test_agrees_with_solver_on_random_instances():
    for i in range(25):
        rng = GEN.rng(200 + i)
        arm1 = random_measure(GEN, rng, atoms=int(rng.integers(1, 4)))
        arm2 = random_measure(GEN, rng, atoms=int(rng.integers(1, 4)))
        n = int(rng.integers(1, 4))
        A = random_discount(GEN, rng, min_n=n, max_n=n)
        state = BanditState(arm1, arm2, A)
        assert value(state).w == pytest.approx(brute_force_value(state), abs=1e-10)
