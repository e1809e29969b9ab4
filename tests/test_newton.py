"""Newton break-even searches: exact roots, slope columns, traces and the
monotonicity check."""
from fractions import Fraction

import pytest

from dirichlet_bandits import (
    InstanceGen,
    break_even_observation,
    break_even_value,
    make_discount,
    make_measure,
    posterior_update,
    stopping_value,
    to_exact,
    value_one_armed,
)
from dirichlet_bandits import index, solver
from dirichlet_bandits.index import DEFAULT_TOL
from dirichlet_bandits.solver import EXACT_OPTIONS
from dirichlet_bandits.verify import random_discount, random_measure

COIN = make_measure([(0, 1), (1, 1)])
A2 = make_discount([1, 1])


def newton(f, start, limit, bound, tol, exact):
    """Run ``index._newton_steps`` from the pass ``start`` = (x, objective,
    slope), with ``f(x)`` giving each later pass."""
    x, *feedback = start
    steps = index._newton_steps(x, limit, bound, tol, exact)
    next(steps)
    try:
        while True:
            feedback = f(steps.send(tuple(feedback)))
    except StopIteration as done:
        return done.value


def count_passes(monkeypatch):
    passes = []

    def counted_pass(*args):
        passes.append(args)
        return stopping_pass(*args)

    stopping_pass = solver._stopping_pass
    monkeypatch.setattr(solver, "_stopping_pass", counted_pass)
    return passes


class TestExactRoots:
    @pytest.mark.parametrize(
        "search, A, want",
        [
            (break_even_value, A2, Fraction(5, 9)),
            (break_even_observation, A2, Fraction(2, 3)),
            # a_1 = 0 makes T_1 = T_2: no slope bound, only the support cap.
            (break_even_value, make_discount([0, 1]), Fraction(2, 3)),
        ],
    )
    def test_coin(self, search, A, want, monkeypatch):
        passes = count_passes(monkeypatch)
        res = search(COIN, A, options=EXACT_OPTIONS)
        assert res.value == want
        assert res.bracket == (want, want)
        assert res.residual == 0
        assert res.iterations == 2
        # The observation search runs the value search's two passes first.
        assert len(passes) == (4 if search is break_even_observation else 2)

    def test_float_within_tolerance_of_exact(self):
        gen = InstanceGen(seed=41)
        for i in range(100):
            rng = gen.rng(i)
            arm = random_measure(gen, rng)
            A = random_discount(gen, rng, kind="regular")
            exact = break_even_value(arm, A, options=EXACT_OPTIONS)
            assert isinstance(exact.value, Fraction)
            assert exact.residual == 0
            assert abs(break_even_value(arm, A).value - exact.value) <= DEFAULT_TOL

    def test_exact_observation_is_the_threshold(self):
        gen = InstanceGen(seed=43)
        for i in range(10):
            rng = gen.rng(i)
            arm = to_exact(random_measure(gen, rng))
            A = random_discount(gen, rng, kind="regular_positive", min_n=2, max_n=4)
            lam = break_even_value(arm, A, options=EXACT_OPTIONS).value
            b = break_even_observation(arm, A, options=EXACT_OPTIONS).value
            A1 = make_discount(A.values[1:], exact=True)
            # At b the posterior's pull payoff meets retirement at lam exactly.
            at = value_one_armed(posterior_update(arm, b), lam, A1, EXACT_OPTIONS)
            assert at.w1 == lam * A1.total


class TestSlopeColumns:
    EPS = Fraction(1, 10**30)

    def test_rate_slope_is_the_difference_quotient(self):
        gen = InstanceGen(seed=44)
        for i in range(10):
            rng = gen.rng(i)
            arm = to_exact(random_measure(gen, rng))
            A = random_discount(gen, rng, kind="regular")
            stop = solver._stopping_form(arm, A, EXACT_OPTIONS)
            lam = Fraction(int(rng.integers(0, 64)), 64) + Fraction(1, 997)
            (pull, v), (dpull, dv) = stop(lam, slope=True)
            (pull_eps, v_eps), _ = stop(lam + self.EPS, slope=True)
            assert v == stopping_value(arm, lam, A, EXACT_OPTIONS)
            assert (pull_eps - pull) / self.EPS == dpull
            assert (v_eps - v) / self.EPS == dv

    def test_observation_table_matches_the_posterior(self):
        # The new atom sits last in the table whether or not x is a location
        # of the arm already.
        gen = InstanceGen(seed=45)
        for i in range(10):
            rng = gen.rng(i)
            arm = to_exact(random_measure(gen, rng))
            A = random_discount(gen, rng, kind="regular")
            stack = solver._observation_setup([arm], [A], EXACT_OPTIONS)
            lam = Fraction(1, 3)
            for x in (arm.locations[0], Fraction(2, 7)):
                ((p, slope),) = solver._observation_pass(stack, [x], [lam])
                assert p == value_one_armed(posterior_update(arm, x), lam, A, EXACT_OPTIONS).w1
                ((p_eps, _),) = solver._observation_pass(stack, [x + self.EPS], [lam])
                assert (p_eps - p) / self.EPS == slope

    def test_one_column_passes_stay_one_column(self, monkeypatch):
        passes = count_passes(monkeypatch)
        stopping_value(COIN, 0.5, A2)
        value_one_armed(COIN, 0.5, A2)
        assert len(passes) == 3
        assert all(len(columns) == 1 for _, columns, *_ in passes)


class TestTrace:
    def test_one_entry_per_pass_and_monotone_iterates(self):
        gen = InstanceGen(seed=46)
        for i in range(20):
            rng = gen.rng(i)
            arm = random_measure(gen, rng)
            A = random_discount(gen, rng, kind="regular_positive", min_n=2)
            lam = break_even_value(arm, A)
            b = break_even_observation(arm, A)
            for res, sign in ((lam, 1), (b, -1)):
                assert len(res.trace) == res.iterations
                assert res.monotone
                assert res.trace[-1][0] == res.value
                assert abs(res.trace[-1][1]) == res.residual
            points = [x for x, _, _ in lam.trace]
            assert points == sorted(points)  # lambda rises
            objectives = [g for _, g, _ in lam.trace]
            assert objectives == sorted(objectives, reverse=True)
            assert all(slope < 0 for _, g, slope in lam.trace if g > 0)

    def test_observation_iterates_fall(self):
        res = break_even_observation(COIN, A2)
        assert [x for x, _, _ in res.trace] == [1.0, res.value]
        assert res.value == pytest.approx(2 / 3, abs=1e-15)

    def test_non_convex_objective_warns_and_is_flagged(self):
        # The tangent at 0 points at 1, where the objective has dropped
        # below zero: no convex objective does that.
        objective = {1: (-0.5, -1.0)}
        with pytest.warns(RuntimeWarning, match="Newton iterates"):
            res = newton(objective.get, (0, 1.0, -1.0), 2, 0, 1e-9, False)
        assert not res.monotone
        assert res.value == 1 and res.iterations == 2

    def test_a_slope_that_does_not_descend_ends_the_search(self):
        # A positive objective with a flat slope: only rounding does that, so
        # the start is as close as floats can tell, bracketed by the bound.
        res = newton(None, (0, 1.0, 0.0), 2, -1, 1e-9, False)
        assert res.value == 0 and res.bracket == (0, 1.0)
        assert res.iterations == 1 and res.residual == 1.0

    def test_a_step_that_stalls_ends_the_search(self):
        # x - f / slope rounds back to x.
        res = newton(None, (1e20, 1.0, -1.0), 1e21, -1e-30, 1e-9, False)
        assert res.value == 1e20 and res.bracket == (1e20, 1e21)
        assert res.iterations == 1 and res.residual == 1.0
