"""Two-armed lattice pass, one-armed stopping form, policy trees."""
import copy
import math
import time
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from dirichlet_bandits import (
    Action,
    BanditState,
    InstanceGen,
    InvalidParameterError,
    NotRegularError,
    ResourceBudgetExceededError,
    SolverOptions,
    brute_force_value_exact,
    drop_first,
    is_regular,
    make_discount,
    make_measure,
    make_truncated_geometric,
    make_uniform,
    mean,
    point_mass,
    policy_tree,
    shift,
    stopping_value,
    to_exact,
    to_float,
    value,
    value_one_armed,
)
from dirichlet_bandits import solver
from dirichlet_bandits.discount import _pass_table
from dirichlet_bandits.solver import (
    MEMO_CAP_ENV,
    BanditSolver,
    DiscountSeq,
    ValueReport,
    _lattice,
    _lattice_states,
    _values,
)
from dirichlet_bandits.verify import random_discount, random_measure, random_state, simulate_policy

GEN = InstanceGen(seed=21)
EXACT = SolverOptions(mode="exact")

COIN = make_measure([(0, 1), (1, 1)])
A2 = make_discount([1, 1])
WORKED = BanditState(COIN, point_mass(0.5), A2)

#: Float-typed, with rounded values: its float tails are not the sums of its
#: values as rationals, which an exact solve reads.
GEOMETRIC_09 = make_truncated_geometric(0.9, 12)


def test_single_stage_picks_better_mean():
    state = BanditState(COIN, point_mass(0.7), make_discount([2]))
    rep = value(state)
    assert rep.w == pytest.approx(1.4)
    assert rep.action is Action.ARM2


def test_worked_two_stage_instance():
    rep = value(WORKED)
    assert rep.w == pytest.approx(13 / 12, abs=1e-14)
    assert rep.w1 == pytest.approx(13 / 12, abs=1e-14)
    assert rep.w2 == pytest.approx(1.0, abs=1e-14)
    assert rep.action is Action.ARM1


def test_worked_instance_exact_mode():
    state = BanditState(
        make_measure([(0, 1), (1, 1)], exact=True),
        point_mass(Fraction(1, 2), exact=True),
        make_discount([1, 1], exact=True),
    )
    rep = value(state, EXACT)
    assert rep.w == Fraction(13, 12)
    assert rep.w2 == Fraction(1)


def test_both_arms_degenerate():
    A = make_discount([1, 0.5, 0.25])
    rep = value(BanditState(point_mass(0.3), point_mass(0.8), A))
    assert rep.w == pytest.approx(0.8 * A.total)
    assert rep.action is Action.ARM2


def test_zero_horizon():
    state = BanditState(COIN, point_mass(0.5), DiscountSeq((), (0.0,)))
    rep = value(state)
    assert rep.w == 0.0
    assert rep.action is Action.TIE


def test_tie_on_identical_arms():
    state = BanditState(COIN, COIN, make_uniform(3))
    rep = value(state)
    assert rep.action is Action.TIE
    assert rep.w1 == rep.w2


def test_value_bounds():
    for i in range(100):
        state = random_state(GEN, GEN.rng(i))
        rep = value(state)
        T1 = state.discount.total
        lo = max(mean(state.arm1), mean(state.arm2)) * T1
        hi = max(state.arm1.max_location, state.arm2.max_location) * T1
        assert rep.w >= lo - 1e-9
        assert rep.w <= hi + 1e-9


def test_arm_symmetry():
    for i in range(200):
        state = random_state(GEN, GEN.rng(1_000 + i))
        swapped = BanditState(state.arm2, state.arm1, state.discount)
        assert value(state).w == pytest.approx(value(swapped).w, abs=1e-12)


def test_discount_scaling():
    for i in range(30):
        state = random_state(GEN, GEN.rng(2_000 + i))
        w = value(state).w
        for c in (0.5, 2.0):
            scaled = BanditState(
                state.arm1,
                state.arm2,
                make_discount([c * a for a in state.discount.values]),
            )
            assert value(scaled).w == pytest.approx(c * w, abs=1e-10)


def test_translation_equivariance():
    for i in range(30):
        state = random_state(GEN, GEN.rng(3_000 + i))
        w = value(state).w
        t = 0.75
        moved = BanditState(shift(state.arm1, t), shift(state.arm2, t), state.discount)
        assert value(moved).w == pytest.approx(w + t * state.discount.total, abs=1e-9)


def test_location_scaling_equivariance():
    for i in range(30):
        state = random_state(GEN, GEN.rng(4_000 + i))
        w = value(state).w
        c = 2.5
        arm1, arm2 = (make_measure([(c * x, w) for x, w in arm.atoms])
                      for arm in (state.arm1, state.arm2))
        scaled = BanditState(arm1, arm2, state.discount)
        assert value(scaled).w == pytest.approx(c * w, abs=1e-9)


def test_exact_matches_float_on_dyadic_instances():
    for i in range(30):
        state = random_state(GEN, GEN.rng(5_000 + i))
        wf = value(state).w
        we = value(state, EXACT).w
        assert abs(float(we) - wf) <= 1e-9


def test_exact_mode_insensitive_to_atom_insertion_order():
    rng = GEN.rng(6_000)
    pairs = [(Fraction(int(k), 8), Fraction(int(w), 4)) for k, w in
             zip(rng.choice(range(17), size=4, replace=False), rng.integers(1, 9, size=4))]
    A = make_discount([1, 1, 1], exact=True)
    arm2 = point_mass(Fraction(1, 2), exact=True)
    base = None
    for perm in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
        arm1 = make_measure([pairs[j] for j in perm], exact=True)
        w = value(BanditState(arm1, arm2, A), EXACT).w
        if base is None:
            base = w
        assert w == base


def test_memo_cap_raises(monkeypatch):
    state = BanditState(COIN, COIN, make_uniform(6))
    with pytest.raises(ResourceBudgetExceededError):
        value(state, SolverOptions(memo_cap=3))
    monkeypatch.setenv(MEMO_CAP_ENV, "3")
    with pytest.raises(ResourceBudgetExceededError):
        value(state)
    monkeypatch.setenv(MEMO_CAP_ENV, "1000000")
    assert value(state, SolverOptions(memo_cap=3)).w > 0


@pytest.mark.parametrize(
    "fields",
    [{"mode": "fast"}, {"tie_tol": -1.0}, {"tie_tol": -1e-300}, {"tie_tol": math.nan},
     {"tie_tol": math.inf}, {"memo_cap": -1}],
    ids=["mode", "negative_tie_tol", "tiny_negative_tie_tol", "nan_tie_tol", "inf_tie_tol",
         "negative_memo_cap"],
)
def test_options_refuse_bad_values_on_construction(fields):
    with pytest.raises(InvalidParameterError, match=next(iter(fields))):
        SolverOptions(**fields)


def test_malformed_memo_cap_env_is_a_parameter_error(monkeypatch):
    monkeypatch.setenv(MEMO_CAP_ENV, "12k")
    with pytest.raises(InvalidParameterError, match=f"bad {MEMO_CAP_ENV} value '12k'"):
        value(BanditState(COIN, COIN, make_uniform(2)))


def test_negative_memo_cap_is_a_parameter_error(monkeypatch):
    state = BanditState(COIN, COIN, make_uniform(2))
    with pytest.raises(InvalidParameterError, match="memo_cap must be nonnegative"):
        value(state, SolverOptions(memo_cap=-1))
    with pytest.raises(InvalidParameterError, match="memo_cap must be nonnegative"):
        stopping_value(COIN, 0.5, make_uniform(2), SolverOptions(memo_cap=-1))
    monkeypatch.setenv(MEMO_CAP_ENV, "-5")
    with pytest.raises(InvalidParameterError, match=f"{MEMO_CAP_ENV} must be nonnegative"):
        value(state)
    monkeypatch.setenv(MEMO_CAP_ENV, "0")  # zero is a cap, refusing every lattice
    with pytest.raises(ResourceBudgetExceededError):
        value(state)


def test_oversized_lattice_refused_before_allocation():
    # C(207, 8), about 7e13 states: refused up front, not after filling memory.
    arm = make_measure([(0, 1), (0.25, 1), (0.5, 1), (1, 1)])
    t0 = time.perf_counter()
    with pytest.raises(ResourceBudgetExceededError):
        value(BanditState(arm, arm, make_uniform(200)))
    assert time.perf_counter() - t0 < 1.0


def test_lattice_levels_hold_the_closed_form_count():
    # The budget check compares C(n - 1 + s, s) with the cap: the count
    # vectors over s atoms totalling less than n.
    for s in range(1, 5):
        for n in range(13):
            assert _lattice(s, n).start[n] == comb(n - 1 + s, s)


def test_two_armed_pass_holds_the_closed_form_count():
    for atoms1, atoms2, n in ((1, 1, 5), (2, 1, 7), (2, 3, 6), (3, 3, 4)):
        arm1 = make_measure([(j / 4, 1) for j in range(atoms1)])
        arm2 = make_measure([(j / 4, 2) for j in range(atoms2)])
        solver = BanditSolver(BanditState(arm1, arm2, make_uniform(n)))
        states = sum(block.size for stage in solver.w1 for block in stage)
        assert states == comb(n - 1 + atoms1 + atoms2, atoms1 + atoms2)


def lattice_report(state, options=None):
    """The root report of the two-armed pass, which ``value`` skips for a
    known arm under a regular sequence: the reference it is checked against."""
    return BanditSolver(state, options, keep=1).report()


def test_long_horizon_two_armed_matches_stopping_form():
    A = make_uniform(200)
    rep = lattice_report(BanditState(COIN, point_mass(0.5), A))
    assert rep.action is Action.ARM1
    assert rep.w > 0.5 * A.total
    assert rep.w == pytest.approx(value_one_armed(COIN, 0.5, A).w, abs=1e-9)


def test_zero_discount_stage_still_worth_exploring():
    # First pull pays nothing but reveals information worth having.
    arm = make_measure([(0, 0.2), (1, 0.2)])
    state = BanditState(arm, point_mass(0.5), make_discount([0, 1]))
    rep = value(state)
    # Pull arm 1 first: observe 0 (p=1/2) then retire at 0.5, or observe 1
    # (p=1/2) then posterior mean (0.2 + 1)/1.4 = 6/7 beats 0.5.
    expected = 0.5 * 0.5 + 0.5 * (1.2 / 1.4)
    assert rep.w == pytest.approx(expected, abs=1e-12)
    assert rep.action is Action.ARM1


class TestOneArmed:
    def test_known_arm_dominates(self):
        arm = COIN
        lam = 1.5
        rep = value_one_armed(arm, lam, A2)
        assert rep.w == pytest.approx(lam * A2.total)
        assert rep.action is Action.ARM2

    def test_worked_instance(self):
        rep = value_one_armed(COIN, 0.5, A2)
        assert rep.w == pytest.approx(13 / 12, abs=1e-14)
        assert rep.action is Action.ARM1

    def test_lambda_below_support(self):
        # Retirement is strictly dominated, so optimal play pulls the unknown
        # arm forever; each pull's expectation is the prior mean.
        arm = make_measure([(0.4, 1), (0.8, 1)])
        rep = value_one_armed(arm, 0.1, A2)
        assert rep.action is Action.ARM1
        assert rep.w == pytest.approx(mean(arm) * A2.total, abs=1e-12)

    def test_pruned_matches_full_solver(self):
        for i in range(100):
            rng = GEN.rng(7_000 + i)
            arm = random_measure(GEN, rng)
            A = random_discount(GEN, rng, kind="regular")
            lam = float(rng.uniform(-0.2, 1.2))
            pruned = value_one_armed(arm, lam, A)
            full = lattice_report(BanditState(arm, point_mass(lam), A))
            assert pruned.w == pytest.approx(full.w, abs=1e-12)
            assert pruned.w1 == pytest.approx(full.w1, abs=1e-12)
            assert pruned.w2 == pytest.approx(full.w2, abs=1e-12)

    def test_long_horizon(self):
        A = make_uniform(1000)
        rep = value_one_armed(COIN, 0.5, A)
        assert rep.action is Action.ARM1
        assert 0.5 * A.total < rep.w < A.total
        assert rep.w == stopping_value(COIN, 0.5, A)

    def test_non_regular_falls_back_to_full_recursion(self):
        A = make_discount([1, 0, 1])
        arm = COIN
        rep = value_one_armed(arm, 0.5, A)
        full = lattice_report(BanditState(arm, point_mass(0.5), A))
        assert rep.w == pytest.approx(full.w, abs=1e-12)

    @pytest.mark.parametrize("options", [None, EXACT], ids=["float", "exact"])
    def test_empty_horizon_is_worth_zero(self, options):
        A = drop_first(make_discount([1]))
        assert stopping_value(COIN, 0.5, A, options) == 0
        rep = value_one_armed(COIN, 0.5, A, options)
        assert rep == ValueReport(0, 0, 0, Action.TIE)
        assert isinstance(rep.w, Fraction) == (options is EXACT)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("options", [None, EXACT], ids=["float", "exact"])
    @pytest.mark.parametrize("A", [A2, drop_first(make_discount([1]))], ids=["n2", "empty"])
    @pytest.mark.parametrize("solve", [stopping_value, value_one_armed])
    def test_non_finite_lambda_is_refused(self, solve, A, options, lam):
        with pytest.raises(InvalidParameterError):
            solve(COIN, lam, A, options)

    def test_stopping_value_rejects_non_regular_discounts(self):
        with pytest.raises(InvalidParameterError):
            stopping_value(COIN, 0.5, make_discount([1, 0, 1]))

    @pytest.mark.parametrize("options", [None, EXACT], ids=["float", "exact"])
    def test_non_regular_discounts_raise_not_regular_error(self, options):
        with pytest.raises(NotRegularError):
            stopping_value(COIN, 0.5, make_discount([1, 0, 1]), options)

    def test_regularity_is_judged_in_the_arithmetic_of_the_solve(self):
        # A ratio-built draw of 16 stages: regular within the float test's
        # slack, but not as the rationals of these floats.
        A = make_discount([
            0.0625, 0.2197265625, 0.1682281494140625, 0.14597296714782715, 0.11981053277850151,
            0.09310933673987165, 0.08043150294270163, 0.04649946263874938, 0.032856391135366314,
            0.016879348665659304, 0.008085509427791265, 0.004056412669010145,
            0.0014404874534837161, 0.0003340130282765367, 6.174120540371123e-05,
            7.5822532951926076e-06,
        ])
        assert stopping_value(COIN, 0.5, A) > 0.5 * A.total
        with pytest.raises(NotRegularError):
            stopping_value(COIN, Fraction(1, 2), A, EXACT)
        # value_one_armed, through value, takes the two-armed pass instead.
        half = point_mass(Fraction(1, 2), exact=True)
        state = BanditState(COIN, half, A)
        assert value_one_armed(COIN, Fraction(1, 2), A, EXACT) == lattice_report(state, EXACT)


class TestKnownArmRoute:
    """``value`` solves a state with a one-atom arm -- a known arm -- under a
    regular sequence in stopping form, over its other arm alone; any other
    state takes the two-armed pass."""

    @staticmethod
    def known_arm_states(count):
        # The known arm on either side, some unknown arms of one atom too,
        # and sequences of every kind, regular or not.
        gen = InstanceGen(seed=51)
        states = []
        for i in range(count):
            rng = gen.rng(i)
            arm = random_measure(gen, rng, atoms=1 if i % 10 == 0 else None)
            known = point_mass(float(rng.uniform(-0.2, 1.2)))
            A = random_discount(gen, rng, kind="any")
            states.append(BanditState(arm, known, A) if i % 2 else BanditState(known, arm, A))
        return states

    def test_routed_reports_equal_the_two_armed_pass_exactly(self):
        states = self.known_arm_states(100)
        routed = [_pass_table(s.discount, True)[2] for s in states]
        assert 0 < sum(routed[0::2]) < 50 and 0 < sum(routed[1::2]) < 50
        for state in states:
            assert value(state, EXACT) == lattice_report(state, EXACT)

    def test_routed_float_reports_agree_with_the_two_armed_pass(self):
        for state in self.known_arm_states(100):
            got, want = value(state), lattice_report(state)
            assert got.action is want.action
            for g, w in ((got.w, want.w), (got.w1, want.w1), (got.w2, want.w2)):
                assert math.isclose(g, w, rel_tol=1e-12)

    def test_only_a_non_regular_known_arm_takes_the_two_armed_pass(self, monkeypatch):
        passes = []

        class Counting(BanditSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                passes.append(self.batch)

        monkeypatch.setattr(solver, "BanditSolver", Counting)
        value(WORKED)
        value(BanditState(point_mass(0.5), COIN, A2))
        assert passes == []
        value(BanditState(COIN, point_mass(0.5), make_discount([1, 0, 1])))
        assert passes == [1]

    def test_one_atom_against_a_known_arm_at_n1200_is_quick(self):
        # The two-armed pass walks 720,600 one-by-one blocks here: 5.8 s on a
        # 2-vCPU machine.
        state = BanditState(point_mass(0.3), point_mass(0.4), make_uniform(1200))
        t0 = time.perf_counter()
        rep = value(state)
        assert time.perf_counter() - t0 < 0.5
        assert rep.w == pytest.approx(0.4 * 1200) and rep.action is Action.ARM2


class TestStackedStoppingPass:
    """The stopping pass pulls its columns together, one gather and one
    product a level; each column keeps the bits of a one-column pass and
    each instance those of a one-instance pass."""

    @staticmethod
    def stacks(count, seed, exact=False):
        """``count`` random (arms, sequence, rates, observations) stacks:
        1 to 6 atoms, 1 to 10 stages, 1 to 4 instances (one when exact),
        uniform or truncated geometric discounts."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            s, n = int(rng.integers(1, 7)), int(rng.integers(1, 11))
            batch = 1 if exact else int(rng.integers(1, 5))
            A = (make_uniform(n, exact=exact) if i % 2 else
                 make_truncated_geometric(rng.choice([0.5, 0.75, 0.9]), n, exact=exact))
            arms = []
            for _ in range(batch):
                locs = rng.choice(np.arange(-32, 33), s, replace=False) / 32
                weights = rng.integers(1, 65, s) / 16
                arms.append(make_measure(zip(locs.tolist(), weights.tolist()), exact=exact))
            lams, xs = (rng.integers(-32, 33, batch) / 32 for _ in range(2))
            yield arms, A, lams.tolist(), xs.tolist()

    @staticmethod
    def setups(arms, A, options):
        discounts = [A] * len(arms)
        return (solver._Stack(arms, discounts, options),
                solver._observation_setup(arms, discounts, options))

    def test_the_value_column_has_the_bits_of_a_one_column_pass(self):
        for arms, A, lams, _ in self.stacks(80, seed=1):
            stack, _ = self.setups(arms, A, solver.DEFAULT_OPTIONS)
            alone = solver._rate_pass(stack, lams)
            both = solver._rate_pass(stack, lams, slope=True)
            assert repr([value for value, _ in both]) == repr(alone)

    def test_each_stacked_instance_has_the_bits_of_its_own_pass(self):
        for arms, A, lams, xs in self.stacks(80, seed=2):
            stack, observed = self.setups(arms, A, solver.DEFAULT_OPTIONS)
            rates = solver._rate_pass(stack, lams, slope=True)
            observations = solver._observation_pass(observed, xs, lams)
            for b, arm in enumerate(arms):
                one, one_observed = self.setups([arm], A, solver.DEFAULT_OPTIONS)
                assert repr(rates[b]) == repr(solver._rate_pass(one, lams[b : b + 1], slope=True)[0])
                assert repr(observations[b]) == repr(
                    solver._observation_pass(one_observed, xs[b : b + 1], lams[b : b + 1])[0])

    def test_exact_columns_are_equal_fractions(self):
        for arms, A, lams, xs in self.stacks(30, seed=3, exact=True):
            stack, observed = self.setups(arms, A, EXACT)
            lams, xs = [Fraction(v) for v in lams], [Fraction(v) for v in xs]
            ((value, slope),) = solver._rate_pass(stack, lams, slope=True)
            assert [value] == solver._rate_pass(stack, lams)
            observation = solver._observation_pass(observed, xs, lams)
            for got in (*value, *slope, *observation[0]):
                assert isinstance(got, Fraction)
            # The same arms in float: dyadic numbers, so they differ by rounding alone.
            stack, observed = self.setups([to_float(a) for a in arms], A, solver.DEFAULT_OPTIONS)
            ((fvalue, fslope),) = solver._rate_pass(stack, lams, slope=True)
            (fobservation,) = solver._observation_pass(observed, xs, lams)
            for exact, approx in zip((*value, *slope, *observation[0]),
                                     (*fvalue, *fslope, *fobservation)):
                assert exact == pytest.approx(approx, abs=1e-9)

    def test_a_pass_from_stage_two_is_a_pass_on_the_suffix(self):
        # first=1 reads the stack's levels from the second on: the float bits
        # and the exact Fractions of a pass on drop_first(A), whose own exact
        # table puts the first sequence's suffix over 8, the stack's over 24.
        lams = [0.3, 0.55, 0.8]
        for exact, batch in ((False, 1), (False, 3), (True, 1)):
            options = EXACT if exact else solver.DEFAULT_OPTIONS
            arms = [make_measure([(-0.5, 1), (0.25 * b, 2), (1, 0.5)], exact=exact)
                    for b in range(batch)]
            for A in (make_discount([Fraction(1, 3), Fraction(1, 4), Fraction(1, 8)], exact=exact),
                      make_truncated_geometric(0.9, 6, exact=exact)):
                stack = solver._Stack(arms, [A] * batch, options)
                suffix = solver._Stack(arms, [drop_first(A)] * batch, options)
                got = solver._rate_pass(stack, lams[:batch], slope=True, first=1)
                want = solver._rate_pass(suffix, lams[:batch], slope=True)
                assert repr(got) == repr(want)
                assert all(isinstance(x, Fraction) == exact for root in got for pair in root for x in pair)

    def test_one_gather_per_level_per_pass(self, monkeypatch):
        # A level's one product reads its one gather of the next level's
        # values, which holds every column.
        gathers = []

        class CountedNumpy:
            """numpy, logging the columns of each gather the pass's product reads."""

            def __getattr__(self, name):
                return getattr(np, name)

            def vecdot(self, p, gathered):
                gathers.append(gathered.shape[0])
                return np.vecdot(p, gathered)

        monkeypatch.setattr(solver, "np", CountedNumpy())
        for arms, A, lams, xs in self.stacks(10, seed=4):
            n = len(A.values)
            stack, observed = self.setups(arms, A, solver.DEFAULT_OPTIONS)
            for run, columns in ((lambda: solver._rate_pass(stack, lams), 1),
                                 (lambda: solver._rate_pass(stack, lams, slope=True), 2),
                                 (lambda: solver._observation_pass(observed, xs, lams), 2)):
                gathers.clear()
                run()
                assert gathers == [columns] * n


def _reference_pass(stack, columns, lam_den, dx=None, first=0):
    """The stopping pass level by level, as a reference for its bits:
    ``columns`` are (mean, rate) pairs, ``mean`` (B, rows, 1) or None and
    ``rate`` a scalar or (B, 1, 1).  Each level gathers the next level's
    values, makes one (1 x s) @ (s x 1) matmul a row and column, adds
    a_t * mean to each paid column and chooses with one ``np.where``.
    Returns each instance's root (pull, value) per column."""
    arm = stack.rows
    dx = arm.dx if dx is None else dx
    start, Q = arm.start, arm.Q
    batch = len(arm.measures)
    levels = np.array(stack.scaled, arm.dtype).T[:, :, None, None]  # (2n + 1, B, 1, 1)
    n = len(levels) // 2 - first
    a, tails = levels[first : first + n], levels[len(levels) // 2 + first :]
    rates = np.empty((len(columns), batch, 1, 1), arm.dtype)
    for c, (_, rate) in enumerate(columns):
        rates[c] = rate
    paid = [(c, mean) for c, (mean, _) in enumerate(columns) if mean is not None]
    values = np.zeros((len(columns), batch, start[n + 1] - start[n], 1), arm.dtype)
    pulls = values
    for t in reversed(range(n)):
        a_t = solver._times(lam_den * Q[t + 1], a[t])
        p_row = arm.probs[:, start[t] : start[t + 1], None]  # (B, rows, 1, atoms)
        pulls = np.matmul(p_row, values.take(arm.child[t], axis=-2))[..., 0, :]
        for c, mean in paid:
            pulls[c] += a_t * mean[:, start[t] : start[t + 1]]
        retire = rates * solver._times(dx * Q[t], tails[t])
        values = np.where(pulls[0] >= retire[0], pulls, retire)
    den = stack.da * dx * lam_den * Q[0]
    return [[(solver._read(p, den), solver._read(v, den))
             for p, v in zip(pulls[:, b].ravel().tolist(), values[:, b].ravel().tolist())]
            for b in range(batch)]


def _column(values, exact):
    """One number per instance as a (B, 1, 1) column in the pass's dtype."""
    return np.array(values, object if exact else np.float64)[:, None, None]


def _reference_rate_pass(stack, lams, slope=False, first=0):
    """``solver._rate_pass`` through ``_reference_pass``."""
    lam, lam_den = solver._numerators(lams, stack.exact)
    columns = [(stack.rows.means[..., None], _column(lam, stack.exact)), (None, lam_den)]
    roots = _reference_pass(stack, columns[: 1 + slope], lam_den, first=first)
    return roots if slope else [root for root, in roots]


def _reference_observation_pass(stack, xs, lams):
    """``solver._observation_pass`` through ``_reference_pass``."""
    rows, exact = stack.rows, stack.exact
    lam, lam_den = solver._numerators(lams, exact)
    x, x_den = solver._numerators(xs, exact)
    dx = math.lcm(rows.dx, x_den) if exact else 1.0
    stretch, x = (dx // rows.dx, [v * (dx // x_den) for v in x]) if exact else (1.0, x)
    p_new = rows.probs[..., -1:]
    moved = solver._times(stretch, rows.means[..., None]) + p_new * _column(x, exact)
    columns = [(moved, _column(lam, exact)), (solver._times(dx, p_new), 0)]
    return [(p, s) for (p, _), (s, _) in _reference_pass(stack, columns, lam_den, dx)]


def _bits(roots):
    """The float64 bits of every number in nested pass results."""
    return np.array(roots, np.float64).ravel().view(np.int64)


class TestStoppingPassBits:
    """The stopping pass keeps the bits of the pass made level by level with
    ``np.matmul``, a_t * mean added per level and one ``np.where``
    (``_reference_pass``): its products, payoff tables and retirement
    tables change no float bit and no exact number."""

    @staticmethod
    def stacks(count, seed, exact=False):
        """``count`` random (arms, sequence, rates, observations) stacks: 1 to
        5 atoms at non-dyadic locations, negative ones among them, 1 to 10
        stages, 1 to 5 instances (one when exact), uniform, geometric or
        zero-tailed sequences -- a geometric head, then zero weights, so a
        pass from stage two may see no weight at all -- and rates of either
        sign, zeros of both signs among them."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            s, n = int(rng.integers(1, 6)), int(rng.integers(1, 11))
            batch = 1 if exact else int(rng.integers(1, 6))
            beta = float(rng.uniform(0.3, 0.95))
            if i % 3 == 0:
                A = make_uniform(n, exact=exact)
            elif i % 3 == 1:
                A = make_truncated_geometric(Fraction(beta).limit_denominator(97), n, exact=exact)
            else:
                head = int(rng.integers(1, n + 1))
                A = make_discount([Fraction(beta).limit_denominator(97) ** t if t < head else 0
                                   for t in range(n)], exact=exact)
            arms = []
            for _ in range(batch):
                locs = np.sort(rng.uniform(-1.5, 1.5, s))
                weights = rng.uniform(0.05, 2, s)
                if exact:
                    locs = [Fraction(v).limit_denominator(1000) for v in locs]
                    weights = [Fraction(v).limit_denominator(1000) for v in weights]
                else:
                    locs, weights = locs.tolist(), weights.tolist()
                arms.append(make_measure(zip(locs, weights), exact=exact))
            lams = [float(rng.choice([0.0, -0.0, rng.uniform(-1.5, 1.5)])) for _ in range(batch)]
            xs = rng.uniform(-1.5, 1.5, batch).tolist()
            if exact:
                lams, xs = ([Fraction(v).limit_denominator(1000) for v in vs] for vs in (lams, xs))
            yield arms, A, lams, xs

    @staticmethod
    def passes(arms, A, lams, xs, options):
        """Each rate pass -- slope off and on, from stage one and two -- and
        the observation pass, run by the solver and by the reference."""
        stack, observed = TestStackedStoppingPass.setups(arms, A, options)
        for slope in (False, True):
            for first in (0, 1):
                yield (solver._rate_pass(stack, lams, slope, first),
                       _reference_rate_pass(stack, lams, slope, first))
        yield (solver._observation_pass(observed, xs, lams),
               _reference_observation_pass(observed, xs, lams))

    def test_float_passes_have_the_reference_bits(self):
        signed_zeros = 0
        for arms, A, lams, xs in self.stacks(200, seed=31):
            for got, want in self.passes(arms, A, lams, xs, solver.DEFAULT_OPTIONS):
                got, want = _bits(got), _bits(want)
                assert np.array_equal(got, want)
                signed_zeros += int((got == _bits([-0.0])[0]).sum())
        assert signed_zeros > 0

    def test_exact_passes_are_the_reference_fractions(self):
        for arms, A, lams, xs in self.stacks(60, seed=32, exact=True):
            for got, want in self.passes(arms, A, lams, xs, EXACT):
                assert got == want
                assert all(isinstance(x, Fraction) for x in np.ravel(np.array(got, object)))

    def test_kept_payoffs_never_leak_between_passes(self):
        # Interleaved passes on one float stack, each equal, by repr, to the
        # same pass on a fresh stack: different rates, both first levels,
        # slope on and off, and an observation stack over the same arms,
        # which keeps its slope payoffs, at different observations and rates.
        rng = np.random.default_rng(33)
        for arms, A, _, _ in self.stacks(30, seed=34):
            stack, observed = TestStackedStoppingPass.setups(arms, A, solver.DEFAULT_OPTIONS)
            for _ in range(6):
                lams = rng.uniform(-1.5, 1.5, len(arms)).tolist()
                xs = rng.choice([0.0, -0.0, rng.uniform(-1.5, 1.5)], len(arms)).tolist()
                slope, first = bool(rng.integers(2)), int(rng.integers(2))
                fresh, fresh_observed = TestStackedStoppingPass.setups(arms, A, solver.DEFAULT_OPTIONS)
                assert repr(solver._rate_pass(stack, lams, slope, first)) == repr(
                    solver._rate_pass(fresh, lams, slope, first))
                assert repr(solver._observation_pass(observed, xs, lams)) == repr(
                    solver._observation_pass(fresh_observed, xs, lams))
        # An exact pass's payoffs are over its rate's denominator: rates
        # over 3, 7 and 1 on one stack, each equal to a fresh stack's pass,
        # and an observation pass's over its observation's denominator too.
        for arms, A, _, _ in self.stacks(10, seed=35, exact=True):
            stack, observed = TestStackedStoppingPass.setups(arms, A, EXACT)
            for lam in (Fraction(1, 3), Fraction(-2, 7), Fraction(1), Fraction(5, 21)):
                for first in (0, 1):
                    fresh, _ = TestStackedStoppingPass.setups(arms, A, EXACT)
                    assert solver._rate_pass(stack, [lam], True, first) == solver._rate_pass(
                        fresh, [lam], True, first)
                for x in (Fraction(1, 2), Fraction(-3, 5), Fraction(2)):
                    _, fresh = TestStackedStoppingPass.setups(arms, A, EXACT)
                    assert solver._observation_pass(observed, [x], [lam]) == (
                        solver._observation_pass(fresh, [x], [lam]))


class TestFlatPass:
    """A pass whose arm 2 has one atom lays each stage out flat; with the
    known arm as arm 1 a float pass still makes its products block by
    block.  Swapping the arms
    swaps the two payoffs, so the flat pass must equal the block pass, bit
    for bit, under the swap."""

    @staticmethod
    def known_arm_states(count, seed, max_n):
        # Non-dyadic floats, negative locations, zero discount weights and
        # sequences that are mostly not regular.
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(count):
            atoms = int(rng.integers(1, 4))
            locs = rng.choice([-1, 1], atoms) * rng.uniform(0, 1.5, atoms)
            arm = make_measure(zip(locs.tolist(), rng.uniform(0.05, 2, atoms).tolist()))
            known = point_mass(float(rng.choice([-0.5, 0.0, rng.uniform(-1, 1)])))
            n = int(rng.integers(1, max_n + 1))
            values = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0, 1, n))
            values[int(rng.integers(n))] = 1.0
            states.append((arm, known, make_discount(values.tolist())))
        return states

    @staticmethod
    def assert_swapped(flat, block):
        """``flat`` solves (U, K), ``block`` (K, U): at every kept stage the
        flat pulls of U and K are the block pulls of U and K, transposed."""
        exact = flat.options.exact
        for t in range(flat.kept):
            for k in range(t + 1):  # k counts on U, t - k on K
                pairs = ((flat.w1[t][k], block.w2[t][t - k]), (flat.w2[t][k], block.w1[t][t - k]))
                for got, want in pairs:
                    want = want.mT
                    assert got.shape == want.shape
                    if exact:
                        assert got.tolist() == want.tolist()
                    else:  # the bytes, so the signs of zeros too
                        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
                assert flat.den(k, t - k) == block.den(t - k, k)

    def test_flat_float_pass_is_the_block_pass_swapped(self):
        states = self.known_arm_states(240, seed=7, max_n=10)
        assert sum(not is_regular(A) for *_, A in states) > 120
        for arm, known, A in states:
            flat = BanditSolver(BanditState(arm, known, A))
            block = BanditSolver(BanditState(known, arm, A))
            self.assert_swapped(flat, block)

    def test_flat_stacks_are_the_block_stacks_swapped(self):
        groups = {}
        for arm, known, A in self.known_arm_states(240, seed=8, max_n=8):
            groups.setdefault((len(arm), len(A.values)), []).append((arm, known, A))
        stacks = [g for g in groups.values() if len(g) > 1]
        assert len(stacks) > 10
        for group in stacks:
            flat = BanditSolver([BanditState(arm, known, A) for arm, known, A in group])
            block = BanditSolver([BanditState(known, arm, A) for arm, known, A in group])
            assert flat.batch == len(group) > 1
            self.assert_swapped(flat, block)

    def test_flat_exact_pass_is_the_block_pass_swapped(self):
        for arm, known, A in self.known_arm_states(200, seed=9, max_n=6):
            flat = BanditSolver(BanditState(arm, known, A), EXACT)
            block = BanditSolver(BanditState(known, arm, A), EXACT)
            self.assert_swapped(flat, block)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_policy_tables_agree_under_the_swap(self, mode):
        opts = SolverOptions(mode=mode)
        for arm, known, A in self.known_arm_states(30, seed=10, max_n=6):
            n = len(A.values)
            flat = BanditSolver(BanditState(arm, known, A), opts)
            block = BanditSolver(BanditState(known, arm, A), opts)
            pulls, (arm_rows, known_rows) = flat.policy_tables()
            block_pulls, (block_known, block_arm) = block.policy_tables()
            for got, want in ((arm_rows, block_arm), (known_rows, block_known)):
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
            # Ties go to arm 1 in both tables: the flat pass plays K where
            # K wins, and the block pass plays U where U wins.
            counts = _lattice(len(arm), n).counts
            for r, c in enumerate(counts[: len(pulls)]):
                for k in range(n - int(c.sum())):
                    action = block.report((k,), c).action
                    assert pulls[r, k] == (action is Action.ARM1)
                    assert block_pulls[k, r] == (action is Action.ARM2)

    def test_simulate_policy_agrees_under_the_swap(self):
        for arm, known, A in self.known_arm_states(6, seed=11, max_n=6):
            flat, block = BanditState(arm, known, A), BanditState(known, arm, A)
            (m1, se1), (m2, se2) = simulate_policy(flat, 20_000, 3), simulate_policy(block, 20_000, 3)
            w = value(flat).w
            assert value(block).w == w
            for m, se in ((m1, se1), (m2, se2)):
                assert abs(m - w) <= 5 * se + 1e-12

    def test_one_pull_per_arm_per_stage(self, monkeypatch):
        # A flat stage pulls arm 1 through one gather and dot a state, and arm
        # 2, whose one atom has probability one, through neither; a stage of
        # blocks makes one product per arm and block, each written into the
        # stage's arrays, and one maximum.
        pulls, calls = [], []

        class CountedNumpy:
            """numpy, logging each product and maximum the solver makes."""

            def __getattr__(self, name):
                return getattr(np, name)

            def vecdot(self, *args, **kwargs):
                pulls.append(1)
                return np.vecdot(*args, **kwargs)

            def vecmat(self, *args, **kwargs):
                calls.append("product")
                return np.vecmat(*args, **kwargs)

            def maximum(self, *args, **kwargs):
                calls.append("maximum")
                return np.maximum(*args, **kwargs)

        monkeypatch.setattr(solver, "np", CountedNumpy())
        A = make_discount([1, 0, 1, 0.5, 0.25, 1])
        three = make_measure([(-0.5, 1), (0.25, 2), (1, 1)])
        BanditSolver(BanditState(three, point_mass(0.3), A))
        assert len(pulls) == 6
        pulls.clear()
        calls.clear()
        BanditSolver(BanditState(point_mass(0.3), three, A))
        assert pulls == []
        assert calls == [c for t in reversed(range(6)) for c in ["product"] * 2 * (t + 1) + ["maximum"]]

    def test_zero_horizon_flat_pass_reports_zero(self):
        empty = DiscountSeq((), (0.0,))
        for state in (BanditState(COIN, point_mass(0.5), empty), BanditState(point_mass(0.5), COIN, empty)):
            solved = BanditSolver(state)
            assert solved.w1 == [] and solved.roots() == [ValueReport(0.0, 0.0, 0.0, Action.TIE)]
            assert value(state) == ValueReport(0.0, 0.0, 0.0, Action.TIE)

    def test_known_arm_one_is_budgeted_like_known_arm_two(self):
        A = make_discount([1, 0] + [1] * 1198)
        message = "^lattice of 288720400 states exceeds the cap of 50000000$"
        for state in (BanditState(COIN, point_mass(0.5), A), BanditState(point_mass(0.5), COIN, A)):
            with pytest.raises(ResourceBudgetExceededError, match=message):
                value(state)


def _block_pull(payoff, p_row, child, nxt):
    """Payoff of pulling an arm at each state of a block and continuing
    optimally: the immediate ``payoff``, a column over the block's rows,
    plus each row's (1 x s) @ (s x C) product of its predictive
    probabilities ``p_row``, (B, rows, 1, atoms), with the next-stage rows
    ``child`` maps it to, axis -2 of ``nxt``, whose C columns are states of
    the other arm."""
    return payoff + np.matmul(p_row, nxt.take(child, axis=-2))[..., 0, :]


class TestBlockPass:
    """A float pass whose arm 2 has more than one atom holds each stage as
    one array per arm and writes each block's products into it.  Its kept
    payoffs must have the bits of the pass made block by block, a
    ``_block_pull`` per arm and block and a maximum per block."""

    @staticmethod
    def by_blocks(solved, a):
        """Each stage's (w1, w2) blocks of the pass made block by block."""
        rows1, rows2 = solved.arms
        n, start1, start2 = solved.horizon, rows1.start, rows2.start
        nxt = [np.zeros((solved.batch, start1[k + 1] - start1[k], start2[n - k + 1] - start2[n - k]))
               for k in range(n + 1)]
        stages = []
        for t in reversed(range(n)):
            am1, am2 = (a[:, t, None, None] * rows.means[..., None] for rows in solved.arms)
            w1 = [_block_pull(am1[:, start1[k1] : start1[k1 + 1]],
                              rows1.probs[:, start1[k1] : start1[k1 + 1], None], rows1.child[k1],
                              nxt[k1 + 1])
                  for k1 in range(t + 1)]
            w2 = [_block_pull(am2[:, start2[k2] : start2[k2 + 1]],
                              rows2.probs[:, start2[k2] : start2[k2 + 1], None], rows2.child[k2],
                              nxt[t - k2].mT).mT
                  for k2 in reversed(range(t + 1))]
            nxt = list(map(np.maximum, w1, w2))
            stages.append((w1, w2))
        return stages[::-1]

    @staticmethod
    def stacks(count, seed):
        # Non-dyadic floats, negative locations and zero discount weights.
        rng = np.random.default_rng(seed)
        for _ in range(count):
            s1, s2 = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            n, batch = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            keep = [None, 1, 2, 3][int(rng.integers(0, 4))]
            states = []
            for _ in range(batch):
                arms = []
                for s in (s1, s2):
                    locs = np.sort(rng.choice([-1, 1], s) * rng.uniform(0, 1.5, s))
                    arms.append(make_measure(zip(locs.tolist(), rng.uniform(0.05, 2, s).tolist())))
                values = rng.uniform(0, 1, n) * (rng.uniform(0, 1, n) > 0.2)
                values[rng.integers(n)] = rng.uniform(0.1, 1)  # a positive total
                states.append(BanditState(*arms, make_discount(values.tolist())))
            yield states, keep

    def test_kept_payoffs_have_the_bits_of_the_block_by_block_pass(self):
        shapes = set()
        for states, keep in self.stacks(240, seed=12):
            solved = BanditSolver(states, keep=keep)
            n = solved.horizon
            a = np.array([_pass_table(s.discount, False)[0][:n] for s in states])
            want = self.by_blocks(solved, a)
            for t in range(solved.kept):
                for got, blocks in zip((solved.w1[t], solved.w2[t]), want[t]):
                    assert len(got) == len(blocks) == t + 1
                    for g, w in zip(got, blocks):  # as int64, so the signs of zeros too
                        assert g.shape == w.shape
                        assert np.array_equal(np.ascontiguousarray(g).view(np.int64),
                                              np.ascontiguousarray(w).view(np.int64))
            shapes.add((solved.arms[0].atoms, solved.arms[1].atoms, solved.batch > 1, keep))
            reference = copy.copy(solved)
            reference.w1, reference.w2 = map(list, zip(*want[: solved.kept]))
            assert solved.roots() == reference.roots()
            if keep is None:
                (pulls, tables), (want_pulls, want_tables) = solved.policy_tables(), reference.policy_tables()
                assert np.array_equal(pulls, want_pulls)
                assert all(np.array_equal(g, w) for got, wanted in zip(tables, want_tables)
                           for g, w in zip(got, wanted))
        assert len(shapes) > 60  # most (s1, s2, stacked, keep) combinations


class TestExactFlatPass:
    """Every exact two-armed pass lays its stages out flat, whatever its
    shape: its reports equal the exhaustive oracle at every node, its kept
    blocks agree with the float pass, and it pulls each arm once a stage."""

    SHAPES = [(s1, s2) for s1 in (1, 2, 3) for s2 in (1, 2, 3)]

    @staticmethod
    def draw(rng, s1, s2, n):
        """A state of that shape in dyadic floats, so its exact conversion
        holds the same numbers: negative locations, zero discount weights
        and mostly non-regular sequences; n = 0 gives the empty sequence."""
        def arm(s):
            locs = rng.choice(np.arange(-48, 81), s, replace=False) / 32
            return make_measure(zip(locs.tolist(), (rng.integers(1, 129, s) / 64).tolist()))

        if n == 0:
            return BanditState(arm(s1), arm(s2), DiscountSeq((), (0.0,)))
        values = rng.integers(1, 65, n) / 64 * (rng.random(n) < 0.7)
        values[int(rng.integers(n))] = 1.0
        return BanditState(arm(s1), arm(s2), make_discount(values.tolist()))

    @staticmethod
    def posterior(arm, counts):
        return make_measure([(x, w + c) for (x, w), c in zip(arm.atoms, counts)])

    @pytest.mark.parametrize("s1, s2", SHAPES)
    def test_reports_at_every_node_equal_the_oracle(self, s1, s2):
        rng = np.random.default_rng(10 * s1 + s2)
        for n in (1, 2, 4, 5):
            state = self.draw(rng, s1, s2, n)
            solved = BanditSolver(state, EXACT)
            rest = [state.discount]
            while len(rest) < n:
                rest.append(drop_first(rest[-1]))
            lat1, lat2 = _lattice(s1, n), _lattice(s2, n)
            for c1 in lat1.counts[: lat1.start[n]].tolist():
                for c2 in lat2.counts[: lat2.start[n - sum(c1)]].tolist():
                    node = BanditState(self.posterior(state.arm1, c1), self.posterior(state.arm2, c2),
                                       rest[sum(c1) + sum(c2)])
                    assert solved.report(c1, c2).w == brute_force_value_exact(node)

    @pytest.mark.parametrize("keep", [1, 2, None])
    def test_kept_blocks_agree_with_the_float_pass(self, keep):
        rng = np.random.default_rng(7 + (keep or 0))
        irregular = 0
        for s1, s2 in self.SHAPES:
            for n in (0, 1, 2, 5):
                state = self.draw(rng, s1, s2, n)
                irregular += n > 0 and not is_regular(state.discount)
                exact, fl = BanditSolver(state, EXACT, keep=keep), BanditSolver(state, keep=keep)
                assert exact.kept == fl.kept == (n if keep is None else min(keep, n))
                for t in range(exact.kept):
                    for k1 in range(t + 1):
                        den = exact.den(k1, t - k1)
                        for got, want in ((exact.w1[t][k1], fl.w1[t][k1]), (exact.w2[t][k1], fl.w2[t][k1])):
                            assert got.shape == want.shape
                            got = np.array([float(Fraction(v, den)) for v in got.ravel()])
                            np.testing.assert_allclose(got, want.ravel(), rtol=1e-12, atol=1e-12)
                for w1, w2 in zip(exact.roots(), fl.roots()):
                    assert float(w1.w) == pytest.approx(w2.w, rel=1e-12, abs=1e-12)
        assert irregular >= 5

    @pytest.mark.parametrize("s1, s2", [(1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)])
    def test_unequal_shapes_equal_the_oracle_and_their_swap(self, s1, s2):
        # Each arm is pulled on its own where the atom counts differ.
        # Non-regular sequences keep a one-atom arm on the lattice in value.
        rng = np.random.default_rng(100 + 10 * s1 + s2)
        mirror = {Action.ARM1: Action.ARM2, Action.ARM2: Action.ARM1, Action.TIE: Action.TIE}
        for n in (3, 4, 5):  # two stages are always regular
            state = self.draw(rng, s1, s2, n)
            while is_regular(state.discount):
                state = self.draw(rng, s1, s2, n)
            solved = BanditSolver(state, EXACT)
            swapped = BanditSolver(BanditState(state.arm2, state.arm1, state.discount), EXACT)
            root = solved.report()
            assert root.w == brute_force_value_exact(state)
            assert value(state, EXACT) == root
            # Each pull-first payoff: a_1 times the arm's mean, then the
            # oracle's value after each observation at its probability.
            a1, rest = Fraction(state.discount.values[0]), drop_first(state.discount)
            arm1, arm2 = to_exact(state.arm1), to_exact(state.arm2)
            for got, arm, node in ((root.w1, arm1, lambda m: BanditState(m, arm2, rest)),
                                   (root.w2, arm2, lambda m: BanditState(arm1, m, rest))):
                later = sum(w / arm.total_mass * brute_force_value_exact(
                    node(self.posterior(arm, np.eye(len(arm), dtype=int)[j].tolist())))
                    for j, (_, w) in enumerate(arm.atoms))
                assert got == a1 * mean(arm) + later
            lat1, lat2 = _lattice(s1, n), _lattice(s2, n)
            for c1 in lat1.counts[: lat1.start[n]].tolist():
                for c2 in lat2.counts[: lat2.start[n - sum(c1)]].tolist():
                    got, back = solved.report(c1, c2), swapped.report(c2, c1)
                    assert (got.w, got.w1, got.w2, got.action) == (
                        back.w, back.w2, back.w1, mirror[back.action])

    @pytest.mark.parametrize("s1, s2", [(1, 1), (1, 3), (3, 1), (2, 3)])
    def test_horizon_zero_reports_zero_with_empty_tables(self, s1, s2):
        solved = BanditSolver(self.draw(np.random.default_rng(s1 + s2), s1, s2, 0), EXACT)
        assert solved.report() == ValueReport(0, 0, 0, Action.TIE)
        assert solved.roots() == [solved.report()]
        pulls, arms = solved.policy_tables()
        assert pulls.shape == (0, 0)
        assert [probs.shape for probs, _, _ in arms] == [(0, s1), (0, s2)]

    def test_one_pull_per_stage_for_every_shape(self, monkeypatch):
        # Both arms share a pull where their atom counts agree; an arm with
        # fewer atoms is pulled on its own rather than padded.
        pulls = []
        real = solver._object_dot

        def counted(*args):
            pulls.append(1)
            return real(*args)

        monkeypatch.setattr(solver, "_object_dot", counted)
        rng = np.random.default_rng(5)
        for s1, s2 in self.SHAPES:
            for n in (0, 1, 4):
                pulls.clear()
                BanditSolver(self.draw(rng, s1, s2, n), EXACT)
                assert len(pulls) == (n if s1 == s2 else 2 * n)

    def test_layout_tables_are_shared_read_only_and_deepened(self):
        for s1, s2 in ((3, 3), (3, 2)):
            shallow = solver._pull_layout(s1, s2, 3)
            deep = solver._pull_layout(s1, s2, 6)
            assert len(shallow.stages) >= 3 and len(deep.stages) >= 6
            assert all(a is b for a, b in zip(shallow.stages, deep.stages))
            lat1, lat2 = _lattice(s1, 6), _lattice(s2, 6)
            # Both arms' rows of levels 0..5 fill the table once, by level.
            rows = lat1.start[6] + lat2.start[6]
            assert sorted([*deep.pos1[: lat1.start[6]], *deep.pos2[: lat2.start[6]]]) == list(range(rows))
            assert not any(table.flags.writeable for table in (deep.pos1, deep.pos2, deep.factor))
            for t, stage in enumerate(deep.stages[:6]):
                states = comb(t + s1 + s2 - 1, s1 + s2 - 1)
                assert stage.ends[-1] == states
                # Arm 1's pulls at each state, then arm 2's: one group, or one an arm.
                tables = [table for group in stage.groups for table in group]
                assert [table.shape for table in tables] == (
                    [(2 * states,), (2 * states, s1)] if s1 == s2
                    else [(states,), (states, s1), (states,), (states, s2)])
                assert max(r.max() for r, _ in stage.groups) < lat1.start[t + 1] + lat2.start[t + 1]
                assert max(c.max() for _, c in stage.groups) < comb(t + s1 + s2, s1 + s2 - 1)
                assert not any(table.flags.writeable for table in tables)

    def test_a_refused_pass_builds_no_layout(self, monkeypatch):
        before = solver._LAYOUTS.get((2, 3))
        n = len(before.stages if before else ()) + 3
        monkeypatch.setenv(MEMO_CAP_ENV, str(_lattice_states(5, n) - 1))
        with pytest.raises(ResourceBudgetExceededError):
            BanditSolver(self.draw(np.random.default_rng(3), 2, 3, n), EXACT)
        assert solver._LAYOUTS.get((2, 3)) is before
        monkeypatch.setenv(MEMO_CAP_ENV, str(_lattice_states(5, n)))
        BanditSolver(self.draw(np.random.default_rng(3), 2, 3, n), EXACT)
        assert len(solver._LAYOUTS[2, 3].stages) >= n


class TestPolicyTree:
    @pytest.mark.parametrize("tie_tol", [0.0, 1e-11, 0.05])
    @pytest.mark.parametrize("mode, instances", [("float", 40), ("exact", 10)])
    def test_policy_table_plays_every_reported_action(self, mode, instances, tie_tol):
        # simulate_policy replays the table, the reports state the action:
        # one tie rule serves both.  Identical arms tie at every node.
        opts = SolverOptions(mode=mode, tie_tol=tie_tol)
        for i in range(instances):
            drawn = random_state(GEN, GEN.rng(13_000 + i))
            for state in (drawn, BanditState(drawn.arm1, drawn.arm1, drawn.discount)):
                solver = BanditSolver(state, opts)
                pulls_arm2 = solver.policy_tables()[0]
                start1, start2 = (arm.start for arm in solver.arms)
                for t in range(solver.horizon):
                    for k1 in range(t + 1):
                        k2 = t - k1
                        for r1 in range(start1[k1 + 1] - start1[k1]):
                            for r2 in range(start2[k2 + 1] - start2[k2]):
                                action = solver._report_at(t, k1, r1, r2).action
                                pulled = pulls_arm2[start1[k1] + r1, start2[k2] + r2]
                                assert pulled == (action is Action.ARM2)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_policy_tables_at_horizon_zero_are_empty(self, mode):
        three = make_measure([(-0.5, 1), (0.25, 2), (1, 1)])
        empty = DiscountSeq((), (0.0,))
        for state in (BanditState(COIN, three, empty), BanditState(three, point_mass(0.5), empty)):
            pulls, arms = BanditSolver(state, SolverOptions(mode=mode)).policy_tables()
            assert pulls.shape == (0, 0) and pulls.dtype == bool
            for (probs, child, locs), arm in zip(arms, (state.arm1, state.arm2)):
                assert probs.shape == child.shape == (0, len(arm))
                assert probs.dtype == np.float64 and child.dtype == np.int64
                assert locs.tolist() == list(arm.locations)

    def test_root_action_on_worked_instance(self):
        tree = policy_tree(WORKED, 1)
        assert tree.action is Action.ARM1
        assert tree.branches == ()
        assert tree.key.stage == 0

    def test_full_depth_constant_tree_for_degenerate_arms(self):
        state = BanditState(point_mass(0.2), point_mass(0.9), make_uniform(3))
        tree = policy_tree(state, 3)
        node = tree
        while True:
            assert node.action is Action.ARM2
            if not node.branches:
                break
            assert len(node.branches) == 1
            node = node.branches[0][1]

    def test_tie_reported_and_branches_follow_arm1(self):
        state = BanditState(COIN, COIN, A2)
        tree = policy_tree(state, 2)
        assert tree.action is Action.TIE
        assert [obs for obs, _ in tree.branches] == [0.0, 1.0]
        # tie broken toward arm 1: children show arm 1 counts bumped
        for obs, child in tree.branches:
            assert sum(child.key.counts1) == 1
            assert sum(child.key.counts2) == 0

    def test_actions_agree_with_value_reports(self):
        state = random_state(GEN, GEN.rng(8_000), min_n=3)
        depth = min(3, len(state.discount.values))
        tree = policy_tree(state, depth)
        stack = [tree]
        while stack:
            node = stack.pop()
            assert node.action is node.report.action
            stack.extend(child for _, child in node.branches)

    def test_tree_over_the_node_budget_is_refused_before_solving(self):
        # 2 v 2 atoms at n=40: the lattice holds C(43, 4) = 123,410 states,
        # but a tree to depth 30 may hold 2^30 - 1 nodes.
        state = BanditState(COIN, make_measure([(0.25, 1), (0.75, 2)]), make_uniform(40))
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetExceededError, match="to depth 30 with up to 2 branches"):
            policy_tree(state, 30)
        assert time.perf_counter() - t0 < 0.5

    def test_node_budget_is_the_state_cap(self, monkeypatch):
        arm = make_measure([(0, 1), (0.5, 1), (1, 1)])
        state = BanditState(arm, point_mass(0.4), make_uniform(5))  # C(8, 4) = 70 states
        opts = SolverOptions(memo_cap=100)
        assert policy_tree(state, 4, opts).report == value(state)  # 1 + 3 + 9 + 27 nodes
        with pytest.raises(ResourceBudgetExceededError, match="exceeds the cap of 100 nodes"):
            policy_tree(state, 5, opts)  # 121 nodes
        monkeypatch.setenv(MEMO_CAP_ENV, "100")
        with pytest.raises(ResourceBudgetExceededError, match="exceeds the cap of 100 nodes"):
            policy_tree(state, 5)

    def test_depth_validation(self):
        with pytest.raises(InvalidParameterError):
            policy_tree(WORKED, 0)
        with pytest.raises(InvalidParameterError):
            policy_tree(WORKED, 3)
        with pytest.raises(InvalidParameterError):
            policy_tree(WORKED, 1.0)

    @pytest.mark.parametrize("mode, instances", [("float", 100), ("exact", 20)])
    def test_every_node_matches_a_report_of_a_full_solve(self, mode, instances):
        # The tree keeps only the stages it expands and walks by lattice rank;
        # the reference keeps every stage and ranks each node's counts.
        opts = SolverOptions(mode=mode)
        for i in range(instances):
            state = random_state(GEN, GEN.rng(12_000 + i))
            full = BanditSolver(state, opts)
            for depth in range(1, len(state.discount.values) + 1):
                stack, nodes = [policy_tree(state, depth, opts)], 0
                while stack:
                    node = stack.pop()
                    c1, c2 = node.key.counts1, node.key.counts2
                    assert node.key.stage == sum(c1) + sum(c2) < depth
                    assert node.report == full.report(c1, c2)
                    assert node.action is node.report.action
                    stack.extend(child for _, child in node.branches)
                    nodes += 1
                assert nodes >= depth


def test_value_keeps_only_the_root_stage():
    # 2x2 atoms at n=48: a pass keeping every stage peaks at about 4.5 MB;
    # one keeping the root holds about two stages at a time.
    arm1 = make_measure([(0.25, 1), (0.75, 2)])
    arm2 = make_measure([(0.1, 1.5), (0.9, 0.5)])
    state = BanditState(arm1, arm2, make_uniform(48))
    value(state)  # builds and caches the lattices
    tracemalloc.start()
    try:
        value(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


class TestReportInputs:
    """``BanditSolver.report`` refuses counts naming no state it holds."""

    STATE = BanditState(COIN, make_measure([(0, 1), (0.5, 1), (1, 2)]), make_uniform(4))

    @pytest.mark.parametrize("counts1, counts2", [
        ((1,), (0, 0, 0)),            # too short for the 2-atom arm
        ((0, 0, 0), (0, 0, 0)),       # too long
        ((-1, 2), (0, 0, 0)),         # negative entry, total still in range
        ((0, 0), (0, 0, 1, 0)),       # too long for the 3-atom arm
        ((0, 0), (0, -1, 1)),
        ((1.0, 0), (0, 0, 0)),        # not an integer
        ((True, 0), (0, 0, 0)),       # a boolean is not a count
        ((0, 0), (np.float64(1), 0, 0)),
    ])
    def test_bad_counts_are_refused(self, counts1, counts2):
        with pytest.raises(InvalidParameterError):
            BanditSolver(self.STATE).report(counts1, counts2)

    def test_numpy_integer_counts_are_accepted(self):
        solver = BanditSolver(self.STATE)
        assert solver.report(np.array([1, 0]), (np.int64(0), 2, 0)) == solver.report(
            (1, 0), (0, 2, 0)
        )

    def test_stage_not_kept_is_refused(self):
        solver = BanditSolver(self.STATE, keep=2)
        assert solver.report((1, 0), (0, 0, 0)) == BanditSolver(self.STATE).report((1, 0), (0, 0, 0))
        with pytest.raises(InvalidParameterError):
            solver.report((1, 0), (0, 1, 0))
        with pytest.raises(InvalidParameterError):
            solver.policy_tables()

    @pytest.mark.parametrize("keep", [-1, 1.5, True])
    def test_bad_stage_counts_to_keep_are_refused(self, keep):
        with pytest.raises(InvalidParameterError):
            BanditSolver(self.STATE, keep=keep)

    @pytest.mark.parametrize("keep", [None, 1])
    def test_counts_at_or_past_the_horizon_give_zero(self, keep):
        solver = BanditSolver(self.STATE, keep=keep)
        for c1, c2 in (((2, 2), (0, 0, 0)), ((0, 0), (3, 1, 2))):
            assert solver.report(c1, c2) == ValueReport(0.0, 0.0, 0.0, Action.TIE)


class TestExactArithmetic:
    """Exact mode runs on integer numerators and reads out Fractions."""

    ARM1 = make_measure([(0, Fraction(1, 2)), (Fraction(1, 3), 1), (1, Fraction(3, 4))], exact=True)
    ARM2 = make_measure(
        [(Fraction(1, 5), 1), (Fraction(1, 2), Fraction(2, 3)), (Fraction(4, 5), Fraction(1, 4))],
        exact=True,
    )

    @staticmethod
    def nodes(n):
        """Lattice rows and count vectors of two 3-atom arms totalling less
        than n, as (row1, row2, counts1, counts2)."""
        lat = _lattice(3, n)
        counts = lat.counts.tolist()
        for row1 in range(lat.start[n]):
            for row2 in range(lat.start[n - sum(counts[row1])]):
                yield row1, row2, counts[row1], counts[row2]

    def test_numerators_beyond_int64_stay_exact(self):
        # Weight, location and discount denominators far beyond 2**63: an
        # int64 numerator would wrap or refuse to convert.
        w, x = 3**41, 7**23
        arm1 = make_measure([(Fraction(2, x), Fraction(w - 1, w)),
                             (Fraction(x - 3, x), Fraction(5, w))], exact=True)
        arm2 = make_measure([(Fraction(1, x), Fraction(7, w)),
                             (Fraction(x - 1, x), Fraction(w + 2, w))], exact=True)
        A = make_truncated_geometric(Fraction(1, 10**20), 3, exact=True)
        state = BanditState(arm1, arm2, A)
        assert value(state, EXACT).w == brute_force_value_exact(state)
        lam = Fraction(10**19 + 1, 2 * 10**19)
        known = BanditState(arm1, point_mass(lam, exact=True), A)
        assert stopping_value(arm1, lam, A, EXACT) == brute_force_value_exact(known)
        assert value_one_armed(arm1, lam, A, EXACT).w == brute_force_value_exact(known)

    def test_reports_away_from_the_root_match_the_oracle(self):
        n = 4
        A = make_truncated_geometric(Fraction(7, 8), n, exact=True)
        solver = BanditSolver(BanditState(self.ARM1, self.ARM2, A), EXACT)
        rest = [A]
        while len(rest) < n:
            rest.append(drop_first(rest[-1]))

        def posterior(arm, counts):
            return make_measure([(x, w + c) for (x, w), c in zip(arm.atoms, counts)], exact=True)

        for _, _, c1, c2 in self.nodes(n):
            state = BanditState(posterior(self.ARM1, c1), posterior(self.ARM2, c2),
                                rest[sum(c1) + sum(c2)])
            assert solver.report(c1, c2).w == brute_force_value_exact(state)

    def test_policy_table_matches_fraction_comparisons(self):
        n, tie_tol = 4, 0.01
        A = make_truncated_geometric(Fraction(7, 8), n, exact=True)
        solver = BanditSolver(BanditState(self.ARM1, self.ARM2, A),
                              SolverOptions(mode="exact", tie_tol=tie_tol))
        pulls_arm2 = solver.policy_tables()[0]
        expected = np.zeros_like(pulls_arm2)
        gaps = []
        for row1, row2, c1, c2 in self.nodes(n):
            rep = solver.report(c1, c2)
            gaps.append(rep.w1 - rep.w2)
            expected[row1, row2] = gaps[-1] < -tie_tol
        # Both sides of the tolerance occur, so the comparison is tested.
        assert any(-tie_tol <= gap < 0 for gap in gaps) and any(gap < -tie_tol for gap in gaps)
        assert (pulls_arm2 == expected).all()

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_tie_rule_at_its_exact_edge(self, mode):
        # W1 - W2 = 1/2 - 3/4 = -1/4, a float exactly: a tolerance of 1/4
        # ties, and plays arm 1; the float just below it plays arm 2.
        state = BanditState(make_measure([(0, 1), (1, 1)]), make_measure([(0.5, 1), (1, 1)]),
                            make_discount([1]))
        tolerances = [(tol, Action.TIE) for tol in (0.25, Fraction(1, 4), np.float32(0.25))]
        for tie_tol, action in tolerances + [(math.nextafter(0.25, 0), Action.ARM2)]:
            opts = SolverOptions(mode=mode, tie_tol=tie_tol)
            solved = BanditSolver(state, opts)
            for rep in (value(state, opts), solved.report()):
                assert rep.w1 - rep.w2 == -0.25
                assert rep.action is action
            assert solved.policy_tables()[0].tolist() == [[action is Action.ARM2]]

    def test_tie_rule_on_numerators_decides_as_fractions_do(self):
        # A tolerance at each root gap |W1 - W2| rounded to a float, and at
        # that float's two neighbours: the rule on numerators over a large
        # denominator decides as a comparison of Fractions does.
        decided = set()
        for i in range(30):
            state = random_state(GEN, GEN.rng(14_000 + i))
            root = BanditSolver(state, EXACT).report()
            gap = root.w1 - root.w2
            near = float(abs(gap))
            for tie_tol in (near, math.nextafter(near, 0), math.nextafter(near, 1)):
                tie = abs(gap) <= Fraction(tie_tol)
                action = Action.TIE if tie else Action.ARM1 if gap > 0 else Action.ARM2
                solved = BanditSolver(state, SolverOptions(mode="exact", tie_tol=tie_tol))
                assert solved.report().action is action
                assert solved.policy_tables()[0][0, 0] == (action is Action.ARM2)
                decided.add(tie)
        assert decided == {True, False}

    def test_stopping_form_and_two_armed_pass_agree_exactly(self):
        instances = []
        for i in range(50):
            rng = GEN.rng(9_000 + i)
            arm = to_exact(random_measure(GEN, rng))
            A = random_discount(GEN, rng, kind="regular")
            lam = Fraction(int(rng.integers(-20, 140)), int(rng.integers(1, 100)))
            instances.append((arm, lam, A))
        coin = make_measure([(0, 1), (1, 1)], exact=True)
        instances += [(coin, Fraction(k, 10), GEOMETRIC_09) for k in (3, 7, 9, 12)]
        for arm, lam, A in instances:
            stop = stopping_value(arm, lam, A, EXACT)
            one = value_one_armed(arm, lam, A, EXACT)
            two = lattice_report(BanditState(arm, point_mass(lam, exact=True), A), EXACT)
            # w2 retires first: the stopping pass from the second stage on.
            for got in (stop, one.w, one.w1, one.w2, two.w, two.w1, two.w2):
                assert type(got) is Fraction
            assert stop == one.w == two.w
            assert (one.w1, one.w2) == (two.w1, two.w2)

    def test_retiring_above_the_index_is_worth_lambda_times_the_rational_total(self):
        # Above the coin's index retiring at once is optimal, so the root is
        # lam * T_1, with T_1 the exact sum of the float-typed values.
        total = sum(map(Fraction, GEOMETRIC_09.values))
        for lam in (Fraction(9, 10), Fraction(1), Fraction(3, 2)):
            assert stopping_value(COIN, lam, GEOMETRIC_09, EXACT) == lam * total

    @pytest.mark.parametrize("tie_tol", [math.nan, math.inf])
    def test_non_finite_tie_tolerance_is_refused(self, tie_tol):
        # The exact tie rule compares numerators with the tolerance as an
        # integer ratio, which a NaN or infinity has none of.
        with pytest.raises(InvalidParameterError):
            BanditSolver(WORKED, SolverOptions(mode="exact", tie_tol=tie_tol))

    def test_three_atom_arms_at_n20_solve_quickly(self):
        # On a 2-vCPU machine the integer-numerator pass takes about 0.15 s;
        # on object arrays of Fraction, with a gcd per operation, about 7 s.
        A = make_truncated_geometric(Fraction(7, 8), 20, exact=True)
        t0 = time.perf_counter()
        rep = value(BanditState(self.ARM1, self.ARM2, A), EXACT)
        assert time.perf_counter() - t0 < 1.5
        assert type(rep.w) is Fraction


class TestExactArmTables:
    """An exact arm table (``_ArmRows``) holds Python ints: built in int64
    where (max(n, 1) + M) Dw max(1, |X_j|) < 2**63 bounds every entry,
    partial sum and Dw, on Python ints otherwise, from the numerators the
    measure keeps."""

    @staticmethod
    def reference(measure, n):
        """``probs`` and ``means`` of an exact arm over n levels, row by row
        from the measure's Fractions, on Python ints."""
        locs, weights = measure.locations, measure.weights
        dx = math.lcm(*(x.denominator for x in locs))
        dw = math.lcm(*(w.denominator for w in weights))
        X = [int(x * dx) for x in locs]
        W = [int(w * dw) for w in weights]
        lat = _lattice(len(locs), n)
        probs = [[w + c * dw for w, c in zip(W, counts)]
                 for counts in lat.counts[: lat.start[n]].tolist()]
        return probs, [sum(p * x for p, x in zip(row, X)) for row in probs], dx

    @staticmethod
    def fits(measure, n):
        """Whether the bound puts the table in int64."""
        (locs, _), (weights, dw) = solver._integer_table(measure)
        return (max(n, 1) * dw + sum(weights)) * max(1, *map(abs, locs)) < 1 << 63

    def assert_reference(self, measure, n):
        rows = solver._ArmRows([measure], n, True)
        probs, means, dx = self.reference(measure, n)
        assert rows.probs.dtype == rows.means.dtype == object
        assert rows.probs[0].tolist() == probs and rows.means[0].tolist() == means
        assert rows.dx == dx
        # Python ints, never numpy integers, so nothing downstream can wrap.
        for x in (*rows.probs.ravel(), *rows.means.ravel(), rows.dx, *rows.q, *rows.Q):
            assert type(x) is int

    def test_both_dtypes_give_the_python_int_table(self):
        # 1 to 5 atoms, negative locations, n up to 40 (fewer levels for
        # more atoms, to keep the reference small), grid numerators k/64 and
        # numerators of non-dyadic floats, whose denominators near 2**55 put
        # the longer tables past the int64 bound.
        rng = np.random.default_rng(41)
        paths = set()
        for i in range(120):
            s = int(rng.integers(1, 6))
            n = int(rng.integers(1, (41, 41, 41, 21, 13)[s - 1]))
            if i % 2:
                grid = rng.choice(np.arange(-128, 129), s, replace=False)
                locs = [Fraction(int(k), 64) for k in grid]
                weights = [Fraction(int(k), 64) for k in rng.integers(1, 129, s)]
            else:
                locs = [Fraction(float(v)) for v in rng.uniform(-2, 2, s)]
                weights = [Fraction(float(v)) for v in rng.uniform(0.05, 2, s)]
            measure = make_measure(zip(locs, weights), exact=True)
            paths.add(self.fits(measure, n))
            self.assert_reference(measure, n)
        assert paths == {True, False}

    def test_arms_at_the_int64_bound(self):
        # Locations -1 and 1, weights 1 and W, n = 3: the bound is n + 1 + W
        # and the largest entry W + 2.  Just under the bound the table is
        # int64 with entries up to 2**63 - 3; just over it an entry is
        # 2**63, which int64 would wrap.
        for W, fits in ((2**63 - 5, True), (2**63 - 2, False)):
            measure = make_measure([(-1, 1), (1, W)], exact=True)
            assert self.fits(measure, 3) is fits
            self.assert_reference(measure, 3)
            assert solver._ArmRows([measure], 3, True).probs.max() == W + 2
        # With no levels, Dw alone past int64: weights 1/2**70 and 3/2**70.
        tiny = make_measure([(0, Fraction(1, 2**70)), (1, Fraction(3, 2**70))], exact=True)
        assert not self.fits(tiny, 0)
        self.assert_reference(tiny, 0)
        empty = drop_first(make_discount([1], exact=True))
        assert value(BanditState(tiny, tiny, empty), EXACT) == ValueReport(0, 0, 0, Action.TIE)

    def test_a_measure_derives_its_integers_once(self, monkeypatch):
        # Repeated exact solves over the same measure objects derive each
        # object's location and weight numerators once (``_over_lcm``, kept
        # in the measure); an equal measure of its own derives its own.
        from dirichlet_bandits import measures

        calls = []
        over_lcm = measures._over_lcm

        def counted(values):
            calls.append(tuple(values))
            return over_lcm(values)

        arm1, arm2 = (solver.DiscreteMeasure(m.atoms, m.total_mass)
                      for m in (TestExactArithmetic.ARM1, TestExactArithmetic.ARM2))
        twin = solver.DiscreteMeasure(arm1.atoms, arm1.total_mass)
        monkeypatch.setattr(measures, "_over_lcm", counted)
        A = make_uniform(4, exact=True)
        for lam in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 8)):
            stopping_value(arm1, lam, A, EXACT)
            value_one_armed(arm1, lam, A, EXACT)
            value(BanditState(arm1, arm2, A), EXACT)
            stopping_value(twin, lam, A, EXACT)
        for m, objects in ((arm1, 2), (arm2, 1)):
            assert calls.count(m.locations) == calls.count(m.weights) == objects
        assert solver._integer_table(arm1) is solver._integer_table(arm1)


class TestStackedPasses:
    """``BanditSolver`` over a stack of same-shape instances, and ``_values``,
    which groups states by shape into such stacks: every report is the one
    ``value`` gives the state alone, bit for bit."""

    @staticmethod
    def mixed_states(count, exact):
        gen = InstanceGen(seed=31)
        states = []
        for i in range(count):
            state = random_state(gen, gen.rng(i), kind="any")
            if i % 25 == 0:  # horizon 0
                A = drop_first(make_discount([1], exact=exact))
                state = BanditState(state.arm1, state.arm2, A)
            states.append(state)
        return states

    @pytest.mark.parametrize("mode, count", [("float", 500), ("exact", 100)])
    def test_grouped_reports_equal_value(self, mode, count):
        opts = SolverOptions(mode=mode)
        states = self.mixed_states(count, mode == "exact")
        shapes = [(len(s.arm1), len(s.arm2), len(s.discount.values)) for s in states]
        assert len(set(shapes)) > 20
        assert any(0 in shape for shape in shapes) and any(1 in shape[:2] for shape in shapes)
        got = _values(states, opts)
        assert [repr(r) for r in got] == [repr(value(s, opts)) for s in states]

    def test_a_stack_of_nine_equals_nine_solves(self):
        gen = InstanceGen(seed=32)
        states = []
        for i in range(9):
            rng = gen.rng(i)
            arm1 = random_measure(gen, rng, atoms=2)
            arm2 = random_measure(gen, rng, atoms=3)
            states.append(BanditState(arm1, arm2, random_discount(gen, rng, min_n=5, max_n=5)))
        stack = BanditSolver(states)
        assert stack.batch == 9
        assert [repr(r) for r in stack.roots()] == [repr(value(s)) for s in states]
        for b, state in enumerate(states):
            alone = BanditSolver(state)
            for t in range(5):
                for k1 in range(t + 1):
                    for blocks, own in ((stack.w1, alone.w1), (stack.w2, alone.w2)):
                        assert np.array_equal(blocks[t][k1][b], own[t][k1][0])

    def test_stack_over_the_budget_is_refused(self, monkeypatch):
        # Each 2 v 2 lattice at n=4 holds C(7, 4) = 35 states, three hold 105.
        arm2 = [make_measure([(0.25, 1), (0.75, w)]) for w in (1, 2, 3)]
        states = [BanditState(COIN, arm, make_uniform(4)) for arm in arm2]
        opts = SolverOptions(memo_cap=100)
        with pytest.raises(ResourceBudgetExceededError,
                           match="^stack of 3 lattices of 35 states exceeds the cap of 100$"):
            BanditSolver(states, opts)
        # Each instance alone fits, so _values splits the stack.
        assert _values(states, opts) == [value(s, opts) for s in states]
        monkeypatch.setenv(MEMO_CAP_ENV, "100")
        with pytest.raises(ResourceBudgetExceededError, match="^stack of 3"):
            BanditSolver(states)
        assert _values(states) == [value(s) for s in states]

    def test_stacks_hold_at_most_stack_states(self, monkeypatch):
        # Three 35-state lattices under a stack cap of 70: a stack of two,
        # then one, each report still value's.
        arm2 = [make_measure([(0.25, 1), (0.75, w)]) for w in (1, 2, 3)]
        states = [BanditState(COIN, arm, make_uniform(4)) for arm in arm2]
        batches = []

        class Counting(BanditSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                batches.append(self.batch)

        monkeypatch.setattr(solver, "BanditSolver", Counting)
        monkeypatch.setattr(solver, "STACK_STATES", 70)
        got = _values(states)
        assert batches == [2, 1]
        assert got == [value(s) for s in states]

    def test_malformed_stacks_are_refused(self):
        with pytest.raises(InvalidParameterError, match="one shape"):
            BanditSolver([WORKED, BanditState(COIN, COIN, A2)])
        with pytest.raises(InvalidParameterError, match="one shape"):
            BanditSolver([])
        with pytest.raises(InvalidParameterError, match="one instance at a time"):
            BanditSolver([WORKED, WORKED], EXACT)
