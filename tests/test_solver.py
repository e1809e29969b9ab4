"""Two-armed lattice pass, one-armed stopping form, policy trees."""
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
    value,
    value_one_armed,
)
from dirichlet_bandits import solver
from dirichlet_bandits.solver import (
    MEMO_CAP_ENV,
    BanditSolver,
    DiscountSeq,
    ValueReport,
    _lattice,
    _values,
)
from dirichlet_bandits.verify import random_discount, random_measure, random_state

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


def test_long_horizon_two_armed_matches_stopping_form():
    A = make_uniform(200)
    rep = value(BanditState(COIN, point_mass(0.5), A))
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
            full = value(BanditState(arm, point_mass(lam), A))
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
        full = value(BanditState(arm, point_mass(0.5), A))
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
        # value_one_armed falls back to the two-armed pass instead.
        half = point_mass(Fraction(1, 2), exact=True)
        assert value_one_armed(COIN, Fraction(1, 2), A, EXACT) == value(BanditState(COIN, half, A), EXACT)


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
            two = value(BanditState(arm, point_mass(lam, exact=True), A), EXACT)
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
        # The exact policy table compares numerators with the tolerance as a
        # Fraction, which a NaN or infinity has no value as.
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
