"""Suite plumbing: determinism, generator soundness, Monte Carlo evaluation."""
import inspect
import itertools
import json
import pickle
import time
from fractions import Fraction

import numpy as np
import pytest

from dirichlet_bandits import (
    BanditState,
    InstanceGen,
    InvalidParameterError,
    SUITES,
    break_even_value,
    make_discount,
    make_measure,
    point_mass,
    run_suites,
    simulate_policy,
    value,
)
from dirichlet_bandits import solver, verify
from dirichlet_bandits.solver import DEFAULT_OPTIONS, EXACT_OPTIONS, DiscountSeq
from dirichlet_bandits.verify import (
    DEFAULT_TRIALS,
    _breakeven_margin,
    _convexity_margin,
    _dilution_margin,
    _icx_margin,
    _icx_pair,
    _margins,
    _montecarlo_margin,
    _oracle_margin,
    _pool_size,
    _smoothing_margin,
    _strictness_margin,
    _weight_margin,
    format_reports,
    random_discount,
    random_measure,
    random_state,
)

GEN = InstanceGen(seed=51)


@pytest.mark.parametrize("name", list(SUITES))
def test_each_suite_passes_at_small_scale(name):
    report = SUITES[name](GEN, 6)
    assert report.passed, report.violations
    assert report.trials == 6
    assert report.suite_name == name


def test_reports_are_deterministic_given_seed():
    a = SUITES["thm1"](InstanceGen(seed=5), 10).to_dict()
    b = SUITES["thm1"](InstanceGen(seed=5), 10).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = SUITES["thm1"](InstanceGen(seed=6), 10).to_dict()
    assert c != a


def test_exact_mode_reports_are_byte_stable():
    for name in ("lemma1", "thm1", "lemma4"):
        a = SUITES[name](InstanceGen(seed=9), 4, exact=True)
        b = SUITES[name](InstanceGen(seed=9), 4, exact=True)
        assert a.passed
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        assert a.worst_margin >= 0.0  # zero slack in exact mode


@pytest.mark.parametrize("name", ["prop1", "strictness"])
def test_break_even_suites_run_exactly_with_zero_slack(name):
    a = SUITES[name](InstanceGen(seed=9), 5, exact=True)
    b = SUITES[name](InstanceGen(seed=9), 5, exact=True)
    assert a.passed and a.worst_margin >= 0.0
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_run_suites_all_order_and_names():
    reports = run_suites("all", InstanceGen(seed=2), trials=2)
    assert [r.suite_name for r in reports] == [
        "lemma1", "thm1", "thm2", "lemma3", "lemma4",
        "prop1", "strictness", "oracle", "montecarlo",
    ]
    text = format_reports(reports)
    assert "suite" in text and "worst_margin" in text


def test_icx_pair_generator_is_sound():
    for i in range(200):
        rng = GEN.rng(i)
        F, Ft = _icx_pair(GEN, rng)
        # holds by construction; _icx_pair raises GeneratorFailed otherwise
        assert abs(F.total_mass - 1) < 1e-9
        assert abs(Ft.total_mass - 1) < 1e-9


def _one_margin(margin, gen, index, opts):
    """Instance ``index``'s margin, run alone through the suite runner."""
    (m,) = _margins(margin, gen, range(index, index + 1), opts=opts)
    return m


@pytest.mark.parametrize("margin", [_icx_margin, _smoothing_margin], ids=["thm1", "lemma4"])
def test_exact_margins_certify_the_float_draws(margin):
    # Drawn once, in float: the exact margin is the float margin's instance
    # solved exactly, so the two differ by float rounding alone.
    gen = InstanceGen(seed=0)
    for i in range(40):
        exact = _one_margin(margin, gen, i, EXACT_OPTIONS)
        assert isinstance(exact, Fraction)
        assert abs(exact - _one_margin(margin, gen, i, DEFAULT_OPTIONS)) <= 1e-9


def test_unknown_discount_kind_is_refused():
    with pytest.raises(InvalidParameterError, match="unknown discount kind 'convex'"):
        random_discount(GEN, GEN.rng(0), kind="convex")


def test_unknown_suite_is_refused():
    with pytest.raises(InvalidParameterError, match="unknown suite 'thm3'"):
        run_suites(["thm3"], GEN, 1)


def test_regular_positive_discount_generator_is_sound():
    from dirichlet_bandits import is_regular

    # Past nine stages the float values are rounded: at seed 0 and horizon 16,
    # index 34 drew a sequence regular in float but not as its rationals.
    for gen, first in ((GEN, 1_000), (InstanceGen(seed=0, max_horizon=16), 0)):
        for i in range(200):
            A = random_discount(gen, gen.rng(first + i), kind="regular_positive", min_n=2)
            assert is_regular(A)
            assert is_regular(make_discount(A.values, exact=True))
            assert all(v > 0 for v in A.values)
            assert 2 <= len(A.values) <= gen.max_horizon


@pytest.mark.parametrize(
    "name, atoms, trials",
    # prop1 (instance 126 at two atoms, 86 at three) and thm2 (instance 1)
    # reach draws that are regular in float but not as their rationals, which
    # the exact searches would refuse had the generator not drawn them again.
    # strictness draws uniform discounts.
    [("prop1", 2, 127), ("prop1", 3, 87), ("thm2", 2, 2), ("strictness", 2, 20)],
)
def test_exact_suites_run_past_nine_stages(name, atoms, trials):
    report = SUITES[name](InstanceGen(seed=0, max_horizon=16, max_atoms=atoms), trials, exact=True)
    assert report.passed and report.worst_margin >= 0.0


def test_random_states_satisfy_invariants():
    for i in range(100):
        state = random_state(GEN, GEN.rng(2_000 + i))
        assert state.arm1.total_mass > 0
        assert state.arm2.total_mass > 0
        assert state.discount.total > 0


class TestSimulatePolicy:
    def test_degenerate_arms_simulate_exactly(self):
        A = make_discount([1, 0.5, 0.25])
        state = BanditState(point_mass(0.3), point_mass(0.8), A)
        mean_v, se = simulate_policy(state, 500, seed=1)
        assert se == 0.0
        assert abs(mean_v - 0.8 * A.total) <= 1e-12

    def test_zero_horizon(self):
        state = BanditState(point_mass(0.3), point_mass(0.8), DiscountSeq((), (0.0,)))
        assert simulate_policy(state, 10, seed=0) == (0.0, 0.0)

    def test_worked_instance_within_four_standard_errors(self):
        state = BanditState(
            make_measure([(0, 1), (1, 1)]), point_mass(0.5), make_discount([1, 1])
        )
        mean_v, se = simulate_policy(state, 1_000_000, seed=123)
        assert se > 0
        assert abs(mean_v - 13 / 12) <= 4 * se

    def test_exact_options_simulate_as_float(self):
        state = random_state(GEN, GEN.rng(3_001))
        assert simulate_policy(state, 2_000, seed=7, options=EXACT_OPTIONS) == simulate_policy(
            state, 2_000, seed=7
        )

    def test_deterministic_given_seed(self):
        state = random_state(GEN, GEN.rng(3_000))
        assert simulate_policy(state, 2_000, seed=7) == simulate_policy(
            state, 2_000, seed=7
        )
        assert simulate_policy(state, 2_000, seed=7) != simulate_policy(
            state, 2_000, seed=8
        )

    def test_tracks_solver_value_on_random_instances(self):
        for i in range(10):
            state = random_state(GEN, GEN.rng(4_000 + i))
            dp = value(state).w
            mean_v, se = simulate_policy(state, 50_000, seed=100 + i)
            assert abs(mean_v - dp) <= 4 * se + 1e-12

    WIDE = make_measure([(0.25, 1), (0.5, 1), (1, 1)])
    FIVE = make_discount([1, 0.5, 0.25, 0.125, 0.0625])

    @pytest.mark.parametrize("narrow_first", [True, False], ids=["1v3", "3v1"])
    @pytest.mark.parametrize("level", [0.125, 0.5, 1.0], ids=["wide", "mixed", "narrow"])
    def test_mixed_width_arms_draw_only_real_atoms(self, level, narrow_first):
        # Optimal play pulls only the 3-atom arm below it (level 0.125),
        # switches between the arms (0.5), or pulls only the 1-atom arm (1.0).
        narrow = point_mass(level)
        arms = (narrow, self.WIDE) if narrow_first else (self.WIDE, narrow)
        state = BanditState(*arms, self.FIVE)
        # A single trajectory's payoff is a discounted sum of real atoms; the
        # numbers are dyadic, so these sums are exact in any order.
        atoms = (level, 0.25, 0.5, 1.0)
        reachable = {
            sum(a * x for a, x in zip(self.FIVE.values, xs))
            for xs in itertools.product(atoms, repeat=5)
        }
        for seed in range(20):
            mean_v, se = simulate_policy(state, 1, seed)
            assert mean_v in reachable and se == 0.0
        dp = value(state).w
        mean_v, se = simulate_policy(state, 20_000, seed=5)
        if level == 1.0:  # the 1-atom arm is degenerate
            assert (mean_v, se) == (dp, 0.0)
        else:
            assert se > 0 and abs(mean_v - dp) <= 4 * se

    def test_z_scores_over_random_instances_look_standard_normal(self):
        gen = InstanceGen(seed=77)
        zs = []
        for i in range(300):
            state = random_state(gen, gen.rng(i))
            mean_v, se = simulate_policy(state, 20_000, seed=i)
            if se > 0:
                zs.append((mean_v - value(state).w) / se)
        zs = np.array(zs)
        assert len(zs) >= 150  # the others end every trajectory on one payoff
        assert abs(zs.mean()) <= 0.2
        assert 0.85 <= zs.std(ddof=1) <= 1.15
        assert np.abs(zs).max() < 4.5

    def test_a_trillion_trials_allocate_nothing_per_trial(self):
        state = BanditState(
            make_measure([(0, 1), (1, 1)]), point_mass(0.5), make_discount([1, 1])
        )
        t0 = time.perf_counter()
        mean_v, se = simulate_policy(state, 10**12, seed=11)
        assert time.perf_counter() - t0 < 1.0
        assert se > 0
        assert abs(mean_v - 13 / 12) <= 4 * se

    @pytest.mark.parametrize("trials", [2.5, True, False, 0, -3, "10", 2**63])
    def test_bad_trial_counts_are_refused(self, trials):
        state = random_state(GEN, GEN.rng(3_000))
        with pytest.raises(InvalidParameterError):
            simulate_policy(state, trials, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_bad_seeds_are_refused(self, seed):
        state = random_state(GEN, GEN.rng(3_000))
        with pytest.raises(InvalidParameterError):
            simulate_policy(state, 10, seed=seed)

    def test_numpy_integers_are_accepted(self):
        state = random_state(GEN, GEN.rng(3_000))
        assert simulate_policy(state, np.int64(500), np.uint32(4)) == simulate_policy(
            state, 500, 4
        )


def test_strictness_suite_reports_gap_statistics():
    report = SUITES["strictness"](InstanceGen(seed=3), 10)
    assert {"min_gap", "median_gap", "max_gap", "strict_margin"} <= set(report.details)
    assert report.details["min_gap"] > 0


def test_suite_report_dict_schema():
    d = SUITES["oracle"](InstanceGen(seed=4), 3).to_dict()
    assert set(d) == {"suite", "seed", "trials", "violations", "worst_margin", "details"}
    assert d["seed"] == 4 and d["trials"] == 3


def test_trial_count_below_one_is_rejected():
    # Zero used to fall back to the default count, as if no count was given.
    for trials in (0, -1):
        with pytest.raises(InvalidParameterError):
            SUITES["lemma3"](GEN, trials)
    assert SUITES["lemma3"](GEN).trials == DEFAULT_TRIALS["lemma3"]


def test_jobs_below_one_are_rejected():
    for jobs in (0, -2):
        with pytest.raises(InvalidParameterError):
            SUITES["lemma3"](GEN, 2, jobs=jobs)


@pytest.mark.parametrize("trials", [2.5, True, "3", np.float64(2.0)])
def test_non_integer_trial_counts_are_refused(trials):
    # 2.5 used to leak TypeError from range(); True ran one instance and
    # reported "trials": true.
    with pytest.raises(InvalidParameterError):
        verify.check_oracle_equivalence(GEN, trials)


@pytest.mark.parametrize("jobs", [1.5, True, "2"])
def test_non_integer_jobs_are_refused(jobs):
    # 1.5 used to reach ProcessPoolExecutor(max_workers=1.5) and leak TypeError.
    with pytest.raises(InvalidParameterError):
        run_suites(["lemma3"], GEN, 2, jobs=jobs)


#: Suites that take ``exact``; oracle and montecarlo have no exact form.
EXACT_SUITES = {"lemma1", "thm1", "thm2", "lemma3", "lemma4", "prop1", "strictness"}


@pytest.mark.parametrize("name", list(SUITES))
def test_suites_take_no_per_suite_settings(name):
    # Slack, tolerances, grid and sample count are module constants; a suite
    # takes only what the runner needs.
    want = ["gen", "trials", "exact", "jobs"] if name in EXACT_SUITES else ["gen", "trials", "jobs"]
    assert list(inspect.signature(SUITES[name]).parameters) == want


@pytest.mark.parametrize("margin", [
    _convexity_margin, _icx_margin, _weight_margin, _dilution_margin, _smoothing_margin,
    _breakeven_margin, _strictness_margin, _oracle_margin, _montecarlo_margin,
])
def test_suspended_workers_hold_no_rng(margin):
    # A worker waits for its chunk's solve; its frame used to keep the
    # instance's numpy Generator until then.
    w = margin(GEN, 3, opts=DEFAULT_OPTIONS)
    next(w)
    held = w.gi_frame.f_locals.values()
    assert not any(isinstance(v, np.random.Generator) for v in held)
    w.close()


def test_numpy_integer_trials_and_jobs_are_accepted():
    report = SUITES["lemma3"](GEN, np.int64(2), jobs=np.int32(1))
    assert report.to_dict() == SUITES["lemma3"](GEN, 2).to_dict()
    assert json.loads(json.dumps(report.to_dict()))["trials"] == 2


def test_pool_size_is_capped_by_instances_and_usable_cpus(monkeypatch):
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(8)))
    assert _pool_size(64, 2) == 2
    assert _pool_size(64, 1_000) == 8
    assert _pool_size(3, 1_000) == 3
    assert _pool_size(1, 1_000) == 1


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and each task's
    indices, and maps in-process, pickling each task and its result as a
    process pool would."""

    sizes: list = []
    tasks: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        for item in items:
            self.tasks.append(item)
            task, arg = pickle.loads(pickle.dumps((fn, item)))
            yield pickle.loads(pickle.dumps(task(arg)))


@pytest.fixture
def inline_pool(monkeypatch):
    from concurrent import futures

    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "tasks", [])
    return _InlinePool


@pytest.mark.parametrize("name", list(SUITES))
def test_parallel_jobs_reproduce_sequential_reports(name, inline_pool):
    # 13 instances over 3 workers: chunks of two consecutive indices, the last
    # of one, each drawn and solved apart from the others.
    par = SUITES[name](InstanceGen(seed=12), 13, jobs=3).to_dict()
    assert inline_pool.tasks == [range(i, min(i + 2, 13)) for i in range(0, 13, 2)]
    assert par == SUITES[name](InstanceGen(seed=12), 13, jobs=1).to_dict()


def test_one_pass_per_shape(monkeypatch):
    # lemma3 at its default trials: one instance per pass made 195 passes.
    stacks = []

    class Counting(solver.BanditSolver):
        def __init__(self, state, *args, **kwargs):
            super().__init__(state, *args, **kwargs)
            stacks.append(list(state))

    monkeypatch.setattr(solver, "BanditSolver", Counting)
    report = SUITES["lemma3"](InstanceGen(seed=0))
    assert report.trials == DEFAULT_TRIALS["lemma3"] and report.passed
    # A stack has one shape (BanditSolver refuses any other), and no two
    # stacks share one.
    shapes = {(len(s.arm1), len(s.arm2), len(s.discount.values)) for s, *_ in stacks}
    assert len(shapes) == len(stacks) <= 24


def test_prop1_runs_each_value_search_once(monkeypatch):
    searches = []

    def recorded(batch, *args, **kwargs):
        searches.extend(batch)
        return lockstep(batch, *args, **kwargs)

    lockstep = verify._lockstep
    monkeypatch.setattr(verify, "_lockstep", recorded)
    trials = 30
    report = SUITES["prop1"](InstanceGen(seed=0), trials)
    assert report.passed
    kinds = [s.lam0 is not None for s in searches]
    assert kinds.count(False) == kinds.count(True) == trials


def test_one_stopping_pass_per_shape_per_round(monkeypatch):
    # strictness at seed 0 and its default trials: 200 value searches, run
    # alone, made 548 stopping passes.  Stacked, a shape makes as many
    # passes as its slowest search takes.
    gen, trials = InstanceGen(seed=0), DEFAULT_TRIALS["strictness"]
    searches = []
    for i in range(trials):
        worker = verify._strictness_margin(gen, i, opts=DEFAULT_OPTIONS)
        searches += next(worker)[1]
    slowest = {}
    for s in searches:
        res = break_even_value(s.arm, s.A, s.tol)
        slowest[s.shape] = max(slowest.get(s.shape, 0), res.iterations)
    passes = []

    def counted_pass(*args):
        passes.append(args)
        return stopping_pass(*args)

    stopping_pass = solver._stopping_pass
    monkeypatch.setattr(solver, "_stopping_pass", counted_pass)
    assert SUITES["strictness"](gen).trials == trials
    assert len(passes) == sum(slowest.values()) == 35


def test_parallel_run_starts_no_more_workers_than_instances(inline_pool):
    par = SUITES["lemma3"](InstanceGen(seed=12), 3, jobs=64).to_dict()
    assert inline_pool.sizes == [3]
    assert par == SUITES["lemma3"](InstanceGen(seed=12), 3, jobs=1).to_dict()
    # A single instance runs in-process: no pool starts.
    SUITES["lemma3"](InstanceGen(seed=12), 1, jobs=64)
    assert inline_pool.sizes == [3]


def test_negative_seed_is_rejected():
    with pytest.raises(InvalidParameterError):
        InstanceGen(seed=-1)


@pytest.mark.parametrize("seed", [1.5, True, None, "3"])
def test_non_integer_generator_seeds_are_rejected(seed):
    # 1.5 used to construct and then fail inside numpy's SeedSequence.
    with pytest.raises(InvalidParameterError):
        InstanceGen(seed=seed)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("max_horizon", 1),  # the break-even suites draw at least two stages
        ("max_horizon", 4.0),
        ("max_atoms", 1),  # the strictness suite draws at least two atoms
        ("max_atoms", 0),
        ("max_atoms", 65),  # normalized weights are cut from 63 inner grid points
        ("max_atoms", True),
    ],
)
def test_generator_settings_no_suite_can_draw_from_are_refused(field, bad):
    with pytest.raises(InvalidParameterError, match=field):
        InstanceGen(**{field: bad})


@pytest.mark.parametrize("max_horizon, max_atoms", [(2, 2), (3, 64)])
def test_suites_draw_at_the_generator_bounds(max_horizon, max_atoms):
    gen = InstanceGen(seed=8, max_horizon=max_horizon, max_atoms=max_atoms)
    for name in ("lemma3", "prop1", "strictness", "thm1"):
        assert SUITES[name](gen, 2).trials == 2
    assert len(random_measure(gen, gen.rng(0), atoms=64, normalized=True)) == 64
