"""Suite plumbing: determinism, generator soundness, Monte Carlo evaluation."""
import json

import pytest

from dirichlet_bandits import (
    BanditState,
    InstanceGen,
    InvalidParameterError,
    SUITES,
    make_discount,
    make_measure,
    point_mass,
    run_suites,
    simulate_policy,
    value,
)
from dirichlet_bandits.solver import EXACT_OPTIONS, DiscountSeq
from dirichlet_bandits.verify import (
    DEFAULT_TRIALS,
    _icx_pair,
    format_reports,
    random_discount,
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


def test_parallel_jobs_reproduce_sequential_reports():
    seq = SUITES["lemma3"](InstanceGen(seed=12), 8, jobs=1).to_dict()
    par = SUITES["lemma3"](InstanceGen(seed=12), 8, jobs=2).to_dict()
    assert seq == par


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
        F, Ft = _icx_pair(GEN, rng, exact=False)
        # holds by construction; _icx_pair raises GeneratorFailed otherwise
        assert abs(F.total_mass - 1) < 1e-9
        assert abs(Ft.total_mass - 1) < 1e-9


def test_regular_positive_discount_generator_is_sound():
    from dirichlet_bandits import is_regular

    for i in range(200):
        rng = GEN.rng(1_000 + i)
        A = random_discount(GEN, rng, kind="regular_positive", min_n=2)
        assert is_regular(A)
        assert all(v > 0 for v in A.values)
        assert 2 <= len(A.values) <= GEN.max_horizon


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


def test_negative_seed_is_rejected():
    with pytest.raises(InvalidParameterError):
        InstanceGen(seed=-1)
