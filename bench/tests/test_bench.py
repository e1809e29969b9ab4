"""Tests of the benchmark itself: closed-form counts, checkers, generated
configs and the tracer.  Run with ``python3 -m pytest bench/tests``."""
import dataclasses
import json
from fractions import Fraction
from itertools import product

import pytest

import checks as C
import counts
import instances as I
import workloads
from run import SRC, SetupProbe, _cli_env
from spans import Tracer

import dirichlet_bandits as db
from dirichlet_bandits import solver


def brute_states(atoms, horizon):
    return sum(1 for c in product(range(horizon), repeat=atoms) if sum(c) < horizon)


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("horizon", range(0, 8))
def test_lattice_states_match_brute_count(atoms, horizon):
    assert counts.lattice_states(atoms, horizon) == brute_states(atoms, horizon)


def test_state_counts_of_the_roadmap_sizes():
    assert counts.lattice_states(4, 60) == 595_665
    assert counts.lattice_states(6, 24) == 475_020
    assert counts.lattice_states(5, 30) == 278_256


def _coin_like():
    arm1 = db.make_measure([(Fraction(1, 8), Fraction(1, 2)), (Fraction(5, 8), 1), (1, Fraction(3, 4))])
    arm2 = db.make_measure([(Fraction(1, 4), 1), (Fraction(3, 4), Fraction(1, 2))])
    return arm1, arm2


def test_two_armed_count_matches_memo():
    arm1, arm2 = _coin_like()
    state = db.BanditState(arm1, arm2, db.make_uniform(7))
    s = solver.BanditSolver(state)
    if not hasattr(s, "_memo"):
        pytest.skip("solver keeps no dict memo")
    s.report()
    # The root is evaluated by report() outside the memo.
    assert len(s._memo) == counts.two_armed_states(state) - 1


def test_stopping_count_matches_memo():
    arm1, _ = _coin_like()
    A = db.make_uniform(9)
    if not hasattr(solver, "_StoppingSolver"):
        pytest.skip("no recursive stopping solver")
    s = solver._StoppingSolver(arm1, 0.6, A, solver.DEFAULT_OPTIONS)
    s.root_value()
    assert len(s._memo) == counts.stopping_states(arm1, A)


# ---------------------------------------------------------------------------
# checkers reject wrong answers
# ---------------------------------------------------------------------------


def rejects(fn, *args):
    with pytest.raises(C.CheckFailed):
        fn(*args)


def test_report_check():
    arm1, arm2 = _coin_like()
    rep = db.value(db.BanditState(arm1, arm2, db.make_uniform(3)))
    C.check_report(rep)
    rejects(C.check_report, dataclasses.replace(rep, w=rep.w + 1e-12))


def test_value_bounds_check():
    arms = [[(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))], [(Fraction(1, 2), Fraction(1))]]
    C.check_value_bounds(Fraction(13, 12), arms, [1, 1], 0)
    rejects(C.check_value_bounds, Fraction(99, 100), arms, [1, 1], 0)  # below T1 * max mean = 1
    rejects(C.check_value_bounds, Fraction(201, 100), arms, [1, 1], 0)  # above 2 * max location


def test_exact_and_close_checks():
    C.check_equal(Fraction(13, 12), C.COIN_W, "W")
    rejects(C.check_equal, 13 / 12, C.COIN_W, "W")
    C.check_close(5 / 9, C.COIN_LAMBDA, C.COIN_LAMBDA_TOL, "lambda")
    rejects(C.check_close, 5 / 9 + 2e-9, C.COIN_LAMBDA, C.COIN_LAMBDA_TOL, "lambda")
    rejects(C.check_close, float("nan"), C.COIN_LAMBDA, C.COIN_LAMBDA_TOL, "lambda")


def test_break_even_checks():
    coin = db.make_measure([(0, 1), (1, 1)])
    A = db.make_discount([1, 1])
    pairs = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    res = db.break_even_value(coin, A)
    C.check_break_even(res, pairs)
    rejects(C.check_break_even, dataclasses.replace(res, residual=2e-8), pairs)
    rejects(C.check_break_even, dataclasses.replace(res, value=0.4), pairs)  # below the mean
    lam = res.value + workloads.ABOVE_INDEX
    v = db.stopping_value(coin, lam, A)
    C.check_retirement(v, lam, A.tails[0])
    rejects(C.check_retirement, v * (1 + 2**-52), lam, A.tails[0])
    # Below the index pulling is strictly better than retiring.
    low = res.value - 0.01
    rejects(C.check_retirement, db.stopping_value(coin, low, A), low, A.tails[0])


def test_sweep_check():
    bern = db.make_measure([(0, 0.5), (1, 0.5)])
    grid = (1, 2, 4, 8)
    res = db.index_sweep(lambda M: db.scale(bern, M), db.make_uniform(3), grid, expected="nonincreasing")
    C.check_sweep(res, grid)
    rejects(C.check_sweep, res, (1, 2, 4, 16))
    rejects(C.check_sweep, dataclasses.replace(res, flags=((1.0, 2.0, 0.1),)), grid)
    rejects(C.check_sweep, dataclasses.replace(res, rows=tuple(reversed(res.rows))), tuple(reversed(grid)))
    bad = dataclasses.replace(res.rows[0], residual=1e-6)
    rejects(C.check_sweep, dataclasses.replace(res, rows=(bad,) + res.rows[1:]), grid)


def test_policy_tree_check():
    arm1, arm2 = _coin_like()
    tree = db.policy_tree(db.BanditState(arm1, arm2, db.make_uniform(4)), 3)
    C.check_policy_tree(tree, 3, (3, 2))
    rejects(C.check_policy_tree, tree, 4, (3, 2))
    rejects(C.check_policy_tree, tree, 3, (2, 3))
    broken = dataclasses.replace(tree, report=dataclasses.replace(tree.report, w=tree.report.w - 1))
    rejects(C.check_policy_tree, broken, 3, (3, 2))


def _suite_doc(suite, trials, violations=()):
    return {"suites": [{"suite": suite, "trials": trials, "violations": list(violations)}]}


def test_suite_report_check():
    C.check_suite_report(0, _suite_doc("prop1", 100), "prop1", 100)
    C.check_suite_report(0, _suite_doc("strictness", 100, [{"instance": 3, "margin": -1e-8}]),
                         "strictness", 100)
    rejects(C.check_suite_report, 1, _suite_doc("prop1", 100), "prop1", 100)
    rejects(C.check_suite_report, 0, _suite_doc("prop1", 100, [{"instance": 3, "margin": -1.0}]),
            "prop1", 100)
    rejects(C.check_suite_report, 0, _suite_doc("thm1", 100), "prop1", 100)
    rejects(C.check_suite_report, 0, _suite_doc("prop1", 10), "prop1", 100)


def test_battery_is_the_programs_default():
    assert list(C.SUITES) == list(db.verify.SUITE_ORDER)
    assert workloads.BATTERY_TRIALS == db.verify.DEFAULT_TRIALS


def test_cli_check():
    out = "W = 13/12\nW1 = 13/12\nW2 = 1\naction = arm1\n"
    want = {"W": "13/12", "action": "arm1"}
    C.check_cli((0, out), want)
    rejects(C.check_cli, (2, out), want)
    rejects(C.check_cli, (0, out.replace("13/12", "1")), want)
    rejects(C.check_cli, (0, ""), want)


# ---------------------------------------------------------------------------
# generated configs
# ---------------------------------------------------------------------------


def _docs(seed):
    return {
        "two": I.two_armed_doc(seed, "two", 2, 3, I.uniform(6)),
        "geo": I.one_armed_doc(seed, "geo", 3, lambda r: I.geometric(r, 5), index_arm=True),
        "irregular": I.one_armed_doc(seed, "irregular", 3, lambda r: I.non_regular(r, 6), known=True),
    }


def test_configs_deterministic_in_seed():
    assert _docs(7) == _docs(7)
    assert _docs(7) != _docs(8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_configs_round_trip_through_load_instance(tmp_path, seed):
    docs = _docs(seed)
    paths = I.write_configs(docs, tmp_path)
    for name, doc in docs.items():
        cfg = db.load_instance(paths[name], force_mode="exact")
        assert cfg.arm1.atoms == tuple(workloads._pairs(doc["arm1"]))
        assert list(cfg.discount.values) == workloads._values(doc["discount"])
        flt = db.load_instance(paths[name])
        assert flt.arm1.atoms == tuple((float(x), float(w)) for x, w in workloads._pairs(doc["arm1"]))
    assert len(db.load_instance(paths["two"]).arm2.atoms) == 3
    assert db.load_instance(paths["irregular"]).arm2_known
    assert not db.is_regular(db.load_instance(paths["irregular"]).discount)


@pytest.mark.parametrize("seed", range(10))
def test_index_arm_width_fixes_bisection_count(seed):
    pairs = I.index_arm_atoms(I.rng_for(seed, "arm"), 3)
    arm = db.make_measure(pairs)
    res = db.break_even_value(arm, db.make_uniform(4))
    # crossed(mean), 28 halvings, one residual pass
    assert res.iterations == 29


def test_workload_configs_identical_for_a_seed(tmp_path):
    env_a = workloads.Env(SRC.parent, tmp_path / "a", db, _cli_env())
    env_b = workloads.Env(SRC.parent, tmp_path / "b", db, _cli_env())
    for build in (workloads.two_armed, workloads.index):
        a, b = build(5, env_a), build(5, env_b)
        assert [op.name for op in a.ops] == [op.name for op in b.ops]
        generated = [p for p in a.configs if tmp_path in p.parents]
        assert generated
        for p in generated:
            assert p.read_bytes() == (tmp_path / "b" / p.relative_to(tmp_path / "a")).read_bytes()
            json.loads(p.read_text())


def test_setup_probe_runs_only_when_due():
    configs = sorted((SRC.parent / "demos" / "configs").glob("*.json"))
    probe = SetupProbe(configs, interval=3600.0)
    assert probe.samples == []  # the warm-up probe is not recorded
    assert probe.maybe()  # the first is due at once
    assert not probe.maybe()  # the next is an hour away
    (sample,), (ratio,) = probe.samples, probe.ratios
    assert sample["setup_s"] == sample["import_s"] + sample["load_s"] > 0
    assert probe.seconds("setup_s") > 0 and ratio["setup_s"] > 0


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_spans_counts_and_uninstall():
    original = db.index.stopping_value
    tracer = Tracer()
    tracer.install(db)
    try:
        assert db.index.stopping_value is not original
        coin = db.make_measure([(0, 1), (1, 1)])
        A = db.make_uniform(3)
        tracer.active = True
        db.break_even_value(coin, A)
        tracer.active = False
        db.value(db.BanditState(coin, db.point_mass(0.5), A))  # inactive: not recorded
    finally:
        tracer.uninstall()
    assert db.index.stopping_value is original
    layers = tracer.layers()
    bev = layers["index.break_even_value"]
    sv = layers["solver.stopping_value"]
    assert bev["calls"] == 1 and "solver.value" not in layers
    assert tracer.child_calls("index.break_even_value", "solver.stopping_value") == sv["calls"]
    assert tracer.counters["solver.stopping_value.states"] == sv["calls"] * counts.lattice_states(2, 3)
    assert 0 <= bev["self_s"] <= bev["s"]
    assert sv["s"] <= bev["s"]
