"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable: the suites read them
from module constants, and each criterion pins the constants it relies on.
"""
import time
from fractions import Fraction

from dirichlet_bandits import (
    Action,
    BanditState,
    InstanceGen,
    SolverOptions,
    break_even_observation,
    break_even_value,
    check_breakeven_bound,
    check_icx_monotonicity,
    check_known_atom_dilution,
    check_mass_smoothing,
    check_monte_carlo,
    check_oracle_equivalence,
    check_reallocation_convexity,
    check_weight_monotonicity,
    index_sweep,
    make_discount,
    make_measure,
    make_uniform,
    point_mass,
    scale,
    value,
    value_one_armed,
)
from dirichlet_bandits.index import RESIDUAL_TOL
from dirichlet_bandits.verify import (
    GRID_POINTS,
    MC_SAMPLES,
    ORACLE_TOL,
    SLACK_FLOAT,
    random_discount,
    random_measure,
)

SEED = 2026


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    r = check_oracle_equivalence(InstanceGen(seed=SEED), 100)
    elapsed = time.perf_counter() - t0
    ok = r.passed and elapsed < 60 and ORACLE_TOL == 1e-10
    report(1, "oracle equivalence (100 instances, 1e-10)", ok,
           f"violations={len(r.violations)} worst_margin={r.worst_margin:.3g} "
           f"elapsed={elapsed:.1f}s")


def test_criterion_02_closed_form_worked_instance():
    arm = make_measure([(0, 1), (1, 1)])
    A = make_discount([1, 1])
    w_float = value(BanditState(arm, point_mass(0.5), A)).w
    w_exact = value(
        BanditState(
            make_measure([(0, 1), (1, 1)], exact=True),
            point_mass(Fraction(1, 2), exact=True),
            make_discount([1, 1], exact=True),
        ),
        SolverOptions(mode="exact"),
    ).w
    lam = break_even_value(arm, A)
    b = break_even_observation(arm, A)
    ok = (
        abs(w_float - 13 / 12) <= 1e-12
        and w_exact == Fraction(13, 12)
        and abs(lam.value - 5 / 9) <= 1e-9
        and abs(b.value - 2 / 3) <= 1e-8
    )
    report(2, "worked instance W=13/12, lambda=5/9, b=2/3", ok,
           f"W={w_float!r} lambda={lam.value!r} b={b.value!r}")
    # kept for criterion 8
    test_criterion_02_closed_form_worked_instance.lam = lam


def test_criterion_03_icx_monotonicity_suite():
    t0 = time.perf_counter()
    r = check_icx_monotonicity(InstanceGen(seed=SEED), 200)
    elapsed = time.perf_counter() - t0
    ok = r.passed and elapsed < 300 and SLACK_FLOAT == 1e-9
    report(3, "icx monotonicity (200 pairs)", ok,
           f"violations={len(r.violations)} worst_margin={r.worst_margin:.3g} "
           f"elapsed={elapsed:.1f}s")


def test_criterion_04_weight_monotonicity_and_index_sweep():
    t0 = time.perf_counter()
    r = check_weight_monotonicity(InstanceGen(seed=SEED), 200)
    bernoulli = make_measure([(0, 0.5), (1, 0.5)])
    sweep = index_sweep(
        lambda M: scale(bernoulli, M),
        make_uniform(4),
        [1, 2, 4, 8],
        expected="nonincreasing",
    )
    gaps = [a.value - b.value for a, b in zip(sweep.rows, sweep.rows[1:])]
    elapsed = time.perf_counter() - t0
    ok = (r.passed and SLACK_FLOAT == 1e-9 and all(g > 1e-7 for g in gaps)
          and not sweep.flags and elapsed < 300)
    report(4, "weight monotonicity (200 triples) + strictly decreasing sweep", ok,
           f"violations={len(r.violations)} gaps={[f'{g:.3g}' for g in gaps]} "
           f"elapsed={elapsed:.1f}s")
    test_criterion_04_weight_monotonicity_and_index_sweep.sweep = sweep


def test_criterion_05_reallocation_convexity():
    r = check_reallocation_convexity(InstanceGen(seed=SEED), 100)
    ok = r.passed and GRID_POINTS == 9 and SLACK_FLOAT == 1e-9
    report(5, "value convexity on 9-point reallocation grids", ok,
           f"violations={len(r.violations)} worst_margin={r.worst_margin:.3g}")


def test_criterion_06_dilution_and_smoothing_suites():
    r3 = check_known_atom_dilution(InstanceGen(seed=SEED), 100)
    r4 = check_mass_smoothing(InstanceGen(seed=SEED), 100)
    ok = r3.passed and r4.passed and SLACK_FLOAT == 1e-9
    report(6, "known-atom dilution + mass smoothing (100 each)", ok,
           f"dilution worst={r3.worst_margin:.3g} smoothing worst={r4.worst_margin:.3g}")


def test_criterion_07_breakeven_bound():
    r = check_breakeven_bound(InstanceGen(seed=SEED), 100)
    ok = r.passed and RESIDUAL_TOL == 1e-8
    report(7, "break-even observation >= break-even value (100 instances)", ok,
           f"violations={len(r.violations)} worst_margin={r.worst_margin:.3g}")


def test_criterion_08_index_residuals():
    gen = InstanceGen(seed=SEED + 8)
    residuals = []
    lam = getattr(test_criterion_02_closed_form_worked_instance, "lam", None)
    if lam is not None:
        residuals.append(lam.residual)
    sweep = getattr(test_criterion_04_weight_monotonicity_and_index_sweep, "sweep", None)
    if sweep is not None:
        residuals.extend(row.residual for row in sweep.rows)
    for i in range(50):
        rng = gen.rng(i)
        arm = random_measure(gen, rng)
        A = random_discount(gen, rng, kind="regular")
        residuals.append(break_even_value(arm, A).residual)
    worst = max(residuals)
    report(8, "defining-equation residual <= 1e-8 at every break-even value",
           worst <= 1e-8, f"checked={len(residuals)} worst={worst:.3g}")


def test_criterion_09_monte_carlo():
    r = check_monte_carlo(InstanceGen(seed=SEED), 50)
    rate = 1 - len(r.violations) / r.trials
    ok = rate >= 0.99 and MC_SAMPLES == 100_000
    report(9, "Monte Carlo within 4 standard errors on >= 99% of 50 instances", ok,
           f"pass_rate={rate:.3f} worst_margin={r.worst_margin:.3g}")


def test_criterion_10_optimal_stopping_above_the_index():
    gen = InstanceGen(seed=SEED + 10)
    worst = 0.0
    ok = True
    for i in range(100):
        rng = gen.rng(i)
        arm = random_measure(gen, rng)
        A = random_discount(gen, rng, kind="regular_positive")
        lam = break_even_value(arm, A).value + 0.01
        rep = value_one_armed(arm, lam, A)
        gap = abs(rep.w - lam * A.total)
        worst = max(worst, gap)
        if rep.action is not Action.ARM2 or gap > 1e-10:
            ok = False
    report(10, "above the index: retire action and retirement value (100 instances)",
           ok, f"worst |W - lam*T1|={worst:.3g}")


def test_criterion_11_performance_targets():
    arm_a = make_measure([(0, 0.5), (1, 0.5)])
    arm_b = make_measure([(0.25, 1), (0.75, 1)])
    t0 = time.perf_counter()
    value(BanditState(arm_a, arm_b, make_uniform(10)))
    t_small = time.perf_counter() - t0

    arm_c = make_measure([(0, 0.5), (0.5, 1), (1, 0.5)])
    arm_d = make_measure([(0.2, 1), (0.5, 1), (0.8, 1)])
    t0 = time.perf_counter()
    value(BanditState(arm_c, arm_d, make_uniform(8)))
    t_large = time.perf_counter() - t0
    ok = t_small < 1.0 and t_large < 30.0
    report(11, "performance: 2 atoms/arm n=10 under 1s; 3 atoms/arm n=8 under 30s",
           ok, f"t(2,10)={t_small:.3f}s t(3,8)={t_large:.3f}s")
