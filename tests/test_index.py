"""Break-even value, break-even observation, and parameter sweeps."""
import pytest

from dirichlet_bandits import (
    Action,
    DegenerateHorizonError,
    HorizonTooShortError,
    InstanceGen,
    InvalidParameterError,
    NonPositiveDiscountError,
    NotRegularError,
    break_even_observation,
    break_even_value,
    drop_first,
    index_sweep,
    make_discount,
    make_measure,
    make_truncated_geometric,
    make_uniform,
    mean,
    point_mass,
    posterior_update,
    scale,
    shift,
    sweep_csv,
    value_one_armed,
)
from dirichlet_bandits import index, solver
from dirichlet_bandits.solver import EXACT_OPTIONS, DiscountSeq
from dirichlet_bandits.verify import random_discount, random_measure

GEN = InstanceGen(seed=41)
COIN = make_measure([(0, 1), (1, 1)])
A2 = make_discount([1, 1])


def one_armed_instance(gen, i):
    rng = gen.rng(i)
    arm = random_measure(gen, rng)
    return arm, random_discount(gen, rng, kind="regular_positive", min_n=2)


#: Point-mass arms whose float observation search reads h = -1.1e-16 at
#: the atom, the top of the support, from rounding alone.
ROUNDED_POINT_MASSES = [one_armed_instance(InstanceGen(3), i) for i in (122, 341, 808)]


class TestBreakEvenValue:
    def test_degenerate_arm(self):
        res = break_even_value(point_mass(0.3, weight=2.5), make_uniform(4))
        assert res.value == pytest.approx(0.3, abs=1e-9)
        assert res.residual <= 1e-12

    def test_single_stage_equals_mean(self):
        for i in range(20):
            arm = random_measure(GEN, GEN.rng(i))
            res = break_even_value(arm, make_discount([1.7]))
            assert res.value == pytest.approx(mean(arm), abs=1e-9)

    def test_worked_instance(self):
        res = break_even_value(COIN, A2)
        assert res.value == pytest.approx(5 / 9, abs=1e-9)
        assert res.bracket[0] <= res.value <= res.bracket[1]
        assert res.bracket[1] - res.bracket[0] <= 1e-9
        assert res.residual <= 1e-8

    def test_bounds_and_residual_on_random_instances(self):
        for i in range(40):
            rng = GEN.rng(100 + i)
            arm = random_measure(GEN, rng)
            A = random_discount(GEN, rng, kind="regular")
            res = break_even_value(arm, A)
            assert mean(arm) - 1e-9 <= res.value <= float(arm.max_location) + 1e-9
            assert res.residual <= 1e-8

    def test_stopping_consistency_around_the_index(self):
        for i in range(40):
            rng = GEN.rng(200 + i)
            arm = random_measure(GEN, rng)
            A = random_discount(GEN, rng, kind="regular_positive")
            lam_star = break_even_value(arm, A).value
            above = value_one_armed(arm, lam_star + 0.01, A)
            assert above.action is Action.ARM2
            assert above.w == pytest.approx((lam_star + 0.01) * A.total, abs=1e-10)
            if lam_star - 0.01 > mean(arm):
                below = value_one_armed(arm, lam_star - 0.01, A)
                assert below.action is Action.ARM1

    def test_translation_and_scale_equivariance(self):
        arm = make_measure([(0.1, 1), (0.5, 2), (0.9, 1)])
        A = make_uniform(4)
        base = break_even_value(arm, A).value
        assert break_even_value(shift(arm, 0.7), A).value == pytest.approx(
            base + 0.7, abs=1e-8
        )
        tripled = make_measure([(3.0 * x, w) for x, w in arm.atoms])
        assert break_even_value(tripled, A).value == pytest.approx(
            3.0 * base, abs=1e-8
        )

    def test_matches_brute_force_oracle(self):
        # Independent route: bisect on the exact-rational exhaustive value
        # of the two-armed instance with a point mass at lam as arm 2.
        from fractions import Fraction

        from dirichlet_bandits import BanditState, brute_force_value_exact

        def oracle_lambda(arm, A, tol=1e-10):
            total = sum(Fraction(a) for a in A.values)

            def crossed(lam):
                state = BanditState(arm, point_mass(Fraction(lam)), A)
                return brute_force_value_exact(state) <= Fraction(lam) * total

            lo, hi = mean(arm), float(arm.max_location)
            lo = min(lo, hi)
            if crossed(lo):
                return lo
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if crossed(mid):
                    hi = mid
                else:
                    lo = mid
            return hi

        for i in range(10):
            rng = GEN.rng(500 + i)
            arm = random_measure(GEN, rng, atoms=int(rng.integers(1, 4)))
            n = int(rng.integers(1, 5))
            A = random_discount(GEN, rng, kind="regular", min_n=n, max_n=n)
            assert break_even_value(arm, A).value == pytest.approx(
                oracle_lambda(arm, A), abs=2e-9
            )

    @pytest.mark.parametrize("arm", [COIN, point_mass(0.3, weight=2.5)])
    def test_one_table_and_one_pass_per_iteration(self, arm, monkeypatch):
        tables, passes = [], []

        class CountedRows(solver._ArmRows):
            def __init__(self, *args):
                tables.append(args)
                super().__init__(*args)

        def counted_pass(*args):
            passes.append(args)
            return stopping_pass(*args)

        stopping_pass = solver._stopping_pass
        monkeypatch.setattr(solver, "_ArmRows", CountedRows)
        monkeypatch.setattr(solver, "_stopping_pass", counted_pass)
        res = break_even_value(arm, A2)
        assert len(tables) == 1
        # One Newton step per pass; the residual is read off the last one.
        assert len(passes) == res.iterations

    def test_no_monotonicity_warning_on_clean_instances(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            break_even_observation(COIN, A2)

    def test_rejects_non_regular(self):
        with pytest.raises(NotRegularError):
            break_even_value(COIN, make_discount([1, 0, 1]))

    def test_rejects_empty_horizon(self):
        with pytest.raises(DegenerateHorizonError):
            break_even_value(COIN, DiscountSeq((), (0.0,)))

    def test_accepts_leading_zero_weight_if_regular(self):
        # (0, 1) has tails (1, 1, 0): regular, positive total.  The first
        # pull is free information, which pushes the break-even value above
        # the mean: on [1/3, 2/3] the pull payoff is lam/2 + 1/3, crossing
        # the retirement rate lam at lam = 2/3.
        res = break_even_value(COIN, make_discount([0, 1]))
        assert res.value == pytest.approx(2 / 3, abs=1e-9)


@pytest.mark.parametrize("search", [break_even_value, break_even_observation])
def test_exact_search_reads_a_float_typed_sequence_as_its_rationals(search):
    # 0.9 ** t rounds, so the float tails of this sequence are not the sums
    # of its values as rationals; the exact root is that of the rationals.
    A = make_truncated_geometric(0.9, 12)
    got = search(COIN, A, options=EXACT_OPTIONS)
    assert got.value == search(COIN, make_discount(A.values, exact=True), options=EXACT_OPTIONS).value
    assert got.residual == 0


class TestBreakEvenObservation:
    def test_worked_instance(self):
        res = break_even_observation(COIN, A2)
        assert res.value == pytest.approx(2 / 3, abs=1e-8)
        assert res.residual <= 1e-7

    def test_degenerate_arm(self):
        res = break_even_observation(point_mass(0.4, weight=3), A2)
        assert res.value == pytest.approx(0.4, abs=1e-8)

    @pytest.mark.parametrize(
        "arm, A",
        [(COIN, A2), (point_mass(0.4, weight=3), A2), *ROUNDED_POINT_MASSES],
        ids=["arm0", "arm1", "rounded122", "rounded341", "rounded808"],
    )
    def test_one_value_search_and_one_pass_per_probe(self, arm, A, monkeypatch):
        values, passes = [], []

        def counted_value(*args):
            values.append(value_search(*args))
            return values[-1]

        def counted_pass(*args):
            passes.append(args)
            return stopping_pass(*args)

        value_search, stopping_pass = index._break_even_value, solver._stopping_pass
        monkeypatch.setattr(index, "_break_even_value", counted_value)
        monkeypatch.setattr(solver, "_stopping_pass", counted_pass)
        res = break_even_observation(arm, A)
        assert len(values) == 1
        assert len(passes) == values[0].iterations + res.iterations
        if len(arm) == 1:  # the threshold is the atom itself, found at once
            assert res.iterations == 1
            assert res.value == arm.max_location

    def test_search_starts_at_the_top_of_the_support_above_zero(self):
        # The search needs no expansion: h(top) >= 0 holds exactly.
        for i in range(50):
            arm, A = one_armed_instance(GEN, 500 + i)
            x, h, _ = break_even_observation(arm, A, options=EXACT_OPTIONS).trace[0]
            assert x == arm.max_location
            assert h >= 0

    def test_never_below_break_even_value(self):
        for i in range(25):
            rng = GEN.rng(300 + i)
            arm = random_measure(GEN, rng)
            A = random_discount(GEN, rng, kind="regular_positive", min_n=2)
            lam = break_even_value(arm, A).value
            b = break_even_observation(arm, A).value
            assert b >= lam - 1e-8

    def test_threshold_behaviour(self):
        for i in range(15):
            rng = GEN.rng(400 + i)
            arm = random_measure(GEN, rng)
            A = random_discount(GEN, rng, kind="regular_positive", min_n=2)
            lam = break_even_value(arm, A).value
            b = break_even_observation(arm, A).value
            A1 = drop_first(A)
            for x in (b - 0.05, b + 0.05):
                lam_after = break_even_value(posterior_update(arm, x), A1).value
                if x < b - 1e-6:
                    assert lam_after <= lam + 1e-7
                else:
                    assert lam_after >= lam - 1e-7

    def test_preconditions(self):
        with pytest.raises(HorizonTooShortError):
            break_even_observation(COIN, make_discount([1]))
        with pytest.raises(NonPositiveDiscountError):
            break_even_observation(COIN, make_discount([1, 0, 0.5]))
        with pytest.raises(NotRegularError):
            break_even_observation(COIN, make_discount([1, 0.1, 1]))

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    @pytest.mark.parametrize(
        "values, error",
        [
            ((), DegenerateHorizonError),
            ((0.0,), DegenerateHorizonError),
            ((0.0, 0.0), DegenerateHorizonError),
            ((1.0,), HorizonTooShortError),
            ((1.0, 0.0), NonPositiveDiscountError),
            ((0.0, 1.0), NonPositiveDiscountError),
            ((1.0, 1.0), InvalidParameterError),  # refused only for tol = 0
        ],
        ids=["empty", "one-zero", "all-zero", "one-stage", "zero-last", "zero-first", "valid"],
    )
    def test_precondition_precedence(self, values, error, tol):
        # The horizon is checked before the weights, the weights before the
        # tolerance: a refusal names the first precondition that fails.
        A = DiscountSeq(values, tuple(sum(values[j:]) for j in range(len(values) + 1)))
        if error is InvalidParameterError and tol > 0:
            assert break_even_observation(COIN, A, tol).value == pytest.approx(2 / 3, abs=1e-8)
            return
        with pytest.raises(error) as info:
            break_even_observation(COIN, A, tol)
        assert type(info.value) is error

    def test_validates_the_arm_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return validated(*args)

        validated = index._validated_arm
        monkeypatch.setattr(index, "_validated_arm", counted)
        break_even_observation(COIN, A2)
        assert len(calls) == 1


class TestSweep:
    def test_mass_sweep_is_nonincreasing(self):
        family = lambda M: scale(make_measure([(0, 0.5), (1, 0.5)]), M)
        result = index_sweep(family, make_uniform(4), [1, 2, 4, 8], expected="nonincreasing")
        vals = [r.value for r in result.rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert result.flags == ()

    def test_spread_sweep_is_nondecreasing(self):
        base = make_measure([(0.25, 1), (0.75, 1)])

        def family(d):
            from dirichlet_bandits import mean_preserving_spread, predictive

            F = predictive(base)
            if d == 0:
                return scale(F, 2)
            return scale(mean_preserving_spread(F, 1, d), 2)

        result = index_sweep(family, make_uniform(4), [0, 0.1, 0.2], expected="nondecreasing")
        vals = [r.value for r in result.rows]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        assert result.flags == ()

    def test_wrong_direction_is_flagged(self):
        family = lambda M: scale(make_measure([(0, 0.5), (1, 0.5)]), M)
        result = index_sweep(family, make_uniform(4), [1, 2, 4], expected="nondecreasing")
        assert len(result.flags) == 2

    def test_shift_family_is_flagged_against_nonincreasing(self):
        result = index_sweep(lambda t: shift(COIN, t), A2, [0, 0.5, 1], expected="nonincreasing")
        assert [p[:2] for p in result.flags] == [(0.0, 0.5), (0.5, 1.0)]
        assert all(p[2] == pytest.approx(0.5, abs=1e-8) for p in result.flags)

    def test_single_point_grid(self):
        family = lambda M: scale(COIN, M)
        result = index_sweep(family, A2, [1.0], expected="nonincreasing")
        assert len(result.rows) == 1
        assert result.flags == ()

    def test_csv_format(self):
        family = lambda M: scale(make_measure([(0, 0.5), (1, 0.5)]), M)
        result = index_sweep(family, make_uniform(3), [1, 2])
        text = sweep_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "param,lambda,residual,iterations"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert int(first[3]) >= 0


    def test_empty_grid_is_refused(self):
        with pytest.raises(InvalidParameterError, match="grid must be nonempty"):
            index_sweep(lambda M: scale(COIN, M), A2, [])

    def test_unknown_direction_is_refused(self):
        with pytest.raises(InvalidParameterError, match="unknown expected direction"):
            index_sweep(lambda M: scale(COIN, M), A2, [1.0], expected="increasing")


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(InvalidParameterError):
        break_even_value(COIN, A2, tol)
    with pytest.raises(InvalidParameterError):
        break_even_observation(COIN, A2, tol)
