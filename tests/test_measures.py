"""Measure construction, posterior mechanics, and stochastic-order predicates."""
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_bandits import (
    EmptyMeasureError,
    InstanceGen,
    InvalidParameterError,
    NegativeWeightError,
    NotNormalizedError,
    OrderCheckResult,
    leq_cx,
    make_discount,
    leq_icx,
    leq_st,
    make_measure,
    mean,
    mean_preserving_spread,
    mix,
    point_mass,
    posterior_update,
    predictive,
    scale,
    shift,
    stop_loss,
    to_exact,
    to_float,
)
from dirichlet_bandits.verify import random_measure


GEN = InstanceGen(seed=11, max_atoms=4)


def rnd_prob(i, **kw):
    return random_measure(GEN, GEN.rng(i), normalized=True, **kw)


class TestConstruction:
    def test_two_atoms(self):
        m = make_measure([(0, 0.5), (1, 0.5)])
        assert len(m) == 2
        assert m.total_mass == 1.0

    def test_duplicate_locations_merge(self):
        m = make_measure([(1, 1), (1, 1)])
        assert m.atoms == ((1.0, 2.0),)
        assert m.total_mass == 2.0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(EmptyMeasureError):
            make_measure([(3, 0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            make_measure([(0, -0.1), (1, 1)])

    def test_zero_weight_pairs_dropped(self):
        m = make_measure([(0, 0), (1, 2), (2, 0)])
        assert m.atoms == ((1.0, 2.0),)

    def test_unsorted_input_is_sorted(self):
        m = make_measure([(2, 1), (0, 1), (1, 1)])
        assert m.locations == (0.0, 1.0, 2.0)

    def test_exact_mode_keeps_fractions(self):
        m = make_measure([("1/3", "2/3"), ("2/3", "1/3")], exact=True)
        assert m.total_mass == Fraction(1)
        assert m.locations == (Fraction(1, 3), Fraction(2, 3))

    def test_exact_mode_merges_only_exact_equality(self):
        a = Fraction(1, 3)
        b = a + Fraction(1, 10**15)
        m = make_measure([(a, 1), (b, 1)], exact=True)
        assert len(m) == 2
        mf = make_measure([(float(a), 1), (float(a) + 1e-14, 1)])
        assert len(mf) == 1

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(0, 50, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200)
    def test_invariants_hold_for_any_input(self, pairs):
        if not any(w > 0 for _, w in pairs):
            with pytest.raises(EmptyMeasureError):
                make_measure(pairs)
            return
        m = make_measure(pairs)
        assert all(w > 0 for w in m.weights)
        assert all(a < b for a, b in zip(m.locations, m.locations[1:]))
        assert m.total_mass == pytest.approx(math.fsum(m.weights), rel=1e-12)
        assert m.total_mass > 0


class TestMeanAndUpdates:
    def test_point_mass_mean(self):
        assert mean(point_mass(0.7)) == pytest.approx(0.7)

    def test_symmetric_mean(self):
        assert mean(make_measure([(0, 1), (1, 1)])) == pytest.approx(0.5)

    def test_weighted_mean(self):
        assert mean(make_measure([(0, 1), (1, 2)])) == pytest.approx(2 / 3)

    def test_update_existing_atom(self):
        m = posterior_update(make_measure([(0, 1), (1, 1)]), 1)
        assert m.atoms == ((0.0, 1.0), (1.0, 2.0))
        assert m.total_mass == 3.0

    def test_update_point_mass(self):
        m = posterior_update(point_mass(0.5), 0.5)
        assert m.atoms == ((0.5, 2.0),)

    def test_update_inserts_new_atom(self):
        m = posterior_update(make_measure([(0, 1), (1, 1)]), 0.25)
        assert m.locations == (0.0, 0.25, 1.0)
        assert m.total_mass == 3.0

    def test_update_hits_existing_atom_in_exact_mode(self):
        m = posterior_update(make_measure([(0, 1), (1, 1)], exact=True), Fraction(1))
        assert m.atoms == ((0, 1), (1, 2))
        assert m.exact and m.total_mass == 3

    def test_update_merges_into_lower_neighbour_in_float_mode(self):
        # Within MERGE_TOL above the top atom: bisection lands past it.
        m = posterior_update(make_measure([(0, 1), (1, 1)]), 1 + 5e-13)
        assert m.atoms == ((0.0, 1.0), (1.0, 2.0))

    @pytest.mark.parametrize(
        "x, exact, atoms",
        [
            (Fraction(1, 2), True, ((0, 1), (Fraction(1, 2), 2), (1, 1))),
            (Fraction(1, 2) + Fraction(1, 10**15), True,
             ((0, 1), (Fraction(1, 2), 1), (Fraction(1, 2) + Fraction(1, 10**15), 1), (1, 1))),
            (0.5 - 5e-13, False, ((0.0, 1.0), (0.5, 2.0), (1.0, 1.0))),  # below: upper neighbour
            (0.5 + 5e-13, False, ((0.0, 1.0), (0.5, 2.0), (1.0, 1.0))),  # above: lower neighbour
            (0.5 + 2e-12, False, ((0.0, 1.0), (0.5, 1.0), (0.5 + 2e-12, 1.0), (1.0, 1.0))),
            (-5e-13, False, ((0.0, 2.0), (0.5, 1.0), (1.0, 1.0))),
        ],
        ids=["exact_equal", "exact_near", "float_below", "float_above", "float_beyond",
             "float_below_bottom"],
    )
    def test_update_merges_within_the_merge_rule(self, x, exact, atoms):
        m = posterior_update(make_measure([(0, 1), (0.5, 1), (1, 1)], exact=exact), x)
        assert m.atoms == atoms
        assert m.total_mass == 4

    def test_update_preserves_atoms_and_adds_one(self):
        for i in range(50):
            m = random_measure(GEN, GEN.rng(i))
            rng = GEN.rng(1000 + i)
            x = float(rng.uniform(-1, 2))
            out = posterior_update(m, x)
            assert out.total_mass == m.total_mass + 1
            for loc, w in m.atoms:
                j = out.locations.index(loc)
                assert out.weights[j] >= w

    def test_predictive_normalizes(self):
        p = predictive(make_measure([(0, 1), (1, 3)]))
        assert p.weights == (0.25, 0.75)
        assert p.total_mass == pytest.approx(1.0)

    def test_predictive_point_mass_identity(self):
        p = predictive(point_mass(2))
        assert p.atoms == ((2.0, 1.0),)

    def test_predictive_even(self):
        p = predictive(make_measure([(0, 2), (1, 2)]))
        assert p.weights == (0.5, 0.5)


class TestStopLoss:
    def test_single_surviving_atom(self):
        m = make_measure([(0, 0.5), (1, 0.5)])
        assert stop_loss(m, 0.5) == pytest.approx(0.25)

    def test_above_point_mass_is_zero(self):
        assert stop_loss(point_mass(3), 3) == 0.0
        assert stop_loss(point_mass(3), 5) == 0.0

    def test_below_support_is_mean_minus_t(self):
        m = make_measure([(0, 0.5), (1, 0.5)])
        assert stop_loss(m, -1) == pytest.approx(1.5)

    def test_requires_probability_measure(self):
        with pytest.raises(NotNormalizedError):
            stop_loss(make_measure([(0, 2)]), 0)

    def test_convex_nonincreasing_on_uniform_grids(self):
        for i in range(40):
            m = rnd_prob(i)
            lo = float(m.min_location) - 1
            hi = float(m.max_location) + 1
            for pts in (11, 29, 53):
                grid = np.linspace(lo, hi, pts)
                vals = [stop_loss(m, t) for t in grid]
                d1 = np.diff(vals)
                d2 = np.diff(vals, 2)
                assert np.all(d1 <= 1e-12)
                assert np.all(d2 >= -1e-12)


def shifted_up(m, i, amount=0.25):
    """A measure above m in the usual stochastic order."""
    return shift(m, amount)


def spread_out(m, i, delta=0.25):
    """A measure above m in the convex order."""
    rng = GEN.rng(i + 777)
    return mean_preserving_spread(m, int(rng.integers(0, len(m))), delta)


class TestOrders:
    def test_st_upward_mass_shift(self):
        f = point_mass(0.0)
        g = make_measure([(0, 0.5), (1, 0.5)])
        assert leq_st(f, g).holds
        rev = leq_st(g, f)
        assert not rev.holds
        assert rev.witness == 0.0

    def test_st_reflexive_margin_zero(self):
        f = make_measure([(0, 0.5), (1, 0.5)])
        res = leq_st(f, f)
        assert res.holds
        assert res.margin == 0.0

    def test_icx_mean_preserving_spread(self):
        f = point_mass(0.5)
        g = make_measure([(0, 0.5), (1, 0.5)])
        assert leq_icx(f, g).holds
        rev = leq_icx(g, f)
        assert not rev.holds
        assert rev.witness == 0.5  # stop-loss 0.25 > 0 there

    def test_icx_from_st(self):
        assert leq_icx(point_mass(0), point_mass(1)).holds

    def test_cx_spread(self):
        assert leq_cx(point_mass(0.5), make_measure([(0, 0.5), (1, 0.5)])).holds

    def test_cx_rejects_unequal_means(self):
        res = leq_cx(point_mass(0), point_mass(1))
        assert not res.holds

    def test_cx_reflexive(self):
        f = make_measure([(0, 0.25), (2, 0.75)])
        assert leq_cx(f, f).holds

    def test_failed_check_witness_reproduces_violation(self):
        g = make_measure([(0, 0.5), (1, 0.5)])
        f = point_mass(0.5)
        res = leq_icx(g, f)
        assert res.witness is not None
        assert stop_loss(g, res.witness) > stop_loss(f, res.witness)

    def test_st_and_cx_both_imply_icx(self):
        # st pairs via upward shifts, cx pairs via spreads
        for i in range(500):
            f = rnd_prob(i)
            g = shifted_up(f, i)
            assert leq_st(f, g).holds
            assert leq_icx(f, g).holds
        for i in range(500):
            f = rnd_prob(i + 10_000)
            g = spread_out(f, i)
            assert leq_cx(f, g).holds
            assert leq_icx(f, g).holds

    @pytest.mark.parametrize("order", [leq_st, leq_cx, leq_icx])
    def test_mixture_closure(self, order):
        def bigger(f, i):
            if order is leq_st:
                return shifted_up(f, i)
            if order is leq_cx:
                return spread_out(f, i)
            return spread_out(shifted_up(f, i), i)

        for i in range(60):
            f1 = rnd_prob(3 * i)
            g1 = rnd_prob(3 * i + 1)
            f2 = bigger(f1, 4 * i)
            g2 = bigger(g1, 4 * i + 2)
            assert order(f1, f2).holds and order(g1, g2).holds
            for rho in (0.0, 0.3, 0.5, 1.0):
                lo = mix([(rho, f1), (1 - rho, g1)])
                hi = mix([(rho, f2), (1 - rho, g2)])
                assert order(lo, hi).holds

    @pytest.mark.parametrize("order", [leq_st, leq_cx, leq_icx])
    def test_reflexive_and_transitive_on_chains(self, order):
        def bigger(f, i):
            if order is leq_st:
                return shifted_up(f, i)
            if order is leq_cx:
                return spread_out(f, i)
            return shifted_up(spread_out(f, i), i)

        for i in range(40):
            f0 = rnd_prob(i + 20_000)
            assert order(f0, f0).holds
            f1 = bigger(f0, 2 * i)
            f2 = bigger(f1, 2 * i + 1)
            assert order(f0, f1).holds and order(f1, f2).holds
            assert order(f0, f2).holds

    def test_orders_require_probability_measures(self):
        heavy = make_measure([(0, 2)])
        unit = point_mass(0)
        for pred in (leq_st, leq_icx, leq_cx):
            with pytest.raises(NotNormalizedError):
                pred(heavy, unit)


class TestSpread:
    def test_point_mass_spread(self):
        g = mean_preserving_spread(point_mass(0.5), 0, 0.5)
        assert g.atoms == ((0.0, 0.5), (1.0, 0.5))

    def test_partial_spread(self):
        f = make_measure([(0, 0.5), (1, 0.5)])
        g = mean_preserving_spread(f, 1, 0.25)
        assert g.atoms == ((0.0, 0.5), (0.75, 0.25), (1.25, 0.25))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            mean_preserving_spread(point_mass(0.5), 3, 0.1)

    def test_hundred_random_spreads_are_cx_larger(self):
        for i in range(100):
            f = rnd_prob(i + 5_000)
            rng = GEN.rng(i + 6_000)
            g = mean_preserving_spread(
                f, int(rng.integers(0, len(f))), float(rng.uniform(0.05, 0.5))
            )
            assert leq_cx(f, g).holds


class TestBackendsAndSerialization:
    def test_fraction_syntax_in_float_mode(self):
        m = make_measure([("2/3", "1/2")])
        assert m.atoms[0][0] == pytest.approx(2 / 3)

    def test_to_exact_to_float_roundtrip(self):
        m = make_measure([(0.25, 0.5), (0.75, 1.5)])
        assert to_float(to_exact(m)).atoms == m.atoms
        assert to_exact(m).total_mass == Fraction(2)

    def test_scale_and_shift(self):
        m = make_measure([(0, 1), (1, 1)])
        assert scale(m, 2).total_mass == 4.0
        assert shift(m, 0.5).locations == (0.5, 1.5)
        assert mean(shift(m, 0.5)) == pytest.approx(1.0)

    def test_scale_refuses_weights_out_of_the_float_range(self):
        # A weight underflowed to 0.0 under the old total once gave a
        # break-even value of 0.0 where the small-mass limit is 5/7.
        F = make_measure([(0, 0.25), (0.5, 0.5), (1, 0.25)])
        huge = make_measure([(0, 1e300), (1, 1e300)])
        for m, c in ((F, 5e-324), (F, 1e-323), (huge, 1e10), (huge, 1.5e8)):
            with pytest.raises(InvalidParameterError, match="out of the float range"):
                scale(m, c)
        # Subnormal weights that stay positive, and every exact factor, scale.
        assert scale(F, 1e-322).weights == (2.5e-323, 5e-323, 2.5e-323)
        tiny = scale(to_exact(F), Fraction(5e-324))
        assert tiny.total_mass == Fraction(5e-324) and min(tiny.weights) > 0

    def test_mix_drops_zero_coefficients(self):
        m = mix([(0, point_mass(0)), (1, point_mass(1))])
        assert m.atoms == ((1.0, 1.0),)

    def test_mix_is_make_measure_of_the_weighted_atoms(self):
        # Components in either arithmetic, near-equal and shared locations,
        # zero coefficients and products that underflow or overflow.
        rng = np.random.default_rng(4)
        coefs = [0, 0.5, 1, Fraction(1, 3), 1e-320, 1e300, 2.75]
        for _ in range(400):
            comps = []
            for _ in range(int(rng.integers(1, 4))):
                atoms = int(rng.integers(1, 4))
                locs = rng.choice([0.0, 0.5, 5e-13, float(rng.uniform(-1, 1))], atoms)
                pairs = zip(locs.tolist(), rng.uniform(0.01, 3, atoms).tolist())
                comps.append((coefs[int(rng.integers(len(coefs)))],
                              make_measure(pairs, exact=bool(rng.random() < 0.3))))
            exact = [None, False, True][int(rng.integers(3))]
            mode = all(m.exact for _, m in comps) if exact is None else exact
            products = [(x, Fraction(c) * Fraction(w) if mode else float(c) * float(w))
                        for c, m in comps if c for x, w in m.atoms]
            try:
                want = make_measure(products, exact=mode)
            except (EmptyMeasureError, InvalidParameterError) as e:
                with pytest.raises(type(e), match=f"^{e}$"):
                    mix(comps, exact=exact)
            else:
                assert repr(mix(comps, exact=exact)) == repr(want)

    def test_mix_refusals(self):
        with pytest.raises(NegativeWeightError, match="negative mixture coefficient -1"):
            mix([(1, point_mass(0)), (-1, point_mass(1))])
        for empty in ([], [(0, point_mass(1))], [(1e-320, point_mass(0, 1e-10))]):
            with pytest.raises(EmptyMeasureError, match="measure has no mass"):
                mix(empty)
        with pytest.raises(InvalidParameterError, match="non-finite or malformed number inf"):
            mix([(1e300, point_mass(0, 1e10))])


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("exact", [False, True])
    def test_measure_operations_reject(self, bad, exact):
        m = make_measure([(0, 1), (1, 1)], exact=exact)
        for op in (shift, scale, posterior_update):
            with pytest.raises(InvalidParameterError):
                op(m, bad)
        with pytest.raises(InvalidParameterError):
            make_measure([(bad, 1)], exact=exact)
        with pytest.raises(InvalidParameterError):
            make_measure([(0, bad)], exact=exact)

    @pytest.mark.parametrize(
        "v, as_float, as_fraction",
        [
            (np.float32(0.25), 0.25, Fraction(1, 4)),
            (np.float64(-1.5), -1.5, Fraction(-3, 2)),
            (np.int64(2**62), 2.0**62, Fraction(2**62)),
            (Decimal("0.1"), 0.1, Fraction(1, 10)),
            ("2/3", 2 / 3, Fraction(2, 3)),
            # Finite as a rational, beyond the float range.
            ("1e999", None, Fraction(10) ** 999),
            pytest.param(10**400, None, Fraction(10**400), id="10**400"),
            (Decimal("inf"), None, None),
            (Decimal("-inf"), None, None),
            (Decimal("nan"), None, None),
            ("inf", None, None),
            ("nan", None, None),
            ("abc", None, None),
            ("1/0", None, None),
            (None, None, None),
            (1j, None, None),
            (True, None, None),
            (False, None, None),
        ],
    )
    @pytest.mark.parametrize("exact", [False, True])
    def test_one_gate_for_numbers(self, v, as_float, as_fraction, exact):
        want = as_fraction if exact else as_float
        if want is None:
            with pytest.raises(InvalidParameterError):
                point_mass(v, exact=exact)
        else:
            (loc, _), = point_mass(v, exact=exact).atoms
            assert loc == want and type(loc) is (Fraction if exact else float)
            if exact:
                assert type(loc.numerator) is int

    @pytest.mark.parametrize("exact", [False, True])
    def test_booleans_are_refused_by_both_constructors(self, exact):
        # make_discount([True, 1]) used to read (1.0, 1.0), and
        # make_measure([(True, 1)]) put an atom at 1.0.
        for args in ([(True, 1)], [(0, 1), (1, False)]):
            with pytest.raises(InvalidParameterError, match="True|False"):
                make_measure(args, exact=exact)
        with pytest.raises(InvalidParameterError, match="True"):
            make_discount([True, 1], exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_numpy_booleans_are_refused(self, exact):
        # make_discount([numpy.True_, 1]) used to read (1, 1) in both modes.
        with pytest.raises(InvalidParameterError, match="True"):
            make_discount([np.True_, 1], exact=exact)
        with pytest.raises(InvalidParameterError, match="False"):
            make_measure([(0, 1), (1, np.False_)], exact=exact)
        with pytest.raises(InvalidParameterError, match="True"):
            point_mass(np.True_, exact=exact)


COIN_PROB = make_measure([(0, 0.5), (1, 0.5)])
INNER = make_measure([(0.25, 0.5), (0.75, 0.5)])


@pytest.mark.parametrize("call, outcome", [
    # A float and an exact measure are compared in float.
    (lambda: leq_icx(COIN_PROB, to_exact(INNER)), OrderCheckResult(False, 0.25, -0.125)),
    (lambda: leq_icx(to_exact(COIN_PROB), INNER), OrderCheckResult(False, 0.25, -0.125)),
    (lambda: mean_preserving_spread(COIN_PROB, 0, 0),
     (InvalidParameterError, "spread delta must be positive, got 0.0")),
], ids=["float-exact-order", "exact-float-order", "zero-spread"])
def test_edge_outcomes(call, outcome):
    if isinstance(outcome, OrderCheckResult):
        got = call()
        assert got == outcome
        assert type(got.witness) is float and type(got.margin) is float
        return
    error, message = outcome
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
