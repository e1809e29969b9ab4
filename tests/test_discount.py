"""Discount sequences: tails, regularity, families."""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dirichlet_bandits import (
    InvalidParameterError,
    drop_first,
    is_regular,
    make_discount,
    make_truncated_geometric,
    make_uniform,
)


def test_tails_match_direct_summation():
    A = make_discount([0.3, 0.0, 1.25, 0.5])
    for j in range(len(A.values) + 1):
        assert A.tails[j] == pytest.approx(math.fsum(A.values[j:]), abs=1e-12)
    assert A.tails[-1] == 0


def test_float_tails_equal_fsum_bit_for_bit():
    # Summed exactly and rounded once, each tail is fsum of its suffix, down
    # to subnormals and across the whole exponent range.
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        exponents = rng.integers(-1074, 1000, size=n) if trial % 2 else rng.integers(-30, 30, size=n)
        vals = [float(math.ldexp(m, int(e))) for m, e in zip(rng.random(n), exponents)]
        vals += [5e-324, 0.0, 1.0][: trial % 4]
        A = make_discount(vals)
        assert [t.hex() for t in A.tails] == [math.fsum(vals[j:]).hex() for j in range(len(vals) + 1)]


def test_long_float_sequence_tails_take_linear_time():
    # A quadratic fsum per suffix took about 7 s at this length on a 2-vCPU machine.
    t0 = time.perf_counter()
    A = make_uniform(30_000)
    assert time.perf_counter() - t0 < 1.0
    assert A.tails[0] == 30_000.0 and A.tails[12_345] == 30_000.0 - 12_345


def test_drop_first():
    A = make_discount([1, 1, 1])
    assert drop_first(A).values == (1.0, 1.0)
    assert drop_first(make_discount([0.5, 0.25])).values == (0.25,)


def test_drop_first_to_terminal():
    A = drop_first(make_discount([2.0]))
    assert A.values == ()
    assert A.tails == (0.0,)
    with pytest.raises(InvalidParameterError):
        drop_first(A)


def test_uniform_is_regular():
    # T = (3, 2, 1): 2^2 = 4 >= 3 * 1
    assert is_regular(make_uniform(3))
    for n in range(1, 51):
        assert is_regular(make_uniform(n))


def test_truncated_geometric_is_regular():
    assert is_regular(make_truncated_geometric(0.5, 3))
    for beta10 in range(1, 10):
        for n in (1, 2, 5, 17, 50):
            assert is_regular(make_truncated_geometric(beta10 / 10, n))


def test_gap_sequence_is_not_regular():
    # T = (2, 1, 1): 1^2 < 2 * 1
    assert not is_regular(make_discount([1, 0, 1]))


def test_exact_regularity_uses_no_slack():
    assert is_regular(make_uniform(4, exact=True))
    assert not is_regular(make_discount([1, 0, 1], exact=True))


#: Not regular (T = 4, 3, 3, ...: 3^2 < 4 * 3), with weights so small that
#: raw tail products differ by less than the float slack.
SMALL_GAPS = [1e-7, 0, 1e-7, 1e-7, 0, 1e-7]


@pytest.mark.parametrize(
    "values",
    [[1, 0, 1, 1, 0, 1], [1, 0, 1], [1] * 7, [1, 0.5, 0.25, 0.125], [0, 1, 1], [3, 2, 1]],
)
def test_regularity_verdict_does_not_depend_on_scale(values):
    verdict = is_regular(make_discount(values))
    for k in range(-12, 13):
        assert is_regular(make_discount([v * 10.0**k for v in values])) == verdict


def test_small_weights_that_are_not_regular_are_refused():
    # Compared raw against an absolute slack, these tails passed as regular.
    assert not is_regular(make_discount(SMALL_GAPS))
    assert not is_regular(make_discount(SMALL_GAPS, exact=True))


def test_family_values():
    assert make_uniform(2).values == (1.0, 1.0)
    assert make_truncated_geometric(0.5, 3).values == (1.0, 0.5, 0.25)
    g = make_truncated_geometric("1/2", 3, exact=True)
    assert g.values == (Fraction(1), Fraction(1, 2), Fraction(1, 4))


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        make_uniform(0)
    with pytest.raises(InvalidParameterError):
        make_truncated_geometric(1.0, 3)
    with pytest.raises(InvalidParameterError):
        make_truncated_geometric(0.5, 0)
    with pytest.raises(InvalidParameterError):
        make_discount([])
    with pytest.raises(InvalidParameterError):
        make_discount([0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        make_discount([1.0, -0.5])


def test_total_property():
    assert make_discount([1, 2, 3]).total == pytest.approx(6.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("exact", [False, True])
def test_non_finite_weights_rejected(bad, exact):
    with pytest.raises(InvalidParameterError):
        make_discount([1, bad], exact=exact)
