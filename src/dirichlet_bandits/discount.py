"""Discount sequences with cached tail sums and the regularity predicate."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InvalidParameterError
from .measures import Numeric, _coerce

#: Float-mode slack on the regularity inequality, with tails relative to the total.
REGULARITY_SLACK = 1e-12


@dataclass(frozen=True)
class DiscountSeq:
    """Nonnegative discount weights ``a_1..a_n`` with cached tail sums.

    ``tails[j]`` is the sum of ``values[j:]``; ``tails[n] == 0``.  The empty
    sequence is permitted only as the terminal marker produced by
    :func:`drop_first`; user-facing construction goes through
    :func:`make_discount`, which enforces a positive total.
    """

    values: tuple[Numeric, ...]
    tails: tuple[Numeric, ...]

    @property
    def total(self) -> Numeric:
        return self.tails[0]

    @property
    def exact(self) -> bool:
        return bool(self.values) and isinstance(self.values[0], Fraction)

    def __len__(self) -> int:
        return len(self.values)


def make_discount(values, *, exact: bool = False) -> DiscountSeq:
    """Build a validated discount sequence (all values >= 0, positive total)."""
    vals = tuple(_coerce(v, exact) for v in values)
    if not vals:
        raise InvalidParameterError("discount sequence must have at least one stage")
    for v in vals:
        if v < 0:
            raise InvalidParameterError(f"discount weights must be nonnegative, got {v}")
    tails = _tail_sums(vals, exact)
    if tails[0] <= 0:
        raise InvalidParameterError("discount sequence must have positive total weight")
    return DiscountSeq(vals, tails)


def _tail_sums(vals, exact: bool):
    """The sums of ``vals[j:]`` for j = 0..n in one pass: exact sums of
    numerators over the values' least common denominator, each rounded once,
    so a float tail equals ``math.fsum`` of its suffix bit for bit."""
    ratios = [v.as_integer_ratio() for v in vals]
    den = lcm(*(d for _, d in ratios))
    total, tails = 0, [Fraction(0) if exact else 0.0]
    for num, d in reversed(ratios):
        total += num * (den // d)
        tails.append(Fraction(total, den) if exact else total / den)
    return tuple(reversed(tails))


def drop_first(A: DiscountSeq) -> DiscountSeq:
    """The length n-1 suffix; for n = 1 the empty terminal sequence."""
    if len(A.values) == 0:
        raise InvalidParameterError("cannot drop a stage from an empty sequence")
    return DiscountSeq(A.values[1:], A.tails[1:])


def is_regular(A: DiscountSeq) -> bool:
    """Whether squared tail sums dominate the products of their neighbours.

    Regularity is what makes the one-armed problem an optimal stopping
    problem and the break-even value well defined.  The verdict does not
    depend on the scale of the weights: float tails are compared relative to
    the total, within REGULARITY_SLACK; exact ones exactly.
    """
    t, slack = A.tails, 0
    if not A.exact and t[0] > 0:
        t, slack = [x / t[0] for x in t], REGULARITY_SLACK
    for j in range(1, len(A.values)):
        if t[j] * t[j] < t[j - 1] * t[j + 1] - slack:
            return False
    return True


def make_uniform(n: int, *, exact: bool = False) -> DiscountSeq:
    """Uniform discounting: n unit weights."""
    if n < 1:
        raise InvalidParameterError(f"horizon must be at least 1, got {n}")
    return make_discount([1] * n, exact=exact)


def make_truncated_geometric(beta, n: int, *, exact: bool = False) -> DiscountSeq:
    """Truncated geometric discounting: (1, beta, ..., beta^(n-1))."""
    if n < 1:
        raise InvalidParameterError(f"horizon must be at least 1, got {n}")
    b = _coerce(beta, exact)
    if not 0 < b < 1:
        raise InvalidParameterError(f"beta must lie in (0, 1), got {beta}")
    vals = []
    cur = Fraction(1) if exact else 1.0
    for _ in range(n):
        vals.append(cur)
        cur = cur * b
    return make_discount(vals, exact=exact)
