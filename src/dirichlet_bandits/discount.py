"""Discount sequences with cached tail sums and the regularity predicate."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError
from .measures import Numeric, _coerce

#: Float-mode slack when testing the regularity inequality on tail products.
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
    n = len(vals)
    if exact:
        tails = [Fraction(0)] * (n + 1)
        for j in range(n - 1, -1, -1):
            tails[j] = vals[j] + tails[j + 1]
    else:
        tails = [math.fsum(vals[j:]) for j in range(n)]
        tails.append(0.0)
    return tuple(tails)


def drop_first(A: DiscountSeq) -> DiscountSeq:
    """The length n-1 suffix; for n = 1 the empty terminal sequence."""
    if len(A.values) == 0:
        raise InvalidParameterError("cannot drop a stage from an empty sequence")
    return DiscountSeq(A.values[1:], A.tails[1:])


def is_regular(A: DiscountSeq) -> bool:
    """Whether squared tail sums dominate the products of their neighbours.

    Regularity is what makes the one-armed problem an optimal stopping
    problem and the break-even value well defined.
    """
    t = A.tails
    n = len(A.values)
    slack = 0 if A.exact else REGULARITY_SLACK
    for j in range(1, n):
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
