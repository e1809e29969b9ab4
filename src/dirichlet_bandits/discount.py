"""Discount sequences with cached tail sums, the regularity predicate, and
the pass table (``_pass_table``) through which every solve reads them."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import InvalidParameterError
from .measures import Numeric, _coerce, _is_int, _numerators, _over_lcm

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
        return isinstance(self.total, Fraction)

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


def _integer_tails(values):
    """(numerators, D, tails): ``values`` as integers over their least common
    denominator D, with their n + 1 tail sums; non-finite values are refused."""
    try:
        nums, den = _over_lcm(values)
    except (AttributeError, ArithmeticError, ValueError):
        nums, den = _numerators(values, True)
    return nums, den, list(accumulate(reversed(nums), initial=0))[::-1]


def _tail_sums(vals, exact: bool):
    """The sums of ``vals[j:]`` for j = 0..n: :func:`_integer_tails`' tails,
    each rounded once, so a float tail equals ``math.fsum`` of its suffix bit
    for bit; one past the float range raises InvalidParameterError."""
    _, den, tails = _integer_tails(vals)
    try:
        return tuple(Fraction(t, den) if exact else t / den for t in tails)
    except OverflowError:
        raise InvalidParameterError("discount tail sums exceed the float range") from None


def drop_first(A: DiscountSeq) -> DiscountSeq:
    """The length n-1 suffix; for n = 1 the empty terminal sequence."""
    if len(A.values) == 0:
        raise InvalidParameterError("cannot drop a stage from an empty sequence")
    return DiscountSeq(A.values[1:], A.tails[1:])


def _regular(t, slack=0) -> bool:
    """Regularity of tails t_0..t_n: t_j^2 >= t_(j-1) t_(j+1) - slack, 0 < j < n."""
    for j in range(1, len(t) - 1):
        if t[j] * t[j] < t[j - 1] * t[j + 1] - slack:
            return False
    return True


def is_regular(A: DiscountSeq) -> bool:
    """Whether squared tail sums dominate the products of their neighbours.

    Regularity is what makes the one-armed problem an optimal stopping
    problem and the break-even value well defined.  The verdict does not
    depend on the scale of the weights: float tails are compared relative to
    the total, within REGULARITY_SLACK; exact ones exactly, as the integer
    tails of :func:`_integer_tails`.  It is the verdict of ``A``'s pass
    table in its own arithmetic.
    """
    return _pass_table(A, A.exact)[2]


def _pass_table(A: DiscountSeq, exact: bool):
    """``A`` as a pass reads it in a solve's arithmetic, built on first use
    and kept in ``A``'s ``__dict__``, one per arithmetic: (its n values, then
    its n + 1 tails, over one denominator; that denominator; whether ``A``
    is regular there).  An exact table holds :func:`_integer_tails`'
    integers, judged exactly; a float one the values as floats over 1.0 and
    the tails re-summed from them (a float sequence's own), judged relative
    to the total.  Every sequence a solve takes is accepted, the empty
    terminal sequence and zero-total :func:`drop_first` suffixes included."""
    key = "_exact_table" if exact else "_float_table"
    table = A.__dict__.get(key)
    if table is None:
        if exact:
            nums, den, tails = _integer_tails(A.values)
            t, slack = tails, 0
        else:
            nums, den = _numerators(A.values, False)
            t = tails = _tail_sums(nums, False) if A.exact else A.tails
            slack = 0
            if tails[0] > 0:
                t, slack = [x / tails[0] for x in tails], REGULARITY_SLACK
        table = A.__dict__[key] = (*nums, *tails), den, _regular(t, slack)
    return table


def _check_horizon(n) -> None:
    if not _is_int(n) or n < 1:
        raise InvalidParameterError(f"horizon must be an integer of at least 1, got {n!r}")


def make_uniform(n: int, *, exact: bool = False) -> DiscountSeq:
    """Uniform discounting: n unit weights, n an integer of at least 1."""
    _check_horizon(n)
    return make_discount([1] * n, exact=exact)


def make_truncated_geometric(beta, n: int, *, exact: bool = False) -> DiscountSeq:
    """Truncated geometric discounting: (1, beta, ..., beta^(n-1)), n an
    integer of at least 1."""
    _check_horizon(n)
    b = _coerce(beta, exact)
    if not 0 < b < 1:
        raise InvalidParameterError(f"beta must lie in (0, 1), got {beta}")
    vals = []
    cur = Fraction(1) if exact else 1.0
    for _ in range(n):
        vals.append(cur)
        cur = cur * b
    return make_discount(vals, exact=exact)
