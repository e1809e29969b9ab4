"""Finite discrete measures, posterior/predictive mechanics, and stochastic orders.

A measure is a sorted tuple of atoms ``(location, weight)`` with strictly
positive weights and a cached total mass.  Two arithmetic backends coexist:
plain floats (default) and exact rationals (`fractions.Fraction`).  A measure
is *exact* when its numbers are Fractions; constructors coerce inputs to one
backend, never mixing them inside a single measure.  A measure builds its
locations and weights as integer numerators over their least common
denominators once, on first use, and keeps them (``_integer_table``): an
exact solve reads its arm tables from them.

Order predicates compare probability measures at finitely many points.  This
is exact for finite-support distributions: a step CDF is determined by its
values at the atom locations, and the stop-loss transform t -> E(X - t)+ is
piecewise linear with kinks only at atoms, so comparing two such transforms
on the union of atom locations plus one point below the joint support decides
the pointwise inequality everywhere.  These finite-check equivalences are
standard facts about discrete distributions, used here as implementation
theory.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from numbers import Integral, Real
from typing import Optional, Union

from .errors import (
    EmptyMeasureError,
    InvalidParameterError,
    NegativeWeightError,
    NotNormalizedError,
)

Numeric = Union[float, Fraction]

#: Float-mode absolute tolerance for treating two atom locations as one.
MERGE_TOL = 1e-12
#: Allowed |total_mass - 1| where a probability measure is required.
NORMALIZATION_TOL = 1e-9
#: Mean-equality tolerance in the convex-order predicate.
MEAN_EQ_TOL = 1e-10
#: Float-mode slack in pointwise order comparisons.
ORDER_SLACK = 1e-12


def _is_int(x) -> bool:
    """Whether ``x`` is an integer (numpy integers too), booleans excluded."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _coerce(v, exact: bool):
    """``v``, a real number (numpy floats too), a Decimal, or decimal or
    fraction text, as a Fraction (exact) or a float; anything that is not a
    finite number in the mode, such as NaN or 1e999 in float mode, or a
    boolean (numpy's too), raises InvalidParameterError."""
    try:
        cls = type(v)
        if cls is float or cls is int or cls is Fraction:
            x = v  # the common types skip the numbers-ABC checks below
        elif cls is bool or not isinstance(v, (Real, Decimal, str)):
            # numpy's boolean is no Real, though float() would take it
            raise TypeError(f"{cls.__name__} is not a number")
        else:
            x = Fraction(v) if isinstance(v, str) else v
            if isinstance(x, Integral):
                x = int(x)  # a numpy integer would overflow inside a Fraction
            elif not isinstance(x, (Fraction, Decimal)):
                x = float(x)
        if cls is not (Fraction if exact else float):
            x = Fraction(x) if exact else float(x)
        if exact or math.isfinite(x):
            return x
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise InvalidParameterError(f"non-finite or malformed number {v!r}")


def _over_lcm(values):
    """Rationals (floats, Fractions) as integer numerators over their least
    common denominator: (numerators, denominator)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*{d for _, d in ratios})
    return [num * (den // d) for num, d in ratios], den


def _integer_table(m: DiscreteMeasure):
    """``m``'s locations and weights, each as integer numerators over their
    least common denominator (``_over_lcm``), in atom order: ((location
    numerators, Dx), (weight numerators, Dw)).  Built on first use and kept
    in ``m``'s ``__dict__``, as ``discount._pass_table`` keeps a sequence's
    table, so the exact solves that share a measure object derive its
    integers once."""
    table = m.__dict__.get("_integers")
    if table is None:
        table = m.__dict__["_integers"] = tuple(map(_over_lcm, zip(*m.atoms)))
    return table


def _numerators(values, exact: bool):
    """``values`` over one denominator: in exact mode their integer
    numerators over their least common denominator, in float mode the
    floats themselves over 1.0.  Returns (numerators, denominator)."""
    nums = [_coerce(v, exact) for v in values]
    return _over_lcm(nums) if exact else (nums, 1.0)


def _wsum(values, exact: bool):
    return sum(values, Fraction(0)) if exact else math.fsum(values)


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite nonnull measure on the reals.

    ``atoms`` is sorted by location with strictly positive weights;
    ``total_mass`` caches the weight sum.  Instances are immutable and safe
    to share; every operation returns a new measure.  An exact solve keeps
    the measure's integer numerators in its ``__dict__``
    (``_integer_table``).
    """

    atoms: tuple[tuple[Numeric, Numeric], ...]
    total_mass: Numeric

    @property
    def locations(self) -> tuple[Numeric, ...]:
        return tuple(x for x, _ in self.atoms)

    @property
    def weights(self) -> tuple[Numeric, ...]:
        return tuple(w for _, w in self.atoms)

    @property
    def exact(self) -> bool:
        return type(self.total_mass) is Fraction

    @property
    def min_location(self) -> Numeric:
        return self.atoms[0][0]

    @property
    def max_location(self) -> Numeric:
        return self.atoms[-1][0]

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class OrderCheckResult:
    """Outcome of a stochastic-order predicate.

    ``margin`` is the minimal slack seen over all checked points (negative
    means a violation); on failure ``witness`` is the first point where the
    defining pointwise inequality breaks.
    """

    holds: bool
    witness: Optional[Numeric]
    margin: Numeric


def make_measure(pairs, *, exact: bool = False) -> DiscreteMeasure:
    """Build a measure from ``(location, weight)`` pairs.

    Zero-weight pairs are dropped; duplicate locations (exactly equal in
    exact mode, within ``MERGE_TOL`` in float mode) merge by summing weights.
    """
    cleaned = []
    for loc, w in pairs:
        loc = _coerce(loc, exact)
        w = _coerce(w, exact)
        if w < 0:
            raise NegativeWeightError(f"negative weight {w} at location {loc}")
        if w == 0:
            continue
        cleaned.append((loc, w))
    if not cleaned:
        raise EmptyMeasureError("measure has no mass")
    cleaned.sort(key=lambda p: p[0])
    atoms: list[tuple[Numeric, Numeric]] = []
    for loc, w in cleaned:
        if atoms and _same_location(atoms[-1][0], loc, exact):
            atoms[-1] = (atoms[-1][0], atoms[-1][1] + w)
        else:
            atoms.append((loc, w))
    total = _wsum([w for _, w in atoms], exact)
    return DiscreteMeasure(tuple(atoms), total)


def _same_location(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    return b - a <= MERGE_TOL  # inputs sorted, so b >= a


def point_mass(location, weight=1, *, exact: bool = False) -> DiscreteMeasure:
    """A single-atom measure (a scaled Dirac delta)."""
    return make_measure([(location, weight)], exact=exact)


def to_exact(m: DiscreteMeasure) -> DiscreteMeasure:
    """Convert a measure to the exact rational backend."""
    if m.exact:
        return m
    return make_measure(m.atoms, exact=True)


def to_float(m: DiscreteMeasure) -> DiscreteMeasure:
    """Convert a measure to the float backend (re-merging near-equal atoms)."""
    if not m.exact:
        return m
    return make_measure(m.atoms, exact=False)


def mean(m: DiscreteMeasure) -> Numeric:
    """First moment of the normalized measure (the expected observation).

    A float measure whose weighted locations sum beyond the float range is
    refused with InvalidParameterError, even where the mean would be
    finite."""
    try:
        total = _wsum([w * x for x, w in m.atoms], m.exact)
    except (OverflowError, ValueError):  # fsum's intermediate overflow, or inf - inf
        total = math.inf
    if not (m.exact or math.isfinite(total)):
        raise InvalidParameterError(
            f"the weighted locations of a measure with {len(m.atoms)} atoms in "
            f"[{m.atoms[0][0]:g}, {m.atoms[-1][0]:g}] sum beyond the float range"
        )
    return total / m.total_mass


def posterior_update(m: DiscreteMeasure, x) -> DiscreteMeasure:
    """The measure after observing ``x``: a unit point mass is added at x.

    Total mass grows by exactly one and all existing atoms are preserved.
    """
    exact = m.exact
    x = _coerce(x, exact)
    one = Fraction(1) if exact else 1.0
    locs = m.locations
    i = bisect_left(locs, x)  # locs[i - 1] < x <= locs[i]
    hit = None
    if i < len(locs) and _same_location(x, locs[i], exact):
        hit = i
    elif i > 0 and _same_location(locs[i - 1], x, exact):
        hit = i - 1
    atoms = list(m.atoms)
    if hit is None:
        atoms.insert(i, (x, one))
    else:
        atoms[hit] = (atoms[hit][0], atoms[hit][1] + one)
    return DiscreteMeasure(tuple(atoms), m.total_mass + one)


def predictive(m: DiscreteMeasure) -> DiscreteMeasure:
    """The normalized measure: the distribution of the next observation."""
    M = m.total_mass
    atoms = tuple((x, w / M) for x, w in m.atoms)
    total = _wsum([w for _, w in atoms], m.exact)
    return DiscreteMeasure(atoms, total)


def scale(m: DiscreteMeasure, c) -> DiscreteMeasure:
    """Multiply every weight by ``c > 0`` (e.g. attach a prior weight to F).
    A float factor that underflows a weight or the total to zero, or
    overflows one, raises InvalidParameterError."""
    c = _coerce(c, m.exact)
    if c <= 0:
        raise InvalidParameterError(f"scale factor must be positive, got {c}")
    atoms = tuple((x, w * c) for x, w in m.atoms)
    total = m.total_mass * c
    if not all(0 < w < math.inf for _, w in atoms) or not 0 < total < math.inf:
        raise InvalidParameterError(
            f"scale factor {c!r} takes a weight or the total mass out of the float range"
        )
    return DiscreteMeasure(atoms, total)


def shift(m: DiscreteMeasure, t) -> DiscreteMeasure:
    """Translate every atom location by ``t``."""
    t = _coerce(t, m.exact)
    atoms = tuple((x + t, w) for x, w in m.atoms)
    return DiscreteMeasure(atoms, m.total_mass)


def mix(components, *, exact: Optional[bool] = None) -> DiscreteMeasure:
    """Weighted sum of measures: ``mix([(c1, m1), (c2, m2), ...])``.

    Zero coefficients are dropped, so callers can form boundary mixtures
    like ``alpha + 0*F`` without special-casing.
    """
    components = list(components)
    if exact is None:
        exact = bool(components) and all(m.exact for _, m in components)
    pairs = []
    for coef, m in components:
        coef = _coerce(coef, exact)
        if coef < 0:
            raise NegativeWeightError(f"negative mixture coefficient {coef}")
        if coef == 0:
            continue
        for x, w in m.atoms:
            pairs.append((x, coef * _coerce(w, exact)))
    return make_measure(pairs, exact=exact)


def _require_probability(m: DiscreteMeasure, what: str) -> None:
    if abs(m.total_mass - 1) > NORMALIZATION_TOL:
        raise NotNormalizedError(
            f"{what} requires a probability measure; total mass is {m.total_mass}"
        )


def stop_loss(m: DiscreteMeasure, t) -> Numeric:
    """Stop-loss transform E(X - t)+ of a probability measure.

    As a function of t this is convex, nonincreasing, and piecewise linear
    with kinks only at atom locations.
    """
    _require_probability(m, "stop_loss")
    t = _coerce(t, m.exact)
    return _wsum([w * (x - t) for x, w in m.atoms if x > t], m.exact)


def _cdf(m: DiscreteMeasure, t) -> Numeric:
    return _wsum([w for x, w in m.atoms if x <= t], m.exact)


def _common_backend(f, g, what: str):
    """Two probability measures for ``what``, in one backend (float if mixed)."""
    _require_probability(f, what)
    _require_probability(g, what)
    if f.exact != g.exact:
        return to_float(f), to_float(g), False
    return f, g, f.exact


def _pointwise(diff, points, exact: bool) -> OrderCheckResult:
    """Check ``diff(t) >= 0`` at each of ``points``: the margin is the least
    difference, the witness the first point below -ORDER_SLACK (below zero
    in exact mode)."""
    slack = 0 if exact else ORDER_SLACK
    diffs = [diff(t) for t in points]
    witness = next((t for t, d in zip(points, diffs) if d < -slack), None)
    return OrderCheckResult(witness is None, witness, min(diffs))


def leq_st(f: DiscreteMeasure, g: DiscreteMeasure) -> OrderCheckResult:
    """Usual stochastic order: F <= G iff CDF_F >= CDF_G pointwise.

    For step CDFs it suffices to compare at the union of atom locations.
    """
    f, g, exact = _common_backend(f, g, "leq_st")
    points = sorted(set(f.locations) | set(g.locations))
    return _pointwise(lambda t: _cdf(f, t) - _cdf(g, t), points, exact)


def leq_icx(f: DiscreteMeasure, g: DiscreteMeasure) -> OrderCheckResult:
    """Increasing convex order via pointwise stop-loss comparison.

    Both transforms are piecewise linear with kinks in the union of atom
    locations, so checking the union plus one point below the joint support
    (which pins the mean comparison on the far-left linear piece) is exact.
    """
    f, g, exact = _common_backend(f, g, "leq_icx")
    low = min(f.min_location, g.min_location) - 1
    points = [low] + sorted(set(f.locations) | set(g.locations))
    return _pointwise(lambda t: stop_loss(g, t) - stop_loss(f, t), points, exact)


def leq_cx(f: DiscreteMeasure, g: DiscreteMeasure) -> OrderCheckResult:
    """Convex order: equal means (within MEAN_EQ_TOL) plus the icx comparison."""
    f, g, _ = _common_backend(f, g, "leq_cx")
    icx = leq_icx(f, g)
    dmu = mean(f) - mean(g)
    mean_margin = MEAN_EQ_TOL - abs(dmu)
    margin = min(icx.margin, mean_margin)
    if not icx.holds:
        return OrderCheckResult(False, icx.witness, margin)
    if mean_margin < 0:
        # Means differ.  With mu_f > mu_g the stop-loss check already fails
        # below the support; with mu_f < mu_g the violating convex transform
        # is x -> (t - x)+ for t above the joint support.
        if dmu > 0:
            witness = min(f.min_location, g.min_location) - 1
        else:
            witness = max(f.max_location, g.max_location) + 1
        return OrderCheckResult(False, witness, margin)
    return OrderCheckResult(True, None, margin)


def mean_preserving_spread(f: DiscreteMeasure, atom_index: int, delta) -> DiscreteMeasure:
    """Split the chosen atom at x into x - delta and x + delta, half weight each.

    The result is larger than ``f`` in the convex order.
    """
    _require_probability(f, "mean_preserving_spread")
    if not 0 <= atom_index < len(f.atoms):
        raise IndexError(f"atom index {atom_index} out of range for {len(f.atoms)} atoms")
    delta = _coerce(delta, f.exact)
    if delta <= 0:
        raise InvalidParameterError(f"spread delta must be positive, got {delta}")
    x, w = f.atoms[atom_index]
    half = w / 2
    pairs = [a for i, a in enumerate(f.atoms) if i != atom_index]
    pairs.extend([(x - delta, half), (x + delta, half)])
    return make_measure(pairs, exact=f.exact)
