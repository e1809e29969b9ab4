"""Break-even value and break-even observation for the one-armed bandit.

The break-even value is the smallest known-arm rate ``lam`` at which
retiring to the known arm is optimal, i.e. the smallest root of

    g(lam) = W(arm vs known lam) - lam * T_1 <= 0.

Per strategy the payoff is affine in ``lam`` with slope at most ``T_1``, so
``g`` is convex, nonincreasing where positive, identically zero beyond the
break-even point: bisection on the sign of ``g`` is robust, and every probe
is the expensive part anyway, so no cleverer root finder is used.  A search
checks its inputs and builds the arm's posterior table once; every probe is
one stopping pass over that shared table.  The same bisection finds the
break-even observation, where each probe is one stopping pass at the arm's
break-even value lam0: the posterior's pull payoff P(lam) - lam * T_2 falls
with slope at most -a_2 < 0, so its sign at lam0 decides the comparison.

Both computations run in float arithmetic only: the root of a piecewise
linear equation with combinatorially many pieces has no useful exact form,
so the residual of the defining equation is reported instead.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

from .discount import DiscountSeq, drop_first, is_regular
from .errors import (
    DegenerateHorizonError,
    HorizonTooShortError,
    InvalidParameterError,
    NonPositiveDiscountError,
    NotRegularError,
)
from .measures import DiscreteMeasure, mean, posterior_update, to_float
from .solver import _stopping_form

DEFAULT_TOL = 1e-9
#: Residual of the defining equation is expected below this (one order looser
#: than the bisection tolerance, absorbing DP float noise).
RESIDUAL_TOL = 1e-8
#: Adjacent sweep entries moving against the expected direction by more than
#: this are flagged.
SWEEP_MONOTONE_TOL = 1e-8


@dataclass(frozen=True)
class IndexResult:
    """A bracketed root: final value, enclosing bracket, number of objective
    evaluations, and the residual of the defining equation at the value."""

    value: float
    bracket: tuple[float, float]
    iterations: int
    residual: float


def _validated_float_arm(arm: DiscreteMeasure, A: DiscountSeq, tol: float):
    if not tol > 0:  # also refuses NaN
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    if len(A.values) == 0 or A.tails[0] <= 0:
        raise DegenerateHorizonError("total discount weight must be positive")
    if not is_regular(A):
        raise NotRegularError(
            "break-even quantities are only defined for regular discount sequences"
        )
    return to_float(arm)


def _bisect(f, lo, hi, tol, f_hi=None):
    """Narrow [lo, hi] around the point where ``f``, positive at ``lo``,
    first falls to zero or below, until the bracket is narrower than
    ``tol`` or float resolution runs out.  Returns the bracket and ``f`` at
    its upper end (``f_hi`` while that end is the one passed in)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # float resolution exhausted
        f_mid = f(mid)
        if f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo = mid
    return lo, hi, f_hi


def break_even_value(
    arm: DiscreteMeasure, A: DiscountSeq, tol: float = DEFAULT_TOL
) -> IndexResult:
    """Smallest known-arm rate at which retiring immediately is optimal.

    Bisection over [mean(arm), max atom location]: constant play of the
    unknown arm earns its mean per pull, so the break-even rate is at least
    the mean; the value never exceeds the best possible observation per
    pull, which caps it at the top of the support.
    """
    arm_f = _validated_float_arm(arm, A, tol)
    T1 = float(A.tails[0])
    stop = _stopping_form(arm_f, A, None)
    evals = 0

    def g(lam: float) -> float:
        # The stopping-form value equals lam * T1 bit for bit wherever
        # retirement is optimal, so the sign of g is free of the rounding
        # noise a max of two pull-first payoffs would carry.
        nonlocal evals
        evals += 1
        return stop(lam)[1] - lam * T1

    lo = min(mean(arm_f), arm_f.max_location)
    g_lo = g(lo)
    if g_lo <= 0.0:
        return IndexResult(lo, (lo, lo), evals, abs(g_lo))
    lo, hi, g_hi = _bisect(g, lo, arm_f.max_location, tol)
    iterations = evals
    if g_hi is None:  # the top of the support was never probed
        g_hi = g(hi)
    return IndexResult(hi, (lo, hi), iterations, abs(g_hi))


def break_even_observation(
    arm: DiscreteMeasure, A: DiscountSeq, tol: float = DEFAULT_TOL
) -> IndexResult:
    """Observation threshold at which the unknown arm stays optimal.

    The x at which break_even(arm + unit mass at x, dropped-first discounts)
    reaches lam0 = break_even(arm, full discounts), a nondecreasing map since
    adding mass higher up moves the posterior mean distribution up in the
    increasing convex order.  A probe is one stopping pass at lam0, giving
    h(x) = P(lam0) / T_2 - lam0 with P the posterior's root pull payoff: h
    has the sign of break_even(posterior) - lam0 because P(lam) - lam * T_2
    falls with slope at most -a_2 < 0.  The search starts at lam0 (the
    threshold is never below it) and expands the upper end geometrically
    past the support when needed.
    """
    n = len(A.values)
    if n == 0 or A.tails[0] <= 0:
        raise DegenerateHorizonError("total discount weight must be positive")
    if n < 2:
        raise HorizonTooShortError(
            "break-even observation needs at least two stages"
        )
    if any(v <= 0 for v in A.values):
        raise NonPositiveDiscountError(
            "break-even observation requires strictly positive discount weights"
        )
    arm_f = _validated_float_arm(arm, A, tol)
    lam0 = break_even_value(arm_f, A, tol).value
    A1 = drop_first(A)
    T2 = float(A1.tails[0])
    probes: list[tuple[float, float]] = []

    def h(x: float) -> float:
        v = _stopping_form(posterior_update(arm_f, x), A1, None)(lam0)[0] / T2 - lam0
        probes.append((x, v))
        return v

    lo = lam0
    h_lo = h(lo)
    if h_lo >= 0:
        return IndexResult(lo, (lo, lo), len(probes), abs(h_lo))
    hi = max(arm_f.max_location, lo)
    step = max(1.0, abs(hi))
    while (h_hi := h(hi)) < 0:
        lo = hi
        hi = hi + step
        step *= 2
        if step > 2.0**64:
            raise InvalidParameterError("break-even observation search diverged")
    # h rises through zero where _bisect expects a fall, hence the negation.
    lo, hi, h_hi = _bisect(lambda x: -h(x), lo, hi, tol, -h_hi)
    _warn_if_not_monotone(probes, tol)
    return IndexResult(hi, (lo, hi), len(probes), abs(h_hi))


def _warn_if_not_monotone(probes, tol) -> None:
    """The crossing objective should be nondecreasing in the observation;
    bisection still returns its lowest crossing, but any decrease across the
    evaluated points (beyond the probes' own error budget) is reported."""
    probes = sorted(probes)
    noise = 4 * tol
    for (x0, v0), (x1, v1) in zip(probes, probes[1:]):
        if v1 < v0 - noise:
            warnings.warn(
                f"break-even objective decreased from {v0:.3g} to {v1:.3g} "
                f"between observations {x0:.6g} and {x1:.6g}; the returned "
                "value is the lowest crossing",
                RuntimeWarning,
                stacklevel=3,
            )
            return


@dataclass(frozen=True)
class SweepRow:
    param: float
    value: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class SweepResult:
    """Break-even values over a parameter grid plus monotonicity flags.

    Each flag is ``(param_prev, param, delta)`` for an adjacent pair moving
    against the expected direction by more than SWEEP_MONOTONE_TOL.
    """

    rows: tuple[SweepRow, ...]
    flags: tuple[tuple[float, float, float], ...]
    expected: str | None


def index_sweep(
    family,
    A: DiscountSeq,
    grid,
    *,
    expected: str | None = None,
    tol: float = DEFAULT_TOL,
) -> SweepResult:
    """Break-even value of ``family(p)`` for each grid parameter ``p``.

    ``expected`` may be "nonincreasing" or "nondecreasing"; adjacent pairs
    violating that direction beyond SWEEP_MONOTONE_TOL are flagged.
    """
    grid = list(grid)
    if not grid:
        raise InvalidParameterError("sweep grid must be nonempty")
    if expected not in (None, "nonincreasing", "nondecreasing"):
        raise InvalidParameterError(f"unknown expected direction {expected!r}")
    rows = []
    for p in grid:
        res = break_even_value(family(p), A, tol)
        rows.append(SweepRow(float(p), res.value, res.residual, res.iterations))
    flags = []
    if expected is not None:
        for prev, cur in zip(rows, rows[1:]):
            delta = cur.value - prev.value
            if expected == "nonincreasing" and delta > SWEEP_MONOTONE_TOL:
                flags.append((prev.param, cur.param, delta))
            if expected == "nondecreasing" and delta < -SWEEP_MONOTONE_TOL:
                flags.append((prev.param, cur.param, delta))
    return SweepResult(tuple(rows), tuple(flags), expected)


def sweep_csv(result: SweepResult) -> str:
    """CSV rendering with the fixed header ``param,lambda,residual,iterations``."""
    lines = ["param,lambda,residual,iterations"]
    for r in result.rows:
        lines.append(
            f"{r.param:.10g},{r.value:.10g},{r.residual:.10g},{r.iterations}"
        )
    return "\n".join(lines) + "\n"
