"""Break-even value and break-even observation for the one-armed bandit.

The break-even value is the smallest known-arm rate ``lam`` at which
retiring to the known arm is optimal, i.e. the smallest root of

    g(lam) = W(arm vs known lam) - lam * T_1 <= 0.

Each pulling strategy's payoff is affine in ``lam``, so the pull payoff is
their maximum: convex and piecewise linear, with slope D, the expected
discounted tail at retirement of the optimal strategy (at most T_2).  Both
quantities are therefore roots of convex, monotone, piecewise-linear
functions, and both searches take Newton steps on the slope that the
stopping pass carries beside the value (``solver._stopping_pass``).  A
tangent lies below a convex function, so every tangent root lies between
the iterate and the root: the iterates move monotonically towards it and,
once on its linear piece, land on it.  A search ends after finitely many
passes, typically a handful; in exact mode it returns the rational root
itself.

The value search starts at the arm's mean and steps up on g, whose slope
is D - T_1 <= -a_1.  The observation search finds the x at which the pull
payoff P(lam0; x) of the posterior after observing x reaches lam0 * T_2,
lam0 being the arm's break-even value.  The posterior's predictive
probabilities do not depend on x and its means are affine in x, so P is
convex and piecewise linear in x too, with slope at least a_2 / (M + 1) for
prior mass M; the search steps down from the top of the support.

Float mode stops once the slope bound brackets the root within the
tolerance, and reports the residual of the defining equation at the last
iterate; exact mode, where both searches land on the root, reports a zero
residual.

The Newton loop is a coroutine (``_newton_steps``): it yields each point it
needs a pass at and is sent back the objective there and its slope.  So
many searches can run in lockstep (``_lockstep``): it stacks the searches
by shape -- search kind, atom count and horizon -- and each Newton round
makes one stacked stopping pass per shape, which gives each search the
bits of its own pass.  A stack is fixed when it is set up: a search that has
converged rides along at its last point until the stack's slowest search
returns, since shrinking such small stacks saved no time.  The public
searches are its one-search case, one pass per iteration; ``index_sweep``
runs its whole grid in one call, and the property suites every search of a
chunk of instances.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import solver
from .discount import DiscountSeq, _pass_table, drop_first
from .errors import (
    DegenerateHorizonError,
    HorizonTooShortError,
    InvalidParameterError,
    NonPositiveDiscountError,
)
from .measures import DiscreteMeasure, Numeric, mean, to_exact, to_float
from .solver import DEFAULT_OPTIONS, SolverOptions

DEFAULT_TOL = 1e-9
#: Residual of the defining equation is expected below this (one order looser
#: than the search tolerance, absorbing DP float noise).
RESIDUAL_TOL = 1e-8
#: Adjacent sweep entries moving against the expected direction by more than
#: this are flagged.
SWEEP_MONOTONE_TOL = 1e-8


@dataclass(frozen=True)
class IndexResult:
    """A root found by Newton passes: the value, a bracket enclosing the
    root, the number of stopping passes, the residual of the defining
    equation at the value, one (point, objective, slope) per pass, and
    whether the objective fell monotonically along the Newton iterates."""

    value: Numeric
    bracket: tuple[Numeric, Numeric]
    iterations: int
    residual: Numeric
    trace: tuple[tuple[Numeric, Numeric, Numeric], ...] = ()
    monotone: bool = True


def _check_weight(A: DiscountSeq) -> None:
    if len(A.values) == 0 or A.tails[0] <= 0:
        raise DegenerateHorizonError("total discount weight must be positive")


def _newton_steps(x, limit, bound, tol, exact, down=False, stacklevel=2):
    """Newton steps to the root of a convex, monotone, piecewise-linear
    objective, as a coroutine: it yields each point at which it needs one
    stopping pass, the start ``x`` first, is sent back (objective, slope)
    there, and returns the IndexResult.

    The objective at the start is nonnegative (in float, up to rounding),
    and the root lies between x and ``limit``, past which no step goes.  The
    objective falls towards the root, rising with x when ``down``.  Wherever
    it is positive its slope has the sign of ``bound`` and at least its size
    (a zero ``bound`` gives no size), so x - objective / bound is past the
    root while no Newton step is: the two bracket it.  Float mode stops once
    the bracket is narrower than ``tol``, exact mode on the root.
    ``stacklevel``, counted from ``_warn_if_not_monotone``, points a warning
    of non-monotone iterates at the public search's caller.
    """
    toward = max if down else min
    trace = []
    while True:
        fx, slope = yield x
        trace.append((x, fx, slope))
        if fx <= 0:
            # On the root, or in float past it by rounding: the tangent
            # there, below the objective, bounds how far.
            far = x if fx == 0 else x - fx / slope
            break
        far = toward(limit, x - fx / bound) if bound else limit
        if not exact and abs(far - x) <= tol:
            break
        # With the objective positive, only rounding flattens the slope or
        # stalls the step: the root is then as close as floats can tell.
        if not (slope > 0 if down else slope < 0):
            break
        nxt = toward(limit, x - fx / slope)
        if nxt == x:
            break
        x = nxt
    monotone = _warn_if_not_monotone(trace, tol, stacklevel)
    return IndexResult(x, (min(x, far), max(x, far)), len(trace), abs(fx), tuple(trace), monotone)


class _Search(NamedTuple):
    """One break-even search as ``_lockstep`` runs it: Newton steps from
    ``start`` towards ``limit`` with slope bound ``bound`` (see
    ``_newton_steps``), one stopping pass of ``arm`` under ``A`` a step, the
    arm checked and in the solve's arithmetic.

    A value search (no ``lam0``) steps up on g(lam) = W(lam) - lam * T; an
    observation search steps down on h(x) = P(lam0; x) / T - lam0, over the
    arm plus a unit mass at x and the sequence with its first stage
    dropped.  T is the first tail of ``A`` in the solve's arithmetic: T_1
    of a value search, T_2 of the full sequence of an observation search."""

    arm: DiscreteMeasure
    A: DiscountSeq
    T: Numeric
    start: Numeric
    limit: Numeric
    bound: Numeric
    tol: float
    lam0: Optional[Numeric] = None

    @property
    def shape(self) -> tuple[bool, int, int]:
        """What one stacked pass shares: the kind, the atom count of the
        lattice the pass walks and the horizon."""
        observe = self.lam0 is not None
        return observe, len(self.arm) + observe, len(self.A.values)

    def objective(self, x, root):
        """The objective at x and its slope, from x's pass ``root``."""
        T = self.T
        if self.lam0 is None:
            # The stopping-form value equals lam * T1 bit for bit wherever
            # retirement is optimal, so g is exactly zero from the root on.
            (_, v), (_, slope) = root
            return v - x * T, slope - T
        p, slope = root
        return p / T - self.lam0, slope / T


def _head(A: DiscountSeq, exact: bool):
    """``A``'s first value and first tail in a solve's arithmetic, off its pass table."""
    scaled, den, _ = _pass_table(A, exact)
    return solver._read(scaled[0], den), solver._read(scaled[len(A.values)], den)


def _value_search(arm: DiscreteMeasure, A: DiscountSeq, tol: float, opts: SolverOptions):
    """The search of ``break_even_value``: the tolerance, the arm and the
    total weight are checked here and the arm put in the solve's arithmetic;
    the stopping form checks regularity.

    Newton steps on g up from mean(arm): constant play of the unknown arm
    earns its mean per pull, so the break-even rate is at least the mean;
    it never exceeds the best possible observation per pull, which caps it
    at the top of the support."""
    if not 0 < tol < float("inf"):  # also refuses NaN
        raise InvalidParameterError(f"tolerance must be positive and finite, got {tol}")
    arm = to_exact(arm) if opts.exact else to_float(arm)
    _check_weight(A)
    a1, T1 = _head(A, opts.exact)
    top = arm.max_location
    # g falls with slope at most -a1; a1 = 0 (T1 = T2) leaves only the cap.
    return _Search(arm, A, T1, min(mean(arm), top), top, -a1, tol)


def _observation_search(value: _Search, lam0) -> _Search:
    """The search of ``break_even_observation`` of the value search
    ``value``'s arm and sequence, given its break-even value ``lam0``:
    Newton steps on h down from the top of the support."""
    A1 = drop_first(value.A)
    a2, T2 = _head(A1, value.arm.exact)
    # The root always pulls, adding a_2 * p_new = a_2 / (M + 1) to the slope.
    bound = a2 / ((value.arm.total_mass + 1) * T2)
    return _Search(value.arm, A1, T2, value.arm.max_location, lam0, bound, value.tol, lam0)


def _lockstep(searches, opts: SolverOptions, stacklevel: int = 1) -> list[IndexResult]:
    """The results of ``searches``, in order, run in lockstep: the searches
    of one shape share a stack (``solver._stacks``), built once, and one
    stacked stopping pass per Newton round, one iterate per search, until
    every search of the stack has returned.  A returned search rides along
    at its last point and its roots are ignored: the stacks are small, so a
    pass's fixed per-level cost outweighs its extra rows, and shrinking
    them saved no time in the property suites.  A stacked pass gives
    each search the bits of its own, so each result equals its search's run
    alone.  ``stacklevel`` points a warning of non-monotone iterates at a
    frame as ``warnings.warn`` would, called in this function's caller."""
    results = [None] * len(searches)
    for members in solver._stacks([s.shape for s in searches], opts):
        group = [searches[i] for i in members]
        observe = group[0].lam0 is not None
        setup = solver._observation_setup if observe else solver._Stack
        stack = setup([s.arm for s in group], [s.A for s in group], opts)
        steps = [_newton_steps(s.start, s.limit, s.bound, s.tol, opts.exact, observe,
                               stacklevel + 3) for s in group]
        points = [next(g) for g in steps]
        running = len(group)
        while running:
            if observe:
                roots = solver._observation_pass(stack, points, [s.lam0 for s in group])
            else:
                roots = solver._rate_pass(stack, points, slope=True)
            for j, (i, s, g) in enumerate(zip(members, group, steps)):
                if results[i] is None:
                    try:
                        points[j] = g.send(s.objective(points[j], roots[j]))
                    except StopIteration as done:
                        results[i] = done.value
                        running -= 1
    return results


def break_even_value(
    arm: DiscreteMeasure,
    A: DiscountSeq,
    tol: float = DEFAULT_TOL,
    options: Optional[SolverOptions] = None,
) -> IndexResult:
    """Smallest known-arm rate at which retiring immediately is optimal.

    Newton steps on g up from mean(arm), capped at the top of the support
    (``_value_search``).  ``options`` selects the arithmetic (float by
    default); in exact mode the value is the root as a Fraction.
    """
    opts = options or DEFAULT_OPTIONS
    (result,) = _lockstep([_value_search(arm, A, tol, opts)], opts, stacklevel=2)
    return result


def break_even_observation(
    arm: DiscreteMeasure,
    A: DiscountSeq,
    tol: float = DEFAULT_TOL,
    options: Optional[SolverOptions] = None,
) -> IndexResult:
    """Observation threshold at which the unknown arm stays optimal.

    The x at which break_even(arm + unit mass at x, dropped-first discounts)
    reaches lam0 = break_even(arm, full discounts), a nondecreasing map since
    adding mass higher up moves the posterior mean distribution up in the
    increasing convex order.  It is the root of h(x) = P(lam0; x) / T_2 -
    lam0, P the posterior's root pull payoff: h has the sign of
    break_even(posterior) - lam0 because P(lam) - lam * T_2 falls with slope
    at most -a_2 < 0.  h is convex and increasing in x, so the Newton steps
    go down from the top of the support, where h >= 0: at lam0 pulling
    earns lam0 * T_1, which would be a_1 * mean + lam0 * T_2 if no
    observation lifted the posterior's break-even value above lam0; lam0
    exceeds the mean unless the arm is a point mass (where h(top) = 0), so
    some observation does, and h is nondecreasing.  The threshold is never
    below lam0, and no step goes past it.
    """
    _check_weight(A)
    if len(A.values) < 2:
        raise HorizonTooShortError(
            "break-even observation needs at least two stages"
        )
    if any(v <= 0 for v in A.values):
        raise NonPositiveDiscountError(
            "break-even observation requires strictly positive discount weights"
        )
    opts = options or DEFAULT_OPTIONS
    value = _value_search(arm, A, tol, opts)
    (lam0,) = _lockstep([value], opts, stacklevel=2)
    (result,) = _lockstep([_observation_search(value, lam0.value)], opts, stacklevel=2)
    return result


def _warn_if_not_monotone(trace, tol, stacklevel) -> bool:
    """Newton iterates on a convex, monotone objective move one way (each
    step goes towards the root) and the objective at them falls towards
    zero without crossing it.  A rise, or a fall past zero, beyond the
    passes' own error budget shows an objective that is not convex and
    monotone as the search assumes: it is reported, and the returned value
    is the last iterate.  Returns whether the iterates were monotone."""
    noise = 4 * tol
    for (x0, f0, _), (x1, f1, _) in zip(trace, trace[1:]):
        if not -noise <= f1 <= f0 + noise:
            warnings.warn(
                f"break-even objective moved from {float(f0):.3g} to {float(f1):.3g} "
                f"between Newton iterates {float(x0):.6g} and {float(x1):.6g}; the "
                "returned value is the last iterate",
                RuntimeWarning,
                stacklevel=stacklevel,
            )
            return False
    return True


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

    The grid's searches run in lockstep: a family that keeps its atoms, as
    the mass family does, makes one stacked pass per Newton round.  Each
    value equals ``break_even_value``'s.  ``expected`` may be
    "nonincreasing" or "nondecreasing"; adjacent pairs violating that
    direction beyond SWEEP_MONOTONE_TOL are flagged.
    """
    grid = list(grid)
    if not grid:
        raise InvalidParameterError("sweep grid must be nonempty")
    if expected not in (None, "nonincreasing", "nondecreasing"):
        raise InvalidParameterError(f"unknown expected direction {expected!r}")
    searches = [_value_search(family(p), A, tol, DEFAULT_OPTIONS) for p in grid]
    rows = [
        SweepRow(float(p), res.value, res.residual, res.iterations)
        for p, res in zip(grid, _lockstep(searches, DEFAULT_OPTIONS, stacklevel=2))
    ]
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
