"""Randomized property suites certifying the solver's structural guarantees.

Every suite draws instances from a seeded generator, evaluates an inequality
margin per instance (positive = satisfied with room, negative = violated),
and reports every instance whose margin falls below the slack.  A suite's
``exact`` flag picks the ``SolverOptions`` its margins solve with and its
slack: 1e-9 in float, zero in exact mode.  Every draw is built once, in
float, and an exact instance is the solver's exact conversion of the float
draw, discount tails included: the solve makes the only exact copy.
Generated numerics are dyadic (multiples of 1/64, and of 1/64^(n-1) for
ratio-built discounts of horizon n), so thm1's icx self-check on its float
pair agrees with an exact one; past n = 9 a geometric or ratio-built
discount's values are rounded, and the generator draws it again until the
rationals of its float values are regular, so exact mode finds every
sequence regular that float mode does.  Two margins compute in the options'
arithmetic themselves: lemma1 mixes its grid there (the coefficients
k/(grid_points - 1) need not be dyadic), and lemma4 forms its expectation
over the atoms of F there.

A suite runs in two phases.  Its margin worker is a generator: it draws one
instance, yields the two-armed states whose values it needs, and, sent their
reports, returns the instance's margin.  The runner (``_margins``) draws
every instance of a chunk first, solves all of their states in one
``solver._values`` call -- one stacked float pass per shape (atoms per arm,
horizon), whatever instance a state comes from -- and then forms the
margins.  prop1 and strictness name no states; their break-even searches
run after the draw.  With ``jobs`` = 1 a chunk is the whole suite; under
``jobs`` = N each pool task is one chunk of consecutive indices, and only
margins cross the process boundary.  A stacked float pass gives each
instance the bits of a one-instance pass, and exact passes solve one state
each, so no margin depends on the chunking.

Instances are reproducible: instance ``i`` of a suite seeded with ``s`` uses
an rng spawned from ``SeedSequence(s, spawn_key=(i,))``, so suites can run
across processes in any order and still produce identical reports.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .discount import (
    DiscountSeq,
    _in_arithmetic,
    drop_first,
    is_regular,
    make_discount,
    make_truncated_geometric,
    make_uniform,
)
from .errors import GeneratorFailedError, InvalidParameterError
from .index import RESIDUAL_TOL, break_even_value
from .index import break_even_observation
from .measures import (
    DiscreteMeasure,
    _coerce,
    _is_int,
    _wsum,
    leq_icx,
    make_measure,
    mean_preserving_spread,
    mix,
    point_mass,
    scale,
    shift,
)
from .oracle import brute_force_value
from .solver import (
    BanditSolver,
    BanditState,
    DEFAULT_OPTIONS,
    EXACT_OPTIONS,
    _values,
)

#: Resolution of generated numerics: multiples of 1/GRID are dyadic, hence
#: exactly representable as floats and as rationals.
GRID = 64

#: Generated atom locations and prior masses lie in these ranges.
LOCATION_RANGE = (0.0, 1.0)
MASS_RANGE = (0.5, 4.0)

#: Draws of a geometric or ratio-built discount sequence before the
#: generator gives up on one that stays regular after rounding.
REDRAWS = 1000

SLACK_FLOAT = 1e-9
STRICT_MARGIN = 1e-7
THETA_GRID = 5  # points of the lemma4 smoothing grid

DEFAULT_TRIALS = {
    "lemma1": 100,
    "thm1": 200,
    "thm2": 200,
    "lemma3": 100,
    "lemma4": 100,
    "prop1": 100,
    "strictness": 100,
    "oracle": 100,
    "montecarlo": 50,
}


@dataclass(frozen=True)
class InstanceGen:
    """Seeded instance generator; every derived instance satisfies the
    bandit-state type invariants by construction.  Every suite draws at
    least two stages and two atoms, and at most GRID normalized atoms."""

    seed: int = 0
    max_horizon: int = 6
    max_atoms: int = 3

    def __post_init__(self):
        if not _is_int(self.seed) or self.seed < 0:
            raise InvalidParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")
        h, s = self.max_horizon, self.max_atoms
        if not _is_int(h) or h < 2:
            raise InvalidParameterError(f"max_horizon must be an integer >= 2, got {h!r}")
        if not _is_int(s) or not 2 <= s <= GRID:
            raise InvalidParameterError(f"max_atoms must be an integer in [2, {GRID}], got {s!r}")

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))


def _dyadic(rng, lo, hi) -> Fraction:
    """Dyadic rational (multiple of 1/GRID) in [lo, hi]; lo = 1/GRID draws
    a positive one."""
    k0 = math.ceil(lo * GRID)
    k1 = max(k0, math.floor(hi * GRID))
    return Fraction(int(rng.integers(k0, k1 + 1)), GRID)


def random_measure(
    gen: InstanceGen,
    rng,
    *,
    atoms: int | None = None,
    min_atoms: int = 1,
    normalized: bool = False,
) -> DiscreteMeasure:
    """Random measure, in float, with distinct dyadic locations and dyadic
    weights."""
    s = atoms if atoms is not None else int(rng.integers(min_atoms, gen.max_atoms + 1))
    lo, hi = LOCATION_RANGE
    k0 = math.ceil(lo * GRID)
    k1 = math.floor(hi * GRID)
    ks = rng.choice(np.arange(k0, k1 + 1), size=s, replace=False)
    locs = [Fraction(int(k), GRID) for k in sorted(ks.tolist())]
    if normalized:
        if s == 1:
            weights = [Fraction(1)]
        else:
            cuts = sorted(int(c) for c in rng.choice(np.arange(1, GRID), size=s - 1, replace=False))
            edges = [0] + cuts + [GRID]
            weights = [Fraction(edges[i + 1] - edges[i], GRID) for i in range(s)]
    else:
        wlo, whi = MASS_RANGE
        weights = [
            _dyadic(rng, max(1.0 / GRID, wlo / s), max(2.0 / GRID, whi / s))
            for _ in range(s)
        ]
    return make_measure(zip(locs, weights))


def random_discount(
    gen: InstanceGen,
    rng,
    *,
    kind: str = "any",
    min_n: int = 1,
    max_n: int | None = None,
) -> DiscountSeq:
    """Random discount sequence, in float.

    kind "any" mixes uniform, truncated geometric, arbitrary nonnegative
    (zeros allowed, possibly not regular), and ratio-built sequences;
    "regular" and "regular_positive" both draw from the three families that
    are regular with strictly positive weights: uniform, truncated geometric
    and ratio-built.  Ratio-built sequences have nonincreasing tail ratios,
    which forces regularity.  Regular draws are regular as the rationals of
    their float values, which an exact solve reads: past n = 9 the values
    are rounded, and a geometric or ratio-built draw that is not is drawn
    again, at most REDRAWS times before GeneratorFailedError.  Tied ratios
    leave rounding no room: past about 40 stages a ratio-built draw rarely
    survives.
    """
    hi_n = max_n if max_n is not None else gen.max_horizon
    n = int(rng.integers(min_n, hi_n + 1))
    if kind == "any":
        fam = ("uniform", "geometric", "arbitrary", "ratio")[int(rng.integers(0, 4))]
    elif kind in ("regular", "regular_positive"):
        fam = ("uniform", "geometric", "ratio")[int(rng.integers(0, 3))]
    else:
        raise InvalidParameterError(f"unknown discount kind {kind!r}")
    if fam == "uniform":
        return make_uniform(n)
    if fam == "arbitrary":
        ks = [int(k) for k in rng.integers(0, GRID + 1, size=n)]
        if not any(ks):
            ks[int(rng.integers(0, n))] = 1
        return make_discount([Fraction(k, GRID) for k in ks])
    for _ in range(REDRAWS):
        if fam == "geometric":
            A = make_truncated_geometric(Fraction(int(rng.integers(1, GRID)), GRID), n)
        else:
            ratios = sorted((int(k) for k in rng.integers(1, GRID, size=n - 1)), reverse=True)
            tails = [Fraction(1)]
            for k in ratios:
                tails.append(tails[-1] * Fraction(k, GRID))
            A = make_discount([tails[i] - tails[i + 1] for i in range(n - 1)] + [tails[-1]])
        if is_regular(_in_arithmetic(A, True)):
            return A
    raise GeneratorFailedError(
        f"no {fam} discount sequence of {n} stages stayed regular after rounding "
        f"in {REDRAWS} draws"
    )


def random_state(
    gen: InstanceGen,
    rng,
    *,
    kind: str = "any",
    min_n: int = 1,
    max_n: int | None = None,
) -> BanditState:
    arm1 = random_measure(gen, rng)
    arm2 = random_measure(gen, rng)
    A = random_discount(gen, rng, kind=kind, min_n=min_n, max_n=max_n)
    return BanditState(arm1, arm2, A)


# ---------------------------------------------------------------------------
# suite plumbing
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    """Outcome of one property suite.

    ``violations`` lists every instance whose margin fell below the slack;
    ``worst_margin`` is the minimum margin over all instances.
    """

    suite_name: str
    seed: int
    trials: int
    violations: list[tuple[int, float]]
    worst_margin: float
    elapsed: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        # Wall-clock time stays out so that report files are byte-stable
        # for a fixed seed and trial count.
        return {
            "suite": self.suite_name,
            "seed": self.seed,
            "trials": self.trials,
            "violations": [
                {"instance": i, "margin": m} for i, m in self.violations
            ],
            "worst_margin": self.worst_margin,
            "details": self.details,
        }


def format_reports(reports) -> str:
    """Fixed-width human-readable table, one row per suite."""
    lines = [
        f"{'suite':<12} {'trials':>7} {'violations':>11} {'worst_margin':>14} {'elapsed':>9}"
    ]
    for r in reports:
        lines.append(
            f"{r.suite_name:<12} {r.trials:>7} {len(r.violations):>11} "
            f"{r.worst_margin:>14.4g} {r.elapsed:>8.2f}s"
        )
        for i, m in r.violations:
            lines.append(f"    violation: instance={i} margin={m:.4g}")
        for k, v in r.details.items():
            lines.append(f"    {k} = {v}")
    return "\n".join(lines)


def _pool_size(jobs: int, trials: int) -> int:
    """Worker processes for ``trials`` instances at ``jobs``: no more than
    there are instances or CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(jobs, trials, cpus)


def _margins(margin, gen, indices, *, opts, **params) -> list:
    """The margins of instances ``indices``, in order, in three steps: draw
    every instance, each naming the two-armed states it needs; solve all of
    their states in one ``_values`` call, one stack per shape; then give each
    instance its states' reports and take its margin."""
    workers = [margin(gen, i, opts=opts, **params) for i in indices]
    wanted = [next(w) for w in workers]
    reports = iter(_values([s for states in wanted for s in states], opts))
    margins = []
    for w, states in zip(workers, wanted):
        try:
            w.send([next(reports) for _ in states])
        except StopIteration as done:
            margins.append(done.value)
        else:
            raise RuntimeError(f"{margin.__name__} named states twice")
    return margins


def _map_instances(task, trials, jobs):
    """``task(indices)`` over the instances 0..trials-1, margins in index
    order: in-process as one chunk, or under ``jobs`` above 1 as chunks of
    consecutive indices, one pool task each, of which only the margins come
    back."""
    workers = _pool_size(jobs, trials)
    if workers > 1:
        # Imported here: concurrent.futures and multiprocessing add about
        # 30 ms to every import of the package, and only parallel runs use them.
        from concurrent import futures

        size = -(-trials // (4 * workers))
        chunks = [range(i, min(i + size, trials)) for i in range(0, trials, size)]
        with futures.ProcessPoolExecutor(max_workers=workers) as ex:
            return [m for part in ex.map(task, chunks) for m in part]
    return task(range(trials))


def _collect(name, margin, gen, trials, jobs, *, exact=False, slack=None,
             float_slack=SLACK_FLOAT, details=None, **params) -> SuiteReport:
    """Run suite ``name`` through ``_margins``, its instances drawn by the
    margin worker ``margin(gen, i, opts=opts, **params)``; the slack defaults
    to zero in exact mode, else ``float_slack``."""
    gen = gen or InstanceGen()
    opts = EXACT_OPTIONS if exact else DEFAULT_OPTIONS
    if slack is None:
        slack = 0.0 if exact else float_slack
    if not 0 <= slack < math.inf:  # also refuses NaN, which passes every margin
        raise InvalidParameterError(f"slack must be finite and nonnegative, got {slack!r}")
    task = partial(_margins, margin, gen, opts=opts, **params)
    if trials is None:
        trials = DEFAULT_TRIALS[name]
    if not _is_int(trials) or trials < 1:
        raise InvalidParameterError(f"trials must be an integer of at least 1, got {trials!r}")
    if not _is_int(jobs) or jobs < 1:
        raise InvalidParameterError(f"jobs must be an integer of at least 1, got {jobs!r}")
    trials = int(trials)  # a numpy integer would not serialize in the report
    t0 = time.perf_counter()
    margins = [float(m) for m in _map_instances(task, trials, jobs)]
    violations = [(i, m) for i, m in enumerate(margins) if m < -slack]
    report = SuiteReport(
        name,
        gen.seed,
        trials,
        violations,
        min(margins),
        time.perf_counter() - t0,
    )
    if details:
        report.details.update(details(margins))
    return report


# ---------------------------------------------------------------------------
# margin workers (module level so process pools can pickle them)
#
# Each draws instance ``index``, yields once the two-armed states it needs
# (none for prop1 and strictness), and returns its margin from their reports.
# ---------------------------------------------------------------------------


def _convexity_margin(gen, index, *, opts, grid_points):
    rng = gen.rng(index)
    base = random_measure(gen, rng)
    arm2 = random_measure(gen, rng)
    A = random_discount(gen, rng, kind="any")
    u = _dyadic(rng, *LOCATION_RANGE)
    v = _dyadic(rng, *LOCATION_RANGE)
    r = _dyadic(rng, 1 / GRID, 2.0)
    states = []
    for k in range(grid_points):
        # k / (grid_points - 1) need not be dyadic: mix in the solve's arithmetic.
        rho = Fraction(k, grid_points - 1) * r
        arm1 = mix([(1, base), (rho, point_mass(u)), (r - rho, point_mass(v))], exact=opts.exact)
        states.append(BanditState(arm1, arm2, A))
    reports = yield states
    values = [rep.w for rep in reports]
    return min(
        values[k + 1] - 2 * values[k] + values[k - 1]
        for k in range(1, grid_points - 1)
    )


def _icx_pair(gen, rng):
    """A pair F, Ft with F below Ft in the increasing convex order, built by
    composing upward shifts with mean-preserving spreads.  The pair is dyadic,
    so its float self-check agrees with an exact one."""
    F = random_measure(gen, rng, normalized=True)
    Ft = F
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            Ft = shift(Ft, _dyadic(rng, 0.0, 0.5))
        else:
            idx = int(rng.integers(0, len(Ft)))
            Ft = mean_preserving_spread(Ft, idx, _dyadic(rng, 1 / GRID, 0.5))
    chk = leq_icx(F, Ft)
    if not chk.holds:
        raise GeneratorFailedError(
            f"constructed pair fails the icx self-check at t={chk.witness}"
        )
    return F, Ft


def _icx_margin(gen, index, *, opts):
    rng = gen.rng(index)
    F, Ft = _icx_pair(gen, rng)
    M = _dyadic(rng, *MASS_RANGE)
    arm2 = random_measure(gen, rng)
    A = random_discount(gen, rng, kind="any")
    lo, hi = yield [BanditState(scale(F, M), arm2, A), BanditState(scale(Ft, M), arm2, A)]
    return hi.w - lo.w


def _weight_margin(gen, index, *, opts):
    rng = gen.rng(index)
    F = random_measure(gen, rng, normalized=True)
    M = _dyadic(rng, *MASS_RANGE)
    Mt = M + _dyadic(rng, 1 / GRID, 2.0)
    arm2 = random_measure(gen, rng)
    A = random_discount(gen, rng, kind="any")
    small, large = yield [BanditState(scale(F, m), arm2, A) for m in (M, Mt)]
    margins = [small.w - large.w]
    if is_regular(A):
        lam_small, lam_large = (break_even_value(scale(F, m), A, 1e-10, opts) for m in (M, Mt))
        margins.append(lam_small.value - lam_large.value)
        margins.append(RESIDUAL_TOL - max(lam_small.residual, lam_large.residual))
    return min(margins)


def _dilution_margin(gen, index, *, opts):
    rng = gen.rng(index)
    alpha = random_measure(gen, rng)
    lam = _dyadic(rng, *LOCATION_RANGE)
    A = random_discount(gen, rng, kind="any")
    known = point_mass(lam)
    arms = [alpha] + [mix([(1, alpha), (c, known)]) for c in (0.5, 1, 2)]
    base, *diluted = yield [BanditState(arm, known, A) for arm in arms]
    return min(base.w - rep.w for rep in diluted)


def _smoothing_margin(gen, index, *, opts):
    rng = gen.rng(index)
    alpha = random_measure(gen, rng)
    F = random_measure(gen, rng, normalized=True)
    arm2 = random_measure(gen, rng)
    A1 = drop_first(random_discount(gen, rng, kind="any", min_n=2))
    L = _dyadic(rng, 1 / GRID, 2.0)
    thetas = [Fraction(k, THETA_GRID - 1) * L for k in range(THETA_GRID)]
    states = [
        BanditState(mix([(1, alpha), (theta, F), (L - theta, point_mass(x))]), arm2, A1)
        for theta in thetas for x, _ in F.atoms
    ]
    reports = yield states
    ws = [rep.w for rep in reports]
    # The expectation over the atoms of F, in the solve's arithmetic: one run
    # of len(F) values per theta.
    probs = [_coerce(p, opts.exact) for p in F.weights]
    values = []
    for i in range(0, len(ws), len(F)):
        terms = [p * w for p, w in zip(probs, ws[i:])]
        values.append(_wsum(terms, opts.exact))
    return min(values[k] - values[k + 1] for k in range(THETA_GRID - 1))


def _breakeven_margin(gen, index, *, opts, tol):
    rng = gen.rng(index)
    arm = random_measure(gen, rng)
    A = random_discount(gen, rng, kind="regular_positive", min_n=2)
    yield []
    lam = break_even_value(arm, A, tol, opts)
    b = break_even_observation(arm, A, tol, opts)
    return min(b.value - lam.value, RESIDUAL_TOL - lam.residual)


def _strictness_margin(gen, index, *, opts):
    rng = gen.rng(index)
    F = random_measure(gen, rng, normalized=True, min_atoms=2)
    M = _dyadic(rng, *MASS_RANGE)
    Mt = M + _dyadic(rng, 1 / GRID, 2.0)
    n = int(rng.integers(2, gen.max_horizon + 1))
    A = make_uniform(n)
    yield []
    lam_small, lam_large = (break_even_value(scale(F, m), A, 1e-10, opts) for m in (M, Mt))
    return lam_small.value - lam_large.value - STRICT_MARGIN


def _oracle_margin(gen, index, *, opts, tol):
    rng = gen.rng(index)
    n = int(rng.integers(1, 5))
    arm1 = random_measure(gen, rng, atoms=int(rng.integers(1, 4)))
    arm2 = random_measure(gen, rng, atoms=int(rng.integers(1, 4)))
    A = random_discount(gen, rng, kind="any", min_n=n, max_n=n)
    state = BanditState(arm1, arm2, A)
    (report,) = yield [state]
    return tol - abs(report.w - brute_force_value(state))


def _montecarlo_margin(gen, index, *, opts, samples):
    rng = gen.rng(index)
    state = random_state(gen, rng, kind="any")
    (report,) = yield [state]
    seed = int(rng.integers(0, 2**63))
    mean_v, se = simulate_policy(state, samples, seed, options=opts)
    # The absolute floor absorbs summation-order rounding when the standard
    # error is exactly zero (both arms degenerate).
    return 4.0 * se + 1e-12 - abs(mean_v - report.w)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def check_reallocation_convexity(
    gen=None, trials=None, *, grid_points=9, slack=None, exact=False, jobs=1
) -> SuiteReport:
    """Value is convex in the amount of point mass moved between two
    locations of one arm's prior, checked by second differences on a grid."""
    if not _is_int(grid_points) or grid_points < 3:
        raise InvalidParameterError(
            f"convexity grid needs an integer of at least 3 points, got {grid_points!r}"
        )
    return _collect("lemma1", _convexity_margin, gen, trials, jobs, exact=exact, slack=slack,
                    grid_points=grid_points)


def check_icx_monotonicity(gen=None, trials=None, *, slack=None, exact=False, jobs=1) -> SuiteReport:
    """Raising one arm's prior mean distribution in the increasing convex
    order never lowers the value."""
    return _collect("thm1", _icx_margin, gen, trials, jobs, exact=exact, slack=slack)


def check_weight_monotonicity(gen=None, trials=None, *, slack=None, exact=False, jobs=1) -> SuiteReport:
    """Raising an arm's prior weight (same mean distribution) never raises
    the value; with regular discounts the break-even value drops too."""
    return _collect("thm2", _weight_margin, gen, trials, jobs, exact=exact, slack=slack)


def check_known_atom_dilution(gen=None, trials=None, *, slack=None, exact=False, jobs=1) -> SuiteReport:
    """Adding prior mass at the known arm's payoff level never raises the
    value of playing against that known arm."""
    return _collect("lemma3", _dilution_margin, gen, trials, jobs, exact=exact, slack=slack)


def check_mass_smoothing(gen=None, trials=None, *, slack=None, exact=False, jobs=1) -> SuiteReport:
    """Replacing a random unit of added prior mass by its average measure
    (same total, no information) never raises the expected value."""
    return _collect("lemma4", _smoothing_margin, gen, trials, jobs, exact=exact, slack=slack)


def check_breakeven_bound(
    gen=None, trials=None, *, slack=None, tol=1e-9, exact=False, jobs=1
) -> SuiteReport:
    """The break-even observation never falls below the break-even value
    (regular, strictly positive discounts, at least two stages).  Float runs
    allow a slack of 1e-8, the residual tolerance of the two searches."""
    return _collect("prop1", _breakeven_margin, gen, trials, jobs, exact=exact, slack=slack,
                    float_slack=RESIDUAL_TOL, tol=tol)


def check_strict_weight_gaps(gen=None, trials=None, *, exact=False, jobs=1) -> SuiteReport:
    """Reporting-grade suite: under uniform discounting with a nondegenerate
    prior mean, the break-even value should drop strictly as the prior
    weight grows.  Instances whose gap falls below STRICT_MARGIN are
    listed for review; no quantitative lower bound exists, so callers treat
    this suite as informational rather than pass/fail."""

    def details(margins):
        gaps = sorted(m + STRICT_MARGIN for m in margins)
        return {
            "strict_margin": STRICT_MARGIN,
            "min_gap": gaps[0],
            "median_gap": gaps[len(gaps) // 2],
            "max_gap": gaps[-1],
        }

    return _collect("strictness", _strictness_margin, gen, trials, jobs, exact=exact, slack=0.0,
                    details=details)


def check_oracle_equivalence(gen=None, trials=None, *, tol=1e-10, jobs=1) -> SuiteReport:
    """Lattice solver agrees with the exhaustive history-tree oracle."""
    if not 0 <= tol < math.inf:  # also refuses NaN, which passes every margin
        raise InvalidParameterError(f"tol must be finite and nonnegative, got {tol!r}")
    return _collect("oracle", _oracle_margin, gen, trials, jobs, slack=0.0, tol=tol)


def check_monte_carlo(gen=None, trials=None, *, samples=100_000, jobs=1) -> SuiteReport:
    """Simulated optimal play agrees with the solver value within four
    standard errors."""
    return _collect("montecarlo", _montecarlo_margin, gen, trials, jobs, slack=0.0, samples=samples)


SUITES = {
    "lemma1": check_reallocation_convexity,
    "thm1": check_icx_monotonicity,
    "thm2": check_weight_monotonicity,
    "lemma3": check_known_atom_dilution,
    "lemma4": check_mass_smoothing,
    "prop1": check_breakeven_bound,
    "strictness": check_strict_weight_gaps,
    "oracle": check_oracle_equivalence,
    "montecarlo": check_monte_carlo,
}

SUITE_ORDER = tuple(SUITES)

#: Suites whose violations are informational, not failures.
REPORT_ONLY_SUITES = frozenset({"strictness"})


def run_suites(names, gen=None, trials=None, *, jobs=1) -> list[SuiteReport]:
    """Run the named suites (or all of them) and return their reports."""
    if names == "all" or names == ["all"]:
        names = SUITE_ORDER
    reports = []
    for name in names:
        if name not in SUITES:
            raise InvalidParameterError(f"unknown suite {name!r}")
        reports.append(SUITES[name](gen, trials, jobs=jobs))
    return reports


# ---------------------------------------------------------------------------
# Monte Carlo policy evaluation
# ---------------------------------------------------------------------------

#: Largest trial count: numpy draws multinomial counts as int64.
_MAX_TRIALS = int(np.iinfo(np.int64).max)


def simulate_policy(
    state: BanditState, trials: int, seed: int, *, options=None
) -> tuple[float, float]:
    """Estimate the value by simulating ``trials`` trajectories of optimal play.

    At each stage the action is looked up in the solver's policy tables at
    the current posterior (ties break toward arm 1), the pulled arm's
    observation is drawn from its predictive, and discounted payoffs
    accumulate.  Trajectories that have seen the same observations share a
    path: the simulation keeps one row per live path -- its row in each
    arm's table, its payoff and its count of trials -- and at each stage
    splits every path's count over the pulled arm's atoms in one multinomial
    draw.  The histogram of N independent trajectories over paths is
    multinomial, so the estimator has exactly the distribution of stepping
    every trajectory on its own, while the work per stage is bounded by the
    live paths, not by ``trials``.

    Returns (mean, standard error); deterministic given the seed.  When
    every trajectory ends on the same payoff, that payoff is returned with
    standard error 0.
    """
    if not _is_int(trials) or trials < 1 or trials > _MAX_TRIALS:
        raise InvalidParameterError(
            f"trials must be an integer in [1, {_MAX_TRIALS}], got {trials!r}"
        )
    if not _is_int(seed) or seed < 0:
        raise InvalidParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    opts = options or DEFAULT_OPTIONS
    if opts.exact:
        opts = replace(opts, mode="float")
    n = len(state.discount.values)
    if n == 0:
        return 0.0, 0.0
    pulls_arm2, arms = BanditSolver(state, opts).policy_tables()
    rng = np.random.default_rng(seed)
    # One live path: its row in both arms' tables, its payoff and its count.
    rows = np.zeros((2, 1), dtype=np.intp)
    payoff = np.zeros(1)
    count = np.array([trials], dtype=np.int64)
    for t in range(n):
        a_t = float(state.discount.values[t])
        arm2 = pulls_arm2[rows[0], rows[1]]
        parts = []
        for own, ((p, child, locs), pulled) in enumerate(zip(arms, (~arm2, arm2))):
            path = np.flatnonzero(pulled)
            # Each arm draws over its own atoms: padding a narrower arm's
            # rows would let numpy put the remainder on a padded slot.
            row = rows[own, path]
            split = rng.multinomial(count[path], p[row])
            i, j = np.nonzero(split)  # the paths that received trials
            nxt = rows[:, path[i]]
            nxt[own] = child[row[i], j]
            parts.append((nxt, payoff[path[i]] + a_t * locs[j], split[i, j]))
        rows, payoff, count = (np.concatenate(x, axis=-1) for x in zip(*parts))
    if payoff.min() == payoff.max():
        return float(payoff[0]), 0.0  # a constant sample has zero standard error
    weight = count / trials
    mean_v = float(weight @ payoff)
    var = float(weight @ (payoff - mean_v) ** 2) * trials / (trials - 1)
    return mean_v, math.sqrt(var / trials)
