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
pair agrees with an exact one.  Each number is built once, as a float,
from its integer grid numerator (k/64; a ratio-built discount's values
from integer tail products over 64^i).  Past n = 9 a geometric or
ratio-built discount's values are rounded, and the generator draws it
again until the rationals of its float values are regular, judged on the
exact pass table an exact solve reads (``discount._pass_table``), so exact
mode finds every sequence regular that float mode does.  Two margins compute
in the options' arithmetic themselves: lemma1 mixes its grid there (the
coefficients k/(GRID_POINTS - 1) need not be dyadic), and lemma4 forms
its expectation over the atoms of F there.

A suite runs in rounds.  Its margin worker is a generator: it draws one
instance and yields a request -- the two-armed states whose values it needs
and the break-even searches it needs run -- and, sent their reports and
results, either yields its next request or returns the instance's margin.
The runner (``_margins``) draws every instance of a chunk first; then each
round it solves all the states the waiting workers name in one
``solver._values`` call -- one stacked float pass per shape (atoms per arm,
horizon), whatever instance a state comes from -- runs all their searches
in one ``index._lockstep`` call -- one stacked stopping pass per shape per
Newton round -- and sends each worker its own.  thm2 and strictness ask
for their two value searches with their states; prop1 asks for its value
search, then for the observation search at that break-even value.  With
``jobs`` = 1 a chunk is the whole suite; under ``jobs`` = N each pool task
is one chunk of consecutive indices, and only margins cross the process
boundary.  A stacked float pass gives each instance the bits of a
one-instance pass, and exact passes solve one state or search each, so no
margin depends on the chunking.

Instances are reproducible: instance ``i`` of a suite seeded with ``s`` uses
an rng spawned from ``SeedSequence(s, spawn_key=(i,))``, so suites can run
across processes in any order and still produce identical reports.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice

import numpy as np

from .discount import DiscountSeq, _pass_table, drop_first, is_regular, make_discount, make_uniform
from .errors import GeneratorFailedError, InvalidParameterError
from .index import DEFAULT_TOL, RESIDUAL_TOL, _lockstep, _observation_search, _value_search
from .measures import (
    DiscreteMeasure,
    _coerce,
    _is_int,
    _wsum,
    leq_icx,
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
ORACLE_TOL = 1e-10  # largest gap between the solver and the oracle
MC_SAMPLES = 100_000  # simulated trajectories per Monte Carlo instance
GRID_POINTS = 9  # points of the lemma1 reallocation grid
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
        """Instance ``index``'s stream: the Generator ``default_rng`` builds
        from the same seed sequence, built directly."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(index,))
        return np.random.Generator(np.random.PCG64(seq))


def _dyadic(rng, lo, hi) -> float:
    """Dyadic number (multiple of 1/GRID) in [lo, hi], as a float built
    from its grid numerator; lo = 1/GRID draws a positive one."""
    k0 = math.ceil(lo * GRID)
    k1 = max(k0, math.floor(hi * GRID))
    return int(rng.integers(k0, k1 + 1)) / GRID


def random_measure(
    gen: InstanceGen,
    rng,
    *,
    atoms: int | None = None,
    min_atoms: int = 1,
    normalized: bool = False,
) -> DiscreteMeasure:
    """Random measure, in float, with distinct dyadic locations and dyadic
    weights, each built once from its integer grid numerator.  ``atoms``
    fixes the atom count, at most GRID + 1 (GRID if ``normalized``);
    otherwise it is drawn from [min_atoms, gen.max_atoms]."""
    lo, hi = LOCATION_RANGE
    k0 = math.ceil(lo * GRID)
    k1 = math.floor(hi * GRID)
    if atoms is not None:
        most = GRID if normalized else k1 - k0 + 1
        if not _is_int(atoms) or not 1 <= atoms <= most:
            raise InvalidParameterError(f"atoms must be an integer in [1, {most}], got {atoms!r}")
    elif not _is_int(min_atoms) or not 1 <= min_atoms <= gen.max_atoms:
        raise InvalidParameterError(
            f"min_atoms must be an integer in [1, {gen.max_atoms}], got {min_atoms!r}"
        )
    s = atoms if atoms is not None else int(rng.integers(min_atoms, gen.max_atoms + 1))
    # Drawing indices into the grid consumes the stream as drawing from the
    # grid itself would.
    ks = sorted(rng.choice(k1 - k0 + 1, size=s, replace=False).tolist())
    locs = [(k0 + k) / GRID for k in ks]
    if normalized:
        if s == 1:
            weights = [1.0]
        else:
            cuts = sorted(rng.choice(GRID - 1, size=s - 1, replace=False).tolist())
            edges = [0] + [1 + c for c in cuts] + [GRID]
            weights = [(edges[i + 1] - edges[i]) / GRID for i in range(s)]
    else:
        wlo, whi = MASS_RANGE
        wlo, whi = max(1.0 / GRID, wlo / s), max(2.0 / GRID, whi / s)
        weights = [_dyadic(rng, wlo, whi) for _ in range(s)]
    # Sorted distinct locations and positive weights: a measure as it stands.
    return DiscreteMeasure(tuple(zip(locs, weights)), math.fsum(weights))


#: The families each discount kind draws from, in the order of its draw.
#: "regular_positive" is another name for "regular"; the acceptance tests
#: draw with it.
_REGULAR_FAMILIES = ("uniform", "geometric", "ratio")
_FAMILIES = {
    "any": ("uniform", "geometric", "arbitrary", "ratio"),
    "regular": _REGULAR_FAMILIES,
    "regular_positive": _REGULAR_FAMILIES,
}


def _discount_kind(gen, kind, min_n, max_n):
    """The families of discount ``kind`` and the most stages a draw may
    have; refuses a kind or stage range no draw can meet."""
    families = _FAMILIES.get(kind)
    if families is None:
        raise InvalidParameterError(f"unknown discount kind {kind!r}")
    hi_n = max_n if max_n is not None else gen.max_horizon
    if not (_is_int(min_n) and _is_int(hi_n) and 1 <= min_n <= hi_n):
        raise InvalidParameterError(
            f"discount stages must satisfy 1 <= min_n <= max_n, got {min_n!r} and {hi_n!r}"
        )
    return families, hi_n


def random_discount(
    gen: InstanceGen,
    rng,
    *,
    kind: str = "any",
    min_n: int = 1,
    max_n: int | None = None,
) -> DiscountSeq:
    """Random discount sequence of min_n..max_n stages (max_n defaults to
    gen.max_horizon), in float, built from integer grid numerators.

    kind "any" mixes uniform, truncated geometric, arbitrary nonnegative
    (zeros allowed, possibly not regular), and ratio-built sequences;
    "regular" draws from the three families that are regular with strictly
    positive weights: uniform, truncated geometric and ratio-built.
    Ratio-built sequences have nonincreasing tail ratios, which forces
    regularity.  Regular draws are regular as the rationals of their float
    values, which an exact solve reads: past n = 9 the values are rounded,
    and a geometric or ratio-built draw that is not is drawn again, at most
    REDRAWS times before GeneratorFailedError.  Tied ratios leave rounding
    no room: past about 40 stages a ratio-built draw rarely survives.
    """
    families, hi_n = _discount_kind(gen, kind, min_n, max_n)
    n = int(rng.integers(min_n, hi_n + 1))
    fam = families[int(rng.integers(0, len(families)))]
    if fam == "uniform":
        return make_uniform(n)
    if fam == "arbitrary":
        ks = rng.integers(0, GRID + 1, size=n).tolist()
        if not any(ks):
            ks[int(rng.integers(0, n))] = 1
        return make_discount([k / GRID for k in ks])
    for _ in range(REDRAWS):
        if fam == "geometric":
            # Powers of beta, each product rounded as make_truncated_geometric's.
            beta = int(rng.integers(1, GRID)) / GRID
            values = [1.0]
            for _ in range(n - 1):
                values.append(values[-1] * beta)
        else:
            # Tail i is the product of the i largest ratios, over GRID**i; value i
            # is tail i less tail i + 1, rounded once.
            ratios = sorted(rng.integers(1, GRID, size=n - 1).tolist(), reverse=True)
            tails = [1]
            for k in ratios:
                tails.append(tails[-1] * k)
            values = [(GRID * tails[i] - tails[i + 1]) / GRID ** (i + 1) for i in range(n - 1)]
            values.append(tails[-1] / GRID ** (n - 1))
        A = make_discount(values)
        if _pass_table(A, True)[2]:  # regular as an exact solve reads it
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
    _discount_kind(gen, kind, min_n, max_n)  # refused before the arms are drawn
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


def _margins(margin, gen, indices, *, opts) -> list:
    """The margins of instances ``indices``, in order, in rounds: draw every
    instance, each yielding its first request of states and searches; then,
    while some worker waits, solve all the requested states in one
    ``_values`` call (one stack per shape), run all the requested searches
    in one ``_lockstep`` call (one stack per shape), and send each worker its
    own reports and results, to which it answers with its next request or
    its margin."""
    margins = [None] * len(indices)
    waiting = []
    for j, i in enumerate(indices):
        worker = margin(gen, i, opts=opts)
        waiting.append((j, worker, next(worker)))
    while waiting:
        reports = iter(_values([s for *_, (states, _) in waiting for s in states], opts))
        results = iter(_lockstep([s for *_, (_, searches) in waiting for s in searches], opts))
        still = []
        for j, worker, (states, searches) in waiting:
            try:
                request = worker.send((list(islice(reports, len(states))),
                                       list(islice(results, len(searches)))))
            except StopIteration as done:
                margins[j] = done.value
            else:
                still.append((j, worker, request))
        waiting = still
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


def _collect(name, margin, gen, trials, jobs, *, exact=False,
             float_slack=SLACK_FLOAT, details=None) -> SuiteReport:
    """Run suite ``name`` through ``_margins``, its instances drawn by the
    margin worker ``margin(gen, i, opts=opts)``; the slack is zero in exact
    mode, else ``float_slack``.  Each margin is compared with the slack as
    the worker returned it and made a float for the report only after."""
    gen = gen or InstanceGen()
    opts = EXACT_OPTIONS if exact else DEFAULT_OPTIONS
    slack = 0.0 if exact else float_slack
    task = partial(_margins, margin, gen, opts=opts)
    if trials is None:
        trials = DEFAULT_TRIALS[name]
    if not _is_int(trials) or trials < 1:
        raise InvalidParameterError(f"trials must be an integer of at least 1, got {trials!r}")
    if not _is_int(jobs) or jobs < 1:
        raise InvalidParameterError(f"jobs must be an integer of at least 1, got {jobs!r}")
    trials = int(trials)  # a numpy integer would not serialize in the report
    t0 = time.perf_counter()
    returned = _map_instances(task, trials, jobs)
    margins = [float(m) for m in returned]
    # An exact margin nearer zero than 2**-1075 reads -0.0 as a float.
    violations = [(i, margins[i]) for i, m in enumerate(returned) if m < -slack]
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
# Each draws instance ``index``, drops its rng, yields (states, searches):
# the two-armed states and the break-even searches it needs, and is sent
# (reports, results).  Every worker but prop1's then returns its margin;
# prop1 yields once more, for its observation search.  A suspended worker
# keeps its frame until its chunk's round is solved, so the rng goes before
# the first yield.
# ---------------------------------------------------------------------------


def _convexity_margin(gen, index, *, opts):
    rng = gen.rng(index)
    base = random_measure(gen, rng)
    arm2 = random_measure(gen, rng)
    A = random_discount(gen, rng, kind="any")
    u = _dyadic(rng, *LOCATION_RANGE)
    v = _dyadic(rng, *LOCATION_RANGE)
    r = _dyadic(rng, 1 / GRID, 2.0)
    del rng
    # k / (GRID_POINTS - 1) need not be dyadic: mix in the solve's arithmetic,
    # each coefficient one rounding of its rational in float.
    r = _coerce(r, opts.exact)
    at_u, at_v = point_mass(u), point_mass(v)
    last = GRID_POINTS - 1
    states = [
        BanditState(mix([(1, base), (k * r / last, at_u), ((last - k) * r / last, at_v)],
                        exact=opts.exact), arm2, A)
        for k in range(GRID_POINTS)
    ]
    reports, _ = yield states, ()
    values = [rep.w for rep in reports]
    return min(
        values[k + 1] - 2 * values[k] + values[k - 1]
        for k in range(1, GRID_POINTS - 1)
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
    del rng
    (lo, hi), _ = yield [BanditState(scale(F, M), arm2, A), BanditState(scale(Ft, M), arm2, A)], ()
    return hi.w - lo.w


def _weight_margin(gen, index, *, opts):
    rng = gen.rng(index)
    F = random_measure(gen, rng, normalized=True)
    M = _dyadic(rng, *MASS_RANGE)
    Mt = M + _dyadic(rng, 1 / GRID, 2.0)
    arm2 = random_measure(gen, rng)
    A = random_discount(gen, rng, kind="any")
    del rng
    states = [BanditState(scale(F, m), arm2, A) for m in (M, Mt)]
    regular = is_regular(A)
    searches = [_value_search(scale(F, m), A, 1e-10, opts) for m in (M, Mt) if regular]
    (small, large), lams = yield states, searches
    margins = [small.w - large.w]
    if lams:
        lam_small, lam_large = lams
        margins.append(lam_small.value - lam_large.value)
        margins.append(RESIDUAL_TOL - max(lam_small.residual, lam_large.residual))
    return min(margins)


def _dilution_margin(gen, index, *, opts):
    rng = gen.rng(index)
    alpha = random_measure(gen, rng)
    lam = _dyadic(rng, *LOCATION_RANGE)
    A = random_discount(gen, rng, kind="any")
    del rng
    known = point_mass(lam)
    arms = [alpha] + [mix([(1, alpha), (c, known)]) for c in (0.5, 1, 2)]
    (base, *diluted), _ = yield [BanditState(arm, known, A) for arm in arms], ()
    return min(base.w - rep.w for rep in diluted)


def _smoothing_margin(gen, index, *, opts):
    rng = gen.rng(index)
    alpha = random_measure(gen, rng)
    F = random_measure(gen, rng, normalized=True)
    arm2 = random_measure(gen, rng)
    A1 = drop_first(random_discount(gen, rng, kind="any", min_n=2))
    L = _dyadic(rng, 1 / GRID, 2.0)
    del rng
    # Float mixtures, each coefficient one rounding of its rational.
    last = THETA_GRID - 1
    at_x = [point_mass(x) for x, _ in F.atoms]
    states = [
        BanditState(mix([(1, alpha), (k * L / last, F), ((last - k) * L / last, at)]), arm2, A1)
        for k in range(THETA_GRID) for at in at_x
    ]
    reports, _ = yield states, ()
    ws = [rep.w for rep in reports]
    # The expectation over the atoms of F, in the solve's arithmetic: one run
    # of len(F) values per theta.
    probs = [_coerce(p, opts.exact) for p in F.weights]
    values = []
    for i in range(0, len(ws), len(F)):
        terms = [p * w for p, w in zip(probs, ws[i:])]
        values.append(_wsum(terms, opts.exact))
    return min(values[k] - values[k + 1] for k in range(THETA_GRID - 1))


def _breakeven_margin(gen, index, *, opts):
    rng = gen.rng(index)
    arm = random_measure(gen, rng)
    A = random_discount(gen, rng, kind="regular", min_n=2)
    del rng
    search = _value_search(arm, A, DEFAULT_TOL, opts)
    _, (lam,) = yield (), [search]
    _, (b,) = yield (), [_observation_search(search, lam.value)]
    return min(b.value - lam.value, RESIDUAL_TOL - lam.residual)


def _strictness_margin(gen, index, *, opts):
    rng = gen.rng(index)
    F = random_measure(gen, rng, normalized=True, min_atoms=2)
    M = _dyadic(rng, *MASS_RANGE)
    Mt = M + _dyadic(rng, 1 / GRID, 2.0)
    n = int(rng.integers(2, gen.max_horizon + 1))
    A = make_uniform(n)
    del rng
    searches = [_value_search(scale(F, m), A, 1e-10, opts) for m in (M, Mt)]
    _, (lam_small, lam_large) = yield (), searches
    return lam_small.value - lam_large.value - STRICT_MARGIN


def _oracle_margin(gen, index, *, opts):
    rng = gen.rng(index)
    n = int(rng.integers(1, 5))
    arm1 = random_measure(gen, rng, atoms=int(rng.integers(1, 4)))
    arm2 = random_measure(gen, rng, atoms=int(rng.integers(1, 4)))
    A = random_discount(gen, rng, kind="any", min_n=n, max_n=n)
    state = BanditState(arm1, arm2, A)
    del rng
    (report,), _ = yield [state], ()
    return ORACLE_TOL - abs(report.w - brute_force_value(state))


def _montecarlo_margin(gen, index, *, opts):
    rng = gen.rng(index)
    state = random_state(gen, rng, kind="any")
    seed = int(rng.integers(0, 2**63))
    del rng
    (report,), _ = yield [state], ()
    mean_v, se = simulate_policy(state, MC_SAMPLES, seed, options=opts)
    # The absolute floor absorbs summation-order rounding when the standard
    # error is exactly zero (both arms degenerate).
    return 4.0 * se + 1e-12 - abs(mean_v - report.w)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def check_reallocation_convexity(gen=None, trials=None, *, exact=False, jobs=1) -> SuiteReport:
    """Value is convex in the amount of point mass moved between two
    locations of one arm's prior, checked by second differences on a grid
    of GRID_POINTS."""
    return _collect("lemma1", _convexity_margin, gen, trials, jobs, exact=exact)


def check_icx_monotonicity(gen=None, trials=None, *, exact=False, jobs=1) -> SuiteReport:
    """Raising one arm's prior mean distribution in the increasing convex
    order never lowers the value."""
    return _collect("thm1", _icx_margin, gen, trials, jobs, exact=exact)


def check_weight_monotonicity(gen=None, trials=None, *, exact=False, jobs=1) -> SuiteReport:
    """Raising an arm's prior weight (same mean distribution) never raises
    the value; with regular discounts the break-even value drops too."""
    return _collect("thm2", _weight_margin, gen, trials, jobs, exact=exact)


def check_known_atom_dilution(gen=None, trials=None, *, exact=False, jobs=1) -> SuiteReport:
    """Adding prior mass at the known arm's payoff level never raises the
    value of playing against that known arm."""
    return _collect("lemma3", _dilution_margin, gen, trials, jobs, exact=exact)


def check_mass_smoothing(gen=None, trials=None, *, exact=False, jobs=1) -> SuiteReport:
    """Replacing a random unit of added prior mass by its average measure
    (same total, no information) never raises the expected value."""
    return _collect("lemma4", _smoothing_margin, gen, trials, jobs, exact=exact)


def check_breakeven_bound(gen=None, trials=None, *, exact=False, jobs=1) -> SuiteReport:
    """The break-even observation never falls below the break-even value
    (regular, strictly positive discounts, at least two stages).  Float runs
    allow a slack of 1e-8, the residual tolerance of the two searches."""
    return _collect("prop1", _breakeven_margin, gen, trials, jobs, exact=exact,
                    float_slack=RESIDUAL_TOL)


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

    return _collect("strictness", _strictness_margin, gen, trials, jobs, exact=exact,
                    float_slack=0.0, details=details)


def check_oracle_equivalence(gen=None, trials=None, *, jobs=1) -> SuiteReport:
    """Lattice solver agrees with the exhaustive history-tree oracle within
    ORACLE_TOL."""
    return _collect("oracle", _oracle_margin, gen, trials, jobs, float_slack=0.0)


def check_monte_carlo(gen=None, trials=None, *, jobs=1) -> SuiteReport:
    """Simulated optimal play over MC_SAMPLES trajectories agrees with the
    solver value within four standard errors."""
    return _collect("montecarlo", _montecarlo_margin, gen, trials, jobs, float_slack=0.0)


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
