"""Backward induction for finite-horizon Dirichlet bandits over the count lattice.

The solver never materializes posterior measures.  Observations are drawn
from the current predictive, whose support never leaves the root atom set,
so every posterior reachable from a root instance is that root's base
measure plus an integer number of unit point masses per atom slot.  A state
is therefore one count vector per arm, and stage t holds the states whose
counts total t.

For an arm with s atoms, level k of its lattice lists the count vectors
totalling k in rank order, and a child table maps each vector and atom j to
the rank of the vector with one more count at j.  These tables depend on
(s, k) only and are built on first use.  One bottom-up pass runs from the
last stage to the first.  Pulling an arm at a state pays its immediate
payoff plus the predictive expectation of the next stage's values: a
gather of the state's children, then one (1 x s) . (s x 1) dot of its
probabilities with them.  Every pass takes that one dot per state --
``np.vecdot`` in float mode, ``_object_dot`` on exact object arrays --
but one: a float two-armed pass whose arm 2 has more than one atom, whose
blocks are wider than one column and keep their float bits only as one
(1 x s) @ (s x C) product per block row (``_block_stages``).

Stage t of the two-armed pass is made of blocks of k1 counts on arm 1 and
t - k1 on arm 2.  Every two-armed pass lays each stage out flat: one
(B, states) array over the stage's blocks in turn, each in row-major
order.  An exact pass pulls both arms together through one table of both
arms' lattice rows, interleaved by level, and each stage's pulls with
their next-stage indices (``_pull_layout``, which depends on the two atom
counts only): where the arms have equally many atoms, one gather, one
product and one add a stage serve both; otherwise one each per arm.  A
float pass whose arm 2 has one atom pulls each arm once a stage over arm
1's own rows; one whose arm 2 has more writes its block products into the
stage's arrays, and takes the larger pull once a stage.
The one-armed stopping form is the same pass over the unknown arm alone,
against retirement at ``lam * T_t``.  It runs over columns, each an
immediate payoff and a retirement rate: the value, and for the Newton steps
of the break-even searches one more, the slope of each value in ``lam`` or
in the location of an added atom.  The columns share each level: they lie
along a leading axis of one (columns, B, rows) array, so a level makes one
gather, one product, one payoff add per paid column and one choice between
pulling and retiring for all of them.  The product broadcasts each state's
probabilities over the columns and still takes one dot per state and
column, so no column's float bits depend on the others.  A pass builds its
payoffs and retirement terms for every level before its first, and a float
stack keeps its rate passes' value payoffs and its observation passes'
slope payoffs, which depend on neither the rate nor the observation.

The two-armed pass runs over a stack of B instances that share both arms'
atom counts and the horizon: every array carries a leading batch axis, the
discounts are a (B, n) table, and a block is (B, rows, columns).  ``_values``
solves states by shape in stacks of at most STACK_STATES lattice states, one
with a known (one-atom) arm under a regular sequence in stopping form, and
one with a known arm under any other sequence with the known arm as arm 2.
The property suites draw every instance of a chunk first and then solve
all the states those instances name in one ``_values`` call, so a stack
spans instances, not only one instance's family of closely related priors.
A stacked instance's report has the bits of its one-instance pass.  Exact
passes run at B = 1.  Every pass, route and search reads a sequence's
values, tails and regularity off its pass table (``discount._pass_table``),
built once per sequence object and arithmetic.

The stopping pass runs over a stack too: B arms sharing an atom count and
the horizon, their discounts a (B, n) table, and one rate (or one added
observation) per instance, a (B, 1) column, or at B = 1 a plain number,
which numpy multiplies faster.  A stack sets
itself up (``_Stack``): it checks regularity, then the budget, then the
float range, and only then builds the arms' rows.  The break-even
searches run in lockstep on it (``index._lockstep``), one Newton iterate
per instance a pass.  A stack is fixed at set-up: an instance whose search
has converged keeps its rows and its last iterate until the stack's
slowest search is done.  At the stack sizes of the searches (B <= 36,
n <= 6 in the property suites) a level's fixed cost outweighs the extra
rows, so rebuilding smaller stacks saved no time.

The two-armed pass keeps only the stages its caller reads; the others are
dropped as soon as the stage before them is solved.  ``_values`` keeps the
root stage, ``policy_tree(depth)`` the stages below ``depth``, and a
``BanditSolver`` built without ``keep`` -- as ``policy_tables`` and
``simulate_policy`` need -- every stage.  A policy tree walks the lattice by
rank: each node carries arm 1's level and both arms' ranks, so a child is
one child-table lookup and a report one block lookup.

Float mode runs on float64 arrays.  Exact mode runs the same code on object
arrays of Python-int numerators: the weights, locations, discounts and
``lam`` are scaled to integers once, and every state of a lattice block
shares one integer denominator.  A measure keeps its numerators
(``measures._integer_table``), and an arm's table of them is built in
int64 wherever a bound on its entries proves that exact, then converted
once to Python ints (``_ArmRows``), so no pass can wrap.  Ties are decided
on the numerators (``_tie_terms``), so a Fraction is built only for a
value that is reported: a report's two payoffs and a stopping-form root.
Float mode is the same arithmetic with every scale equal to 1.0, which
changes no bit; the passes skip multiplying by such a unit scale.

Stages with zero discount weight still consume a stage and still update the
posterior of the pulled arm: with general nonnegative discounting the
optimal policy may pull purely for information, so no stage is skipped.

The lattice-state budget ``memo_cap`` (overridden by BANDIT_MEMO_CAP) is
compared with the closed-form lattice size, times B for a stack, before
anything is allocated; ``policy_tree`` compares its worst-case node count
with the same budget before it solves.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, isfinite, lcm
from numbers import Rational
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .discount import DiscountSeq, _pass_table
from .errors import InvalidParameterError, NotRegularError, ResourceBudgetExceededError
from .measures import (
    DiscreteMeasure,
    Numeric,
    _is_int,
    _integer_table,
    _numerators,
    point_mass,
    to_exact,
    to_float,
)

#: Environment variable overriding SolverOptions.memo_cap.
MEMO_CAP_ENV = "BANDIT_MEMO_CAP"

#: Lattice states one stacked pass of ``_values`` holds at most, unless one
#: instance alone needs more: a stack this large already spreads each
#: block's fixed per-call cost over many states, and a larger one only
#: holds more memory.
STACK_STATES = 1 << 20


class Action(Enum):
    ARM1 = "arm1"
    ARM2 = "arm2"
    TIE = "tie"


@dataclass(frozen=True)
class BanditState:
    """A two-armed instance: prior base measures for both arms plus the
    remaining discount sequence."""

    arm1: DiscreteMeasure
    arm2: DiscreteMeasure
    discount: DiscountSeq


@dataclass(frozen=True)
class SolverOptions:
    """Arithmetic mode, tie tolerance and lattice-state budget of a solve,
    checked once, on construction: an unknown mode, a negative or non-finite
    ``tie_tol`` or a negative ``memo_cap`` raises InvalidParameterError."""

    mode: str = "float"  # "float" | "exact"
    tie_tol: float = 1e-11
    memo_cap: int = 50_000_000

    def __post_init__(self):
        if self.mode not in ("float", "exact"):
            raise InvalidParameterError(f"mode must be 'float' or 'exact', got {self.mode!r}")
        if not (isfinite(self.tie_tol) and self.tie_tol >= 0):
            raise InvalidParameterError(
                f"tie_tol must be finite and nonnegative, got {self.tie_tol!r}"
            )
        if self.memo_cap < 0:
            raise InvalidParameterError(f"memo_cap must be nonnegative, got {self.memo_cap}")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


DEFAULT_OPTIONS = SolverOptions()
EXACT_OPTIONS = SolverOptions(mode="exact")


@dataclass(frozen=True)
class StateKey:
    """Identity of a lattice node: the number of added unit masses per atom
    slot of each arm, and the stage (their total)."""

    counts1: tuple[int, ...]
    counts2: tuple[int, ...]
    stage: int


@dataclass(frozen=True)
class ValueReport:
    """Maximum expected payoff of a state, its two pull-first payoffs, and
    the initial action (Tie when the payoffs agree within tie_tol)."""

    w: Numeric
    w1: Numeric
    w2: Numeric
    action: Action


@dataclass(frozen=True)
class PolicyNode:
    """One node of an optimal-policy tree.

    ``branches`` pairs each observation in the selected arm's predictive
    support with the follow-up node (ties branch on arm 1).
    """

    key: StateKey
    action: Action
    report: ValueReport
    branches: tuple[tuple[Numeric, "PolicyNode"], ...]


def _action(diff, tie_tol) -> Action:
    """The tie rule: TIE when |diff| <= tie_tol, else the arm ``diff``
    (arm 1's payoff minus arm 2's) favours."""
    return Action.TIE if abs(diff) <= tie_tol else Action.ARM1 if diff > 0 else Action.ARM2


def _make_report(w1, w2, tie_tol) -> ValueReport:
    return ValueReport(w1 if w1 >= w2 else w2, w1, w2, _action(w1 - w2, tie_tol))


def _tie_terms(diff, den, tie_tol):
    """A payoff difference read out of a pass, ``diff / den``, and
    ``tie_tol``, as two numbers that compare as they do.  In exact mode
    (integer ``diff`` and ``den``, den > 0) these are the integers diff D and
    N den, for tie_tol = N / D exactly, so the tie rule builds no Fraction; in
    float mode ``diff / den``, which divides by 1.0 exactly, and ``tie_tol``.
    Elementwise over arrays of ``diff``."""
    if isinstance(den, int):
        # Floats, Decimals and numpy floats have an integer ratio, and Fraction
        # gives one to every Rational, numpy integers among them.
        tol = Fraction(tie_tol) if isinstance(tie_tol, Rational) else tie_tol
        tol_num, tol_den = tol.as_integer_ratio()
        return diff * tol_den, tol_num * den
    return diff / den, tie_tol


def _memo_cap(options: SolverOptions) -> int:
    """The lattice-state budget: ``memo_cap``, or BANDIT_MEMO_CAP when set."""
    env = os.environ.get(MEMO_CAP_ENV)
    try:
        cap = options.memo_cap if env is None else int(env)
    except ValueError as e:
        raise InvalidParameterError(f"bad {MEMO_CAP_ENV} value {env!r}") from e
    if cap < 0:  # SolverOptions refuses a negative memo_cap
        raise InvalidParameterError(f"{MEMO_CAP_ENV} must be nonnegative, got {cap}")
    return cap


def _lattice_states(atoms: int, n: int) -> int:
    """Count vectors over ``atoms`` slots totalling less than ``n``."""
    return comb(n - 1 + atoms, atoms) if n > 0 else 0


def _check_budget(atoms: int, n: int, options: SolverOptions, batch: int = 1) -> None:
    """Refuse a pass over ``batch`` lattices -- count vectors over ``atoms``
    slots totalling less than ``n``, C(n - 1 + atoms, atoms) of them, per
    instance -- whose states exceed the memo cap."""
    cap = _memo_cap(options)
    states = _lattice_states(atoms, n)
    if batch * states > cap:
        stack = f"stack of {batch} lattices of " if batch > 1 else "lattice of "
        raise ResourceBudgetExceededError(f"{stack}{states} states exceeds the cap of {cap}")


def _check_range(reaches, totals) -> None:
    """Refuse a float pass that can leave the float range.  Every value,
    payoff and retirement term of an instance's pass is at most its T_1
    (``totals``) times the largest |location| of its arms or |rate| of a
    known arm (``reaches``)."""
    for reach, total in zip(reaches, totals):
        if not isfinite(reach * total):
            raise InvalidParameterError(
                f"a float solve with |locations| up to {reach:g} under discounts totalling "
                f"{total:g} leaves the float range; solve it in exact mode"
            )


def _reach(measure: DiscreteMeasure):
    """The largest |location| of ``measure``, whose atoms are in location
    order: the larger of its ends' magnitudes."""
    return max(-measure.atoms[0][0], measure.atoms[-1][0])


class _Lattice(NamedTuple):
    """Levels 0..depth of the s-atom count lattice; level k holds the count
    vectors totalling k in rank order and occupies rows start[k]:start[k+1]
    of ``counts``.  ``child[k]`` (levels below depth) maps row i of level k
    and atom j to the rank of counts + e_j within level k + 1."""

    counts: np.ndarray
    start: list[int]
    child: list[np.ndarray]


#: Lattices by number of atoms, deepened on demand.
_LATTICES: dict[int, _Lattice] = {}


def _rank(counts: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each count vector (last axis) among those with
    the same total and length.

    The vectors before c are those agreeing with c on slots 0..i-1 and
    smaller at slot i; with r_i = c_i + ... + c_{s-1} and m = s - 1 - i
    there are C(r_i + m, m) - C(r_{i+1} + m, m) of them for each i.
    """
    s = counts.shape[-1]
    rest = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1]
    binom = np.ones((s, int(rest.max(initial=0)) + 1), dtype=np.int64)
    for m in range(1, s):
        binom[m] = np.cumsum(binom[m - 1])  # binom[m, r] = C(r + m, m)
    m = np.arange(s - 1, 0, -1)
    return (binom[m, rest[..., :-1]] - binom[m, rest[..., 1:]]).sum(axis=-1)


def _lattice(s: int, n: int) -> _Lattice:
    """The s-atom lattice with child tables for levels 0..n-1 at least."""
    lat = _LATTICES.get(s) or _Lattice(np.zeros((1, s), np.int64), [0, 1], [])
    if len(lat.child) < n:
        unit = np.eye(s, dtype=np.int64)
        counts, start, child = [lat.counts], list(lat.start), list(lat.child)
        last = lat.counts[start[-2]:]
        while len(child) < n:
            bumped = last[:, None, :] + unit
            child.append(_rank(bumped))
            last = np.empty((comb(len(child) + s - 1, s - 1), s), np.int64)
            last[child[-1].ravel()] = bumped.reshape(-1, s)
            counts.append(last)
            start.append(start[-1] + len(last))
        lat = _LATTICES[s] = _Lattice(np.concatenate(counts), start, child)
        for table in (lat.counts, *child):
            table.flags.writeable = False  # shared by every later solve
    return lat


class _PullStage(NamedTuple):
    """Stage t of the pull layout of an s1- and an s2-atom lattice.  Its
    states are blocks k1 = 0..t in turn, block k1 being arm 1's level k1 by
    arm 2's level t - k1 in row-major order and ending at ``ends[k1]``.
    Its pulls are arm 1's at each state, then arm 2's, in ``groups`` of
    (rows, next): each pull's row in the layout's table and its state's
    index at stage t + 1 after the pulled arm observes each atom.  Where
    s1 = s2 one group holds every pull; otherwise each arm's pulls are a
    group, with s1 or s2 columns of ``next``."""

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    ends: tuple[int, ...]


class _PullLayout(NamedTuple):
    """One table of both arms' lattice rows of levels 0..depth-1,
    interleaved by level -- arm 1's level 0, arm 2's level 0, arm 1's level
    1, and so on -- so that both arms' levels 0..t are its first
    ``start1[t + 1] + start2[t + 1]`` rows.  ``pos1`` and ``pos2`` give the
    table row of each arm's lattice rows, and ``factor`` each table row's
    factor index: 2k for arm 1's level k, 2k + 1 for arm 2's.
    ``stages`` lists stages 0..depth-1."""

    pos1: np.ndarray
    pos2: np.ndarray
    factor: np.ndarray
    stages: tuple[_PullStage, ...]


#: Pull layouts by (s1, s2), deepened on demand.
_LAYOUTS: dict[tuple[int, int], _PullLayout] = {}


def _pull_layout(s1: int, s2: int, n: int) -> _PullLayout:
    """The pull layout of s1- and s2-atom lattices, depth n at least.

    A state of block k1 at row r1 of arm 1's level and r2 of arm 2's, where
    arm 2's level k2 = t - k1 has L2(k2) rows, sits at ``r1 L2(k2) + r2``
    in its block.  After arm 1 observes atom j it sits in block k1 + 1 of
    stage t + 1 at ``child1[k1][r1, j] L2(k2) + r2``; after arm 2 does, in
    block k1 at ``r1 L2(k2 + 1) + child2[k2][r2, j]``.  In the table, arm
    1's level k starts at row start1[k] + start2[k] and arm 2's at
    start1[k + 1] + start2[k]."""
    layout = _LAYOUTS.get((s1, s2))
    if layout is None or len(layout.stages) < n:
        lat1, lat2 = _lattice(s1, n), _lattice(s2, n)
        start1, start2 = lat1.start, lat2.start
        size1, size2 = np.diff(start1[: n + 2]), np.diff(start2[: n + 2])
        stages = list(layout.stages) if layout else []
        for t in range(len(stages), n):
            later = size1[: t + 2] * size2[t + 1 :: -1]  # stage t + 1's block sizes,
            later = np.cumsum(later) - later  # and where its blocks start
            blocks = []
            for k1 in range(t + 1):
                k2 = t - k1
                r1, r2 = np.arange(size1[k1])[:, None, None], np.arange(size2[k2])[:, None]
                blocks.append((
                    np.repeat(start1[k1] + start2[k1] + r1.ravel(), size2[k2]),
                    np.tile(start1[k2 + 1] + start2[k2] + r2.ravel(), size1[k1]),
                    (later[k1 + 1] + lat1.child[k1][:, None] * size2[k2] + r2).reshape(-1, s1),
                    (later[k1] + r1 * size2[k2 + 1] + lat2.child[k2]).reshape(-1, s2),
                ))
            rows1, rows2, next1, next2 = map(np.concatenate, zip(*blocks))
            groups = ((rows1, next1), (rows2, next2))
            if s1 == s2:  # one product shape: one gather serves both arms
                groups = (tuple(map(np.concatenate, zip(*groups))),)
            sizes = (size1[: t + 1] * size2[t::-1]).tolist()
            stages.append(_PullStage(groups, tuple(accumulate(sizes))))
        layout = _LAYOUTS[s1, s2] = _PullLayout(
            np.arange(start1[n]) + np.repeat(np.array(start2[:n], np.int64), size1[:n]),
            np.arange(start2[n]) + np.repeat(np.array(start1[1 : n + 1], np.int64), size2[:n]),
            np.repeat(np.arange(2 * n), np.stack((size1[:n], size2[:n]), 1).ravel()),
            tuple(stages),
        )
        for table in (layout.pos1, layout.pos2, layout.factor, *(
                table for stage in stages for group in stage.groups for table in group)):
            table.flags.writeable = False  # shared by every later solve
    return layout


def _read(num, den):
    """A value read out of a pass, ``num / den``: a Fraction when ``den`` is
    an integer (exact mode, one value), else a division by 1.0, which is
    exact."""
    return Fraction(num, den) if isinstance(den, int) else num / den


class _ArmRows:
    """One arm's posterior on levels 0..n-1 of its lattice, for a stack of B
    prior measures with one atom count, each already in the pass's
    arithmetic (``to_exact`` or ``to_float``): ``probs`` holds the
    predictive probabilities of each count vector, shape (B, rows, atoms)
    with one row per rank, level k in rows ``start[k]:start[k + 1]``, and
    ``means`` the posterior means, shape (B, rows), a level's rows over
    its one denominator ``q[k]``, and over ``dx`` too for the means; a pass
    reads level k as the view ``probs[:, start[k]:start[k + 1]]``.
    ``measures`` lists the stack, and ``start`` and ``child`` come from the
    lattice.

    In exact mode the stack holds one measure and these are Python ints.
    With the weights W_j over their least common denominator Dw and the
    locations over Dx, as the measure keeps them (``_integer_table``), level
    k of ``probs`` holds the numerators W_j + c_j Dw, ``q[k]`` is (M + k) Dw
    for total prior mass M, and ``means`` holds P @ X for the scaled
    locations X.  In float mode ``probs`` and ``means`` are the
    probabilities and means themselves and every scale is 1.0.  ``Q[k]``,
    the product of ``q`` over levels k..n-1, is the arm's factor in the
    denominators of a pass (``Q[n]`` is 1)."""

    def __init__(self, measures, n: int, exact: bool):
        lat = _lattice(len(measures[0]), n)
        counts = lat.counts[: lat.start[n]]
        if exact:
            (measure,) = measures  # in exact arithmetic: its numbers are read, not coerced
            (locs, self.dx), (weights, dw) = _integer_table(measure)
            mass = sum(weights)
            # A row's counts total at most n - 1, so every entry of probs and
            # every partial sum of means is below (n + M) Dw max(1, |X_j|),
            # and Dw itself (at n = 0 too) below (1 + M) Dw.  Below 2**63 the
            # table is exact in int64; past it int64 would wrap silently, so
            # it is built on Python ints.  The pass reads Python ints either
            # way.
            fits = (max(n, 1) * dw + mass) * max(1, *map(abs, locs)) < 1 << 63
            dtype = np.int64 if fits else object
            p = counts.astype(dtype, copy=False) * dw + np.array(weights, dtype)
            means = p.dot(np.array(locs, dtype))
            self.probs = p.astype(object, copy=False)[None]
            self.means = means.astype(object, copy=False)[None]
            self.dtype = object
            self.q = [mass + k * dw for k in range(n)]
            self.Q = [1] * (n + 1)
            for k in reversed(range(n)):
                self.Q[k] = self.q[k] * self.Q[k + 1]
        else:
            self.dtype = np.float64
            atoms = np.array([m.atoms for m in measures])  # (B, s, 2): location, weight
            mass = np.array([m.total_mass for m in measures])[:, None, None]
            # A row's count total is its level.
            totals = np.repeat(np.arange(n, dtype=np.float64), np.diff(lat.start[: n + 1]))
            self.probs = (atoms[:, None, :, 1] + counts) / (mass + totals[:, None])
            self.means = (self.probs @ np.ascontiguousarray(atoms[:, :, :1]))[..., 0]
            self.dx, self.q, self.Q = 1.0, [1.0] * n, [1.0] * (n + 1)
        self.measures = measures
        self.atoms = self.probs.shape[2]
        self.start = lat.start
        self.child = lat.child

    @cached_property
    def child_rows(self) -> np.ndarray:
        """The whole-lattice child table: row r of levels 0..n-1 and atom j
        map to the row of levels 0..n that adds a count at j,
        ``start[k + 1] + child[k]`` stacked over the levels k."""
        levels = [self.start[k + 1] + c for k, c in enumerate(self.child[: len(self.q)])]
        table = np.concatenate(levels) if levels else np.zeros((0, self.atoms), np.int64)
        table.flags.writeable = False  # policy_tables hands it out
        return table


def _times(c, x):
    """``c * x``, skipping a factor of one (every scale of a float pass)."""
    return x if c == 1 else c * x


class BanditSolver:
    """One bottom-up pass over the count lattice of a two-armed instance, or
    of a stack of B instances that share both arms' atom counts and the
    horizon (float mode only: an exact pass solves one instance).

    ``w1[t][k1]`` and ``w2[t][k1]`` hold the pull-first payoffs of the
    stage-t states with k1 counts on arm 1, shape (B, rows, columns): one
    block per instance, rows ranking arm 1's count vector and columns arm
    2's; reports, policy trees and simulations are lookups into them.  The
    block of k1 and k2 counts holds numerators over ``den(k1, k2)`` =
    Da Dx1 Dx2 Q1[k1] Q2[k2], for Da the discounts' least common
    denominator (all 1.0 in float mode): both payoffs of a block share it,
    and the continuation from a child block needs no factor.  Each
    instance's discounts are one row of a (B, n) table.  Every pass solves
    each stage as one flat array per payoff, and its blocks are reshaped
    slices of it: an exact pass pulls both arms together
    (``_exact_stages``), in one product a stage where they have equally
    many atoms; a float pass whose arm 2 has one atom pulls each arm in turn
    (``_flat_stages``); both take one dot per state.  A float pass whose arm
    2 has more atoms writes one product per arm and block into the stage's
    arrays (``_block_stages``).
    Float passes keep their arithmetic and bits whatever exact passes do.

    The pass keeps the blocks of the first ``keep`` stages only (default:
    every stage, which ``policy_tables`` needs); later stages are dropped as
    soon as the stage before them is solved, so a pass that keeps the root
    alone holds about two stages at a time.  The lattice budget counts B
    times one instance's states; a float stack is refused where an
    instance's values could leave the float range (``_check_range``).
    """

    def __init__(
        self, state: BanditState | Sequence[BanditState],
        options: Optional[SolverOptions] = None, *,
        keep: Optional[int] = None,
    ):
        opts = options or DEFAULT_OPTIONS
        states = [state] if isinstance(state, BanditState) else list(state)
        convert = to_exact if opts.exact else to_float
        arms1, arms2 = [convert(s.arm1) for s in states], [convert(s.arm2) for s in states]
        shapes = {(len(x), len(y), len(s.discount.values)) for x, y, s in zip(arms1, arms2, states)}
        if len(shapes) != 1:
            raise InvalidParameterError(
                f"a stack needs one shape (atoms per arm, horizon), got {sorted(shapes)}"
            )
        if opts.exact and len(states) > 1:
            raise InvalidParameterError("an exact pass solves one instance at a time")
        ((s1, s2, n),) = shapes
        _check_budget(s1 + s2, n, opts, len(states))
        scaled, (da, *_), _ = zip(*(_pass_table(s.discount, opts.exact) for s in states))
        if not opts.exact:
            _check_range(map(max, map(_reach, arms1), map(_reach, arms2)), (t[n] for t in scaled))
        a = np.array([t[:n] for t in scaled], dtype=object if opts.exact else np.float64)
        self.options = opts
        self.horizon = n
        self.batch = len(states)
        if keep is not None and (not _is_int(keep) or keep < 0):
            raise InvalidParameterError(f"keep must be a nonnegative integer, got {keep!r}")
        self.kept = n if keep is None else min(keep, n)
        self.arms = rows1, rows2 = (
            _ArmRows(arms1, n, opts.exact), _ArmRows(arms2, n, opts.exact),
        )
        self.scale = da * rows1.dx * rows2.dx
        self.w1, self.w2 = [None] * self.kept, [None] * self.kept
        (self._exact_stages if opts.exact else self._flat_stages if s2 == 1
         else self._block_stages)(a)

    def _block_stages(self, a) -> None:
        """The stages of a float pass whose arm 2 has more than one atom,
        laid out flat: stage t is one (B, states) array per arm, its blocks
        k1 = 0..t in turn, each in row-major order.

        This is the one pass that does not take one dot per state: the
        (1 x s) @ (s x C) gemv of a block row rounds otherwise than its C
        states' dots (``_flat_stages``) for C >= 4, so each arm still makes
        one product per block: each of the block's rows times the (s x C)
        gather of its children, through ``np.vecmat``, whose bits are
        matmul's.  Each product is written in place into the block's slice
        of the stage's array, arm 1's into the block and arm 2's into its
        transpose.  Arm 2's payoff varies along a block's columns, so it is
        added block by block; arm 1's is added to the whole stage at once,
        each row of its level k1 repeated over arm 2's level t - k1, and the
        stage's values are one maximum of the two arrays.
        """
        rows1, rows2 = self.arms
        n, batch = self.horizon, self.batch
        start1, start2 = rows1.start, rows2.start
        size1, size2 = np.diff(start1[: n + 2]), np.diff(start2[: n + 2])
        rows1_of, rows2_of = size1.tolist(), size2.tolist()
        # Each level's predictive probabilities, (B, rows, atoms).
        p1, p2 = ([rows.probs[:, i:j] for i, j in zip(rows.start, rows.start[1 : n + 1])]
                  for rows in self.arms)
        child1, child2 = rows1.child, rows2.child

        def block_ends(t):  # where each of stage t's blocks ends
            return list(accumulate((size1[: t + 1] * size2[t::-1]).tolist()))

        ends = block_ends(n)
        nxt = np.zeros((batch, ends[-1]))  # stage n
        for t in reversed(range(n)):
            later, ends = self._blocks(nxt, ends), block_ends(t)
            a_t = a[:, t, None]
            pay2 = (a_t * rows2.means[:, : start2[t + 1]])[..., None]
            w1, w2 = np.empty((batch, ends[-1])), np.empty((batch, ends[-1]))
            for k1, (i, j) in enumerate(zip([0, *ends], ends)):
                k2 = t - k1
                shape = (batch, rows1_of[k1], rows2_of[k2])
                np.vecmat(p1[k1], later[k1 + 1].take(child1[k1], axis=-2),
                          out=w1[:, i:j].reshape(shape))
                out2 = w2[:, i:j].reshape(shape).mT
                np.vecmat(p2[k2], later[k1].mT.take(child2[k2], axis=-2), out=out2)
                out2 += pay2[:, start2[k2] : start2[k2 + 1]]
            w1 += np.repeat(a_t * rows1.means[:, : start1[t + 1]],
                            np.repeat(size2[t::-1], size1[: t + 1]), axis=1)
            nxt = np.maximum(w1, w2)
            if t < self.kept:
                self._keep(t, w1, w2, ends)

    def _flat_stages(self, a) -> None:
        """The stages of a float pass whose arm 2 has one atom, laid out
        flat: stage t is one (B, states) array over arm 1's rows of levels
        0..t, block k1 being their level k1.  Arm 1 gathers nothing but the
        next stage, through ``child_rows``, and takes one ``np.vecdot`` a
        row; arm 2, at level t - k1, is pulled at each row's own index, its
        payoff repeated over a level's rows.

        The pass keeps the blocks' bits: a row's dot is the (1 x s) @
        (s x 1) product its one-column block computes.  Arm 2's one atom
        has probability (w + k) / (w + k), exactly 1.0, so its 1 x 1 product
        is the next value itself summed from 0.0, as the blocks' matmul sums
        it (a -0.0 comes out +0.0): the pass adds the next stage's values to
        0.0 and makes no product for arm 2.
        """
        rows1, rows2 = self.arms
        n = self.horizon
        size1 = np.diff(rows1.start[: n + 1])
        nxt = np.zeros((self.batch, rows1.start[n + 1]), rows1.dtype)
        for t in reversed(range(n)):
            end1 = rows1.start[t + 1]
            a_t = a[:, t, None]  # arm 2's levels 0..t are its first t + 1 rows
            pay1, pay2 = rows1.means[:, :end1] * a_t, rows2.means[:, : t + 1] * a_t
            w1 = pay1 + np.vecdot(rows1.probs[:, :end1], nxt.take(rows1.child_rows[:end1], axis=-1))
            w2 = np.repeat(pay2[:, ::-1], size1[: t + 1], axis=1) + (0.0 + nxt[:, :end1])
            nxt = np.maximum(w1, w2)
            if t < self.kept:
                self._keep(t, w1, w2, rows1.start[1 : t + 2])

    def _exact_stages(self, a) -> None:
        """The stages of an exact pass, whatever its shape, laid out flat,
        both arms pulled together.

        Stage t is one (1, states) array: its blocks k1 = 0..t in turn,
        each in row-major order, rows ranking arm 1's count vector and
        columns arm 2's.  Both arms' rows of levels 0..t are the first rows
        of one table (``_pull_layout``), with their means and probabilities.
        A row's payoff is its mean times one factor per level and arm,
        a_t dx_other Q_me[k_me + 1] Q_other[k_other], which puts it over its
        block's denominator (``den``): a stage builds its 2(t + 1) factors
        and multiplies the table's rows by them.  Where the arms have
        equally many atoms, one group then gathers the payoffs and
        probabilities of all the stage's pulls -- arm 1's at each state, then
        arm 2's -- and the next stage through their next indices, and one
        ``_object_dot`` takes a dot per pull.  Otherwise each arm has its own
        gather and product: padding the arm with fewer atoms with
        zero-probability atoms would multiply by those too, which made the
        exact suites slower.  The stage's values are the larger of the two
        pulls at each state.  The layout changes no number, and the pass
        builds no Fraction; ``_report_at`` and ``policy_tables`` decide ties
        on the numerators.
        """
        rows1, rows2 = self.arms
        n, s1, s2 = self.horizon, rows1.atoms, rows2.atoms
        start1, start2, Q1, Q2 = rows1.start, rows2.start, rows1.Q, rows2.Q
        layout = _pull_layout(s1, s2, n)
        table = start1[n] + start2[n]
        means = np.empty((1, table), object)
        probs = np.empty((1, table, max(s1, s2)), object)
        for rows, pos in ((rows1, layout.pos1), (rows2, layout.pos2)):
            pos = pos[: rows.start[n]]
            means[0, pos] = rows.means[0]
            probs[0, pos, : rows.atoms] = rows.probs[0]
        # Each arm's probabilities: a row of the arm with fewer atoms leaves
        # the last entries unread.
        probs1, probs2 = probs[..., :s1], probs[..., :s2]
        nxt = np.zeros((1, comb(n + s1 + s2 - 1, n)), object)  # stage n
        for t in reversed(range(n)):
            stage = layout.stages[t]
            a1, a2 = a[0, t] * rows2.dx, a[0, t] * rows1.dx
            factors = np.array([f for k in range(t + 1)
                                for f in (a1 * Q1[k + 1] * Q2[t - k], a2 * Q2[k + 1] * Q1[t - k])],
                               object)
            end = start1[t + 1] + start2[t + 1]
            pay = means[:, :end] * factors.take(layout.factor[:end])
            pulls = [pay.take(rows, 1) + _object_dot(p.take(rows, 1), nxt.take(child, axis=-1))
                     for (rows, child), p in zip(stage.groups, (probs1, probs2))]
            if s1 == s2:  # one group holds both arms' pulls
                pulls = pulls[0][:, : stage.ends[-1]], pulls[0][:, stage.ends[-1] :]
            w1, w2 = pulls
            nxt = np.maximum(w1, w2)
            if t < self.kept:
                self._keep(t, w1, w2, stage.ends)

    def _keep(self, t: int, w1, w2, ends) -> None:
        """Keep stage t's blocks of each payoff array (``_blocks``)."""
        self.w1[t], self.w2[t] = self._blocks(w1, ends), self._blocks(w2, ends)

    def _blocks(self, w, ends) -> list[np.ndarray]:
        """The blocks of a stage laid out flat as ``w``, (B, states):
        block k1 is the reshaped slice that ends at ``ends[k1]``, a Python
        int, (B, rows, columns)."""
        start1 = self.arms[0].start
        return [w[:, i:j].reshape(self.batch, start1[k1 + 1] - start1[k1], -1)
                for k1, (i, j) in enumerate(zip([0, *ends], ends))]

    def den(self, k1: int, k2: int):
        """The denominator of the block with k1 counts on arm 1 and k2 on arm 2."""
        return self.scale * self.arms[0].Q[k1] * self.arms[1].Q[k2]

    def report(self, counts1=None, counts2=None) -> ValueReport:
        """Value report at a reachable node (default: the root) of the
        stack's first instance, given by each arm's added count per atom.
        Counts totalling the horizon or more give the zero report; a count
        vector of the wrong length, with a negative or non-integer entry,
        or in a stage the solver did not keep is refused with
        InvalidParameterError."""
        vectors = []
        for arm, counts in zip(self.arms, (counts1, counts2)):
            c = (0,) * arm.atoms if counts is None else tuple(counts)
            if len(c) != arm.atoms or not all(_is_int(x) and x >= 0 for x in c):
                raise InvalidParameterError(
                    f"counts must be {arm.atoms} nonnegative integers, got {counts!r}"
                )
            vectors.append(c)
        c1, c2 = vectors
        k1 = sum(c1)
        t = k1 + sum(c2)
        if t >= self.horizon:
            z = Fraction(0) if self.options.exact else 0.0
            return ValueReport(z, z, z, Action.TIE)
        if t >= self.kept:
            raise InvalidParameterError(
                f"stage {t} was not kept: this solver keeps stages below {self.kept}"
            )
        r1, r2 = (int(_rank(np.array(c))) for c in vectors) if t else (0, 0)
        return self._report_at(t, k1, r1, r2)

    def roots(self) -> list[ValueReport]:
        """The root report of every instance, in stack order."""
        if self.horizon == 0:
            return [self.report()] * self.batch
        return [self._report_at(0, 0, 0, 0, b) for b in range(self.batch)]

    def _report_at(self, t: int, k1: int, r1: int, r2: int, b: int = 0) -> ValueReport:
        """Value report of instance b's kept stage-t node whose arm-1 count
        vector has rank r1 at level k1 and whose arm-2 vector has rank r2.

        The tie rule compares the two numerators over their shared
        denominator (``_tie_terms``), and only the two payoffs are read out
        (``_read``): Fractions in exact mode, in float mode divisions by
        1.0, which change no bit."""
        den = self.den(k1, t - k1)
        w1, w2 = self.w1[t][k1].item(b, r1, r2), self.w2[t][k1].item(b, r1, r2)
        f1, f2 = _read(w1, den), _read(w2, den)
        action = _action(*_tie_terms(w1 - w2, den, self.options.tie_tol))
        return ValueReport(f1 if w1 >= w2 else f2, f1, f2, action)

    def policy_tables(self):
        """Optimal play as lookups over each arm's count vectors, the levels
        below the horizon stacked into one table of rows per arm (row 0 is
        the root's): ``pulls_arm2[row1, row2]`` (ties go to arm 1), and per
        arm the float predictive probabilities and the row reached by
        observing each atom, both shape (rows, atoms), and the atom
        locations, all of the first instance.  Needs every stage kept.
        ``pulls_arm2`` follows the reports' tie rule, in exact mode on each
        block's numerators (``_tie_terms``), with no Fraction built."""
        n = self.horizon
        if self.kept < n:
            raise InvalidParameterError(
                f"policy tables need all {n} stages; this solver keeps {self.kept}"
            )
        start1, start2 = (rows.start for rows in self.arms)
        pulls_arm2 = np.zeros((start1[n], start2[n]), dtype=bool)
        for t in range(n):
            for k1 in range(t + 1):
                k2 = t - k1
                diff, tol = _tie_terms(self.w1[t][k1][0] - self.w2[t][k1][0], self.den(k1, k2),
                                       self.options.tie_tol)
                pulls_arm2[start1[k1] : start1[k1 + 1], start2[k2] : start2[k2 + 1]] = diff < -tol
        # Each row over its level's q: dividing is exact in float mode (q is
        # 1.0) and rounds each integer ratio once in exact mode.
        tables = []
        for rows in self.arms:
            q = np.repeat(np.array(rows.q, rows.dtype), np.diff(rows.start[: n + 1]))[:, None]
            tables.append(((rows.probs[0] / q).astype(np.float64), rows.child_rows,
                           np.array(rows.measures[0].locations)))
        return pulls_arm2, tables


def value(state: BanditState, options: Optional[SolverOptions] = None) -> ValueReport:
    """Maximum expected payoff of a two-armed instance, with both pull-first
    payoffs and the initial action.  Horizon zero yields zero.  It is the
    one-state ``_values``: a known arm under a regular sequence is solved in
    stopping form."""
    return _values([state], options)[0]


def _values(
    states: Sequence[BanditState], options: Optional[SolverOptions] = None
) -> list[ValueReport]:
    """``value`` of each state, in input order, from one pass per stack of
    states of one shape (``_stacks``).  Each state's arms are put in the
    solve's arithmetic once, here: the pass's own conversion of them is an
    identity call.

    A one-atom arm never learns, so it is a known arm, and under regular
    discounting a bandit with a known arm is an optimal-stopping problem: a
    state with a stage, a one-atom arm (arm 2 where both are) and a regular
    sequence is solved in stopping form, budgeted on its other arm's lattice
    alone.  Any other state takes the two-armed pass, a known arm as arm 2,
    where the pass lays its stages out flat.  A state whose known arm is arm
    1 is solved with its arms swapped and its report swapped back."""
    opts = options or DEFAULT_OPTIONS
    convert = to_exact if opts.exact else to_float
    states = list(states)
    shapes, known, lattice, swapped = [], {}, {}, set()
    for i, s in enumerate(states):  # shapes in the pass's arithmetic, as the passes see them
        arm1, arm2 = convert(s.arm1), convert(s.arm2)
        if len(arm1) == 1 < len(arm2):
            arm1, arm2 = arm2, arm1
            swapped.add(i)
        s1, s2, n = len(arm1), len(arm2), len(s.discount.values)
        if n and s2 == 1 and _pass_table(s.discount, opts.exact)[2]:
            known[i] = (arm1, arm2.atoms[0][0], s.discount)
            shapes.append((s1, n))
        else:
            lattice[i] = BanditState(arm1, arm2, s.discount)
            shapes.append((s1, s2, s1 + s2, n))
    reports = [None] * len(states)
    for stack in _stacks(shapes, opts):
        if stack[0] in known:
            roots = _known_arm_reports([known[i] for i in stack], opts)
        else:
            roots = BanditSolver([lattice[i] for i in stack], opts, keep=1).roots()
        for i, r in zip(stack, roots):
            reports[i] = _make_report(r.w2, r.w1, opts.tie_tol) if i in swapped else r
    return reports


def _known_arm_reports(items, opts: SolverOptions) -> list[ValueReport]:
    """Root reports of (unknown arm, rate, discount) items, the known arm as
    arm 2: pulling first is the stopping pass's root pull payoff; retiring
    first earns a_1 times the rate, then the value of the pass from stage 2
    on (``first=1``)."""
    arms, lams, discounts = zip(*items)
    stack = _Stack(arms, discounts, opts, lams)
    pulls, later = _rate_pass(stack, lams), _rate_pass(stack, lams, first=1)
    retire = (_read(a[0], stack.da) * lam + rest  # a[0] / da is a_1
              for a, lam, (_, rest) in zip(stack.scaled, lams, later))
    return [_make_report(p, r, opts.tie_tol) for (p, _), r in zip(pulls, retire)]


def _stacks(shapes, opts: SolverOptions):
    """The stacks of one pass each that solve a list of items, as lists of
    item indices.  ``shapes[i]`` is item i's shape: a tuple ending in the
    atom count of the lattice its pass walks and its horizon.  The items of
    one shape share a stack, split only where a stack's states would exceed
    the lattice budget or STACK_STATES; exact passes take one item each."""
    groups: dict[tuple, list[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    for (*_, atoms, n), members in groups.items():
        size = 1
        if len(members) > 1 and not opts.exact:
            size = max(1, min(_memo_cap(opts), STACK_STATES) // max(1, _lattice_states(atoms, n)))
        for j in range(0, len(members), size):
            yield members[j : j + size]


def policy_tree(
    state: BanditState, depth: int, options: Optional[SolverOptions] = None
) -> PolicyNode:
    """Optimal-policy tree expanded for the first ``depth`` stages.

    Each node's action agrees with :func:`value` at that node; branches
    enumerate the selected arm's predictive support.  The pass keeps the
    stages below ``depth`` alone, and the tree is walked by lattice rank:
    a node's child under atom j is one lookup in its arm's child table.

    A tree whose worst-case node count -- the sum of s^t over stages t
    below ``depth``, for s the larger atom count -- exceeds the lattice-state
    budget is refused with ResourceBudgetExceededError before any solve.
    """
    n = len(state.discount.values)
    if not _is_int(depth) or depth < 1 or depth > n:
        raise InvalidParameterError(f"policy depth must be in [1, {n}], got {depth!r}")
    opts = options or DEFAULT_OPTIONS
    cap = _memo_cap(opts)
    s = max(len(state.arm1), len(state.arm2))
    # With s >= 2, bit_length(cap) + 1 stages already pass any cap, which
    # bounds the power.
    if (depth if s == 1 else (s ** min(depth, cap.bit_length() + 1) - 1) // (s - 1)) > cap:
        raise ResourceBudgetExceededError(
            f"policy tree to depth {depth} with up to {s} branches a node "
            f"exceeds the cap of {cap} nodes"
        )
    solver = BanditSolver(state, opts, keep=depth)
    rows1, rows2 = solver.arms
    # Expand stage by stage, then assemble the nodes from the deepest up.  A
    # node is its two count vectors, arm 1's level and both arms' ranks.
    frontier = [((0,) * rows1.atoms, (0,) * rows2.atoms, 0, 0, 0)]
    stages = []
    for stage in range(depth):
        stages.append([(node, solver._report_at(stage, *node[2:])) for node in frontier])
        if stage + 1 == depth:
            break
        frontier = []
        for (c1, c2, k1, r1, r2), rep in stages[-1]:
            if rep.action is Action.ARM2:
                for j, r in enumerate(rows2.child[stage - k1][r2].tolist()):
                    frontier.append((c1, _bump(c2, j), k1, r1, r))
            else:
                for j, r in enumerate(rows1.child[k1][r1].tolist()):
                    frontier.append((_bump(c1, j), c2, k1 + 1, r, r2))
    nodes: list[PolicyNode] = []
    locations = [rows.measures[0].locations for rows in solver.arms]  # arm 1's, arm 2's
    for stage in reversed(range(depth)):
        kids = iter(nodes)
        nodes = []
        for (c1, c2, *_), rep in stages[stage]:
            locs = locations[1 if rep.action is Action.ARM2 else 0]
            branches = tuple((loc, next(kids)) for loc in locs) if stage + 1 < depth else ()
            nodes.append(PolicyNode(StateKey(c1, c2, stage), rep.action, rep, branches))
    return nodes[0]


def _bump(counts: tuple, j: int) -> tuple:
    """``counts`` with one more count at slot j."""
    return counts[:j] + (counts[j] + 1,) + counts[j + 1 :]


def _stopping_pass(stack: _Stack, columns, lam_den, dx=None, first=0):
    """Stopping form of the one-armed bandit under regular discounting, over
    a stack of B arms, from stage ``first`` + 1 of its sequences on: with
    ``first=1`` the pass over their :func:`drop_first` suffixes.

    Once the known arm is optimal it stays optimal, so each state compares
    pulling the unknown arm with retiring for ``lam * T_t``.  Where
    retirement wins the value *is* the retirement expression, so the root
    value equals ``lam * T_1`` bit for bit -- the property the break-even
    search relies on.

    ``columns`` lists (payoff, rate) pairs, one column of the pass each:
    ``payoff`` is what a pull pays at each state of the pass's levels, a
    (B, rows) table over them (``_Stack.pay``), or None for nothing, and
    ``rate`` over ``lam_den``, a scalar or one per instance as a (B, 1)
    array, is paid at T_t on retirement.  The first column is the value,
    and its choice of pull or retire is every column's: a column of the
    slopes of the means and of the rate in some parameter thus carries the
    slope of an optimal policy's payoff in it.

    The columns share each level: the pass holds them as one (columns, B,
    rows) array.  Before its levels it builds every level's retirement
    terms, (n, columns, B, 1), in one multiply; a level then makes one
    gather of the children, one product of each state's probabilities --
    a (B, rows, atoms) view of the rows' ``probs`` -- with its gathered
    values, broadcast over the columns, one payoff add per paid column and
    one choice between pulling and retiring.  The product is one
    (1 x s) @ (s x 1) dot per row and column, ``np.vecdot`` in float mode
    and ``_object_dot`` on object arrays, and a column's payoff is added to
    its own dots only, so each column keeps the float bits of a one-column
    pass, as each instance keeps those of a one-instance pass.  (One
    (1 x s) @ (s x C) product over the columns would round otherwise.)

    The discounts are the stack's numerators over ``da``, from level
    ``first`` on (see ``_Stack``).  Level t holds numerators over
    ``da * dx * lam_den * Q[t]`` (all 1.0 in float mode).  Returns, per
    instance, the root's pull payoff and value of each column.
    """
    arm = stack.rows
    dx = arm.dx if dx is None else dx
    Q, start, probs, child = arm.Q, arm.start, arm.probs, arm.child
    tails = stack.tails[:, first:]
    batch, n = tails.shape
    if stack.exact:
        tails = tails * np.array([dx * Q[t] for t in range(n)], object)
    rates = np.empty((len(columns), batch, 1), arm.dtype)
    for c, (_, rate) in enumerate(columns):
        rates[c] = rate
    retire = rates * tails.T[:, None, :, None]
    # Adding a zero payoff would turn a -0.0 into +0.0: only columns with a
    # payoff are paid.
    paid = [(c, pay) for c, (pay, _) in enumerate(columns) if pay is not None]
    dot = _object_dot if stack.exact else np.vecdot
    values = np.zeros((len(columns), batch, start[n + 1] - start[n]), arm.dtype)
    pulls = values
    for t in reversed(range(n)):
        i, j = start[t], start[t + 1]
        pulls = dot(probs[:, i:j], values.take(child[t], axis=-1))
        for c, pay in paid:
            pulls[c] += pay[:, i:j]
        values = np.where(pulls[0] >= retire[t, 0], pulls, retire[t])
    den = stack.da * dx * lam_den * Q[0]
    if batch == 1:
        return [[(_read(p, den), _read(v, den))
                 for p, v in zip(pulls.ravel().tolist(), values.ravel().tolist())]]
    roots = zip(*((x[:, :, 0] / den).T.tolist() for x in (pulls, values)))
    return [list(zip(p, v)) for p, v in roots]


def _object_dot(p, g):
    """``np.vecdot(p, g)`` of object arrays, the product of every exact
    pass, as one (1 x s) @ (s x 1) ``np.matmul`` product a row: object
    ``vecdot`` conjugates every element, which made the product ~2.5x
    slower on big integers."""
    return np.matmul(p[..., None, :], g[..., None])[..., 0, 0]


def _per_instance(values: list):
    """One number per instance of a stack as a (B, 1) column, or for one
    instance the number itself, which numpy multiplies faster."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


class _Stack:
    """What every stopping pass of a stack shares, set up from ``arms`` of one
    atom count in the solve's arithmetic under ``discounts`` of one length:
    the arms' rows, each instance's ``scaled`` discount numerators over
    ``da`` -- its n values, then its n + 1 tails, off its pass table -- each
    level's a_t and T_t as (B, n) tables ``a`` and ``tails`` in the pass's
    dtype, and the arithmetic.  A float stack keeps the payoff tables that
    do not depend on a pass's rate or observation (``kept_pay``): its rate
    passes' value payoffs, one table per first level, and its observation
    passes' slope payoffs, for as long as it lives.

    Before it allocates anything it refuses, in this order, a sequence not
    regular in the solve's arithmetic (NotRegularError), a stack over the
    lattice budget and, in float mode, one that can leave the float range:
    ``rates``, where given, holds one rate per instance that its passes run
    at, or that bounds them, where its arm's locations need not."""

    def __init__(self, arms, discounts, opts: SolverOptions, rates=None):
        scaled, dens, regular = zip(*(_pass_table(A, opts.exact) for A in discounts))
        if not all(regular):
            raise NotRegularError(
                "the stopping form and break-even quantities require a regular discount sequence"
            )
        n = len(scaled[0]) // 2
        _check_budget(len(arms[0].atoms), n, opts, len(arms))
        if not opts.exact:
            reaches = map(_reach, arms)
            if rates is not None:
                reaches = map(max, reaches, map(abs, _numerators(rates, False)[0]))
            _check_range(reaches, (t[n] for t in scaled))
        self.rows = _ArmRows(arms, n, opts.exact)
        # Float denominators are all 1.0, and an exact stack holds one instance.
        self.scaled, self.da, self.exact = list(scaled), dens[0], opts.exact
        table = np.array(scaled, self.rows.dtype)
        self.a, self.tails = table[:, :n], table[:, n:-1]
        self._kept_pays = {}

    def pay(self, mean, lam_den, first=0):
        """What a pull pays at each state of a pass from level ``first`` on,
        for a column of posterior means ``mean``, (B, rows) over levels
        0..n-1: level t's rows of ``mean`` times a_t, and in exact mode times
        ``lam_den`` Q[t + 1] too, which puts them over the level's
        denominator.  One (B, rows) table over the pass's levels."""
        rows = self.rows
        a = self.a[:, first:]
        n = a.shape[1]
        if self.exact:
            a = a * np.array([lam_den * rows.Q[t + 1] for t in range(n)], object)
        return np.repeat(a, np.diff(rows.start[: n + 1]), axis=1) * mean[:, : rows.start[n]]

    def kept_pay(self, key, mean, lam_den, first=0):
        """``pay(mean, lam_den, first)`` for a column of means that does not
        depend on the pass's rate or observation: the rows' means of a rate
        pass (``key`` its ``first``), or an observation pass's slope means
        (``key`` "slope").  A float stack builds each table once per ``key``
        and keeps it; ``lam_den``, and an observation's denominator in
        ``mean``, enter an exact pass's, so each builds its own."""
        if self.exact:
            return self.pay(mean, lam_den, first)
        if key not in self._kept_pays:
            self._kept_pays[key] = self.pay(mean, lam_den, first)
        return self._kept_pays[key]


def _rate_pass(stack: _Stack, lams, slope=False, first=0):
    """The stopping pass of ``stack`` at one rate of ``lams`` per instance, in
    the solve's arithmetic, from stage ``first`` + 1 on.  Returns, per
    instance, the root's (pull payoff, value), or with ``slope`` [(pull,
    value), (their slopes in the rate)].

    The slope column pays nothing on a pull, so pulling adds nothing to the
    slope, and retiring at stage t sets it to T_t: the slope of the value
    is the expected discounted tail at retirement."""
    lam, lam_den = _numerators(lams, stack.exact)
    columns = [(stack.kept_pay(first, stack.rows.means, lam_den, first),
                _per_instance(lam)), (None, lam_den)]
    roots = _stopping_pass(stack, columns[: 1 + slope], lam_den, first=first)
    return roots if slope else [root for root, in roots]


def _observation_setup(arms, discounts, opts: SolverOptions) -> _Stack:
    """The stack of ``_observation_pass``: each arm's table, its atoms and
    one more, last, of unit weight, under ``discounts``, which must be nonempty.

    The predictive probabilities of the posterior after observing x do not
    depend on x, so one table serves every x.  The new atom sits at 0 in
    the table, out of the location order; its location enters only through
    the mean column each pass rewrites."""
    one = Fraction(1) if opts.exact else 1.0
    tables = [DiscreteMeasure(arm.atoms + ((0 * one, one),), arm.total_mass + one) for arm in arms]
    # A table's last atom is the new one, so its reach misses the arm's top,
    # which bounds every x a search observes.
    return _Stack(tables, discounts, opts, [arm.max_location for arm in arms])


def _observation_pass(stack: _Stack, xs, lams):
    """Per instance of an ``_observation_setup`` stack, the root's pull
    payoff at rate lams[b] of arm b plus a unit mass at xs[b], with its
    slope in x; the arms are in the solve's arithmetic.

    A pass rewrites the mean column, base + x * p_new, and carries a slope
    column with means p_new and rate zero, so each pull adds p_new to the
    slope and retiring sets it to zero.  A float stack keeps the slope
    column's payoffs (``_Stack.kept_pay``), which depend on neither x nor
    the rate.
    """
    rows, exact = stack.rows, stack.exact
    lam, lam_den = _numerators(lams, exact)
    x, x_den = _numerators(xs, exact)
    # Locations over dx: the table's over rows.dx, x over x_den.
    dx = lcm(rows.dx, x_den) if exact else 1.0
    stretch, x = (dx // rows.dx, [v * (dx // x_den) for v in x]) if exact else (1.0, x)
    p_new = rows.probs[..., -1]
    moved = _times(stretch, rows.means) + p_new * _per_instance(x)
    columns = [(stack.pay(moved, lam_den), _per_instance(lam)),
               (stack.kept_pay("slope", _times(dx, p_new), lam_den), 0)]
    roots = _stopping_pass(stack, columns, lam_den, dx)
    return [(p, slope) for (p, _), (slope, _) in roots]


def value_one_armed(
    arm: DiscreteMeasure,
    lam,
    A: DiscountSeq,
    options: Optional[SolverOptions] = None,
) -> ValueReport:
    """Value of the one-armed bandit against a known arm paying ``lam``:
    :func:`value` with a point mass at ``lam`` as arm 2."""
    opts = options or DEFAULT_OPTIONS
    return value(BanditState(arm, point_mass(lam, exact=opts.exact), A), opts)


def stopping_value(
    arm: DiscreteMeasure,
    lam,
    A: DiscountSeq,
    options: Optional[SolverOptions] = None,
):
    """Root value of the stopping pass that :func:`value` runs for a known
    arm (regular discounts only).

    Mathematically equal to ``value_one_armed(...).w``; numerically it
    reproduces ``lam * T_1`` exactly whenever immediate retirement is
    optimal, which makes it the preferred objective for root-finding on the
    retirement boundary.
    """
    opts = options or DEFAULT_OPTIONS
    arm = to_exact(arm) if opts.exact else to_float(arm)
    stack = _Stack([arm], [A], opts, [lam])
    return _rate_pass(stack, [lam])[0][1]
