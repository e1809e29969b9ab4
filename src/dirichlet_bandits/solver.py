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
last stage to the first; stage t of the two-armed pass splits into blocks
of k1 counts on arm 1 and t - k1 on arm 2, and pulling either arm is its
immediate payoff plus a gather from a next-stage block and a weighted sum
over its atoms (``_pull``).  The one-armed stopping form is the same pass
over the unknown arm alone, against retirement at ``lam * T_t``.  It runs
over a list of columns, each an immediate payoff and a retirement rate:
the value, and for the Newton steps of the break-even searches one more,
the slope of each value in ``lam`` or in the location of an added atom.

The two-armed pass runs over a stack of B instances that share both arms'
atom counts and the horizon: every array carries a leading batch axis, the
discounts are a (B, n) table, and a block is (B, rows, columns).  ``value``
is the pass at B = 1; ``_values`` groups a list of states by shape and
solves each group as one stack of at most STACK_STATES lattice states.
The property suites draw every instance of a chunk first and then solve
all the states those instances name in one ``_values`` call, so a stack
spans instances, not only one instance's family of closely related priors.
A stacked instance's report has the bits of its one-instance pass.  Exact
passes run at B = 1.

The stopping pass runs over a stack too: B arms sharing an atom count and
the horizon, their discounts a (B, n) table, and one rate (or one added
observation) per instance.  Each level reads a (B, 1, 1) column of them,
or at B = 1 a plain number, which numpy multiplies faster.  The break-even
searches run in lockstep on it (``index._lockstep``), one Newton iterate
per instance a pass; a stack of ``_stopping_setup`` drops the instances
whose searches have converged (``_Stack.take``).

The two-armed pass keeps only the stages its caller reads; the others are
dropped as soon as the stage before them is solved.  ``value`` keeps the
root stage (so does the non-regular ``value_one_armed`` fallback, which
goes through it), ``policy_tree(depth)`` the stages below ``depth``, and a
``BanditSolver`` built without ``keep`` -- as ``policy_tables`` and
``simulate_policy`` need -- every stage.  A policy tree walks the lattice by
rank: each node carries arm 1's level and both arms' ranks, so a child is
one child-table lookup and a report one block lookup.

Float mode runs on float64 arrays.  Exact mode runs the same code on object
arrays of Python-int numerators: the weights, locations, discounts and
``lam`` are scaled to integers once, every state of a lattice block shares
one integer denominator, and a Fraction is built only where a value is read
out (reports, stopping-form roots, policy tables).  Float mode is the same
arithmetic with every scale equal to 1.0, which changes no bit; the
two-armed pass skips multiplying by such a unit scale.

Stages with zero discount weight still consume a stage and still update the
posterior of the pulled arm: with general nonnegative discounting the
optimal policy may pull purely for information, so no stage is skipped.

The lattice-state budget ``memo_cap`` (overridden by BANDIT_MEMO_CAP) is
compared with the closed-form lattice size, times B for a stack, before
anything is allocated; ``policy_tree`` compares its worst-case node count
with the same budget before it solves.
"""
from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, isfinite, lcm
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .discount import DiscountSeq, _in_arithmetic, is_regular
from .errors import InvalidParameterError, NotRegularError, ResourceBudgetExceededError
from .measures import (
    DiscreteMeasure,
    Numeric,
    _coerce,
    _is_int,
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


def _make_report(w1, w2, tie_tol) -> ValueReport:
    diff = w1 - w2
    action = Action.TIE if abs(diff) <= tie_tol else Action.ARM1 if diff > 0 else Action.ARM2
    return ValueReport(w1 if w1 >= w2 else w2, w1, w2, action)


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


#: Elementwise Fraction(numerator, denominator).
_fractions = np.frompyfunc(Fraction, 2, 1)


def _read(num, den):
    """A value read out of a pass, ``num / den``: a Fraction when ``den`` is
    an integer (exact mode), else a division by 1.0, which is exact."""
    return _fractions(num, den) if isinstance(den, int) else num / den


class _ArmRows:
    """One arm's posterior on levels 0..n-1 of its lattice, for a stack of B
    prior measures with one atom count, each already in the pass's
    arithmetic (``to_exact`` or ``to_float``): ``p[k]`` holds the predictive
    probabilities of each count vector at level k, shape (B, rows, atoms)
    with one row per rank, and ``mean[k]`` the posterior means, shape
    (B, rows, 1), both over the level's one denominator ``q[k]``, and over
    ``dx`` too for the means; ``p_row[k]`` is ``p[k]`` as one row vector per
    state, (B, rows, 1, atoms), and ``means`` stacks the levels' means;
    ``measures`` lists the stack, and ``start`` and ``child`` come from the
    lattice.

    In exact mode the stack holds one measure and these are integers.  With
    the weights W_j over their least common denominator Dw and the
    locations over Dx, ``p[k]`` holds the numerators W_j + c_j Dw, ``q[k]``
    is (M + k) Dw for total prior mass M, and ``mean[k]`` holds P @ X for
    the scaled locations X.  In float mode ``p[k]`` and ``mean[k]`` are the
    probabilities and means themselves and every scale is 1.0.  ``Q[k]``,
    the product of ``q`` over levels k..n-1, is the arm's factor in the
    denominators of a pass (``Q[n]`` is 1)."""

    def __init__(self, measures, n: int, exact: bool):
        lat = _lattice(len(measures[0]), n)
        counts = lat.counts[: lat.start[n]]
        if exact:  # Python ints throughout: numpy int64 would wrap silently
            (measure,) = measures
            weights, dw = _numerators(measure.weights, exact)
            locs, self.dx = _numerators(measure.locations, exact)
            self.dtype = object
            p = np.array([weights], dtype=object)[:, None] + counts.astype(object) * dw
            X = np.array([locs], dtype=object)[:, :, None]
            self.q = [sum(weights) + k * dw for k in range(n)]
            self.Q = [1] * (n + 1)
            for k in reversed(range(n)):
                self.Q[k] = self.q[k] * self.Q[k + 1]
        else:
            self.dtype = np.float64
            atoms = np.array([m.atoms for m in measures])  # (B, s, 2): location, weight
            mass = np.array([m.total_mass for m in measures])[:, None, None]
            p = (atoms[:, None, :, 1] + counts) / (mass + counts.sum(axis=1, keepdims=True))
            X = np.ascontiguousarray(atoms[:, :, :1])
            self.dx, self.q, self.Q = 1.0, [1.0] * n, [1.0] * (n + 1)
        self.measures = measures
        self.atoms = p.shape[2]
        self.start = lat.start
        self.child = lat.child
        self._bounds = list(zip(lat.start[:n], lat.start[1 : n + 1]))
        self._levels(p, p @ X)

    def _levels(self, probs, means) -> None:
        """Keep the stack's probabilities and means, and their level views."""
        self.probs, self.means = probs, means
        self.p = [probs[:, i:j] for i, j in self._bounds]
        self.p_row = [p[:, :, None] for p in self.p]
        self.mean = [means[:, i:j] for i, j in self._bounds]

    def take(self, live) -> "_ArmRows":
        """The rows of the stack's instances ``live``, in that order."""
        rows = copy.copy(self)
        rows.measures = [self.measures[i] for i in live]
        rows._levels(self.probs[live], self.means[live])
        return rows

    def zeros(self, k: int, width: int) -> np.ndarray:
        """Terminal values of the level-k states, ``width`` columns."""
        return np.zeros((len(self.measures), self.start[k + 1] - self.start[k], width), self.dtype)


def _times(c, x):
    """``c * x``, skipping a factor of one (every scale of a float pass)."""
    return x if c == 1 else c * x


def _pull(payoff, arm: _ArmRows, k: int, nxt: np.ndarray) -> np.ndarray:
    """Payoff of pulling ``arm`` at its level k and continuing optimally:
    the immediate ``payoff``, a column over the level's states, a scalar or
    None for none, plus the predictive expectation of the next-stage values
    ``nxt``, whose rows (axis 1, after the stack) are the arm's level k + 1
    and whose columns are states of the other arm (one column in a
    stopping pass).  In exact mode these are numerators: the caller puts
    ``payoff`` over the denominator that ``p[k]`` gives the expectation."""
    gathered = nxt.take(arm.child[k], axis=1)  # (B, P, s, columns)
    expected = np.matmul(arm.p_row[k], gathered)[:, :, 0]
    return expected if payoff is None else payoff + expected


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
    instance's discounts are one row of a (B, n) table.

    The pass keeps the blocks of the first ``keep`` stages only (default:
    every stage, which ``policy_tables`` needs); later stages are dropped as
    soon as the stage before them is solved, so a pass that keeps the root
    alone holds about two stages at a time.  The lattice budget counts B
    times one instance's states.
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
        a, (da, *_) = zip(*(_numerators(s.discount.values, opts.exact) for s in states))
        a = np.array(a, dtype=object if opts.exact else np.float64)
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
        Q1, Q2 = rows1.Q, rows2.Q
        start1, start2 = rows1.start, rows2.start
        dx1, dx2 = rows1.dx, rows2.dx
        self.w1, self.w2 = [None] * self.kept, [None] * self.kept
        nxt = [rows1.zeros(k1, start2[n - k1 + 1] - start2[n - k1]) for k1 in range(n + 1)]
        for t in reversed(range(n)):
            # Both arms' means of levels 0..t at this stage's discounts.
            a_t = a[:, t, None, None]
            am1, am2 = a_t * rows1.means[:, : start1[t + 1]], a_t * rows2.means[:, : start2[t + 1]]
            w1 = [_pull(_times(dx2 * Q1[k1 + 1] * Q2[t - k1], am1[:, start1[k1] : start1[k1 + 1]]),
                        rows1, k1, nxt[k1 + 1])
                  for k1 in range(t + 1)]
            w2 = [_pull(_times(dx1 * Q2[k2 + 1] * Q1[t - k2], am2[:, start2[k2] : start2[k2 + 1]]),
                        rows2, k2, nxt[t - k2].mT).mT
                  for k2 in reversed(range(t + 1))]
            nxt = list(map(np.maximum, w1, w2))
            if t < self.kept:
                self.w1[t], self.w2[t] = w1, w2

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
        vector has rank r1 at level k1 and whose arm-2 vector has rank r2."""
        den = self.den(k1, t - k1)
        w1, w2 = self.w1[t][k1].item(b, r1, r2), self.w2[t][k1].item(b, r1, r2)
        return _make_report(_read(w1, den), _read(w2, den), self.options.tie_tol)

    def policy_tables(self):
        """Optimal play as lookups over each arm's count vectors, the levels
        below the horizon stacked into one table of rows per arm (row 0 is
        the root's): ``pulls_arm2[row1, row2]`` (ties go to arm 1), and per
        arm the float predictive probabilities and the row reached by
        observing each atom, both shape (rows, atoms), and the atom
        locations, all of the first instance.  Needs every stage kept."""
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
                # The tie rule of _make_report, on the read-out difference.
                diff = _read(self.w1[t][k1][0] - self.w2[t][k1][0], self.den(k1, k2))
                pulls_arm2[start1[k1] : start1[k1 + 1], start2[k2] : start2[k2 + 1]] = (
                    diff < -self.options.tie_tol
                )
        # Dividing by q is exact in float mode (q is 1.0) and rounds each
        # integer ratio once in exact mode.
        return pulls_arm2, [
            (np.concatenate([p[0] / q for p, q in zip(rows.p, rows.q)]).astype(np.float64),
             np.concatenate([rows.start[k + 1] + c for k, c in enumerate(rows.child[:n])]),
             np.array(rows.measures[0].locations))
            for rows in self.arms
        ]


def value(state: BanditState, options: Optional[SolverOptions] = None) -> ValueReport:
    """Maximum expected payoff of a two-armed instance, with both pull-first
    payoffs and the initial action.  Horizon zero yields zero.  The pass
    keeps the root stage alone: it is the one-instance case of the stacked
    pass of ``BanditSolver``."""
    return BanditSolver(state, options, keep=1).report()


def _values(
    states: Sequence[BanditState], options: Optional[SolverOptions] = None
) -> list[ValueReport]:
    """``value`` of each state, in input order, from few passes: the states
    sharing both arms' atom counts and the horizon are solved as one stack
    (``_stacks``).  Each report equals ``value``'s.  The property suites
    call it once per round of a chunk of instances, with every state the
    chunk's instances name, whatever instance a state comes from."""
    opts = options or DEFAULT_OPTIONS
    convert = to_exact if opts.exact else to_float
    states = list(states)
    shapes = []
    for s in states:  # shapes in the pass's arithmetic, as BanditSolver sees them
        s1, s2 = len(convert(s.arm1)), len(convert(s.arm2))
        shapes.append((s1, s2, s1 + s2, len(s.discount.values)))
    reports = [None] * len(states)
    for stack in _stacks(shapes, opts):
        roots = BanditSolver([states[i] for i in stack], opts, keep=1).roots()
        for i, report in zip(stack, roots):
            reports[i] = report
    return reports


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
    for stage in reversed(range(depth)):
        kids = iter(nodes)
        nodes = []
        for (c1, c2, *_), rep in stages[stage]:
            locs = solver.arms[1 if rep.action is Action.ARM2 else 0].measures[0].locations
            branches = tuple((loc, next(kids)) for loc in locs) if stage + 1 < depth else ()
            nodes.append(PolicyNode(StateKey(c1, c2, stage), rep.action, rep, branches))
    return nodes[0]


def _bump(counts: tuple, j: int) -> tuple:
    """``counts`` with one more count at slot j."""
    return counts[:j] + (counts[j] + 1,) + counts[j + 1 :]


def _stopping_pass(arm: _ArmRows, columns, dx, lam_den, a, tails, da):
    """Stopping form of the one-armed bandit under regular discounting, over
    a stack of B arms.

    Once the known arm is optimal it stays optimal, so each state compares
    pulling the unknown arm with retiring for ``lam * T_t``.  Where
    retirement wins the value *is* the retirement expression, so the root
    value equals ``lam * T_1`` bit for bit -- the property the break-even
    search relies on.

    ``columns`` lists (mean, rate) pairs, one column of the pass each:
    ``mean[k]`` gives the level-k posterior means over ``dx``, a (B, rows,
    1) array paid at rate a_t on a pull (a ``mean`` of None pays nothing),
    and ``rate`` over ``lam_den``, a scalar or one per instance as a (B, 1,
    1) array, is paid at T_t on retirement.  The first column is the value,
    and its choice of pull or retire is every column's: a column of the
    slopes of the means and of the rate in some parameter thus carries the
    slope of an optimal policy's payoff in it.  Each column is pulled on its
    own, which keeps the value's float bits those of a one-column pass, as
    each instance's are those of a one-instance pass.

    ``a`` and ``tails`` are the discount numerators over ``da`` by level,
    ``a[t]`` and ``tails[t]`` one per instance as ``_per_instance`` gives
    them (see ``_Stack``).  Level t holds numerators over
    ``da * dx * lam_den * Q[t]`` (all 1.0 in float mode).  Returns, per
    instance, the root's pull payoff and value of each column.
    """
    Q = arm.Q
    n = len(a)
    values = [arm.zeros(n, 1)] * len(columns)
    pulls = values
    for t in reversed(range(n)):
        a_t = a[t] * lam_den * Q[t + 1]
        scale = tails[t] * dx * Q[t]
        pulls = [_pull(None if mean is None else a_t * mean[t], arm, t, v)
                 for (mean, _), v in zip(columns, values)]
        stay = pulls[0] >= columns[0][1] * scale
        values = [np.where(stay, pull, rate * scale) for pull, (_, rate) in zip(pulls, columns)]
    den = da * dx * lam_den * Q[0]
    if len(arm.measures) == 1:
        return [[(_read(pull.item(0), den), _read(v.item(0), den)) for pull, v in zip(pulls, values)]]
    roots = [zip(_read(pull[:, 0, 0], den).tolist(), _read(v[:, 0, 0], den).tolist())
             for pull, v in zip(pulls, values)]
    return list(zip(*roots))


def _per_instance(values: list):
    """One number per instance of a stack as a (B, 1, 1) column, or for one
    instance the number itself, which numpy multiplies faster."""
    return values[0] if len(values) == 1 else np.array(values)[:, None, None]


class _Stack:
    """What every stopping pass of a stack of arms shares: the arms' rows,
    each instance's ``scaled`` discount numerators over ``da`` -- its n
    values, then its n + 1 tails -- the same numbers by level, ``a[t]`` and
    ``tails[t]``, one per instance as ``_per_instance`` gives them, and the
    arithmetic."""

    def __init__(self, rows: _ArmRows, scaled: list, da, exact: bool):
        self.rows, self.scaled, self.da, self.exact = rows, scaled, da, exact
        n = len(scaled[0]) // 2
        if len(scaled) == 1:
            levels = scaled[0]
        else:
            levels = list(np.array(scaled, rows.dtype).T[:, :, None, None])
        self.a, self.tails = levels[:n], levels[n:]

    def take(self, live) -> "_Stack":
        """The stack of the instances ``live``, in that order."""
        return _Stack(self.rows.take(live), [self.scaled[i] for i in live], self.da, self.exact)


def _stopping_setup(arms, As, opts: SolverOptions) -> _Stack:
    """What every stopping pass of a stack shares, one arm of ``arms`` (of
    one atom count) under one sequence of ``As`` (of one length) per
    instance: regularity, per instance, and the lattice budget checked, and
    the arms' rows and the discounts and their tails over one denominator
    built, all in the solve's arithmetic.  This is the one regularity check:
    every stopping pass and break-even search refuses a non-regular
    sequence here."""
    As = [_in_arithmetic(A, opts.exact) for A in As]
    n = len(As[0].values)
    if not all(map(is_regular, As)):
        raise NotRegularError(
            "the stopping form and break-even quantities require a regular discount sequence"
        )
    _check_budget(len(arms[0].atoms), n, opts, len(arms))
    convert = to_exact if opts.exact else to_float
    rows = _ArmRows([convert(arm) for arm in arms], n, opts.exact)
    scaled, dens = zip(*(_numerators(A.values + A.tails, opts.exact) for A in As))
    # Float denominators are all 1.0, and an exact stack holds one instance.
    return _Stack(rows, list(scaled), dens[0], opts.exact)


def _rate_pass(stack: _Stack, lams, first=0, slope=False):
    """The stopping pass of ``stack`` over the stages from ``first`` on, at
    one rate of ``lams`` per instance, in the solve's arithmetic.  Returns,
    per instance, the root's (pull payoff, value), or with ``slope``
    [(pull, value), (their slopes in the rate)].

    The slope column pays nothing on a pull, so pulling adds nothing to the
    slope, and retiring at stage t sets it to T_t: the slope of the value
    is the expected discounted tail at retirement."""
    rows = stack.rows
    lam, lam_den = _numerators(lams, stack.exact)
    a, tails = stack.a[first:], stack.tails[first:]
    columns = [(rows.mean, _per_instance(lam)), (None, lam_den)]
    roots = _stopping_pass(rows, columns[: 1 + slope], rows.dx, lam_den, a, tails, stack.da)
    return roots if slope else [root for root, in roots]


def _stopping_form(arm: DiscreteMeasure, A: DiscountSeq, options: Optional[SolverOptions]):
    """The stopping pass of ``arm`` under ``A``, checked and set up once.

    Regularity and the lattice budget are checked, and the arm's rows
    and the discount numbers built, here; the returned
    ``stop(lam, first=0, slope=False)`` is then the pass alone: the
    one-instance ``_rate_pass``.  It gives the root's pull payoff and value
    of the stopping problem over the stages from ``first`` on, with ``lam``
    in the solve's arithmetic, and with ``slope`` their slopes in ``lam``
    too.  The discount sequence must be regular; an empty one passes no
    stage and is worth zero.
    """
    stack = _stopping_setup([arm], [A], options or DEFAULT_OPTIONS)
    return lambda lam, first=0, slope=False: _rate_pass(stack, [lam], first, slope)[0]


def _observation_setup(arms, As, opts: SolverOptions) -> _Stack:
    """The stack of ``_observation_pass``: each arm's table, its atoms and
    one more, last, of unit weight, under ``As``, which must be nonempty.

    The predictive probabilities of the posterior after observing x do not
    depend on x, so one table serves every x.  The new atom sits at 0 in
    the table, out of the location order; its location enters only through
    the mean column each pass rewrites."""
    one = Fraction(1) if opts.exact else 1.0
    tables = [DiscreteMeasure(arm.atoms + ((0 * one, one),), arm.total_mass + one) for arm in arms]
    return _stopping_setup(tables, As, opts)


def _observation_pass(stack: _Stack, xs, lams):
    """Per instance of an ``_observation_setup`` stack, the root's pull
    payoff at rate lams[b] of arm b plus a unit mass at xs[b], with its
    slope in x; the arms are in the solve's arithmetic.

    A pass rewrites the mean column, base + x * p_new, and carries a slope
    column with means p_new and rate zero, so each pull adds p_new to the
    slope and retiring sets it to zero.
    """
    rows, exact = stack.rows, stack.exact
    lam, lam_den = _numerators(lams, exact)
    x, x_den = _numerators(xs, exact)
    # Locations over dx: the table's over rows.dx, x over x_den.
    dx = lcm(rows.dx, x_den) if exact else 1.0
    stretch, x = (dx // rows.dx, [v * (dx // x_den) for v in x]) if exact else (1.0, x)
    x = _per_instance(x)
    p_new = [p[..., -1:] for p in rows.p]
    moved = [m * stretch + p * x for m, p in zip(rows.mean, p_new)]
    columns = [(moved, _per_instance(lam)), ([p * dx for p in p_new], 0)]
    roots = _stopping_pass(rows, columns, dx, lam_den, stack.a, stack.tails, stack.da)
    return [(p, slope) for (p, _), (slope, _) in roots]


def value_one_armed(
    arm: DiscreteMeasure,
    lam,
    A: DiscountSeq,
    options: Optional[SolverOptions] = None,
) -> ValueReport:
    """Value of the one-armed bandit against a known arm paying ``lam``.

    Equals :func:`value` with a point mass at ``lam`` as arm 2; with a
    regular discount sequence the stopping pass over the unknown arm is
    used instead of the two-armed lattice.
    """
    opts = options or DEFAULT_OPTIONS
    lam = _coerce(lam, opts.exact)
    A = _in_arithmetic(A, opts.exact)
    if len(A.values) == 0:
        zero = Fraction(0) if opts.exact else 0.0
        return ValueReport(zero, zero, zero, Action.TIE)
    try:
        stop = _stopping_form(arm, A, opts)
    except NotRegularError:
        return value(BanditState(arm, point_mass(lam, exact=opts.exact), A), opts)
    # Retiring first leaves the stopping problem one stage shorter.
    return _make_report(stop(lam)[0], A.values[0] * lam + stop(lam, 1)[1], opts.tie_tol)


def stopping_value(
    arm: DiscreteMeasure,
    lam,
    A: DiscountSeq,
    options: Optional[SolverOptions] = None,
):
    """Root value of the stopping-form pass (regular discounts only).

    Mathematically equal to ``value_one_armed(...).w``; numerically it
    reproduces ``lam * T_1`` exactly whenever immediate retirement is
    optimal, which makes it the preferred objective for root-finding on the
    retirement boundary.
    """
    return _stopping_form(arm, A, options)(lam)[1]
