"""Output checks.  Each checker returns None or raises CheckFailed.

Tolerances are the ones the program advertises and its acceptance tests
pin; they are fixed here rather than read from the program, so a change
that loosened the program's constants would still be caught.
"""
from __future__ import annotations

import math
from fractions import Fraction

#: Residual of the break-even defining equation (``index.RESIDUAL_TOL``).
RESIDUAL_TOL = 1e-8
#: Float against exact solves of one instance.
FLOAT_EXACT_TOL = 1e-10
#: The worked instance: coin prior (atoms 0 and 1, weight 1 each) against a
#: known arm paying 1/2 over two stages.
COIN_W = Fraction(13, 12)
COIN_LAMBDA = Fraction(5, 9)
COIN_B = Fraction(2, 3)
COIN_LAMBDA_TOL = 1e-9
COIN_B_TOL = 1e-8
#: Suites whose violations are informational (``verify.REPORT_ONLY_SUITES``).
REPORT_ONLY = frozenset({"strictness"})
SUITES = ("lemma1", "thm1", "thm2", "lemma3", "lemma4", "prop1",
          "strictness", "oracle", "montecarlo")
#: Slack for float bound checks on values of order one.
BOUND_SLACK = 1e-9


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _mean(pairs):
    mass = sum(w for _, w in pairs)
    return sum(x * w for x, w in pairs) / mass


def check_report(rep) -> None:
    """A value report's W is the larger of its two pull-first payoffs."""
    require(rep.w == max(rep.w1, rep.w2), f"w={rep.w!r} but max(w1, w2)={max(rep.w1, rep.w2)!r}")


def check_value_bounds(w, arms, values, slack=BOUND_SLACK) -> None:
    """Constant play of the better arm earns ``T1 * max(mean)``; no play
    earns more than ``sum(a_t) * max location``.  ``arms`` are lists of
    (location, weight) pairs, a known arm being one pair."""
    T1 = sum(values)
    lo = T1 * max(_mean(a) for a in arms)
    hi = T1 * max(x for a in arms for x, _ in a)
    require(lo - slack <= w <= hi + slack, f"W={w!r} outside [{float(lo)!r}, {float(hi)!r}]")


def check_equal(got, want, what: str) -> None:
    require(got == want, f"{what}: got {got!r}, want {want!r}")


def check_close(got, want, tol: float, what: str) -> None:
    require(
        math.isfinite(float(got)) and abs(float(got) - float(want)) <= tol,
        f"{what}: got {got!r}, want {want!r} within {tol}",
    )


def check_break_even(res, pairs, tol=RESIDUAL_TOL) -> None:
    """Residual within the advertised tolerance and the value inside
    [mean, max location], where bisection searches."""
    require(res.residual <= tol, f"residual {res.residual!r} > {tol}")
    lo, hi = float(_mean(pairs)), float(pairs[-1][0])
    require(lo - 1e-12 <= res.value <= hi, f"lambda={res.value!r} outside [{lo!r}, {hi!r}]")


def check_retirement(stop_value, lam, T1) -> None:
    """Above the index, the stopping-form value is the retirement payoff
    ``lam * T1`` bit for bit (exactly, in exact mode)."""
    require(stop_value == lam * T1, f"stopping value {stop_value!r} != lam*T1 = {lam * T1!r}")


def check_sweep(result, grid) -> None:
    """One row per grid point, residuals in tolerance, no monotonicity flag
    and a nonincreasing index along the mass family."""
    require([r.param for r in result.rows] == [float(p) for p in grid], "sweep rows do not match the grid")
    require(not result.flags, f"sweep flags {result.flags!r}")
    for r in result.rows:
        require(r.residual <= RESIDUAL_TOL, f"sweep residual {r.residual!r} at param {r.param}")
    vals = [r.value for r in result.rows]
    require(all(b <= a + 1e-8 for a, b in zip(vals, vals[1:])), f"sweep not nonincreasing: {vals!r}")


def check_policy_tree(node, depth: int, atoms: tuple[int, int]) -> None:
    """Every node reports W = max(W1, W2); branches follow the chosen arm's
    atoms (ties branch on arm 1) down to exactly ``depth`` levels."""
    def walk(n, level):
        check_report(n.report)
        require(n.key.stage == level, f"node at level {level} has stage {n.key.stage}")
        if level + 1 < depth:
            arm = 1 if n.action.value == "arm2" else 0
            require(len(n.branches) == atoms[arm], f"{len(n.branches)} branches, want {atoms[arm]}")
            for _, child in n.branches:
                walk(child, level + 1)
        else:
            require(not n.branches, f"leaf at level {level} has branches")
    walk(node, 0)


def check_suite_report(rc: int, doc: dict, suite: str, trials: int) -> None:
    """``verify <suite> --out`` exits 0 with one report for that suite at
    its default trial count, and no violation unless the suite is
    report-only."""
    require(rc == 0, f"verify {suite} exit status {rc}")
    names = [s["suite"] for s in doc["suites"]]
    require(names == [suite], f"report suites {names!r}, want [{suite!r}]")
    rep = doc["suites"][0]
    require(rep["trials"] == trials, f"{suite} ran {rep['trials']} trials, want {trials}")
    if suite not in REPORT_ONLY:
        require(not rep["violations"], f"{suite} violations {rep['violations']!r}")


def parse_cli(stdout: str) -> dict[str, str]:
    """``key = value`` lines of a CLI result."""
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition(" = ")
        if sep and " " not in key.strip():
            out[key.strip()] = val.strip()
    return out


def check_cli(proc, want: dict[str, str]) -> None:
    """Exit status 0 and the named stdout fields equal ``want`` exactly."""
    rc, stdout = proc
    require(rc == 0, f"exit status {rc}")
    got = parse_cli(stdout)
    for k, v in want.items():
        require(got.get(k) == v, f"{k}: got {got.get(k)!r}, want {v!r}")
