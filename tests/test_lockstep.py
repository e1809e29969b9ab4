"""Break-even searches run in lockstep: each result equals its search run
alone, a stack makes one pass per Newton round, and sweeps go through the
runner."""
from fractions import Fraction

import pytest

from dirichlet_bandits import (
    InstanceGen,
    break_even_observation,
    break_even_value,
    index_sweep,
    make_measure,
    make_uniform,
    scale,
)
from dirichlet_bandits import index, solver
from dirichlet_bandits.index import DEFAULT_TOL, _lockstep, _observation_search, _value_search
from dirichlet_bandits.solver import DEFAULT_OPTIONS, EXACT_OPTIONS
from dirichlet_bandits.verify import random_discount, random_measure

HALVES = make_measure([(0, 0.5), (1, 0.5)])


def one_armed(gen, i):
    rng = gen.rng(i)
    arm = random_measure(gen, rng)
    return arm, random_discount(gen, rng, kind="regular_positive", min_n=2)


def count_passes(monkeypatch):
    passes = []

    def counted_pass(*args):
        passes.append(args)
        return stopping_pass(*args)

    stopping_pass = solver._stopping_pass
    monkeypatch.setattr(solver, "_stopping_pass", counted_pass)
    return passes


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
def test_lockstep_results_equal_one_search_each(tol):
    # 300 arms of one to three atoms and two to six stages: value and
    # observation searches of many shapes share one call.
    gen = InstanceGen(seed=18)
    instances = [one_armed(gen, i) for i in range(300)]
    values = [break_even_value(arm, A, tol) for arm, A in instances]
    alone = values + [break_even_observation(arm, A, tol) for arm, A in instances]
    searches = [_value_search(arm, A, tol, DEFAULT_OPTIONS) for arm, A in instances]
    searches += [_observation_search(s, lam.value) for s, lam in zip(searches, values)]
    assert len({s.shape for s in searches}) > 20
    got = _lockstep(searches, DEFAULT_OPTIONS)
    assert [repr(r) for r in got] == [repr(r) for r in alone]
    # Searches of one shape converge after different numbers of passes, so
    # stacks shrink as they go.
    by_shape = {}
    for s, r in zip(searches, got):
        by_shape.setdefault(s.shape, set()).add(r.iterations)
    assert any(len(counts) > 1 for counts in by_shape.values())


def test_exact_lockstep_results_equal_one_search_each():
    gen = InstanceGen(seed=19, max_horizon=4)
    instances = [one_armed(gen, i) for i in range(50)]
    values = [break_even_value(arm, A, options=EXACT_OPTIONS) for arm, A in instances]
    alone = values + [
        break_even_observation(arm, A, options=EXACT_OPTIONS) for arm, A in instances
    ]
    searches = [_value_search(arm, A, DEFAULT_TOL, EXACT_OPTIONS) for arm, A in instances]
    searches += [_observation_search(s, lam.value) for s, lam in zip(searches, values)]
    got = _lockstep(searches, EXACT_OPTIONS)
    assert all(isinstance(r.value, Fraction) and r.residual == 0 for r in got)
    assert [r.value for r in got] == [r.value for r in alone]
    assert [repr(r) for r in got] == [repr(r) for r in alone]


def test_one_stacked_pass_per_shape_per_round(monkeypatch):
    # Eight arms of one shape: the stack makes as many passes as its
    # slowest search takes, one per round, each over the live searches.
    arms = [scale(HALVES, m) for m in (0.5, 1, 1.5, 2, 3, 4, 6, 8)]
    A = make_uniform(5)
    alone = [break_even_value(arm, A) for arm in arms]
    passes = count_passes(monkeypatch)
    got = _lockstep([_value_search(arm, A, DEFAULT_TOL, DEFAULT_OPTIONS) for arm in arms],
                    DEFAULT_OPTIONS)
    assert got == alone
    rounds = max(r.iterations for r in alone)
    assert len(passes) == rounds
    live = [len(rows.measures) for rows, *_ in passes]
    assert live == [sum(r.iterations > k for r in alone) for k in range(rounds)]


def test_a_non_monotone_search_warns_once_and_leaves_the_others_alone():
    class Rising(index._Search):
        """A value search whose objective jumps up after its start."""

        def objective(self, x, root):
            g, slope = super().objective(x, root)
            return (g if x == self.start else g + 1.0), slope

    arms = [scale(HALVES, m) for m in (1, 2, 3, 4)]
    A = make_uniform(4)
    searches = [_value_search(arm, A, DEFAULT_TOL, DEFAULT_OPTIONS) for arm in arms]
    searches[1] = Rising(*searches[1])
    assert len({s.shape for s in searches}) == 1
    with pytest.warns(RuntimeWarning, match="Newton iterates") as caught:
        got = _lockstep(searches, DEFAULT_OPTIONS)
    assert len(caught) == 1
    assert not got[1].monotone
    others = [0, 2, 3]
    assert [got[i] for i in others] == [break_even_value(arms[i], A) for i in others]


class TestSweep:
    GRID = [0.5, 1, 2, 4, 8, 16]

    def family(self, M):
        return scale(HALVES, M)

    def test_rows_equal_one_search_each(self, monkeypatch):
        A = make_uniform(6)
        alone = [break_even_value(self.family(p), A) for p in self.GRID]
        passes = count_passes(monkeypatch)
        result = index_sweep(self.family, A, self.GRID, expected="nonincreasing")
        assert [(r.value, r.residual, r.iterations) for r in result.rows] == [
            (r.value, r.residual, r.iterations) for r in alone
        ]
        # A mass family shares its atoms: one stacked pass per Newton round.
        assert len(passes) == max(r.iterations for r in alone)
