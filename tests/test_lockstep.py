"""Break-even searches run in lockstep: each result equals its search run
alone, a stack makes one pass per Newton round, and sweeps go through the
runner."""
import sys
from fractions import Fraction

import pytest

from dirichlet_bandits import (
    BanditState,
    InstanceGen,
    break_even_observation,
    break_even_value,
    index_sweep,
    make_measure,
    make_uniform,
    point_mass,
    scale,
    value_one_armed,
)
from dirichlet_bandits import index
from dirichlet_bandits.index import DEFAULT_TOL, _lockstep, _observation_search, _value_search
from dirichlet_bandits.solver import DEFAULT_OPTIONS, EXACT_OPTIONS, _values
from dirichlet_bandits.verify import random_discount, random_measure

HALVES = make_measure([(0, 0.5), (1, 0.5)])


def one_armed(gen, i):
    rng = gen.rng(i)
    arm = random_measure(gen, rng)
    return arm, random_discount(gen, rng, kind="regular", min_n=2)


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
    # finished searches ride along in their stacks' later passes.
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


def test_one_stacked_pass_per_shape_per_round(count_passes):
    # Eight arms of one shape: the stack makes as many passes as its
    # slowest search takes, one per round, each over all eight instances,
    # finished searches riding along.
    arms = [scale(HALVES, m) for m in (0.5, 1, 1.5, 2, 3, 4, 6, 8)]
    A = make_uniform(5)
    alone = [break_even_value(arm, A) for arm in arms]
    passes = count_passes()
    got = _lockstep([_value_search(arm, A, DEFAULT_TOL, DEFAULT_OPTIONS) for arm in arms],
                    DEFAULT_OPTIONS)
    assert got == alone
    rounds = max(r.iterations for r in alone)
    assert len(passes) == rounds
    assert len({r.iterations for r in alone}) > 1
    assert [len(p.stack.rows.measures) for p in passes] == [len(arms)] * rounds


def test_a_sequence_object_is_tabled_once_across_calls(count_tables):
    # Known-arm solves and value searches of two shapes over one sequence,
    # and one of each over another: one table per sequence object, read by
    # one _values call and one _lockstep call, and the results of each
    # alone on sequences of their own.
    A, B = make_uniform(5), make_uniform(5)
    arms = [scale(HALVES, 1), scale(HALVES, 2), make_measure([(0, 1), (0.5, 1), (1, 1)])]
    pairs = [(arm, A) for arm in arms] + [(arms[0], B)]
    alone = [break_even_value(arm, make_uniform(5)) for arm, _ in pairs]
    alone_reports = [value_one_armed(arm, 0.5, make_uniform(5)) for arm, _ in pairs]
    alone_observation = break_even_observation(arms[0], make_uniform(5))
    builds = count_tables()
    states = [BanditState(arm, point_mass(0.5), seq) for arm, seq in pairs]
    assert _values(states, DEFAULT_OPTIONS) == alone_reports
    searches = [_value_search(arm, seq, DEFAULT_TOL, DEFAULT_OPTIONS) for arm, seq in pairs]
    got = _lockstep(searches, DEFAULT_OPTIONS)
    assert got == alone
    assert sorted(id(seq) for seq, _ in builds) == sorted([id(A), id(B)])
    assert {exact for _, exact in builds} == {False}
    # An observation search runs over a drop_first suffix: one more object,
    # tabled once by the search and read by its passes.
    observe = _observation_search(searches[0], got[0].value)
    assert _lockstep([observe], DEFAULT_OPTIONS) == [alone_observation]
    assert [seq for seq, _ in builds[2:]] == [observe.A]
    # The other arithmetic is one more table per object.
    _values(states, EXACT_OPTIONS)
    assert sorted(id(seq) for seq, exact in builds if exact) == sorted([id(A), id(B)])


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


def test_a_public_search_warns_once_at_its_callers_line(monkeypatch):
    class Rising(index._Search):
        """A value search whose objective jumps up after its start."""

        def objective(self, x, root):
            g, slope = super().objective(x, root)
            return (g if x == self.start else g + 1.0), slope

    value_search = index._value_search
    monkeypatch.setattr(index, "_value_search", lambda *args: Rising(*value_search(*args)))
    A = make_uniform(4)
    for search, args in ((break_even_value, (HALVES, A)),
                         (break_even_observation, (HALVES, A)),
                         (index_sweep, (lambda M: scale(HALVES, M), A, [1]))):
        with pytest.warns(RuntimeWarning, match="Newton iterates") as caught:
            search(*args)
            line = sys._getframe().f_lineno - 1
        assert len(caught) == 1
        assert (caught[0].filename, caught[0].lineno) == (__file__, line), search.__name__


class TestSweep:
    GRID = [0.5, 1, 2, 4, 8, 16]

    def family(self, M):
        return scale(HALVES, M)

    def test_rows_equal_one_search_each(self, count_passes):
        A = make_uniform(6)
        alone = [break_even_value(self.family(p), A) for p in self.GRID]
        passes = count_passes()
        result = index_sweep(self.family, A, self.GRID, expected="nonincreasing")
        assert [(r.value, r.residual, r.iterations) for r in result.rows] == [
            (r.value, r.residual, r.iterations) for r in alone
        ]
        # A mass family shares its atoms: one stacked pass per Newton round.
        assert len(passes) == max(r.iterations for r in alone)
