"""What the benchmark harness under ``bench/`` reads of the package.

The harness imports the package's suite table, wraps its public functions
to trace them, and counts work from the arguments of a few of them.  These
tests fail when a change to the package breaks a name or a parameter the
harness relies on.  ``bench/`` is on ``sys.path`` only while its modules
are imported.
"""
import ast
import importlib
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import dirichlet_bandits
from dirichlet_bandits import BanditState, make_discount, make_measure, point_mass
from dirichlet_bandits import oracle, solver, verify

BENCH = str(Path(__file__).resolve().parents[1] / "bench")

#: The private package names the harness modules read: a refactor that
#: renames one fails here before it breaks a benchmark run.
HARNESS_PRIVATE_NAMES = {"dirichlet_bandits.cli._fmt"}

#: The names the harness modules bind the package to.
PACKAGE_NAMES = {"dirichlet_bandits", "db", "package"}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        names = ("checks", "counts", "instances", "spans", "workloads")
        return SimpleNamespace(**{name: importlib.import_module(name) for name in names})
    finally:
        sys.path.remove(BENCH)


def test_suite_tables_match_the_harness(bench):
    assert verify.SUITE_ORDER == bench.checks.SUITES
    assert verify.REPORT_ONLY_SUITES == bench.checks.REPORT_ONLY
    assert verify.DEFAULT_TRIALS == bench.workloads.BATTERY_TRIALS


def test_tracer_counts_a_solve_and_restores_every_name(bench):
    # The worked instance: a coin against a known arm paying 1/2, two stages.
    state = BanditState(make_measure([(0, 1), (1, 1)]), point_mass(0.5), make_discount([1, 1]))
    tracer = bench.spans.Tracer()
    tracer.install(dirichlet_bandits)
    patched = list(tracer._patched)
    try:
        tracer.active = True
        assert dirichlet_bandits.solver.value(state).w == pytest.approx(13 / 12)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert patched
    assert tracer.layers()["solver.value"]["calls"] == 1
    assert tracer.counters["solver.value.states"] == bench.counts.two_armed_states(state) > 0
    for owner, name, fn in patched:
        assert (owner[name] if isinstance(owner, dict) else getattr(owner, name)) is fn


def test_tracer_counts_one_oracle_call_per_oracle_instance(bench):
    # The span behind oracle.brute_force_value.us_per_call.
    tracer = bench.spans.Tracer()
    tracer.install(dirichlet_bandits)
    try:
        tracer.active = True
        report = dirichlet_bandits.verify.check_oracle_equivalence(verify.InstanceGen(seed=0), 2)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert report.trials == 2
    assert tracer.layers()["oracle.brute_force_value"]["calls"] == 2


def _params(fn):
    return [(p.name, p.kind) for p in inspect.signature(fn).parameters.values()]


def test_counted_parameters_keep_their_names():
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    keyword = inspect.Parameter.KEYWORD_ONLY
    assert _params(solver.value) == [("state", positional), ("options", positional)]
    assert _params(solver.stopping_value) == [
        ("arm", positional), ("lam", positional), ("A", positional), ("options", positional)
    ]
    # bench/workloads.py calls value_one_armed(arm, lam, A, options) positionally.
    assert _params(solver.value_one_armed) == [
        ("arm", positional), ("lam", positional), ("A", positional), ("options", positional)
    ]
    # bench/workloads.py calls brute_force_value_exact in its set-up.
    assert _params(oracle.brute_force_value) == [("state", positional)]
    assert _params(oracle.brute_force_value_exact) == [("state", positional)]
    assert _params(verify.simulate_policy) == [
        ("state", positional), ("trials", positional), ("seed", positional), ("options", keyword)
    ]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dotted(node):
    """The names of an attribute chain ``a.b.c`` as a list, or None."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and [*head, node.attr]
    return None


def _harness_private_names():
    """The private package names that the harness modules (``bench/*.py``,
    not its tests) import or read as attributes of the package."""
    found = set()
    for path in sorted(Path(BENCH).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dirichlet_bandits"):
                found.update(f"{node.module}.{a.name}" for a in node.names if _private(a.name))
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                chain = _dotted(node.value) or []
                roots = [i for i, name in enumerate(chain) if name in PACKAGE_NAMES]
                if roots:
                    found.add(".".join(["dirichlet_bandits", *chain[roots[0] + 1 :], node.attr]))
    return found


def test_the_harness_reads_only_the_pinned_private_names():
    assert _harness_private_names() == HARNESS_PRIVATE_NAMES
    for name in HARNESS_PRIVATE_NAMES:
        module, attr = name.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), attr), name
