"""Fixtures shared by the test files."""
import inspect
import sys
from types import SimpleNamespace

import pytest

from dirichlet_bandits import discount, solver


@pytest.fixture
def count_passes(monkeypatch):
    """A function that starts counting stopping passes: from its call on,
    each ``solver._stopping_pass`` call runs as before and appends its
    arguments by name, defaults included -- its ``stack``, ``columns`` and
    keyword arguments -- to the list the function returns."""

    def start():
        passes = []
        stopping_pass = solver._stopping_pass
        signature = inspect.signature(stopping_pass)

        def counted_pass(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            passes.append(SimpleNamespace(**bound.arguments))
            return stopping_pass(*args, **kwargs)

        monkeypatch.setattr(solver, "_stopping_pass", counted_pass)
        return passes

    return start


@pytest.fixture
def count_tables(monkeypatch):
    """A function that starts counting pass-table builds: from its call on,
    ``discount._pass_table`` runs as before in every module that binds it,
    and each call that builds a table, rather than reading a kept one,
    appends (sequence, exact) to the list the function returns."""

    def start():
        builds = []
        pass_table = discount._pass_table

        def counted_table(A, exact):
            kept = len(A.__dict__)
            table = pass_table(A, exact)
            if len(A.__dict__) > kept:
                builds.append((A, exact))
            return table

        for name, module in list(sys.modules.items()):
            if name.startswith("dirichlet_bandits") and getattr(module, "_pass_table", None) is pass_table:
                monkeypatch.setattr(module, "_pass_table", counted_table)
        return builds

    return start
