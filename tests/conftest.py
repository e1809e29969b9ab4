"""Fixtures shared by the test files."""
import pytest

from dirichlet_bandits import solver


@pytest.fixture
def count_passes(monkeypatch):
    """A function that starts counting stopping passes: from its call on,
    each ``solver._stopping_pass`` call runs as before and appends its
    arguments to the list the function returns."""

    def start():
        passes = []
        stopping_pass = solver._stopping_pass

        def counted_pass(*args):
            passes.append(args)
            return stopping_pass(*args)

        monkeypatch.setattr(solver, "_stopping_pass", counted_pass)
        return passes

    return start
