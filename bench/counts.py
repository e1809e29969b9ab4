"""Closed-form work counts, computed from an instance's shape alone.

A solve visits every count vector that its root can reach: one integer per
atom slot, summing to the stage.  Predictive support never leaves the root
atoms and every atom has positive weight, so all such vectors are reachable
and the count depends only on the number of atom slots and the horizon --
never on the solver's data structures, which keeps these counts valid
across rewrites of the solver.
"""
from __future__ import annotations

from math import comb


def lattice_states(atoms: int, horizon: int) -> int:
    """Non-terminal lattice nodes, root included: count vectors over
    ``atoms`` slots with total below ``horizon``.

    Summing C(k + atoms - 1, atoms - 1) over stages k < horizon telescopes
    to C(horizon - 1 + atoms, atoms).  A two-armed solve has
    ``atoms = atoms(arm1) + atoms(arm2)``; a one-armed stopping pass has the
    unknown arm's atoms only.
    """
    if atoms < 1 or horizon < 1:
        return 0
    return comb(horizon - 1 + atoms, atoms)


def two_armed_states(state) -> int:
    """Lattice states of a two-armed ``value`` solve of ``state``."""
    return lattice_states(
        len(state.arm1.atoms) + len(state.arm2.atoms), len(state.discount.values)
    )


def stopping_states(arm, discount) -> int:
    """Lattice states of one stopping-form pass over ``arm``."""
    return lattice_states(len(arm.atoms), len(discount.values))
