"""Instance configuration files.

Instances are JSON documents whose numeric leaves may be plain numbers or
strings in decimal or fraction syntax ("0.25", "2/3").  Decimal literals in
the file are parsed as literal text, so exact mode round-trips "0.1" to the
rational 1/10 rather than the nearest binary float.

Schema::

    {
      "arm1":     {"atoms": [{"location": <num>, "weight": <num>}, ...]},
      "arm2":     {"atoms": [...]} | {"known": <num>} | (omitted),
      "discount": {"values": [<num>, ...]}
                  | {"family": "uniform", "n": <int>}
                  | {"family": "geometric", "n": <int>, "beta": <num>},
      "options":  {"mode": "float"|"exact", "tie_tol": <num>,
                   "memo_cap": <int>}   (optional)
    }

``{"known": lam}`` desugars to a unit point mass at lam; the flag recording
that arm 2 was declared known (or absent) is kept so one-armed commands can
enforce their precondition.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .discount import DiscountSeq, make_discount, make_truncated_geometric, make_uniform
from .errors import BanditError, ConfigError, InvalidParameterError, ResourceBudgetExceededError
from .measures import DiscreteMeasure, _coerce, _is_int, make_measure, point_mass
from .solver import DEFAULT_OPTIONS, BanditState, SolverOptions, _check_budget, _memo_cap


@dataclass(frozen=True)
class InstanceConfig:
    arm1: DiscreteMeasure
    arm2: Optional[DiscreteMeasure]
    arm2_known: bool
    discount: DiscountSeq
    options: SolverOptions

    def state(self) -> BanditState:
        if self.arm2 is None:
            raise ConfigError("this instance has no arm2; a two-armed command needs one")
        return BanditState(self.arm1, self.arm2, self.discount)


def _number(v, exact: bool, where: str):
    if isinstance(v, bool) or not isinstance(v, (int, str, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    try:
        return _coerce(v, exact)
    except InvalidParameterError as e:
        raise ConfigError(f"{where}: {e}") from e


def _integer(v, where: str) -> int:
    """``v`` if it is an integer or an integral float; booleans, text and any
    other number are refused.  A JSON number with a decimal point is read as
    text (``parse_float=str``), so a file must write these fields without one."""
    if _is_int(v) or (type(v) is float and v.is_integer()):
        return int(v)
    raise ConfigError(f"{where}: expected an integer, got {v!r}")


def _parse_measure(node, exact: bool, where: str):
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    if "known" in node:
        return point_mass(_number(node["known"], exact, where), exact=exact), True
    if "atoms" not in node:
        raise ConfigError(f"{where}: needs 'atoms' or 'known'")
    atoms = node["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ConfigError(f"{where}: 'atoms' must be a nonempty list")
    pairs = []
    for i, rec in enumerate(atoms):
        if not isinstance(rec, dict) or "location" not in rec or "weight" not in rec:
            raise ConfigError(f"{where}: atom {i} needs 'location' and 'weight'")
        at = f"{where}.atoms[{i}]"
        pairs.append((_number(rec["location"], exact, at), _number(rec["weight"], exact, at)))
    try:
        return make_measure(pairs, exact=exact), False
    except BanditError as e:
        raise ConfigError(f"{where}: {e}") from e


def _horizon(node, atoms: int, budget: SolverOptions) -> int:
    """A family's ``n``, refused with ResourceBudgetExceededError before its
    sequence is built where the smallest lattice a command walks for the
    config exceeds ``budget``'s cap.  That lattice is over arm 1's ``atoms``
    at horizon n, or one atom fewer where a spread sweep can merge a split
    atom's halves into two others."""
    n = _integer(node["n"], "discount.n")
    _check_budget(atoms - (atoms > 2), n, budget)
    return n


def _parse_discount(node, exact: bool, atoms: int, budget: SolverOptions):
    if not isinstance(node, dict):
        raise ConfigError("discount: expected an object")
    try:
        if "values" in node:
            vals = node["values"]
            if not isinstance(vals, list) or not vals:
                raise ConfigError("discount.values must be a nonempty list")
            return make_discount(
                [_number(v, exact, "discount.values") for v in vals], exact=exact
            )
        family = node.get("family")
        if family == "uniform":
            return make_uniform(_horizon(node, atoms, budget), exact=exact)
        if family == "geometric":
            return make_truncated_geometric(
                _number(node["beta"], exact, "discount.beta"),
                _horizon(node, atoms, budget),
                exact=exact,
            )
    except (ConfigError, ResourceBudgetExceededError):
        raise
    except KeyError as e:
        raise ConfigError(f"discount: missing field {e}") from e
    except (BanditError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"discount: {e}") from e
    raise ConfigError("discount: needs 'values' or a family in {'uniform', 'geometric'}")


def _parse_options(node, force_mode: Optional[str]) -> SolverOptions:
    node = node or {}
    if not isinstance(node, dict):
        raise ConfigError("options: expected an object")
    mode = force_mode or node.get("mode", DEFAULT_OPTIONS.mode)
    tie_tol = _number(node.get("tie_tol", DEFAULT_OPTIONS.tie_tol), False, "options.tie_tol")
    memo_cap = _integer(node.get("memo_cap", DEFAULT_OPTIONS.memo_cap), "options.memo_cap")
    try:  # SolverOptions checks the values
        return SolverOptions(mode, tie_tol, memo_cap)
    except InvalidParameterError as e:
        raise ConfigError(f"options.{e}") from e


def parse_instance(doc: dict, *, force_mode: Optional[str] = None) -> InstanceConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    options = _parse_options(doc.get("options"), force_mode)
    exact = options.exact
    if "arm1" not in doc:
        raise ConfigError("missing 'arm1'")
    arm1, _ = _parse_measure(doc["arm1"], exact, "arm1")
    arm2 = None
    arm2_known = False
    if "arm2" in doc:
        arm2, arm2_known = _parse_measure(doc["arm2"], exact, "arm2")
    if "discount" not in doc:
        raise ConfigError("missing 'discount'")
    # Family horizons are budgeted under the larger cap: ``sweep`` solves
    # under the default one.
    budget = max(options, DEFAULT_OPTIONS, key=_memo_cap)
    discount = _parse_discount(doc["discount"], exact, len(arm1), budget)
    return InstanceConfig(arm1, arm2, arm2_known, discount, options)


def load_instance(path, *, force_mode: Optional[str] = None) -> InstanceConfig:
    """Load and validate an instance configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # parse_float=str keeps decimal literals as text so exact mode
            # can interpret them losslessly.
            doc = json.load(fh, parse_float=str)
    except json.JSONDecodeError as e:
        raise ConfigError(e.msg, line=e.lineno, column=e.colno) from e
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror}") from e
    return parse_instance(doc, force_mode=force_mode)
