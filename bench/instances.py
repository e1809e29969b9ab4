"""Seeded instance generation.

Every generated instance has dyadic numerics (multiples of 1/64, exact both
as floats and as rationals) and atoms at distinct locations, so the shape of
an instance -- atoms per arm and horizon -- and hence its lattice size are
fixed by the workload, while the seed moves only the numbers.  Instances
reach the program as config documents written to disk and read back through
``load_instance``.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

GRID = 64

#: Bracket widths (max location minus mean) for which bisection to the
#: break-even value's default tolerance, 1e-9, takes exactly 28 halvings:
#: (2^27, 2^28] times 1e-9 is (0.134, 0.268], less a safety margin.  Arms for
#: the index workload are drawn with their width in this range so that the
#: number of stopping passes per break-even value does not depend on the seed.
INDEX_WIDTH = (0.14, 0.26)


def rng_for(seed: int, name: str) -> random.Random:
    """Independent stream per (seed, instance name); string seeding hashes
    with SHA-512, so the stream is identical across processes and runs."""
    return random.Random(f"{seed}:{name}")


def _dyadic(k: int) -> str:
    return str(Fraction(k, GRID))


def arm_atoms(rng: random.Random, atoms: int) -> list[tuple[Fraction, Fraction]]:
    """``atoms`` distinct dyadic locations in [0, 1] with weights in [1/4, 2]."""
    locs = sorted(rng.sample(range(GRID + 1), atoms))
    return [(Fraction(k, GRID), Fraction(rng.randint(16, 128), GRID)) for k in locs]


def index_arm_atoms(rng: random.Random, atoms: int) -> list[tuple[Fraction, Fraction]]:
    """An arm whose break-even bracket width lies in INDEX_WIDTH."""
    while True:
        pairs = arm_atoms(rng, atoms)
        mass = sum(w for _, w in pairs)
        mean = sum(x * w for x, w in pairs) / mass
        if INDEX_WIDTH[0] <= pairs[-1][0] - mean <= INDEX_WIDTH[1]:
            return pairs


def measure_doc(pairs) -> dict:
    return {"atoms": [{"location": str(x), "weight": str(w)} for x, w in pairs]}


def uniform(n: int) -> dict:
    return {"family": "uniform", "n": n}


def geometric(rng: random.Random, n: int) -> dict:
    return {"family": "geometric", "n": n, "beta": _dyadic(rng.randint(48, 62))}


def non_regular(rng: random.Random, n: int) -> dict:
    """Positive dyadic weights except a zero second weight.

    With a_1 > 0 and a_2 = 0 the tails satisfy T_2 = T_3 < T_1, so
    T_2^2 < T_1 T_3 and the sequence is not regular, whatever the seed.
    """
    vals = [_dyadic(rng.randint(1, GRID)) for _ in range(n)]
    vals[1] = "0"
    return {"values": vals}


def two_armed_doc(seed, name, atoms1, atoms2, discount) -> dict:
    rng = rng_for(seed, name)
    return {
        "arm1": measure_doc(arm_atoms(rng, atoms1)),
        "arm2": measure_doc(arm_atoms(rng, atoms2)),
        "discount": discount(rng) if callable(discount) else discount,
    }


def one_armed_doc(seed, name, atoms, discount, *, known=False, index_arm=False) -> dict:
    """A one-armed config; ``known`` adds a dyadic known arm 2."""
    rng = rng_for(seed, name)
    pairs = index_arm_atoms(rng, atoms) if index_arm else arm_atoms(rng, atoms)
    doc = {"arm1": measure_doc(pairs)}
    if known:
        doc["arm2"] = {"known": _dyadic(rng.randint(0, GRID))}
    doc["discount"] = discount(rng) if callable(discount) else discount
    return doc


def write_configs(docs: dict[str, dict], directory: Path) -> dict[str, Path]:
    """Write each document as ``<name>.json``; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        paths[name] = path
    return paths
