"""Seeded random partitions for test corpora.

The procedure is part of the tool's contract (same seed, same output):
sample up to three axis thresholds per coordinate from 1..max(1, max_const),
cut the grid into threshold atoms, then merge the atoms into the requested
number of cells with a random surjective assignment.
"""
from __future__ import annotations

import random
from math import prod

import numpy as np

from .atomgrid import AtomGrid
from .partition import Partition
from .region import full


class InfeasibleParameters(ValueError):
    pass


def gen_random(n: int, cells: int, max_const: int, seed: int) -> Partition:
    if n not in (1, 2, 3):
        raise InfeasibleParameters(f"dimension must be 1, 2, or 3, got {n}")
    if not 1 <= cells <= 8:
        raise InfeasibleParameters(f"cell count must be in 1..8, got {cells}")
    if not 0 <= max_const <= 8:
        raise InfeasibleParameters(f"max constant must be in 0..8, got {max_const}")
    rng = random.Random(seed)
    pool = list(range(1, max(1, max_const) + 1))
    cuts = []  # the lower bounds of each coordinate's pieces
    for _ in range(n):
        count = rng.randint(0, min(3, len(pool)))
        cuts.append([0] + sorted(rng.sample(pool, count)))
    atoms = prod(len(c) for c in cuts)
    if atoms < cells:
        raise InfeasibleParameters(
            f"only {atoms} atoms available for {cells} cells"
        )
    group = [0] * atoms
    order = rng.sample(range(atoms), atoms)
    for g, atom_idx in enumerate(order[:cells]):
        group[atom_idx] = g
    for atom_idx in order[cells:]:
        group[atom_idx] = rng.randrange(cells)
    grid = AtomGrid(n, cuts)
    return Partition._of_boxes(n, full(n), grid.boxes(np.array(group).reshape(grid.shape)))
