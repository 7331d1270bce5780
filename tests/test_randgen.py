"""The seeded partition generator: pinned regressions and parameter policy."""
from __future__ import annotations

import itertools
import json
import random

import pytest

from boxmodal import OMEGA, Box, Interval, Partition, Region, full, make_partition
from boxmodal.atomgrid import AtomGrid
from boxmodal.randgen import InfeasibleParameters, gen_random


def reference_gen_random(n: int, cells: int, max_const: int, seed: int) -> Partition:
    """The former construction: per-group Regions of threshold boxes, canonicalised on a grid."""
    rng = random.Random(seed)
    pool = list(range(1, max(1, max_const) + 1))
    pieces_per_coord = []
    for _ in range(n):
        count = rng.randint(0, min(3, len(pool)))
        stops = [0] + sorted(rng.sample(pool, count))
        pieces = [Interval(stops[i], stops[i + 1] - 1) for i in range(len(stops) - 1)]
        pieces_per_coord.append(pieces + [Interval(stops[-1], OMEGA)])
    atoms = [Box(ivs) for ivs in itertools.product(*pieces_per_coord)]
    if len(atoms) < cells:
        raise InfeasibleParameters("too few atoms")
    group = [0] * len(atoms)
    order = rng.sample(range(len(atoms)), len(atoms))
    for g, atom_idx in enumerate(order[:cells]):
        group[atom_idx] = g
    for atom_idx in order[cells:]:
        group[atom_idx] = rng.randrange(cells)
    grid = AtomGrid.for_regions(n, [Region(n, (a,)) for a in atoms])
    regions = []
    for g in range(cells):
        member = Region(n, tuple(a for a, gg in zip(atoms, group) if gg == g))
        regions.append(grid.region_of_bool(grid.region_bool(member)))
    return make_partition(full(n), regions)


def test_pinned_line_case():
    p = gen_random(1, 2, 3, seed=7)
    assert json.dumps(p.to_json(), sort_keys=True) == json.dumps(
        {
            "dim": 1,
            "carrier": "full",
            "cells": [
                {"dim": 1, "boxes": [[[0, 0]]]},
                {"dim": 1, "boxes": [[[1, None]]]},
            ],
        },
        sort_keys=True,
    )
    assert all(c.max_constant() <= 3 for c in p.cells)


def test_single_cell_is_full_grid():
    for n in (1, 2, 3):
        p = gen_random(n, 1, 5, seed=11)
        assert p.size == 1
        assert p.cells[0].equal(full(n))


def test_zero_constants_give_face_atoms():
    p = gen_random(2, 3, 0, seed=7)
    # With no room for thresholds above 1, every cell is a union of the four
    # corner atoms [0,0]/[1,w) per coordinate.
    for cell in p.cells:
        for b in cell.boxes:
            for iv in b.intervals:
                assert (iv.lo, iv.hi) in ((0, 0), (1, OMEGA), (0, OMEGA))


def test_determinism():
    a = gen_random(2, 4, 6, seed=99)
    b = gen_random(2, 4, 6, seed=99)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    c = gen_random(2, 4, 6, seed=100)
    assert json.dumps(a.to_json()) != json.dumps(c.to_json())


def test_parameter_validation():
    with pytest.raises(InfeasibleParameters):
        gen_random(4, 2, 3, seed=0)
    with pytest.raises(InfeasibleParameters):
        gen_random(2, 9, 3, seed=0)
    with pytest.raises(InfeasibleParameters):
        gen_random(2, 2, 9, seed=0)
    with pytest.raises(InfeasibleParameters):
        gen_random(1, 8, 0, seed=0)


def test_outputs_are_valid_partitions():
    from boxmodal import Partition

    for seed in range(10):
        try:
            p = gen_random(2, 4, 5, seed=seed)
        except InfeasibleParameters:
            continue
        # Rebuild through full validation.
        Partition.from_json(p.to_json())


def test_matches_the_per_group_construction():
    built = 0
    for n, cells, max_const in itertools.product((1, 2, 3), range(1, 9), range(9)):
        for seed in range(5):
            try:
                old = reference_gen_random(n, cells, max_const, seed)
            except InfeasibleParameters:
                with pytest.raises(InfeasibleParameters):
                    gen_random(n, cells, max_const, seed)
                continue
            new = gen_random(n, cells, max_const, seed)
            assert [c.boxes for c in new.cells] == [c.boxes for c in old.cells]
            assert json.dumps(new.to_json()) == json.dumps(old.to_json())
            built += 1
    assert built > 400
