"""Seeded random generators shared by the unit and acceptance tests."""
from __future__ import annotations

import random

from boxmodal import (
    Box,
    EmptyRegionError,
    Interval,
    OMEGA,
    OrderKind,
    Partition,
    Region,
    Valuation,
    full,
    make_fibered,
    make_partition,
    upper_quadrant,
)
from boxmodal.formulas import (
    And,
    Box as BoxF,
    Const,
    Diamond,
    Formula,
    Implies,
    Not,
    Or,
    Var,
)
from boxmodal.randgen import InfeasibleParameters, gen_random


def random_region(rng: random.Random, dim: int, max_const: int, max_boxes: int = 3) -> Region:
    boxes = []
    for _ in range(rng.randint(0, max_boxes)):
        ivs = []
        for _ in range(dim):
            lo = rng.randint(0, max_const)
            if rng.random() < 0.4:
                hi = OMEGA
            else:
                hi = rng.randint(lo, max_const)
            ivs.append(Interval(lo, hi))
        boxes.append(Box(tuple(ivs)))
    return Region(dim, tuple(boxes))


def random_partition(rng: random.Random, n: int, cells: int, max_const: int) -> Partition:
    """gen_random with the cell count clamped to what the thresholds allow."""
    cap = (min(3, max(1, max_const)) + 1) ** n
    cells = min(cells, cap)
    seed = rng.randrange(1 << 30)
    for _ in range(256):
        try:
            return gen_random(n, cells, max_const, seed)
        except InfeasibleParameters:
            seed = (seed + 1000003) % (1 << 30)
    raise AssertionError("could not build a feasible random partition")


def random_formula(rng: random.Random, names: list[str], depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(names))
    pick = rng.randrange(6)
    if pick == 0:
        return Not(random_formula(rng, names, depth - 1))
    if pick == 1:
        return Diamond(random_formula(rng, names, depth - 1))
    if pick == 2:
        return BoxF(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    if pick == 3:
        return And(left, right)
    if pick == 4:
        return Or(left, right)
    return Implies(left, right)


def random_valuation(
    rng: random.Random, dim: int, names: list[str], max_const: int, order: OrderKind
) -> Valuation:
    return Valuation(
        dim, order, {name: random_region(rng, dim, max_const) for name in names}
    )


def random_fibered(rng: random.Random, dim: int, n_worlds: int):
    worlds = [chr(ord("a") + i) for i in range(n_worlds)]
    edges = [
        (g, h) for g in worlds for h in worlds if rng.random() < 0.5
    ]
    fibers = [
        random_partition(rng, dim, rng.randint(1, 3), rng.randint(0, 4))
        for _ in worlds
    ]
    return make_fibered(worlds, edges, fibers)


# -- Region tooling: shifts, and the reference forms of ``partition._hulls`` ------------


def shifted(iv: Interval, delta: int) -> Interval:
    """The interval moved by delta; an unbounded one stays unbounded."""
    return Interval(iv.lo + delta, OMEGA if iv.hi is OMEGA else iv.hi + delta)


def translate(r: Region, delta: int) -> Region:
    """Every bound of a region moved by delta; ValueError where a lower bound would go below 0."""
    boxes = (Box(tuple(shifted(iv, delta) for iv in b.intervals)) for b in r.boxes)
    return Region(r.dim, tuple(boxes))


def varying_coords(r: Region) -> frozenset[int]:
    """Coordinates on which a nonempty region takes at least two values."""
    if r.is_empty():
        raise EmptyRegionError("coordinate analysis of the empty region")
    out = set()
    for i in range(r.dim):
        ivs = [b.intervals[i] for b in r.boxes]
        if any(iv.hi is OMEGA or iv.hi > iv.lo for iv in ivs) or len({iv.lo for iv in ivs}) > 1:
            out.add(i)
    return frozenset(out)


def hull(r: Region) -> Region:
    """The box pinning each constant coordinate of a nonempty region and freeing the rest."""
    varying = varying_coords(r)
    corner = r.boxes[0].intervals
    ivs = (Interval(0, OMEGA) if i in varying else corner[i] for i in range(r.dim))
    return Region(r.dim, (Box(tuple(ivs)),))


# -- the Region form of ``refine.cofinal_threshold`` -----------------------------------


def is_cofinal_in_space(r: Region) -> bool:
    """Every point of the grid lies below some point of the region."""
    return full(r.dim).subset(r.downset(OrderKind.REFLEXIVE))


def region_cofinal_threshold(p: Partition) -> int:
    """Least k such that every cell meeting [k, w)^n is cofinal in the grid, from the cells'
    Regions: the reference ``cofinal_threshold`` is tested against."""
    bound = 0
    for cell in p.cells:
        if is_cofinal_in_space(cell):
            continue
        for b in cell.boxes:
            finite_his = [iv.hi for iv in b.intervals if iv.hi is not OMEGA]
            if not finite_his:
                raise RuntimeError("cell with an unbounded box cannot be non-cofinal")
            bound = max(bound, 1 + min(finite_his))

    def meets_non_cofinal(k: int) -> bool:
        quadrant = upper_quadrant(p.dim, k)
        return any(
            not c.intersect(quadrant).is_empty() and not is_cofinal_in_space(c) for c in p.cells
        )

    # The closed form above is checked against the defining property.
    if meets_non_cofinal(bound):
        raise RuntimeError("threshold check failed: non-cofinal cell meets the quadrant")
    if bound > 0 and not meets_non_cofinal(bound - 1):
        raise RuntimeError("threshold is not minimal")
    return bound


# -- grid-sizing probes for the refiner ---------------------------------------------


def _cell(*boxes: tuple) -> Region:
    """Region from boxes given as tuples of (lo, hi) pairs or single values."""
    return Region(
        len(boxes[0]),
        tuple(
            Box(tuple(Interval(b[0], b[1]) if isinstance(b, tuple) else Interval(b, b) for b in bx))
            for bx in boxes
        ),
    )


def probe_far_cut() -> Partition:
    """n=2: a column at 0, and one cell made of two boxes that meet at 10000."""
    return make_partition(
        full(2),
        [
            _cell((0, (0, OMEGA))),
            _cell(((1, 9999), (0, OMEGA)), ((10000, OMEGA), (0, OMEGA))),
        ],
    )


def probe_long_line() -> Partition:
    """n=3: the line x0 = x1 = 0 split at 400; everything else one cell."""
    return make_partition(
        full(3),
        [
            _cell((0, 0, (0, 399))),
            _cell((0, 0, (400, OMEGA))),
            _cell(((1, OMEGA), (0, OMEGA), (0, OMEGA)), (0, (1, OMEGA), (0, OMEGA))),
        ],
    )


def probe_split_axes(c: int) -> Partition:
    """n=3: each coordinate axis split at c; everything else one cell."""
    return make_partition(
        full(3),
        [
            _cell(((0, c - 1), 0, 0)),
            _cell(((c, OMEGA), 0, 0)),
            _cell((0, (1, c - 1), 0)),
            _cell((0, (c, OMEGA), 0)),
            _cell((0, 0, (1, c - 1))),
            _cell((0, 0, (c, OMEGA))),
            _cell(
                ((1, OMEGA), (1, OMEGA), (0, OMEGA)),
                ((1, OMEGA), 0, (1, OMEGA)),
                (0, (1, OMEGA), (1, OMEGA)),
            ),
        ],
    )


def probe_split_face(c: int) -> Partition:
    """n=4: ``probe_split_axes(c)`` moved onto the face x0 = 0, shifted up by one.

    Everything with x0 >= 1 is one cell, and so is the rest of the face.
    """
    origin = Interval(0, 0)
    cells = [
        Region(4, tuple(Box((origin, *(shifted(iv, 1) for iv in b.intervals))) for b in cell.boxes))
        for cell in probe_split_axes(c).cells
    ]
    cells.append(_cell(((1, OMEGA), (0, OMEGA), (0, OMEGA), (0, OMEGA))))
    covered = cells[0]
    for cell in cells[1:]:
        covered = covered.union(cell)
    return make_partition(full(4), cells + [covered.complement()])
