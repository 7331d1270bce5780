"""The finite atom quotient must reproduce regions exactly."""
from __future__ import annotations

import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmodal import (
    OMEGA,
    Box,
    Interval,
    OrderKind,
    Partition,
    Region,
    Valuation,
    box,
    full,
    generate_subalgebra,
    induced,
    make_fibered,
    make_partition,
    monotone_violation,
    point_region,
    product_tuned_violation,
    quotient_frame,
    refine_monotone,
    region,
    tuned_violation,
    upper_quadrant,
)
from boxmodal import atomgrid
from boxmodal.atomgrid import END_OMEGA, AtomGrid, BoxTable, unpack
from boxmodal.oracle import grid_downset
from boxmodal.refine import ProductTunedViolation

from genutil import hull, random_partition, random_region
from test_region import regions

LE = OrderKind.REFLEXIVE


def test_roundtrip_simple():
    r = region(box((2, None), (0, 5)), box(1, (3, 3)))
    grid = AtomGrid.for_regions(2, [r])
    assert grid.region_of_bool(grid.region_bool(r)).equal(r)


def test_downset_stays_aligned():
    r = region(box((2, 4), (3, 5)))
    grid = AtomGrid.for_regions(2, [r])
    for order in OrderKind:
        down = r.downset(order)
        assert grid.region_of_bool(grid.region_bool(down)).equal(down)


def test_hull_stays_aligned():
    r = region(box(2, (1, None)))
    grid = AtomGrid.for_regions(2, [r])
    r_hull = hull(r)
    assert grid.region_of_bool(grid.region_bool(r_hull)).equal(r_hull)


def test_misaligned_region_rejected():
    grid = AtomGrid.for_regions(1, [upper_quadrant(1, 4)])
    with pytest.raises(ValueError):
        grid.region_bool(point_region(2))


def test_first_point_is_lexmin():
    r = region(box((3, None), 0), box(1, (2, None)))
    grid = AtomGrid.for_regions(2, [r])
    assert grid.first_point(grid.region_bool(r)) == r.min_point() == (1, 2)
    assert grid.first_point(np.zeros(grid.shape, dtype=bool)) is None


@st.composite
def labelled_grids(draw):
    """A grid of 1-3 axes and labels from -1 up, some painted as blocks that fill their window."""
    n = draw(st.integers(1, 3))
    shape = [draw(st.integers(1, 4)) for _ in range(n)]
    steps = [draw(st.lists(st.integers(1, 3), min_size=s - 1, max_size=s - 1)) for s in shape]
    grid = AtomGrid(n, [list(itertools.accumulate([0] + d)) for d in steps])
    size = int(np.prod(shape))
    flat = draw(st.lists(st.integers(-1, 3), min_size=size, max_size=size))
    labels = np.array(flat, dtype=np.int32).reshape(shape)
    for label in range(4, 4 + draw(st.integers(0, 3))):
        lo = [draw(st.integers(0, s - 1)) for s in shape]
        hi = [draw(st.integers(a + 1, s)) for a, s in zip(lo, shape)]
        labels[tuple(slice(a, b) for a, b in zip(lo, hi))] = label
    return grid, labels


def reference_region_of_bool(grid: AtomGrid, arr: np.ndarray) -> Region:
    """The former ``region_of_bool``, kept as the reference: ``_collect`` over the whole grid."""
    def interval(axis: int, a: int, b: int) -> Interval:
        cuts = grid.cuts[axis]
        return Interval(cuts[a], cuts[b] - 1 if b < len(cuts) else OMEGA)

    spans = grid._collect(arr, (0,) * grid.dim)
    boxes = (Box(tuple(interval(axis, a, b) for axis, (a, b) in enumerate(s))) for s in spans)
    return Region(grid.dim, tuple(boxes))


@settings(max_examples=150, deadline=None)
@given(labelled_grids())
def test_regions_are_region_of_bool_per_label(case):
    grid, labels = case
    out = grid.boxes(labels).regions()
    assert sorted(out) == sorted(set(labels[labels >= 0].tolist()))
    for label, r in out.items():
        assert r.boxes == reference_region_of_bool(grid, labels == label).boxes
        assert r == grid.region_of_bool(labels == label)


def test_regions_of_filled_unfilled_and_missing_labels():
    grid = AtomGrid(2, [[0, 1, 3], [0, 2, 5]])
    labels = np.array([[0, 0, -1], [1, 2, 1], [1, 2, 2]], dtype=np.int32)
    out = grid.boxes(labels).regions()
    block = np.zeros(grid.shape, dtype=bool)
    block[:1, :2] = True
    assert out[0] == reference_region_of_bool(grid, block)  # fills its window
    assert len(out[0].boxes) == 1
    assert len(out[1].boxes) == 3 and len(out[2].boxes) == 2  # do not
    for label in range(3):
        assert out[label].boxes == reference_region_of_bool(grid, labels == label).boxes
    assert grid.boxes(np.full(grid.shape, -1, dtype=np.int32)).regions() == {}
    assert grid.region_of_bool(np.zeros(grid.shape, dtype=bool)) == Region(2, ())


@settings(max_examples=150, deadline=None)
@given(labelled_grids())
def test_box_table_rows_are_the_regions_boxes(case):
    grid, labels = case
    table = grid.boxes(labels)
    for label, r in table.regions().items():
        assert r == reference_region_of_bool(grid, labels == label)
    cells = table.cell.tolist()
    runs = [c for i, c in enumerate(cells) if i == 0 or cells[i - 1] != c]
    assert len(runs) == len(set(runs))  # each label's rows are consecutive
    assert np.array_equal(grid.paint(table), labels)


@st.composite
def walks(draw):
    """A grid of 1-4 axes of 1-4 atoms, a mask on it with some slices cleared, and a start atom
    per axis: 0, the last atom or any."""
    n = draw(st.integers(1, 4))
    shape = [draw(st.integers(1, 4)) for _ in range(n)]
    grid = AtomGrid(n, [list(range(0, 2 * s, 2)) for s in shape])
    density = draw(st.sampled_from([0.2, 0.5, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    mask = np.random.default_rng(seed).random(shape) < density
    for axis, size in enumerate(shape):
        cleared = draw(st.lists(st.integers(0, size - 1), max_size=2))
        mask[(slice(None),) * axis + (cleared,)] = False
    start = [draw(st.one_of(st.just(0), st.just(s - 1), st.integers(0, s - 1))) for s in shape]
    return grid, mask, start


@settings(max_examples=300, deadline=None)
@given(walks())
def test_a_walk_from_start_atoms_is_the_full_walk_clipped(case):
    """``_collect`` from start atoms keeps the boxes of the full walk that reach the start atom
    on every axis, raised to start there; ``_span_rows`` of the full walk are ``boxes``' rows."""
    grid, mask, start = case
    walk = grid._collect(mask, (0,) * grid.dim)
    clipped = [
        tuple((max(a, q), b) for (a, b), q in zip(spans, start))
        for spans in walk
        if all(b > q for (_, b), q in zip(spans, start))
    ]
    assert grid._collect(mask, start) == clipped
    at = np.array(walk, np.intp).reshape(len(walk), grid.dim, 2)
    rows = grid._span_rows(np.zeros(len(walk), np.intp), at[..., 0], at[..., 1])
    table = grid.boxes(np.where(mask, 0, -1))
    assert rows.cell.tolist() == table.cell.tolist()
    assert rows.lo.dtype == rows.end.dtype == np.uint64
    assert np.array_equal(rows.lo, table.lo) and np.array_equal(rows.end, table.end)


def test_walks_of_empty_masks_one_atom_axes_and_last_start_atoms():
    grid = AtomGrid(3, [[0], [0, 1, 2], [0, 5]])
    mask = np.zeros(grid.shape, dtype=bool)
    assert grid._collect(mask, (0, 0, 0)) == [] and grid._collect(mask, (0, 2, 1)) == []
    mask[0, 0, 1] = mask[0, 2, :] = True  # the middle slice of axis 1 is empty
    assert grid._collect(mask, (0, 0, 0)) == [((0, 1), (0, 1), (1, 2)), ((0, 1), (2, 3), (0, 2))]
    assert grid._collect(mask, (0, 2, 1)) == [((0, 1), (2, 3), (1, 2))]
    assert grid._collect(mask, (0, 1, 0)) == [((0, 1), (2, 3), (0, 2))]


def test_paint_rejects_a_misaligned_bound():
    grid = AtomGrid(2, [[0, 2], [0, 1, 3]])
    table = BoxTable(np.array([0]), np.array([[0, 1]], np.uint64), np.array([[2, 3]], np.uint64))
    assert grid.paint(table).tolist() == [[-1, 0, -1], [-1, -1, -1]]
    for lo, end, bound in (([1, 1], [2, 3], 1), ([0, 1], [2, 2], 1), ([0, 1], [END_OMEGA, 2], 1)):
        table = BoxTable(np.array([0]), np.array([lo], np.uint64), np.array([end], np.uint64))
        with pytest.raises(ValueError, match=f"bound {bound} not aligned"):
            grid.paint(table)


def test_regrid_joins_the_grids_own_cuts():
    grid = AtomGrid(2, [[0, 2, 5], [0, 3]])
    labels = np.arange(6).reshape(grid.shape)
    # The cuts asked for lack 2 on axis 0 and 3 on axis 1; the grid keeps them.
    fine, (out,) = grid.regrid([[1, 5], [0]], [labels])
    assert fine.cuts == ((0, 1, 2, 5), (0, 3))
    assert out.tolist() == [[0, 1], [0, 1], [2, 3], [4, 5]]


def test_regrid_without_a_new_cut_returns_the_grid_and_the_arrays():
    grid = AtomGrid(2, [[0, 2, 5], [0, 3]])
    labels = np.arange(6).reshape(grid.shape)
    same, (out,) = grid.regrid([[5, 2], []], [labels])
    assert same is grid and out is labels


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 12), max_size=5),
    st.integers(0, 14), st.integers(0, 6), st.integers(1, 3),
)
def test_regrid_of_a_range_matches_its_list(own, start, length, step):
    """A range, counted before the grid is built, gives what the list of its values gives."""
    grid = AtomGrid(2, [sorted({0, *own}), [0, 4]])
    labels = np.arange(grid.size).reshape(grid.shape)
    more = range(start, start + length * step, step)
    fine, (out,) = grid.regrid([more, [2]], [labels])
    expected, (want,) = grid.regrid([list(more), [2]], [labels])
    assert fine.cuts == expected.cuts and np.array_equal(out, want)


def test_regrid_checks_the_size_before_building_the_cuts():
    """A range that makes the grid too large is counted, not held: its 2 M cuts would take
    over 50 MB."""
    grid = AtomGrid(2, [[0, 1], [0, 1, 9]])
    far = atomgrid.MAX_ATOMS // 2 + 8
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"atom grid too large: {2 * (far + 1)} atoms"):
            grid.regrid([(), range(2, far + 1)], [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dim_zero():
    grid = AtomGrid.for_regions(0, [Region(0, ())])
    one = Region(0, (box(),))
    assert grid.region_of_bool(grid.region_bool(one)).equal(one)
    assert grid.size == 1


def test_dim_zero_paint():
    grid = AtomGrid(0, [])
    for cells in ([], [Region(0, (box(),))], [Region(0, (box(), box()))]):
        owner = grid.paint(BoxTable.of_regions(cells))
        assert owner.shape == () and int(owner) == (0 if cells else -1)


def test_dim_zero_boxes():
    grid = AtomGrid(0, [])
    table = grid.boxes(np.array(3))
    assert table.cell.tolist() == [3] and table.lo.shape == table.end.shape == (1, 0)
    assert table.regions() == {3: Region(0, (box(),))}
    assert grid.boxes(np.array(-1)).regions() == {}
    assert grid.region_of_bool(np.array(False)) == Region(0, ())


@settings(max_examples=80, deadline=None)
@given(regions())
def test_roundtrip_random(r):
    grid = AtomGrid.for_regions(r.dim, [r])
    assert grid.region_of_bool(grid.region_bool(r)).equal(r)


@settings(max_examples=40, deadline=None)
@given(regions(dim=2), regions(dim=2))
def test_boolean_ops_on_grid_match(a, b):
    grid = AtomGrid.for_regions(2, [a, b])
    fa, fb = grid.region_bool(a), grid.region_bool(b)
    assert grid.region_of_bool(fa & fb).equal(a.intersect(b))
    assert grid.region_of_bool(fa | fb).equal(a.union(b))
    assert grid.region_of_bool(fa & ~fb).equal(a.difference(b))
    car = grid.region_bool(full(2))
    assert grid.region_of_bool(car & ~fa).equal(a.complement())


# -- the seeing relation ------------------------------------------------------------


def _blocks(grid, sources, targets, count, order):
    """``sees`` with the blocks joined: per-atom bits (in the grid's shape), meets and
    within as booleans."""
    blocks = list(grid.sees(sources, targets, count, order))
    joined = [np.concatenate([b[k] for b in blocks], axis=-1) for k in (1, 2, 3)]
    return [unpack(rows, count) for rows in joined]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**30),
    st.integers(1, 3),
    st.sampled_from(list(OrderKind)),
    st.lists(st.integers(0, 9), max_size=4),
    st.booleans(),
)
def test_sees_is_every_cell_downset(seed, n, order, extra, refined):
    rng = random.Random(seed)
    p = random_partition(rng, n, rng.randint(1, 6), rng.randint(0, 4 if n < 3 else 3))
    if refined:
        p = refine_monotone(p)[0]
    for cuts in (p._grid.cuts, [extra] * n):
        grid, (owner,) = p._grid.regrid(cuts, [p._owner])
        bits, meets, within = _blocks(grid, owner, owner, p.size, order)
        assert bits.shape == (*grid.shape, p.size)
        sizes = np.bincount(owner[owner >= 0], minlength=p.size)
        bound = 3
        points = list(itertools.product(range(bound + 1), repeat=n))
        for j, cell in enumerate(p.cells):
            down = grid.region_bool(cell.downset(order))
            assert np.array_equal(bits[..., j], down)
            cover = np.bincount(owner[down], minlength=p.size)
            assert np.array_equal(meets[:, j], cover > 0)
            assert np.array_equal(within[:, j], cover == sizes)
            seen = grid_downset(cell, order, bound)
            assert {u for u in points if bits[grid.point_atom(u)][j]} == seen


def reference_sees(grid, sources, targets, count, order):
    """Per-atom bits, meets and within as booleans, from atom indices pair by pair.

    Atoms are in row-major order: ``sources`` and ``targets`` are flat, and
    so are the rows of the bits.

    Under <= an atom sees another when its index is at most the other's on
    every axis; under < when it is smaller on every axis, or both are the
    unbounded last atom of that axis.
    """
    at = np.array(np.unravel_index(np.arange(grid.size), grid.shape)).T[:, None, :]
    to = at.transpose(1, 0, 2)
    if order is OrderKind.REFLEXIVE:
        rel = (at <= to).all(axis=2)
    else:
        last = np.array(grid.shape) - 1
        rel = ((at < to) | ((at == last) & (to == last))).all(axis=2)
    hits = targets[:, None] == np.arange(count)[None, :]
    bits = (rel.astype(np.int64) @ hits.astype(np.int64)) > 0
    groups = [bits[sources == i] for i in range(int(sources.max()) + 1)]
    meets = np.array([g.any(axis=0) for g in groups])
    return bits, meets, np.array([g.all(axis=0) for g in groups])


@st.composite
def sees_inputs(draw):
    """A grid of 1-3 axes, sources of one atom and of several, targets up to 140 cells.

    Sources and targets are flat, atoms in row-major order."""
    n = draw(st.integers(1, 3))
    shape = [draw(st.integers(1, 5)) for _ in range(n)]
    steps = [draw(st.lists(st.integers(1, 3), min_size=s - 1, max_size=s - 1)) for s in shape]
    grid = AtomGrid(n, [list(itertools.accumulate([0] + d)) for d in steps])
    order = draw(st.permutations(range(grid.size)))
    owners = draw(st.integers(1, grid.size))
    per_atom = dict(min_size=grid.size, max_size=grid.size)
    sources = np.array(draw(st.lists(st.integers(-1, owners - 1), **per_atom)))
    sources[order[:owners]] = np.arange(owners)  # every source owns an atom
    count = draw(st.integers(1, 140))
    targets = np.array(draw(st.lists(st.integers(-1, count - 1), **per_atom)))
    return grid, sources, targets, count


@settings(max_examples=120, deadline=None)
@given(sees_inputs(), st.sampled_from(list(OrderKind)), st.sampled_from([None, 1, 3, 5, 9]))
def test_sees_matches_atom_pairs_for_every_word(case, order, row_bytes):
    """Rows of one byte, and words of 2, 4 and 8 bytes, give the same sets."""
    grid, sources, targets, count = case
    budget = atomgrid.SEES_BYTES if row_bytes is None else row_bytes * grid.size
    shaped = [a.reshape(grid.shape) for a in (sources, targets)]
    with mock.patch.object(atomgrid, "SEES_BYTES", budget):
        blocks = list(grid.sees(*shaped, count, order))
        bits, meets, within = _blocks(grid, *shaped, count, order)
    width = {1: 8, 3: 16, 5: 32, 9: 64}.get(row_bytes, count)
    assert [len(b[0]) for b in blocks[:-1]] == [width] * (len(blocks) - 1)
    assert bits.shape == (*grid.shape, count)
    mine = (bits.reshape(grid.size, count), meets, within)
    for got, want in zip(mine, reference_sees(grid, sources, targets, count, order)):
        assert np.array_equal(got, want)


def reference_product_violation(fp, order):
    """The former product check: full premise and inclusion tables per fiber pair, in
    row-major order, and the witness from the Region algebra."""
    for g, h in fp.edges:
        pg, ph = fp.fiber(g), fp.fiber(h)
        grid, (source,) = pg._grid.regrid(ph._grid.cuts, [pg._owner])
        _, (target,) = ph._grid.regrid(grid.cuts, [ph._owner])
        _, premise, included = _blocks(grid, source, target, ph.size, order)
        bad = premise & ~included
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            missing = pg.cells[i].difference(ph.cells[j].downset(order))
            return ProductTunedViolation(g, i, h, j, missing.min_point())
    return None


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**30),
    st.integers(1, 3),
    st.sampled_from(list(OrderKind)),
    st.sampled_from([None, 1]),
)
def test_product_tuned_violation_matches_the_tables(seed, n, order, budget):
    """Unrefined fibers; some are the common refinement of two, so that more than eight
    target cells exist and a budget of one byte splits them into blocks."""
    rng = random.Random(seed)
    worlds = ["a", "b", "c"][: rng.randint(1, 3)]
    edges = [(g, h) for g in worlds for h in worlds if rng.random() < 0.5]

    def fiber() -> Partition:
        return random_partition(rng, n, rng.randint(1, 8), rng.randint(0, 4 if n < 3 else 3))

    fibers = [fiber() for _ in worlds]
    fibers = [
        f if rng.random() < 0.5 else induced(full(n), (*f.cells, *fiber().cells)) for f in fibers
    ]
    fp = make_fibered(worlds, edges, fibers)
    with mock.patch.object(atomgrid, "SEES_BYTES", budget or atomgrid.SEES_BYTES):
        assert product_tuned_violation(fp, order) == reference_product_violation(fp, order)


def _merged(p: Partition, a: int, b: int) -> Partition:
    """The partition with cells a and b made one."""
    rest = [c for k, c in enumerate(p.cells) if k not in (a, b)]
    return make_partition(p.carrier, rest + [p.cells[a].union(p.cells[b])])


def test_small_block_budget_changes_nothing(monkeypatch):
    square = region(box((0, 3), (0, 3)))
    fine = refine_monotone(make_partition(full(2), [square, square.complement()]))[0]
    rng = random.Random(11)
    cases = [fine, refine_monotone(random_partition(rng, 3, 6, 2))[0]]
    cases += [_merged(fine, a, b) for a, b in itertools.combinations(range(8, fine.size), 2)]

    def results(p: Partition) -> list:
        out: list = [tuned_violation(p, order) for order in OrderKind]
        out.append(monotone_violation(p))
        for order in OrderKind:
            joined = _blocks(p._grid, p._owner, p._owner, p.size, order)
            out.append([rows.tolist() for rows in joined])
        return out

    def readers() -> list:
        """Quotient edges, product violations and subalgebra downsets, which span blocks too."""
        out: list = []
        for order in OrderKind:
            out.append(sorted(quotient_frame(fine, order, Valuation(2, order)).edges))
            for edge in (("a", "b"), ("b", "a")):
                pair = make_fibered(["a", "b"], [edge], [cases[5], fine])
                out.append(product_tuned_violation(pair, order))
            out.append(generate_subalgebra([point_region(1, 1)], order).down_atoms)
        return out

    whole = [results(p) for p in cases]
    read = readers()
    monkeypatch.setattr(atomgrid, "SEES_BYTES", 1)  # eight target cells per block
    assert [results(p) for p in cases] == whole
    assert readers() == read
    assert generate_subalgebra([point_region(1, 1)], LE).atom_count > 8
    # Violations past the first block occur for every check and kind.
    late = set()
    for r in whole:
        for check, v in enumerate(r[:3]):
            if v is not None:
                pair = (v.source, v.target) if check < 2 else (v.cell, v.other or 0)
                late.add((check, getattr(v, "kind", None), max(pair) >= 8))
    assert {(0, None, True), (1, None, True), (2, "hull", True), (2, "varying", True)} <= late
