"""Partitions: construction, restriction, induced atoms, and the checkers."""
from __future__ import annotations

import itertools
import json
import random
from contextlib import contextmanager

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
    PartitionError,
    Region,
    Valuation,
    box,
    cell_of,
    cofinal_threshold,
    empty_region,
    filtration_pipeline,
    full,
    generate_subalgebra,
    induced,
    is_monotone,
    is_tuned,
    make_partition,
    monotone_violation,
    point_region,
    refine_monotone,
    refines,
    region,
    restrict,
    tuned_violation,
    upper_quadrant,
)

from boxmodal.atomgrid import AtomGrid, BoxTable
from boxmodal.formulas import parse_formula
from boxmodal.partition import MonotoneViolation, _classes, _hulls
from boxmodal.region import MAX_COORD
from genutil import hull, random_partition, random_region, translate, varying_coords

LE = OrderKind.REFLEXIVE
LT = OrderKind.STRICT


def origin_partition():
    origin = point_region(0, 0)
    return make_partition(full(2), [origin, origin.complement()])


def four_cell():
    return make_partition(
        full(2),
        [
            point_region(0, 0),
            region(box(0, (1, OMEGA))),
            region(box((1, OMEGA), 0)),
            upper_quadrant(2, 1),
        ],
    )


class TestMakePartition:
    def test_valid(self):
        p = origin_partition()
        assert p.size == 2
        assert p.cells[0].equal(point_region(0, 0))

    def test_overlap(self):
        with pytest.raises(PartitionError) as exc:
            make_partition(full(2), [point_region(0, 0), full(2)])
        assert exc.value.kind == "overlap"
        assert exc.value.witness.member((0, 0))

    def test_gap(self):
        with pytest.raises(PartitionError) as exc:
            make_partition(full(2), [point_region(0, 0)])
        assert exc.value.kind == "gap"
        assert not exc.value.witness.member((0, 0))

    def test_empty_cell(self):
        with pytest.raises(PartitionError) as exc:
            make_partition(full(2), [empty_region(2), full(2)])
        assert exc.value.kind == "empty_cell"

    def test_excess(self):
        with pytest.raises(PartitionError) as exc:
            make_partition(upper_quadrant(2, 1), [full(2)])
        assert exc.value.kind == "excess"

    def test_canonical_order(self):
        cells = [
            upper_quadrant(2, 1),
            region(box((1, OMEGA), 0)),
            point_region(0, 0),
            region(box(0, (1, OMEGA))),
        ]
        p = make_partition(full(2), cells)
        mins = [c.min_point() for c in p.cells]
        assert mins == sorted(mins)
        assert mins[0] == (0, 0)


def overlapping(rng: random.Random, cell: Region) -> Region:
    """The same set, each box that can be cut as two overlapping boxes; some boxes repeated."""
    boxes = []
    for b in cell.boxes:
        axis = rng.randrange(cell.dim)
        iv = b.intervals[axis]
        top = iv.lo + 3 if iv.hi is OMEGA else iv.hi
        if top > iv.lo:
            below_top = rng.randint(iv.lo, top - 1)
            above_lo = rng.randint(iv.lo, below_top)
            for part in (Interval(iv.lo, below_top), Interval(above_lo, iv.hi)):
                boxes.append(Box(b.intervals[:axis] + (part,) + b.intervals[axis + 1 :]))
        else:
            boxes.append(b)
        if rng.random() < 0.2:
            boxes.append(b)
    return Region(cell.dim, tuple(boxes))


def painted_partition(seed: int, n: int, subcarrier: bool) -> Partition:
    """A random partition with multi-box cells whose boxes overlap, on a full or smaller carrier."""
    rng = random.Random(seed)
    p = random_partition(rng, n, rng.randint(1, 6), rng.randint(0, 4 if n < 3 else 3))
    if subcarrier:
        v = random_region(rng, n, 4, 3).union(upper_quadrant(n, rng.randint(0, 3)))
        p = restrict(p, v)
    return make_partition(p.carrier, [overlapping(rng, c) for c in p.cells])


class TestOwner:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**30), st.integers(1, 3), st.booleans())
    def test_matches_one_mask_per_cell(self, seed, n, subcarrier):
        p = painted_partition(seed, n, subcarrier)
        grid = p._grid
        # The former construction, kept as the reference: one full-grid mask per cell.
        reference = np.full(grid.shape, -1, dtype=np.int32)
        for i, cell in enumerate(p.cells):
            reference[grid.region_bool(cell)] = i
        assert p._owner.dtype == np.int32
        assert np.array_equal(p._owner, reference)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**30), st.integers(1, 3), st.booleans())
    def test_hulls_match_regions(self, seed, n, subcarrier):
        p = painted_partition(seed, n, subcarrier)
        grid = p._grid
        varies, start, stop = _hulls(p)
        for i, cell in enumerate(p.cells):
            assert {a for a in range(n) if varies[a, i]} == varying_coords(cell)
            cell_hull = hull(cell)
            block = np.zeros(grid.shape, dtype=bool)
            block[tuple(slice(a, b) for a, b in zip(start[:, i], stop[:, i]))] = True
            assert grid.region_of_bool(block) == cell_hull
            top = np.argwhere(grid.region_bool(cell_hull))[-1]
            assert np.array_equal(top, stop[:, i] - 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30), st.integers(1, 3))
    def test_owner_from_the_box_table_matches_the_regions(self, seed, n):
        rng = random.Random(seed)
        q, _ = refine_monotone(random_partition(rng, n, rng.randint(1, 6), rng.randint(0, 4)))
        from_regions = make_partition(q.carrier, tuple(q.cells))
        assert from_regions == q
        assert all(np.array_equal(a, b) for a, b in zip(from_regions.cells.table, q.cells.table))
        assert from_regions._grid.cuts == q._grid.cuts
        assert np.array_equal(from_regions._owner, q._owner)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**30), st.integers(1, 3), st.booleans(), st.booleans())
    def test_make_partition_hands_over_the_painting_of_its_table(self, seed, n, subcarrier, top):
        """Cells out of canonical order, with duplicate and covered boxes, some bounds at
        ``MAX_COORD`` when shifted to the top: the grid and owner ``make_partition`` keeps
        are those of the table, as ``for_boxes`` and ``paint`` give them."""
        p = painted_partition(seed, n, subcarrier)
        carrier, cells = p.carrier, list(p.cells)
        random.Random(seed).shuffle(cells)
        if top:
            shift = MAX_COORD - max(c.max_constant() for c in (carrier, *cells))
            carrier, cells = translate(carrier, shift), [translate(c, shift) for c in cells]
        q = make_partition(carrier, cells)
        assert {"_grid", "_owner"} <= vars(q).keys()  # handed over, not yet painted
        table = q.cells.table
        assert q._grid.cuts == AtomGrid.for_boxes(table, (q.carrier,)).cuts
        assert np.array_equal(q._owner, q._grid.paint(table))
        assert not q._owner.flags.writeable

    def test_make_partition_paints_once(self, monkeypatch):
        calls = {"paint": 0, "for_regions": 0}
        paint, for_regions = AtomGrid.paint, AtomGrid.for_regions.__func__

        def count(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(AtomGrid, "paint", count("paint", paint))
        monkeypatch.setattr(AtomGrid, "for_regions", classmethod(count("for_regions", for_regions)))
        p = four_cell()
        assert tuned_violation(p, LE) is None and cell_of(p, (0, 3)) == 1
        assert calls == {"paint": 0, "for_regions": 1}

    def test_dim_zero(self):
        p = make_partition(full(0), [full(0)])
        assert p._grid.shape == () and int(p._owner) == 0
        assert p.cells.table.lo.shape == (1, 0) and cell_of(p, ()) == 0
        assert refine_monotone(p)[0] is p
        assert cofinal_threshold(p) == 0

    def test_dim_zero_from_a_box_table(self):
        """A table of rows with no lower corner to sort by: ``induced`` and the modal calls
        that build on it."""
        q = induced(full(0), [full(0)])
        assert q == make_partition(full(0), [full(0)]) and int(q._owner) == 0
        sub = generate_subalgebra([full(0)], LE)
        assert sub.atoms == q and sub.generator_atoms == (frozenset({0}),)
        report = filtration_pipeline(parse_formula("p"), Valuation(0, LE, {"p": full(0)}))
        assert (report.world_count, report.edge_count, report.globally_true) == (1, 1, True)

    def test_cached_owner_is_read_only(self):
        p = origin_partition()
        for q in (p, refine_monotone(p)[0]):  # handed over by make_partition, then painted
            with pytest.raises(ValueError):
                q._owner[(0,) * q.dim] = 1
            _, (same,) = q._grid.regrid(q._grid.cuts, [q._owner])
            with pytest.raises(ValueError):
                same[...] = 0
            assert cell_of(q, (0, 0)) == 0


def reference_make_partition(carrier: Region, cells: list[Region]) -> Partition:
    """The former validation, kept as the reference: one full-grid mask per cell."""
    grid = AtomGrid.for_regions(carrier.dim, (carrier, *cells))
    claimed = np.zeros(grid.size, dtype=bool)
    for i, c in enumerate(cells):
        flat = grid.region_bool(c).ravel()
        if (flat & claimed).any():
            witness = grid.region_of_bool((flat & claimed).reshape(grid.shape))
            raise PartitionError("overlap", f"cell {i} overlaps an earlier cell", witness=witness)
        claimed |= flat
    car = grid.region_bool(carrier).ravel()
    for kind, message, wrong in (
        ("excess", "cells extend beyond the carrier", claimed & ~car),
        ("gap", "cells do not cover the carrier", car & ~claimed),
    ):
        if wrong.any():
            witness = grid.region_of_bool(wrong.reshape(grid.shape))
            raise PartitionError(kind, message, witness=witness)
    return Partition._of_boxes(carrier.dim, carrier, BoxTable.of_regions(cells))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**30),
    st.integers(1, 3),
    st.sampled_from(["valid", "drop", "add", "shrink", "random"]),
)
def test_make_partition_matches_former_validation(seed, n, change):
    rng = random.Random(seed)
    p = painted_partition(seed, n, rng.random() < 0.3)
    carrier, cells = p.carrier, list(p.cells)
    rng.shuffle(cells)
    if change == "drop" and len(cells) > 1:
        cells.pop(rng.randrange(len(cells)))
    elif change == "add":
        cells.insert(rng.randint(0, len(cells)), random_region(rng, n, 4, 3))
    elif change == "shrink":
        carrier = carrier.intersect(random_region(rng, n, 4, 3).union(upper_quadrant(n, 2)))
    elif change == "random":
        cells = [random_region(rng, n, 4, 3) for _ in range(rng.randint(1, 4))]
    cells = [c for c in cells if not c.is_empty()]
    if not cells:
        return

    def outcome(build):
        try:
            q = build(carrier, cells)
        except PartitionError as exc:
            return exc.kind, str(exc), exc.witness.boxes
        return q.cells

    assert outcome(make_partition) == outcome(reference_make_partition)


class TestRestrict:
    def test_drops_missing_cells(self):
        p = origin_partition()
        r = restrict(p, upper_quadrant(2, 1))
        assert r.size == 1
        assert r.cells[0].equal(upper_quadrant(2, 1))

    def test_identity(self):
        p = four_cell()
        r = restrict(p, p.carrier)
        assert r.size == p.size
        assert all(a.equal(b) for a, b in zip(r.cells, p.cells))

    def test_line_example(self):
        p = make_partition(
            full(1),
            [region(box(0), box(2)), point_region(1), upper_quadrant(1, 3)],
        )
        r = restrict(p, upper_quadrant(1, 2))
        assert r.size == 2
        assert r.cells[0].equal(point_region(2))
        assert r.cells[1].equal(upper_quadrant(1, 3))

    def test_empty_carrier(self):
        with pytest.raises(PartitionError):
            restrict(origin_partition(), empty_region(2))


class TestInduced:
    def test_single_splitter(self):
        p = induced(full(1), [region(box(0), box(2))])
        assert p.size == 2
        assert p.cells[0].equal(region(box(0), box(2)))

    def test_empty_family(self):
        p = induced(full(2), [])
        assert p.size == 1
        assert p.cells[0].equal(full(2))

    def test_profile_enumeration(self):
        # Membership profiles enumerated by brute force over [0, 6] pin the
        # expected three classes.
        fam = [region(box((0, 4))), upper_quadrant(1, 3)]
        profiles = {}
        for k in range(7):
            key = tuple(f.member((k,)) for f in fam)
            profiles.setdefault(key, []).append(k)
        assert sorted(map(tuple, profiles.values())) == [(0, 1, 2), (3, 4), (5, 6)]
        p = induced(full(1), fam)
        expected = [region(box((0, 2))), region(box((3, 4))), upper_quadrant(1, 5)]
        assert p.size == 3
        assert all(a.equal(b) for a, b in zip(p.cells, expected))

    def test_coarsest_refinement_property(self):
        rng = random.Random(5)
        p = random_partition(rng, 2, 3, 4)
        fam = list(p.cells)
        atoms = induced(full(2), fam)
        for cell in atoms.cells:
            for f in fam:
                assert cell.subset(f) or cell.intersect(f).is_empty()

    def test_family_order_irrelevant(self):
        rng = random.Random(15)
        fam = [region(box((0, 2), (1, OMEGA))), upper_quadrant(2, 2), point_region(0, 0)]
        base = induced(full(2), fam)
        for _ in range(3):
            rng.shuffle(fam)
            other = induced(full(2), fam)
            assert other.size == base.size
            assert all(a.equal(b) for a, b in zip(other.cells, base.cells))

    def test_matches_one_region_of_bool_per_class(self):
        # The former construction, kept as the reference: one full-grid mask
        # and one ``region_of_bool`` per membership class.
        def reference(carrier, family):
            grid = AtomGrid.for_regions(carrier.dim, (carrier, *family))
            idx = np.flatnonzero(grid.region_bool(carrier).ravel())
            rows = np.stack([grid.region_bool(f).ravel()[idx] for f in family]).T
            inverse = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
            cells = []
            for label in range(int(inverse.max()) + 1):
                flat = np.zeros(grid.size, dtype=bool)
                flat[idx[inverse == label]] = True
                cells.append(grid.region_of_bool(flat.reshape(grid.shape)))
            return make_partition(carrier, cells)

        rng = random.Random(11)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            carrier = random_region(rng, n, 6, 2) if rng.random() < 0.3 else full(n)
            family = [random_region(rng, n, 6) for _ in range(rng.randint(1, 4))]
            if carrier.is_empty():
                continue
            new, old = induced(carrier, family), reference(carrier, family)
            assert [c.boxes for c in new.cells] == [c.boxes for c in old.cells]
            assert json.dumps(new.to_json()) == json.dumps(old.to_json())
            checked += 1
        assert checked > 200


@st.composite
def label_rows(draw):
    """Int rows as face profiles hold them: cell labels from -1 up."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.one_of(st.just(1), st.integers(1, 8), st.integers(40, 70)))
    top = draw(st.sampled_from([0, 1, 2, 5, 2**31 - 1]))
    values = st.integers(-1, top)
    # Few distinct rows, so that repeats occur.
    row = st.lists(values, min_size=cols, max_size=cols)
    distinct = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=rows, max_size=rows))
    return np.array([distinct[k] for k in picks], dtype=np.int32)


class TestClasses:
    @settings(max_examples=150, deadline=None)
    @given(label_rows())
    def test_matches_numpy_unique_rows(self, rows):
        # Wide columns take the key past 2^62, so its prefix is re-ranked.
        expected = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
        assert _classes(rows).tolist() == expected.tolist()
        flags = rows > 0
        expected = np.unique(flags, axis=0, return_inverse=True)[1].reshape(-1)
        assert _classes(flags).tolist() == expected.tolist()

    def test_rerank_keeps_lexicographic_order(self):
        rows = np.array([[2] * 60 + [0], [0] * 60 + [1], [2] * 60 + [-1], [0] * 61], dtype=np.int32)
        assert _classes(rows).tolist() == [3, 1, 2, 0]


# Small keys, negative ones, and keys near +-2^62.
_KEYS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**62) - 3, -(2**62) + 3),
    st.integers(2**62 - 3, 2**62 + 3),
)


class TestRank:
    """Rows of one int64 column: their classes are the ranks of the keys."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_KEYS, max_size=30), st.booleans())
    def test_matches_numpy_unique_inverse(self, keys, all_equal):
        if all_equal:
            keys = keys[:1] * len(keys)
        key = np.array(keys, dtype=np.int64)
        expected = np.unique(key, return_inverse=True)[1].reshape(-1)
        assert _classes(key[:, None]).tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "keys, expected",
        [
            ([], []),
            ([7], [0]),
            ([5, 5, 5], [0, 0, 0]),
            ([-1, -(2**62), 3, -1], [1, 0, 2, 1]),
            ([2**62 + 1, 2**62, 2**62 + 1, 0], [2, 1, 2, 0]),
        ],
    )
    def test_edge_cases(self, keys, expected):
        assert _classes(np.array(keys, dtype=np.int64).reshape(-1, 1)).tolist() == expected


class TestRefines:
    def test_atoms_refine_coarser(self):
        base = [region(box((0, 2), (0, OMEGA))), region(box((3, OMEGA), (0, 5)))]
        coarse = induced(full(2), base)
        fine = induced(full(2), base + [upper_quadrant(2, 4)])
        assert refines(fine, coarse)
        assert not refines(coarse, fine) or coarse.size == fine.size

    def test_reflexive(self):
        p = four_cell()
        assert refines(p, p)

    def test_straddling_cell(self):
        fine = make_partition(full(1), [point_region(0), upper_quadrant(1, 1)])
        coarse = make_partition(
            full(1), [region(box(0), box(2)), region(box(1), (upper_quadrant(1, 3).boxes[0]))]
        )
        assert not refines(fine, coarse)

    def test_carrier_mismatch(self):
        with pytest.raises(PartitionError):
            refines(origin_partition(), make_partition(upper_quadrant(2, 1), [upper_quadrant(2, 1)]))

    def test_induced_on_own_cells_refines(self):
        rng = random.Random(9)
        for _ in range(5):
            p = random_partition(rng, 2, 3, 4)
            assert refines(induced(full(2), list(p.cells)), p)

    def test_matches_cellwise_inclusion(self):
        rng = random.Random(12)
        seen = set()
        for i in range(60):
            n = 1 + i % 3
            a = random_partition(rng, n, rng.randint(1, 6), rng.randint(0, 4))
            b = random_partition(rng, n, rng.randint(1, 6), rng.randint(0, 4))
            for fine, coarse in ((a, b), (b, a), (induced(full(n), [*a.cells, *b.cells]), a)):
                expected = all(any(f.subset(c) for c in coarse.cells) for f in fine.cells)
                assert refines(fine, coarse) == expected
                seen.add(expected)
        assert seen == {True, False}


class TestCellOf:
    def test_examples(self):
        p = four_cell()
        assert cell_of(p, (0, 5)) == 1
        assert cell_of(p, (0, 0)) == 0
        assert cell_of(p, (7, 3)) == 3

    def test_outside_carrier(self):
        p = make_partition(upper_quadrant(2, 1), [upper_quadrant(2, 1)])
        with pytest.raises(ValueError):
            cell_of(p, (0, 0))

    def test_total_on_grid(self):
        p = four_cell()
        for u in itertools.product(range(4), repeat=2):
            i = cell_of(p, u)
            assert p.cells[i].member(u)


class TestTuned:
    def test_single_cell(self):
        p = make_partition(full(2), [full(2)])
        assert is_tuned(p, LE) and is_tuned(p, LT)

    def test_spec_counterexample(self):
        a = region(box(0, 0), box(1, 1))
        b = point_region(0, 1)
        p = make_partition(full(2), [a, b, a.union(b).complement()])
        v = tuned_violation(p, LE)
        assert v is not None
        assert (v.source, v.target) == (0, 1)
        assert v.witness == (1, 1)

    def test_four_cell_tuned_both(self):
        p = four_cell()
        assert is_tuned(p, LE)
        assert is_tuned(p, LT)

    def test_pairwise_downset_inclusions(self):
        # The tuned check agrees with direct region computations pair by pair.
        p = four_cell()
        for order in (LE, LT):
            for u_cell in p.cells:
                for v_cell in p.cells:
                    down = v_cell.downset(order)
                    premise = not u_cell.intersect(down).is_empty()
                    if premise:
                        assert u_cell.subset(down)


class TestMonotone:
    def test_four_cell(self):
        p = four_cell()
        assert is_monotone(p)
        jsets = [varying_coords(c) for c in p.cells]
        assert jsets == [frozenset(), {1}, {0}, {0, 1}]

    def test_full_cell(self):
        for n in (1, 2, 3):
            assert is_monotone(make_partition(full(n), [full(n)]))

    def test_hull_violation(self):
        a = point_region(0, 0).union(point_region(1, 1))
        p = make_partition(full(2), [a, a.complement()])
        v = monotone_violation(p)
        assert v is not None and v.kind == "hull" and v.cell == 0
        assert v.witness == (0, 2)

    def test_varying_violation(self):
        a = region(box(0, (0, OMEGA)))
        b = point_region(1, 0)
        rest = a.union(b).complement()
        p = make_partition(full(2), [a, b, rest])
        v = monotone_violation(p)
        assert v is not None and v.kind == "varying"
        assert (v.cell, v.other) == (0, 1)
        assert v.witness == (0, 0)


def reference_monotone(p: Partition):
    """The cell-by-cell monotone check on Regions, kept as the reference."""
    downs = [c.downset(LE) for c in p.cells]
    for i, cell in enumerate(p.cells):
        missing = hull(cell).difference(downs[i])
        if not missing.is_empty():
            return MonotoneViolation("hull", i, None, missing.min_point())
    varying = [varying_coords(c) for c in p.cells]
    for i, cell in enumerate(p.cells):
        for j, down in enumerate(downs):
            meet = cell.intersect(down)
            if not meet.is_empty() and not varying[i] <= varying[j]:
                return MonotoneViolation("varying", i, j, meet.min_point())
    return None


@contextmanager
def counting_sees():
    """Record the arguments of every ``AtomGrid.sees`` call inside the block."""
    calls = []
    sees = AtomGrid.sees

    def spy(self, *args):
        calls.append(args)
        return sees(self, *args)

    AtomGrid.sees = spy
    try:
        yield calls
    finally:
        AtomGrid.sees = sees


class TestMonotoneOnOwner:
    def test_hull_failure_needs_no_sees_pass(self):
        a = point_region(0, 0).union(point_region(1, 1))
        p = make_partition(full(2), [a, a.complement()])
        with counting_sees() as calls:
            assert monotone_violation(p) == MonotoneViolation("hull", 0, None, (0, 2))
            assert calls == []
            assert monotone_violation(four_cell()) is None
            assert len(calls) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**30), st.integers(1, 3), st.booleans())
    def test_matches_cell_by_cell_reference(self, seed, n, subcarrier):
        p = painted_partition(seed, n, subcarrier)
        with counting_sees() as calls:
            v = monotone_violation(p)
        assert v == reference_monotone(p)
        assert len(calls) == (0 if v is not None and v.kind == "hull" else 1)

    def test_reference_sees_both_kinds(self):
        kinds = set()
        for seed in range(60):
            v = reference_monotone(painted_partition(seed, 1 + seed % 3, seed % 2 == 0))
            kinds.add(v.kind if v else None)
        assert kinds == {"hull", "varying", None}


class TestMonotoneImpliesTuned:
    def test_handcrafted(self):
        cases = [four_cell(), make_partition(full(2), [full(2)])]
        for p in cases:
            assert is_monotone(p)
            assert is_tuned(p, LE)
            assert is_tuned(p, LT)


class TestJson:
    def test_roundtrip(self):
        p = four_cell()
        back = Partition.from_json(p.to_json())
        assert back.size == p.size
        assert all(a.equal(b) for a, b in zip(back.cells, p.cells))
        assert p.to_json()["carrier"] == "full"

    def test_subcarrier_roundtrip(self):
        p = make_partition(upper_quadrant(2, 1), [upper_quadrant(2, 1)])
        obj = p.to_json()
        assert obj["carrier"] != "full"
        back = Partition.from_json(obj)
        assert back.carrier.equal(p.carrier)

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_json({"dim": 2, "cells": []})
        with pytest.raises(ValueError):
            Partition.from_json({"dim": 2, "carrier": "full", "cells": [{"dim": 2, "boxes": []}]})
