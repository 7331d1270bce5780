"""The monotone refiner: pinned traces, soundness, determinism, products."""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxmodal import (
    OMEGA,
    Box,
    Interval,
    OrderKind,
    Partition,
    PartitionError,
    Region,
    box,
    cell_of,
    cofinal_threshold,
    extend_from_quadrant,
    full,
    induced,
    is_monotone,
    is_tuned,
    make_fibered,
    make_partition,
    point_region,
    product_refines,
    product_tuned,
    refine_monotone,
    refine_monotone_1d,
    refine_product_finite,
    refines,
    region,
    restrict,
    upper_quadrant,
)

import boxmodal.refine
from boxmodal.atomgrid import END_OMEGA, MAX_ATOMS, AtomGrid, BoxTable
from boxmodal.cli import _json_text, main
from boxmodal.partition import TableCells
from boxmodal.region import MAX_COORD
from boxmodal.refine import (
    FaceStep,
    LevelStep,
    RefinementTrace,
    _Cells,
    _atom_threshold,
    _cofinal,
    _compress,
    _face_cuts,
    _face_index,
    _grow,
    _line_rule,
    _plane_rule,
    _prune_rows,
    _quadrant_cell,
    _quadrant_index,
    _quadrant_rows,
    _refine_atoms,
)
from genutil import (
    is_cofinal_in_space,
    probe_far_cut,
    probe_long_line,
    probe_split_axes,
    probe_split_face,
    probe_strips,
    random_fibered,
    random_partition,
    random_region,
    region_cofinal_threshold,
)
from record_refine_golden import GOLDEN, refine_digest, square

LE = OrderKind.REFLEXIVE
LT = OrderKind.STRICT


def tables_equal(a: BoxTable, b: BoxTable) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def cells_equal(p, expected):
    assert p.size == len(expected)
    assert all(a.equal(b) for a, b in zip(p.cells, expected))


class TestLine:
    def test_example(self):
        p = make_partition(
            full(1), [region(box(0), box(2)), point_region(1), upper_quadrant(1, 3)]
        )
        q = refine_monotone_1d(p)
        cells_equal(
            q,
            [point_region(0), point_region(1), point_region(2), upper_quadrant(1, 3)],
        )

    def test_all_infinite_unchanged(self):
        p = make_partition(full(1), [full(1)])
        assert refine_monotone_1d(p) is p
        evens_like = make_partition(
            full(1), [region(box(0), box((2, OMEGA))), point_region(1)]
        )
        # Cell {1} is finite, so this one is refined.
        assert refine_monotone_1d(evens_like) is not evens_like

    def test_infinite_cell_loses_head(self):
        p = make_partition(full(1), [point_region(5), point_region(5).complement()])
        q = refine_monotone_1d(p)
        cells_equal(
            q,
            [point_region(k) for k in range(6)] + [upper_quadrant(1, 6)],
        )

    def test_outermost_tail_keeps_its_boxes(self):
        tail = region(box(0), box((2, 4)), box((5, OMEGA)))
        p = make_partition(full(1), [point_region(1), tail])
        assert [c.boxes for c in p.cells] == [tail.boxes, point_region(1).boxes]
        q = refine_monotone_1d(p)
        assert q.cells[:2] == (point_region(0), point_region(1))
        # The tail above k0 = 1 is the input cell's trace there, not [2, w).
        assert q.cells[2].boxes == (box((2, 4)), box((5, OMEGA)))
        assert q.size == 3 and q.cells[2].equal(upper_quadrant(1, 2))

    def test_output_tuned_both_orders(self):
        p = make_partition(
            full(1), [region(box(0), box(2)), point_region(1), upper_quadrant(1, 3)]
        )
        q = refine_monotone_1d(p)
        assert is_monotone(q)
        assert is_tuned(q, LE) and is_tuned(q, LT)


class TestThreshold:
    def test_origin(self):
        origin = point_region(0, 0)
        p = make_partition(full(2), [origin, origin.complement()])
        assert cofinal_threshold(p) == 1

    def test_all_cofinal(self):
        assert cofinal_threshold(make_partition(full(2), [full(2)])) == 0

    def test_box_cell(self):
        cell = region(box((0, 3), (0, 5)))
        p = make_partition(full(2), [cell, cell.complement()])
        # The bounded cell still meets [3, w)^2 but not [4, w)^2.
        assert cell.intersect(upper_quadrant(2, 3)).is_empty() is False
        assert cell.intersect(upper_quadrant(2, 4)).is_empty() is True
        assert cofinal_threshold(p) == 4

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**30), st.sampled_from(["random", "split", "square"]))
    def test_matches_the_region_form(self, n, seed, kind):
        rng = random.Random(seed)
        if kind == "square":
            p = square(n, rng.randint(1, 4 if n < 4 else 2))
        else:
            if n < 4:
                p = random_partition(rng, n, rng.randint(1, 6), rng.randint(0, 4))
            else:  # past ``gen_random``'s dimensions: the classes of random regions
                p = induced(full(n), [random_region(rng, n, 2, 2) for _ in range(2)])
            if kind == "split":
                p = split_cofinal(p, rng)
        assert cofinal_threshold(p) == region_cofinal_threshold(p)


class TestExtend:
    def test_origin_example(self):
        origin = point_region(0, 0)
        coarse = make_partition(full(2), [origin, origin.complement()])
        inner = make_partition(upper_quadrant(2, 1), [upper_quadrant(2, 1)])
        out = extend_from_quadrant(coarse, inner)
        cells_equal(
            out,
            [
                origin,
                region(box(0, (1, OMEGA))),
                region(box((1, OMEGA), 0)),
                upper_quadrant(2, 1),
            ],
        )

    def test_trivial_coarse(self):
        coarse = make_partition(full(2), [full(2)])
        inner = make_partition(upper_quadrant(2, 1), [upper_quadrant(2, 1)])
        out = extend_from_quadrant(coarse, inner)
        cells_equal(
            out,
            [
                point_region(0, 0),
                region(box(0, (1, OMEGA))),
                region(box((1, OMEGA), 0)),
                upper_quadrant(2, 1),
            ],
        )

    def test_line(self):
        coarse = make_partition(full(1), [full(1)])
        inner = make_partition(upper_quadrant(1, 1), [upper_quadrant(1, 1)])
        out = extend_from_quadrant(coarse, inner)
        cells_equal(out, [point_region(0), upper_quadrant(1, 1)])

    def test_keeps_inner_cells(self):
        rng = random.Random(3)
        p = random_partition(rng, 2, 3, 3)
        q, _ = refine_monotone(p)
        inner = restrict(q, upper_quadrant(2, 1))
        # Building up from a refined quadrant keeps its cells verbatim.
        out = extend_from_quadrant(p, inner)
        for cell in inner.cells:
            assert any(cell.equal(c) for c in out.cells)

    def test_leaves_the_inner_partition_as_it_was(self):
        # The coarse partition adds no cut to the inner one's grid.
        square = region(box((0, 1), (0, 1)))
        coarse = make_partition(full(2), [square, square.complement()])
        corner = point_region(1, 1)
        quadrant = upper_quadrant(2, 1)
        inner = make_partition(quadrant, [corner, quadrant.difference(corner)])
        owner = inner._owner.copy()
        extend_from_quadrant(coarse, inner)
        assert np.array_equal(inner._owner, owner)
        with pytest.raises(ValueError, match="outside the carrier"):
            cell_of(inner, (0, 0))

    def test_precondition_violations(self):
        origin = point_region(0, 0)
        coarse = make_partition(full(2), [origin, origin.complement()])
        not_inner = make_partition(full(2), [full(2)])
        with pytest.raises(PartitionError):
            extend_from_quadrant(coarse, not_inner)


class TestRefine:
    def test_pinned_origin(self):
        origin = point_region(0, 0)
        p = make_partition(full(2), [origin, origin.complement()])
        q, trace = refine_monotone(p)
        cells_equal(
            q,
            [
                origin,
                region(box(0, (1, OMEGA))),
                region(box((1, OMEGA), 0)),
                upper_quadrant(2, 1),
            ],
        )
        assert trace.k0 == 1
        assert len(trace.steps) == 1

    def test_full_unchanged(self):
        for n in (1, 2, 3):
            p = make_partition(full(n), [full(n)])
            q, trace = refine_monotone(p)
            assert q.size == 1
            assert trace.k0 in (0, None)
            assert not trace.steps

    def test_stripes(self):
        a = region(box((0, 1), (0, OMEGA)))
        p = make_partition(full(2), [a, a.complement()])
        q, trace = refine_monotone(p)
        assert refines(q, p)
        assert is_monotone(q)
        assert is_tuned(q, LE) and is_tuned(q, LT)
        assert trace.k0 == 2

    def test_trace_structure(self):
        rng = random.Random(11)
        for n in (2, 3):
            p = random_partition(rng, n, 3, 3)
            q, trace = refine_monotone(p)
            assert trace.dim == n
            assert len(trace.steps) == trace.k0
            for step in trace.steps:
                assert len(step.faces) == 2**n - 1
            assert trace.depth <= n
            assert trace.cells_in == p.size
            assert trace.cells_out == q.size

    def test_determinism(self):
        rng = random.Random(21)
        p = random_partition(rng, 2, 4, 5)
        q1, t1 = refine_monotone(p)
        q2, t2 = refine_monotone(p)
        assert json.dumps(t1.to_json(), sort_keys=True) == json.dumps(
            t2.to_json(), sort_keys=True
        )
        assert json.dumps(q1.to_json(), sort_keys=True) == json.dumps(
            q2.to_json(), sort_keys=True
        )

    def test_soundness_small_corpus(self):
        rng = random.Random(2024)
        for n in (1, 2):
            for _ in range(10):
                p = random_partition(rng, n, rng.randint(1, 4), rng.randint(0, 5))
                q, _ = refine_monotone(p)
                assert refines(q, p)
                assert is_monotone(q)
                assert is_tuned(q, LE)
                assert is_tuned(q, LT)

    def test_rejects_subcarrier(self):
        p = make_partition(upper_quadrant(2, 1), [upper_quadrant(2, 1)])
        with pytest.raises(PartitionError):
            refine_monotone(p)


class TestMaxCoord:
    """Bounds at MAX_COORD = 2^63 - 1 pass through the box table and the JSON text."""

    @staticmethod
    def partition():
        # F = {(0,0)}, C = [1, MAX_COORD]x[0,w) | [2,w)x[0,w) | {0}x[1,w).
        f = point_region(0, 0)
        c = region(
            box((1, MAX_COORD), (0, OMEGA)), box((2, OMEGA), (0, OMEGA)), box(0, (1, OMEGA))
        )
        return make_partition(full(2), [f, c])

    def test_refine_verify_writes_the_pinned_bytes(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(self.partition().to_json()))
        out = tmp_path / "out.json"
        assert main(["refine", "--partition", str(path), "--verify", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        # The bytes this input gave when the refiner's cells were Regions.
        assert digest == "d1cf980115a4140efb14c0a86acc6b56a514319eeaaf6e47fb1ad56e59a99f4b"

    def test_cells_equal_the_partition_made_from_regions(self):
        q, _ = refine_monotone(self.partition())
        quadrant = region(box((1, MAX_COORD), (1, OMEGA)), box((2, OMEGA), (1, OMEGA)))
        assert q.cells[3] == quadrant  # the kept quadrant cell keeps its boxes
        lines = [region(box(0, (1, OMEGA))), region(box((1, OMEGA), 0))]
        assert [q.cells[i] for i in range(q.size)] == [point_region(0, 0), *lines, quadrant]
        again = make_partition(full(2), list(refine_monotone(self.partition())[0].cells))
        assert q == again and again == q and hash(q) == hash(again)
        assert q.to_json() == again.to_json()
        assert np.array_equal(q._owner, again._owner)


def _subtraces(trace):
    yield trace
    for step in trace.steps:
        for face in step.faces:
            yield from _subtraces(face.sub)


class TestSubProblemMemo:
    """Equal face sub-problems are refined once per top-level call."""

    def test_memo_hits_within_a_call_only(self, monkeypatch, tmp_path):
        levels, planes = [], []
        extend, plane_rule = boxmodal.refine._extend_core, boxmodal.refine._plane_rule

        def spy_extend(cells, s, memo):
            levels.append(s)
            return extend(cells, s, memo)

        def spy_plane(grid, labels, k0, quadrant, memo):
            planes.append(k0)
            return plane_rule(grid, labels, k0, quadrant, memo)

        monkeypatch.setattr(boxmodal.refine, "_extend_core", spy_extend)
        monkeypatch.setattr(boxmodal.refine, "_plane_rule", spy_plane)
        p = square(3, 6)
        counts, texts = [], []
        for _ in range(2):
            levels.clear()
            planes.clear()
            _, trace = refine_monotone(p)
            counts.append((len(levels), len(planes)))
            texts.append(json.dumps(trace.to_json(), sort_keys=True))
        # A memo hit hands back the stored trace object, so the distinct
        # subtraces are the sub-problems refined.  The plane rule refines each
        # nested plane with k0 > 0 in one call and the level loop the rest, one
        # call per extension step; refining every face anew would make one
        # call per extension step of the whole trace.
        every = sum(len(t.steps) for t in _subtraces(trace))
        distinct = {id(t): t for t in _subtraces(trace)}.values()
        assert counts[0] == counts[1]
        assert sorted(planes) == sorted(t.k0 for t in distinct if t.dim == 2 and t.k0)
        assert len(levels) + sum(planes) == sum(len(t.steps) for t in distinct)
        assert (counts[0], every) == ((6, 5), 51)
        assert texts[0] == texts[1]
        golden = TestGridSizing.golden["square_n3_c6"]["sha256"]
        assert refine_digest(p.to_json(), str(tmp_path)) == golden

    def test_lines_and_points_skip_compression_and_the_memo(self, monkeypatch, tmp_path):
        compress, refine_atoms = boxmodal.refine._compress, boxmodal.refine._refine_atoms
        compressed, dims = [], []

        def spy_compress(grid, labels):
            compressed.append(grid.dim)
            return compress(grid, labels)

        def spy_refine_atoms(grid, labels, count, memo, *args):
            dims.append(grid.dim)
            return refine_atoms(grid, labels, count, memo, *args)

        monkeypatch.setattr(boxmodal.refine, "_compress", spy_compress)
        monkeypatch.setattr(boxmodal.refine, "_refine_atoms", spy_refine_atoms)
        p = square(3, 6)
        _, trace = refine_monotone(p)
        # Point faces are labelled in place and line faces refined in the
        # face step; the top-level call and every plane face of a refined
        # sub-problem make one call each.  Only the input's grid is
        # compressed: a face hands its sub-problem down on the face's grid.
        distinct = {id(t): t for t in _subtraces(trace)}.values()
        faces = [f for t in distinct for step in t.steps for f in step.faces]
        assert set(dims) == {2, 3}
        assert len(dims) == 1 + sum(f.sub.dim > 1 for f in faces)
        assert compressed == [3]
        assert sum(f.sub.dim == 1 for f in faces) == 48
        assert len(dims) == 19
        golden = TestGridSizing.golden["square_n3_c6"]["sha256"]
        assert refine_digest(p.to_json(), str(tmp_path)) == golden


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_only_the_outermost_call_gets_the_cofinal_cell(self, monkeypatch, n):
        refine_atoms = boxmodal.refine._refine_atoms
        cofinals = []

        def spy_refine_atoms(grid, labels, count, memo, cofinal=None):
            cofinals.append(cofinal)
            return refine_atoms(grid, labels, count, memo, cofinal)

        monkeypatch.setattr(boxmodal.refine, "_refine_atoms", spy_refine_atoms)
        p = square(n, 3)
        refine_monotone(p)
        # Only faces of dimension 2 or more make nested calls.
        assert (len(cofinals) > 1) == (n == 3)
        # The outermost call gets the top cell's rows of the input's table, as they are.
        top = p.size - 1  # the cofinal cell
        assert p._owner[(-1,) * n] == top
        rows = slice(p.cells.starts[top], p.cells.starts[top + 1])
        assert all(np.array_equal(a, b[rows]) for a, b in zip(cofinals[0], p.cells.table))
        assert all(c is None for c in cofinals[1:])

    def test_nested_quadrant_cell_keeps_its_box_form(self):
        """A nested call's quadrant cell is ``cofinal.intersect(quadrant)``, not the
        canonical form of its atoms, which would be one box [3, w) x [3, w) x {0}."""
        a = region(box((1, 2), (1, OMEGA), 0))
        b = region(box((5, OMEGA), 1, 0))
        p = make_partition(full(3), [a, b, full(3).difference(a).difference(b)])
        q, trace = refine_monotone(p)
        assert (q.size, trace.k0) == (24, 1)
        boxes = [[[3, 4], [3, None], [0, 0]], [[5, None], [3, None], [0, 0]]]
        assert q.cells[cell_of(q, (6, 6, 0))].to_json() == {"dim": 3, "boxes": boxes}


@st.composite
def labelled_lines(draw):
    """A labelled partition of the line: grid with gaps between cuts, labels, cell count.

    The labels end in a run of the top cell.  ``equal`` puts every atom in
    it, and ``top_below`` repeats the top label below the last finite atom.
    """
    kind = draw(st.sampled_from(["equal", "top_below", "any"]))
    top = draw(st.integers(0, 3))
    body = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    if kind == "equal":
        body = [top] * len(body)
    elif kind == "top_below":
        body = [top] + body + [(top + 1) % 4]
    raw = body + [top] * draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(1, 4), min_size=len(raw) - 1, max_size=len(raw) - 1))
    cuts = list(itertools.accumulate([0] + gaps))
    labels = np.unique(raw, return_inverse=True)[1].reshape(-1).astype(np.int32)
    return AtomGrid(1, [cuts]), labels, int(labels.max()) + 1


class TestLineFaces:
    """A line is refined on its uncompressed grid as on its compressed one."""

    @settings(max_examples=150, deadline=None)
    @given(labelled_lines())
    def test_uncompressed_line_refines_like_the_compressed_one(self, line):
        grid, labels, count = line
        cells, trace = _refine_atoms(grid, labels, count, {})
        small, small_trace = _refine_atoms(*_compress(grid, labels), count, {})
        assert cells.count == small.count
        assert all(np.array_equal(a, b) for a, b in zip(cells.table(), small.table()))
        assert json.dumps(trace.to_json()) == json.dumps(small_trace.to_json())


def reference_line(grid, labels, count):
    """A line's refinement and trace as a sub-call of its own made them, before line faces
    were refined in the face step."""
    top = labels[-1]
    finite = (labels != top).nonzero()[0]
    if not finite.size:
        return _Cells(grid, labels, count), RefinementTrace(1, None, count, count, ())
    k0 = grid.cuts[0][finite[-1] + 1] - 1
    line = _Cells(AtomGrid(1, [range(k0 + 2)]), np.arange(k0 + 2, dtype=np.int32), k0 + 2)
    return line, RefinementTrace(1, k0, count, k0 + 2, ())


def placed(rows: BoxTable, coords: tuple[int, ...], s: int, offset: int) -> BoxTable:
    """Box table rows shifted up by s + 1, with the coordinates in ``coords`` inserted and equal
    to s, and the cells renumbered from ``offset``: one table at a time, as ``_Cells.shift_kept``
    moves them all."""
    count, dim = rows.lo.shape
    free = [i for i in range(dim + len(coords)) if i not in coords]
    lo = np.full((count, dim + len(coords)), s, np.uint64)
    end = np.full((count, dim + len(coords)), s + 1, np.uint64)
    lo[:, free] = rows.lo + (s + 1)
    end[:, free] = np.where(rows.end == END_OMEGA, rows.end, rows.end + (s + 1))
    return BoxTable(rows.cell + offset, lo, end)


def reference_place(cells, coords, s, sub):
    """``_Cells.place`` of a face's sub-call result, as it was before line faces were
    placed in closed form."""
    if cells.hold_lines and s == 0 and len(coords) == cells.grid.dim - 1:
        cells.kept.append(placed(sub.table(), coords, 0, cells.count))
        cells.count += sub.count
        return
    free = [i for i in range(cells.grid.dim) if i not in coords]
    shifted = [()] * cells.grid.dim
    for i, sub_cuts in zip(free, sub.grid.cuts):
        shifted[i] = [c + s + 1 for c in sub_cuts]
    arrays = [cells.labels, cells.coarse]
    cells.grid, (cells.labels, cells.coarse) = cells.grid.regrid(shifted, arrays)
    face = _face_index(cells.grid, coords, s)
    labels = sub.labels
    if labels.shape != cells.labels[face].shape:
        _, (labels,) = sub.grid.regrid(_face_cuts(cells.grid, free, face, s), [labels])
    cells.labels[face] = labels + cells.count
    cells.kept.extend(placed(rows, coords, s, cells.count) for rows in sub.kept)
    cells.count += sub.count


@st.composite
def lines_to_place(draw):
    """A partly built ``_Cells`` of dimension 2 or 3, a line face of it and the face's classes.

    Every axis is cut at 0..s+1 and at gaps above.  The classes end in a run
    of the top class; ``equal`` puts every atom in it, and ``top_below``
    repeats the top class below the last atom outside it.  ``hold`` marks the
    outermost call, whose lines of the last layer (s = 0) become kept rows.
    """
    n = draw(st.integers(2, 3))
    s = draw(st.integers(0, 2))
    cuts = []
    for _ in range(n):
        gaps = draw(st.lists(st.integers(1, 4), max_size=4))
        cuts.append(list(range(s + 2)) + list(itertools.accumulate(gaps, initial=s + 1))[1:])
    grid = AtomGrid(n, cuts)
    count = draw(st.integers(1, 5))
    values = draw(st.lists(st.integers(-1, count - 1), min_size=grid.size, max_size=grid.size))
    labels = np.array(values, np.int32).reshape(grid.shape)
    coarse = np.array(draw(st.permutations(values)), np.int32).reshape(grid.shape)
    axis = draw(st.integers(0, n - 1))
    coords = tuple(i for i in range(n) if i != axis)
    hold = draw(st.booleans())
    face = _face_index(grid, coords, s)
    size = len(_face_cuts(grid, (axis,), face, s)[0])
    kind = draw(st.sampled_from(["equal", "top_below", "any"]))
    top = draw(st.integers(0, 3))
    body = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    tail = draw(st.integers(1, size))
    if kind == "equal":
        body = [top] * size
    elif kind == "top_below":
        body = [top] + body[1:]
    raw = body[: size - tail] + [top] * tail
    classes = np.unique(raw, return_inverse=True)[1].reshape(-1)
    quadrant = np.full((1, n), s + 1, np.uint64), np.full((1, n), END_OMEGA, np.uint64)
    kept = [BoxTable(np.zeros(1, np.intp), *quadrant)]
    cells = _Cells(grid, labels, count, kept, coarse, hold_lines=hold)
    return cells, coords, axis, s, classes


def copy_cells(cells):
    return _Cells(
        cells.grid, cells.labels.copy(), cells.count, list(cells.kept), cells.coarse.copy(),
        cells.hold_lines,
    )


class TestLineRule:
    """A line face refined and placed in closed form matches the sub-call it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(lines_to_place())
    def test_matches_a_sub_call_and_place(self, case):
        cells, coords, axis, s, classes = case
        face = _face_index(cells.grid, coords, s)
        (line_cuts,) = _face_cuts(cells.grid, (axis,), face, s)
        count = int(classes.max()) + 1
        new, old = copy_cells(cells), copy_cells(cells)
        cell_count, trace = _line_rule(line_cuts, classes, count)
        new.place_line(coords, axis, s, face, cell_count)
        sub, old_trace = reference_line(AtomGrid(1, [line_cuts]), classes, count)
        reference_place(old, coords, s, sub)
        new.shift_kept()
        old.shift_kept()
        assert cell_count == sub.count
        assert json.dumps(trace.to_json()) == json.dumps(old_trace.to_json())
        assert new.grid.cuts == old.grid.cuts
        assert np.array_equal(new.labels, old.labels)
        assert np.array_equal(new.coarse, old.coarse)
        assert new.count == old.count
        assert len(new.kept) == len(old.kept)
        for a, b in zip(new.kept, old.kept):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_a_long_line_is_checked_up_front(self):
        labels = np.array([1, 0], np.int32)
        with pytest.raises(ValueError, match="atom grid too large"):
            _line_rule((0, MAX_ATOMS), labels, 2)


@st.composite
def quadrant_cells(draw):
    """A grid of dimension 2 or 3 with cuts up to ``MAX_COORD``, one cell's atoms on it, and k."""
    n = draw(st.integers(2, 3))
    near = st.one_of(st.integers(1, 12), st.integers(MAX_COORD - 6, MAX_COORD))
    cuts = [sorted({0, *draw(st.lists(near, max_size=3))}) for _ in range(n)]
    grid = AtomGrid(n, cuts)
    atoms = draw(st.lists(st.booleans(), min_size=grid.size, max_size=grid.size))
    atoms = np.array(atoms).reshape(grid.shape)
    atoms.flat[draw(st.integers(0, grid.size - 1))] = True
    if draw(st.booleans()):  # the cell holds the top atom, so it is cofinal
        atoms[(-1,) * n] = True
    k = draw(st.one_of(st.sampled_from(sorted({c for axis in cuts for c in axis})), near))
    return grid, np.where(atoms, 0, -1), k


class TestNestedQuadrantRows:
    """A nested call's quadrant cell, clipped as rows, matches the Region form."""

    @settings(max_examples=300, deadline=None)
    @given(quadrant_cells())
    def test_matches_region_intersect(self, case):
        grid, labels, k = case
        cell = grid.boxes(labels).regions()[0].intersect(upper_quadrant(grid.dim, k))
        rows = _quadrant_rows(grid.boxes(labels), k)
        expected = BoxTable.of_regions([cell])
        assert all(np.array_equal(a, b) for a, b in zip(rows, expected))
        assert _cofinal(rows) == is_cofinal_in_space(cell)

    def test_a_cell_off_the_top_atom_is_not_cofinal(self):
        grid = AtomGrid(2, [[0, 3], [0, 2, MAX_COORD]])
        labels = np.array([[0, 0, 0], [0, 0, -1]])  # [0, 2] x [0, w) and [3, w) x [0, MAX_COORD)
        rows = _quadrant_rows(grid.boxes(labels), 5)
        assert rows.lo.tolist() == [[5, 5]]
        assert rows.end.tolist() == [[END_OMEGA, MAX_COORD]]
        assert not _cofinal(rows)


@st.composite
def labelled_quadrants(draw):
    """A labelled grid of dimension 2 or 3, cuts up to ``MAX_COORD``, and a k such that only the
    top cell meets [k, w)^n: random labels, with the quadrant's atoms given the top one."""
    n = draw(st.integers(2, 3))
    near = st.one_of(st.integers(1, 12), st.integers(MAX_COORD - 6, MAX_COORD))
    cuts = [sorted({0, *draw(st.lists(near, max_size=4))}) for _ in range(n)]
    grid = AtomGrid(n, cuts)
    labels = draw(st.lists(st.integers(0, 2), min_size=grid.size, max_size=grid.size))
    labels = np.array(labels).reshape(grid.shape)
    k = draw(st.one_of(st.sampled_from(sorted({c for axis in cuts for c in axis})), near))
    labels[_quadrant_index(grid, k)] = labels[(-1,) * n]
    return grid, labels, k


def boxes_quadrant_rows(grid: AtomGrid, labels: np.ndarray, k: int) -> BoxTable:
    """The top cell's canonical rows clipped to [k, w)^n, as the nested call read them before."""
    return _quadrant_rows(grid.boxes(np.where(labels == labels[(-1,) * grid.dim], 0, -1)), k)


class TestQuadrantCellFromLabels:
    """``_quadrant_cell`` reads the rows that the top cell's canonical rows leave in the
    quadrant straight from the labels."""

    @staticmethod
    def assert_same_rows(grid, labels, k):
        rows, expected = _quadrant_cell(grid, labels, k), boxes_quadrant_rows(grid, labels, k)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(rows, expected))
        assert _cofinal(rows)
        return rows

    @settings(max_examples=300, deadline=None)
    @given(labelled_quadrants())
    def test_matches_the_clipped_canonical_rows(self, case):
        self.assert_same_rows(*case)

    def test_several_runs_past_the_quadrant_atom_on_a_plane(self):
        # Two other cells below y = 2 at x in [4, 5] and x >= 9: three runs along x past k = 2.
        grid = AtomGrid(2, [[0, 2, 4, 6, 9], [0, 1, 2]])
        labels = np.full(grid.shape, 2)
        labels[2, :2], labels[4, 1] = 0, 1
        rows = self.assert_same_rows(grid, labels, 2)
        assert rows.lo.tolist() == [[2, 2], [4, 2], [6, 2], [9, 2]]
        assert rows.end.tolist() == [[4, END_OMEGA], [6, END_OMEGA], [9, END_OMEGA],
                                     [END_OMEGA, END_OMEGA]]

    def test_several_runs_past_the_quadrant_atom_on_a_cube(self):
        grid = AtomGrid(3, [[0, 1, 3], [0, 1, 2, 5], [0, 1]])
        labels = np.full(grid.shape, 1)
        labels[1, 2, 0] = labels[2, 1, 0] = 0
        rows = self.assert_same_rows(grid, labels, 1)
        assert len(rows.cell) == 5

    def test_a_top_cell_filling_its_window_is_one_row(self):
        grid = AtomGrid(2, [[0, 3, 7], [0, 5]])
        labels = np.array([[0, 0], [1, 1], [1, 1]])  # [3, w) x [0, w) fills its window
        rows = self.assert_same_rows(grid, labels, 4)
        assert rows.lo.tolist() == [[4, 4]]
        assert rows.end.tolist() == [[END_OMEGA, END_OMEGA]]

    def test_a_nested_call_reads_its_quadrant_cell_from_its_labels(self, monkeypatch):
        calls = []

        def spy(grid, labels, k):
            rows = _quadrant_cell(grid, labels, k)
            calls.append(k)
            assert all(np.array_equal(a, b)
                       for a, b in zip(rows, boxes_quadrant_rows(grid, labels, k)))
            return rows

        monkeypatch.setattr(boxmodal.refine, "_quadrant_cell", spy)
        refine_monotone(square(3, 4))
        assert calls and all(k > 0 for k in calls)


def split_cofinal(p: Partition, rng: random.Random) -> Partition:
    """``p`` with boxes of its cofinal cell repeated and joined by boxes inside them (some
    reaching below the threshold), that cell's boxes shuffled, and the cells too."""
    cells = list(p.cells)
    top = int(p._owner[(-1,) * p.dim])
    boxes = list(cells[top].boxes)
    for b in rng.sample(boxes, rng.randint(1, len(boxes))):
        inner = []
        for iv in b.intervals:
            lo = iv.lo + rng.randint(0, 2)
            if iv.hi is OMEGA:
                inner.append(Interval(lo, rng.choice([OMEGA, lo + rng.randint(0, 3)])))
            else:
                lo = min(lo, iv.hi)
                inner.append(Interval(lo, rng.randint(lo, iv.hi)))
        boxes += [b, Box(tuple(inner))]
    rng.shuffle(boxes)
    cells[top] = Region(p.dim, tuple(boxes))
    rng.shuffle(cells)
    return make_partition(full(p.dim), cells)


def region_quadrant_rows(cell: BoxTable, k: int) -> BoxTable:
    """``_quadrant_rows`` in the Region form the refiner once took: ``Region.intersect`` with
    the quadrant, which drops duplicate and covered boxes."""
    (r,) = cell.regions().values()
    return BoxTable.of_regions([r.intersect(upper_quadrant(r.dim, k))])


class TestOutermostQuadrantRows:
    """The outermost call clips the input's rows of its cofinal cell and prunes duplicate and
    covered boxes, as the Region form did, and the output is what that form gave."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**30))
    def test_split_cofinal_cells_refine_as_the_region_form(self, n, seed):
        rng = random.Random(seed)
        p = split_cofinal(random_partition(rng, n, rng.randint(1, 6), rng.randint(1, 4)), rng)
        q, trace = refine_monotone(p)
        with mock.patch.object(boxmodal.refine, "_quadrant_rows", region_quadrant_rows):
            q_ref, trace_ref = refine_monotone(p)
        assert q.to_json() == q_ref.to_json()
        assert trace.to_json() == trace_ref.to_json()
        assert tables_equal(q.cells.table, q_ref.cells.table)
        assert q._grid.cuts == q_ref._grid.cuts

    def test_the_kept_rows_are_pruned_and_the_grid_shrinks(self):
        # [3, 5] x [2, w) lies inside [2, w) x [1, w), and that box comes again.
        top = region(box((2, OMEGA), (1, OMEGA)), box(1, (1, OMEGA)), box((3, 5), (2, OMEGA)),
                     box((2, OMEGA), (1, OMEGA)))
        p = make_partition(full(2), [point_region(0, 0), region(box(0, (1, OMEGA))),
                                     region(box((1, OMEGA), 0)), top])
        cofinal = p.cells.rows(p._owner[-1, -1])
        rows = _prune_rows(_quadrant_rows(cofinal, 1))
        assert rows.cell.size == 2 and tables_equal(rows, region_quadrant_rows(cofinal, 1))
        q, trace = refine_monotone(p)
        with mock.patch.object(boxmodal.refine, "_quadrant_rows", region_quadrant_rows):
            q_ref, trace_ref = refine_monotone(p)
        with mock.patch.object(boxmodal.refine, "_prune_rows", lambda rows: rows):
            unpruned, _ = refine_monotone(p)
        assert trace.k0 == 1 and tables_equal(q.cells.table, q_ref.cells.table)
        assert unpruned.cells.table.cell.size == q.cells.table.cell.size + 2
        assert q._grid.size < unpruned._grid.size
        assert (q.to_json(), trace.to_json()) == (q_ref.to_json(), trace_ref.to_json())
        assert unpruned.to_json() == q.to_json()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_refining_reads_no_cell_as_a_region(self, n):
        """The input's cells stay rows: no ``Partition.cells`` index, no ``Region.intersect``."""
        rng = random.Random(n)
        p = split_cofinal(random_partition(rng, n, 4, 3), rng)
        assert len(p.cells[p._owner[(-1,) * n]].boxes) > 1
        calls = []

        def spy(name, method):
            def spied(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return spied

        with mock.patch.object(TableCells, "__getitem__", spy("index", TableCells.__getitem__)), \
                mock.patch.object(Region, "intersect", spy("intersect", Region.intersect)):
            q, trace = refine_monotone(p)
        assert trace.k0 and q is not p
        assert calls == []


def nested_plane(cuts, raw):
    """The grid, labels, k0 and quadrant rows of a nested sub-problem of the plane, from cuts
    and one label per atom (numbered afresh, as classes are)."""
    grid = AtomGrid(2, cuts)
    labels = np.unique(raw, return_inverse=True)[1].reshape(grid.shape)
    k0 = _atom_threshold(grid, labels)
    top = np.where(labels == labels[-1, -1], 0, -1)
    return grid, labels, k0, _quadrant_rows(grid.boxes(top), k0)


@st.composite
def planes(draw):
    """A nested sub-problem of the plane with 0 < k0 <= 16, as ``_refine_atoms`` bounds
    (k0 + 1)^2 before it grows one.

    Most cuts are small, so that lines end at k0 - 1, past it or past every
    earlier line.  One axis may also have far cuts: a line that reaches one
    needs too many cells; the farthest is one past ``MAX_COORD``.  (A line that passes that check and grows too large a grid
    is left to an example: the level loop builds its cuts before the grid
    check fails.)
    """
    near = st.integers(1, 12)
    far = st.one_of(near, near, st.sampled_from([2 * MAX_ATOMS, MAX_COORD + 1]))
    far_axis = draw(st.integers(0, 1))
    cuts = [
        sorted({0, *draw(st.lists(far if axis == far_axis else near, max_size=5))})
        for axis in range(2)
    ]
    size = len(cuts[0]) * len(cuts[1])
    kinds = draw(st.integers(2, 4))
    raw = draw(st.lists(st.integers(0, kinds - 1), min_size=size, max_size=size))
    case = nested_plane(cuts, raw)
    assume(0 < case[2] <= 16)
    return case


def line_faces(steps):
    """Per level, from k0 - 1 down: s, and the line faces x = s and y = s."""
    return [(step.level - 1, step.faces[0], step.faces[1]) for step in steps]


class TestPlaneRule:
    """A nested plane refined in closed form matches the level loop it replaces."""

    @staticmethod
    def assert_same(grid, labels, k0, quadrant):
        try:
            old, old_steps = _grow(grid, labels, k0, quadrant, False, {})
        except ValueError as exc:
            with pytest.raises(ValueError) as new_exc:
                _plane_rule(grid, labels, k0, quadrant)
            assert str(new_exc.value) == str(exc)
            return None
        new, new_steps = _plane_rule(grid, labels, k0, quadrant)
        assert new.grid.cuts == old.grid.cuts
        assert new.labels.dtype == old.labels.dtype == np.int32
        assert np.array_equal(new.labels, old.labels)
        assert new.count == old.count
        assert (new.coarse, new.hold_lines) == (old.coarse, old.hold_lines) == (None, False)
        assert len(new.kept) == len(old.kept) == 1
        assert all(np.array_equal(a, b) for a, b in zip(new.kept[0], old.kept[0]))
        assert [s.to_json() for s in new_steps] == [s.to_json() for s in old_steps]
        return new_steps

    @settings(max_examples=300, deadline=None)
    @given(planes())
    def test_matches_the_level_loop(self, case):
        self.assert_same(*case)

    def test_k0_one_with_a_line_of_no_finite_atom(self):
        case = nested_plane([[0, 1], [0, 1]], [1, 0, 0, 0])  # the point (0, 0) on its own
        assert case[2] == 1
        (s, x, y), = line_faces(self.assert_same(*case))
        assert (s, x.sub.k0, y.sub.k0, x.cell_count) == (0, None, None, 1)

    def test_labels_beyond_k0_and_beyond_every_line_end(self):
        # k0 = 2; the line x = 1 holds other labels up to y = 5, the line x = 0 up to y = 8.
        labels = [[0, 0, 0, 1, 2], [0, 0, 3, 0, 0], [0, 0, 0, 0, 0]]
        case = nested_plane([[0, 1, 2], [0, 1, 3, 6, 9]], [v for row in labels for v in row])
        assert case[2] == 2
        (one, x1, _), (zero, x0, _) = line_faces(self.assert_same(*case))
        assert (one, one + 1 + x1.sub.k0) == (1, 5)  # the line x = 1 ends at y = 5 > k0
        assert (zero, zero + 1 + x0.sub.k0) == (0, 8)  # x = 0 ends past it, at y = 8
        # Rows 1..5 of the line x = 0 are one class each; past them, labels 1 and the top.
        assert x0.atom_count == 5 + 2

    @pytest.mark.parametrize(
        "far, message",
        [
            (MAX_ATOMS + 5, f"the refinement needs at least {MAX_ATOMS + 5} atoms"),
            (MAX_ATOMS // 2 + 8, f"atom grid too large: {2 * (MAX_ATOMS // 2 + 9)} atoms"),
        ],
    )
    def test_past_max_atoms_the_same_check_fails(self, far, message):
        # The point (0, 0) and the line x = 0 up to far - 1: k0 = 1, and the line ends at far - 1.
        case = nested_plane([[0, 1], [0, 1, far]], [0, 1, 2, 2, 2, 2])
        assert case[2] == 1
        self.assert_same(*case)
        with pytest.raises(ValueError, match=message):
            _plane_rule(*case)


@st.composite
def renumbered_planes(draw):
    """A labelled partition of the plane as a face hands it down (grid, labels, count), and its
    labels with the cell numbers permuted.  One axis may be cut at 2^63, one past
    ``MAX_COORD``; a line reaching that far needs too many cells."""
    near = st.integers(1, 6)
    far = st.one_of(near, near, st.just(MAX_COORD + 1))
    far_axis = draw(st.integers(0, 1))
    cuts = [
        sorted({0, *draw(st.lists(far if axis == far_axis else near, max_size=4))})
        for axis in range(2)
    ]
    grid = AtomGrid(2, cuts)
    count = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(0, count - 1), min_size=grid.size, max_size=grid.size))
    labels = np.array(raw, np.intp).reshape(grid.shape)
    permutation = np.array(draw(st.permutations(range(count))), np.intp)
    return grid, labels, permutation[labels], count


def assert_same_result(a, b, labels_too=True):
    (cells, trace), (other, other_trace) = a, b
    assert cells.grid.cuts == other.grid.cuts and cells.count == other.count
    assert np.array_equal(cells.labels, other.labels) == labels_too or not labels_too
    assert len(cells.kept) == len(other.kept)
    for rows, other_rows in zip(cells.kept, other.kept):
        assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(rows, other_rows))
    assert json.dumps(trace.to_json()) == json.dumps(other_trace.to_json())


class TestRenumberedPlanes:
    """A nested plane whose cells are numbered otherwise is refined once: its labels are read
    only through equality, so the result is the same but for an unrefined plane's labels,
    which are the caller's own."""

    @settings(max_examples=300, deadline=None)
    @given(renumbered_planes())
    def test_a_permutation_of_the_cells_hits_the_memo(self, case):
        grid, labels, permuted, count = case
        try:
            first = _refine_atoms(grid, labels, count, {})
        except ValueError as exc:
            with pytest.raises(ValueError) as again:
                _refine_atoms(grid, permuted, count, {})
            assert str(again.value) == str(exc)
            return
        fresh = _refine_atoms(grid, permuted, count, {})
        k0 = first[1].k0
        assert_same_result(first, fresh, labels_too=bool(k0))
        if not k0:  # an unrefined plane is its own grid and labels
            assert fresh[0].grid is grid and np.array_equal(fresh[0].labels, permuted)
        memo = {}
        stored = _refine_atoms(grid, labels, count, memo)
        with mock.patch.object(boxmodal.refine, "_plane_rule") as plane_rule:
            hit = _refine_atoms(grid, permuted, count, memo)
        plane_rule.assert_not_called()
        assert hit[1] is stored[1]
        assert_same_result(hit, fresh)
        if k0:
            assert hit[0] is stored[0]
        else:
            assert hit[0].grid is grid and np.array_equal(hit[0].labels, permuted)

    def test_an_unrefined_plane_hands_back_the_callers_labels(self):
        grid = AtomGrid(2, [[0, 3], [0]])
        memo = {}
        stored, stored_trace = _refine_atoms(grid, np.array([[2], [2]], np.intp), 3, memo)
        for own in (1, 0, 2):  # 0 is also the renumbered label
            cells, trace = _refine_atoms(grid, np.array([[own], [own]], np.intp), 3, memo)
            assert trace.k0 == 0 and trace is stored_trace
            assert (cells.grid.cuts, cells.labels.tolist()) == (((0, 3), (0,)), [[own], [own]])
        assert stored.labels.tolist() == [[2], [2]]

    def test_a_renumbered_cube_is_refined_anew(self):
        """Dimension 3 keeps exact keys: its face classes are numbered from its labels."""
        grid = AtomGrid(3, [[0, 2, 3]] * 3)
        labels = np.ones(grid.shape, np.intp)
        labels[0, 0, 0], labels[1, 1, 1] = 0, 2
        permuted = np.array([2, 0, 1], np.intp)[labels]
        memo = {}
        grow = boxmodal.refine._grow
        with mock.patch.object(boxmodal.refine, "_grow", wraps=grow) as spy:
            first = _refine_atoms(grid, labels, 3, memo)
            again = _refine_atoms(grid, permuted, 3, memo)
            assert all(a is b for a, b in zip(_refine_atoms(grid, labels, 3, memo), first))
        assert spy.call_count == 2 and first[1].k0 == 3
        assert again[1] is not first[1]
        assert_same_result(again, _refine_atoms(grid, permuted, 3, {}))
        assert json.dumps(again[1].to_json()) == json.dumps(first[1].to_json())


class TestStructuralBounds:
    """The bounds checked at the end of each layer-by-layer growth fail loudly."""

    SCRIPT = """
import boxmodal.refine
from boxmodal import box, full, make_partition, region

extend = boxmodal.refine._extend_core
boxmodal.refine._extend_core = lambda cells, s, memo: extend(cells, s, memo)[1:]
square = region(box((0, 2), (0, 2)))
try:
    boxmodal.refine.refine_monotone(make_partition(full(2), [square, square.complement()]))
except RuntimeError as exc:
    print(__debug__, exc)
"""

    PLANE_SCRIPT = """
import boxmodal.refine
from boxmodal import box, full, make_partition, region
from boxmodal.refine import LevelStep

plane_rule = boxmodal.refine._plane_rule

def dropped(*args):
    cells, steps = plane_rule(*args)
    return cells, tuple(LevelStep(step.level, step.faces[1:]) for step in steps)

boxmodal.refine._plane_rule = dropped
cube = region(box((0, 2), (0, 2), (0, 2)))
try:
    boxmodal.refine.refine_monotone(make_partition(full(3), [cube, cube.complement()]))
except RuntimeError as exc:
    print(__debug__, exc)
"""

    def test_a_dropped_face_raises(self, monkeypatch):
        extend = boxmodal.refine._extend_core
        monkeypatch.setattr(
            boxmodal.refine, "_extend_core", lambda cells, s, memo: extend(cells, s, memo)[1:]
        )
        with pytest.raises(RuntimeError, match="one face per nonempty coordinate set"):
            refine_monotone(square(2, 3))

    def test_a_plane_trace_missing_a_face_raises(self, monkeypatch):
        plane_rule = boxmodal.refine._plane_rule

        def dropped(*args):
            cells, steps = plane_rule(*args)
            return cells, tuple(LevelStep(step.level, step.faces[1:]) for step in steps)

        monkeypatch.setattr(boxmodal.refine, "_plane_rule", dropped)
        with pytest.raises(RuntimeError, match="one face per nonempty coordinate set"):
            refine_monotone(square(3, 3))

    def test_a_subtrace_deeper_than_the_dimension_raises(self, monkeypatch):
        # Every point face now reports a subtrace of depth 2, so a plane's trace has depth 3.
        point = boxmodal.refine._POINT
        deep = RefinementTrace(0, None, 1, 1, (LevelStep(1, (FaceStep((), 1, 1, 1, point),)),))
        monkeypatch.setattr(boxmodal.refine, "_POINT", deep)
        with pytest.raises(RuntimeError, match="recursion deeper than the dimension"):
            refine_monotone(square(2, 3))

    @staticmethod
    def run_under_python_O(script):
        src = str(Path(boxmodal.refine.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        expected = "False structural bound failed: one face per nonempty coordinate set"
        assert result.stdout.strip() == expected

    def test_a_dropped_face_raises_under_python_O(self):
        self.run_under_python_O(self.SCRIPT)

    def test_a_plane_trace_missing_a_face_raises_under_python_O(self):
        self.run_under_python_O(self.PLANE_SCRIPT)


def reaching_max_coord(p: Partition, rng: random.Random) -> Partition:
    """``p`` with every bound but a lower 0 moved up by one shift so that the largest finite one
    is ``MAX_COORD - 1``, then one box of some cell, unbounded on an axis from l, written as
    two boxes of that cell, from l to ``MAX_COORD`` and from l + 1 on: the same partition, on
    a grid cut at 2^63 on that axis."""
    bounds = [x for c in p.cells for b in c.boxes for iv in b.intervals for x in (iv.lo, iv.hi)]
    shift = MAX_COORD - 1 - max(x for x in bounds if x is not OMEGA)

    def move(iv: Interval) -> Interval:
        return Interval(iv.lo and iv.lo + shift, iv.hi if iv.hi is OMEGA else iv.hi + shift)

    cells = [[Box(tuple(map(move, b.intervals))) for b in c.boxes] for c in p.cells]
    c, k, axis = rng.choice([
        (c, k, axis) for c, boxes in enumerate(cells) for k, b in enumerate(boxes)
        for axis, iv in enumerate(b.intervals) if iv.hi is OMEGA
    ])
    ivs = list(cells[c][k].intervals)
    lo = ivs[axis].lo
    ivs[axis] = Interval(lo, MAX_COORD)
    cells[c][k] = Box(tuple(ivs))
    ivs[axis] = Interval(lo + 1, OMEGA)
    cells[c].append(Box(tuple(ivs)))
    return make_partition(full(p.dim), [Region(p.dim, tuple(boxes)) for boxes in cells])


class TestGridSizing:
    """The refiner's atom grid grows only where some cell changes."""

    golden = {c["name"]: c for c in json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]}

    @pytest.mark.parametrize(
        "name, build",
        [
            ("probe_far_cut", probe_far_cut),
            ("probe_long_line", probe_long_line),
            ("probe_split_axes_50", lambda: probe_split_axes(50)),
            ("probe_split_axes_200", lambda: probe_split_axes(200)),
        ],
    )
    def test_probe_matches_golden_within_a_second(self, name, build, tmp_path):
        p = build()
        assert p.to_json() == self.golden[name]["input"]
        start = time.perf_counter()
        digest = refine_digest(p.to_json(), str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert digest == self.golden[name]["sha256"]

    def test_fine_cuts_on_different_lines_of_a_face_multiply(self, tmp_path):
        # Inside the recursion each call keeps one grid, a product over the
        # axes: split at 50 the face fits, split at 200 it needs 8.1M atoms.
        p = probe_split_face(50)
        assert refine_digest(p.to_json(), str(tmp_path)) == self.golden["probe_split_face_50"]["sha256"]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="atom grid too large: 8120601 atoms"):
            refine_monotone(probe_split_face(200))
        assert time.perf_counter() - start < 1.0

    def test_label_threshold_matches_the_region_threshold(self):
        """Random partitions, and each again with its bounds moved up to ``MAX_COORD`` and an
        axis cut at 2^63, one past the largest int64 (see ``reaching_max_coord``)."""
        rng = random.Random(5)
        for n in (2, 3):
            for _ in range(20):
                p = random_partition(rng, n, rng.randint(1, 8), rng.randint(0, 8))
                grid, labels = _compress(p._grid, p._owner)
                assert _atom_threshold(grid, labels) == region_cofinal_threshold(p)
                far = reaching_max_coord(p, rng)
                assert any(cuts[-1] == 2**63 for cuts in far._grid.cuts)
                k0 = region_cofinal_threshold(far)
                assert _atom_threshold(far._grid, far._owner) == k0
                assert _atom_threshold(*_compress(far._grid, far._owner)) == k0

    def test_too_many_atoms_fail_before_any_layer(self, tmp_path):
        # A finite square of side C needs (C + 1)^2 atoms; a line, C + 2.
        side = int(MAX_ATOMS**0.5)
        with pytest.raises(ValueError, match="atom grid too large"):
            refine_monotone(square(2, side))
        far = point_region(MAX_ATOMS)
        line = make_partition(full(1), [far, far.complement()])
        with pytest.raises(ValueError, match="atom grid too large"):
            refine_monotone(line)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(square(2, side).to_json()))
        assert main(["refine", "--partition", str(path), "--out", str(tmp_path / "out.json")]) == 2


def same_cells(p: Partition, q: Partition) -> bool:
    """Whether two partitions have the same cells, point for point, numbered alike."""
    grid, (a,) = p._grid.regrid(q._grid.cuts, [p._owner])
    _, (b,) = q._grid.regrid(grid.cuts, [q._owner])
    return p.size == q.size and np.array_equal(a, b)


def refined_text(p: Partition) -> str:
    """The text ``boxmodal refine`` writes for ``p``, but its last newline."""
    q, trace = refine_monotone(p)
    return _json_text({"partition": q, "trace": trace})


@st.composite
def split_lines(draw):
    """A partition of omega^3 or omega^4 into the membership classes of one to three segments
    of lines along an axis, at other coordinates up to 3, each from a start up to 4 to an end
    up to 12, a far one or w.  A segment puts cuts on the grids of the faces it does not
    meet, across which none of their cells changes.  In omega^3 a far end is 40 or 2,100,
    and two ends at 2,100 on different axes need a grid of more than ``MAX_ATOMS`` atoms; in
    omega^4 it is 40."""
    n = draw(st.integers(3, 4))
    far = st.sampled_from([40, 2100] if n == 3 else [40])
    ends = st.one_of(st.integers(0, 12), far, st.none())
    family = []
    for _ in range(draw(st.integers(1, 3))):
        axis = draw(st.integers(0, n - 1))
        ivs = [Interval(at, at) for at in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        lo, hi = draw(st.integers(0, 4)), draw(ends)
        ivs[axis] = Interval(min(lo, hi), max(lo, hi)) if hi is not None else Interval(lo, OMEGA)
        family.append(Region(n, (Box(tuple(ivs)),)))
    return induced(full(n), family)


class TestNestedGrids:
    """A nested sub-problem is refined on its face's grid as the parent cuts it; only the
    input's grid is compressed.  Compressing every sub-problem too (``_compress``) changes no
    byte, and fails the same size check: after ``place`` the parent's grid holds every cut of
    the sub-problem's grid, so no grid passes ``MAX_ATOMS`` only because it is uncompressed.
    """

    @staticmethod
    def assert_as_with_every_sub_problem_compressed(p: Partition) -> None:
        refine_atoms = boxmodal.refine._refine_atoms

        def compressed(grid, labels, *args):
            return refine_atoms(*_compress(grid, labels), *args)

        with mock.patch.object(boxmodal.refine, "_refine_atoms", compressed):
            try:
                expected = refined_text(p)
            except ValueError as exc:
                assert str(exc).startswith("atom grid too large")
                expected = None
        if expected is None:
            with pytest.raises(ValueError, match="^atom grid too large"):
                refined_text(p)
        else:
            assert refined_text(p) == expected

    @settings(max_examples=60, deadline=None)
    @given(split_lines())
    def test_compressing_every_sub_problem_changes_no_byte(self, p):
        self.assert_as_with_every_sub_problem_compressed(p)

    @pytest.mark.parametrize("c", [50, 100, 200])  # at 200 both fail the size check
    def test_split_face_as_with_every_sub_problem_compressed(self, c):
        self.assert_as_with_every_sub_problem_compressed(probe_split_face(c))

    def test_far_lines_fail_in_a_nested_plane_either_way(self):
        """Two lines of omega^3 to 2,100 along different axes: the nested plane that holds
        both fails ``require_grid_size`` with or without the cuts no cell changes across (the
        branch the Hypothesis inputs above reach in about one draw in sixty)."""
        lines = [((0, 2100), (1, 1), (2, 2)), ((3, 3), (0, 2100), (1, 1))]
        family = [Region(3, (Box(tuple(Interval(*iv) for iv in line)),)) for line in lines]
        self.assert_as_with_every_sub_problem_compressed(induced(full(3), family))

    @pytest.mark.parametrize("k", [1, 40])
    def test_strips_refine_as_their_canonical_form(self, k):
        """The cofinal cell given as 2k strips refines as the square's complement does: the
        same trace and the same cells, point for point; the quadrant cell keeps the strips."""
        strips, canonical = probe_strips(k), square(2, k + 1)
        assert same_cells(strips, canonical)
        q, trace = refine_monotone(strips)
        r, canonical_trace = refine_monotone(canonical)
        assert json.dumps(trace.to_json()) == json.dumps(canonical_trace.to_json())
        assert same_cells(q, r)
        assert len(q.cells.table.cell) == len(r.cells.table.cell) + 2 * k


class TestProduct:
    def test_spec_example(self):
        fib_a = make_partition(full(1), [full(1)])
        fib_b = make_partition(
            full(1), [region(box(0), box(2)), point_region(1), upper_quadrant(1, 3)]
        )
        fp = make_fibered(["a", "b"], [("a", "b")], [fib_a, fib_b])
        out, _ = refine_product_finite(fp)
        assert out.fibers[0].size == 4
        assert sum(f.size for f in out.fibers) == 8
        cells_equal(
            out.fibers[0],
            [point_region(0), point_region(1), point_region(2), upper_quadrant(1, 3)],
        )
        assert product_refines(out, fp)
        assert product_tuned(out, LE)

    def test_single_world_no_edges(self):
        fp = make_fibered(["a"], [], [make_partition(full(2), [full(2)])])
        out, _ = refine_product_finite(fp)
        assert out.fibers[0].size == 1
        assert product_tuned(out, LE)

    def test_reflexive_point_world(self):
        origin = point_region(0, 0)
        p = make_partition(full(2), [origin, origin.complement()])
        fp = make_fibered(["a"], [("a", "a")], [p])
        out, _ = refine_product_finite(fp)
        q, _ = refine_monotone(p)
        assert out.fibers[0].size == q.size
        assert all(a.equal(b) for a, b in zip(out.fibers[0].cells, q.cells))
        assert product_tuned(out, LE)

    def test_random_products(self):
        rng = random.Random(77)
        for _ in range(5):
            fp = random_fibered(rng, rng.randint(1, 2), rng.randint(2, 3))
            out, _ = refine_product_finite(fp)
            assert product_refines(out, fp)
            assert product_tuned(out, LE) and product_tuned(out, LT)

    def test_json_roundtrip(self):
        rng = random.Random(13)
        fp = random_fibered(rng, 2, 2)
        from boxmodal import FiberedPartition

        back = FiberedPartition.from_json(fp.to_json())
        assert back.worlds == fp.worlds
        assert back.edges == fp.edges
        for f1, f2 in zip(back.fibers, fp.fibers):
            assert f1.size == f2.size
            assert all(a.equal(b) for a, b in zip(f1.cells, f2.cells))
