"""Monotone refinement of finite partitions of the grid.

Every finite partition of omega^n built from box-union cells admits a finite
monotone refinement, and monotone partitions are tuned for both product
orders.  The construction here is recursive in the dimension:

* dimension 1: if some cell is finite, split the initial segment up to the
  largest point covered by finite cells into singletons and keep the tail
  of the infinite cell;
* dimension n: pick the least threshold k0 such that every cell meeting the
  quadrant [k0, w)^n is cofinal in the whole grid (only one cell can be),
  keep that cell's trace on the quadrant, and grow the refined partition
  back toward the origin one layer at a time.  Layer s adds, for every
  nonempty set I of coordinates, a partition of the face where the
  coordinates in I equal s and the others exceed s.  The face partition
  refines the input and the shadows (images with the coordinates in I set
  to s) of every cell built so far, and is itself refined recursively in
  the lower dimension.

The construction runs on the atom quotient (see ``atomgrid``), and
``_refine_atoms`` is the one refiner at every depth.  Each call holds its
partition as one int label per atom of one grid: the grid it is given, cut
also at 0..k0 and wherever a sub-call's result needs it, all added by
``AtomGrid.regrid``.  A face is an index slice of that array.  The shadows
of the built cells on a face are the sets of labels along the fibers above
it, and ``partition.induced`` groups the face's atoms into membership
classes.  A face's sub-problem goes down, and its result comes back, as
labels.  The cells leave as one box table (``AtomGrid.boxes``), built once
at the end and handed to ``Partition`` as it is; only each call's quadrant
cell keeps its own rows, its cofinal cell's rows clipped to the quadrant
(``_quadrant_rows``, or for a nested call ``_quadrant_cell``).  The faces
of a layer, their free axes and subsets come from one plan per n.
``refine_monotone`` drops the cuts of the input's grid across which no cell
changes (``_compress``), once, and makes the outermost call on that grid,
the only one given the input's cofinal cell, as that cell's rows of the
input's box table: its quadrant cell (on a line, the tail above k0) keeps
the input's boxes, pruned as ``Region.intersect`` prunes, and the line
faces of its last layer become kept rows, off its grid.  A nested call
gets its face's grid as it is, and reads its quadrant cell from its
labels: the canonical rows (``AtomGrid.boxes``) of its cofinal cell that
the clip leaves are those of the same walk (``AtomGrid._collect``) started
at the quadrant atom, with every lower bound raised to k0.  A call whose
grid would exceed ``MAX_ATOMS`` raises ValueError up front.

Lower-dimensional faces repeat: within one outermost call, a sub-problem
of dimension 2 or more (its grid, labels and cell count) is refined once,
through every check, and later faces reuse that result.  A nested plane
reads its labels only through equality, so on a miss it is looked up again
with its cells numbered in order of first occurrence, and one partition
numbered many ways is refined once; an unrefined one hands back its
caller's grid and labels.  Dimension 3 and up keep exact keys: their face
classes are numbered from the labels.  The memo also holds one object per
equal leaf trace and nested-plane face, so ``cli._trace_text`` formats each
distinct subtrace once.  The memo is local to the call, so it holds at most
the distinct face sub-problems and traces of one refinement.  Kept rows,
a nested result's (``_Cells.place``) and the outermost call's held lines
(``_Cells.place_line``), wait in one list and are shifted into place at
once at the end of the call (``_Cells.shift_kept``).  Lines and points make no sub-call: the face
step refines a line face in closed form (``_line_rule``) and labels it in
place, and a point face is one new cell, labelled in place.  A nested plane
makes no level loop: once its threshold and the quadrant cell read from
its labels are checked, ``_plane_rule`` writes its cells and trace in one
pass, the same ones the loop (``_grow``) would, failing the same size
checks.  The outermost call keeps the loop in every dimension, the plane
too: its quadrant cell keeps the input's boxes and its last layer's lines
become kept rows, which the closed form does not model, and
``perfbench/test_perfbench.py`` counts the face step's ``induced`` calls
when it refines a square of the plane.

A trace records the threshold, the per-layer face work, and recursive
subtraces; identical inputs yield identical traces and outputs.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import cache, reduce
from typing import Optional, Sequence

import numpy as np

from .atomgrid import END_OMEGA, MAX_ATOMS, AtomGrid, BoxTable, require_grid_size
from .partition import (
    Partition,
    PartitionError,
    _tuned_pass,
    induced,
    is_monotone,
    refines,
    restrict,
)
from .region import MAX_COORD, OrderKind, Point, full, upper_quadrant


@dataclass(frozen=True)
class FaceStep:
    coords: tuple[int, ...]
    family_size: int
    atom_count: int
    cell_count: int
    sub: "RefinementTrace"

    def to_json(self) -> dict:
        return {
            "coords": list(self.coords),
            "family_size": self.family_size,
            "atom_count": self.atom_count,
            "cell_count": self.cell_count,
            "sub": self.sub.to_json(),
        }


@dataclass(frozen=True)
class LevelStep:
    level: int
    faces: tuple[FaceStep, ...]

    def to_json(self) -> dict:
        return {"level": self.level, "faces": [f.to_json() for f in self.faces]}


@dataclass(frozen=True)
class RefinementTrace:
    """Deterministic record of one refinement run."""

    dim: int
    k0: Optional[int]
    cells_in: int
    cells_out: int
    steps: tuple[LevelStep, ...]
    # 1 plus the deepest face's depth, stored so that a shared subtrace is walked once.
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        depth = 1 + max((f.sub.depth for s in self.steps for f in s.faces), default=0)
        object.__setattr__(self, "depth", depth)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "k0": self.k0,
            "cells_in": self.cells_in,
            "cells_out": self.cells_out,
            "steps": [s.to_json() for s in self.steps],
        }


def _require_full_carrier(p: Partition) -> None:
    if not p.carrier.equal(full(p.dim)):
        raise PartitionError("carrier_mismatch", "refinement expects a full carrier")


def _require_atoms(size: int) -> None:
    if size > MAX_ATOMS:
        raise ValueError(f"atom grid too large: the refinement needs at least {size} atoms")


def refine_monotone_1d(p: Partition) -> Partition:
    """Monotone refinement over the line.

    Partitions whose cells are all infinite come back unchanged.  Otherwise
    everything up to the largest point lying in a finite cell becomes a
    singleton and each infinite cell keeps its tail.
    """
    if p.dim != 1:
        raise ValueError("refine_monotone_1d expects dimension 1")
    return refine_monotone(p)[0]


def cofinal_threshold(p: Partition) -> int:
    """Least k such that every cell meeting [k, w)^n is cofinal in the grid; 0 in dimension 0.

    It is ``_atom_threshold`` of the partition's owner array, the one the refiner reads.
    """
    _require_full_carrier(p)
    return _atom_threshold(p._grid, p._owner) if p.dim else 0


@cache
def _face_plan(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[tuple, ...]], ...]:
    """The faces of a layer in dimension n, by size: coordinate set, free axes, proper subsets."""
    sets = [c for size in range(n + 1) for c in itertools.combinations(range(n), size)]
    return tuple(
        (c, tuple(sorted(set(range(n)) - set(c))), tuple(d for d in sets if set(d) < set(c)))
        for c in sets[1:]
    )


# -- partitions as atom labels ----------------------------------------------------


def _quadrant_index(grid: AtomGrid, k: int) -> tuple[slice, ...]:
    """Index of the atoms that meet [k, w)^n."""
    return tuple(slice(bisect.bisect_right(c, k) - 1, None) for c in grid.cuts)


def _face_index(grid: AtomGrid, coords: tuple[int, ...], s: int) -> tuple:
    """Index of the atoms where the coordinates in ``coords`` equal s and the others exceed s.

    Both s and s + 1 must be cuts of every axis.
    """
    return tuple(
        bisect.bisect_left(c, s) if i in coords else slice(bisect.bisect_left(c, s + 1), None)
        for i, c in enumerate(grid.cuts)
    )


def _face_cuts(grid: AtomGrid, free: tuple[int, ...], face: tuple, s: int) -> list[list[int]]:
    """The cuts of a face's free axes, in the face's coordinates (shifted down by s + 1)."""
    return [[c - s - 1 for c in grid.cuts[i][face[i].start :]] for i in free]


def _compress(grid: AtomGrid, labels: np.ndarray) -> tuple[AtomGrid, np.ndarray]:
    """Drop the cuts across which no cell changes; with none to drop, the grid itself."""
    cuts = list(grid.cuts)
    for axis, c in enumerate(grid.cuts):
        if len(c) == 1:
            continue
        along = labels.swapaxes(0, axis)
        change = (along[1:] != along[:-1]).reshape(len(c) - 1, -1).any(axis=1)
        if not change.all():
            keep = [0, *(change.nonzero()[0] + 1).tolist()]
            labels = labels.take(keep, axis=axis)
            cuts[axis] = [c[i] for i in keep]
    if labels.shape == grid.shape:
        return grid, labels
    return AtomGrid._sorted(grid.dim, cuts), labels


def _atom_threshold(grid: AtomGrid, labels: np.ndarray) -> int:
    """Least k such that only the cofinal cell, the one on the top atom, meets [k, w)^n, of a
    labelled partition of the full grid of dimension 1 or more.

    An atom meets [k, w)^n exactly when the least of its upper bounds, its reach, is at least
    k.  Upper bounds are read from the cuts as int64, the unbounded last atom of an axis
    reaching ``MAX_COORD``: only the top atom is unbounded on every axis, and a finite bound
    is at most ``MAX_COORD``, so every other atom's reach is its least finite bound.
    """
    top = labels[(-1,) * grid.dim]
    his = [np.array([c - 1 for c in cuts[1:]] + [MAX_COORD], np.int64) for cuts in grid.cuts]
    reach = reduce(np.minimum.outer, his)
    below = reach[labels != top]
    k0 = int(below.max()) + 1 if below.size else 0
    # The closed form above is checked against the defining property.
    if (labels[_quadrant_index(grid, k0)] != top).any():
        raise RuntimeError("threshold check failed: non-cofinal cell meets the quadrant")
    if k0 > 0 and not (labels[_quadrant_index(grid, k0 - 1)] != top).any():
        raise RuntimeError("threshold is not minimal")
    return k0


def _line_rule(cuts: Sequence[int], labels: np.ndarray, count: int) -> tuple[int, RefinementTrace]:
    """Cell count and trace of ``refine_monotone`` of a labelled line of ``count`` cells.

    With every atom in the top cell, the line is that cell.  Otherwise the atom after the
    last one outside it starts at k0 + 1, and cell j is the point j up to k0, then [k0 + 1, w).
    """
    finite = (labels != labels[-1]).nonzero()[0]
    if not finite.size:
        return count, RefinementTrace(1, None, count, count, ())
    k0 = cuts[finite[-1] + 1] - 1
    _require_atoms(k0 + 2)
    return k0 + 2, RefinementTrace(1, k0, count, k0 + 2, ())


def _quadrant_rows(cell: BoxTable, k: int) -> BoxTable:
    """A cell's rows clipped to [k, w)^m, as cell 0: every lower bound raised to k, and the
    rows left empty dropped.

    A nested call's cell is canonical (``AtomGrid.boxes``): its boxes are pairwise disjoint,
    and so are what is left of them, so these are the rows of ``Region.intersect`` with the
    quadrant.  The outermost call's cell is the input's rows, which ``_prune_rows`` prunes
    after the clip as ``Region.intersect`` does.
    """
    lo = np.maximum(cell.lo, k)
    keep = (cell.end > lo).all(axis=1)
    return BoxTable(np.zeros(np.count_nonzero(keep), np.intp), lo[keep], cell.end[keep])


def _quadrant_cell(grid: AtomGrid, labels: np.ndarray, k: int) -> BoxTable:
    """``_quadrant_rows`` of the top cell's canonical rows (``AtomGrid.boxes``), read from the
    labels of a partition whose only cell meeting [k, w)^m is the top one.

    A canonical row is left after the clip exactly when it reaches, on every axis, the
    quadrant atom, the one holding k: the top cell walked from that atom (``_collect``),
    with every lower bound raised to k.
    """
    start = [index.start for index in _quadrant_index(grid, k)]
    spans = np.array(grid._collect(labels == labels[(-1,) * grid.dim], start), np.intp)
    rows = grid._span_rows(np.zeros(len(spans), np.intp), spans[..., 0], spans[..., 1])
    return rows._replace(lo=np.maximum(rows.lo, k))


def _prune_rows(rows: BoxTable) -> BoxTable:
    """The rows without those that repeat an earlier row or lie inside another, in order: the
    boxes ``Region._prune`` keeps."""
    lo, end = rows.lo, rows.end
    covers = (lo[:, None] <= lo[None]).all(axis=2) & (end[None] <= end[:, None]).all(axis=2)
    same = covers & covers.T
    drop = (covers & ~same).any(axis=0) | np.triu(same, 1).any(axis=0)
    return BoxTable(*(a[~drop] for a in rows))


def _cofinal(rows: BoxTable) -> bool:
    """Whether a cell is cofinal in the grid, from its rows: some row is unbounded on every axis."""
    return bool((rows.end == END_OMEGA).all(axis=1).any())


@dataclass
class _Cells:
    """A partition of omega^m as one int label per atom of a grid.

    Cells are numbered 0..count-1, and -1 marks atoms no cell covers yet.
    The cells in ``kept`` keep those box table rows when the partition
    becomes a box table; every other cell takes the canonical form that
    ``AtomGrid.boxes`` gives it.  A kept cell need not be on the grid.
    While the partition grows, ``coarse`` labels the input partition on the
    same grid, and ``pending`` holds the kept rows of placed faces and held
    lines, each as (rows, coords, s, offset), in the face's own coordinates,
    until ``shift_kept`` moves them into ``kept``.
    """

    grid: AtomGrid
    labels: np.ndarray
    count: int
    kept: list[BoxTable] = field(default_factory=list)
    coarse: Optional[np.ndarray] = None
    hold_lines: bool = False
    pending: list[tuple[BoxTable, tuple[int, ...], int, int]] = field(default_factory=list)

    def place(
        self, coords: tuple[int, ...], free: tuple[int, ...], s: int, face: tuple,
        cuts: list[list[int]], sub: "_Cells",
    ) -> None:
        """Put a face's refined partition where the coordinates in ``coords`` equal s.

        ``sub`` is in the face's own coordinates, the ``free`` ones shifted
        down by s + 1; ``face`` and ``cuts`` are the face's index and cuts.
        The sub's cuts land at s + 1 or above, so the index holds on a grown grid.
        """
        shifted: list[Sequence[int]] = [()] * self.grid.dim
        for i, sub_cuts in zip(free, sub.grid.cuts):
            shifted[i] = [c + s + 1 for c in sub_cuts]
        grid = self.grid
        self.grid, (self.labels, self.coarse) = grid.regrid(shifted, [self.labels, self.coarse])
        if self.grid is not grid:
            cuts = _face_cuts(self.grid, free, face, s)
        labels = sub.labels
        if labels.shape != self.labels[face].shape:  # the face has cuts the sub lacks
            _, (labels,) = sub.grid.regrid(cuts, [labels])
        self.labels[face] = labels + self.count
        self.pending.extend((rows, coords, s, self.count) for rows in sub.kept)
        self.count += sub.count

    def shift_kept(self) -> None:
        """Move the ``pending`` kept rows into ``kept``, each table up by its face's s + 1, with
        the face's coordinates inserted and equal to s, and the cells renumbered from its
        offset.  The tables of faces with as many fixed coordinates are shifted at once, each
        row's bounds built fixed axes first and then put in axis order.  Each cell's rows stay
        together and in order."""
        groups: dict[int, list[tuple[BoxTable, tuple[int, ...], int, int]]] = {}
        for entry in self.pending:
            groups.setdefault(len(entry[1]), []).append(entry)
        self.pending = []
        n = self.grid.dim
        for fixed, entries in groups.items():
            sizes = [len(rows.cell) for rows, _, _, _ in entries]
            cell, lo, end = (np.concatenate(parts) for parts in zip(*(e[0] for e in entries)))
            s = np.repeat(np.array([e[2] for e in entries], np.uint64), sizes)[:, None]
            lo = np.concatenate((s.repeat(fixed, 1), lo + (s + 1)), axis=1)
            end = np.where(end == END_OMEGA, end, end + (s + 1))
            end = np.concatenate(((s + 1).repeat(fixed, 1), end), axis=1)
            order = [[*c, *(i for i in range(n) if i not in c)] for _, c, _, _ in entries]
            at = np.argsort(order, axis=1).repeat(sizes, axis=0)  # where each axis's bound sits
            rows = np.arange(len(cell))[:, None]
            offsets = np.repeat(np.array([e[3] for e in entries], np.intp), sizes)
            self.kept.append(BoxTable(cell + offsets, lo[rows, at], end[rows, at]))

    def place_line(self, coords: tuple, axis: int, s: int, face: tuple, count: int) -> None:
        """Put a line face's ``_line_rule`` result, ``count`` cells, where the coordinates in
        ``coords`` equal s: cell j is the point s + 1 + j of the free ``axis``, the last one
        the rest of the line.  With ``hold_lines``, the lines of the last layer (s = 0) become
        kept rows off the grid, pending like a placed face's: no later face projects them, and
        on this grid their cuts would multiply with others.
        """
        if self.hold_lines and s == 0:
            line = AtomGrid._sorted(1, [range(count)]).boxes(np.arange(count))
            self.pending.append((line, coords, 0, self.count))
        else:
            shifted: list[Sequence[int]] = [()] * self.grid.dim
            shifted[axis] = range(s + 1, s + count + 1)
            arrays = [self.labels, self.coarse]
            self.grid, (self.labels, self.coarse) = self.grid.regrid(shifted, arrays)
            at = np.array(self.grid.cuts[axis][face[axis].start :]) - (s + 1)
            self.labels[face] = np.minimum(at, count - 1) + self.count
        self.count += count

    def table(self) -> BoxTable:
        """Every cell as box table rows: kept ones as given, the others canonical."""
        labels = self.labels
        if self.kept:
            kept = np.zeros(self.count + 1, dtype=bool)  # the last entry stands for -1
            for rows in self.kept:
                kept[rows.cell] = True
            labels = np.where(kept[labels], -1, labels)
        return BoxTable.concat([self.grid.boxes(labels), *self.kept])


# Of one top-level call: the refined sub-problems, by (cuts, int64 label bytes, count); one
# object per equal leaf trace, by itself; and one per equal line or point face of a nested
# plane, by (coords, family size, atom count, cell count).
_Memo = dict
# The trace of every point face.
_POINT = RefinementTrace(0, None, 1, 1, ())


def _face_profiles(
    cells: _Cells, coords: tuple[int, ...], free: tuple[int, ...], face: tuple, coarse: np.ndarray
) -> np.ndarray:
    """Membership rows of a face's atoms, one per atom in row-major order.

    A row, along a last axis after the face's shape, holds the atom's coarse
    cell, then the set of built cells whose shadow contains the atom: the
    labels along the fiber of built atoms that setting the coordinates in
    ``coords`` to s maps onto it, sorted, with repeats -1 in front.
    """
    n = cells.grid.dim
    block = cells.labels[
        tuple(slice(face[i], None) if i in coords else face[i] for i in range(n))
    ]
    fibers = block.transpose(free + coords).reshape(*coarse.shape, -1)
    rows = fibers[..., 1:].copy()  # column 0 is the face atom itself
    rows.sort(axis=-1)
    rows[..., 1:][rows[..., 1:] == rows[..., :-1]] = -1
    rows.sort(axis=-1)
    return np.concatenate((coarse[..., None], rows), axis=-1)


def _extend_core(cells: _Cells, s: int, memo: _Memo) -> tuple[FaceStep, ...]:
    """Extend a monotone partition of [s+1, w)^n to [s, w)^n.

    ``cells`` covers [s+1, w)^n and refines its ``coarse`` partition there.
    The points with least coordinate s are covered face by face, ordered by
    how many coordinates equal s.
    """
    built = {(): cells.count}
    faces: list[FaceStep] = []
    for coords, free, subsets in _face_plan(cells.grid.dim):
        face = _face_index(cells.grid, coords, s)
        coarse = cells.coarse[face]
        meets = int(np.count_nonzero(np.bincount(coarse.ravel())))
        family_size = meets + sum(built[sub] for sub in subsets)
        if not free:  # a single point: one new cell, labelled in place
            cells.labels[face] = cells.count
            cells.count += 1
            atom_count, cell_count, subtrace = 1, 1, _POINT
        else:
            cuts = _face_cuts(cells.grid, free, face, s)
            face_grid = AtomGrid._sorted(len(free), cuts)
            classes = induced(face_grid, _face_profiles(cells, coords, free, face, coarse))
            atom_count = int(classes.max()) + 1
            if len(free) == 1:  # a line, in closed form
                cell_count, subtrace = _line_rule(cuts[0], classes, atom_count)
                subtrace = memo.setdefault(subtrace, subtrace)
                cells.place_line(coords, free[0], s, face, cell_count)
            else:
                sub, subtrace = _refine_atoms(face_grid, classes, atom_count, memo)
                cells.place(coords, free, s, face, cuts, sub)
                cell_count = sub.count
        built[coords] = cell_count
        faces.append(FaceStep(coords, family_size, atom_count, cell_count, subtrace))
    return tuple(faces)


def _grow(
    grid: AtomGrid, labels: np.ndarray, k0: int, quadrant: BoxTable, outermost: bool, memo: _Memo
) -> tuple[_Cells, tuple[LevelStep, ...]]:
    """Grow a labelled partition's refinement from its quadrant cell outward, one layer per
    level, from k0 - 1 down to 0; the refined cells and the steps of the trace."""
    m = grid.dim
    fine, (coarse,) = grid.regrid([range(k0 + 1)] * m, [labels])
    inner = np.full(fine.shape, -1, dtype=np.int32)
    inner[_quadrant_index(fine, k0)] = 0
    cells = _Cells(fine, inner, 1, [quadrant], coarse, hold_lines=outermost)
    steps = tuple(
        LevelStep(level, _extend_core(cells, level - 1, memo)) for level in range(k0, 0, -1)
    )
    cells.coarse = None  # the memo keeps only what ``place`` reads
    cells.shift_kept()
    return cells, steps


def _line_facts(along: Sequence[int], rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Of each row of labels along an axis cut at ``along``: the last point whose label is not
    the one of the row's last atom, or -1; and per atom, how many distinct labels the row holds
    from that atom on."""
    ends, kinds = [], []
    for row in rows:
        j = len(row)
        while j and row[j - 1] == row[-1]:
            j -= 1
        ends.append(along[j] - 1)
        seen: set[int] = set()
        suffix = []
        for v in reversed(row):
            seen.add(v)
            suffix.append(len(seen))
        kinds.append(suffix[::-1])
    return ends, kinds


def _plane_rule(
    grid: AtomGrid, labels: np.ndarray, k0: int, quadrant: BoxTable, memo: Optional[_Memo] = None
) -> tuple[_Cells, tuple[LevelStep, ...]]:
    """``_grow`` of a nested labelled partition of the plane, in closed form.

    Name the axes x and y, and let coarse be the labels.  Level s adds the
    line x = s (points (s, y), y > s), then the line y = s, then the point
    (s, s).  Take the line x = s; the line y = s is its mirror image, with
    its own ends.  The face step classes the line's points by their coarse
    label and the set of built cells on the ray {(x', y) : x' > s}.  For
    s < y < k0 that set holds the point cell (y, y), on no other ray.  For
    y >= k0 it holds the quadrant cell and, on each line x = s' with
    s < s' < k0, the point cell (s', y), on no other ray, while y is at most
    that line's end e(s'), and the line's tail cell past it.  So, with
    r = max(k0 - 1, e(s') for s < s' < k0), the points s + 1..r are classes
    of one point each, and past r only the coarse label tells points apart:
    the line has (r - s) + (the coarse labels on y > r) classes, and its top
    atom lies past r.  The line rule ends the line at the last point outside
    the top class: e(s) = max(r, last(s)), where last(s) is the last y > s
    with coarse(s, y) unlike coarse(s, w), or s if there is none.  As r is a
    running max, so is e: e(s) = max(k0 - 1, last(s') for s <= s' < k0), and
    e(s) = s only where s = k0 - 1 and the line has no class outside the
    top one.  The line holds e(s) - s + 1 cells, the points s + 1..e(s) and
    the tail from e(s) + 1, and puts cuts at s + 1..e(s) + 1 on the y axis.
    Its family is its coarse labels and the cells built before the level;
    the point's family adds both lines' cells.

    The checks of ``_grow`` fail here at the same point with the same text:
    each line's cell count, then the size of the grid it grows.  The cells
    are numbered as ``_grow`` numbers them (the quadrant, then per level the
    line x = s, the line y = s and the point) and painted in one pass on the
    final grid, whose y axis is cut at 0..e(0) + 1 and x axis at the mirror
    ends, besides the input's cuts.  A face, and a line's trace, equal to one
    already in ``memo`` is that object.
    """
    memo = {} if memo is None else memo
    cx, cy = grid.cuts
    # Per side, lines x = s (along y) then lines y = s (along x): the cuts along and across the
    # lines, and the facts of the rows that hold a line, the atoms that start below k0.
    along, across = (cy, cx), (cx, cy)
    facts = [
        _line_facts(cy, labels[: bisect.bisect_left(cx, k0)].tolist()),
        _line_facts(cx, labels[:, : bisect.bisect_left(cy, k0)].T.tolist()),
    ]
    # The line ends so far and the size of the axis the lines grow, from 0..k0 cut in.
    reach = [k0 - 1, k0 - 1]
    size = [k0 + 1 + len(c) - bisect.bisect_right(c, k0) for c in along]
    require_grid_size(size[0] * size[1])
    count = 1
    steps, paints = [], []  # per s, from k0 - 1 down
    for s in range(k0 - 1, -1, -1):
        faces = []
        for side, (c, (last, kinds)) in enumerate(zip(along, facts)):
            i = bisect.bisect_right(across[side], s) - 1
            r = reach[side]
            e = reach[side] = max(r, last[i])
            if e > s:
                _require_atoms(e - s + 1)
            size[side] = e + 2 + len(c) - bisect.bisect_right(c, e + 1)
            require_grid_size(size[0] * size[1])
            row = kinds[i]
            meets = row[bisect.bisect_right(c, s + 1) - 1]
            atoms = r - s + row[bisect.bisect_right(c, r + 1) - 1]
            key = ((side,), meets + count, atoms, e - s + 1)
            face = memo.get(key)
            if face is None:
                line = RefinementTrace(1, e - s - 1 if e > s else None, atoms, e - s + 1, ())
                face = memo[key] = FaceStep(*key, memo.setdefault(line, line))
            faces.append(face)
        ex, ey = reach
        both = ex + ey - 2 * s + 2  # the cells of both lines
        key = ((0, 1), 1 + count + both, 1, 1)
        face = memo.get(key)
        if face is None:
            face = memo[key] = FaceStep(*key, _POINT)
        faces.append(face)
        steps.append(LevelStep(s + 1, tuple(faces)))
        paints.append((count - s - 1, ex + 1, count + ex - 2 * s, ey + 1, count + both))
        count += both + 1
    ex, ey = reach
    cuts = [
        [*range(ey + 2), *(c for c in cx if c > ey + 1)],
        [*range(ex + 2), *(c for c in cy if c > ex + 1)],
    ]
    # Paint on atom indices: they are the points up to e(0) + 1, and past it all that
    # matters is that they exceed k0 and the line ends.  Per s, ascending: the line x = s
    # is row s, from row_at + min(y, row_cap); the line y = s is column s below it, from
    # col_at + min(x, col_cap); the point (s, s) is last.
    row_at, row_cap, col_at, col_cap, point = np.array(paints[::-1]).T
    at = np.arange(k0)
    paint = np.zeros((len(cuts[0]), len(cuts[1])), dtype=np.int32)
    paint[:k0] = row_at[:, None] + np.minimum(np.arange(len(cuts[1])), row_cap[:, None])
    down = np.arange(len(cuts[0]))[:, None]
    np.copyto(paint[:, :k0], col_at + np.minimum(down, col_cap), where=down > at)
    paint[at, at] = point
    return _Cells(AtomGrid._sorted(2, cuts), paint, count, [quadrant]), tuple(steps)


def _renumbered(labels: np.ndarray) -> tuple[int, ...]:
    """The labels numbered 0, 1, ... in order of first occurrence (row-major).

    A tuple, never equal to the bytes of an exact key: the entry of an unrefined plane holds
    the labels of the call that stored it.
    """
    first: dict[int, int] = {}
    return tuple([first.setdefault(v, len(first)) for v in labels.ravel().tolist()])


def _refine_atoms(
    grid: AtomGrid, labels: np.ndarray, count: int, memo: _Memo, cofinal: Optional[BoxTable] = None
) -> tuple[_Cells, RefinementTrace]:
    """``refine_monotone`` of a labelled partition of the full grid into ``count`` cells.

    The outermost call gets the input's grid compressed (``_compress``), and a
    nested one the face's grid as ``_extend_core`` cuts it; an unrefined call
    hands back the grid and labels it was given.  From dimension 2 on, the
    result is looked up in ``memo`` by the grid, labels and count, and stored
    there; callers only read it.  A nested plane missing there is looked up
    again with its cells renumbered in order of first occurrence
    (``_renumbered``), and its result stored under both keys.  A line follows
    ``_line_rule`` on its own grid, and a nested plane ``_plane_rule``; the
    rest grow level by level (``_grow``).  Equal leaf traces, and equal faces
    of nested planes, are one object through the memo.
    ``cofinal``, the input's cofinal cell as its box table rows, marks the
    outermost call, which clips it to its quadrant with ``_quadrant_rows``
    and prunes what is left of the input's rows (``_prune_rows``).  Nested
    calls read the clip of that cell's canonical rows (those of
    ``AtomGrid.boxes``) from their labels with ``_quadrant_cell``.
    """
    m = grid.dim
    if m == 1:
        out, trace = _line_rule(grid.cuts[0], labels, count)
        if trace.k0 is None:
            return _Cells(grid, labels, count), trace
        line = _Cells(AtomGrid._sorted(1, [range(out)]), np.arange(out, dtype=np.int32), out)
        if cofinal is not None:
            tail = _prune_rows(_quadrant_rows(cofinal, trace.k0 + 1))
            line.kept.append(tail._replace(cell=tail.cell + trace.k0 + 1))
        return line, trace
    keys = [(grid.cuts, labels.astype(np.int64, copy=False).tobytes(), count)]
    found = memo.get(keys[0])
    if found is not None:
        return found
    outermost = cofinal is not None
    if m == 2 and not outermost:
        # A nested plane reads its labels only through equality: its threshold, quadrant
        # cell, ``_plane_rule`` and every check.  Only an unrefined one returns them.
        keys.append((grid.cuts, _renumbered(labels), count))
        found = memo.get(keys[1])
        if found is not None:
            cells, trace = found
            if not trace.k0:
                cells = _Cells(grid, labels, count)
            memo[keys[0]] = cells, trace
            return cells, trace
    k0 = _atom_threshold(grid, labels)
    if not k0:
        trace = RefinementTrace(m, 0, count, count, ())
        found = _Cells(grid, labels, count), memo.setdefault(trace, trace)
        for key in keys:
            memo[key] = found
        return found
    if outermost:
        quadrant = _prune_rows(_quadrant_rows(cofinal, k0))
    else:
        quadrant = _quadrant_cell(grid, labels, k0)
    if not _cofinal(quadrant):
        raise RuntimeError("restriction to the quadrant lost cofinality")
    _require_atoms((k0 + 1) ** m)
    if m == 2 and not outermost:
        cells, steps = _plane_rule(grid, labels, k0, quadrant, memo)
    else:
        cells, steps = _grow(grid, labels, k0, quadrant, outermost, memo)
    trace = RefinementTrace(m, k0, count, cells.count, steps)
    # Structural bounds on the run: one extension step per quadrant layer,
    # one face per nonempty coordinate set, recursion no deeper than m.
    if len(trace.steps) != k0:
        raise RuntimeError("structural bound failed: one extension step per layer")
    if any(len(step.faces) != 2**m - 1 for step in trace.steps):
        raise RuntimeError("structural bound failed: one face per nonempty coordinate set")
    if trace.depth > m:
        raise RuntimeError("structural bound failed: recursion deeper than the dimension")
    for key in keys:
        memo[key] = cells, trace
    return cells, trace


def extend_from_quadrant(coarse: Partition, inner: Partition) -> Partition:
    """Validated one-layer extension; see ``_extend_core`` for the construction."""
    if coarse.dim != inner.dim:
        raise ValueError("partition dimensions differ")
    _require_full_carrier(coarse)
    if not inner.carrier.equal(upper_quadrant(inner.dim, 1)):
        raise PartitionError("carrier_mismatch", "inner partition must cover [1, w)^n")
    if not is_monotone(inner):
        raise PartitionError("not_monotone", "inner partition is not monotone")
    if not refines(inner, restrict(coarse, upper_quadrant(coarse.dim, 1))):
        raise PartitionError("not_refining", "inner partition does not refine the restriction")
    grid, (outer,) = coarse._grid.regrid(inner._grid.cuts, [coarse._owner])
    _, (labels,) = inner._grid.regrid(grid.cuts, [inner._owner.copy()])  # a copy: written below
    kept = [inner.cells.table]
    cells = _Cells(grid, labels, inner.size, kept, outer, hold_lines=True)
    _extend_core(cells, 0, {})
    cells.shift_kept()
    return Partition._of_boxes(coarse.dim, full(coarse.dim), cells.table())


def refine_monotone(p: Partition) -> tuple[Partition, RefinementTrace]:
    """Finite monotone refinement of a partition of the full grid."""
    _require_full_carrier(p)
    if p.dim == 0:
        return p, RefinementTrace(0, None, p.size, p.size, ())
    cofinal = p.cells.rows(p._owner[(-1,) * p.dim])
    cells, trace = _refine_atoms(*_compress(p._grid, p._owner), p.size, {}, cofinal)
    if not trace.k0:
        return p, trace
    return Partition._of_boxes(p.dim, full(p.dim), cells.table()), trace


# -- products with a finite frame ---------------------------------------------------


@dataclass(frozen=True)
class FiberedPartition:
    """Partition of grid x finite frame, stored as one fiber per world."""

    dim: int
    worlds: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    fibers: tuple[Partition, ...]

    def fiber(self, world: str) -> Partition:
        return self.fibers[self.worlds.index(world)]

    def to_json(self) -> dict:
        return {
            "worlds": list(self.worlds),
            "edges": [list(e) for e in self.edges],
            "fibers": {w: f.to_json() for w, f in zip(self.worlds, self.fibers)},
        }

    @classmethod
    def from_json(cls, obj: object) -> "FiberedPartition":
        if not isinstance(obj, dict):
            raise ValueError("fibered partition must be a JSON object")
        worlds = obj.get("worlds")
        if not isinstance(worlds, list) or not worlds or not all(isinstance(w, str) for w in worlds):
            raise ValueError("field 'worlds' must be a nonempty list of strings")
        raw_edges = obj.get("edges", [])
        if not isinstance(raw_edges, list):
            raise ValueError("field 'edges' must be a list of [source, target] pairs")
        for e in raw_edges:
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"edge {e!r} is not a [source, target] pair")
        raw_fibers = obj.get("fibers")
        if not isinstance(raw_fibers, dict) or set(raw_fibers) != set(worlds):
            raise ValueError("field 'fibers' must map every world to a partition")
        fibers = tuple(Partition.from_json(raw_fibers[w]) for w in worlds)
        return make_fibered(worlds, raw_edges, fibers)


def make_fibered(
    worlds: Sequence[str],
    edges: Sequence[tuple[str, str]],
    fibers: Sequence[Partition],
) -> FiberedPartition:
    worlds = tuple(worlds)
    if len(set(worlds)) != len(worlds):
        raise ValueError("world names must be distinct")
    if len(fibers) != len(worlds):
        raise ValueError("one fiber per world is required")
    dims = {f.dim for f in fibers}
    if len(dims) != 1:
        raise ValueError("fibers must share a dimension")
    dim = dims.pop()
    for w, f in zip(worlds, fibers):
        if not f.carrier.equal(full(dim)):
            raise PartitionError("carrier_mismatch", f"fiber of world {w!r} must cover the grid")
    seen = set()
    ordered = []
    for raw in edges:
        e = (raw[0], raw[1])
        if e[0] not in worlds or e[1] not in worlds:
            raise ValueError(f"edge {e!r} does not join two listed worlds")
        if e not in seen:
            seen.add(e)
            ordered.append(e)
    return FiberedPartition(dim, worlds, tuple(ordered), tuple(fibers))


def refine_product_finite(fp: FiberedPartition) -> tuple[FiberedPartition, RefinementTrace]:
    """Tuned refinement of a partition of grid x finite frame.

    All fibers are refined jointly: the common refinement of every fiber
    cell is made monotone once, and every world receives that partition.
    The result is tuned in the product frame for both base orders.
    """
    splitters = [cell for f in fp.fibers for cell in f.cells]
    base = induced(full(fp.dim), splitters)
    refined, trace = refine_monotone(base)
    out = FiberedPartition(
        fp.dim, fp.worlds, fp.edges, tuple(refined for _ in fp.worlds)
    )
    return out, trace


@dataclass(frozen=True)
class ProductTunedViolation:
    source_world: str
    source_cell: int
    target_world: str
    target_cell: int
    witness: Point

    def to_json(self) -> dict:
        return {
            "source_world": self.source_world,
            "source_cell": self.source_cell,
            "target_world": self.target_world,
            "target_cell": self.target_cell,
            "witness": list(self.witness),
        }


def product_tuned_violation(
    fp: FiberedPartition, order: OrderKind
) -> Optional[ProductTunedViolation]:
    """Tuned check on the product frame: cells are (world, fiber cell) pairs.

    Each edge (g, h) is one tuned pass of g's fiber cells against h's on their joint grid.
    """
    checked: set[tuple[int, int]] = set()
    for g, h in fp.edges:
        pg, ph = fp.fiber(g), fp.fiber(h)
        if (id(pg), id(ph)) not in checked:
            checked.add((id(pg), id(ph)))
            grid, (source,) = pg._grid.regrid(ph._grid.cuts, [pg._owner])
            _, (target,) = ph._grid.regrid(grid.cuts, [ph._owner])
            v = _tuned_pass(grid, source, target, ph.size, order)
            if v is not None:
                return ProductTunedViolation(g, v.source, h, v.target, v.witness)
    return None


def product_tuned(fp: FiberedPartition, order: OrderKind) -> bool:
    return product_tuned_violation(fp, order) is None


def product_refines(fine: FiberedPartition, coarse: FiberedPartition) -> bool:
    """Worldwise refinement of fibered partitions over the same frame."""
    if fine.worlds != coarse.worlds:
        raise ValueError("fibered partitions are over different world sets")
    return all(refines(f, c) for f, c in zip(fine.fibers, coarse.fibers))
