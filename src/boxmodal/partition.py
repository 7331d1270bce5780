"""Partitions of box-definable carriers and the tuned / monotone checkers.

A partition holds a carrier region and pairwise disjoint nonempty cells
covering it.  Cells are kept in a canonical order, ascending by each cell's
lexicographically least point, so equal partitions always enumerate their
cells identically.

The checkers decide, exactly:

* tuned: whenever one cell contains a point below some point of another
  cell, every point of the first cell lies below some point of the second;
* monotone: every cell is cofinal in its hull, and the set of varying
  coordinates never shrinks when moving up along the componentwise order.

Both checks run on the finite atom quotient of the partition (see
``atomgrid``), which is exact for box-union regions.  Cells are one box
table (``TableCells``), built validated from Regions (``make_partition``),
which it keeps, or trusted from a table (``Partition._of_boxes``), whose
Regions are made only when asked for.  A partition paints its read-only
owner array (each atom's cell, in the grid's shape) from the table once,
the only place cells become atom labels, or takes the one that
``make_partition`` painted to validate the cells.  Consumers needing the
cuts of a valuation, generators or another partition too join them to its
grid with ``AtomGrid.regrid``.
Which cells see which is one ``AtomGrid.sees`` pass, in blocks of bounded
size.  The monotone check reads every cell's varying axes and hull from
the owner array and checks hull cofinality with one gather before that
pass.

Both checks first try every cell's top atom t_j, the highest index of its
atoms on every axis (``Partition._tops``).  The downset of a cell that owns
its top is the top's: every atom of the cell lies below the top on every
axis, and an atom that sees one atom sees every atom above it.  The atoms
that see t_j, by the rule of ``sees``, are the box from the origin to a
corner c_j: under <= c_j = t_j, and under < c_j = t_j - 1 on every axis
where t_j is not the unbounded last atom (the box is empty where that is
-1).  So when every cell owns its top, cell i meets cell j's downset when
one of its atoms lies in the box, and lies within it when its top does.
The partition is then tuned exactly when, on every axis, the running
maximum of the owners' top coordinates up to c_j is at most c_j; and
monotone, once the hulls hold, when the running OR of the owners'
varying-axis masks up to t_j has no axis outside cell j's mask.  Each
costs a pass per axis over an array of atoms, instead of ``sees``'s bit
per atom and target cell.  A check that finds a violation this way, or a
partition with a cell missing its top, takes the ``sees`` pass, which
names the first violating pair and its witness.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Optional

import numpy as np

from .atomgrid import END_OMEGA, AtomGrid, BoxTable, bit_column, first_bit, runs, unpack
from .region import DimensionMismatch, OrderKind, Point, Region, full


class PartitionError(ValueError):
    """Invalid partition; carries the failing kind and a witnessing region."""

    def __init__(self, kind: str, message: str, witness: Optional[Region] = None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class TableCells(Sequence):
    """The cells of a partition as one box table, and as Regions made when first asked for.

    The table's rows are sorted by cell, and the cells are numbered 0 up
    in their canonical order.  Cells given as Regions keep those Regions.
    Equality and hashing are those of the table.
    """

    __slots__ = ("table", "starts", "_all")

    def __init__(self, table: BoxTable, starts: list[int], regions: Optional[tuple] = None):
        self.table = table
        self.starts = starts  # cell i has rows starts[i] to starts[i + 1]
        self._all: Optional[tuple[Region, ...]] = regions

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i):
        if self._all is None and not isinstance(i, slice):
            i = range(len(self))[operator.index(i)]
            return self.rows(i).regions()[i]
        return self.regions()[i]

    def __iter__(self):
        return iter(self.regions())

    def rows(self, i: int) -> BoxTable:
        """Cell i's rows of the table."""
        return BoxTable(*(a[self.starts[i] : self.starts[i + 1]] for a in self.table))

    def regions(self) -> tuple[Region, ...]:
        if self._all is None:
            self._all = tuple(self.table.regions().values())
        return self._all

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.table, other.table))

    def __hash__(self) -> int:
        return hash((self.table.lo.tobytes(), self.table.end.tobytes(), tuple(self.starts)))

    def __repr__(self) -> str:
        return repr(self.regions())

    def to_json(self) -> list[dict]:
        """``Region.to_json`` of every cell; a cell of one box is written from its row."""
        lo, end = self.table.lo, self.table.end
        pairs = np.empty((*lo.shape, 2), np.uint64)
        pairs[..., 0] = lo
        np.subtract(end, 1, out=pairs[..., 1])
        pairs = pairs.tolist()
        for row, axis in zip(*(a.tolist() for a in (end == END_OMEGA).nonzero())):
            pairs[row][axis][1] = None
        dim, starts = lo.shape[1], self.starts
        return [
            {"dim": dim, "boxes": pairs[a:b]} if b - a == 1 else self[i].to_json()
            for i, (a, b) in enumerate(zip(starts, starts[1:]))
        ]


@dataclass(frozen=True)
class Partition:
    dim: int
    carrier: Region
    cells: TableCells

    @property
    def size(self) -> int:
        return len(self.cells)

    @classmethod
    def _of_boxes(cls, dim: int, carrier: Region, table: BoxTable) -> "Partition":
        """The partition of a box table's cells, its rows grouped by cell; callers guarantee the
        invariants.

        Each cell keeps its rows in order.  The cells are numbered by their least points, the
        least lower corners of their boxes: one lexicographic sort of all rows, the cell its
        last key so that it has one in dimension 0 (two cells never share a corner).
        """
        rows = table.cell.size
        starts, sizes = runs(table.cell)
        rank = np.empty(rows, np.intp)
        rank[np.lexsort((table.cell, *table.lo.T[::-1]))] = np.arange(rows)
        first = np.minimum.reduceat(rank, starts)  # each cell's least corner, as a rank
        by_cell = first.repeat(sizes).argsort(kind="stable")
        sizes = sizes[first.argsort()]
        cell = np.arange(sizes.size).repeat(sizes)
        ordered = BoxTable(cell, table.lo[by_cell], table.end[by_cell])
        return cls(dim, carrier, TableCells(ordered, [0, *sizes.cumsum().tolist()]))

    # -- cached atom quotient -------------------------------------------------

    @cached_property
    def _grid(self) -> AtomGrid:
        return AtomGrid.for_boxes(self.cells.table, (self.carrier,))

    @cached_property
    def _owner(self) -> np.ndarray:
        """Read-only int32 array in the grid's shape: each atom's cell index (-1 outside)."""
        owner = self._grid.paint(self.cells.table)
        owner.flags.writeable = False
        return owner

    @cached_property
    def _tops(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """Every cell's lowest and highest atom index, per axis (rows) and cell (columns), read
        from the owner array; and whether every cell owns its top, the atom at the highest
        indices."""
        _, _, lo, hi = self._grid.windows(self._owner)  # every cell owns an atom
        top = hi - 1
        return lo, top, bool((self._owner[tuple(top)] == np.arange(self.size)).all())

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        carrier = "full" if self.carrier.equal(full(self.dim)) else self.carrier.to_json()
        return {"dim": self.dim, "carrier": carrier, "cells": self.cells.to_json()}

    @classmethod
    def from_json(cls, obj: object) -> "Partition":
        if not isinstance(obj, dict):
            raise ValueError("partition must be a JSON object")
        dim = obj.get("dim")
        if type(dim) is not int or dim < 1:
            raise ValueError(f"partition field 'dim' must be a positive integer, got {dim!r}")
        raw_carrier = obj.get("carrier", "full")
        carrier = full(dim) if raw_carrier == "full" else Region.from_json(raw_carrier)
        if carrier.dim != dim:
            raise ValueError("partition field 'carrier' has the wrong dimension")
        raw_cells = obj.get("cells")
        if not isinstance(raw_cells, list) or not raw_cells:
            raise ValueError("partition field 'cells' must be a nonempty list")
        cells = []
        for c in raw_cells:
            cell = Region.from_json(c)
            if cell.dim != dim:
                raise ValueError("partition cell has the wrong dimension")
            cells.append(cell)
        return make_partition(carrier, cells)


def make_partition(carrier: Region, cells: Sequence[Region]) -> Partition:
    """Validate cells against the carrier and return the canonical partition."""
    cells = tuple(cells)
    if not cells:
        raise PartitionError("no_cells", "a partition needs at least one cell")
    dim = carrier.dim
    for i, c in enumerate(cells):
        if c.dim != dim:
            raise DimensionMismatch(f"cell {i} has dimension {c.dim}, carrier {dim}")
        if c.is_empty():
            raise PartitionError("empty_cell", f"cell {i} is empty", witness=c)
    grid = AtomGrid.for_regions(dim, (carrier, *cells))
    # Paint cell by cell: a box finding an earlier cell's index overlaps that
    # cell.  Read unsigned, -1 (no cell yet) is above every index.
    owner = np.full(grid.shape, -1, dtype=np.int32)
    for i, c in enumerate(cells):
        for b in c.boxes:
            atoms = owner[(*grid.box_slices(b), ...)]  # a view, also in dimension 0
            if i and atoms.view(np.uint32).min() < i:
                earlier = (owner >= 0) & (owner < i)
                witness = grid.region_of_bool(grid.region_bool(c) & earlier)
                message = f"cell {i} overlaps an earlier cell"
                raise PartitionError("overlap", message, witness=witness)
            atoms[...] = i
    claimed = owner >= 0
    car = grid.region_bool(carrier)
    for kind, message, wrong in (
        ("excess", "cells extend beyond the carrier", claimed & ~car),
        ("gap", "cells do not cover the carrier", car & ~claimed),
    ):
        if wrong.any():
            raise PartitionError(kind, message, witness=grid.region_of_bool(wrong))
    # Number the cells by their least points, and keep the grid and owner array, renumbered.
    order = sorted(range(len(cells)), key=lambda i: cells[i].min_point())
    ordered = tuple(cells[i] for i in order)
    starts = [0, *accumulate(len(c.boxes) for c in ordered)]
    p = Partition(dim, carrier, TableCells(BoxTable.of_regions(ordered), starts, ordered))
    rank = np.full(len(order) + 1, -1, np.int32)  # the last entry is read for -1
    rank[order] = np.arange(len(order))
    owner = rank[owner, ...]  # an array, also in dimension 0
    owner.flags.writeable = False
    vars(p).update(_grid=grid, _owner=owner)
    return p


def restrict(p: Partition, v: Region) -> Partition:
    """Intersect every cell with v, dropping the empty traces."""
    if v.dim != p.dim:
        raise DimensionMismatch(f"dimensions differ: {p.dim} vs {v.dim}")
    carrier = p.carrier.intersect(v)
    if carrier.is_empty():
        raise PartitionError("empty_carrier", "restriction has an empty carrier")
    cells = [c.intersect(v) for c in p.cells]
    return make_partition(carrier, [c for c in cells if not c.is_empty()])


def induced(
    carrier: "Region | AtomGrid", family: "Sequence[Region] | np.ndarray"
) -> "Partition | np.ndarray":
    """Partition of the carrier into membership classes of the family.

    Two points fall in the same cell exactly when they belong to the same
    members of the family.

    With a Region carrier and a sequence of Regions this returns the
    Partition.  With an AtomGrid carrier (the whole grid) the family is
    given per atom instead: int rows along a last axis after the grid's
    shape, equal exactly when the atoms lie in the same members.  The
    result is then the class of every atom, numbered from 0, in that shape.
    """
    if isinstance(carrier, AtomGrid):
        return _classes(family)
    if carrier.is_empty():
        raise PartitionError("empty_carrier", "cannot partition an empty carrier")
    family = list(family)
    for f in family:
        if f.dim != carrier.dim:
            raise DimensionMismatch("family member dimension differs from carrier")
    if not family:
        return make_partition(carrier, [carrier])
    grid = AtomGrid.for_regions(carrier.dim, (carrier, *family))
    car = grid.region_bool(carrier)
    profiles = np.stack([grid.region_bool(f)[car] for f in family], axis=-1)
    labels = np.full(grid.shape, -1, dtype=np.intp)
    labels[car] = _classes(profiles)
    return Partition._of_boxes(carrier.dim, carrier, grid.boxes(labels))


def _classes(rows: np.ndarray) -> np.ndarray:
    """Class index of every row: equal rows share one, numbered from 0 in lexicographic order.

    Rows lie along the last axis, int or bool, and the classes keep the other
    axes' shape.  One ``lexsort`` orders the rows; a class starts at each
    sorted row unequal to the one before, and a running count numbers them.
    """
    rows = np.asarray(rows)
    if not rows.size:
        return np.zeros(rows.shape[:-1], dtype=np.intp)
    flat = rows.reshape(-1, rows.shape[-1])
    order = np.lexsort(flat.T[::-1])
    ordered = flat[order]
    new = np.zeros(len(order), dtype=np.intp)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    classes = np.empty(len(order), dtype=np.intp)
    classes[order] = new.cumsum()
    return classes.reshape(rows.shape[:-1])


def refines(fine: Partition, coarse: Partition) -> bool:
    """True when every cell of fine sits inside a single cell of coarse."""
    if fine.dim != coarse.dim:
        raise DimensionMismatch("partition dimensions differ")
    if not fine.carrier.equal(coarse.carrier):
        raise PartitionError("carrier_mismatch", "partitions have different carriers")
    grid, (owner,) = fine._grid.regrid(coarse._grid.cuts, [fine._owner])
    _, (coarse_owner,) = coarse._grid.regrid(grid.cuts, [coarse._owner])
    owned = owner >= 0
    # One key per (fine cell, coarse cell) pair that shares an atom.
    pairs = owner[owned].astype(np.int64) * (coarse.size + 1) + coarse_owner[owned]
    return np.unique(pairs).size == fine.size and bool((coarse_owner[owned] >= 0).all())


def cell_of(p: Partition, point: Point) -> int:
    """Index of the cell containing the point; the point must be in the carrier."""
    if len(point) != p.dim:
        raise DimensionMismatch(f"point of dimension {len(point)}, partition {p.dim}")
    idx = int(p._owner[p._grid.point_atom(point)])
    if idx < 0:
        raise ValueError(f"point {point} lies outside the carrier")
    return idx


# -- the two decision procedures --------------------------------------------------


@dataclass(frozen=True)
class TunedViolation:
    """Cell pair with a related point pair but a source point seeing nothing."""

    source: int
    target: int
    witness: Point

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "witness": list(self.witness),
        }


@dataclass(frozen=True)
class MonotoneViolation:
    """Either a cell not cofinal in its hull, or a varying-set order breach."""

    kind: str  # "hull" or "varying"
    cell: int
    other: Optional[int]
    witness: Point

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "cell": self.cell,
            "other": self.other,
            "witness": list(self.witness),
        }


def cover(owner: np.ndarray, atoms: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells of an owner array that an atom set holds in part, and those it holds whole."""
    owned = owner >= 0
    held = np.bincount(owner[atoms & owned], minlength=count)
    sizes = np.bincount(owner[owned], minlength=count)
    return np.flatnonzero((held > 0) & (held < sizes)), np.flatnonzero(held == sizes)


def _earlier(
    best: Optional[tuple], block: range, rows: np.ndarray, bits: np.ndarray
) -> Optional[tuple]:
    """The earlier of ``best`` and the first pair (source, target, target's downset) in ``rows``."""
    pair = first_bit(rows)
    if pair is None or (best is not None and (pair[0], block[pair[1]]) >= best[:2]):
        return best
    return pair[0], block[pair[1]], bit_column(bits, pair[1])


def _tuned_pass(
    grid: AtomGrid, sources: np.ndarray, targets: np.ndarray, count: int, order: OrderKind,
    edges: Optional[set[tuple[int, int]]] = None,
) -> Optional[TunedViolation]:
    """``tuned_violation`` of source against target cells, both owner arrays on ``grid``.

    The same pass adds to ``edges``, when given, every pair (i, j) such that
    some point of source cell i sees a point of target cell j.
    """
    best = None
    for block, bits, meets, within in grid.sees(sources, targets, count, order):
        best = _earlier(best, block, meets & ~within, bits)
        if edges is not None:
            edges.update((int(i), block[j]) for i, j in np.argwhere(unpack(meets, len(block))))
    if best is None:
        return None
    i, j, down = best
    witness = grid.first_point((sources == i) & ~down)
    assert witness is not None
    return TunedViolation(i, j, witness)


def _tuned_by_tops(p: Partition, order: OrderKind) -> bool:
    """True when every cell owns its top atom and no cell meets a downset without lying
    within it, read from the tops (see the module docstring); False otherwise."""
    _, top, owns = p._tops
    if not owns:
        return False
    # Each atom's owner's top, -1 outside the cells, then its running maximum along every axis.
    tops = np.full((p.size + 1, p.dim), -1, np.int32)  # the last row is read for -1
    tops[:-1] = top.T
    reach = tops[p._owner]
    for axis in range(p.dim):
        np.maximum.accumulate(reach, axis, out=reach)
    corner = top
    if order is OrderKind.STRICT:  # one atom lower, except in the unbounded last atom
        corner = top - (top < np.array(p._grid.shape)[:, None] - 1)
        corner = corner[:, (corner >= 0).all(axis=0)]  # the cells of a nonempty downset
    return not (reach[tuple(corner)] > corner.T).any()


def tuned_violation(p: Partition, order: OrderKind) -> Optional[TunedViolation]:
    """First violating (source, target) pair in index order, or None if tuned.

    The witness is the least point of the source cell that sees no point of
    the target cell.
    """
    if _tuned_by_tops(p, order):
        return None
    return _tuned_pass(p._grid, p._owner, p._owner, p.size, order)


def is_tuned(p: Partition, order: OrderKind) -> bool:
    return tuned_violation(p, order) is None


def _hulls(p: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cell's varying axes and hull, read from the owner array.

    Per axis (rows) and cell (columns): whether the cell varies there, and
    the hull as a window of atoms, from its first index to one past its
    last.  A cell varies on an axis where it spans two atoms, or one atom
    holding more than one value: a wide finite atom or the unbounded last
    one.  The hull pins the cell's own atom on the other axes.
    """
    grid = p._grid
    lo, top, _ = p._tops
    bounds, starts = grid._bounds()
    wide = bounds[1:] - bounds[:-1] > 1  # entry starts[axis] + a: whether atom a holds two values
    varies = (top > lo) | wide[lo + np.array(starts[:-1], np.intp)[:, None]]
    shape = np.array(grid.shape)[:, None]
    return varies, np.where(varies, 0, lo), np.where(varies, shape, lo + 1)


def monotone_violation(p: Partition) -> Optional[MonotoneViolation]:
    """First violation of the monotonicity conditions, or None.

    Hull cofinality is checked for every cell first, on the owner array
    alone; then, for every cell pair with a componentwise-related point
    pair, the varying coordinates of the lower cell must be a subset of
    those of the upper cell.
    """
    grid, owner = p._grid, p._owner
    varies, start, stop = _hulls(p)
    # The hull lies below its top atom, which is last on every varying axis
    # and the cell's own atom on the others, so the only atom of the cell it
    # sees is itself: the hull is in the cell's downset exactly when the
    # cell owns its top atom.
    top = tuple(stop - 1)
    missing = np.flatnonzero(owner[top] != np.arange(p.size))
    if missing.size:
        i = int(missing[0])
        hull = np.zeros(grid.shape, dtype=bool)
        hull[tuple(slice(a, b) for a, b in zip(start[:, i].tolist(), stop[:, i].tolist()))] = True
        down = grid.downsets((owner == i)[..., None], OrderKind.REFLEXIVE)
        witness = grid.first_point(hull & ~down[..., 0])
        assert witness is not None
        return MonotoneViolation("hull", i, None, witness)
    # Source i must not see target j when i varies where j does not.  Every cell owns its hull's
    # top, the highest atom of the cell, so the axes varying below a cell's top decide.
    masks = (1 << np.arange(p.dim)) @ varies
    below = np.append(masks, 0)[owner]
    for axis in range(p.dim):
        np.bitwise_or.accumulate(below, axis, out=below)
    if not (below[top] & ~masks).any():
        return None
    kinds, kind_of = np.unique(masks, return_inverse=True)
    best = None
    for block, bits, meets, _ in grid.sees(owner, owner, p.size, OrderKind.REFLEXIVE):
        wider = np.packbits((kinds[:, None] & ~masks[None, block]) != 0, axis=1, bitorder="little")
        best = _earlier(best, block, meets & wider[kind_of], bits)
    if best is None:
        return None
    i, j, down = best
    witness = grid.first_point((owner == i) & down)
    assert witness is not None
    return MonotoneViolation("varying", i, j, witness)


def is_monotone(p: Partition) -> bool:
    return monotone_violation(p) is None
