"""Finite exact quotient of box-union regions.

Collecting every bound that occurs in a family of regions cuts each
coordinate axis into finitely many atomic intervals; the induced product
cells ("atoms") tile the whole grid, and every region of the family is a
union of atoms.  Downward closures and hulls of such regions are unions of
atoms as well, because the cut set contains 0, every lower bound, and both
hi and hi + 1 for every finite upper bound.  This turns the partition
checkers into boolean-array arithmetic, on arrays in the grid's shape (only
``sees``, ``windows`` and ``first_point`` flatten one), while staying exact.
``regrid`` is the one way onto a finer grid.  A ``BoxTable`` holds boxes as
arrays: ``boxes`` turns labels into its rows, and ``paint`` its rows into
labels.  The one way back from atoms is the walk of ``_collect``, an atom
set's canonical boxes from a start atom per axis (atom 0 for ``boxes``, the
quadrant atom for the refiner's nested quadrant cell), and ``_span_rows``,
which makes them rows.

``sees`` gives every cell's downward closure at once.  Under <= an atom
sees an atom of a cell exactly when its index is at most the other's on
every axis: a reverse cumulative OR along each axis.  Under < the index must
be smaller on every axis, except inside an axis's unbounded last atom.  That
is exact although a finite atom [l, h] with l < h does not see itself from
h: h is not a cut, every finite upper bound of a box is, so the box holding
the target atom also holds the next atom along that axis.  The bitset of
``sees`` stays within ``SEES_BYTES``; more targets are processed in blocks.
Its closure and reductions run on words of up to 8 bytes, and only source
cells of more than one atom are reduced.
"""
from __future__ import annotations

import bisect
import math
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .region import OMEGA, Box, Interval, OrderKind, Point, Region

# Guard against accidentally enormous quotients.
MAX_ATOMS = 1 << 22
# Bytes of the per-atom bitset of one ``sees`` block (32 targets at MAX_ATOMS).
SEES_BYTES = 4 * MAX_ATOMS
# The unsigned word of 2**k bytes.
_WORDS = (np.uint8, np.uint16, np.uint32, np.uint64)
# A box table's upper end of an interval unbounded above; finite ends are at most 2**63.
END_OMEGA = 2**64 - 1


def require_grid_size(size: int) -> None:
    """ValueError for a grid of more than ``MAX_ATOMS`` atoms."""
    if size > MAX_ATOMS:
        raise ValueError(f"atom grid too large: {size} atoms")


class BoxTable(NamedTuple):
    """Boxes of numbered cells as arrays, one row per box.

    Row r is a box of cell ``cell[r]``; on every axis it runs from
    ``lo[r]`` to one below ``end[r]``, or is unbounded above where ``end``
    holds ``END_OMEGA``.  Bounds are uint64, so that coordinates up to
    ``MAX_COORD`` and their ends fit.
    """

    cell: np.ndarray
    lo: np.ndarray
    end: np.ndarray

    @classmethod
    def of_regions(cls, regions: Sequence[Region]) -> "BoxTable":
        """The boxes of Regions numbered from 0, in their order."""
        cells = [i for i, r in enumerate(regions) for _ in r.boxes]
        flat = [
            x for r in regions for b in r.boxes for iv in b.intervals
            for x in (iv.lo, END_OMEGA if iv.hi is OMEGA else iv.hi + 1)
        ]
        dim = regions[0].dim if regions else 0
        at = np.array(flat, np.uint64).reshape(len(cells), dim, 2)
        return cls(np.array(cells, np.intp), at[..., 0], at[..., 1])

    @classmethod
    def concat(cls, tables: Sequence["BoxTable"]) -> "BoxTable":
        return cls(*(np.concatenate(parts) for parts in zip(*tables)))

    def placed(self, coords: tuple[int, ...], s: int, offset: int) -> "BoxTable":
        """The boxes shifted up by s + 1, with the coordinates in ``coords`` inserted and equal
        to s, and the cells renumbered from ``offset``."""
        rows, dim = self.lo.shape
        free = [i for i in range(dim + len(coords)) if i not in coords]
        lo = np.full((rows, dim + len(coords)), s, np.uint64)
        end = np.full((rows, dim + len(coords)), s + 1, np.uint64)
        lo[:, free] = self.lo + (s + 1)
        end[:, free] = np.where(self.end == END_OMEGA, self.end, self.end + (s + 1))
        return BoxTable(self.cell + offset, lo, end)

    def regions(self) -> dict[int, Region]:
        """Every cell as the Region of its rows, in row order; cells ascending."""
        dim = self.lo.shape[1]
        made: dict[tuple[int, int], Interval] = {}
        boxes: dict[int, list[Box]] = {}
        for cell, los, ends in zip(self.cell.tolist(), self.lo.tolist(), self.end.tolist()):
            ivs = []
            for key in zip(los, ends):
                iv = made.get(key)
                if iv is None:
                    iv = made[key] = Interval(key[0], OMEGA if key[1] == END_OMEGA else key[1] - 1)
                ivs.append(iv)
            boxes.setdefault(cell, []).append(Box(tuple(ivs)))
        return {cell: Region(dim, tuple(boxes[cell])) for cell in sorted(boxes)}


class AtomGrid:
    """Cut positions per coordinate plus the derived atom lattice."""

    __slots__ = ("dim", "cuts", "shape", "size", "_bound")

    def __init__(self, dim: int, cuts: Sequence[Sequence[int]]):
        cuts = tuple(tuple(c) for c in cuts)
        for c in cuts:
            if not c or c[0] != 0 or list(c) != sorted(set(c)):
                raise ValueError("cuts must be sorted, distinct, and start at 0")
        self._set(dim, cuts)

    @classmethod
    def _sorted(cls, dim: int, cuts: Sequence[Sequence[int]]) -> "AtomGrid":
        """A grid of cuts sorted, distinct and from 0 by construction: only the size is checked."""
        grid = cls.__new__(cls)
        grid._set(dim, cuts)
        return grid

    def _set(self, dim: int, cuts: Sequence[Sequence[int]]) -> None:
        self.dim, self.cuts = dim, tuple(tuple(c) for c in cuts)
        self.shape = tuple(len(c) for c in self.cuts)
        self.size = math.prod(self.shape)
        require_grid_size(self.size)
        self._bound: Optional[tuple[np.ndarray, list[int]]] = None  # built by ``_bounds``

    @classmethod
    def for_regions(cls, dim: int, regions: Iterable[Region]) -> "AtomGrid":
        cuts: list[set[int]] = [{0} for _ in range(dim)]
        for r in regions:
            if r.dim != dim:
                raise ValueError(f"region of dimension {r.dim} in grid of dimension {dim}")
            for b in r.boxes:
                for i, iv in enumerate(b.intervals):
                    cuts[i].add(iv.lo)
                    if iv.hi is not OMEGA:
                        cuts[i].add(iv.hi)
                        cuts[i].add(iv.hi + 1)
        return cls._sorted(dim, [sorted(c) for c in cuts])

    @classmethod
    def for_boxes(cls, table: BoxTable, regions: Iterable[Region] = ()) -> "AtomGrid":
        """``for_regions`` of the regions and of every box of a table."""
        own = cls.for_regions(table.lo.shape[1], regions)
        bounds = np.concatenate((table.lo, table.end - 1, table.end)).T.tolist()
        omega = (END_OMEGA - 1, END_OMEGA)  # the ends of omega, and one below
        cuts = [set(col).union(more).difference(omega) for col, more in zip(bounds, own.cuts)]
        return cls._sorted(own.dim, [sorted(c) for c in cuts])

    def regrid(
        self, cuts: Sequence[Iterable[int]], arrays: list[np.ndarray]
    ) -> tuple["AtomGrid", list[np.ndarray]]:
        """The grid joining ``cuts`` with this one's, and the arrays (in this grid's shape)
        on it; when no cut is new, this grid and the arrays themselves.

        The joint grid's size is checked before its cuts are built: a ``range``
        of step 1 is counted, not held, so that a grid too large fails at once.
        """
        parts = []  # per axis, the joint cuts in sorted parts
        for own, more in zip(self.cuts, cuts):
            if type(more) is range and more.step == 1 and more:  # between the old cuts outside it
                below, above = bisect.bisect_left(own, more[0]), bisect.bisect_right(own, more[-1])
                parts.append((own[:below], more, own[above:]))
            elif set(own).issuperset(more):
                parts.append((own,))
            else:
                parts.append((sorted(set(own).union(more)),))
        shape = [sum(map(len, axis)) for axis in parts]
        if shape == list(self.shape):
            return self, arrays
        require_grid_size(math.prod(shape))
        joint = [axis[0] if len(axis) == 1 else (*axis[0], *axis[1], *axis[2]) for axis in parts]
        fine = AtomGrid._sorted(self.dim, joint)
        for axis, (old, grown) in enumerate(zip(self.cuts, fine.cuts)):
            if len(old) != len(grown):
                index = [bisect.bisect_right(old, c) - 1 for c in grown]
                arrays = [a.take(index, axis=axis) for a in arrays]
        return fine, arrays

    # -- atoms ------------------------------------------------------------------

    def point_atom(self, point: Point) -> tuple[int, ...]:
        return tuple(
            bisect.bisect_right(self.cuts[i], x) - 1 for i, x in enumerate(point)
        )

    # -- regions to arrays and back ----------------------------------------------

    def _span(self, coord: int, iv: Interval) -> tuple[int, int]:
        c = self.cuts[coord]
        a = bisect.bisect_left(c, iv.lo)
        if a == len(c) or c[a] != iv.lo:
            raise ValueError(f"bound {iv.lo} not aligned to grid cuts on coordinate {coord}")
        if iv.hi is OMEGA:
            return a, len(c)
        b = bisect.bisect_left(c, iv.hi + 1)
        if b == len(c) or c[b] != iv.hi + 1:
            raise ValueError(
                f"bound {iv.hi} not aligned to grid cuts on coordinate {coord}"
            )
        return a, b

    def box_slices(self, b: Box) -> tuple[slice, ...]:
        """The atoms of a box as one slice per axis; requires the box to align with the cuts."""
        return tuple(slice(*self._span(i, iv)) for i, iv in enumerate(b.intervals))

    def region_bool(self, r: Region) -> np.ndarray:
        """Boolean array over atoms; requires the region to align with the cuts."""
        arr = np.zeros(self.shape, dtype=bool)
        for b in r.boxes:
            arr[self.box_slices(b)] = True
        return arr

    def region_of_bool(self, arr: np.ndarray) -> Region:
        """An atom set as a Region, in the canonical boxes of ``boxes``."""
        return self.boxes(np.where(arr, 0, -1)).regions().get(0, Region(self.dim, ()))

    def _collect(self, arr: np.ndarray, start: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
        """The canonical boxes of an atom set, walked from a start atom per axis, as atom spans.

        Along the first axis, from its start atom on, the set is cut into the
        maximal runs of equal slices, found with one comparison of
        neighbouring slices; each run is followed by the walk of its first
        slice along the other axes, and yields no box if that slice is empty.
        From atom 0 on every axis these are the canonical boxes.  From other
        start atoms they are the canonical boxes that reach the start atom on
        every axis, each raised to start there at the latest.  A box is its
        atoms [a, b) per axis.
        """
        if not start:
            return [()] if arr else []
        q, past = start[0], arr[start[0] :]
        edges = [0, len(past)]
        if len(past) > 1:
            flat = past.reshape(len(past), -1)
            edges[1:1] = ((flat[1:] != flat[:-1]).any(axis=1).nonzero()[0] + 1).tolist()
        return [
            ((q + a, q + b), *tail)
            for a, b in zip(edges, edges[1:])
            for tail in self._collect(past[a], start[1:])
        ]

    def windows(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The atoms of every label of an int array in this grid's shape: each label's window.

        Atoms labelled -1 are left out.  Returns the labels in ascending
        order, the number of atoms of each, and per axis (rows) and label
        (columns) the lowest atom index and one past the highest.
        """
        flat = labels.ravel()
        where = flat.argsort(kind="stable")
        ordered = flat[where]
        first = ordered.searchsorted(0)  # past the atoms labelled -1
        where, ordered = where[first:], ordered[first:]
        starts, counts = runs(ordered)
        at = np.array(np.unravel_index(where, self.shape) if self.dim else (), np.intp)
        at = at.reshape(self.dim, where.size)  # per axis (rows), each atom's index
        lows = np.minimum.reduceat(at, starts, axis=1)
        highs = np.maximum.reduceat(at, starts, axis=1) + 1
        return ordered[starts], counts, lows, highs

    def _bounds(self) -> tuple[np.ndarray, list[int]]:
        """Every axis's cuts followed by ``END_OMEGA``, in one read-only uint64 array, and where
        each axis's part starts, then where the last one ends.  Entry a of an axis's part is
        where its atom a starts and atom a - 1 ends.  Built on the first call and kept, since
        the grid does not change."""
        if self._bound is None:
            flat: list[int] = []
            starts = []
            for c in self.cuts:
                starts.append(len(flat))
                flat += c
                flat.append(END_OMEGA)
            bounds = np.array(flat, np.uint64)
            bounds.flags.writeable = False
            self._bound = bounds, starts + [len(flat)]
        return self._bound

    def _span_rows(self, cells: np.ndarray, first: np.ndarray, end: np.ndarray) -> BoxTable:
        """Boxes of atoms as box table rows: row r, a box of ``cells[r]``, spans on each axis the
        atoms from ``first[r]`` to one below ``end[r]``."""
        bounds, starts = self._bounds()
        shift = np.array(starts[:-1], np.intp)
        return BoxTable(cells, bounds[first + shift], bounds[end + shift])

    def boxes(self, labels: np.ndarray) -> BoxTable:
        """Every label of an int array in this grid's shape as rows of a box table.

        Atoms labelled -1 belong to no cell.  A label that fills its window
        of atoms is one row, its bounds taken from the cuts; the others
        follow with the canonical boxes of their windows (``_collect``),
        each label's rows in a run.
        """
        names, counts, lows, highs = self.windows(labels)
        lows, highs = lows.T, highs.T
        filled = np.multiply.reduce(highs - lows, axis=1) == counts
        if not filled.all():
            rest = ~filled
            windows = zip(names[rest].tolist(), lows[rest].tolist(), highs[rest].tolist())
            found = [
                self._collect(labels[tuple(map(slice, lo, hi))] == label, (0,) * self.dim)
                for label, lo, hi in windows
            ]
            sizes = [len(f) for f in found]
            at = np.array([s for f in found for s in f], np.intp).reshape(sum(sizes), self.dim, 2)
            at += lows[rest].repeat(sizes, axis=0)[..., None]  # from each window's origin
            names = np.concatenate((names[filled], names[rest].repeat(sizes)))
            lows = np.concatenate((lows[filled], at[..., 0]))
            highs = np.concatenate((highs[filled], at[..., 1]))
        return self._span_rows(names, lows, highs)

    def paint(self, table: BoxTable) -> np.ndarray:
        """Int32 array in the grid's shape holding, on every atom of a box, its row's cell.

        Atoms of no box hold -1.  Every bound must be a cut (or ``END_OMEGA``
        an upper end), else ValueError.  Boxes of one atom are painted with
        one assignment; each other box paints its slice.
        """
        bounds, starts = self._bounds()
        ends = np.concatenate((table.lo[None], table.end[None]))  # lower bounds, then upper ends
        at = np.empty(ends.shape, np.intp)
        for axis in range(self.dim):
            part = bounds[starts[axis] : starts[axis + 1]]
            at[..., axis] = part.searchsorted(ends[..., axis]) + starts[axis]
        wrong = bounds[at] != ends
        if wrong.any():
            side, row, axis = np.argwhere(wrong)[0].tolist()
            bound = int(ends[side, row, axis]) - side
            raise ValueError(f"bound {bound} not aligned to grid cuts on coordinate {axis}")
        at -= np.array(starts[:-1], np.intp)
        start, stop = at
        single = (stop - start == 1).all(axis=1)
        owner = np.full(self.shape, -1, dtype=np.int32)
        steps = np.array(owner.strides, np.intp) // owner.itemsize  # flat indices: dimension 0 too
        owner.reshape(-1)[start[single] @ steps] = table.cell[single]
        for row in (~single).nonzero()[0].tolist():
            owner[tuple(map(slice, start[row], stop[row]))] = table.cell[row]
        return owner

    def first_point(self, atoms: np.ndarray) -> Optional[Point]:
        """Lexicographically least point of an atom set: its first atom's lower corner."""
        idx = np.flatnonzero(atoms)
        if idx.size == 0:
            return None
        at = np.unravel_index(int(idx[0]), self.shape) if self.dim else ()
        return tuple(self.cuts[i][j] for i, j in enumerate(at))

    # -- the seeing relation between cells -----------------------------------------

    def downsets(self, cube: np.ndarray, order: OrderKind) -> np.ndarray:
        """The atoms that see each atom set, for sets stacked along a trailing axis.

        ``cube`` has this grid's shape plus one axis and holds booleans or
        packed bits; OR acts bit by bit, so both give the same sets.
        """
        for axis in range(self.dim):
            rev = (slice(None),) * axis + (slice(None, None, -1),)  # reversed along the axis
            cube = np.bitwise_or.accumulate(cube[rev], axis)[rev]
            if order is OrderKind.STRICT:  # all but the unbounded last atom see strictly above
                cube[rev[:-1] + (slice(-1),)] = cube[rev[:-1] + (slice(1, None),)]
        return cube

    def sees(
        self, sources: np.ndarray, targets: np.ndarray, count: int, order: OrderKind
    ) -> Iterator[tuple[range, np.ndarray, np.ndarray, np.ndarray]]:
        """Which target cells every atom and every source cell sees, by blocks of targets.

        ``sources``/``targets`` give every atom a source/target cell or -1;
        targets are below ``count``, sources from 0, each owning an atom.
        Yields ``(block, bits, meets, within)`` per range of targets, rows
        packed little-endian, bit k for target block[k].  ``bits`` has a row
        per atom in the grid's shape, its column k the target's downset; ``meets``
        and ``within`` a row per source: some atom sees the target / every one does.

        Rows are padded to whole words of up to 8 bytes while the closure
        and the reductions run, and yielded without the padding.  A source
        of one atom has that atom's row as its ``meets`` and ``within``; only
        the sources of several atoms are reduced.
        """
        sources, targets = sources.ravel(), targets.ravel()
        by_source = sources.argsort(kind="stable")
        by_source = by_source[sources[by_source] >= 0]
        sizes = np.bincount(sources[by_source])
        starts = sizes.cumsum() - sizes
        several = sizes > 1
        rows = several.nonzero()[0]  # the sources to reduce
        mixed = 0 < rows.size < sizes.size
        if mixed:
            own = by_source[starts]
            by_source = by_source[several.repeat(sizes)]
            starts = sizes[rows].cumsum() - sizes[rows]
        row = max(1, SEES_BYTES // self.size)
        word = min(3, row.bit_length() - 1)  # log2 of the widest word of at most 8 bytes that fits
        width = 8 * (row >> word << word)
        for first in range(0, count, width):
            block = range(first, min(count, first + width))
            used = (len(block) + 7) // 8
            k = targets - first
            hit = np.flatnonzero((k >= 0) & (k < width))
            bits = np.zeros((self.size, -(-used >> word) << word), dtype=np.uint8)
            bits[hit, k[hit] >> 3] = np.left_shift(1, k[hit] & 7)
            cube = self.downsets(bits.view(_WORDS[word]).reshape(*self.shape, -1), order)
            words = np.ascontiguousarray(cube).reshape(self.size, -1)
            if not rows.size:  # every source is one atom
                meets = within = words[by_source]
            else:
                grouped = words[by_source]
                meets = np.bitwise_or.reduceat(grouped, starts)
                within = np.bitwise_and.reduceat(grouped, starts)
                if mixed:  # the other sources keep their one atom's row
                    some, every = meets, within
                    meets, within = words[own], words[own]
                    meets[rows], within[rows] = some, every
            yield block, *(a.view(np.uint8)[..., :used] for a in (cube, meets, within))


def runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal neighbours in a 1-D array starts, and its length."""
    edges = np.empty(values.size + 1, dtype=bool)  # where a run starts, and the end
    edges[0] = edges[-1] = True
    np.not_equal(values[1:], values[:-1], out=edges[1:-1])
    at = edges.nonzero()[0]
    return at[:-1], at[1:] - at[:-1]


def unpack(rows: np.ndarray, count: int) -> np.ndarray:
    """Boolean array of packed rows (as ``AtomGrid.sees`` gives them), ``count`` columns."""
    return np.unpackbits(rows, axis=-1, count=count, bitorder="little").view(bool)


def bit_column(rows: np.ndarray, k: int) -> np.ndarray:
    """Bit k of every packed row, as a boolean array in the rows' shape."""
    return (rows[..., k >> 3] >> (k & 7)) & 1 != 0


def first_bit(rows: np.ndarray) -> Optional[tuple[int, int]]:
    """(row, bit) of the first set bit of packed rows in row-major order, or None."""
    hit = np.flatnonzero(rows.any(axis=1))
    if not hit.size:
        return None
    i = int(hit[0])
    return i, int(np.flatnonzero(unpack(rows[i : i + 1], rows.shape[1] * 8)[0])[0])
