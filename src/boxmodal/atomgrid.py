"""Finite exact quotient of box-union regions.

Collecting every bound that occurs in a family of regions cuts each
coordinate axis into finitely many atomic intervals; the induced product
cells ("atoms") tile the whole grid, and every region of the family is a
union of atoms.  Downward closures and hulls of such regions are unions of
atoms as well, because the cut set contains 0, every lower bound, and both
hi and hi + 1 for every finite upper bound.  This turns the partition
checkers into boolean-array arithmetic, on arrays in the grid's shape (only
``sees``, ``windows`` and ``first_point`` flatten one), while staying exact.
``regrid`` is the one way onto a finer grid.

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
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .region import OMEGA, Box, Interval, OrderKind, Point, Region

# Guard against accidentally enormous quotients.
MAX_ATOMS = 1 << 22
# Bytes of the per-atom bitset of one ``sees`` block (32 targets at MAX_ATOMS).
SEES_BYTES = 4 * MAX_ATOMS
# The unsigned word of 2**k bytes.
_WORDS = (np.uint8, np.uint16, np.uint32, np.uint64)


class AtomGrid:
    """Cut positions per coordinate plus the derived atom lattice."""

    __slots__ = ("dim", "cuts", "shape", "size")

    def __init__(self, dim: int, cuts: Sequence[Sequence[int]]):
        self.dim = dim
        self.cuts = tuple(tuple(c) for c in cuts)
        for c in self.cuts:
            if not c or c[0] != 0 or list(c) != sorted(set(c)):
                raise ValueError("cuts must be sorted, distinct, and start at 0")
        self.shape = tuple(len(c) for c in self.cuts)
        size = 1
        for s in self.shape:
            size *= s
        if size > MAX_ATOMS:
            raise ValueError(f"atom grid too large: {size} atoms")
        self.size = size

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
        return cls(dim, [sorted(c) for c in cuts])

    def regrid(
        self, cuts: Sequence[Iterable[int]], arrays: list[np.ndarray]
    ) -> tuple["AtomGrid", list[np.ndarray]]:
        """The grid joining ``cuts`` with this one's, and the arrays (in this grid's shape)
        on it; when no cut is new, this grid and the arrays themselves."""
        if all([set(own).issuperset(more) for own, more in zip(self.cuts, cuts) if more]):
            return self, arrays
        joint = [sorted(set(own).union(more)) for own, more in zip(self.cuts, cuts)]
        fine = AtomGrid(self.dim, joint)
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

    def region_of_bool(self, arr: np.ndarray, origin: Optional[Sequence[int]] = None) -> Region:
        """Rebuild a region from an atom set, coalescing adjacent atoms into boxes.

        The boxes are the canonical form of the set: along each coordinate in
        turn, maximal runs of equal nonempty slices.  ``arr`` covers the whole
        grid, or with ``origin`` only the window of atoms starting at those
        indices; the region then has no atom outside the window.
        """
        origin = tuple(origin) if origin is not None else (0,) * self.dim
        boxes = [Box(ivs) for ivs in self._collect(np.ascontiguousarray(arr), 0, origin)]
        return Region(self.dim, tuple(boxes))

    def _interval(self, axis: int, a: int, b: int) -> Interval:
        """The values of atoms a..b-1 on an axis."""
        cuts = self.cuts[axis]
        return Interval(cuts[a], cuts[b] - 1 if b < len(cuts) else OMEGA)

    def windows(self, labels: np.ndarray) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
        """The atoms of every label of an int array in this grid's shape: each label's window.

        Atoms labelled -1 are left out.  Returns the labels in ascending
        order, the number of atoms of each, and per axis (rows) and label
        (columns) the lowest atom index and one past the highest.
        """
        flat = labels.ravel()
        where = (flat >= 0).nonzero()[0]
        if not where.size:
            return [], [], np.zeros((self.dim, 0), np.intp), np.zeros((self.dim, 0), np.intp)
        where = where[flat[where].argsort(kind="stable")]
        ordered = flat[where]
        change = np.empty(ordered.size, dtype=bool)
        change[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=change[1:])
        starts = change.nonzero()[0]
        at = np.unravel_index(where, self.shape)
        shape = (self.dim, starts.size)
        lows = np.array([np.minimum.reduceat(a, starts) for a in at], np.intp).reshape(shape)
        highs = np.array([np.maximum.reduceat(a, starts) + 1 for a in at], np.intp).reshape(shape)
        counts = np.diff(starts, append=ordered.size)
        return ordered[starts].tolist(), counts.tolist(), lows, highs

    def regions(self, labels: np.ndarray) -> dict[int, Region]:
        """Every label of an int array in this grid's shape as its Region of atoms.

        Atoms labelled -1 belong to no Region.  Each Region is the canonical
        form of ``region_of_bool``, read from the label's bounding window of
        atoms; a label that fills its window is that one box.  Boxes share
        one ``Interval`` per distinct run of atoms on an axis.
        """
        names, counts, lows, highs = self.windows(labels)
        volumes = np.prod(highs - lows, axis=0).tolist()
        made: dict[tuple[int, int, int], Interval] = {}
        out = {}
        for label, count, volume, lo, hi in zip(
            names, counts, volumes, lows.T.tolist(), highs.T.tolist()
        ):
            if count != volume:
                window = labels[tuple(slice(a, b) for a, b in zip(lo, hi))] == label
                out[label] = self.region_of_bool(window, lo)
                continue
            ivs = []
            for key in zip(range(self.dim), lo, hi):
                iv = made.get(key)
                if iv is None:
                    iv = made[key] = self._interval(*key)
                ivs.append(iv)
            out[label] = Region(self.dim, (Box(tuple(ivs)),))
        return out

    def _collect(
        self, arr: np.ndarray, coord: int, origin: tuple[int, ...]
    ) -> list[tuple[Interval, ...]]:
        if coord == self.dim:
            return [()] if bool(arr) else []
        out: list[tuple[Interval, ...]] = []
        n = arr.shape[0]
        at = origin[coord]
        start = 0
        while start < n:
            rep = arr[start]
            if not rep.any():
                start += 1
                continue
            end = start
            key = rep.tobytes()
            while end + 1 < n and arr[end + 1].tobytes() == key:
                end += 1
            cuts = self.cuts[coord]
            hi = cuts[at + end + 1] - 1 if at + end + 1 < len(cuts) else OMEGA
            head = Interval(cuts[at + start], hi)
            for tail in self._collect(rep, coord + 1, origin):
                out.append((head,) + tail)
            start = end + 1
        return out

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
