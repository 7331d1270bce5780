"""Finite exact quotient of box-union regions.

Collecting every bound that occurs in a family of regions cuts each
coordinate axis into finitely many atomic intervals; the induced product
cells ("atoms") tile the whole grid, and every region of the family is a
union of atoms.  Downward closures and hulls of such regions are unions of
atoms as well, because the cut set contains 0, every lower bound, and both
hi and hi + 1 for every finite upper bound.  This turns the partition
checkers into boolean-array arithmetic while staying exact.
"""
from __future__ import annotations

import bisect
from typing import Iterable, Optional, Sequence

import numpy as np

from .region import OMEGA, Box, Interval, Point, Region

# Guard against accidentally enormous quotients.
MAX_ATOMS = 1 << 22


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

    # -- atoms ------------------------------------------------------------------

    def atom_interval(self, coord: int, idx: int) -> Interval:
        c = self.cuts[coord]
        if idx + 1 < len(c):
            return Interval(c[idx], c[idx + 1] - 1)
        return Interval(c[idx], OMEGA)

    def atom_lo(self, flat_index: int) -> Point:
        """Lower corner of an atom; row-major flat order is lexicographic."""
        idx = np.unravel_index(flat_index, self.shape) if self.dim else ()
        return tuple(self.cuts[i][j] for i, j in enumerate(idx))

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

    def region_bool(self, r: Region) -> np.ndarray:
        """Boolean array over atoms; requires the region to align with the cuts."""
        arr = np.zeros(self.shape, dtype=bool)
        for b in r.boxes:
            sel = tuple(
                slice(*self._span(i, iv)) for i, iv in enumerate(b.intervals)
            )
            arr[sel] = True
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

    def first_point(self, flat: np.ndarray) -> Optional[Point]:
        """Lexicographically least point of an atom set (flat boolean array)."""
        idx = np.flatnonzero(flat)
        if idx.size == 0:
            return None
        return self.atom_lo(int(idx[0]))
