"""Exact set algebra for finite unions of interval boxes in the grid omega^n.

A Region is a finite union of axis-aligned boxes; each box is a product of
integer intervals [lo, hi] where hi may be OMEGA (unbounded above).  This
class of sets is closed under union, intersection, complement, downward
closure along both product orders, hulls, translation and the insertion of
constant coordinates.  The partition machinery needs the Boolean operations
and downsets; the refiner works on atom labels and box tables (see
``atomgrid``).

All values are immutable; every operation is a pure function of its inputs.
The representation is not canonical: semantic equality is decided by mutual
inclusion, and ``normalize`` is provided for deterministic output only.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

# Upper extent marker: an interval with hi == OMEGA is unbounded above.
OMEGA: Optional[int] = None

Point = tuple[int, ...]

# Coordinates beyond this bound are treated as input errors, not wrapped.
MAX_COORD = 2**63 - 1


class DimensionMismatch(ValueError):
    """Operands live in grids of different dimension."""


class EmptyRegionError(ValueError):
    """Operation requires a nonempty region (hull, coordinate analysis)."""


class OrderKind(Enum):
    """Which product order downward closure uses.

    REFLEXIVE compares points by <= on every coordinate, STRICT by < on
    every coordinate.
    """

    REFLEXIVE = "le"
    STRICT = "lt"

    @classmethod
    def from_json(cls, value: str) -> "OrderKind":
        for kind in cls:
            if kind.value == value:
                return kind
        raise ValueError(f"order must be 'le' or 'lt', got {value!r}")


def _check_nat(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    if value > MAX_COORD:
        raise ValueError(f"{what} exceeds the coordinate bound: {value}")
    return value


@dataclass(frozen=True)
class Interval:
    """The integer interval [lo, hi]; hi == OMEGA means unbounded above."""

    lo: int
    hi: Optional[int] = OMEGA

    def __post_init__(self) -> None:
        _check_nat(self.lo, "interval lower bound")
        if self.hi is not OMEGA:
            _check_nat(self.hi, "interval upper bound")
            if self.hi < self.lo:
                raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, k: int) -> bool:
        return k >= self.lo and (self.hi is OMEGA or k <= self.hi)

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        if self.hi is OMEGA:
            hi = other.hi
        elif other.hi is OMEGA:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        if hi is not OMEGA and hi < lo:
            return None
        return Interval(lo, hi)

    def covers(self, other: "Interval") -> bool:
        """True when other is a subset of this interval."""
        if other.lo < self.lo:
            return False
        if self.hi is OMEGA:
            return True
        return other.hi is not OMEGA and other.hi <= self.hi

    def shifted(self, delta: int) -> "Interval":
        return Interval(self.lo + delta, OMEGA if self.hi is OMEGA else self.hi + delta)

    def __repr__(self) -> str:
        top = "w" if self.hi is OMEGA else str(self.hi)
        return f"[{self.lo},{top}]"


@dataclass(frozen=True)
class Box:
    """A product of intervals, one per coordinate.  Always nonempty."""

    intervals: tuple[Interval, ...]

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, point: Point) -> bool:
        return len(point) == self.dim and all(
            iv.contains(x) for iv, x in zip(self.intervals, point)
        )

    def intersect(self, other: "Box") -> Optional["Box"]:
        out = []
        for a, b in zip(self.intervals, other.intervals):
            c = a.intersect(b)
            if c is None:
                return None
            out.append(c)
        return Box(tuple(out))

    def covers(self, other: "Box") -> bool:
        return all(a.covers(b) for a, b in zip(self.intervals, other.intervals))

    def min_point(self) -> Point:
        return tuple(iv.lo for iv in self.intervals)

    def _sort_key(self) -> tuple:
        return tuple(iv.lo for iv in self.intervals) + tuple(
            (1, 0) if iv.hi is OMEGA else (0, iv.hi) for iv in self.intervals
        )

    def __repr__(self) -> str:
        if not self.intervals:
            return "()"
        return "x".join(repr(iv) for iv in self.intervals)


def _prune(boxes: Sequence[Box]) -> tuple[Box, ...]:
    """Drop duplicate boxes and boxes covered by a single other box."""
    if len(boxes) < 2:
        return tuple(boxes)
    uniq = list(dict.fromkeys(boxes))
    return tuple(
        b
        for i, b in enumerate(uniq)
        if not any(j != i and uniq[j].covers(b) for j in range(len(uniq)))
    )


def _box_difference(d: Box, b: Box) -> list[Box]:
    """Decompose d minus b into pairwise disjoint boxes (at most 2*dim)."""
    c = d.intersect(b)
    if c is None:
        return [d]
    pieces: list[Box] = []
    for i in range(d.dim):
        di = d.intervals[i]
        ci = c.intervals[i]
        prefix = c.intervals[:i]
        suffix = d.intervals[i + 1 :]
        if di.lo < ci.lo:
            pieces.append(Box(prefix + (Interval(di.lo, ci.lo - 1),) + suffix))
        if ci.hi is not OMEGA and (di.hi is OMEGA or di.hi > ci.hi):
            pieces.append(Box(prefix + (Interval(ci.hi + 1, di.hi),) + suffix))
    return pieces


@dataclass(frozen=True)
class Region:
    """A finite union of boxes of a common dimension; () denotes the empty set."""

    dim: int
    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        for b in self.boxes:
            if b.dim != self.dim:
                raise DimensionMismatch(
                    f"box of dimension {b.dim} in region of dimension {self.dim}"
                )

    # -- basic predicates ----------------------------------------------------

    def is_empty(self) -> bool:
        return not self.boxes

    def member(self, point: Point) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch(
                f"point of dimension {len(point)} in region of dimension {self.dim}"
            )
        return any(b.contains(point) for b in self.boxes)

    def __contains__(self, point: Point) -> bool:
        return self.member(point)

    def _require_same_dim(self, other: "Region") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions differ: {self.dim} vs {other.dim}")

    # -- boolean structure ---------------------------------------------------

    def union(self, other: "Region") -> "Region":
        self._require_same_dim(other)
        return Region(self.dim, _prune(self.boxes + other.boxes))

    def intersect(self, other: "Region") -> "Region":
        self._require_same_dim(other)
        out = []
        for a in self.boxes:
            for b in other.boxes:
                c = a.intersect(b)
                if c is not None:
                    out.append(c)
        return Region(self.dim, _prune(out))

    def difference(self, other: "Region") -> "Region":
        self._require_same_dim(other)
        current = list(self.boxes)
        for b in other.boxes:
            if not current:
                break
            nxt: list[Box] = []
            for d in current:
                nxt.extend(_box_difference(d, b))
            current = nxt
        return Region(self.dim, _prune(current))

    def complement(self) -> "Region":
        return full(self.dim).difference(self)

    def subset(self, other: "Region") -> bool:
        """True when this region is contained in other (exact test)."""
        return self.difference(other).is_empty()

    def equal(self, other: "Region") -> bool:
        """Same point set; the same boxes in the same order decide it without a difference."""
        if self.dim == other.dim and self.boxes == other.boxes:
            return True
        return self.subset(other) and other.subset(self)

    def normalize(self) -> "Region":
        """Same set, with covered boxes removed and boxes in lexicographic order."""
        return Region(self.dim, tuple(sorted(_prune(self.boxes), key=Box._sort_key)))

    # -- order structure -----------------------------------------------------

    def downset(self, order: OrderKind) -> "Region":
        """All points that see some point of this region under the given order."""
        out = []
        for b in self.boxes:
            ivs = []
            dead = False
            for iv in b.intervals:
                if order is OrderKind.REFLEXIVE:
                    ivs.append(Interval(0, iv.hi))
                elif iv.hi is OMEGA:
                    ivs.append(Interval(0, OMEGA))
                elif iv.hi == 0:
                    dead = True
                    break
                else:
                    ivs.append(Interval(0, iv.hi - 1))
            if not dead:
                out.append(Box(tuple(ivs)))
        return Region(self.dim, _prune(out))

    def is_cofinal_in_space(self) -> bool:
        """Every point of the grid lies below some point of this region."""
        return full(self.dim).subset(self.downset(OrderKind.REFLEXIVE))

    # -- coordinate analysis -------------------------------------------------

    def varying_coords(self) -> frozenset[int]:
        """Coordinates on which the region takes at least two values."""
        if self.is_empty():
            raise EmptyRegionError("coordinate analysis of the empty region")
        out = set()
        for i in range(self.dim):
            ivs = [b.intervals[i] for b in self.boxes]
            if any(iv.hi is OMEGA or iv.hi > iv.lo for iv in ivs):
                out.add(i)
            elif len({iv.lo for iv in ivs}) > 1:
                out.add(i)
        return frozenset(out)

    def hull(self) -> "Region":
        """The box pinning each constant coordinate and freeing the rest."""
        varying = self.varying_coords()
        ivs = tuple(
            Interval(0, OMEGA) if i in varying else Interval(self.boxes[0].intervals[i].lo, self.boxes[0].intervals[i].lo)
            for i in range(self.dim)
        )
        return Region(self.dim, (Box(ivs),))

    def min_point(self) -> Point:
        """Lexicographically least member; each box attains its lower corner."""
        if self.is_empty():
            raise EmptyRegionError("minimum of the empty region")
        return min(b.min_point() for b in self.boxes)

    def max_constant(self) -> int:
        """Largest finite bound appearing in any box (0 for the empty region)."""
        best = 0
        for b in self.boxes:
            for iv in b.intervals:
                best = max(best, iv.lo if iv.hi is OMEGA else iv.hi)
        return best

    # -- geometric transforms ------------------------------------------------

    def translate(self, delta: int) -> "Region":
        """Shift every finite bound by delta (negative shifts require lo >= -delta)."""
        if delta < 0:
            for b in self.boxes:
                for iv in b.intervals:
                    if iv.lo < -delta:
                        raise ValueError(
                            f"cannot translate {self!r} by {delta}: bound {iv.lo} too small"
                        )
        return Region(
            self.dim,
            tuple(Box(tuple(iv.shifted(delta) for iv in b.intervals)) for b in self.boxes),
        )

    def insert_coords(self, coords: Iterable[int], value: int) -> "Region":
        """Insert constant coordinates; positions refer to the result's indexing."""
        _check_nat(value, "inserted value")
        new_dim = self.dim + len(set(coords))
        ins = frozenset(coords)
        if any(i < 0 or i >= new_dim for i in ins):
            raise ValueError(f"insert positions {sorted(ins)} out of range for dim {new_dim}")
        out = []
        for b in self.boxes:
            src = iter(b.intervals)
            ivs = tuple(
                Interval(value, value) if i in ins else next(src) for i in range(new_dim)
            )
            out.append(Box(ivs))
        return Region(new_dim, tuple(out))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        norm = self.normalize() if len(self.boxes) > 1 else self
        return {
            "dim": norm.dim,
            "boxes": [
                [[iv.lo, iv.hi] for iv in b.intervals] for b in norm.boxes
            ],
        }

    @classmethod
    def from_json(cls, obj: object) -> "Region":
        if not isinstance(obj, dict):
            raise ValueError("region must be a JSON object")
        dim = obj.get("dim")
        if type(dim) is not int or dim < 1:
            raise ValueError(f"region field 'dim' must be a positive integer, got {dim!r}")
        raw = obj.get("boxes")
        if not isinstance(raw, list):
            raise ValueError("region field 'boxes' must be a list")
        boxes = []
        for b in raw:
            if not isinstance(b, list) or len(b) != dim:
                raise ValueError(f"each box must list {dim} [lo, hi] pairs, got {b!r}")
            ivs = []
            for pair in b:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(f"interval must be a [lo, hi] pair, got {pair!r}")
                lo, hi = pair
                ivs.append(Interval(lo, hi))
            boxes.append(Box(tuple(ivs)))
        return cls(dim, tuple(boxes))

    def __repr__(self) -> str:
        if self.is_empty():
            return f"Region{self.dim}(empty)"
        return f"Region{self.dim}(" + " | ".join(repr(b) for b in self.boxes) + ")"


# -- constructors --------------------------------------------------------------


def box(*bounds: "int | tuple[int, Optional[int]]") -> Box:
    """Build a box from per-coordinate bounds: an int c means [c, c]."""
    ivs = []
    for b in bounds:
        if isinstance(b, tuple):
            ivs.append(Interval(b[0], b[1]))
        else:
            ivs.append(Interval(b, b))
    return Box(tuple(ivs))


def region(*boxes: Box) -> Region:
    """Region as a union of boxes; dimension is inferred (needs >= 1 box)."""
    if not boxes:
        raise ValueError("region() needs at least one box; use empty_region(dim)")
    return Region(boxes[0].dim, tuple(boxes))


def empty_region(dim: int) -> Region:
    return Region(dim, ())


def full(dim: int) -> Region:
    """The whole grid of the given dimension."""
    return Region(dim, (Box(tuple(Interval(0, OMEGA) for _ in range(dim))),))


def point_region(*coords: int) -> Region:
    """The singleton region containing exactly one point."""
    return Region(len(coords), (box(*coords),))


def upper_quadrant(dim: int, k: int) -> Region:
    """All points with every coordinate at least k."""
    _check_nat(k, "quadrant offset")
    return Region(dim, (Box(tuple(Interval(k, OMEGA) for _ in range(dim))),))

