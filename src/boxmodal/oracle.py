"""Brute-force ground truth on bounded grids.

Everything here enumerates points and witnesses directly, so results can be
compared against the symbolic operations.  Witness searches are clamped:
whenever a point of [0, B]^n sees some point of a region whose finite bounds
stay at or below C, it sees one inside [0, max(B, C) + 1]^n, because any
witness coordinate above C lies in an unbounded interval and can be lowered
to just above the source point.  The same argument caps the evaluation grids
for formulas, with the allowance growing by one per modal layer and by the
bound drift of complements.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

from .formulas import (
    And,
    Box,
    Const,
    Diamond,
    Formula,
    Implies,
    Not,
    Or,
    Var,
    constant_growth,
    modal_depth,
)
from .modal import UnboundVariable, Valuation
from .partition import Partition
from .region import OrderKind, Point, Region

GRID_CAP = 10_000_000


class GridTooLarge(ValueError):
    pass


class BoundTooSmall(ValueError):
    pass


def witness_bound(bound: int, max_constant: int) -> int:
    """Safe coordinate cap for witness searches from points in [0, bound]^n."""
    return max(bound, max_constant) + 1


def _check_cap(dim: int, bound: int) -> None:
    if (bound + 1) ** max(dim, 1) > GRID_CAP:
        raise GridTooLarge(f"grid [0, {bound}]^{dim} exceeds the point cap {GRID_CAP}")


def _points(dim: int, bound: int) -> Iterable[Point]:
    return itertools.product(range(bound + 1), repeat=dim)


def _dominates(order: OrderKind) -> Callable[[Point, Point], bool]:
    if order is OrderKind.REFLEXIVE:
        return lambda u, v: all(a <= b for a, b in zip(u, v))
    return lambda u, v: all(a < b for a, b in zip(u, v))


def grid_downset(v: Region, order: OrderKind, bound: int) -> set[Point]:
    """Points of [0, bound]^n seeing some point of v, by exhaustive search."""
    m = witness_bound(bound, v.max_constant())
    _check_cap(v.dim, m)
    sees = _dominates(order)
    targets = [p for p in _points(v.dim, m) if v.member(p)]
    return {
        u for u in _points(v.dim, bound) if any(sees(u, t) for t in targets)
    }


def grid_tuned(
    p: Partition, order: OrderKind, bound: int
) -> tuple[bool, Optional[tuple[int, int, Point]]]:
    """Tuned check by enumeration; sound for bound >= max constant + 1."""
    max_const = max(
        [p.carrier.max_constant()] + [c.max_constant() for c in p.cells]
    )
    if bound < max_const + 1:
        raise BoundTooSmall(
            f"bound {bound} below the sound bound {max_const + 1} for this partition"
        )
    m = witness_bound(bound, max_const)
    _check_cap(p.dim, m)
    sees = _dominates(order)
    sources = [
        [u for u in _points(p.dim, bound) if cell.member(u)] for cell in p.cells
    ]
    targets = [
        [v for v in _points(p.dim, m) if cell.member(v)] for cell in p.cells
    ]
    best: Optional[tuple[int, int]] = None
    for j in range(p.size):
        for i in range(p.size):
            if best is not None and best <= (i, j):
                continue
            if any(sees(u, v) for u in sources[i] for v in targets[j]):
                for u in sources[i]:
                    if not any(sees(u, v) for v in targets[j]):
                        best = (i, j)
                        break
    if best is None:
        return True, None
    i, j = best
    for u in sources[i]:
        if not any(sees(u, v) for v in targets[j]):
            return False, (i, j, u)
    raise AssertionError("unreachable")


def grid_truth(
    f: Formula,
    val: Valuation,
    bound: int,
    witness_cap: Optional[int] = None,
) -> set[Point]:
    """Pointwise model checking on [0, bound]^n with clamped witness search.

    The internal evaluation grid is raised automatically to keep every
    witness search sound; passing witness_cap below that requirement is an
    error rather than a silent truncation.
    """
    max_const = max((r.max_constant() for r in val.vars.values()), default=0)
    c_eff = max_const + constant_growth(f)
    need = max(bound, c_eff) + modal_depth(f) + 1
    if witness_cap is not None and witness_cap < need:
        raise BoundTooSmall(
            f"witness cap {witness_cap} below the required bound {need}"
        )
    _check_cap(val.dim, need)
    sees = _dominates(val.order)
    memo: dict[tuple[Formula, int], set[Point]] = {}

    def sat(node: Formula, dom: int) -> set[Point]:
        key = (node, dom)
        cached = memo.get(key)
        if cached is not None:
            return cached
        pts = list(_points(val.dim, dom))
        if isinstance(node, Var):
            if node.name not in val.vars:
                raise UnboundVariable(f"variable {node.name!r} has no region")
            region = val.vars[node.name]
            out = {u for u in pts if region.member(u)}
        elif isinstance(node, Const):
            out = set(pts) if node.value else set()
        elif isinstance(node, Not):
            out = set(pts) - sat(node.sub, dom)
        elif isinstance(node, And):
            out = sat(node.left, dom) & sat(node.right, dom)
        elif isinstance(node, Or):
            out = sat(node.left, dom) | sat(node.right, dom)
        elif isinstance(node, Implies):
            out = (set(pts) - sat(node.left, dom)) | sat(node.right, dom)
        elif isinstance(node, (Diamond, Box)):
            wdom = max(dom, c_eff) + 1
            inner = sat(node.sub, wdom)
            witnesses = list(_points(val.dim, wdom))
            if isinstance(node, Diamond):
                out = {u for u in pts if any(v in inner for v in witnesses if sees(u, v))}
            else:
                out = {u for u in pts if all(v in inner for v in witnesses if sees(u, v))}
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[key] = out
        return out

    return sat(f, bound)
