"""Modal semantics over the grid frames, finite quotients, and subalgebras.

``truth_region`` evaluates a formula exactly on the infinite frame: diamond
is downward closure under the chosen order, box its dual.  A partition that
is tuned for the order and compatible with the valuation induces a finite
quotient frame on which finite model checking agrees with the symbolic
semantics cell by cell; ``filtration_pipeline`` builds that quotient via the
monotone refiner and verifies the agreement for every subformula.  It folds
the formula once per side, in the Region algebra and in sets of worlds, and
reads every subformula's truth set from the two folds.

``generate_subalgebra`` exhibits the finite family of region unions closed
under complement, intersection, and downward closure that contains a given
finite set of generators: the unions of cells of a tuned refinement.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .atomgrid import AtomGrid, bit_column
from .formulas import Formula, evaluate, variables
from .partition import Partition, TunedViolation, _tuned_pass, cover, induced
from .refine import RefinementTrace, refine_monotone
from .region import DimensionMismatch, OrderKind, Region, empty_region, full


class UnboundVariable(ValueError):
    pass


class NotTuned(ValueError):
    def __init__(self, violation: TunedViolation):
        super().__init__(
            f"partition is not tuned: cell {violation.source} sees cell "
            f"{violation.target} only partially (witness {violation.witness})"
        )
        self.violation = violation


class NotCompatible(ValueError):
    """The partition does not refine the valuation's membership classes."""

    def __init__(self, var: str, cell: int, witness: Region):
        super().__init__(f"cell {cell} straddles the region of variable {var!r}")
        self.var = var
        self.cell = cell
        self.witness = witness


@dataclass
class Valuation:
    dim: int
    order: OrderKind
    vars: dict[str, Region] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, r in self.vars.items():
            if r.dim != self.dim:
                raise ValueError(f"region of variable {name!r} has the wrong dimension")

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order.value,
            "vars": {name: r.to_json() for name, r in sorted(self.vars.items())},
        }

    @classmethod
    def from_json(cls, obj: object) -> "Valuation":
        if not isinstance(obj, dict):
            raise ValueError("valuation must be a JSON object")
        dim = obj.get("dim")
        if type(dim) is not int or dim < 1:
            raise ValueError(f"valuation field 'dim' must be a positive integer, got {dim!r}")
        order = OrderKind.from_json(obj.get("order", "le"))
        raw = obj.get("vars", {})
        if not isinstance(raw, dict):
            raise ValueError("valuation field 'vars' must be an object")
        regions = {name: Region.from_json(r) for name, r in raw.items()}
        return cls(dim, order, regions)


def _region_fold(f: Formula, val: Valuation) -> dict[Formula, Region]:
    """Exact truth set of every subformula on the infinite frame, in post-order."""
    return evaluate(
        f, val.vars, lambda name: UnboundVariable(f"variable {name!r} has no region"),
        lambda value: full(val.dim) if value else empty_region(val.dim),
        lambda r: r.complement(), lambda a, b: a.intersect(b), lambda a, b: a.union(b),
        lambda r: r.downset(val.order),
    )


def truth_region(f: Formula, val: Valuation) -> Region:
    """Exact truth set of a formula on the infinite frame."""
    return _region_fold(f, val)[f]


@dataclass(frozen=True)
class QuotientFrame:
    """Finite frame whose worlds are the cells of a tuned partition."""

    dim: int
    order: OrderKind
    cells: Sequence[Region]
    edges: frozenset[tuple[int, int]]
    valuation: Mapping[str, frozenset[int]]

    @property
    def world_count(self) -> int:
        return len(self.cells)

    def to_json(self) -> dict:
        return {
            "worlds": self.world_count,
            "edges": sorted(list(e) for e in self.edges),
            "val": {
                name: sorted(worlds) for name, worlds in sorted(self.valuation.items())
            },
            "cells": self.cells.to_json(),
        }


def quotient_frame(p: Partition, order: OrderKind, val: Valuation) -> QuotientFrame:
    """Quotient of the frame by a tuned partition compatible with the valuation.

    World i reaches world j when some point of cell i sees a point of
    cell j; tunedness upgrades that to all points of cell i.
    """
    if val.dim != p.dim:
        raise DimensionMismatch(f"valuation of dimension {val.dim}, partition {p.dim}")
    edges: set[tuple[int, int]] = set()
    violation = _tuned_pass(p._grid, p._owner, p._owner, p.size, order, edges)
    if violation is not None:
        raise NotTuned(violation)
    grid, (owner,) = p._grid.regrid(AtomGrid.for_regions(p.dim, val.vars.values()).cuts, [p._owner])
    val_map: dict[str, frozenset[int]] = {}
    for name in sorted(val.vars):
        partial, whole = cover(owner, grid.region_bool(val.vars[name]), p.size)
        if partial.size:
            i = int(partial[0])
            raise NotCompatible(name, i, p.cells[i].intersect(val.vars[name]))
        val_map[name] = frozenset(int(i) for i in whole)
    return QuotientFrame(p.dim, order, p.cells, frozenset(edges), val_map)


def _world_fold(qf: QuotientFrame, f: Formula) -> dict[Formula, frozenset[int]]:
    """Worlds of the quotient frame satisfying every subformula, in post-order."""
    succ: list[list[int]] = [[] for _ in range(qf.world_count)]
    for i, j in sorted(qf.edges):
        succ[i].append(j)
    everything = frozenset(range(qf.world_count))
    return evaluate(
        f, qf.valuation,
        lambda name: UnboundVariable(f"variable {name!r} not interpreted in the frame"),
        lambda value: everything if value else frozenset(),
        lambda s: everything - s, frozenset.__and__, frozenset.__or__,
        lambda s: frozenset(i for i in everything if any(j in s for j in succ[i])),
    )


def mc_finite(qf: QuotientFrame, f: Formula) -> frozenset[int]:
    """Worlds of the quotient frame satisfying the formula."""
    return _world_fold(qf, f)[f]


class TruthLemmaFailure(RuntimeError):
    """The quotient and the symbolic semantics disagreed; indicates a bug."""


@dataclass(frozen=True)
class FiltrationReport:
    dim: int
    order: OrderKind
    cells_input: int
    cells_refined: int
    world_count: int
    edge_count: int
    truth: Region
    globally_true: bool
    subformula_count: int
    trace: RefinementTrace

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order.value,
            "cells_input": self.cells_input,
            "cells_refined": self.cells_refined,
            "worlds": self.world_count,
            "edges": self.edge_count,
            "truth_region": self.truth.to_json(),
            "globally_true": self.globally_true,
            "subformulas": self.subformula_count,
            "trace": self.trace.to_json(),
        }


def filtration_pipeline(f: Formula, val: Valuation) -> FiltrationReport:
    """Build the tuned quotient for a formula and verify it is truth-preserving.

    For every subformula, the union of satisfying cells in the quotient must
    equal the symbolic truth region; a mismatch raises TruthLemmaFailure.
    """
    missing = variables(f) - set(val.vars)
    if missing:
        raise UnboundVariable(f"variables with no region: {sorted(missing)}")
    base = induced(full(val.dim), [val.vars[name] for name in sorted(val.vars)])
    refined, trace = refine_monotone(base)
    qf = quotient_frame(refined, val.order, val)
    regions = _region_fold(f, val)
    worlds = _world_fold(qf, f)
    cuts = AtomGrid.for_regions(val.dim, regions.values()).cuts
    grid, (owner,) = refined._grid.regrid(cuts, [refined._owner])
    for sub, region in regions.items():
        quotient = np.isin(owner, sorted(worlds[sub]))
        if not np.array_equal(quotient, grid.region_bool(region)):
            raise TruthLemmaFailure(f"quotient disagrees with the frame semantics on {sub}")
    truth = regions[f]
    return FiltrationReport(
        dim=val.dim,
        order=val.order,
        cells_input=base.size,
        cells_refined=refined.size,
        world_count=qf.world_count,
        edge_count=len(qf.edges),
        truth=truth.normalize(),
        globally_true=truth.equal(full(val.dim)),
        subformula_count=len(regions),
        trace=trace,
    )


# -- finitely generated subalgebras -----------------------------------------------


class TooManyAtoms(ValueError):
    pass


@dataclass(frozen=True)
class SubalgebraResult:
    """Finite closed family containing the generators, as unions of atoms."""

    order: OrderKind
    atoms: Partition
    generator_atoms: tuple[frozenset[int], ...]
    down_atoms: tuple[frozenset[int], ...]
    trace: RefinementTrace

    @property
    def atom_count(self) -> int:
        return self.atoms.size

    @property
    def element_count(self) -> int:
        return 1 << self.atom_count

    def region_of(self, atom_set: frozenset[int]) -> Region:
        out = empty_region(self.atoms.dim)
        for i in sorted(atom_set):
            out = out.union(self.atoms.cells[i])
        return out

    def downset_of(self, atom_set: frozenset[int]) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for i in atom_set:
            out |= self.down_atoms[i]
        return out

    def to_json(self) -> dict:
        return {
            "order": self.order.value,
            "atom_count": self.atom_count,
            "element_count": self.element_count,
            "atoms": self.atoms.to_json(),
            "generator_atoms": [sorted(s) for s in self.generator_atoms],
        }


def generate_subalgebra(
    generators: Sequence[Region],
    order: OrderKind,
    dim: Optional[int] = None,
    max_atoms: int = 16,
) -> SubalgebraResult:
    """Close finitely many regions under complement, intersection, and downset.

    The tuned refinement of the membership classes of the generators yields
    atoms whose unions form a family closed under all three operations; the
    generators decompose exactly into atoms.  Exactness of the downset step
    is verified atom by atom, which is what makes the family's closure a
    checked fact rather than an assumption.
    """
    generators = list(generators)
    if dim is None:
        if not generators:
            raise ValueError("dim is required when there are no generators")
        dim = generators[0].dim
    for g in generators:
        if g.dim != dim:
            raise ValueError("generators must share a dimension")
    base = induced(full(dim), generators)
    atoms, trace = refine_monotone(base)
    if atoms.size > max_atoms:
        raise TooManyAtoms(
            f"{atoms.size} atoms would give 2**{atoms.size} elements; "
            f"the limit is {max_atoms} atoms"
        )
    grid, (owner,) = atoms._grid.regrid(AtomGrid.for_regions(dim, generators).cuts, [atoms._owner])

    def decompose(held: np.ndarray, what: str) -> frozenset[int]:
        partial, whole = cover(owner, held, atoms.size)
        if partial.size:
            raise RuntimeError(f"{what} is not a union of atoms")
        if (held & (owner < 0)).any():
            raise RuntimeError(f"{what} leaks outside the atom partition")
        return frozenset(int(i) for i in whole)

    generator_atoms = tuple(
        decompose(grid.region_bool(g), f"generator {k}") for k, g in enumerate(generators)
    )
    down_atoms = tuple(
        decompose(bit_column(bits, k), f"downset of atom {j}")
        for block, bits, _, _ in grid.sees(owner, owner, atoms.size, order)
        for k, j in enumerate(block)
    )
    return SubalgebraResult(order, atoms, generator_atoms, down_atoms, trace)
