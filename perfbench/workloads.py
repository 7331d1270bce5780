"""Seeded inputs for the two benchmark workloads.

``build`` turns a workload name and a seed into a list of cases.  Each case
is one call of the boxmodal command line, with its input files already
written to the work directory.  The same seed always gives the same cases
and the same files.

* ``refine``: ``refine --verify`` on ``gen_random`` partitions (n in {2, 3},
  1-8 cells, max constant 0-8), then on the square family and on random
  boxes with constants in the same ranges.
* ``small_commands``: many cheap calls of ``check-tuned``,
  ``check-monotone``, ``product``, ``subalgebra``, ``quotient`` and ``mc``.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from types import ModuleType

WORKLOADS = ("refine", "small_commands")

# Square family sizes: cell [0, C-1]^n plus its complement.
SQUARE_SIZES = {2: (8, 16, 24, 32), 3: (4, 6, 8), 4: (3, 4)}
# The dimension whose square family defines growth_slope.
SLOPE_DIM = 2

# Random cases per workload, fixed so that a run always times the same
# cases for a seed.  refine adds one square per size in SQUARE_SIZES and one
# random-box case per size below the largest of its dimension.
CORPUS_SIZE = {"refine": 48, "small_commands": 480}

# Candidates drawn per corpus case; enough that every stratum fills.
DRAW_FACTOR = 2.5

# Share of each stratum in the generator's distribution, from
# estimate_shares(bm, 20000).  refine strata are (n, k0).  Cost grows
# steeply with k0, so these are what a corpus must hold in fixed numbers to
# time the same mix on every seed.
STRATUM_SHARES = {
    "refine": {
        (2, 0): 0.0599, (2, 1): 0.1049, (2, 2): 0.0595, (2, 3): 0.0638, (2, 4): 0.0602,
        (2, 5): 0.0511, (2, 6): 0.0433, (2, 7): 0.034, (2, 8): 0.0198,
        (3, 0): 0.0607, (3, 1): 0.1071, (3, 2): 0.0565, (3, 3): 0.0614, (3, 4): 0.059,
        (3, 5): 0.0544, (3, 6): 0.0481, (3, 7): 0.0362, (3, 8): 0.02,
    },
}


@dataclass
class Case:
    """One CLI call.  ``argv`` excludes ``--out``; the runner appends it."""

    index: int
    kind: str
    argv: list[str]
    out: str
    # Facts the correctness checks need: dimension, order, the input file.
    meta: dict = field(default_factory=dict)


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def json(self, obj: object) -> str:
        path = os.path.join(self.workdir, f"in_{self.count:04d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        return path

    def out(self, index: int) -> str:
        return os.path.join(self.workdir, f"out_{index:04d}.json")


# -- generators --------------------------------------------------------------------


def _random_partition(bm: ModuleType, rng: random.Random, n: int, cells: int, max_const: int):
    """``gen_random`` with the cell count clamped to what the thresholds allow."""
    cap = (min(3, max(1, max_const)) + 1) ** n
    cells = min(cells, cap)
    seed = rng.randrange(1 << 30)
    for _ in range(256):
        try:
            return bm.gen_random(n, cells, max_const, seed)
        except bm.InfeasibleParameters:
            seed = (seed + 1000003) % (1 << 30)
    raise RuntimeError("no feasible random partition")


def _random_region(bm: ModuleType, rng: random.Random, dim: int, max_const: int, max_boxes: int = 3):
    boxes = []
    for _ in range(rng.randint(0, max_boxes)):
        ivs = []
        for _ in range(dim):
            lo = rng.randint(0, max_const)
            hi = bm.OMEGA if rng.random() < 0.4 else rng.randint(lo, max_const)
            ivs.append(bm.Interval(lo, hi))
        boxes.append(bm.Box(tuple(ivs)))
    return bm.Region(dim, tuple(boxes))


def _random_formula(bm: ModuleType, rng: random.Random, names: list[str], depth: int):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return bm.Const(rng.random() < 0.5)
        return bm.Var(rng.choice(names))
    pick = rng.randrange(6)
    if pick == 0:
        return bm.Not(_random_formula(bm, rng, names, depth - 1))
    if pick == 1:
        return bm.Diamond(_random_formula(bm, rng, names, depth - 1))
    if pick == 2:
        return bm.BoxF(_random_formula(bm, rng, names, depth - 1))
    left = _random_formula(bm, rng, names, depth - 1)
    right = _random_formula(bm, rng, names, depth - 1)
    return (bm.And, bm.Or, bm.Implies)[pick - 3](left, right)


def _random_valuation(bm: ModuleType, rng: random.Random, dim: int, n_vars: int, max_const: int):
    order = rng.choice([bm.OrderKind.REFLEXIVE, bm.OrderKind.STRICT])
    names = ["p", "q", "r"][:n_vars]
    return bm.Valuation(dim, order, {k: _random_region(bm, rng, dim, max_const) for k in names})


def _square(bm: ModuleType, n: int, c: int):
    sq = bm.Region(n, (bm.Box(tuple(bm.Interval(0, c - 1) for _ in range(n))),))
    return bm.make_partition(bm.full(n), [sq, sq.complement()])


def _quotas(total: int, shares: dict) -> dict:
    """Split total over the strata in proportion to shares (largest remainder)."""
    exact = {k: total * v / sum(shares.values()) for k, v in shares.items()}
    quotas = {k: int(x) for k, x in exact.items()}
    short = total - sum(quotas.values())
    for k in sorted(exact, key=lambda k: (quotas[k] - exact[k], k))[:short]:
        quotas[k] += 1
    return quotas


def _stratified(rng: random.Random, draw, workload: str) -> list:
    """Fill every stratum's quota from a fixed number of draws, kept in order.

    ``draw()`` returns (item, stratum).  Fixing how many cases each stratum
    gets removes the seed-to-seed swing in how many slow cases a corpus
    holds, while the mix still follows the generator's distribution.  The
    fixed number of draws, DRAW_FACTOR times the corpus size, keeps the
    set-up work the same from seed to seed; draws go on past it only in the
    rare case that a stratum is still short.
    """
    quotas = _quotas(CORPUS_SIZE[workload], STRATUM_SHARES[workload])
    left = sum(quotas.values())
    out = []
    for count in itertools.count():
        if not left and count >= DRAW_FACTOR * CORPUS_SIZE[workload]:
            return out
        item, stratum = draw()
        if quotas.get(stratum, 0) > 0:
            quotas[stratum] -= 1
            left -= 1
            out.append(item)


def estimate_shares(bm: ModuleType, draws: int, seed: int = 777) -> dict:
    """How often each refine stratum occurs; the source of STRATUM_SHARES."""
    rng = random.Random(seed)
    counts: dict = {}
    for _ in range(draws):
        stratum = _draw_refine(bm, rng)[1]
        counts[stratum] = counts.get(stratum, 0) + 1
    return {k: round(v / draws, 4) for k, v in sorted(counts.items())}


# -- workloads -------------------------------------------------------------------


def _refine_case(w: _Writer, index: int, p, **meta) -> Case:
    path = w.json(p.to_json())
    meta.update(dim=p.dim, cells_in=p.size, partition=path)
    return Case(index, "refine", ["refine", "--partition", path, "--verify"], w.out(index), meta)


def _draw_refine(bm, rng):
    n = rng.choice((2, 3))
    p = _random_partition(bm, rng, n, rng.randint(1, 8), rng.randint(0, 8))
    return p, (n, bm.cofinal_threshold(p))


def _random_boxes(bm, rng, n: int, c: int):
    """Membership classes of 1-2 boxes whose upper bounds lie in c-1..c."""
    family = []
    for _ in range(rng.randint(1, 2)):
        ivs = [bm.Interval(rng.randint(0, c // 2), rng.randint(c - 1, c)) for _ in range(n)]
        family.append(bm.Region(n, (bm.Box(tuple(ivs)),)))
    return bm.induced(bm.full(n), family)


def _refine(bm, rng, w):
    cases = [_refine_case(w, i, p) for i, p in enumerate(_stratified(rng, lambda: _draw_refine(bm, rng), "refine"))]
    sizes = [(n, c) for n, cs in SQUARE_SIZES.items() for c in cs]
    for n, c in sizes:
        cases.append(_refine_case(w, len(cases), _square(bm, n, c), square=c))
    for n, c in sizes:
        if c < SQUARE_SIZES[n][-1]:
            cases.append(_refine_case(w, len(cases), _random_boxes(bm, rng, n, c)))
    return cases


def _mc_case(bm, w: _Writer, index: int, f, val) -> Case:
    path = w.json(val.to_json())
    text = bm.format_formula(f)
    meta = {"dim": val.dim, "valuation": path, "formula": text}
    return Case(index, "mc", ["mc", "--formula", text, "--valuation", path], w.out(index), meta)


def _fibered(bm, rng, dim: int, n_worlds: int):
    worlds = [chr(ord("a") + i) for i in range(n_worlds)]
    edges = [(g, h) for g in worlds for h in worlds if rng.random() < 0.5]
    fibers = [
        _random_partition(bm, rng, dim, rng.randint(1, 3), rng.randint(0, 4)) for _ in worlds
    ]
    return bm.make_fibered(worlds, edges, fibers)


def _small_case(bm, rng, w: _Writer, index: int) -> Case:
    """The index-th call of small_commands.

    The kind cycles with the index, and so do the parameters that set a
    call's cost (dimension, order, worlds, generators, variables): every
    seed gets the same balanced mix of them, and the seed draws the regions,
    partitions and formulas.
    """
    kind = ("check-tuned", "check-monotone", "product", "subalgebra", "quotient", "mc")[index % 6]
    j = index // 6
    dim = 1 + j % 2
    order = ("le", "lt")[j // 2 % 2]
    out = w.out(index)
    if kind in ("check-tuned", "check-monotone"):
        p = _random_partition(bm, rng, 1 + j % 3, 2 + j // 3 % 5, 1 + j // 15 % 6)
        path = w.json(p.to_json())
        argv = [kind, "--partition", path]
        meta = {"dim": p.dim, "cells_in": p.size, "partition": path}
        if kind == "check-tuned":
            argv += ["--order", order]
            meta["order"] = order
        return Case(index, kind, argv, out, meta)
    if kind == "product":
        path = w.json(_fibered(bm, rng, dim, 2 + j // 4 % 2).to_json())
        return Case(index, kind, [kind, "--partition", path, "--order", order], out, {"dim": dim})
    if kind == "subalgebra":
        gens = [_random_region(bm, rng, dim, 2, 1) for _ in range(1 + j // 4 % 2)]
        path = w.json({"dim": dim, "regions": [g.to_json() for g in gens]})
        return Case(index, kind, [kind, "--generators", path, "--order", order], out, {"dim": dim})
    if kind == "quotient":
        val = _random_valuation(bm, rng, dim, 1 + j // 4 % 2, 3)
        base = bm.induced(bm.full(dim), [val.vars[k] for k in sorted(val.vars)])
        refined, _ = bm.refine_monotone(base)
        ppath = w.json(refined.to_json())
        vpath = w.json(val.to_json())
        argv = [kind, "--partition", ppath, "--valuation", vpath]
        return Case(index, kind, argv, out, {"dim": dim})
    val = _random_valuation(bm, rng, 1, 1 + j % 2, 3)
    return _mc_case(bm, w, index, _random_formula(bm, rng, sorted(val.vars), 2), val)


def _small_commands(bm, rng, w):
    return [_small_case(bm, rng, w, i) for i in range(CORPUS_SIZE["small_commands"])]


_BUILDERS = {
    "refine": _refine,
    "small_commands": _small_commands,
}


def build(bm: ModuleType, workload: str, seed: int, workdir: str) -> list[Case]:
    """Generate the workload's cases for a seed and write their input files."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](bm, rng, _Writer(workdir))


# The documented deep-formula input: by the README contract it should exit 2.
DEEP_FORMULA = "~" * 3000 + "p"


def deep_formula_case(bm: ModuleType, workdir: str) -> Case:
    val = bm.Valuation(1, bm.OrderKind.REFLEXIVE, {"p": bm.point_region(0)})
    path = os.path.join(workdir, "deep_formula_valuation.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(val.to_json(), fh)
    argv = ["mc", "--formula", DEEP_FORMULA, "--valuation", path]
    return Case(-1, "deep_formula", argv, os.path.join(workdir, "deep_formula_out.json"))


def cells_out(case: Case, payload: dict) -> int:
    """Cells of the partition a case produces, or checks, read from its output."""
    kind = case.kind
    if kind == "refine":
        return len(payload["partition"]["cells"])
    if kind == "mc":
        return payload["cells_refined"]
    if kind == "product":
        return len(next(iter(payload["fibered"]["fibers"].values()))["cells"])
    if kind == "quotient":
        return payload["worlds"]
    if kind == "subalgebra":
        return payload["atom_count"]
    return case.meta["cells_in"]
