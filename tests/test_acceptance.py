"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
from __future__ import annotations

import itertools
import json
import random
import time

from boxmodal import (
    OMEGA,
    OrderKind,
    Partition,
    box,
    filtration_pipeline,
    full,
    generate_subalgebra,
    grid_downset,
    grid_truth,
    grid_tuned,
    induced,
    is_monotone,
    is_tuned,
    make_partition,
    mc_finite,
    monotone_violation,
    parse_formula,
    point_region,
    product_refines,
    product_tuned,
    quotient_frame,
    refine_monotone,
    refine_monotone_1d,
    refine_product_finite,
    refines,
    region,
    truth_region,
    upper_quadrant,
    witness_bound,
    Valuation,
    empty_region,
)
from boxmodal.formulas import Box as BoxF, Implies, subformulas
from boxmodal.randgen import gen_random

from genutil import (
    hull,
    random_fibered,
    random_formula,
    random_partition,
    random_region,
    random_valuation,
    varying_coords,
)

LE = OrderKind.REFLEXIVE
LT = OrderKind.STRICT


def _report(line: str) -> None:
    print(f"\n{line}")


# ----------------------------------------------------------------------------
# Criterion 1: refiner soundness on a seeded random corpus.
# ----------------------------------------------------------------------------


def _soundness_batch(n: int, count: int) -> float:
    rng = random.Random(1000 + n)
    start = time.perf_counter()
    for i in range(count):
        cells = 1 + (i % 5)
        max_const = (i * 7) % 9
        p = random_partition(rng, n, cells, max_const)
        q, trace = refine_monotone(p)
        assert refines(q, p), f"n={n} case {i}: output does not refine input"
        assert is_monotone(q), f"n={n} case {i}: output not monotone"
        assert is_tuned(q, LE), f"n={n} case {i}: output not tuned (le)"
        assert is_tuned(q, LT), f"n={n} case {i}: output not tuned (lt)"
        assert len(trace.steps) == (trace.k0 or 0) if n > 1 else not trace.steps
    return time.perf_counter() - start


def test_criterion_1_refiner_soundness():
    low = _soundness_batch(1, 200) + _soundness_batch(2, 200)
    high = _soundness_batch(3, 200)
    assert low < 60, f"n<=2 batches took {low:.1f}s (target 60s)"
    assert high < 600, f"n=3 batch took {high:.1f}s (target 600s)"
    _report(
        f"PASS criterion 1: 600 refinements verified "
        f"(n<=2 in {low:.1f}s, n=3 in {high:.1f}s)"
    )


# ----------------------------------------------------------------------------
# Criterion 2: monotone partitions are tuned; bad partitions are caught.
# ----------------------------------------------------------------------------


def _staircase(n: int, k: int) -> Partition:
    """Product of line partitions: singletons 0..k-1 and the tail [k, w)."""
    pieces = [box((j, j)) for j in range(k)] + [box((k, OMEGA))]
    cells = [
        region(box(*[(iv.intervals[0].lo, iv.intervals[0].hi) for iv in combo]))
        for combo in itertools.product(pieces, repeat=n)
    ]
    return make_partition(full(n), cells)


def _handcrafted_monotone() -> list[Partition]:
    cases = [_staircase(n, 0) for n in (1, 2, 3)]
    cases += [_staircase(1, k) for k in (1, 2, 3, 4, 5)]
    cases += [_staircase(2, k) for k in (1, 2, 3, 4)]
    cases += [_staircase(3, k) for k in (1, 2)]
    # Slabs along one coordinate.
    cases.append(
        make_partition(
            full(2),
            [region(box(0, (0, OMEGA))), region(box((1, OMEGA), (0, OMEGA)))],
        )
    )
    cases.append(
        make_partition(
            full(2),
            [
                region(box(0, (0, OMEGA))),
                region(box(1, (0, OMEGA))),
                region(box((2, OMEGA), (0, OMEGA))),
            ],
        )
    )
    cases.append(
        make_partition(
            full(2),
            [region(box((0, OMEGA), 0)), region(box((0, OMEGA), (1, OMEGA)))],
        )
    )
    cases.append(
        make_partition(
            full(3),
            [
                region(box(0, (0, OMEGA), (0, OMEGA))),
                region(box((1, OMEGA), (0, OMEGA), (0, OMEGA))),
            ],
        )
    )
    # Asymmetric staircase: two singleton levels on the first coordinate,
    # one on the second.
    cases.append(
        make_partition(
            full(2),
            [
                region(box(a, b))
                for a in (0, 1, (2, OMEGA))
                for b in (0, (1, OMEGA))
            ],
        )
    )
    # The origin split: a singleton plus everything else.
    origin = point_region(0, 0)
    cases.append(make_partition(full(2), [origin, origin.complement()]))
    return cases


def test_criterion_2_monotone_implies_tuned():
    handcrafted = _handcrafted_monotone()
    assert len(handcrafted) >= 20
    for p in handcrafted:
        assert is_monotone(p)
        assert is_tuned(p, LE)
        assert is_tuned(p, LT)
    # A fresh sample of refiner outputs, re-verified here.
    rng = random.Random(2)
    for n in (1, 2):
        for _ in range(10):
            q, _ = refine_monotone(random_partition(rng, n, 4, 5))
            assert is_monotone(q) and is_tuned(q, LE) and is_tuned(q, LT)

    # Non-monotone partitions with pinned witnesses, each independently
    # validated through the region operations.
    a = point_region(0, 0).union(point_region(1, 1))
    bad1 = make_partition(full(2), [a, a.complement()])
    line = make_partition(
        full(1), [region(box(0), box(2)), point_region(1), upper_quadrant(1, 3)]
    )
    fiber = region(box(0, (0, OMEGA)))
    spike = point_region(1, 0)
    bad3 = make_partition(full(2), [fiber, spike, fiber.union(spike).complement()])
    wide = region(box((0, 1), (0, OMEGA)))
    bad4 = make_partition(full(2), [wide, wide.complement()])
    ell = region(box(0, (1, OMEGA))).union(region(box((1, OMEGA), 0)))
    bad5 = make_partition(
        full(2), [point_region(0, 0), ell, upper_quadrant(2, 1)]
    )
    low = region(box(0), box((2, OMEGA)))
    bad6 = make_partition(full(1), [low, point_region(1)])
    expected = {
        "two_points": (bad1, "hull", 0, None, (0, 2)),
        "line_gap": (line, "hull", 0, None, (3,)),
        "spike": (bad3, "varying", 0, 1, (0, 0)),
        "wide_stripe": (bad4, "hull", 0, None, (2, 0)),
        "ell": (bad5, "hull", 1, None, (1, 1)),
        "line_varying": (bad6, "varying", 0, 1, (0,)),
    }
    for name, (p, kind, cell, other, witness) in expected.items():
        v = monotone_violation(p)
        assert v is not None, name
        assert (v.kind, v.cell, v.other, v.witness) == (kind, cell, other, witness), name
        # Independent validation of the witness through region operations.
        if kind == "hull":
            c = p.cells[v.cell]
            assert hull(c).member(v.witness)
            assert not c.downset(LE).member(v.witness)
        else:
            ci, cj = p.cells[v.cell], p.cells[v.other]
            assert ci.member(v.witness)
            assert cj.downset(LE).member(v.witness)
            assert not varying_coords(ci) <= varying_coords(cj)
    _report(
        f"PASS criterion 2: {len(handcrafted)} handcrafted monotone partitions tuned "
        f"both orders; {len(expected)} non-monotone cases caught with pinned witnesses"
    )


# ----------------------------------------------------------------------------
# Criterion 3: the pinned origin instance.
# ----------------------------------------------------------------------------


def test_criterion_3_pinned_origin_instance():
    origin = point_region(0, 0)
    p = make_partition(full(2), [origin, origin.complement()])
    q, trace = refine_monotone(p)
    expected = [
        origin,
        region(box(0, (1, OMEGA))),
        region(box((1, OMEGA), 0)),
        upper_quadrant(2, 1),
    ]
    assert trace.k0 == 1
    assert q.size == 4
    assert all(a.equal(b) for a, b in zip(q.cells, expected))
    result = generate_subalgebra([origin], LE)
    assert result.atom_count == 4
    assert result.element_count == 16
    # The atom downsets are confirmed against the brute-force grid before
    # they feed the fixpoint.
    for i, atom in enumerate(result.atoms.cells):
        down_region = result.region_of(result.down_atoms[i])
        pts = grid_downset(atom, LE, 3)
        for u in itertools.product(range(4), repeat=2):
            assert (u in pts) == down_region.member(u)
    # Independent fixpoint over atom index sets, seeded with the atoms, the
    # generator, and the bounds, closing under the three operations.
    universe = frozenset(range(4))
    family = {frozenset(), universe, result.generator_atoms[0]}
    family |= {frozenset([i]) for i in range(4)}
    changed = True
    while changed:
        changed = False
        current = list(family)
        for s in current:
            downset = frozenset().union(*(result.down_atoms[i] for i in s)) if s else frozenset()
            for t in [universe - s, downset] + [s & other for other in current]:
                if t not in family:
                    family.add(t)
                    changed = True
    assert len(family) == 16
    _report(
        "PASS criterion 3: origin partition refines to the pinned 4 cells with "
        "k0=1; subalgebra reports 4 atoms and 16 closed elements"
    )


# ----------------------------------------------------------------------------
# Criterion 4: the one-dimensional base case.
# ----------------------------------------------------------------------------


def test_criterion_4_line_base_case():
    p = make_partition(
        full(1), [region(box(0), box(2)), point_region(1), upper_quadrant(1, 3)]
    )
    q = refine_monotone_1d(p)
    expected = [point_region(k) for k in range(3)] + [upper_quadrant(1, 3)]
    assert q.size == 4
    assert all(a.equal(b) for a, b in zip(q.cells, expected))
    # Partitions whose every cell is infinite come back unchanged and are
    # tuned.  In the box-union representation exactly one cell of a line
    # partition can be unbounded, so the all-infinite inputs are the
    # single-cell ones.
    for carrier_cell in (full(1), region(box((0, OMEGA))),):
        case = make_partition(full(1), [carrier_cell])
        out = refine_monotone_1d(case)
        assert out is case
        assert is_tuned(out, LE) and is_tuned(out, LT)
    _report(
        "PASS criterion 4: line partition {0,2}/{1}/[3,w) refines to singletons "
        "plus tail; all-infinite inputs return unchanged and are tuned"
    )


# ----------------------------------------------------------------------------
# Criterion 5: the truth lemma for the filtration pipeline.
# ----------------------------------------------------------------------------


def test_criterion_5_truth_lemma():
    rng = random.Random(500)
    names_pool = ["p", "q", "r"]
    start = time.perf_counter()
    for case in range(300):
        dim = rng.choice([1, 2])
        order = rng.choice([LE, LT])
        names = names_pool[: rng.randint(1, 3)]
        val = random_valuation(rng, dim, names, 5, order)
        f = random_formula(rng, names, 4)
        base = induced(full(dim), [val.vars[k] for k in sorted(val.vars)])
        refined, _ = refine_monotone(base)
        qf = quotient_frame(refined, order, val)
        for sub in subformulas(f):
            symbolic = truth_region(sub, val)
            sat = mc_finite(qf, sub)
            union = empty_region(dim)
            for i in sorted(sat):
                union = union.union(qf.cells[i])
            assert symbolic.equal(union), f"case {case}: mismatch on {sub}"
        # The pipeline itself re-checks and must not raise.
        filtration_pipeline(f, val)
    elapsed = time.perf_counter() - start
    _report(
        f"PASS criterion 5: truth lemma exact on 300 random formula/valuation "
        f"pairs ({elapsed:.1f}s)"
    )


# ----------------------------------------------------------------------------
# Criterion 6: oracle agreement and clamping stability.
# ----------------------------------------------------------------------------


def test_criterion_6_oracle_agreement():
    rng = random.Random(600)
    start = time.perf_counter()
    # 120 downward-closure cases, with the raised-bound stability check.
    for case in range(120):
        dim = rng.choice([1, 2, 3])
        r = random_region(rng, dim, 5)
        order = rng.choice([LE, LT])
        bound = rng.randint(1, 6 if dim < 3 else 4)
        pts = grid_downset(r, order, bound)
        down = r.downset(order)
        for u in itertools.product(range(bound + 1), repeat=dim):
            assert (u in pts) == down.member(u), f"downset case {case}"
        # Stability: raising the witness bound from M to M + 3 changes nothing.
        m = witness_bound(bound, r.max_constant())
        sees = (
            (lambda u, v: all(x <= y for x, y in zip(u, v)))
            if order is LE
            else (lambda u, v: all(x < y for x, y in zip(u, v)))
        )
        targets = [
            v for v in itertools.product(range(m + 4), repeat=dim) if r.member(v)
        ]
        raised = {
            u
            for u in itertools.product(range(bound + 1), repeat=dim)
            if any(sees(u, v) for v in targets)
        }
        assert pts == raised, f"clamping drift in downset case {case}"
    # 90 tuned cases.
    for case in range(90):
        p = random_partition(rng, rng.choice([1, 2]), rng.randint(1, 5), rng.randint(0, 5))
        order = rng.choice([LE, LT])
        ok, _ = grid_tuned(p, order, 7)
        assert ok == is_tuned(p, order), f"tuned case {case}"
    # 90 formula cases.
    for case in range(90):
        dim = rng.choice([1, 2])
        order = rng.choice([LE, LT])
        names = ["p", "q"][: rng.randint(1, 2)]
        val = random_valuation(rng, dim, names, 4, order)
        f = random_formula(rng, names, 3)
        bound = rng.randint(2, 4)
        pts = grid_truth(f, val, bound)
        symbolic = truth_region(f, val)
        for u in itertools.product(range(bound + 1), repeat=dim):
            assert (u in pts) == symbolic.member(u), f"truth case {case}"
    elapsed = time.perf_counter() - start
    _report(
        f"PASS criterion 6: 300 oracle comparisons agree with the symbolic "
        f"engine; clamping stable under M+3 ({elapsed:.1f}s)"
    )


# ----------------------------------------------------------------------------
# Criterion 7: frame validities and the pinned strict-order counterexample.
# ----------------------------------------------------------------------------


def test_criterion_7_frame_logic_sanity():
    rng = random.Random(700)
    tested = 0
    for _ in range(40):
        dim = rng.choice([1, 2])
        names = ["p", "q"]
        phi = random_formula(rng, names, 2)
        val_le = random_valuation(rng, dim, names, 4, LE)
        val_lt = random_valuation(rng, dim, names, 4, LT)
        top = full(dim)
        assert truth_region(Implies(BoxF(phi), phi), val_le).equal(top)
        assert truth_region(Implies(BoxF(phi), BoxF(BoxF(phi))), val_le).equal(top)
        assert truth_region(Implies(BoxF(phi), BoxF(BoxF(phi))), val_lt).equal(top)
        tested += 1
    pinned = Valuation(1, LT, {"p": upper_quadrant(1, 1)})
    t = truth_region(parse_formula("[]p -> p"), pinned)
    assert not t.equal(full(1))
    assert not t.member((0,))
    assert t.equal(upper_quadrant(1, 1))
    _report(
        f"PASS criterion 7: reflexivity and transitivity schemas valid as "
        f"expected on {tested} random instances; strict-order reflexivity "
        f"counterexample pinned at point 0"
    )


# ----------------------------------------------------------------------------
# Criterion 8: products with finite frames.
# ----------------------------------------------------------------------------


def test_criterion_8_product_construction():
    rng = random.Random(800)
    start = time.perf_counter()
    for case in range(50):
        fp = random_fibered(rng, rng.choice([1, 2]), rng.randint(2, 3))
        order = rng.choice([LE, LT])
        out, _ = refine_product_finite(fp)
        assert product_refines(out, fp), f"product case {case}"
        assert product_tuned(out, order), f"product case {case}"
    elapsed = time.perf_counter() - start
    _report(
        f"PASS criterion 8: 50 fibered partitions refined and product-tuned "
        f"({elapsed:.1f}s)"
    )


# ----------------------------------------------------------------------------
# Criterion 9: determinism and JSON round-trips.
# ----------------------------------------------------------------------------


def _partition_semantically_equal(a: Partition, b: Partition) -> bool:
    return (
        a.size == b.size
        and a.carrier.equal(b.carrier)
        and all(x.equal(y) for x, y in zip(a.cells, b.cells))
    )


def test_criterion_9_determinism_and_roundtrip():
    origin = point_region(0, 0)
    p = make_partition(full(2), [origin, origin.complement()])
    dumps = []
    for _ in range(2):
        q, trace = refine_monotone(p)
        dumps.append(
            json.dumps(
                {"partition": q.to_json(), "trace": trace.to_json()}, sort_keys=True
            )
        )
    assert dumps[0] == dumps[1]
    # Pinned generator cases re-run byte-identically.
    for seed in (7, 3, 11):
        g1 = json.dumps(gen_random(2, 3, 4, seed).to_json(), sort_keys=True)
        g2 = json.dumps(gen_random(2, 3, 4, seed).to_json(), sort_keys=True)
        assert g1 == g2
    # Emitted JSON re-parses to semantically equal values.
    rng = random.Random(900)
    for _ in range(20):
        part = random_partition(rng, rng.choice([1, 2, 3]), rng.randint(1, 5), rng.randint(0, 6))
        back = Partition.from_json(json.loads(json.dumps(part.to_json())))
        assert _partition_semantically_equal(part, back)
        r = random_region(rng, 2, 6)
        from boxmodal import Region

        back_r = Region.from_json(json.loads(json.dumps(r.to_json())))
        assert back_r.equal(r)
    from boxmodal import FiberedPartition

    fp = random_fibered(rng, 2, 3)
    back_fp = FiberedPartition.from_json(json.loads(json.dumps(fp.to_json())))
    assert back_fp.worlds == fp.worlds and back_fp.edges == fp.edges
    assert all(
        _partition_semantically_equal(x, y) for x, y in zip(back_fp.fibers, fp.fibers)
    )
    # Quotient frame emission is stable across runs.
    val = Valuation(2, LE, {"p": origin})
    q, _ = refine_monotone(p)
    j1 = json.dumps(quotient_frame(q, LE, val).to_json(), sort_keys=True)
    j2 = json.dumps(quotient_frame(q, LE, val).to_json(), sort_keys=True)
    assert j1 == j2
    _report(
        "PASS criterion 9: refinement, generation, and frame emission are "
        "byte-deterministic; partition, region, and fibered JSON round-trip "
        "to semantically equal values"
    )
