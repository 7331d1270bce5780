"""Symbolic truth, quotient frames, the filtration pipeline, subalgebras."""
from __future__ import annotations

import random

import pytest

from boxmodal import (
    OMEGA,
    DimensionMismatch,
    NotCompatible,
    NotTuned,
    OrderKind,
    UnboundVariable,
    Valuation,
    box,
    filtration_pipeline,
    full,
    generate_subalgebra,
    make_partition,
    mc_finite,
    parse_formula,
    point_region,
    quotient_frame,
    refine_monotone,
    region,
    truth_region,
    upper_quadrant,
)
from boxmodal import modal
from boxmodal.formulas import subformulas
from boxmodal.modal import TruthLemmaFailure

from genutil import random_formula, random_valuation

LE = OrderKind.REFLEXIVE
LT = OrderKind.STRICT


def val_le(**vars):
    return Valuation(2, LE, vars)


def four_cell():
    origin = point_region(0, 0)
    q, _ = refine_monotone(make_partition(full(2), [origin, origin.complement()]))
    return q


class TestTruthRegion:
    def test_diamond_origin(self):
        v = val_le(p=point_region(0, 0))
        assert truth_region(parse_formula("<>p"), v).equal(point_region(0, 0))
        v_lt = Valuation(2, LT, {"p": point_region(0, 0)})
        assert truth_region(parse_formula("<>p"), v_lt).is_empty()

    def test_diamond_cofinal(self):
        v = val_le(p=region(box((3, OMEGA), (5, OMEGA))))
        assert truth_region(parse_formula("<>p"), v).equal(full(2))

    def test_box_false_strict(self):
        v = Valuation(2, LT, {})
        assert truth_region(parse_formula("[]false"), v).is_empty()

    def test_box_dual(self):
        rng = random.Random(4)
        for _ in range(10):
            v = random_valuation(rng, 2, ["p", "q"], 4, rng.choice([LE, LT]))
            f = random_formula(rng, ["p", "q"], 3)
            boxed = truth_region(parse_formula("[]p"), v)
            dual = truth_region(parse_formula("~<>~p"), v)
            assert boxed.equal(dual)
            del f

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            truth_region(parse_formula("q"), val_le(p=full(2)))


class TestFrameLaws:
    def test_reflexive_axioms(self):
        rng = random.Random(8)
        for _ in range(15):
            v = random_valuation(rng, rng.choice([1, 2]), ["p", "q"], 4, LE)
            phi = random_formula(rng, ["p", "q"], 2)
            from boxmodal.formulas import Box as BoxF, Implies

            t = truth_region(Implies(BoxF(phi), phi), v)
            assert t.equal(full(v.dim))
            tt = truth_region(Implies(BoxF(phi), BoxF(BoxF(phi))), v)
            assert tt.equal(full(v.dim))

    def test_strict_transitive_not_reflexive(self):
        rng = random.Random(12)
        for _ in range(15):
            v = random_valuation(rng, rng.choice([1, 2]), ["p", "q"], 4, LT)
            phi = random_formula(rng, ["p", "q"], 2)
            from boxmodal.formulas import Box as BoxF, Implies

            tt = truth_region(Implies(BoxF(phi), BoxF(BoxF(phi))), v)
            assert tt.equal(full(v.dim))
        # Pinned counterexample to reflexivity under the strict order.
        v = Valuation(1, LT, {"p": upper_quadrant(1, 1)})
        t = truth_region(parse_formula("[]p -> p"), v)
        assert not t.equal(full(1))
        assert not t.member((0,))


class TestQuotientFrame:
    def test_edges_reflexive(self):
        qf = quotient_frame(four_cell(), LE, val_le(p=point_region(0, 0)))
        assert qf.world_count == 4
        assert sorted(qf.edges) == [
            (0, 0), (0, 1), (0, 2), (0, 3),
            (1, 1), (1, 3), (2, 2), (2, 3), (3, 3),
        ]
        assert qf.valuation["p"] == {0}

    def test_edges_strict(self):
        qf = quotient_frame(
            four_cell(), LT, Valuation(2, LT, {"p": point_region(0, 0)})
        )
        assert sorted(qf.edges) == [(0, 3), (1, 3), (2, 3), (3, 3)]

    def test_single_cell(self):
        p = make_partition(full(2), [full(2)])
        qf = quotient_frame(p, LE, Valuation(2, LE, {}))
        assert qf.world_count == 1
        assert qf.edges == {(0, 0)}

    def test_rejects_untuned(self):
        a = region(box(0, 0), box(1, 1))
        b = point_region(0, 1)
        p = make_partition(full(2), [a, b, a.union(b).complement()])
        with pytest.raises(NotTuned):
            quotient_frame(p, LE, Valuation(2, LE, {}))

    def test_rejects_incompatible_valuation(self):
        with pytest.raises(NotCompatible):
            quotient_frame(four_cell(), LE, val_le(p=point_region(5, 5)))

    def test_rejects_valuation_of_another_dimension(self):
        with pytest.raises(DimensionMismatch, match="valuation of dimension 1, partition 2"):
            quotient_frame(four_cell(), LE, Valuation(1, LE, {}))

    def test_valuation_stability(self):
        # Moving a variable region across unions of the same cells keeps edges.
        p = four_cell()
        qf1 = quotient_frame(p, LE, val_le(p=point_region(0, 0)))
        qf2 = quotient_frame(p, LE, val_le(p=upper_quadrant(2, 1)))
        assert qf1.edges == qf2.edges


class TestMcFinite:
    def test_diamond(self):
        qf = quotient_frame(four_cell(), LE, val_le(p=point_region(0, 0)))
        assert mc_finite(qf, parse_formula("<>p")) == {0}

    def test_box_diamond(self):
        qf = quotient_frame(four_cell(), LE, val_le(p=upper_quadrant(2, 1)))
        assert mc_finite(qf, parse_formula("[]<>p")) == {0, 1, 2, 3}

    def test_bottom(self):
        qf = quotient_frame(four_cell(), LE, val_le())
        assert mc_finite(qf, parse_formula("false")) == frozenset()


class TestPipeline:
    def test_diamond_not_p(self):
        rep = filtration_pipeline(
            parse_formula("<>p & ~p"), val_le(p=point_region(0, 0))
        )
        assert rep.truth.is_empty()
        assert not rep.globally_true

    def test_box_diamond_global(self):
        rep = filtration_pipeline(
            parse_formula("[]<>p"), val_le(p=upper_quadrant(2, 1))
        )
        assert rep.globally_true
        assert rep.truth.equal(full(2))

    def test_strict_diamond_origin(self):
        rep = filtration_pipeline(
            parse_formula("<>p"), Valuation(2, LT, {"p": point_region(0, 0)})
        )
        assert rep.truth.is_empty()
        assert rep.world_count >= 4

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            filtration_pipeline(parse_formula("q"), val_le(p=full(2)))

    def test_random_truth_lemma(self):
        rng = random.Random(31)
        for _ in range(10):
            dim = rng.choice([1, 2])
            order = rng.choice([LE, LT])
            v = random_valuation(rng, dim, ["p", "q"], 3, order)
            f = random_formula(rng, ["p", "q"], 3)
            rep = filtration_pipeline(f, v)  # raises on any subformula mismatch
            assert rep.world_count >= 1

    @pytest.mark.parametrize("seed", [None, 2, 5])
    def test_one_fold_per_side(self, monkeypatch, seed):
        """Every subformula's truth set comes from one Region fold and one world-set fold."""
        if seed is None:
            f, v = parse_formula("~" * 200 + "p"), val_le(p=point_region(0, 0))
        else:
            rng = random.Random(seed)
            v = random_valuation(rng, 2, ["p", "q"], 3, rng.choice([LE, LT]))
            f = random_formula(rng, ["p", "q"], 5)
        folded = []
        real = modal.evaluate
        monkeypatch.setattr(modal, "evaluate", lambda g, *rest: folded.append(g) or real(g, *rest))
        rep = filtration_pipeline(f, v)
        assert folded == [f, f]
        assert rep.subformula_count == len(subformulas(f)) > 1

    def test_every_subformula_is_checked(self, monkeypatch):
        """A wrong world set for an inner subformula fails the truth lemma."""
        real = modal._world_fold

        def wrong(qf, f):
            out = real(qf, f)
            out[parse_formula("p")] = frozenset()
            return out

        monkeypatch.setattr(modal, "_world_fold", wrong)
        with pytest.raises(TruthLemmaFailure, match="semantics on p$"):
            filtration_pipeline(parse_formula("<>p | ~p"), val_le(p=point_region(0, 0)))


class TestSubalgebra:
    def test_origin_generator(self):
        result = generate_subalgebra([point_region(0, 0)], LE)
        assert result.atom_count == 4
        assert result.element_count == 16
        assert result.generator_atoms == (frozenset({0}),)
        # Closure facts, checked through the atom decomposition:
        assert result.downset_of(frozenset({0})) == {0}
        assert result.downset_of(frozenset({3})) == {0, 1, 2, 3}

    def test_no_generators(self):
        result = generate_subalgebra([], LE, dim=2)
        assert result.atom_count == 1
        assert result.element_count == 2

    def test_top_generator(self):
        result = generate_subalgebra([full(2)], LE)
        assert result.atom_count == 1
        assert result.element_count == 2

    def test_closure_is_verified(self):
        rng = random.Random(6)
        from genutil import random_region

        for order in (LE, LT):
            gens = [random_region(rng, 2, 3) for _ in range(2)]
            result = generate_subalgebra(gens, order, max_atoms=64)
            # Every element is a union of atoms; complement and intersection
            # are set operations on index sets, and the downset of each atom
            # decomposed exactly (generate_subalgebra verifies this).  Check
            # downsets of a few unions symbolically.
            universe = frozenset(range(result.atom_count))
            for sample in (frozenset(), universe, result.generator_atoms[0]):
                down_atoms = result.downset_of(sample)
                symbolic = result.region_of(sample).downset(order)
                assert result.region_of(down_atoms).equal(symbolic)

    def test_too_many_atoms_guard(self):
        from boxmodal.modal import TooManyAtoms

        gens = [region(box((k, k + 1), (0, OMEGA))) for k in range(0, 8, 2)]
        with pytest.raises(TooManyAtoms):
            generate_subalgebra(gens, LE, max_atoms=4)
