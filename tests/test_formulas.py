"""Formula parsing, printing, and structural helpers."""
from __future__ import annotations

import pytest

from boxmodal.formulas import (
    And,
    Box,
    Const,
    Diamond,
    Implies,
    Not,
    Or,
    ParseError,
    Var,
    constant_growth,
    format_formula,
    modal_depth,
    parse_formula,
    subformulas,
    variables,
)


def test_diamond_and_not():
    assert parse_formula("<>p & ~q") == And(Diamond(Var("p")), Not(Var("q")))


def test_box_implies():
    assert parse_formula("[]p -> p") == Implies(Box(Var("p")), Var("p"))


def test_implies_right_associative():
    assert parse_formula("p -> q -> r") == Implies(
        Var("p"), Implies(Var("q"), Var("r"))
    )


def test_precedence():
    assert parse_formula("p | q & r") == Or(Var("p"), And(Var("q"), Var("r")))
    assert parse_formula("~p | q") == Or(Not(Var("p")), Var("q"))
    assert parse_formula("(p | q) & r") == And(Or(Var("p"), Var("q")), Var("r"))


def test_constants_and_nesting():
    assert parse_formula("true") == Const(True)
    assert parse_formula("[]([]p -> p)") == Box(Implies(Box(Var("p")), Var("p")))
    assert parse_formula("<><>false") == Diamond(Diamond(Const(False)))


def test_identifiers():
    assert parse_formula("ab_1") == Var("ab_1")
    assert parse_formula("truely") == Var("truely")


def test_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_formula("p & ")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_formula("(p")
    with pytest.raises(ParseError) as exc:
        parse_formula("p ? q")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_formula("")


def test_format_roundtrip():
    cases = [
        "p -> q -> r",
        "(p -> q) -> r",
        "<>(p & q) | ~[]r",
        "~(p | q) & true",
        "[](<>p -> <>q)",
    ]
    for text in cases:
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f


def test_subformulas_postorder():
    f = parse_formula("<>p & p")
    subs = subformulas(f)
    assert subs.index(Var("p")) < subs.index(Diamond(Var("p")))
    assert subs[-1] == f
    assert len(subs) == 3  # shared p counted once


def test_variables_and_depth():
    f = parse_formula("[]( <>p -> q ) | r")
    assert variables(f) == {"p", "q", "r"}
    assert modal_depth(f) == 2
    assert modal_depth(parse_formula("p & q")) == 0


def test_constant_growth_counts():
    assert constant_growth(parse_formula("p")) == 0
    assert constant_growth(parse_formula("~p")) == 1
    assert constant_growth(parse_formula("[]p")) == 2
    assert constant_growth(parse_formula("p -> q")) == 1
    assert constant_growth(parse_formula("<>p")) == 0


def test_random_formulas_survive_a_format_roundtrip():
    import random

    from genutil import random_formula

    rng = random.Random(3)
    for _ in range(300):
        f = random_formula(rng, ["p", "q", "r"], 6)
        assert parse_formula(format_formula(f)) == f


def test_nesting_is_bounded():
    from boxmodal.formulas import MAX_DEPTH

    deep = MAX_DEPTH
    assert parse_formula("~" * deep + "p") is not None
    assert parse_formula("(" * deep + "p" + ")" * deep) == Var("p")
    for text in (
        "~" * (deep + 1) + "p",
        "(" * (deep + 1) + "p" + ")" * (deep + 1),
        "<>(" * (deep // 2) + "~p" + ")" * (deep // 2),
        "p & " * (deep + 1) + "p",
        "p -> " * (deep + 1) + "p",
    ):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_formula(text)


def test_parentheses_and_tree_height_are_bounded_apart():
    """Unary operators plus parentheses along the parse path are one bound, the
    height of the syntax tree the other: 100 pairs around a chain of tree
    height 149 pass both, although together they run 249 levels deep."""
    text = "(" * 100 + " & ".join(["p"] * 150) + ")" * 100
    f = parse_formula(text)
    assert len(subformulas(f)) == 150  # p and the 149 conjunctions
    assert format_formula(f) == " & ".join(["p"] * 150)
