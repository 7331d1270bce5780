"""Modal formula syntax tree and a small parser.

Grammar (tightest first): unary ``~`` ``<>`` ``[]``, then ``&``, then ``|``,
then right-associative ``->``.  Variables match [a-zA-Z][a-zA-Z0-9_]*;
``true`` and ``false`` are constants.  ``MAX_DEPTH`` bounds unary operators
plus parentheses along a parse path and, apart, the syntax tree's height.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    sub: Formula


@dataclass(frozen=True)
class Box(Formula):
    sub: Formula


TRUE = Const(True)
FALSE = Const(False)

_TOKEN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<diamond><>)|(?P<boxop>\[\])|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<punct>[~&|()]))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        assert kind is not None
        yield kind, m.group(kind), m.start(kind)
        pos = m.end()
    yield "end", "", len(text)


# Deepest nesting of unary operators plus parentheses, and apart from it the
# highest syntax tree.  Parsing and evaluation recurse along both, so deeper
# input is rejected as malformed instead of exhausting the interpreter's stack.
MAX_DEPTH = 200

# Binary operators: token value, binding strength, node type.
_BINARY = {"->": (0, Implies), "|": (1, Or), "&": (2, And)}


class _Parser:
    """Recursive descent for unary operators and parentheses, and operator
    precedence on explicit stacks for the binary operators.

    A level of parentheses thus costs three stack frames, which keeps
    ``MAX_DEPTH`` levels well inside the interpreter's recursion limit.
    Binary chains add no recursion here; their height is checked after.
    """

    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        if _height(f) > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", 0)
        return f

    def nested(self, parse: Callable[[], Formula], pos: int) -> Formula:
        """Parse one level deeper: an operand of a unary operator, or a parenthesised formula."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", pos)
        f = parse()
        self.depth -= 1
        return f

    def binary(self) -> Optional[str]:
        kind, value, _ = self.peek()
        if kind == "arrow" or (kind == "punct" and value in ("&", "|")):
            return value
        return None

    def formula(self) -> Formula:
        """Operands joined by binary operators; ``->`` groups to the right."""
        operands = [self.unary()]
        ops: list[str] = []

        def reduce() -> None:
            right = operands.pop()
            operands.append(_BINARY[ops.pop()][1](operands.pop(), right))

        while (op := self.binary()) is not None:
            strength = _BINARY[op][0]
            while ops and (_BINARY[ops[-1]][0] > strength or (ops[-1] == op and op != "->")):
                reduce()
            self.advance()
            ops.append(op)
            operands.append(self.unary())
        while ops:
            reduce()
        return operands[0]

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "punct" and value == "~":
            self.advance()
            return Not(self.nested(self.unary, pos))
        if kind == "diamond":
            self.advance()
            return Diamond(self.nested(self.unary, pos))
        if kind == "boxop":
            self.advance()
            return Box(self.nested(self.unary, pos))
        if kind == "punct" and value == "(":
            self.advance()
            f = self.nested(self.formula, pos)
            kind, value, pos = self.advance()
            if (kind, value) != ("punct", ")"):
                raise ParseError("expected ')'", pos)
            return f
        if kind == "ident":
            self.advance()
            if value == "true":
                return TRUE
            if value == "false":
                return FALSE
            return Var(value)
        raise ParseError(f"expected a formula, found {value!r}" if value else "unexpected end of input", pos)


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


def _height(f: Formula) -> int:
    """Longest chain of operators in the formula tree, found without recursion."""
    best = 0
    stack = [(f, 0)]
    while stack:
        node, height = stack.pop()
        best = max(best, height)
        if isinstance(node, (Not, Diamond, Box)):
            stack.append((node.sub, height + 1))
        elif isinstance(node, (And, Or, Implies)):
            stack += [(node.left, height + 1), (node.right, height + 1)]
    return best


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses, re-parsable by parse_formula."""

    def go(node: Formula, level: int) -> str:
        # level: 0 implies, 1 or, 2 and, 3 unary
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Const):
            return "true" if node.value else "false"
        if isinstance(node, Not):
            return "~" + go(node.sub, 3)
        if isinstance(node, Diamond):
            return "<>" + go(node.sub, 3)
        if isinstance(node, Box):
            return "[]" + go(node.sub, 3)
        if isinstance(node, And):
            text = f"{go(node.left, 2)} & {go(node.right, 3)}"
            return f"({text})" if level > 2 else text
        if isinstance(node, Or):
            text = f"{go(node.left, 1)} | {go(node.right, 2)}"
            return f"({text})" if level > 1 else text
        if isinstance(node, Implies):
            text = f"{go(node.left, 1)} -> {go(node.right, 0)}"
            return f"({text})" if level > 0 else text
        raise TypeError(f"not a formula node: {node!r}")

    return go(f, 0)


def subformulas(f: Formula) -> list[Formula]:
    """Distinct subformulas in post-order (children before parents)."""
    seen: dict[Formula, None] = {}

    def walk(node: Formula) -> None:
        if node in seen:
            return
        if isinstance(node, (Not, Diamond, Box)):
            walk(node.sub)
        elif isinstance(node, (And, Or, Implies)):
            walk(node.left)
            walk(node.right)
        seen[node] = None

    walk(f)
    return list(seen)


def evaluate(f: Formula, env, unbound, const, neg, meet, join, diamond) -> dict:
    """Value of every subformula, in post-order, in a Boolean algebra with a diamond.

    Variables take their values from the mapping ``env``; a missing one raises
    ``unbound(name)``.  The rest of the algebra is given as functions: ``const``
    of a bool, complement, meet, join and diamond; ``a -> b`` is ``~a | b``, box
    ``~<>~``.
    """
    out: dict = {}
    for node in subformulas(f):
        if isinstance(node, Var):
            if node.name not in env:
                raise unbound(node.name)
            r = env[node.name]
        elif isinstance(node, Const):
            r = const(node.value)
        elif isinstance(node, Not):
            r = neg(out[node.sub])
        elif isinstance(node, And):
            r = meet(out[node.left], out[node.right])
        elif isinstance(node, Or):
            r = join(out[node.left], out[node.right])
        elif isinstance(node, Implies):
            r = join(neg(out[node.left]), out[node.right])
        elif isinstance(node, Diamond):
            r = diamond(out[node.sub])
        elif isinstance(node, Box):
            r = neg(diamond(neg(out[node.sub])))
        else:
            raise TypeError(f"not a formula node: {node!r}")
        out[node] = r
    return out


def variables(f: Formula) -> frozenset[str]:
    return frozenset(n.name for n in subformulas(f) if isinstance(n, Var))


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Var, Const)):
        return 0
    if isinstance(f, (Diamond, Box)):
        return 1 + modal_depth(f.sub)
    if isinstance(f, Not):
        return modal_depth(f.sub)
    return max(modal_depth(f.left), modal_depth(f.right))


def constant_growth(f: Formula) -> int:
    """Upper bound on how much formula evaluation can raise region bounds.

    Complement moves a finite bound by one; a box operator is a complemented
    diamond of a complement, so it counts twice.
    """
    total = 0
    for node in subformulas(f):
        if isinstance(node, (Not, Implies)):
            total += 1
        elif isinstance(node, Box):
            total += 2
    return total
