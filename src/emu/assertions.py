"""Boolean assertions over game variables and their primed next-state copies.

Grammar (binding weakest to strongest; ``->`` and ``<->`` are
right-associative, the rest as usual)::

    expr := expr "<->" expr | expr "->" expr | expr "|" expr | expr "&" expr
          | "!" expr | "(" expr ")" | "true" | "false" | IDENT | IDENT "'"

An unprimed identifier refers to the variable's value in the current state,
a primed identifier to its value in the next state.  The tokenizer and the
parser cursor here also serve the formula language of ``formulas``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import AssertionSyntaxError


@dataclass(frozen=True)
class Var:
    name: str
    primed: bool = False


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    sub: "Assertion"


@dataclass(frozen=True)
class And:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Or:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Implies:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Iff:
    left: "Assertion"
    right: "Assertion"


Assertion = Union[Var, Const, Not, And, Or, Implies, Iff]

TRUE = Const(True)
FALSE = Const(False)

# Reading an input or walking its tree may take this many Python frames; the
# parsers charge each construct what it takes and refuse deeper input, which
# leaves the rest of Python's default limit (1000) to the caller's stack.
MAX_NESTING = 900

# The tokens of both languages; each parser rejects those its grammar lacks.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<op><->|->|<>|\[\]|[|&!().])
      | (?P<escape>@\s*"(?P<body>[^"]*)")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)(?P<prime>')?
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)


def _tokens(text, start, error):
    """(kind, value, position) per token of ``text[start:]``, then "<end>"."""
    for m in _TOKEN_RE.finditer(text, start):
        kind = m.lastgroup
        if kind == "bad":
            raise error(f"unexpected character {m.group(kind)!r}", m.start(kind))
        if kind == "op":
            yield m.group(kind), None, m.start(kind)
        elif kind == "escape":
            yield "escape", m.span("body"), m.start(kind)
        else:  # "ident" or, primed, "ident'"
            yield "ident" + (m.group("prime") or ""), m.group("ident"), m.start("ident")
    yield "<end>", None, len(text)


class _Cursor:
    """A recursive-descent parser's place in the tokens of ``text[start:]``.

    A subclass defines one language: its syntax error class ``error``, the
    frames ``link`` its tree walks take per node, and its grammar levels,
    ``expression`` the outermost.  ``depth`` is the frames charged for what
    is open around the current token, ``peak`` the most in the current operand.
    """

    error = AssertionSyntaxError
    link = 1

    def __init__(self, text, start=0, depth=0):
        self.text = text
        # Scan the whole text first: a bad character wins over a grammar error.
        self.tokens = iter(list(_tokens(text, start, self.error)))
        self.depth = self.peak = depth
        self.advance()

    def advance(self):
        self.kind, self.value, self.pos = next(self.tokens)

    def expect(self, kind):
        if self.kind != kind:
            raise self.error(f"expected {kind!r}", self.pos)
        self.advance()

    def parse(self):
        tree = self.expression()
        if self.kind != "<end>":
            raise self.error("trailing input", self.pos)
        return tree

    def _charge(self, frames, pos):
        if frames > MAX_NESTING:
            raise self.error(f"nested deeper than {MAX_NESTING} frames allow", pos)

    def open(self, frames):
        """Step past the token opening a construct of ``frames`` at an operand's start."""
        self.depth = self.peak = self.depth + frames
        self._charge(self.depth, self.pos)
        self.advance()

    def chain(self, operand, ops):
        """``operand (op operand)*``; ``ops`` maps each operator to its
        precedence (higher binds tighter), its node class and whether it is
        right-associative.  A node is charged ``link`` frames over the deeper
        of its operands."""
        base = self.depth
        trees, pending = [], []  # (tree, peak) pairs; (precedence, node, position)
        while True:
            self.depth = self.peak = base
            trees.append((operand(), self.peak))
            precedence, node, right = ops.get(self.kind, (0, None, False))
            while pending and pending[-1][0] >= precedence + right:
                _, op, at = pending.pop()
                (b, b_peak), (a, a_peak) = trees.pop(), trees.pop()
                trees.append((op(a, b), max(a_peak, b_peak) + self.link))
                self._charge(trees[-1][1], at)
            if node is None:
                self.depth, self.peak = base, trees[0][1]
                return trees[0][0]
            pending.append((precedence, node, self.pos))
            self.advance()


# Each binary operator: its precedence, node class and right-associativity.
_BINARY = {"<->": (1, Iff, True), "->": (2, Implies, True),
           "|": (3, Or, False), "&": (4, And, False)}


class _AssertionParser(_Cursor):
    def expression(self):
        return self.chain(self.unary, _BINARY)

    def unary(self):
        if self.kind == "!":
            self.open(self.link)
            return Not(self.unary())
        return self.atom()

    def atom(self):
        kind, name = self.kind, self.value
        if kind == "(":
            self.open(4)  # atom, expression, chain and unary
            tree = self.expression()
            self.expect(")")
            return tree
        if kind in ("ident", "ident'"):
            self.advance()
            if kind == "ident" and name in ("true", "false"):
                return TRUE if name == "true" else FALSE
            return Var(name, primed=(kind == "ident'"))
        raise self.error("expected an atom", self.pos)


def parse_assertion(text: str) -> Assertion:
    """Parse an assertion string into its expression tree."""
    return _AssertionParser(text).parse()


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Var: 6, Const: 6}


def assertion_to_str(a: Assertion) -> str:
    """Render an assertion; reparsing yields an equal tree."""

    def render(node, parent_prec):
        prec = _PREC[type(node)]
        if isinstance(node, Var):
            s = node.name + ("'" if node.primed else "")
        elif isinstance(node, Const):
            s = "true" if node.value else "false"
        elif isinstance(node, Not):
            s = "!" + render(node.sub, prec)
        elif isinstance(node, And):
            s = render(node.left, prec) + " & " + render(node.right, prec + 1)
        elif isinstance(node, Or):
            s = render(node.left, prec) + " | " + render(node.right, prec + 1)
        elif isinstance(node, Implies):
            # right-associative: left operand needs the tighter context
            s = render(node.left, prec + 1) + " -> " + render(node.right, prec)
        else:
            s = render(node.left, prec + 1) + " <-> " + render(node.right, prec)
        if prec < parent_prec:
            return "(" + s + ")"
        return s

    return render(a, 0)


def assertion_vars(a: Assertion) -> set[tuple[str, bool]]:
    """All (name, primed) pairs referenced by the assertion."""
    out: set[tuple[str, bool]] = set()

    def walk(node):
        if isinstance(node, Var):
            out.add((node.name, node.primed))
        elif isinstance(node, Const):
            pass
        elif isinstance(node, Not):
            walk(node.sub)
        else:
            walk(node.left)
            walk(node.right)

    walk(a)
    return out


def eval_terms(a: Assertion, lookup):
    """Evaluate with a lookup returning numpy bool arrays; broadcasts freely."""
    if isinstance(a, Var):
        return lookup(a.name, a.primed)
    if isinstance(a, Const):
        return np.bool_(a.value)
    if isinstance(a, Not):
        return ~eval_terms(a.sub, lookup)
    if isinstance(a, And):
        return eval_terms(a.left, lookup) & eval_terms(a.right, lookup)
    if isinstance(a, Or):
        return eval_terms(a.left, lookup) | eval_terms(a.right, lookup)
    if isinstance(a, Implies):
        return ~eval_terms(a.left, lookup) | eval_terms(a.right, lookup)
    if isinstance(a, Iff):
        return eval_terms(a.left, lookup) == eval_terms(a.right, lookup)
    raise TypeError(f"not an assertion node: {a!r}")
