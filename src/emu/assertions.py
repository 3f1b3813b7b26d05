"""Boolean assertions over game variables and their primed next-state copies.

Grammar (binding weakest to strongest; ``->`` and ``<->`` are
right-associative, the rest as usual)::

    expr := expr "<->" expr | expr "->" expr | expr "|" expr | expr "&" expr
          | "!" expr | "(" expr ")" | "true" | "false" | IDENT | IDENT "'"

An unprimed identifier refers to the variable's value in the current state,
a primed identifier to its value in the next state.
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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op><->|->|\||&|!|\(|\))|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)(?P<prime>')?)"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise AssertionSyntaxError(f"unexpected character {rest[0]!r}", pos)
        if m.group("op"):
            tokens.append((m.group("op"), m.start("op")))
        else:
            name = m.group("ident")
            kind = "ident'" if m.group("prime") else "ident"
            tokens.append(((kind, name), m.start("ident")))
        pos = m.end()
    tokens.append(("<end>", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    @property
    def tok(self):
        return self.tokens[self.i][0]

    @property
    def pos(self):
        return self.tokens[self.i][1]

    def advance(self):
        self.i += 1

    def expect(self, op):
        if self.tok != op:
            raise AssertionSyntaxError(f"expected {op!r}", self.pos)
        self.advance()

    def parse(self):
        e = self.iff()
        if self.tok != "<end>":
            raise AssertionSyntaxError("trailing input", self.pos)
        return e

    def iff(self):
        left = self.implies()
        if self.tok == "<->":
            self.advance()
            return Iff(left, self.iff())
        return left

    def implies(self):
        left = self.disjunction()
        if self.tok == "->":
            self.advance()
            return Implies(left, self.implies())
        return left

    def disjunction(self):
        e = self.conjunction()
        while self.tok == "|":
            self.advance()
            e = Or(e, self.conjunction())
        return e

    def conjunction(self):
        e = self.unary()
        while self.tok == "&":
            self.advance()
            e = And(e, self.unary())
        return e

    def unary(self):
        if self.tok == "!":
            self.advance()
            return Not(self.unary())
        return self.atom()

    def atom(self):
        tok = self.tok
        if tok == "(":
            self.advance()
            e = self.iff()
            self.expect(")")
            return e
        if isinstance(tok, tuple):
            kind, name = tok
            self.advance()
            if name == "true" and kind == "ident":
                return TRUE
            if name == "false" and kind == "ident":
                return FALSE
            return Var(name, primed=(kind == "ident'"))
        raise AssertionSyntaxError("expected an atom", self.pos)


def parse_assertion(text: str) -> Assertion:
    """Parse an assertion string into its expression tree."""
    return _Parser(_tokenize(text)).parse()


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
