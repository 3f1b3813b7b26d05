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

from .errors import AssertionSyntaxError, EmuError


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

# An identifier token of both languages.
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The tokens of both languages; each parser rejects those its grammar lacks.
_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<op><->|->|<>|\[\]|[|&!().])
      | (?P<escape>@\s*"(?P<body>[^"]*)")
      | (?P<ident>{IDENT.pattern})(?P<prime>')?
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

    A subclass defines one language: its syntax error class ``error``, its
    ``binary`` and ``prefix`` operator tables (see ``_syntax``) and its
    ``atom``.  ``depth`` is the frames charged for what is open around the
    current token, ``peak`` the most in the current operand.  The tree walks
    of both languages take one frame per node.
    """

    error = AssertionSyntaxError

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

    def expression(self):
        return self.chain(self.unary, self.binary)

    def chain(self, operand, ops):
        """``operand (op operand)*``; ``ops`` maps each operator to its
        precedence (higher binds tighter), its node class and whether it is
        right-associative.  A node is charged one frame over the deeper of
        its operands."""
        base = self.depth
        trees, pending = [], []  # (tree, peak) pairs; (precedence, node, position)
        while True:
            self.depth = self.peak = base
            trees.append((operand(), self.peak))
            precedence, node, right = ops.get(self.kind, (0, None, False))
            while pending and pending[-1][0] >= precedence + right:
                _, op, at = pending.pop()
                (b, b_peak), (a, a_peak) = trees.pop(), trees.pop()
                trees.append((op(a, b), max(a_peak, b_peak) + 1))
                self._charge(trees[-1][1], at)
            if node is None:
                self.depth, self.peak = base, trees[0][1]
                return trees[0][0]
            pending.append((precedence, node, self.pos))
            self.advance()

    def unary(self):
        node = self.prefix.get(self.kind)
        if node is None:
            return self.atom()
        self.open(1)
        return self.prefixed(node, self.unary())

    def prefixed(self, node, sub):
        return node(sub)


def _syntax(levels):
    """A language's operator tables from its levels, weakest first, each a
    kind ("left", "right" or "prefix") and its (token, node class) pairs:
    ``binary`` (token -> precedence, node class, right-associative),
    ``prefix`` (token -> node class) and the printer's (node class ->
    precedence, token, kind)."""
    binary, prefix, printer = {}, {}, {}
    for precedence, (kind, *ops) in enumerate(levels, 1):
        for token, node in ops:
            if kind == "prefix":
                prefix[token] = node
            else:
                binary[token] = (precedence, node, kind == "right")
            printer[node] = (precedence, token, kind)
    return binary, prefix, printer


_BINARY, _PREFIX, _PRINTER = _syntax((
    ("right", ("<->", Iff)), ("right", ("->", Implies)),
    ("left", ("|", Or)), ("left", ("&", And)), ("prefix", ("!", Not))))
_TIGHTEST = float("inf")  # the precedence of a leaf


class _AssertionParser(_Cursor):
    binary, prefix = _BINARY, _PREFIX

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


def assertion_to_str(a: Assertion) -> str:
    """Render an assertion; reparsing yields an equal tree."""
    return _render(a, 0, _PRINTER, _leaf)


def _leaf(node):
    if isinstance(node, Var):
        return _TIGHTEST, node.name + ("'" if node.primed else ""), None
    return _TIGHTEST, "true" if node.value else "false", None


def _render(node, parent_prec, printer, other):
    """``node`` in parentheses where it binds looser than ``parent_prec``,
    its operators printed by ``printer`` (see ``_syntax``) and the rest by
    ``other``: a leaf's or a binder's precedence, text and body (or None),
    which follows the text.  One frame per node."""
    kind = type(node)
    if kind not in printer:
        prec, s, sub = other(node)
        if sub is not None:
            s += _render(sub, prec, printer, other)
    else:
        prec, s, fix = printer[kind]
        if fix == "prefix":
            s += _render(node.sub, prec, printer, other)
        else:  # the operand on the associating side may repeat the operator
            right = fix == "right"
            s = (_render(node.left, prec + right, printer, other) + f" {s} "
                 + _render(node.right, prec + (not right), printer, other))
    return "(" + s + ")" if prec < parent_prec else s


def assertion_vars(a: Assertion) -> set[tuple[str, bool]]:
    """All (name, primed) pairs referenced by the assertion."""
    out: set[tuple[str, bool]] = set()
    stack = [a]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add((node.name, node.primed))
        elif isinstance(node, Not):
            stack.append(node.sub)
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack += (node.left, node.right)
        elif not isinstance(node, Const):
            raise not_a_tree(node)
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
    raise not_a_tree(a)


def not_a_tree(node, what="an assertion") -> EmuError:
    """The refusal of a walk of either language at a node of none of its classes."""
    return EmuError(f"{node!r} is not {what}")
