"""Fixpoint formulas: AST, parser, and static analysis.

One tree serves two interpretations: the classical one over state sets and
the energy one over credit functions; only the meaning of the modal and
boolean operators changes.

Grammar (binding weakest to strongest)::

    f := "mu" RELVAR "." f | "nu" RELVAR "." f
       | f "|" f | f "&" f
       | "!" f | "<>" f | "[]" f
       | "(" f ")" | IDENT | RELVAR | "@" STRING

``mu``/``nu`` extend maximally to the right.  RELVAR is an uppercase-initial
identifier; a lowercase-initial IDENT is a state-variable atom.  Primed atoms
are not allowed.  ``@"..."`` embeds an arbitrary pure-state assertion as an
atom.  Bound variables are renamed apart during parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from . import assertions as asr
from .errors import (
    EmuError,
    FormulaSyntaxError,
    MalformedAssertionError,
    NonMonotoneFormulaError,
)


@dataclass(frozen=True)
class Atom:
    """A pure-state assertion; worth credit 0 where it holds."""

    assertion: asr.Assertion


@dataclass(frozen=True)
class NegAtom:
    """A negated pure-state assertion (atom-level negation)."""

    assertion: asr.Assertion


@dataclass(frozen=True)
class RelVar:
    name: str


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Diamond:
    """One step under the system's control."""

    sub: "Formula"


@dataclass(frozen=True)
class Box:
    """One step under the environment's control."""

    sub: "Formula"


@dataclass(frozen=True)
class Mu:
    """Least fixpoint."""

    name: str
    sub: "Formula"


@dataclass(frozen=True)
class Nu:
    """Greatest fixpoint."""

    name: str
    sub: "Formula"


@dataclass(frozen=True)
class Not:
    sub: "Formula"


Formula = Union[Atom, NegAtom, RelVar, And, Or, Diamond, Box, Mu, Nu, Not]


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<op><>|\[\]|\||&|!|\(|\)|\.)
      | @\s*"(?P<escape>[^"]*)"
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)(?P<prime>')?
    )""",
    re.VERBOSE,
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
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r}", pos)
        if m.group("op"):
            tokens.append((m.group("op"), None, m.start("op")))
        elif m.group("escape") is not None:
            tokens.append(("escape", m.group("escape"), m.start()))
        else:
            if m.group("prime"):
                raise FormulaSyntaxError(
                    "primed atoms are not allowed in formulas", m.start("ident")
                )
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        pos = m.end()
    tokens.append(("<end>", None, len(text)))
    return tokens


class _FormulaParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    @property
    def kind(self):
        return self.tokens[self.i][0]

    @property
    def value(self):
        return self.tokens[self.i][1]

    @property
    def pos(self):
        return self.tokens[self.i][2]

    def advance(self):
        self.i += 1

    def parse(self):
        f = self.disjunction()
        if self.kind != "<end>":
            raise FormulaSyntaxError("trailing input", self.pos)
        return f

    def disjunction(self):
        f = self.conjunction()
        while self.kind == "|":
            self.advance()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.kind == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self):
        if self.kind == "!":
            self.advance()
            sub = self.unary()
            if isinstance(sub, Atom):
                return NegAtom(sub.assertion)
            if isinstance(sub, NegAtom):
                return Atom(sub.assertion)
            return Not(sub)
        if self.kind == "<>":
            self.advance()
            return Diamond(self.unary())
        if self.kind == "[]":
            self.advance()
            return Box(self.unary())
        return self.atom()

    def atom(self):
        kind, value, pos = self.kind, self.value, self.pos
        if kind == "(":
            self.advance()
            f = self.disjunction()
            if self.kind != ")":
                raise FormulaSyntaxError("expected ')'", self.pos)
            self.advance()
            return f
        if kind == "escape":
            self.advance()
            a = asr.parse_assertion(value)
            if any(primed for _n, primed in asr.assertion_vars(a)):
                raise FormulaSyntaxError(
                    "escaped atoms must be pure-state assertions", pos
                )
            return Atom(a)
        if kind == "ident":
            if value in ("true", "false"):
                self.advance()
                return Atom(asr.TRUE if value == "true" else asr.FALSE)
            if value in ("mu", "nu"):
                self.advance()
                if self.kind != "ident" or not _is_relvar(self.value):
                    raise FormulaSyntaxError(
                        f"expected a fixpoint variable after {value!r}", self.pos
                    )
                name = self.value
                self.advance()
                if self.kind != ".":
                    raise FormulaSyntaxError("expected '.'", self.pos)
                self.advance()
                body = self.disjunction()  # binders extend maximally right
                return (Mu if value == "mu" else Nu)(name, body)
            self.advance()
            if _is_relvar(value):
                return RelVar(value)
            return Atom(asr.Var(value))
        raise FormulaSyntaxError("expected a formula", pos)


def _is_relvar(name):
    return name[0].isupper()


def _rename_apart(f: Formula) -> Formula:
    """Give every binder a fresh variable so each is bound exactly once."""
    used: set[str] = set()

    def collect(node):
        if isinstance(node, (Mu, Nu)):
            used.add(node.name)
            collect(node.sub)
        elif isinstance(node, (And, Or)):
            collect(node.left)
            collect(node.right)
        elif isinstance(node, (Diamond, Box, Not)):
            collect(node.sub)
        elif isinstance(node, RelVar):
            used.add(node.name)

    collect(f)

    def fresh(base):
        name = base
        k = 1
        while name in used:
            name = f"{base}{k}"
            k += 1
        used.add(name)
        return name

    def walk(node, env, bound_seen):
        if isinstance(node, RelVar):
            return RelVar(env.get(node.name, node.name))
        if isinstance(node, (Atom, NegAtom)):
            return node
        if isinstance(node, And):
            return And(walk(node.left, env, bound_seen), walk(node.right, env, bound_seen))
        if isinstance(node, Or):
            return Or(walk(node.left, env, bound_seen), walk(node.right, env, bound_seen))
        if isinstance(node, Diamond):
            return Diamond(walk(node.sub, env, bound_seen))
        if isinstance(node, Box):
            return Box(walk(node.sub, env, bound_seen))
        if isinstance(node, Not):
            return Not(walk(node.sub, env, bound_seen))
        # binder
        name = node.name
        if name in bound_seen:
            name = fresh(node.name)
        bound_seen.add(name)
        sub = walk(node.sub, {**env, node.name: name}, bound_seen)
        return type(node)(name, sub)

    # Seed with the free variables so no binder reuses their names.
    return walk(f, {}, set(free_variables(f)))


def parse_formula(text: str) -> Formula:
    """Parse a formula string; bound variables come out renamed apart."""
    return _rename_apart(_FormulaParser(_tokenize(text)).parse())


# ---------------------------------------------------------------------------
# Printing

_FPREC = {Or: 1, And: 2, Not: 3, Diamond: 3, Box: 3, Mu: 0, Nu: 0,
          Atom: 4, NegAtom: 4, RelVar: 4}


def formula_to_str(f: Formula) -> str:
    """Render a formula; reparsing yields an equal tree."""

    def plain_atom(a):
        if isinstance(a, asr.Const):
            return "true" if a.value else "false"
        if isinstance(a, asr.Var) and not a.primed and not _is_relvar(a.name):
            return a.name
        return f'@"{asr.assertion_to_str(a)}"'

    def render(node, parent_prec):
        prec = _FPREC[type(node)]
        if isinstance(node, Atom):
            s = plain_atom(node.assertion)
        elif isinstance(node, NegAtom):
            s = "!" + plain_atom(node.assertion)
            prec = _FPREC[Not]
        elif isinstance(node, RelVar):
            s = node.name
        elif isinstance(node, Not):
            s = "!" + render(node.sub, prec)
        elif isinstance(node, Diamond):
            s = "<>" + render(node.sub, prec)
        elif isinstance(node, Box):
            s = "[]" + render(node.sub, prec)
        elif isinstance(node, And):
            s = render(node.left, prec) + " & " + render(node.right, prec + 1)
        elif isinstance(node, Or):
            s = render(node.left, prec) + " | " + render(node.right, prec + 1)
        elif isinstance(node, Mu):
            s = f"mu {node.name} . " + render(node.sub, 0)
        else:
            s = f"nu {node.name} . " + render(node.sub, 0)
        if prec < parent_prec:
            return "(" + s + ")"
        return s

    return render(f, 0)


# ---------------------------------------------------------------------------
# Static analysis

def _children(f):
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, (Diamond, Box, Not, Mu, Nu)):
        return (f.sub,)
    return ()


def free_variables(f: Formula) -> set[str]:
    if isinstance(f, RelVar):
        return {f.name}
    if isinstance(f, (Mu, Nu)):
        return free_variables(f.sub) - {f.name}
    out: set[str] = set()
    for c in _children(f):
        out |= free_variables(c)
    return out


def is_closed(f: Formula) -> bool:
    return not free_variables(f)


def classify_fragment(f: Formula) -> str:
    """One of 'sys', 'env', 'both', 'mixed' by which modal operators occur."""

    def scan(node):
        has_d = isinstance(node, Diamond)
        has_b = isinstance(node, Box)
        for c in _children(node):
            d, b = scan(c)
            has_d |= d
            has_b |= b
        return has_d, has_b

    has_d, has_b = scan(f)
    if has_d and has_b:
        return "mixed"
    if has_d:
        return "sys"
    if has_b:
        return "env"
    return "both"


def length(f: Formula) -> int:
    """AST node count."""
    return 1 + sum(length(c) for c in _children(f))


def alternation_depth(f: Formula) -> int:
    """Number of blocks in the longest chain of interdependent alternating
    fixpoints (0 without fixpoints, 1 without genuine alternation).

    Worked examples::

        nu X . <>X                                -> 1
        nu Z . mu Y . ((J & <>Z) | <>Y)           -> 2  (Y's body uses Z)
        nu X . (<>X & mu Y . (p | <>Y))           -> 1  (Y's body ignores X)
        mu A . nu B . mu C . ...                  -> 3 when each depends on
                                                     the variable above it
    """

    def depth(node):
        # Longest dependent alternating chain starting at this subformula.
        if isinstance(node, (Mu, Nu)):
            best = 1
            dual = Nu if isinstance(node, Mu) else Mu
            for sub in _subformulas(node.sub):
                if isinstance(sub, (Mu, Nu)):
                    d = depth(sub)
                    if isinstance(sub, dual) and node.name in free_variables(sub):
                        d += 1
                    best = max(best, d)
            return best
        return max((depth(c) for c in _children(node)), default=0)

    return depth(f)


def _subformulas(f):
    yield f
    for c in _children(f):
        yield from _subformulas(c)


@dataclass(frozen=True)
class FormulaMetrics:
    length: int
    alternation_depth: int
    closed: bool
    fragment: str


def metrics(f: Formula) -> FormulaMetrics:
    return FormulaMetrics(
        length=length(f),
        alternation_depth=alternation_depth(f),
        closed=is_closed(f),
        fragment=classify_fragment(f),
    )


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    variable: Optional[str] = None
    path: tuple[str, ...] = ()


def check_monotone(f: Formula) -> MonotonicityReport:
    """Every bound variable must occur under an even number of negations."""

    def walk(node, parities, path):
        # parities: bound variable -> parity of enclosing Not nodes (0 even)
        if isinstance(node, RelVar):
            if parities.get(node.name, 0) % 2 == 1:
                return MonotonicityReport(False, node.name, tuple(path))
            return None
        label = type(node).__name__
        if isinstance(node, Not):
            parities = {v: p + 1 for v, p in parities.items()}
        elif isinstance(node, (Mu, Nu)):
            parities = {**parities, node.name: 0}
        for c in _children(node):
            bad = walk(c, parities, path + [label])
            if bad:
                return bad
        return None

    bad = walk(f, {}, [])
    return bad if bad else MonotonicityReport(True)


def require_monotone(f: Formula):
    report = check_monotone(f)
    if not report.ok:
        raise NonMonotoneFormulaError(report.variable, report.path)


# ---------------------------------------------------------------------------
# Negation normalization

def push_negations(f: Formula) -> Formula:
    """Equivalent formula with no Not nodes (for closed monotone input).

    Negations are pushed to the atoms with the dualities not/and -> or,
    not/diamond -> box, not/mu X phi(X) -> nu X not phi(not X), and their
    mirrors.  Free variables that end up negated stay wrapped in Not.
    """
    return _push(f, False, frozenset())


def negate(f: Formula) -> Formula:
    """push_negations of the negation of f."""
    return _push(f, True, frozenset())


def _push(node, negating, flipped):
    if isinstance(node, Atom):
        return NegAtom(node.assertion) if negating else node
    if isinstance(node, NegAtom):
        return Atom(node.assertion) if negating else node
    if isinstance(node, RelVar):
        if negating != (node.name in flipped):
            return Not(node)
        return node
    if isinstance(node, Not):
        return _push(node.sub, not negating, flipped)
    if isinstance(node, And):
        ctor = Or if negating else And
        return ctor(_push(node.left, negating, flipped), _push(node.right, negating, flipped))
    if isinstance(node, Or):
        ctor = And if negating else Or
        return ctor(_push(node.left, negating, flipped), _push(node.right, negating, flipped))
    if isinstance(node, Diamond):
        ctor = Box if negating else Diamond
        return ctor(_push(node.sub, negating, flipped))
    if isinstance(node, Box):
        ctor = Diamond if negating else Box
        return ctor(_push(node.sub, negating, flipped))
    if isinstance(node, Mu):
        if negating:
            return Nu(node.name, _push(node.sub, True, flipped | {node.name}))
        return Mu(node.name, _push(node.sub, False, flipped - {node.name}))
    if isinstance(node, Nu):
        if negating:
            return Mu(node.name, _push(node.sub, True, flipped | {node.name}))
        return Nu(node.name, _push(node.sub, False, flipped - {node.name}))
    raise TypeError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# Builtin formulas

def _pure_state_param(param, what):
    a = asr.parse_assertion(param) if isinstance(param, str) else param
    for name, primed in asr.assertion_vars(a):
        if primed:
            raise MalformedAssertionError(
                f"{what} must be a pure-state assertion, got primed {name}'"
            )
    return a


def builtin(name: str, **params) -> Formula:
    """Stock formulas: safety, reach(p), buchi(J), cobuchi(J), dual-buchi(J).

    Parameters are pure-state assertions (strings or trees).  The dual-buchi
    form is the environment-side negation of buchi, written with Box.
    """
    key = name.replace("_", "-").lower()

    def param(what):
        if what not in params:
            raise EmuError(f"builtin formula {name!r} needs the parameter {what}")
        return _pure_state_param(params[what], what)

    if key == "safety":
        return Nu("X", Diamond(RelVar("X")))
    if key in ("reach", "reachability"):
        p = Atom(param("p"))
        return Mu("X", Or(p, Diamond(RelVar("X"))))
    if key == "buchi":
        j = Atom(param("J"))
        return Nu("Z", Mu("Y", Or(And(j, Diamond(RelVar("Z"))), Diamond(RelVar("Y")))))
    if key == "cobuchi":
        j = Atom(param("J"))
        return Mu("Y", Nu("Z", Or(And(j, Diamond(RelVar("Z"))), Diamond(RelVar("Y")))))
    if key == "dual-buchi":
        return negate(builtin("buchi", J=param("J")))
    raise EmuError(
        f"unknown builtin formula {name!r} (one of {', '.join(BUILTIN_NAMES)})")


BUILTIN_NAMES = ("safety", "reach", "buchi", "cobuchi", "dual-buchi")


def is_buchi_shape(f: Formula) -> Optional[asr.Assertion]:
    """The target assertion if f is the stock buchi formula, else None."""
    if not isinstance(f, Nu):
        return None
    z = f.name
    if not isinstance(f.sub, Mu):
        return None
    y = f.sub.name
    body = f.sub.sub
    if not isinstance(body, Or):
        return None
    left, right = body.left, body.right
    if not (isinstance(right, Diamond) and right.sub == RelVar(y)):
        return None
    if not (isinstance(left, And) and isinstance(left.left, Atom)):
        return None
    if not (isinstance(left.right, Diamond) and left.right.sub == RelVar(z)):
        return None
    return left.left.assertion


def parity_formula(priorities) -> Formula:
    """The fixpoint formula for a min-even parity condition.

    ``priorities`` are (guard, priority) pairs partitioning the states.  For
    present priorities p0 < p1 < ... the formula binds one variable per
    priority, greatest fixpoint for even, least for odd, outermost first,
    around the disjunction of (guard_i & <>Z_i).
    """
    by_prio: dict[int, list[asr.Assertion]] = {}
    for rule in priorities:
        by_prio.setdefault(rule.priority, []).append(rule.guard)
    if not by_prio:
        raise ValueError("at least one priority rule is required")
    present = sorted(by_prio)
    names = {p: f"Z{p}" for p in present}
    body = None
    for p in present:
        guard = by_prio[p][0]
        for extra in by_prio[p][1:]:
            guard = asr.Or(guard, extra)
        disjunct = And(Atom(guard), Diamond(RelVar(names[p])))
        body = disjunct if body is None else Or(body, disjunct)
    f = body
    for p in reversed(present):
        f = (Nu if p % 2 == 0 else Mu)(names[p], f)
    return f
