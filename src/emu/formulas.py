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

from dataclasses import dataclass, replace
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

_PREFIX = {"!": Not, "<>": Diamond, "[]": Box}
_BINARY = {"|": (1, Or, False), "&": (2, And, False)}  # as assertions._BINARY


# ---------------------------------------------------------------------------
# Parsing

class _FormulaParser(asr._Cursor):
    error = FormulaSyntaxError
    link = 2  # the tree walks below take up to two frames per node

    def expression(self):
        return self.chain(self.unary, _BINARY)

    def unary(self):
        kind = self.kind
        if kind in _PREFIX:
            self.open(self.link)
            sub = self.unary()
            if kind == "!" and isinstance(sub, (Atom, NegAtom)):
                return _DUAL[type(sub)](sub.assertion)
            return _PREFIX[kind](sub)
        return self.atom()

    def atom(self):
        kind, value, pos = self.kind, self.value, self.pos
        if kind == "(":
            self.open(4)  # atom, expression, chain and unary
            tree = self.expression()
            self.expect(")")
            return tree
        if kind == "escape":
            self.advance()
            sub = asr._AssertionParser(self.text[:value[1]], value[0], depth=self.depth)
            a = sub.parse()
            self.peak = max(self.peak, sub.peak)
            if any(primed for _n, primed in asr.assertion_vars(a)):
                raise self.error("escaped atoms must be pure-state assertions", pos)
            return Atom(a)
        if kind == "ident'":
            raise self.error("primed atoms are not allowed in formulas", pos)
        if kind != "ident":
            raise self.error("expected a formula", pos)
        if value in ("mu", "nu"):
            self.open(4)  # atom, expression, chain and unary
            if self.kind != "ident" or not _is_relvar(self.value):
                raise self.error(
                    f"expected a fixpoint variable after {value!r}", self.pos)
            name = self.value
            self.advance()
            self.expect(".")
            body = self.expression()  # binders extend maximally right
            return (Mu if value == "mu" else Nu)(name, body)
        self.advance()
        if value in ("true", "false"):
            return Atom(asr.TRUE if value == "true" else asr.FALSE)
        if _is_relvar(value):
            return RelVar(value)
        return Atom(asr.Var(value))


def _is_relvar(name):
    return name[0].isupper()


def _rename_apart(f: Formula) -> Formula:
    """Give every binder a fresh variable so each is bound exactly once."""
    used = {n.name for n in _subformulas(f) if isinstance(n, (Mu, Nu, RelVar))}

    def fresh(base):  # base is in use: it names a binder of f
        k = 1
        while f"{base}{k}" in used:
            k += 1
        used.add(f"{base}{k}")
        return f"{base}{k}"

    def walk(node, env, bound_seen):
        if isinstance(node, RelVar):
            return RelVar(env.get(node.name, node.name))
        if isinstance(node, (Mu, Nu)):
            if node.name in bound_seen:
                env = {**env, node.name: fresh(node.name)}
                node = replace(node, name=env[node.name])
            bound_seen.add(node.name)
        return _rebuild(node, [walk(c, env, bound_seen) for c in _children(node)])

    # Seed with the free variables so no binder reuses their names.
    return walk(f, {}, set(free_variables(f)))


def parse_formula(text: str) -> Formula:
    """Parse a formula string; bound variables come out renamed apart."""
    return _rename_apart(_FormulaParser(text).parse())


# ---------------------------------------------------------------------------
# Printing

_FPREC = {Or: 1, And: 2, Not: 3, Diamond: 3, Box: 3, Mu: 0, Nu: 0,
          Atom: 4, NegAtom: 4, RelVar: 4}


def formula_to_str(f: Formula) -> str:
    """Render a formula; reparsing yields an equal tree."""

    def plain_atom(a):
        if isinstance(a, asr.Const):
            return "true" if a.value else "false"
        if (isinstance(a, asr.Var) and not a.primed and not _is_relvar(a.name)
                and a.name not in ("mu", "nu")):
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


def _rebuild(node, children, kind=None):
    """``node`` with ``children`` as its subformulas, as a ``kind`` node if given;
    ``kind`` must have the fields of ``node``'s class, as each pair in ``_DUAL``."""
    kind = kind or type(node)
    if isinstance(node, (Mu, Nu)):
        return kind(node.name, *children)
    if isinstance(node, (Atom, NegAtom)):
        return kind(node.assertion)
    return kind(*children) if children else node


def _subformulas(f):
    """f and every node below it, in preorder."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


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
    kinds = {type(n) for n in _subformulas(f)}
    if Diamond in kinds:
        return "mixed" if Box in kinds else "sys"
    return "env" if Box in kinds else "both"


def length(f: Formula) -> int:
    """AST node count."""
    return sum(1 for _ in _subformulas(f))


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

    # One bottom-up pass.  Per node: the largest depth of a binder in it, and
    # per (binder class, variable) that of a binder of that class in it with
    # the variable free, which a dual binder of that variable above extends.
    deepest, uses = {}, {}
    for node in reversed(list(_subformulas(f))):
        kids = [id(c) for c in _children(node)]
        top, best = max((deepest[k] for k in kids), default=0), {}
        for k in kids:
            for key, d in uses[k].items():
                best[key] = max(best.get(key, 0), d)
        if isinstance(node, (Mu, Nu)):
            dual = Nu if isinstance(node, Mu) else Mu
            top = max(1, top, best.get((dual, node.name), 0) + 1)
            for name in free_variables(node):
                best[type(node), name] = max(best.get((type(node), name), 0), top)
        deepest[id(node)], uses[id(node)] = top, best
    return deepest[id(f)]


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


# Each node class and its De Morgan dual, which has the same fields.
_DUAL = {a: b for pair in ((And, Or), (Diamond, Box), (Mu, Nu), (Atom, NegAtom))
         for a, b in (pair, pair[::-1])}


def _push(node, negating, flipped):
    if isinstance(node, Not):
        return _push(node.sub, not negating, flipped)
    if isinstance(node, RelVar):
        return Not(node) if negating != (node.name in flipped) else node
    if isinstance(node, (Mu, Nu)):
        flipped = flipped | {node.name} if negating else flipped - {node.name}
    children = [_push(c, negating, flipped) for c in _children(node)]
    return _rebuild(node, children, _DUAL[type(node)] if negating else None)


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
    key = "reach" if key == "reachability" else key
    if key not in _BUILTIN_PARAMS:
        raise EmuError(
            f"unknown builtin formula {name!r} (one of {', '.join(BUILTIN_NAMES)})")
    takes = _BUILTIN_PARAMS[key]
    if set(params) != set(takes):
        raise EmuError(
            f"builtin formula {name!r} takes parameters [{', '.join(takes)}],"
            f" given [{', '.join(sorted(params))}]")
    if key == "safety":
        return Nu("X", Diamond(RelVar("X")))
    (what,) = takes
    a = Atom(_pure_state_param(params[what], what))
    if key == "reach":
        return Mu("X", Or(a, Diamond(RelVar("X"))))
    if key == "buchi":
        return _buchi(a)
    if key == "cobuchi":
        return Mu("Y", Nu("Z", Or(And(a, Diamond(RelVar("Z"))), Diamond(RelVar("Y")))))
    return negate(_buchi(a))  # dual-buchi


# Each builtin formula and the parameters it takes.
_BUILTIN_PARAMS = {"safety": (), "reach": ("p",), "buchi": ("J",),
                   "cobuchi": ("J",), "dual-buchi": ("J",)}
BUILTIN_NAMES = tuple(_BUILTIN_PARAMS)


def _buchi(j, z="Z", y="Y"):
    """The stock buchi formula for the atom ``j``, binding ``z`` and ``y``."""
    return Nu(z, Mu(y, Or(And(j, Diamond(RelVar(z))), Diamond(RelVar(y)))))


def is_buchi_shape(f: Formula) -> Optional[asr.Assertion]:
    """The target assertion if f is the stock buchi formula, else None."""
    if not (isinstance(f, Nu) and isinstance(f.sub, Mu) and isinstance(f.sub.sub, Or)
            and isinstance(f.sub.sub.left, And)):
        return None
    j = f.sub.sub.left.left
    if isinstance(j, Atom) and f == _buchi(j, f.name, f.sub.name):
        return j.assertion
    return None


def is_safety_shape(f: Formula, atoms=frozenset()) -> bool:
    """Whether f is ``nu X . psi`` with psi built from atoms, ``&``, ``|`` and
    ``<>X`` only, or its De Morgan mirror ``mu X . psi`` over atoms, ``&``,
    ``|`` and ``[]X``.  A variable named in ``atoms`` counts as an atom; by
    default none does, so such a fixpoint is closed."""
    if not isinstance(f, (Mu, Nu)):
        return False
    step = Diamond if isinstance(f, Nu) else Box
    stack = [f.sub]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is And or kind is Or:
            stack += (node.left, node.right)
        elif kind is step:
            if not (type(node.sub) is RelVar and node.sub.name == f.name):
                return False
        elif kind is RelVar:
            if node.name == f.name or node.name not in atoms:
                return False
        elif kind is not Atom and kind is not NegAtom:
            return False
    return True


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
