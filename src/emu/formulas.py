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
atom, and a ``!`` over an atom negates its assertion: ``!a``, ``!@"a"`` and
``@"!a"`` are one atom.  Binders keep their names: an inner binder that
reuses a name hides the outer one in its body, in a parsed tree as in one
built in code.
"""

from __future__ import annotations

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


Formula = Union[Atom, RelVar, And, Or, Diamond, Box, Mu, Nu, Not]

_BINARY, _PREFIX, _PRINTER = asr._syntax((
    ("left", ("|", Or)), ("left", ("&", And)),
    ("prefix", ("!", Not), ("<>", Diamond), ("[]", Box))))


# ---------------------------------------------------------------------------
# Parsing

class _FormulaParser(asr._Cursor):
    error = FormulaSyntaxError
    binary, prefix = _BINARY, _PREFIX

    def prefixed(self, node, sub):
        return negate(sub) if node is Not and type(sub) is Atom else node(sub)

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


def require_variable_name(name):
    """Raise unless the parser reads ``name`` back as the same fixpoint
    variable: one identifier token, uppercase-initial.  So a formula built
    in code prints as one that parses to it, and its names cannot collide
    with the engine's placeholders ``#0``, ``#1``, ... (``classical._compile``)."""
    if not (isinstance(name, str) and asr.IDENT.fullmatch(name) and _is_relvar(name)):
        raise EmuError(f"fixpoint variable {name!r} is not an uppercase-initial"
                       " identifier, which a formula would not read back")


def parse_formula(text: str) -> Formula:
    """Parse a formula string into the tree as written."""
    return _FormulaParser(text).parse()


# ---------------------------------------------------------------------------
# Printing

def formula_to_str(f: Formula) -> str:
    """Render a formula, an atom whose assertion starts with an odd run of
    ``!`` as ``!`` and the atom of the rest, so that every tree the parser
    makes reparses equal; ``Not(Atom(a))`` reparses as ``Atom(!a)``."""
    return asr._render(f, 0, _PRINTER, _leaf)


def _plain_atom(a):
    if isinstance(a, asr.Const):
        return "true" if a.value else "false"
    if (isinstance(a, asr.Var) and not a.primed and not _is_relvar(a.name)
            and a.name not in ("mu", "nu")):
        return a.name
    return f'@"{asr.assertion_to_str(a)}"'


def _leaf(node):
    """The precedence, text and body of an atom, a variable or a binder."""
    kind = type(node)
    if kind is Atom:
        a = node.assertion
        if type(a) is asr.Not and _negated(a) is a.sub:  # an odd run of !
            return _PRINTER[Not][0], "!" + _plain_atom(a.sub), None
        return asr._TIGHTEST, _plain_atom(a), None
    if kind is RelVar:
        return asr._TIGHTEST, node.name, None
    return 0, f"{'mu' if kind is Mu else 'nu'} {node.name} . ", node.sub


# ---------------------------------------------------------------------------
# Static analysis

def _children(f):
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, (Diamond, Box, Not, Mu, Nu)):
        return (f.sub,)
    return ()


def _subformulas(f):
    """f and every node below it, in preorder."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def is_closed(f: Formula) -> bool:
    return not metrics(f).free


def classify_fragment(f: Formula) -> str:
    """One of 'sys', 'env', 'both', 'mixed' by which modal operators occur."""
    kinds = {type(n) for n in _subformulas(f)}
    if Diamond in kinds:
        return "mixed" if Box in kinds else "sys"
    return "env" if Box in kinds else "both"


@dataclass(frozen=True)
class FormulaMetrics:
    """What ``metrics`` reads off a formula, which is closed when ``free`` is empty."""

    length: int  # AST node count
    alternation_depth: int
    free: frozenset[str]  # the free fixpoint variables
    atoms: frozenset[str]  # the state variables the atoms mention


def metrics(f: Formula) -> FormulaMetrics:
    """Node count, alternation depth, free variables and atom variables of
    f, from one bottom-up walk, which refuses any binder name that
    ``require_variable_name`` refuses (the first in preorder).

    The alternation depth is the number of blocks in the longest chain of
    interdependent alternating fixpoints (0 without fixpoints, 1 without
    genuine alternation), taken on the negation-free form of f
    (``push_negations``), where a ``!`` above a binder turns mu into nu
    and back::

        nu X . <>X                                -> 1
        nu Z . mu Y . ((J & <>Z) | <>Y)           -> 2  (Y's body uses Z)
        nu X . (<>X & mu Y . (p | <>Y))           -> 1  (Y's body ignores X)
        mu A . nu B . mu C . ...                  -> 3 when each depends on
                                                     the variable above it
        nu Z . !(nu Y . !<>Z & (!y | <>Y))        -> 2  (nu Z . mu Y . ...)
    """
    # Per node: the largest depth of a binder in it, and per (binder class,
    # variable) that of a binder of that class in it with the variable free,
    # which a dual binder of that variable above extends, any binder of
    # that variable ends and a Not above flips; (RelVar, variable) marks it
    # free.  So the variables named in the root's keys are the free ones.  A
    # node shares its child's dict where it adds nothing, and never writes
    # one it shares.
    info = {}  # id(node) -> (depth, uses)
    atoms, binders = set(), []
    nodes = list(_subformulas(f))
    for node in reversed(nodes):
        kind = type(node)
        if kind is RelVar:
            info[id(node)] = 0, {(RelVar, node.name): 0}
            continue
        if kind is Atom:
            atoms.update(name for name, _primed in asr.assertion_vars(node.assertion))
            info[id(node)] = 0, {}
            continue
        if kind is And or kind is Or:
            (top, best), (right, ru) = info[id(node.left)], info[id(node.right)]
            top = max(top, right)
            if not best:
                best = ru
            elif ru:
                best = dict(best)
                for key, d in ru.items():
                    best[key] = max(best.get(key, 0), d)
        elif kind is Not or kind in _DUAL:  # a unary node
            top, best = info[id(node.sub)]
        else:
            raise asr.not_a_tree(node, "a formula")
        if kind is Not:
            best = {(_DUAL.get(k, k), name): d for (k, name), d in best.items()}
        elif kind is Mu or kind is Nu:
            binders.append(node.name)
            top = max(1, top, best.get((_DUAL[kind], node.name), 0) + 1)
            best = {key: d for key, d in best.items() if key[1] != node.name}
            for _, name in list(best):  # the variables free in node
                best[kind, name] = max(best.get((kind, name), 0), top)
        info[id(node)] = top, best
    for name in reversed(binders):  # in preorder
        require_variable_name(name)
    top, best = info[id(f)]
    free = frozenset(name for _, name in best)
    return FormulaMetrics(length=len(nodes), alternation_depth=top, free=free,
                          atoms=frozenset(atoms))


def check_monotone(f: Formula) -> Optional[tuple[str, tuple[str, ...]]]:
    """None when every bound variable occurs under an even number of
    negations, else the first offending (variable, path) in preorder: the
    path is the node kinds from the root down to that occurrence."""
    # per node to visit: each bound variable's parity of the Not nodes
    # between its binder and the node (0 even), and the labels above it
    stack = [(f, {}, ())]
    while stack:
        node, parities, path = stack.pop()
        if isinstance(node, RelVar):
            if parities.get(node.name, 0) % 2 == 1:
                return node.name, path
            continue
        if isinstance(node, Not):
            parities = {v: p + 1 for v, p in parities.items()}
        elif isinstance(node, (Mu, Nu)):
            parities = {**parities, node.name: 0}
        path += (type(node).__name__,)
        stack += ((c, parities, path) for c in reversed(_children(node)))
    return None


def require_monotone(f: Formula):
    bad = check_monotone(f)
    if bad is not None:
        raise NonMonotoneFormulaError(*bad)


# ---------------------------------------------------------------------------
# Negation normalization

def push_negations(f: Formula) -> Formula:
    """Equivalent formula with no Not nodes (for closed monotone input).

    Negations are pushed to the atoms with the dualities not/and -> or,
    not/diamond -> box, not/mu X phi(X) -> nu X not phi(not X), and their
    mirrors.  An atom is negated by ``_negated``, so that
    ``negate(negate(f)) == push_negations(f)``.  Free variables that end up
    negated stay wrapped in Not.
    """
    return _push(f, False, frozenset())


def negate(f: Formula) -> Formula:
    """push_negations of the negation of f."""
    return _push(f, True, frozenset())


def _negated(a):
    """``a`` negated: an odd run of leading ``!`` loses one, an even run gains one."""
    b, odd = a, False
    while type(b) is asr.Not:
        b, odd = b.sub, not odd
    return a.sub if odd else asr.Not(a)


# Each node class and its De Morgan dual, which has the same fields.
_DUAL = {a: b for pair in ((And, Or), (Diamond, Box), (Mu, Nu))
         for a, b in (pair, pair[::-1])}


def _push(node, negating, flipped):
    kind = type(node)
    if kind is Not:
        return _push(node.sub, not negating, flipped)
    if kind is RelVar:
        return Not(node) if negating != (node.name in flipped) else node
    if kind is Atom:
        return Atom(_negated(node.assertion)) if negating else node
    if kind not in _DUAL:
        raise asr.not_a_tree(node, "a formula")
    out = _DUAL[kind] if negating else kind
    if kind is And or kind is Or:
        return out(_push(node.left, negating, flipped),
                   _push(node.right, negating, flipped))
    if kind is Mu or kind is Nu:
        flipped = flipped | {node.name} if negating else flipped - {node.name}
        return out(node.name, _push(node.sub, negating, flipped))
    return out(_push(node.sub, negating, flipped))  # Diamond, Box


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
    if isinstance(f, Nu) and isinstance(f.sub, Mu) and f.name != f.sub.name:
        body = f.sub.sub
        j = body.left.left if isinstance(body, Or) and isinstance(body.left, And) else None
        if isinstance(j, Atom) and f == _buchi(j, f.name, f.sub.name):
            return j.assertion
    return None


def bound_variant(f: Formula, parity: Optional[Formula] = None
                  ) -> tuple[str, Optional[int]]:
    """The sufficient-bound variant of f and its d, given the parity formula
    of the game's priorities (``parity_formula``; None if it has none):
    ``parity`` (the priority count, one binder each) when f or its negation
    is ``parity``, ``buchi`` (2) when ``is_buchi_shape`` accepts f, else
    ``general`` (None: the bound counts alternation depth)."""
    if parity is not None and (f == parity or negate(f) == parity):
        d, node = 0, parity
        while isinstance(node, (Mu, Nu)):
            d, node = d + 1, node.sub
        return "parity", d
    if is_buchi_shape(f) is not None:
        return "buchi", 2
    return "general", None


def safety_reads(f: Formula) -> Optional[set[str]]:
    """The variables other than its own that f reads, when f is
    ``nu X . psi`` with psi built from atoms, such variables, ``&``, ``|``
    and ``<>X`` only, or its De Morgan mirror ``mu X . psi`` with ``[]X``;
    None otherwise.  psi holds no binder, so these are f's free variables."""
    if not isinstance(f, (Mu, Nu)):
        return None
    step = Diamond if isinstance(f, Nu) else Box
    reads, stack = set(), [f.sub]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is And or kind is Or:
            stack += (node.left, node.right)
        elif kind is step:
            if not (type(node.sub) is RelVar and node.sub.name == f.name):
                return None
        elif kind is RelVar and node.name != f.name:
            reads.add(node.name)
        elif kind is not Atom:
            return None
    return reads


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
