"""The fixpoint engine, and the set semantics; ``energy`` adds the other.

Both semantics are ``Lattice`` records evaluated by one ``evaluate``.  Under
the set semantics a formula denotes the set of states from which the
system can enforce it.  State sets are boolean arrays indexed by enumerated
state; ``<>`` maps a set to the states from which the system can force the
next state into it in one round, ``[]`` to those from which the environment
can.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import formulas as fm
from .errors import IterationCapError, UnboundVariableError
from .tables import DEAD

StateSet = np.ndarray  # bool array of shape (n_states,)


@dataclass
class FixpointStats:
    """Observed fixpoint iteration counts, for cap auditing."""

    fixpoints: int = 0
    # (applications, cap) per fixpoint; stabilization happened at
    # applications - 1 strict changes, which must stay <= cap.
    caps: list[tuple[int, int]] = field(default_factory=list)
    cuts: int = 0  # fixpoint evaluations whose iterates the lattice's cut changed
    hoisted: int = 0  # evaluations of loop-invariant subterms before a loop

    def record(self, iterations, cap, cut=False):
        self.fixpoints += 1
        self.caps.append((iterations, cap))
        self.cuts += cut

    def within_caps(self) -> bool:
        return all(apps - 1 <= cap for apps, cap in self.caps)


@dataclass(frozen=True)
class Lattice:
    """The operations a formula is evaluated with.

    ``atom`` maps a bool state mask to an element, ``pre_sys``/``pre_env``
    interpret ``<>``/``[]``, and ``leq`` is the lattice order with ``bottom``
    least and ``top`` greatest.  ``height`` bounds the strict changes of any
    fixpoint chain.

    ``cut``, if given, maps a fixpoint node, as ``evaluate`` rewrites it,
    to None or to a function of the environment the node is evaluated in.
    That function gives None or a map applied to each iterate of that
    evaluation.  The map must be monotone, move no element above its
    argument in a greatest fixpoint (below it in a least one) and fix the
    fixpoint's value under that environment; the cut chain then ends
    exactly at that value.  ``cut`` is called once per node and evaluation,
    its function once per evaluation of the node.
    """

    atom: Callable[[np.ndarray], Any]
    neg: Callable
    join: Callable
    meet: Callable
    pre_sys: Callable
    pre_env: Callable
    bottom: Any
    top: Any
    leq: Callable[[Any, Any], bool]
    eq: Callable[[Any, Any], bool]
    height: int
    cut: Callable[[Any], Callable | None] | None = None


_ATOMS = {fm.Atom, fm.NegAtom}
_BINARY = {fm.And, fm.Or}
_BINDERS = {fm.Mu, fm.Nu}
_UNARY = {fm.Diamond, fm.Box, fm.Not}


def _hoist(f: fm.Formula):
    """``f`` with its loop-invariant subterms moved out of their loops; it
    raises ``NonMonotoneFormulaError`` as ``formulas.require_monotone`` does.

    A binder's depth is the number of binders on the path from the root to
    it, itself included, and a subterm's level is the depth of the deepest
    binder whose variable it uses (0 if it uses none).  While the fixpoints
    of depth above that level iterate, the subterm keeps its value.  So a
    subterm whose level is below its parent's (a fixpoint's body: below the
    fixpoint's depth), and which is not a bare atom or variable, is replaced
    by a placeholder variable and evaluated once per evaluation of the
    binder at depth level+1 above it, before that binder's loop starts.

    Returns the rewritten formula and, per rewritten fixpoint node (by
    ``id``), its (placeholder, subterm) pairs in evaluation order; a pair
    may read the placeholders before it and those of the binders above.
    The placeholders are ``#0``, ``#1``, ..., names no parsed formula binds,
    one per hoisted position, so binders that share a name cannot make two
    collide.  It is one walk, one frame per node, and it checks
    monotonicity on the way, so an evaluation walks its formula once.
    """
    hoists = {}
    pending = []  # pending[k]: the pairs of the binder at depth k+1 on the path
    bound = {}  # variable -> (depth, negations above) of its binder on the path
    count = 0

    def lift(node, own):
        """A placeholder for ``node``, of level ``own``, evaluated before the
        loop of the binder at depth own+1; bare atoms and variables stay."""
        nonlocal count
        if isinstance(node, (fm.Atom, fm.NegAtom, fm.RelVar)):
            return node
        name = f"#{count}"
        count += 1
        pending[own].append((name, node))
        return fm.RelVar(name)

    def walk(node, negs):
        """(rewritten node, uses), where bit k-1 of uses is set iff the node
        reads the variable of the binder at depth k; negs counts the Not
        nodes above it."""
        kind = type(node)
        if kind in _ATOMS:
            return node, 0
        if kind is fm.RelVar:
            if node.name not in bound:
                return node, 0
            d, above = bound[node.name]
            if (negs - above) % 2:
                fm.require_monotone(f)  # raises, naming the path
            return node, 1 << (d - 1)
        if kind in _BINARY:
            left, lu = walk(node.left, negs)
            right, ru = walk(node.right, negs)
            uses = lu | ru
            if lu != ru:  # a child whose level is below the node's moves out
                level = uses.bit_length()
                if lu.bit_length() < level:
                    left = lift(left, lu.bit_length())
                elif ru.bit_length() < level:
                    right = lift(right, ru.bit_length())
            if left is node.left and right is node.right:
                return node, uses
            return kind(left, right), uses
        if kind in _BINDERS:
            d = len(pending) + 1
            outer = bound.get(node.name)
            bound[node.name] = d, negs
            pending.append([])
            sub, uses = walk(node.sub, negs)
            if uses.bit_length() < d:  # the body does not read the loop
                sub = lift(sub, uses.bit_length())
            own = pending.pop()
            if outer is None:
                del bound[node.name]
            else:
                bound[node.name] = outer
            uses &= ~(1 << (d - 1))
            if sub is node.sub:
                return node, uses
            node = kind(node.name, sub)
            if own:
                hoists[id(node)] = own
            return node, uses
        if kind in _UNARY:
            sub, uses = walk(node.sub, negs + (kind is fm.Not))
            return (node if sub is node.sub else kind(sub)), uses
        raise TypeError(f"not a formula node: {node!r}")

    try:
        return walk(f, 0)[0], hoists
    finally:
        # walk refers to itself through its closure; unbinding it breaks the
        # cycle, so reference counting frees this walk's state at once
        # rather than a garbage-collector pass, which the small ops pay for
        del walk, lift


def evaluate(lat: Lattice, tables, f: fm.Formula, valuation=None,
             stats: FixpointStats | None = None):
    """The element of ``lat`` denoted by ``f``.

    ``valuation`` maps free fixpoint variables to elements.  Least fixpoints
    iterate up from ``bottom``, greatest fixpoints down from ``top``; each
    must stabilize within ``height`` strict changes, and its iterates must
    form a monotone chain.  Violations raise, as they indicate a broken
    operator rather than a bad input.

    Before a fixpoint's loop starts, the subterms of its body that no
    iteration can change are evaluated once (``_hoist``), and the loop reads
    their values as variables.  Where ``lat.cut`` gives the fixpoint, with
    those values, a cut, each new iterate is cut before the monotonicity
    check.
    """
    f, hoists = _hoist(f)
    atoms = {}  # id(node) -> element, so fixpoint iterations reuse each atom
    cuts = {}  # id(node) -> the lattice's cut of a fixpoint node, or None

    def atom(node):
        key = id(node)
        if key not in atoms:
            mask = tables.state_mask(node.assertion)
            if isinstance(node, fm.NegAtom):
                mask = ~mask
            mask.setflags(write=False)
            atoms[key] = lat.atom(mask)
        return atoms[key]

    def ev(node, env):
        if isinstance(node, (fm.Atom, fm.NegAtom)):
            return atom(node)
        if isinstance(node, fm.RelVar):
            if node.name not in env:
                raise UnboundVariableError(f"no value for variable {node.name!r}")
            return env[node.name]
        if isinstance(node, fm.And):
            return lat.meet(ev(node.left, env), ev(node.right, env))
        if isinstance(node, fm.Or):
            return lat.join(ev(node.left, env), ev(node.right, env))
        if isinstance(node, fm.Diamond):
            return lat.pre_sys(ev(node.sub, env))
        if isinstance(node, fm.Box):
            return lat.pre_env(ev(node.sub, env))
        if isinstance(node, fm.Not):
            return lat.neg(ev(node.sub, env))
        if isinstance(node, (fm.Mu, fm.Nu)):
            ascending = isinstance(node, fm.Mu)
            key = id(node)
            hoisted = hoists.get(key, ())
            if hoisted:
                env = dict(env)
                for name, term in hoisted:
                    env[name] = ev(term, env)
                if stats is not None:
                    stats.hoisted += len(hoisted)
            if key not in cuts:
                cuts[key] = lat.cut(node) if lat.cut else None
            cut = cuts[key](env) if cuts[key] else None
            current = lat.bottom if ascending else lat.top
            iterations, was_cut = 0, False
            while True:
                iterations += 1
                if iterations > lat.height + 1:
                    raise IterationCapError(
                        f"fixpoint of {node.name} still moving after"
                        f" {lat.height} changes"
                    )
                new = ev(node.sub, {**env, node.name: current})
                if cut is not None:
                    cut_new = cut(new)
                    if stats is not None and not was_cut:
                        was_cut = not lat.eq(cut_new, new)
                    new = cut_new
                if not (lat.leq(current, new) if ascending
                        else lat.leq(new, current)):
                    direction = "ascending" if ascending else "descending"
                    raise IterationCapError(
                        f"fixpoint iterates for {node.name} are not {direction}"
                    )
                if lat.eq(new, current):
                    break
                current = new
            if stats is not None:
                stats.record(iterations, lat.height, was_cut)
            return current
        raise TypeError(f"not a formula node: {node!r}")

    return ev(f, dict(valuation or {}))


def cpre_sys(game, target: StateSet) -> StateSet:
    """States from which the system forces the next state into ``target``.

    A state with no valid input counts (the environment is deadlocked);
    a valid input with no valid output rules the state out.
    """
    t = game.tables()
    hit = (t.weight != DEAD) & target[t.succ][None, :, :]
    exists_out = hit.any(axis=2)
    return (~t.rho_e | exists_out).all(axis=1)[t.row]


def cpre_env(game, target: StateSet) -> StateSet:
    """States with a valid input whose every valid output lands in ``target``
    (vacuously, one that deadlocks the system); the dual of ``cpre_sys``."""
    return ~cpre_sys(game, ~target)


def eval_classical(game, f: fm.Formula, valuation=None, stats=None) -> StateSet:
    """The state set denoted by ``f``; negation is set complement.

    ``valuation`` maps free fixpoint variables to state sets.  The lattice
    height, and so each fixpoint's cap, is ``n_states``.
    """
    t = game.tables()
    n = t.n_states
    lat = Lattice(
        atom=lambda mask: mask,
        neg=operator.invert,
        join=operator.or_,
        meet=operator.and_,
        pre_sys=lambda s: cpre_sys(game, s),
        pre_env=lambda s: cpre_env(game, s),
        bottom=np.zeros(n, dtype=bool),
        top=np.ones(n, dtype=bool),
        leq=lambda a, b: bool((a <= b).all()),
        eq=np.array_equal,
        height=n,
    )
    return evaluate(lat, t, f, valuation, stats)
