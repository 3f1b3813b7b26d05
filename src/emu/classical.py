"""The fixpoint engine, and the set semantics; ``energy`` adds the other.

Both semantics are ``Lattice`` records evaluated by one ``evaluate``.  Under
the set semantics a formula denotes the set of states from which the
system can enforce it.  State sets are boolean arrays indexed by enumerated
state; ``<>`` maps a set to the states from which the system can force the
next state into it in one round, ``[]`` to those from which the environment
can.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from . import formulas as fm
from .assertions import not_a_tree
from .errors import EmuError, IterationCapError, UnboundVariableError
from .tables import DEAD

StateSet = np.ndarray  # bool array of shape (n_states,)


@dataclass
class FixpointStats:
    """Observed fixpoint iteration counts, for cap auditing."""

    fixpoints: int = 0
    # (applications, cap) per fixpoint; stabilization happened at
    # applications - 1 strict changes, which must stay <= cap.
    caps: list[tuple[int, int]] = field(default_factory=list)
    cuts: int = 0  # fixpoint evaluations whose iterates a cut changed
    root_cuts: int = 0  # cut evaluations of the formula's outermost fixpoint
    hoisted: int = 0  # evaluations of loop-invariant subterms before a loop

    def record(self, iterations, cap, cut=False, root=False):
        self.fixpoints += 1
        self.caps.append((iterations, cap))
        self.cuts += cut
        self.root_cuts += cut and root

    def within_caps(self) -> bool:
        return all(apps - 1 <= cap for apps, cap in self.caps)


@dataclass(frozen=True)
class Lattice:
    """The operations a formula is evaluated with.

    ``atom`` maps a bool state mask to an element, and ``pre_sys``, the one
    step operator, interprets ``<>``; ``evaluate`` derives ``[]`` by De
    Morgan duality as ``neg o pre_sys o neg``.  ``leq`` is the lattice order
    with ``bottom`` least and ``top`` greatest.  ``height`` bounds the strict
    changes of any fixpoint chain.  The energy semantics' elements are plain
    int64 arrays; ``EnergyFunction`` wraps only what enters and leaves.

    ``cut``, if given, is called once per fixpoint node when ``evaluate``
    compiles the formula, with the node as rewritten there and whether it is
    the formula's root (outermost).  It gives None or a function that each
    evaluation of the node calls with its environment, which gives None or
    a map applied to each iterate.  The map must be monotone, move no
    element above its argument in a greatest fixpoint (below it in a least
    one) and fix the fixpoint's value under that environment; the cut chain
    then ends exactly at that value.
    """

    atom: Callable[[np.ndarray], Any]
    neg: Callable
    join: Callable
    meet: Callable
    pre_sys: Callable
    bottom: Any
    top: Any
    leq: Callable[[Any, Any], bool]
    height: int
    cut: Callable[[Any, bool], Callable[[dict], Callable | None] | None] | None = None


_BINARY = {fm.And, fm.Or}
_BINDERS = {fm.Mu, fm.Nu}
_UNARY = {fm.Diamond, fm.Box, fm.Not}


def evaluate(lat: Lattice, tables, f: fm.Formula, valuation=None,
             stats: FixpointStats | None = None):
    """The element of ``lat`` denoted by ``f``.

    ``valuation`` maps free fixpoint variables to elements.  Least fixpoints
    iterate up from ``bottom``, greatest fixpoints down from ``top``; each
    must stabilize within ``height`` strict changes, and its iterates must
    form a monotone chain.  Violations raise, as they indicate a broken
    operator rather than a bad input.  ``[]`` is ``neg o pre_sys o neg``.

    One walk (``_compile``) turns ``f`` into closures, checks its names and
    monotonicity, builds each atom's value, refuses a free variable that
    ``valuation`` does not bind (``UnboundVariableError``), and moves the
    subterms of each fixpoint's body that no iteration can change out of
    its loop: they are evaluated once before the loop starts, and the loop
    reads their values as variables.  Where the ``lat.cut`` of a fixpoint
    gives, for those values, a cut, each new iterate is cut before the
    monotonicity check.
    """
    valuation = valuation or {}
    walk = SimpleNamespace(lat=lat, tables=tables, stats=stats, root=f,
                           valuation=valuation, bound={}, pending=[],
                           numbers=itertools.count())
    return _compile(f, 0, walk)[0](valuation)


def _compile(node, negs, walk):
    """(closure from environments to values, uses, node as rewritten), where
    bit k-1 of uses is set iff ``node`` reads the variable of the binder at
    depth k, and ``negs`` counts the Not nodes above it.  It raises
    ``NonMonotoneFormulaError`` as ``formulas.require_monotone`` does,
    refuses the binder and free variable names that
    ``formulas.require_variable_name`` refuses, and raises
    ``UnboundVariableError`` at a free variable the valuation does not bind.

    A binder's depth is the number of binders on the path from the root to
    it, itself included, and a subterm's level is the depth of the deepest
    binder whose variable it uses (0 if it uses none).  While the fixpoints
    of depth above that level iterate, the subterm keeps its value.  So a
    subterm whose level is below its parent's (a fixpoint's body: below the
    fixpoint's depth), and which is not a bare atom or variable, is replaced
    by a placeholder variable and evaluated once per evaluation of the
    binder at depth level+1 above it, before that binder's loop starts.  It
    may read the placeholders before it and those of the binders above.
    The placeholders are ``#0``, ``#1``, ..., one per hoisted position,
    names no formula may use, so binders that share a name cannot make two
    collide.

    An atom's value is built here, read-only, and its closure returns it.

    ``walk`` is ``evaluate``'s: the lattice, tables and stats; the root; the
    valuation; per variable, the (depth, negations above) of its binder on
    the path; per binder on the path (depth k+1 at k), its (placeholder,
    closure) pairs so far; a placeholder count.
    """
    kind, lat = type(node), walk.lat
    if kind is fm.Atom:
        value = lat.atom(walk.tables.state_mask(node.assertion))
        value.setflags(write=False)
        return (lambda env: value), 0, node
    if kind is fm.RelVar:
        if node.name not in walk.bound:
            fm.require_variable_name(node.name)
            if node.name not in walk.valuation:
                raise UnboundVariableError(f"no value for variable {node.name!r}")
            return operator.itemgetter(node.name), 0, node
        d, above = walk.bound[node.name]
        if (negs - above) % 2:
            fm.require_monotone(walk.root)  # raises, naming the path
        return operator.itemgetter(node.name), 1 << (d - 1), node
    if kind in _BINARY:
        left, lu, lnode = _compile(node.left, negs, walk)
        right, ru, rnode = _compile(node.right, negs, walk)
        uses = lu | ru
        if lu != ru:  # a child whose level is below the node's moves out
            level = uses.bit_length()
            if lu.bit_length() < level:
                left, lnode = _lift(left, lnode, lu.bit_length(), walk)
            elif ru.bit_length() < level:
                right, rnode = _lift(right, rnode, ru.bit_length(), walk)
        if lnode is not node.left or rnode is not node.right:
            node = kind(lnode, rnode)
        op = lat.meet if kind is fm.And else lat.join
        return (lambda env: op(left(env), right(env))), uses, node
    if kind in _UNARY:
        sub, uses, body = _compile(node.sub, negs + (kind is fm.Not), walk)
        node, neg, pre = (node if body is node.sub else kind(body)), lat.neg, lat.pre_sys
        if kind is fm.Diamond:
            return (lambda env: pre(sub(env))), uses, node
        if kind is fm.Box:
            return (lambda env: neg(pre(neg(sub(env))))), uses, node
        return (lambda env: neg(sub(env))), uses, node
    if kind not in _BINDERS:
        raise not_a_tree(node, "a formula")
    fm.require_variable_name(node.name)
    name, bound, pending = node.name, walk.bound, walk.pending
    d, outer = len(pending) + 1, bound.get(name)
    bound[name] = d, negs
    pending.append([])
    sub, uses, body = _compile(node.sub, negs, walk)
    if uses.bit_length() < d:  # the body does not read the loop
        sub, body = _lift(sub, body, uses.bit_length(), walk)
    hoisted = pending.pop()
    if outer is None:
        del bound[name]
    else:
        bound[name] = outer
    is_root, stats, ascending = node is walk.root, walk.stats, kind is fm.Mu
    node = node if body is node.sub else kind(name, body)
    decide = lat.cut(node, is_root) if lat.cut else None
    leq, height = lat.leq, lat.height
    # along(a, b): b is a, or past it in the direction the chain moves
    along = leq if ascending else (lambda a, b: leq(b, a))
    start = lat.bottom if ascending else lat.top

    def fixpoint(env):
        env = dict(env)
        for h, term in hoisted:
            env[h] = term(env)
        if stats is not None:
            stats.hoisted += len(hoisted)
        cut = decide(env) if decide is not None else None
        current, iterations, was_cut = start, 0, False
        while True:
            iterations += 1
            if iterations > height + 1:
                raise IterationCapError(
                    f"fixpoint of {name} still moving after {height} changes")
            env[name] = current
            new = sub(env)
            if cut is not None:
                cut_new = cut(new)
                if stats is not None and not was_cut:  # a cut moves nothing back
                    was_cut = not along(cut_new, new)
                new = cut_new
            if not along(current, new):
                direction = "ascending" if ascending else "descending"
                raise IterationCapError(
                    f"fixpoint iterates for {name} are not {direction}")
            if along(new, current):  # so the two are equal
                break
            current = new
        if stats is not None:
            stats.record(iterations, height, was_cut, is_root)
        return current
    return fixpoint, uses & ~(1 << (d - 1)), node


def _lift(closure, node, own, walk):
    """A placeholder for ``node``, of level ``own``, and its closure, which
    the binder at depth own+1 evaluates before its loop; bare atoms and
    variables stay."""
    if isinstance(node, (fm.Atom, fm.RelVar)):
        return closure, node
    name = f"#{next(walk.numbers)}"
    walk.pending[own].append((name, closure))
    return operator.itemgetter(name), fm.RelVar(name)


def cpre_sys(game, target: StateSet) -> StateSet:
    """States from which the system forces the next state into ``target``.

    A state with no valid input counts (the environment is deadlocked);
    a valid input with no valid output rules the state out.
    """
    t = game.tables()
    hit = (t.weight != DEAD) & target[t.succ].any(axis=2)[:, :, None]
    return (~t.rho_e | hit.any(axis=0)).all(axis=0)[t.row]


def cpre_env(game, target: StateSet) -> StateSet:
    """States with a valid input whose every valid output lands in ``target``
    (vacuously, one that deadlocks the system); the dual of ``cpre_sys``."""
    return ~cpre_sys(game, ~target)


def eval_classical(game, f: fm.Formula, valuation=None, stats=None) -> StateSet:
    """The state set denoted by ``f``; negation is set complement.

    ``valuation`` maps free fixpoint variables to state sets, bool arrays
    over the game's states.  The lattice height, and so each fixpoint's
    cap, is ``n_states``.
    """
    t = game.tables()
    n = t.n_states
    env = {name: np.asarray(s) for name, s in (valuation or {}).items()}
    for name, s in env.items():
        if s.dtype != bool or s.shape != (n,):
            raise EmuError(f"valuation for {name!r} must be a bool array over"
                           f" {n} states, got {s.dtype} of shape {s.shape}")
    lat = Lattice(
        atom=lambda mask: mask, neg=operator.invert,
        join=operator.or_, meet=operator.and_,
        pre_sys=lambda s: cpre_sys(game, s),
        bottom=np.zeros(n, dtype=bool), top=np.ones(n, dtype=bool),
        leq=lambda a, b: bool((a <= b).all()), height=n,
    )
    return evaluate(lat, t, f, env, stats)
