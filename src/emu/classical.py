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
from typing import Any, Callable

import numpy as np

from . import formulas as fm
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

    ``cut``, if given, is called once per evaluation of a fixpoint node, as
    ``evaluate`` rewrites it, with the environment of that evaluation and
    whether the node is the formula's root (outermost).  It gives None or a
    map applied to each iterate.  The map must be monotone, move no element
    above its argument in a greatest fixpoint (below it in a least one) and
    fix the fixpoint's value under that environment; the cut chain then
    ends exactly at that value.
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
    cut: Callable[[Any, dict, bool], Callable | None] | None = None


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
    The placeholders are ``#0``, ``#1``, ..., names no formula may use
    (``formulas.require_variable_name``, which the walk applies to each
    binder and free variable), one per hoisted position, so binders that
    share a name cannot make two collide.  It is one walk, one frame per
    node, and it checks monotonicity on the way, so an evaluation walks its
    formula once.

    The walk is ``_hoist_walk``; its state lives in the tuple it passes
    down: the root, for ``require_monotone``; per variable, the (depth,
    negations above) of its binder on the path; per binder on the path
    (depth k+1 at k), its pairs so far; ``hoists``; a placeholder count.
    """
    hoists = {}
    return _hoist_walk(f, 0, (f, {}, [], hoists, itertools.count()))[0], hoists


def _lift(node, own, pending, numbers):
    """A placeholder for ``node``, of level ``own``, evaluated before the
    loop of the binder at depth own+1; bare atoms and variables stay."""
    if isinstance(node, (fm.Atom, fm.NegAtom, fm.RelVar)):
        return node
    name = f"#{next(numbers)}"
    pending[own].append((name, node))
    return fm.RelVar(name)


def _hoist_walk(node, negs, state):
    """(rewritten node, uses), where bit k-1 of uses is set iff the node
    reads the variable of the binder at depth k; negs counts the Not
    nodes above it.  ``state`` is ``_hoist``'s."""
    kind = type(node)
    if kind in _ATOMS:
        return node, 0
    root, bound, pending, hoists, numbers = state
    if kind is fm.RelVar:
        if node.name not in bound:
            fm.require_variable_name(node.name)
            return node, 0
        d, above = bound[node.name]
        if (negs - above) % 2:
            fm.require_monotone(root)  # raises, naming the path
        return node, 1 << (d - 1)
    if kind in _BINARY:
        left, lu = _hoist_walk(node.left, negs, state)
        right, ru = _hoist_walk(node.right, negs, state)
        uses = lu | ru
        if lu != ru:  # a child whose level is below the node's moves out
            level = uses.bit_length()
            if lu.bit_length() < level:
                left = _lift(left, lu.bit_length(), pending, numbers)
            elif ru.bit_length() < level:
                right = _lift(right, ru.bit_length(), pending, numbers)
        if left is node.left and right is node.right:
            return node, uses
        return kind(left, right), uses
    if kind in _BINDERS:
        fm.require_variable_name(node.name)
        d = len(pending) + 1
        outer = bound.get(node.name)
        bound[node.name] = d, negs
        pending.append([])
        sub, uses = _hoist_walk(node.sub, negs, state)
        if uses.bit_length() < d:  # the body does not read the loop
            sub = _lift(sub, uses.bit_length(), pending, numbers)
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
        sub, uses = _hoist_walk(node.sub, negs + (kind is fm.Not), state)
        return (node if sub is node.sub else kind(sub)), uses
    raise TypeError(f"not a formula node: {node!r}")


def evaluate(lat: Lattice, tables, f: fm.Formula, valuation=None,
             stats: FixpointStats | None = None):
    """The element of ``lat`` denoted by ``f``.

    ``valuation`` maps free fixpoint variables to elements.  Least fixpoints
    iterate up from ``bottom``, greatest fixpoints down from ``top``; each
    must stabilize within ``height`` strict changes, and its iterates must
    form a monotone chain.  Violations raise, as they indicate a broken
    operator rather than a bad input.  ``[]`` is ``neg o pre_sys o neg``.

    Before a fixpoint's loop starts, the subterms of its body that no
    iteration can change are evaluated once (``_hoist``), and the loop reads
    their values as variables.  Where ``lat.cut`` gives the fixpoint, with
    those values, a cut, each new iterate is cut before the monotonicity
    check.  The rewritten formula is compiled once (``_compile``).
    """
    f, hoists = _hoist(f)
    return _compile(f, lat, (tables, f, hoists, {}, stats))(valuation or {})


def _compile(node, lat, run):
    """``node`` as a closure from environments to values; a fixpoint's copies
    its environment once and rebinds its variable per iteration.  ``run``
    holds the tables, the rewritten root, its hoists, atoms by ``id``, stats."""
    kind = type(node)
    if kind in _ATOMS:
        atoms, key = run[3], id(node)

        def atom(env):
            if key not in atoms:
                mask = run[0].state_mask(node.assertion)
                if kind is fm.NegAtom:
                    mask = ~mask
                mask.setflags(write=False)
                atoms[key] = lat.atom(mask)
            return atoms[key]
        return atom
    if kind is fm.RelVar:
        name = node.name

        def var(env):
            if name not in env:
                raise UnboundVariableError(f"no value for variable {name!r}")
            return env[name]
        return var
    if kind in _BINARY:
        left, right = _compile(node.left, lat, run), _compile(node.right, lat, run)
        op = lat.meet if kind is fm.And else lat.join
        return lambda env: op(left(env), right(env))
    sub, neg, pre = _compile(node.sub, lat, run), lat.neg, lat.pre_sys
    if kind is fm.Diamond:
        return lambda env: pre(sub(env))
    if kind is fm.Box:
        return lambda env: neg(pre(neg(sub(env))))
    if kind is fm.Not:  # else a binder: _hoist refuses any other node
        return lambda env: neg(sub(env))
    _, root, hoists, _, stats = run
    name, ascending, is_root = node.name, kind is fm.Mu, node is root
    hoisted = [(h, _compile(term, lat, run)) for h, term in hoists.get(id(node), ())]
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
        cut = lat.cut(node, env, is_root) if lat.cut else None
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
    return fixpoint


def cpre_sys(game, target: StateSet) -> StateSet:
    """States from which the system forces the next state into ``target``.

    A state with no valid input counts (the environment is deadlocked);
    a valid input with no valid output rules the state out.
    """
    t = game.tables()
    hit = (t.weight != DEAD) & target[t.succ].any(axis=2)[:, :, None]
    return (~t.rho_e.T | hit.any(axis=0)).all(axis=0)[t.row]


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
