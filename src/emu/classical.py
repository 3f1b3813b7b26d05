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

    def record(self, iterations, cap):
        self.fixpoints += 1
        self.caps.append((iterations, cap))

    def within_caps(self) -> bool:
        return all(apps - 1 <= cap for apps, cap in self.caps)


@dataclass(frozen=True)
class Lattice:
    """The operations a formula is evaluated with.

    ``atom`` maps a bool state mask to an element, ``pre_sys``/``pre_env``
    interpret ``<>``/``[]``, and ``leq`` is the lattice order with ``bottom``
    least and ``top`` greatest.  ``height`` bounds the strict changes of any
    fixpoint chain.
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


def evaluate(lat: Lattice, tables, f: fm.Formula, valuation=None,
             stats: FixpointStats | None = None):
    """The element of ``lat`` denoted by ``f``.

    ``valuation`` maps free fixpoint variables to elements.  Least fixpoints
    iterate up from ``bottom``, greatest fixpoints down from ``top``; each
    must stabilize within ``height`` strict changes, and its iterates must
    form a monotone chain.  Violations raise, as they indicate a broken
    operator rather than a bad input.
    """
    fm.require_monotone(f)
    atoms = {}  # id(node) -> element, so fixpoint iterations reuse each atom

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
            current = lat.bottom if ascending else lat.top
            iterations = 0
            while True:
                iterations += 1
                if iterations > lat.height + 1:
                    raise IterationCapError(
                        f"fixpoint of {node.name} still moving after"
                        f" {lat.height} changes"
                    )
                new = ev(node.sub, {**env, node.name: current})
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
                stats.record(iterations, lat.height)
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
