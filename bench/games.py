"""Seeded game documents for the benchmark, independent of ``emu.randgen``.

Games are built here, not drawn from the library, so that a change to the
library cannot shift the benchmark's inputs.  A game is a plain dict in the
game-file format (``emu.gamefile``), with assertions written as strings.

A game starts as a fixed ``GameShape``: random ones are drawn from constant
shape seeds, lossy ones are built by rule.  The run seed then draws a
``Relabeling``: it reorders the variables (so the state packing changes) and
flips the polarity of a random subset of them (``v`` becomes ``!v``
everywhere, primed or not).  Both are game isomorphisms, so every seed gives
different files with the same amount of work, and every seed's results map
back to one canonical answer.
"""

from __future__ import annotations

import random

# A literal is (name, primed, positive); a conjunction is a tuple of literals.


def _lit_str(lit, flips=frozenset()):
    name, primed, positive = lit
    if name in flips:
        positive = not positive
    return ("" if positive else "!") + name + ("'" if primed else "")


def _conj_str(conj, flips=frozenset()):
    if not conj:
        return "true"
    return " & ".join(_lit_str(lit, flips) for lit in conj)


def _random_lit(rng, names, primed=False):
    return (rng.choice(names), primed, rng.random() < 0.5)


def _random_conj(rng, pools, size):
    """A conjunction of ``size`` literals over distinct (name, primed) atoms."""
    atoms = [(n, p) for names, p in pools for n in names]
    return tuple(
        (n, p, rng.random() < 0.5) for n, p in rng.sample(atoms, min(size, len(atoms)))
    )


class GameShape:
    """An abstract game: variables, constraints, weights, targets, priorities.

    ``render`` turns it into a game document under a relabeling; the same
    shape rendered under two relabelings gives isomorphic games.
    """

    def __init__(self, names, inputs, rho_e, rho_s, weights, target, priorities):
        self.names = tuple(names)          # canonical order: bit k is names[k]
        self.inputs = frozenset(inputs)
        self.rho_e = rho_e                 # tuple of (antecedent conj, consequent lit)
        self.rho_s = rho_s
        self.weights = weights             # tuple of (conj, weight); last is catch-all
        self.target = target               # conj: the J / p parameter of builtins
        self.priorities = priorities       # tuple of (conj, priority) or None

    @property
    def n_vars(self):
        return len(self.names)

    def render(self, order, flips, formula):
        """Game document with variables in ``order`` and ``flips`` negated."""

        def rules(clauses):
            if not clauses:
                return "true"
            return " & ".join(
                f"({_conj_str(a, flips)} -> {_lit_str(c, flips)})" for a, c in clauses
            )

        doc = {
            "vars": list(order),
            "inputs": [n for n in order if n in self.inputs],
            "rho_e": rules(self.rho_e),
            "rho_s": rules(self.rho_s),
            "weights": [
                {"guard": _conj_str(g, flips), "weight": w} for g, w in self.weights
            ],
            "formula": formula,
        }
        if self.priorities is not None:
            doc["priorities"] = [
                {"guard": _conj_str(g, flips), "priority": p}
                for g, p in self.priorities
            ]
        return doc

    def target_str(self, flips):
        return _conj_str(self.target, flips)

    def parity_formula_str(self, flips):
        """The min-even parity formula of the priority partition."""
        body = " | ".join(
            f'(@"{_conj_str(g, flips)}" & <>Z{p})' for g, p in self.priorities
        )
        binders = "".join(
            f"{'nu' if p % 2 == 0 else 'mu'} Z{p} . "
            for p in sorted({p for _, p in self.priorities})
        )
        return binders + "(" + body + ")"


def random_shape(rng, n_vars, max_weight, n_priorities=0):
    """A random game shape over ``v0..v{n-1}``, the first half inputs.

    One implication ``conj -> lit'`` constrains the next inputs (``rho_e``)
    and two constrain the next outputs (``rho_s``); they may deadlock a
    player, which the semantics allows.  Three weight rules guard on
    current-state literals and next outputs; a catch-all weight comes last.
    """
    names = [f"v{i}" for i in range(n_vars)]
    inputs = names[: n_vars // 2]
    outputs = names[n_vars // 2:]
    rho_e = ((_random_conj(rng, [(names, False)], 1), _random_lit(rng, inputs, True)),)
    rho_s = tuple(
        (_random_conj(rng, [(names, False), (inputs, True)], 2),
         _random_lit(rng, outputs, True))
        for _ in range(2)
    )
    weights = tuple(
        (_random_conj(rng, [(names, False), (outputs, True)], 2),
         rng.randint(-max_weight, max_weight))
        for _ in range(3)
    )
    weights += (((), rng.randint(-max_weight, max_weight)),)
    target = _random_conj(rng, [(names, False)], 2)
    priorities = None
    if n_priorities:
        priorities = _priority_partition(rng, names, n_priorities)
    return GameShape(names, inputs, rho_e, rho_s, weights, target, priorities)


def _priority_partition(rng, names, d):
    """A partition of the states into ``d`` (2 or 3) classes by literals."""
    a, b = rng.sample(names, 2)
    pa, pb = rng.random() < 0.5, rng.random() < 0.5
    base = rng.randrange(2)
    first = (((a, False, pa),), base)
    if d == 2:
        return (first, (((a, False, not pa),), base + 1))
    return (
        first,
        (((a, False, not pa), (b, False, pb)), base + 1),
        (((a, False, not pa), (b, False, not pb)), base + 2),
    )


def lossy_shape(n_vars, loss):
    """All moves allowed, every move loses ``loss``.

    Every cycle loses energy, so no finite credit wins and the greatest
    fixpoints climb through the whole credit range before they settle at
    INF: about c iterations at bound c.
    """
    names = [f"v{i}" for i in range(n_vars)]
    inputs = names[: n_vars // 2]
    target = ((names[-1], False, True),)
    return GameShape(names, inputs, (), (), (((), -loss),), target, None)


class Relabeling:
    """A variable order and a set of flipped variables over canonical names."""

    def __init__(self, names, order=None, flips=()):
        self.canonical = tuple(names)
        self.order = tuple(order or names)
        self.flips = frozenset(flips)

    @classmethod
    def draw(cls, rng, names):
        order = list(names)
        rng.shuffle(order)
        return cls(names, order, [n for n in names if rng.random() < 0.5])

    def canonical_index(self, true_vars):
        """Canonical state index of the relabeled state with ``true_vars`` set."""
        idx = 0
        for k, name in enumerate(self.canonical):
            if (name in true_vars) != (name in self.flips):
                idx |= 1 << k
        return idx


def parse_minterm(text):
    """The set of true variables of a state name like ``v0 & !v1``."""
    if text == "true":
        return frozenset()
    return frozenset(lit for lit in (s.strip() for s in text.split("&"))
                     if not lit.startswith("!"))
