"""Seeded random games and formulas for differential testing.

Everything goes through ``random.Random`` so a seed reproduces the exact
case sequence across runs and platforms.
"""

from __future__ import annotations

import random

from . import assertions as asr
from . import formulas as fm
from .errors import EmuError
from .game import PriorityRule, VariableSet, WeightedGameStructure, WeightRule

_VAR_POOL = ("a", "b", "x", "y", "z", "u", "v", "w")


def random_assertion(rng: random.Random, names, primed_names=(), depth: int = 2):
    """A small random expression over the given atoms."""
    atoms: list[asr.Assertion] = [asr.TRUE, asr.FALSE]
    atoms += [asr.Var(n) for n in names]
    atoms += [asr.Var(n, primed=True) for n in primed_names]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.randrange(4)
    left = random_assertion(rng, names, primed_names, depth - 1)
    right = random_assertion(rng, names, primed_names, depth - 1)
    if kind == 0:
        return asr.And(left, right)
    if kind == 1:
        return asr.Or(left, right)
    if kind == 2:
        return asr.Not(left)
    return asr.Implies(left, right)


def random_wgs(
    rng: random.Random,
    min_vars: int = 2,
    max_vars: int = 4,
    max_weight: int = 2,
    priorities: bool = False,
) -> WeightedGameStructure:
    """A random weighted game; the last weight rule is a catch-all.

    Transition assertions are biased towards mostly-live games but may
    contain environment or system deadlocks.
    """
    if max_vars > len(_VAR_POOL):
        raise EmuError(f"random games have at most {len(_VAR_POOL)} variables")
    n = rng.randint(min_vars, max_vars)
    names = _VAR_POOL[:n]
    n_inputs = rng.randint(0, n)
    inputs = frozenset(rng.sample(names, n_inputs))
    vs = VariableSet(tuple(names), inputs)

    def transition_assertion(primed_pool):
        if rng.random() < 0.55:
            return asr.TRUE
        out = random_assertion(rng, names, primed_pool, depth=2)
        if rng.random() < 0.6:
            # keep many games live: allow the constraint to be escaped
            out = asr.Or(out, random_assertion(rng, names, primed_pool, depth=1))
        return out

    rho_e = transition_assertion(vs.x_names)
    rho_s = transition_assertion(names)

    rules = []
    for _ in range(rng.randint(0, 2)):
        rules.append(WeightRule(
            random_assertion(rng, names, names, depth=1),
            rng.randint(-max_weight, max_weight),
        ))
    rules.append(WeightRule(asr.TRUE, rng.randint(-max_weight, max_weight)))

    return WeightedGameStructure(
        vars=vs,
        rho_e=rho_e,
        rho_s=rho_s,
        weights=tuple(rules),
        priorities=random_priorities(rng, vs) if priorities else None,
        formula=fm.builtin("safety"),
    )


def random_priorities(rng: random.Random, vs: VariableSet, max_priorities: int = 3):
    """A guard partition with 1..max_priorities classes over the first variables."""
    d = rng.randint(1, max_priorities)
    if d == 1:
        return (PriorityRule(asr.TRUE, rng.randint(0, 1)),)
    # partition by the minterms of ceil(log2(d)) variables, merged into d classes
    k = max(1, (d - 1).bit_length())
    k = min(k, len(vs.names))
    cells = []
    for code in range(1 << k):
        cell = None
        for j in range(k):
            lit = asr.Var(vs.names[j])
            if not (code >> j) & 1:
                lit = asr.Not(lit)
            cell = lit if cell is None else asr.And(cell, lit)
        cells.append(cell)
    base = rng.randrange(0, 2)  # least priority present: 0 or 1
    rules = []
    for i, cell in enumerate(cells):
        prio = base + min(i, d - 1)
        rules.append(PriorityRule(cell, prio))
    return tuple(rules)


def random_formula(rng: random.Random, vs: VariableSet):
    """One of the stock system-side formulas with a random target."""
    name = rng.choice(("safety", "reach", "buchi", "cobuchi"))
    if name == "safety":
        return name, fm.builtin("safety")
    target = random_assertion(rng, vs.names, (), depth=1)
    param = "p" if name == "reach" else "J"
    return name, fm.builtin(name, **{param: target})
