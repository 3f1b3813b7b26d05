"""Independent oracles used to compute expected values.

Everything here is written from scratch against single states rather than
the vectorized evaluators it checks: the scalar semantics of assertions,
moves and weights, and the references built on them.
"""

from __future__ import annotations

import itertools

import numpy as np

from emu import (
    INF,
    EnergyFunction,
    State,
    cpre_sys,
    ecpre,
    join,
    meet,
)
from emu import assertions as asr
from emu.errors import (
    EmuError,
    IncompleteWeightCoverError,
    MalformedAssertionError,
    WeightDomainError,
)


class MissingNextStateError(EmuError):
    """A primed atom was evaluated without a next state."""


def eval_bool(a, lookup) -> bool:
    """Evaluate an assertion with a scalar lookup ``(name, primed) -> bool``.

    Kept apart from ``asr.eval_terms``, which builds the tables under test.
    """
    if isinstance(a, asr.Var):
        return lookup(a.name, a.primed)
    if isinstance(a, asr.Const):
        return a.value
    if isinstance(a, asr.Not):
        return not eval_bool(a.sub, lookup)
    if isinstance(a, asr.And):
        return eval_bool(a.left, lookup) and eval_bool(a.right, lookup)
    if isinstance(a, asr.Or):
        return eval_bool(a.left, lookup) or eval_bool(a.right, lookup)
    if isinstance(a, asr.Implies):
        return (not eval_bool(a.left, lookup)) or eval_bool(a.right, lookup)
    if isinstance(a, asr.Iff):
        return eval_bool(a.left, lookup) == eval_bool(a.right, lookup)
    raise TypeError(f"not an assertion node: {a!r}")


def state_of(vs, true_vars) -> State:
    """The state in which exactly the given variables are true."""
    true_vars = set(true_vars)
    unknown = true_vars - set(vs.names)
    if unknown:
        raise MalformedAssertionError(f"unknown variables: {sorted(unknown)}")
    idx = 0
    for k, name in enumerate(vs.names):
        if name in true_vars:
            idx |= 1 << k
    return State(vs, idx)


def all_states(vs):
    for i in range(vs.n_states):
        yield State(vs, i)


def eval_assertion(a, s, s_next=None) -> bool:
    """Evaluate an assertion on a state and, for primed atoms, a next state."""

    def look(name, primed):
        st = s
        if primed:
            if s_next is None:
                raise MissingNextStateError(
                    f"primed atom {name}' requires a next state")
            st = s_next
        if name not in st.vars.names:
            raise MalformedAssertionError(f"unknown variable {name!r}")
        return st.value(name)

    return eval_bool(a, look)


def _assignments(names):
    """Every subset of ``names``, as frozensets of the true ones."""
    for bits in range(1 << len(names)):
        yield frozenset(n for j, n in enumerate(names) if (bits >> j) & 1)


def env_choices(g, s) -> set[frozenset[str]]:
    """Valid next-input assignments, each as the set of true input variables."""
    return {s_x for s_x in _assignments(g.vars.x_names)
            if eval_assertion(g.rho_e, s, state_of(g.vars, s_x))}


def sys_choices(g, s, s_x) -> set[frozenset[str]]:
    """Valid next-output assignments for the given input, as sets of true outputs."""
    return {s_y for s_y in _assignments(g.vars.y_names)
            if eval_assertion(g.rho_s, s, state_of(g.vars, set(s_x) | s_y))}


def weight(g, s, s_next) -> int:
    """Weight of the system transition (s, s_next); first matching rule wins."""
    if not eval_assertion(g.rho_s, s, s_next):
        raise WeightDomainError(f"({s!r}, {s_next!r}) is not a system transition")
    for rule in g.weights:
        if eval_assertion(rule.guard, s, s_next):
            return rule.weight
    raise IncompleteWeightCoverError(
        f"no weight rule matches the transition ({s!r}, {s_next!r})")


def cpre_sys_enum(game, member) -> set[State]:
    """States where every valid input has a valid output landing in member."""
    out = set()
    for s in all_states(game.vars):
        ok = True
        for s_x in env_choices(game, s):
            hit = False
            for s_y in sys_choices(game, s, s_x):
                t = state_of(game.vars, set(s_x) | set(s_y))
                if member(t):
                    hit = True
                    break
            if not hit:
                ok = False
                break
        if ok:
            out.add(s)
    return out


def cpre_env_enum(game, member) -> set[State]:
    """States with a valid input whose every valid output lands in member."""
    out = set()
    for s in all_states(game.vars):
        for s_x in env_choices(game, s):
            if all(
                member(state_of(game.vars, set(s_x) | set(s_y)))
                for s_y in sys_choices(game, s, s_x)
            ):
                out.add(s)
                break
    return out


def ec_scalar(game, c, s, t, e):
    """The one-step charge, written out case by case from scratch."""
    if not eval_assertion(game.rho_e, s, t):
        return 0
    if e == INF or not eval_assertion(game.rho_s, s, t):
        return int(INF)
    w = weight(game, s, t)
    if e - w > c:
        return int(INF)
    return max(0, int(e) - w)


def neg_cases(f: EnergyFunction) -> EnergyFunction:
    """De Morgan negation, case by case: 0 <-> INF, x -> c+1-x otherwise."""
    c, inf = f.bound, int(INF)
    return EnergyFunction(c, np.array(
        [inf if v == 0 else 0 if v == inf else c + 1 - v for v in f.values.tolist()],
        dtype=np.int64))


def ecpre_env_cases(game, c, f: EnergyFunction) -> EnergyFunction:
    """The environment's step, from its own case analysis rather than duality.

    For each table row the environment picks the best valid input (integer
    min) after the system's worst answer (integer max); each state reads its
    row's value.
    """
    t = game.tables()
    e = f.values[t.succ][None, :, :]
    w = t.weight
    is_inf = e == INF
    ew = e + w
    val = ew                                   # case 8: pay the weight backwards
    val = np.where(ew > c, INF, val)           # case 7: overflow unattainable (for env)
    val = np.where(ew <= 0, 0, val)            # case 6: clipped at zero
    val = np.where(is_inf, c + 1 + w, val)     # case 5: from INF, mid-range weight
    val = np.where(is_inf & (w >= 0), INF, val)  # case 4
    val = np.where(is_inf & (w + c < 0), 0, val)  # case 3
    dead = t.rho_e[:, :, None] & ~t.rho_s
    val = np.where((e == 0) | dead, 0, val)    # case 2
    val = np.where(~t.rho_e[:, :, None], INF, val)  # case 1: invalid input
    return EnergyFunction(c, val.max(axis=2).min(axis=1)[t.row])


def ecpre_enum(game, c, f: EnergyFunction) -> EnergyFunction:
    """max over inputs of min over outputs of the scalar charge."""
    vals = np.zeros(game.n_states, dtype=np.int64)
    for s in all_states(game.vars):
        worst = 0
        for s_x in _assignments(game.vars.x_names):
            best = int(INF)
            for s_y in _assignments(game.vars.y_names):
                t = state_of(game.vars, s_x | s_y)
                best = min(best, ec_scalar(game, c, s, t, int(f.values[t.index])))
            worst = max(worst, best)
        vals[s.index] = worst
    return EnergyFunction(c, vals)


def buchi_loop_classical(game, j_mask):
    """Nested fixpoint loop for 'visit the target set infinitely often'."""
    n = game.n_states
    z = np.ones(n, dtype=bool)
    while True:
        recurr = j_mask & cpre_sys(game, z)
        y = np.zeros(n, dtype=bool)
        while True:
            new = recurr | cpre_sys(game, y)
            if (new == y).all():
                break
            y = new
        if (y == z).all():
            return z
        z = y


def buchi_loop_energy(game, c, f_j: EnergyFunction) -> EnergyFunction:
    """Credit-function version of the same loop; max/min are meet/join."""
    n = game.n_states
    z = EnergyFunction.top(c, n)
    while True:
        recurr = meet(f_j, ecpre(game, c, z))
        y = EnergyFunction.bottom(c, n)
        while True:
            new = join(recurr, ecpre(game, c, y))
            if new == y:
                break
            y = new
        if y == z:
            return z
        z = y


def _play_winner(pg, start, choice0, choice1):
    """Winner of the unique play under two memoryless strategies."""
    seen = {}
    path = []
    s = start
    while s not in seen:
        seen[s] = len(path)
        path.append(s)
        succs = pg.edges[s]
        if not succs:
            # deadlock loses for its owner
            return 1 - pg.owners[s]
        s = choice0[s] if pg.owners[s] == 0 else choice1[s]
    cycle = path[seen[s]:]
    return 0 if min(pg.prios[v] for v in cycle) % 2 == 0 else 1


def parity_winners_brute(pg):
    """Winning regions by enumerating memoryless strategies of both players."""
    n = pg.n_states
    options = []
    for s in range(n):
        succs = list(pg.edges[s])
        options.append(succs if succs else [None])
    own0 = [s for s in range(n) if pg.owners[s] == 0]
    own1 = [s for s in range(n) if pg.owners[s] == 1]

    def strategies(owned):
        pools = [options[s] for s in owned]
        for combo in itertools.product(*pools):
            yield dict(zip(owned, combo))

    w0 = set()
    for start in range(n):
        winning = False
        for c0 in strategies(own0):
            if all(
                _play_winner(pg, start, c0, c1) == 0
                for c1 in strategies(own1)
            ):
                winning = True
                break
        if winning:
            w0.add(start)
    return w0, set(range(n)) - w0
