"""Independent oracles used to compute expected values.

Everything here is written from scratch against single states rather than
the vectorized evaluators it checks: the scalar semantics of assertions,
moves and weights, the references built on them, and random explicit
energy parity games for the explicit pipeline.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from emu import (
    INF,
    EnergyFunction,
    EnergyParityGame,
    VariableSet,
    cpre_env,
    cpre_sys,
    ecpre,
    ecpre_env,
    join,
    meet,
    neg,
)
from emu import assertions as asr
from emu import formulas as fm
from emu.errors import (
    ConsistencyError,
    EmuError,
    IncompleteWeightCoverError,
    MalformedAssertionError,
    WeightDomainError,
)
from emu.tables import DEAD


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


@dataclass(frozen=True)
class State:
    """A truth assignment to all game variables, packed into an index.

    Bit ``k`` of ``index`` is the value of ``vars.names[k]``.
    """

    vars: VariableSet
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.vars.n_states:
            raise EmuError(f"state index {self.index} out of range")

    def value(self, name: str) -> bool:
        return bool((self.index >> self.vars.names.index(name)) & 1)

    def minterm(self) -> str:
        """Render as a conjunction of literals, e.g. ``!x & y``."""
        if not self.vars.names:
            return "true"
        return " & ".join(
            n if self.value(n) else f"!{n}" for n in self.vars.names
        )

    def __repr__(self):
        bits = ", ".join(f"{n}={int(self.value(n))}" for n in self.vars.names)
        return f"State({bits})"


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


def mutate_credits(credits: EnergyFunction) -> EnergyFunction:
    """``credits`` with the value of state 0 corrupted, INF to 0 and any
    other value to INF: the output of a broken evaluator."""
    values = credits.values.copy()
    values[0] = 0 if values[0] == INF else INF
    return EnergyFunction(credits.bound, values)


def ecpre_env_cases(game, c, f: EnergyFunction) -> EnergyFunction:
    """The environment's step, from its own case analysis rather than duality.

    For each table row the environment picks the best valid input (integer
    min) after the system's worst answer (integer max) over all outputs,
    read and free; each state reads its row's value.  Cells are indexed by
    (read output, input, free output, row).
    """
    t = game.tables()
    e = f.values[t.succ][:, :, :, None]
    w = t.weight[:, :, None, :]
    valid = t.rho_e[None, :, None, :]
    is_inf = e == INF
    ew = e + w
    val = ew                                   # case 8: pay the weight backwards
    val = np.where(ew > c, INF, val)           # case 7: overflow unattainable (for env)
    val = np.where(ew <= 0, 0, val)            # case 6: clipped at zero
    val = np.where(is_inf, c + 1 + w, val)     # case 5: from INF, mid-range weight
    val = np.where(is_inf & (w >= 0), INF, val)  # case 4
    val = np.where(is_inf & (w + c < 0), 0, val)  # case 3
    dead = valid & (w == DEAD)
    val = np.where((e == 0) | dead, 0, val)    # case 2
    val = np.where(~valid, INF, val)           # case 1: invalid input
    return EnergyFunction(c, val.max(axis=(0, 2)).min(axis=0)[t.row])


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


# ---------------------------------------------------------------------------
# Nested fixpoint formulas and their plain semantics

_BINDER_NAMES = ("X", "Y", "Z")


def random_nested_formula(rng, atoms=("a", "b"), size=10, max_binders=3):
    """A closed monotone formula over the state variables ``atoms`` that nests
    mu and nu, steps with ``<>`` and ``[]``, and reads outer fixpoint
    variables inside inner bodies.

    The root is a fixpoint.  A body is its variable's step (``<>`` in a nu,
    ``[]`` in a mu, mostly) joined or met with a random term, which may hold
    more fixpoints.  Binders are named from X, Y and Z, so names repeat and
    inner binders shadow outer ones.  A subterm object already made is
    placed again, now and then, wherever its variables are in scope: one
    object can then sit where its variable is an outer binder's, invariant
    for the loops in between, and where it is the variable of the loop that
    reads it.
    """
    made = []  # (subterm, its free variables), for placing again
    binders = max_binders

    def term(scope, size):
        if made and rng.random() < 0.15:
            node, free = rng.choice(made)
            if free <= scope:
                return node, free
        r = rng.random()
        if size <= 1 or r < 0.15:
            node, free = leaf(scope)
        elif r < 0.45 and binders:
            node, free = fixpoint(scope, size)
        elif r < 0.85:
            left, lf = term(scope, size // 2)
            right, rf = term(scope, size - size // 2)
            node, free = rng.choice((fm.And, fm.Or))(left, right), lf | rf
        else:
            sub, free = term(scope, size - 1)
            node = rng.choice((fm.Diamond, fm.Box))(sub)
        made.append((node, free))
        return node, free

    def fixpoint(scope, size):
        nonlocal binders
        binders -= 1
        name = rng.choice(_BINDER_NAMES)
        kind = rng.choice((fm.Mu, fm.Nu))
        step = fm.Box if kind is fm.Mu else fm.Diamond
        if rng.random() < 0.2:  # a step that keeps it out of the safety shape
            step = fm.Diamond if step is fm.Box else fm.Box
        # a body that reads only outer variables besides its step is
        # safety-shaped up to what the engine hoists out of it
        inner = scope if scope and rng.random() < 0.4 else scope | {name}
        rest, free = term(inner, size - 2)
        pair = (step(fm.RelVar(name)), rest)
        if rng.random() < 0.5:
            pair = pair[::-1]
        return kind(name, rng.choice((fm.And, fm.Or))(*pair)), free - {name}

    def leaf(scope):
        r = rng.random()
        if scope and r < 0.6:
            name = rng.choice(sorted(scope))
            if r < 0.1:
                return fm.RelVar(name), {name}
            return rng.choice((fm.Diamond, fm.Box))(fm.RelVar(name)), {name}
        a = rng.choice([asr.Var(n) for n in atoms] + [asr.TRUE])
        return fm.Atom(rng.choice((a, asr.Not(a)))), set()

    return fixpoint(set(), size)[0]


def rename_apart(f):
    """f with every binder that reuses a name (free in f, or bound above or
    before it) given the first unused name{k}, and its variables renamed
    with it: the same formula with no name hidden."""
    seen = set(fm.metrics(f).free)

    def walk(node, env):
        kind = type(node)
        if kind is fm.RelVar:
            return fm.RelVar(env.get(node.name, node.name))
        if kind in (fm.Mu, fm.Nu):
            name, k = node.name, 0
            while name in seen:
                k += 1
                name = f"{node.name}{k}"
            seen.add(name)
            return kind(name, walk(node.sub, {**env, node.name: name}))
        if kind in (fm.And, fm.Or):
            return kind(walk(node.left, env), walk(node.right, env))
        if kind in (fm.Diamond, fm.Box, fm.Not):
            return kind(walk(node.sub, env))
        return node

    return walk(f, {})


def nested_formulas(atoms=("a", "b")):
    """Hypothesis strategy for ``random_nested_formula``."""
    return st.randoms(use_true_random=False).map(
        lambda rng: random_nested_formula(rng, atoms))


def eval_classical_plain(game, f) -> np.ndarray:
    """The state set of f by the plain fixpoint semantics: direct recursion
    over ``cpre_sys``/``cpre_env``, each fixpoint iterating its whole body
    from the empty or the full set until two iterates agree.  Nothing is
    hoisted, and no cap is checked.  Atoms come from the scalar
    ``eval_assertion``, negation is set complement."""
    states = list(all_states(game.vars))

    def ev(node, env):
        if isinstance(node, fm.Atom):
            return np.array([eval_assertion(node.assertion, s) for s in states])
        if isinstance(node, fm.RelVar):
            return env[node.name]
        if isinstance(node, fm.And):
            return ev(node.left, env) & ev(node.right, env)
        if isinstance(node, fm.Or):
            return ev(node.left, env) | ev(node.right, env)
        if isinstance(node, fm.Diamond):
            return cpre_sys(game, ev(node.sub, env))
        if isinstance(node, fm.Box):
            return cpre_env(game, ev(node.sub, env))
        if isinstance(node, fm.Not):
            return ~ev(node.sub, env)
        current = np.full(len(states), isinstance(node, fm.Nu))
        while True:
            new = ev(node.sub, {**env, node.name: current})
            if (new == current).all():
                return current
            current = new

    return ev(f, {})


def eval_energy_plain(game, c, f) -> EnergyFunction:
    """The energy value of f by the plain fixpoint semantics: each fixpoint
    iterates its whole body from bottom or top until two iterates agree.
    Nothing is hoisted or cut, and no cap is checked.  Atoms come from the
    scalar ``eval_assertion``, the rest from ``emu.energy``'s
    ``join``/``meet``/``neg``/``ecpre``/``ecpre_env``."""
    states = list(all_states(game.vars))
    n = len(states)
    masks = {}

    def atom(a):
        if a not in masks:
            masks[a] = np.array([eval_assertion(a, s) for s in states])
        return EnergyFunction(c, np.where(masks[a], 0, INF))

    def ev(node, env):
        if isinstance(node, fm.Atom):
            return atom(node.assertion)
        if isinstance(node, fm.RelVar):
            return env[node.name]
        if isinstance(node, fm.And):
            return meet(ev(node.left, env), ev(node.right, env))
        if isinstance(node, fm.Or):
            return join(ev(node.left, env), ev(node.right, env))
        if isinstance(node, fm.Diamond):
            return ecpre(game, c, ev(node.sub, env))
        if isinstance(node, fm.Box):
            return ecpre_env(game, c, ev(node.sub, env))
        if isinstance(node, fm.Not):
            return neg(ev(node.sub, env))
        current = (EnergyFunction.bottom(c, n) if isinstance(node, fm.Mu)
                   else EnergyFunction.top(c, n))
        while True:
            new = ev(node.sub, {**env, node.name: current})
            if new == current:
                return current
            current = new

    return ev(f, {})


def credit_readout_loops(layers, c, side) -> list[int]:
    """Per-state credits from the winning layers of a reduced game, row e
    the states that win with credit e; rows above c are not read.

    On the ``sys`` side the winning credits of each state must be upward
    closed [lo, c] and its value is lo; on the ``env`` side downward closed
    [0, hi], value c - hi.  A state with no winning credit gets INF, and the
    first state of the wrong shape raises ``ConsistencyError``.
    """
    out = []
    for s in range(layers.shape[1]):
        credits = [c0 for c0 in range(c + 1) if layers[c0, s]]
        if not credits:
            out.append(INF)
            continue
        lo, hi = credits[0], credits[-1]
        if side == "sys":
            closed, shape, value = hi == c, "upward", lo
        else:
            closed, shape, value = lo == 0, "downward", c - hi
        if not closed or len(credits) != hi - lo + 1:
            raise ConsistencyError(
                f"winning credits of state {s} are not {shape} closed: {credits}"
            )
        out.append(value)
    return out


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
    pg = listed(pg)
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


def random_energy_parity_game(
    rng: random.Random,
    max_states: int = 8,
    max_priorities: int = 3,
    max_weight: int = 2,
) -> EnergyParityGame:
    """A random explicit energy parity game (may contain deadlocks)."""
    n = rng.randint(1, max_states)
    owners = tuple(rng.randint(0, 1) for _ in range(n))
    prios = tuple(rng.randrange(max_priorities) for _ in range(n))
    edges = []
    for _s in range(n):
        dsts = rng.sample(range(n), rng.randint(0, min(3, n)))
        edges.append(tuple(
            (d, rng.randint(-max_weight, max_weight)) for d in dsts
        ))
    return EnergyParityGame.of(owners, prios, edges)


# ---------------------------------------------------------------------------
# The explicit energy parity pipeline written with loops over tuples: the
# scalar reference for the array pipeline of ``emu.parity``.

@dataclass(frozen=True)
class ListGame:
    """An explicit game as per-state tuples of out-edges: destinations, or
    (destination, weight) pairs."""

    owners: tuple[int, ...]
    prios: tuple[int, ...]
    edges: tuple[tuple, ...]

    @property
    def n_states(self) -> int:
        return len(self.owners)


def listed(g) -> ListGame:
    """The per-state tuples of an array game (a ``ListGame`` stays as is)."""
    if isinstance(g, ListGame):
        return g
    cols = [g.dst.tolist()] + ([g.weight.tolist()] if hasattr(g, "weight") else [])
    edges = [[] for _ in range(g.n_states)]
    for s, *e in zip(g.src.tolist(), *cols):
        edges[s].append(tuple(e) if len(e) > 1 else e[0])
    return ListGame(tuple(g.owners.tolist()), tuple(g.prios.tolist()),
                    tuple(tuple(out) for out in edges))


def from_parity_wgs_loops(game) -> ListGame:
    """Explicit expansion of a priority-annotated weighted game, each edge
    decided by the scalar semantics of the game's own assertions."""
    vs = game.vars
    states = list(all_states(vs))
    inputs = list(_assignments(vs.x_names))
    N, NX = len(states), len(inputs)
    prios = [next(r.priority for r in game.priorities if eval_assertion(r.guard, s))
             for s in states]
    owners = [1] * N + [0] * (N * NX)
    prios += [p for p in prios for _ in range(NX)]
    edges: list[tuple[tuple[int, int], ...]] = []
    for s in states:
        edges.append(tuple(
            (N + s.index * NX + x, 0) for x, s_x in enumerate(inputs)
            if eval_assertion(game.rho_e, s, state_of(vs, s_x))
        ))
    for s in states:
        for s_x in inputs:
            out = []
            for s_y in _assignments(vs.y_names):
                t = state_of(vs, s_x | s_y)
                if eval_assertion(game.rho_s, s, t):
                    out.append((t.index, weight(game, s, t)))
            edges.append(tuple(out))
    return ListGame(tuple(owners), tuple(prios), tuple(edges))


def unfold_with_bound_loops(g, c: int) -> ListGame:
    """Credit layers (s, credit) at credit*n + s, overflow at (c+1)*n + s,
    a player-0 deadlock."""
    g = listed(g)
    n = g.n_states
    owners = []
    prios = []
    edges: list[tuple[int, ...]] = []
    for credit in range(c + 1):
        for s in range(n):
            owners.append(g.owners[s])
            prios.append(g.prios[s])
            out = []
            for dst, w in g.edges[s]:
                nxt = credit + w
                if nxt < 0:
                    out.append((c + 1) * n + dst)
                else:
                    out.append(min(c, nxt) * n + dst)
            edges.append(tuple(out))
    for s in range(n):
        owners.append(0)  # overflow: a player-0 deadlock
        prios.append(g.prios[s])
        edges.append(())
    return ListGame(tuple(owners), tuple(prios), tuple(edges))


def _predecessors(edges) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in edges]
    for s, out in enumerate(edges):
        for d in out:
            preds[d].append(s)
    return preds


def _attract(owners, edges, preds, player, base, active):
    """Attractor of ``base`` for ``player`` within ``active``, one state at
    a time; an opponent state's pending count is taken when first reached."""
    in_attr = base.copy()
    pending = {}
    stack = list(np.nonzero(base)[0])
    while stack:
        s = int(stack.pop())
        for p in preds[s]:
            if not active[p] or in_attr[p]:
                continue
            if owners[p] == player:
                in_attr[p] = True
                stack.append(p)
            else:
                if p not in pending:
                    pending[p] = sum(1 for d in edges[p] if active[d])
                pending[p] -= 1
                if pending[p] == 0:
                    in_attr[p] = True
                    stack.append(p)
    return in_attr


def solve_parity_loops(game) -> tuple[set[int], set[int]]:
    """Winning regions (W0, W1) by recursive attractor decomposition, each
    deadlock given one edge to a sink that loses for its owner."""
    game = listed(game)
    n = game.n_states
    sink0 = n      # self-loop, priority 0: winning for player 0
    sink1 = n + 1  # self-loop, priority 1: winning for player 1
    owners = list(game.owners) + [0, 0]
    prios = list(game.prios) + [0, 1]
    edges = []
    for s in range(n):
        out = [e[0] if isinstance(e, tuple) else e for e in game.edges[s]]
        if not out:
            out = [sink0 if game.owners[s] == 1 else sink1]
        edges.append(out)
    edges += [[sink0], [sink1]]
    preds = _predecessors(edges)
    prios_arr = np.array(prios, dtype=np.int64)

    def recurse(active):
        if not active.any():
            empty = np.zeros(n + 2, dtype=bool)
            return empty, empty.copy()
        p = int(prios_arr[active].min())
        i = p % 2
        base = active & (prios_arr == p)
        a = _attract(owners, edges, preds, i, base, active)
        w0, w1 = recurse(active & ~a)
        wi, wj = (w0, w1) if i == 0 else (w1, w0)
        if not wj.any():
            return (active.copy(), np.zeros(n + 2, dtype=bool)) if i == 0 else (
                np.zeros(n + 2, dtype=bool), active.copy())
        b = _attract(owners, edges, preds, 1 - i, wj, active)
        w0b, w1b = recurse(active & ~b)
        if i == 0:
            return w0b, w1b | b
        return w0b | b, w1b

    limit = sys.getrecursionlimit()
    needed = 4 * (n + 2) + 100
    raised = limit < needed
    if raised:
        sys.setrecursionlimit(needed)
    try:
        w0, w1 = recurse(np.ones(n + 2, dtype=bool))
    finally:
        if raised:
            sys.setrecursionlimit(limit)
    W0 = {s for s in range(n) if w0[s]}
    W1 = {s for s in range(n) if w1[s]}
    if W0 | W1 != set(range(n)) or W0 & W1:
        raise ConsistencyError("parity solve did not partition the states")
    return W0, W1


def solve_energy_parity_loops(g, c: int) -> list[int]:
    """Per-state least credit layer won by player 0 (INF if none)."""
    g = listed(g)
    w0, _w1 = solve_parity_loops(unfold_with_bound_loops(g, c))
    out = []
    for s in range(g.n_states):
        best = INF
        for credit in range(c + 1):
            if credit * g.n_states + s in w0:
                best = credit
                break
        out.append(int(best))
    return out


# ---------------------------------------------------------------------------
# The solve report as a document: the reference for ``cli.solve_report_json``.


def solve_report_dict(report, vs, formula, query=None) -> dict:
    """The schema-1 document of ``emu solve --format json`` as a dict, each
    state named by ``State.minterm``; ``json.dumps`` of it is the writer's
    output byte for byte.  ``query`` is the ``--state`` text and its mask."""
    names = [s.minterm() for s in all_states(vs)]
    rows = [{"state": name, "credit": "inf" if v == INF else str(v)}
            for name, v in zip(names, report.min_credits.values.tolist())]
    bb = report.bound_breakdown
    doc = {
        "schema": 1,
        "command": "solve",
        "formula": fm.formula_to_str(formula),
        "requested_bound": "inf" if report.unbounded else report.effective_bound,
        "effective_bound": report.effective_bound,
        "bound_variant": bb.variant,
        "N": bb.n_states,
        "K": bb.max_abs_weight,
        "m": bb.formula_length,
        "d": bb.alternation_depth,
        "min_credits": rows,
        "w_sys": [n for n, hit in zip(names, report.sys_region) if hit],
        "w_env": [n for n, hit in zip(names, report.env_region) if hit],
    }
    if query is not None:
        state, mask = query
        doc["query"] = {"state": state,
                        "results": [r for r, hit in zip(rows, mask) if hit]}
    return doc
