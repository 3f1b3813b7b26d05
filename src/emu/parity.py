"""Explicit turn-based parity and energy parity games, as numpy arrays.

Player 0 wins an infinite play when the minimum priority seen infinitely
often is even, and a finite play when it ends in a deadlock of player 1;
in an energy parity game the running energy level must additionally stay
non-negative.  This module provides the explicit expansion of a symbolic
parity game, the credit-layer unfolding that turns a bounded energy parity
game into a plain parity game, and Zielonka's parity solver, whose
attractors are internal to it.  It is the second, independent oracle next
to the credit-tracking reduction.

A game of n states and E edges is held in arrays: ``owners`` int8 (n,),
``prios`` int64 (n,), and the edge list ``src``/``dst`` int64 (E,), plus
``weight`` int64 (E,) in an energy parity game.  The edges are sorted by
``src``, stably, so the edges of a state form one run in their given order.
The expansion of a symbolic game keeps its N game states at 0..N-1 and
shares the positions after an input: one per input and per class of the
game states with one table row and one priority.  The states of a class
have the same owner, priority and moves, with the same weights, after each
input, so one position per (state, input) would hold bisimilar copies.
The unfolding at bound c packs (state s, credit) as credit*n + s for credit
in [0, c], the layout of the credit-tracking reduction, and puts the
overflow state of s at (c+1)*n + s.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from . import tables
from .energy import LIMIT, _check_bound
from .errors import ConsistencyError, EmuError, StateCapError, WeightDomainError
from .game import WeightedGameStructure
from .reduction import layer_credits


@dataclass(frozen=True, eq=False)
class ParityGame:
    """Explicit graph game with owners and priorities, no weights."""

    owners: np.ndarray   # int8 (n,): 0 or 1
    prios: np.ndarray    # int64 (n,)
    src: np.ndarray      # int64 (E,), sorted stably
    dst: np.ndarray      # int64 (E,)

    def __post_init__(self):
        try:
            a = {f.name: np.asarray(getattr(self, f.name), dtype=np.int64)
                 for f in fields(self)}
        except OverflowError:
            raise EmuError("game entries must fit in 64-bit integers") from None
        n, src, dst = len(a["owners"]), a["src"], a["dst"]
        if len(a["prios"]) != n or len({len(src), len(dst), len(a.get("weight", dst))}) > 1:
            raise EmuError("owners, prios, and edges must have equal length")
        if ((a["owners"] != 0) & (a["owners"] != 1)).any():
            raise EmuError("owners must be 0 or 1")
        if (a["prios"] < 0).any():
            raise EmuError("priorities must be natural numbers")
        out = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if out.any():
            raise EmuError(f"edge {src[out][0]}->{dst[out][0]} leaves the state space")
        if (src[1:] < src[:-1]).any():
            raise EmuError("edges must be sorted by their source")
        a["owners"] = a["owners"].astype(np.int8)
        for name, arr in a.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def of(cls, owners, prios, edges):
        """The game whose state s has the out-edges ``edges[s]``, in order:
        destinations, or (destination, weight) pairs in an energy game."""
        src = np.repeat(np.arange(len(edges)), [len(out) for out in edges])
        cols = np.array([e for out in edges for e in out], dtype=object)
        # the edge columns after src: dst, and weight in an energy game
        return cls(owners, prios, src, *cols.reshape(len(src), len(fields(cls)) - 3).T)

    @property
    def n_states(self) -> int:
        return len(self.owners)

    @property
    def n_priorities(self) -> int:
        """Number of distinct priorities (the d of the sufficient bound)."""
        return len(np.unique(self.prios))


@dataclass(frozen=True, eq=False)
class EnergyParityGame(ParityGame):
    """Explicit graph game with owners, priorities, and edge weights."""

    weight: np.ndarray   # int64 (E,), |weight| <= 2^60

    def __post_init__(self):
        super().__post_init__()
        if ((self.weight < -LIMIT) | (self.weight > LIMIT)).any():
            raise WeightDomainError("edge weights must be at most 2^60 in absolute value")

    @property
    def max_abs_weight(self) -> int:
        return int(np.abs(self.weight).max(initial=0))


def from_parity_wgs(game: WeightedGameStructure) -> EnergyParityGame:
    """Explicit expansion of a priority-annotated weighted game.

    States 0..N-1 are the game states, owned by player 1 (the environment
    moves first).  The game states of one table row and one priority form a
    class, and N + k*NX + x is the position of class k after the environment
    picked input x, owned by player 0; the classes are numbered by row, then
    priority.  Environment edges weigh 0, system edges carry the transition
    weight, and a position has the priority of its class.  Sharing loses
    nothing: the moves after an input and their weights are read from the
    row alone, so the position of a class is a bisimilar copy of the one
    position per (state, input) that each of its states would have.
    """
    t = game.tables()
    if t.prio is None:
        raise EmuError("the game carries no priority annotation")
    N, NX, NYf = t.n_states, t.rho_e.shape[0], t.succ.shape[2]
    # the classes, by sorting the states on (row, priority): a key computed
    # from the two could wrap, since a priority may be up to 2^63-1
    by_class = np.lexsort((t.prio, t.row))
    row, prio = t.row[by_class], t.prio[by_class]
    first = np.ones(N, dtype=bool)  # the first state of each class
    first[1:] = (row[1:] != row[:-1]) | (prio[1:] != prio[:-1])
    cls = np.empty(N, dtype=np.int64)
    cls[by_class] = np.cumsum(first) - 1
    row, prio = row[first], prio[first]
    s, x = np.nonzero(t.rho_e[:, t.row].T)
    # each valid (class, input, read output) move, over the free outputs;
    # then sorted by source and, within one, by target, which is by output
    k, kx, ky = np.nonzero((t.weight != tables.DEAD)[:, :, row].T)
    src = np.repeat(N + k * NX + kx, NYf)
    dst = t.succ[ky, kx].ravel()
    order = np.lexsort((dst, src))
    return EnergyParityGame(
        owners=np.repeat(np.array([1, 0], dtype=np.int8), [N, len(row) * NX]),
        prios=np.concatenate([t.prio, np.repeat(prio, NX)]),
        src=np.concatenate([s, src[order]]),
        dst=np.concatenate([N + cls[s] * NX + x, dst[order]]),
        weight=np.concatenate([np.zeros(len(s), dtype=np.int64),
                               np.repeat(t.weight[ky, kx, row[k]], NYf)[order]]),
    )


def unfold_with_bound(g: EnergyParityGame, c: int) -> ParityGame:
    """Layer the credit into the states: (s, credit) for credit in [0, c],
    plus one overflow state per game state.

    Moves update the credit by the edge weight, clipped above at c; a drop
    below zero moves to the overflow state instead, which is a deadlock
    owned by player 0 (losing it the play).  Priorities are inherited.
    State packing: credit*n + s, overflow at (c+1)*n + s, so each credit
    layer is a copy of the edge list, already sorted by source, and state
    (s, credit) keeps the edge order of s.

    An unfolding that would not fit in the free memory is refused before
    anything is allocated.  Each unfolded edge costs 72 bytes: its ``src``
    and ``dst``, the solver's copy of them with the deadlock edges and one
    edge-sized temporary of an attractor round, and, once an attractor goes
    deep, the sort order and predecessor list of the solver's index.  Each
    unfolded state costs 64: owner, priority, predecessor offset, out-degree,
    pending count and the solver's bool masks, a few per recursion level.
    After a first solve has loaded what numpy loads on first use, the peak
    that ``tracemalloc`` saw in a solve was 0.60-0.75 of this estimate on 14
    random games of 2-6 priorities and 1.2e5-8.5e5 unfolded edges, 0.73-0.90
    on 6 random games of 25-101 priorities, and 0.624-0.628 at c =
    300-1,000 on a random 12-state game of 24 edges; holding one more copy
    of the unfolded edge list took these to 0.76-0.91, 0.88-1.06 and 0.78.
    """
    _check_bound(c)
    c, n, E = int(c), g.n_states, len(g.src)
    need, free = 72 * E * (c + 1) + 64 * n * (c + 2), tables._available_memory()
    if need > free:
        raise StateCapError(f"the unfolding at bound {c} needs about {need >> 20}"
                            f" MiB, more than the {free >> 20} MiB free")
    credit = np.arange(c + 1)[:, None]
    dst = credit + g.weight  # the next credit level, then its state, in place
    np.minimum(dst, c, out=dst)
    dst[dst < 0] = c + 1
    dst *= n
    dst += g.dst
    owners = np.zeros((c + 2, n), dtype=np.int8)  # overflow: a player-0 deadlock
    owners[:c + 1] = g.owners
    return ParityGame(owners.ravel(), np.tile(g.prios, c + 2),
                      (credit * n + g.src).ravel(), dst.ravel())


def _predecessors(src, dst, n):
    """Predecessor index: the sources of the edges into d are
    ``pred[ptr[d]:ptr[d+1]]``."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=ptr[1:])
    return ptr, src[np.argsort(dst, kind="stable")]


# An attractor round is a pass over all E edges, which on the shallow
# attractors of most unfoldings costs less than sorting the edges once.  An
# attractor that has made PASSES rounds and whose next round reaches fewer
# than E/PASSES edges goes on over the predecessor index instead, which
# ``solve_parity`` builds at most once.  Each edge is reached at most once by
# one attractor, so at most PASSES of its rounds reach E/PASSES edges or
# more, and it makes at most 2*PASSES passes: a pass per round would make a
# deep attractor quadratic in its depth.
PASSES = 32


def _attract(own0, src, dst, index, player, base, active, degree=None):
    """Attractor of ``base`` for ``player`` within the subgame ``active``.

    A base that covers the subgame is its own attractor, returned as it is
    without a pass over the edges: the one-state sink subgame, or one whose
    states all have its least priority.  Otherwise each round takes the
    sources of the edges into the states the last round added.  Own states
    need one successor inside, opponent states all of their active
    successors: an opponent state's count of pending successors drops by
    one per edge into the attractor.  That count starts from ``degree``, the
    out-degrees, when ``active`` is the whole game, and is counted over the
    edges into ``active`` otherwise.  ``index()`` gives the predecessor
    index, built on first use.  ``solve_parity`` keeps the game total, so no
    deadlock needs a convention here.
    """
    if np.array_equal(base, active):
        return base
    n = len(own0)
    mine = own0 if player == 0 else ~own0
    in_attr = base.copy()
    if degree is None:
        pending = np.bincount(src[active[dst]], minlength=n)
    else:
        pending = degree.copy()
    p, rounds = src[base[dst]], 0
    while p.size and (rounds < PASSES or p.size * PASSES >= len(src)):
        hits = np.bincount(p, minlength=n)
        pending -= hits
        new = (hits > 0) & active & ~in_attr & (mine | (pending == 0))
        in_attr |= new
        p, rounds = src[new[dst]], rounds + 1
    while p.size:
        p = p[active[p] & ~in_attr[p]]
        own = mine[p]
        opp, hits = np.unique(p[~own], return_counts=True)
        pending[opp] -= hits
        frontier = np.concatenate([np.unique(p[own]), opp[pending[opp] == 0]])
        in_attr[frontier] = True
        ptr, pred = index()
        lo, size = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
        p = pred[np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())]
    return in_attr


def solve_parity(game: ParityGame) -> tuple[np.ndarray, np.ndarray]:
    """Winning regions (W0, W1) as bool (n,) arrays; every state is in
    exactly one.

    Zielonka's attractor decomposition on a deadlock-free extension: each
    deadlock gets a single edge to a sink that loses for its owner, which
    keeps every subgame total.  The out-degrees of that extension are
    counted once, for the two attractors that run over the whole game.
    """
    n = game.n_states
    sinks = np.array([n, n + 1])  # self-loops of priority 0 and 1, player 0's
    degree = np.bincount(game.src, minlength=n + 2)
    dead = np.flatnonzero(degree[:n] == 0)
    np.maximum(degree, 1, out=degree)  # a deadlock's and a sink's one edge
    src = np.concatenate([game.src, dead, sinks])
    dst = np.concatenate([game.dst, np.where(game.owners[dead] == 1, n, n + 1), sinks])
    own0 = np.concatenate([game.owners == 0, [True, True]])
    prios = np.concatenate([game.prios, [0, 1]])
    index = functools.cache(functools.partial(_predecessors, src, dst, n + 2))
    arrays = (own0, prios, src, dst, index, degree)
    w0, w1 = _solve_subgame(np.ones(n + 2, dtype=bool), arrays)
    w0, w1 = w0[:n], w1[:n]
    if not (w0 ^ w1).all():
        raise ConsistencyError("parity solve did not partition the states")
    return w0, w1


def _solve_subgame(active, arrays):
    """[W0, W1] of the subgame ``active``, which is not written.  Zielonka's
    second recursive call, on ``active & ~b``, only adds the opponent's
    attractor ``b`` to its region, so it is a round of the loop here.

    The out-degrees that end ``arrays`` count the pending successors only
    over the whole game, so only the two attractors of the top-level call's
    first round read them: every later round, and every recursive call, is
    on a proper subgame."""
    own0, prios, src, dst, index, degree = arrays
    if not active.all():
        degree = None
    w = [np.zeros_like(active), np.zeros_like(active)]
    while active.any():
        p = int(prios[active].min())
        i = p % 2
        # the attractor is not kept through the recursion: a mask less a level
        rest = active & ~_attract(own0, src, dst, index, i, active & (prios == p),
                                  active, degree)
        sub = _solve_subgame(rest, arrays)
        if not sub[1 - i].any():
            w[i] |= active
            break
        b = _attract(own0, src, dst, index, 1 - i, sub[1 - i], active, degree)
        w[1 - i] |= b
        active, degree = active & ~b, None
    return w


def solve_energy_parity(g: EnergyParityGame, c: int) -> np.ndarray:
    """Per-state minimum winning credit w.r.t. the bound c (INF if none),
    as an int64 (n,) array.

    Solves the credit-layer unfolding as a plain parity game and reads, for
    each state, the least credit layer won by player 0, as the reduction
    reads its layers: those a state wins must be upward closed.
    """
    w0, _w1 = solve_parity(unfold_with_bound(g, c))
    return layer_credits(w0.reshape(int(c) + 2, g.n_states)[:int(c) + 1])


def bound_ep(n: int, d: int, k: int) -> int:
    """Sufficient bound d*(n-1)*K for an energy parity game."""
    if n < 1:
        raise ValueError("a game has at least one state")
    return d * (n - 1) * k
