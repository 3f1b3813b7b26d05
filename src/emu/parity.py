"""Explicit turn-based parity and energy parity games.

Player 0 wins an infinite play when the minimum priority seen infinitely
often is even, and a finite play when it ends in a deadlock of player 1;
in an energy parity game the running energy level must additionally stay
non-negative.  This module provides the explicit expansion of a symbolic
parity game, the credit-layer unfolding that turns a bounded energy parity
game into a plain parity game, attractors, and a recursive parity solver.
It is the second, independent oracle next to the credit-tracking reduction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .energy import INF
from .errors import ConsistencyError, EmuError, GameFormatError
from .game import WeightedGameStructure


@dataclass(frozen=True)
class EnergyParityGame:
    """Explicit graph game with owners, priorities, and edge weights."""

    owners: tuple[int, ...]              # 0 or 1 per state
    prios: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], ...], ...]  # per state: (dst, weight)

    def __post_init__(self):
        n = len(self.owners)
        if len(self.prios) != n or len(self.edges) != n:
            raise EmuError("owners, prios, and edges must have equal length")
        if any(o not in (0, 1) for o in self.owners):
            raise EmuError("owners must be 0 or 1")
        if any(p < 0 for p in self.prios):
            raise EmuError("priorities must be natural numbers")
        for src, out in enumerate(self.edges):
            for dst, _w in out:
                if not 0 <= dst < n:
                    raise EmuError(f"edge {src}->{dst} leaves the state space")

    @property
    def n_states(self) -> int:
        return len(self.owners)

    @property
    def n_priorities(self) -> int:
        """Number of distinct priorities (the d of the sufficient bound)."""
        return len(set(self.prios))

    @property
    def max_abs_weight(self) -> int:
        return max(
            (abs(w) for out in self.edges for _dst, w in out), default=0
        )


@dataclass(frozen=True)
class ParityGame:
    """Explicit graph game with owners and priorities, no weights."""

    owners: tuple[int, ...]
    prios: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]  # per state: destinations

    @property
    def n_states(self) -> int:
        return len(self.owners)


def from_parity_wgs(game: WeightedGameStructure) -> EnergyParityGame:
    """Explicit expansion of a priority-annotated weighted game.

    States 0..N-1 are the game states, owned by player 1 (the environment
    moves first); state N + s*NX + x is the intermediate position after the
    environment picked input x in state s, owned by player 0.  Environment
    edges weigh 0, system edges carry the transition weight, and an
    intermediate position inherits the priority of its source state.
    """
    t = game.tables()
    if t.prio is None:
        raise EmuError("the game carries no priority annotation")
    N, NX, NY = t.n_states, t.n_inputs, t.n_outputs
    owners = [1] * N + [0] * (N * NX)
    prios = [int(t.prio[s]) for s in range(N)]
    prios += [int(t.prio[s]) for s in range(N) for _ in range(NX)]
    edges: list[tuple[tuple[int, int], ...]] = []
    for s in range(N):
        edges.append(tuple(
            (N + s * NX + x, 0) for x in range(NX) if t.rho_e[t.row[s], x]
        ))
    for s in range(N):
        r = t.row[s]
        for x in range(NX):
            out = []
            for y in range(NY):
                if t.rho_s[r, x, y]:
                    out.append((int(t.succ[x, y]), int(t.weight[r, x, y])))
            edges.append(tuple(out))
    return EnergyParityGame(tuple(owners), tuple(prios), tuple(edges))


def unfold_with_bound(g: EnergyParityGame, c: int) -> ParityGame:
    """Layer the credit into the states: (s, credit) for credit in [0, c],
    plus one overflow state per game state.

    Moves update the credit by the edge weight, clipped above at c; a drop
    below zero moves to the overflow state instead, which is a deadlock
    owned by player 0 (losing it the play).  Priorities are inherited.
    State packing: s*(c+2) + credit, overflow at s*(c+2) + c + 1.
    """
    if c < 0:
        raise ValueError("the bound must be a natural number")
    span = c + 2
    owners = []
    prios = []
    edges: list[tuple[int, ...]] = []
    for s in range(g.n_states):
        for credit in range(c + 1):
            owners.append(g.owners[s])
            prios.append(g.prios[s])
            out = []
            for dst, w in g.edges[s]:
                nxt = credit + w
                if nxt < 0:
                    out.append(dst * span + c + 1)
                else:
                    out.append(dst * span + min(c, nxt))
            edges.append(tuple(out))
        owners.append(0)  # overflow: a player-0 deadlock
        prios.append(g.prios[s])
        edges.append(())
    return ParityGame(tuple(owners), tuple(prios), tuple(edges))


def _predecessors(edges) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in edges]
    for s, out in enumerate(edges):
        for d in out:
            preds[d].append(s)
    return preds


def _attract(owners, edges, preds, player, base, active):
    """Attractor of ``base`` for ``player`` within the subgame ``active``.

    Own states need one successor inside, opponent states all of their
    active successors; an opponent state's count of pending successors is
    taken when the attractor first reaches it.  Deadlocks are not added
    here: a caller whose game has them puts them into ``base``.
    """
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


def attractor(game, player: int, target) -> set[int]:
    """States from which ``player`` forces a visit to ``target`` or a
    deadlock of the opponent, in finitely many steps.

    Own states need one successor inside, opponent states all of them
    (vacuously satisfied by opponent deadlocks).
    """
    n = game.n_states
    edges = [
        [dst for dst, _w in out] if isinstance(game, EnergyParityGame) else out
        for out in game.edges
    ]
    base = np.zeros(n, dtype=bool)
    base[list(target)] = True
    for s in range(n):
        if game.owners[s] != player and not edges[s]:
            base[s] = True
    in_attr = _attract(game.owners, edges, _predecessors(edges), player, base,
                       np.ones(n, dtype=bool))
    return set(np.nonzero(in_attr)[0].tolist())


def solve_parity(game: ParityGame) -> tuple[set[int], set[int]]:
    """Winning regions (W0, W1); every state is in exactly one.

    Recursive attractor decomposition on a deadlock-free extension: each
    deadlock gets a single edge to a sink that loses for its owner, which
    keeps the subgame recursion total.
    """
    n = game.n_states
    sink0 = n      # self-loop, priority 0: winning for player 0
    sink1 = n + 1  # self-loop, priority 1: winning for player 1
    owners = list(game.owners) + [0, 0]
    prios = list(game.prios) + [0, 1]
    edges = []
    for s in range(n):
        out = list(game.edges[s])
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


def solve_energy_parity(g: EnergyParityGame, c: int) -> dict[int, int]:
    """Per-state minimum winning credit w.r.t. the bound c (INF if none).

    Solves the credit-layer unfolding as a plain parity game and reads, for
    each state, the least credit layer won by player 0.
    """
    unfolded = unfold_with_bound(g, c)
    w0, _w1 = solve_parity(unfolded)
    span = c + 2
    out = {}
    for s in range(g.n_states):
        best = INF
        for credit in range(c + 1):
            if s * span + credit in w0:
                best = credit
                break
        out[s] = int(best)
    return out


def bound_ep(n: int, d: int, k: int) -> int:
    """Sufficient bound d*(n-1)*K for an energy parity game."""
    if n < 1:
        raise ValueError("a game has at least one state")
    return d * (n - 1) * k


def memory_bound(n: int, d: int, k: int) -> int:
    """Strategy memory upper bound d*(n-1)*K + 1."""
    return bound_ep(n, d, k) + 1


# ---------------------------------------------------------------------------
# Line-oriented text format

def format_explicit_game(g: EnergyParityGame) -> str:
    lines = []
    for s in range(g.n_states):
        lines.append(f"state {s} {g.owners[s]} {g.prios[s]}")
    for s in range(g.n_states):
        for dst, w in g.edges[s]:
            lines.append(f"edge {s} {dst} {w}")
    return "\n".join(lines) + "\n"


def parse_explicit_game(text: str) -> EnergyParityGame:
    owners: dict[int, int] = {}
    prios: dict[int, int] = {}
    edges: dict[int, list[tuple[int, int]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "state" and len(parts) == 4:
                sid, owner, prio = (int(p) for p in parts[1:])
                if sid in owners:
                    raise GameFormatError(f"line {lineno}: duplicate state {sid}")
                owners[sid] = owner
                prios[sid] = prio
                edges.setdefault(sid, [])
                continue
            if parts[0] == "edge" and len(parts) == 4:
                src, dst, w = (int(p) for p in parts[1:])
                edges.setdefault(src, []).append((dst, w))
                continue
        except ValueError:
            pass
        raise GameFormatError(f"line {lineno}: expected 'state <id> <owner> "
                              f"<priority>' or 'edge <src> <dst> <weight>'")
    n = len(owners)
    if sorted(owners) != list(range(n)):
        raise GameFormatError("state ids must be dense from 0")
    return EnergyParityGame(
        tuple(owners[s] for s in range(n)),
        tuple(prios[s] for s in range(n)),
        tuple(tuple(edges.get(s, [])) for s in range(n)),
    )
