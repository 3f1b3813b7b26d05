"""Dense truth tables for a symbolic game, shared between states by row.

State indices pack variable values bitwise: bit ``k`` of a state index is
the value of ``vars.names[k]``.  Input assignments (over the environment's
variables) and output assignments are packed the same way in their own
orderings, so every move out of a state is addressed by ``(input, output)``.

The transition tables are indexed by *row*, not by state.  The row positions
S are the sorted bit positions of the unprimed variables that ``rho_e``,
``rho_s`` or a weight guard mention, and the row of a state packs its bits
at S low, in that order.  States that agree on S have the same moves, so
they share a row: the tables hold 2^|S| rows, and ``row`` maps each state to
its own.  When the transitions read every variable, S is every position and
each state is its own row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import assertions as asr
from .errors import (
    IncompleteWeightCoverError,
    MalformedAssertionError,
    PriorityPartitionError,
    StateCapError,
)

# Weight of a move the system cannot make: for every credit e in [0, INF],
# e - DEAD is above any bound, so the move needs INF, and below 2^63.
DEAD = -(1 << 61)


@dataclass(frozen=True)
class GameTables:
    var_positions: dict[str, int]  # variable name -> bit position in a state index
    x_positions: tuple[int, ...]   # bit positions of environment variables
    y_positions: tuple[int, ...]   # bit positions of system variables
    n_states: int
    n_inputs: int                  # number of input assignments (2^|X|)
    n_outputs: int                 # number of output assignments (2^|Y|)
    row: np.ndarray                # int64 (N,): the table row of each state
    rho_e: np.ndarray              # bool (R, NX), R = 2^|S| rows
    rho_s: np.ndarray              # bool (R, NX, NY)
    weight: np.ndarray             # int64 (R, NX, NY); DEAD where rho_s fails
    succ: np.ndarray               # int64 (NX, NY): successor state index
    prio: np.ndarray | None        # int64 (N,) state priorities, if annotated

    def state_mask(self, a: asr.Assertion) -> np.ndarray:
        """Truth of a pure-state assertion for every state, as a bool (N,) array."""
        return _state_mask(self.var_positions, self.n_states, a)


def _available_memory():
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):  # the platform does not report it
        return float("inf")


def check_memory(n_vars, row_bits):
    """Refuse a game of ``n_vars`` variables and 2^``row_bits`` table rows
    whose tables would not fit in the free physical memory.

    Each (row, input, output) cell costs 17 bytes: the 1-byte ``rho_s`` and
    8-byte ``weight`` the tables keep, and 8 bytes of temporaries, which are
    the step kernel's int64 needs or, while the tables are built, the bool
    masks of the guards and of the cover check.  Each state costs 24 bytes
    more: its ``row`` and ``succ`` entries and the kernel's gathered targets.
    """
    need = (17 << (n_vars + row_bits)) + (24 << n_vars)
    free = _available_memory()
    if need > free:
        raise StateCapError(f"{n_vars} variables need about {need >> 20} MiB of"
                            f" tables, more than the {free >> 20} MiB free")


def row_positions(game) -> tuple[int, ...]:
    """The row positions S of a game: the sorted bit positions of the
    unprimed variables its transition assertions and weight guards mention."""
    position = {name: k for k, name in enumerate(game.vars.names)}
    mentioned = set()
    for a in (game.rho_e, game.rho_s, *(rule.guard for rule in game.weights)):
        mentioned |= {position[name] for name, primed in asr.assertion_vars(a)
                      if not primed and name in position}
    return tuple(sorted(mentioned))


def _state_mask(var_positions, n_states, a):
    idx = np.arange(n_states, dtype=np.int64)

    def look(name, primed):
        if primed:
            raise MalformedAssertionError(
                f"primed variable {name}' in a pure-state assertion"
            )
        if name not in var_positions:
            raise MalformedAssertionError(f"unknown variable {name!r}")
        return ((idx >> var_positions[name]) & 1).astype(bool)

    return np.broadcast_to(asr.eval_terms(a, look), (n_states,)).copy()


def _assignment_bits(count, order_positions):
    """Per-assignment state-index contribution for variables at the given positions."""
    codes = np.arange(1 << count, dtype=np.int64)
    out = np.zeros(1 << count, dtype=np.int64)
    for j, p in enumerate(order_positions):
        out |= ((codes >> j) & 1) << p
    return out


def _pair_lookup(var_positions, s_positions, x_positions, y_positions):
    """Lookup producing broadcastable (R, NX, NY) truth arrays for transition
    assertions; an unprimed variable reads its bit of the row index."""
    pos_to_s = {p: j for j, p in enumerate(s_positions)}
    pos_to_x = {p: j for j, p in enumerate(x_positions)}
    pos_to_y = {p: j for j, p in enumerate(y_positions)}
    r_idx = np.arange(1 << len(s_positions), dtype=np.int64)[:, None, None]
    x_idx = np.arange(1 << len(x_positions), dtype=np.int64)[None, :, None]
    y_idx = np.arange(1 << len(y_positions), dtype=np.int64)[None, None, :]

    def look(name, primed):
        if name not in var_positions:
            raise MalformedAssertionError(f"unknown variable {name!r}")
        p = var_positions[name]
        if not primed:
            return ((r_idx >> pos_to_s[p]) & 1).astype(bool)
        if p in pos_to_x:
            return ((x_idx >> pos_to_x[p]) & 1).astype(bool)
        return ((y_idx >> pos_to_y[p]) & 1).astype(bool)

    return look


def build_tables(game) -> GameTables:
    """Materialize the transition relations, weights, and priorities of a game."""
    vs = game.vars
    s_positions = row_positions(game)
    check_memory(len(vs.names), len(s_positions))
    var_positions = {name: k for k, name in enumerate(vs.names)}
    x_positions = tuple(k for k, name in enumerate(vs.names) if name in vs.inputs)
    y_positions = tuple(k for k, name in enumerate(vs.names) if name not in vs.inputs)
    n = len(vs.names)
    n_states = 1 << n
    nx, ny = len(x_positions), len(y_positions)
    look = _pair_lookup(var_positions, s_positions, x_positions, y_positions)
    shape = (1 << len(s_positions), 1 << nx, 1 << ny)

    states = np.arange(n_states, dtype=np.int64)
    row = np.zeros(n_states, dtype=np.int64)
    for j, p in enumerate(s_positions):
        row |= ((states >> p) & 1) << j

    rho_e = np.broadcast_to(asr.eval_terms(game.rho_e, look), shape)[:, :, 0].copy()
    rho_s = np.broadcast_to(asr.eval_terms(game.rho_s, look), shape).copy()

    succ = (
        _assignment_bits(nx, x_positions)[:, None]
        | _assignment_bits(ny, y_positions)[None, :]
    )

    weight = np.full(shape, DEAD, dtype=np.int64)
    for rule in reversed(game.weights):  # in reverse, so the first match wins
        np.copyto(weight, rule.weight, where=asr.eval_terms(rule.guard, look))
    missing = rho_s & (weight == DEAD)
    if missing.any():
        s = int(np.argmax(missing.any(axis=(1, 2))[row]))
        xi, yi = (int(v[0]) for v in np.nonzero(missing[row[s]]))
        raise IncompleteWeightCoverError(
            f"no weight rule matches the system transition"
            f" (state {s}, input {xi}, output {yi})"
        )
    np.copyto(weight, DEAD, where=~rho_s)

    prio = None
    if getattr(game, "priorities", None) is not None:
        prio = np.zeros(n_states, dtype=np.int64)
        seen = np.zeros(n_states, dtype=bool)
        for rule in game.priorities:
            mask = _state_mask(var_positions, n_states, rule.guard)
            if (mask & seen).any():
                raise PriorityPartitionError(
                    f"priority guard {asr.assertion_to_str(rule.guard)!r}"
                    " overlaps an earlier guard"
                )
            prio[mask] = rule.priority
            seen |= mask
        if not seen.all():
            missing_state = int(np.nonzero(~seen)[0][0])
            raise PriorityPartitionError(
                f"no priority guard covers state {missing_state}"
            )

    for arr in (row, rho_e, rho_s, weight, succ, prio):
        if arr is not None:
            arr.setflags(write=False)
    return GameTables(
        var_positions=var_positions,
        x_positions=x_positions,
        y_positions=y_positions,
        n_states=n_states,
        n_inputs=1 << nx,
        n_outputs=1 << ny,
        row=row,
        rho_e=rho_e,
        rho_s=rho_s,
        weight=weight,
        succ=succ,
        prio=prio,
    )
