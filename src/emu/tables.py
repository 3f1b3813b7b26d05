"""Dense truth tables for a symbolic game, indexed by enumerated states.

State indices pack variable values bitwise: bit ``k`` of a state index is
the value of ``vars.names[k]``.  Input assignments (over the environment's
variables) and output assignments are packed the same way in their own
orderings, so every transition is addressed by ``(state, input, output)``.
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


def dead_moves(rho_s, weight):
    """``weight`` where ``rho_s`` holds, DEAD elsewhere."""
    return np.where(rho_s, weight, DEAD)


@dataclass(frozen=True)
class GameTables:
    var_positions: dict[str, int]  # variable name -> bit position in a state index
    x_positions: tuple[int, ...]   # bit positions of environment variables
    y_positions: tuple[int, ...]   # bit positions of system variables
    n_states: int
    n_inputs: int                  # number of input assignments (2^|X|)
    n_outputs: int                 # number of output assignments (2^|Y|)
    rho_e: np.ndarray              # bool (N, NX)
    rho_s: np.ndarray              # bool (N, NX, NY)
    weight: np.ndarray             # int64 (N, NX, NY); DEAD where rho_s fails
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


def check_memory(n_vars):
    """Refuse a game of ``n_vars`` variables whose tables would not fit in the
    free physical memory: per move cell, a 1-byte ``rho_s``, an 8-byte
    ``weight`` and the step kernel's 8-byte temporary."""
    need, free = 17 << 2 * n_vars, _available_memory()
    if need > free:
        raise StateCapError(f"{n_vars} variables need about {need >> 20} MiB of"
                            f" tables, more than the {free >> 20} MiB free")


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


def _pair_lookup(var_positions, x_positions, y_positions, n_states):
    """Lookup producing broadcastable (N, NX, NY) truth arrays for transition assertions."""
    pos_to_x = {p: j for j, p in enumerate(x_positions)}
    pos_to_y = {p: j for j, p in enumerate(y_positions)}
    s_idx = np.arange(n_states, dtype=np.int64)[:, None, None]
    x_idx = np.arange(1 << len(x_positions), dtype=np.int64)[None, :, None]
    y_idx = np.arange(1 << len(y_positions), dtype=np.int64)[None, None, :]

    def look(name, primed):
        if name not in var_positions:
            raise MalformedAssertionError(f"unknown variable {name!r}")
        p = var_positions[name]
        if not primed:
            return ((s_idx >> p) & 1).astype(bool)
        if p in pos_to_x:
            return ((x_idx >> pos_to_x[p]) & 1).astype(bool)
        return ((y_idx >> pos_to_y[p]) & 1).astype(bool)

    return look


def build_tables(game) -> GameTables:
    """Materialize the transition relations, weights, and priorities of a game."""
    vs = game.vars
    check_memory(len(vs.names))
    var_positions = {name: k for k, name in enumerate(vs.names)}
    x_positions = tuple(k for k, name in enumerate(vs.names) if name in vs.inputs)
    y_positions = tuple(k for k, name in enumerate(vs.names) if name not in vs.inputs)
    n = len(vs.names)
    n_states = 1 << n
    nx, ny = len(x_positions), len(y_positions)
    look = _pair_lookup(var_positions, x_positions, y_positions, n_states)
    shape = (n_states, 1 << nx, 1 << ny)

    rho_e = np.broadcast_to(asr.eval_terms(game.rho_e, look), shape)[:, :, 0].copy()
    rho_s = np.broadcast_to(asr.eval_terms(game.rho_s, look), shape).copy()

    succ = (
        _assignment_bits(nx, x_positions)[:, None]
        | _assignment_bits(ny, y_positions)[None, :]
    )

    weight = np.full(shape, DEAD, dtype=np.int64)
    for rule in reversed(game.weights):  # in reverse, so the first match wins
        weight = np.where(asr.eval_terms(rule.guard, look), rule.weight, weight)
    missing = rho_s & (weight == DEAD)
    if missing.any():
        s, xi, yi = (int(v[0]) for v in np.nonzero(missing))
        raise IncompleteWeightCoverError(
            f"no weight rule matches the system transition"
            f" (state {s}, input {xi}, output {yi})"
        )
    weight = dead_moves(rho_s, weight)

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

    for arr in (rho_e, rho_s, weight, succ, prio):
        if arr is not None:
            arr.setflags(write=False)
    return GameTables(
        var_positions=var_positions,
        x_positions=x_positions,
        y_positions=y_positions,
        n_states=n_states,
        n_inputs=1 << nx,
        n_outputs=1 << ny,
        rho_e=rho_e,
        rho_s=rho_s,
        weight=weight,
        succ=succ,
        prio=prio,
    )
