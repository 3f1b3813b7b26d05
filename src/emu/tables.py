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

The moves are laid out over the outputs they read: those that ``rho_s``
or a weight guard mentions primed.  No table entry but the successor
depends on the other, free, outputs, so ``weight`` holds one cell per
(read output, input, row), 2^(|Yr|+|X|+|S|) cells, outputs outermost, and
``succ`` spreads each (read output, input) over the free outputs.

A refused weight cover names its first uncovered moves, in (row, input,
output) order, by the minterm over what the moves read (``move_reads``),
and a refused priority partition its first uncovered states by the one over
what the priority guards read: no other variable decides either.
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
    """A game's tables, or a reduction's: NX = 2^|X| inputs, ``rho_e.shape[0]``."""

    var_positions: dict[str, int]  # variable name -> bit position in a state index
    row: np.ndarray                # int64 (N,): the table row of each state
    rho_e: np.ndarray              # bool (NX, R), R = 2^|S| rows: weight's last axes
    weight: np.ndarray             # int64 (NYr, NX, R); DEAD where rho_s fails
    succ: np.ndarray               # int64 (NYr, NX, NYf): successor state index
    prio: np.ndarray | None        # int64 (N,) state priorities, if annotated

    @property
    def n_states(self) -> int:
        return len(self.row)

    def tables(self) -> GameTables:
        """These tables: evaluators read a reduction as they read a game."""
        return self

    def state_mask(self, a: asr.Assertion) -> np.ndarray:
        """Truth of a pure-state assertion for every state, as a bool (N,)
        array; the states of a reduction repeat the game's per credit layer."""
        n = len(self.var_positions)
        mask = _state_mask(self.var_positions, n, a)
        return mask if self.n_states == 1 << n else np.tile(mask, self.n_states >> n)


def _available_memory():
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):  # the platform does not report it
        return float("inf")


def check_memory(subject, states, cells, report_states=0):
    """Refuse tables of ``states`` states and ``cells`` (read output, input,
    row) cells that would not fit in the free physical memory, naming
    ``subject`` as what needs them.

    Each cell costs 16 bytes: the 8-byte ``weight`` the tables keep, and 8
    bytes of temporaries, which are the step kernel's int64 needs or, while
    the tables are built, the bool masks of the guards and of the cover
    check.  Each state costs 24 bytes more: its ``row`` and ``succ`` entries
    and the kernel's gathered targets.

    A solve evaluates on a quotient of the game it reports on
    (``solver.quotient``); each of the ``report_states`` states of that
    game costs 10 bytes more: the report's int64 credit and its two bool
    region entries.
    """
    need = 16 * cells + 24 * states + 10 * report_states
    what = "tables and report" if report_states else "tables"
    free = _available_memory()
    if need > free:
        raise StateCapError(f"{subject} need about {need >> 20} MiB of"
                            f" {what}, more than the {free >> 20} MiB free")


def cell_bits(game) -> int:
    """log2 of the (read output, input, row) cells of a game's tables."""
    s_positions, yr_positions = read_positions(game)
    return len(s_positions) + len(game.vars.inputs) + len(yr_positions)


def read_positions(game) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The row positions S and the read outputs Yr of a game: the sorted bit
    positions of the variables its moves read unprimed, and of the outputs
    they read primed (``move_reads``)."""
    names, reads = game.vars.names, game.move_reads
    s_positions = tuple(k for k, name in enumerate(names) if (name, False) in reads)
    yr_positions = tuple(k for k, name in enumerate(names)
                         if (name, True) in reads and name not in game.vars.inputs)
    return s_positions, yr_positions


def _state_mask(var_positions, n, a):
    """Truth of a pure-state assertion for each of the 2^n states, over a
    grid with bit k of a state index on axis n-1-k: each operation
    broadcasts over the axes it reads, and the result is copied once into a
    fresh (2^n,) array."""

    def look(name, primed):
        if primed:
            raise MalformedAssertionError(
                f"primed variable {name}' in a pure-state assertion"
            )
        if name not in var_positions:
            raise MalformedAssertionError(f"unknown variable {name!r}")
        shape = [1] * n
        shape[n - 1 - var_positions[name]] = 2
        return np.array([False, True]).reshape(shape)

    return np.array(np.broadcast_to(asr.eval_terms(a, look), (2,) * n)).reshape(-1)


def _minterm(names, reads, s, t=0):
    """The minterm (``x & !y'``, or ``true``) over ``reads`` of the move s -> t."""
    return " & ".join(("" if u >> k & 1 else "!") + name + "'" * primed
                      for primed, u in ((False, s), (True, t))
                      for k, name in enumerate(names) if (name, primed) in reads) or "true"


def _assignment_bits(count, order_positions):
    """Per-assignment state-index contribution for variables at the given positions."""
    codes = np.arange(1 << count, dtype=np.int64)
    out = np.zeros(1 << count, dtype=np.int64)
    for j, p in enumerate(order_positions):
        out |= ((codes >> j) & 1) << p
    return out


def _pair_lookup(names, s_positions, x_positions, yr_positions):
    """Lookup producing broadcastable (NYr, NX, R) truth arrays for transition
    assertions; an unprimed variable reads its bit of the row index."""
    bit = {}  # (name, primed) -> the indices along its axis, and its bit in them
    for shape, primed, positions in (((1, 1, -1), False, s_positions),
                                     ((1, -1, 1), True, x_positions),
                                     ((-1, 1, 1), True, yr_positions)):
        index = np.arange(1 << len(positions), dtype=np.int64).reshape(shape)
        bit.update(((names[p], primed), (index, j)) for j, p in enumerate(positions))

    def look(name, primed):
        index, j = bit[name, primed]
        return ((index >> j) & 1).astype(bool)

    return look


def build_tables(game) -> GameTables:
    """Materialize the transition relations, weights, and priorities of a game."""
    vs = game.vars
    s_positions, yr_positions = read_positions(game)
    var_positions = {name: k for k, name in enumerate(vs.names)}
    x_positions = tuple(k for k, name in enumerate(vs.names) if name in vs.inputs)
    y_positions = tuple(k for k, name in enumerate(vs.names) if name not in vs.inputs)
    yf_positions = tuple(p for p in y_positions if p not in yr_positions)
    n = len(vs.names)
    n_states = 1 << n
    nx, nyr = len(x_positions), len(yr_positions)
    check_memory(f"{n} variables", n_states, 1 << (len(s_positions) + nx + nyr))
    look = _pair_lookup(vs.names, s_positions, x_positions, yr_positions)
    shape = (1 << nyr, 1 << nx, 1 << len(s_positions))

    states = np.arange(n_states, dtype=np.int64)
    row = np.zeros(n_states, dtype=np.int64)
    for j, p in enumerate(s_positions):
        row |= ((states >> p) & 1) << j

    rho_e = np.broadcast_to(asr.eval_terms(game.rho_e, look), shape)[0].copy()
    moves = asr.eval_terms(game.rho_s, look)  # broadcastable to shape

    succ = (
        _assignment_bits(nyr, yr_positions)[:, None, None]
        | _assignment_bits(nx, x_positions)[None, :, None]
        | _assignment_bits(len(yf_positions), yf_positions)[None, None, :]
    )

    weight = np.full(shape, DEAD, dtype=np.int64)
    for rule in reversed(game.weights):  # in reverse, so the first match wins
        np.copyto(weight, rule.weight, where=asr.eval_terms(rule.guard, look))
    missing = moves & (weight == DEAD)
    if missing.any():
        s = int(np.argmax(missing.any(axis=(0, 1))[row]))
        xi, yri = (int(v[0]) for v in np.nonzero(missing[:, :, row[s]].T))
        raise IncompleteWeightCoverError(
            "no weight rule matches the system transitions where "
            + _minterm(vs.names, game.move_reads, s, int(succ[yri, xi, 0])))
    np.copyto(weight, DEAD, where=~moves)

    prio = None
    if game.priorities is not None:
        prio = np.zeros(n_states, dtype=np.int64)
        seen = np.zeros(n_states, dtype=bool)
        for rule in game.priorities:
            mask = _state_mask(var_positions, n, rule.guard)
            if (mask & seen).any():
                raise PriorityPartitionError(
                    f"priority guard {asr.assertion_to_str(rule.guard)!r}"
                    " overlaps an earlier guard"
                )
            prio[mask] = rule.priority
            seen |= mask
        if not seen.all():
            raise PriorityPartitionError(
                "no priority guard covers the states where " + _minterm(
                    vs.names, {(v, False) for v in game.priority_reads},
                    int(np.argmin(seen))))

    for arr in (row, rho_e, weight, succ, prio):
        if arr is not None:
            arr.setflags(write=False)
    return GameTables(
        var_positions=var_positions,
        row=row,
        rho_e=rho_e,
        weight=weight,
        succ=succ,
        prio=prio,
    )
