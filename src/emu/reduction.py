"""Reduction of a weighted game to an unweighted one that tracks the credit.

The reduced game adds a system-controlled credit in [0, c] to the state.
Its system transition relation allows a move exactly when the underlying
move is valid and the claimed next credit is covered by the current credit
plus the transition weight.  Solving the reduced game with the set-valued
semantics and reading off, per state, which credit layers the system wins
reproduces the energy semantics of a box-free formula; this is the
library's primary correctness oracle, not its production solving path (its
tables hold (c+1)^2 times the game's cells).  The oracle is one-sided, as
the engine is: the environment's value of a diamond-free formula is ``neg``
of the system's credits on its box-free negation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import formulas as fm
from .classical import eval_classical
from .energy import INF, EnergyFunction, _check_bound, neg
from .errors import ConsistencyError, FragmentError, StateCapError
from .game import MAX_VARS, WeightedGameStructure
from .tables import DEAD, GameTables, check_memory


def reduce_game(game: WeightedGameStructure, c: int) -> GameTables:
    """The read-only tables of the credit-tracking game: the bound-c energy
    objective encoded into the transition relation.

    The state space is c + 1 copies of the game's, one credit layer each:
    state s at credit r is r*N + s.  The credit is an unnamed system output,
    so no formula atom can read it.  Table rows are laid out the same way,
    one block of the game's rows per credit layer, and so are the read
    outputs, for the moves read the claimed credit; the free outputs stay
    those of the original.
    """
    _check_bound(c)
    layers, N = int(c) + 1, game.n_states
    if N * layers > 1 << MAX_VARS:
        raise StateCapError(f"{N * layers} states exceed the cap of"
                            f" {1 << MAX_VARS} enumerated states")
    base = game.tables()
    # the base tables' cells, each repeated for the current and the claimed credit
    check_memory(f"{len(game.vars.names)} variables at bound {c}",
                 N * layers, base.weight.size * layers ** 2)
    NYr, R = len(base.weight), base.rho_e.shape[1]

    row = np.tile(base.row, layers) + np.repeat(np.arange(layers) * R, N)
    rho_e = np.tile(base.rho_e, (1, layers))

    # the claimed credit c2 is a read output, the current one c1 a row block
    c2 = (np.arange(NYr * layers, dtype=np.int64) // NYr)[:, None, None]
    c1 = (np.arange(R * layers, dtype=np.int64) // R)[None, None, :]
    weight = np.tile(base.weight, (layers, 1, layers))
    weight += c1  # DEAD + c1 stays below every c2
    move = weight >= c2
    weight.fill(DEAD)  # in place, so the build holds one int64 table
    weight[move] = 0

    succ = (np.tile(base.succ, (layers, 1, 1))
            + np.repeat(np.arange(layers, dtype=np.int64) * N, NYr)[:, None, None])

    for arr in (row, rho_e, weight, succ):
        arr.setflags(write=False)
    return dataclasses.replace(base, row=row, rho_e=rho_e, weight=weight,
                               succ=succ, prio=None)


def layer_credits(won: np.ndarray) -> np.ndarray:
    """Per-state least winning credit read off ``won``, the bool (c+1, n)
    credit layers the system wins, as both oracles lay them out.

    The winning credits of a state must be upward closed, [lo, c], and its
    value is lo; states with no winning credit get INF.  A winning set of
    another shape means one of the two evaluators is broken and raises.
    """
    # a well-shaped column is unchanged by an or-scan from credit 0
    bad = np.flatnonzero((np.logical_or.accumulate(won) != won).any(axis=0))
    if bad.size:
        s = int(bad[0])
        raise ConsistencyError(
            f"winning credits of state {s} are not upward closed:"
            f" {np.flatnonzero(won[:, s]).tolist()}")
    count = won.sum(axis=0)  # lo of [lo, c] is c + 1 - count
    return np.where(count > 0, len(won) - count, INF)


def oracle_min_credit_sys(
    game: WeightedGameStructure, c: int, formula: fm.Formula
) -> EnergyFunction:
    """Per-state least winning credit of a closed box-free formula, read off
    the reduced game (``layer_credits``)."""
    f = fm.push_negations(formula)
    if not fm.is_closed(f):
        raise FragmentError("the oracle needs a closed formula")
    if fm.classify_fragment(f) not in ("sys", "both"):
        raise FragmentError("the system-side oracle needs a box-free formula")
    won = eval_classical(reduce_game(game, c), f).reshape(c + 1, -1)
    return EnergyFunction(c, layer_credits(won))


def oracle_max_credit_env(
    game: WeightedGameStructure, c: int, formula: fm.Formula
) -> EnergyFunction:
    """The energy value of a diamond-free formula, by De Morgan duality.

    The environment wins the reduced game for a diamond-free formula exactly
    where the system loses it for the box-free negation, so a state's
    environment credits are [0, lo - 1] when the system's on the negation
    are [lo, c], and the value c - (lo - 1) is ``neg`` of lo: 0 when the
    environment wins for every credit, INF when for none.
    """
    dual = fm.negate(formula)
    if fm.classify_fragment(dual) not in ("sys", "both"):
        raise FragmentError("the environment-side oracle needs a diamond-free formula")
    return neg(oracle_min_credit_sys(game, c, dual))
