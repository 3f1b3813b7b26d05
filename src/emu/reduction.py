"""Reduction of a weighted game to an unweighted one that tracks the credit.

The reduced game adds a system-controlled credit in [0, c] to the state.
Its system transition relation allows a move exactly when the underlying
move is valid and the claimed next credit is covered by the current credit
plus the transition weight.  Solving the reduced game with the set-valued
semantics and reading off, per state, which credit layers win reproduces
the energy semantics; this is the library's primary correctness oracle,
not its production solving path (its tables hold (c+1)^2 times the game's
cells).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import formulas as fm
from .classical import eval_classical
from .energy import INF, EnergyFunction, _check_bound
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
    return dataclasses.replace(base, n_states=N * layers, row=row, rho_e=rho_e,
                               weight=weight, succ=succ, prio=None)


def credit_readout(reduced: GameTables, c: int, formula: fm.Formula,
                   side: str) -> EnergyFunction:
    """Per-state credit read off ``reduced``, the tables ``reduce_game(game,
    c)``, for one player's fragment: box-free formulas on the "sys" side,
    diamond-free ones on "env" (``layer_credits``).  One reduction serves
    both sides of a game and bound."""
    f = fm.push_negations(formula)
    if not fm.is_closed(f):
        raise FragmentError("the oracle needs a closed formula")
    if fm.classify_fragment(f) not in (side, "both"):
        raise FragmentError(
            "the system-side oracle needs a box-free formula" if side == "sys"
            else "the environment-side oracle needs a diamond-free formula")
    won = eval_classical(reduced, f).reshape(c + 1, -1)
    return EnergyFunction(c, layer_credits(won, side))


def layer_credits(won: np.ndarray, side: str = "sys") -> np.ndarray:
    """Per-state credit read off ``won``, the bool (c+1, n) credit layers a
    player wins, as both oracles lay them out.

    ``side`` is "sys" (the system's winning credits must be upward closed
    [lo, c] and the value is lo) or "env" (the environment's must be
    downward closed [0, hi] and the value is c - hi).  States with no
    winning credit get INF; a winning set of the wrong shape means one of
    the two evaluators is broken and raises.
    """
    # a well-shaped column is unchanged by an or-scan from its open end
    scan = won if side == "sys" else won[::-1]
    bad = np.flatnonzero((np.logical_or.accumulate(scan) != scan).any(axis=0))
    if bad.size:
        s = int(bad[0])
        raise ConsistencyError(
            f"winning credits of state {s} are not"
            f" {'upward' if side == 'sys' else 'downward'} closed:"
            f" {np.flatnonzero(won[:, s]).tolist()}")
    # both sides' value is c + 1 - count: lo of [lo, c], c - hi of [0, hi]
    count = won.sum(axis=0)
    return np.where(count > 0, len(won) - count, INF)


def oracle_min_credit_sys(
    game: WeightedGameStructure, c: int, formula: fm.Formula
) -> EnergyFunction:
    """Per-state least winning credit of a box-free formula, read off the
    reduced game; the winning credits of each state must be upward closed."""
    return credit_readout(reduce_game(game, c), c, formula, "sys")


def oracle_max_credit_env(
    game: WeightedGameStructure, c: int, formula: fm.Formula
) -> EnergyFunction:
    """The energy value of a diamond-free formula, read off the reduced game.

    For each state the reduced game yields the set of credits with which the
    environment wins, which must be downward closed [0, M]; the energy value
    is then c - M, or INF when the set is empty (value 0 thus means the
    environment wins for every credit, INF that it wins for none).
    """
    return credit_readout(reduce_game(game, c), c, formula, "env")
