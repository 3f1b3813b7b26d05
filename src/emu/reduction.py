"""Reduction of a weighted game to an unweighted one that tracks the credit.

The reduced game adds system-controlled bits encoding a credit in [0, c].
Its system transition relation allows a move exactly when the underlying
move is valid and the claimed next credit is covered by the current credit
plus the transition weight.  Solving the reduced game with the set-valued
semantics and reading off, per state, which credit layers win reproduces
the energy semantics; this is the library's primary correctness oracle,
not its production solving path (the reduced game is exponentially larger).
"""

from __future__ import annotations

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

    State indices extend the original packing: the low bits are the original
    state, the high bits the credit, ``max(1, c.bit_length())`` of them,
    which are unnamed system outputs, so no formula atom can read them.
    Table rows extend the original rows the same way, one block of them per
    credit layer, and so do the read outputs, for the moves read the claimed
    credit; the free outputs stay those of the original.  Credit encodings
    above the bound are made unreachable by the transition relation.
    """
    _check_bound(c)
    # ceil(log2(c+1)) bits encode [0, c]; a bound of 0 still gets one bit.
    k = max(1, int(c).bit_length())
    n = len(game.vars.names)
    if n + k > MAX_VARS:
        raise StateCapError(f"{n + k} variables exceed the cap of {MAX_VARS}"
                            f" ({1 << MAX_VARS} enumerated states)")
    base = game.tables()
    # the base tables' cells, each repeated for the current and the claimed credit
    check_memory(n + k, base.weight.size.bit_length() - 1 + 2 * k)

    layers = 1 << k
    N, NX = base.n_states, base.n_inputs
    NYr, R = len(base.weight), base.rho_e.shape[1]

    row = np.tile(base.row, layers) + np.repeat(np.arange(layers) * R, N)
    rho_e = np.tile(base.rho_e, (1, layers))

    # the claimed credit c2 is a read output, the current one c1 a row bit
    c2 = (np.arange(NYr * layers, dtype=np.int64) // NYr)[:, None, None]
    c1 = (np.arange(R * layers, dtype=np.int64) // R)[None, None, :]
    w = np.tile(base.weight, (layers, 1, layers))  # DEAD fails c1 + w >= c2
    weight = np.where((c1 <= c) & (c2 <= c) & (c1 + w >= c2), 0, DEAD)

    succ = (
        np.tile(base.succ, (layers, 1, 1))
        + (np.repeat(np.arange(layers, dtype=np.int64), NYr) << n)[:, None, None]
    )

    for arr in (row, rho_e, weight, succ):
        arr.setflags(write=False)
    return GameTables(
        var_positions=base.var_positions,
        n_states=N * layers,
        n_inputs=NX,
        row=row,
        rho_e=rho_e,
        weight=weight,
        succ=succ,
        prio=None,
    )


def _credit_readout(game, c, formula, side):
    """Per-state credit read off the reduced game, for one player's fragment.

    ``side`` is "sys" (box-free formulas; the system's winning credits must
    be upward closed [lo, c] and the value is lo) or "env" (diamond-free
    formulas; the environment's must be downward closed [0, hi] and the
    value is c - hi).  States with no winning credit get INF; a winning set
    of the wrong shape means one of the two evaluators is broken and raises.
    """
    f = fm.push_negations(formula)
    if not fm.is_closed(f):
        raise FragmentError("the oracle needs a closed formula")
    if fm.classify_fragment(f) not in (side, "both"):
        raise FragmentError(
            "the system-side oracle needs a box-free formula" if side == "sys"
            else "the environment-side oracle needs a diamond-free formula")
    won = eval_classical(reduce_game(game, c), f).reshape(-1, game.n_states)
    won = won[:c + 1]
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
    return EnergyFunction(c, np.where(count > 0, c + 1 - count, INF))


def oracle_min_credit_sys(
    game: WeightedGameStructure, c: int, formula: fm.Formula
) -> EnergyFunction:
    """Per-state least winning credit of a box-free formula, read off the
    reduced game; the winning credits of each state must be upward closed."""
    return _credit_readout(game, c, formula, "sys")


def oracle_max_credit_env(
    game: WeightedGameStructure, c: int, formula: fm.Formula
) -> EnergyFunction:
    """The energy value of a diamond-free formula, read off the reduced game.

    For each state the reduced game yields the set of credits with which the
    environment wins, which must be downward closed [0, M]; the energy value
    is then c - M, or INF when the set is empty (value 0 thus means the
    environment wins for every credit, INF that it wins for none).
    """
    return _credit_readout(game, c, formula, "env")
