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

from dataclasses import dataclass

import numpy as np

from . import formulas as fm
from .classical import eval_classical
from .energy import INF, EnergyFunction
from .errors import ConsistencyError, FragmentError
from .game import VariableSet, WeightedGameStructure
from .tables import DEAD, GameTables, check_memory, row_positions


@dataclass(frozen=True)
class ReducedGame:
    """The credit-tracking game built from a weighted game and a bound.

    State indices extend the original packing: the low bits are the original
    state, the high bits the credit.  Table rows extend the original rows the
    same way, one block of them per credit layer.  Credit encodings above the
    bound are made unreachable by the transition relation.
    """

    original: WeightedGameStructure
    bound: int
    credit_vars: tuple[str, ...]
    vars: VariableSet
    _tables: GameTables

    def tables(self) -> GameTables:
        return self._tables

    @property
    def n_credit_bits(self) -> int:
        return len(self.credit_vars)

    def state_index(self, s: int, credit: int) -> int:
        return s | (credit << len(self.original.vars.names))


def _credit_names(existing, k):
    names = []
    for j in range(k):
        name = f"credit{j}"
        while name in existing or name in names:
            name = "_" + name
        names.append(name)
    return tuple(names)


def reduce_game(game: WeightedGameStructure, c: int) -> ReducedGame:
    """Encode the bound-c energy objective into the transition relation."""
    if c < 0:
        raise ValueError("the bound must be a natural number")
    # ceil(log2(c+1)) bits encode [0, c]; a bound of 0 still gets one bit.
    k = max(1, int(c).bit_length())
    n = len(game.vars.names)
    check_memory(n + k, len(row_positions(game)) + k)
    base = game.tables()
    names = _credit_names(set(game.vars.names), k)
    new_vars = VariableSet(game.vars.names + names, game.vars.inputs)

    layers = 1 << k
    N, NX, NY = base.n_states, base.n_inputs, base.n_outputs
    R = len(base.rho_e)
    ny = len(base.y_positions)

    row = np.tile(base.row, layers) + np.repeat(np.arange(layers) * R, N)
    rho_e = np.tile(base.rho_e, (layers, 1))

    c1 = (np.arange(R * layers, dtype=np.int64) // R)[:, None, None]
    c2 = (np.arange(NY * layers, dtype=np.int64) >> ny)[None, None, :]
    w = np.tile(base.weight, (layers, 1, layers))  # DEAD fails c1 + w >= c2
    rho_s = (c1 <= c) & (c2 <= c) & (c1 + w >= c2)

    succ = (
        np.tile(base.succ, (1, layers))
        + (np.repeat(np.arange(layers, dtype=np.int64), NY) << n)[None, :]
    )

    var_positions = dict(base.var_positions)
    for j, name in enumerate(names):
        var_positions[name] = n + j

    weight = np.where(rho_s, 0, DEAD)
    for arr in (row, rho_e, rho_s, weight, succ):
        arr.setflags(write=False)
    tables = GameTables(
        var_positions=var_positions,
        x_positions=base.x_positions,
        y_positions=base.y_positions + tuple(range(n, n + k)),
        n_states=N * layers,
        n_inputs=NX,
        n_outputs=NY * layers,
        row=row,
        rho_e=rho_e,
        rho_s=rho_s,
        weight=weight,
        succ=succ,
        prio=None,
    )
    return ReducedGame(
        original=game, bound=c, credit_vars=names, vars=new_vars, _tables=tables
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
    rg = reduce_game(game, c)
    layers = eval_classical(rg, f).reshape(1 << rg.n_credit_bits, game.n_states)
    out = np.full(game.n_states, INF, dtype=np.int64)
    for s in range(game.n_states):
        credits = [c0 for c0 in range(c + 1) if layers[c0, s]]
        if not credits:
            continue
        lo, hi = credits[0], credits[-1]
        if side == "sys":
            closed, shape, out[s] = hi == c, "upward", lo
        else:
            closed, shape, out[s] = lo == 0, "downward", c - hi
        if not closed or len(credits) != hi - lo + 1:
            raise ConsistencyError(
                f"winning credits of state {s} are not {shape} closed: {credits}"
            )
    return EnergyFunction(c, out)


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
