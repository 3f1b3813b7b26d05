"""Decision and minimum-credit solving, winning regions, sufficient bounds.

For a finite bound the minimum credits are the energy value of the formula.
For unbounded accumulation a sufficient finite bound is computed first:
winning states and credits at that bound are also valid without any bound,
and states losing at that bound lose for every finite credit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import formulas as fm
from .energy import LIMIT, EnergyFunction, _check_bound, eval_energy
from .errors import (
    ConsistencyError,
    FragmentError,
    InvalidCreditError,
    MalformedAssertionError,
)
from .game import VariableSet, WeightedGameStructure
from .parity import from_parity_wgs, solve_energy_parity
from .tables import cell_bits, check_memory


@dataclass(frozen=True)
class BoundBreakdown:
    """Inputs and result of the sufficient-bound computation."""

    n_states: int          # N: size of the state space
    max_abs_weight: int    # K
    formula_length: int    # m: AST node count
    alternation_depth: int # d of the formula (or the priority count)
    variant: str           # 'parity', 'buchi', or 'general'
    bound: int


def compute_bound(game: WeightedGameStructure, formula: fm.Formula) -> BoundBreakdown:
    """A bound above which increasing it adds no winning states.

    d*(N^2+N-1)*K for the game's parity formula (d its priority count) and
    for the stock buchi formula (d = 2), the general
    (d+1)*((N^2+N)*m-1)*K with d the alternation depth otherwise, never
    below K (``formulas.bound_variant`` decides which).
    """
    n = game.n_states
    k = game.max_abs_weight
    met = fm.metrics(formula)
    if met.free:
        raise FragmentError("the solver needs a closed formula")
    fm.require_monotone(formula)
    variant, d = fm.bound_variant(formula, game.parity_formula())
    if d is not None:
        bound = d * (n * n + n - 1) * k
    else:
        d = met.alternation_depth
        bound = (d + 1) * ((n * n + n) * met.length - 1) * k
    return BoundBreakdown(
        n_states=n,
        max_abs_weight=k,
        formula_length=met.length,
        alternation_depth=d,
        variant=variant,
        bound=max(bound, k),
    )


@dataclass(frozen=True)
class SolveReport:
    effective_bound: int
    unbounded: bool               # True when the bound was computed, not given
    min_credits: EnergyFunction
    sys_region: np.ndarray        # bool (n_states,)
    env_region: np.ndarray
    bound_breakdown: BoundBreakdown


def winning_regions(game: WeightedGameStructure, c: int, formula: fm.Formula):
    """(W_sys, W_env): finite-value states of the formula, zero-value states
    of its negation.  The two must partition the state space; a violation
    raises, as it means one of the evaluators is broken.  Each evaluation
    decides its own cuts (see ``eval_energy``).
    """
    direct = eval_energy(game, c, formula)
    dual = eval_energy(game, c, fm.negate(formula))
    w_sys = direct.is_finite()
    w_env = dual.values == 0
    if (w_sys & w_env).any() or not (w_sys | w_env).all():
        raise ConsistencyError(
            "system and environment regions do not partition the states"
        )
    return w_sys, w_env


def quotient(game: WeightedGameStructure, formula: fm.Formula) -> WeightedGameStructure:
    """``game`` on the variables that it or ``formula`` reads, its tables
    built: those that ``rho_e``, ``rho_s``, a weight guard or a priority
    guard mentions, primed or not (``move_reads``, ``priority_reads``), and
    those of the formula's atoms, which must all be ``game``'s.

    States that agree on them have the same moves, weights and atoms, and
    their successors again agree on them; the other inputs and outputs only
    duplicate moves, which changes no min over outputs or max over inputs.
    So the value of any formula over these atoms at a state of ``game`` is
    its value at the state's projection, in the quotient: the cone of
    influence of symbolic model checking.  It is ``game`` itself when every
    variable is read.

    Before the tables are built, they and the report over ``game``'s states
    are charged against free memory (``tables.check_memory``).  The quotient
    is valid exactly when ``game`` is, and is refused in the same words: it
    keeps, in their order, the variables that ``tables`` names refusals by.
    """
    names = game.vars.names
    read = set(fm.metrics(formula).atoms)
    unknown = read.difference(names)
    if unknown:  # with the message that evaluating the atom gives
        raise MalformedAssertionError(f"unknown variable {min(unknown)!r}")
    read.update(game.priority_reads, (name for name, _primed in game.move_reads))
    kept = tuple(name for name in names if name in read)
    small = game
    if len(kept) < len(names):
        small = dataclasses.replace(
            game, vars=VariableSet(kept, game.vars.inputs & read), formula=None)
    check_memory(f"{len(names)} variables", 1 << len(kept), 1 << cell_bits(small),
                 report_states=1 << len(names))
    small.tables()
    return small


def _expand(values: np.ndarray, game, small) -> np.ndarray:
    """``values`` over the states of the quotient ``small``, as an (N,) array
    over the states of ``game``: each state reads its projection's entry.
    As in ``tables._state_mask``, bit k of a state index is axis n-1-k of a
    (2,)*n grid, which the quotient's values broadcast over."""
    if small is game:
        return values
    kept = set(small.vars.names)
    names = game.vars.names
    grid = values.reshape([2 if name in kept else 1 for name in reversed(names)])
    return np.broadcast_to(grid, (2,) * len(names)).reshape(-1)


def solve(game: WeightedGameStructure, formula: fm.Formula, bound) -> SolveReport:
    """Minimum credits and winning regions at ``bound``, a natural number, or
    at the computed bound when ``bound`` is ``math.inf``.

    The bound is the full game's (``compute_bound``); the formula is
    evaluated on the ``quotient`` and its values expanded once."""
    breakdown = compute_bound(game, formula)
    unbounded = bound == math.inf
    c = breakdown.bound if unbounded else bound
    if unbounded and c > LIMIT:
        raise InvalidCreditError(f"the computed sufficient bound {c} exceeds 2^60")
    _check_bound(c)  # before c is compared with any bound
    small = quotient(game, formula)
    credits = eval_energy(small, c, formula)
    w_sys, w_env = winning_regions(small, c, formula)
    if not np.array_equal(w_sys, credits.is_finite()):
        raise ConsistencyError("regions disagree with the credit function")
    return SolveReport(
        effective_bound=credits.bound,
        unbounded=unbounded,
        min_credits=EnergyFunction._of(credits.bound, _expand(credits.values, game, small)),
        sys_region=_expand(w_sys, game, small),
        env_region=_expand(w_env, game, small),
        bound_breakdown=breakdown,
    )


def crosscheck_parity(game: WeightedGameStructure,
                      c: int) -> tuple[tuple[int, int, int], ...]:
    """Symbolic vs explicit solving of a priority-annotated game at bound c:
    the (state, symbolic, explicit) minimum credits of every game state
    where they differ, so empty when the two sides agree.

    The symbolic side evaluates ``game.parity_formula()``, built from the
    priority guards; the explicit side expands the game, layers the credit,
    and solves the resulting parity game.
    """
    explicit = solve_energy_parity(from_parity_wgs(game), c)[:game.n_states]
    symbolic = eval_energy(game, c, game.parity_formula()).values
    bad = np.flatnonzero(symbolic != explicit)
    return tuple(zip(bad.tolist(), symbolic[bad].tolist(), explicit[bad].tolist()))
