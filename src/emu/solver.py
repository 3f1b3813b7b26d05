"""Decision and minimum-credit solving, winning regions, sufficient bounds.

For a finite bound the minimum credits are the energy value of the formula.
For unbounded accumulation a sufficient finite bound is computed first:
winning states and credits at that bound are also valid without any bound,
and states losing at that bound lose for every finite credit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import formulas as fm
from .energy import INF, EnergyFunction, eval_energy, neg
from .errors import ConsistencyError, EmuError, FragmentError
from .game import WeightedGameStructure
from .parity import from_parity_wgs, solve_energy_parity


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

    Uses the priority count d for priority-annotated games (d*(N^2+N-1)*K),
    the specialized 2*(N^2+N-1)*K for the stock buchi formula, and the
    general (d+1)*((N^2+N)*m-1)*K otherwise, never below K.
    """
    n = game.n_states
    k = game.max_abs_weight
    met = fm.metrics(formula)
    if game.priorities is not None:
        d = len({r.priority for r in game.priorities})
        variant = "parity"
        bound = d * (n * n + n - 1) * k
    elif fm.is_buchi_shape(formula) is not None:
        d = met.alternation_depth
        variant = "buchi"
        bound = 2 * (n * n + n - 1) * k
    else:
        d = met.alternation_depth
        variant = "general"
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
class SolveRequest:
    game: WeightedGameStructure
    formula: fm.Formula
    bound: object  # a natural number, or math.inf for unbounded accumulation


@dataclass(frozen=True)
class SolveReport:
    effective_bound: int
    unbounded: bool               # True when the bound was computed, not given
    min_credits: EnergyFunction
    sys_region: np.ndarray        # bool (n_states,)
    env_region: np.ndarray
    metrics: fm.FormulaMetrics
    bound_breakdown: BoundBreakdown


def winning_regions(game: WeightedGameStructure, c: int, formula: fm.Formula):
    """(W_sys, W_env): finite-value states of the formula, zero-value states
    of its negation.  The two must partition the state space; a violation
    raises, as it means one of the evaluators is broken.
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


def solve(req: SolveRequest) -> SolveReport:
    """Minimum credits and winning regions at the requested or computed bound."""
    if not fm.is_closed(req.formula):
        raise FragmentError("the solver needs a closed formula")
    breakdown = compute_bound(req.game, req.formula)
    unbounded = req.bound == math.inf or req.bound == "inf"
    c = breakdown.bound if unbounded else req.bound
    credits = eval_energy(req.game, c, req.formula)
    w_sys, w_env = winning_regions(req.game, c, req.formula)
    if not np.array_equal(w_sys, credits.is_finite()):
        raise ConsistencyError("regions disagree with the credit function")
    return SolveReport(
        effective_bound=credits.bound,
        unbounded=unbounded,
        min_credits=credits,
        sys_region=w_sys,
        env_region=w_env,
        metrics=fm.metrics(req.formula),
        bound_breakdown=breakdown,
    )


@dataclass(frozen=True)
class EnvCreditReport:
    """Environment-side view at bound c, recovered from the dual formula.

    ``dual_value`` is the energy value of the negated formula: 0 where the
    environment wins for every credit in [0, c], INF where it wins for none,
    and m in between meaning it wins exactly for credits up to c - m.
    ``recovered_min_credits`` is its De Morgan negation and equals the
    system's minimum credits.
    """

    bound: int
    dual_formula: fm.Formula
    dual_value: EnergyFunction
    recovered_min_credits: EnergyFunction

    def max_env_credit(self, state_index: int) -> Optional[int]:
        """Largest credit winning for the environment, None if none is."""
        v = self.dual_value[state_index]
        if v == INF:
            return None
        return self.bound - v

    def env_wins_all_credits(self, state_index: int) -> bool:
        return self.dual_value[state_index] == 0


def env_max_credit(
    game: WeightedGameStructure, c: int, formula: fm.Formula
) -> EnvCreditReport:
    """Solve from the environment's side by negating the formula."""
    dual = fm.negate(formula)
    g = eval_energy(game, c, dual)
    return EnvCreditReport(
        bound=c,
        dual_formula=dual,
        dual_value=g,
        recovered_min_credits=neg(g),
    )


@dataclass(frozen=True)
class CrosscheckReport:
    ok: bool
    bound: int
    formula: fm.Formula
    mismatches: tuple[tuple[int, int, int], ...]  # (state, symbolic, explicit)


def crosscheck_parity(game: WeightedGameStructure, c: int) -> CrosscheckReport:
    """Symbolic vs explicit solving of a priority-annotated game at bound c.

    The symbolic side evaluates the parity fixpoint formula built from the
    priority guards; the explicit side expands the game, layers the credit,
    and solves the resulting parity game.  Minimum credits must agree on
    every game state.
    """
    if game.priorities is None:
        raise EmuError("the game carries no priority annotation")
    formula = fm.parity_formula(game.priorities)
    symbolic = eval_energy(game, c, formula)
    explicit = solve_energy_parity(from_parity_wgs(game), c)
    mismatches = []
    for s in range(game.n_states):
        a, b = int(symbolic.values[s]), int(explicit[s])
        if a != b:
            mismatches.append((s, a, b))
    return CrosscheckReport(
        ok=not mismatches,
        bound=c,
        formula=formula,
        mismatches=tuple(mismatches),
    )
