"""Decision and minimum-credit solving, winning regions, sufficient bounds.

For a finite bound the minimum credits are the energy value of the formula.
For unbounded accumulation a sufficient finite bound is computed first:
winning states and credits at that bound are also valid without any bound,
and states losing at that bound lose for every finite credit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import formulas as fm
from .energy import EnergyFunction, _check_bound, eval_energy
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
    bound_breakdown: BoundBreakdown


def winning_regions(game: WeightedGameStructure, c: int, formula: fm.Formula,
                    root_cap: int | None = None):
    """(W_sys, W_env): finite-value states of the formula, zero-value states
    of its negation.  The two must partition the state space; a violation
    raises, as it means one of the evaluators is broken.  ``root_cap`` is
    passed to both evaluations (see ``eval_energy``).
    """
    direct = eval_energy(game, c, formula, root_cap=root_cap)
    dual = eval_energy(game, c, fm.negate(formula), root_cap=root_cap)
    w_sys = direct.is_finite()
    w_env = dual.values == 0
    if (w_sys & w_env).any() or not (w_sys | w_env).all():
        raise ConsistencyError(
            "system and environment regions do not partition the states"
        )
    return w_sys, w_env


def _root_cap(game: WeightedGameStructure, formula: fm.Formula, c: int):
    """The expansion cap (N'-1)K where it bounds the finite values of
    ``formula``'s outermost nu at bound c, else None.  N' = N(1+NX) is the
    state count of ``parity.from_parity_wgs``, NX the input count.

    It is proven for P, the stock Buchi formula (``formulas.is_buchi_shape``)
    or the parity formula of the game's priorities, with nu outermost, at
    c >= d(N^2+N-1)K, where d is 2 for Buchi and the priority count for
    parity.  That is ``compute_bound(game, P).bound``, except for Buchi on a
    game with priorities, where ``compute_bound`` counts the game's
    priorities instead.  ``formula`` may be P (the cut of the iterates is
    then step 5 of ``energy._credit_cap_cut``) or ``negate(P)`` (step 6).
    A parity formula with mu outermost gets None.  Both steps need only
    that every finite value of P at c is at most the cap.  Let G be
    ``from_parity_wgs`` of the game, for Buchi with priority 0 on J and 1
    elsewhere; player 0, the system, moves from the N' - N positions after
    an input, with the move's weight, and the environment's moves weigh 0.

    Lemma 1: at such c the value of P at a game state is its least credit
    in G when the energy level is not truncated (INF if none).
      (a) At every c it is the least credit when the level is truncated at
          c: a move from level e with weight w needs e + w >= 0 and goes on
          at min(e + w, c).  This is the source paper's reading of P, which
          ``crosscheck_parity`` checks at every bound; ``negate(P)`` has the
          ``neg`` of P's value.
      (b) NX <= N, so N' <= N^2+N and c >= d(N'-1)K, the sufficient bound of
          an energy parity game (``parity.bound_ep``, after Chatterjee and
          Doyen): at it, truncation changes no least credit.  ``solve``
          rests on the same premise for ``--bound inf``.

    Lemma 2: every finite least credit in G is at most (N'-1)K.
      (a) Good-for-energy strategies (Chatterjee and Doyen, "Energy parity
          games", TCS 2012).  Let player 0 win from every state of W, a set
          she can keep the play in and the environment cannot leave; a
          deadlock of the environment counts as a move of weight 0 into a
          sink with a loop of weight 0 and priority 0.  Then she has a
          memoryless strategy on W under which every cycle is good: its
          weight is > 0, or it is 0 and the least priority on it is even.
          Proof: weigh a move from s by M*w + (-1)^p(s) * B^(D-p(s)), with B
          above |W|, D the largest priority and M > |W|*B^D.  A simple cycle
          then weighs > 0 exactly when it is good, and never 0.  Mean-payoff
          games have memoryless optimal strategies, and each value is the
          mean of a simple cycle (Ehrenfeucht and Mycielski 1979).  If the
          value at some s in W were < 0, the environment's optimal strategy
          would make each cycle reachable from s bad (player 0 would reach a
          good one and repeat it otherwise).  A play from s under
          it is then a path of at most |W| moves plus simple cycles, each
          of weight <= 0: infinitely many weigh < 0, so the level drops
          below any credit, or from some point all weigh 0 with odd least
          priorities, so the play loses the parity condition.  Player 0
          would not win from s.  So every value on W is > 0, and player 0's
          optimal strategy makes every cycle good.
      (b) Let W be where player 0 wins G, V her least credits there,
          T = max V, and sigma as in (a): the environment cannot leave W,
          for she wins nowhere outside it, and she can stay in it.  No cycle under sigma weighs < 0,
          so along a play under sigma the level falls by at most what a
          simple path loses, (|W|-1)K: let e(s) <= (|W|-1)K be the largest
          fall from s.  From s with credit e(s), player 0 plays sigma until
          the level reaches T, then a strategy that wins from the state
          reached with credit V there.  Before the switch the level is at
          least e of the current state, so >= 0.  If she never switches,
          only finitely many of the play's cycles weigh > 0, for each adds
          at least 1 to the level, which stays below T; the rest weigh 0, so
          their least priorities are even, and the play wins.  So
          V(s) <= e(s) <= (|W|-1)K <= (N'-1)K.

    ``solve`` calls it once and passes the cap to its three evaluations,
    so the shape tests and ``negate`` are not paid per evaluation.
    """
    n, k = game.n_states, game.max_abs_weight
    per_priority = (n * n + n - 1) * k
    if c < per_priority:  # below every such bound, as d >= 1
        return None
    root = fm.negate(formula) if isinstance(formula, fm.Mu) else formula
    if not isinstance(root, fm.Nu):
        return None
    if fm.is_buchi_shape(root) is not None:
        d = 2
    elif game.priorities is not None and root == fm.parity_formula(game.priorities):
        d = len({r.priority for r in game.priorities})
    else:
        return None
    cap = (n * (1 + (1 << len(game.vars.x_names))) - 1) * k
    return cap if cap < c and c >= d * per_priority else None


def solve(req: SolveRequest) -> SolveReport:
    """Minimum credits and winning regions at the requested or computed bound."""
    if not fm.is_closed(req.formula):
        raise FragmentError("the solver needs a closed formula")
    breakdown = compute_bound(req.game, req.formula)
    unbounded = req.bound == math.inf
    c = breakdown.bound if unbounded else req.bound
    _check_bound(c)  # before c is compared with any bound
    cap = _root_cap(req.game, req.formula, c)
    credits = eval_energy(req.game, c, req.formula, root_cap=cap)
    w_sys, w_env = winning_regions(req.game, c, req.formula, root_cap=cap)
    if not np.array_equal(w_sys, credits.is_finite()):
        raise ConsistencyError("regions disagree with the credit function")
    return SolveReport(
        effective_bound=credits.bound,
        unbounded=unbounded,
        min_credits=credits,
        sys_region=w_sys,
        env_region=w_env,
        bound_breakdown=breakdown,
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
    explicit = solve_energy_parity(from_parity_wgs(game), c)[:game.n_states]
    bad = np.flatnonzero(symbolic.values != explicit)
    mismatches = tuple(zip(bad.tolist(), symbolic.values[bad].tolist(),
                           explicit[bad].tolist()))
    return CrosscheckReport(ok=not mismatches, bound=c, formula=formula,
                            mismatches=mismatches)
