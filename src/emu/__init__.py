"""emu: solve omega-regular energy games with fixpoint formulas.

A weighted game structure describes a two-player game over Boolean
variables: each round the environment picks the next inputs, the system the
next outputs, and the system transition carries an integer weight (energy
gained or spent).  A fixpoint formula states the qualitative objective; its
energy evaluation yields, per state, the minimum initial credit with which
the system wins both the objective and non-negativity of the running energy
level.  Two independent oracles (a credit-tracking reduction solved with
set semantics, and an explicit energy parity pipeline) cross-validate the
evaluator.
"""

from .assertions import Assertion, assertion_to_str, parse_assertion
from .energy import (
    INF,
    LIMIT,
    EnergyFunction,
    ecpre,
    ecpre_env,
    eval_energy,
    join,
    leq,
    meet,
    neg,
)
from .classical import FixpointStats, cpre_env, cpre_sys, eval_classical
from .errors import EmuError
from .formulas import (
    Formula,
    FormulaMetrics,
    builtin,
    check_monotone,
    classify_fragment,
    formula_to_str,
    metrics,
    negate,
    parity_formula,
    parse_formula,
    push_negations,
)
from .game import (
    PriorityRule,
    State,
    VariableSet,
    WeightRule,
    WeightedGameStructure,
)
from .gamefile import load_game, load_priorities, save_game
from .parity import (
    EnergyParityGame,
    ParityGame,
    attractor,
    bound_ep,
    format_explicit_game,
    from_parity_wgs,
    memory_bound,
    parse_explicit_game,
    solve_energy_parity,
    solve_parity,
    unfold_with_bound,
)
from .reduction import ReducedGame, oracle_max_credit_env, oracle_min_credit_sys, reduce_game
from .solver import (
    BoundBreakdown,
    CrosscheckReport,
    EnvCreditReport,
    SolveReport,
    SolveRequest,
    compute_bound,
    crosscheck_parity,
    env_max_credit,
    solve,
    winning_regions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
