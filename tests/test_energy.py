import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emu import (
    INF,
    LIMIT,
    EnergyFunction,
    FixpointStats,
    WeightRule,
    WeightedGameStructure,
    ecpre,
    ecpre_env,
    eval_energy,
    join,
    leq,
    meet,
    neg,
    parse_assertion,
)
from emu import assertions as asr
from emu import formulas as fm
from emu.errors import BoundMismatchError, InvalidCreditError, NonMonotoneFormulaError
from emu.randgen import random_wgs
from oracles import buchi_loop_energy, ec_scalar, ecpre_env_cases, ecpre_enum, state_of


def _f(c, values):
    return EnergyFunction(c, np.array(values, dtype=np.int64))


def _random_function(rng, c, n):
    pool = list(range(c + 1)) + [int(INF)]
    return _f(c, [rng.choice(pool) for _ in range(n)])


# ---------------------------------------------------------------------------
# lattice structure

def test_energy_function_validation():
    with pytest.raises(InvalidCreditError):
        _f(2, [3, 0])
    with pytest.raises(InvalidCreditError):
        _f(2, [-1, 0])
    f = _f(2, [0, 1, 2, INF])
    assert f[3] == INF and f[0] == 0


def test_join_meet_leq_examples():
    c = 4
    zero = EnergyFunction.top(c, 3)
    inf = EnergyFunction.bottom(c, 3)
    assert meet(zero, inf) == inf
    assert join(zero, inf) == zero
    assert join(zero, _f(c, [2, 2, 2])) == zero
    assert meet(_f(c, [2, 2, 2]), _f(c, [3, 3, 3])) == _f(c, [3, 3, 3])
    assert leq(inf, zero) and not leq(zero, inf)
    assert leq(_f(c, [3, 3, 3]), _f(c, [2, 2, 2]))


def test_bound_mismatch():
    with pytest.raises(BoundMismatchError):
        join(_f(2, [0]), _f(3, [0]))


def test_neg_examples():
    f = _f(8, [0, INF, 3])
    assert neg(f) == _f(8, [INF, 0, 6])


@settings(max_examples=60)
@given(st.integers(0, 9), st.data())
def test_de_morgan_algebra(c, data):
    n = 6
    pool = list(range(c + 1)) + [int(INF)]
    fv = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    gv = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    f, g = _f(c, fv), _f(c, gv)
    assert neg(neg(f)) == f
    assert neg(meet(f, g)) == join(neg(f), neg(g))
    assert neg(join(f, g)) == meet(neg(f), neg(g))


# ---------------------------------------------------------------------------
# one-step operators

def test_ec_cases(g1):
    s = state_of(g1.vars, set())
    t_y = state_of(g1.vars, {"y"})
    t_n = state_of(g1.vars, set())
    # stepping into y costs 1, stepping elsewhere earns 1
    assert ec_scalar(g1, 8, s, t_y, 3) == 4
    assert ec_scalar(g1, 8, s, t_n, 3) == 2
    assert ec_scalar(g1, 0, s, t_y, 0) == INF  # required credit exceeds the bound
    assert ec_scalar(g1, 8, s, t_y, INF) == INF


def test_ec_invalid_input_is_free():
    from emu import VariableSet, WeightRule, WeightedGameStructure

    g = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("!x'"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("true"), -2),),
    )
    s = state_of(g.vars, set())
    t_bad = state_of(g.vars, {"x"})
    assert ec_scalar(g, 4, s, t_bad, INF) == 0


def test_ec_sys_refusal_is_infinite():
    from emu import VariableSet, WeightRule, WeightedGameStructure

    g = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("y'"),
        weights=(WeightRule(parse_assertion("true"), 0),),
    )
    s = state_of(g.vars, set())
    assert ec_scalar(g, 4, s, state_of(g.vars, set()), 0) == INF


def test_ecpre_g1_examples(g1):
    c = 2
    n = g1.n_states
    assert ecpre(g1, c, EnergyFunction.top(c, n)) == EnergyFunction.top(c, n)
    assert ecpre(g1, c, EnergyFunction.bottom(c, n)) == EnergyFunction.bottom(c, n)
    y_mask = g1.tables().state_mask(parse_assertion("y"))
    f = _f(c, np.where(y_mask, 0, INF))
    got = ecpre(g1, c, f)
    assert got == _f(c, [1, 1, 1, 1])
    assert got == ecpre_enum(g1, c, f)


def test_ecpre_matches_enumeration_random():
    rng = random.Random(17)
    for _ in range(30):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        f = _random_function(rng, c, g.n_states)
        assert ecpre(g, c, f) == ecpre_enum(g, c, f)


def test_ecpre_env_examples(g1):
    from emu import VariableSet, WeightRule, WeightedGameStructure

    c = 2
    n = g1.n_states
    # rho_s total, no env deadlock: from the zero function everything is free
    top, bottom = EnergyFunction.top(c, n), EnergyFunction.bottom(c, n)
    assert ecpre_env_cases(g1, c, top) == top
    # no valid input at all: the min over inputs is empty, value INF
    dead = WeightedGameStructure(
        vars=g1.vars, rho_e=parse_assertion("false"), rho_s=g1.rho_s,
        weights=g1.weights)
    assert ecpre_env_cases(dead, c, top) == bottom
    # duality pins the remaining case
    assert ecpre_env_cases(g1, c, bottom) == neg(ecpre(g1, c, neg(bottom)))
    for game in (g1, dead):
        for f in (top, bottom):
            assert ecpre_env(game, c, f) == ecpre_env_cases(game, c, f)


def test_ecpre_monotone_random():
    rng = random.Random(29)
    for _ in range(40):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        f = _random_function(rng, c, g.n_states)
        worse = _f(c, np.minimum(
            f.values, _random_function(rng, c, g.n_states).values))
        # worse requires less credit, i.e. f <= worse in the reversed order
        assert leq(f, worse)
        assert leq(ecpre(g, c, f), ecpre(g, c, worse))
        assert leq(ecpre_env_cases(g, c, f), ecpre_env_cases(g, c, worse))


def test_duality_random():
    rng = random.Random(31)
    for _ in range(60):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        f = _random_function(rng, c, g.n_states)
        assert ecpre_env_cases(g, c, neg(f)) == neg(ecpre(g, c, f))
        assert ecpre_env(g, c, f) == ecpre_env_cases(g, c, f)


_EDGE_BOUNDS = (0, 1, 7, LIMIT - 1, LIMIT)
_EDGE_WEIGHTS = st.one_of(st.integers(-LIMIT, -LIMIT + 2), st.integers(LIMIT - 2, LIMIT),
                          st.integers(-2, 2))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(_EDGE_BOUNDS), st.booleans(),
       st.booleans(), st.data())
def test_step_kernels_at_the_limits(seed, c, env_deadlock, dead_moves, data):
    """ecpre and ecpre_env against the scalar references, with weights near
    +-2^60, bounds at both ends of their range, environment deadlocks (no
    valid input where the first variable holds) and dead moves (none into a
    state where it holds; if it is an input, no valid output after it)."""
    g = random_wgs(random.Random(seed), 2, 3, max_weight=0)
    first = asr.Var(g.vars.names[0])
    rho_e = asr.And(g.rho_e, asr.Not(first)) if env_deadlock else g.rho_e
    rho_s = asr.And(g.rho_s, asr.Not(asr.Var(first.name, primed=True))) \
        if dead_moves else g.rho_s
    weights = tuple(WeightRule(r.guard, data.draw(_EDGE_WEIGHTS)) for r in g.weights)
    g = WeightedGameStructure(vars=g.vars, rho_e=rho_e, rho_s=rho_s, weights=weights)
    pool = sorted({0, min(1, c), c // 2, max(c - 1, 0), c, int(INF)})
    f = _f(c, data.draw(st.lists(st.sampled_from(pool), min_size=g.n_states,
                                 max_size=g.n_states)))
    assert ecpre(g, c, f) == ecpre_enum(g, c, f)
    assert ecpre_env(g, c, f) == ecpre_env_cases(g, c, f)


# ---------------------------------------------------------------------------
# full evaluation

def test_eval_energy_g1_goldens(g1):
    # cross-validated against the reduction oracle in test_reduction.py
    n = g1.n_states
    assert eval_energy(g1, 2, fm.builtin("safety")) == EnergyFunction.top(2, n)
    buchi = fm.builtin("buchi", J="y")
    assert eval_energy(g1, 2, buchi) == EnergyFunction.top(2, n)
    assert eval_energy(g1, 0, buchi) == EnergyFunction.bottom(0, n)


def test_eval_energy_rejects_bad_input(g1):
    with pytest.raises(NonMonotoneFormulaError):
        eval_energy(g1, 2, fm.parse_formula("mu X . !X"))
    with pytest.raises(InvalidCreditError):
        eval_energy(g1, -1, fm.builtin("safety"))


def test_negation_laws_random():
    rng = random.Random(37)
    for _ in range(25):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 5)
        psi = fm.builtin("buchi", J="a")
        xi = fm.builtin("safety")
        ev = lambda f: eval_energy(g, c, f)
        assert ev(fm.Not(fm.Not(psi))) == ev(psi)
        assert ev(fm.Not(fm.And(psi, xi))) == ev(fm.Or(fm.Not(psi), fm.Not(xi)))
        assert ev(fm.Not(fm.Or(psi, xi))) == ev(fm.And(fm.Not(psi), fm.Not(xi)))
        assert ev(fm.Not(fm.Diamond(psi))) == ev(fm.Box(fm.Not(psi)))
        assert ev(fm.Not(fm.Box(psi))) == ev(fm.Diamond(fm.Not(psi)))
        # on fixpoints: the pushed form equals the raw negation
        assert ev(fm.Not(psi)) == ev(fm.negate(psi))
        assert ev(fm.Not(xi)) == ev(fm.negate(xi))


def test_mu_iterates_ascend_nu_descend(g1):
    # the evaluator asserts the chains internally; exercise both directions
    stats = FixpointStats()
    eval_energy(g1, 3, fm.builtin("buchi", J="y"), stats=stats)
    assert stats.fixpoints >= 2
    assert stats.within_caps()


def test_buchi_loop_equivalence_random():
    rng = random.Random(41)
    for _ in range(30):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        j_mask = g.tables().state_mask(parse_assertion("a"))
        f_j = _f(c, np.where(j_mask, 0, INF))
        loop = buchi_loop_energy(g, c, f_j)
        generic = eval_energy(g, c, fm.builtin("buchi", J="a"))
        assert loop == generic


def test_mixed_fragment_accepted(g1):
    f = fm.parse_formula("nu X . (<>X & []X)")
    out = eval_energy(g1, 2, f)
    assert out.bound == 2  # evaluates without error


# ---------------------------------------------------------------------------
# the int64 credit encoding

def _buchi_game(w):
    """Input x, output y; moves into y weigh w, all others +1."""
    from emu import VariableSet, WeightRule, WeightedGameStructure

    return WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("y'"), w),
                 WeightRule(parse_assertion("true"), 1)),
    )


def test_weights_beyond_the_limit_are_rejected():
    from emu import LIMIT, oracle_min_credit_sys
    from emu.errors import WeightDomainError

    # e - w used to wrap here, giving credit 0 where no credit suffices
    with pytest.raises(WeightDomainError):
        _buchi_game(-(1 << 63))
    with pytest.raises(WeightDomainError):
        _buchi_game(LIMIT + 1)
    buchi = fm.builtin("buchi", J="y")
    for w in (-LIMIT, LIMIT):
        g = _buchi_game(w)
        assert eval_energy(g, 3, buchi) == oracle_min_credit_sys(g, 3, buchi)
    assert eval_energy(_buchi_game(-LIMIT), 3, buchi) == EnergyFunction.bottom(3, 4)


def test_bounds_beyond_the_limit_are_rejected():
    from emu import LIMIT, SolveRequest, compute_bound, solve

    with pytest.raises(InvalidCreditError):
        eval_energy(_buchi_game(-1), LIMIT + 1, fm.builtin("safety"))
    buchi = fm.builtin("buchi", J="y")
    # the sufficient bound of a legal weight may exceed the limit: only
    # solving at it fails, a finite bound below the limit still solves
    assert compute_bound(_buchi_game(LIMIT), buchi).bound > LIMIT
    with pytest.raises(InvalidCreditError):
        solve(SolveRequest(_buchi_game(LIMIT), buchi, math.inf))
    report = solve(SolveRequest(_buchi_game(-LIMIT), buchi, 3))
    assert not report.sys_region.any() and report.env_region.all()
    assert compute_bound(_buchi_game(-2), buchi).bound == 76
