import random

import numpy as np
import pytest

from emu import (
    INF,
    LIMIT,
    EnergyFunction,
    VariableSet,
    WeightRule,
    WeightedGameStructure,
    eval_classical,
    eval_energy,
    oracle_max_credit_env,
    oracle_min_credit_sys,
    parse_assertion,
    reduce_game,
)
from emu import formulas as fm
from emu.errors import ConsistencyError, FragmentError, StateCapError
from emu.randgen import random_formula, random_wgs
from emu.tables import DEAD
from oracles import state_of


def _rho_s_holds(rg, s1, c1, s2, c2):
    """Membership of ((s1,c1),(s2,c2)) in the reduced system relation."""
    t = rg.tables()
    s2_full = rg.state_index(s2, c2)
    x = sum(((s2_full >> p) & 1) << j for j, p in enumerate(t.x_positions))
    y = sum(((s2_full >> p) & 1) << j for j, p in enumerate(t.y_positions))
    return bool(t.rho_s[t.row[rg.state_index(s1, c1)], x, y])


def test_reduce_g1_c2(g1):
    rg = reduce_game(g1, 2)
    assert rg.n_credit_bits == 2
    assert rg.vars.names[:2] == ("x", "y")
    assert len(rg.vars.names) == 4
    # credit vars are system-controlled
    assert rg.vars.inputs == frozenset({"x"})

    s = state_of(g1.vars, set()).index
    t_y = state_of(g1.vars, {"y"}).index
    t_n = state_of(g1.vars, {"x"}).index
    # paying into y from credit 2 can claim next credit 1, not from credit 0
    assert _rho_s_holds(rg, s, 2, t_y, 1)
    for c2 in range(3):
        assert not _rho_s_holds(rg, s, 0, t_y, c2)
    # gaining allows claiming the topped-up credit
    assert _rho_s_holds(rg, s, 1, t_n, 2)
    # claims beyond the actual credit are rejected
    assert not _rho_s_holds(rg, s, 1, t_y, 1)


def test_reduce_c0_single_bit(g1):
    rg = reduce_game(g1, 0)
    assert rg.n_credit_bits == 1
    s = state_of(g1.vars, set()).index
    t_y = state_of(g1.vars, {"y"}).index
    t_n = state_of(g1.vars, {"x"}).index
    assert not _rho_s_holds(rg, s, 0, t_y, 0)  # weight -1 moves are cut at c=0
    assert _rho_s_holds(rg, s, 0, t_n, 0)      # weight +1 moves survive


def test_reduce_out_of_range_credits_dead(g1):
    rg = reduce_game(g1, 2)
    s = state_of(g1.vars, set()).index
    t_n = state_of(g1.vars, {"x"}).index
    # encoding 3 > c is outside the tracked domain on either end
    assert not _rho_s_holds(rg, s, 3, t_n, 0)
    assert not _rho_s_holds(rg, s, 2, t_n, 3)


def test_reduce_respects_state_cap():
    vs = VariableSet(tuple(f"v{i}" for i in range(22)), frozenset())
    g = WeightedGameStructure(
        vars=vs,
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("true"), 0),),
    )
    with pytest.raises(StateCapError):
        reduce_game(g, 100)  # needs 7 credit bits, 29 > 24


def test_dead_moves_weigh_dead(g1):
    rng = random.Random(47)
    games = [g1] + [random_wgs(rng, 2, 3, max_weight=LIMIT) for _ in range(20)]
    for g in games:
        for t in [g.tables()] + [reduce_game(g, c).tables() for c in (0, 3)]:
            assert np.array_equal(t.weight == DEAD, ~t.rho_s)
            assert (np.abs(t.weight[t.rho_s]) <= LIMIT).all()


def test_oracle_min_credit_g1(g1):
    n = g1.n_states
    assert (oracle_min_credit_sys(g1, 2, fm.builtin("safety"))
            == EnergyFunction.top(2, n))
    assert (oracle_min_credit_sys(g1, 0, fm.builtin("buchi", J="y"))
            == EnergyFunction.bottom(0, n))


def test_oracle_min_credit_dead_system():
    g = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("false"),
        weights=(WeightRule(parse_assertion("true"), 0),),
    )
    out = oracle_min_credit_sys(g, 1, fm.builtin("safety"))
    # no env deadlocks and no system moves: every state loses
    assert out == EnergyFunction.bottom(1, g.n_states)


def test_oracle_max_credit_env_g1(g1):
    dual = fm.negate(fm.builtin("buchi", J="y"))
    n = g1.n_states
    # at c=2 the system wins everywhere with credit 0: the environment wins
    # for no credit, the dual value is INF
    assert oracle_max_credit_env(g1, 2, dual) == EnergyFunction.bottom(2, n)
    # at c=0 the environment wins for the only credit: the dual value is 0
    assert oracle_max_credit_env(g1, 0, dual) == EnergyFunction.top(0, n)


def test_oracle_max_credit_env_dead_system():
    g = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("false"),
        weights=(WeightRule(parse_assertion("true"), 0),),
    )
    out = oracle_max_credit_env(g, 1, fm.parse_formula("nu X . []X"))
    # the environment wins for every credit: dual value 0
    assert out == EnergyFunction.top(1, g.n_states)


def test_oracle_fragment_checks(g1):
    with pytest.raises(FragmentError):
        oracle_min_credit_sys(g1, 1, fm.parse_formula("nu X . []X"))
    with pytest.raises(FragmentError):
        oracle_max_credit_env(g1, 1, fm.builtin("safety"))
    with pytest.raises(FragmentError):
        oracle_min_credit_sys(g1, 1, fm.parse_formula("<>X"))


def test_upward_closedness_of_witnesses(g1):
    rg = reduce_game(g1, 3)
    win = eval_classical(rg, fm.builtin("buchi", J="y"))
    layers = win.reshape(1 << rg.n_credit_bits, g1.n_states)
    for s in range(g1.n_states):
        credits = [c0 for c0 in range(4) if layers[c0, s]]
        assert credits == list(range(credits[0], 4)) if credits else True


def test_reduced_game_winners_match_energy_winners(g1):
    # spot check: a state-and-credit wins the reduced game exactly when the
    # credit covers the energy value of the original state
    for c in (0, 2):
        rg = reduce_game(g1, c)
        win = eval_classical(rg, fm.builtin("buchi", J="y"))
        layers = win.reshape(1 << rg.n_credit_bits, g1.n_states)
        credits = eval_energy(g1, c, fm.builtin("buchi", J="y"))
        for s in range(g1.n_states):
            for c0 in range(c + 1):
                assert layers[c0, s] == (c0 >= credits[s])


def test_energy_equals_reduction_oracle_random():
    rng = random.Random(43)
    for _ in range(40):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        _, psi = random_formula(rng, g.vars)
        assert eval_energy(g, c, psi) == oracle_min_credit_sys(g, c, psi)
        dual = fm.negate(psi)
        assert eval_energy(g, c, dual) == oracle_max_credit_env(g, c, dual)


@pytest.mark.parametrize("side, column, want", [
    ("sys", [0, 1, 1], 1),
    ("sys", [1, 0, 1], None),   # a gap
    ("sys", [1, 1, 0], None),   # not upward closed
    ("env", [1, 1, 0], 1),      # c - 1
    ("env", [1, 0, 1], None),
    ("env", [0, 1, 1], None),   # not downward closed
])
def test_credit_readout_checks_the_shape(g1, monkeypatch, side, column, want):
    from emu import reduction

    layers = np.zeros((4, g1.n_states), dtype=bool)  # credits 0..3 at c=2
    layers[:3, 0] = column
    monkeypatch.setattr(reduction, "eval_classical",
                        lambda rg, f: layers.reshape(-1))
    safety = fm.builtin("safety")
    if side == "sys":
        oracle, formula = oracle_min_credit_sys, safety
    else:
        oracle, formula = oracle_max_credit_env, fm.negate(safety)
    if want is None:
        with pytest.raises(ConsistencyError):
            oracle(g1, 2, formula)
    else:
        assert oracle(g1, 2, formula).values.tolist() == [want] + [INF] * 3
