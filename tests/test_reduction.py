import itertools
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
    cpre_sys,
    eval_classical,
    eval_energy,
    oracle_max_credit_env,
    oracle_min_credit_sys,
    parse_assertion,
    reduce_game,
)
from emu import assertions as asr
from emu import formulas as fm
from emu.errors import (
    ConsistencyError,
    FragmentError,
    MalformedAssertionError,
    StateCapError,
)
from emu.randgen import random_formula, random_wgs
from emu.tables import DEAD
from oracles import (
    all_states,
    credit_readout_loops,
    env_choices,
    eval_assertion,
    random_nested_formula,
    state_of,
    sys_choices,
    weight,
)


def _index(g, s, credit):
    """The reduced state of state s of ``g`` at ``credit``: one layer of the
    game's states per credit."""
    return credit * g.n_states + s


def _move_weight(g, t, s, s_next):
    """The weight in the tables ``t`` of the move between two state indices,
    of ``g`` or of its reduction: the move's input is the bits of ``g``'s
    inputs, its read output those of the outputs that ``g``'s moves read
    primed, in the block of the claimed credit, the layer of ``s_next``."""
    names = g.vars.names
    x_positions = [p for p, v in enumerate(names) if v in g.vars.inputs]
    yr_positions = [p for p, v in enumerate(names)
                    if (v, True) in g.move_reads and v not in g.vars.inputs]
    credit, s_next = divmod(s_next, g.n_states)
    x = sum(((s_next >> p) & 1) << j for j, p in enumerate(x_positions))
    y = sum(((s_next >> p) & 1) << j for j, p in enumerate(yr_positions))
    return int(t.weight[y + (credit << len(yr_positions)), x, t.row[s]])


def _rho_s_holds(g, t, s1, c1, s2, c2):
    """Membership of ((s1,c1),(s2,c2)) in the system relation of ``t``, a
    reduction of ``g``, as the tables record it: a move the system can make
    does not weigh DEAD."""
    return _move_weight(g, t, _index(g, s1, c1), _index(g, s2, c2)) != DEAD


def _base_moves(g):
    """{(s, s_next): weight} over the system moves of a game, from the
    scalar semantics of its own assertions."""
    return {(s.index, t.index): weight(g, s, t)
            for s in all_states(g.vars) for t in all_states(g.vars)
            if eval_assertion(g.rho_s, s, t)}


def _reduced_move(moves, c, s, c1, s_next, c2):
    """The reduced system relation, scalar: the base move exists, both
    credits are in [0, c], and c1 plus the weight covers the claimed c2."""
    return ((s, s_next) in moves and c1 <= c and c2 <= c
            and c1 + moves[s, s_next] >= c2)


def test_reduce_g1_c2(g1):
    t, base = reduce_game(g1, 2), g1.tables()
    assert t.tables() is t  # evaluators read it as they read a game
    # the credit is a read output and a row block, one per credit in [0, 2]
    assert t.n_states == base.n_states * 3
    assert t.weight.shape == (len(base.weight) * 3, 1 << len(g1.vars.inputs),
                              base.rho_e.shape[1] * 3)

    s = state_of(g1.vars, set()).index
    t_y = state_of(g1.vars, {"y"}).index
    t_n = state_of(g1.vars, {"x"}).index
    # paying into y from credit 2 can claim next credit 1, not from credit 0
    assert _rho_s_holds(g1, t, s, 2, t_y, 1)
    for c2 in range(3):
        assert not _rho_s_holds(g1, t, s, 0, t_y, c2)
    # gaining allows claiming the topped-up credit
    assert _rho_s_holds(g1, t, s, 1, t_n, 2)
    # claims beyond the actual credit are rejected
    assert not _rho_s_holds(g1, t, s, 1, t_y, 1)


def test_reduce_c0_single_bit(g1):
    t = reduce_game(g1, 0)
    assert t.n_states == g1.n_states  # one credit layer
    s = state_of(g1.vars, set()).index
    t_y = state_of(g1.vars, {"y"}).index
    t_n = state_of(g1.vars, {"x"}).index
    assert not _rho_s_holds(g1, t, s, 0, t_y, 0)  # weight -1 moves are cut at c=0
    assert _rho_s_holds(g1, t, s, 0, t_n, 0)      # weight +1 moves survive


@pytest.mark.parametrize("c", [0, 1, 2, 5, 16])
def test_reduce_keeps_exactly_one_layer_per_credit(g1, c):
    t, base = reduce_game(g1, c), g1.tables()
    assert t.n_states == g1.n_states * (c + 1)
    assert t.weight.size == base.weight.size * (c + 1) ** 2
    for text in ("y", "x & !y", "true"):
        a = parse_assertion(text)
        assert np.array_equal(t.state_mask(a), np.tile(base.state_mask(a), c + 1))


def test_reduce_respects_state_cap():
    vs = VariableSet(tuple(f"v{i}" for i in range(22)), frozenset())
    g = WeightedGameStructure(
        vars=vs,
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("true"), 0),),
    )
    with pytest.raises(StateCapError):
        reduce_game(g, 100)  # 2^22 states times 101 credits, above 2^24


@pytest.mark.parametrize("seed, n, c", [(1, 6, 40), (3, 7, 100), (4, 7, 80)])
def test_reduction_build_stays_within_its_memory_charge(seed, n, c):
    # reduce_game refuses up front, by check_memory's charge of 16 bytes a
    # cell and 24 a state, tables that would not fit, so its build must fit
    # in that charge.  Built in place, the weights peak at 0.57-0.66 of it; a
    # second int64 table for the result, next to the tiled weights and the
    # move mask, takes the peak to 1.04-1.05.  The second of two identical
    # builds is measured, after the first has loaded what numpy loads on
    # first use.
    import tracemalloc

    g = random_wgs(random.Random(seed), n, n, 3)
    layers = c + 1
    charge = 16 * g.tables().weight.size * layers ** 2 + 24 * g.n_states * layers
    reduce_game(g, c)
    tracemalloc.start()
    try:
        t = reduce_game(g, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not t.weight.flags.writeable
    assert peak <= charge


def test_reduce_caps_the_credit_bits_too():
    # 2^20 states times 17 credits: the state cap refuses them before any
    # memory estimate
    vs = VariableSet(tuple(f"v{i}" for i in range(20)), frozenset())
    g = WeightedGameStructure(
        vars=vs,
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("true"), 0),),
    )
    with pytest.raises(StateCapError,
                       match="17825792 states exceed the cap of 16777216 enumerated states"):
        reduce_game(g, 16)


def test_dead_moves_weigh_dead(g1):
    """DEAD marks exactly the moves the system cannot make, in the tables of
    a game and of its reductions, checked against the game itself."""
    rng = random.Random(47)
    games = [g1] + [random_wgs(rng, 2, 3, max_weight=LIMIT) for _ in range(20)]
    for g in games:
        moves = _base_moves(g)
        t = g.tables()
        for s, s2 in itertools.product(range(g.n_states), repeat=2):
            w = _move_weight(g, t, s, s2)
            assert (w == DEAD) == ((s, s2) not in moves)
            assert w == DEAD or (abs(w) <= LIMIT and w == moves[s, s2])
        for c in (0, 3):
            rt = reduce_game(g, c)
            layers = range(c + 1)
            for s, s2 in itertools.product(range(g.n_states), repeat=2):
                for c1, c2 in itertools.product(layers, repeat=2):
                    w = _move_weight(g, rt, _index(g, s, c1), _index(g, s2, c2))
                    assert (w != DEAD) == _reduced_move(moves, c, s, c1, s2, c2)
                    assert w in (0, DEAD)


def _cpre_sys_reduced_enum(g, c, target):
    """cpre_sys of the reduction of ``g`` at bound c by enumeration: every
    valid input of the base game has a reduced move (base output, claimed
    credit) into target."""
    moves = _base_moves(g)
    layers = range(c + 1)
    out = np.zeros(len(target), dtype=bool)
    for s in all_states(g.vars):
        for c1 in layers:
            out[_index(g, s.index, c1)] = all(
                any(_reduced_move(moves, c, s.index, c1, t, c2)
                    and target[_index(g, t, c2)]
                    for s_y in sys_choices(g, s, s_x)
                    for t in [state_of(g.vars, s_x | s_y).index]
                    for c2 in layers)
                for s_x in env_choices(g, s))
    return out


def test_cpre_sys_on_reduced_games():
    """cpre_sys over reduced tables, where the oracle runs it, against the
    scalar reduced moves; games get environment deadlocks (no valid input
    where the first variable holds) and dead outputs (none into a state
    where the last variable holds)."""
    rng = random.Random(53)
    for i in range(24):
        g = random_wgs(rng, 2, 4)
        rho_e, rho_s = g.rho_e, g.rho_s
        if i % 2:
            rho_e = asr.And(rho_e, asr.Not(asr.Var(g.vars.names[0])))
        if i // 2 % 2:
            rho_s = asr.And(rho_s, asr.Not(asr.Var(g.vars.names[-1], primed=True)))
        g = WeightedGameStructure(vars=g.vars, rho_e=rho_e, rho_s=rho_s,
                                  weights=g.weights)
        c = (0, 1, 3)[i % 3]
        rt = reduce_game(g, c)
        for _ in range(3):
            target = np.array([rng.random() < 0.6 for _ in range(rt.n_states)])
            assert np.array_equal(cpre_sys(rt, target),
                                  _cpre_sys_reduced_enum(g, c, target))


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
    win = eval_classical(reduce_game(g1, 3), fm.builtin("buchi", J="y"))
    layers = win.reshape(4, g1.n_states)
    for s in range(g1.n_states):
        credits = [c0 for c0 in range(4) if layers[c0, s]]
        assert credits == list(range(credits[0], 4)) if credits else True


def test_reduced_game_winners_match_energy_winners(g1):
    # spot check: a state-and-credit wins the reduced game exactly when the
    # credit covers the energy value of the original state
    for c in (0, 2):
        win = eval_classical(reduce_game(g1, c), fm.builtin("buchi", J="y"))
        layers = win.reshape(c + 1, g1.n_states)
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


def test_environment_oracle_is_the_dual_of_the_system_oracle():
    """``oracle_max_credit_env`` is ``neg`` of the system's oracle on the
    negation.  Checked against the environment's own reading of its winning
    layers on the reduced game (downward closed [0, hi], value c - hi) and
    against the engine, on random games, deadlocks included, and box-free
    formulas: the stock ones, and nested ones of both fixpoint kinds."""
    rng = random.Random(5)
    finite = 0
    for i in range(600):
        g = random_wgs(rng, 2, 3, 2)
        c = rng.randint(0, 8)
        if i % 2:
            _, f = random_formula(rng, g.vars)
        else:
            f = random_nested_formula(rng, size=8)
            while fm.classify_fragment(f) not in ("sys", "both"):
                f = random_nested_formula(rng, size=8)
        dual = fm.negate(f)
        got = oracle_max_credit_env(g, c, dual)
        won = eval_classical(reduce_game(g, c), dual).reshape(c + 1, -1)
        assert got.values.tolist() == credit_readout_loops(won, c, "env")
        assert got == eval_energy(g, c, dual)
        finite += int(((got.values > 0) & got.is_finite()).sum())
    assert finite >= 100  # values strictly inside (0, INF), not only the ends


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

    # ``column`` is what ``side`` wins: the environment's oracle reads the
    # system's winning layers on the negation, which are their complement
    layers = np.zeros((3, g1.n_states), dtype=bool)  # credits 0..2 at c=2
    layers[:, 0] = column
    won = layers if side == "sys" else ~layers
    monkeypatch.setattr(reduction, "eval_classical",
                        lambda rg, f: won.reshape(-1))
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


def test_readout_matches_the_loop_reference(g1, monkeypatch):
    """The array readout against ``oracles.credit_readout_loops`` on random
    winning layers, well and badly shaped, on both sides: the same values,
    or the same ``ConsistencyError`` text.  The environment's layers reach
    its oracle as their complement, the system's layers on the negation,
    so a badly shaped one is refused in the system's words."""
    from emu import reduction

    rng = np.random.default_rng(29)
    n = g1.n_states
    safety = fm.builtin("safety")
    raised = 0
    for case in range(400):
        c = int(rng.integers(0, 9))
        side = ("sys", "env")[case % 2]
        e = np.arange(c + 1)[:, None]
        cut = rng.integers(-1, c + 2, size=n)
        layers = e >= cut if side == "sys" else e <= cut
        bad = rng.random(n) < (0.0, 0.1, 0.5)[case % 3]
        noise = rng.random((c + 1, n)) < 0.5
        layers = np.where(bad, noise, layers)
        won = layers if side == "sys" else ~layers
        monkeypatch.setattr(reduction, "eval_classical",
                            lambda rg, f: won.reshape(-1))
        oracle, formula = ((oracle_min_credit_sys, safety) if side == "sys"
                           else (oracle_max_credit_env, fm.negate(safety)))
        try:
            want = credit_readout_loops(layers, c, side)
        except ConsistencyError:
            raised += 1
            with pytest.raises(ConsistencyError) as got:
                oracle(g1, c, formula)
            with pytest.raises(ConsistencyError) as e:
                credit_readout_loops(won, c, "sys")
            assert str(got.value) == str(e.value)
        else:
            assert oracle(g1, c, formula).values.tolist() == want
    assert 50 < raised < 350


@pytest.mark.parametrize("text", ["mu X . credit0 | <>X", "nu X . _credit0 & <>X"])
def test_credit_bits_are_not_atoms(g1, text):
    # the credit bits are unnamed: an atom naming no game variable is
    # refused by the oracle as by the engine, on both sides
    f = fm.parse_formula(text)
    for evaluate in (eval_energy, oracle_min_credit_sys):
        with pytest.raises(MalformedAssertionError, match="unknown variable"):
            evaluate(g1, 2, f)
    for evaluate in (eval_energy, oracle_max_credit_env):
        with pytest.raises(MalformedAssertionError, match="unknown variable"):
            evaluate(g1, 2, fm.negate(f))


def test_a_game_variable_named_like_a_credit_bit():
    vs = VariableSet(("x", "credit0"), frozenset({"x"}))
    g = WeightedGameStructure(
        vars=vs,
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("credit0'"), -1),
                 WeightRule(parse_assertion("true"), 1)),
    )
    f = fm.parse_formula("nu X . credit0 & <>X")
    for c in (0, 1, 3):
        assert oracle_min_credit_sys(g, c, f) == eval_energy(g, c, f)
        assert oracle_max_credit_env(g, c, fm.negate(f)) == eval_energy(
            g, c, fm.negate(f))
    f = fm.parse_formula("nu X . _credit0 & <>X")
    for evaluate in (eval_energy, oracle_min_credit_sys):
        with pytest.raises(MalformedAssertionError, match="unknown variable"):
            evaluate(g, 3, f)
