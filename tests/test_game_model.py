import random

import pytest

from emu import (
    VariableSet,
    WeightRule,
    WeightedGameStructure,
    parse_assertion,
)
from emu.errors import (
    IncompleteWeightCoverError,
    MalformedAssertionError,
    StateCapError,
    WeightDomainError,
)
from oracles import (
    MissingNextStateError,
    all_states,
    env_choices,
    eval_assertion,
    state_of,
    sys_choices,
    weight,
)


def _game(rho_e="true", rho_s="true", weights=None, vars_=("x", "y"), inputs=("x",)):
    return WeightedGameStructure(
        vars=VariableSet(tuple(vars_), frozenset(inputs)),
        rho_e=parse_assertion(rho_e),
        rho_s=parse_assertion(rho_s),
        weights=tuple(
            WeightRule(parse_assertion(g), w) for g, w in (weights or [("true", 0)])
        ),
    )


def test_variable_set_validation():
    with pytest.raises(Exception):
        VariableSet(("x", "x"), frozenset())
    with pytest.raises(StateCapError):
        VariableSet(tuple(f"v{i}" for i in range(25)), frozenset())
    vs = VariableSet(("x", "y"), frozenset({"x"}))
    assert vs.x_names == ("x",) and vs.y_names == ("y",)


def test_games_too_large_for_memory_are_refused(monkeypatch):
    from emu import reduce_game, tables

    # 10 variables, all read by a weight guard: one table row per state, so
    # 4^10 move cells of 17 bytes, about 17 MiB
    monkeypatch.setattr(tables, "_available_memory", lambda: 16 << 20)
    names = tuple(f"v{i}" for i in range(10))

    def reads_all(vars_):
        return [(" & ".join(vars_), 1), ("true", 0)]

    with pytest.raises(StateCapError, match="10 variables need about 17 MiB"):
        _game(vars_=names, inputs=("v0",), weights=reads_all(names)).tables()
    small = _game(vars_=names[:9], inputs=("v0",), weights=reads_all(names[:9]))
    assert small.tables().n_states == 512
    with pytest.raises(StateCapError):
        reduce_game(small, 1)
    # transitions that read 2 of the 10 variables share 4 rows between states
    narrow = _game(rho_s="v1 -> v2'", weights=[("v2", 1), ("true", 0)],
                   vars_=names, inputs=("v0",))
    assert narrow.tables().n_states == 1024 and len(narrow.tables().rho_e) == 4


def test_state_round_trip():
    vs = VariableSet(("x", "y", "z"), frozenset({"y"}))
    s = state_of(vs, {"x", "z"})
    assert s.value("x") and not s.value("y") and s.value("z")
    assert s.minterm() == "x & !y & z"


def test_eval_assertion_examples(g1):
    s = state_of(g1.vars, set())          # {!x, !y}
    t = state_of(g1.vars, {"x", "y"})
    assert eval_assertion(parse_assertion("y'"), s, t) is True
    s2 = state_of(g1.vars, {"x"})
    assert eval_assertion(parse_assertion("x & !y"), s2) is True
    assert eval_assertion(parse_assertion("true"), s) is True


def test_eval_assertion_errors(g1):
    s = state_of(g1.vars, set())
    with pytest.raises(MissingNextStateError):
        eval_assertion(parse_assertion("y'"), s)
    with pytest.raises(MalformedAssertionError):
        eval_assertion(parse_assertion("nope"), s)


def test_choices_and_deadlocks(g1):
    s = state_of(g1.vars, set())
    assert env_choices(g1, s) == {frozenset(), frozenset({"x"})}
    assert sys_choices(g1, s, frozenset()) == {frozenset(), frozenset({"y"})}
    assert env_choices(g1, s)
    assert sys_choices(g1, s, frozenset())

    dead_env = _game(rho_e="false")
    for t in all_states(dead_env.vars):
        assert not env_choices(dead_env, t)

    dead_sys = _game(rho_s="!y' & y'")
    for t in all_states(dead_sys.vars):
        for s_x in env_choices(dead_sys, t):
            assert not sys_choices(dead_sys, t, s_x)


def test_empty_input_set_convention():
    g = _game(vars_=("y",), inputs=())
    s = state_of(g.vars, set())
    assert env_choices(g, s) == {frozenset()}
    g_dead = _game(vars_=("y",), inputs=(), rho_e="false")
    assert env_choices(g_dead, state_of(g_dead.vars, set())) == set()


def test_weight_first_match(g1):
    s = state_of(g1.vars, set())
    t_y = state_of(g1.vars, {"y"})
    t_n = state_of(g1.vars, {"x"})
    assert weight(g1, s, t_y) == -1
    assert weight(g1, s, t_n) == 1
    g0 = _game(weights=[("true", 0)])
    for t in all_states(g0.vars):
        assert weight(g0, state_of(g0.vars, set()), t) == 0


def test_weight_errors():
    g = _game(rho_s="y'")
    s = state_of(g.vars, set())
    with pytest.raises(WeightDomainError):
        weight(g, s, state_of(g.vars, set()))  # not a rho_s transition
    g_partial = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("y'"), -1),),
    )
    with pytest.raises(IncompleteWeightCoverError):
        weight(g_partial, s, state_of(g_partial.vars, set()))
    with pytest.raises(IncompleteWeightCoverError):
        g_partial.tables()


def test_rho_e_must_not_mention_primed_outputs():
    with pytest.raises(MalformedAssertionError):
        _game(rho_e="y'")


def test_empty_output_set_convention():
    g = _game(vars_=("x",), inputs=("x",), rho_s="x'")
    s = state_of(g.vars, set())
    assert sys_choices(g, s, frozenset({"x"})) == {frozenset()}
    assert sys_choices(g, s, frozenset()) == set()
    assert not sys_choices(g, s, frozenset())


def test_weight_total_on_sampled_transitions():
    from emu.randgen import random_wgs

    rng = random.Random(97)
    for _ in range(20):
        g = random_wgs(rng, 2, 3)
        for s in all_states(g.vars):
            for t in all_states(g.vars):
                if eval_assertion(g.rho_s, s, t):
                    weight(g, s, t)  # must not raise
