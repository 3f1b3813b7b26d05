import dataclasses
import random

import numpy as np
import pytest

from emu import (
    PriorityRule,
    VariableSet,
    WeightRule,
    WeightedGameStructure,
    parse_assertion,
)
from emu.assertions import TRUE
from emu.errors import (
    EmuError,
    IncompleteWeightCoverError,
    MalformedAssertionError,
    NotAnIntegerError,
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
    with pytest.raises(EmuError, match=r"input variables not declared: \['z'\]"):
        VariableSet(("x",), frozenset({"z"}))
    vs = VariableSet(("x", "y"), frozenset({"x"}))
    assert vs.x_names == ("x",) and vs.y_names == ("y",)


@pytest.mark.parametrize("name", ["a & !b", 'q"x', "1x", ""])
def test_variable_names_must_be_identifiers(name):
    """Every state's minterm parses back, so a name that is not one
    identifier is refused, in code and in a game file."""
    from emu.errors import GameFormatError
    from emu.gamefile import game_from_dict

    with pytest.raises(EmuError, match=r"^variable name .* is not an identifier$"):
        VariableSet((name, "b"), frozenset())
    with pytest.raises(GameFormatError, match="is not an identifier"):
        game_from_dict({"vars": ["b", name], "inputs": [], "rho_e": "true",
                        "rho_s": "true", "weights": []})


def test_games_too_large_for_memory_are_refused(monkeypatch):
    from emu import reduce_game, tables

    # 10 variables, all read by a weight guard, which reads every output
    # primed too: one table row per state and one read output per output
    # assignment, so 4^10 cells of 16 bytes, about 16 MiB
    monkeypatch.setattr(tables, "_available_memory", lambda: 16 << 20)
    names = tuple(f"v{i}" for i in range(10))

    def reads_all(vars_):  # v0 is the input
        return [(" & ".join([*vars_, *(f"{v}'" for v in vars_[1:])]), 1),
                ("true", 0)]

    with pytest.raises(StateCapError, match="10 variables need about 16 MiB"):
        _game(vars_=names, inputs=("v0",), weights=reads_all(names)).tables()
    small = _game(vars_=names[:9], inputs=("v0",), weights=reads_all(names[:9]))
    assert small.tables().n_states == 512
    with pytest.raises(StateCapError):
        reduce_game(small, 1)
    # transitions that read 2 of the 10 variables share 4 rows between states
    narrow = _game(rho_s="v1 -> v2'", weights=[("v2", 1), ("true", 0)],
                   vars_=names, inputs=("v0",))
    assert narrow.tables().n_states == 1024 and narrow.tables().rho_e.shape[1] == 4


def test_memory_counts_only_the_outputs_the_moves_read(fixtures_dir, monkeypatch):
    import dataclasses

    from emu import load_game, tables

    # 20 variables, 7 read unprimed, 10 inputs and 2 of the 10 outputs read
    # primed: 2^19 cells of 16 bytes and 2^20 states of 24, about 32 MiB
    monkeypatch.setattr(tables, "_available_memory", lambda: 64 << 20)
    game = load_game(fixtures_dir / "local20.game")
    t = game.tables()
    assert t.weight.shape == (4, 1 << 10, 1 << 7) and t.succ.shape == (4, 1 << 10, 256)
    # a guard that reads every output primed needs 2^27 cells, 2 GiB
    every = parse_assertion(" & ".join(f"{v}'" for v in game.vars.y_names))
    wide = dataclasses.replace(game, weights=(WeightRule(every, 1), *game.weights))
    with pytest.raises(StateCapError, match="20 variables need about 2072 MiB"):
        wide.tables()


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


def test_priorities_must_fit_in_int64():
    # the tables hold priorities as int64, so 2^63 is refused up front
    y, not_y = parse_assertion("y"), parse_assertion("!y")
    with pytest.raises(EmuError, match="does not fit in 64 bits"):
        PriorityRule(y, 1 << 63)
    top = PriorityRule(y, (1 << 63) - 1)
    game = dataclasses.replace(_game(), priorities=(top, PriorityRule(not_y, 1)))
    assert game.tables().prio.tolist() == [1, 1, (1 << 63) - 1, (1 << 63) - 1]


@pytest.mark.parametrize("guard", ["y'", "z"])
def test_priority_guards_read_only_game_variables_unprimed(guard):
    with pytest.raises(EmuError, match="priorities must be natural numbers"):
        PriorityRule(parse_assertion("y"), -1)
    rule = PriorityRule(parse_assertion(guard), 0)
    with pytest.raises(MalformedAssertionError, match=f"pure-state .* got {guard}$"):
        dataclasses.replace(_game(), priorities=(rule,))


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


@pytest.mark.parametrize("value", [2.5, 1.0, True, False, np.bool_(True), "3", None])
def test_weights_and_priorities_must_be_integers(value):
    # a float, a bool or a string would be read as some other number, or
    # fail later inside the tables; the rules refuse it up front
    y = parse_assertion("y")
    with pytest.raises(NotAnIntegerError, match=f"a weight must be an integer, got {value!r}$"):
        WeightRule(y, value)
    with pytest.raises(EmuError, match=f"a priority must be an integer, got {value!r}$"):
        PriorityRule(y, value)


def test_numpy_integers_are_stored_as_python_ints():
    import math
    import warnings

    from emu import builtin, compute_bound, solve
    from emu.errors import InvalidCreditError

    y = parse_assertion("y")
    assert type(PriorityRule(y, np.int64(3)).priority) is int
    # 8 variables and a weight of 2^58: the bound overflows 64 bits, so it
    # must be computed with Python ints, and then be refused
    names = tuple(f"v{i}" for i in range(8))
    game = dataclasses.replace(_game(vars_=names, inputs=("v0",)),
                               weights=(WeightRule(TRUE, np.int64(1 << 58)),))
    assert type(game.weights[0].weight) is int
    buchi = builtin("buchi", J="v1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compute_bound(game, buchi).bound == 37925929354794534699008
        with pytest.raises(InvalidCreditError, match="computed sufficient bound"):
            solve(game, buchi, math.inf)


@pytest.mark.parametrize("text, error", [
    ("<>X", "the winning formula must be closed"),
    ("nu X . y & <>Z", "the winning formula must be closed"),
    ("mu X . !X", "odd number of negations"),
    ("nu X . <>!(mu Y . !Y | X)", "odd number of negations"),
])
def test_game_formula_must_be_closed_and_monotone(text, error):
    from emu import parse_formula

    with pytest.raises(EmuError, match=error):
        dataclasses.replace(_game(), formula=parse_formula(text))
    dataclasses.replace(_game(), formula=parse_formula("nu X . <>X"))
