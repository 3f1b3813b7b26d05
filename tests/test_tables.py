"""Transition tables shared between states by row."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emu import (
    INF,
    EnergyFunction,
    VariableSet,
    WeightRule,
    WeightedGameStructure,
    cpre_sys,
    crosscheck_parity,
    ecpre,
    ecpre_env,
    eval_energy,
    oracle_max_credit_env,
    oracle_min_credit_sys,
    parse_assertion,
)
from emu import assertions as asr
from emu import formulas as fm
from emu.errors import IncompleteWeightCoverError, MalformedAssertionError
from emu.randgen import random_assertion, random_formula, random_priorities
from emu.tables import build_tables, cell_bits, read_positions
from oracles import (State, all_states, cpre_sys_enum, ecpre_env_cases, ecpre_enum,
                     eval_assertion)


def _row_game(rng, n, read_mask, primed_mask):
    """A random priority-annotated game of ``n`` variables whose transition
    assertions and weight guards read exactly the variables in ``read_mask``
    unprimed, and primed the inputs and exactly the outputs in
    ``primed_mask``."""
    names = tuple(f"v{i}" for i in range(n))
    read = [v for i, v in enumerate(names) if (read_mask >> i) & 1]
    vs = VariableSet(names, frozenset(rng.sample(names, rng.randint(0, n))))
    read_out = [v for i, v in enumerate(names)
                if (primed_mask >> i) & 1 and v not in vs.inputs]
    primed = [*vs.x_names, *read_out]

    def live(primed):  # mostly live: the constraint can often be escaped
        if rng.random() < 0.3:
            return asr.TRUE
        return asr.Or(random_assertion(rng, read, primed, depth=2),
                      random_assertion(rng, read, primed, depth=1))

    rules = [WeightRule(random_assertion(rng, read, primed, depth=2),
                        rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]
    atoms = [asr.Var(v) for v in read] + [asr.Var(v, primed=True) for v in read_out]
    if atoms:  # a guard that mentions every variable of both masks
        every = atoms[0]
        for v in atoms[1:]:
            every = asr.Or(every, v)
        rules.insert(rng.randint(0, len(rules)), WeightRule(every, rng.randint(-3, 3)))
    rules.append(WeightRule(asr.TRUE, rng.randint(-3, 3)))
    return WeightedGameStructure(
        vars=vs, rho_e=live(vs.x_names), rho_s=live(primed), weights=tuple(rules),
        priorities=random_priorities(rng, vs),
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 6), st.data())
def test_row_sharing_matches_the_scalar_references(seed, n, data):
    rng = random.Random(seed)
    read_mask = data.draw(st.integers(0, (1 << n) - 1))
    # the outputs read primed: none, all, or some
    primed_mask = data.draw(st.sampled_from([0, (1 << n) - 1])
                            | st.integers(0, (1 << n) - 1))
    g = _row_game(rng, n, read_mask, primed_mask)
    t = g.tables()
    states = np.arange(g.n_states)
    s_positions = [p for p in range(n) if (read_mask >> p) & 1]
    want_row = sum((((states >> p) & 1) << j for j, p in enumerate(s_positions)),
                   np.zeros_like(states))
    assert t.rho_e.shape[1] == 1 << len(s_positions)
    assert np.array_equal(t.row, want_row)
    read_out = [p for p, v in enumerate(g.vars.names)
                if v not in g.vars.inputs and (primed_mask >> p) & 1]
    assert read_positions(g) == (tuple(s_positions), tuple(read_out))
    assert t.weight.shape == (1 << len(read_out), 1 << len(g.vars.inputs),
                              t.rho_e.shape[1])
    assert t.succ.size == g.n_states

    c = rng.randint(0, 3)
    pool = list(range(c + 1)) + [int(INF)]
    f = EnergyFunction(c, np.array([rng.choice(pool) for _ in states]))
    assert ecpre(g, c, f) == ecpre_enum(g, c, f)
    assert ecpre_env(g, c, f) == ecpre_env_cases(g, c, f)
    target = f.is_finite()
    want = cpre_sys_enum(g, lambda s: target[s.index])
    assert cpre_sys(g, target).tolist() == [State(g.vars, i) in want for i in states]

    _, psi = random_formula(rng, g.vars)
    assert eval_energy(g, c, psi) == oracle_min_credit_sys(g, c, psi)
    dual = fm.negate(psi)
    assert eval_energy(g, c, dual) == oracle_max_credit_env(g, c, dual)
    assert crosscheck_parity(g, c) == ()


def test_every_variable_read_gives_one_row_per_state():
    g = WeightedGameStructure(
        vars=VariableSet(("x", "y", "z"), frozenset({"x"})),
        rho_e=parse_assertion("x -> x'"),
        rho_s=parse_assertion("y | z'"),
        weights=(WeightRule(parse_assertion("z"), -1),
                 WeightRule(parse_assertion("true"), 1)),
    )
    t = g.tables()
    assert np.array_equal(t.row, np.arange(g.n_states))
    # rho_s reads z', the only output read primed: 2 read outputs, y free
    assert t.weight.shape == (2, 1 << len(g.vars.inputs), g.n_states) == (2, 2, 8)


def test_uncovered_move_is_named_by_state():
    # The guards read c and b' only, so the tables hold 2 rows.  The first
    # uncovered moves are those from row 1 (c) into b', whatever a' and c'
    # are; their minterm reads back as the guard that covers them.
    g = WeightedGameStructure(
        vars=VariableSet(("a", "b", "c"), frozenset({"a"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("!c | !b'"), 1),),
    )
    with pytest.raises(IncompleteWeightCoverError,
                       match=r"transitions where c & b'$"):
        g.tables()
    guard = WeightRule(parse_assertion("c & b'"), 2)
    dataclasses.replace(g, weights=g.weights + (guard,)).tables()


@pytest.mark.parametrize("rho_s", ["every-row", "every-output-free"])
def test_building_the_tables_stays_near_the_memory_charge(rho_s):
    """``check_memory`` charges 16 bytes per cell and 24 per state; the
    build may pass that by its small arrays, not by a factor of the
    variables read.  A layout with one int64 per (index, bit) of an axis
    peaks at about 4x the charge on these 18-variable games."""
    import tracemalloc

    names = tuple(f"v{i}" for i in range(18))
    g = WeightedGameStructure(
        vars=VariableSet(names, frozenset({"v0"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion(" | ".join(names) if rho_s == "every-row" else "true"),
        weights=(WeightRule(parse_assertion("true"), 1),),
    )
    charge = (16 << cell_bits(g)) + (24 << len(names))
    tracemalloc.start()
    try:
        build_tables(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * charge


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.randoms(use_true_random=False))
def test_state_mask_matches_the_scalar_reference(n, rng):
    names = ("a", "b", "c", "d", "e", "f")[:n]
    g = WeightedGameStructure(VariableSet(names, frozenset()), asr.TRUE, asr.TRUE,
                              (WeightRule(asr.TRUE, 0),))
    a = random_assertion(rng, names, depth=3)
    mask = g.tables().state_mask(a)
    assert mask.tolist() == [eval_assertion(a, s) for s in all_states(g.vars)]
    assert mask.flags.writeable
    mask[:] = ~mask  # a fresh array: the next mask is not this one
    assert g.tables().state_mask(a).tolist() != mask.tolist()


@pytest.mark.parametrize("text", ["a", "!a", "true", "false", "a | !a"])
def test_state_mask_of_one_variable_is_writeable(text):
    g = WeightedGameStructure(VariableSet(("a",), frozenset()), asr.TRUE, asr.TRUE,
                              (WeightRule(asr.TRUE, 0),))
    mask = g.tables().state_mask(parse_assertion(text))
    assert mask.shape == (2,) and mask.flags.writeable


def test_state_mask_refuses_primed_then_unknown_variables():
    g = WeightedGameStructure(VariableSet(("a",), frozenset()), asr.TRUE, asr.TRUE,
                              (WeightRule(asr.TRUE, 0),))
    with pytest.raises(MalformedAssertionError, match="primed variable w'"):
        g.tables().state_mask(parse_assertion("a & w'"))
    with pytest.raises(MalformedAssertionError, match="unknown variable 'w'"):
        g.tables().state_mask(parse_assertion("a & w"))
