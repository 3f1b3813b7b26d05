"""Transition tables shared between states by row."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emu import (
    INF,
    EnergyFunction,
    State,
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
from emu.errors import IncompleteWeightCoverError
from emu.randgen import random_assertion, random_formula, random_priorities
from oracles import cpre_sys_enum, ecpre_env_cases, ecpre_enum


def _row_game(rng, n, read_mask):
    """A random priority-annotated game of ``n`` variables whose transition
    assertions and weight guards read exactly the variables in ``read_mask``
    unprimed, and any variable primed."""
    names = tuple(f"v{i}" for i in range(n))
    read = [v for i, v in enumerate(names) if (read_mask >> i) & 1]
    vs = VariableSet(names, frozenset(rng.sample(names, rng.randint(0, n))))

    def live(primed):  # mostly live: the constraint can often be escaped
        if rng.random() < 0.3:
            return asr.TRUE
        return asr.Or(random_assertion(rng, read, primed, depth=2),
                      random_assertion(rng, read, primed, depth=1))

    rules = [WeightRule(random_assertion(rng, read, names, depth=2),
                        rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]
    if read:  # a guard that mentions every variable of read_mask
        every = asr.Var(read[0])
        for v in read[1:]:
            every = asr.Or(every, asr.Var(v))
        rules.insert(rng.randint(0, len(rules)), WeightRule(every, rng.randint(-3, 3)))
    rules.append(WeightRule(asr.TRUE, rng.randint(-3, 3)))
    return WeightedGameStructure(
        vars=vs, rho_e=live(vs.x_names), rho_s=live(names), weights=tuple(rules),
        priorities=random_priorities(rng, vs),
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 6), st.data())
def test_row_sharing_matches_the_scalar_references(seed, n, data):
    rng = random.Random(seed)
    read_mask = data.draw(st.integers(0, (1 << n) - 1))
    g = _row_game(rng, n, read_mask)
    t = g.tables()
    states = np.arange(g.n_states)
    s_positions = [p for p in range(n) if (read_mask >> p) & 1]
    want_row = sum((((states >> p) & 1) << j for j, p in enumerate(s_positions)),
                   np.zeros_like(states))
    assert len(t.rho_e) == 1 << len(s_positions)
    assert np.array_equal(t.row, want_row)

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
    assert crosscheck_parity(g, c).ok


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
    assert t.weight.shape == (g.n_states, t.n_inputs, t.n_outputs)


def test_uncovered_move_is_named_by_state():
    # The guards read only c (position 2), so the tables hold 2 rows.  The
    # first uncovered state is c, index 4 on row 1; its first uncovered move
    # takes input 0 (a' false) and output 1 (b' true, c' false).
    g = WeightedGameStructure(
        vars=VariableSet(("a", "b", "c"), frozenset({"a"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("!c | !b'"), 1),),
    )
    with pytest.raises(IncompleteWeightCoverError,
                       match=r"\(state 4, input 0, output 1\)"):
        g.tables()
