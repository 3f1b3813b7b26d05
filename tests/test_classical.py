import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emu import (
    FixpointStats,
    VariableSet,
    WeightRule,
    WeightedGameStructure,
    cpre_env,
    cpre_sys,
    eval_classical,
    parse_assertion,
)
from emu import formulas as fm
from emu.errors import EmuError, NonMonotoneFormulaError, UnboundVariableError
from emu.randgen import random_wgs
from oracles import (buchi_loop_classical, cpre_env_enum, cpre_sys_enum,
                     eval_classical_plain, nested_formulas)


def _mask(game, *indices):
    out = np.zeros(game.n_states, dtype=bool)
    out[list(indices)] = True
    return out


def _game(rho_e="true", rho_s="true"):
    return WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion(rho_e),
        rho_s=parse_assertion(rho_s),
        weights=(WeightRule(parse_assertion("true"), 0),),
    )


def test_cpre_sys_full_and_empty(g1):
    full = np.ones(g1.n_states, dtype=bool)
    assert cpre_sys(g1, full).all()
    assert not cpre_sys(g1, ~full).any()


def test_cpre_sys_y_states(g1):
    y_set = g1.tables().state_mask(parse_assertion("y"))
    got = cpre_sys(g1, y_set)
    want = cpre_sys_enum(g1, lambda t: t.value("y"))
    assert got.all()  # the system can always pick y'
    assert {s.index for s in want} == set(np.nonzero(got)[0])


def test_cpre_env(g1):
    full = np.ones(g1.n_states, dtype=bool)
    assert cpre_env(g1, full).all()
    y_set = g1.tables().state_mask(parse_assertion("y"))
    got = cpre_env(g1, y_set)
    assert not got.any()  # the system can always deviate to !y'
    dead = _game(rho_e="false")
    assert not cpre_env(dead, np.ones(dead.n_states, dtype=bool)).any()


def test_cpre_matches_enumeration_random():
    rng = random.Random(3)
    for _ in range(25):
        g = random_wgs(rng, 2, 3)
        member_mask = np.array([rng.random() < 0.5 for _ in range(g.n_states)])
        want_sys = {s.index for s in cpre_sys_enum(g, lambda t: member_mask[t.index])}
        want_env = {s.index for s in cpre_env_enum(g, lambda t: member_mask[t.index])}
        assert set(np.nonzero(cpre_sys(g, member_mask))[0]) == want_sys
        assert set(np.nonzero(cpre_env(g, member_mask))[0]) == want_env


def test_cpre_refuses_a_target_that_is_not_a_state_set(g1):
    # 3 entries on the 4 states of the fixture raised an IndexError, and 5
    # were read as 4
    for bad, what in ((np.ones(3, dtype=bool), r"got bool of shape \(3,\)"),
                      (np.ones(5, dtype=bool), r"got bool of shape \(5,\)"),
                      (np.ones(4, dtype=np.int64), r"got int64 of shape \(4,\)")):
        for step in (cpre_sys, cpre_env):
            with pytest.raises(EmuError, match="the target must be a bool array"
                               " over 4 states, " + what):
                step(g1, bad)


def test_eval_safety_g1(g1):
    got = eval_classical(g1, fm.builtin("safety"))
    assert got.all()


def test_eval_lfp_empty(g1):
    f = fm.parse_formula("mu X . (false | <>X)")
    assert not eval_classical(g1, f).any()


def test_eval_buchi_g1(g1):
    f = fm.builtin("buchi", J="y")
    got = eval_classical(g1, f)
    j = g1.tables().state_mask(parse_assertion("y"))
    assert (got == buchi_loop_classical(g1, j)).all()
    assert got.all()


def test_eval_rejects_bad_input(g1):
    with pytest.raises(NonMonotoneFormulaError):
        eval_classical(g1, fm.parse_formula("mu X . !X"))
    with pytest.raises(UnboundVariableError):
        eval_classical(g1, fm.parse_formula("<>X"))


def test_valuation_lookup(g1):
    f = fm.parse_formula("<>X")
    v = {"X": _mask(g1, 0, 1, 2, 3)}
    assert eval_classical(g1, f, v).all()
    # a valuation holds one bool entry per state of the game, or is refused
    # before any step reads it
    for bad, what in ((np.ones(8, dtype=bool), r"over 4 states, got bool of shape \(8,\)"),
                      (np.ones(1, dtype=bool), r"over 4 states, got bool of shape \(1,\)"),
                      (np.ones(4, dtype=np.int64), r"over 4 states, got int64 of shape \(4,\)")):
        for g in (f, fm.parse_formula("X")):
            with pytest.raises(EmuError, match="valuation for 'X' must be a bool array "
                               + what):
                eval_classical(g1, g, {"X": bad})


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), nested_formulas())
def test_engine_matches_the_plain_set_semantics(seed, f):
    """The engine hoists invariant subterms and derives [] from <> by
    duality; the plain semantics does neither.  They agree on nested
    formulas, their negations and their complements."""
    g = random_wgs(random.Random(seed), 2, 3)
    got, want = eval_classical(g, f), eval_classical_plain(g, f)
    assert (got == want).all()
    for dual in (fm.negate(f), fm.Not(f)):
        assert (eval_classical(g, dual) == ~got).all()
        assert (eval_classical_plain(g, dual) == ~want).all()


def test_negation_is_complement_random():
    rng = random.Random(7)
    for _ in range(30):
        g = random_wgs(rng, 2, 3)
        for name in ("safety", "buchi"):
            f = fm.builtin(name, J="a") if name == "buchi" else fm.builtin(name)
            pos = eval_classical(g, f)
            neg = eval_classical(g, fm.Not(f))
            assert (neg == ~pos).all()


def test_determinacy_of_builtin_conditions():
    rng = random.Random(13)
    for _ in range(30):
        g = random_wgs(rng, 2, 3)
        kind = rng.choice(["safety", "reach", "buchi", "cobuchi"])
        param = {} if kind == "safety" else (
            {"p": "a"} if kind == "reach" else {"J": "a"})
        f = fm.builtin(kind, **param)
        w_sys = eval_classical(g, f)
        w_env = eval_classical(g, fm.negate(f))
        assert (w_sys | w_env).all()
        assert not (w_sys & w_env).any()


def test_buchi_loop_equivalence_random():
    rng = random.Random(23)
    for _ in range(40):
        g = random_wgs(rng, 2, 3)
        j = g.tables().state_mask(parse_assertion("a"))
        f = fm.builtin("buchi", J="a")
        assert (eval_classical(g, f) == buchi_loop_classical(g, j)).all()


def test_iteration_counts_within_cap(g1):
    stats = FixpointStats()
    eval_classical(g1, fm.builtin("buchi", J="y"), stats=stats)
    assert stats.fixpoints >= 2
    assert stats.within_caps()
