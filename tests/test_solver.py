import math
import random

import dataclasses
import pytest

from emu import (
    INF,
    EnergyFunction,
    SolveRequest,
    compute_bound,
    crosscheck_parity,
    env_max_credit,
    eval_energy,
    load_priorities,
    neg,
    solve,
    winning_regions,
)
from emu import formulas as fm
from emu.errors import EmuError, FragmentError, InvalidCreditError
from emu.randgen import random_formula, random_wgs


def test_sufficient_bound_variants(g1, fixtures_dir):
    assert compute_bound(g1, fm.builtin("safety")).bound == 118
    assert compute_bound(g1, fm.builtin("buchi", J="y")).bound == 38
    with_prio = dataclasses.replace(
        g1, priorities=load_priorities(fixtures_dir / "g1_buchi.prio"))
    assert compute_bound(with_prio, fm.builtin("buchi", J="y")).bound == 38
    bb = compute_bound(g1, fm.builtin("safety"))
    assert (bb.n_states, bb.max_abs_weight, bb.formula_length,
            bb.alternation_depth, bb.variant) == (4, 1, 3, 1, "general")


def test_bound_clamped_to_max_weight():
    # with zero weights every variant yields 0, which the clamp keeps at K=0
    rng = random.Random(1)
    g = random_wgs(rng, 2, 2, max_weight=0)
    assert g.max_abs_weight == 0
    assert compute_bound(g, fm.builtin("safety")).bound == 0


def test_solve_finite_bounds(g1):
    buchi = fm.builtin("buchi", J="y")
    rep = solve(SolveRequest(game=g1, formula=buchi, bound=2))
    assert rep.effective_bound == 2 and not rep.unbounded
    assert rep.min_credits == EnergyFunction.top(2, g1.n_states)
    assert rep.sys_region.all() and not rep.env_region.any()

    rep0 = solve(SolveRequest(game=g1, formula=buchi, bound=0))
    assert rep0.min_credits == EnergyFunction.bottom(0, g1.n_states)
    assert not rep0.sys_region.any() and rep0.env_region.all()


def test_solve_unbounded(g1):
    from emu import oracle_min_credit_sys

    buchi = fm.builtin("buchi", J="y")
    rep = solve(SolveRequest(game=g1, formula=buchi, bound=math.inf))
    assert rep.unbounded and rep.effective_bound == 38
    assert rep.min_credits == EnergyFunction.top(38, g1.n_states)
    # regions stabilize at and beyond the sufficient bound, per the oracle
    assert oracle_min_credit_sys(g1, 38, buchi) == rep.min_credits
    again = solve(SolveRequest(game=g1, formula=buchi, bound=76))
    assert (rep.sys_region == again.sys_region).all()
    assert oracle_min_credit_sys(g1, 76, buchi) == again.min_credits


def test_solve_rejects_open_formula(g1):
    with pytest.raises((FragmentError, EmuError)):
        solve(SolveRequest(game=g1, formula=fm.parse_formula("<>X"), bound=1))


@pytest.mark.parametrize("bound", [2.7, "3", -1])
def test_solve_rejects_a_bound_that_is_not_a_natural_number(g1, bound):
    with pytest.raises(InvalidCreditError):
        solve(SolveRequest(game=g1, formula=fm.builtin("safety"), bound=bound))


def test_winning_regions_partition(g1):
    w_sys, w_env = winning_regions(g1, 2, fm.builtin("buchi", J="y"))
    assert w_sys.all() and not w_env.any()
    w_sys0, w_env0 = winning_regions(g1, 0, fm.builtin("buchi", J="y"))
    assert not w_sys0.any() and w_env0.all()


def test_winning_regions_env_deadlock_game():
    from emu import VariableSet, WeightRule, WeightedGameStructure, parse_assertion

    g = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("false"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("true"), -1),),
    )
    w_sys, w_env = winning_regions(g, 1, fm.builtin("safety"))
    assert w_sys.all() and not w_env.any()


def test_env_max_credit_recovery(g1):
    buchi = fm.builtin("buchi", J="y")
    rep2 = env_max_credit(g1, 2, buchi)
    assert rep2.dual_value == EnergyFunction.bottom(2, g1.n_states)
    assert rep2.recovered_min_credits == eval_energy(g1, 2, buchi)
    assert rep2.max_env_credit(0) is None
    assert not rep2.env_wins_all_credits(0)

    rep0 = env_max_credit(g1, 0, buchi)
    assert rep0.dual_value == EnergyFunction.top(0, g1.n_states)
    assert rep0.recovered_min_credits == eval_energy(g1, 0, buchi)
    assert rep0.max_env_credit(0) == 0
    assert rep0.env_wins_all_credits(0)


def test_env_recovery_matches_direct_random():
    rng = random.Random(73)
    for _ in range(30):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        _, psi = random_formula(rng, g.vars)
        rep = env_max_credit(g, c, psi)
        assert rep.recovered_min_credits == eval_energy(g, c, psi)
        assert rep.dual_value == neg(eval_energy(g, c, psi))


def test_crosscheck_parity_g1(g1, fixtures_dir):
    g = dataclasses.replace(
        g1, priorities=load_priorities(fixtures_dir / "g1_buchi.prio"))
    rep2 = crosscheck_parity(g, 2)
    assert rep2.ok and rep2.mismatches == ()
    rep0 = crosscheck_parity(g, 0)
    assert rep0.ok
    # formula agrees with the stock buchi evaluation at both bounds
    buchi = fm.builtin("buchi", J="y")
    for c, want in ((2, 0), (0, int(INF))):
        credits = eval_energy(g, c, rep2.formula)
        assert credits == eval_energy(g, c, buchi)
        assert all(int(v) == want for v in credits.values)


def test_crosscheck_parity_random():
    rng = random.Random(79)
    for _ in range(25):
        g = random_wgs(rng, 2, 3, priorities=True)
        c = rng.randint(0, 6)
        rep = crosscheck_parity(g, c)
        assert rep.ok, rep.mismatches


def test_bound_monotonicity_random():
    rng = random.Random(83)
    for _ in range(25):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 5)
        _, psi = random_formula(rng, g.vars)
        lo = eval_energy(g, c, psi)
        for dc in (1, 5):
            hi = eval_energy(g, c + dc, psi)
            # larger bounds require no more credit on winning states and
            # never shrink the winning region
            assert (hi.values <= lo.values).all()
            assert (lo.is_finite() <= hi.is_finite()).all()


def test_stabilization_at_sufficient_bound_random():
    rng = random.Random(89)
    for _ in range(8):
        g = random_wgs(rng, 2, 2, max_weight=1)
        _, psi = random_formula(rng, g.vars)
        b = compute_bound(g, psi).bound
        w_b = eval_energy(g, b, psi).is_finite()
        w_2b = eval_energy(g, 2 * b, psi).is_finite()
        w_2bk = eval_energy(g, 2 * b + g.max_abs_weight, psi).is_finite()
        assert (w_b == w_2b).all()
        assert (w_b == w_2bk).all()


def test_credit_cap_at_sufficient_bound_random():
    # winning credits at the computed bound stay within the credit cap
    # ((N^2+N)m - 1)K that makes them valid without any bound
    rng = random.Random(97)
    checked = 0
    for _ in range(10):
        g = random_wgs(rng, 2, 2, max_weight=1)
        psi = fm.builtin("cobuchi", J="a")  # general-variant shape
        bb = compute_bound(g, psi)
        assert bb.variant == "general"
        n, k, m = bb.n_states, bb.max_abs_weight, bb.formula_length
        cap = ((n * n + n) * m - 1) * k
        credits = eval_energy(g, bb.bound, psi)
        finite = credits.values[credits.is_finite()]
        assert (finite <= cap).all()
        checked += finite.size
    assert checked > 0
