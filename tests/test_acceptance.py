"""Acceptance suite: one test per criterion, printing one line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines and
timings.  All comparisons are exact; the runtime targets are printed for
information and warned about, not asserted.
"""

import random
import time
import warnings
from functools import lru_cache

import numpy as np

from emu import (
    INF,
    EnergyFunction,
    FixpointStats,
    bound_ep,
    crosscheck_parity,
    ecpre,
    ecpre_env,
    eval_energy,
    join,
    leq,
    meet,
    neg,
    oracle_max_credit_env,
    oracle_min_credit_sys,
    solve_energy_parity,
)
from emu import formulas as fm
from emu.cli import run
from emu.randgen import random_assertion, random_wgs
from oracles import (
    buchi_loop_classical,
    buchi_loop_energy,
    ecpre_env_cases,
    random_energy_parity_game,
)
from emu import eval_classical

SUITE_SEED = 20240811


def _report(name, detail, started, target):
    elapsed = time.perf_counter() - started
    print(f"{name} PASS: {detail} ({elapsed:.1f}s, target <{target}s)")
    if elapsed >= target:
        warnings.warn(f"{name} exceeded its {target}s runtime target")


@lru_cache(maxsize=1)
def _suite_cases():
    """500 seeded games, each with a bound and four formula instances."""
    rng = random.Random(SUITE_SEED)
    cases = []
    for _ in range(500):
        game = random_wgs(rng, 2, 4, max_weight=2)
        c = rng.randint(0, 8)
        formulas = [("safety", fm.builtin("safety"))]
        for kind, param in (("reach", "p"), ("buchi", "J"), ("cobuchi", "J")):
            target = random_assertion(rng, game.vars.names, (), depth=1)
            formulas.append((kind, fm.builtin(kind, **{param: target})))
        cases.append((game, c, formulas))
    return cases


def test_ac01_system_side_reduction_suite():
    started = time.perf_counter()
    checked = 0
    for game, c, formulas in _suite_cases():
        for _kind, psi in formulas:
            assert eval_energy(game, c, psi) == oracle_min_credit_sys(game, c, psi)
            checked += 1
    _report("AC1", f"{checked} evaluator-vs-reduction comparisons, 0 mismatches",
            started, 60)


def test_ac02_environment_side_reduction_suite():
    started = time.perf_counter()
    checked = 0
    for game, c, formulas in _suite_cases():
        for _kind, psi in formulas:
            dual = fm.negate(psi)
            assert eval_energy(game, c, dual) == oracle_max_credit_env(game, c, dual)
            checked += 1
    _report("AC2", f"{checked} dual-side comparisons, 0 mismatches", started, 60)


def test_ac03_algebra_suite():
    started = time.perf_counter()
    rng = random.Random(SUITE_SEED + 3)
    games = [random_wgs(rng, 2, 3, max_weight=2) for _ in range(40)]

    def draw_fn(c, n):
        pool = list(range(c + 1)) + [int(INF)]
        return EnergyFunction(
            c, np.array([rng.choice(pool) for _ in range(n)], dtype=np.int64))

    for _ in range(1000):
        g = rng.choice(games)
        c = rng.randint(0, 6)
        n = g.n_states
        f, h = draw_fn(c, n), draw_fn(c, n)
        # involution and De Morgan identities
        assert neg(neg(f)) == f
        assert neg(meet(f, h)) == join(neg(f), neg(h))
        assert neg(join(f, h)) == meet(neg(f), neg(h))
        # duality of the step operators, against the environment step's
        # own case analysis; the library derives its ecpre_env by duality
        assert neg(ecpre(g, c, f)) == ecpre_env_cases(g, c, neg(f))
        assert ecpre_env(g, c, f) == ecpre_env_cases(g, c, f)
        # monotonicity of both step operators
        lower = meet(f, h)  # pointwise integer max: below both in the order
        assert leq(lower, f)
        assert leq(ecpre(g, c, lower), ecpre(g, c, f))
        assert leq(ecpre_env_cases(g, c, lower), ecpre_env_cases(g, c, f))

    # negation laws on evaluated formulas
    law_rng = random.Random(SUITE_SEED + 4)
    law_games = [random_wgs(law_rng, 2, 2, max_weight=2) for _ in range(25)]
    for _ in range(1000):
        g = law_rng.choice(law_games)
        c = law_rng.randint(0, 4)
        p = fm.Atom(random_assertion(law_rng, g.vars.names, (), depth=1))
        q = fm.Atom(random_assertion(law_rng, g.vars.names, (), depth=1))
        psi = fm.Or(p, fm.Diamond(q))
        xi = fm.And(q, fm.Box(p))
        ev = lambda f: eval_energy(g, c, f)
        assert ev(fm.Not(fm.Not(psi))) == ev(psi)
        assert ev(fm.Not(fm.And(psi, xi))) == ev(fm.Or(fm.Not(psi), fm.Not(xi)))
        assert ev(fm.Not(fm.Or(psi, xi))) == ev(fm.And(fm.Not(psi), fm.Not(xi)))
        assert ev(fm.Not(fm.Diamond(psi))) == ev(fm.Box(fm.Not(psi)))
        assert ev(fm.Not(fm.Box(psi))) == ev(fm.Diamond(fm.Not(psi)))
        mu = fm.Mu("X", fm.Or(p, fm.Diamond(fm.RelVar("X"))))
        nu_neg = fm.negate(mu)  # nu X . !p & [] X, via the fixpoint law
        assert ev(fm.Not(mu)) == ev(nu_neg)
    _report("AC3", "1000 algebra + 1000 negation-law instances, 0 failures",
            started, 30)


def test_ac04_handwritten_loop_equivalence():
    started = time.perf_counter()
    rng = random.Random(SUITE_SEED + 5)
    for _ in range(200):
        g = random_wgs(rng, 2, 3, max_weight=2)
        c = rng.randint(0, 6)
        target = random_assertion(rng, g.vars.names, (), depth=1)
        j_mask = g.tables().state_mask(target)
        classical = buchi_loop_classical(g, j_mask)
        generic = eval_classical(g, fm.builtin("buchi", J=target))
        assert (classical == generic).all()
        f_j = EnergyFunction(c, np.where(j_mask, 0, INF))
        energetic = buchi_loop_energy(g, c, f_j)
        assert energetic == eval_energy(g, c, fm.builtin("buchi", J=target))
    _report("AC4", "200 games, classical and energy loops match", started, 30)


def test_ac05_determinacy_partition():
    started = time.perf_counter()
    checked = 0
    for game, c, formulas in _suite_cases():
        for _kind, psi in formulas:
            w_sys = eval_energy(game, c, psi).is_finite()
            w_env = eval_energy(game, c, fm.negate(psi)).values == 0
            assert not (w_sys & w_env).any()
            assert (w_sys | w_env).all()
            checked += 1
    _report("AC5", f"{checked} region partitions, 0 violations", started, 60)


def test_ac06_energy_parity_bound_stabilization():
    started = time.perf_counter()
    rng = random.Random(SUITE_SEED + 6)
    for _ in range(200):
        ep = random_energy_parity_game(
            rng, max_states=8, max_priorities=3, max_weight=2)
        b = bound_ep(ep.n_states, ep.n_priorities, ep.max_abs_weight)
        at_b = solve_energy_parity(ep, b)
        winners = at_b != INF
        for factor in (2, 4):
            at_fb = solve_energy_parity(ep, factor * b)
            assert (winners == (at_fb != INF)).all()
        cap = (ep.n_states - 1) * ep.max_abs_weight
        assert (at_b[winners] <= cap).all()
    _report("AC6", "200 explicit games stable at 1x/2x/4x the bound",
            started, 120)


def test_ac07_parity_pipeline_consistency():
    started = time.perf_counter()
    rng = random.Random(SUITE_SEED + 7)
    for _ in range(100):
        game = random_wgs(rng, 2, 3, max_weight=2, priorities=True)
        c = rng.randint(0, 8)
        mismatches = crosscheck_parity(game, c)
        assert not mismatches, mismatches
    _report("AC7", "100 symbolic-vs-explicit parity solves, exact", started, 120)


def test_ac08_bound_monotonicity():
    started = time.perf_counter()
    rng = random.Random(SUITE_SEED + 8)
    for _ in range(100):
        game = random_wgs(rng, 2, 3, max_weight=2)
        c = rng.randint(0, 6)
        target = random_assertion(rng, game.vars.names, (), depth=1)
        psi = fm.builtin("buchi", J=target)
        lo = eval_energy(game, c, psi)
        for dc in (1, 5):
            hi = eval_energy(game, c + dc, psi)
            assert (hi.values <= lo.values).all()
            assert (lo.is_finite() <= hi.is_finite()).all()
    _report("AC8", "100 games monotone at c+1 and c+5, 0 violations",
            started, 60)


def test_ac09_iteration_caps():
    started = time.perf_counter()
    worst = 0
    for game, c, formulas in _suite_cases()[:60]:
        for _kind, psi in formulas:
            e_stats = FixpointStats()
            eval_energy(game, c, psi, stats=e_stats)
            c_stats = FixpointStats()
            eval_classical(game, psi, stats=c_stats)
            assert e_stats.within_caps() and c_stats.within_caps()
            worst = max(
                worst,
                max((apps - 1) / cap for apps, cap in e_stats.caps if cap),
                max((apps - 1) / cap for apps, cap in c_stats.caps if cap),
            )
    _report("AC9", f"all fixpoints within their caps (worst {worst:.0%} of cap)",
            started, 60)


def test_ac10_fixture_goldens(fixtures_dir, g1, capsys):
    started = time.perf_counter()
    buchi = fm.builtin("buchi", J="y")
    # confirm the goldens against the reduction oracle first
    assert oracle_min_credit_sys(g1, 2, buchi) == EnergyFunction.top(2, 4)
    assert oracle_min_credit_sys(g1, 0, buchi) == EnergyFunction.bottom(0, 4)
    for c in (0, 3, 9):
        assert (oracle_min_credit_sys(g1, c, fm.builtin("safety"))
                == EnergyFunction.top(c, 4))

    game = str(fixtures_dir / "g1.game")
    prio = str(fixtures_dir / "g1_buchi.prio")

    def cli(*argv):
        code = run(list(argv))
        return code, capsys.readouterr().out

    code, out = cli("solve", game, "--builtin", "buchi", "--param", "J=y",
                    "--bound", "2")
    assert code == 0
    assert out == (
        "effective bound: 2\n"
        "N=4 K=1 m=9 d=2 variant=buchi\n"
        "min credits:\n"
        "  !x & !y: 0\n"
        "  x & !y: 0\n"
        "  !x & y: 0\n"
        "  x & y: 0\n"
        "W_sys: 4 states, W_env: 0 states\n"
    )

    code, out = cli("solve", game, "--builtin", "buchi", "--param", "J=y",
                    "--bound", "0")
    assert code == 1
    assert out == (
        "effective bound: 0\n"
        "N=4 K=1 m=9 d=2 variant=buchi\n"
        "min credits:\n"
        "  !x & !y: inf\n"
        "  x & !y: inf\n"
        "  !x & y: inf\n"
        "  x & y: inf\n"
        "W_sys: 0 states, W_env: 4 states\n"
    )

    code, out = cli("solve", game, "--builtin", "safety", "--bound", "5")
    assert code == 0
    assert "  x & y: 0\n" in out and "W_sys: 4 states" in out

    code, out = cli("bound", game, "--builtin", "safety")
    assert code == 0
    assert out == "N=4 K=1 m=3 d=1\nvariant: general\nbound: 118\n"

    code, out = cli("bound", game, "--builtin", "buchi", "--param", "J=y")
    assert code == 0
    assert out == "N=4 K=1 m=9 d=2\nvariant: buchi\nbound: 38\n"

    code, out = cli("bound", game, "--priorities", prio)
    assert code == 0
    assert out == "N=4 K=1 m=9 d=2\nvariant: buchi\nbound: 38\n"

    code, out = cli("solve", game, "--builtin", "buchi", "--param", "J=y",
                    "--bound", "inf")
    assert code == 0
    assert out.startswith("effective bound: 38 (computed: requested inf)\n")
    assert "  x & y: 0\n" in out
    _report("AC10", "fixture goldens bit-exact via the CLI", started, 30)
