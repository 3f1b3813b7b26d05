import math
import random

import dataclasses
import pytest
from hypothesis import given, settings, strategies as st

from emu import (
    INF,
    EnergyFunction,
    FixpointStats,
    PriorityRule,
    VariableSet,
    WeightRule,
    compute_bound,
    crosscheck_parity,
    eval_energy,
    from_parity_wgs,
    load_priorities,
    neg,
    oracle_min_credit_sys,
    reduce_game,
    solve,
    solve_energy_parity,
    unfold_with_bound,
    winning_regions,
)
from emu import assertions as asr
from emu import formulas as fm
from emu.errors import EmuError, FragmentError, InvalidCreditError
from emu.randgen import random_assertion, random_formula, random_wgs
from emu.solver import quotient
from oracles import (all_states, eval_assertion, from_parity_wgs_loops, mutate_credits,
                     nested_formulas, random_nested_formula, rename_apart,
                     safety_credits_sepm)


def test_sufficient_bound_variants(g1, fixtures_dir):
    assert compute_bound(g1, fm.builtin("safety")).bound == 118
    assert compute_bound(g1, fm.builtin("buchi", J="y")).bound == 38
    with_prio = dataclasses.replace(
        g1, priorities=load_priorities(fixtures_dir / "g1_buchi.prio"))
    assert compute_bound(with_prio, fm.builtin("buchi", J="y")).bound == 38
    bb = compute_bound(g1, fm.builtin("safety"))
    assert (bb.n_states, bb.max_abs_weight, bb.formula_length,
            bb.alternation_depth, bb.variant) == (4, 1, 3, 1, "general")


def test_a_negated_atom_reads_the_same_however_it_is_spelled(
        g1, fixtures_dir, tmp_path, capsys):
    """``!y``, ``@"!y"`` and ``!@"y"`` are one atom: the stock Buchi formula
    on g1 and on a game whose moves all weigh -1, and g1's parity formula
    under its priorities, get the same bound, credits at inf, fixpoint
    statistics and ``emu bound`` report whichever spelling they use."""
    from emu import WeightedGameStructure, save_game
    from emu.cli import run

    prio = fixtures_dir / "g1_buchi.prio"
    lossy = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset()), rho_e=asr.TRUE, rho_s=asr.TRUE,
        weights=(WeightRule(asr.TRUE, -1),))
    save_game(lossy, tmp_path / "lossy.game")
    buchi = "nu Z . mu Y . (({} & <>Z) | <>Y)"
    cases = [
        ("buchi", g1, [fixtures_dir / "g1.game"], buchi),
        ("buchi", lossy, [tmp_path / "lossy.game"], buchi),
        ("parity", dataclasses.replace(g1, priorities=load_priorities(prio)),
         [fixtures_dir / "g1.game", "--priorities", prio],
         "nu Z0 . mu Z1 . (y & <>Z0) | ({} & <>Z1)"),
    ]
    for variant, game, args, shape in cases:
        seen = []
        for spelling in ("!y", '@"!y"', '!@"y"'):
            f = fm.parse_formula(shape.format(spelling))
            bb = compute_bound(game, f)
            stats = FixpointStats()
            eval_energy(game, bb.bound, f, stats=stats)
            credits = solve(game, f, math.inf).min_credits
            assert run(["bound", *map(str, args), "--formula", shape.format(spelling)]) == 0
            seen.append((bb.variant, bb.bound, credits, stats, capsys.readouterr().out))
        assert seen[0] == seen[1] == seen[2], shape
        assert seen[0][:2] == (variant, 38)
        assert f"variant: {variant}\nbound: 38\n" in seen[0][4]
        if game is lossy:  # the root cut fires, where uncut buchi runs 4c+3
            assert (stats.root_cuts, sum(a for a, _ in stats.caps)) == (1, 18)


def test_safety_at_inf_matches_the_progress_measures():
    """``solve(g, nu X . a & <>X, inf)`` gives the least credits without any
    bound, as small energy progress measures find them on the explicit game.
    Games are kept on the reference's values only: where some state needs a
    finite positive credit, which a computed bound below it would lose."""
    rng = random.Random(37)
    kept = drawn = compared = positive = 0
    while kept < 100:
        drawn += 1
        assert drawn <= 3000, f"only {kept} of {drawn} games kept"
        g = random_wgs(rng, 2, 3)
        names = g.vars.names
        weights = (WeightRule(random_assertion(rng, names, names, depth=1),
                              -rng.randint(1, 3)),
                   WeightRule(asr.TRUE, rng.randint(1, 2)))
        a = asr.TRUE if rng.random() < 0.5 else random_assertion(rng, names, depth=1)
        g = dataclasses.replace(g, weights=weights, priorities=(PriorityRule(asr.TRUE, 0),))
        want = safety_credits_sepm(from_parity_wgs_loops(g),
                                   [eval_assertion(a, s) for s in all_states(g.vars)])
        if not any(0 < e < INF for e in want):
            continue
        kept += 1
        f = fm.Nu("X", fm.And(fm.Atom(a), fm.Diamond(fm.RelVar("X"))))
        assert solve(g, f, math.inf).min_credits.values.tolist() == want
        compared += len(want)
        positive += sum(0 < e < INF for e in want)
    assert 3 * positive >= compared


def test_priorities_change_no_other_formula_at_inf():
    """A priority annotation decides the bound of the game's parity formula
    and its negation only: every other formula solves at --bound inf to the
    same bound, variant and credits as on the game without priorities."""
    rng = random.Random(11)
    compared = 0
    for i in range(200):
        g = random_wgs(rng, 2, 2 if i % 2 else 3, max_weight=1, priorities=True)
        if i % 2:  # over the atoms a and b, the first two variables
            f = random_nested_formula(rng, size=8, max_binders=2)
        else:
            _, f = random_formula(rng, g.vars)
        p = fm.parity_formula(g.priorities)
        if f == p or fm.negate(f) == p:
            continue
        want = solve(dataclasses.replace(g, priorities=None), f, math.inf)
        got = solve(g, f, math.inf)
        assert got.bound_breakdown == want.bound_breakdown
        assert got.min_credits == want.min_credits
        compared += 1
    assert compared == 200  # no draw at this seed is the parity formula


def _shadowed_buchi():
    """nu Z . mu Z . ((y & <>Z) | <>Z): both steps read the inner Z."""
    step = fm.Diamond(fm.RelVar("Z"))
    return fm.Nu("Z", fm.Mu("Z", fm.Or(fm.And(fm.Atom(asr.Var("y")), step), step)))


@pytest.mark.parametrize("f, apart", [
    (_shadowed_buchi(), "nu Z . mu Y . ((y & <>Y) | <>Y)"),
    (fm.Mu("X", fm.Nu("X", fm.Nu("W", fm.Diamond(fm.RelVar("X"))))),
     "mu X . nu X1 . nu W . <>X1"),
], ids=["shadowed-buchi", "shadowed-mu-nu"])
def test_shadowed_binders_analyse_as_their_reparse(g1, f, apart):
    # A tree may reuse a binder name, which then reads back as written, and
    # must get the same metrics and bound as its copy with names apart.
    apart = fm.parse_formula(apart)
    assert fm.parse_formula(fm.formula_to_str(f)) == f != apart
    assert fm.metrics(f) == fm.metrics(apart)
    assert compute_bound(g1, f) == compute_bound(g1, apart)
    assert compute_bound(g1, f).variant == "general"


def test_metrics_of_a_shadowing_tree_are_those_of_its_reparse():
    # random_nested_formula reuses the names X, Y and Z, so inner binders
    # shadow outer ones; oracles.rename_apart writes each tree with names apart
    for seed in range(500):
        f = random_nested_formula(random.Random(seed))
        assert fm.metrics(f) == fm.metrics(rename_apart(f)), seed


def test_bound_clamped_to_max_weight():
    # with zero weights every variant yields 0, which the clamp keeps at K=0
    rng = random.Random(1)
    g = random_wgs(rng, 2, 2, max_weight=0)
    assert g.max_abs_weight == 0
    assert compute_bound(g, fm.builtin("safety")).bound == 0


def test_solve_finite_bounds(g1):
    buchi = fm.builtin("buchi", J="y")
    rep = solve(g1, buchi, 2)
    assert rep.effective_bound == 2 and not rep.unbounded
    assert rep.min_credits == EnergyFunction.top(2, g1.n_states)
    assert rep.sys_region.all() and not rep.env_region.any()

    rep0 = solve(g1, buchi, 0)
    assert rep0.min_credits == EnergyFunction.bottom(0, g1.n_states)
    assert not rep0.sys_region.any() and rep0.env_region.all()


def test_solve_unbounded(g1):
    from emu import oracle_min_credit_sys

    buchi = fm.builtin("buchi", J="y")
    rep = solve(g1, buchi, math.inf)
    assert rep.unbounded and rep.effective_bound == 38
    assert rep.min_credits == EnergyFunction.top(38, g1.n_states)
    # regions stabilize at and beyond the sufficient bound, per the oracle
    assert oracle_min_credit_sys(g1, 38, buchi) == rep.min_credits
    again = solve(g1, buchi, 76)
    assert (rep.sys_region == again.sys_region).all()
    assert oracle_min_credit_sys(g1, 76, buchi) == again.min_credits


def test_solve_rejects_open_formula(g1):
    with pytest.raises((FragmentError, EmuError)):
        solve(g1, fm.parse_formula("<>X"), 1)


@pytest.mark.parametrize("bound", [2.7, "3", -1, True])
def test_solve_rejects_a_bound_that_is_not_a_natural_number(g1, bound):
    with pytest.raises(InvalidCreditError):
        solve(g1, fm.builtin("safety"), bound)


@pytest.mark.parametrize("bound", [-1, True, 2.5])
def test_oracles_reject_a_bound_that_is_not_a_natural_number(g1, fixtures_dir, bound):
    with_prio = dataclasses.replace(
        g1, priorities=load_priorities(fixtures_dir / "g1_buchi.prio"))
    explicit = from_parity_wgs(with_prio)
    for oracle, game in [(reduce_game, g1), (unfold_with_bound, explicit),
                         (solve_energy_parity, explicit)]:
        with pytest.raises(InvalidCreditError):
            oracle(game, bound)


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


def test_environment_view_of_the_fixture(g1):
    # the dual value is 0 where the environment wins for every credit in
    # [0, c], INF where it wins for none, and m where it wins up to c - m
    buchi = fm.builtin("buchi", J="y")
    dual2 = eval_energy(g1, 2, fm.negate(buchi))
    assert dual2 == EnergyFunction.bottom(2, g1.n_states)
    assert neg(dual2) == eval_energy(g1, 2, buchi)
    assert dual2[0] == INF  # no environment credit wins

    dual0 = eval_energy(g1, 0, fm.negate(buchi))
    assert dual0 == EnergyFunction.top(0, g1.n_states)
    assert neg(dual0) == eval_energy(g1, 0, buchi)
    assert dual0[0] == 0  # credit 0, and so every credit up to c, wins


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.integers(0, 40), st.booleans(),
       nested_formulas())
def test_dual_formula_is_the_negated_value(seed, prio, c, use_nested, nested):
    """The environment's view is the De Morgan dual of the system's: the
    negated formula evaluates to the negated value, through fixpoint chains
    of the same lengths, cuts and hoisted work."""
    rng = random.Random(seed)
    g = random_wgs(rng, 2, 3, priorities=prio)  # its variables include a and b
    if use_nested:
        psi = nested
    elif prio and rng.random() < 0.5:
        psi = fm.parity_formula(g.priorities)
    else:
        _, psi = random_formula(rng, g.vars)
    direct, dual = FixpointStats(), FixpointStats()
    want = eval_energy(g, c, psi, stats=direct)
    assert neg(eval_energy(g, c, fm.negate(psi), stats=dual)) == want
    assert (dual.fixpoints, dual.caps, dual.cuts, dual.hoisted) == (
        direct.fixpoints, direct.caps, direct.cuts, direct.hoisted)


def test_crosscheck_parity_g1(g1, fixtures_dir):
    with pytest.raises(EmuError, match="carries no priority annotation"):
        crosscheck_parity(g1, 2)
    g = dataclasses.replace(
        g1, priorities=load_priorities(fixtures_dir / "g1_buchi.prio"))
    assert crosscheck_parity(g, 2) == ()
    assert crosscheck_parity(g, 0) == ()
    # formula agrees with the stock buchi evaluation at both bounds
    buchi = fm.builtin("buchi", J="y")
    for c, want in ((2, 0), (0, int(INF))):
        credits = eval_energy(g, c, g.parity_formula())
        assert credits == eval_energy(g, c, buchi)
        assert all(int(v) == want for v in credits.values)


def test_crosscheck_parity_reports_a_corrupted_credit(g1, fixtures_dir,
                                                       monkeypatch):
    from emu import solver

    g = dataclasses.replace(
        g1, priorities=load_priorities(fixtures_dir / "g1_buchi.prio"))
    honest = solver.eval_energy
    monkeypatch.setattr(solver, "eval_energy",
                        lambda *args: mutate_credits(honest(*args)))
    assert crosscheck_parity(g, 2) == ((0, int(INF), 0),)


def test_crosscheck_parity_random():
    rng = random.Random(79)
    for _ in range(25):
        g = random_wgs(rng, 2, 3, priorities=True)
        c = rng.randint(0, 6)
        mismatches = crosscheck_parity(g, c)
        assert not mismatches, mismatches


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


# ---------------------------------------------------------------------------
# the quotient on the variables the game and the formula read

def _padded(g, rng):
    """``g`` with three variables nothing reads, at the lowest, a middle and
    the highest bit position, each an input or an output at random."""
    names = list(g.vars.names)
    pads = ["pad_lo", "pad_mid", "pad_hi"]
    for at, pad in zip((0, len(names) // 2 + 1, len(names) + 2), pads):
        names.insert(at, pad)
    inputs = g.vars.inputs | {pad for pad in pads if rng.random() < 0.5}
    return dataclasses.replace(g, vars=VariableSet(tuple(names), inputs))


def _draw_problem(seed):
    """A seeded 2-3 variable game, padded, and a formula over its atoms a
    and b: a stock one, the parity formula of its priorities or a nested one."""
    rng = random.Random(seed)
    g = random_wgs(rng, 2, 3, max_weight=2, priorities=seed % 3 == 0)
    if seed % 3 == 0:
        f = fm.parity_formula(g.priorities)
    elif seed % 3 == 1:
        _, f = random_formula(rng, g.vars)
    else:
        f = random_nested_formula(rng, size=8, max_binders=2)
    return g, _padded(g, rng), f


def test_solve_on_the_quotient_is_the_full_games_value():
    """``solve`` evaluates on the variables the game and the formula read
    and expands the values once; on games padded with unread inputs and
    outputs that equals evaluating on the whole game, credits and both
    regions, at finite bounds and, but for the nested formulas whose
    fixpoints climb for each iteration of the ones around them, at the
    computed bound."""
    projected = 0
    for seed in range(60):
        g, padded, f = _draw_problem(seed)
        small = quotient(padded, f)
        assert not {"pad_lo", "pad_mid", "pad_hi"} & set(small.vars.names)
        projected += small.n_states < g.n_states  # the formula reads less too
        for bound in (0, 3, 11) + ((math.inf,) if seed % 3 < 2 else ()):
            report = solve(padded, f, bound)
            c = report.effective_bound
            want = eval_energy(padded, c, f)
            assert report.min_credits == want, (seed, bound)
            assert report.sys_region.tolist() == want.is_finite().tolist()
            dual = eval_energy(padded, c, fm.negate(f))
            assert report.env_region.tolist() == (dual.values == 0).tolist()
            assert report.bound_breakdown == compute_bound(padded, f)
    assert projected >= 10


def _without_cover_or_partition(seed):
    """A padded game missing its catch-all weight rule or one priority
    class, or with one class twice, and a formula, as ``_draw_problem``."""
    g, padded, f = _draw_problem(seed)
    if seed % 2 or len(padded.priorities or ()) < 2:
        broken = dataclasses.replace(padded, weights=padded.weights[:-1] or (
            WeightRule(asr.Var(g.vars.names[0], primed=True), 1),))
    elif seed % 4:
        broken = dataclasses.replace(padded, priorities=padded.priorities[1:])
    else:
        broken = dataclasses.replace(
            padded, priorities=padded.priorities + padded.priorities[:1])
    return g, broken, f


def test_refusals_read_the_same_on_the_quotient(tmp_path, monkeypatch):
    """A weight cover or priority partition is refused in one message, by
    ``build_tables`` on the whole game and on the game without its pads,
    by ``quotient``, by ``solve`` and by ``emu bound``: a minterm over the
    variables that decide it, which the pads are not.  The whole game's
    tables are never built to refuse it."""
    import emu.game
    from emu import save_game
    from emu.cli import run
    from emu.errors import IncompleteWeightCoverError, PriorityPartitionError
    from emu.tables import build_tables

    built = []
    monkeypatch.setattr(emu.game, "build_tables",
                        lambda game: built.append(game.vars) or build_tables(game))
    refused = 0
    for seed in range(80):
        g, broken, f = _without_cover_or_partition(seed)
        try:
            build_tables(broken)
        except (IncompleteWeightCoverError, PriorityPartitionError) as e:
            want = e
        else:
            solve(broken, f, 2)
            continue
        refused += 1
        minterm = str(want).partition(" where ")[2]
        if minterm:  # not an overlap, named by its guard
            asr.parse_assertion(minterm)
        small = dataclasses.replace(broken, vars=g.vars, formula=None)
        path = tmp_path / f"broken{seed}.game"
        save_game(dataclasses.replace(broken, formula=f), path)
        built.clear()
        for call in (lambda: quotient(broken, f), lambda: solve(broken, f, 2),
                     lambda: build_tables(small)):
            with pytest.raises(type(want)) as got:
                call()
            assert str(got.value) == str(want)
        assert built and broken.vars not in built  # the quotient's only
        assert run(["bound", str(path)]) == 2
    assert refused >= 50


@pytest.mark.parametrize("case", ["weights", "priorities"])
def test_a_refusal_on_twenty_variables_builds_no_tables(fixtures_dir, case):
    """``local20`` without its catch-all weight rule, or with the single
    priority guard v1, is refused in the words of its quotient on the 7
    variables its moves read, without the tables over all 20."""
    import tracemalloc

    from emu import PriorityRule, load_game
    from emu.errors import IncompleteWeightCoverError, PriorityPartitionError

    g = load_game(fixtures_dir / "local20.game")
    if case == "weights":
        g = dataclasses.replace(g, weights=g.weights[:-1])
        error, why = IncompleteWeightCoverError, (
            "no weight rule matches the system transitions where !v1 & !v2 & !v6"
            " & !v7 & !v10 & !v13 & !v18 & !v6' & v10' & !v13'")
    else:
        g = dataclasses.replace(g, priorities=(PriorityRule(asr.Var("v1"), 0),))
        error, why = PriorityPartitionError, "no priority guard covers the states where !v1"
    tracemalloc.start()
    try:
        with pytest.raises(error) as got:
            solve(g, g.formula, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(got.value) == why
    assert peak < 1 << 20


_FORMULA = "'nu X . <>X' is not a formula"
_ASSERTION = "'true' is not an assertion"


@pytest.mark.parametrize("call, why", [
    (lambda g: solve(g, "nu X . <>X", 2), _FORMULA),
    (lambda g: compute_bound(g, "nu X . <>X"), _FORMULA),
    (lambda g: dataclasses.replace(g, formula="nu X . <>X"), _FORMULA),
    (lambda g: oracle_min_credit_sys(g, 2, "nu X . <>X"), _FORMULA),
    (lambda g: eval_energy(g, 2, "nu X . <>X"), _FORMULA),
    (lambda g: dataclasses.replace(g, rho_e="true"), _ASSERTION),
    (lambda g: dataclasses.replace(g, weights=(WeightRule("true", 1),)), _ASSERTION),
], ids=["solve", "compute_bound", "game-formula", "oracle", "eval_energy",
        "rho_e", "weight-guard"])
def test_a_string_for_a_tree_is_refused(g1, call, why):
    """Text where a formula or an assertion tree belongs is refused as an
    ``EmuError`` by the walk that meets it, in one message per language."""
    with pytest.raises(EmuError) as got:
        call(g1)
    assert str(got.value) == why
