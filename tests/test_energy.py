import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emu import (
    INF,
    LIMIT,
    EnergyFunction,
    FixpointStats,
    PriorityRule,
    VariableSet,
    WeightRule,
    WeightedGameStructure,
    ecpre,
    ecpre_env,
    eval_energy,
    join,
    leq,
    meet,
    neg,
    parse_assertion,
)
from emu import assertions as asr
from emu import formulas as fm
from emu.errors import BoundMismatchError, InvalidCreditError, NonMonotoneFormulaError
from emu.randgen import random_wgs
from oracles import (buchi_loop_energy, ec_scalar, ecpre_env_cases, ecpre_enum,
                     neg_cases, state_of)


def _f(c, values):
    return EnergyFunction(c, np.array(values, dtype=np.int64))


def _random_function(rng, c, n):
    pool = list(range(c + 1)) + [int(INF)]
    return _f(c, [rng.choice(pool) for _ in range(n)])


# ---------------------------------------------------------------------------
# lattice structure

def test_energy_function_validation():
    with pytest.raises(InvalidCreditError):
        _f(2, [3, 0])
    with pytest.raises(InvalidCreditError):
        _f(2, [-1, 0])
    f = _f(2, [0, 1, 2, INF])
    assert f[3] == INF and f[0] == 0
    # a bound must be a natural number: bools and floats compare like
    # numbers, but are refused
    for bound in (-1, LIMIT + 1, 2.5, 2.0, True, np.bool_(True)):
        with pytest.raises(InvalidCreditError):
            _f(bound, [0])
    assert _f(np.int64(2), [2]) == _f(2, [2])
    # values that are not int64 integers are refused, not cast
    for values in ([1.5, 0.2], [True, False], [2**70],
                   np.array([1 << 63], dtype=np.uint64)):
        with pytest.raises(InvalidCreditError):
            EnergyFunction(2, values)
    assert EnergyFunction(2, [2, int(INF)]) == _f(2, [2, INF])


def test_join_meet_leq_examples():
    c = 4
    zero = EnergyFunction.top(c, 3)
    inf = EnergyFunction.bottom(c, 3)
    assert meet(zero, inf) == inf
    assert join(zero, inf) == zero
    assert join(zero, _f(c, [2, 2, 2])) == zero
    assert meet(_f(c, [2, 2, 2]), _f(c, [3, 3, 3])) == _f(c, [3, 3, 3])
    assert leq(inf, zero) and not leq(zero, inf)
    assert leq(_f(c, [3, 3, 3]), _f(c, [2, 2, 2]))


def test_bound_mismatch(g1):
    with pytest.raises(BoundMismatchError):
        join(_f(2, [0]), _f(3, [0]))
    with pytest.raises(BoundMismatchError, match="function bound 3 differs from c=2"):
        ecpre(g1, 2, EnergyFunction.top(3, g1.n_states))
    # functions over different state counts must not broadcast
    for op in (join, meet, leq):
        with pytest.raises(BoundMismatchError, match="over 1 and 4 states"):
            op(EnergyFunction.top(2, 1), EnergyFunction.bottom(2, 4))


def test_neg_examples():
    f = _f(8, [0, INF, 3])
    assert neg(f) == _f(8, [INF, 0, 6])


@settings(max_examples=60)
@given(st.integers(0, 9), st.data())
def test_de_morgan_algebra(c, data):
    n = 6
    pool = list(range(c + 1)) + [int(INF)]
    fv = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    gv = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    f, g = _f(c, fv), _f(c, gv)
    assert neg(neg(f)) == f
    assert neg(meet(f, g)) == join(neg(f), neg(g))
    assert neg(join(f, g)) == meet(neg(f), neg(g))


_BOUNDS = st.one_of(st.sampled_from((0, 1, LIMIT)), st.integers(0, 9))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), _BOUNDS, st.data())
def test_engine_results_need_no_check(seed, c, data):
    """Atoms, join, meet, neg, ecpre and ecpre_env skip the range check of
    EnergyFunction(...); each result must pass it all the same."""
    g = random_wgs(random.Random(seed), 2, 5, max_weight=3)
    n = g.n_states
    pool = sorted({0, min(1, c), c // 2, max(c - 1, 0), c, int(INF)})
    f, h = (_f(c, data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
            for _ in range(2))
    atom = eval_energy(g, c, fm.Atom(asr.Var(g.vars.names[-1])))
    results = (atom, join(f, h), meet(f, h), neg(f), ecpre(g, c, f), ecpre_env(g, c, f))
    for r in results:
        assert r.values.dtype == np.int64 and not r.values.flags.writeable
        assert r == EnergyFunction(c, r.values.copy())
    assert neg(f) == neg_cases(f)
    assert neg(neg(f)) == f
    other = c + 1 if c < LIMIT else c - 1
    assert (f == _f(c, f.values[1:])) is False
    assert (EnergyFunction.top(c, n) == EnergyFunction.top(other, n)) is False


# ---------------------------------------------------------------------------
# one-step operators

def test_ec_cases(g1):
    s = state_of(g1.vars, set())
    t_y = state_of(g1.vars, {"y"})
    t_n = state_of(g1.vars, set())
    # stepping into y costs 1, stepping elsewhere earns 1
    assert ec_scalar(g1, 8, s, t_y, 3) == 4
    assert ec_scalar(g1, 8, s, t_n, 3) == 2
    assert ec_scalar(g1, 0, s, t_y, 0) == INF  # required credit exceeds the bound
    assert ec_scalar(g1, 8, s, t_y, INF) == INF


def test_ec_invalid_input_is_free():
    from emu import VariableSet, WeightRule, WeightedGameStructure

    g = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("!x'"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("true"), -2),),
    )
    s = state_of(g.vars, set())
    t_bad = state_of(g.vars, {"x"})
    assert ec_scalar(g, 4, s, t_bad, INF) == 0


def test_ec_sys_refusal_is_infinite():
    from emu import VariableSet, WeightRule, WeightedGameStructure

    g = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("y'"),
        weights=(WeightRule(parse_assertion("true"), 0),),
    )
    s = state_of(g.vars, set())
    assert ec_scalar(g, 4, s, state_of(g.vars, set()), 0) == INF


def test_ecpre_g1_examples(g1):
    c = 2
    n = g1.n_states
    assert ecpre(g1, c, EnergyFunction.top(c, n)) == EnergyFunction.top(c, n)
    assert ecpre(g1, c, EnergyFunction.bottom(c, n)) == EnergyFunction.bottom(c, n)
    y_mask = g1.tables().state_mask(parse_assertion("y"))
    f = _f(c, np.where(y_mask, 0, INF))
    got = ecpre(g1, c, f)
    assert got == _f(c, [1, 1, 1, 1])
    assert got == ecpre_enum(g1, c, f)


def test_ecpre_matches_enumeration_random():
    rng = random.Random(17)
    for _ in range(30):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        f = _random_function(rng, c, g.n_states)
        assert ecpre(g, c, f) == ecpre_enum(g, c, f)


def test_ecpre_env_examples(g1):
    from emu import VariableSet, WeightRule, WeightedGameStructure

    c = 2
    n = g1.n_states
    # rho_s total, no env deadlock: from the zero function everything is free
    top, bottom = EnergyFunction.top(c, n), EnergyFunction.bottom(c, n)
    assert ecpre_env_cases(g1, c, top) == top
    # no valid input at all: the min over inputs is empty, value INF
    dead = WeightedGameStructure(
        vars=g1.vars, rho_e=parse_assertion("false"), rho_s=g1.rho_s,
        weights=g1.weights)
    assert ecpre_env_cases(dead, c, top) == bottom
    # duality pins the remaining case
    assert ecpre_env_cases(g1, c, bottom) == neg(ecpre(g1, c, neg(bottom)))
    for game in (g1, dead):
        for f in (top, bottom):
            assert ecpre_env(game, c, f) == ecpre_env_cases(game, c, f)


def test_ecpre_monotone_random():
    rng = random.Random(29)
    for _ in range(40):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        f = _random_function(rng, c, g.n_states)
        worse = _f(c, np.minimum(
            f.values, _random_function(rng, c, g.n_states).values))
        # worse requires less credit, i.e. f <= worse in the reversed order
        assert leq(f, worse)
        assert leq(ecpre(g, c, f), ecpre(g, c, worse))
        assert leq(ecpre_env_cases(g, c, f), ecpre_env_cases(g, c, worse))


def test_duality_random():
    rng = random.Random(31)
    for _ in range(60):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        f = _random_function(rng, c, g.n_states)
        assert ecpre_env_cases(g, c, neg(f)) == neg(ecpre(g, c, f))
        assert ecpre_env(g, c, f) == ecpre_env_cases(g, c, f)


_EDGE_BOUNDS = (0, 1, 7, LIMIT - 1, LIMIT)
_EDGE_WEIGHTS = st.one_of(st.integers(-LIMIT, -LIMIT + 2), st.integers(LIMIT - 2, LIMIT),
                          st.integers(-2, 2))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(_EDGE_BOUNDS), st.booleans(),
       st.booleans(), st.data())
def test_step_kernels_at_the_limits(seed, c, env_deadlock, dead_moves, data):
    """ecpre and ecpre_env against the scalar references, with weights near
    +-2^60, bounds at both ends of their range, environment deadlocks (no
    valid input where the first variable holds) and dead moves (none into a
    state where it holds; if it is an input, no valid output after it)."""
    g = random_wgs(random.Random(seed), 2, 3, max_weight=0)
    first = asr.Var(g.vars.names[0])
    rho_e = asr.And(g.rho_e, asr.Not(first)) if env_deadlock else g.rho_e
    rho_s = asr.And(g.rho_s, asr.Not(asr.Var(first.name, primed=True))) \
        if dead_moves else g.rho_s
    weights = tuple(WeightRule(r.guard, data.draw(_EDGE_WEIGHTS)) for r in g.weights)
    g = WeightedGameStructure(vars=g.vars, rho_e=rho_e, rho_s=rho_s, weights=weights)
    pool = sorted({0, min(1, c), c // 2, max(c - 1, 0), c, int(INF)})
    f = _f(c, data.draw(st.lists(st.sampled_from(pool), min_size=g.n_states,
                                 max_size=g.n_states)))
    assert ecpre(g, c, f) == ecpre_enum(g, c, f)
    assert ecpre_env(g, c, f) == ecpre_env_cases(g, c, f)


# ---------------------------------------------------------------------------
# full evaluation

def test_eval_energy_g1_goldens(g1):
    # cross-validated against the reduction oracle in test_reduction.py
    n = g1.n_states
    assert eval_energy(g1, 2, fm.builtin("safety")) == EnergyFunction.top(2, n)
    buchi = fm.builtin("buchi", J="y")
    assert eval_energy(g1, 2, buchi) == EnergyFunction.top(2, n)
    assert eval_energy(g1, 0, buchi) == EnergyFunction.bottom(0, n)


def test_eval_energy_rejects_bad_input(g1):
    with pytest.raises(NonMonotoneFormulaError):
        eval_energy(g1, 2, fm.parse_formula("mu X . !X"))
    for bound in (-1, 2.5, True, np.bool_(True)):
        with pytest.raises(InvalidCreditError):
            eval_energy(g1, bound, fm.builtin("safety"))


def test_negation_laws_random():
    rng = random.Random(37)
    for _ in range(25):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 5)
        psi = fm.builtin("buchi", J="a")
        xi = fm.builtin("safety")
        ev = lambda f: eval_energy(g, c, f)
        assert ev(fm.Not(fm.Not(psi))) == ev(psi)
        assert ev(fm.Not(fm.And(psi, xi))) == ev(fm.Or(fm.Not(psi), fm.Not(xi)))
        assert ev(fm.Not(fm.Or(psi, xi))) == ev(fm.And(fm.Not(psi), fm.Not(xi)))
        assert ev(fm.Not(fm.Diamond(psi))) == ev(fm.Box(fm.Not(psi)))
        assert ev(fm.Not(fm.Box(psi))) == ev(fm.Diamond(fm.Not(psi)))
        # on fixpoints: the pushed form equals the raw negation
        assert ev(fm.Not(psi)) == ev(fm.negate(psi))
        assert ev(fm.Not(xi)) == ev(fm.negate(xi))


def test_mu_iterates_ascend_nu_descend(g1):
    # the evaluator asserts the chains internally; exercise both directions
    stats = FixpointStats()
    eval_energy(g1, 3, fm.builtin("buchi", J="y"), stats=stats)
    assert stats.fixpoints >= 2
    assert stats.within_caps()


def test_buchi_loop_equivalence_random():
    rng = random.Random(41)
    for _ in range(30):
        g = random_wgs(rng, 2, 3)
        c = rng.randint(0, 6)
        j_mask = g.tables().state_mask(parse_assertion("a"))
        f_j = _f(c, np.where(j_mask, 0, INF))
        loop = buchi_loop_energy(g, c, f_j)
        generic = eval_energy(g, c, fm.builtin("buchi", J="a"))
        assert loop == generic


def test_mixed_fragment_accepted(g1):
    f = fm.parse_formula("nu X . (<>X & []X)")
    out = eval_energy(g1, 2, f)
    assert out.bound == 2  # evaluates without error


# ---------------------------------------------------------------------------
# the credit-cap cut of safety fixpoints

def _game(names, weights):
    """Outputs ``names``, every move allowed; ``weights`` are (guard, weight)
    rules."""
    return WeightedGameStructure(
        vars=VariableSet(tuple(names), frozenset()),
        rho_e=asr.TRUE,
        rho_s=asr.TRUE,
        weights=tuple(WeightRule(parse_assertion(g), w) for g, w in weights),
    )


_LOSSY = _game(("a", "b"), [("true", -1)])  # N = 4, K = 1, cap 3


def _uncut(g, c, node):
    """The fixpoint ``node`` by iterating its body to stability outside the
    engine, so no cut of ``node`` itself applies.  Returns (value,
    applications)."""
    n = g.n_states
    current = (EnergyFunction.top(c, n) if isinstance(node, fm.Nu)
               else EnergyFunction.bottom(c, n))
    applications = 0
    while True:
        applications += 1
        new = eval_energy(g, c, node.sub, valuation={node.name: current})
        if new == current:
            return current, applications
        current = new


def test_credit_beyond_the_expansion_cap():
    # (N'-1)K, N' = N(1+2^|X|) the size of the explicit expansion, is no cap
    # for box-free formulas: here it allows 3, and the credit is 5, because
    # the nested <> off the fixpoint path adds weighted moves to each round.
    from emu import oracle_min_credit_sys, solve

    g = _game(("y",), [("y'", -1), ("true", 0)])
    f = fm.parse_formula("nu Z . ((<>(y & <>(y & <>(y & <>(y & <>y))))) & <>Z)")
    assert fm.safety_reads(f) is None
    report = solve(g, f, math.inf)
    assert report.effective_bound == 214
    assert report.min_credits.values.tolist() == [5, 5]
    assert eval_energy(g, 100, f).values.tolist() == [5, 5]
    assert eval_energy(g, 8, f) == oracle_min_credit_sys(g, 8, f)


def test_cut_matches_the_uncut_fixpoint():
    rng = random.Random(88)
    bodies = ["nu X . <>X", "nu X . (p & <>X)", "nu X . ((p & <>X) | q)",
              "nu X . (<>X & (p | <>X))"]
    fired = 0
    for seed in range(16):
        g = random_wgs(random.Random(seed), 2, 5, 5)
        n, cap = g.n_states, (g.n_states - 1) * g.max_abs_weight
        p, q = g.vars.names[0], g.vars.names[-1]
        for text in bodies:
            f = fm.parse_formula(text.replace("p", p).replace("q", q))
            for node in (f, fm.negate(f)):
                assert fm.safety_reads(node) == set()
                for c in (cap + 1, 2 * cap + 3, 10 * cap + 7, rng.randint(0, 12 * cap + 9)):
                    stats = FixpointStats()
                    got = eval_energy(g, c, node, stats=stats)
                    want, uncut_apps = _uncut(g, c, node)
                    assert got == want
                    (apps, _), = stats.caps
                    # each state's cut value climbs through at most cap+2 values
                    assert apps <= uncut_apps and apps - 1 <= n * (cap + 1)
                    if cap >= c:
                        assert stats.cuts == 0 and apps == uncut_apps
                    fired += stats.cuts
    assert fired >= 100


def test_cut_chain_can_outlast_cap_plus_two():
    # cap+2 applications are not a bound: values may climb slower than one
    # unit per round before the cut, here on N = 4 states with cap 12
    g = random_wgs(random.Random(372), 2, 5, 5)
    assert (g.n_states, g.max_abs_weight) == (4, 4)
    stats = FixpointStats()
    got = eval_energy(g, 13, fm.builtin("safety"), stats=stats)
    assert stats.caps == [(15, 56)] and stats.cuts == 1
    assert got == _uncut(g, 13, fm.builtin("safety"))[0]


def test_the_cut_is_shaped_once_per_fixpoint_node(monkeypatch):
    # a nested fixpoint is evaluated once per iteration of the loops around
    # it, and each evaluation decides its cut from the values around it; the
    # shape that decision rests on (formulas.safety_reads) is read once per
    # fixpoint node, when the engine compiles the formula
    from emu.energy import _root_proven
    from oracles import random_nested_formula

    calls, real = [], fm.safety_reads
    monkeypatch.setattr(fm, "safety_reads", lambda node: calls.append(node) or real(node))
    cases = [(_LOSSY, fm.builtin("buchi", J="a"))]
    for seed in range(40):
        rng = random.Random(seed)
        cases.append((random_wgs(rng, 2, 2, 2), random_nested_formula(rng)))
    evaluations = nodes = 0
    for g, f in cases:
        binders = sum(isinstance(n, (fm.Mu, fm.Nu)) for n in fm._subformulas(f))
        cap = (g.n_states - 1) * g.max_abs_weight
        for c in (cap + 1, 3 * cap + 5):
            for node in (f, fm.negate(f)):
                assert not _root_proven(g, node, c)
                calls.clear()
                stats = FixpointStats()
                eval_energy(g, c, node, stats=stats)
                assert len(calls) == binders
                evaluations += stats.fixpoints
                nodes += binders
    assert evaluations >= 2 * nodes


def test_credit_can_reach_the_cap():
    g = random_wgs(random.Random(1905740), 1, 4, 3)
    assert (g.n_states, g.max_abs_weight) == (2, 3)
    for c in (3, 4, 100):
        stats = FixpointStats()
        assert eval_energy(g, c, fm.builtin("safety"), stats=stats).values.tolist() == [0, 3]
        assert stats.cuts == 0  # no iterate passes the cap, so none is cut


def test_lossy_safety_at_the_largest_bound():
    safety = fm.builtin("safety")
    for c in (10, LIMIT):
        stats = FixpointStats()
        assert eval_energy(_LOSSY, c, safety, stats=stats) == EnergyFunction.bottom(c, 4)
        assert stats.caps == [(5, 4 * (c + 1))] and stats.cuts == 1
        stats = FixpointStats()
        assert eval_energy(_LOSSY, c, fm.negate(safety), stats=stats) == EnergyFunction.top(c, 4)
        assert stats.caps == [(5, 4 * (c + 1))] and stats.cuts == 1
    # at c <= cap nothing is cut, and the climb ends at c+2 applications
    stats = FixpointStats()
    assert eval_energy(_LOSSY, 3, safety, stats=stats) == EnergyFunction.bottom(3, 4)
    assert stats.caps == [(5, 16)] and stats.cuts == 0


@pytest.mark.parametrize("f", [
    fm.builtin("cobuchi", J="a"),  # mu Y . nu Z . (a & <>Z) | <>Y
    fm.parse_formula("mu Z1 . nu Z2 . (a & <>Z1) | (!a & <>Z2)"),
], ids=["cobuchi", "parity"])
def test_lossy_cobuchi_and_parity_at_the_largest_bound(f):
    # The inner nu runs while the outer mu's variable is INF, so its hoisted
    # subterm (<>Y, or a & <>Z1) is INF everywhere: the body is safety-shaped
    # up to it, and the nu is cut at cap 3.  It ends where the outer mu's
    # first iterate does.  Uncut, the inner nu runs c+2 applications.
    for c in (10, LIMIT):
        for node, want in ((f, EnergyFunction.bottom(c, 4)),
                           (fm.negate(f), EnergyFunction.top(c, 4))):
            stats = FixpointStats()
            assert eval_energy(_LOSSY, c, node, stats=stats) == want
            assert [apps for apps, _ in stats.caps] == [5, 1]
            assert stats.cuts == 1 and stats.hoisted == 1


# ---------------------------------------------------------------------------
# the cut of the outermost nu of the Buchi and parity formulas

def _root_games():
    """Seeded (kind, game, formula) triples: Buchi, dual-Buchi, and parity
    with the least priority even and odd, on 4 states where every move is
    allowed and weights lean negative, so many iterates climb."""
    from emu.randgen import random_assertion, random_priorities

    kinds = ("buchi", "dual-buchi", "parity-even", "parity-odd")
    names = ("a", "b")
    for seed in range(40):
        rng = random.Random(seed)
        kind = kinds[seed % 4]
        vs = VariableSet(names, frozenset(rng.sample(names, rng.randint(0, 1))))
        weights = [(random_assertion(rng, names, names, depth=1), rng.randint(-2, 1))
                   for _ in range(rng.randint(0, 2))]
        weights.append((asr.TRUE, rng.randint(-2, 1)))
        g = WeightedGameStructure(vars=vs, rho_e=asr.TRUE, rho_s=asr.TRUE,
                                  weights=tuple(WeightRule(*w) for w in weights))
        if kind.startswith("parity"):
            prios = random_priorities(rng, vs, 2)
            shift = (min(r.priority for r in prios) % 2) ^ (kind == "parity-odd")
            g = dataclasses.replace(g, priorities=tuple(
                PriorityRule(r.guard, r.priority + shift) for r in prios))
            yield kind, g, fm.parity_formula(g.priorities)
        else:
            yield kind, g, fm.builtin(kind, J=random_assertion(rng, names, (), depth=1))


def _ladder(k):
    """Outputs a, b, c: state i moves only to i+1, losing k, and state 7, the
    Buchi target and priority 0, loops at weight 0.  State 0 needs credit
    7k = (N-1)K, so a cap below that changes its value."""
    names = ("a", "b", "c")

    def minterm(i, prime=""):
        return " & ".join(("" if i >> j & 1 else "!") + v + prime
                          for j, v in enumerate(names))

    moves = [(i, min(i + 1, 7)) for i in range(8)]
    rho_s = " | ".join(f"({minterm(i)} & {minterm(j, chr(39))})" for i, j in moves)
    top = parse_assertion(minterm(7))
    g = WeightedGameStructure(
        vars=VariableSet(names, frozenset()), rho_e=asr.TRUE,
        rho_s=parse_assertion(rho_s),
        weights=(WeightRule(parse_assertion(f"{minterm(7)} & {minterm(7, chr(39))}"), 0),
                 WeightRule(asr.TRUE, -k)),
        priorities=(PriorityRule(top, 0), PriorityRule(asr.Not(top), 1)))
    yield "buchi", g, fm.builtin("buchi", J=top)
    yield "dual-buchi", g, fm.builtin("dual-buchi", J=top)
    yield "parity-even", g, fm.parity_formula(g.priorities)


def _root_random_games():
    """Seeded (kind, game, formula) triples from ``random_wgs``: 2-3
    variables, deadlocks allowed, priorities on every game, and in turn the
    game's parity formula, Buchi and dual-Buchi."""
    from emu.randgen import random_assertion

    for seed in range(200):
        rng = random.Random(seed)
        g = random_wgs(rng, 2, 3, 2, priorities=True)
        kind = ("parity", "buchi", "dual-buchi")[seed % 3]
        if kind == "parity":
            yield kind, g, fm.parity_formula(g.priorities)
        else:
            yield kind, g, fm.builtin(
                kind, J=random_assertion(rng, g.vars.names, (), depth=1))


def _check_root_cut(g, c, node):
    """Evaluate ``node`` at c against ``_uncut``; the number of root cuts."""
    from emu.energy import _root_proven

    cap = (g.n_states - 1) * g.max_abs_weight
    stats = FixpointStats()
    got = eval_energy(g, c, node, stats=stats)
    want, uncut_apps = _uncut(g, c, node)
    assert got == want, (node, c)
    assert stats.caps[-1][0] <= uncut_apps
    if _root_proven(g, node, c):
        # the premise of the root cut: finite credits stay within cap, so
        # the values c+1-v of the mirror stay at or above c+1-cap
        v = want.values[(want.values != 0) & want.is_finite()]
        assert (v <= cap).all() if isinstance(node, fm.Nu) else (v > c - cap).all()
    elif fm.safety_reads(node) is None:
        assert stats.root_cuts == 0
    if cap >= c:
        assert stats.root_cuts == 0
    return stats.root_cuts


def test_root_cut_matches_the_uncut_fixpoint():
    from emu import compute_bound, from_parity_wgs, solve_energy_parity
    from emu.energy import _root_proven

    fired = 0
    for kind, g, f in (*_root_games(), *_ladder(2)):
        nu_form = fm.negate(f) if kind == "dual-buchi" else f
        b = compute_bound(g, nu_form).bound
        for node in (f, fm.negate(f)):
            for c in (b, b + 1, 2 * b, b - 1)[:4 if b else 3]:
                assert _root_proven(g, node, c) == (kind != "parity-odd" and c >= b)
                fired += _check_root_cut(g, c, node)
            if kind.startswith("parity") and node is f:
                n = g.n_states
                explicit = solve_energy_parity(from_parity_wgs(g), b)[:n]
                assert eval_energy(g, b, f).values.tolist() == explicit.tolist()
    assert fired >= 48
    # counterexample search on games with deadlocks and up to 8 states, at
    # the computed bound
    fired = 0
    for kind, g, f in _root_random_games():
        b = compute_bound(g, fm.negate(f) if kind == "dual-buchi" else f).bound
        for node in (f, fm.negate(f)):
            fired += _check_root_cut(g, b, node)
    assert fired >= 22
    # the ladder's credit reaches (N-1)K = 14, so a smaller cap changes it;
    # no iterate passes the cap, so the cut changes none
    _, g, buchi = next(_ladder(2))
    stats = FixpointStats()
    assert eval_energy(g, 284, buchi, stats=stats).values.tolist() \
        == [14, 12, 10, 8, 6, 4, 2, 0]
    assert stats.root_cuts == 0


def test_no_root_cut_beyond_the_two_shapes():
    # the formula whose credit, 5, exceeds (N-1)K = 1, and the lossy game's
    # other formulas, get no root cut at any bound at or above their own
    from emu import compute_bound
    from emu.energy import _root_proven

    g = _game(("y",), [("y'", -1), ("true", 0)])
    f = fm.parse_formula("nu Z . ((<>(y & <>(y & <>(y & <>(y & <>y))))) & <>Z)")
    for c in (214, 428, LIMIT):
        assert not _root_proven(g, f, c)
        stats = FixpointStats()
        assert eval_energy(g, c, f, stats=stats).values.tolist() == [5, 5]
        assert stats.root_cuts == 0
    for f in (fm.builtin("safety"), fm.builtin("cobuchi", J="a"),
              fm.builtin("reach", p="a")):
        b = compute_bound(_LOSSY, f).bound
        for node in (f, fm.negate(f)):
            assert not _root_proven(_LOSSY, node, b)
            stats = FixpointStats()
            eval_energy(_LOSSY, b, node, stats=stats)
            # safety's root is cut as a safety-shaped fixpoint, not as a root
            assert stats.root_cuts == (f == fm.builtin("safety"))


@pytest.mark.parametrize("name, want", [("buchi", INF), ("dual-buchi", 0)])
def test_lossy_buchi_solves_at_the_largest_bound(name, want, monkeypatch):
    # uncut, buchi runs 4c+3 applications per evaluation on this game, as at
    # c = 37, below the sufficient bound 38; with the root cut at cap
    # (N-1)K = 3 an evaluation on the game takes 18, at any bound at or
    # above it.  A solve evaluates three times on the quotient on b, where
    # N = 2, so its cap is 1 and its root cut fires from c = 10 on: 10
    # applications each, at all three bounds
    from emu import solve, solver

    f = fm.builtin(name, J="b")
    for c, apps, cuts in ((10**5, 18, 1), (1 << 60, 18, 1), (37, 4 * 37 + 3, 0)):
        stats = FixpointStats()
        assert eval_energy(_LOSSY, c, f, stats=stats) \
            == EnergyFunction.constant(c, 4, want)
        assert sum(a for a, _ in stats.caps) == apps
        assert stats.root_cuts == cuts
    evaluate, stats = solver.eval_energy, None
    monkeypatch.setattr(solver, "eval_energy",
                        lambda *a, **kw: evaluate(*a, stats=stats, **kw))
    for c in (10**5, 1 << 60, 37):
        stats = FixpointStats()
        report = solve(_LOSSY, f, c)
        assert report.min_credits == EnergyFunction.constant(c, 4, want)
        assert sum(a for a, _ in stats.caps) == 3 * 10
        assert stats.root_cuts == 3


# ---------------------------------------------------------------------------
# the int64 credit encoding

def _buchi_game(w):
    """Input x, output y; moves into y weigh w, all others +1."""
    from emu import VariableSet, WeightRule, WeightedGameStructure

    return WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("true"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(parse_assertion("y'"), w),
                 WeightRule(parse_assertion("true"), 1)),
    )


def test_weights_beyond_the_limit_are_rejected():
    from emu import LIMIT, oracle_min_credit_sys
    from emu.errors import WeightDomainError

    # e - w used to wrap here, giving credit 0 where no credit suffices
    with pytest.raises(WeightDomainError):
        _buchi_game(-(1 << 63))
    with pytest.raises(WeightDomainError):
        _buchi_game(LIMIT + 1)
    buchi = fm.builtin("buchi", J="y")
    for w in (-LIMIT, LIMIT):
        g = _buchi_game(w)
        assert eval_energy(g, 3, buchi) == oracle_min_credit_sys(g, 3, buchi)
    assert eval_energy(_buchi_game(-LIMIT), 3, buchi) == EnergyFunction.bottom(3, 4)


def test_bounds_beyond_the_limit_are_rejected():
    from emu import LIMIT, compute_bound, solve

    with pytest.raises(InvalidCreditError):
        eval_energy(_buchi_game(-1), LIMIT + 1, fm.builtin("safety"))
    buchi = fm.builtin("buchi", J="y")
    # the sufficient bound of a legal weight may exceed the limit: only
    # solving at it fails, a finite bound below the limit still solves
    assert compute_bound(_buchi_game(LIMIT), buchi).bound > LIMIT
    with pytest.raises(InvalidCreditError):
        solve(_buchi_game(LIMIT), buchi, math.inf)
    report = solve(_buchi_game(-LIMIT), buchi, 3)
    assert not report.sys_region.any() and report.env_region.all()
    assert compute_bound(_buchi_game(-2), buchi).bound == 76


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32), st.booleans(),
       st.sampled_from(_EDGE_BOUNDS + (LIMIT + 1, math.inf)), st.data())
def test_solve_at_the_limits(seed, prio, bound, data):
    """solve() with weights near +-2^60 and bounds at both ends of their
    range: it refuses the input with an EmuError, or its regions partition
    the states, W_sys is where the credit is finite, and the credits agree
    with an oracle wherever the oracle's game fits in memory.

    At bounds near 2^60 the weights of one game share a sign (or are 0): a
    cycle whose weights sum to a small negative number takes about c/|sum|
    fixpoint iterations to exceed the bound c, which does not finish there.
    """
    from emu import from_parity_wgs, oracle_min_credit_sys, solve, solve_energy_parity
    from emu.errors import EmuError, StateCapError
    from emu.randgen import random_formula

    rng = random.Random(seed)
    g = random_wgs(rng, 2, 3, max_weight=0, priorities=prio)
    weights = _EDGE_WEIGHTS
    if LIMIT - 1 <= bound <= LIMIT:
        sign = data.draw(st.sampled_from((-1, 1)))
        weights = st.one_of(st.just(0), st.integers(LIMIT - 2, LIMIT)).map(sign.__mul__)
    g = dataclasses.replace(g, weights=tuple(
        WeightRule(r.guard, data.draw(weights)) for r in g.weights))
    formula = fm.parity_formula(g.priorities) if prio else random_formula(rng, g.vars)[1]
    try:
        report = solve(g, formula, bound)
    except EmuError:
        return
    credits, c = report.min_credits, report.effective_bound
    assert (report.sys_region ^ report.env_region).all()
    assert np.array_equal(report.sys_region, credits.is_finite())
    if prio:
        ep = from_parity_wgs(g)
        if c >= LIMIT - 1:  # 2^66 bytes or more: refused before it allocates
            with pytest.raises(StateCapError):
                solve_energy_parity(ep, c)
        elif ep.n_states * (c + 2) <= 20_000:
            want = solve_energy_parity(ep, c)
            assert credits.values.tolist() == want[:g.n_states].tolist()
    elif len(g.vars.names) + max(1, c.bit_length()) <= 9:
        assert credits == oracle_min_credit_sys(g, c, formula)
