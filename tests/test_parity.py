import functools
import random
import sys
import tracemalloc

import pytest

from emu import (
    INF,
    EnergyParityGame,
    ParityGame,
    bound_ep,
    eval_energy,
    from_parity_wgs,
    load_priorities,
    solve_energy_parity,
    solve_parity,
    unfold_with_bound,
)
from emu.errors import (
    EmuError,
    PriorityPartitionError,
    StateCapError,
    WeightDomainError,
)
from emu import parity
from emu.randgen import random_wgs
from oracles import (
    from_parity_wgs_loops,
    listed,
    parity_winners_brute,
    random_energy_parity_game,
    solve_energy_parity_loops,
    solve_parity_loops,
    unfold_with_bound_loops,
)

import dataclasses

import numpy as np


def _with_prio(g1, path):
    return dataclasses.replace(g1, priorities=load_priorities(path))


def _regions(g):
    """The winning regions of ``solve_parity`` as sets of states."""
    return tuple(set(np.flatnonzero(w).tolist()) for w in solve_parity(g))


def _classes(game):
    """The class of each game state: the index of its (table row,
    priority) pair among the game's pairs, sorted."""
    t = game.tables()
    keys = list(zip(t.row.tolist(), t.prio.tolist()))
    pairs = sorted(set(keys))
    return [pairs.index(key) for key in keys]


def test_from_parity_wgs_counts(g1, fixtures_dir):
    g = _with_prio(g1, fixtures_dir / "g1_buchi.prio")
    ep = from_parity_wgs(g)
    # g1's moves read no state variable: one row, and two priorities
    assert ep.n_states == 4 + 2 * 2
    assert ep.owners[:4].tolist() == [1, 1, 1, 1]
    assert set(ep.owners[4:].tolist()) == {0}
    assert ep.n_priorities == 2
    assert ep.max_abs_weight == 1
    # a position after an input has the priority of its class's states
    cls = _classes(g)
    assert sorted(set(cls)) == [0, 1]
    for s in range(4):
        for x in range(2):
            assert ep.prios[4 + cls[s] * 2 + x] == ep.prios[s]


def test_from_parity_wgs_env_deadlock():
    from emu import VariableSet, WeightRule, WeightedGameStructure, parse_assertion
    from emu import PriorityRule
    from emu import assertions as asr

    g = WeightedGameStructure(
        vars=VariableSet(("x", "y"), frozenset({"x"})),
        rho_e=parse_assertion("false"),
        rho_s=parse_assertion("true"),
        weights=(WeightRule(asr.TRUE, 0),),
        priorities=(PriorityRule(asr.TRUE, 1),),
    )
    ep = from_parity_wgs(g)
    # every game state is a player-1 deadlock: player 0 wins them all
    credits = solve_energy_parity(ep, 1)
    assert credits.dtype == np.int64 and credits.shape == (ep.n_states,)
    assert (credits[:4] == 0).all()


def test_from_parity_wgs_needs_partition(g1):
    import dataclasses
    from emu import PriorityRule, parse_assertion

    with pytest.raises(EmuError):
        from_parity_wgs(g1)  # no annotation
    bad = dataclasses.replace(
        g1, priorities=(PriorityRule(parse_assertion("y"), 0),))
    with pytest.raises(PriorityPartitionError, match="covers the states where !y$"):
        from_parity_wgs(bad)
    overlap = dataclasses.replace(g1, priorities=(
        PriorityRule(parse_assertion("y"), 0), PriorityRule(parse_assertion("x | !y"), 1)))
    with pytest.raises(PriorityPartitionError, match="'x | !y' overlaps an earlier guard"):
        from_parity_wgs(overlap)


def test_unfold_tiny_examples():
    loop = EnergyParityGame.of((0,), (0,), (((0, -1),),))
    u = listed(unfold_with_bound(loop, 1))
    assert u.n_states == 3
    assert u.edges == ((2,), (0,), ())
    assert u.owners == (0, 0, 0)

    zero = EnergyParityGame.of((0, 1), (0, 1), (((1, 0),), ((0, 0),)))
    u0 = listed(unfold_with_bound(zero, 2))
    assert u0.n_states == 2 * 4
    # credit layers never mix when all weights are zero
    for s in range(2):
        for credit in range(3):
            (dst,) = u0.edges[credit * 2 + s]
            assert dst // 2 == credit


def test_unfold_counts(g1, fixtures_dir):
    ep = from_parity_wgs(_with_prio(g1, fixtures_dir / "g1_buchi.prio"))
    u = unfold_with_bound(ep, 2)
    assert u.n_states == 8 * 4


def test_solve_parity_single_states():
    assert _regions(ParityGame.of((0,), (0,), ((0,),))) == ({0}, set())
    assert _regions(ParityGame.of((0,), (1,), ((0,),))) == (set(), {0})


def test_solve_parity_two_state_alternation():
    g = ParityGame.of((0, 0), (0, 1), ((1, 0), (0,)))
    w0, w1 = _regions(g)
    assert (w0, w1) == parity_winners_brute(g)
    assert w0 == {0, 1}


def test_solve_parity_deadlocks():
    # player-1 deadlock wins for player 0 and vice versa
    g = ParityGame.of((1, 0), (1, 0), ((), ()))
    assert _regions(g) == ({0}, {1})


def test_solve_parity_matches_brute_force():
    rng = random.Random(59)
    for _ in range(60):
        ep = random_energy_parity_game(rng, max_states=5)
        pg = ParityGame(ep.owners, ep.prios, ep.src, ep.dst)
        assert _regions(pg) == parity_winners_brute(pg)


def test_solve_energy_parity_examples():
    up = EnergyParityGame.of((0,), (0,), (((0, 1),),))
    assert solve_energy_parity(up, 1).tolist() == [0]
    down = EnergyParityGame.of((0,), (0,), (((0, -1),),))
    for c in (0, 3, 7):
        assert solve_energy_parity(down, c).tolist() == [INF]
    # gain one, pay one: needs nothing with bound >= 1
    seesaw = EnergyParityGame.of((0, 0), (0, 0), (((1, 1),), ((0, -1),)))
    assert solve_energy_parity(seesaw, 1).tolist() == [0, 1]
    assert solve_energy_parity(seesaw, 0).tolist() == [INF, INF]


def test_energy_parity_determinacy_random():
    rng = random.Random(61)
    for _ in range(40):
        ep = random_energy_parity_game(rng, max_states=6)
        c = rng.randint(0, 6)
        u = unfold_with_bound(ep, c)
        w0, w1 = solve_parity(u)
        assert w0.shape == w1.shape == (u.n_states,)
        assert (w0 | w1).all()
        assert not (w0 & w1).any()


def test_bound_formulas():
    assert bound_ep(20, 2, 1) == 38
    assert bound_ep(5, 1, 3) == 12
    assert bound_ep(1, 3, 2) == 0
    with pytest.raises(ValueError):
        bound_ep(0, 1, 1)


def test_bound_sufficiency_random():
    rng = random.Random(67)
    for _ in range(40):
        ep = random_energy_parity_game(rng, max_states=5, max_weight=2)
        b = bound_ep(ep.n_states, ep.n_priorities, ep.max_abs_weight)
        at_b = solve_energy_parity(ep, b)
        at_2b = solve_energy_parity(ep, 2 * b)
        winners_b = at_b != INF
        assert (winners_b == (at_2b != INF)).all()
        cap = (ep.n_states - 1) * ep.max_abs_weight
        assert (at_b[winners_b] <= cap).all()
        # a winning credit at the sufficient bound stays valid at looser bounds
        assert (at_2b[winners_b] <= at_b[winners_b]).all()


def _check_expansion(game, c):
    """``from_parity_wgs`` against the one position per (state, input) of
    ``from_parity_wgs_loops``: under (s, x) -> N + class(s)*NX + x, each of
    those positions and each game state has the owner, priority and
    out-edges of its image, every state of the expansion is an image, and
    the game states' credits at bound c agree."""
    ep, loops = from_parity_wgs(game), from_parity_wgs_loops(game)
    got, n, nx = listed(ep), game.n_states, 1 << len(game.vars.inputs)
    cls = _classes(game)
    image = list(range(n)) + [n + cls[s] * nx + x for s in range(n) for x in range(nx)]
    assert set(image) == set(range(got.n_states))
    for v, w in enumerate(image):
        assert (got.owners[w], got.prios[w]) == (loops.owners[v], loops.prios[v])
        assert got.edges[w] == tuple((image[d], weight) for d, weight in loops.edges[v])
    want = solve_energy_parity_loops(loops, c)[:n]
    assert solve_energy_parity(ep, c)[:n].tolist() == want


def test_array_pipeline_matches_loops():
    """Expansion, unfolding and the solver against the loop
    versions of ``tests/oracles.py``, on games with deadlocks."""
    from emu import PriorityRule, VariableSet, WeightRule, WeightedGameStructure
    from emu import assertions as asr

    rng = random.Random(79)
    for _ in range(300):
        ep = random_energy_parity_game(rng, max_states=8)
        c = rng.randint(0, 8)
        u = unfold_with_bound(ep, c)
        assert listed(u) == unfold_with_bound_loops(ep, c)
        assert _regions(u) == solve_parity_loops(u)
    shared = 0  # games where one row holds states of different priorities
    for _ in range(30):
        game = random_wgs(rng, 2, 5, 3, priorities=True)
        _check_expansion(game, rng.randint(0, 12))
        t = game.tables()
        shared += len(set(zip(t.row.tolist(), t.prio.tolist()))) > len(set(t.row.tolist()))
    assert shared
    # four rows (the weights read y and w) and the extreme priorities 0 and
    # 2^63-1: a key of row * (largest priority + 1) + priority wraps, and
    # gives rows 0 and 2 the same keys
    top = (1 << 63) - 1
    y, w, z = asr.Var("y"), asr.Var("w"), asr.Var("z")
    extreme = WeightedGameStructure(
        vars=VariableSet(("x", "y", "w", "z"), frozenset({"x"})),
        rho_e=asr.TRUE,
        rho_s=asr.Or(asr.Var("z", primed=True), y),
        weights=(WeightRule(asr.And(y, w), -2), WeightRule(y, -1), WeightRule(asr.TRUE, 1)),
        priorities=(PriorityRule(z, 0), PriorityRule(asr.Not(z), top)),
    )
    assert sorted(set(_classes(extreme))) == list(range(8))
    assert from_parity_wgs(extreme).prios.max() == top
    for c in (0, 1, 3):
        _check_expansion(extreme, c)


def test_explicit_game_validation():
    with pytest.raises(EmuError, match="owners must be 0 or 1"):
        EnergyParityGame.of((2,), (0,), ((),))
    with pytest.raises(EmuError, match="priorities must be natural numbers"):
        EnergyParityGame.of((0,), (-1,), ((),))
    with pytest.raises(EmuError, match="edge 0->1 leaves the state space"):
        EnergyParityGame.of((0,), (0,), (((1, 0),),))
    with pytest.raises(EmuError, match="equal length"):
        ParityGame((0, 1), (0,), (), ())
    with pytest.raises(EmuError, match="equal length"):
        EnergyParityGame((0,), (0,), (0,), (0,), ())
    with pytest.raises(EmuError, match="sorted by their source"):
        ParityGame((0, 0), (0, 0), (1, 0), (0, 1))
    for w in ((1 << 60) + 1, -(1 << 63)):
        with pytest.raises(WeightDomainError):
            EnergyParityGame.of((0,), (0,), (((0, w),),))
    with pytest.raises(EmuError, match="64-bit"):
        EnergyParityGame.of((0,), (0,), (((0, 1 << 64),),))
    g = EnergyParityGame.of((0, 1), (0, 3), (((1, 2), (0, -1)), ()))
    assert g.src.tolist() == [0, 0] and g.dst.tolist() == [1, 0]
    assert g.weight.tolist() == [2, -1] and g.owners.dtype == np.int8
    assert not g.dst.flags.writeable


def test_unfoldings_too_large_for_memory_are_refused(monkeypatch):
    from emu import tables

    seesaw = EnergyParityGame.of((0, 0), (0, 0), (((1, 1),), ((0, -1),)))
    # each credit layer holds 2 edges and 2 states, 2*72 + 2*64 bytes, and
    # the overflow layer 2 states more
    monkeypatch.setattr(tables, "_available_memory", lambda: 272 * 100)
    assert solve_energy_parity(seesaw, 98).tolist() == [0, 1]
    with pytest.raises(StateCapError, match="unfolding at bound 99 needs about"):
        solve_energy_parity(seesaw, 99)
    with pytest.raises(StateCapError):
        unfold_with_bound(seesaw, 1 << 60)


def _case_332():
    """The game of case 332 of the parity sweep ``emu check --oracle parity
    --seed 5 --max-vars 2 --max-weight 2``: 12 explicit states, 24 edges."""
    return random_wgs(random.Random(5 * 1_000_003 + 332), 2, 2, 2, priorities=True)


def test_parity_recursion_goes_one_level_per_priority(monkeypatch):
    # On a credit unfolding, each opponent attractor peels off one credit
    # layer, so recursing on what it leaves went about c levels deep.  The
    # solver recurses only to drop the least priority, and a solve leaves
    # the interpreter's recursion limit alone.
    ep = from_parity_wgs(_case_332())
    solve, depth = parity._solve_subgame, [0, 0]

    def counted(active, arrays):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return solve(active, arrays)
        finally:
            depth[0] -= 1

    def refused(limit):
        raise AssertionError("a parity solve set the recursion limit")

    monkeypatch.setattr(parity, "_solve_subgame", counted)
    monkeypatch.setattr(sys, "setrecursionlimit", refused)
    w0, w1 = solve_parity(unfold_with_bound(ep, 1000))
    assert (w0 ^ w1).all()
    levels = len(set(ep.prios.tolist()) | {0, 1}) + 1  # the sinks' 0 and 1
    assert levels == 3 and 1 <= depth[1] <= levels


def test_parity_oracle_stays_within_its_memory_charge():
    # unfold_with_bound refuses up front what would not fit, by a charge per
    # edge and per state; recursing c levels deep, the solve held 13 times it.
    # The second of two identical solves is measured, since the first can
    # import a numpy submodule (numpy.ma, about 1 MiB) inside the window.
    # The solve peaks at 0.63 of the charge; one more copy of the unfolded
    # edge list held through it takes the peak to 0.78.
    game, c = _case_332(), 500
    ep = from_parity_wgs(game)
    charge = 72 * len(ep.src) * (c + 1) + 64 * ep.n_states * (c + 2)  # 1.19 MiB
    solve_energy_parity(ep, c)
    tracemalloc.start()
    try:
        credits = solve_energy_parity(ep, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    symbolic = eval_energy(game, c, game.parity_formula()).values
    assert credits[:game.n_states].tolist() == symbolic.tolist()
    assert peak <= 0.66 * charge


def test_parity_oracle_within_its_charge_on_many_priorities():
    # Zielonka's recursion goes one level per priority and each level holds
    # a few bool masks, so on a game of 25 priorities the recursion, not the
    # edge list, sets the peak: 0.90 of the charge.  Keeping one int64
    # pending count per level through the recursion takes it to 1.38.
    rng = random.Random(3)
    n = 200
    prios = [rng.randrange(25) for _ in range(n)]
    edges = [[(rng.randrange(n), rng.randint(-1, 1)) for _ in range(rng.randint(1, 3))]
             for _ in range(n)]
    ep = EnergyParityGame.of([rng.randint(0, 1) for _ in range(n)], prios, edges)
    c = 200
    assert ep.n_priorities == 25
    charge = 72 * len(ep.src) * (c + 1) + 64 * ep.n_states * (c + 2)  # 7.8 MiB
    want = solve_energy_parity(ep, c)
    tracemalloc.start()
    try:
        credits = solve_energy_parity(ep, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert credits.tolist() == want.tolist()
    assert peak <= charge


# A down-chain loses one credit per move and a ladder one per two moves, so
# on their unfoldings player 1's attractor of the overflow states climbs the
# credit layers one round at a time: about c and 2c rounds deep.
_DOWN_CHAIN = EnergyParityGame.of((0,), (0,), (((0, -1),),))
_LADDER = EnergyParityGame.of((0, 1), (0, 1), (((1, -1),), ((0, 0),)))


@pytest.mark.parametrize("c", [40, 100, 300])
@pytest.mark.parametrize("game", [_DOWN_CHAIN, _LADDER], ids=["down-chain", "ladder"])
def test_deep_attractors_match_loops(game, c):
    u = unfold_with_bound(game, c)
    assert _regions(u) == solve_parity_loops(u)
    assert solve_energy_parity(game, c).tolist() == solve_energy_parity_loops(game, c)


def test_random_unfoldings_up_to_bound_40_match_loops():
    rng = random.Random(83)
    for _ in range(40):
        ep = random_energy_parity_game(rng, max_states=6, max_weight=1)
        c = rng.randint(0, 40)
        u = unfold_with_bound(ep, c)
        assert _regions(u) == solve_parity_loops(u)
        assert solve_energy_parity(ep, c).tolist() == solve_energy_parity_loops(ep, c)


@pytest.mark.parametrize("passes", [0, 1])
@pytest.mark.parametrize("test", [
    test_solve_parity_matches_brute_force,
    test_array_pipeline_matches_loops,
    test_random_unfoldings_up_to_bound_40_match_loops,
], ids=lambda t: t.__name__)
def test_attractors_over_the_predecessor_index(monkeypatch, test, passes):
    # with PASSES = 0 every attractor round goes over the index, and with 1
    # every round after the first that reaches fewer than all edges
    monkeypatch.setattr(parity, "PASSES", passes)
    test()


def test_the_predecessor_index_is_built_only_for_deep_attractors(monkeypatch):
    build, builds = parity._predecessors, []

    def counted(src, dst, n):
        builds.append(n)
        return build(src, dst, n)

    monkeypatch.setattr(parity, "_predecessors", counted)
    solve_energy_parity(from_parity_wgs(_case_332()), 2)
    assert builds == []
    for _ in range(2):
        solve_energy_parity(_LADDER, 300)
    assert builds == [2 * 302 + 2] * 2


def _attractor(g, base):
    """Player 0's attractor of the states ``base`` in the total game ``g``."""
    n = g.n_states
    index = functools.partial(parity._predecessors, g.src, g.dst, n)
    mask = np.zeros(n, dtype=bool)
    mask[base] = True
    in_attr = parity._attract(g.owners == 0, g.src, g.dst, index, 0, mask,
                              np.ones(n, dtype=bool))
    return set(np.flatnonzero(in_attr).tolist())


@pytest.mark.parametrize("passes", [32, 0])
def test_parallel_edges_count_once_each(monkeypatch, passes):
    # Player 1's state 0 has two parallel edges into the target 1 and a third
    # into 2.  Player 0 attracts it only once all three edges lead inside:
    # in the third round, after 3 and then 2 joined, and never when 2 is a
    # self-loop of player 1.
    monkeypatch.setattr(parity, "PASSES", passes)
    chain = ParityGame.of((1, 0, 1, 0), (0, 0, 0, 0), ((1, 1, 2), (1,), (3,), (1,)))
    assert _attractor(chain, [1]) == {0, 1, 2, 3}
    escape = ParityGame.of((1, 0, 1), (0, 0, 0), ((1, 1, 2), (1,), (2,)))
    assert _attractor(escape, [1]) == {1}


def test_an_attractor_whose_base_is_its_subgame_reads_no_edge():
    # Zielonka's base case (every state of the subgame has its least
    # priority) and the one-state sink subgame: the base is the attractor,
    # returned without a pass over the edges, which are not even given here
    own0 = np.array([True, False, True, False])
    active = np.array([True, True, False, True])
    for player in (0, 1):
        base = active.copy()
        assert parity._attract(own0, None, None, None, player, base, active) is base
