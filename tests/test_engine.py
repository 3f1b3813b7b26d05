"""The fixpoint loop shared by the set and the credit semantics."""

import dataclasses
import operator
import random
from unittest import mock

import numpy as np
import pytest

import emu.classical
import emu.energy
from emu import (
    EnergyFunction,
    FixpointStats,
    cpre_sys,
    eval_classical,
    eval_energy,
    load_priorities,
)
from emu import formulas as fm
from emu.classical import Lattice, evaluate
from emu.errors import BoundMismatchError, IterationCapError
from emu.randgen import random_wgs
from oracles import eval_energy_plain, random_nested_formula

BUILTINS = [
    ("safety", {}),
    ("reach", {"p": "y"}),
    ("buchi", {"J": "y"}),
    ("cobuchi", {"J": "y"}),
    ("dual-buchi", {"J": "y"}),
]

# (applications, cap) per fixpoint on fixtures/g1.game, in completion order:
# set semantics, then the credit semantics at bounds 0 and 2.
FIXTURE_CAPS = {
    "safety": ([(1, 4)], [(1, 4)], [(1, 12)]),
    "reach": ([(3, 4)], [(2, 4)], [(4, 12)]),
    "buchi": ([(3, 4), (1, 4)],
              [(2, 4), (1, 4), (1, 4), (3, 4)],
              [(4, 12), (1, 12)]),
    "cobuchi": ([(2, 4), (1, 4), (1, 4), (3, 4)],
                [(3, 4), (1, 4)],
                [(5, 12), (1, 12)]),
    "dual-buchi": ([(3, 4), (1, 4)],
                   [(2, 4), (1, 4), (1, 4), (3, 4)],
                   [(4, 12), (1, 12)]),
}


@pytest.mark.parametrize("name,params", BUILTINS)
def test_fixture_iteration_counts(g1, name, params):
    f = fm.builtin(name, **params)
    classical, at0, at2 = FIXTURE_CAPS[name]
    stats = FixpointStats()
    eval_classical(g1, f, stats=stats)
    assert stats.caps == classical
    for c, want in ((0, at0), (2, at2)):
        stats = FixpointStats()
        eval_energy(g1, c, f, stats=stats)
        assert stats.caps == want
        assert stats.fixpoints == len(want)
        assert stats.cuts == 0  # cap (N-1)K = 3 is not below c


# A step that flips its argument is not monotone: from bottom it jumps to top
# and back, so a least fixpoint stops ascending and a greatest one stops
# descending on the second application.
@pytest.mark.parametrize("formula", ["mu X . <>X", "nu X . <>X"])
def test_classical_rejects_broken_chain(g1, monkeypatch, formula):
    monkeypatch.setattr(emu.classical, "cpre_sys", lambda game, target: ~target)
    with pytest.raises(IterationCapError, match="not (ascending|descending)"):
        eval_classical(g1, fm.parse_formula(formula))


@pytest.mark.parametrize("formula", ["mu X . <>X", "nu X . <>X"])
def test_energy_rejects_broken_chain(g1, monkeypatch, formula):
    monkeypatch.setattr(emu.energy, "_ecpre", lambda t, rho_et, c, x: emu.energy._neg(c, x))
    with pytest.raises(IterationCapError, match="not (ascending|descending)"):
        eval_energy(g1, 2, fm.parse_formula(formula))


def _set_lattice(game, height):
    n = game.n_states
    return Lattice(
        atom=lambda mask: mask, neg=operator.invert,
        join=operator.or_, meet=operator.and_,
        pre_sys=lambda s: cpre_sys(game, s),
        bottom=np.zeros(n, dtype=bool), top=np.ones(n, dtype=bool),
        leq=lambda a, b: bool((a <= b).all()), height=height,
    )


def _rewritten(game, f):
    """The fixpoint nodes of f as the engine rewrites them, in the order it
    compiles them (innermost first), and per evaluation of one under the
    set semantics, the node and the environment its loop starts from."""
    nodes, runs = [], []

    def cut(node, root):
        nodes.append(node)
        return lambda env: runs.append((node, dict(env)))  # and no cut
    lat = dataclasses.replace(_set_lattice(game, game.n_states), cut=cut)
    evaluate(lat, game.tables(), f)
    return nodes, runs


def test_cap_stops_a_chain_longer_than_the_height(g1):
    # reach p=y climbs through two strict changes on the fixture
    lat = _set_lattice(g1, 1)
    reach = fm.builtin("reach", p="y")
    with pytest.raises(IterationCapError, match="still moving after 1 changes"):
        evaluate(lat, g1.tables(), reach)
    stats = FixpointStats()
    got = evaluate(dataclasses.replace(lat, height=2), g1.tables(), reach,
                   stats=stats)
    assert (got == eval_classical(g1, reach)).all()
    assert stats.caps == [(3, 2)]


def test_valuation_must_share_the_bound(g1):
    f = fm.parse_formula("<>X")
    with pytest.raises(BoundMismatchError):
        eval_energy(g1, 2, f, {"X": EnergyFunction.top(3, g1.n_states)})
    top = EnergyFunction.top(2, g1.n_states)
    assert eval_energy(g1, 2, f, {"X": top}) == top
    # and one entry per state of the game: 8 or 1 credits on the 4 states of
    # the fixture are refused before any step reads them
    for n in (8, 1):
        for g in (f, fm.parse_formula("X")):
            with pytest.raises(BoundMismatchError,
                               match=f"'X' has bound 2 over {n} states, expected 2 over 4"):
                eval_energy(g1, 2, g, {"X": EnergyFunction(2, np.zeros(n, np.int64))})


def test_each_atom_is_built_once_per_evaluation(g1, monkeypatch):
    # buchi J=y iterates two nested fixpoints over its one atom
    calls = []
    state_mask = type(g1.tables()).state_mask
    monkeypatch.setattr(type(g1.tables()), "state_mask",
                        lambda t, a: calls.append(a) or state_mask(t, a))
    f = fm.builtin("buchi", J="y")
    stats = FixpointStats()
    eval_energy(g1, 2, f, stats=stats)
    assert len(calls) == 1 and sum(apps for apps, _ in stats.caps) > 1
    eval_classical(g1, fm.builtin("reach", p="y"))
    assert len(calls) == 2
    # the cached mask is shared by every iteration, so it cannot be written
    assert not eval_classical(g1, fm.parse_formula('@"y"')).flags.writeable


@pytest.fixture
def count_ecpre(monkeypatch):
    """A list that grows by one per call of the step kernel ``_ecpre``: per
    ``<>`` and ``[]`` step of the engine, and per ``ecpre`` and
    ``ecpre_env`` call of the plain reference."""
    calls, real = [], emu.energy._ecpre

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(emu.energy, "_ecpre", counted)
    return calls


# formula -> (hoisted, ecpre calls unhoisted, ecpre calls) on fixtures/g1.game,
# per bound.  The applications stay those of FIXTURE_CAPS["buchi"], which the
# parity formula of g1_buchi.prio (y has priority 0, !y priority 1) shares.
FIXTURE_HOISTS = {
    "buchi": {0: (3, 8, 7), 2: (1, 8, 5)},
    "parity": {0: (3, 8, 7), 2: (1, 8, 5)},
}


@pytest.mark.parametrize("name", FIXTURE_HOISTS)
def test_fixture_hoisted_work(g1, fixtures_dir, count_ecpre, name):
    # y & <>Z (buchi) and y & <>Z0 (parity) are evaluated once per
    # evaluation of the inner mu, not once per iteration of it
    f = (fm.builtin("buchi", J="y") if name == "buchi"
         else fm.parity_formula(load_priorities(fixtures_dir / "g1_buchi.prio")))
    for c, (hoisted, unhoisted_calls, calls) in FIXTURE_HOISTS[name].items():
        count_ecpre.clear()
        want = eval_energy_plain(g1, c, f)
        assert len(count_ecpre) == unhoisted_calls
        count_ecpre.clear()
        stats = FixpointStats()
        assert eval_energy(g1, c, f, stats=stats) == want
        assert (stats.hoisted, len(count_ecpre)) == (hoisted, calls)
        assert stats.caps == FIXTURE_CAPS["buchi"][1 + (c == 2)]


def test_hoisting_goes_by_position(g1):
    # One object, <>X, sits at four positions: in the outer nu X's body;
    # under the mu Y, where that loop cannot change it, so a & <>X is
    # hoisted to it; and twice under the inner nu X, where X is the loop's
    # own variable, so only []Y is hoisted to that loop.
    step, box_y = fm.Diamond(fm.RelVar("X")), fm.Box(fm.RelVar("Y"))
    a = fm.Atom(fm.asr.Var("y"))
    inner = fm.Nu("X", fm.Or(fm.And(step, a), fm.And(step, box_y)))
    f = fm.Nu("X", fm.And(step, fm.Mu("Y", fm.Or(fm.And(a, step), inner))))
    nodes, runs = _rewritten(g1, f)
    inner_rewritten = fm.Nu("X", fm.Or(fm.And(step, a), fm.And(step, fm.RelVar("#0"))))
    mu_rewritten = fm.Mu("Y", fm.Or(fm.RelVar("#1"), inner_rewritten))
    assert nodes == [inner_rewritten, mu_rewritten, fm.Nu("X", fm.And(step, mu_rewritten))]
    # []Y is evaluated before each loop of the inner nu X, a & <>X before
    # each loop of the mu Y, from the values of Y and of the outer X there
    assert {node for node, _ in runs} == set(nodes)
    for node, env in runs:
        if node == inner_rewritten:
            assert (env["#0"] == eval_classical(g1, box_y, {"Y": env["Y"]})).all()
        elif node == mu_rewritten:
            assert "#0" not in env
            assert (env["#1"] == eval_classical(g1, fm.And(a, step), {"X": env["X"]})).all()
        else:
            assert not {"#0", "#1"} & set(env)
    # a term moves out past every loop that cannot change it: <>X out of
    # the mu W and the nu Y, to be evaluated before the nu Y's loop
    f = fm.parse_formula("nu X . <>X & (nu Y . <>Y & (mu W . []W | <>X))")
    assert {node.name for node, env in _rewritten(g1, f)[1] if "#0" in env} == {"Y", "W"}
    for c in (0, 1, 2, 5):
        assert eval_energy(g1, c, f) == eval_energy_plain(g1, c, f)
        assert eval_energy(g1, c, fm.negate(f)) == eval_energy_plain(g1, c, fm.negate(f))


@pytest.mark.parametrize("text", [
    "nu X . a",
    "nu Z . (mu Y . <>Z)",
    "mu Z . (nu Y . ([]Z | a))",
    "nu Z . (<>Z & (mu Y . (<>Z | b)))",
])
def test_a_body_that_does_not_read_its_loop_is_hoisted_whole(text):
    # the innermost binder's body does not read its variable: it is replaced
    # whole by a placeholder, evaluated once before that loop (an atom stays)
    f = fm.parse_formula(text)
    inner = _rewritten(random_wgs(random.Random(0), 2, 2, 2), f)[0][0]
    assert (isinstance(inner.sub, fm.Atom) if text == "nu X . a"
            else inner.sub == fm.RelVar("#0"))
    for seed in range(200):
        g = random_wgs(random.Random(seed), 2, 2, 2)
        for c in (0, 3, 17):
            for node in (f, fm.negate(f)):
                assert eval_energy(g, c, node) == eval_energy_plain(g, c, node)


def test_hoisting_and_cuts_match_the_plain_semantics():
    """The engine hoists invariant subterms and cuts fixpoints whose free
    variables are two-valued; the plain semantics does neither.  They agree
    on random nested formulas and their negations, at bounds below and
    above cap = (N-1)K, and so does the engine with the cut limited to
    closed fixpoints, as before two-valued free variables counted."""
    added = 0  # fixpoint evaluations cut for two-valued free variables
    for seed in range(150):
        rng = random.Random(seed)
        g = random_wgs(rng, 2, 2, 2)
        f = random_nested_formula(rng)
        cap = (g.n_states - 1) * g.max_abs_weight
        for c in {max(cap - 1, 0), cap + 1, 3 * cap + 5}:
            for node in (f, fm.negate(f)):
                want = eval_energy_plain(g, c, node)
                stats = FixpointStats()
                assert eval_energy(g, c, node, stats=stats) == want
                closed = FixpointStats()
                with mock.patch.object(emu.energy, "_two_valued", lambda f: False):
                    assert eval_energy(g, c, node, stats=closed) == want
                if c <= cap:
                    assert stats.cuts == closed.cuts == 0
                added += stats.cuts - closed.cuts
    assert added >= 50


@pytest.mark.parametrize("name", ["#0", "#1"])
def test_a_placeholder_name_is_refused_as_a_variable(g1, name):
    # the engine hoists mu Y . y | <>Y out of the nu as the placeholder #0,
    # so a binder or free variable of that name would read the hoisted
    # value; every entry into the engine refuses it
    from emu import assertions as asr, solve
    from emu.errors import EmuError

    def body(x):
        reach = fm.Mu("Y", fm.Or(fm.Atom(asr.Var("y")), fm.Diamond(fm.RelVar("Y"))))
        return fm.And(fm.Diamond(fm.RelVar(x)), reach)

    renamed = fm.Nu("Z", body("Z"))
    assert _rewritten(g1, renamed)[0][-1] == fm.Nu(
        "Z", fm.And(fm.Diamond(fm.RelVar("Z")), fm.RelVar("#0")))
    for run in (lambda f, **kw: eval_energy(g1, 3, f, **kw),
                lambda f, **kw: eval_classical(g1, f, **kw),
                lambda f: solve(g1, f, 3)):
        with pytest.raises(EmuError, match="fixpoint variable"):
            run(fm.Nu(name, body(name)))
        run(renamed)
    with pytest.raises(EmuError, match="fixpoint variable"):
        eval_energy(g1, 3, body(name), valuation={name: EnergyFunction.top(3, 4)})
