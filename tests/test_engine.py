"""The fixpoint loop shared by the set and the credit semantics."""

import dataclasses
import operator
import random
from unittest import mock

import numpy as np
import pytest

import emu.classical
import emu.energy
import oracles
from emu import (
    EnergyFunction,
    FixpointStats,
    cpre_sys,
    eval_classical,
    eval_energy,
    load_priorities,
    neg,
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
    monkeypatch.setattr(emu.energy, "ecpre", lambda game, c, f: neg(f))
    with pytest.raises(IterationCapError, match="not (ascending|descending)"):
        eval_energy(g1, 2, fm.parse_formula(formula))


def test_cap_stops_a_chain_longer_than_the_height(g1):
    # reach p=y climbs through two strict changes on the fixture
    n = g1.n_states
    lat = Lattice(
        atom=lambda mask: mask, neg=operator.invert,
        join=operator.or_, meet=operator.and_,
        pre_sys=lambda s: cpre_sys(g1, s), pre_env=None,
        bottom=np.zeros(n, dtype=bool), top=np.ones(n, dtype=bool),
        leq=lambda a, b: bool((a <= b).all()), eq=np.array_equal, height=1,
    )
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
    """A list that grows by one per ``ecpre`` call, of the engine's (which
    ``ecpre_env`` makes too) and of the plain reference's."""
    calls, real = [], emu.energy.ecpre

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(emu.energy, "ecpre", counted)
    monkeypatch.setattr(oracles, "ecpre", counted)
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
    _, hoists = emu.classical._hoist(f)
    assert list(hoists.values()) == [[("#0", box_y)], [("#1", fm.And(a, step))]]
    for c in (0, 1, 2, 5):
        assert eval_energy(g1, c, f) == eval_energy_plain(g1, c, f)
        assert eval_energy(g1, c, fm.negate(f)) == eval_energy_plain(g1, c, fm.negate(f))


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
