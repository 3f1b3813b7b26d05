"""The fixpoint loop shared by the set and the credit semantics."""

import dataclasses
import operator

import numpy as np
import pytest

import emu.classical
import emu.energy
from emu import EnergyFunction, FixpointStats, cpre_sys, eval_classical, eval_energy, neg
from emu import formulas as fm
from emu.classical import Lattice, evaluate
from emu.errors import BoundMismatchError, IterationCapError

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
