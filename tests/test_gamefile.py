import dataclasses
import json

import pytest

from emu import load_game, load_priorities, save_game
from emu import formulas as fm
from emu.errors import EmuError, GameFormatError
from emu.gamefile import game_from_dict, game_to_dict


def test_load_g1(g1):
    assert g1.vars.names == ("x", "y")
    assert g1.vars.inputs == frozenset({"x"})
    assert g1.max_abs_weight == 1
    assert g1.n_states == 4
    assert g1.formula == fm.builtin("buchi", J="y")
    assert g1.priorities is None


def test_save_load_round_trip(g1, tmp_path):
    path = tmp_path / "copy.game"
    save_game(g1, path)
    again = load_game(path)
    assert again == g1


def test_priorities_file(fixtures_dir):
    rules = load_priorities(fixtures_dir / "g1_buchi.prio")
    assert [r.priority for r in rules] == [0, 1]


def test_missing_field():
    with pytest.raises(GameFormatError) as e:
        game_from_dict({"vars": ["x"], "inputs": []})
    assert "rho_e" in str(e.value)


# a number that is not an integer, or names that are not a list, would be
# read as some other game: -1.7 as -1, 0.9 as 0, "xy" as ["x", "y"]
_MALFORMED = [
    ("weight", -1.7), ("weight", "-1"), ("weight", True),
    ("priority", 0.9), ("priority", "0"), ("priority", False),
    ("vars", "xy"), ("inputs", "x"),
]


@pytest.mark.parametrize("field, value", _MALFORMED)
def test_malformed_values(g1, fixtures_dir, tmp_path, field, value):
    doc = game_to_dict(g1)
    doc["priorities"] = json.loads((fixtures_dir / "g1_buchi.prio").read_text())
    rows = {"weight": "weights", "priority": "priorities"}.get(field)
    if rows:
        doc[rows][0][field] = value
    else:
        doc[field] = value
    with pytest.raises(GameFormatError, match="must be"):
        game_from_dict(doc)
    if field == "priority":
        path = tmp_path / "bad.prio"
        path.write_text(json.dumps(doc["priorities"]))
        with pytest.raises(GameFormatError, match="must be an integer"):
            load_priorities(path)


def test_bad_json(tmp_path):
    p = tmp_path / "bad.game"
    p.write_text("{nope")
    with pytest.raises(GameFormatError):
        load_game(p)


def test_open_formula_rejected(g1):
    doc = game_to_dict(g1)
    doc["formula"] = "<>X"
    with pytest.raises(GameFormatError):
        game_from_dict(doc)


def test_unknown_variable_in_rho(g1):
    doc = game_to_dict(g1)
    doc["rho_s"] = "z'"
    with pytest.raises(GameFormatError):
        game_from_dict(doc)


def test_round_trip_preserves_document(g1, tmp_path):
    doc = game_to_dict(g1)
    again = game_to_dict(game_from_dict(json.loads(json.dumps(doc))))
    assert doc == again


def test_keyword_variable_round_trip():
    doc = {"vars": ["x", "nu"], "inputs": ["x"], "rho_e": "true", "rho_s": "true",
           "weights": [{"guard": "nu'", "weight": -1}, {"guard": "true", "weight": 1}],
           "formula": 'mu X . (@"nu" | <>X)'}
    game = game_from_dict(doc)
    assert game_to_dict(game)["formula"] == 'mu X . @"nu" | <>X'
    assert game_from_dict(game_to_dict(game)) == game


@pytest.mark.parametrize("name", ["true", "false"])
def test_constant_names_are_not_variables(name):
    doc = {"vars": ["x", name], "inputs": ["x"], "rho_e": "true", "rho_s": "true",
           "weights": [{"guard": "true", "weight": 1}], "formula": "nu X . <>X"}
    with pytest.raises(GameFormatError, match="constants"):
        game_from_dict(doc)


def test_game_without_formula_round_trips(g1, tmp_path):
    # the formula is optional both ways: a file written without one reads back
    game = dataclasses.replace(g1, formula=None)
    path = tmp_path / "bare.game"
    save_game(game, path)
    assert "formula" not in json.loads(path.read_text())
    assert load_game(path) == game


def test_non_monotone_formula_rejected(g1):
    doc = game_to_dict(g1)
    doc["formula"] = "mu X . !X"
    with pytest.raises(GameFormatError, match="odd number of negations"):
        game_from_dict(doc)


def _renamed(f, names):
    """``f`` with each binder and variable name n written ``names[n]``."""
    kind = type(f)
    if kind in (fm.Mu, fm.Nu):
        return kind(names[f.name], _renamed(f.sub, names))
    if kind is fm.RelVar:
        return fm.RelVar(names[f.name])
    if kind in (fm.And, fm.Or):
        return kind(_renamed(f.left, names), _renamed(f.right, names))
    if kind in (fm.Diamond, fm.Box, fm.Not):
        return kind(_renamed(f.sub, names))
    return f


def _reads_back(name):
    """Whether the formula parser reads ``name`` as that fixpoint variable."""
    try:
        f = fm.parse_formula(f"nu {name} . <>{name}")
    except EmuError:
        return False
    return f == fm.Nu(name, fm.Diamond(fm.RelVar(name)))


def test_binder_names_round_trip_or_are_refused_when_built(tmp_path):
    """A game built in code with any binder names either is refused when it
    is built, and its formula by the engine, or saves to a file that loads
    back to the same game and the same values; it is refused exactly when a
    name does not read back, as ``x``, ``_X`` or the engine's ``#0``."""
    import random

    from emu import eval_energy
    from emu.randgen import random_wgs
    from oracles import random_nested_formula

    outcomes = {True: 0, False: 0}
    for seed in range(120):
        rng = random.Random(seed)
        game = random_wgs(rng, 2, 3)
        f = random_nested_formula(rng, size=8)
        pool = ["#0", "#1", "x", "_X", "nu", "É", "X", "Y1", "Zz", "W_2", "Mu"]
        pool += ["".join(rng.choice("XYxZ_#0É '.") for _ in range(rng.randint(1, 3)))
                 for _ in range(3)]
        used = sorted({n.name for n in fm._subformulas(f)
                       if isinstance(n, (fm.Mu, fm.Nu))})
        names = dict(zip(used, rng.sample(sorted(set(pool)), len(used))))
        renamed = _renamed(f, names)
        fits = all(_reads_back(name) for name in names.values())
        outcomes[fits] += 1
        if not fits:
            with pytest.raises(EmuError, match="fixpoint variable"):
                dataclasses.replace(game, formula=renamed)
            with pytest.raises(EmuError, match="fixpoint variable"):
                eval_energy(game, 3, renamed)
            continue
        built = dataclasses.replace(game, formula=renamed)
        path = tmp_path / f"named{seed}.game"
        save_game(built, path)
        again = load_game(path)
        assert dataclasses.replace(again, formula=None) == \
            dataclasses.replace(game, formula=None)
        assert eval_energy(again, 3, again.formula) == eval_energy(game, 3, f)
    assert outcomes[True] >= 20 and outcomes[False] >= 20
