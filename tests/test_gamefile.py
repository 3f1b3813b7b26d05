import dataclasses
import json

import pytest

from emu import load_game, load_priorities, save_game
from emu import formulas as fm
from emu.errors import GameFormatError
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
