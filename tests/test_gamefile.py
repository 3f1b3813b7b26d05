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
