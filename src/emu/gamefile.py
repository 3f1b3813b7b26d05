"""JSON game files.

A game document has the fields ``vars`` (ordered name list), ``inputs``
(subset of vars), ``rho_e`` and ``rho_s`` (assertion strings), ``weights``
(ordered list of ``{"guard": ..., "weight": ...}``), optional ``priorities``
(list of ``{"guard": ..., "priority": ...}``), and ``formula`` (a formula
string, the winning condition).
"""

from __future__ import annotations

import json
from pathlib import Path

from . import assertions as asr
from . import formulas as fm
from .errors import EmuError, GameFormatError
from .game import PriorityRule, VariableSet, WeightedGameStructure, WeightRule


def _integer(value, what):
    """A JSON integer; floats, strings and booleans are refused, not cast."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _names(value, what):
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{what} must be a list of variable names, got {value!r}")
    return value


def game_from_dict(doc: dict) -> WeightedGameStructure:
    try:
        names = tuple(_names(doc["vars"], "vars"))
        inputs = frozenset(_names(doc["inputs"], "inputs"))
        rho_e = asr.parse_assertion(doc["rho_e"])
        rho_s = asr.parse_assertion(doc["rho_s"])
        weights = tuple(
            WeightRule(asr.parse_assertion(w["guard"]), _integer(w["weight"], "a weight"))
            for w in doc["weights"]
        )
        priorities = None
        if doc.get("priorities") is not None:
            priorities = parse_priorities(doc["priorities"])
        formula = fm.parse_formula(doc["formula"])
    except KeyError as e:
        raise GameFormatError(f"missing field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise GameFormatError(f"malformed game document: {e}") from e
    if not fm.is_closed(formula):
        raise GameFormatError("the winning formula must be closed")
    fm.require_monotone(formula)
    try:
        return WeightedGameStructure(
            vars=VariableSet(names, inputs),
            rho_e=rho_e,
            rho_s=rho_s,
            weights=weights,
            priorities=priorities,
            formula=formula,
        )
    except EmuError as e:
        raise GameFormatError(str(e)) from e


def game_to_dict(game: WeightedGameStructure) -> dict:
    doc = {
        "vars": list(game.vars.names),
        "inputs": sorted(game.vars.inputs, key=game.vars.names.index),
        "rho_e": asr.assertion_to_str(game.rho_e),
        "rho_s": asr.assertion_to_str(game.rho_s),
        "weights": [
            {"guard": asr.assertion_to_str(r.guard), "weight": r.weight}
            for r in game.weights
        ],
    }
    if game.priorities is not None:
        doc["priorities"] = [
            {"guard": asr.assertion_to_str(r.guard), "priority": r.priority}
            for r in game.priorities
        ]
    if game.formula is not None:
        doc["formula"] = fm.formula_to_str(game.formula)
    return doc


def load_game(path) -> WeightedGameStructure:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise GameFormatError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise GameFormatError(f"{path}: expected a JSON object")
    return game_from_dict(doc)


def save_game(game: WeightedGameStructure, path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2) + "\n")


def parse_priorities(rows) -> tuple[PriorityRule, ...]:
    return tuple(
        PriorityRule(asr.parse_assertion(r["guard"]),
                     _integer(r["priority"], "a priority"))
        for r in rows
    )


def load_priorities(path) -> tuple[PriorityRule, ...]:
    try:
        rows = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise GameFormatError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(rows, list):
        raise GameFormatError(f"{path}: expected a JSON list of priority rules")
    try:
        return parse_priorities(rows)
    except (KeyError, TypeError, ValueError) as e:
        raise GameFormatError(f"{path}: malformed priority rules: {e}") from e
