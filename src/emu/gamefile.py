"""JSON game files.

A game document has the fields ``vars`` (ordered name list), ``inputs``
(subset of vars), ``rho_e`` and ``rho_s`` (assertion strings), ``weights``
(ordered list of ``{"guard": ..., "weight": ...}``), and optionally
``priorities`` (list of ``{"guard": ..., "priority": ...}``) and ``formula``
(a formula string, the winning condition).  This module only parses: the
game model refuses a weight or priority that is not an integer and a
formula that is open or not monotone, and the readers report its refusals,
and those of the assertion and formula parsers, as ``GameFormatError``.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import assertions as asr
from . import formulas as fm
from .errors import EmuError, GameFormatError
from .game import PriorityRule, VariableSet, WeightedGameStructure, WeightRule


def _names(value, what):
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{what} must be a list of variable names, got {value!r}")
    return value


def game_from_dict(doc: dict) -> WeightedGameStructure:
    try:
        return WeightedGameStructure(
            vars=VariableSet(_names(doc["vars"], "vars"), _names(doc["inputs"], "inputs")),
            rho_e=asr.parse_assertion(doc["rho_e"]),
            rho_s=asr.parse_assertion(doc["rho_s"]),
            weights=[WeightRule(asr.parse_assertion(w["guard"]), w["weight"])
                     for w in doc["weights"]],
            priorities=_optional(doc, "priorities", parse_priorities),
            formula=_optional(doc, "formula", fm.parse_formula),
        )
    except KeyError as e:
        raise GameFormatError(f"missing field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise GameFormatError(f"malformed game document: {e}") from e
    except EmuError as e:
        raise GameFormatError(str(e)) from e


def _optional(doc, field, parse):
    return None if doc.get(field) is None else parse(doc[field])


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


def _read_json(path, kind, what):
    """The JSON document in the file ``path``, which must be a ``kind``."""
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as e:
        # not UTF-8, not JSON, or past Python's limits on digits or nesting
        raise GameFormatError(f"{path}: not readable as JSON: {e}") from e
    if not isinstance(doc, kind):
        raise GameFormatError(f"{path}: expected {what}")
    return doc


def load_game(path) -> WeightedGameStructure:
    return game_from_dict(_read_json(path, dict, "a JSON object"))


def save_game(game: WeightedGameStructure, path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2) + "\n")


def parse_priorities(rows) -> tuple[PriorityRule, ...]:
    return tuple(PriorityRule(asr.parse_assertion(r["guard"]), r["priority"])
                 for r in rows)


def load_priorities(path) -> tuple[PriorityRule, ...]:
    rows = _read_json(path, list, "a JSON list of priority rules")
    try:
        return parse_priorities(rows)
    except (KeyError, TypeError, ValueError) as e:
        raise GameFormatError(f"{path}: malformed priority rules: {e}") from e
    except EmuError as e:
        raise GameFormatError(str(e)) from e
