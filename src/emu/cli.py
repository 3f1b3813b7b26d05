"""Command-line front end.

Subcommands: ``solve`` (minimum credits / decision), ``bound`` (sufficient
bound computation), ``region`` (winning regions), ``check`` (seeded
differential testing against the independent oracles).

Exit codes: 0 the system wins (or a check passed), 1 the system loses,
2 usage or input error, 3 internal consistency failure or oracle mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import random
import sys
from itertools import compress
from pathlib import Path

import numpy as np

from . import formulas as fm
from .energy import INF, EnergyFunction, eval_energy
from .errors import ConsistencyError, EmuError, IterationCapError
from .game import WeightedGameStructure
from .gamefile import game_to_dict, load_game, load_priorities, save_game
from .randgen import random_formula, random_wgs
from .reduction import oracle_max_credit_env, oracle_min_credit_sys
from .solver import SolveRequest, compute_bound, crosscheck_parity, solve
from . import assertions as asr

EXIT_WIN = 0
EXIT_LOSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SCHEMA_VERSION = 1


class _UsageError(EmuError):
    pass


def _formula_from_args(args, game):
    sources = [s for s in ("formula", "formula_file", "builtin") if getattr(args, s, None)]
    if len(sources) > 1:
        raise _UsageError("give at most one of --formula/--formula-file/--builtin")
    if args.param and not args.builtin:
        raise _UsageError("--param is only for --builtin")
    if not sources:
        if game.formula is None:
            raise _UsageError("the game file has no formula; give one")
        return game.formula
    if args.formula:
        return fm.parse_formula(args.formula)
    if args.formula_file:
        return fm.parse_formula(Path(args.formula_file).read_text())
    params = {}
    for kv in args.param or []:
        if "=" not in kv:
            raise _UsageError(f"--param expects k=v, got {kv!r}")
        k, v = kv.split("=", 1)
        params[k] = v
    return fm.builtin(args.builtin, **params)


def _game_from_args(args) -> WeightedGameStructure:
    game = load_game(args.game)
    if getattr(args, "priorities", None):
        game = dataclasses.replace(game, priorities=load_priorities(args.priorities))
    return game


def _at_least(least):
    """An argparse type accepting integers no smaller than ``least``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return parse


def _parse_bound(text):
    return math.inf if text == "inf" else _at_least(0)(text)


def _state_names(game, quote=str):
    """Each state's minterm (``!x & y``) in index order, built by doubling:
    each variable, as the next higher bit, extends every name both ways.
    ``quote`` maps each variable name once; the separators need no quoting."""
    vs = [quote(v) for v in game.vars.names]
    names = ["!" + vs[0], vs[0]] if vs else ["true"]
    for v in vs[1:]:
        neg, pos = " & !" + v, " & " + v
        names = [p + neg for p in names] + [p + pos for p in names]
    return names


def _state_name(game, i):
    """The name of state ``i`` alone, as ``_state_names`` gives it."""
    return " & ".join(v if i >> k & 1 else "!" + v
                      for k, v in enumerate(game.vars.names)) or "true"


def _report_names(game, report, quote=str):
    """The state names of every writer, then the names in W_sys and W_env."""
    names = _state_names(game, quote)
    return (names, list(compress(names, report.sys_region.tolist())),
            list(compress(names, report.env_region.tolist())))


def _credit_texts(report):
    """Each state's credit, and the text of each distinct one (``inf``)."""
    values = report.min_credits.values.tolist()
    return values, {v: "inf" if v == INF else str(v) for v in set(values)}


def _json_list(items, left='"', right='"') -> str:
    """``[left item right, ...]``, spaced as ``json.dumps`` spaces a list."""
    return "[" + left + (right + ", " + left).join(items) + right + "]" if items else "[]"


def solve_report_json(report, game, formula, query=None) -> str:
    """The solve's JSON document, written in one pass and byte for byte what
    ``json.dumps`` writes with its default separators; ``query`` is the
    ``--state`` text and its state mask, or None."""
    bb = report.bound_breakdown
    head = json.dumps({
        "schema": SCHEMA_VERSION, "command": "solve",
        "formula": fm.formula_to_str(formula),
        "requested_bound": "inf" if report.unbounded else report.effective_bound,
        "effective_bound": report.effective_bound, "bound_variant": bb.variant,
        "N": bb.n_states, "K": bb.max_abs_weight, "m": bb.formula_length,
        "d": bb.alternation_depth,
    })
    names, w_sys, w_env = _report_names(game, report, lambda v: json.dumps(v)[1:-1])
    values, texts = _credit_texts(report)
    tail = {v: '", "credit": "' + text for v, text in texts.items()}
    # each row is a min_credits entry between '{"state": "' and '"}'
    rows = [name + tail[v] for name, v in zip(names, values)]
    row = ('{"state": "', '"}')
    parts = [head[:-1], ', "min_credits": ', _json_list(rows, *row),
             ', "w_sys": ', _json_list(w_sys), ', "w_env": ', _json_list(w_env)]
    if query is not None:
        picked = [rows[i] for i in np.flatnonzero(query[1]).tolist()]
        parts += [', "query": {"state": ', json.dumps(query[0]), ', "results": ',
                  _json_list(picked, *row), "}"]
    return "".join(parts) + "}"


def solve_report_from_json(doc: dict):
    """Rebuild the solved quantities from a JSON report (for round-tripping)."""
    if doc.get("schema") != SCHEMA_VERSION:
        raise EmuError(f"unsupported report schema {doc.get('schema')!r}")
    bound, rows = int(doc["effective_bound"]), doc["min_credits"]
    values = [INF if row["credit"] == "inf" else int(row["credit"]) for row in rows]
    credits = EnergyFunction(bound, np.array(values, dtype=np.int64))
    w_sys, w_env = ([row["state"] in names for row in rows]
                    for names in (set(doc["w_sys"]), set(doc["w_env"])))
    return bound, credits, np.array(w_sys), np.array(w_env)


def cmd_solve(args) -> int:
    game = _game_from_args(args)
    formula = _formula_from_args(args, game)
    query_mask = None
    if args.state:
        query_mask = game.tables().state_mask(asr.parse_assertion(args.state))
        if not query_mask.any():
            raise _UsageError(f"no state satisfies {args.state!r}")
    report = solve(SolveRequest(game=game, formula=formula, bound=args.bound))

    if args.format == "json":
        query = None if query_mask is None else (args.state, query_mask)
        print(solve_report_json(report, game, formula, query))
    else:
        print(f"effective bound: {report.effective_bound}"
              + (" (computed: requested inf)" if report.unbounded else ""))
        bb = report.bound_breakdown
        print(f"N={bb.n_states} K={bb.max_abs_weight} m={bb.formula_length}"
              f" d={bb.alternation_depth} variant={bb.variant}")
        values, texts = _credit_texts(report)
        if query_mask is None:
            print("min credits:")
            for name, v in zip(_state_names(game), values):
                print(f"  {name}: {texts[v]}")
        else:
            for i in np.flatnonzero(query_mask).tolist():
                credit = texts[values[i]]
                verdict = "loses" if credit == "inf" else "wins"
                print(f"state {_state_name(game, i)}: min credit {credit} -> system {verdict}")
        print(f"W_sys: {report.sys_region.sum()} states,"
              f" W_env: {report.env_region.sum()} states")

    wins = (report.sys_region.any() if query_mask is None
            else report.sys_region[query_mask].all())
    return EXIT_WIN if wins else EXIT_LOSE


def cmd_bound(args) -> int:
    game = _game_from_args(args)
    formula = _formula_from_args(args, game)
    bb = compute_bound(game, formula)
    if args.format == "json":
        print(json.dumps({
            "schema": SCHEMA_VERSION,
            "command": "bound",
            "N": bb.n_states,
            "K": bb.max_abs_weight,
            "m": bb.formula_length,
            "d": bb.alternation_depth,
            "variant": bb.variant,
            "bound": bb.bound,
        }))
    else:
        print(f"N={bb.n_states} K={bb.max_abs_weight} m={bb.formula_length}"
              f" d={bb.alternation_depth}")
        print(f"variant: {bb.variant}")
        print(f"bound: {bb.bound}")
    return EXIT_WIN


def cmd_region(args) -> int:
    game = _game_from_args(args)
    formula = _formula_from_args(args, game)
    if args.bound == math.inf:
        raise _UsageError("region needs a finite --bound")
    report = solve(SolveRequest(game=game, formula=formula, bound=args.bound))
    _, w_sys, w_env = _report_names(game, report)
    if args.format == "json":
        print(json.dumps({
            "schema": SCHEMA_VERSION,
            "command": "region",
            "bound": report.effective_bound,
            "w_sys": w_sys,
            "w_env": w_env,
        }))
    else:
        print(f"W_sys ({len(w_sys)} states):")
        for s in w_sys:
            print(f"  {s}")
        print(f"W_env ({len(w_env)} states):")
        for s in w_env:
            print(f"  {s}")
        print(f"partition: {len(w_sys)} + {len(w_env)} = {game.n_states}")
    return EXIT_WIN


def _mutate_credits(credits: EnergyFunction) -> EnergyFunction:
    """Corrupt one value; used to verify the harness catches evaluator bugs."""
    values = credits.values.copy()
    values[0] = 0 if values[0] == INF else INF
    return EnergyFunction(credits.bound, values)


def _draw_reduction(rng, args):
    game = random_wgs(rng, 2, args.max_vars, args.max_weight)
    c = rng.randint(0, args.max_bound)
    return (game, c, *random_formula(rng, game.vars))


def _check_reduction(game, c, formula, mutate):
    mine = eval_energy(game, c, formula)
    if mutate:
        mine = _mutate_credits(mine)
    want = oracle_min_credit_sys(game, c, formula)
    if mine != want:
        return "system-side minimum credits disagree"
    dual = fm.negate(formula)
    mine_env = eval_energy(game, c, dual)
    want_env = oracle_max_credit_env(game, c, dual)
    if mine_env != want_env:
        return "environment-side values disagree"
    w_sys = mine.is_finite()
    w_env = mine_env.values == 0
    if (w_sys & w_env).any() or not (w_sys | w_env).all():
        return "regions do not partition the states"
    return None


def _draw_parity(rng, args):
    game = random_wgs(rng, 2, args.max_vars, args.max_weight, priorities=True)
    return game, rng.randint(0, args.max_bound), "parity", None


def _check_parity(game, c, formula, mutate):
    # --mutate stands for a corrupted symbolic credit, which differs from the
    # explicit credit wherever the two agreed
    if mutate or not crosscheck_parity(game, c).ok:
        return "symbolic and explicit credits disagree"
    return None


def cmd_check(args) -> int:
    draw, check = ((_draw_parity, _check_parity) if args.oracle == "parity"
                   else (_draw_reduction, _check_reduction))
    for i in range(args.cases):
        game, c, name, formula = draw(random.Random(args.seed * 1_000_003 + i), args)
        try:
            why = check(game, c, formula, args.mutate)
        except (ConsistencyError, IterationCapError) as e:
            why = str(e)  # an oracle or the engine found itself inconsistent
        if why is not None:
            break
        print(f"case {i:04d} ok")
    if why is not None:
        stem = Path(args.dump_dir) / f"counterexample-seed{args.seed}-case{i}"
        save_game(game, stem.with_suffix(".game"))
        stem.with_suffix(".json").write_text(json.dumps({
            "schema": SCHEMA_VERSION,
            "command": "check",
            "seed": args.seed,
            "case": i,
            "oracle": args.oracle,
            "bound": c,
            "formula_kind": name,
            "reason": why,
            "game": game_to_dict(game),
        }, indent=2) + "\n")
        print(f"case {i:04d} MISMATCH: {why}")
        print(f"  reproduce from {stem.with_suffix('.game')} (bound {c})")
    print(f"checked {i + 1} cases, {int(why is not None)} mismatches")
    return EXIT_WIN if why is None else EXIT_INTERNAL


def _add_formula_args(p):
    p.add_argument("--formula", help="formula string")
    p.add_argument("--formula-file", help="file containing a formula")
    p.add_argument("--builtin", help="builtin formula name"
                   f" ({', '.join(fm.BUILTIN_NAMES)})")
    p.add_argument("--param", action="append", metavar="K=V",
                   help="builtin parameter, e.g. J=\"y\"")
    p.add_argument("--priorities", help="JSON file with priority rules")
    p.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``emu`` argument parser, built once per process: ``parse_args``
    writes only to a fresh namespace, and no default is a mutable object
    two parses could share."""
    top = argparse.ArgumentParser(
        prog="emu",
        description="Solve omega-regular energy games with fixpoint formulas.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimum credits and winning decision")
    p.add_argument("game", help="game file (JSON)")
    _add_formula_args(p)
    p.add_argument("--bound", type=_parse_bound, default="inf",
                   help="energy upper bound, a natural number or 'inf'")
    p.add_argument("--state", help="assertion selecting the queried state(s)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bound", help="sufficient upper bound for a game/formula")
    p.add_argument("game")
    _add_formula_args(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("region", help="winning regions at a finite bound")
    p.add_argument("game")
    _add_formula_args(p)
    p.add_argument("--bound", type=_parse_bound, required=True)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("check", help="seeded differential testing")
    p.add_argument("--oracle", choices=("reduction", "parity"),
                   default="reduction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_at_least(1), default=100)
    p.add_argument("--max-vars", type=_at_least(2), default=4)
    p.add_argument("--max-weight", type=_at_least(0), default=2)
    p.add_argument("--max-bound", type=_at_least(0), default=8)
    p.add_argument("--dump-dir", default=".",
                   help="where to write counterexample artifacts")
    p.add_argument("--mutate", action="store_true",
                   help="corrupt the evaluator output (harness self-test)")
    p.set_defaults(func=cmd_check)
    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_WIN
    try:
        return args.func(args)
    except (ConsistencyError, IterationCapError) as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (EmuError, OSError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
