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
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from . import formulas as fm
from .energy import INF, EnergyFunction, eval_energy
from .errors import ConsistencyError, EmuError, IterationCapError
from .game import WeightedGameStructure
from .gamefile import game_to_dict, load_game, load_priorities, save_game
from .parity import from_parity_wgs, solve_energy_parity
from .randgen import random_formula, random_wgs
from .reduction import oracle_max_credit_env, oracle_min_credit_sys
from .solver import SolveRequest, compute_bound, solve
from . import assertions as asr

EXIT_WIN = 0
EXIT_LOSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SCHEMA_VERSION = 1


class _UsageError(EmuError):
    pass


def _formula_from_args(args, game):
    sources = [
        s for s in ("formula", "formula_file", "builtin")
        if getattr(args, s, None)
    ]
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
        game = dataclasses.replace(
            game, priorities=load_priorities(args.priorities)
        )
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


def _state_names(game):
    """``State.minterm`` of every state, in index order, built by doubling:
    each variable, as the next higher bit, extends every name both ways."""
    vs = game.vars.names
    if not vs:
        return ["true"]
    names = ["!" + vs[0], vs[0]]
    for v in vs[1:]:
        names = [p + " & !" + v for p in names] + [p + " & " + v for p in names]
    return names


def _credit_str(v) -> str:
    return "inf" if v == INF else str(int(v))


def solve_report_to_json(report, game, formula) -> dict:
    names = _state_names(game)
    return {
        "schema": SCHEMA_VERSION,
        "command": "solve",
        "formula": fm.formula_to_str(formula),
        "requested_bound": "inf" if report.unbounded else report.effective_bound,
        "effective_bound": report.effective_bound,
        "bound_variant": report.bound_breakdown.variant,
        "N": report.bound_breakdown.n_states,
        "K": report.bound_breakdown.max_abs_weight,
        "m": report.bound_breakdown.formula_length,
        "d": report.bound_breakdown.alternation_depth,
        "min_credits": [
            {"state": names[i], "credit": _credit_str(report.min_credits.values[i])}
            for i in range(game.n_states)
        ],
        "w_sys": [names[i] for i in range(game.n_states) if report.sys_region[i]],
        "w_env": [names[i] for i in range(game.n_states) if report.env_region[i]],
    }


def solve_report_from_json(doc: dict):
    """Rebuild the solved quantities from a JSON report (for round-tripping)."""
    if doc.get("schema") != SCHEMA_VERSION:
        raise EmuError(f"unsupported report schema {doc.get('schema')!r}")
    bound = int(doc["effective_bound"])
    values = [
        INF if row["credit"] == "inf" else int(row["credit"])
        for row in doc["min_credits"]
    ]
    credits = EnergyFunction(bound, np.array(values, dtype=np.int64))
    states = [row["state"] for row in doc["min_credits"]]
    sys_states, env_states = set(doc["w_sys"]), set(doc["w_env"])
    w_sys = np.array([s in sys_states for s in states])
    w_env = np.array([s in env_states for s in states])
    return bound, credits, w_sys, w_env


def cmd_solve(args) -> int:
    game = _game_from_args(args)
    formula = _formula_from_args(args, game)
    query_mask = None
    if args.state:
        query_mask = game.tables().state_mask(asr.parse_assertion(args.state))
        if not query_mask.any():
            raise _UsageError(f"no state satisfies {args.state!r}")
    report = solve(SolveRequest(game=game, formula=formula, bound=args.bound))
    names = _state_names(game)

    if args.format == "json":
        doc = solve_report_to_json(report, game, formula)
        if query_mask is not None:
            doc["query"] = {
                "state": args.state,
                "results": [
                    {"state": names[i],
                     "credit": _credit_str(report.min_credits.values[i])}
                    for i in np.nonzero(query_mask)[0]
                ],
            }
        print(json.dumps(doc, indent=2))
    else:
        print(f"effective bound: {report.effective_bound}"
              + (" (computed: requested inf)" if report.unbounded else ""))
        bb = report.bound_breakdown
        print(f"N={bb.n_states} K={bb.max_abs_weight} m={bb.formula_length}"
              f" d={bb.alternation_depth} variant={bb.variant}")
        if query_mask is None:
            print("min credits:")
            for i in range(game.n_states):
                print(f"  {names[i]}: {_credit_str(report.min_credits.values[i])}")
        else:
            for i in np.nonzero(query_mask)[0]:
                verdict = ("wins" if report.min_credits.values[i] != INF
                           else "loses")
                print(f"state {names[i]}: min credit"
                      f" {_credit_str(report.min_credits.values[i])}"
                      f" -> system {verdict}")
        print(f"W_sys: {int(report.sys_region.sum())} states,"
              f" W_env: {int(report.env_region.sum())} states")

    if query_mask is not None:
        wins = bool(report.sys_region[query_mask].all())
    else:
        wins = bool(report.sys_region.any())
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
        }, indent=2))
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
    names = _state_names(game)
    w_sys = [names[i] for i in range(game.n_states) if report.sys_region[i]]
    w_env = [names[i] for i in range(game.n_states) if report.env_region[i]]
    if args.format == "json":
        print(json.dumps({
            "schema": SCHEMA_VERSION,
            "command": "region",
            "bound": report.effective_bound,
            "w_sys": w_sys,
            "w_env": w_env,
        }, indent=2))
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


def _check_one_reduction(rng, args, mutate):
    game = random_wgs(rng, 2, args.max_vars, args.max_weight)
    c = rng.randint(0, args.max_bound)
    name, formula = random_formula(rng, game.vars)
    mine = eval_energy(game, c, formula)
    if mutate:
        mine = _mutate_credits(mine)
    want = oracle_min_credit_sys(game, c, formula)
    if mine != want:
        return game, c, name, "system-side minimum credits disagree"
    dual = fm.negate(formula)
    mine_env = eval_energy(game, c, dual)
    want_env = oracle_max_credit_env(game, c, dual)
    if mine_env != want_env:
        return game, c, name, "environment-side values disagree"
    w_sys = mine.is_finite()
    w_env = mine_env.values == 0
    if (w_sys & w_env).any() or not (w_sys | w_env).all():
        return game, c, name, "regions do not partition the states"
    return None


def _check_one_parity(rng, args, mutate):
    game = random_wgs(rng, 2, args.max_vars, args.max_weight, priorities=True)
    c = rng.randint(0, args.max_bound)
    formula = fm.parity_formula(game.priorities)
    symbolic = eval_energy(game, c, formula)
    if mutate:
        symbolic = _mutate_credits(symbolic)
    explicit = solve_energy_parity(from_parity_wgs(game), c)
    for s in range(game.n_states):
        if int(symbolic.values[s]) != explicit[s]:
            return game, c, "parity", "symbolic and explicit credits disagree"
    return None


def cmd_check(args) -> int:
    mismatches = 0
    done = 0
    checker = (_check_one_parity if args.oracle == "parity"
               else _check_one_reduction)
    for i in range(args.cases):
        rng = random.Random(args.seed * 1_000_003 + i)
        bad = checker(rng, args, args.mutate)
        done = i + 1
        if bad is None:
            print(f"case {i:04d} ok")
            continue
        game, c, name, why = bad
        mismatches += 1
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
        break
    print(f"checked {done} cases, {mismatches} mismatches")
    return EXIT_INTERNAL if mismatches else EXIT_WIN


def _add_formula_args(p):
    p.add_argument("--formula", help="formula string")
    p.add_argument("--formula-file", help="file containing a formula")
    p.add_argument("--builtin", help="builtin formula name"
                   f" ({', '.join(fm.BUILTIN_NAMES)})")
    p.add_argument("--param", action="append", metavar="K=V",
                   help="builtin parameter, e.g. J=\"y\"")
    p.add_argument("--priorities", help="JSON file with priority rules")
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
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
