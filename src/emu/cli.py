"""Command-line front end.

Subcommands: ``solve`` (minimum credits / decision), ``bound`` (sufficient
bound computation), ``region`` (winning regions), ``check`` (seeded
differential testing against the independent oracles).

Exit codes: 0 the system wins (or a check passed), 1 the system loses,
2 usage or input error, 3 internal consistency failure or oracle mismatch.
A reader that closes stdout early (``| head``) leaves the exit code of
every command unchanged and stderr empty.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import random
import sys
from pathlib import Path

import numpy as np

from . import formulas as fm
from .energy import INF, EnergyFunction, eval_energy, neg
from .errors import ConsistencyError, EmuError, IterationCapError
from .gamefile import game_to_dict, load_game, load_priorities, save_game
from .randgen import random_formula, random_wgs
from .reduction import oracle_min_credit_sys
from .solver import compute_bound, crosscheck_parity, quotient, solve
from . import assertions as asr

EXIT_WIN = 0
EXIT_LOSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SCHEMA_VERSION = 1
CHUNK = 1 << 14  # states named and written per run of a report


@contextlib.contextmanager
def _report():
    """Stdout, flushed at the end; once its reader leaves, to ``os.devnull``."""
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _formula_from_args(args, game):
    sources = [s for s in (args.formula, args.formula_file, args.builtin) if s is not None]
    if len(sources) > 1:
        raise EmuError("give at most one of --formula/--formula-file/--builtin")
    if args.param and args.builtin is None:
        raise EmuError("--param is only for --builtin")
    if not sources:
        if game.formula is None:
            raise EmuError("the game file has no formula; give one")
        return game.formula
    if args.formula is not None:
        return fm.parse_formula(args.formula)
    if args.formula_file is not None:
        try:
            text = Path(args.formula_file).read_text()
        except UnicodeDecodeError as e:
            raise EmuError(f"{args.formula_file}: not UTF-8 text: {e}") from e
        return fm.parse_formula(text)
    params = {}
    for kv in args.param or []:
        if "=" not in kv:
            raise EmuError(f"--param expects k=v, got {kv!r}")
        k, v = kv.split("=", 1)
        if k in params:
            raise EmuError(f"--param {k} is given twice")
        params[k] = v
    return fm.builtin(args.builtin, **params)


def _problem_from_args(args):
    """The game, with its ``--priorities``, and the formula of the command."""
    game = load_game(args.game)
    if args.priorities is not None:
        game = dataclasses.replace(game, priorities=load_priorities(args.priorities))
    return game, _formula_from_args(args, game)


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


@functools.lru_cache(maxsize=4)
def _halves(names):
    """The bits h of the low half of ``names``, and the minterms (``!x & y``)
    of the low and the high half in index order, each built by doubling (each
    name, as the next higher bit, extends every minterm both ways); the low
    ones end in the separator.  The names are identifiers, so a minterm is
    its own JSON string body."""
    h = len(names) // 2
    low, high = [""], (["!" + names[h], names[h]] if names else ["true"])
    for v in names[:h]:
        neg, pos = "!" + v + " & ", v + " & "
        low = [p + neg for p in low] + [p + pos for p in low]
    for v in names[h + 1:]:
        neg, pos = " & !" + v, " & " + v
        high = [p + neg for p in high] + [p + pos for p in high]
    return h, np.array(low, dtype=object), np.array(high, dtype=object)


def state_names(game, states) -> list[str]:
    """The minterm of each state of the int array ``states``, joined from the
    minterms of its low and its high half of the variables."""
    h, low, high = _halves(game.vars.names)
    return (low[states & ((1 << h) - 1)] + high[states >> h]).tolist()


def _runs(n, mask=None):
    """The states below ``n``, or those of the bool ``mask``, in runs of at
    most ``CHUNK``: int arrays made from slices, none spanning every state."""
    for i in range(0, n, CHUNK):
        run = np.arange(i, min(i + CHUNK, n))
        yield run if mask is None else run[mask[i:i + CHUNK]]


def _named_credits(report, game, states, lead=""):
    """The name of each state of ``states``, and ``lead`` and the text of its
    credit (``inf``)."""
    values = report.min_credits.values[states].tolist()
    text = {v: lead + ("inf" if v == INF else str(v)) for v in set(values)}
    return zip(state_names(game, states), map(text.__getitem__, values))


def _write_list(out, report, game, key, mask=None, rows=False):
    """Write the member ``, "key": [...]`` of a JSON report, spaced as
    ``json.dumps`` spaces it: the name of each state (of ``mask``) or, with
    ``rows``, its ``min_credits`` entry."""
    left, right = ('{"state": "', '"}') if rows else ('"', '"')
    sep = f', "{key}": ['
    for s in _runs(game.n_states, mask):
        items = ([n + c for n, c in _named_credits(report, game, s, '", "credit": "')]
                 if rows else state_names(game, s))
        if items:
            out.write(sep + left + (right + ", " + left).join(items) + right)
            sep = ", "
    out.write("]" if sep == ", " else sep + "]")


def _write_regions(out, report, game):
    for key, region in (("w_sys", report.sys_region), ("w_env", report.env_region)):
        _write_list(out, report, game, key, region)


def write_solve_json(out, report, game, formula, query=None) -> None:
    """Write the solve's JSON document and a newline, run by run, byte for
    byte what ``json.dumps`` writes with its default separators; ``query``
    is the ``--state`` text and its state mask, or None."""
    bb = report.bound_breakdown
    out.write(json.dumps({
        "schema": SCHEMA_VERSION, "command": "solve", "formula": fm.formula_to_str(formula),
        "requested_bound": "inf" if report.unbounded else report.effective_bound,
        "effective_bound": report.effective_bound, "bound_variant": bb.variant,
        "N": bb.n_states, "K": bb.max_abs_weight, "m": bb.formula_length,
        "d": bb.alternation_depth})[:-1])
    _write_list(out, report, game, "min_credits", rows=True)
    _write_regions(out, report, game)
    if query is not None:
        out.write(', "query": {"state": ' + json.dumps(query[0]))
        _write_list(out, report, game, "results", query[1], rows=True)
        out.write("}")
    out.write("}\n")


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
    game, formula = _problem_from_args(args)
    query_mask = None
    if args.state is not None:
        query_mask = game.vars.state_mask(asr.parse_assertion(args.state))
        if not query_mask.any():
            raise EmuError(f"no state satisfies {args.state!r}")
    report = solve(game, formula, args.bound)
    wins = (report.sys_region.any() if query_mask is None
            else report.sys_region[query_mask].all())
    with _report() as out:
        if args.format == "json":
            query = None if query_mask is None else (args.state, query_mask)
            write_solve_json(out, report, game, formula, query)
        else:
            bb = report.bound_breakdown
            print(f"effective bound: {report.effective_bound}"
                  + (" (computed: requested inf)" if report.unbounded else ""))
            print(f"N={bb.n_states} K={bb.max_abs_weight} m={bb.formula_length}"
                  f" d={bb.alternation_depth} variant={bb.variant}")
            if query_mask is None:
                print("min credits:")
                for s in _runs(game.n_states):
                    out.writelines(f"  {n}: {c}\n"
                                   for n, c in _named_credits(report, game, s))
            else:
                for s in _runs(game.n_states, query_mask):
                    out.writelines(
                        f"state {n}: min credit {c}"
                        f" -> system {'loses' if c == 'inf' else 'wins'}\n"
                        for n, c in _named_credits(report, game, s))
            print(f"W_sys: {report.sys_region.sum()} states,"
                  f" W_env: {report.env_region.sum()} states")
    return EXIT_WIN if wins else EXIT_LOSE


def cmd_bound(args) -> int:
    game, formula = _problem_from_args(args)
    bb = compute_bound(game, formula)
    quotient(game, formula)  # refuses what every solve refuses
    with _report():
        if args.format == "json":
            print(json.dumps({
                "schema": SCHEMA_VERSION, "command": "bound", "N": bb.n_states,
                "K": bb.max_abs_weight, "m": bb.formula_length, "d": bb.alternation_depth,
                "variant": bb.variant, "bound": bb.bound}))
        else:
            print(f"N={bb.n_states} K={bb.max_abs_weight} m={bb.formula_length}"
                  f" d={bb.alternation_depth}\nvariant: {bb.variant}\nbound: {bb.bound}")
    return EXIT_WIN


def cmd_region(args) -> int:
    game, formula = _problem_from_args(args)
    if args.bound == math.inf:
        raise EmuError("region needs a finite --bound")
    report = solve(game, formula, args.bound)
    with _report() as out:
        if args.format == "json":
            out.write(json.dumps({"schema": SCHEMA_VERSION, "command": "region",
                                  "bound": report.effective_bound})[:-1])
            _write_regions(out, report, game)
            out.write("}\n")
        else:
            for key, region in (("W_sys", report.sys_region), ("W_env", report.env_region)):
                out.write(f"{key} ({region.sum()} states):\n")
                for s in _runs(game.n_states, region):
                    out.writelines(f"  {name}\n" for name in state_names(game, s))
            print(f"partition: {report.sys_region.sum()} + {report.env_region.sum()}"
                  f" = {game.n_states}")
    return EXIT_WIN


def _draw_reduction(rng, args):
    game = random_wgs(rng, 2, args.max_vars, args.max_weight)
    c = rng.randint(0, args.max_bound)
    return (game, c, *random_formula(rng, game.vars))


def _check_reduction(game, c, formula):
    want = oracle_min_credit_sys(game, c, formula)
    if eval_energy(game, c, formula) != want:
        return "system-side minimum credits disagree"
    # the environment's oracle is neg of the system's on the negation
    if eval_energy(game, c, fm.negate(formula)) != neg(want):
        return "environment-side values disagree"
    return None


def _draw_parity(rng, args):
    game = random_wgs(rng, 2, args.max_vars, args.max_weight, priorities=True)
    return game, rng.randint(0, args.max_bound), "parity", game.parity_formula()


def _check_parity(game, c, formula):
    if crosscheck_parity(game, c):
        return "symbolic and explicit credits disagree"
    return None


def cmd_check(args) -> int:
    if not Path(args.dump_dir).is_dir():  # a mismatch must find it
        raise EmuError(f"--dump-dir {args.dump_dir!r} is not a directory")
    draw, check = ((_draw_parity, _check_parity) if args.oracle == "parity"
                   else (_draw_reduction, _check_reduction))
    for i in range(args.cases):
        game, c, name, formula = draw(random.Random(args.seed * 1_000_003 + i), args)
        try:
            why = check(game, c, formula)
        except (ConsistencyError, IterationCapError) as e:
            why = str(e)  # an oracle or the engine found itself inconsistent
        if why is not None:
            break
        with _report():  # a reader that leaves stops no case before the verdict
            print(f"case {i:04d} ok")
    if why is not None:
        # the game carries the checked formula, so solving it reproduces the case
        game = dataclasses.replace(game, formula=formula)
        stem = Path(args.dump_dir) / f"counterexample-seed{args.seed}-case{i}"
        save_game(game, stem.with_suffix(".game"))
        stem.with_suffix(".json").write_text(json.dumps({
            "schema": SCHEMA_VERSION, "command": "check", "seed": args.seed, "case": i,
            "oracle": args.oracle, "bound": c, "formula_kind": name,
            "formula": fm.formula_to_str(formula), "reason": why,
            "game": game_to_dict(game)}, indent=2) + "\n")
    with _report():
        if why is not None:
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
