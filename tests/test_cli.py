import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emu import (
    INF,
    EnergyFunction,
    SolveReport,
    VariableSet,
    WeightedGameStructure,
    eval_energy,
    load_game,
)
from emu import assertions as asr
from emu import formulas as fm
from emu.assertions import TRUE
from emu.errors import EmuError, IterationCapError
from emu import cli
from emu.cli import run, solve_report_from_json, state_names, write_solve_json
from emu.solver import BoundBreakdown
from oracles import mutate_credits, solve_report_dict


@pytest.fixture
def g1_path(fixtures_dir, tmp_path):
    dst = tmp_path / "g1.game"
    shutil.copy(fixtures_dir / "g1.game", dst)
    return str(dst)


@pytest.fixture
def prio_path(fixtures_dir):
    return str(fixtures_dir / "g1_buchi.prio")


def test_solve_state_wins(g1_path, capsys):
    code = run(["solve", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--bound", "2", "--state", "x & y"])
    out = capsys.readouterr().out
    assert code == 0
    assert "min credit 0" in out
    assert "system wins" in out


def test_solve_bound_zero_loses(g1_path, capsys):
    code = run(["solve", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--bound", "0", "--state", "x & y"])
    out = capsys.readouterr().out
    assert code == 1
    assert "min credit inf" in out


def test_solve_unbounded(g1_path, capsys):
    code = run(["solve", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--bound", "inf"])
    out = capsys.readouterr().out
    assert code == 0
    assert "effective bound: 38" in out


def test_solve_uses_game_formula_by_default(g1_path, capsys):
    code = run(["solve", g1_path, "--bound", "2"])
    assert code == 0
    assert "W_sys: 4 states" in capsys.readouterr().out


def test_solve_json_round_trip(g1_path, capsys):
    code = run(["solve", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--bound", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    bound, credits, w_sys, w_env = solve_report_from_json(doc)
    assert bound == 2
    assert credits.values.tolist() == [0, 0, 0, 0]
    assert w_sys.all() and not w_env.any()


def test_bound_command(g1_path, prio_path, capsys):
    assert run(["bound", g1_path, "--builtin", "safety"]) == 0
    assert "bound: 118" in capsys.readouterr().out
    assert run(["bound", g1_path, "--builtin", "buchi", "--param", "J=y"]) == 0
    assert "bound: 38" in capsys.readouterr().out
    assert run(["bound", g1_path, "--priorities", prio_path]) == 0
    out = capsys.readouterr().out
    assert "bound: 38" in out and "variant: buchi" in out


@pytest.mark.parametrize("formula, why", [
    ("nu X . <>Y", "the solver needs a closed formula"),
    ("mu X . !X", "odd number of negations"),
])
def test_bound_refuses_what_solve_refuses(formula, why, g1_path, capsys):
    for argv in (["bound"], ["solve"], ["region", "--bound", "2"]):
        assert run(argv + [g1_path, "--formula", formula]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and why in captured.err


def test_every_command_refuses_an_atom_over_no_game_variable(g1_path, capsys):
    # bound evaluates no atom, but the quotient it builds checks their variables
    for argv in (["bound"], ["solve"], ["region", "--bound", "2"]):
        assert run(argv + [g1_path, "--builtin", "buchi", "--param", "J=q"]) == 2
        assert capsys.readouterr() == ("", "error: unknown variable 'q'\n")


@pytest.mark.parametrize("case", ["uncovered-move", "overlapping-priorities"])
def test_bound_refuses_the_games_solve_refuses(case, g1_path, tmp_path, capsys):
    # bound evaluates nothing, but it checks the game as every solve does
    if case == "uncovered-move":
        doc = json.loads(Path(g1_path).read_text())
        doc["weights"] = doc["weights"][:1]  # no rule covers a move into !y
        Path(g1_path).write_text(json.dumps(doc))
        extra = ["--formula", "nu X . <>X"]
        why = "no weight rule matches the system transitions where !y'"
    else:
        prio = tmp_path / "overlap.prio"
        prio.write_text(json.dumps([{"guard": "x", "priority": 0},
                                    {"guard": "true", "priority": 1}]))
        extra = ["--priorities", str(prio)]
        why = "priority guard 'true' overlaps an earlier guard"
    for command in ("solve", "bound"):
        assert run([command, g1_path, *extra]) == 2
        assert capsys.readouterr() == ("", f"error: {why}\n")


def test_region_command(g1_path, capsys):
    assert run(["region", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "W_sys (4 states):" in out
    assert "partition: 4 + 0 = 4" in out
    assert run(["region", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--bound", "0"]) == 0
    assert "W_env (4 states):" in capsys.readouterr().out


def test_usage_errors(g1_path, tmp_path, capsys):
    assert run(["solve", str(tmp_path / "missing.game"), "--bound", "1"]) == 2
    assert run(["solve", g1_path, "--bound", "-3"]) == 2
    assert run(["solve", g1_path, "--bound", "1", "--formula", "<>X"]) == 2
    assert run(["solve", g1_path, "--bound", "1", "--formula", "nu X . <>X",
                "--builtin", "safety"]) == 2
    assert run(["solve", g1_path, "--bound", "1", "--state", "x & !x"]) == 2
    assert run(["region", g1_path, "--bound", "inf", "--builtin", "safety"]) == 2
    assert "region needs a finite --bound" in capsys.readouterr().err
    # a weight or priority that is not an integer is refused, not rounded
    doc = json.loads(Path(g1_path).read_text())
    doc["weights"][0]["weight"] = -1.7
    (tmp_path / "bad.game").write_text(json.dumps(doc))
    assert run(["solve", str(tmp_path / "bad.game"), "--bound", "1"]) == 2
    (tmp_path / "bad.prio").write_text('[{"guard": "true", "priority": 0.9}]')
    assert run(["solve", g1_path, "--bound", "1",
                "--priorities", str(tmp_path / "bad.prio")]) == 2
    assert capsys.readouterr().err.count("must be an integer") == 2


def test_solve_rejects_weight_beyond_int64(g1_path, tmp_path, capsys):
    doc = json.loads(Path(g1_path).read_text())
    doc["weights"][0]["weight"] = 1 << 70
    path = tmp_path / "huge.game"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), "--bound", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unbounded_solve_names_the_computed_bound(g1_path, tmp_path, capsys):
    # the user asked for inf, so the refusal names the bound the solver computed
    doc = json.loads(Path(g1_path).read_text())
    doc["weights"][0]["weight"] = 1 << 60
    path = tmp_path / "heavy.game"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), "--bound", "inf"]) == 2
    err = capsys.readouterr().err
    assert "error: the computed sufficient bound" in err and "exceeds 2^60" in err
    assert "must be a natural number" not in err


def test_game_file_without_formula(g1_path, tmp_path, capsys):
    from emu import load_game, save_game

    path = tmp_path / "bare.game"
    save_game(dataclasses.replace(load_game(g1_path), formula=None), path)
    assert run(["solve", str(path), "--builtin", "safety", "--bound", "2"]) == 0
    capsys.readouterr()
    assert run(["solve", str(path), "--bound", "2"]) == 2
    assert "error: the game file has no formula; give one" in capsys.readouterr().err


def test_solve_rejects_priority_beyond_int64(g1_path, tmp_path, capsys):
    rules = [{"guard": "y", "priority": 1 << 70}, {"guard": "!y", "priority": 1}]
    prio = tmp_path / "huge.prio"
    prio.write_text(json.dumps(rules))
    doc = json.loads(Path(g1_path).read_text())
    doc["priorities"] = rules
    game = tmp_path / "huge.game"
    game.write_text(json.dumps(doc))
    for argv in (["solve", g1_path, "--priorities", str(prio)], ["solve", str(game)]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_solve_at_a_finite_bound_with_a_huge_sufficient_bound(g1_path, tmp_path,
                                                               capsys):
    doc = json.loads(Path(g1_path).read_text())
    doc["weights"][0]["weight"] = -(1 << 60)
    path = tmp_path / "deep.game"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), "--bound", "3"]) in (0, 1)
    assert run(["region", str(path), "--bound", "3"]) == 0
    assert run(["bound", str(path)]) == 0
    assert run(["solve", str(path), "--bound", "inf"]) == 2
    assert "error:" in capsys.readouterr().err


def test_buchi_at_the_largest_bound_ends(tmp_path, capsys):
    # every move loses 1, so no credit wins; the outermost nu of buchi is cut
    # at (N-1)K = 3, where uncut it would climb 4c+3 applications at c = 2^60
    path = tmp_path / "lossy.game"
    path.write_text(json.dumps({
        "vars": ["a", "b"], "inputs": [], "rho_e": "true", "rho_s": "true",
        "weights": [{"guard": "true", "weight": -1}], "formula": "nu X . <>X"}))
    start = time.perf_counter()
    code = run(["solve", str(path), "--bound", "1152921504606846976",
                "--builtin", "buchi", "--param", "J=b", "--format", "json"])
    assert time.perf_counter() - start < 5
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    bound, credits, w_sys, w_env = solve_report_from_json(doc)
    assert bound == 1 << 60 and not w_sys.any() and w_env.all()
    assert not credits.is_finite().any()


def test_check_clean(tmp_path, capsys):
    code = run(["check", "--seed", "7", "--cases", "12", "--max-vars", "3",
                "--dump-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "checked 12 cases, 0 mismatches" in out
    assert list(tmp_path.iterdir()) == []


def test_check_transcript_deterministic(tmp_path, capsys):
    args = ["check", "--seed", "11", "--cases", "8", "--max-vars", "3",
            "--dump-dir", str(tmp_path)]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_check_mutation_detected(tmp_path, capsys, monkeypatch):
    # a corrupted engine credit is a mismatch against the reduction oracle
    honest = cli.eval_energy
    monkeypatch.setattr(cli, "eval_energy", lambda *args: mutate_credits(honest(*args)))
    code = run(["check", "--seed", "7", "--cases", "5", "--max-vars", "3",
                "--dump-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 3
    assert "case 0000 MISMATCH: system-side minimum credits disagree" in out
    games = list(tmp_path.glob("counterexample-*.game"))
    reports = list(tmp_path.glob("counterexample-*.json"))
    assert len(games) == 1 and len(reports) == 1
    # the dumped game file loads and reproduces the case
    from emu import load_game

    load_game(games[0])
    meta = json.loads(reports[0].read_text())
    assert meta["seed"] == 7 and meta["oracle"] == "reduction"


def test_check_builds_one_reduction_per_case(tmp_path, capsys, monkeypatch):
    # the environment side is derived from the system side's oracle, so a
    # case builds one reduction and solves it once, and lets both go with it
    from emu import reduction

    build, solve_reduced, bounds, solves = (
        reduction.reduce_game, reduction.eval_classical, [], [])

    def counted(game, c):
        bounds.append(c)
        return build(game, c)

    def solved(reduced, f):
        solves.append(f)
        return solve_reduced(reduced, f)

    monkeypatch.setattr(reduction, "reduce_game", counted)
    monkeypatch.setattr(reduction, "eval_classical", solved)
    assert run(["check", "--seed", "7", "--cases", "3", "--max-vars", "3",
                "--dump-dir", str(tmp_path)]) == 0
    assert "checked 3 cases, 0 mismatches" in capsys.readouterr().out
    assert len(bounds) == 3 and len(solves) == 3


def test_check_refuses_a_missing_dump_dir_before_any_case(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_check_reduction", lambda game, c, formula: "forced")
    argv = ["check", "--seed", "0", "--cases", "2", "--max-vars", "2", "--dump-dir"]
    assert run(argv + [str(tmp_path)]) == 3
    assert "case 0000 MISMATCH: forced" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "counterexample-seed0-case0.game", "counterexample-seed0-case0.json"]
    missing = tmp_path / "missing"
    assert run(argv + [str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --dump-dir {str(missing)!r} is not a directory\n"


@pytest.mark.parametrize("oracle", ["reduction", "parity", "parity-gap"])
def test_check_dumps_an_inconsistent_case(oracle, tmp_path, capsys, monkeypatch):
    # an oracle or the engine that finds itself inconsistent makes that case
    # a mismatch, dumped like any other, not an escape from the check
    from emu import classical, parity, reduction, solver

    def gap(won):  # state 0 wins at credits 0 and 2 only, of (layers, states)
        won[:, 0] = False
        won[[0, 2], 0] = True
        return won.reshape(-1)

    def stuck(game, c, f):
        raise IterationCapError("a fixpoint did not stabilize")

    why = "winning credits of state 0 are not upward closed: [0, 2]"
    if oracle == "reduction":  # case 0 has bound 7: 8 credit layers
        monkeypatch.setattr(reduction, "eval_classical", lambda reduced, f: gap(
            classical.eval_classical(reduced, f).reshape(8, -1)))
    elif oracle == "parity-gap":  # bound 5: 6 credit layers and the overflow's
        solve = parity.solve_parity
        monkeypatch.setattr(parity, "solve_parity",
                            lambda u: (gap(solve(u)[0].reshape(7, -1)), None))
    else:
        monkeypatch.setattr(solver, "eval_energy", stuck)
        why = "a fixpoint did not stabilize"
    oracle = oracle.removesuffix("-gap")
    code = run(["check", "--oracle", oracle, "--seed", "0", "--cases", "2",
                "--max-vars", "3", "--dump-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 3
    assert f"case 0000 MISMATCH: {why}" in out
    assert "checked 1 cases, 1 mismatches" in out
    meta = json.loads((tmp_path / "counterexample-seed0-case0.json").read_text())
    assert meta["reason"] == why and meta["oracle"] == oracle
    assert (tmp_path / "counterexample-seed0-case0.game").exists()


@pytest.mark.parametrize("side", ["environment", "partition"])
def test_check_dumps_an_environment_side_case(side, tmp_path, capsys, monkeypatch):
    # the system side agrees; then the engine's value of the negation is not
    # neg of the system's credits: corrupted, or claiming with the oracle
    # that every state is won with credit 0 on both sides, so that the
    # regions would not partition the states
    def zeros(game, c, f):
        return EnergyFunction(c, np.zeros(game.n_states, dtype=np.int64))

    honest = cli.eval_energy
    if side == "environment":
        def energy(game, c, f):  # the check's formulas are box-free
            credits = honest(game, c, f)
            return mutate_credits(credits) if fm.classify_fragment(f) == "env" else credits
        monkeypatch.setattr(cli, "eval_energy", energy)
    else:
        monkeypatch.setattr(cli, "oracle_min_credit_sys", zeros)
        monkeypatch.setattr(cli, "eval_energy", zeros)
    why = "environment-side values disagree"
    code = run(["check", "--seed", "0", "--cases", "2", "--max-vars", "3",
                "--dump-dir", str(tmp_path)])
    assert code == 3
    assert f"case 0000 MISMATCH: {why}" in capsys.readouterr().out
    meta = json.loads((tmp_path / "counterexample-seed0-case0.json").read_text())
    assert meta["reason"] == why and meta["oracle"] == "reduction"
    assert (tmp_path / "counterexample-seed0-case0.game").exists()


@pytest.mark.parametrize("oracle", ["reduction", "parity"])
def test_check_dumps_the_formula_it_checked(oracle, tmp_path, capsys, monkeypatch):
    # every random game carries the formula nu X . <>X; the counterexample
    # must carry the one the case checked, so that solving it reproduces it
    checked = []

    def forced(game, c, formula):
        checked.append((game, c, formula))
        return "forced"

    monkeypatch.setattr(cli, f"_check_{oracle}", forced)
    assert run(["check", "--oracle", oracle, "--seed", "3", "--cases", "1",
                "--dump-dir", str(tmp_path)]) == 3
    capsys.readouterr()
    (game, c, formula), = checked
    if oracle == "parity":
        assert formula == fm.parity_formula(game.priorities)
    assert formula != fm.parse_formula("nu X . <>X")
    stem = tmp_path / "counterexample-seed3-case0"
    assert load_game(stem.with_suffix(".game")).formula == formula
    meta = json.loads(stem.with_suffix(".json").read_text())
    assert fm.parse_formula(meta["formula"]) == formula
    if oracle == "reduction":
        run(["solve", str(stem.with_suffix(".game")), "--bound", str(c), "--format", "json"])
        _, credits, _, _ = solve_report_from_json(json.loads(capsys.readouterr().out))
        assert credits == eval_energy(game, c, formula)


def test_check_parity_oracle(tmp_path, capsys):
    code = run(["check", "--oracle", "parity", "--seed", "3", "--cases", "6",
                "--max-vars", "3", "--dump-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "checked 6 cases, 0 mismatches" in out


def test_check_parity_oracle_covers_the_root_cut(tmp_path, capsys, monkeypatch):
    # at bounds up to 300 the root is cut on many of these 2-variable games,
    # and the explicit oracle must still agree everywhere: 48 of the root
    # cuts are of one-priority (safety-shaped) parity formulas, 34 of
    # formulas that only the Buchi/parity premise cuts
    from emu import FixpointStats, solver

    stats = FixpointStats()
    evaluate = solver.eval_energy
    monkeypatch.setattr(solver, "eval_energy",
                        lambda *a, **kw: evaluate(*a, stats=stats, **kw))
    code = run(["check", "--oracle", "parity", "--seed", "5", "--cases", "1000",
                "--max-vars", "2", "--max-weight", "2", "--max-bound", "300",
                "--dump-dir", str(tmp_path)])
    assert code == 0
    assert "checked 1000 cases, 0 mismatches" in capsys.readouterr().out
    assert stats.root_cuts >= 82


def test_check_parity_unfolding_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    from emu import tables

    # 2-variable tables need at most 368 bytes; the unfolding of at least
    # 24 states, 64 bytes each, does not fit in 1 KiB
    monkeypatch.setattr(tables, "_available_memory", lambda: 1 << 10)
    code = run(["check", "--oracle", "parity", "--seed", "3", "--cases", "1",
                "--max-vars", "2", "--dump-dir", str(tmp_path)])
    assert code == 2
    assert "the unfolding at bound" in capsys.readouterr().err


def test_check_parity_mutation(tmp_path, capsys, monkeypatch):
    # a corrupted symbolic credit, compared with the explicit one
    from emu import solver

    honest = solver.eval_energy
    monkeypatch.setattr(solver, "eval_energy", lambda *args: mutate_credits(honest(*args)))
    code = run(["check", "--oracle", "parity", "--seed", "3", "--cases", "4",
                "--max-vars", "3", "--dump-dir", str(tmp_path)])
    assert code == 3
    assert ("case 0000 MISMATCH: symbolic and explicit credits disagree"
            in capsys.readouterr().out)
    # the dumped game keeps its priority annotation and reloads
    from emu import load_game

    (game_file,) = tmp_path.glob("counterexample-*.game")
    assert load_game(game_file).priorities is not None


def test_formula_file_source(g1_path, tmp_path, capsys):
    p = tmp_path / "formula.txt"
    p.write_text("nu X . <>X\n")
    code = run(["solve", g1_path, "--formula-file", str(p), "--bound", "3"])
    assert code == 0
    assert "W_sys: 4 states" in capsys.readouterr().out


def test_bound_of_deeply_nested_binders_is_fast(g1_path, capsys):
    # 40 binders: each binder's depth was once recomputed for every binder
    # above it, which doubled the time per binder
    same = "nu X . " + "".join(f"nu Y{i} . " for i in range(39)) + "<>X"
    alternating = "".join(f"{'mu' if i % 2 else 'nu'} X{i} . " for i in range(40)) \
        + "(" + " | ".join(f"<>X{i}" for i in range(40)) + ")"
    for formula, depth in ((same, 1), (alternating, 40)):
        start = time.perf_counter()
        assert run(["bound", g1_path, "--formula", formula, "--format", "json"]) == 0
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out)["d"] == depth


@pytest.mark.parametrize("extra", [["--bound", "2"], ["--bound", "inf"],
                                   ["--bound", "0", "--state", "y"]])
def test_solve_json_is_one_line(extra, g1_path, capsys):
    from emu import load_game, solve
    from emu import formulas as fm

    code = run(["solve", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--format", "json", *extra])
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    bound, credits, w_sys, w_env = solve_report_from_json(json.loads(out))
    report = solve(load_game(g1_path), fm.builtin("buchi", J="y"),
                   math.inf if extra[1] == "inf" else int(extra[1]))
    assert bound == report.effective_bound and credits == report.min_credits
    assert (w_sys == report.sys_region).all() and (w_env == report.env_region).all()
    assert code in (0, 1)


def test_parser_is_built_once_and_keeps_no_state(g1_path, capsys):
    from emu.cli import build_parser

    assert build_parser() is build_parser()
    assert run(["solve", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--bound", "2"]) == 0
    # a --param left over from the first parse would be refused here
    assert run(["solve", g1_path, "--builtin", "safety", "--bound", "2"]) == 0
    assert "error:" not in capsys.readouterr().err


def test_bound_and_region_json(g1_path, capsys):
    assert run(["bound", g1_path, "--builtin", "safety",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == 118 and doc["variant"] == "general"
    assert run(["region", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--bound", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["w_sys"] == [] and len(doc["w_env"]) == 4


CYCLE = {
    "vars": ["a", "b"],
    "inputs": [],
    "rho_e": "true",
    "rho_s": "(!a & !b -> !a' & b') & (!a & b -> a' & b')"
             " & (a & b -> a' & !b') & (a & !b -> !a' & !b')",
    "weights": [
        {"guard": "!a", "weight": -2},
        {"guard": "a", "weight": 2},
    ],
    "formula": "nu X . <>X",
}


def test_out_of_memory_exits_2(g1_path, tmp_path, capsys, monkeypatch):
    from emu import energy, tables

    names = [f"v{i}" for i in range(10)]
    game = tmp_path / "big.game"
    # a weight guard that reads every variable gives each state its own row,
    # and one read output per output assignment as it reads them primed too
    guard = " & ".join(names + [f"{v}'" for v in names])
    weights = [{"guard": guard, "weight": 2},
               {"guard": "true", "weight": 1}]
    game.write_text(json.dumps({**CYCLE, "vars": names, "rho_s": "true",
                                "weights": weights}))
    monkeypatch.setattr(tables, "_available_memory", lambda: 16 << 20)
    assert run(["solve", str(game), "--bound", "2"]) == 2
    assert "10 variables need about 16 MiB" in capsys.readouterr().err

    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(energy, "_ecpre", no_memory)
    assert run(["solve", g1_path, "--builtin", "safety", "--bound", "2"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_the_report_is_charged_before_evaluating(fixtures_dir, capsys, monkeypatch):
    # local20 is solved on the 7 variables its moves read: 2^13 cells and
    # 2^7 states, 131 KiB of tables, but its report over 2^20 states takes
    # 10 MiB more, which is charged with them before any evaluation
    from emu import load_game, solve, tables
    from emu.errors import StateCapError
    from emu.solver import quotient

    path = str(fixtures_dir / "local20.game")
    game = load_game(path)
    small = quotient(game, fm.builtin("safety"))
    assert (len(small.vars.names), tables.cell_bits(small)) == (7, 13)
    monkeypatch.setattr(tables, "_available_memory", lambda: 8 << 20)
    tables.check_memory("7 variables", 1 << 7, 1 << 13)  # the quotient's tables alone fit
    with pytest.raises(StateCapError, match="20 variables need about 10 MiB"
                       " of tables and report, more than the 8 MiB free"):
        solve(game, fm.builtin("safety"), 10)
    for command in ("solve", "bound"):
        assert run([command, path, "--builtin", "safety"]) == 2
        assert "of tables and report" in capsys.readouterr().err


def test_no_command_builds_the_whole_games_tables(fixtures_dir, capsys, monkeypatch):
    # the whole game's tables need 32 MiB, more than is free here, and
    # neither the --state query nor the bound command builds them: both
    # refuse and accept what the quotient's tables and the report decide
    import emu.game
    from emu import tables

    built = []
    build = emu.game.build_tables
    monkeypatch.setattr(emu.game, "build_tables",
                        lambda g: built.append(len(g.vars.names)) or build(g))
    monkeypatch.setattr(tables, "_available_memory", lambda: 24 << 20)
    path = str(fixtures_dir / "local20.game")
    state = " & ".join(f"!v{i}" for i in range(20))
    assert run(["bound", path, "--builtin", "safety"]) == 0
    assert "bound: " in capsys.readouterr().out
    assert run(["solve", path, "--builtin", "safety", "--bound", "10",
                "--state", state]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d005976a2ecf6fa36be070dc7d00173fc5549ddb3b9da54e45f7b3190056a1fb")
    assert built == [7, 7]


def test_sixteen_variable_solve_is_byte_identical(fixtures_dir, capsys):
    # 16 variables whose moves read 2 of their 8 outputs: the digest of the
    # whole report pins every state's credit
    game = str(fixtures_dir / "local16.game")
    assert run(["solve", game, "--builtin", "safety", "--bound", "10",
                "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "81b9eb3665d3a3c68588c07b3013339dab4ab02917941664bbe14fc9a4039a6d")
    credits = {row["credit"] for row in json.loads(out)["min_credits"]}
    assert credits == {"0", "1", "3", "6"}


def test_the_json_report_spans_no_index_array_over_every_state(fixtures_dir):
    # local20's JSON solve names its 2^20 states a run at a time; int64 index
    # arrays over all of them, as the report of every state and of each
    # region, took its traced peak from 19 to 27 MiB.  The second of two
    # identical runs is measured, so imports and caches fall outside it.
    import contextlib
    import tracemalloc

    class Discard(io.TextIOBase):
        def write(self, text):
            return len(text)

    argv = ["solve", str(fixtures_dir / "local20.game"), "--builtin", "safety",
            "--bound", "10", "--format", "json"]
    with contextlib.redirect_stdout(Discard()):
        assert run(argv) == 0
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 22 << 20


def test_empty_priority_list_is_rejected(tmp_path, capsys):
    game = tmp_path / "cycle.game"
    game.write_text(json.dumps(CYCLE))
    assert run(["solve", str(game), "--bound", "inf", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["credit"] for row in doc["min_credits"]] == ["4", "2", "2", "0"]
    prio = tmp_path / "empty.prio"
    prio.write_text("[]")
    for command in ("solve", "bound"):
        assert run([command, str(game), "--priorities", str(prio)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "G", "--bound", "2", "--builtin", "nope"],
    ["solve", "G", "--bound", "2", "--builtin", "reach"],
    ["check", "--cases", "1", "--max-vars", "1"],
    ["check", "--cases", "1", "--max-weight", "-1"],
    ["check", "--cases", "1", "--max-bound", "-1"],
    ["check", "--cases", "-3"],
    ["check", "--seed", "0", "--cases", "20", "--max-vars", "9"],
])
def test_bad_arguments_exit_2_without_a_traceback(argv, g1_path, capsys):
    assert run([g1_path if a == "G" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err or "usage:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, text", [
    (["solve", "G", "--builtin", "buchi", "--param", "J"],
     "error: --param expects k=v, got 'J'\n"),
    (["check", "--cases", "two"],
     "emu check: error: argument --cases: expected an integer, got 'two'\n"),
    (["solve", "{LIST}"], "error: {LIST}: expected a JSON object\n"),
    (["solve", "G", "--priorities", "{OBJECT}"],
     "error: {OBJECT}: expected a JSON list of priority rules\n"),
])
def test_refusals_name_their_cause(argv, text, g1_path, tmp_path, capsys):
    paths = {"LIST": tmp_path / "list.game", "OBJECT": tmp_path / "object.prio"}
    paths["LIST"].write_text("[]")
    paths["OBJECT"].write_text("{}")
    argv = [g1_path if a == "G" else a.format(**paths) for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith(text.format(**paths)) and "Traceback" not in err


@pytest.mark.parametrize("flag, flaw", [
    *((flag, flaw) for flag in ("game", "--priorities")
      for flaw in ("nesting", "digits", "bytes")),
    ("--formula-file", "bytes"),
])
def test_an_unreadable_file_exits_2_without_a_traceback(flag, flaw, g1_path, prio_path,
                                                        tmp_path, capsys):
    # the file holds a game, priority rules or a formula, but is nested past
    # the recursion limit, holds a 5,000-digit integer or is not UTF-8; a
    # Python without the digit limit reads the integer, and the game model
    # refuses it as a weight or a priority beyond 64 bits
    path = tmp_path / "unreadable"
    argv = ["solve", g1_path, "--builtin", "safety"]
    if flag == "game":
        doc = json.loads(Path(g1_path).read_text())
        doc["weights"][0]["weight"] = "NUMBER"
        text, argv[1] = json.dumps(doc), str(path)
    elif flag == "--priorities":
        doc = json.loads(Path(prio_path).read_text())
        doc[0]["priority"] = "NUMBER"
        text, argv = json.dumps(doc), argv + [flag, str(path)]
    else:
        text, argv = "nu X . <>X", argv[:2] + [flag, str(path)]
    if flaw == "nesting":
        path.write_bytes(b"[" * 200_000 + b"]" * 200_000)
    elif flaw == "digits":
        path.write_text(text.replace('"NUMBER"', "9" * 5000))
    else:
        path.write_bytes(b"\xff\xfe" + text.encode())
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if flaw != "digits" or hasattr(sys, "get_int_max_str_digits"):
        assert str(path) in err


@pytest.mark.parametrize("argv, text", [
    (["--formula", "", "--bound", "2"], "error: expected a formula (at position 0)\n"),
    (["--formula", "", "--builtin", "buchi", "--param", "J=y"],
     "error: give at most one of --formula/--formula-file/--builtin\n"),
    (["--formula-file", ""], "error: [Errno 21] Is a directory: '.'\n"),
    (["--state", ""], "error: expected an atom (at position 0)\n"),
    (["--priorities", ""], "error: [Errno 21] Is a directory: '.'\n"),
    (["--builtin", "", "--param", "J=y"], "error: unknown builtin formula ''"),
], ids=["formula", "formula-and-builtin", "formula-file", "state", "priorities", "builtin"])
def test_an_empty_option_value_counts_as_given(argv, text, g1_path, capsys):
    # an empty --formula or --formula-file does not fall back on the game's
    # formula, nor an empty --state on every state
    assert run(["solve", g1_path, *argv]) == 2
    assert capsys.readouterr().err.startswith(text)


def test_an_engine_failure_exits_3(g1_path, capsys, monkeypatch):
    def stuck(game, formula, bound):
        raise IterationCapError("a fixpoint did not stabilize")

    monkeypatch.setattr("emu.cli.solve", stuck)
    assert run(["solve", g1_path]) == 3
    assert capsys.readouterr().err == (
        "internal consistency failure: a fixpoint did not stabilize\n")


def test_a_report_of_another_schema_is_refused():
    with pytest.raises(EmuError, match="^unsupported report schema 2$"):
        solve_report_from_json({"schema": 2})


def _nested_solve_argv(shape, over, g1_path, tmp_path):
    """emu solve arguments whose rho_s or formula is the deepest of its shape
    within MAX_NESTING, or, with ``over``, one unit deeper."""
    from emu.assertions import MAX_NESTING as M

    doc = json.loads(Path(g1_path).read_text())
    formula = None
    if shape == "rho_s":
        doc["rho_s"] = " & ".join(["true"] * (M + 1 + over))
    elif shape == "parens":
        n = (M - 8) // 4 + over
        formula = "nu X . " + "(" * n + "<><>X" + ")" * n
    elif shape == "diamonds":
        formula = "nu X . " + "<>" * (M - 4 + over) + "X"
    else:  # an escaped assertion
        n = (M - 10) // 4 + over
        formula = 'mu X . (@"' + "(" * n + "y" + ")" * n + '" | <>X)'
    path = tmp_path / f"{shape}{over}.game"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--bound", "2"]
    return argv + (["--formula", formula] if formula else [])


@pytest.mark.parametrize("shape", ["rho_s", "parens", "diamonds", "escape"])
def test_nesting_limit_through_the_cli(shape, g1_path, tmp_path, capsys, stack_room):
    from emu.assertions import MAX_NESTING

    with stack_room(MAX_NESTING + 32):
        assert run(_nested_solve_argv(shape, 0, g1_path, tmp_path)) == 0
    assert "W_sys: 4 states" in capsys.readouterr().out
    assert run(_nested_solve_argv(shape, 1, g1_path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "nested deeper than" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rho_s, formula", [
    (" & ".join(["true"] * 500), None),
    (None, "nu X . " + "<>" * 400 + "X"),
    (None, "nu X . " + "(" * 200 + "<>X" + ")" * 200),
], ids=["rho_s-500-clauses", "formula-400-diamonds", "formula-200-parens"])
def test_long_input_still_solves(rho_s, formula, g1_path, tmp_path, capsys):
    doc = json.loads(Path(g1_path).read_text())
    doc["rho_s"] = rho_s or doc["rho_s"]
    path = tmp_path / "long.game"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--bound", "2"]
    assert run(argv + (["--formula", formula] if formula else [])) == 0
    assert "W_sys: 4 states" in capsys.readouterr().out


@pytest.mark.parametrize("rho_s, formula", [
    (" & ".join(["true"] * 1500), None),
    (None, "(" * 2000 + "nu X . <>X" + ")" * 2000),
    (None, "nu X . " + "<>" * 1000 + "X"),
], ids=["rho_s-1500-clauses", "formula-2000-parens", "formula-1000-diamonds"])
def test_deep_input_exits_2_without_a_traceback(rho_s, formula, g1_path, tmp_path,
                                                 capsys):
    doc = json.loads(Path(g1_path).read_text())
    doc["rho_s"] = rho_s or doc["rho_s"]
    path = tmp_path / "deep.game"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--bound", "2"]
    assert run(argv + (["--formula", formula] if formula else [])) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "G", "--bound", "2", "--builtin", "safety", "--param", "J=y"],
    ["solve", "G", "--bound", "2", "--builtin", "reach", "--param", "p=y",
     "--param", "q=x"],
    ["solve", "G", "--bound", "2", "--formula", "nu X . <>X", "--param", "p=y"],
    ["solve", "G", "--bound", "2", "--param", "J=y"],
    ["solve", "G", "--builtin", "buchi", "--param", "J=y", "--param", "J=x",
     "--bound", "2"],
    ["bound", "G", "--param", "J=y"],
    ["region", "G", "--bound", "2", "--param", "J=y"],
])
def test_param_is_checked(argv, g1_path, capsys):
    assert run([g1_path if a == "G" else a for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_state_is_checked_before_solving(g1_path, monkeypatch, capsys):
    def no_solve(request):
        raise AssertionError("solve ran before --state was checked")

    monkeypatch.setattr("emu.cli.solve", no_solve)
    for state in ("x & !x", "x &", "w"):
        assert run(["solve", g1_path, "--state", state]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("names", [(), ("x",), ("x", "y"), ("a", "b", "c"),
                                   ("a", "b", "c", "d"), ("a", "b", "c", "d", "e")])
def test_state_names_are_the_minterms(names):
    from oracles import State

    game = WeightedGameStructure(VariableSet(names, frozenset(names[:1])),
                                 TRUE, TRUE, ())
    assert state_names(game, np.arange(game.n_states)) == [
        State(game.vars, i).minterm() for i in range(game.n_states)]
    assert [state_names(game, np.array([i]))[0] for i in range(game.n_states)] == [
        State(game.vars, i).minterm() for i in range(game.n_states)]
    # a shuffled subset, with repeats
    picked = np.random.default_rng(len(names)).integers(0, game.n_states, 3 * game.n_states)
    assert state_names(game, picked) == [State(game.vars, i).minterm()
                                         for i in picked.tolist()]


# Variable names are identifiers, which JSON writes as they are; the --state
# query text is any text, here one that JSON must escape: a quote, a
# backslash, a control character, non-ASCII text and a line separator,
# besides plain letters.
_NAMES = st.text(st.sampled_from("xy_9"), min_size=1, max_size=3).filter(
    lambda name: not name[0].isdigit())
_QUERY = st.text(st.sampled_from('xy"\\\x01\u00e9\u2028'), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(_NAMES, max_size=3, unique=True), st.booleans(),
       st.integers(0, 5), st.sampled_from(("parity", "buchi", "general")),
       st.data())
def test_solve_json_is_json_dumps_of_the_reference(names, unbounded, bound,
                                                   variant, data):
    """The run-by-run writer against ``json.dumps`` of the reference
    document, byte for byte, with and without a --state query, for runs of
    1, 2, 3 and the default number of states."""
    vs = VariableSet(names, frozenset())
    game = WeightedGameStructure(vs, TRUE, TRUE, ())
    n = game.n_states
    cell = st.one_of(st.just(int(INF)), st.integers(0, bound))
    credits = data.draw(st.lists(cell, min_size=n, max_size=n))
    w_sys = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    w_env = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    report = SolveReport(
        effective_bound=bound, unbounded=unbounded,
        min_credits=EnergyFunction(bound, np.array(credits, dtype=np.int64)),
        sys_region=np.array(w_sys, dtype=bool),
        env_region=np.array(w_env, dtype=bool),
        bound_breakdown=BoundBreakdown(n, 1, 9, 2, variant, bound))
    formula = data.draw(st.sampled_from(
        (fm.builtin("safety"), fm.parse_formula('nu Z . @"true" & <>Z'))))
    query = None
    if data.draw(st.booleans()):
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n)
                         .filter(any))
        query = (data.draw(_QUERY), np.array(mask))
    chunk = data.draw(st.sampled_from((1, 2, 3, cli.CHUNK)))
    out = io.StringIO()
    with mock.patch.object(cli, "CHUNK", chunk):
        write_solve_json(out, report, game, formula, query)
    assert out.getvalue() == json.dumps(
        solve_report_dict(report, vs, formula, query)) + "\n"


def _five_variable_game(tmp_path):
    """A seeded 5-variable game whose safety credits at bound 2 are 0, 2 and
    inf, and whose system wins 20 of its 32 states."""
    from emu.gamefile import save_game
    from emu.randgen import random_wgs

    path = tmp_path / "five.game"
    save_game(random_wgs(random.Random(17), 5, 5, 3), path)
    return str(path)


@pytest.mark.parametrize("game, solve_args", [
    ("g1", ["--formula", "mu X . ([]X | y)", "--bound", "1", "--state", "!y"]),
    ("five", ["--builtin", "safety", "--bound", "2", "--state", "a | !b"]),
])
@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_runs_write_the_same_bytes(game, solve_args, chunk, g1_path, tmp_path,
                                   monkeypatch, capsys):
    """Every writer gives the same bytes in runs of 1, 2 and 3 states as in
    runs of the default size, whose one run holds every state."""
    path = g1_path if game == "g1" else _five_variable_game(tmp_path)
    no_state = solve_args[:-2]
    commands = [[command, path, *args, *fmt]
                for command, args in (("solve", no_state), ("solve", solve_args),
                                      ("region", no_state))
                for fmt in ([], ["--format", "json"])]
    default = []
    for argv in commands:
        default.append((run(argv), capsys.readouterr().out))
    monkeypatch.setattr(cli, "CHUNK", chunk)
    for argv, want in zip(commands, default):
        assert (run(argv), capsys.readouterr().out) == want


def test_solve_json_bytes_of_the_fixture(g1_path, capsys):
    """The exact text, separators and key order included, which the parsed
    comparisons elsewhere cannot see."""
    assert run(["solve", g1_path, "--builtin", "buchi", "--param", "J=y",
                "--bound", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{"schema": 1, "command": "solve", "formula": "nu Z . mu Y . y & <>Z'
        ' | <>Y", "requested_bound": 2, "effective_bound": 2,'
        ' "bound_variant": "buchi", "N": 4, "K": 1, "m": 9, "d": 2,'
        ' "min_credits": [{"state": "!x & !y", "credit": "0"},'
        ' {"state": "x & !y", "credit": "0"}, {"state": "!x & y", "credit": "0"},'
        ' {"state": "x & y", "credit": "0"}],'
        ' "w_sys": ["!x & !y", "x & !y", "!x & y", "x & y"], "w_env": []}\n')


def test_priorities_leave_another_formula_alone(tmp_path, capsys):
    # every move loses 1 and the formula needs six of them: credit 6 wins,
    # whether or not the game carries a priority annotation
    game = tmp_path / "g.game"
    game.write_text(json.dumps({
        "vars": ["x"], "inputs": [], "rho_e": "true", "rho_s": "true",
        "weights": [{"guard": "true", "weight": -1}],
        "formula": "<><><><><><>true"}))
    prio = tmp_path / "p.prio"
    prio.write_text('[{"guard": "true", "priority": 0}]')
    for extra in ([], ["--priorities", str(prio)]):
        assert run(["solve", str(game), "--format", "json", *extra]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["effective_bound"], doc["bound_variant"]) == (41, "general")
        assert [row["credit"] for row in doc["min_credits"]] == ["6", "6"]
        assert doc["w_sys"] == ["!x", "x"] and doc["w_env"] == []


def _iff_game(iff):
    """A game that reads ``p <-> q``, written ``iff(p, q)``, in rho_s, a
    weight guard, both priority guards and its formula's atom."""
    return {
        "vars": ["a", "b", "c"], "inputs": ["a"], "rho_e": "true",
        "rho_s": iff("c'", iff("a'", "b")),
        "weights": [{"guard": iff("a'", "c'"), "weight": -2},
                    {"guard": "true", "weight": 1}],
        "priorities": [{"guard": iff("b", "c"), "priority": 0},
                       {"guard": "!" + iff("b", "c"), "priority": 1}],
        "formula": f'nu Z . mu Y . (@"{iff("a", "c")}" & <>Z) | <>Y',
    }


def test_iff_is_both_implications(tmp_path, capsys):
    # the same tables, masks and --state solve report as with each p <-> q
    # written (p -> q) & (q -> p)
    seen = []
    for iff in (lambda p, q: f"({p} <-> {q})",
                lambda p, q: f"(({p} -> {q}) & ({q} -> {p}))"):
        path = tmp_path / f"game{len(seen)}.game"
        path.write_text(json.dumps(_iff_game(iff)))
        game, state = load_game(path), iff("a", "c")
        t = game.tables()
        assert run(["solve", str(path), "--state", state, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["formula"], report["query"]["state"]
        seen.append((t.rho_e, t.weight, t.succ, t.prio,
                     game.vars.state_mask(asr.parse_assertion(state)), report))
    (*tables, report), (*spelled, spelled_report) = seen
    assert all(np.array_equal(a, b) for a, b in zip(tables, spelled))
    assert report == spelled_report
    assert [row["credit"] for row in report["min_credits"]] == [
        "0", "0", "2", "2", "0", "0", "2", "2"]
    assert [row["credit"] for row in report["query"]["results"]] == ["0", "2", "0", "2"]


@pytest.mark.parametrize("module", ["emu", "emu.cli"])
def test_python_dash_m_runs_the_cli(module, g1_path):
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", module, "solve", g1_path, "--builtin", "buchi",
         "--param", "J=y", "--bound", "0", "--state", "x & y"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == (
        "effective bound: 0\nN=4 K=1 m=9 d=2 variant=buchi\n"
        "state x & y: min credit inf -> system loses\n"
        "W_sys: 0 states, W_env: 4 states\n")


@pytest.mark.parametrize("argv, code", [
    (["solve", "local16.game", "--builtin", "safety", "--bound", "2"], 0),
    (["solve", "local16.game", "--builtin", "reach", "--param", "p=v0", "--bound", "0",
      "--state", "v1"], 1),
    (["region", "local16.game", "--builtin", "safety", "--bound", "2"], 0),
    (["check", "--seed", "1", "--cases", "3000", "--max-vars", "2", "--max-bound", "2"], 0),
])
def test_a_reader_that_leaves_early_changes_no_exit_code(argv, code, fixtures_dir, tmp_path):
    # the report of a 16-variable game, megabytes long, fills the pipe, so a
    # write meets the pipe after the reader closed it; check writes 39 KB,
    # several 8 KiB buffers, and gives its verdict only after its last case
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "emu",
         *(str(fixtures_dir / a) if a.endswith(".game") else a for a in argv)],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (code, b"")

