import json
import shutil
import time

import pytest

from emu.cli import run, solve_report_from_json


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
    assert "bound: 38" in out and "variant: parity" in out


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
    capsys.readouterr()


def test_solve_rejects_weight_beyond_int64(g1_path, tmp_path, capsys):
    doc = json.loads(open(g1_path).read())
    doc["weights"][0]["weight"] = 1 << 70
    path = tmp_path / "huge.game"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), "--bound", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_at_a_finite_bound_with_a_huge_sufficient_bound(g1_path, tmp_path,
                                                               capsys):
    doc = json.loads(open(g1_path).read())
    doc["weights"][0]["weight"] = -(1 << 60)
    path = tmp_path / "deep.game"
    path.write_text(json.dumps(doc))
    assert run(["solve", str(path), "--bound", "3"]) in (0, 1)
    assert run(["region", str(path), "--bound", "3"]) == 0
    assert run(["bound", str(path)]) == 0
    assert run(["solve", str(path), "--bound", "inf"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_check_mutation_detected(tmp_path, capsys):
    code = run(["check", "--seed", "7", "--cases", "5", "--max-vars", "3",
                "--dump-dir", str(tmp_path), "--mutate"])
    out = capsys.readouterr().out
    assert code == 3
    assert "MISMATCH" in out
    games = list(tmp_path.glob("counterexample-*.game"))
    reports = list(tmp_path.glob("counterexample-*.json"))
    assert len(games) == 1 and len(reports) == 1
    # the dumped game file loads and reproduces the case
    from emu import load_game

    load_game(games[0])
    meta = json.loads(reports[0].read_text())
    assert meta["seed"] == 7 and meta["oracle"] == "reduction"


def test_check_parity_oracle(tmp_path, capsys):
    code = run(["check", "--oracle", "parity", "--seed", "3", "--cases", "6",
                "--max-vars", "3", "--dump-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "checked 6 cases, 0 mismatches" in out


def test_check_parity_mutation(tmp_path, capsys):
    code = run(["check", "--oracle", "parity", "--seed", "3", "--cases", "4",
                "--max-vars", "3", "--dump-dir", str(tmp_path), "--mutate"])
    assert code == 3
    capsys.readouterr()
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
    # a weight guard that reads every variable gives each state its own row
    weights = [{"guard": " & ".join(names), "weight": 2},
               {"guard": "true", "weight": 1}]
    game.write_text(json.dumps({**CYCLE, "vars": names, "rho_s": "true",
                                "weights": weights}))
    monkeypatch.setattr(tables, "_available_memory", lambda: 16 << 20)
    assert run(["solve", str(game), "--bound", "2"]) == 2
    assert "10 variables need about 17 MiB" in capsys.readouterr().err

    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(energy, "ecpre", no_memory)
    assert run(["solve", g1_path, "--builtin", "safety", "--bound", "2"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


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
])
def test_bad_arguments_exit_2_without_a_traceback(argv, g1_path, capsys):
    assert run([g1_path if a == "G" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err or "usage:" in err
    assert "Traceback" not in err


def _nested_solve_argv(shape, over, g1_path, tmp_path):
    """emu solve arguments whose rho_s or formula is the deepest of its shape
    within MAX_NESTING, or, with ``over``, one unit deeper."""
    from emu.assertions import MAX_NESTING as M

    doc = json.loads(open(g1_path).read())
    formula = None
    if shape == "rho_s":
        doc["rho_s"] = " & ".join(["true"] * (M + 1 + over))
    elif shape == "parens":
        n = (M - 8) // 4 + over
        formula = "nu X . " + "(" * n + "<><>X" + ")" * n
    elif shape == "diamonds":
        formula = "nu X . " + "<>" * ((M - 4) // 2 + over) + "X"
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
    doc = json.loads(open(g1_path).read())
    doc["rho_s"] = rho_s or doc["rho_s"]
    path = tmp_path / "long.game"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--bound", "2"]
    assert run(argv + (["--formula", formula] if formula else [])) == 0
    assert "W_sys: 4 states" in capsys.readouterr().out


@pytest.mark.parametrize("rho_s, formula", [
    (" & ".join(["true"] * 1500), None),
    (None, "(" * 2000 + "nu X . <>X" + ")" * 2000),
    (None, "nu X . " + "<>" * 500 + "X"),
], ids=["rho_s-1500-clauses", "formula-2000-parens", "formula-500-diamonds"])
def test_deep_input_exits_2_without_a_traceback(rho_s, formula, g1_path, tmp_path,
                                                 capsys):
    doc = json.loads(open(g1_path).read())
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


@pytest.mark.parametrize("names", [(), ("x",), ("x", "y"), ("a", "b", "c", "d")])
def test_state_names_are_the_minterms(names):
    from emu import State, VariableSet, WeightedGameStructure
    from emu.assertions import TRUE
    from emu.cli import _state_names

    game = WeightedGameStructure(VariableSet(names, frozenset(names[:1])),
                                 TRUE, TRUE, ())
    assert _state_names(game) == [State(game.vars, i).minterm()
                                  for i in range(game.n_states)]
