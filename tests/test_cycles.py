"""Tree walks leave no reference cycles behind.

A nested function that calls itself refers to itself through its closure,
so each call of the function around it leaves a cycle that only the cyclic
garbage collector frees, together with everything the walk's frame held.
"""

import ast
import contextlib
import gc
import io
from pathlib import Path

import pytest

from emu.cli import run

SRC = Path(__file__).parent.parent / "src" / "emu"


def _self_referencing_nested_functions(tree):
    """(line, name) of each function defined inside another function that
    names itself in its own body."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Name) and n.id == inner.name
                   for stmt in inner.body for n in ast.walk(stmt)):
                found.append((inner.lineno, inner.name))
    return found


def test_the_detector_sees_a_recursive_closure():
    tree = ast.parse("def outer(t):\n"
                     "    def walk(n):\n"
                     "        return [walk(c) for c in n]\n"
                     "    def leaf(n):\n"
                     "        return n\n"
                     "    return walk(t)\n")
    assert _self_referencing_nested_functions(tree) == [(2, "walk")]


def test_no_nested_function_calls_itself():
    found = {path.name: _self_referencing_nested_functions(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


PARITY = 'nu Z0 . mu Z1 . ((y & <>Z0) | (@"!y" & <>Z1))'  # g1_buchi.prio's
MIXED = "mu X . ([]X | y)"  # at bound 1, the states with !y lose

# Each command, with G for the fixture game, P for its priorities and D for
# a scratch directory, and its exit code.  A check that fails is left out:
# the counterexample dump's json.dumps(indent=2) makes cycles of its own.
COMMANDS = {
    "solve-text": (["solve", "G", "--bound", "2"], 0),
    "solve-json": (["solve", "G", "--bound", "2", "--format", "json"], 0),
    "solve-state-loses": (["solve", "G", "--bound", "1", "--formula", MIXED,
                           "--state", "!y"], 1),
    "solve-state-json": (["solve", "G", "--bound", "1", "--formula", MIXED,
                          "--state", "y", "--format", "json"], 0),
    "solve-inf-state": (["solve", "G", "--builtin", "buchi", "--param", "J=y",
                         "--bound", "inf", "--state", "y"], 0),
    "solve-inf-json": (["solve", "G", "--bound", "inf", "--format", "json"], 0),
    "solve-inf-priorities": (["solve", "G", "--priorities", "P", "--formula", PARITY,
                              "--bound", "inf", "--state", "!y"], 0),
    "solve-priorities-json": (["solve", "G", "--priorities", "P", "--bound", "3",
                               "--format", "json"], 0),
    "region": (["region", "G", "--bound", "1", "--formula", MIXED], 0),
    "region-json": (["region", "G", "--bound", "2", "--format", "json"], 0),
    "bound": (["bound", "G"], 0),
    "bound-priorities-json": (["bound", "G", "--priorities", "P", "--formula", PARITY,
                               "--format", "json"], 0),
    "check-reduction": (["check", "--cases", "3", "--dump-dir", "D"], 0),
    "check-parity": (["check", "--oracle", "parity", "--cases", "3",
                      "--dump-dir", "D"], 0),
    "non-monotone": (["solve", "G", "--formula", "mu X . !X"], 2),
    "unbound-variable": (["solve", "G", "--formula", "nu X . <>Y"], 2),
}


def _quiet_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code", COMMANDS.values(), ids=list(COMMANDS))
def test_a_command_leaves_no_cycle(argv, code, fixtures_dir, tmp_path):
    paths = {"G": str(fixtures_dir / "g1.game"),
             "P": str(fixtures_dir / "g1_buchi.prio"), "D": str(tmp_path)}
    argv = [paths.get(a, a) for a in argv]
    first = _quiet_run(argv)  # imports, the parser and other once-per-process work
    assert first[0] == code
    assert first[2].startswith("error:") if code == 2 else first[2] == ""
    gc.collect()
    gc.disable()
    try:
        again = _quiet_run(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert again == first
    assert not list(tmp_path.iterdir())  # no check dumped a counterexample
