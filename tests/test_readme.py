import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_library_quick_start_runs():
    # the README's python example, run as a user runs it from the repository
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr


CREDIT_0_EVERYWHERE = "min credits:\n  !x & !y: 0\n  x & !y: 0\n  !x & y: 0\n  x & y: 0\n"

# per README command: its exit code and what its comment says it prints
CLI_BLOCK = {
    "emu solve fixtures/g1.game --builtin buchi --param J=y --bound 2":
        (0, [CREDIT_0_EVERYWHERE]),
    'emu solve fixtures/g1.game --builtin buchi --param J=y --bound 0 --state "x & y"':
        (1, ["state x & y: min credit inf"]),
    "emu solve fixtures/g1.game --builtin buchi --param J=y --bound inf":
        (0, ["effective bound: 38 ", CREDIT_0_EVERYWHERE]),
    "emu bound fixtures/g1.game --builtin safety":
        (0, ["variant: general\nbound: 118\n"]),
    "emu bound fixtures/g1.game --builtin buchi --param J=y":
        (0, ["variant: buchi\nbound: 38\n"]),
    "emu bound fixtures/g1.game --priorities fixtures/g1_buchi.prio":
        (0, ["variant: buchi\nbound: 38\n"]),
    "emu region fixtures/g1.game --builtin buchi --param J=y --bound 2":
        (0, ["partition: 4 + 0 = 4\n"]),
    "emu check --seed 7 --cases 200 --max-vars 4 --max-weight 2 --max-bound 8":
        (0, ["checked 200 cases, 0 mismatches\n"]),
    "emu check --oracle parity --seed 7 --cases 100":
        (0, ["checked 100 cases, 0 mismatches\n"]),
}


def test_the_cli_block_prints_what_its_comments_say(monkeypatch, capsys):
    # every emu line of the README's shell block, run in process from the
    # repository root, comments dropped
    from emu.cli import run

    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("emu ")]
    assert [shlex.join(argv) for argv in lines] == [
        shlex.join(shlex.split(line)) for line in CLI_BLOCK]
    monkeypatch.chdir(ROOT)
    for argv, (code, shown) in zip(lines, CLI_BLOCK.values()):
        assert run(argv[1:]) == code, argv
        out = capsys.readouterr().out
        for text in shown:
            assert text in out, (argv, text)
