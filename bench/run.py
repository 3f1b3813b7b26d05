#!/usr/bin/env python3
"""The emu benchmark: ``emu solve`` and ``emu check`` run the way users run them.

Every op is one in-process call of ``emu.cli.run([...])`` against this
checkout's ``src/``, in a closed loop with one client: an op starts when the
previous one returns.  Inputs come from the benchmark's own seeded
generator (``games.py``).  Each op's output is checked after the timed phase.

Usage (from the repository root)::

    python3 bench/run.py                                  # all workloads
    python3 bench/run.py --workload finite-large --seed 3
    python3 bench/run.py --workload inf-small --trace 1   # per-layer run
    python3 bench/run.py --record-digests                 # rewrite digests.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import games  # noqa: E402
from calibrate import Clock  # noqa: E402
from spans import LATTICE, Tracer  # noqa: E402

WORKLOADS = ("finite-large", "inf-small", "oracle-check")
DEFAULT_SEED = 0
SETUP_RUNS = 7              # fresh processes timed for setup_s
MEMORY_FRACTION = 0.5       # refuse inputs whose computed bytes exceed this
DIGESTS = HERE / "digests.json"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "energy.ecpre.calls": "count",
    "energy.ecpre.s": "s",
    "energy.ecpre_env.calls": "count",
    "energy.ecpre_env.s": "s",
    "energy.kernel_cells": "count",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.evals_per_solve": "ratio",
    "solver.compute_bound.s": "s",
    "energy.eval_energy.calls": "count",
    "energy.eval_energy.self_s": "s",
    "energy.iterations": "count",
    "energy.fixpoints": "count",
    "energy.iter_us": "us",
    "energy.lattice.s": "s",
    "tables.build_tables.calls": "count",
    "tables.build_tables.s": "s",
    "tables.cells": "count",
    "reduction.reduce_game.calls": "count",
    "reduction.reduce_game.s": "s",
    "reduction.reduced_cells": "count",
    "reduction.oracle.self_s": "s",
    "classical.eval_classical.s": "s",
    "classical.cpre_sys.calls": "count",
    "classical.cpre_sys.s": "s",
    "classical.cpre_env.calls": "count",
    "classical.cpre_env.s": "s",
    "parity.from_parity_wgs.s": "s",
    "parity.unfold_with_bound.s": "s",
    "parity.solve_parity.s": "s",
    "parity.unfolded_states": "count",
    "formulas.s": "s",
    "gamefile.load_game.s": "s",
    "cli.self_s": "s",
    "randgen.s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.tracemalloc_peak_mb": "MiB",
}

# ---------------------------------------------------------------------------
# Workload definitions.  Shapes are fixed (drawn once from the shape seed
# given here); the run seed relabels them.  See README.md for why each op is
# in its workload.

BUILTIN_PARAM = {"reach": "p", "buchi": "J", "cobuchi": "J", "dual-buchi": "J"}

# finite-large: 10-11 variable games, half inputs, at c in {2, 10}.
# "b2" and "b3" are shape "b" under two more relabelings: with them the
# median rank of the two rounds falls in the middle of six executions of
# dual-buchi on "b", about 15% from the ops on either side, so op_ms_p50
# does not jump between op kinds from run to run.
FL_SHAPES = {
    # name: (shape seed, variables)
    "a": (5, 10),
    "b": (7, 10),
    "b2": (7, 10),
    "b3": (7, 10),
    "c": (7, 11),
}
FL_ROUND = [
    ("a", "safety", 2), ("a", "reach", 10), ("a", "buchi", 2),
    ("a", "cobuchi", 10), ("a", "dual-buchi", 2), ("a", "parity", 2),
    ("b", "safety", 10), ("b", "reach", 2), ("b", "buchi", 10),
    ("b", "cobuchi", 2), ("b", "dual-buchi", 10), ("b", "parity", 10),
    ("b2", "dual-buchi", 10), ("b3", "dual-buchi", 10),
    ("c", "cobuchi", 10),
]

# inf-small: 3-5 variable games at --bound inf.  "lossy" shapes lose energy
# on every cycle, so their greatest fixpoints climb through the whole credit
# range: thousands of iterations, set by the computed bound.
# Three relabelings of the 5-variable safety game make it the heaviest op and
# put the tail rank (10 ops beyond it) inside its group of executions.
INF_LOSSY = {
    # name: (variables, loss per move, formula)
    "lossy5": (5, 1, "safety"),
    "lossy5b": (5, 1, "safety"),
    "lossy5c": (5, 1, "safety"),
    "lossy4": (4, 1, "buchi"),
    "lossy3": (3, 2, "buchi"),
    "lossy4s": (4, 1, "safety"),
}
# Random draws: draw i has shape seed 2000+i, 3 + i%3 variables, weights in
# [-3, 3] and formula INF_KINDS[i%6].  Most take a few ms; a few run
# thousands of iterations.  The draws below are left out because each one
# alone runs longer than a second here, and would take over the round:
#   9: cobuchi, 3 vars, 2,915 iterations, 1.4 s
#  14: buchi, 5 vars, 21,107 iterations, 6.8 s
#  22: parity, 4 vars, 4,343 iterations, 1.7 s
#  33: cobuchi, 3 vars, 5,826 iterations, 1.9 s
INF_KINDS = ("safety", "reach", "buchi", "cobuchi", "parity", "dual-buchi")
INF_DRAWS = 60
INF_DRAWS_LEFT_OUT = (9, 14, 22, 33)
# Draws small enough for the oracles at their computed bound: 3 variables,
# weights in [-1, 1], buchi or 2-priority parity (bound 142).
INF_ORACLE_DRAWS = 4

# oracle-check: one ``emu check`` case per op, oracles alternating.  Every
# round runs the same pool of cases, case i being ``emu check --seed
# OC_SEED_BASE+i``; the run seed orders each round.  Random cases are
# heavy-tailed (the 11th largest of 1,800 fresh cases ranged 236-363 ms over
# five seeds), so fresh cases per seed, or cases run once, spread the metrics
# wider than any bound the benchmark could keep.
OC_ROUND_SIZE = 200
OC_SEED_BASE = 1_000_000
OC_ARGS = ["--max-vars", "6", "--max-weight", "3", "--max-bound", "16"]

# Whole rounds in the timed phase: about 30 s on the reference machine (2
# cores, Python 3.11, numpy 2.4) in its slow phases.  The count is fixed, so
# the parent and a change run exactly the same ops and their tail
# percentiles are taken at the same rank.
ROUNDS = {"finite-large": 2, "inf-small": 5, "oracle-check": 7}

# Oracle checks run only where the oracle's own tables stay small.
ORACLE_MAX_REDUCED_VARS = 11      # variables of the reduced game: n + credit bits
ORACLE_MAX_UNFOLDED = 20_000      # states of the credit-layered parity game

# Bytes per transition cell: int64 weight + bool rho_s in the tables, and
# about six full-size int64 temporaries in one step-operator call.
TABLE_BYTES_PER_CELL = 9
KERNEL_BYTES_PER_CELL = 48


class SetupError(Exception):
    """The benchmark cannot run here; reported before any op runs."""


@dataclass
class Op:
    key: str                       # stable across seeds
    argv: list
    kind: str                      # "solve" or "check"
    path: Path | None = None       # game file of a solve op
    relabel: object = None         # games.Relabeling of a solve op
    n_vars: int = 0
    bound: object = None           # finite bound, or None for --bound inf
    formula: str = ""              # builtin name, or "parity" / "game"
    param: str | None = None       # builtin parameter value


@dataclass
class Plan:
    workload: str
    seed: int
    ops: list = field(default_factory=list)   # the round, when every round is the same
    make_round: object = None                 # callable(r) when rounds differ
    table_bytes: dict = field(default_factory=dict)

    def round(self, r):
        return self.ops if self.make_round is None else self.make_round(r)


# ---------------------------------------------------------------------------
# Loading emu

def load_emu():
    """Import ``emu`` from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import emu
        import emu.cli
    except ImportError as e:
        raise SetupError(f"cannot import emu from {SRC}: {e}") from e
    where = Path(emu.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"emu was imported from {where}, not from {SRC}")
    return emu


# ---------------------------------------------------------------------------
# Input generation

def _formula_args(shape, flips, formula):
    if formula in ("parity", "game"):
        return [], None
    if formula == "safety":
        return ["--builtin", "safety"], None
    param = shape.target_str(flips)
    return ["--builtin", formula, "--param", f"{BUILTIN_PARAM[formula]}={param}"], param


def _solve_op(key, shape, relabel, formula, bound, workdir):
    prio = formula == "parity"
    game_formula = shape.parity_formula_str(relabel.flips) if prio else "nu X . <>X"
    doc = shape.render(relabel.order, relabel.flips, game_formula)
    if not prio:
        doc.pop("priorities", None)
    stem = key.replace("/", "_")
    path = workdir / f"{stem}.game"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    fargs, param = _formula_args(shape, relabel.flips, formula)
    argv = ["solve", str(path), "--format", "json"] + fargs
    if bound is not None:
        argv += ["--bound", str(bound)]
    return Op(key=key, argv=argv, kind="solve", path=path, relabel=relabel,
              n_vars=shape.n_vars, bound=bound, formula=formula, param=param)


def _relabeling(seed, name, shape):
    return games.Relabeling.draw(random.Random(f"{seed}/{name}"), shape.names)


def _table_bytes(n_vars):
    cells = 4 ** n_vars
    return cells * TABLE_BYTES_PER_CELL, cells * KERNEL_BYTES_PER_CELL


def _record_sizes(plan, n_vars_list):
    tables = [_table_bytes(n)[0] for n in n_vars_list]
    kernel = [_table_bytes(n)[1] for n in n_vars_list]
    plan.table_bytes = {
        "max_table_bytes": max(tables),
        "max_kernel_bytes": max(kernel),
        "distinct_games": len(n_vars_list),
    }


def plan_finite_large(seed, workdir):
    plan = Plan("finite-large", seed)
    shapes = {name: games.random_shape(random.Random(s), n, 3, n_priorities=3)
              for name, (s, n) in FL_SHAPES.items()}
    relabels = {name: _relabeling(seed, name, sh) for name, sh in shapes.items()}
    for name, formula, c in FL_ROUND:
        key = f"{name}/{formula}/c{c}"
        plan.ops.append(_solve_op(key, shapes[name], relabels[name], formula, c, workdir))
    _record_sizes(plan, [sh.n_vars for sh in shapes.values()])
    return plan


def _inf_shapes():
    """(name, shape, formula) of every inf-small op, in round order."""
    out = [(name, games.lossy_shape(n, loss), formula)
           for name, (n, loss, formula) in INF_LOSSY.items()]
    for i in range(INF_DRAWS):
        if i not in INF_DRAWS_LEFT_OUT:
            shape = games.random_shape(random.Random(2000 + i), 3 + i % 3, 3,
                                       n_priorities=2 + i % 2)
            out.append((f"draw{i}", shape, INF_KINDS[i % 6]))
    for i in range(INF_ORACLE_DRAWS):
        shape = games.random_shape(random.Random(3000 + i), 3, 1, n_priorities=2)
        out.append((f"small{i}", shape, ("buchi", "parity")[i % 2]))
    return out


def plan_inf_small(seed, workdir):
    plan = Plan("inf-small", seed)
    shapes = _inf_shapes()
    for name, shape, formula in shapes:
        relabel = _relabeling(seed, name, shape)
        key = f"{name}/{formula}/inf"
        plan.ops.append(_solve_op(key, shape, relabel, formula, None, workdir))
    _record_sizes(plan, [shape.n_vars for _, shape, _ in shapes])
    return plan


def _check_op(i, workdir):
    """Case i of the pool: even cases use the reduction oracle, odd ones parity."""
    oracle = "reduction" if i % 2 == 0 else "parity"
    argv = ["check", "--oracle", oracle, "--seed", str(OC_SEED_BASE + i),
            "--cases", "1", *OC_ARGS, "--dump-dir", str(workdir)]
    return Op(key=f"case{i}", argv=argv, kind="check")


def plan_oracle_check(seed, workdir, round_size=OC_ROUND_SIZE):
    """Every round holds pool cases [0, size), in an order drawn from the seed
    and the round number, reduction and parity cases alternating."""
    plan = Plan("oracle-check", seed)

    def make_round(r):
        rng = random.Random(f"{seed}/round{r}")
        red = [_check_op(i, workdir) for i in range(0, round_size, 2)]
        par = [_check_op(i, workdir) for i in range(1, round_size, 2)]
        rng.shuffle(red)
        rng.shuffle(par)
        ops = [op for pair in zip(red, par) for op in pair]
        return ops + red[len(par):]

    plan.make_round = make_round
    _record_sizes(plan, [6])
    return plan


def plan_smoke(workload, seed, workdir, game_path):
    """One op of the workload's kind on a given game file."""
    plan = Plan(workload, seed)
    if workload == "oracle-check":
        return plan_oracle_check(seed, workdir, round_size=1)
    text = Path(game_path).read_text()
    doc = json.loads(text)
    path = workdir / Path(game_path).name
    path.write_text(text)
    relabel = games.Relabeling(doc["vars"])
    bound = 2 if workload == "finite-large" else None
    argv = ["solve", str(path), "--format", "json"]
    if bound is not None:
        argv += ["--bound", str(bound)]
    plan.ops.append(Op(key="smoke", argv=argv, kind="solve", path=path, relabel=relabel,
                       n_vars=len(doc["vars"]), bound=bound, formula="game"))
    _record_sizes(plan, [len(doc["vars"])])
    return plan


PLANNERS = {
    "finite-large": plan_finite_large,
    "inf-small": plan_inf_small,
    "oracle-check": plan_oracle_check,
}


def make_plan(workload, seed, workdir, smoke_game):
    workdir.mkdir(parents=True, exist_ok=True)
    if smoke_game:
        return plan_smoke(workload, seed, workdir, smoke_game)
    return PLANNERS[workload](seed, workdir)


def check_memory(plan, mem_available):
    need = plan.table_bytes["max_table_bytes"] + plan.table_bytes["max_kernel_bytes"]
    if mem_available and need > MEMORY_FRACTION * mem_available:
        raise SetupError(
            f"{plan.workload}: one op needs about {need / 2**20:.0f} MiB of tables"
            f" and temporaries, over {MEMORY_FRACTION:.0%} of MemAvailable"
            f" ({mem_available / 2**20:.0f} MiB)"
        )


# ---------------------------------------------------------------------------
# Running ops

@dataclass
class Outcome:
    start: float          # perf_counter at the start of the op
    seconds: float
    code: object          # exit code, or None after an exception
    text_hash: str
    error: str = ""


def execute(cli, op):
    """Run one op; return its outcome and its standard output."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(op.argv)
    except Exception as e:  # a raised op is a failed op, not a crashed run
        dt = time.perf_counter() - t0
        return Outcome(t0, dt, None, "", f"{type(e).__name__}: {e}"), ""
    dt = time.perf_counter() - t0
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Outcome(t0, dt, code, digest, err.getvalue().strip()[-500:]), text


class Runner:
    """Runs rounds of a plan and keeps what the output checks need."""

    def __init__(self, emu, plan, tracer=None, clock=None):
        self.emu = emu
        self.plan = plan
        self.tracer = tracer
        self.clock = clock
        self.executions = []        # (op, Outcome)
        self.first_text = {}        # op key -> stdout of its first execution

    def run_round(self, r):
        ops = self.plan.round(r)
        for op in ops:
            if self.tracer is not None:
                self.tracer.op = len(self.executions)
            if self.clock is not None:
                self.clock.maybe_sample()
            outcome, text = execute(self.emu.cli, op)
            self.executions.append((op, outcome))
            self.first_text.setdefault(op.key, text)
        return len(ops)

    def run_rounds(self, rounds):
        """Run ``rounds`` whole rounds; return their executions and wall time."""
        start = len(self.executions)
        t0 = time.perf_counter()
        for r in range(rounds):
            self.run_round(r)
        return self.executions[start:], time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Output checks

def solve_digest(op, code, doc):
    """Digest of a solve result in the canonical labeling of its shape."""
    n = 1 << op.n_vars
    credits = [None] * n
    w_sys = [0] * n
    w_env = [0] * n
    sys_names, env_names = set(doc["w_sys"]), set(doc["w_env"])
    for row in doc["min_credits"]:
        i = op.relabel.canonical_index(games.parse_minterm(row["state"]))
        credits[i] = row["credit"]
        w_sys[i] = int(row["state"] in sys_names)
        w_env[i] = int(row["state"] in env_names)
    blob = json.dumps([doc["effective_bound"], credits, w_sys, w_env, code])
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def check_solve_output(op, code, text):
    """Self-consistency of one solve report; returns (problem or '', doc)."""
    if code not in (0, 1):
        return f"exit code {code}", None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return f"output is not JSON: {e}", None
    n = 1 << op.n_vars
    rows = doc.get("min_credits", [])
    if len(rows) != n:
        return f"{len(rows)} credit rows for {n} states", doc
    eb = doc["effective_bound"]
    if op.bound is None:
        if doc["requested_bound"] != "inf" or not isinstance(eb, int) or eb < 0:
            return "unbounded solve did not report a computed bound", doc
    elif doc["requested_bound"] != op.bound or eb != op.bound:
        return f"bound {eb} reported for requested {op.bound}", doc
    finite = set()
    for row in rows:
        credit = row["credit"]
        if credit != "inf":
            if not 0 <= int(credit) <= eb:
                return f"credit {credit} outside [0, {eb}]", doc
            finite.add(row["state"])
    w_sys, w_env = set(doc["w_sys"]), set(doc["w_env"])
    if w_sys != finite:
        return "W_sys differs from the finite-credit states", doc
    if w_sys & w_env or len(w_sys | w_env) != n:
        return "W_sys and W_env do not partition the states", doc
    if code != (0 if w_sys else 1):
        return f"exit code {code} with {len(w_sys)} winning states", doc
    return "", doc


def oracle_fits(op, eb, n_inputs):
    if op.formula == "parity":
        n_states = 1 << op.n_vars
        return n_states * (1 + (1 << n_inputs)) * (eb + 2) <= ORACLE_MAX_UNFOLDED
    return op.n_vars + max(1, int(eb).bit_length()) <= ORACLE_MAX_REDUCED_VARS


def oracle_check(emu, op, doc):
    """Compare a small solve against an independent oracle; '' if it agrees."""
    game = emu.load_game(op.path)
    eb = doc["effective_bound"]
    if not oracle_fits(op, eb, len(game.vars.inputs)):
        return None
    got = [emu.INF if row["credit"] == "inf" else int(row["credit"])
           for row in doc["min_credits"]]
    if op.formula == "parity":
        # the explicit half of crosscheck_parity, against this op's own output
        want = emu.solve_energy_parity(emu.from_parity_wgs(game), eb)
        want = [want[s] for s in range(game.n_states)]
    else:
        if op.formula == "game":
            formula = game.formula
        else:
            params = {} if op.param is None else {BUILTIN_PARAM[op.formula]: op.param}
            formula = emu.builtin(op.formula, **params)
        if emu.classify_fragment(emu.push_negations(formula)) == "env":
            want = emu.oracle_max_credit_env(game, eb, formula).values.tolist()
        else:
            want = emu.oracle_min_credit_sys(game, eb, formula).values.tolist()
    if [int(v) for v in want] != [int(v) for v in got]:
        return "oracle disagrees with the reported credits"
    return ""


def check_outputs(emu, executions, first_text, digests):
    """Check every execution; returns (failed op count, report)."""
    problems = {}      # op key -> reason
    report = {"oracle_checked": 0, "digest_checked": 0, "digest_missing": 0}
    verdict = {}
    for op, outcome in executions:
        if op.key in verdict:
            continue
        text = first_text.get(op.key, "")
        first_hash = hashlib.sha256(text.encode()).hexdigest() if text else ""
        if op.kind == "check":
            reason = "" if outcome.code == 0 else f"check exit code {outcome.code}"
            digest = hashlib.sha256(f"{outcome.code}\n{text}".encode()).hexdigest()[:20]
        else:
            reason, doc = check_solve_output(op, outcome.code, text)
            digest = solve_digest(op, outcome.code, doc) if not reason else ""
            if not reason:
                try:
                    verdict_oracle = oracle_check(emu, op, doc)
                except emu.EmuError as e:
                    verdict_oracle = f"oracle raised {type(e).__name__}: {e}"
                if verdict_oracle is not None:
                    report["oracle_checked"] += 1
                    reason = verdict_oracle
        if not reason and digests is not None:
            want = digests["ops"].get(op.key, digests["default"])
            if want is None:
                report["digest_missing"] += 1
            else:
                report["digest_checked"] += 1
                if want != digest:
                    reason = f"digest {digest} differs from recorded {want}"
        verdict[op.key] = (reason, first_hash, digest)
        if reason:
            problems[op.key] = reason
    failed = 0
    for op, outcome in executions:
        reason, first_hash, _ = verdict[op.key]
        if outcome.code is None:
            reason = reason or outcome.error
            problems.setdefault(op.key, outcome.error)
        elif not reason and outcome.text_hash != first_hash:
            reason = "output differs between executions of the same op"
            problems.setdefault(op.key, reason)
        failed += bool(reason)
    report["problems"] = dict(list(problems.items())[:20])
    report["digests"] = {k: v[2] for k, v in verdict.items()}
    return failed, report


def load_digests(workload, smoke):
    """Recorded digests of the workload's ops, or None.

    Solve digests are canonical and oracle-check cases do not depend on the
    seed, so the digests recorded at the default seed hold for every seed.
    """
    if smoke or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


# ---------------------------------------------------------------------------
# Metrics

def latency_metrics(times):
    """Median and the highest percentile with at least ten ops beyond it."""
    ts = sorted(times)
    n = len(ts)
    p50 = statistics.median(ts)
    if n > 10:
        tail, pct = ts[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = ts[-1], 100.0
    return p50 * 1e3, tail * 1e3, pct


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, fixpoint_totals, wall_traced, wall_plain, tm_peak):
    calls, incl, self_t = tracer.calls, tracer.incl, tracer.self_time
    c = lambda name: calls.get(name, 0)  # noqa: E731
    s = lambda name: incl.get(name, 0.0)  # noqa: E731
    iterations, fixpoints = fixpoint_totals
    solves = c("solver.solve")
    m = {
        "energy.ecpre.calls": c("energy.ecpre"),
        "energy.ecpre.s": s("energy.ecpre"),
        "energy.ecpre_env.calls": c("energy.ecpre_env"),
        "energy.ecpre_env.s": s("energy.ecpre_env"),
        "energy.kernel_cells": tracer.counts.get("energy.kernel_cells", 0),
        "solver.solve.calls": solves,
        "solver.solve.self_s": self_t.get("solver.solve", 0.0),
        "solver.evals_per_solve": tracer.evals_in_solve / solves if solves else 0,
        "solver.compute_bound.s": s("solver.compute_bound"),
        "energy.eval_energy.calls": c("energy.eval_energy"),
        "energy.eval_energy.self_s": self_t.get("energy.eval_energy", 0.0),
        "energy.iterations": iterations,
        "energy.fixpoints": fixpoints,
        "energy.iter_us": s("energy.eval_energy") / iterations * 1e6 if iterations else 0.0,
        "energy.lattice.s": sum(s(name) for name in LATTICE),
        "tables.build_tables.calls": c("tables.build_tables"),
        "tables.build_tables.s": s("tables.build_tables"),
        "tables.cells": tracer.counts.get("tables.cells", 0),
        "reduction.reduce_game.calls": c("reduction.reduce_game"),
        "reduction.reduce_game.s": s("reduction.reduce_game"),
        "reduction.reduced_cells": tracer.counts.get("reduction.reduced_cells", 0),
        "reduction.oracle.self_s": self_t.get("reduction.oracle_min_credit_sys", 0.0)
        + self_t.get("reduction.oracle_max_credit_env", 0.0),
        "classical.eval_classical.s": s("classical.eval_classical"),
        "classical.cpre_sys.calls": c("classical.cpre_sys"),
        "classical.cpre_sys.s": s("classical.cpre_sys"),
        "classical.cpre_env.calls": c("classical.cpre_env"),
        "classical.cpre_env.s": s("classical.cpre_env"),
        "parity.from_parity_wgs.s": s("parity.from_parity_wgs"),
        "parity.unfold_with_bound.s": s("parity.unfold_with_bound"),
        "parity.solve_parity.s": s("parity.solve_parity"),
        "parity.unfolded_states": tracer.counts.get("parity.unfolded_states", 0),
        "formulas.s": tracer.layer_time.get("formulas", 0.0),
        "gamefile.load_game.s": s("gamefile.load_game"),
        "cli.self_s": self_t.get("cli.run", 0.0),
        "randgen.s": tracer.layer_time.get("randgen", 0.0),
        "trace.overhead_ratio": wall_traced / wall_plain,
        "trace.tracemalloc_peak_mb": tm_peak / 2**20,
    }
    return m


def fixpoint_counts(emu, tracer, op_keys):
    """Iterations and fixpoints of every traced eval_energy call.

    Each call is repeated with ``stats=FixpointStats()`` outside any op span,
    once per distinct (op, call number); repeats of an op reuse the count.
    """
    tracer.active = False
    per_call = {}
    calls_in_op = {}
    iterations = fixpoints = 0
    for op_index, args, kwargs in tracer.energy_calls:
        number = calls_in_op[op_index] = calls_in_op.get(op_index, -1) + 1
        key = (op_keys[op_index], number)
        if key not in per_call:
            stats = emu.FixpointStats()
            emu.energy.eval_energy(*args, **{**kwargs, "stats": stats})
            per_call[key] = (sum(a for a, _ in stats.caps), stats.fixpoints)
        iterations += per_call[key][0]
        fixpoints += per_call[key][1]
    return iterations, fixpoints


# ---------------------------------------------------------------------------
# Environment stamp

def mem_available():
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(emu):
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "emu": getattr(emu, "__version__", None),
        "git_commit": git_commit(),
        "mem_available_bytes": mem_available(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# One workload

def setup_child(workload, seed, work, smoke_game):
    """The set-up a user's process does before its first op: ``import emu``,
    seeded input generation and game files written."""
    load_emu()
    make_plan(workload, seed, Path(work), smoke_game)
    print("ready", flush=True)


def time_setups(args, work, clock, runs):
    """(wall, reference) seconds from process start to first op ready, each
    in a fresh process that imports numpy and emu cold."""
    setups = []
    for i in range(runs):
        child = work / f"setup{i}"
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
                f"run.setup_child({args.workload!r}, {args.seed!r}, {str(child)!r},"
                f" {args.smoke_game!r})")
        clock.sample()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True) as proc:
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate()
        clock.sample()
        shutil.rmtree(child, ignore_errors=True)
        if ready.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up process exited with code {proc.returncode}")
        setups.append((t1 - t0, (t1 - t0) * clock.factor(t0, t1)))
    return setups


def run_workload(args):
    work = args.out / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    smoke = bool(args.smoke_game)
    emu = load_emu()
    plan = make_plan(args.workload, args.seed, work, args.smoke_game)
    first_op_ready = time.perf_counter() - T_PROCESS
    env = environment(emu)
    check_memory(plan, env["mem_available_bytes"])
    digests = load_digests(args.workload, smoke)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "sizes": plan.table_bytes,
        "in_process_start_to_first_op_s": first_op_ready,
        "closed_loop": {"clients": 1, "processes": 1},
    }

    if args.trace:
        metrics, attempted, failed, report = traced_run(emu, plan, digests, work, result)
    else:
        clock = Clock()
        setups = time_setups(args, work, clock, 1 if smoke else SETUP_RUNS)
        runner = Runner(emu, plan, clock=clock)
        rounds = 1 if smoke else ROUNDS[args.workload]
        executions, elapsed = runner.run_rounds(rounds)
        rss = peak_rss_mb()
        clock.sample()
        failed, report = check_outputs(emu, executions, runner.first_text, digests)
        walls = [o.seconds for _, o in executions]
        times = [o.seconds * clock.factor(o.start, o.start + o.seconds)
                 for _, o in executions]
        p50, tail, pct = latency_metrics(times)
        attempted = len(executions)
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "ops_per_s": attempted / sum(times),
            "op_ms_p50": p50,
            "op_ms_tail": tail,
            "peak_rss_mb": rss,
        }
        wall_p50, wall_tail, _ = latency_metrics(walls)
        result.update({
            "setup_runs_s": [wall for wall, _ in setups],
            "rounds": rounds,
            "elapsed_s": elapsed,
            "op_ms_tail_percentile": pct,
            "samples": attempted,
            "fail_ratio": failed / attempted,
            "calibration": clock.summary(),
            "wall": {
                "setup_s": statistics.median(wall for wall, _ in setups),
                "ops_per_s": attempted / elapsed,
                "op_ms_p50": wall_p50,
                "op_ms_tail": wall_tail,
            },
            "op_ms": [[op.key, round(w * 1e3, 4), round(t * 1e3, 4)]
                      for (op, _), w, t in zip(executions, walls, times)],
        })
    result.update({"attempted": attempted, "failed": failed, "checks": report,
                   "metrics": metrics})
    name = "smoke-" if smoke else ""
    path = args.out / f"{name}{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return result


def traced_run(emu, plan, digests, work, result):
    """One round untraced, the same round traced, the same under tracemalloc."""
    import tracemalloc

    if "stats" not in inspect.signature(emu.energy.eval_energy).parameters:
        raise SetupError("eval_energy takes no stats= argument: the traced run"
                         " cannot count iterations and fixpoints")
    plain = Runner(emu, plan)
    t0 = time.perf_counter()
    plain.run_round(0)
    wall_plain = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    traced = Runner(emu, plan, tracer)
    tracer.active = True
    t0 = time.perf_counter()
    traced.run_round(0)
    wall_traced = time.perf_counter() - t0
    tracer.active = False
    totals = fixpoint_counts(emu, tracer, [op.key for op, _ in traced.executions])

    tracemalloc.start()
    mem = Runner(emu, plan)
    mem.run_round(0)
    tm_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracer.uninstall()

    executions = plain.executions + traced.executions + mem.executions
    first = {**mem.first_text, **traced.first_text, **plain.first_text}
    failed, report = check_outputs(emu, executions, first, digests)
    metrics = layer_metrics(tracer, totals, wall_traced, wall_plain, tm_peak)
    spans = work.parent / f"{plan.workload}-seed{plan.seed}-spans.npz"
    tracer.save(spans)
    result.update({
        "spans": tracer.n_spans,
        "spans_file": spans.name,
        "missing_functions": tracer.missing,
        "wall_untraced_s": wall_plain,
        "wall_traced_s": wall_traced,
    })
    return metrics, len(executions), failed, report


# ---------------------------------------------------------------------------
# Digests

def record_digests(args):
    """Run each distinct op once at the default seed and store its digest."""
    emu = load_emu()
    doc = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        work = args.out / f"record-{workload}"
        plan = make_plan(workload, DEFAULT_SEED, work, None)
        runner = Runner(emu, plan)
        runner.run_round(0)
        failed, report = check_outputs(emu, runner.executions, runner.first_text, None)
        if failed:
            raise SystemExit(f"{workload}: {failed} ops failed: {report['problems']}")
        found = report["digests"]
        default = None
        if plan.make_round is not None:
            # check ops that pass all print the same text: store that digest once
            default = max(set(found.values()), key=list(found.values()).count)
        doc[workload] = {
            "default": default,
            "ops": {k: v for k, v in found.items() if v != default},
        }
        print(f"{workload}: {len(report['digests'])} digests,"
              f" {report['oracle_checked']} oracle-checked", file=sys.stderr)
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Reporting

def result_line(result, trace):
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }


def print_table(result, trace):
    w = result["workload"]
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        v = result["metrics"][name]
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{result['op_ms_tail_percentile']:.1f} of {result['samples']} ops)"
        if name == "op_ms_p50":
            note = f"  ({result['samples']} ops)"
        print(f"{w:13s} {name:28s} {v:14.6g} {unit}{note}")
    if not trace:
        print(f"{w:13s} {'fail_ratio':28s} {result['fail_ratio']:14.6g} ratio")
    for key, why in result["checks"]["problems"].items():
        print(f"{w:13s} FAILED {key}: {why}")


def run_all(args):
    """Each workload in its own process, so each has its own peak RSS."""
    combined = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke_game:
            argv += ["--smoke-game", args.smoke_game]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 2
        combined[workload] = json.loads(lines[-1])
    correct = all(r["correct"] for r in combined.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "metrics": {f"{w}.{k}": v for w, r in combined.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload; all of them when omitted")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="accepted and not used: the timed phase is a fixed"
                   " number of whole rounds per workload (ROUNDS)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: one traced round reporting per-layer metrics")
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory for result files and scratch game files")
    p.add_argument("--smoke-game", help="run one op per workload on this game file")
    p.add_argument("--record-digests", action="store_true",
                   help="rewrite digests.json from the default seed")
    return p.parse_args(argv)


def main(argv=None):
    # one BLAS thread, set before numpy is first imported: with the main
    # thread, the process then never runs more threads than nproc
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    args = parse_args(argv)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_digests:
            record_digests(args)
            return 0
        if args.workload is None:
            return run_all(args)
        result = run_workload(args)
    except SetupError as e:
        print(f"setup failed: {e}", file=sys.stderr)
        return 2
    print_table(result, args.trace)
    print(json.dumps(result_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
