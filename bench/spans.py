"""Span tracing of emu's layers from outside the library.

``Tracer.install`` wraps public functions of the ``emu`` modules in every
``emu`` module namespace that binds them, so calls made through a module
global (``ecpre`` inside ``eval_energy``) and through an import in another
module (``eval_energy`` in ``emu.solver`` and ``emu.cli``) are both seen.
Nothing inside ``src/emu`` changes.  A function that no longer exists is
skipped and reports 0 calls.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory, in flat arrays, until ``save`` writes them out.  A span's self
time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (home module, function) per layer.  The formulas layer also covers the
# assertion parser; ``assertions.eval_terms`` is left out because it is the
# table builder's inner kernel and belongs to the tables layer's time.
LAYERS = {
    "tables": [("tables", "build_tables")],
    "energy": [("energy", f) for f in
               ("eval_energy", "ecpre", "ecpre_env", "join", "meet", "neg", "leq")],
    "classical": [("classical", f) for f in ("eval_classical", "cpre_sys", "cpre_env")],
    "solver": [("solver", f) for f in
               ("solve", "compute_bound", "winning_regions", "crosscheck_parity")],
    "reduction": [("reduction", f) for f in
                  ("reduce_game", "oracle_min_credit_sys", "oracle_max_credit_env")],
    "parity": [("parity", f) for f in
               ("from_parity_wgs", "unfold_with_bound", "solve_parity",
                "solve_energy_parity")],
    "formulas": [("formulas", f) for f in
                 ("parse_formula", "formula_to_str", "builtin", "negate",
                  "push_negations", "metrics", "parity_formula", "require_monotone",
                  "check_monotone", "is_closed", "classify_fragment",
                  "is_buchi_shape")]
                + [("assertions", f) for f in ("parse_assertion", "assertion_to_str")],
    "gamefile": [("gamefile", f) for f in
                 ("load_game", "game_from_dict", "game_to_dict", "save_game",
                  "load_priorities")],
    "cli": [("cli", "run")],
    "randgen": [("randgen", f) for f in ("random_wgs", "random_formula")],
}

LATTICE = ("energy.join", "energy.meet", "energy.neg", "energy.leq")


def _vars_of(game):
    return len(game.vars.names)


def _cells_of_game(args, kwargs, result):
    """N * NX * NY of the game argument: 2^n states times 2^n moves."""
    return 4 ** _vars_of(args[0])


def _reduced_cells(args, kwargs, result):
    """Cells of the reduced game: the bound adds max(1, bitlen(c)) variables."""
    game, c = args[0], args[1]
    return 4 ** (_vars_of(game) + max(1, int(c).bit_length()))


def _unfolded_states(args, kwargs, result):
    g, c = args[0], args[1]
    return g.n_states * (int(c) + 2)


# Counters computed from a call's inputs, so they do not depend on how the
# library lays out its arrays.
COUNTERS = {
    "energy.ecpre": ("energy.kernel_cells", _cells_of_game),
    "energy.ecpre_env": ("energy.kernel_cells", _cells_of_game),
    "tables.build_tables": ("tables.cells", _cells_of_game),
    "reduction.reduce_game": ("reduction.reduced_cells", _reduced_cells),
    "parity.unfold_with_bound": ("parity.unfolded_states", _unfolded_states),
}


class Tracer:
    """Records spans of wrapped emu functions while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.missing: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.layer_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.evals_in_solve = 0
        self.energy_calls: list[tuple] = []   # (op, eval_energy args, kwargs)
        self._stack: list[list] = []          # [span id, name id, t0, child time]
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "emu" or name.startswith("emu.")) and m is not None]
        for layer, funcs in LAYERS.items():
            for home, fname in funcs:
                name = f"{layer}.{fname}"
                original = getattr(sys.modules.get(f"emu.{home}"), fname, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(original, name, layer)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name, layer):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        counter = COUNTERS.get(name)
        is_eval = name == "energy.eval_energy"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if is_eval:
                self.energy_calls.append((self.op, args, kwargs))
                if any(self.names[f[1]] == "solver.solve" for f in self._stack):
                    self.evals_in_solve += 1
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(args, kwargs, result)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------
    def _open(self, nid):
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_t1.append(0.0)
        t0 = time.perf_counter()
        self.span_t0.append(t0)
        self._stack.append([sid, nid, t0, 0.0])

    def _close(self):
        t1 = time.perf_counter()
        sid, nid, t0, child = self._stack.pop()
        self.span_t1[sid] = t1
        dur = t1 - t0
        name = self.names[nid]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.incl[name] = self.incl.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        layer = self.layer_of[nid]
        if self._stack:
            self._stack[-1][3] += dur
        if not self._stack or self.layer_of[self._stack[-1][1]] != layer:
            self.layer_time[layer] = self.layer_time.get(layer, 0.0) + dur

    @property
    def n_spans(self):
        return len(self.span_name)

    def save(self, path):
        """Write the spans as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_t0, dtype=np.float64),
            end=np.frombuffer(self.span_t1, dtype=np.float64),
        )
