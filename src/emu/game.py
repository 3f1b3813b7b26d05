"""Symbolic weighted game structures: states, transitions, weights, energy levels.

A game is played in rounds on truth assignments to a fixed variable set: the
environment first picks values for the input variables (subject to ``rho_e``),
then the system picks values for the output variables (subject to ``rho_s``).
Each system transition carries an integer weight; the energy level of a play
prefix is the initial credit plus the traversed weights, truncated from above
at a bound ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import assertions as asr
from .errors import (
    EmuError,
    IncompleteWeightCoverError,
    InvalidCreditError,
    MalformedAssertionError,
    MissingNextStateError,
    StateCapError,
    WeightDomainError,
)
from .energy import LIMIT
from .tables import GameTables, _pair_lookup, build_tables

MAX_VARS = 24


@dataclass(frozen=True)
class VariableSet:
    """Ordered game variables with the subset controlled by the environment."""

    names: tuple[str, ...]
    inputs: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        if len(set(self.names)) != len(self.names):
            raise EmuError("variable names must be unique")
        if len(self.names) > MAX_VARS:
            raise StateCapError(
                f"{len(self.names)} variables exceed the cap of {MAX_VARS}"
                f" ({1 << MAX_VARS} enumerated states)"
            )
        unknown = self.inputs - set(self.names)
        if unknown:
            raise EmuError(f"input variables not declared: {sorted(unknown)}")

    @property
    def x_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if n in self.inputs)

    @property
    def y_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if n not in self.inputs)

    @property
    def n_states(self) -> int:
        return 1 << len(self.names)

    def position(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class State:
    """A truth assignment to all game variables, packed into an index.

    Bit ``k`` of ``index`` is the value of ``vars.names[k]``.
    """

    vars: VariableSet
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.vars.n_states:
            raise EmuError(f"state index {self.index} out of range")

    @classmethod
    def of(cls, vs: VariableSet, true_vars) -> "State":
        """The state in which exactly the given variables are true."""
        true_vars = set(true_vars)
        unknown = true_vars - set(vs.names)
        if unknown:
            raise MalformedAssertionError(f"unknown variables: {sorted(unknown)}")
        idx = 0
        for k, name in enumerate(vs.names):
            if name in true_vars:
                idx |= 1 << k
        return cls(vs, idx)

    def value(self, name: str) -> bool:
        return bool((self.index >> self.vars.position(name)) & 1)

    def true_vars(self) -> frozenset[str]:
        return frozenset(n for n in self.vars.names if self.value(n))

    def input_part(self) -> frozenset[str]:
        return frozenset(n for n in self.vars.x_names if self.value(n))

    def output_part(self) -> frozenset[str]:
        return frozenset(n for n in self.vars.y_names if self.value(n))

    def minterm(self) -> str:
        """Render as a conjunction of literals, e.g. ``!x & y``."""
        if not self.vars.names:
            return "true"
        return " & ".join(
            n if self.value(n) else f"!{n}" for n in self.vars.names
        )

    def __repr__(self):
        bits = ", ".join(f"{n}={int(self.value(n))}" for n in self.vars.names)
        return f"State({bits})"


def all_states(vs: VariableSet) -> Iterator[State]:
    for i in range(vs.n_states):
        yield State(vs, i)


@dataclass(frozen=True)
class WeightRule:
    guard: asr.Assertion
    weight: int

    def __post_init__(self):
        if abs(self.weight) > LIMIT:
            raise WeightDomainError(
                f"weight {self.weight} exceeds 2^60 in absolute value"
            )


@dataclass(frozen=True)
class PriorityRule:
    guard: asr.Assertion
    priority: int

    def __post_init__(self):
        if self.priority < 0:
            raise EmuError("priorities must be natural numbers")


@dataclass(frozen=True)
class WeightedGameStructure:
    """A symbolic game with weighted system transitions.

    ``rho_e`` may mention current-state variables and primed input variables;
    ``rho_s`` may mention current-state variables and any primed variables.
    Weight rules apply in order: the first guard satisfied by a transition
    determines its weight, and every ``rho_s`` transition must be covered.
    """

    vars: VariableSet
    rho_e: asr.Assertion
    rho_s: asr.Assertion
    weights: tuple[WeightRule, ...]
    priorities: Optional[tuple[PriorityRule, ...]] = None
    formula: object = None  # closed Formula; kept opaque to avoid an import cycle

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.priorities is not None:
            object.__setattr__(self, "priorities", tuple(self.priorities))
        names = set(self.vars.names)
        primed_ok_e = {(n, True) for n in self.vars.x_names}
        for name, primed in asr.assertion_vars(self.rho_e):
            if (not primed and name in names) or (primed and (name, True) in primed_ok_e):
                continue
            raise MalformedAssertionError(
                f"rho_e may only mention state variables and primed inputs,"
                f" got {name}{chr(39) if primed else ''}"
            )
        for a, what in [(self.rho_s, "rho_s")] + [
            (r.guard, "weight guard") for r in self.weights
        ]:
            for name, primed in asr.assertion_vars(a):
                if name not in names:
                    raise MalformedAssertionError(
                        f"{what} mentions unknown variable {name!r}"
                    )
        for rule in self.priorities or ():
            for name, primed in asr.assertion_vars(rule.guard):
                if primed or name not in names:
                    raise MalformedAssertionError(
                        "priority guards must be pure-state assertions over"
                        f" the game variables, got {name}{chr(39) if primed else ''}"
                    )

    @property
    def n_states(self) -> int:
        return self.vars.n_states

    @property
    def max_abs_weight(self) -> int:
        """Largest absolute weight over the rules (the constant K)."""
        return max((abs(r.weight) for r in self.weights), default=0)

    def tables(self) -> GameTables:
        t = self.__dict__.get("_tables")
        if t is None:
            t = build_tables(self)
            self.__dict__["_tables"] = t
        return t

    def state(self, true_vars) -> State:
        return State.of(self.vars, true_vars)


def eval_assertion(a: asr.Assertion, s: State, s_next: Optional[State] = None) -> bool:
    """Evaluate an assertion on a state and, for primed atoms, a next state."""

    def look(name, primed):
        st = s
        if primed:
            if s_next is None:
                raise MissingNextStateError(
                    f"primed atom {name}' requires a next state"
                )
            st = s_next
        if name not in st.vars.names:
            raise MalformedAssertionError(f"unknown variable {name!r}")
        return st.value(name)

    return asr.eval_bool(a, look)


def is_transition(g: WeightedGameStructure, s: State, t: State) -> bool:
    """Whether t is a successor of s, i.e. the pair satisfies rho_e and rho_s."""
    return eval_assertion(g.rho_e, s, t) and eval_assertion(g.rho_s, s, t)


def successors(g: WeightedGameStructure, s: State) -> set[State]:
    return {t for t in all_states(g.vars) if is_transition(g, s, t)}


def _with_input(g: WeightedGameStructure, s_x: frozenset[str]) -> State:
    """A throwaway next state carrying the given input assignment (outputs false)."""
    return State.of(g.vars, s_x)


def env_choices(g: WeightedGameStructure, s: State) -> set[frozenset[str]]:
    """Valid next-input assignments, each as the set of true input variables."""
    out = set()
    for xi in range(1 << len(g.vars.x_names)):
        s_x = frozenset(n for j, n in enumerate(g.vars.x_names) if (xi >> j) & 1)
        if eval_assertion(g.rho_e, s, _with_input(g, s_x)):
            out.add(s_x)
    return out


def sys_choices(
    g: WeightedGameStructure, s: State, s_x: frozenset[str]
) -> set[frozenset[str]]:
    """Valid next-output assignments for the given input, as sets of true outputs."""
    out = set()
    for yi in range(1 << len(g.vars.y_names)):
        s_y = frozenset(n for j, n in enumerate(g.vars.y_names) if (yi >> j) & 1)
        t = State.of(g.vars, set(s_x) | s_y)
        if eval_assertion(g.rho_s, s, t):
            out.add(s_y)
    return out


def is_env_deadlock(g: WeightedGameStructure, s: State) -> bool:
    return not env_choices(g, s)


def is_sys_deadlock(g: WeightedGameStructure, s: State, s_x: frozenset[str]) -> bool:
    return not sys_choices(g, s, s_x)


def weight(g: WeightedGameStructure, s: State, s_next: State) -> int:
    """Weight of the system transition (s, s_next); first matching rule wins."""
    if not eval_assertion(g.rho_s, s, s_next):
        raise WeightDomainError(
            f"({s!r}, {s_next!r}) is not a system transition"
        )
    for rule in g.weights:
        if eval_assertion(rule.guard, s, s_next):
            return rule.weight
    raise IncompleteWeightCoverError(
        f"no weight rule matches the transition ({s!r}, {s_next!r})"
    )


def lint_weight_rules(g: WeightedGameStructure) -> list[str]:
    """Warnings for weight rules that overlap an earlier rule on some transition.

    Overlaps are legal (the first match wins) but usually unintended.
    """
    t = g.tables()
    look_shape = (t.n_states, t.n_inputs, t.n_outputs)
    matched = np.zeros(look_shape, dtype=bool)
    warnings = []
    look = _pair_lookup(
        t.var_positions, t.x_positions, t.y_positions, t.n_states
    )
    hits = [
        np.broadcast_to(asr.eval_terms(r.guard, look), look_shape)
        for r in g.weights
    ]
    for j, hit in enumerate(hits):
        overlap = hit & matched & t.rho_s
        if overlap.any():
            warnings.append(
                f"weight rule {j} ({asr.assertion_to_str(g.weights[j].guard)!r})"
                " overlaps an earlier rule; first match wins"
            )
        matched |= hit
    return warnings


@dataclass(frozen=True)
class PlayPrefix:
    """A finite play prefix; may end with a dangling input (system deadlock)."""

    states: tuple[State, ...]
    trailing_input: Optional[frozenset[str]] = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise EmuError("a play prefix contains at least one state")

    def is_valid(self, g: WeightedGameStructure) -> bool:
        """Consecution of every step, plus validity of the trailing input."""
        pairs = zip(self.states, self.states[1:])
        if not all(is_transition(g, s, t) for s, t in pairs):
            return False
        if self.trailing_input is not None:
            last = self.states[-1]
            return self.trailing_input in env_choices(g, last)
        return True


def _check_credit(c, c0):
    if not isinstance(c0, (int, np.integer)) or isinstance(c0, bool):
        raise InvalidCreditError("the initial credit must be a finite integer")
    if c0 < 0 or c0 > c:
        raise InvalidCreditError(f"initial credit {c0} outside [0, {c}]")


def energy_level(g: WeightedGameStructure, c, c0: int, prefix: PlayPrefix) -> int:
    """Credit after the prefix: start at c0, add weights, truncate above at c.

    ``c`` may be ``math.inf`` for unbounded accumulation.  The result may be
    negative; the truncation only caps from above.
    """
    _check_credit(c, c0)
    r = c0
    for s, t in zip(prefix.states, prefix.states[1:]):
        r = min(c, r + weight(g, s, t))
    return r


def wins_energy_objective(
    g: WeightedGameStructure, c, c0: int, prefix: PlayPrefix
) -> bool:
    """Whether the running energy level stays non-negative on every prefix."""
    _check_credit(c, c0)
    r = c0
    if r < 0:
        return False
    for s, t in zip(prefix.states, prefix.states[1:]):
        r = min(c, r + weight(g, s, t))
        if r < 0:
            return False
    return True

