"""Symbolic weighted game structures: variables, states, transitions, weights.

A game is played in rounds on truth assignments to a fixed variable set: the
environment first picks values for the input variables (subject to ``rho_e``),
then the system picks values for the output variables (subject to ``rho_s``).
Each system transition carries an integer weight; the energy level of a play
prefix is the initial credit plus the traversed weights, truncated from above
at a bound ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import assertions as asr
from .errors import (
    EmuError,
    MalformedAssertionError,
    PriorityPartitionError,
    StateCapError,
    WeightDomainError,
)
from .energy import LIMIT
from .tables import GameTables, build_tables

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
        if {"true", "false"} & set(self.names):
            raise EmuError("true and false are constants, not variable names")
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

    def value(self, name: str) -> bool:
        return bool((self.index >> self.vars.position(name)) & 1)

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
            if not self.priorities:
                raise PriorityPartitionError("an empty priority list covers no state")
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
