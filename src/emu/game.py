"""Symbolic weighted game structures: variables, states, transitions, weights.

A game is played in rounds on truth assignments to a fixed variable set: the
environment first picks values for the input variables (subject to ``rho_e``),
then the system picks values for the output variables (subject to ``rho_s``).
Each system transition carries an integer weight; the energy level of a play
prefix is the initial credit plus the traversed weights, truncated from above
at a bound ``c``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

from . import assertions as asr
from . import formulas as fm
from .errors import (
    EmuError,
    MalformedAssertionError,
    NotAnIntegerError,
    PriorityPartitionError,
    StateCapError,
    WeightDomainError,
)
from .energy import LIMIT
from .tables import GameTables, _state_mask, build_tables

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

    def state_mask(self, a: asr.Assertion):
        """Truth of a pure-state assertion for every state, as a bool (N,)
        array; it needs no tables."""
        positions = {name: k for k, name in enumerate(self.names)}
        return _state_mask(positions, self.n_states, a)


def _integer(value, what) -> int:
    """``value`` as an int; bool, float and every other non-integer are
    refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise NotAnIntegerError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class WeightRule:
    guard: asr.Assertion
    weight: int

    def __post_init__(self):
        object.__setattr__(self, "weight", _integer(self.weight, "a weight"))
        if abs(self.weight) > LIMIT:
            raise WeightDomainError(f"weight {self.weight} exceeds 2^60 in absolute value")


@dataclass(frozen=True)
class PriorityRule:
    guard: asr.Assertion
    priority: int

    def __post_init__(self):
        object.__setattr__(self, "priority", _integer(self.priority, "a priority"))
        if self.priority < 0:
            raise EmuError("priorities must be natural numbers")
        if self.priority >= 1 << 63:  # the tables hold them as int64
            raise EmuError(f"priority {self.priority} does not fit in 64 bits")


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
    formula: Optional[fm.Formula] = None  # closed and monotone
    # What the game reads, recorded by the one walk that checks it: the
    # (name, primed) pairs that rho_e, rho_s and the weight guards mention,
    # and the names that the priority guards mention.
    move_reads: frozenset[tuple[str, bool]] = field(init=False, repr=False, compare=False)
    priority_reads: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.formula is not None:
            if not fm.metrics(self.formula).closed:
                raise EmuError("the winning formula must be closed")
            fm.require_monotone(self.formula)
        if self.priorities is not None:
            object.__setattr__(self, "priorities", tuple(self.priorities))
            if not self.priorities:
                raise PriorityPartitionError("an empty priority list covers no state")
        names = set(self.vars.names)
        moves = asr.assertion_vars(self.rho_e)
        for name, primed in moves:
            if name not in (self.vars.inputs if primed else names):
                raise MalformedAssertionError(
                    f"rho_e may only mention state variables and primed inputs,"
                    f" got {name}{chr(39) if primed else ''}"
                )
        guards = [(self.rho_s, "rho_s"), *((r.guard, "weight guard") for r in self.weights)]
        for a, what in guards:
            for name, primed in asr.assertion_vars(a):
                if name not in names:
                    raise MalformedAssertionError(f"{what} mentions unknown variable {name!r}")
                moves.add((name, primed))
        object.__setattr__(self, "move_reads", frozenset(moves))
        prio = set()
        for rule in self.priorities or ():
            for name, primed in asr.assertion_vars(rule.guard):
                if primed or name not in names:
                    raise MalformedAssertionError(
                        "priority guards must be pure-state assertions over"
                        f" the game variables, got {name}{chr(39) if primed else ''}"
                    )
                prio.add(name)
        object.__setattr__(self, "priority_reads", frozenset(prio))

    @property
    def n_states(self) -> int:
        return self.vars.n_states

    @property
    def max_abs_weight(self) -> int:
        """Largest absolute weight over the rules (the constant K)."""
        return max((abs(r.weight) for r in self.weights), default=0)

    def tables(self) -> GameTables:
        if "_tables" not in self.__dict__:
            self.__dict__["_tables"] = build_tables(self)
        return self.__dict__["_tables"]

    def parity_formula(self):
        """``formulas.parity_formula`` of the priorities, None without them;
        built once, like the tables."""
        if "_parity" not in self.__dict__:
            self.__dict__["_parity"] = (None if self.priorities is None
                                        else fm.parity_formula(self.priorities))
        return self.__dict__["_parity"]
