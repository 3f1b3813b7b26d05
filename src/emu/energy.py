"""Credit-function fixpoint semantics over weighted game structures.

A formula evaluated at bound ``c`` denotes an energy function: for each
state, the minimum initial credit with which the system can enforce the
formula while keeping the running energy level non-negative (credit above
``c`` is clipped).  Values live in [0, c] plus an unattainable marker.

The value order is *reversed*: a smaller credit requirement is a larger
lattice element.  Join is therefore pointwise integer min, meet is pointwise
integer max, the constant-infinity function is the lattice bottom and the
constant-zero function is the top.  Negation maps 0 to infinity, infinity
to 0, and x to c+1-x otherwise, which makes the lattice a De Morgan algebra
and the environment's step operator the dual of the system's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import formulas as fm
from .errors import BoundMismatchError, InvalidCreditError
from .classical import FixpointStats, Lattice, evaluate

# Unattainable-credit marker: larger than any finite credit under int64
# comparisons, with headroom so adding or subtracting a weight cannot wrap.
INF = np.int64(1) << 62
# Largest accepted |weight| and bound.  Below it, e - w, c + 1 + w and
# c + 1 - v stay inside int64, and their finite values stay below INF.
LIMIT = 1 << 60


@dataclass(frozen=True)
class EnergyFunction:
    """A total map from states to credits in [0, bound] or INF."""

    bound: int
    values: np.ndarray  # int64 (n_states,)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        finite = vals[vals != INF]
        if finite.size and (finite.min() < 0 or finite.max() > self.bound):
            raise InvalidCreditError(
                f"values outside [0, {self.bound}] in an energy function"
            )

    @classmethod
    def constant(cls, bound: int, n_states: int, value) -> "EnergyFunction":
        return cls(bound, np.full(n_states, value, dtype=np.int64))

    @classmethod
    def top(cls, bound: int, n_states: int) -> "EnergyFunction":
        """The constant-zero function (no credit needed anywhere)."""
        return cls.constant(bound, n_states, 0)

    @classmethod
    def bottom(cls, bound: int, n_states: int) -> "EnergyFunction":
        """The constant-infinity function (no credit suffices anywhere)."""
        return cls.constant(bound, n_states, INF)

    def __eq__(self, other):
        if not isinstance(other, EnergyFunction):
            return NotImplemented
        return self.bound == other.bound and np.array_equal(self.values, other.values)

    def __getitem__(self, state_index: int):
        return int(self.values[state_index])

    def is_finite(self) -> np.ndarray:
        return self.values != INF


def _same_bound(f: EnergyFunction, g: EnergyFunction):
    if f.bound != g.bound:
        raise BoundMismatchError(
            f"cannot combine energy functions at bounds {f.bound} and {g.bound}"
        )


def join(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Pointwise best case for the system: integer minimum."""
    _same_bound(f, g)
    return EnergyFunction(f.bound, np.minimum(f.values, g.values))


def meet(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Pointwise worst case for the system: integer maximum."""
    _same_bound(f, g)
    return EnergyFunction(f.bound, np.maximum(f.values, g.values))


def leq(f: EnergyFunction, g: EnergyFunction) -> bool:
    """Whether f is below g in the reversed order, i.e. f = meet(f, g)."""
    _same_bound(f, g)
    return bool((f.values >= g.values).all())


def neg(f: EnergyFunction) -> EnergyFunction:
    """Pointwise De Morgan negation: 0 <-> INF, x -> bound+1-x."""
    c = f.bound
    v = f.values
    out = np.where(v == 0, INF, np.where(v == INF, 0, c + 1 - v))
    return EnergyFunction(c, out)


def ecpre(game, c: int, f: EnergyFunction) -> EnergyFunction:
    """One step under the system's control: the credit needed to move into f.

    For each state, the environment picks the worst valid input (integer
    max) and the system answers with the best valid output (integer min).
    A move needs the credit of its target minus its weight, unattainable
    above the bound; a move the system cannot make, or into an unattainable
    target, is unattainable; an input the environment cannot play is free.
    The clip ``INF if v > c else max(v, 0)`` of a need v is monotone, so it
    commutes with min and max and comes last; a dead move (weight DEAD) or
    an INF target needs more than c, and |w|, c <= LIMIT rule out wrapping.
    The kernel and the clip run once per table row; each state then reads
    the value of its row.
    """
    if f.bound != c:
        raise BoundMismatchError(f"function bound {f.bound} differs from c={c}")
    t = game.tables()
    v = (f.values[t.succ] - t.weight).min(axis=2)
    v = np.where(t.rho_e, v, 0).max(axis=1)
    return EnergyFunction(c, np.where(v > c, INF, np.maximum(v, 0))[t.row])


def ecpre_env(game, c: int, f: EnergyFunction) -> EnergyFunction:
    """One step under the environment's control, the De Morgan dual of ecpre:
    the best valid input (integer min) after the system's worst answer (max)."""
    return neg(ecpre(game, c, neg(f)))


def eval_energy(game, c: int, f: fm.Formula, valuation=None,
                stats: FixpointStats | None = None) -> EnergyFunction:
    """The energy function denoted by ``f`` at bound ``c``.

    Atoms map to 0 where they hold and INF elsewhere; disjunction is join,
    conjunction meet, ``<>``/``[]`` the step operators, ``!`` the De Morgan
    negation.  The lattice height, and so each fixpoint's cap, is
    n_states*(c+1).
    """
    if not isinstance(c, (int, np.integer)) or c < 0 or c > LIMIT:
        raise InvalidCreditError(
            f"the bound must be a natural number up to 2^60, got {c!r}")
    c = int(c)
    t = game.tables()
    n = t.n_states
    for name, g in (valuation or {}).items():
        if g.bound != c:
            raise BoundMismatchError(
                f"valuation for {name!r} has bound {g.bound}, expected {c}")

    lat = Lattice(
        atom=lambda mask: EnergyFunction(c, np.where(mask, 0, INF)),
        neg=neg,
        join=join,
        meet=meet,
        pre_sys=lambda g: ecpre(game, c, g),
        pre_env=lambda g: ecpre_env(game, c, g),
        bottom=EnergyFunction.bottom(c, n),
        top=EnergyFunction.top(c, n),
        leq=leq,
        eq=operator.eq,
        height=n * (c + 1),
    )
    return evaluate(lat, t, f, valuation, stats)
