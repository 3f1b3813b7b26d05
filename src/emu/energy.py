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

Values that enter from outside the engine are checked: ``EnergyFunction(...)``
checks its bound and its values, ``eval_energy`` its bound and valuation, and
``ecpre`` that its function has the bound it is given.  Results the engine
builds itself (atoms, ``join``, ``meet``, ``neg``, ``ecpre``, ``ecpre_env``)
are in range by construction, from checked operands, so they are made with
the unchecked ``EnergyFunction._of``; a fixpoint iteration therefore pays
for the arithmetic only.  Every value array is read-only either way.
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


def _check_bound(c):
    """Raise unless c is a natural number up to LIMIT; bool, numpy bool and
    float are refused though they compare like numbers."""
    if (not isinstance(c, (int, np.integer)) or isinstance(c, bool)
            or not 0 <= c <= LIMIT):
        raise InvalidCreditError(
            f"the bound must be a natural number up to 2^60, got {c!r}")


@dataclass(frozen=True)
class EnergyFunction:
    """A total map from states to credits in [0, bound] or INF."""

    bound: int
    values: np.ndarray  # int64 (n_states,)

    def __post_init__(self):
        _check_bound(self.bound)
        vals = np.asarray(self.values)
        if vals.size and vals.dtype.kind not in "iu":  # bool, float, beyond int64
            raise InvalidCreditError(f"credits must be integers, got {vals.dtype}")
        vals = vals.astype(np.int64, copy=False)  # uint64 >= 2^63 turns negative
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        finite = vals[vals != INF]
        if finite.size and (finite.min() < 0 or finite.max() > self.bound):
            raise InvalidCreditError(
                f"values outside [0, {self.bound}] in an energy function"
            )

    @classmethod
    def _of(cls, bound: int, values: np.ndarray) -> "EnergyFunction":
        """An engine result: int64 ``values`` in range by construction, so
        unchecked.  ``values`` becomes read-only; the caller must own it."""
        values.setflags(write=False)
        f = object.__new__(cls)
        object.__setattr__(f, "bound", bound)
        object.__setattr__(f, "values", values)
        return f

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
        a, b = self.values, other.values
        return (self.bound == other.bound and a.shape == b.shape
                and bool((a == b).all()))

    def __getitem__(self, state_index: int):
        return int(self.values[state_index])

    def is_finite(self) -> np.ndarray:
        return self.values != INF


def _same_bound(f: EnergyFunction, g: EnergyFunction):
    if f.bound != g.bound or f.values.shape != g.values.shape:
        raise BoundMismatchError(
            f"cannot combine energy functions at bounds {f.bound} and {g.bound},"
            f" over {len(f.values)} and {len(g.values)} states")


def join(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Pointwise best case for the system: integer minimum."""
    _same_bound(f, g)
    return EnergyFunction._of(f.bound, np.minimum(f.values, g.values))


def meet(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Pointwise worst case for the system: integer maximum."""
    _same_bound(f, g)
    return EnergyFunction._of(f.bound, np.maximum(f.values, g.values))


def leq(f: EnergyFunction, g: EnergyFunction) -> bool:
    """Whether f is below g in the reversed order, i.e. f = meet(f, g)."""
    _same_bound(f, g)
    return bool((f.values >= g.values).all())


def _clip(c: int, v: np.ndarray) -> np.ndarray:
    """The credit of a need v at bound c: INF above c, else max(v, 0)."""
    return np.where(v > c, INF, np.maximum(v, 0))


def neg(f: EnergyFunction) -> EnergyFunction:
    """Pointwise De Morgan negation: 0 <-> INF, x -> bound+1-x.

    It is the clip of ``ecpre`` applied to c+1-v, case by case: 0 maps to
    c+1, which is above c, so to INF; x in [1, c] maps to c+1-x, which stays
    in [1, c]; INF maps to c+1-2^62, which is negative, so to 0.  With
    c <= 2^60 nothing wraps.
    """
    c = f.bound
    return EnergyFunction._of(c, _clip(c, (c + 1) - f.values))


def ecpre(game, c: int, f: EnergyFunction) -> EnergyFunction:
    """One step under the system's control: the credit needed to move into f.

    For each state, the environment picks the worst valid input (integer
    max) and the system answers with the best valid output (integer min).
    A move needs the credit of its target minus its weight, unattainable
    above the bound; a move the system cannot make, or into an unattainable
    target, is unattainable; an input the environment cannot play is free.
    The clip of a need v (``_clip``: INF above c, else max(v, 0)) is
    monotone, so it commutes with min and max and comes last; a dead move
    (weight DEAD) or an INF target needs more than c, and |w|, c <= LIMIT
    rule out wrapping.
    The kernel and the clip run once per table row; each state then reads
    the value of its row.
    """
    if f.bound != c:
        raise BoundMismatchError(f"function bound {f.bound} differs from c={c}")
    t = game.tables()
    v = (f.values[t.succ] - t.weight).min(axis=2)
    v = v.max(axis=1, initial=0, where=t.rho_e)
    return EnergyFunction._of(c, _clip(c, v)[t.row])


def ecpre_env(game, c: int, f: EnergyFunction) -> EnergyFunction:
    """One step under the environment's control, the De Morgan dual of ecpre:
    the best valid input (integer min) after the system's worst answer (max)."""
    return neg(ecpre(game, c, neg(f)))


def _two_valued(f: EnergyFunction) -> bool:
    """Whether every value of f is 0 or INF."""
    v = f.values
    return bool(((v == 0) | (v == INF)).all())


def _credit_cap_cut(c: int, cap: int):
    """The ``Lattice.cut`` of the energy semantics at bound c, for
    cap = (N-1)K < c on N states with weights up to K in absolute value.

    It cuts the fixpoints that ``formulas.is_safety_shape`` accepts when
    their free variables count as atoms, in each evaluation where every
    free variable has a value in {0, INF}: in ``nu X . psi`` (psi over
    atoms, such variables, ``&``, ``|`` and ``<>X``) values above cap become
    INF, and in the mirror ``mu X . psi'`` (``[]X``) values up to c-cap
    become 0.  Every other fixpoint evaluation is left alone.

    Why this is sound, for ``nu X . psi``:

    0. The node is the one ``classical.evaluate`` iterates, whose loop-
       invariant subterms are hoisted into variables, so its free variables
       are those of the formula and the hoisted subterms.  None of them
       changes while the fixpoint iterates, and at each state each has the
       value 0 or INF, as an atom does.  So below they are atoms, and the
       cut is decided per evaluation, from their values.
    1. At each state, psi is a lattice polynomial in y = ecpre(X) with the
       constants 0 and INF, so it is 0, INF or y there.  So each round of
       the fixpoint crosses exactly one weighted move: it is the game that
       is won at once where psi is 0, lost where it is INF, and goes on by
       one round of ``ecpre`` elsewhere.
    2. ``ecpre`` at bound c is the step of the energy game whose level is
       truncated at c: a move of weight w from level e needs e + w >= 0 and
       goes on at min(e + w, c).  Truncation only takes energy away, so
       credit e that wins under truncation wins without it.
    3. Without truncation the system has a memoryless strategy that wins
       from every winning state, and every cycle of the game graph under
       it has non-negative weight; otherwise the environment would repeat
       a negative one.
    4. Under it, any segment of a play is a simple path plus such cycles.
       The path's weighted moves enter distinct states other than its
       first, so there are at most N-1 of them, and the segment loses at
       most (N-1)K.  So credit (N-1)K wins under truncation at c >= cap
       too: the level starts at cap or is reset to c, and a segment after
       either loses at most cap.  Every finite value is therefore <= cap.
    5. The cut is monotone, moves no element up and fixes the fixpoint's
       value V, so the cut iterates descend and stay above V; their limit
       L is a post-fixpoint of psi, L <= psi(L), so L <= V by
       Knaster-Tarski, and L = V.
    6. ``negate`` turns ``nu X . psi`` into the mirror, and ``neg`` is an
       exact lattice anti-isomorphism with ecpre_env = neg o ecpre o neg, so
       the mirror's iterates are the ``neg`` of the safety ones.  ``neg``
       maps (cap, c] onto [1, c-cap] and INF to 0, hence the mirror cut;
       it swaps 0 and INF, so the mirror's free variables pass step 0
       exactly when the safety ones do.
    """
    def down(f):
        return EnergyFunction._of(c, np.where(f.values > cap, INF, f.values))

    def up(f):
        return EnergyFunction._of(c, np.where(f.values <= c - cap, 0, f.values))

    def cut(node):
        free = fm.free_variables(node)
        if not fm.is_safety_shape(node, atoms=free):
            return None
        clip = down if isinstance(node, fm.Nu) else up
        # an unbound variable gets no cut; evaluating the body then raises
        return lambda env: clip if all(
            name in env and _two_valued(env[name]) for name in free) else None
    return cut


def eval_energy(game, c: int, f: fm.Formula, valuation=None,
                stats: FixpointStats | None = None) -> EnergyFunction:
    """The energy function denoted by ``f`` at bound ``c``.

    Atoms map to 0 where they hold and INF elsewhere; disjunction is join,
    conjunction meet, ``<>``/``[]`` the step operators, ``!`` the De Morgan
    negation.  The lattice height, and so each fixpoint's cap, is
    n_states*(c+1).

    A fixpoint can climb one unit per iteration.  Where c exceeds
    cap = (N-1)K, a fixpoint of the safety fragment or its mirror
    (``formulas.is_safety_shape``, free variables counting as atoms) is cut
    at cap (``_credit_cap_cut``) in each evaluation in which its free
    variables, the hoisted subterms of its body included, take only the
    values 0 and INF.  So ``safety`` on a 2-variable game whose moves all
    weigh -1 ends after cap+2 = 5 iterations at any c > 3, and so does the
    inner nu of ``cobuchi`` or of a two-priority parity formula while the
    outer mu's variable is still INF.  Other fixpoints still climb with c,
    so a large c is slow there: ``buchi`` on that game runs 4c+3
    iterations, 23 s at c = 10^5 on a 2-core Xeon.
    """
    _check_bound(c)
    c = int(c)
    t = game.tables()
    n = t.n_states
    cap = (n - 1) * game.max_abs_weight
    for name, g in (valuation or {}).items():
        if g.bound != c:
            raise BoundMismatchError(
                f"valuation for {name!r} has bound {g.bound}, expected {c}")

    lat = Lattice(
        atom=lambda mask: EnergyFunction._of(c, np.where(mask, 0, INF)),
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
        cut=_credit_cap_cut(c, cap) if cap < c else None,
    )
    return evaluate(lat, t, f, valuation, stats)
