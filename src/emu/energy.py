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
checks its bound and values, ``eval_energy`` its bound and valuation, and
``ecpre`` that its function is over the game's states at the bound it is
given.  Inside, the engine iterates plain int64 arrays: the lattice of
``eval_energy`` has one step operator, the array kernel ``_ecpre``, from which
``classical.evaluate`` derives ``[]``, and ``EnergyFunction`` appears only at
its boundary, so a fixpoint iteration pays for the arithmetic only.  Results
are in range by construction, from checked operands, so they are wrapped with
the unchecked ``EnergyFunction._of``, as are those of the public ``join``,
``meet``, ``neg``, ``ecpre`` and ``ecpre_env``, thin wrappers over the same
array functions.  Every value array handed out is read-only.
"""

from __future__ import annotations

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
        if vals.ndim != 1 or vals.size and vals.dtype.kind not in "iu":  # bool, float
            raise InvalidCreditError("credits must be a one-dimensional integer"
                                     f" array, got {vals.dtype} of shape {vals.shape}")
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


def _check_over(f: EnergyFunction, c, n, what):
    """Raise unless f has bound c and one value for each of n states."""
    if f.bound != c or f.values.shape != (n,):
        raise BoundMismatchError(f"{what} has bound {f.bound} over {f.values.size}"
                                 f" states, expected {c} over {n}")


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
    return _leq(f.values, g.values)


def _leq(a, b) -> bool:
    return bool((a >= b).all())


def neg(f: EnergyFunction) -> EnergyFunction:
    """Pointwise De Morgan negation: 0 <-> INF, x -> bound+1-x (``_neg``)."""
    return EnergyFunction._of(f.bound, _neg(f.bound, f.values))


def _neg(c, x):
    """``neg`` of the values ``x`` at bound c, as a fresh array.

    It is the clip of a need (``ecpre``: INF above c, else max(v, 0))
    applied to v = c+1-x, case by case: 0 maps to c+1, which is above c, so
    to INF; x in [1, c] maps to c+1-x, which stays in [1, c]; INF maps to
    c+1-2^62, which is negative, so to 0.  With c <= 2^60 nothing wraps.
    """
    v = (c + 1) - x
    np.maximum(v, 0, out=v)
    v[v > c] = INF
    return v


def ecpre(game, c: int, f: EnergyFunction) -> EnergyFunction:
    """One step under the system's control: the credit needed to move into f.

    For each state, the environment picks the worst valid input (integer
    max) and the system answers with the best valid output (integer min).
    A move needs the credit of its target minus its weight, unattainable
    above the bound; a move the system cannot make, or into an unattainable
    target, is unattainable; an input the environment cannot play is free.
    The clip of a need v (INF above c, else max(v, 0)) is monotone, so it
    commutes with min and max and comes last; a dead move (weight DEAD) or
    an INF target needs more than c, and |w|, c <= LIMIT rule out wrapping.

    Neither the weight nor ``rho_s`` reads a free output (``tables``), so
    min over y of f(succ) - w is the min over the read outputs of (the min
    over the free outputs of f(succ)) - w: the kernel reduces the gathered
    targets first, subtracts once per (read output, input, row) cell and
    reduces along axis 0 twice.  The max starts at 0, so v >= 0 and the
    clip only maps v > c to INF; each state reads the value of its row.
    """
    t = game.tables()
    _check_over(f, c, t.n_states, "the function")
    return EnergyFunction._of(c, _ecpre(t, c, f.values))


def _ecpre(t, c, x):
    """``ecpre`` of the values ``x`` at bound c over the tables ``t``, as a
    fresh array.  Without free outputs the gathered targets need no min."""
    v = x[t.succ]
    if v.shape[2] > 1:
        v = v.min(axis=2, keepdims=True)
    v = (v - t.weight).min(axis=0).max(axis=0, initial=0, where=t.rho_e)
    v[v > c] = INF
    return v[t.row]


def ecpre_env(game, c: int, f: EnergyFunction) -> EnergyFunction:
    """One step under the environment's control, the De Morgan dual of ecpre:
    the best valid input (integer min) after the system's worst answer (max)."""
    return neg(ecpre(game, c, neg(f)))


def _two_valued(v) -> bool:
    """Whether every value of the array v is 0 or INF."""
    return bool(((v == 0) | (v == INF)).all())


def _root_proven(game, f: fm.Formula, c: int) -> bool:
    """Whether premise (R) of ``_credit_cap_cut`` holds for the outermost
    fixpoint of ``f`` at bound c: ``f`` or ``negate(f)`` is P, the stock
    Buchi formula or the parity formula of the game's priorities, with nu
    outermost, and c >= d(N^2+N-1)K = ``solver.compute_bound(game, P).bound``
    (``formulas.bound_variant`` gives d to both)."""
    n, k = game.n_states, game.max_abs_weight
    per_priority = (n * n + n - 1) * k
    if c < per_priority:  # below every such bound, as d >= 1
        return False
    root = fm.negate(f) if isinstance(f, fm.Mu) else f
    if not isinstance(root, fm.Nu):
        return False
    parity = game.parity_formula()
    if isinstance(parity, fm.Mu):
        parity = None  # P is mu-rooted: a nu root is at most its negation
    variant, d = fm.bound_variant(root, parity)
    return variant != "general" and c >= d * per_priority


def _credit_cap_cut(c: int, cap: int, root_proven: bool):
    """The ``Lattice.cut`` of the energy semantics at bound c, for
    cap = (N-1)K < c on N states with weights up to K in absolute value.

    It cuts two kinds of fixpoint evaluation.  In ``nu X . psi`` values
    above cap become INF, and in its mirror ``mu X . psi'`` values up to
    c-cap become 0:

    (S) a fixpoint that ``formulas.safety_reads`` accepts, its free
        variables counting as atoms, in each evaluation where every free
        variable has a value in {0, INF} (psi over atoms, such variables,
        ``&``, ``|`` and ``<>X``; psi' with ``[]X``);
    (R) the formula's outermost fixpoint, where ``root_proven`` holds
        (``_root_proven``): the formula or its negation is P, the stock
        Buchi formula or the parity formula of the game's priorities, with
        nu outermost, at c >= d(N^2+N-1)K.

    Every other fixpoint evaluation is left alone.

    The game G below is ``parity.from_parity_wgs`` of the game: the N game
    states belong to the environment and move, with weight 0, to the
    positions after an input; from these the system moves, with the
    move's weight, into a game state.  A deadlock of the environment counts
    as a move of weight 0 into a sink with a loop of weight 0 and priority 0.

    Lemma.  Let W be the states of G from which the system wins a parity
    condition with some credit, the energy level not truncated.  Then the
    system has a memoryless strategy sigma on W under which a segment of a
    play from a game state loses at most (N-1)K, and every game state in W
    needs credit at most (N-1)K.
      (a) Good-for-energy strategies (Chatterjee and Doyen, "Energy parity
          games", TCS 2012).  The environment cannot leave W, for the
          system wins nowhere outside it, and the system can stay in it.
          She has a memoryless strategy on W under which every cycle is
          good: its weight is > 0, or it is 0 and the least priority on it
          is even.  Proof: weigh a move from s by M*w + (-1)^p(s) * B^(D-p(s)),
          with B above |W|, D the largest priority and M > |W|*B^D.  A
          simple cycle then weighs > 0 exactly when it is good, and never 0.
          Mean-payoff games have memoryless optimal strategies, and each
          value is the mean of a simple cycle (Ehrenfeucht and Mycielski
          1979).  If the value at some s in W were < 0, the environment's
          optimal strategy would make each cycle reachable from s bad (the
          system would reach a good one and repeat it otherwise).  A play
          from s under it is then a path of at most |W| moves plus simple
          cycles, each of weight <= 0: infinitely many weigh < 0, so the
          level drops below any credit, or from some point all weigh 0 with
          odd least priorities, so the play loses the parity condition.  The
          system would not win from s.  So every value on W is > 0, and her
          optimal strategy sigma makes every cycle good.
      (b) Under sigma no cycle weighs < 0, so a segment of a play loses at
          most what the simple path left once its cycles are erased loses.
          The weighted moves of a simple path from a game state enter
          distinct game states other than its first, so there are at most
          N-1 of them, and it loses at most (N-1)K.  Let e(s) be the largest
          loss of a segment from s under sigma, V the least credits on W and
          T = max V.  From a game state s with credit e(s), the system plays
          sigma until the level reaches T, then a strategy that wins from
          the state reached with credit V there.  Before the switch the
          level is at least e of the current state, so >= 0.  If she never
          switches, only finitely many of the play's cycles weigh > 0, for
          each adds at least 1 to the level, which stays below T; the rest
          weigh 0, so their least priorities are even, and the play wins.
          So V(s) <= e(s) <= (N-1)K.

    Premise (S), for ``nu X . psi``:
      0. The node is the one ``classical.evaluate`` iterates, whose loop-
         invariant subterms are hoisted into variables, so its free
         variables are those of the formula and the hoisted subterms.  None
         of them changes while the fixpoint iterates, and at each state each
         has the value 0 or INF, as an atom does.  So below they are atoms.
         The node's shape is read once, when ``evaluate`` compiles the
         formula, and the cut is decided per evaluation, from their values.
      1. At each state, psi is a lattice polynomial in y = ecpre(X) with the
         constants 0 and INF, so it is 0, INF or y there.  So each round of
         the fixpoint crosses exactly one weighted move: it is the safety
         game on G (every priority 0) that is won at once where psi is 0,
         lost where it is INF, and goes on by one round of ``ecpre``
         elsewhere.
      2. ``ecpre`` at bound c is the step of that game with the level
         truncated at c: a move of weight w from level e needs e + w >= 0
         and goes on at min(e + w, c).  Truncation only takes energy away,
         so credit e that wins under truncation wins without it.
      3. By the Lemma, credit (N-1)K wins under truncation at c > cap too:
         under sigma the level starts at cap or is reset to c, and a segment
         after either loses at most cap.  Every finite value is <= cap.
    Premise (R), for P:
      1. At every c the value of P at a game state is its least credit in G
         (for Buchi with priority 0 on J and 1 elsewhere) with the level
         truncated at c.  This is the source paper's reading of P, which
         ``solver.crosscheck_parity`` checks at every bound; ``negate(P)``
         has the ``neg`` of P's value.
      2. The input count NX is at most N, so G has N' = N(1+NX) <= N^2+N
         states and c >= d(N'-1)K, the sufficient bound of an energy parity
         game (``parity.bound_ep``, after Chatterjee and Doyen): at it,
         truncation changes no least credit.  ``solver.solve`` rests on the
         same premise for ``--bound inf``.
      3. So by the Lemma every finite value of P at c is <= cap.
    Under either premise:
      4. The cut is monotone, moves no element up and fixes the fixpoint's
         value V, whose finite values are <= cap, so the cut iterates
         descend and stay above V; their limit L is a post-fixpoint of psi,
         L <= psi(L), so L <= V by Knaster-Tarski, and L = V.
      5. ``negate`` turns ``nu X . psi`` into the mirror, and ``neg`` is an
         exact lattice anti-isomorphism with ecpre_env = neg o ecpre o neg,
         so the mirror's iterates are the ``neg`` of the nu ones.  ``neg``
         maps (cap, c] onto [1, c-cap] and INF to 0, hence the mirror cut;
         it swaps 0 and INF, so the mirror's free variables pass step 0
         of (S) exactly when the nu ones do.
    """
    def down(v):
        return np.where(v > cap, INF, v)

    def up(v):
        return np.where(v <= c - cap, 0, v)

    def cut(node, root):
        at_cap = down if isinstance(node, fm.Nu) else up
        if root and root_proven:
            return lambda env: at_cap
        free = fm.safety_reads(node)
        if free is None:
            return None
        return lambda env: at_cap if all(
            _two_valued(env[name]) for name in free) else None
    return cut


def eval_energy(game, c: int, f: fm.Formula, valuation=None,
                stats: FixpointStats | None = None) -> EnergyFunction:
    """The energy function denoted by ``f`` at bound ``c``.

    Atoms map to 0 where they hold and INF elsewhere; disjunction is join,
    conjunction meet, ``<>``/``[]`` the step operators, ``!`` the De Morgan
    negation.  The lattice height, and so each fixpoint's cap, is
    n_states*(c+1).

    A fixpoint can climb one unit per iteration.  Where c exceeds
    cap = (N-1)K, two kinds of fixpoint are cut at cap (``_credit_cap_cut``):
    values above cap become INF in a nu, and values up to c-cap become 0 in
    its mirror mu.  One is a fixpoint of the safety fragment or its mirror
    (``formulas.safety_reads``, free variables counting as atoms), in
    each evaluation in which its free variables, the hoisted subterms of
    its body included, take only the values 0 and INF.  So ``safety`` on a
    2-variable game whose moves all weigh -1 ends after cap+2 = 5
    iterations at any c > 3, and so does the inner nu of ``cobuchi`` or of
    a two-priority parity formula while the outer mu's variable is still
    INF.  The other is the outermost fixpoint of the stock Buchi formula or
    the parity formula of the game's priorities, nu outermost, and of their
    negations such as ``dual-buchi``, at any c at or above their sufficient
    bound (``_root_proven``).  On the game above, ``buchi`` and
    ``dual-buchi`` then end after 18 applications at any such bound, 2^60
    included; uncut, ``buchi`` runs 4c+3.  Other fixpoints still climb with
    c, so a large c is slow there.
    """
    _check_bound(c)
    c = int(c)
    t = game.tables()
    n = t.n_states
    cap = (n - 1) * game.max_abs_weight
    env = {}
    for name, g in (valuation or {}).items():
        _check_over(g, c, n, f"valuation for {name!r}")
        env[name] = g.values

    lat = Lattice(
        atom=lambda mask: np.where(mask, 0, INF), neg=lambda v: _neg(c, v),
        join=np.minimum, meet=np.maximum,
        pre_sys=lambda v: _ecpre(t, c, v),
        bottom=np.full(n, INF), top=np.zeros(n, dtype=np.int64),
        leq=_leq, height=n * (c + 1),
        cut=(_credit_cap_cut(c, cap, _root_proven(game, f, c))
             if cap < c else None),
    )
    return EnergyFunction._of(c, evaluate(lat, t, f, env, stats))
