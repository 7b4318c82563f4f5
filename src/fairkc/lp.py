"""Feasibility LP solver and the fair-assignment LP builder.

A `LinearProgram` stores its constraint matrix as sparse rows
(`SparseRows`: index and value arrays in the compressed-sparse-row layout);
row r reads `constraints[r] @ x <= rhs[r]`, or `=` where `is_eq[r]` is set,
and each variable has a `[lo, hi]` box inside [0, 1].  The fair-assignment
LP puts each variable in 2m + 1 rows, so its point form at n = 2,000 has
some 35,000 terms where a dense matrix holds ten million entries.  The
builder writes only the terms and the finiteness check reads only those;
the solver scatters them into a dense tableau only when the start breaks a
row, and all arrays are read-only.

`SparseRows @ x` sums each row's terms in column order, which can round
differently from the dense (BLAS) product.  Those bits matter only in
`b - A @ x0` as the tableau's seed, where a last bit can change the pivot
path.  So the solver screens its start with the per-term residual, within
a bound that covers any summation order and the subtraction from b, and
takes the dense product's residual only when some row may be broken.

The solver is a dense bounded-variable primal simplex, phase 1 only (the
problems here carry a dummy zero objective).  Pricing takes the steepest
reduced cost, falling back to Bland's rule after a run of degenerate pivots,
which keeps the pivot sequence deterministic and cycle-free.  Artificial
variables are added only for rows the starting point violates, so callers
that pass a good starting corner (e.g. nearest-center assignments) pay for
few pivots, and a corner that violates no row by more than PIV_TOL is
returned as it is, without building the tableau or a second residual check.

Columns have ids: the structural ones, one slack per row, then one
artificial per violated row.  A column's state is one number, `way`: +1 at
its lower bound, -1 at its upper one, 0 while basic.  A nonbasic column
moves by way * t, so it may enter where way * d < -PIV_TOL, d its reduced
cost.  One ratio test bounds each basic value by the bound its step heads
for.  Among the basic columns that block within 1e-12 of the step, and the
entering one if its own bound does, the lowest id leaves; the entering one
leaving is a bound flip.

The tableau `T` stores only the columns that can enter: the structural
ones, at positions 0..n-1, then the slacks of the '<=' rows; `cid` maps a
stored column to its id.  An '=' row's slack is fixed at 0, and an
artificial starts basic and never enters again once it leaves, so no pivot
enters either kind.  A pivot reads the entering column, the pivot row and
their own entries of the reduced costs; a column that never enters feeds
only its own entries, so it is write-only, and dropping it changes no other
bit.  `T[:m, :n]` is then the dense A, and the seed is `b - T[:m, :n] @ x0`,
taken before the slacks are written.  Row m of T holds the reduced costs:
their update `d -= d[j] * rowvals` is the product and subtraction that each
tableau row gets, and d[j] is nonzero for an entering column, so one
rank-one update pivots both with the same bits.

Pricing is one product and one reduction.  `dirn` is `way` where a column
may move (its box is wider than PIV_TOL) and 0 elsewhere, so `dirn * d` is
-|d| at each candidate and at least -PIV_TOL, or NaN, elsewhere.  Its first
minimum is the steepest candidate, the lowest id among equals, and Bland's
rule takes its first entry below -PIV_TOL; a NaN minimum falls back to the
largest |d| among the candidates.  Per-row arrays hold what the ratio test
and the objective read: `blo` and `bhi` the bounds of each row's basic
column, and `art` the rows whose basic column is artificial, so the phase-1
objective sums the values a sum over the basic artificials would, in the
same order.

Each pivot's rank-one update touches only the rows with a nonzero in the
entering column, the cost row always among them.  That is exact: a skipped
row would have had a signed zero subtracted from each entry, which can flip
the sign of a zero and nothing else, and every read of the tableau compares
with PIV_TOL or takes an abs.  Flipped zeros can reach the basic values only
as ±0 steps, which again can flip nothing but a zero's sign, and no pivot
decision sees that sign.  So the pivot path is the dense update's, and so
is the vertex, byte for byte unless a lower bound is given as -0.0, which
the builder never writes.

The loop runs in `_phase1`, a generator that yields each time phase 1
stops.  `solve_feasibility` takes its first stop.  `first_feasible_step`
walks one tableau upward instead: some structural columns start frozen,
with `dirn` 0 at their lower bound, and each time phase 1 stops above
FEAS_TOL the next step's columns are admitted and pivoting goes on.  With a
zero lower bound a frozen column is the same as an absent one.  It is
stored in T like any other, so every pivot keeps its reduced cost current.
Admitting columns changes no basic value and no row, so the basis is still
a phase-1 start, and going on from it reaches the phase-1 optimum of the larger
program, as a fresh solve would in exact arithmetic.  The radius search
walks the point LP this way: the LP built at a larger radius holds the
pairs of every smaller one, and every center admits itself, so it has the
same rows at every radius from the covering one up.

The fair-assignment LP (Bera et al. 2019) can be built per point or per
class of points.  At radius R, points of one color that admit the same
centers are interchangeable (the type-grouping of Harb & Lam's KFC): any
point-level solution averages over each class to a class-level one, and a
class-level one spreads evenly back over its members.  So both forms have
the same feasibility verdict at every R, and the class form serves the
tests as a reference for the radius search.

Most radii a search probes below its threshold fail for a plain reason: a
center that admits no point of some color can carry almost no mass, and
some point admits only such dead centers.  `dead_center_radius` gives in
closed form the smallest R at which every point admits a live center; below
it the solver rejects every LP, so the radius search tries the point LP
there first without building an LP to find it.

A second screen, `forced_mass_rejects`, bounds the mass each center can
carry.  A point that admits one center alone puts at least 1 - FEAS_TOL on
it, and a center carries at most the points it admits; each color's rows
tie these color masses to the center's mass within FEAS_TOL.  Summing the
rows over a set of colors bounds the mass from below and from above, and a
center whose least mass exceeds its largest rejects R.  Every bound holds at
any point the solver returns, so the screen too rejects only radii whose LP
the solver rejects, and as R grows the forced points only become fewer and
the admitted ones more, so its verdict is monotone.  It runs only where
every color meets the dead-center bound: near delta = 1 the simplex's own
verdicts are fragile, and a screen there would change them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import FairKCError, GFBounds, Instance

FEAS_TOL = 1e-7
PIV_TOL = 1e-9


class NumericFailure(FairKCError):
    """The simplex could not settle a verdict in floating point.

    Raised when phase 1 exceeds its iteration cap, meets an unbounded ray or
    a singular pivot, or returns a point that fails the residual check; and
    by the radius search when the point LP rejects the radius the walk
    accepted, or the walk finds no radius although the largest one is
    feasible.
    """


class EmptyRow(FairKCError):
    """Some point has no admissible center within the given radius."""


@dataclass(frozen=True, eq=False)
class SparseRows:
    """A (rows, cols) float64 matrix as compressed sparse rows.

    Row r holds data[indptr[r]:indptr[r + 1]] in the columns
    indices[indptr[r]:indptr[r + 1]], which strictly increase; every other
    entry is zero.
    """

    indptr: np.ndarray   # (rows + 1,): row r's terms are indptr[r]:indptr[r + 1]
    indices: np.ndarray  # (terms,): column of each term
    data: np.ndarray     # (terms,): value of each term
    num_cols: int
    term_rows: np.ndarray = field(init=False, repr=False)  # (terms,): row of each term

    def __post_init__(self):
        indptr = np.asarray(self.indptr, dtype=np.intp)
        indices = np.asarray(self.indices, dtype=np.intp)
        data = np.asarray(self.data, dtype=np.float64)
        num_cols = operator.index(self.num_cols)
        if not (
            indptr.ndim == indices.ndim == data.ndim == 1
            and indptr.size >= 1
            and indices.shape == data.shape
            and num_cols >= 0
        ):
            raise ValueError("need indptr (rows + 1,), indices and data (terms,), num_cols >= 0")
        if indptr[0] != 0 or indptr[-1] != data.size or (indptr[1:] < indptr[:-1]).any():
            raise ValueError("indptr must rise from 0 to the number of terms")
        if indices.size:
            if indices.min() < 0 or indices.max() >= num_cols:
                raise ValueError("column index out of range")
            steps = indices[1:] - indices[:-1]
            edges = indptr[1:-1]
            steps[edges[(edges > 0) & (edges < indices.size)] - 1] = 1  # a new row may start lower
            if (steps <= 0).any():
                raise ValueError("columns must strictly increase within a row")
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        for name, arr in (
            ("indptr", indptr), ("indices", indices), ("data", data), ("term_rows", rows)
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "num_cols", num_cols)

    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple:
        return (len(self), self.num_cols)

    def __matmul__(self, x) -> np.ndarray:
        """Each row's terms summed in column order (see module)."""
        x = np.asarray(x, dtype=np.float64)
        return np.bincount(self.term_rows, self.data * x[self.indices], minlength=len(self))


@dataclass(frozen=True, eq=False)
class LinearProgram:
    constraints: SparseRows  # (rows, vars): row r is constraints[r] @ x <= rhs[r]
    rhs: np.ndarray          # (rows,)
    is_eq: np.ndarray        # (rows,) bool: row r holds with '=' instead
    var_bounds: np.ndarray   # (vars, 2): lo, hi with 0 <= lo <= hi <= 1

    def __post_init__(self):
        A = self.constraints
        if not isinstance(A, SparseRows):
            raise TypeError("constraints must be SparseRows")
        b = np.asarray(self.rhs, dtype=np.float64)
        is_eq = np.asarray(self.is_eq, dtype=bool)
        bounds = np.asarray(self.var_bounds, dtype=np.float64)
        if not (b.shape == is_eq.shape == (len(A),) and bounds.shape == (A.num_cols, 2)):
            raise ValueError("need rhs and is_eq (rows,), var_bounds (vars, 2)")
        if not np.isfinite(A.data).all():
            raise ValueError("non-finite coefficient")
        if not np.isfinite(b).all():
            raise ValueError("non-finite right-hand side")
        lo, hi = bounds.T
        if not np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0)):
            raise ValueError("variable bounds must satisfy 0 <= lo <= hi <= 1")
        for name, arr in {"rhs": b, "is_eq": is_eq, "var_bounds": bounds}.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_vars(self) -> int:
        return self.constraints.num_cols


def _verified(A, b, is_eq, x):
    """x, once every row holds at it within FEAS_TOL."""
    res = A @ x - b
    bad = np.where(is_eq, np.abs(res) > FEAS_TOL, res > FEAS_TOL)
    if np.any(bad):
        raise NumericFailure("solution failed residual verification")
    return x


def _start_clears(A, b, is_eq, x0):
    """True when no rounding of `A @ x0` can break a row by more than PIV_TOL.

    The per-term residual is compared with PIV_TOL less `err`, a bound on its
    distance from the residual of any other summation order, the dense
    product's included.  With u = eps / 2, a sum of k products p_i computed
    in any order, with fused multiply-adds or not, is within k u / (1 - k u)
    * sum |p_i| of the exact sum (adding an exact zero rounds nothing), and
    the subtraction from b rounds by at most u |b - sum|.  So two residuals
    differ by at most (k + 1) eps sum |p_i| + eps |b| to first order.  The
    rest of err = (k + 2) eps (sum |t_i| + |b|), t_i the computed terms,
    covers higher orders and the rounding of err and of the comparisons, as
    a residual near PIV_TOL needs sum |t_i| + |b| of about PIV_TOL.

    A row the per-term residual itself breaks by more than PIV_TOL is broken
    within any err >= 0, so such a start is turned down before err is built.
    """
    rows = A.term_rows
    terms = A.data * x0[A.indices]
    resid = b - np.bincount(rows, terms, minlength=len(A))
    if np.where(is_eq, np.abs(resid) > PIV_TOL, resid < -PIV_TOL).any():
        return False
    size = np.bincount(rows, np.abs(terms), minlength=len(A)) + np.abs(b)
    err = (np.diff(A.indptr) + 2) * np.finfo(float).eps * size
    broken = np.where(is_eq, np.abs(resid) > PIV_TOL - err, resid < -PIV_TOL + err)
    return not broken.any()


def solve_feasibility(
    lp: LinearProgram, start_at_upper: Optional[Iterable[int]] = None
) -> Optional[np.ndarray]:
    """Find a point satisfying every constraint within 1e-7, or None.

    start_at_upper optionally lists variables whose initial nonbasic value is
    the upper bound instead of the lower one; it changes only the pivot path,
    never the feasible/infeasible verdict, and neither its order nor a
    repeated index matters.  An index outside [0, vars) is a ValueError.
    Deterministic for fixed input.
    """
    x0, up = _start_corner(lp, start_at_upper)
    A, b, is_eq = lp.constraints, lp.rhs, lp.is_eq
    if _start_clears(A, b, is_eq, x0):
        return x0  # phase 1 would stop at once, and FEAS_TOL holds
    x = next(_phase1(lp, x0, up, np.zeros(lp.num_vars, dtype=bool)))
    return None if x is None else _verified(A, b, is_eq, x)


def first_feasible_step(
    lp: LinearProgram, steps, start_at_upper: Optional[Iterable[int]] = None
) -> Optional[int]:
    """The first step whose program phase 1 finds feasible, or None.

    steps[v] >= 0 is the step from which variable v may leave its lower
    bound.  The program of step s is lp with every variable of a later step
    fixed there, so with zero lower bounds it is lp without those variables.
    One tableau walks the steps upward (see module): phase 1 runs from the
    start at step 0, and each time it stops above FEAS_TOL the next step's
    variables are admitted and it goes on from the same basis.  Returns the
    first step at which it stops within FEAS_TOL; its corner is not checked
    against the rows, so the caller solves that program again for a point.
    start_at_upper is as for `solve_feasibility` and may name only step-0
    variables.
    """
    steps = np.asarray(steps, dtype=np.intp)
    if steps.shape != (lp.num_vars,) or (steps < 0).any():
        raise ValueError("need one step >= 0 per variable")
    x0, up = _start_corner(lp, start_at_upper)
    if (steps[up] > 0).any():
        raise ValueError("start_at_upper names a variable of a later step")
    walk = _phase1(lp, x0, up, steps > 0)
    if next(walk) is not None:
        return 0
    for step in np.unique(steps[steps > 0]).tolist():
        if walk.send(np.flatnonzero(steps == step)) is not None:
            return step
    return None


def _start_corner(lp, start_at_upper):
    """The starting corner and its variables at their upper bound."""
    n = lp.num_vars
    lo, hi = lp.var_bounds.T
    given = () if start_at_upper is None else start_at_upper
    up = np.unique(np.fromiter(given, dtype=np.intp))  # start at their upper bound
    if up.size and not (0 <= up[0] and up[-1] < n):
        raise ValueError("start_at_upper names a variable outside [0, vars)")
    x0 = lo.copy()
    x0[up] = hi[up]
    return x0, up


def _phase1(lp, x0, up, frozen):
    """Phase-1 pivots from the corner x0, as a generator (see module).

    Yields each time phase 1 stops: the corner, clipped into the variable
    boxes but not checked against the rows, when the phase-1 objective is
    within FEAS_TOL, else None.  The structural columns where `frozen` is set
    start at their lower bound and never enter; `send(cols)` admits the
    frozen columns cols and pivots on from the same basis.
    """
    A, b, is_eq = lp.constraints, lp.rhs, lp.is_eq
    m, n = A.shape
    lo, hi = lp.var_bounds.T

    # Column ids: structural | one slack per row | artificials for violated
    # rows.  T stores the columns that can enter, structural | slacks of the
    # '<=' rows, and the reduced costs as row m (see module).
    slack_rows = np.flatnonzero(~is_eq)
    cid = np.concatenate([np.arange(n), n + slack_rows])  # id of each stored column
    T = np.zeros((m + 1, cid.size))
    T[A.term_rows, A.indices] = A.data
    # Slack values if the slacks were basic.  They seed T, so they take the
    # dense product's bits (see module).
    resid = b - T[:m, :n] @ x0
    violated = np.where(is_eq, np.abs(resid) > PIV_TOL, resid < -PIV_TOL)
    art_rows = np.flatnonzero(violated)
    n_art = art_rows.size

    T[slack_rows, n + np.arange(slack_rows.size)] = 1.0
    # An artificial row is multiplied by the sign of its residual, so its
    # basis column becomes +1 and B^{-1} stays diagonal.
    T[art_rows] *= np.sign(resid[art_rows])[:, None]
    cost = T[m]  # phase-1 reduced costs: the cost is 1 on artificials only
    for r in art_rows:
        cost -= T[r]

    col_lo = np.concatenate([lo, np.zeros(slack_rows.size)])
    col_hi = np.concatenate([hi, np.full(slack_rows.size, np.inf)])
    nid = n + m + n_art  # above every column id
    spos = np.full(nid, -1)  # stored column of each id, -1 if it is not stored
    spos[cid] = np.arange(cid.size)

    basis = np.arange(n, n + m)
    basis[art_rows] = n + m + np.arange(n_art)  # violated slacks park at zero
    art = violated.copy()  # rows whose basic column is artificial
    blo = np.zeros(m)  # bounds of each row's basic column
    bhi = np.where(is_eq & ~violated, 0.0, np.inf)
    xb = np.where(violated, np.abs(resid), resid)
    way = np.ones(cid.size)  # see module: +1 at lo, -1 at hi, 0 basic
    way[up] = -1.0
    way[n:][~violated[slack_rows]] = 0.0  # basic slacks
    # way where a column may move, else 0; fixed and frozen columns never enter
    dirn = np.where(col_hi - col_lo > PIV_TOL, way, 0.0)
    dirn[:n][frozen] = 0.0

    def corner():
        x = np.where(way[:n] < 0, hi, lo)
        structural = basis < n
        x[basis[structural]] = xb[structural]
        return np.clip(x, lo, hi)

    cap = 50 * (n + m)  # pivots from one stop to the next
    while True:
        stalled = 0  # consecutive degenerate pivots; large runs trip Bland's rule
        # left before each yield, so the caller never runs under it
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(cap):
                obj = float(xb[art].sum())
                if obj <= PIV_TOL:
                    break

                score = dirn * cost  # -|d| where a column may enter, else >= -PIV_TOL or NaN
                if stalled > 40:
                    c = int((score < -PIV_TOL).argmax())  # Bland: lowest improving index
                else:
                    c = int(score.argmin())  # steepest, first on ties
                    if math.isnan(score[c]):
                        c = int(np.where(score < -PIV_TOL, np.abs(cost), 0.0).argmax())
                if not score[c] < -PIV_TOL:
                    break
                j, w = int(cid[c]), way[c]

                eff = T[:m, c] * -w  # basic change per unit step
                bound = np.where(eff > 0, bhi, blo)
                limits = np.where(np.abs(eff) > PIV_TOL, (bound - xb) / eff, np.inf)
                np.maximum(limits, 0.0, out=limits)
                t_flip = col_hi[c] - col_lo[c]
                t_star = min(float(np.minimum.reduce(limits)), t_flip)
                if not math.isfinite(t_star):
                    raise NumericFailure("unbounded ray in phase 1")

                stalled = 0 if t_star > 1e-12 else stalled + 1

                reach = t_star + 1e-12
                leave = np.where(limits <= reach, basis, nid)  # blocking basics
                r = int(leave.argmin())
                xb += eff * t_star
                if leave[r] >= (j if t_flip <= reach else nid):
                    way[c] = dirn[c] = -w  # c reaches its other bound first
                    continue

                piv = T[r, c]
                if abs(piv) <= PIV_TOL:
                    raise NumericFailure("numerically singular pivot")
                enter_val = (col_lo[c] + t_star) if w > 0 else (col_hi[c] - t_star)
                out = spos[basis[r]]
                if out >= 0:  # stored, and movable: a fixed column is never basic
                    way[out] = dirn[out] = -1.0 if eff[r] > 0 else 1.0
                # Rank-one update of the rows with a nonzero in column c only, the
                # cost row among them; the rest would lose a signed zero, which no
                # read of T can tell apart.
                rowvals = T[r] / piv
                rows = T[:, c].nonzero()[0]
                sub = T[rows]
                sub -= np.multiply.outer(sub[:, c], rowvals)
                T[rows] = sub
                T[r] = rowvals
                basis[r] = j
                blo[r], bhi[r] = col_lo[c], col_hi[c]
                art[r] = False
                way[c] = dirn[c] = 0.0
                xb[r] = enter_val
            else:
                raise NumericFailure(f"iteration cap {cap} exceeded")

        cols = yield (corner() if obj <= FEAS_TOL else None)
        # an admitted column still sits at its lower bound, nonbasic
        dirn[cols] = np.where(col_hi[cols] - col_lo[cols] > PIV_TOL, way[cols], 0.0)


def admissible(dist_S: np.ndarray, R: float) -> np.ndarray:
    """adm[t, j]: the center with distances dist_S[t] admits point j at radius R."""
    return dist_S <= R + 1e-12


def dead_center_radius(dist_S: np.ndarray, colors: np.ndarray, gfb: GFBounds) -> float:
    """V such that no assignment at a radius R with V > R + 1e-12 passes `solve_feasibility`.

    dist_S holds the rows of the distance matrix of the centers S.  A center
    that admits no point of color h has the lower row beta_h * M_i <= 0,
    M_i its mass, so it carries at most FEAS_TOL / beta_h; call it dead.  A
    point (or class) whose admissible centers are all dead puts at least
    (1 - FEAS_TOL) / |S| on one of them by its unit row, and that center's
    row of color h then breaks by more than FEAS_TOL, which the solver's
    residual check refuses, once

        beta_h * (1 - FEAS_TOL) > |S| * FEAS_TOL.

    So only the colors that meet this bound make a center dead; below it the
    verdict is left to the LP.  Both forms of `build_assignment_lp` have
    these rows (class sizes only scale a center's mass up), so at a radius
    where some point admits no live center, or no center at all, the solver
    can return no solution either.

    Center t is alive at R when it admits a point of each color that
    counts, that is when L_t <= R + 1e-12, L_t the largest over those colors
    of the distance from t to its nearest point of the color (0 when no
    color counts, inf when a counted color has no point).  Point j has a
    live admissible center when max(L_t, d_tj) <= R + 1e-12 for some t, so
    every point has one exactly when V = max_j min_t max(L_t, d_tj) is
    within R + 1e-12.  Each comparison is one of the admissibility mask's,
    so at every R, V > R + 1e-12 exactly when the mask leaves some point
    without a live center.  That verdict is monotone in R: admissibility
    only grows with R, so a dead center can only come alive.
    """
    counted = gfb.beta * (1.0 - FEAS_TOL) > len(dist_S) * FEAS_TOL
    L = np.zeros(len(dist_S))
    for h in np.flatnonzero(counted):
        np.maximum(L, dist_S[:, colors == h].min(axis=1, initial=np.inf), out=L)
    return float(np.maximum(L[:, None], dist_S).min(axis=0).max())


def forced_mass_rejects(
    dist_S: np.ndarray, colors: np.ndarray, R: float, gfb: GFBounds
) -> bool:
    """True when no assignment at radius R can pass `solve_feasibility`.

    At R, center t admits U[t, h] points of color h, and F[t, h] of them
    admit no other center.  A point the solver returns holds every row
    within eps = FEAS_TOL with each x in [0, 1], so t's mass M and color
    masses M_h meet F_h (1 - eps) <= M_h <= U_h, beta_h M - M_h <= eps and
    M_h - alpha_h M <= eps.  `forced_mass_bounds` sums these over color sets
    into the least and the largest M; R is rejected when, at some center,
    the least exceeds the largest by more than 1e-9 of it, which covers the
    screen's own rounding.  Both forms of `build_assignment_lp` meet the
    same bounds (a class of c points counts c times), and the verdict is
    monotone in R, as F only shrinks and U only grows with R.  A point that
    no center admits is rejected too.

    The screen runs only when every color meets the dead-center bound
    beta_h (1 - eps) > |S| eps (see `dead_center_radius`); otherwise it
    lets every R through and leaves the verdict to the LP.
    """
    if not gfb.beta.min() * (1.0 - FEAS_TOL) > len(dist_S) * FEAS_TOL:
        return False
    adm = admissible(dist_S, R)
    reach = adm.sum(axis=0)  # centers that admit each point
    if not reach.all():
        return True
    onehot = np.equal.outer(colors, np.arange(gfb.m)).astype(float)
    lower, upper = forced_mass_bounds(adm @ onehot, (adm & (reach == 1)) @ onehot, gfb)
    return bool(np.any(lower > upper * (1.0 + 1e-9)))


def forced_mass_bounds(admit: np.ndarray, forced: np.ndarray, gfb: GFBounds):
    """(least, largest) mass per center over the bounds of `forced_mass_rejects`.

    admit[t, h] and forced[t, h] are the counts U and F.  With F' = F (1 -
    eps), summing the rows over a nonempty color set H gives

        M (1 - sum_{h not in H} beta_h)  >= sum_H F'_h - |H^c| eps,
        M (1 - sum_{h not in H} alpha_h) <= sum_H U_h  + |H^c| eps,

    each a bound on M where its coefficient is positive, and one color's
    rows give M >= (F'_h - eps) / alpha_h and M <= (U_h + eps) / beta_h.
    Over the 2^m sets H the largest lower bound is reached on a leading run
    of the colors by decreasing (F'_h + eps) / beta_h, and the smallest
    upper one on a leading run by increasing (U_h - eps) / alpha_h (a
    linear-fractional objective over sets is optimal on a threshold set),
    so only m sets per family are taken.

    The solver checks its rows in floating point.  A row's terms have
    magnitudes summing to at most M, so its sum and its coefficients round
    by a multiple of M, as do the screen's sums of the coefficients; each
    coefficient of M is moved by slack = 4 (m + 1)(W + m + 2) * machine eps,
    W the points the center admits, in the direction that loosens its bound.
    """
    eps, m = FEAS_TOL, gfb.m
    slack = 4 * (m + 1) * np.finfo(float).eps * (admit.sum(axis=1, keepdims=True) + m + 2)
    least = forced * (1.0 - eps)
    rows = np.arange(len(admit))[:, None]

    def leading_runs(gain, cost, sign):
        """Sums of gain and of cost over the leading runs of the colors by sign * gain / cost."""
        order = np.argsort(sign * gain / cost, axis=1)
        return gain[rows, order].cumsum(axis=1), cost[order].cumsum(axis=1)

    top, coef = leading_runs(least + eps, gfb.beta, -1.0)
    coef += 1.0 - gfb.beta.sum() + slack
    lower = np.divide(top - m * eps, coef, out=np.full(coef.shape, -np.inf), where=coef > 0)
    lower = np.maximum(lower.max(axis=1), ((least - eps) / (gfb.alpha + slack)).max(axis=1))

    top, coef = leading_runs(admit - eps, gfb.alpha, 1.0)
    coef += 1.0 - gfb.alpha.sum() - slack
    upper = np.divide(top + m * eps, coef, out=np.full(coef.shape, np.inf), where=coef > 0)
    coef = gfb.beta - slack
    single = np.divide(admit + eps, coef, out=np.full(coef.shape, np.inf), where=coef > 0)
    return lower, np.minimum(upper.min(axis=1), single.min(axis=1))


def group_classes(colors: np.ndarray, adm: np.ndarray):
    """The points of one color that admit the same centers, as (reps, size).

    adm[t, j] says whether center t admits point j.  A class is listed by its
    first member, in increasing order, with its number of points.  A stable
    sort by packed admissibility row and color puts each class in one run,
    led by its first member.
    """
    key = np.vstack([np.packbits(adm, axis=0), colors])
    order = np.lexsort(key)
    key = key[:, order]
    starts = np.flatnonzero(np.r_[True, (key[:, 1:] != key[:, :-1]).any(axis=0)])
    size = np.diff(np.r_[starts, len(colors)])
    reps = order[starts]
    by_first = np.argsort(reps)
    return reps[by_first], size[by_first]


def build_assignment_lp(
    inst: Instance,
    S: Sequence[int],
    R: float,
    gfb: GFBounds,
    aggregate: bool = False,
):
    """Fair-assignment LP over pairs within radius R.

    Variables exist only for pairs with d <= R, which enforces the radius
    restriction structurally.  Returns the program plus the (center, point)
    pair backing each variable, as a (vars, 2) int array.

    The LP ranges over classes of points.  Without `aggregate` every point is
    its own class, which gives the point-level LP of Bera et al.  With it, a
    class holds the points of one color that admit the same centers at R; its
    variable for center i is the share of the class sent to i, its pair is
    (i, first member), and its proportion-row coefficients are scaled by the
    class size.  Columns run center by center, classes in order of their
    first member.  Rows come in one block per center that admits something,
    two '<= 0' rows per color (lower, then upper proportion bound) over that
    center's columns, then one '= 1' unit row per class.

    Raises EmptyRow when some point has no center within R.
    """
    S = [int(i) for i in S]
    if not S:
        raise ValueError("need at least one center")
    if R < 0:
        raise ValueError("radius must be nonnegative")

    adm = admissible(inst.dist[S], R)  # adm[t, j]: center S[t] admits point j
    empty = np.flatnonzero(~adm.any(axis=0))
    if empty.size:
        raise EmptyRow(f"point {int(empty[0])} has no center within radius {R}")
    if aggregate:
        reps, size = group_classes(inst.colors, adm)
    else:
        reps, size = np.arange(inst.n), np.ones(inst.n, dtype=int)
    adm = adm[:, reps]

    # One variable per admissible (center, class), numbered center by center.
    center_of, cls_of = np.nonzero(adm)
    pairs = np.column_stack((np.asarray(S)[center_of], reps[cls_of]))
    color, weight = inst.colors[reps][cls_of], size[cls_of]
    ind = (color == np.arange(gfb.m)[:, None]).astype(float)  # (colors, vars)
    per = 2 * gfb.m  # rows per center: the lower, then the upper row of each color
    coef = np.empty((per, len(pairs)))
    coef[0::2] = weight * (gfb.beta[:, None] - ind)
    coef[1::2] = weight * (ind - gfb.alpha[:, None])

    # A center that admits nothing has vacuous rows and gets no row block.
    # Block b's rows each hold all its center's variables, which are the
    # contiguous columns first[b]:first[b] + width[b].
    active = adm.any(axis=1)
    block = (np.cumsum(active) - 1)[center_of]  # row block of each variable
    width = np.bincount(block)
    first = np.cumsum(width) - width
    n_prop, n_vars = per * width.size, len(pairs)
    cols = np.arange(n_vars)
    indices = np.empty((per + 1) * n_vars, dtype=np.intp)
    data = np.empty(indices.size)
    # term of (row q of block b, variable v): per * first[b] + q * width[b] + v - first[b]
    at = (per - 1) * first[block] + cols + np.arange(per)[:, None] * width[block]
    indices[at], data[at] = cols, coef
    # then each class's unit row, its variables in column order
    indices[per * n_vars :] = np.argsort(cls_of, kind="stable")
    data[per * n_vars :] = 1.0
    lengths = np.concatenate([np.repeat(width, per), np.bincount(cls_of)])
    is_eq = np.arange(lengths.size) >= n_prop
    lp = LinearProgram(
        constraints=SparseRows(
            np.concatenate(([0], np.cumsum(lengths))), indices, data, n_vars
        ),
        rhs=is_eq.astype(float),
        is_eq=is_eq,
        var_bounds=np.tile([0.0, 1.0], (n_vars, 1)),
    )
    return lp, pairs


def nearest_admissible_start(inst: Instance, pairs: np.ndarray) -> np.ndarray:
    """Crash start: each point's nearest admissible center set to 1.

    pairs is the (vars, 2) array of (center, point) from
    `build_assignment_lp`.  The start satisfies every unit-assignment row
    exactly, leaving the simplex to repair only proportion rows.  Ties in
    distance go to the lower center id, and a repeated pair to its first
    variable.  Returns the chosen variables in increasing order.
    """
    centers, points = pairs.T
    # by point, then distance, then center id; stable, so a repeated pair keeps its first
    order = np.lexsort((centers, inst.dist[centers, points], points))
    return np.sort(order[np.flatnonzero(np.diff(points[order], prepend=-1))])
