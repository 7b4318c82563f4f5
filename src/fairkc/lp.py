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

The fair-assignment LP (Bera et al. 2019) can be built per point or per
class of points.  At radius R, points of one color that admit the same
centers are interchangeable (the type-grouping of Harb & Lam's KFC): any
point-level solution averages over each class to a class-level one, and a
class-level one spreads evenly back over its members.  So both forms have
the same feasibility verdict at every R.  The class form has a few dozen
classes where the point form has hundreds of points, so the radius search
probes it when the point LP fails at the first radius it tries.  Its vertex
differs from the point-level one, though, so the fractional assignment
handed to the rounding always comes from a point-level solve at the radius
found.

Most radii a search probes below its threshold fail for a plain reason: a
center that admits no point of some color can carry almost no mass, and
some point admits only such dead centers.  `dead_centers_reject` checks this
on the admissibility mask, the one `admissible` gives the builder too, and
rejects only radii whose LP the solver rejects.  Its verdict is monotone
in R, so the radius search finds the smallest radius it lets through
without building an LP, and tries the point LP there first.
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
    """The simplex exceeded its iteration cap; reduce the instance."""


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

    @classmethod
    def from_dense(cls, A) -> "SparseRows":
        """The nonzero entries of a 2-d array (NaN counts as nonzero)."""
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("need a 2-d matrix")
        rows, cols = A.nonzero()
        indptr = np.zeros(A.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.count_nonzero(A, axis=1), out=indptr[1:])
        return cls(indptr, cols, A[rows, cols], A.shape[1])

    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple:
        return (len(self), self.num_cols)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.term_rows, self.indices] = self.data
        return dense

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
            raise TypeError("constraints must be SparseRows (see SparseRows.from_dense)")
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
    A, b, is_eq = lp.constraints, lp.rhs, lp.is_eq
    m, n = A.shape
    lo, hi = lp.var_bounds.T
    given = () if start_at_upper is None else start_at_upper
    up = np.unique(np.fromiter(given, dtype=np.intp))  # start at their upper bound
    if up.size and not (0 <= up[0] and up[-1] < n):
        raise ValueError("start_at_upper names a variable outside [0, vars)")

    x0 = lo.copy()
    x0[up] = hi[up]
    if _start_clears(A, b, is_eq, x0):
        return x0  # phase 1 would stop at once, and FEAS_TOL holds

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
    if n_art == 0:
        return x0

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
    # way where a column may move, else 0; fixed columns never enter
    dirn = np.where(col_hi - col_lo > PIV_TOL, way, 0.0)

    def extract():
        x = np.where(way[:n] < 0, hi, lo)
        structural = basis < n
        x[basis[structural]] = xb[structural]
        return _verified(A, b, is_eq, np.clip(x, lo, hi))

    cap = 50 * (n + m)
    stalled = 0  # consecutive degenerate pivots; large runs trip Bland's rule
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(cap):
            obj = float(xb[art].sum())
            if obj <= PIV_TOL:
                return extract()

            score = dirn * cost  # -|d| where a column may enter, else >= -PIV_TOL or NaN
            if stalled > 40:
                c = int((score < -PIV_TOL).argmax())  # Bland: lowest improving index
            else:
                c = int(score.argmin())  # steepest, first on ties
                if math.isnan(score[c]):
                    c = int(np.where(score < -PIV_TOL, np.abs(cost), 0.0).argmax())
            if not score[c] < -PIV_TOL:
                return None if obj > FEAS_TOL else extract()
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

    raise NumericFailure(f"iteration cap {cap} exceeded")


def admissible(dist_S: np.ndarray, R: float) -> np.ndarray:
    """adm[t, j]: the center with distances dist_S[t] admits point j at radius R."""
    return dist_S <= R + 1e-12


def dead_centers_reject(
    dist_S: np.ndarray, colors: np.ndarray, R: float, gfb: GFBounds
) -> bool:
    """True when no assignment at radius R can pass `solve_feasibility`.

    dist_S holds the rows of the distance matrix of the centers S.  A center
    that admits no point of color h has the lower row beta_h * M_i <= 0,
    M_i its mass, so it carries at most FEAS_TOL / beta_h; call it dead.  A
    point (or class) whose admissible centers are all dead puts at least
    (1 - FEAS_TOL) / |S| on one of them by its unit row, and that center's
    row of color h then breaks by more than FEAS_TOL, which the solver's
    residual check refuses, once

        beta_h * (1 - FEAS_TOL) > |S| * FEAS_TOL.

    So only the colors that meet this bound make a center dead; below it the
    verdict is left to the LP.  A point that no center admits is rejected too.
    Both forms of `build_assignment_lp` have these rows (class sizes only
    scale a center's mass up), so at a radius the screen rejects the solver
    can return no solution either, and the screen costs one pass over the
    admissibility mask.  The verdict is monotone in R: admissibility only
    grows with R, so a dead center can only come alive.
    """
    counted = gfb.beta * (1.0 - FEAS_TOL) > len(dist_S) * FEAS_TOL
    adm = admissible(dist_S, R)
    live = np.ones(len(dist_S), dtype=bool)
    for h in np.flatnonzero(counted):
        live &= adm[:, colors == h].any(axis=1)
    return not adm[live].any(axis=0).all()


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
