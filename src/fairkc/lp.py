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

`SparseRows @ x` keeps the bits of the dense product, because `b - A @ x0`
seeds the tableau and a different last bit can change the pivot path.  A
per-term sum rounds differently, so the rows are densified a block at a
time and multiplied by the same BLAS call as the dense matrix.  Blocks
start at multiples of `PRODUCT_ROWS` and never hold fewer rows than that
unless the matrix does: BLAS groups rows in a fixed stride, and numpy
hands a one-row product to its dot kernel.

The solver is a dense bounded-variable primal simplex, phase 1 only (the
problems here carry a dummy zero objective).  Pricing takes the steepest
reduced cost, falling back to Bland's rule after a run of degenerate pivots,
which keeps the pivot sequence deterministic and cycle-free.  Artificial
variables are added only for rows the starting point violates, so callers
that pass a good starting corner (e.g. nearest-center assignments) pay for
few pivots, and a corner that violates no row by more than PIV_TOL is
returned as it is, without building the tableau or a second residual check.

Each pivot's rank-one update touches only the rows with a nonzero in the
entering column.  That is exact: a skipped row would have had a signed zero
subtracted from each entry, which can flip the sign of a zero and nothing
else, and every read of the tableau compares with PIV_TOL or takes an abs.
Flipped zeros can reach the basic values only as ±0 steps, which again can
flip nothing but a zero's sign, and no pivot decision sees that sign.  So
the pivot path is the dense update's, and so is the vertex, byte for byte
unless a lower bound is given as -0.0, which the builder never writes.

The fair-assignment LP (Bera et al. 2019) can be built per point or per
class of points.  At radius R, points of one color that admit the same
centers are interchangeable (the type-grouping of Harb & Lam's KFC): any
point-level solution averages over each class to a class-level one, and a
class-level one spreads evenly back over its members.  So both forms have
the same feasibility verdict at every R, and the class form, which has a
few dozen classes where the point form has hundreds of points, decides the
radius search.  Its vertex differs from the point-level one, though, so the
fractional assignment handed to the rounding comes from one point-level
solve at the radius found.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import FairKCError, GFBounds, Instance

FEAS_TOL = 1e-7
PIV_TOL = 1e-9
PRODUCT_ROWS = 64  # rows densified per block of `SparseRows @ x`


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
        for name, arr in (("indptr", indptr), ("indices", indices), ("data", data)):
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

    def term_rows(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Row of each term of rows lo:hi, counted from lo."""
        bounds = self.indptr[lo : (len(self) if hi is None else hi) + 1]
        lengths = bounds[1:] - bounds[:-1]
        return np.repeat(np.arange(lengths.size), lengths)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.term_rows(), self.indices] = self.data
        return dense

    def __matmul__(self, x) -> np.ndarray:
        """The dense product's bits, a block of rows at a time (see module)."""
        x = np.asarray(x, dtype=np.float64)
        m = len(self)
        starts = list(range(0, max(m - PRODUCT_ROWS, 0) + 1, PRODUCT_ROWS))
        stops = starts[1:] + [m]  # the last block takes the rest
        block = np.zeros((stops[-1] - starts[-1], self.num_cols))
        out = np.empty(m)
        for lo, hi in zip(starts, stops):
            terms = slice(self.indptr[lo], self.indptr[hi])
            at = self.term_rows(lo, hi), self.indices[terms]
            block[at] = self.data[terms]
            out[lo:hi] = block[: hi - lo] @ x
            block[at] = 0.0
        return out


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


_LO, _HI, _BASIC = 0, 1, 2


def _verified(A, b, is_eq, x):
    """x, once every row holds at it within FEAS_TOL."""
    res = A @ x - b
    bad = np.where(is_eq, np.abs(res) > FEAS_TOL, res > FEAS_TOL)
    if np.any(bad):
        raise NumericFailure("solution failed residual verification")
    return x


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
    if m == 0:
        return lo.copy()

    # Columns: structural | one slack per row | artificials for violated rows.
    slack_lo = np.zeros(m)
    slack_hi = np.where(is_eq, 0.0, np.inf)
    x0 = lo.copy()
    x0[up] = hi[up]
    resid = b - A @ x0  # slack value if the slack were basic
    violated = np.where(is_eq, np.abs(resid) > PIV_TOL, resid < -PIV_TOL)
    art_rows = np.flatnonzero(violated)
    n_art = art_rows.size
    if n_art == 0:
        # The start is feasible: phase 1 would stop before a pivot.  No row is
        # off by more than PIV_TOL, so the FEAS_TOL residual check holds.
        return x0
    ncols = n + m + n_art

    T = np.zeros((m, ncols))
    T[A.term_rows(), A.indices] = A.data
    T[:, n : n + m] = np.eye(m)
    art_sign = np.sign(resid[art_rows])
    for t, r in enumerate(art_rows):
        T[r, n + m + t] = art_sign[t]
        T[r, :] *= art_sign[t]  # basis column becomes +1; B^{-1} stays diagonal

    col_lo = np.concatenate([lo, slack_lo, np.zeros(n_art)])
    col_hi = np.concatenate([hi, slack_hi, np.full(n_art, np.inf)])

    pos = np.full(ncols, _LO, dtype=np.int8)
    pos[up] = _HI
    basis = np.empty(m, dtype=int)
    xb = np.empty(m)
    for i in range(m):
        basis[i] = n + i
        xb[i] = resid[i]
    for t, r in enumerate(art_rows):
        pos[n + r] = _LO  # violated slack parks at zero
        basis[r] = n + m + t
        xb[r] = abs(resid[r])
    for i in range(m):
        pos[basis[i]] = _BASIC
    row_lo = col_lo[basis].copy()
    row_hi = col_hi[basis].copy()

    is_art = np.zeros(ncols, dtype=bool)
    is_art[n + m :] = True
    # Fixed vars never enter, nor does an artificial once it has left.
    movable = col_hi - col_lo > PIV_TOL

    # Phase-1 reduced costs: cost 1 on artificials, 0 elsewhere.
    dvec = is_art.astype(float)
    for r in art_rows:
        dvec -= T[r, :]

    def extract():
        x = np.where(pos == _HI, col_hi, col_lo)
        x[basis] = xb
        return _verified(A, b, is_eq, np.clip(x[:n], lo, hi))

    cap = 50 * (n + m)
    stalled = 0  # consecutive degenerate pivots; large runs trip Bland's rule
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(cap):
            obj = float(xb[is_art[basis]].sum())
            if obj <= PIV_TOL:
                return extract()

            cand = movable & (
                ((pos == _LO) & (dvec < -PIV_TOL)) | ((pos == _HI) & (dvec > PIV_TOL))
            )
            if not cand.any():
                return None if obj > FEAS_TOL else extract()
            if stalled > 40:
                j = int(cand.argmax())  # Bland: lowest improving index
            else:
                j = int(np.where(cand, np.abs(dvec), 0.0).argmax())  # steepest, first on ties
            direction = 1.0 if pos[j] == _LO else -1.0

            eff = -direction * T[:, j]  # basic change per unit step
            lim_up = np.where(eff > PIV_TOL, (row_hi - xb) / eff, np.inf)
            lim_dn = np.where(eff < -PIV_TOL, (row_lo - xb) / eff, np.inf)
            limits = np.maximum(np.minimum(lim_up, lim_dn), 0.0)
            t_flip = col_hi[j] - col_lo[j]
            t_star = min(float(limits.min()), t_flip)
            if not np.isfinite(t_star):
                raise NumericFailure("unbounded ray in phase 1")

            stalled = 0 if t_star > 1e-12 else stalled + 1

            blocking = (limits <= t_star + 1e-12).nonzero()[0]
            leave_var = j if t_flip <= t_star + 1e-12 else ncols
            leave_row = -1
            for r in blocking:
                if basis[r] < leave_var:
                    leave_var = int(basis[r])
                    leave_row = int(r)

            xb += eff * t_star
            if leave_var == j or leave_row < 0:
                pos[j] = _HI if pos[j] == _LO else _LO
                continue

            r = leave_row
            piv = T[r, j]
            if abs(piv) <= PIV_TOL:
                raise NumericFailure("numerically singular pivot")
            enter_val = (col_lo[j] + t_star) if direction > 0 else (col_hi[j] - t_star)
            out = leave_var
            pos[out] = _HI if eff[r] > 0 else _LO
            if is_art[out]:
                movable[out] = False
            # Rank-one update of the rows with a nonzero in column j only; the
            # rest would lose a signed zero, which no read of T can tell apart.
            rowvals = T[r, :] / piv
            rows = T[:, j].nonzero()[0]
            T[rows] -= np.outer(T[rows, j], rowvals)
            T[r, :] = rowvals
            dvec -= dvec[j] * rowvals
            basis[r] = j
            pos[j] = _BASIC
            xb[r] = enter_val
            row_lo[r] = col_lo[j]
            row_hi[r] = col_hi[j]

    raise NumericFailure(f"iteration cap {cap} exceeded")


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

    adm = inst.dist[S] <= R + 1e-12  # adm[t, j]: center S[t] admits point j
    empty = np.flatnonzero(~adm.any(axis=0))
    if empty.size:
        raise EmptyRow(f"point {int(empty[0])} has no center within radius {R}")
    if aggregate:
        key = np.vstack([inst.colors, np.packbits(adm, axis=0)]).T
        _, first, size = np.unique(key, axis=0, return_index=True, return_counts=True)
        order = np.argsort(first)
        reps, size = first[order], size[order]
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
