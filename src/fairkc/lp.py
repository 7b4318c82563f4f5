"""Feasibility LP solver and the fair-assignment LP builder.

A `LinearProgram` is dense: a float64 matrix whose row r reads
`constraints[r] @ x <= rhs[r]`, or `=` where `is_eq[r]` is set, plus one
`[lo, hi]` box inside [0, 1] per variable.  The builder writes that matrix
directly and the solver pivots on it as it is; its arrays are read-only.

The solver is a dense bounded-variable primal simplex, phase 1 only (the
problems here carry a dummy zero objective).  Pricing takes the steepest
reduced cost, falling back to Bland's rule after a run of degenerate pivots,
which keeps the pivot sequence deterministic and cycle-free.  Artificial
variables are added only for rows the starting point violates, so callers
that pass a good starting corner (e.g. nearest-center assignments) pay for
few pivots, and a corner that violates no row is returned after the residual
check, without building the tableau.

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

from dataclasses import dataclass
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
class LinearProgram:
    constraints: np.ndarray  # (rows, vars): row r is constraints[r] @ x <= rhs[r]
    rhs: np.ndarray          # (rows,)
    is_eq: np.ndarray        # (rows,) bool: row r holds with '=' instead
    var_bounds: np.ndarray   # (vars, 2): lo, hi with 0 <= lo <= hi <= 1

    def __post_init__(self):
        A = np.asarray(self.constraints, dtype=np.float64)
        b = np.asarray(self.rhs, dtype=np.float64)
        is_eq = np.asarray(self.is_eq, dtype=bool)
        bounds = np.asarray(self.var_bounds, dtype=np.float64)
        if not (
            A.ndim == 2
            and b.shape == is_eq.shape == A.shape[:1]
            and bounds.shape == (A.shape[1], 2)
        ):
            raise ValueError(
                "need constraints (rows, vars), rhs and is_eq (rows,), var_bounds (vars, 2)"
            )
        # min and max propagate NaN and hold any inf, without a temporary
        if A.size and not np.isfinite([A.min(), A.max()]).all():
            raise ValueError("non-finite coefficient")
        if not np.isfinite(b).all():
            raise ValueError("non-finite right-hand side")
        lo, hi = bounds.T
        if not np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0)):
            raise ValueError("variable bounds must satisfy 0 <= lo <= hi <= 1")
        fields = {"constraints": A, "rhs": b, "is_eq": is_eq, "var_bounds": bounds}
        for name, arr in fields.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_vars(self) -> int:
        return self.constraints.shape[1]


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
    never the feasible/infeasible verdict.  Deterministic for fixed input.
    """
    A, b, is_eq = lp.constraints, lp.rhs, lp.is_eq
    m, n = A.shape
    lo, hi = lp.var_bounds.T
    if m == 0:
        return lo.copy()

    # Columns: structural | one slack per row | artificials for violated rows.
    slack_lo = np.zeros(m)
    slack_hi = np.where(is_eq, 0.0, np.inf)
    x0 = lo.copy()
    if start_at_upper is not None:
        idx = np.asarray(sorted(set(int(i) for i in start_at_upper)), dtype=int)
        x0[idx] = hi[idx]
    resid = b - A @ x0  # slack value if the slack were basic
    violated = np.where(is_eq, np.abs(resid) > PIV_TOL, resid < -PIV_TOL)
    art_rows = np.flatnonzero(violated)
    n_art = art_rows.size
    if n_art == 0:  # the start is feasible: phase 1 would stop before a pivot
        return _verified(A, b, is_eq, x0)
    ncols = n + m + n_art

    T = np.zeros((m, ncols))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    art_sign = np.sign(resid[art_rows])
    for t, r in enumerate(art_rows):
        T[r, n + m + t] = art_sign[t]
        T[r, :] *= art_sign[t]  # basis column becomes +1; B^{-1} stays diagonal

    col_lo = np.concatenate([lo, slack_lo, np.zeros(n_art)])
    col_hi = np.concatenate([hi, slack_hi, np.full(n_art, np.inf)])

    pos = np.full(ncols, _LO, dtype=np.int8)
    if start_at_upper is not None:
        pos[idx] = _HI
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
    banned = np.zeros(ncols, dtype=bool)
    fixed = col_hi - col_lo <= PIV_TOL  # fixed vars never enter

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
    for _ in range(cap):
        art_basic = is_art[basis]
        obj = float(np.sum(xb[art_basic])) if np.any(art_basic) else 0.0
        if obj <= PIV_TOL:
            return extract()

        enter_lo = (pos == _LO) & ~banned & ~fixed & (dvec < -PIV_TOL)
        enter_hi = (pos == _HI) & ~banned & ~fixed & (dvec > PIV_TOL)
        cand = enter_lo | enter_hi
        if not np.any(cand):
            return None if obj > FEAS_TOL else extract()
        if stalled > 40:
            j = int(np.argmax(cand))  # Bland: lowest improving index
        else:
            gain = np.where(cand, np.abs(dvec), 0.0)
            j = int(np.argmax(gain))  # steepest reduced cost, first on ties
        direction = 1.0 if pos[j] == _LO else -1.0

        eff = -direction * T[:, j]  # basic change per unit step
        with np.errstate(divide="ignore", invalid="ignore"):
            lim_up = np.where(eff > PIV_TOL, (row_hi - xb) / eff, np.inf)
            lim_dn = np.where(eff < -PIV_TOL, (row_lo - xb) / eff, np.inf)
        limits = np.maximum(np.minimum(lim_up, lim_dn), 0.0)
        t_flip = col_hi[j] - col_lo[j]
        t_star = min(float(limits.min()) if m else np.inf, t_flip)
        if not np.isfinite(t_star):
            raise NumericFailure("unbounded ray in phase 1")

        stalled = 0 if t_star > 1e-12 else stalled + 1

        blocking = np.flatnonzero(limits <= t_star + 1e-12)
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
            banned[out] = True
        rowvals = T[r, :] / piv
        colvals = T[:, j].copy()
        T -= np.outer(colvals, rowvals)
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
    pair backing each variable.

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
    pairs = list(zip(np.asarray(S)[center_of].tolist(), reps[cls_of].tolist()))
    color, weight = inst.colors[reps][cls_of], size[cls_of]
    ind = (color == np.arange(gfb.m)[:, None]).astype(float)  # (colors, vars)
    per = 2 * gfb.m  # rows per center: the lower, then the upper row of each color
    coef = np.empty((per, len(pairs)))
    coef[0::2] = weight * (gfb.beta[:, None] - ind)
    coef[1::2] = weight * (ind - gfb.alpha[:, None])

    active = adm.any(axis=1)  # a center that admits nothing has vacuous rows
    block = (np.cumsum(active) - 1)[center_of]  # row block of each variable
    n_prop = per * int(active.sum())
    cols = np.arange(len(pairs))
    A = np.zeros((n_prop + len(reps), len(pairs)))
    A[per * block + np.arange(per)[:, None], cols] = coef
    A[n_prop + cls_of, cols] = 1.0
    is_eq = np.arange(A.shape[0]) >= n_prop
    lp = LinearProgram(
        constraints=A,
        rhs=is_eq.astype(float),
        is_eq=is_eq,
        var_bounds=np.tile([0.0, 1.0], (len(pairs), 1)),
    )
    return lp, pairs


def nearest_admissible_start(inst: Instance, pairs: Sequence[tuple]) -> list:
    """Crash start: each point's nearest admissible center set to 1.

    Satisfies every unit-assignment row exactly, leaving the simplex to
    repair only proportion rows.
    """
    best = {}
    for v, (i, j) in enumerate(pairs):
        key = (inst.dist[i, j], i)
        if j not in best or key < best[j][0]:
            best[j] = (key, v)
    return [v for (_, v) in best.values()]
