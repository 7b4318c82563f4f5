"""Auditors for distance-based fairness notions.

These never optimize; they report the smallest parameter under which a given
solution satisfies each notion (infinity when no finite parameter works).
Ratios of 0/0 are fixed to 1 throughout, matching the convention the
incompatibility arguments rely on.

Every n-by-n pass reads `dist` in slices of ROW_BLOCK rows, so no audit
copies the matrix.  Two facts keep both ratio audits exact in that form:

- Every matrix this package builds is exactly symmetric: the Euclidean
  builder sums the same squares in the same order for d(i, j) and d(j, i).
  So row y holds the bits of the column d(., y), and each ratio is the same
  division as in a pass over columns.  A matrix read from a file is only
  checked to be symmetric within TOL; there the row and the column may
  differ by that much.
- A row's t-th largest ratio can exceed the running maximum `worst` only
  if at least t of its ratios do, and a ratio a / e can exceed it only if
  e <= c = fl(max(a, 0) / worst).  Division is correctly rounded, hence
  monotone: fl(a / e) > worst needs a / e > worst, so e < a / worst, and
  e, being a float below a / worst, is at most its rounding c.  A
  distance e <= 0 is at most c >= 0 too, which covers both x/0 -> inf and
  0/0 -> 1.  So no rounding margin is needed, and no triangle inequality
  is assumed: it holds for any matrix `Instance` accepts.  Each block
  first counts, per row, its entries e <= c with one compare, and only
  rows with at least t of them are divided and partitioned as before.  In
  `min_alpha_nr` point j has the one ratio d_j / NR(j), and NR(j), the
  t-th smallest entry of row j, is at most c_j exactly when row j has t
  entries e <= c_j.
  The skipped rows cannot raise the maximum, and a maximum does not depend
  on the order it is taken in, so the result keeps its bits.  Where c is
  undefined (worst <= 0, or inf / inf) every entry passes, so an inf / inf
  ratio, which is NaN, still reaches `min_alpha_nr`'s maximum.
"""

from __future__ import annotations

import numpy as np

from .core import ROW_BLOCK, Instance, Solution, row_blocks

INF = float("inf")
SEED_ROWS = 32  # rows whose exact values seed each ratio audit's running maximum


def population_threshold(n: int, k: int) -> int:
    """ceil(n / k): the coalition / neighborhood population size."""
    return -(-n // k)


def neighborhood_radius(inst: Instance, k: int, j: int) -> float:
    """Smallest r such that at least ceil(n/k) points lie within r of j."""
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    t = population_threshold(inst.n, k)
    return float(np.sort(inst.dist[j])[t - 1])  # j itself counts at distance 0


def _assignment_distances(inst: Instance, sol: Solution) -> np.ndarray:
    """d(j, phi(j)) for every point j, once sol is checked to fit inst."""
    if sol.n != inst.n:
        raise ValueError(f"solution assigns {sol.n} points, instance has {inst.n}")
    return inst.dist[np.arange(inst.n), sol.assign]


def _rows_to_check(block, num, worst, t: int, mask: np.ndarray) -> np.ndarray:
    """Indices of the rows of block with at least t entries e <= c, where
    c = fl(max(num, 0) / worst) broadcast against block: num / e > worst only
    where e <= c (see the module docstring).  c is infinite, so every entry
    counts, where worst <= 0 or the quotient is NaN.  mask is a bool scratch
    array of at least block's shape, reused across calls."""
    with np.errstate(all="ignore"):  # a quotient past the float range is inf, still a bound
        c = np.maximum(num, 0.0) / max(0.0, worst)  # 0.0, not -0.0, when worst <= 0
    c[np.isnan(c)] = INF
    below = np.less_equal(block, c, out=mask[: block.shape[0]])
    return np.flatnonzero(below.view(np.uint8).sum(axis=1, dtype=np.uint32) >= t)


def min_alpha_nr(inst: Instance, sol: Solution, k: int) -> float:
    """Smallest alpha with d(j, phi(j)) <= alpha * NR(j) for every point.

    The ratio is taken exactly for the SEED_ROWS longest assignments first,
    then only for the points whose NR(j) is small enough to beat the running
    maximum (see the module docstring).
    """
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    t = population_threshold(inst.n, k)
    d = _assignment_distances(inst, sol)

    def ratios(points):
        nr = np.partition(inst.dist[points], t - 1, axis=1)[:, t - 1]  # NR(j)
        spread = nr > 0.0
        dj = d[points]
        # past the float range a ratio is inf, and inf / inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(spread, dj / np.where(spread, nr, 1.0), np.where(dj == 0.0, 1.0, INF))

    worst = ratios(np.argsort(d)[-SEED_ROWS:]).max()
    mask = np.empty((ROW_BLOCK, inst.n), dtype=bool)
    for rows in row_blocks(inst.n):
        # NR(j) <= c_j exactly when at least t entries of row j are <= c_j
        points = rows.start + _rows_to_check(inst.dist[rows], d[rows, None], worst, t, mask)
        worst = np.max(ratios(points), initial=worst)
    return float(worst)


def socially_fair_cost(inst: Instance, sol: Solution, p: int = 1) -> float:
    """Largest group-averaged p-th power assignment distance."""
    if p < 1:
        raise ValueError("exponent p must be at least 1")
    d = _assignment_distances(inst, sol) ** p
    worst = 0.0
    for h in range(inst.m):
        members = inst.points_of_color(h)
        worst = max(worst, float(d[members].mean()))
    return worst


def min_alpha_proportional(inst: Instance, sol: Solution, k: int) -> float:
    """Smallest alpha under which no ceil(n/k)-coalition can all do better.

    For each candidate y the binding value is the ceil(n/k)-th largest ratio
    d(i, phi(i)) / d(i, y); a coalition of that size with infinite ratios
    (zero distance to y but positive assignment distance) blocks every alpha.
    Candidates are taken a block of rows at a time, row y standing in for
    the column d(., y), and only rows that can raise the running maximum
    are divided and partitioned (see the module docstring).  The maximum
    starts from the exact values of the SEED_ROWS rows of the points with
    the longest assignments, so fewer rows get past the filter.  Where some
    assignment is infinite it starts from 0.0: an inf / inf ratio is NaN,
    which drops its whole block from the maximum, so the value there
    depends on how the rows are grouped, and the rows keep their blocks.
    """
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    t = population_threshold(inst.n, k)
    dphi = _assignment_distances(inst, sol)
    at_zero = np.where(dphi > 0.0, INF, 1.0)  # the ratio where d(i, y) = 0
    mask = np.empty((ROW_BLOCK, inst.n), dtype=bool)

    def raised(dy, worst):
        """worst, or the largest value of a row of dy if that is larger."""
        dy = dy[_rows_to_check(dy, dphi, worst, t, mask)]  # a copy
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = dphi / dy  # entries with dy <= 0 are overwritten next
        np.copyto(ratios, at_zero, where=dy <= 0.0)
        live = ratios[np.count_nonzero(ratios > worst, axis=1) >= t]  # a copy
        if live.shape[0]:
            live.partition(inst.n - t, axis=1)
            worst = max(worst, float(live[:, inst.n - t].max()))
        return worst

    worst = 0.0
    if np.isfinite(dphi).all():
        worst = raised(inst.dist[np.argsort(dphi)[-SEED_ROWS:]], worst)
    for rows in row_blocks(inst.n):
        worst = raised(inst.dist[rows], worst)
        if worst == INF:
            return INF
    return worst


def audit_all(inst: Instance, sol: Solution, k: int, p: int = 1) -> dict:
    return {
        "min_alpha_nr": min_alpha_nr(inst, sol, k),
        "socially_fair_cost": socially_fair_cost(inst, sol, p),
        "min_alpha_proportional": min_alpha_proportional(inst, sol, k),
    }
