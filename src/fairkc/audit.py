"""Auditors for distance-based fairness notions.

These never optimize; they report the smallest parameter under which a given
solution satisfies each notion (infinity when no finite parameter works).
Ratios of 0/0 are fixed to 1 throughout, matching the convention the
incompatibility arguments rely on.

Every n-by-n pass reads `dist` in slices of ROW_BLOCK rows, so no audit
copies the matrix.  Two facts keep `min_alpha_proportional` exact in that
form:

- Every matrix this package builds is exactly symmetric: the Euclidean
  builder sums the same squares in the same order for d(i, j) and d(j, i).
  So row y holds the bits of the column d(., y), and each ratio is the same
  division as in a pass over columns.  A matrix read from a file is only
  checked to be symmetric within TOL; there the row and the column may
  differ by that much.
- A row's t-th largest ratio can exceed the running maximum only if at
  least t of its ratios do.  Rows with fewer are skipped without a
  partition: they cannot raise the maximum, and a maximum does not depend
  on the order it is taken in.
"""

from __future__ import annotations

import numpy as np

from .core import Instance, Solution, row_blocks

INF = float("inf")


def population_threshold(n: int, k: int) -> int:
    """ceil(n / k): the coalition / neighborhood population size."""
    return -(-n // k)


def neighborhood_radius(inst: Instance, k: int, j: int) -> float:
    """Smallest r such that at least ceil(n/k) points lie within r of j."""
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    t = population_threshold(inst.n, k)
    return float(np.sort(inst.dist[j])[t - 1])  # j itself counts at distance 0


def min_alpha_nr(inst: Instance, sol: Solution, k: int) -> float:
    """Smallest alpha with d(j, phi(j)) <= alpha * NR(j) for every point."""
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    t = population_threshold(inst.n, k)
    nr = np.empty(inst.n)  # NR(j) for every j, a block of rows at a time
    for rows in row_blocks(inst.n):
        nr[rows] = np.partition(inst.dist[rows], t - 1, axis=1)[:, t - 1]
    d = inst.dist[np.arange(inst.n), sol.assign]
    spread = nr > 0.0
    ratio = np.where(spread, d / np.where(spread, nr, 1.0), np.where(d == 0.0, 1.0, INF))
    return float(ratio.max())


def socially_fair_cost(inst: Instance, sol: Solution, p: int = 1) -> float:
    """Largest group-averaged p-th power assignment distance."""
    if p < 1:
        raise ValueError("exponent p must be at least 1")
    d = inst.dist[np.arange(inst.n), sol.assign] ** p
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
    are partitioned (see the module docstring).
    """
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    t = population_threshold(inst.n, k)
    dphi = inst.dist[np.arange(inst.n), sol.assign]
    at_zero = np.where(dphi > 0.0, INF, 1.0)  # the ratio where d(i, y) = 0
    worst = 0.0
    for rows in row_blocks(inst.n):
        dy = inst.dist[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = dphi / dy  # entries with dy <= 0 are overwritten next
        np.copyto(ratios, at_zero, where=dy <= 0.0)
        live = ratios[np.count_nonzero(ratios > worst, axis=1) >= t]  # a copy
        if live.shape[0]:
            live.partition(inst.n - t, axis=1)
            worst = max(worst, float(live[:, inst.n - t].max()))
        if worst == INF:
            return INF
    return worst


def audit_all(inst: Instance, sol: Solution, k: int, p: int = 1) -> dict:
    return {
        "min_alpha_nr": min_alpha_nr(inst, sol, k),
        "socially_fair_cost": socially_fair_cost(inst, sol, p),
        "min_alpha_proportional": min_alpha_proportional(inst, sol, k),
    }
