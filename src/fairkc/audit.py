"""Auditors for distance-based fairness notions.

These never optimize; they report the smallest parameter under which a given
solution satisfies each notion (infinity when no finite parameter works).
Ratios of 0/0 are fixed to 1 throughout, matching the convention the
incompatibility arguments rely on.
"""

from __future__ import annotations


import numpy as np

from .core import Instance, Solution

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
    nr = np.partition(inst.dist, t - 1, axis=1)[:, t - 1]  # NR(j) for every j
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
    """
    t = population_threshold(inst.n, k)
    dphi = inst.dist[np.arange(inst.n), sol.assign]
    worst = 0.0
    for y in range(inst.n):
        dy = inst.dist[:, y]
        ratios = np.where(
            dy > 0.0, dphi / np.where(dy > 0.0, dy, 1.0),
            np.where(dphi > 0.0, INF, 1.0),
        )
        kth = float(np.partition(ratios, inst.n - t)[inst.n - t])
        worst = max(worst, kth)
        if worst == INF:
            return INF
    return worst


def audit_all(inst: Instance, sol: Solution, k: int, p: int = 1) -> dict:
    return {
        "min_alpha_nr": min_alpha_nr(inst, sol, k),
        "socially_fair_cost": socially_fair_cost(inst, sol, p),
        "min_alpha_proportional": min_alpha_proportional(inst, sol, k),
    }
