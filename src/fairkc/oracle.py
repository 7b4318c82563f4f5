"""Exhaustive brute-force optimizer for desk-scale ground truth.

Minimizes the k-center radius over every center subset of size at most k
and every assignment, optionally subject to proportional cluster bounds
(within an allowed additive slack) and center-color count bounds.  Search
is organized as a binary search over candidate radii per subset with a
depth-first feasibility check, which prunes aggressively at small radii.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Tuple

import numpy as np

from .core import TOL, DSBounds, FairKCError, GFBounds, Instance, Solution

MAX_N = 12
MAX_K = 3


class TooLarge(FairKCError):
    """Instance exceeds the enforced n <= 12, k <= 3 search caps."""


def _feasible_assignment(inst, S, radius, gfb, rho_allow):
    """DFS for an assignment within `radius` keeping all centers active and
    every cluster's color counts repairable within rho_allow.  Returns the
    assignment array or None."""
    n = inst.n
    m = inst.m
    ns = len(S)
    colors = inst.colors
    # admissible centers per point, nearest first
    adm = []
    for p in range(n):
        opts = [(inst.dist[S[t], p], t) for t in range(ns)]
        opts = [(d, t) for d, t in opts if d <= radius]
        if not opts:
            return None
        opts.sort()
        adm.append([t for _, t in opts])

    suffix = np.zeros((n + 1, m), dtype=int)  # points >= p of each color
    for p in range(n - 1, -1, -1):
        suffix[p] = suffix[p + 1]
        suffix[p, colors[p]] += 1

    sizes = [0] * ns
    ccnt = [[0] * m for _ in range(ns)]
    assign = np.empty(n, dtype=int)

    if gfb is not None:
        beta = gfb.beta
        alpha = gfb.alpha

    def repairable(t, p_next):
        """Necessary conditions for cluster t to end within rho_allow."""
        rem = suffix[p_next]
        size = sizes[t]
        row = ccnt[t]
        for h in range(m):
            rem_h = int(rem[h])
            rem_other = int(rem.sum()) - rem_h
            if row[h] - alpha[h] * (size + rem_other) > rho_allow + TOL:
                return False
            if beta[h] * (size + rem_h) - (row[h] + rem_h) > rho_allow + TOL:
                return False
        return True

    def dfs(p):
        if p == n:
            if any(s == 0 for s in sizes):
                return False
            if gfb is not None:
                for t in range(ns):
                    size = sizes[t]
                    for h in range(m):
                        c = ccnt[t][h]
                        if beta[h] * size - c > rho_allow + TOL:
                            return False
                        if c - alpha[h] * size > rho_allow + TOL:
                            return False
            return True
        empties = sum(1 for s in sizes if s == 0)
        if empties > n - p:
            return False
        h = int(colors[p])
        for t in adm[p]:
            sizes[t] += 1
            ccnt[t][h] += 1
            assign[p] = S[t]
            if gfb is None or repairable(t, p + 1):
                if dfs(p + 1):
                    return True
            sizes[t] -= 1
            ccnt[t][h] -= 1
        return False

    return assign.copy() if dfs(0) else None


def brute_force_opt(
    inst: Instance,
    k: int,
    gfb: Optional[GFBounds] = None,
    dsb: Optional[DSBounds] = None,
    rho_allow: float = 0.0,
) -> Optional[Tuple[float, Solution]]:
    """Optimal (cost, solution) under the given constraints, or None.

    Only subsets whose every center stays active are considered; a solution
    with an empty cluster is equivalent to one on the smaller subset, which
    the enumeration also visits.  Deterministic: the first optimum in
    lexicographic subset order wins, and the cost is its exact cost.
    """
    if inst.n > MAX_N or k > MAX_K:
        raise TooLarge(f"caps are n <= {MAX_N}, k <= {MAX_K}")
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")

    best_cost = np.inf
    best = None
    radii = np.unique(inst.dist)

    for size in range(1, k + 1):
        for S in combinations(range(inst.n), size):
            if dsb is not None:
                counts = np.bincount(inst.colors[list(S)], minlength=dsb.m)
                if np.any(counts < dsb.k_lo) or np.any(counts > dsb.k_hi):
                    continue
            r_cover = float(inst.dist[list(S), :].min(axis=0).max())
            if r_cover >= best_cost:
                continue
            if gfb is None:
                # nearest-center assignment is optimal and fair-agnostic
                cost = r_cover
                if cost < best_cost:
                    assign = _feasible_assignment(inst, S, cost, None, 0.0)
                    best_cost, best = cost, Solution(centers=S, assign=assign)
                continue
            lo = int(np.searchsorted(radii, r_cover))
            hi = int(np.searchsorted(radii, best_cost)) - 1
            witness = None
            while lo <= hi:
                mid = (lo + hi) // 2
                got = _feasible_assignment(inst, S, float(radii[mid]), gfb, rho_allow)
                if got is not None:
                    witness = (float(radii[mid]), got)
                    hi = mid - 1
                else:
                    lo = mid + 1
            if witness is not None and witness[0] < best_cost:
                best_cost = witness[0]
                best = Solution(centers=S, assign=witness[1])

    return None if best is None else (best_cost, best)
