"""Domain types and metrics for fair k-center clustering.

An instance is a finite pseudometric (coinciding points are allowed) with a
one-color-per-point membership map.  A solution is a center set plus an
explicit point-to-center assignment; its cost is the largest assignment
distance.  Two constraint families live here: per-cluster proportional
bounds on each color (GF) and per-color counts on the selected centers (DS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

TOL = 1e-9
ROW_BLOCK = 128  # rows per block of the n-by-n passes, so no pass copies the matrix


class FairKCError(Exception):
    """Base class for errors raised by this package."""


class InfeasibleError(FairKCError):
    """A constrained problem has no solution under the given bounds, or the
    algorithm cannot reach one.  Every infeasibility the solvers report is
    this type or a subclass of it."""


def row_blocks(n: int):
    """Slices covering range(n) in order, ROW_BLOCK rows each but the last."""
    return (slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK))


def euclidean_distances(pts) -> np.ndarray:
    """n-by-n Euclidean distances between the rows of pts, a block at a time.

    Each entry adds its per-coordinate squared differences in the order in
    which numpy's `.sum(axis=-1)` adds a contiguous axis, its pairwise sum:
    below 8 terms in sequence; from 8 to 128 terms in eight running sums
    (term i into sum i mod 8), combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the leftover terms in sequence; above 128 terms as two halves, the
    first rounded down to a multiple of 8, each summed the same way.  That
    order is numpy's, so every entry has the bits of the n x n x dim
    broadcast formula, while each pass here is one whole-block ufunc call
    instead of one tiny reduction per entry.  Entry (i, j) and (j, i) add the
    same squares in the same order, so each block computes the columns from
    its own first row on and mirrors them below the diagonal: the result is
    exactly symmetric with a zero diagonal.
    """
    coords = np.array(np.asarray(pts, dtype=float).T)  # one contiguous row per coordinate
    n = coords.shape[1]
    dist = np.empty((n, n))
    for rows in row_blocks(n):

        def square(c, out):
            np.copyto(out, coords[c, rows, None])  # then a plain subtract: faster than a broadcast one
            np.subtract(out, coords[c, rows.start:], out=out)
            return np.multiply(out, out, out=out)

        upper = dist[rows, rows.start:]
        np.sqrt(_pairwise_sum(square, 0, coords.shape[0], upper), out=upper)
        dist[rows.stop:, rows] = dist[rows, rows.stop:].T
    return dist


def _pairwise_sum(square, lo, hi, out):
    """Write square(lo) + ... + square(hi - 1) into out in numpy's pairwise
    order (see euclidean_distances); square(c, buf) fills and returns buf."""
    count = hi - lo
    if count > 128:
        half = count // 2 - count // 2 % 8
        _pairwise_sum(square, lo, lo + half, out)
        return np.add(out, _pairwise_sum(square, lo + half, hi, np.empty_like(out)), out=out)
    if count == 0:
        out.fill(0.0)
        return out
    lanes = 8 if count >= 8 else 1
    r = [square(lo, out)] + [square(c, np.empty_like(out)) for c in range(lo + 1, lo + lanes)]
    buf = np.empty_like(out)
    tail = hi - count % lanes
    for c in range(lo + lanes, tail):
        r[(c - lo) % lanes] += square(c, buf)
    while len(r) > 1:  # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
        r = [np.add(a, b, out=a) for a, b in zip(r[::2], r[1::2])]
    for c in range(tail, hi):
        out += square(c, buf)
    return out


def _as_float_matrix(dist) -> np.ndarray:
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    return d


@dataclass(frozen=True)
class Instance:
    """Point set with pairwise distances and per-point colors.

    dist is an n-by-n symmetric matrix with zero diagonal; colors maps each
    point index to a color index in [0, m).
    """

    dist: np.ndarray
    colors: np.ndarray
    m: int

    def __post_init__(self):
        object.__setattr__(self, "dist", _as_float_matrix(self.dist))
        object.__setattr__(self, "colors", np.asarray(self.colors, dtype=int))
        self.dist.setflags(write=False)
        self.colors.setflags(write=False)
        n = self.dist.shape[0]
        if self.colors.shape != (n,):
            raise ValueError("colors must have one entry per point")
        if np.any(self.dist < -TOL):
            raise ValueError("distances must be nonnegative")
        if np.any(np.abs(np.diagonal(self.dist)) > TOL):
            raise ValueError("distance matrix must have zero diagonal")
        # Symmetric within TOL, as np.allclose(d, d.T, atol=TOL, rtol=0.0) says.
        # Exact equality of each block's upper triangle with its mirror implies
        # that verdict (equal infinities included) and is several times cheaper,
        # so the allclose pass runs only when some pair differs; a NaN is never
        # equal, so it always reaches allclose.
        d = self.dist
        if not all(
            np.array_equal(d[rows, rows.start:], d[rows.start:, rows].T) for rows in row_blocks(n)
        ) and not all(
            np.allclose(d[rows], d[:, rows].T, atol=TOL, rtol=0.0) for rows in row_blocks(n)
        ):
            raise ValueError("distance matrix must be symmetric")
        if self.m < 1:
            raise ValueError("need at least one color")
        if np.any(self.colors < 0) or np.any(self.colors >= self.m):
            raise ValueError("color indices must lie in [0, m)")
        if np.unique(self.colors).size != self.m:
            raise ValueError("every color index below m needs at least one point")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def color_counts(self) -> np.ndarray:
        return np.bincount(self.colors, minlength=self.m)

    def points_of_color(self, h: int) -> np.ndarray:
        return np.flatnonzero(self.colors == h)

    def check_triangle(self) -> None:
        """Raise if some triple violates the triangle inequality by more than TOL.

        O(n^3); meant for generated instances, not large CSV imports.
        """
        d = self.dist
        for k in range(self.n):
            if np.any(d > d[:, k, None] + d[None, k, :] + TOL):
                raise ValueError(f"triangle inequality violated through point {k}")


@dataclass(frozen=True)
class GFBounds:
    """Per-color proportional bounds: beta[h] <= |C_i^h| / |C_i| <= alpha[h]."""

    beta: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.beta.shape != self.alpha.shape or self.beta.ndim != 1:
            raise ValueError("beta and alpha must be 1-d arrays of equal length")
        if np.any(self.beta <= 0.0):
            raise ValueError("every lower proportion bound must be positive")
        if np.any(self.beta > self.alpha + TOL) or np.any(self.alpha > 1.0 + TOL):
            raise ValueError("bounds must satisfy 0 < beta <= alpha <= 1")

    @property
    def m(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class DSBounds:
    """Per-color center-count bounds k_lo[h] <= k_h <= k_hi[h] with budget k."""

    k_lo: np.ndarray
    k_hi: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k_lo", np.asarray(self.k_lo, dtype=int))
        object.__setattr__(self, "k_hi", np.asarray(self.k_hi, dtype=int))
        if self.k_lo.shape != self.k_hi.shape or self.k_lo.ndim != 1:
            raise ValueError("k_lo and k_hi must be 1-d arrays of equal length")
        if np.any(self.k_lo < 0) or np.any(self.k_lo > self.k_hi):
            raise ValueError("need 0 <= k_lo <= k_hi per color")
        if int(self.k_lo.sum()) > self.k:
            raise ValueError("sum of lower center bounds exceeds the budget k")

    @property
    def m(self) -> int:
        return self.k_lo.shape[0]


@dataclass(frozen=True)
class Solution:
    """Ordered center set plus an explicit point-to-center assignment.

    assign[j] is the point index of j's center and must be a member of
    centers; every index lies in [0, n), n being the length of assign.
    Centers with empty clusters are permitted (they are reported as inactive
    and ignored by the violation metrics).
    """

    centers: tuple
    assign: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(int(c) for c in self.centers))
        object.__setattr__(self, "assign", np.asarray(self.assign, dtype=int))
        self.assign.setflags(write=False)
        if len(set(self.centers)) != len(self.centers):
            raise ValueError("duplicate centers")
        if not self.centers:
            raise ValueError("a solution needs at least one center")
        n = self.n
        if not (0 <= min(self.centers) and max(self.centers) < n  # so n > 0
                and 0 <= self.assign.min() and self.assign.max() < n):
            raise ValueError("centers and assignments must be point indices in [0, n)")
        selected = np.zeros(n, dtype=bool)
        selected[list(self.centers)] = True
        if not selected[self.assign].all():
            raise ValueError("every point must be assigned to a selected center")

    @property
    def n(self) -> int:
        return self.assign.shape[0]

    def cluster_of(self, center: int) -> np.ndarray:
        return np.flatnonzero(self.assign == center)

    def _present(self) -> set:
        return set(np.flatnonzero(np.bincount(self.assign)).tolist())

    def active_centers(self) -> tuple:
        present = self._present()
        return tuple(c for c in self.centers if c in present)

    def inactive_centers(self) -> tuple:
        present = self._present()
        return tuple(c for c in self.centers if c not in present)


@dataclass(frozen=True, eq=False)
class FractionalAssignment:
    """Sparse LP assignment matrix: x[pairs[e]] = values[e] in (0, 1].

    pairs holds (center, point) indices in [0, n), no pair twice; absent
    pairs are zero.  Values within 1e-7 of 0 or 1 are snapped on
    construction, anything outside [-1e-12, 1+1e-12] after snapping is
    rejected and zeros are dropped.  Row sums over centers must be 1 for
    every point.  The kept entries are stored read-only in increasing
    (center, point) order, whatever the order given, so every sum over
    them has the same bits for the same entries.
    """

    n: int
    pairs: np.ndarray   # (entries, 2): center, point
    values: np.ndarray  # (entries,)

    SNAP = 1e-7

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.intp)
        v = np.asarray(self.values, dtype=np.float64)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or v.shape != pairs.shape[:1]:
            raise ValueError("need pairs (entries, 2) and values (entries,)")
        if pairs.size and not (0 <= pairs.min() and pairs.max() < self.n):
            raise ValueError("entry index outside [0, n)")
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))  # by center, then point
        pairs, v = pairs[order], v[order]
        repeat = (pairs[1:] == pairs[:-1]).all(axis=1)
        if repeat.any():
            q0, j0 = pairs[int(np.argmax(repeat))].tolist()
            raise ValueError(f"pair ({q0}, {j0}) given twice")
        v = np.where(np.abs(v) <= self.SNAP, 0.0,
                     np.where(np.abs(v - 1.0) <= self.SNAP, 1.0, v))
        bad = (v < -1e-12) | (v > 1.0 + 1e-12)
        if bad.any():
            i = int(np.argmax(bad))
            q0, j0 = pairs[i].tolist()
            raise ValueError(f"entry x[{q0},{j0}]={float(v[i])} outside [0, 1]")
        keep = v > 0.0  # also drops NaN, which no bound above rejects
        pairs, v = pairs[keep], np.minimum(v[keep], 1.0)
        sums = np.zeros(self.n)
        np.add.at(sums, pairs[:, 1], v)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"assignment row for point {bad} sums to {sums[bad]}")
        for name, arr in (("pairs", pairs), ("values", v)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def marginals(self, inst: Instance, Q: Sequence[int]):
        """Per-center totals and per-(center, color) totals of x, summed in
        the stored (center, point) order."""
        Q = list(Q)
        q, j = self.pairs.T
        t = positions_in(Q, q)
        tot = np.zeros(len(Q))
        by_color = np.zeros((len(Q), inst.m))
        np.add.at(tot, t, self.values)
        np.add.at(by_color, (t, inst.colors[j]), self.values)
        return tot, by_color


def positions_in(Q: Sequence[int], q: np.ndarray) -> np.ndarray:
    """Index in Q (distinct ids) of every entry of q; KeyError for one Q lacks."""
    Q = np.fromiter(Q, dtype=int)
    order = np.argsort(Q)
    t = order[np.minimum(np.searchsorted(Q[order], q), Q.size - 1)]
    missing = Q[t] != q
    if missing.any():
        raise KeyError(int(q[np.argmax(missing)]))
    return t


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the five-algorithm comparison harness.

    Proportional bounds derive from delta as beta = (1-delta) r_h and
    alpha = (1+delta) r_h (capped at 1); center bounds derive from theta as
    k_lo = ceil(theta r_h k) with k_hi = k.
    """

    k_values: tuple
    delta: float = 0.2
    theta: float = 0.8
    p: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be positive integers")
        if not 0.0 <= self.delta < 1.0:  # delta = 1 zeroes every lower bound
            raise ValueError("delta must lie in [0, 1)")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.p < 1:
            raise ValueError("exponent p must be at least 1")

    def gf_bounds(self, inst: Instance) -> GFBounds:
        r = inst.color_counts() / inst.n
        beta = (1.0 - self.delta) * r
        alpha = np.minimum(1.0, (1.0 + self.delta) * r)
        if np.any(beta <= 0.0):
            raise ValueError("delta leaves a color with a zero lower bound")
        return GFBounds(beta=beta, alpha=alpha)

    def ds_bounds(self, inst: Instance, k: int) -> DSBounds:
        """Center bounds at budget k; InfeasibleError when the derived lower
        bounds sum past k, since then no center set meets them."""
        r = inst.color_counts() / inst.n
        k_lo = np.ceil(self.theta * r * k - TOL).astype(int)
        if int(k_lo.sum()) > k:
            raise InfeasibleError("sum of lower center bounds exceeds the budget k")
        k_hi = np.full(inst.m, k, dtype=int)
        return DSBounds(k_lo=k_lo, k_hi=k_hi, k=k)


def cost(inst: Instance, sol: Solution) -> float:
    """Largest distance between a point and its assigned center."""
    return float(np.max(inst.dist[np.arange(inst.n), sol.assign]))


def gf_violation(inst: Instance, gfb: GFBounds, sol: Solution) -> float:
    """Smallest rho such that beta_h|C_i|-rho <= |C_i^h| <= alpha_h|C_i|+rho.

    Empty clusters contribute nothing.  Values within 1e-9 of zero collapse
    to exactly zero so that exact satisfaction reports rho = 0.
    """
    # counts[c, h]: points of color h assigned to point c; rows of zeros
    # unless c is an active center
    counts = np.bincount(sol.assign * inst.m + inst.colors, minlength=inst.n * inst.m)
    counts = counts.reshape(inst.n, inst.m)
    counts = counts[counts.any(axis=1)]  # the clusters of the active centers
    size = counts.sum(axis=1, keepdims=True)
    under = np.max(gfb.beta * size - counts, initial=0.0)
    over = np.max(counts - gfb.alpha * size, initial=0.0)
    rho = max(under, over)
    return 0.0 if rho <= TOL else float(rho)


def ds_violation(sol: Solution, dsb: DSBounds, inst: Instance) -> int:
    """Largest per-color shortfall/excess of active-center counts."""
    active = sol.active_centers()
    counts = np.bincount(inst.colors[list(active)], minlength=dsb.m)
    worst = 0
    for h in range(dsb.m):
        worst = max(worst, int(dsb.k_lo[h] - counts[h]), int(counts[h] - dsb.k_hi[h]))
    return max(worst, 0)


def pof(cost_constrained: float, cost_blind: float) -> float:
    """Price of fairness: constrained cost over unconstrained cost.

    Returns inf when the unconstrained cost is 0 but the constrained cost is
    positive, and 1 when both are 0 (documented convention).
    """
    if cost_constrained < 0 or cost_blind < 0:
        raise ValueError("costs must be nonnegative")
    if cost_blind == 0.0:
        return 1.0 if cost_constrained == 0.0 else float("inf")
    return cost_constrained / cost_blind


def nearest_center_assignment(inst: Instance, centers: Sequence[int]) -> np.ndarray:
    """Assign every point to its nearest center.

    A point that is itself a center is assigned to itself; other ties go to
    the lowest center index.  Self-assignment keeps every center active even
    between coinciding points.
    """
    ordered = np.sort(np.fromiter(centers, dtype=int))
    best = np.argmin(inst.dist[:, ordered], axis=1)  # first minimum: lowest center index
    assign = ordered[best]
    assign[ordered] = ordered
    return assign
