"""Auditors for distance-based fairness notions.

These never optimize; they report the smallest parameter under which a given
solution satisfies each notion (infinity when no finite parameter works).
Ratios of 0/0 are fixed to 1 throughout, matching the convention the
incompatibility arguments rely on.

Every n-by-n pass reads `dist` in slices of ROW_BLOCK rows, so no audit
copies the matrix.  Both ratio audits come from one such pass,
`_ratio_audits`, which compares each entry once against a shared threshold
and then re-checks the rows that pass with each audit's own exact filter.
Their results keep the bits of a pass that divides every entry, for any
matrix `Instance` accepts, by these facts:

- Every matrix this package builds is exactly symmetric: the Euclidean
  builder sums the same squares in the same order for d(i, j) and d(j, i).
  So row y holds the bits of the column d(., y), and each proportionality
  ratio is the same division as in a pass over columns.  A matrix read from
  a file is only checked to be symmetric within TOL; there the row and the
  column may differ by that much.
- The exact filter, `_rows_to_check`.  A row's t-th largest ratio can
  exceed the running maximum `worst` only if at least t of its ratios do,
  and a ratio a / e can exceed it only if e <= c = fl(max(a, 0) / worst).
  Division is correctly rounded, hence monotone: fl(a / e) > worst needs
  a / e > worst, so e < a / worst, and e, being a float below a / worst,
  is at most its rounding c.  A distance e <= 0 is at most c >= 0 too,
  which covers both x/0 -> inf and 0/0 -> 1.  No triangle inequality is
  assumed.  In `min_alpha_nr` point j has the one ratio d_j / NR(j), and
  NR(j), the t-th smallest entry of row j, is at most c_j exactly when row
  j has t entries e <= c_j.  Rows with fewer than t entries e <= c cannot
  raise the maximum, and a maximum does not depend on the order it is
  taken in.  Where c is undefined (worst <= 0, or inf / inf) every entry
  passes, so an inf / inf ratio, which is NaN, still reaches
  `min_alpha_nr`'s maximum.
- The shared prefilter.  Each block is compared once, entry by entry,
  against the row vector c_i = fl(fl(max(d_i, 0) / lo) + 2 TOL), where lo
  is the smaller of `min_alpha_nr`'s seed and proportionality's running
  maximum, and c_i = inf where lo is NaN or lo <= 0.  Division and
  rounding are monotone, so c_i is at least either audit's own exact bound
  for i.  Proportionality: a row with at least t entries under its exact
  bounds has as many under c, so its candidates, the rows with t entries
  under c, include every row its exact filter keeps; re-checked with
  `_rows_to_check` at its own maximum they give the same rows of each block
  as a pass with that filter alone, and the same `raised` step in the same
  blocks.  NR: the exact filter counts row j against c_j, but the shared
  compare gives column sums, the entries d(y, j) <= c_j.  `Instance` takes
  a matrix only if each fl(|d(y, j) - d(j, y)|) <= TOL, so d(y, j) <
  d(j, y) + 2 TOL in exact arithmetic; then d(j, y) <= fl(max(d_j, 0) /
  seed) <= fl(max(d_j, 0) / lo) gives d(y, j) <= c_j, as d(y, j) is a
  float and rounding is monotone.  So column j counts at least as many
  entries as row j under the seed's exact filter, and the rows whose
  column count reaches t include every row that filter keeps; they are
  re-checked with it at the seed, ROW_BLOCK rows at a time.  A NaN ratio
  needs d_j = inf, where c_j = inf.
"""

from __future__ import annotations

import numpy as np

from .core import ROW_BLOCK, TOL, Instance, Solution, row_blocks

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
    return float(np.partition(inst.dist[j], t - 1)[t - 1])  # j itself counts at distance 0


def _assignment_distances(inst: Instance, sol: Solution) -> np.ndarray:
    """d(j, phi(j)) for every point j, once sol is checked to fit inst."""
    if sol.n != inst.n:
        raise ValueError(f"solution assigns {sol.n} points, instance has {inst.n}")
    return inst.dist[np.arange(inst.n), sol.assign]


def _bounds(num, worst) -> np.ndarray:
    """c = fl(max(num, 0) / worst): num / e > worst only where e <= c (see the
    module docstring).  c is infinite where worst <= 0, worst is NaN or the
    quotient is NaN."""
    with np.errstate(all="ignore"):  # a quotient past the float range is inf, still a bound
        c = np.maximum(num, 0.0) / max(0.0, worst)  # 0.0, not -0.0, when worst <= 0 or NaN
    c[np.isnan(c)] = INF
    return c


def _rows_to_check(block, num, worst, t: int, mask: np.ndarray) -> np.ndarray:
    """Indices of the rows of block with at least t entries e <= c, where
    c = _bounds(num, worst) broadcast against block.  mask is a bool scratch
    array of at least block's shape, reused across calls."""
    below = np.less_equal(block, _bounds(num, worst), out=mask[: block.shape[0], : block.shape[1]])
    return np.flatnonzero(below.view(np.uint8).sum(axis=1, dtype=np.uint32) >= t)


def _scratch(rows: int, n: int) -> np.ndarray:
    """A False bool array of rows x n, widened to whole 8-byte words for
    _row_counts; writers fill only its first n columns."""
    return np.zeros((rows, -(-n // 8) * 8), dtype=bool)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The True entries of each row of a C-contiguous bool mask from _scratch.

    Eight entries are added at a time, as the byte lanes of one uint64 word.
    A lane holds at most 255, so a row's words are summed 255 at a time and
    the lanes of those sums added last.
    """
    words = mask.view(np.uint64)
    lanes = np.add.reduceat(words, np.arange(0, words.shape[1], 255), axis=1)
    return lanes.view(np.uint8).sum(axis=1, dtype=np.int64)


def _ratio_audits(inst: Instance, d: np.ndarray, k: int) -> tuple[float, float]:
    """(min_alpha_nr, min_alpha_proportional) for the assignment distances d,
    from one pass over dist that compares each entry once (see the module
    docstring)."""
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    n, dist = inst.n, inst.dist
    t = population_threshold(n, k)
    longest = np.argsort(d)[-SEED_ROWS:]
    mask = _scratch(ROW_BLOCK, n)

    def nr_ratios(points):
        nr = np.partition(dist[points], t - 1, axis=1)[:, t - 1]  # NR(j)
        spread = nr > 0.0
        dj = d[points]
        # past the float range a ratio is inf, and inf / inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(spread, dj / np.where(spread, nr, 1.0), np.where(dj == 0.0, 1.0, INF))

    at_zero = np.where(d > 0.0, INF, 1.0)  # the proportionality ratio where d(i, y) = 0

    def raised(points, worst):
        """worst, or the largest proportionality value of a row dist[y], y in
        points, if that is larger.  The rows of points are dropped before the
        rows that pass the filter are gathered, so one copy lives at a time."""
        dy = dist[points[_rows_to_check(dist[points], d, worst, t, mask)]]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = d / dy  # entries with dy <= 0 are overwritten next
        np.copyto(ratios, at_zero, where=dy <= 0.0)
        live = ratios[np.count_nonzero(ratios > worst, axis=1) >= t]  # a copy
        if live.shape[0]:
            live.partition(n - t, axis=1)
            worst = max(worst, float(live[:, n - t].max()))
        return worst

    nr_seed = nr_ratios(longest).max()
    # unseeded where an assignment is infinite (see min_alpha_proportional)
    prop = raised(longest, 0.0) if np.isfinite(d).all() else 0.0
    column_counts = np.zeros(n, dtype=np.int64)
    shared_at = None  # the prop the shared threshold was made for
    for rows in row_blocks(n):
        if shared_at != prop:  # np.minimum, unlike min, keeps a NaN seed in either order
            shared, shared_at = _bounds(d, np.minimum(nr_seed, prop)) + 2.0 * TOL, prop
        below = mask[: rows.stop - rows.start]
        np.less_equal(dist[rows], shared, out=below[:, :n])
        # exact in uint8: a block has ROW_BLOCK <= 255 rows
        column_counts += below.view(np.uint8).sum(axis=0, dtype=np.uint8)[:n]
        if prop < INF:
            candidates = rows.start + np.flatnonzero(_row_counts(below) >= t)
            if candidates.size:
                prop = raised(candidates, prop)
    nr = nr_seed
    candidates = np.flatnonzero(column_counts >= t)
    for start in range(0, candidates.size, ROW_BLOCK):
        points = candidates[start : start + ROW_BLOCK]
        points = points[_rows_to_check(dist[points], d[points, None], nr_seed, t, mask)]
        nr = np.max(nr_ratios(points), initial=nr)
    return float(nr), prop


def min_alpha_nr(inst: Instance, sol: Solution, k: int) -> float:
    """Smallest alpha with d(j, phi(j)) <= alpha * NR(j) for every point.

    The ratio is taken exactly for the SEED_ROWS longest assignments first,
    then only for the points whose NR(j) is small enough to beat that seed
    (see the module docstring).
    """
    return _ratio_audits(inst, _assignment_distances(inst, sol), k)[0]


def socially_fair_cost(inst: Instance, sol: Solution, p: int = 1) -> float:
    """Largest group-averaged p-th power assignment distance."""
    return _socially_fair_cost(inst, _assignment_distances(inst, sol), p)


def _socially_fair_cost(inst: Instance, d: np.ndarray, p: int) -> float:
    if p < 1:
        raise ValueError("exponent p must be at least 1")
    d = d**p
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
    return _ratio_audits(inst, _assignment_distances(inst, sol), k)[1]


def audit_all(inst: Instance, sol: Solution, k: int, p: int = 1) -> dict:
    """The three audits of sol, from one read of its assignment distances
    and one pass over dist for both ratio audits."""
    d = _assignment_distances(inst, sol)
    nr, prop = _ratio_audits(inst, d, k)
    return {
        "min_alpha_nr": nr,
        "socially_fair_cost": _socially_fair_cost(inst, d, p),
        "min_alpha_proportional": prop,
    }
