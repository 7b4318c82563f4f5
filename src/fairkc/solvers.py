"""The five k-center solvers: color-blind Gonzalez, ALG-GF, ALG-DS, and the
two post-processing pipelines that upgrade a one-constraint solution into one
satisfying both constraint families."""

from __future__ import annotations

import operator
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    TOL,
    DSBounds,
    FractionalAssignment,
    GFBounds,
    InfeasibleError,
    Instance,
    Solution,
    nearest_center_assignment,
    nearest_positions,
)
from .divide import divide
from .flow import max_flow_gf
from .lp import (
    NumericFailure,
    build_assignment_lp,
    dead_center_radius,
    first_feasible_step,
    forced_mass_rejects,
    nearest_admissible_start,
    nearest_start_clears,
    solve_feasibility,
)


class InfeasibleQuota(InfeasibleError):
    """Some color has fewer points than its required center count."""


class QuotaUnreachable(InfeasibleError):
    """No cluster can supply a fresh point of a color that is still short."""


class MissingColorInCluster(InfeasibleError):
    """A cluster lacks a color the cover pass needs; the input solution does
    not meet the every-color-in-every-cluster precondition."""


def _farthest_first(inst: Instance, k: int, seed: Optional[int], room) -> list:
    """Up to k farthest-point-first centers among the points `room` allows.

    `room(counts, picks_left)` says per color whether a point of it may be
    picked, given the centers of each color so far and the picks left.  The
    first center is the first allowed point, or a random one with a seed;
    each later one is the allowed point farthest from the centers so far,
    the lowest index among equal distances.  Stops early when no untaken
    point is allowed.
    """
    taken = np.zeros(inst.n, dtype=bool)
    counts = np.zeros(inst.m, dtype=int)
    mind = np.full(inst.n, np.inf)  # all equal until the first pick
    centers = []
    while len(centers) < k:
        allowed = np.flatnonzero(~taken & room(counts, k - len(centers))[inst.colors])
        if allowed.size == 0:
            break
        if centers or seed is None:
            nxt = int(allowed[np.argmax(mind[allowed])])
        else:
            nxt = int(allowed[np.random.default_rng(seed).integers(allowed.size)])
        centers.append(nxt)
        taken[nxt] = True
        counts[inst.colors[nxt]] += 1
        np.minimum(mind, inst.dist[nxt], out=mind)
    return centers


def gonzalez(inst: Instance, k: int, seed: Optional[int] = None) -> Solution:
    """Farthest-point-first center selection with nearest-center assignment.

    The first center is point 0 unless a seed picks one at random.  Ties in
    the farthest-point step go to the lowest index.  A k that is not an
    integer is a TypeError.
    """
    k = operator.index(k)
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    every = np.ones(inst.m, dtype=bool)
    centers = _farthest_first(inst, k, seed, lambda counts, picks_left: every)
    return Solution(
        centers=tuple(centers), assign=nearest_center_assignment(inst, centers)
    )


def _global_proportions_ok(inst: Instance, gfb: GFBounds) -> bool:
    r = inst.color_counts() / inst.n
    return bool(
        np.all(r >= gfb.beta - TOL) and np.all(r <= gfb.alpha + TOL)
    )


def _first_let_through(rejects, lo: int, last: int) -> int:
    """The first index in [lo, last] that `rejects` lets through, else last + 1.

    rejects(i) must be monotone: once it lets an index through, it lets
    every later one through.  Gallops upward from lo, then bisects.
    """
    probe, step = lo, 1
    while rejects(probe):
        if probe == last:
            return last + 1
        lo, probe, step = probe + 1, min(probe + step, last), 2 * step
    hi = probe
    while lo < hi:
        mid = (lo + hi) // 2
        if rejects(mid):
            lo = mid + 1
        else:
            hi = mid
    return hi


def assignment_gf(
    inst: Instance, S: Sequence[int], gfb: GFBounds
) -> Tuple[Solution, float]:
    """Fairly assign all points to the fixed centers S at the smallest radius.

    Finds the smallest R among the sorted center-to-point distances whose
    assignment LP is feasible, then rounds the fractional solution to an
    integral assignment (additive violation at most 2, radius unchanged).
    The search has three stages, for one center too, which gets every point
    at its largest distance:

    1. Two screens give the boundary without building an LP, and each
       rejects only radii whose LP the solver rejects too.
       `dead_center_radius` gives in closed form the radius below which
       some point admits only dead centers, never below the covering
       radius; the smallest candidate at or above it is the first one left.
       From there, the boundary is the first candidate that
       `forced_mass_rejects` lets through: it is tried at that candidate
       first and, only when it rejects it, galloped and bisected upward,
       as its verdict is monotone in R.
    2. The nearest-center start (`nearest_positions`: each point on its
       nearest center, which every radius from the covering one up admits)
       is checked at the boundary (`nearest_start_clears`).  It clears only
       where `solve_feasibility` would return it as it is, and the rounding
       returns an integral input as it is, its one candidate flow; so the
       search returns it without building the LP or the rounding network.
    3. Otherwise the point-level LP is solved at the boundary, from that
       start.  Most searches end here: if it is feasible the boundary is the
       threshold, and its vertex is the fractional assignment the rounding
       needs, so the search makes one build and one solve.  Otherwise one
       point LP, built at the top of a window of candidates from the
       boundary up, is walked upward with `lp.first_feasible_step`: the pairs
       beyond the current radius are frozen at 0, and each time phase 1
       stops infeasible the next radius's pairs are admitted and pivoting
       goes on from the same tableau.  The window reaches n candidates above
       the boundary, n the number of points, since every pair it holds
       widens each pivot; a walk that passes its top goes on from the next
       candidate in a window twice as wide.  The point LP is then solved
       from scratch at the radius the walk stops at, so the rounding gets
       the vertex a point solve gives; every such vertex, an integral one
       too, goes through the rounding network (see `fairkc.flow`).

    Raises TypeError when a center id is not an integer (`operator.index`),
    ValueError when S is empty, lists a center twice or names one outside
    [0, n), or when gfb bounds another number of colors than the instance
    has, and InfeasibleError when even the largest radius fails, i.e.
    when the global color proportions fall outside the bounds or the
    screens reject every radius.  Raises NumericFailure when the point-level
    LP rejects the radius the walk accepted, the boundary included, or when
    the walk finds no radius feasible: with the global proportions within
    the bounds, the largest radius is feasible, since every point may go
    to one center.
    """
    S = [operator.index(i) for i in S]
    if not S:
        raise ValueError("need at least one center")
    if len(set(S)) < len(S):
        raise ValueError("duplicate centers")
    if not all(0 <= i < inst.n for i in S):
        raise ValueError("center id outside [0, n)")
    if gfb.m != inst.m:
        raise ValueError("the bounds and the instance differ in their number of colors")
    if not _global_proportions_ok(inst, gfb):
        raise InfeasibleError("global color proportions violate the bounds")

    dist_S = inst.dist[S]
    cands = np.unique(dist_S)  # cands[i] admits d when searchsorted(cands, d) <= i
    # V is an entry of dist_S, as every color has a point, so boundary <= last
    boundary = int(np.searchsorted(cands, dead_center_radius(dist_S, inst.colors, gfb)))
    last = len(cands) - 1
    boundary = _first_let_through(
        lambda i: forced_mass_rejects(dist_S, inst.colors, float(cands[i]), gfb),
        boundary,
        last,
    )
    if boundary > last:
        raise InfeasibleError("assignment LP infeasible at every radius")
    near, R = nearest_positions(S, dist_S), float(cands[boundary])
    if nearest_start_clears(dist_S, near, inst.colors, R, gfb):
        return Solution(centers=tuple(S), assign=np.asarray(S)[near]), R

    def solve(idx: int):
        lp, pairs = build_assignment_lp(inst, S, float(cands[idx]), gfb)
        return pairs, solve_feasibility(
            lp, start_at_upper=nearest_admissible_start(inst, pairs)
        )

    def walk(lo: int) -> int:
        """The first candidate from lo whose point LP phase 1 finds feasible."""
        width = inst.n
        while True:
            top = min(last, lo + width)
            lp, pairs = build_assignment_lp(inst, S, float(cands[top]), gfb)
            first = np.searchsorted(cands, inst.dist[pairs[:, 0], pairs[:, 1]])
            step = first_feasible_step(
                lp, np.maximum(first - lo, 0), nearest_admissible_start(inst, pairs)
            )
            if step is not None:
                return lo + step
            if top == last:
                raise NumericFailure(
                    "phase 1 found the assignment LP infeasible at every radius, "
                    "although the global proportions meet the bounds"
                )
            lo, width = top + 1, 2 * width

    idx = boundary
    pairs, x = solve(idx)
    if x is None:
        idx = walk(boundary)
        pairs, x = solve(idx)
    R = float(cands[idx])
    if x is None:
        raise NumericFailure(
            f"point-level LP infeasible at radius {R}, where the walk found it feasible"
        )
    frac = FractionalAssignment(n=inst.n, pairs=pairs, values=x)
    assign = max_flow_gf(frac, inst, S)
    return Solution(centers=tuple(S), assign=assign), R


def alg_gf(
    inst: Instance, k: int, gfb: GFBounds, seed: Optional[int] = None
) -> Solution:
    """Gonzalez centers plus the fair assignment step (GF violation <= 2)."""
    base = gonzalez(inst, k, seed=seed)
    sol, _ = assignment_gf(inst, base.centers, gfb)
    return sol


def alg_ds(inst: Instance, dsb: DSBounds, seed: Optional[int] = None) -> Solution:
    """Quota-constrained farthest-point-first center selection.

    `gonzalez`'s traversal over the pickable colors only (ties to the lowest
    index): a color is pickable while its upper bound has room and picking
    it leaves enough slots to finish every lower bound.  Assignment is
    nearest-center, so every center is active and the DS violation is 0.
    """
    k = dsb.k
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    counts_avail = inst.color_counts()
    for h in range(dsb.m):
        if counts_avail[h] < dsb.k_lo[h]:
            raise InfeasibleQuota(
                f"color {h} has {counts_avail[h]} points, needs {dsb.k_lo[h]} centers"
            )

    def room(counts, picks_left):
        """Colors whose upper bound has room and that leave enough slots."""
        need = np.maximum(dsb.k_lo - counts, 0).sum() - (counts < dsb.k_lo)
        return (counts < dsb.k_hi) & (need <= picks_left - 1)

    chosen = _farthest_first(inst, k, seed, room)
    if not chosen:
        raise InfeasibleQuota("no color is pickable at the start")
    if np.any(np.bincount(inst.colors[chosen], minlength=dsb.m) < dsb.k_lo):
        raise QuotaUnreachable("greedy selection ended below a lower bound")
    return Solution(
        centers=tuple(chosen), assign=nearest_center_assignment(inst, chosen)
    )


def _pick_repair_cluster(clusters, Q, h0, colors, picked):
    """(cluster id, point) for a fresh point of color h0: largest cluster
    first, then lowest id.

    A cluster already holding as many picks as points is skipped: its anchor
    may sit outside it, and one more pick would leave `divide` more
    sub-centers than points.
    """
    best = None
    for i, members in clusters.items():
        if len(Q[i]) >= len(members):
            continue
        fresh = [p for p in members if colors[p] == h0 and p not in picked]
        if not fresh:
            continue
        key = (-len(members), i)
        if best is None or key < best[0]:
            best = (key, i, min(fresh))
    return None if best is None else best[1:]


def _repair_and_split(inst, dsb, clusters, Q, picked, s_counts) -> Solution:
    """Fill every color's center lower bound, then split each cluster.

    `clusters` maps each active center to its points and `Q` to the centers
    picked for it so far; `picked` holds every pick and `s_counts` their
    colors.  While a color is short, the next pick is a fresh point of it
    from `_pick_repair_cluster`.  Then `divide` deals each cluster among its
    picks.
    """
    while True:
        short = [h for h in range(dsb.m) if s_counts[h] < dsb.k_lo[h]]
        if not short:
            break
        h0 = short[0]
        found = _pick_repair_cluster(clusters, Q, h0, inst.colors, picked)
        if found is None:
            raise QuotaUnreachable(
                f"no cluster holds an unused point of color {h0}"
            )
        i, p = found
        Q[i].append(p)
        picked.add(p)
        s_counts[h0] += 1

    if sum(len(q) for q in Q.values()) > dsb.k:
        raise InfeasibleError("center picks exceeded the budget k")

    assign = np.empty(inst.n, dtype=int)
    centers = []
    for i, members in clusters.items():
        centers.extend(Q[i])
        for p, q in divide(inst, members, i, Q[i]).items():
            assign[p] = q
    return Solution(centers=tuple(centers), assign=assign)


def ds_to_gfds(
    inst: Instance, ds_sol: Solution, gfb: GFBounds, dsb: DSBounds
) -> Solution:
    """Post-process a DS solution to satisfy GF (violation <= 3) as well.

    Runs the fair assignment over the DS centers, then `repair_quotas` on
    it.  When the DS centers are Gonzalez's, in the same order, that
    assignment is `alg_gf`'s, and `harness.run_experiment` reuses `alg_gf`'s
    outcome instead of running it again, charging its time to this step.
    """
    sol_a, _ = assignment_gf(inst, ds_sol.centers, gfb)
    return repair_quotas(inst, sol_a, dsb)


def repair_quotas(inst: Instance, sol_a: Solution, dsb: DSBounds) -> Solution:
    """The second half of `ds_to_gfds`, given its fair assignment `sol_a`.

    Drops centers that end up with empty clusters, then re-opens centers
    inside existing clusters for any color that fell below its lower bound,
    splitting those clusters.
    """
    active = list(sol_a.active_centers())
    clusters = {i: [int(p) for p in sol_a.cluster_of(i)] for i in active}
    s_counts = np.bincount(inst.colors[active], minlength=dsb.m)
    Q = {i: [i] for i in active}
    return _repair_and_split(inst, dsb, clusters, Q, set(active), s_counts)


def gf_to_gfds(
    inst: Instance, gf_sol: Solution, gfb: GFBounds, dsb: DSBounds
) -> Solution:
    """Post-process a GF solution to satisfy DS as well (GF violation <= 2,
    cost at most doubled; if the input uses exactly k clusters the split is
    trivial and the violation is unchanged).

    Every input cluster must contain at least one point of each color, which
    holds whenever the input satisfies GF exactly with positive lower bounds.
    """
    active = list(gf_sol.active_centers())
    k_bar = len(active)
    if k_bar > dsb.k:
        raise ValueError("input solution uses more than k active clusters")
    if int(dsb.k_hi.sum()) < k_bar:
        raise InfeasibleError("DS upper bounds cannot cover every cluster")
    clusters = {i: [int(p) for p in gf_sol.cluster_of(i)] for i in active}

    s_counts = np.zeros(dsb.m, dtype=int)
    Q = {}
    picked = set()

    for i in active:  # cover pass: one future center per cluster
        short = [h for h in range(dsb.m) if s_counts[h] < dsb.k_lo[h]]
        if short:
            h0 = short[0]
        else:
            h0 = next(
                h for h in range(dsb.m) if s_counts[h] + 1 <= dsb.k_hi[h]
            )
        pts = [p for p in clusters[i] if inst.colors[p] == h0]
        if not pts:
            raise MissingColorInCluster(
                f"cluster of center {i} has no point of color {h0}"
            )
        p = min(pts)
        Q[i] = [p]
        picked.add(p)
        s_counts[h0] += 1

    return _repair_and_split(inst, dsb, clusters, Q, picked, s_counts)
