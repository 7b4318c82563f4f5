"""The five k-center solvers: color-blind Gonzalez, ALG-GF, ALG-DS, and the
two post-processing pipelines that upgrade a one-constraint solution into one
satisfying both constraint families."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    DSBounds,
    FractionalAssignment,
    GFBounds,
    InfeasibleError,
    Instance,
    Solution,
    nearest_center_assignment,
)
from .divide import divide
from .flow import max_flow_gf
from .lp import (
    NumericFailure,
    build_assignment_lp,
    nearest_admissible_start,
    solve_feasibility,
)

TOL = 1e-9


class InfeasibleQuota(InfeasibleError):
    """Some color has fewer points than its required center count."""


class QuotaUnreachable(InfeasibleError):
    """No cluster can supply a fresh point of a color that is still short."""


class MissingColorInCluster(InfeasibleError):
    """A cluster lacks a color the cover pass needs; the input solution does
    not meet the every-color-in-every-cluster precondition."""


def gonzalez(inst: Instance, k: int, seed: Optional[int] = None) -> Solution:
    """Farthest-point-first center selection with nearest-center assignment.

    The first center is point 0 unless a seed picks one at random.  Ties in
    the farthest-point step go to the lowest index.
    """
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    if seed is None:
        first = 0
    else:
        first = int(np.random.default_rng(seed).integers(inst.n))
    centers = [first]
    mind = inst.dist[first].copy()
    mind[first] = -1.0  # chosen points never re-enter (coinciding points)
    while len(centers) < k:
        nxt = int(np.argmax(mind))
        centers.append(nxt)
        np.minimum(mind, inst.dist[nxt], out=mind)
        mind[nxt] = -1.0
    return Solution(
        centers=tuple(centers), assign=nearest_center_assignment(inst, centers)
    )


def _global_proportions_ok(inst: Instance, gfb: GFBounds) -> bool:
    r = inst.color_counts() / inst.n
    return bool(
        np.all(r >= gfb.beta - TOL) and np.all(r <= gfb.alpha + TOL)
    )


def assignment_gf(
    inst: Instance, S: Sequence[int], gfb: GFBounds
) -> Tuple[Solution, float]:
    """Fairly assign all points to the fixed centers S at the smallest radius.

    Gallops and then bisects the sorted center-to-point distances for the
    smallest R whose assignment LP is feasible, then rounds the fractional
    solution to an integral assignment (additive violation at most 2, radius
    unchanged).

    Each probe decides feasibility on the class-aggregated LP, whose verdict
    equals the point-level one (see `build_assignment_lp`) at a fraction of
    its size.  Its solution is not spread back over the points: that gives a
    different fractional vertex, and the rounding would then return another
    assignment.  So the point-level LP is solved once, at the radius found,
    from the same nearest-center start as before.

    When that start already satisfies every row, the solve returns it as is
    and the fractional assignment is integral.  The rounding then has a
    single candidate flow, the assignment itself, and returns it after
    checking its counts against the floor/ceiling windows rather than
    running the network (see `fairkc.flow`); the result is the same.

    Raises InfeasibleError when even the largest radius fails, i.e. when the
    global color proportions fall outside the bounds, and NumericFailure when
    the point-level LP rejects the radius the aggregated one accepted.
    """
    S = [int(i) for i in S]
    if not S:
        raise ValueError("need at least one center")
    if not _global_proportions_ok(inst, gfb):
        raise InfeasibleError("global color proportions violate the bounds")

    if len(S) == 1:
        c = S[0]
        assign = np.full(inst.n, c, dtype=int)
        return Solution(centers=(c,), assign=assign), float(inst.dist[c].max())

    cands = np.unique(inst.dist[S, :])
    # No radius below the covering radius can assign every point.
    r_cover = float(inst.dist[S, :].min(axis=0).max())
    start = int(np.searchsorted(cands, r_cover - TOL))

    def solve(R: float, aggregate: bool):
        lp, pairs = build_assignment_lp(inst, S, R, gfb, aggregate=aggregate)
        return pairs, solve_feasibility(
            lp, start_at_upper=nearest_admissible_start(inst, pairs)
        )

    def feasible(idx: int) -> bool:
        return solve(float(cands[idx]), aggregate=True)[1] is not None

    last = len(cands) - 1
    lo, hi = start, None
    step = 1
    probe = start
    while True:  # gallop upward to bracket the threshold
        if feasible(probe):
            hi = probe
            break
        lo = probe + 1
        if probe == last:
            raise InfeasibleError("assignment LP infeasible at every radius")
        probe = min(probe + step, last)
        step *= 2
    while lo < hi:  # smallest feasible index in (lo-1, hi]
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1

    R = float(cands[hi])
    pairs, x = solve(R, aggregate=False)
    if x is None:
        raise NumericFailure(
            f"point-level LP infeasible at radius {R}; the aggregated LP is feasible"
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

    At each step the farthest point whose color is still pickable is chosen;
    a color is pickable while its upper bound has room and picking it leaves
    enough slots to finish every lower bound.  Assignment is nearest-center,
    so every center is active and the DS violation is 0.
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

    chosen = []
    taken = np.zeros(inst.n, dtype=bool)
    counts = np.zeros(dsb.m, dtype=int)

    def pickable_points() -> list:
        """Untaken points whose color has room and leaves enough slots."""
        need = np.maximum(dsb.k_lo - counts, 0).sum() - (counts < dsb.k_lo)
        ok = (counts < dsb.k_hi) & (need <= k - len(chosen) - 1)
        return np.flatnonzero(ok[inst.colors] & ~taken).tolist()

    def best_candidate(score) -> int:
        best = -1
        for p in pickable_points():
            if best < 0 or score[p] > score[best] + TOL:
                best = p
        return best

    okay = pickable_points()
    if seed is None:
        first = okay[0] if okay else -1
    else:
        rng = np.random.default_rng(seed)
        first = okay[int(rng.integers(len(okay)))] if okay else -1
    if first < 0:
        raise InfeasibleQuota("no color is pickable at the start")
    chosen.append(first)
    taken[first] = True
    counts[inst.colors[first]] += 1
    mind = inst.dist[first].copy()

    while len(chosen) < k:
        nxt = best_candidate(mind)
        if nxt < 0:
            break  # every remaining color is at its upper bound
        chosen.append(nxt)
        taken[nxt] = True
        counts[inst.colors[nxt]] += 1
        np.minimum(mind, inst.dist[nxt], out=mind)

    if np.any(counts < dsb.k_lo):
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

    Runs the fair assignment over the DS centers, drops centers that end up
    with empty clusters, then re-opens centers inside existing clusters for
    any color that fell below its lower bound, splitting those clusters.
    """
    sol_a, _ = assignment_gf(inst, ds_sol.centers, gfb)
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
