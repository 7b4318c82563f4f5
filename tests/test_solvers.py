import importlib.util
import itertools
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import dead_centers_reject, random_instance, wide_bounds
from fairkc import solvers
from fairkc.core import (
    TOL,
    DSBounds,
    ExperimentConfig,
    FractionalAssignment,
    GFBounds,
    InfeasibleError,
    Instance,
    Solution,
    cost,
    ds_violation,
    euclidean_distances,
    gf_violation,
)
from fairkc.flow import max_flow_gf
from fairkc.harness import load_instance, run_experiment
from fairkc.instances import gen_l_community, gen_random
from fairkc.lp import (
    FEAS_TOL,
    NumericFailure,
    _start_clears,
    build_assignment_lp,
    dead_center_radius,
    first_feasible_step,
    forced_mass_bounds,
    forced_mass_rejects,
    nearest_admissible_start,
    nearest_positions,
    nearest_start_clears,
    solve_feasibility,
)
from fairkc.solvers import (
    InfeasibleQuota,
    MissingColorInCluster,
    alg_ds,
    alg_gf,
    assignment_gf,
    ds_to_gfds,
    gf_to_gfds,
    gonzalez,
)


class TestGonzalez:
    def test_non_integer_k_rejected(self):
        # 2.5 used to pick three centers: the loop ran while fewer than 2.5
        inst = gen_random(12, 2, 2, [0.5, 0.5], seed=1)
        for k in (2.5, 3.0, np.float64(2.0), "2"):
            with pytest.raises(TypeError):
                gonzalez(inst, k)
        assert len(gonzalez(inst, np.int64(3)).centers) == 3

    def test_k_equals_n_costs_zero(self, rng):
        inst = random_instance(rng, n=9, m=2)
        assert cost(inst, gonzalez(inst, inst.n)) == 0.0

    def test_community_instance_zero_cost(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        sol = gonzalez(inst, 2)
        assert cost(inst, sol) == 0.0

    def test_two_approximation_on_collinear_points(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        dist = np.abs(xs[:, None] - xs[None, :])
        inst = Instance(dist=dist, colors=[0, 1, 0, 1, 0], m=2)
        sol = gonzalez(inst, 2)
        # brute-force optimum over center pairs with nearest assignment
        opt = min(
            max(min(dist[i, j], dist[k, j]) for j in range(5))
            for i, k in itertools.combinations(range(5), 2)
        )
        assert opt == 1.0
        assert cost(inst, sol) <= 2.0 * opt

    def test_two_approximation_randomized(self, rng):
        for _ in range(30):
            inst = random_instance(rng, n=int(rng.integers(5, 14)), m=2)
            k = int(rng.integers(1, 4))
            sol = gonzalez(inst, k)
            opt = min(
                inst.dist[list(S), :].min(axis=0).max()
                for S in itertools.combinations(range(inst.n), k)
            )
            assert cost(inst, sol) <= 2.0 * opt + 1e-9

    def test_seeded_start_still_assigns_everyone(self, rng):
        inst = random_instance(rng, n=10, m=2)
        sol = gonzalez(inst, 3, seed=99)
        assert len(sol.centers) == 3
        assert set(sol.assign) <= set(sol.centers)


class TestAssignmentGF:
    def test_balanced_pairs_radius_zero(self):
        dist = np.array(
            [
                [0.0, 0.0, 2.0, 2.0],
                [0.0, 0.0, 2.0, 2.0],
                [2.0, 2.0, 0.0, 0.0],
                [2.0, 2.0, 0.0, 0.0],
            ]
        )
        inst = Instance(dist=dist, colors=[0, 1, 0, 1], m=2)
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        sol, R = assignment_gf(inst, [0, 2], gfb)
        assert R == 0.0 and cost(inst, sol) == 0.0
        assert gf_violation(inst, gfb, sol) == 0.0

    @pytest.mark.parametrize("delta", [0.0, 1e-6, 0.2, 1.0 - 1e-6])
    @pytest.mark.parametrize("grid", [False, True])
    def test_single_center_forced_assignment(self, delta, grid):
        # one center goes through the general search: every point on it, at
        # exactly its largest distance; on a 3 x 3 integer grid many points
        # coincide and many distances tie
        rng = np.random.default_rng(int(grid))
        for _ in range(25):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m, 25))
            props = rng.dirichlet(np.ones(m))
            inst = gen_random(n, m, 2, props / props.sum(), seed=int(rng.integers(2**31)))
            if grid:
                pts = rng.integers(0, 3, size=(n, 2))
                inst = Instance(dist=euclidean_distances(pts), colors=inst.colors, m=m)
            gfb = ExperimentConfig(k_values=(1,), delta=delta).gf_bounds(inst)
            r = inst.color_counts() / n
            assert np.all(gfb.beta <= r) and np.all(r <= gfb.alpha)  # so no InfeasibleError
            c = int(rng.integers(n))
            sol, R = assignment_gf(inst, [c], gfb)
            assert R == inst.dist[c].max()
            assert sol.centers == (c,) and np.all(sol.assign == c)
            assert gf_violation(inst, gfb, sol) == 0.0

    def test_single_center_infeasible_when_globals_outside(self):
        inst = Instance(dist=np.zeros((4, 4)), colors=[0, 0, 0, 1], m=2)
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        with pytest.raises(InfeasibleError):
            assignment_gf(inst, [0], gfb)

    def test_repeated_center_rejected_before_the_global_check(self):
        inst = Instance(dist=np.zeros((4, 4)), colors=[0, 1, 0, 1], m=2)
        fair = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        off = GFBounds(beta=[0.6, 0.1], alpha=[0.9, 0.4])  # the proportions break these
        with pytest.raises(InfeasibleError, match="global color proportions"):
            assignment_gf(inst, [0, 1], off)
        for S in ([1, 1], [0, 2, 0], [3, 2, 3, 3]):
            for gfb in (fair, off):  # S is checked first
                with pytest.raises(ValueError, match="duplicate centers"):
                    assignment_gf(inst, S, gfb)

    def test_center_id_past_the_last_point_rejected(self):
        inst = Instance(dist=np.zeros((4, 4)), colors=[0, 1, 0, 1], m=2)
        fair = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        off = GFBounds(beta=[0.6, 0.1], alpha=[0.9, 0.4])  # the proportions break these
        for S in ([0, 4], [9], [1, 2, 40]):
            for gfb in (fair, off):  # S is checked first
                with pytest.raises(ValueError, match=r"center id outside \[0, n\)"):
                    assignment_gf(inst, S, gfb)

    def test_bounds_for_another_color_count_rejected(self):
        one = Instance(dist=np.zeros((4, 4)), colors=[0, 0, 0, 0], m=1)
        two = Instance(dist=np.zeros((4, 4)), colors=[0, 1, 0, 1], m=2)
        for inst, gfb in (
            (one, GFBounds(beta=[0.5, 0.5], alpha=[1.0, 1.0])),
            (two, GFBounds(beta=[0.5], alpha=[1.0])),
        ):
            for S in ([0], [0, 1]):
                with pytest.raises(ValueError, match="number of colors"):
                    assignment_gf(inst, S, gfb)

    def test_negative_center_id_rejected(self):
        inst = Instance(dist=np.zeros((4, 4)), colors=[0, 1, 0, 1], m=2)
        fair = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        for S in ([0, -1], [-4], [np.int64(-2), 1]):
            with pytest.raises(ValueError, match=r"center id outside \[0, n\)"):
                assignment_gf(inst, S, fair)

    def test_non_integer_center_id_rejected(self):
        inst = gen_random(12, 2, 2, [0.5, 0.5], seed=1)
        gfb = ExperimentConfig(k_values=(2,), delta=0.5).gf_bounds(inst)
        for S in ([0, 9.7], [0, 9.0], [np.float64(3.0), 5], ["3", 5]):
            with pytest.raises(TypeError):
                assignment_gf(inst, S, gfb)
        sol, _ = assignment_gf(inst, [np.int64(0), np.int32(9)], gfb)  # numpy ints are ids
        assert sol.centers == (0, 9)

    def test_community_forces_gap_radius(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        sol, R = assignment_gf(inst, [0, 4], gfb)
        # brute-force radius sweep: R=0 keeps clusters pure, so mixing needs 1
        assert R == 1.0
        assert gf_violation(inst, gfb, sol) == 0.0

    def test_search_starts_at_the_covering_radius(self):
        # point 2's nearest center is 1.0 away; the candidate 0.9999999995
        # lies within TOL below that, and no center admits point 2 there
        dist = np.array(
            [
                [0.0, 0.9999999995, 4.0, 5.0],
                [0.9999999995, 0.0, 3.0, 4.0],
                [4.0, 3.0, 0.0, 1.0],
                [5.0, 4.0, 1.0, 0.0],
            ]
        )
        inst = Instance(dist=dist, colors=[0, 1, 0, 1], m=2)
        cfg = ExperimentConfig(k_values=(2,))
        sol, R = assignment_gf(inst, [0, 3], cfg.gf_bounds(inst))
        assert R == 1.0 and cost(inst, sol) == 1.0
        report = run_experiment(inst, cfg)
        assert [row.status for row in report.rows] == ["ok"] * 5

    def test_binary_search_matches_linear_scan(self, rng):
        from fairkc.lp import EmptyRow, build_assignment_lp, solve_feasibility

        for _ in range(10):
            inst = random_instance(rng, n=int(rng.integers(6, 14)), m=2)
            gfb = wide_bounds(inst, delta=0.7)
            S = sorted(rng.choice(inst.n, size=2, replace=False).tolist())
            sol, R = assignment_gf(inst, S, gfb)
            smallest = None
            for cand in np.unique(inst.dist[S, :]):
                try:
                    lp, _ = build_assignment_lp(inst, S, float(cand), gfb)
                except EmptyRow:
                    continue
                if solve_feasibility(lp) is not None:
                    smallest = float(cand)
                    break
            assert smallest == pytest.approx(R)

    def test_rounding_violation_at_most_two(self, rng):
        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(8, 30)), m=2)
            gfb = wide_bounds(inst)
            k = int(rng.integers(2, 5))
            S = sorted(rng.choice(inst.n, size=k, replace=False).tolist())
            sol, R = assignment_gf(inst, S, gfb)
            assert gf_violation(inst, gfb, sol) <= 2.0 + 1e-9
            assert cost(inst, sol) <= R + 1e-12


class TestAlgGF:
    def test_global_proportion_violation_is_infeasible(self):
        inst = Instance(dist=np.zeros((4, 4)), colors=[0, 0, 0, 1], m=2)
        gfb = GFBounds(beta=[0.4, 0.4], alpha=[0.6, 0.6])
        with pytest.raises(InfeasibleError):
            alg_gf(inst, 2, gfb)

    def test_balanced_instance_violation_bounded(self, rng):
        for _ in range(10):
            inst = gen_random(16, 2, 2, [0.5, 0.5], seed=int(rng.integers(2**31)))
            gfb = GFBounds(beta=[0.3, 0.3], alpha=[0.7, 0.7])
            sol = alg_gf(inst, 2, gfb)
            assert gf_violation(inst, gfb, sol) <= 2.0 + 1e-9

    def test_k_one_reports_global_violation(self, rng):
        inst = gen_random(12, 2, 2, [0.5, 0.5], seed=8)
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        sol = alg_gf(inst, 1, gfb)
        assert len(sol.active_centers()) == 1
        assert gf_violation(inst, gfb, sol) == 0.0  # 6/6 split is exactly fair


class TestAlgDS:
    def test_zero_quotas_match_gonzalez(self, rng):
        # on the near tie, point 2 is 5e-10 farther from point 0 than point 1 is
        near_tie = Instance(
            dist=[[0, 1, 1 + 5e-10], [1, 0, 1], [1 + 5e-10, 1, 0]], colors=[0, 1, 1], m=2
        )
        for inst, k in [(random_instance(rng, n=12, m=2), 3), (near_tie, 2)]:
            dsb = DSBounds(k_lo=[0, 0], k_hi=[k, k], k=k)
            assert alg_ds(inst, dsb).centers == gonzalez(inst, k).centers

    def test_quota_forces_one_of_each(self, rng):
        inst = random_instance(rng, n=10, m=2)
        dsb = DSBounds(k_lo=[1, 1], k_hi=[2, 2], k=2)
        sol = alg_ds(inst, dsb)
        picked = np.bincount(inst.colors[list(sol.centers)], minlength=2)
        assert picked.tolist() == [1, 1]
        assert ds_violation(sol, dsb, inst) == 0

    def test_ds_variant_leaves_a_community_uncovered(self):
        inst = gen_l_community(3, 4, 1.0, "ds-variant")
        dsb = DSBounds(k_lo=[1, 1, 1], k_hi=[3, 3, 3], k=3)
        sol = alg_ds(inst, dsb)
        assert ds_violation(sol, dsb, inst) == 0
        assert cost(inst, sol) >= 1.0

    def test_missing_color_quota_raises(self):
        inst = Instance(dist=np.zeros((3, 3)), colors=[0, 0, 1], m=2)
        dsb = DSBounds(k_lo=[1, 2], k_hi=[2, 2], k=3)
        with pytest.raises(InfeasibleQuota):
            alg_ds(inst, dsb)

    def test_upper_bounds_respected(self, rng):
        inst = random_instance(rng, n=14, m=2)
        dsb = DSBounds(k_lo=[0, 0], k_hi=[1, 1], k=4)
        sol = alg_ds(inst, dsb)
        picked = np.bincount(inst.colors[list(sol.centers)], minlength=2)
        assert np.all(picked <= 1)


def best_candidate_alg_ds(inst, dsb, seed=None):
    """ALG-DS's centers as selected before it shared `gonzalez`'s traversal:
    a Python walk over the pickable points that keeps the first point unless
    a later one is more than TOL farther.  Returns the centers, or the name
    of the error raised."""
    k = dsb.k
    if np.any(inst.color_counts() < dsb.k_lo):
        return "InfeasibleQuota"
    chosen = []
    taken = np.zeros(inst.n, dtype=bool)
    counts = np.zeros(dsb.m, dtype=int)

    def pickable_points():
        need = np.maximum(dsb.k_lo - counts, 0).sum() - (counts < dsb.k_lo)
        ok = (counts < dsb.k_hi) & (need <= k - len(chosen) - 1)
        return np.flatnonzero(ok[inst.colors] & ~taken).tolist()

    def best_candidate(score):
        best = -1
        for p in pickable_points():
            if best < 0 or score[p] > score[best] + TOL:
                best = p
        return best

    okay = pickable_points()
    if not okay:
        return "InfeasibleQuota"
    if seed is None:
        first = okay[0]
    else:
        first = okay[int(np.random.default_rng(seed).integers(len(okay)))]
    chosen.append(first)
    taken[first] = True
    counts[inst.colors[first]] += 1
    mind = inst.dist[first].copy()
    while len(chosen) < k:
        nxt = best_candidate(mind)
        if nxt < 0:
            break
        chosen.append(nxt)
        taken[nxt] = True
        counts[inst.colors[nxt]] += 1
        np.minimum(mind, inst.dist[nxt], out=mind)
    if np.any(counts < dsb.k_lo):
        return "QuotaUnreachable"
    return tuple(chosen)


def grid_instance(rng, n, m):
    """Points on a 4 x 4 integer grid: exact distance ties and coinciding
    points."""
    colors = np.arange(n) % m
    rng.shuffle(colors)
    return Instance(
        dist=euclidean_distances(rng.integers(0, 4, size=(n, 2))), colors=colors, m=m
    )


@pytest.mark.parametrize("shape", ["zero", "tight", "caps", "seeded"])
def test_traversal_matches_best_candidate_reference(shape):
    rng = np.random.default_rng(["zero", "tight", "caps", "seeded"].index(shape))
    for trial in range(60):
        n, m = int(rng.integers(4, 25)), int(rng.integers(2, 4))
        if trial % 2:
            inst = grid_instance(rng, n, m)
        else:
            inst = random_instance(rng, n=n, m=m)
        k = int(rng.integers(1, n + 1))
        seed = int(rng.integers(1000)) if shape == "seeded" else None
        if shape == "zero":
            k_lo, k_hi = np.zeros(m, dtype=int), np.full(m, k)
        elif shape == "caps":
            k_lo, k_hi = np.zeros(m, dtype=int), rng.integers(0, k + 1, size=m)
        else:  # lower bounds summing to k when tight, to at most k when seeded
            size = k if shape == "tight" else int(rng.integers(0, k + 1))
            k_lo = np.bincount(rng.integers(0, m, size=size), minlength=m)
            k_hi = k_lo + rng.integers(0, 2 if shape == "tight" else k + 1, size=m)
        dsb = DSBounds(k_lo=k_lo, k_hi=k_hi, k=k)
        try:
            got = alg_ds(inst, dsb, seed=seed).centers
        except InfeasibleError as exc:
            got = type(exc).__name__
        assert got == best_candidate_alg_ds(inst, dsb, seed=seed), (trial, n, k)
        if shape == "zero":
            assert got == gonzalez(inst, k).centers


def quota_bounds(inst, k, theta=0.5):
    """Derived center quotas; None when they cannot fit the budget."""
    r = inst.color_counts() / inst.n
    k_lo = np.ceil(theta * r * k - 1e-9).astype(int)
    if int(k_lo.sum()) > k:
        return None
    return DSBounds(k_lo=k_lo, k_hi=np.full(inst.m, k), k=k)


class TestDsToGfds:
    def test_no_deletion_keeps_step_a_assignment(self):
        # balanced pairs: fair assignment keeps both centers active
        dist = np.array(
            [
                [0.0, 0.0, 2.0, 2.0],
                [0.0, 0.0, 2.0, 2.0],
                [2.0, 2.0, 0.0, 0.0],
                [2.0, 2.0, 0.0, 0.0],
            ]
        )
        inst = Instance(dist=dist, colors=[0, 1, 0, 1], m=2)
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        dsb = DSBounds(k_lo=[1, 1], k_hi=[2, 2], k=2)
        ds_sol = alg_ds(inst, dsb)
        step_a, _ = assignment_gf(inst, ds_sol.centers, gfb)
        out = ds_to_gfds(inst, ds_sol, gfb, dsb)
        assert np.array_equal(out.assign, step_a.assign)

    def test_two_color_end_to_end(self, rng):
        inst = gen_random(12, 2, 2, [0.5, 0.5], seed=31)
        gfb = GFBounds(beta=[0.3, 0.3], alpha=[0.7, 0.7])
        dsb = DSBounds(k_lo=[1, 1], k_hi=[2, 2], k=2)
        out = ds_to_gfds(inst, alg_ds(inst, dsb), gfb, dsb)
        assert ds_violation(out, dsb, inst) == 0
        assert gf_violation(inst, gfb, out) <= 3.0 + 1e-9
        assert out.inactive_centers() == ()

    def test_random_suite_bounds(self, rng):
        for _ in range(40):
            n = int(rng.integers(8, 40))
            m = int(rng.integers(2, 4))
            inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
            k = int(rng.integers(m, 6))
            gfb = wide_bounds(inst, delta=0.6)
            dsb = quota_bounds(inst, k)
            if dsb is None:
                continue
            try:
                ds_sol = alg_ds(inst, dsb)
            except InfeasibleQuota:
                continue
            step_a, _ = assignment_gf(inst, ds_sol.centers, gfb)
            out = ds_to_gfds(inst, ds_sol, gfb, dsb)
            assert ds_violation(out, dsb, inst) == 0
            assert gf_violation(inst, gfb, out) <= 3.0 + 1e-9
            assert out.inactive_centers() == ()
            assert cost(inst, out) <= 2.0 * cost(inst, step_a) + 1e-9

    def test_center_deletion_and_reanchor_paths(self, rng):
        # tight bounds shut small clusters, forcing deletions and anchors
        # whose own point was routed into another cluster
        deletions = anchors_out = 0
        for _ in range(60):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(3 * m, 40))
            inst = gen_random(n, m, 1, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
            k = int(rng.integers(m, 7))
            r = inst.color_counts() / inst.n
            gfb = GFBounds(
                beta=np.maximum(1e-6, 0.9 * r), alpha=np.minimum(1.0, 1.1 * r)
            )
            dsb = DSBounds(
                k_lo=np.ones(m, dtype=int), k_hi=np.full(m, k), k=k
            )
            ds_sol = alg_ds(inst, dsb)
            step_a, _ = assignment_gf(inst, ds_sol.centers, gfb)
            deletions += bool(step_a.inactive_centers())
            anchors_out += any(
                step_a.assign[c] != c for c in step_a.active_centers()
            )
            out = ds_to_gfds(inst, ds_sol, gfb, dsb)
            assert ds_violation(out, dsb, inst) == 0
            assert gf_violation(inst, gfb, out) <= 3.0 + 1e-9
            assert out.inactive_centers() == ()
            assert cost(inst, out) <= 2.0 * cost(inst, step_a) + 1e-9
        assert deletions > 0 and anchors_out > 0  # paths actually exercised


class TestGfToGfds:
    def test_exact_input_with_full_k_keeps_violation_zero(self):
        colors = [0, 0, 0, 0, 1, 1, 1, 1]
        inst = Instance(dist=np.zeros((8, 8)), colors=colors, m=2)
        gf_sol = Solution(centers=(0, 2), assign=[0, 0, 2, 2, 0, 0, 2, 2])
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        dsb = DSBounds(k_lo=[1, 1], k_hi=[2, 2], k=2)
        out = gf_to_gfds(inst, gf_sol, gfb, dsb)
        assert gf_violation(inst, gfb, out) == 0.0
        assert ds_violation(out, dsb, inst) == 0
        # one cluster keeps a blue center, the other switches to red
        assert sorted(inst.colors[list(out.centers)].tolist()) == [0, 1]

    def test_missing_color_detected(self):
        colors = [0, 0, 0, 1]
        inst = Instance(dist=np.zeros((4, 4)), colors=colors, m=2)
        # cluster {0,1} is all blue but both required centers must be red
        gf_sol = Solution(centers=(0, 2), assign=[0, 0, 2, 2])
        gfb = GFBounds(beta=[0.25, 0.25], alpha=[0.75, 0.75])
        dsb = DSBounds(k_lo=[0, 2], k_hi=[2, 2], k=2)
        with pytest.raises(MissingColorInCluster):
            gf_to_gfds(inst, gf_sol, gfb, dsb)

    def test_random_suite_bounds(self, rng):
        done = 0
        while done < 40:
            n = int(rng.integers(8, 40))
            m = int(rng.integers(2, 4))
            inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
            k = int(rng.integers(m, 6))
            gfb = wide_bounds(inst, delta=0.6)
            dsb = quota_bounds(inst, k)
            if dsb is None:
                continue
            gf_sol = alg_gf(inst, k, gfb)
            if gf_violation(inst, gfb, gf_sol) > 0.0:
                continue
            done += 1
            out = gf_to_gfds(inst, gf_sol, gfb, dsb)
            assert ds_violation(out, dsb, inst) == 0
            assert gf_violation(inst, gfb, out) <= 2.0 + 1e-9
            assert out.inactive_centers() == ()
            assert cost(inst, out) <= 2.0 * cost(inst, gf_sol) + 1e-9

    def test_bicriteria_input_bound_four(self, rng):
        done = 0
        tried = 0
        while done < 10 and tried < 200:
            tried += 1
            n = int(rng.integers(10, 40))
            inst = gen_random(n, 2, 2, [0.5, 0.5], seed=int(rng.integers(2**31)))
            k = int(rng.integers(2, 5))
            gfb = wide_bounds(inst, delta=0.4)
            dsb = quota_bounds(inst, k)
            if dsb is None:
                continue
            gf_sol = alg_gf(inst, k, gfb)
            rho_in = gf_violation(inst, gfb, gf_sol)
            clusters_have_all_colors = all(
                np.unique(inst.colors[gf_sol.cluster_of(c)]).size == inst.m
                for c in gf_sol.active_centers()
            )
            if rho_in == 0.0 or not clusters_have_all_colors:
                continue
            done += 1
            out = gf_to_gfds(inst, gf_sol, gfb, dsb)
            assert gf_violation(inst, gfb, out) <= rho_in + 2.0 + 1e-9
            assert ds_violation(out, dsb, inst) == 0


# ---------------------------------------------------------------------------
# the dead-center screen rejects only radii whose class LP the solver rejects
# ---------------------------------------------------------------------------

ADULT_CSV = str(resources.files("fairkc") / "data" / "adult_mini.csv")


def screened_radii(inst, S, gfb, rejects=dead_centers_reject):
    """How many candidate radii from the covering one the screen rejects.

    Fails on a rejected radius whose class LP `solve_feasibility` accepts.
    """
    dist_S = inst.dist[S]
    cands = np.unique(dist_S)
    screened = 0
    for R in cands[cands >= dist_S.min(axis=0).max()]:
        if rejects(dist_S, inst.colors, float(R), gfb):
            lp, pairs = build_assignment_lp(inst, S, float(R), gfb, aggregate=True)
            start = nearest_admissible_start(inst, pairs)
            assert solve_feasibility(lp, start_at_upper=start) is None, (S, R)
            screened += 1
    return screened


def center_sets(inst, cfg, k):
    """The centers `alg_gf` and `ds_to_gfds` search from, where they exist."""
    yield list(gonzalez(inst, k).centers)
    try:
        yield list(alg_ds(inst, cfg.ds_bounds(inst, k)).centers)
    except InfeasibleError:
        pass


def mask_dead_centers_reject(dist_S, colors, R, gfb):
    """The screen on the admissibility mask, center by center: the reference."""
    counted = gfb.beta * (1.0 - FEAS_TOL) > len(dist_S) * FEAS_TOL
    adm = dist_S <= R
    live = np.ones(len(dist_S), dtype=bool)
    for h in np.flatnonzero(counted):
        live &= adm[:, colors == h].any(axis=1)
    return not adm[live].any(axis=0).all()


def enumerated_mass_bounds(admit, forced, gfb):
    """`forced_mass_bounds` of one center over all 2^m - 1 nonempty color sets."""
    eps, m = FEAS_TOL, gfb.m
    slack = 4 * (m + 1) * np.finfo(float).eps * (sum(admit) + m + 2)
    least = [f * (1.0 - eps) for f in forced]
    lower = max((least[h] - eps) / (gfb.alpha[h] + slack) for h in range(m))
    upper = min((admit[h] + eps) / (gfb.beta[h] - slack) for h in range(m))
    for size in range(1, m + 1):
        for H in itertools.combinations(range(m), size):
            out = [h for h in range(m) if h not in H]
            coef = 1.0 - sum(gfb.beta[h] for h in out) + slack
            if coef > 0:
                lower = max(lower, (sum(least[h] for h in H) - len(out) * eps) / coef)
            coef = 1.0 - sum(gfb.alpha[h] for h in out) - slack
            if coef > 0:
                upper = min(upper, (sum(admit[h] for h in H) + len(out) * eps) / coef)
    return lower, upper


def mask_forced_mass_rejects(dist_S, colors, R, gfb):
    """The forced-mass screen on the admissibility mask, center by center and
    over every color set: the reference."""
    k, m = len(dist_S), gfb.m
    if not np.all(gfb.beta * (1.0 - FEAS_TOL) > k * FEAS_TOL):
        return False
    adm = dist_S <= R
    if not adm.any(axis=0).all():
        return True
    alone = adm.sum(axis=0) == 1
    for t in range(k):
        admit = [int(np.count_nonzero(adm[t] & (colors == h))) for h in range(m)]
        forced = [int(np.count_nonzero(adm[t] & alone & (colors == h))) for h in range(m)]
        lower, upper = enumerated_mass_bounds(admit, forced, gfb)
        if lower > upper * (1.0 + 1e-9):
            return True
    return False


def fuzz_grid_searches():
    """(inst, S, gfb) over the shapes of the fuzz-small benchmark workload:
    n in [4, 24], m in {2, 3, 4}, delta in {0, 0.05, 0.3}, one k in
    [2, min(n, 8)], and the center sets of `center_sets`."""
    design, rng = np.random.default_rng(20230530), np.random.default_rng(1)
    for i in range(54):
        delta, m = (0.0, 0.05, 0.3)[i % 3], (2, 3, 4)[i // 3 % 3]
        n = int(design.integers(4, 25))
        k = int(design.integers(2, min(n, 8) + 1))
        props = design.dirichlet(np.ones(m))
        inst = gen_random(n, m, 2, props / props.sum(), seed=int(rng.integers(2**31)))
        cfg = ExperimentConfig(k_values=(k,), delta=delta, theta=0.5)
        gfb = cfg.gf_bounds(inst)
        for S in center_sets(inst, cfg, k):
            yield inst, S, gfb


class TestDeadCenterScreen:
    def test_fuzz_grid(self):
        screened = sum(screened_radii(inst, S, gfb) for inst, S, gfb in fuzz_grid_searches())
        assert screened > 0

    def test_adult_mini(self):
        # both colors are everywhere, so nothing is screened, and nothing may be
        inst = load_instance(ADULT_CSV)
        cfg = ExperimentConfig(k_values=(5,), delta=0.2, theta=0.8)
        for S in center_sets(inst, cfg, 5):
            assert screened_radii(inst, S, cfg.gf_bounds(inst)) == 0

    def test_delta_near_one(self):
        # beta = (1 - delta) r falls around the bound |S| FEAS_TOL / (1 - FEAS_TOL)
        rng = np.random.default_rng(7)
        screened, excluded = 0, 0
        for _ in range(60):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(max(m, 4), 13))
            k = int(rng.integers(2, n + 1))
            props = rng.dirichlet(np.ones(m))
            inst = gen_random(n, m, 2, props / props.sum(), seed=int(rng.integers(2**31)))
            delta = 1.0 - 10.0 ** rng.uniform(-6, -1)
            gfb = ExperimentConfig(k_values=(k,), delta=delta).gf_bounds(inst)
            S = list(gonzalez(inst, k).centers)
            excluded += int(np.any(gfb.beta * (1 - FEAS_TOL) <= k * FEAS_TOL))
            screened += screened_radii(inst, S, gfb)
        assert screened > 0 and excluded > 0

    def test_closed_form_matches_the_mask(self, monkeypatch):
        # fuzz shapes with delta in {0, 0.05, 0.3} and with 1 - delta
        # log-uniform in [1e-7, 1e-1], a third of them with repeated points:
        # the same verdict at every candidate radius, and the search's first
        # LP is built at the first radius at or above the covering one that
        # the mask and the forced-mass reference let through; the search's
        # first probe is the start check there, or an LP built there
        rng = np.random.default_rng(11)
        probes = []

        def build(inst, S, R, gfb, aggregate=False):
            probes.append(R)
            return build_assignment_lp(inst, S, R, gfb, aggregate=aggregate)

        def start_clears(dist_S, near, colors, R, gfb):
            probes.append(R)
            return nearest_start_clears(dist_S, near, colors, R, gfb)

        monkeypatch.setattr(solvers, "build_assignment_lp", build)
        monkeypatch.setattr(solvers, "nearest_start_clears", start_clears)
        searched = 0
        for i in range(240):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(max(m, 4), 25))
            k = int(rng.integers(2, min(n, 8) + 1))
            props = rng.dirichlet(np.ones(m))
            inst = gen_random(n, m, 2, props / props.sum(), seed=int(rng.integers(2**31)))
            if i % 3 == 2:  # coinciding points tie distances
                twin = rng.integers(0, n, size=n)
                inst = Instance(dist=inst.dist[np.ix_(twin, twin)], colors=inst.colors, m=m)
            delta = (0.0, 0.05, 0.3)[i % 3] if i % 2 else 1.0 - 10.0 ** rng.uniform(-7, -1)
            try:
                gfb = ExperimentConfig(k_values=(k,), delta=delta).gf_bounds(inst)
            except ValueError:  # a color without points
                continue
            S = sorted(rng.choice(n, size=k, replace=False).tolist())
            dist_S = inst.dist[S]
            cands = np.unique(dist_S)
            mask = [mask_dead_centers_reject(dist_S, inst.colors, float(R), gfb) for R in cands]
            got = [dead_centers_reject(dist_S, inst.colors, float(R), gfb) for R in cands]
            assert got == mask, (i, S)
            passed = [R for R, out in zip(cands, mask) if not out and R >= dist_S.min(axis=0).max()]
            # the forced-mass screen's verdict is monotone: skip its rejected radii
            passed = list(itertools.dropwhile(
                lambda R: mask_forced_mass_rejects(dist_S, inst.colors, float(R), gfb), passed
            ))
            probes.clear()
            try:
                assignment_gf(inst, S, gfb)
            except (InfeasibleError, NumericFailure):
                pass
            if solvers._global_proportions_ok(inst, gfb):
                assert probes[:1] == passed[:1], (i, S)
                searched += 1
        assert searched > 100

    def test_beta_below_the_bound_is_left_to_the_lp(self):
        # at R = 1 center 0 admits only points 0 and 2, both of color 0, and
        # point 2 no other center; with beta_1 = 1e-8 the LP lets center 0
        # carry its two points (1e-8 * 2 <= FEAS_TOL), so it is no dead center
        pts = np.array([[0.0], [10.0], [1.0], [11.0]])
        inst = Instance(dist=euclidean_distances(pts), colors=[0, 1, 0, 0], m=2)
        S, R = [0, 1], 1.0
        for beta_1, infeasible in ((0.3, True), (1e-8, False)):
            assert (beta_1 * (1 - FEAS_TOL) > len(S) * FEAS_TOL) is infeasible
            gfb = GFBounds(beta=[0.3, beta_1], alpha=[1.0, 1.0])
            assert dead_centers_reject(inst.dist[S], inst.colors, R, gfb) is infeasible
            lp, pairs = build_assignment_lp(inst, S, R, gfb, aggregate=True)
            x = solve_feasibility(lp, start_at_upper=nearest_admissible_start(inst, pairs))
            assert (x is None) is infeasible


# ---------------------------------------------------------------------------
# the nearest-center start, checked without building the LP
# ---------------------------------------------------------------------------


def fuzz_small_cases(seed):
    """The benchmark's fuzz-small cases for a seed, from perfbench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    return workloads.fuzz_cases(seed)


def start_shortcut_agrees(inst, S, gfb):
    """(radii, cleared): the start check against the point LP at every
    candidate radius from the covering one up.

    Its verdict must be `_start_clears` on the built LP's start, and a
    cleared start the assignment `solve_feasibility` and `max_flow_gf`
    give there, as `assignment_gf` returns it.
    """
    dist_S = inst.dist[S]
    near = nearest_positions(S, dist_S)
    assign = np.asarray(S)[near]
    cands = np.unique(dist_S)
    radii = cands[cands >= dist_S.min(axis=0).max()]
    cleared = 0
    for R in radii.tolist():
        lp, pairs = build_assignment_lp(inst, S, R, gfb)
        start = nearest_admissible_start(inst, pairs)
        center, point = pairs[start].T
        assert np.array_equal(np.sort(point), np.arange(inst.n))  # one start pair a point
        assert np.array_equal(center[np.argsort(point)], assign), (S, R)
        # both entry points give the same start: (S[near[j]], j) for every j
        got = sorted(map(tuple, pairs[start].tolist()))
        assert got == sorted(zip(assign.tolist(), range(inst.n))), (S, R)
        A = lp.constraints
        x0 = np.zeros(lp.num_vars)
        x0[start] = 1.0
        terms = A.data * x0[A.indices]
        lengths = np.bincount(A.term_rows, minlength=len(A))
        want = _start_clears(A.term_rows, terms, lengths, lp.rhs, lp.is_eq)
        assert nearest_start_clears(dist_S, near, inst.colors, R, gfb) == want, (S, R)
        if want:
            x = solve_feasibility(lp, start_at_upper=start)
            rounded = max_flow_gf(FractionalAssignment(n=inst.n, pairs=pairs, values=x), inst, S)
            assert np.array_equal(assign, rounded), (S, R)
            cleared += 1
    return radii.size, cleared


class TestStartShortcut:
    @pytest.mark.parametrize("seed", [1, 4401])
    def test_fuzz_small(self, seed):
        radii = cleared = 0
        for case in fuzz_small_cases(seed):
            (k,) = case.cfg.k_values
            try:
                gfb = case.cfg.gf_bounds(case.inst)
            except ValueError:  # a color without points
                continue
            for S in center_sets(case.inst, case.cfg, k):
                got = start_shortcut_agrees(case.inst, S, gfb)
                radii, cleared = radii + got[0], cleared + got[1]
        assert 0 < cleared < radii

    def test_seeded_deltas_twins_and_center_orders(self):
        # coinciding points tie distances, and a shuffled S puts the lower
        # center id anywhere in it
        rng = np.random.default_rng(24)
        radii = cleared = 0
        for i in range(40):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(max(m, 4), 41))
            k = int(rng.integers(2, min(n, 8) + 1))
            props = rng.dirichlet(np.ones(m))
            inst = gen_random(n, m, 2, props / props.sum(), seed=int(rng.integers(2**31)))
            if i % 2:
                twin = rng.integers(0, n, size=n)
                inst = Instance(dist=inst.dist[np.ix_(twin, twin)], colors=inst.colors, m=m)
            S = rng.permutation(gonzalez(inst, k).centers).tolist()
            for delta in (0.0, 0.2, 0.5, 0.9, 1.0 - 1e-7):
                try:
                    gfb = ExperimentConfig(k_values=(k,), delta=delta).gf_bounds(inst)
                except ValueError:  # a color without points
                    continue
                got = start_shortcut_agrees(inst, S, gfb)
                radii, cleared = radii + got[0], cleared + got[1]
        assert 0 < cleared < radii

    def test_search_returns_the_cleared_start_without_an_lp(self, monkeypatch):
        # uniform-2k at k = 4: the start is fair at the boundary
        def refuse(*args, **kwargs):
            raise AssertionError("the search built an LP or ran the rounding")

        inst = gen_random(2000, 3, 4, [0.5, 0.3, 0.2], seed=0)
        gfb = ExperimentConfig(k_values=(4,), delta=0.5).gf_bounds(inst)
        S = list(gonzalez(inst, 4).centers)
        want, R = assignment_gf(inst, S, gfb)
        for name in ("build_assignment_lp", "solve_feasibility", "max_flow_gf"):
            monkeypatch.setattr(solvers, name, refuse)
        got, got_R = assignment_gf(inst, S, gfb)
        assert got_R == R and np.array_equal(got.assign, want.assign)
        assert np.array_equal(got.assign, np.asarray(S)[nearest_positions(S, inst.dist[S])])


# ---------------------------------------------------------------------------
# the forced-mass screen: closed form, soundness, gate, and the search it starts
# ---------------------------------------------------------------------------


def mass_range_linprog(admit, forced, gfb):
    """(least, largest) mass of one center under the eps-relaxed rows, by
    HiGHS over the color masses, or None when they admit none."""
    eps, m = FEAS_TOL, gfb.m
    eye, ones = np.eye(m), np.ones((m, m))
    rows = np.vstack([gfb.beta[:, None] * ones - eye, eye - gfb.alpha[:, None] * ones])
    bounds = [(f * (1.0 - eps), u) for f, u in zip(forced, admit)]
    opts = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * np.ones(m), A_ub=rows, b_ub=np.full(2 * m, eps),
                      bounds=bounds, method="highs", options=opts)
        assert res.status in (0, 2), res.message
        if res.status == 2:
            return None
        ends.append(sign * res.fun)
    return tuple(ends)


def walk_search(inst, S, gfb):
    """`assignment_gf` without the forced-mass screen, as it stood before it:
    the reference the screen must not change."""
    S = [int(i) for i in S]
    if not solvers._global_proportions_ok(inst, gfb):
        raise InfeasibleError("global color proportions violate the bounds")
    if len(S) == 1:
        return float(inst.dist[S[0]].max()), np.full(inst.n, S[0], dtype=int)
    dist_S = inst.dist[S]
    cands = np.unique(dist_S)
    boundary = int(np.searchsorted(cands, dead_center_radius(dist_S, inst.colors, gfb)))
    last = len(cands) - 1
    if boundary > last:
        raise InfeasibleError("assignment LP infeasible at every radius")

    def solve(idx):
        lp, pairs = build_assignment_lp(inst, S, float(cands[idx]), gfb)
        return pairs, solve_feasibility(lp, start_at_upper=nearest_admissible_start(inst, pairs))

    def walk(lo):
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
                raise NumericFailure("phase 1 found no radius feasible")
            lo, width = top + 1, 2 * width

    idx = boundary
    pairs, x = solve(idx)
    if x is None:
        idx = walk(boundary)
        pairs, x = solve(idx)
    if x is None:
        raise NumericFailure(f"point-level LP infeasible at radius {cands[idx]}")
    frac = FractionalAssignment(n=inst.n, pairs=pairs, values=x)
    return float(cands[idx]), max_flow_gf(frac, inst, S)


class TestForcedMassScreen:
    def test_forced_mass_bounds_match_enumeration_and_linprog(self):
        # random counts and bounds, m from 2 to 6 and delta = 0 among them:
        # the leading runs give the bounds of all 2^m color sets, and those
        # are the ends of the mass range HiGHS finds, or cross where it
        # finds none
        seen = set()

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(
            m=st.integers(2, 6),
            k=st.integers(1, 4),
            weights=st.lists(st.integers(1, 20), min_size=6, max_size=6),
            delta=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
            seed=st.integers(0, 2**31 - 1),
        )
        def check(m, k, weights, delta, seed):
            rng = np.random.default_rng(seed)
            r = np.asarray(weights[:m], dtype=float) / sum(weights[:m])
            gfb = GFBounds(beta=(1.0 - delta) * r, alpha=np.minimum(1.0, (1.0 + delta) * r))
            admit = rng.integers(0, 30, size=(k, m))
            forced = rng.integers(0, admit + 1)
            lower, upper = forced_mass_bounds(admit, forced, gfb)
            for t in range(k):
                want = enumerated_mass_bounds(admit[t].tolist(), forced[t].tolist(), gfb)
                assert np.allclose((lower[t], upper[t]), want, rtol=1e-12, atol=0), (t, want)
                ends = mass_range_linprog(admit[t], forced[t], gfb)
                seen.add(ends is None)
                if ends is None:
                    assert lower[t] > upper[t] - 1e-6 * (1.0 + upper[t])
                else:
                    assert np.allclose((lower[t], upper[t]), ends, rtol=1e-6, atol=1e-6), ends

        check()
        assert seen == {True, False}

    def test_forced_mass_rejects_only_infeasible_radii_on_the_fuzz_grid(self):
        # as TestDeadCenterScreen.test_fuzz_grid, over every radius this screen rejects
        screened = sum(
            screened_radii(inst, S, gfb, forced_mass_rejects)
            for inst, S, gfb in fuzz_grid_searches()
        )
        assert screened > 0

    def test_forced_mass_rejects_only_infeasible_radii_on_adult(self):
        # the benchmark's k=5 search, whose dead-center boundary is infeasible
        inst = load_instance(ADULT_CSV)
        cfg = ExperimentConfig(k_values=(5,), delta=0.2, theta=0.8)
        S = list(gonzalez(inst, 5).centers)
        assert screened_radii(inst, S, cfg.gf_bounds(inst), forced_mass_rejects) > 100

    def test_forced_mass_gate_leaves_the_search_as_it_was(self, monkeypatch):
        # beta_h = 5e-8 is below the dead-center bound 2 FEAS_TOL / (1 -
        # FEAS_TOL), which turns the screen off: the search builds what it
        # built without it, though the bounds alone reject its boundary
        inst = gen_random(10, 2, 2, [0.5, 0.5], seed=1)
        gfb = ExperimentConfig(k_values=(2,), delta=1.0 - 1e-7).gf_bounds(inst)
        S = list(gonzalez(inst, 2).centers)
        assert np.all(gfb.beta * (1 - FEAS_TOL) <= len(S) * FEAS_TOL)
        original, builds = build_assignment_lp, []

        def build(inst, S, R, gfb, aggregate=False):
            builds.append((R, aggregate))
            return original(inst, S, R, gfb, aggregate=aggregate)

        def recorded(search):
            builds.clear()
            return search_outcome(search, inst, S, gfb), list(builds)

        monkeypatch.setattr(solvers, "build_assignment_lp", build)
        monkeypatch.setitem(globals(), "build_assignment_lp", build)
        got = recorded(boundary_first_search)
        assert got == recorded(walk_search) and len(got[1]) == 3  # solve, walk, solve
        boundary = got[1][0][0]
        adm = inst.dist[S] <= boundary
        onehot = (inst.colors[:, None] == np.arange(gfb.m)).astype(float)
        alone = adm.sum(axis=0) == 1
        lower, upper = forced_mass_bounds(adm @ onehot, adm[:, alone] @ onehot[alone], gfb)
        assert np.any(lower > upper * (1 + 1e-9))
        assert not forced_mass_rejects(inst.dist[S], inst.colors, boundary, gfb)

    def test_forced_mass_search_matches_the_walk_search(self, monkeypatch):
        # fuzz shapes at fixed delta and with 1 - delta log-uniform in [1e-7,
        # 1e-2]: the radius, the assignment's bytes or the class raised are
        # those of the search without the screen, including where the
        # screen moves the boundary
        design, rng = np.random.default_rng(2021), np.random.default_rng(3)
        deltas = (0.0, 0.05, 0.2, 0.3, 0.5, 0.6, 0.9, 0.99)
        verdicts = []

        def screen(*args):
            verdicts.append(forced_mass_rejects(*args))
            return verdicts[-1]

        monkeypatch.setattr(solvers, "forced_mass_rejects", screen)
        cases, moved = 0, 0
        for i in range(180):
            m = int(design.integers(2, 5))
            n = int(design.integers(max(m, 4), 25))
            k = int(design.integers(2, min(n, 8) + 1))
            props = design.dirichlet(np.ones(m))
            inst = gen_random(n, m, 2, props / props.sum(), seed=int(rng.integers(2**31)))
            delta = deltas[i % 8] if i % 2 else 1.0 - 10.0 ** design.uniform(-7, -2)
            cfg = ExperimentConfig(k_values=(k,), delta=delta, theta=0.5)
            gfb = cfg.gf_bounds(inst)
            for S in center_sets(inst, cfg, k):
                verdicts.clear()
                got = search_outcome(boundary_first_search, inst, S, gfb)
                assert got == search_outcome(walk_search, inst, S, gfb), (i, S)
                cases += 1
                moved += verdicts[:1] == [True]
        assert cases > 320 and moved >= 10, (cases, moved)


# ---------------------------------------------------------------------------
# the radius search: screen boundary first, then point and class LP probes
# ---------------------------------------------------------------------------


def class_probe_search(inst, S, gfb):
    """The radius search with class probes alone, as a reference.

    Gallops and then bisects from the covering radius over probes that the
    screen lets through and whose class LP is feasible, then solves the
    point-level LP once at the radius found and rounds it.
    """
    S = [int(i) for i in S]
    if not solvers._global_proportions_ok(inst, gfb):
        raise InfeasibleError("global color proportions violate the bounds")
    if len(S) == 1:
        return float(inst.dist[S[0]].max()), np.full(inst.n, S[0], dtype=int)
    dist_S = inst.dist[S]
    cands = np.unique(dist_S)
    start = int(np.searchsorted(cands, float(dist_S.min(axis=0).max())))

    def solve(R, aggregate):
        lp, pairs = build_assignment_lp(inst, S, R, gfb, aggregate=aggregate)
        return pairs, solve_feasibility(
            lp, start_at_upper=nearest_admissible_start(inst, pairs)
        )

    def feasible(idx):
        R = float(cands[idx])
        if dead_centers_reject(dist_S, inst.colors, R, gfb):
            return False
        return solve(R, aggregate=True)[1] is not None

    last = len(cands) - 1
    lo, probe, step = start, start, 1
    while not feasible(probe):
        if probe == last:
            raise InfeasibleError("assignment LP infeasible at every radius")
        lo = probe + 1
        probe = min(probe + step, last)
        step *= 2
    hi = probe
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    R = float(cands[hi])
    pairs, x = solve(R, aggregate=False)
    if x is None:
        raise NumericFailure(f"point-level LP infeasible at radius {R}")
    frac = FractionalAssignment(n=inst.n, pairs=pairs, values=x)
    return R, max_flow_gf(frac, inst, S)


def search_outcome(search, inst, S, gfb):
    """(R, assignment bytes) of a search, or the class of what it raised."""
    try:
        R, assign = search(inst, S, gfb)
    except (InfeasibleError, NumericFailure) as exc:
        return type(exc)
    return R, np.asarray(assign, dtype=np.int64).tobytes()


def boundary_first_search(inst, S, gfb):
    """`assignment_gf` in the reference's (R, assignment) shape."""
    sol, R = assignment_gf(inst, S, gfb)
    return R, sol.assign


class TestRadiusSearch:
    def test_threshold_at_the_boundary_is_one_point_solve(self, monkeypatch):
        # the screen rejects 7 of the 15 radii from the covering one, and the
        # first radius it lets through is the threshold
        inst = gen_random(10, 2, 2, [0.7, 0.3], seed=1)
        gfb = ExperimentConfig(k_values=(3,), delta=0.3).gf_bounds(inst)
        S = list(gonzalez(inst, 3).centers)
        assert screened_radii(inst, S, gfb) == 7
        forms, solves = [], []

        def build(*args, aggregate=False):
            forms.append(aggregate)
            return build_assignment_lp(*args, aggregate=aggregate)

        def solve(lp, start_at_upper=None):
            solves.append(lp)
            return solve_feasibility(lp, start_at_upper)

        monkeypatch.setattr(solvers, "build_assignment_lp", build)
        monkeypatch.setattr(solvers, "solve_feasibility", solve)
        _, R = assignment_gf(inst, S, gfb)
        assert forms == [False] and len(solves) == 1
        monkeypatch.undo()
        assert R == class_probe_search(inst, S, gfb)[0]

    def test_walk_past_its_first_window_matches_class_probe_search(self, monkeypatch):
        # the threshold lies more than n candidates above the dead-center
        # screen's boundary, so the walk LP is built again over a window
        # twice as wide; the forced-mass screen, which takes this search
        # straight to the threshold, lets every radius through here
        inst = gen_random(10, 2, 2, [0.3, 0.7], seed=41)
        gfb = ExperimentConfig(k_values=(4,), delta=0.0).gf_bounds(inst)
        S = list(gonzalez(inst, 4).centers)
        cands = np.unique(inst.dist[S])
        builds, walks = [], []

        def build(inst, S, R, gfb, aggregate=False):
            builds.append(int(np.flatnonzero(cands == R)[0]))
            return build_assignment_lp(inst, S, R, gfb, aggregate=aggregate)

        def walk(lp, steps, start_at_upper=None):
            walks.append(first_feasible_step(lp, steps, start_at_upper))
            return walks[-1]

        monkeypatch.setattr(solvers, "build_assignment_lp", build)
        monkeypatch.setattr(solvers, "forced_mass_rejects", lambda *args: False)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "first_feasible_step", walk)
            got = search_outcome(boundary_first_search, inst, S, gfb)
        boundary, first_top, second_top, threshold = builds
        assert first_top == boundary + inst.n and walks[0] is None
        assert second_top == min(len(cands) - 1, first_top + 1 + 2 * inst.n)
        assert threshold == first_top + 1 + walks[1] > first_top
        monkeypatch.undo()
        want = search_outcome(class_probe_search, inst, S, gfb)
        assert got == want
        assert search_outcome(boundary_first_search, inst, S, gfb) == want

    def test_walk_without_a_feasible_radius_is_numeric_failure(self, monkeypatch):
        # the global proportions meet the bounds, so the largest radius is
        # feasible: a walk that finds no radius is a solver fault, never an
        # infeasible instance (the forced-mass screen, which would start
        # this search at its threshold, lets every radius through)
        inst = gen_random(10, 2, 2, [0.3, 0.7], seed=41)
        gfb = ExperimentConfig(k_values=(4,), delta=0.0).gf_bounds(inst)
        S = list(gonzalez(inst, 4).centers)
        cands = np.unique(inst.dist[S])
        tops = []

        def build(inst, S, R, gfb, aggregate=False):
            tops.append(int(np.flatnonzero(cands == R)[0]))
            return build_assignment_lp(inst, S, R, gfb, aggregate=aggregate)

        monkeypatch.setattr(solvers, "build_assignment_lp", build)
        monkeypatch.setattr(solvers, "forced_mass_rejects", lambda *args: False)
        monkeypatch.setattr(solvers, "solve_feasibility", lambda lp, start_at_upper=None: None)
        monkeypatch.setattr(solvers, "first_feasible_step", lambda lp, steps, start=None: None)
        with pytest.raises(NumericFailure):
            assignment_gf(inst, S, gfb)
        # after the boundary's point LP, windows of n, 2n, ... candidates
        # until one reaches the largest radius
        boundary, *tops = tops
        assert len(tops) >= 2 and tops[0] == boundary + inst.n and tops[-1] == len(cands) - 1
        for width, (below, top) in enumerate(zip(tops, tops[1:]), start=1):
            assert top == min(len(cands) - 1, below + 1 + 2**width * inst.n)
        monkeypatch.undo()
        want = search_outcome(class_probe_search, inst, S, gfb)
        assert search_outcome(boundary_first_search, inst, S, gfb) == want

    def test_same_outcome_as_class_probe_search(self):
        # fuzz-small's shapes over a wider range of delta; both searches
        # must return the same radius and assignment, or raise the same class
        design, rng = np.random.default_rng(17), np.random.default_rng(29)
        deltas = (0.0, 0.05, 0.3, 0.6, 0.9, 0.99)
        cases = 0
        for i in range(92):
            m = int(design.integers(2, 5))
            n = int(design.integers(max(m, 4), 25))
            k = int(design.integers(2, min(n, 8) + 1))
            props = design.dirichlet(np.ones(m))
            inst = gen_random(n, m, 2, props / props.sum(), seed=int(rng.integers(2**31)))
            cfg = ExperimentConfig(k_values=(k,), delta=deltas[i % 6], theta=0.5)
            gfb = cfg.gf_bounds(inst)
            for S in center_sets(inst, cfg, k):
                got = search_outcome(boundary_first_search, inst, S, gfb)
                assert got == search_outcome(class_probe_search, inst, S, gfb), (i, S)
                cases += 1
        assert cases > 160, cases
