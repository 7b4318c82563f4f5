import numpy as np
import pytest

from conftest import random_instance
from fairkc.audit import (
    min_alpha_nr,
    min_alpha_proportional,
    neighborhood_radius,
    population_threshold,
    socially_fair_cost,
)
from fairkc.core import Instance, Solution, nearest_center_assignment
from fairkc.instances import gen_l_community, gen_proportional_gadget
from fairkc.solvers import gonzalez

INF = float("inf")


def brute_neighborhood_radius(inst, k, j):
    t = population_threshold(inst.n, k)
    return sorted(inst.dist[j])[t - 1]


def brute_min_alpha_nr(inst, sol, k):
    worst = 0.0
    for j in range(inst.n):
        d = float(inst.dist[j, sol.assign[j]])
        nr = brute_neighborhood_radius(inst, k, j)
        if nr == 0.0:
            worst = max(worst, 1.0 if d == 0.0 else INF)
        else:
            worst = max(worst, d / nr)
    return worst


def brute_min_alpha_proportional(inst, sol, k):
    """Definitional check: smallest candidate alpha no coalition blocks."""
    t = population_threshold(inst.n, k)
    dphi = [float(inst.dist[j, sol.assign[j]]) for j in range(inst.n)]

    def ratio(i, y):
        dy = float(inst.dist[i, y])
        if dy > 0.0:
            return dphi[i] / dy
        return 1.0 if dphi[i] == 0.0 else INF

    candidates = sorted({ratio(i, y) for i in range(inst.n) for y in range(inst.n)})
    for alpha in candidates:
        if alpha == INF:
            return INF
        blocked = False
        for y in range(inst.n):
            if sum(1 for i in range(inst.n) if ratio(i, y) > alpha) >= t:
                blocked = True
                break
        if not blocked:
            return alpha
    return INF


class TestNeighborhoodRadius:
    def test_community_instance_all_zero(self):
        inst = gen_l_community(3, 4, 1.0, "alternating")
        for j in range(inst.n):
            assert neighborhood_radius(inst, 3, j) == 0.0

    def test_collinear(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        inst = Instance(
            dist=np.abs(xs[:, None] - xs[None, :]), colors=[0, 1, 0, 1], m=2
        )
        assert neighborhood_radius(inst, 2, 0) == 1.0

    def test_k_equals_n_is_zero(self, rng):
        inst = random_instance(rng, n=9)
        for j in range(inst.n):
            assert neighborhood_radius(inst, inst.n, j) == 0.0


class TestMinAlphaNR:
    def test_community_respecting_is_one(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        sol = Solution(centers=(0, 4), assign=[0] * 4 + [4] * 4)
        assert min_alpha_nr(inst, sol, 2) == 1.0

    def test_crossing_is_infinite(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        sol = Solution(centers=(0, 4), assign=[0, 0, 0, 4, 4, 4, 4, 4])
        assert min_alpha_nr(inst, sol, 2) == INF

    def test_generic_solution_finite(self, rng):
        inst = random_instance(rng, n=15)
        sol = gonzalez(inst, 3)
        val = min_alpha_nr(inst, sol, 3)
        assert np.isfinite(val) and val >= 0.0

    def test_agrees_with_brute_force(self, rng):
        for _ in range(30):
            inst = random_instance(rng, n=int(rng.integers(4, 30)))
            k = int(rng.integers(1, 5))
            centers = sorted(
                int(c) for c in rng.choice(inst.n, size=min(k, inst.n), replace=False)
            )
            sol = Solution(
                centers=tuple(centers),
                assign=nearest_center_assignment(inst, centers),
            )
            assert min_alpha_nr(inst, sol, k) == pytest.approx(
                brute_min_alpha_nr(inst, sol, k)
            )


    def test_equals_per_point_form(self):
        # one partition over all rows against neighborhood_radius point by
        # point, with 0/0 -> 1 and x/0 -> inf; community instances hit both
        def per_point(inst, sol, k):
            worst = 0.0
            for j in range(inst.n):
                d, nr = float(inst.dist[j, sol.assign[j]]), neighborhood_radius(inst, k, j)
                worst = max(worst, d / nr if nr > 0.0 else 1.0 if d == 0.0 else INF)
            return worst

        rng = np.random.default_rng(20260602)
        seen = set()
        for trial in range(60):
            if trial % 3:
                inst = random_instance(rng, n=int(rng.integers(4, 40)))
            else:
                inst = gen_l_community(int(rng.integers(2, 4)), int(rng.integers(2, 6)), 1.0,
                                       "alternating")
            for k in (1, int(rng.integers(1, inst.n + 1)), inst.n):
                centers = sorted(rng.choice(inst.n, size=min(k, inst.n), replace=False).tolist())
                assign = rng.choice(centers, size=inst.n)  # not always the nearest
                sol = Solution(centers=tuple(centers), assign=assign)
                got = min_alpha_nr(inst, sol, k)
                assert got == per_point(inst, sol, k)
                seen.add(1.0 if got == 1.0 else INF if got == INF else 0.5)
        assert seen == {0.5, 1.0, INF}
        with pytest.raises(ValueError):
            min_alpha_nr(inst, sol, inst.n + 1)


class TestSociallyFair:
    def test_zero_cost_solution(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        sol = Solution(centers=(0, 4), assign=[0] * 4 + [4] * 4)
        assert socially_fair_cost(inst, sol, 1) == 0.0

    def test_single_far_point(self):
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        inst = Instance(dist=dist, colors=[0, 1], m=2)
        sol = Solution(centers=(0,), assign=[0, 0])
        assert socially_fair_cost(inst, sol, 1) == 2.0  # lone red at distance 2

    def test_cross_community_exact_value(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        # one blue point crosses: blue group average is R/4
        sol = Solution(centers=(0, 4), assign=[0, 0, 0, 4, 4, 4, 4, 4])
        assert socially_fair_cost(inst, sol, 1) == pytest.approx(0.25)
        assert socially_fair_cost(inst, sol, 2) == pytest.approx(0.25)

    def test_exponent_grows_cost(self, rng):
        inst = random_instance(rng, n=12)
        sol = gonzalez(inst, 2)
        v1 = socially_fair_cost(inst, sol, 1)
        assert v1 >= 0.0
        assert socially_fair_cost(inst, sol, 3) >= 0.0


class TestMinAlphaProportional:
    def test_identity_assignment_is_one(self, rng):
        inst = random_instance(rng, n=8)
        sol = Solution(
            centers=tuple(range(inst.n)), assign=np.arange(inst.n)
        )
        assert min_alpha_proportional(inst, sol, inst.n) == 1.0

    def test_uncovered_community_blocks(self):
        inst = gen_l_community(3, 4, 1.0, "ds-variant")
        # centers avoid community 1 entirely; its 4 = ceil(12/3) members block
        sol = Solution(
            centers=(0, 8, 10),
            assign=nearest_center_assignment(inst, [0, 8, 10]),
        )
        assert min_alpha_proportional(inst, sol, 3) == INF

    def test_gadget_crossing_exceeds_bound(self):
        inst = gen_proportional_gadget(5, 1, 1.0, 1.0)
        r = 1.0 / 4.0
        # red spokes assigned across the color gap at distance R
        centers = (0, 6)
        assign = nearest_center_assignment(inst, centers)
        for p in (8, 9, 10, 11):
            assign = np.asarray(assign)
            assign[p] = 0
        sol = Solution(centers=centers, assign=assign)
        got = min_alpha_proportional(inst, sol, 5)
        assert got > 1.0 / (2.0 * r)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(4, 31)))
            k = int(rng.integers(1, 5))
            centers = sorted(
                int(c) for c in rng.choice(inst.n, size=min(k, inst.n), replace=False)
            )
            assign = rng.choice(centers, size=inst.n)
            for c in centers:
                assign[c] = c
            sol = Solution(centers=tuple(centers), assign=assign)
            got = min_alpha_proportional(inst, sol, k)
            want = brute_min_alpha_proportional(inst, sol, k)
            assert got == pytest.approx(want)


def test_audits_invariant_under_equidistant_swap():
    # two coinciding centers: swapping their clusters changes no distance
    inst = gen_l_community(2, 4, 1.0, "alternating")
    a = Solution(centers=(0, 1, 4), assign=[0, 1, 0, 1, 4, 4, 4, 4])
    b = Solution(centers=(0, 1, 4), assign=[1, 0, 1, 0, 4, 4, 4, 4])
    for k in (2, 3):
        assert min_alpha_nr(inst, a, k) == min_alpha_nr(inst, b, k)
        assert min_alpha_proportional(inst, a, k) == min_alpha_proportional(inst, b, k)
    assert socially_fair_cost(inst, a, 1) == socially_fair_cost(inst, b, 1)
