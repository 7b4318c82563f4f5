import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from fairkc import audit
from fairkc.audit import (
    audit_all,
    min_alpha_nr,
    min_alpha_proportional,
    neighborhood_radius,
    population_threshold,
    socially_fair_cost,
)
from fairkc.core import (
    ROW_BLOCK,
    TOL,
    Instance,
    Solution,
    euclidean_distances,
    nearest_center_assignment,
    row_blocks,
)
from fairkc.instances import gen_l_community, gen_proportional_gadget, gen_random
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


def per_candidate_min_alpha_proportional(inst, sol, k):
    """Reference: one pass per candidate y over the column dist[:, y]."""
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
        # row-block partitions against neighborhood_radius point by point,
        # with 0/0 -> 1 and x/0 -> inf; community instances hit both, and the
        # last instances span more than one block of ROW_BLOCK rows
        def per_point(inst, sol, k):
            worst = 0.0
            for j in range(inst.n):
                d, nr = float(inst.dist[j, sol.assign[j]]), neighborhood_radius(inst, k, j)
                worst = max(worst, d / nr if nr > 0.0 else 1.0 if d == 0.0 else INF)
            return worst

        def instances():  # lazy, so each draws from rng after the last one's checks
            for trial in range(60):
                if trial % 3:
                    yield random_instance(rng, n=int(rng.integers(4, 40)))
                else:
                    yield gen_l_community(int(rng.integers(2, 4)), int(rng.integers(2, 6)),
                                          1.0, "alternating")
            assert ROW_BLOCK < 129
            yield random_instance(rng, n=129)
            yield random_instance(rng, n=300)
            yield gen_l_community(3, 50, 1.0, "alternating")

        rng = np.random.default_rng(20260602)
        seen = set()
        for inst in instances():
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

    def test_equals_per_candidate_form(self):
        # bit for bit against the per-y reference; points on a small integer
        # grid coincide, so x/0 -> inf and 0/0 -> 1 both occur, and the last
        # instances span more than one block of ROW_BLOCK rows
        def instances():  # lazy, so each draws from rng after the last one's checks
            for trial in range(60):
                n = int(rng.integers(2, 40))
                if trial % 3 == 0:
                    yield gen_l_community(int(rng.integers(2, 4)), int(rng.integers(2, 6)),
                                          1.0, "alternating")
                elif trial % 3 == 1:
                    pts = rng.integers(0, 3, size=(n, 2))
                    yield Instance(dist=euclidean_distances(pts), colors=np.arange(n) % 2, m=2)
                else:
                    yield random_instance(rng, n=n)
            assert 129 % ROW_BLOCK and 300 % ROW_BLOCK
            yield random_instance(rng, n=129)
            pts = rng.integers(0, 6, size=(300, 2))
            yield Instance(dist=euclidean_distances(pts), colors=np.arange(300) % 3, m=3)
            yield gen_l_community(3, 50, 1.0, "alternating")

        rng = np.random.default_rng(20261018)
        seen = set()
        for inst in instances():
            for k in (1, int(rng.integers(1, inst.n + 1)), inst.n):
                centers = sorted(rng.choice(inst.n, size=min(k, inst.n), replace=False).tolist())
                if rng.random() < 0.5:
                    assign = nearest_center_assignment(inst, centers)
                else:
                    assign = rng.choice(centers, size=inst.n)  # not always the nearest
                sol = Solution(centers=tuple(centers), assign=assign)
                got = min_alpha_proportional(inst, sol, k)
                assert got == per_candidate_min_alpha_proportional(inst, sol, k)
                seen.add(1.0 if got == 1.0 else INF if got == INF else 0.5)
        assert seen == {0.5, 1.0, INF}

    @pytest.mark.parametrize("k", [0, -1, 9])
    def test_k_outside_one_to_n_rejected(self, k):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        sol = Solution(centers=(0, 4), assign=[0] * 4 + [4] * 4)
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            min_alpha_proportional(inst, sol, k)


# sha256 of repr(sorted(audit_all(...).items())) for Gonzalez on the
# uniform-2k instance: a change that claims exact audits must keep these
UNIFORM_2K_AUDIT_SHA256 = {
    4: "01282e975791715a84bd6a4f2f09432893c9ef5db804e4bc20160c8e6cb96a3a",
    8: "fe4fc4a5a939390d401fa81cbcfdb32c4ff362bdb8a132f39bcaf7606601371d",
    12: "1d2cd29c51fd443cf0ea8ee6e24b563e97cbe2095b51cca173fd4f4843409b45",
}


def test_uniform_2k_audits_are_pinned():
    inst = gen_random(2000, 3, 4, [0.5, 0.3, 0.2], seed=0)
    for k, want in UNIFORM_2K_AUDIT_SHA256.items():
        got = repr(sorted(audit_all(inst, gonzalez(inst, k), k).items()))
        assert hashlib.sha256(got.encode()).hexdigest() == want, got


def test_audits_invariant_under_equidistant_swap():
    # two coinciding centers: swapping their clusters changes no distance
    inst = gen_l_community(2, 4, 1.0, "alternating")
    a = Solution(centers=(0, 1, 4), assign=[0, 1, 0, 1, 4, 4, 4, 4])
    b = Solution(centers=(0, 1, 4), assign=[1, 0, 1, 0, 4, 4, 4, 4])
    for k in (2, 3):
        assert min_alpha_nr(inst, a, k) == min_alpha_nr(inst, b, k)
        assert min_alpha_proportional(inst, a, k) == min_alpha_proportional(inst, b, k)
    assert socially_fair_cost(inst, a, 1) == socially_fair_cost(inst, b, 1)


def reference_min_alpha_nr(inst, sol, k):
    """min_alpha_nr as it was before its count filter: NR of every point."""
    t = population_threshold(inst.n, k)
    nr = np.empty(inst.n)  # NR(j) for every j, a block of rows at a time
    for rows in row_blocks(inst.n):
        nr[rows] = np.partition(inst.dist[rows], t - 1, axis=1)[:, t - 1]
    d = inst.dist[np.arange(inst.n), sol.assign]
    spread = nr > 0.0
    ratio = np.where(spread, d / np.where(spread, nr, 1.0), np.where(d == 0.0, 1.0, INF))
    return float(ratio.max())


def reference_min_alpha_proportional(inst, sol, k):
    """min_alpha_proportional as it was before its count filter."""
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


def test_count_filtered_audits_equal_the_unfiltered_ones():
    # grid points coincide, so both x/0 -> inf and 0/0 -> 1 occur
    rng = np.random.default_rng(18)
    seen = {"below 1": 0, "finite above 1": 0, "infinite": 0}
    for case in range(1500):
        n = int(rng.integers(1, 301)) if case % 10 == 0 else int(rng.integers(1, 41))
        pts = rng.integers(0, int(rng.integers(2, 8)), size=(n, int(rng.integers(1, 4))))
        dist = euclidean_distances(pts)
        if case % 4 == 1:  # zeros a little below zero, as a matrix file may hold them
            dist[dist == 0.0] = -TOL / 2
        m = min(n, 2)
        inst = Instance(dist=dist, colors=np.arange(n) % m, m=m)
        centers = int(rng.integers(1, n + 1))
        if case % 2:
            sol = gonzalez(inst, centers)
        else:
            chosen = rng.choice(n, size=centers, replace=False)
            sol = Solution(centers=chosen, assign=chosen[rng.integers(centers, size=n)])
        for k in {1, int(rng.integers(1, n + 1)), n}:
            for audit, reference in ((min_alpha_nr, reference_min_alpha_nr),
                                     (min_alpha_proportional, reference_min_alpha_proportional)):
                got = audit(inst, sol, k)
                assert repr(got) == repr(reference(inst, sol, k)), (case, audit.__name__, k)
                seen["below 1" if got < 1 else "infinite" if got == INF else "finite above 1"] += 1
    assert min(seen.values()) >= 100, seen


def infinitely_far_groups():
    """Two groups of 150 and 40 points on a line, infinitely far apart, the
    second assigned to a center of the first."""
    n, split = 190, 150
    x = np.arange(n, dtype=float)
    dist = np.abs(x[:, None] - x[None, :])
    far = np.arange(n) >= split
    dist[far[:, None] != far[None, :]] = INF
    inst = Instance(dist=dist, colors=np.arange(n) % 2, m=2)
    assign = np.where(far | (np.arange(n) < split // 2), 0, split - 1)
    return inst, Solution(centers=(0, split - 1), assign=assign)


def test_proportional_audit_with_infinite_assignments_is_pinned():
    # the far group's ratios inf / inf are NaN, which drop their block of
    # rows from the maximum, so these values hang on the row blocks and the
    # audit must not regroup or seed its rows here
    inst, sol = infinitely_far_groups()
    pinned = {2: 1.7586206896551724, 3: 5.461538461538462, 5: 0.0, inst.n: 0.0}
    for k, want in pinned.items():
        assert repr(min_alpha_proportional(inst, sol, k)) == repr(want), k


def test_nr_audit_with_infinite_assignments_is_pinned():
    # an inf / inf ratio is NaN and keeps it, without a RuntimeWarning;
    # where NR(j) of a far point is finite its ratio is inf instead
    inst, sol = infinitely_far_groups()
    pinned = {2: float("nan"), 3: float("nan"), 5: INF, inst.n: INF}
    for k, want in pinned.items():
        assert repr(min_alpha_nr(inst, sol, k)) == repr(want), k


@pytest.mark.parametrize("size", [9, 11])
@pytest.mark.parametrize(
    "audit", [min_alpha_nr, socially_fair_cost, min_alpha_proportional, audit_all]
)
def test_wrong_size_solution_is_a_value_error(audit, size):
    inst = gen_random(10, 2, 2, [0.5, 0.5], seed=3)
    sol = Solution(centers=(0,), assign=np.zeros(size, dtype=int))
    with pytest.raises(ValueError, match=f"solution assigns {size} points, instance has 10"):
        audit(inst, sol, 2)


@settings(max_examples=500, deadline=None)
@given(
    num=st.floats(min_value=-TOL, allow_nan=False),
    worst=st.floats(min_value=-1.0, allow_nan=False),
    e=st.floats(min_value=-TOL, allow_nan=False),
    ulps=st.one_of(st.none(), st.integers(-2, 2)),
)
def test_count_filter_keeps_every_entry_that_can_raise_the_maximum(num, worst, e, ulps):
    # an entry e of a row, against an assignment distance num: the filter must
    # count it wherever its ratio beats worst or is NaN (which np.max keeps)
    if ulps is not None and 0.0 < worst < INF and num / worst < INF:
        e = np.float64(num / worst)  # the rounding boundary, and a few floats either side
        for _ in range(abs(ulps)):
            e = np.nextafter(e, np.sign(ulps) * INF)
    counted = audit._rows_to_check(
        np.array([[e]]), np.array([num]), worst, 1, np.empty((1, 1), dtype=bool)
    ).size == 1
    for at_zero in (INF if num > 0.0 else 1.0, INF if num != 0.0 else 1.0):  # as in both audits
        with np.errstate(all="ignore"):
            ratio = num / e if e > 0.0 else at_zero
        if ratio > worst or np.isnan(ratio):
            assert counted, (num, worst, e, ratio)


def test_ratios_past_the_float_range_are_infinite():
    # 1 / 1e-310 overflows; the audits report inf without a RuntimeWarning
    d = np.array([[0.0, 1e-310, 1.0], [1e-310, 0.0, 1.0], [1.0, 1.0, 0.0]])
    inst = Instance(dist=d, colors=[0, 1, 0], m=2)
    sol = Solution(centers=(2,), assign=[2, 2, 2])
    assert min_alpha_nr(inst, sol, 2) == INF
    assert min_alpha_proportional(inst, sol, 2) == INF
    assert min_alpha_nr(inst, sol, 1) == 1.0


def tol_asymmetric_instance(rng, n):
    """Grid points scaled by 1e-9, so distances are a few TOL, with the upper
    triangle moved by up to TOL: a matrix `Instance` accepts whose row and
    column differ about as much as its entries."""
    pts = rng.integers(0, int(rng.integers(2, 6)), size=(n, int(rng.integers(1, 3)))) * 1e-9
    dist = euclidean_distances(pts)
    upper = np.triu_indices(n, 1)
    dist[upper] += rng.uniform(-0.999 * TOL, 0.999 * TOL, size=upper[0].size)
    return Instance(dist=dist, colors=np.arange(n) % 2, m=2)


def test_one_sweep_audits_equal_the_references_on_tol_asymmetric_matrices(monkeypatch):
    # the shared threshold's column counts stand in for NR's row counts only
    # within TOL's asymmetry; its 2 TOL margin must cover that.  A seed of one
    # row, in every other case, leaves more rows to the sweep.
    rng = np.random.default_rng(27)
    for case in range(250):
        monkeypatch.setattr(audit, "SEED_ROWS", 32 if case % 2 else 1)
        n = int(rng.integers(140, 300)) if case % 25 == 0 else int(rng.integers(2, 70))
        inst = tol_asymmetric_instance(rng, n)
        centers = int(rng.integers(1, min(n, 5) + 1))
        chosen = rng.choice(n, size=centers, replace=False)
        sol = Solution(centers=chosen, assign=chosen[rng.integers(centers, size=n)])
        for k in {1, int(rng.integers(1, n + 1)), n}:
            got = audit_all(inst, sol, k)
            assert repr(got["min_alpha_nr"]) == repr(reference_min_alpha_nr(inst, sol, k)), (case, k)
            assert repr(got["min_alpha_proportional"]) == repr(
                reference_min_alpha_proportional(inst, sol, k)), (case, k)
            assert repr(min_alpha_nr(inst, sol, k)) == repr(got["min_alpha_nr"])
            assert repr(min_alpha_proportional(inst, sol, k)) == repr(got["min_alpha_proportional"])
            assert socially_fair_cost(inst, sol) == got["socially_fair_cost"]


def test_the_two_tol_margin_keeps_a_row_whose_column_is_longer(monkeypatch):
    # k = 1, so NR(j) is the largest entry of row j.  Seeded from points 1
    # and 0, the two longest assignments, nr reads 1.1 / 1.3; point 3 reads
    # 1.0 / 1.0.  Row 3 lies within the seed's bound 1.0e-9 / (1.1 / 1.3),
    # about 1.18e-9, but column 3 holds d(1, 3) = 1.7e-9, within TOL of
    # d(3, 1) = 1.0e-9 and past that bound: only the margin lets column 3
    # count the 4 entries that send row 3 to the exact check.
    dist = np.array([[0.0, 1.3, 1.1, 0.2],
                     [1.0, 0.0, 2.9, 1.7],
                     [1.0, 2.0, 0.0, 1.0],
                     [0.0, 1.0, 1.0, 0.0]]) * 1e-9
    inst = Instance(dist=dist, colors=[0, 1, 0, 1], m=2)
    sol = Solution(centers=(1, 2, 3), assign=[2, 3, 3, 2])
    monkeypatch.setattr(audit, "SEED_ROWS", 2)
    assert min_alpha_nr(inst, sol, 1) == reference_min_alpha_nr(inst, sol, 1) == 1.0
    monkeypatch.setattr(audit, "TOL", 0.0)
    assert min_alpha_nr(inst, sol, 1) == dist[0, 2] / dist[0, 1]


@pytest.mark.parametrize("width", [1, 7, 8, 9, 2040, 2041])
def test_row_counts_equal_count_nonzero(width):
    # a byte lane of a uint64 word sum holds at most 255, so rows wider than
    # 255 words (2,040 entries) are summed in parts
    rng = np.random.default_rng(width)
    for density in (0.0, 0.3, 1.0):
        bits = rng.random((5, width)) < density
        mask = audit._scratch(5, width)
        mask[:, :width] = bits
        assert audit._row_counts(mask).tolist() == np.count_nonzero(bits, axis=1).tolist()


def test_audits_past_one_word_sum_a_row_equal_the_references():
    # n = 2,041 rows need two parts each in _row_counts
    inst = gen_random(2041, 2, 2, [0.5, 0.5], seed=5)
    sol = gonzalez(inst, 6)
    for k in (3, 6):
        got = audit_all(inst, sol, k)
        assert repr(got["min_alpha_nr"]) == repr(reference_min_alpha_nr(inst, sol, k))
        assert repr(got["min_alpha_proportional"]) == repr(reference_min_alpha_proportional(inst, sol, k))


def test_a_row_block_fits_the_uint8_column_sums():
    # _ratio_audits sums each block's mask down its columns in uint8
    assert ROW_BLOCK <= 255
