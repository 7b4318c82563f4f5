import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_entries
from fairkc.core import (
    ROW_BLOCK,
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
    gf_violation,
    nearest_center_assignment,
    pof,
)
from fairkc.instances import gen_l_community


def two_point_instance(d=5.0):
    return Instance(dist=[[0.0, d], [d, 0.0]], colors=[0, 1], m=2)


class TestInstanceValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Instance(dist=[[0, 1], [2, 0]], colors=[0, 1], m=2)

    @pytest.mark.parametrize(
        "i, j, d_ij, d_ji, ok",
        [
            (1, 3, np.nan, np.nan, False),
            (1, 3, np.nan, 0.5, False),
            (2, 2, np.nan, np.nan, False),  # passes the diagonal check, not this one
            (1, 3, np.inf, np.inf, True),
            (1, 3, np.inf, 0.5, False),
            (1, 3, 0.5, 0.5 + TOL / 2, True),
            (1, 3, 0.5, 0.5 + 2 * TOL, False),
        ],
        ids=["nan", "nan-finite", "nan-diagonal", "inf-inf", "inf-finite",
             "half-tol", "twice-tol"],
    )
    def test_symmetry_verdicts_are_allclose_ones(self, i, j, d_ij, d_ji, ok):
        d = np.ones((5, 5)) - np.eye(5)
        d[i, j], d[j, i] = d_ij, d_ji
        assert np.allclose(d, d.T, atol=TOL, rtol=0.0) == ok
        self.assert_verdict(d, ok)

    @pytest.mark.parametrize("gap, ok", [(TOL / 2, True), (2 * TOL, False)])
    def test_asymmetry_in_the_last_partial_block(self, gap, ok):
        n = 2 * ROW_BLOCK + 44
        rng = np.random.default_rng(5)
        d = rng.random((n, n))
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        d[n - 2, n - 30] += gap  # both entries of the pair sit past the last block edge
        assert np.allclose(d, d.T, atol=TOL, rtol=0.0) == ok
        self.assert_verdict(d, ok)

    @staticmethod
    def assert_verdict(d, ok):
        colors = np.arange(len(d)) % 2
        if ok:
            Instance(dist=d, colors=colors, m=2)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                Instance(dist=d, colors=colors, m=2)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        change=st.sampled_from(
            ["+0", "+tol/2", "-tol/2", "+2tol", "-2tol", "nan", "inf", "-inf", "-0.0"]
        ),
    )
    def test_symmetry_verdict_is_allclose_for_any_one_entry(self, n, seed, change):
        # an exactly symmetric base with zeros and infinities, then one entry changed
        rng = np.random.default_rng(seed)
        d = np.triu(rng.choice([0.0, 0.5, 1.0, 3.25, np.inf], size=(n, n)), 1)
        d = d + d.T
        if n > 1:
            i, j = rng.choice(n, size=2, replace=False)
            shift = {"+0": 0.0, "+tol/2": TOL / 2, "-tol/2": -TOL / 2,
                     "+2tol": 2 * TOL, "-2tol": -2 * TOL}
            d[i, j] = d[i, j] + shift[change] if change in shift else float(change)
        ok = np.allclose(d, d.T, atol=TOL, rtol=0.0)
        colors = np.arange(n) % 2 if n > 1 else np.zeros(1, dtype=int)
        try:
            Instance(dist=d, colors=colors, m=min(n, 2))
        except ValueError:
            assert not ok
        else:
            assert ok

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            Instance(dist=[[1, 1], [1, 0]], colors=[0, 1], m=2)

    def test_missing_color_rejected(self):
        with pytest.raises(ValueError):
            Instance(dist=np.zeros((2, 2)), colors=[0, 0], m=2)

    @pytest.mark.parametrize("colors, m", [([0.5, 1.2], 2), ([0.0, 1.0], 2), ([0, 1], 2.0)])
    def test_non_integer_colors_or_m_rejected(self, colors, m):
        # [0.5, 1.2] used to become [0, 1]
        with pytest.raises(TypeError):
            Instance(dist=np.zeros((2, 2)), colors=colors, m=m)
        with pytest.raises(TypeError):
            Instance.from_points(np.zeros((2, 1)), colors, m)

    def test_coinciding_points_allowed(self):
        inst = Instance(dist=np.zeros((3, 3)), colors=[0, 1, 0], m=2)
        assert inst.n == 3
        inst.check_triangle()

    def test_triangle_check_catches_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        inst = Instance(dist=d, colors=[0, 1, 0], m=2)
        with pytest.raises(ValueError):
            inst.check_triangle()


class TestBounds:
    def test_gf_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            GFBounds(beta=[0.0, 0.5], alpha=[0.5, 0.5])

    def test_gf_crossed_rejected(self):
        with pytest.raises(ValueError):
            GFBounds(beta=[0.6], alpha=[0.5])

    def test_ds_lower_sum_over_budget_rejected(self):
        with pytest.raises(ValueError):
            DSBounds(k_lo=[2, 2], k_hi=[3, 3], k=3)

    def test_derived_quotas_over_budget_are_infeasible(self):
        # theta 0.8 asks for one center of each of two colors at k = 1
        inst = Instance(dist=np.zeros((4, 4)), colors=[0, 0, 1, 1], m=2)
        cfg = ExperimentConfig(k_values=(1,), theta=0.8)
        with pytest.raises(InfeasibleError, match="exceeds the budget k"):
            cfg.ds_bounds(inst, 1)
        assert cfg.ds_bounds(inst, 2).k_lo.tolist() == [1, 1]

    @pytest.mark.parametrize("delta", [1.0, 1.5, -0.1, float("nan")])
    def test_config_delta_outside_unit_interval_rejected(self, delta):
        # delta = 1 would zero every GF lower bound, which GFBounds refuses
        with pytest.raises(ValueError, match="delta"):
            ExperimentConfig(k_values=(3,), delta=delta)

    @pytest.mark.parametrize("theta", [1.5, -0.1, float("nan")])
    def test_config_theta_outside_unit_interval_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            ExperimentConfig(k_values=(3,), theta=theta)

    @pytest.mark.parametrize("p", [0, -1])
    def test_config_p_below_one_rejected(self, p):
        with pytest.raises(ValueError, match="exponent p"):
            ExperimentConfig(k_values=(3,), p=p)

    @pytest.mark.parametrize("k_values", [(2.5,), (4, 2.0), (np.float64(3.0),)])
    def test_config_non_integer_k_rejected(self, k_values):
        # (2.5,) used to become (2,)
        with pytest.raises(TypeError):
            ExperimentConfig(k_values=k_values)

    @pytest.mark.parametrize(
        "k_lo, k_hi",
        [([0.5, 0.7], [2.9, 2]), ([0, 1], [2.0, 2]), ([0.0, 0.0], [2, 2])],
    )
    def test_ds_non_integer_bounds_rejected(self, k_lo, k_hi):
        # [0.5, 0.7] and [2.9, 2] used to become [0, 0] and [2, 2]
        with pytest.raises(TypeError):
            DSBounds(k_lo=k_lo, k_hi=k_hi, k=3)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    def test_ds_non_integer_budget_rejected(self, k):
        # 2.5 used to be kept, and alg_ds ran on it
        with pytest.raises(TypeError):
            DSBounds(k_lo=[0, 1], k_hi=[2, 2], k=k)

    def test_ds_numpy_integers_accepted(self):
        dsb = DSBounds(k_lo=np.array([0, 1], dtype=np.int32), k_hi=[2, 2], k=np.int64(2))
        assert dsb.k == 2 and type(dsb.k) is int and dsb.k_lo.tolist() == [0, 1]

    def test_config_largest_delta_gives_bounds(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        gfb = ExperimentConfig(k_values=(3,), delta=0.999, theta=1.0).gf_bounds(inst)
        assert np.all(gfb.beta > 0.0)


class TestCost:
    def test_self_assignment_is_zero(self):
        inst = two_point_instance()
        sol = Solution(centers=(0, 1), assign=[0, 1])
        assert cost(inst, sol) == 0.0

    def test_single_pair(self):
        inst = two_point_instance(5.0)
        sol = Solution(centers=(0,), assign=[0, 0])
        assert cost(inst, sol) == 5.0

    def test_community_respecting_solution_costs_zero(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        sol = Solution(centers=(0, 4), assign=[0, 0, 0, 0, 4, 4, 4, 4])
        assert cost(inst, sol) == 0.0

    def test_cost_invariant_under_center_reordering(self, rng):
        from conftest import random_instance

        inst = random_instance(rng, n=12, m=2)
        centers = (3, 7, 1)
        assign = rng.choice(centers, size=inst.n)
        for c in centers:
            assign[c] = c
        a = Solution(centers=centers, assign=assign)
        b = Solution(centers=(1, 3, 7), assign=assign)
        assert cost(inst, a) == cost(inst, b)


class TestGfViolation:
    def test_exact_proportions_zero(self):
        inst = Instance(dist=np.zeros((4, 4)), colors=[0, 0, 1, 1], m=2)
        sol = Solution(centers=(0,), assign=[0, 0, 0, 0])
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        assert gf_violation(inst, gfb, sol) == 0.0

    def test_all_blue_cluster(self):
        inst = Instance(dist=np.zeros((5, 5)), colors=[0, 0, 0, 0, 1], m=2)
        sol = Solution(centers=(0, 4), assign=[0, 0, 0, 0, 4])
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        # cluster of 4 all blue: red shortfall 0.5*4 - 0 = 2
        assert gf_violation(inst, gfb, sol) == 2.0

    def test_max_over_clusters(self):
        # cluster A: 4 points 3/1 with beta=alpha=0.5 -> violation 1
        # cluster B: size 5, 4/1 -> violation 1.5
        colors = [0, 0, 0, 1] + [0, 0, 0, 0, 1]
        inst = Instance(dist=np.zeros((9, 9)), colors=colors, m=2)
        sol = Solution(centers=(0, 4), assign=[0] * 4 + [4] * 5)
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        assert gf_violation(inst, gfb, sol) == 1.5

    def test_monotone_under_bound_widening(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 20))
            m = 2
            colors = rng.integers(0, m, size=n)
            while np.unique(colors).size < m:
                colors = rng.integers(0, m, size=n)
            inst = Instance(dist=np.zeros((n, n)), colors=colors, m=m)
            ncent = int(rng.integers(1, 4))
            centers = rng.choice(n, size=ncent, replace=False)
            assign = rng.choice(centers, size=n)
            for c in centers:
                assign[c] = c
            sol = Solution(centers=tuple(int(c) for c in centers), assign=assign)
            b = rng.uniform(0.1, 0.5)
            a = rng.uniform(b, 1.0)
            tight = GFBounds(beta=[b, b], alpha=[a, a])
            wide = GFBounds(beta=[b / 2, b / 2], alpha=[min(1.0, a * 1.5)] * 2)
            assert gf_violation(inst, wide, sol) <= gf_violation(inst, tight, sol) + 1e-12

    def test_merging_exactly_fair_clusters_stays_fair(self, rng):
        # ratio-bound fact: a merge of exactly-fair clusters is exactly fair
        from conftest import exact_cluster

        trials = 0
        while trials < 100:
            m = int(rng.integers(2, 4))
            beta = np.full(m, 0.2)
            alpha = np.full(m, 0.8)
            c1 = exact_cluster(rng, int(rng.integers(m, 12)), m, beta, alpha)
            c2 = exact_cluster(rng, int(rng.integers(m, 12)), m, beta, alpha)
            if c1 is None or c2 is None:
                continue
            trials += 1
            colors = np.concatenate(
                [np.repeat(np.arange(m), c1), np.repeat(np.arange(m), c2)]
            )
            n = colors.size
            inst = Instance(dist=np.zeros((n, n)), colors=colors, m=m)
            split = Solution(
                centers=(0, int(c1.sum())),
                assign=[0] * int(c1.sum()) + [int(c1.sum())] * int(c2.sum()),
            )
            merged = Solution(centers=(0,), assign=[0] * n)
            gfb = GFBounds(beta=beta, alpha=alpha)
            assert gf_violation(inst, gfb, split) == 0.0
            assert gf_violation(inst, gfb, merged) == 0.0


    def test_matches_the_per_cluster_loop(self, rng):
        # the per-cluster loop is the reference: same float bytes, with
        # empty clusters and with violations near TOL that collapse to 0
        def loop_gf_violation(inst, gfb, sol):
            rho = 0.0
            for c in sol.active_centers():
                members = sol.cluster_of(c)
                counts = np.bincount(inst.colors[members], minlength=inst.m)
                under = np.max(gfb.beta * members.size - counts)
                over = np.max(counts - gfb.alpha * members.size)
                rho = max(rho, under, over)
            return 0.0 if rho <= TOL else float(rho)

        kinds = set()
        for i in range(300):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 30))
            colors = rng.permutation(np.r_[np.arange(m), rng.integers(0, m, size=n - m)])
            inst = Instance(dist=np.zeros((n, n)), colors=colors, m=m)
            centers = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            live = centers[: max(1, centers.size // 2)]  # the rest get no point
            assign = rng.choice(live, size=n)
            sol = Solution(centers=tuple(int(c) for c in centers), assign=assign)
            if i % 2:  # the global proportions, nudged by less than TOL
                r = np.bincount(colors, minlength=m) / n
                gfb = GFBounds(beta=np.clip(r + rng.uniform(-1e-10, 1e-10, m), 0, 1),
                               alpha=np.clip(r + rng.uniform(-1e-10, 1e-10, m), 0, 1))
            else:
                beta = rng.uniform(0, 0.6, m)
                gfb = GFBounds(beta=beta, alpha=np.minimum(1.0, beta + rng.uniform(0, 0.6, m)))
            got, want = gf_violation(inst, gfb, sol), loop_gf_violation(inst, gfb, sol)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
            kinds.add((want == 0.0, len(sol.inactive_centers()) > 0))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}


class TestDsViolation:
    def setup_method(self):
        self.inst = Instance(
            dist=np.zeros((4, 4)), colors=[0, 0, 1, 1], m=2
        )

    def test_quota_met(self):
        dsb = DSBounds(k_lo=[1, 1], k_hi=[2, 2], k=2)
        sol = Solution(centers=(0, 2), assign=[0, 0, 2, 2])
        assert ds_violation(sol, dsb, self.inst) == 0

    def test_shortfall(self):
        dsb = DSBounds(k_lo=[2, 1], k_hi=[3, 3], k=3)
        sol = Solution(centers=(0, 2, 3), assign=[0, 0, 2, 3])
        assert ds_violation(sol, dsb, self.inst) == 1

    def test_inactive_center_does_not_count(self):
        dsb = DSBounds(k_lo=[1, 1], k_hi=[2, 2], k=2)
        # center 2 (color 1) selected but empty: color 1 shortfall is 1
        sol = Solution(centers=(0, 2), assign=[0, 0, 0, 0])
        assert ds_violation(sol, dsb, self.inst) == 1
        assert sol.inactive_centers() == (2,)


class TestPof:
    def test_plain_ratio(self):
        assert pof(2.0, 1.0) == 2.0

    def test_zero_blind_cost_is_infinite(self):
        assert pof(1.0, 0.0) == float("inf")

    def test_zero_over_zero_is_one(self):
        assert pof(0.0, 0.0) == 1.0


class TestNearestAssignment:
    def test_centers_keep_themselves_despite_coinciding(self):
        inst = Instance(dist=np.zeros((3, 3)), colors=[0, 1, 0], m=2)
        assign = nearest_center_assignment(inst, [2, 1])
        assert assign[1] == 1 and assign[2] == 2

    def test_nearest_beats_any_other_assignment(self, rng):
        from conftest import random_instance

        for _ in range(20):
            inst = random_instance(rng)
            k = int(rng.integers(1, 4))
            centers = [int(c) for c in rng.choice(inst.n, size=k, replace=False)]
            near = Solution(
                centers=tuple(centers),
                assign=nearest_center_assignment(inst, centers),
            )
            other_assign = rng.choice(centers, size=inst.n)
            for c in centers:
                other_assign[c] = c
            other = Solution(centers=tuple(centers), assign=other_assign)
            assert cost(inst, near) <= cost(inst, other) + 1e-12


class TestSolutionValidation:
    def test_unselected_center_rejected(self):
        with pytest.raises(ValueError, match="selected center"):
            Solution(centers=(0, 2), assign=[0, 1, 2])

    @pytest.mark.parametrize(
        "centers, assign", [((0, 3), [0, 3, 0]), ((0, -1), [0, -1, 0]), ((0, 7), [0, 0, 0])]
    )
    def test_index_outside_the_points_rejected(self, centers, assign):
        # n = 3 points; a center named 3, -1 or 7 is none of them
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            Solution(centers=centers, assign=assign)

    @pytest.mark.parametrize(
        "centers, assign",
        [((1.7,), [1.9, 1.2, 1.0]), ((1.7,), [1, 1, 1]), ((1,), [1.9, 1.2, 1.0]), ((1.0,), [1, 1, 1])],
    )
    def test_non_integer_index_rejected(self, centers, assign):
        # (1.7,) and [1.9, 1.2, 1.0] used to become (1,) and [1, 1, 1]
        with pytest.raises(TypeError):
            Solution(centers=centers, assign=assign)

    def test_numpy_integer_indices_accepted(self):
        sol = Solution(centers=(np.int64(1),), assign=np.ones(3, dtype=np.int32))
        assert sol.centers == (1,) and sol.assign.tolist() == [1, 1, 1]


@pytest.mark.parametrize("j", [2, -1])
def test_fractional_point_index_outside_the_points_rejected(j):
    with pytest.raises(ValueError, match=r"\[0, n\)"):
        from_entries(2, {(0, 0): 1.0, (0, 1): 0.5, (1, 1): 0.5, (0, j): 0.5})


@pytest.mark.parametrize("q", [2, -1])
def test_fractional_center_index_outside_the_points_rejected(q):
    with pytest.raises(ValueError, match=r"\[0, n\)"):
        from_entries(2, {(0, 0): 1.0, (0, 1): 0.5, (q, 1): 0.5})


def test_fractional_repeated_pair_rejected():
    # two halves of one pair would pass the row sums; a dict could not hold them
    with pytest.raises(ValueError, match=r"pair \(1, 0\) given twice"):
        FractionalAssignment(n=2, pairs=[[1, 0], [0, 1], [1, 0]], values=[0.5, 1.0, 0.5])


def loop_fractional_entries(n, entries):
    """Reference: snapping, range check and row sums one entry at a time, in
    sorted (center, point) order."""
    snapped = {}
    for (q, j), v in sorted(entries.items()):
        v = float(v)
        if abs(v) <= FractionalAssignment.SNAP:
            v = 0.0
        elif abs(v - 1.0) <= FractionalAssignment.SNAP:
            v = 1.0
        if v < -1e-12 or v > 1.0 + 1e-12:
            raise ValueError(f"entry x[{q},{j}]={v} outside [0, 1]")
        v = min(max(v, 0.0), 1.0)
        if v > 0.0:
            snapped[(int(q), int(j))] = v
    sums = np.zeros(n)
    for (q, j), v in snapped.items():
        sums[j] += v
    if np.any(np.abs(sums - 1.0) > 1e-6):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"assignment row for point {bad} sums to {sums[bad]}")
    return snapped


def loop_marginals(entries, inst, Q):
    pos = {q: t for t, q in enumerate(Q)}
    tot = np.zeros(len(Q))
    by_color = np.zeros((len(Q), inst.m))
    for (q, j), v in entries.items():
        tot[pos[q]] += v
        by_color[pos[q], inst.colors[j]] += v
    return tot, by_color


def test_fractional_assignment_equals_entry_loops():
    # entries in shuffled order, spilled below and above the snap, and now and
    # then one outside [0, 1] or NaN: the same entries, sums and error messages
    from conftest import random_instance

    rng = np.random.default_rng(20261018)
    outcomes = set()
    for trial in range(300):
        n = int(rng.integers(1, 25))
        inst = random_instance(rng, n=n, m=min(1 + trial % 3, n))
        Q = rng.choice(inst.n, size=int(rng.integers(1, min(inst.n, 5) + 1)), replace=False)
        spill = [0.0, 1e-12, 5e-8, 2e-7, 1e-3][trial % 5]
        entries = {}
        for j in range(inst.n):
            w = np.full(Q.size, spill) if trial % 2 else rng.dirichlet(np.ones(Q.size))
            w[0] = 1.0 - w[1:].sum()
            for q, wi in zip(rng.permutation(Q), w):
                entries[(q, j)] = wi if trial % 3 else float(wi)
        items = list(entries.items())
        rng.shuffle(items)
        if trial % 7 == 0:
            items[0] = (items[0][0], [1.5, -0.1, float("nan"), 1 + 1e-12][trial % 4])
        entries = dict(items)
        try:
            want = loop_fractional_entries(inst.n, entries)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                from_entries(inst.n, entries)
            assert str(got.value) == str(exc)
            outcomes.add("error")
            continue
        x = from_entries(inst.n, entries)
        assert x.pairs.tolist() == [list(pair) for pair in want]
        assert x.values.tolist() == list(want.values())
        for got, ref in zip(x.marginals(inst, Q.tolist()), loop_marginals(want, inst, Q.tolist())):
            assert got.tobytes() == ref.tobytes()
        outcomes.add("ok")
    assert outcomes == {"ok", "error"}
