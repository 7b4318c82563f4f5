import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkc.core import GFBounds, Instance, Solution, gf_violation
from fairkc.divide import InvalidSubset, divide
from fairkc.instances import gen_random


def zero_instance(colors, m):
    n = len(colors)
    return Instance(dist=np.zeros((n, n)), colors=colors, m=m)


def counts_matrix(inst, assignment, Q):
    pos = {q: t for t, q in enumerate(Q)}
    mat = np.zeros((len(Q), inst.m), dtype=int)
    for p, q in assignment.items():
        mat[pos[q], inst.colors[p]] += 1
    return mat


class TestGoldenExample:
    def test_38_points_three_colors_four_centers(self):
        colors = [0] * 15 + [1] * 14 + [2] * 9
        inst = zero_instance(colors, 3)
        Q = [0, 15, 29, 37]
        out = divide(inst, list(range(38)), 0, Q)
        mat = counts_matrix(inst, out, Q)
        assert mat[:, 0].tolist() == [4, 4, 4, 3]
        assert mat[:, 1].tolist() == [4, 3, 3, 4]
        assert mat[:, 2].tolist() == [2, 3, 2, 2]
        assert mat.sum(axis=1).tolist() == [10, 10, 9, 9]


class TestSmallCases:
    def test_single_center_takes_everything(self):
        inst = zero_instance([0, 0, 1], 2)
        out = divide(inst, [0, 1, 2], 0, [1])
        assert out == {0: 1, 1: 1, 2: 1}

    def test_even_split_is_uniform(self):
        inst = zero_instance([0, 0, 0, 1, 1, 1], 2)
        out = divide(inst, list(range(6)), 0, [0, 3, 5])
        mat = counts_matrix(inst, out, [0, 3, 5])
        assert np.all(mat == 1)

    def test_rejects_outside_subset(self):
        inst = zero_instance([0, 1], 2)
        with pytest.raises(InvalidSubset):
            divide(inst, [0], 0, [1])

    def test_rejects_empty_subset(self):
        inst = zero_instance([0, 1], 2)
        with pytest.raises(InvalidSubset):
            divide(inst, [0, 1], 0, [])

    def test_rejects_oversized_subset(self):
        inst = zero_instance([0, 1], 2)
        with pytest.raises(InvalidSubset):
            divide(inst, [0], 5, [5, 0])

    def test_anchor_outside_cluster_allowed(self):
        inst = zero_instance([0, 1, 0, 1], 2)
        out = divide(inst, [0, 1, 2], 3, [3, 1])
        assert set(out) == {0, 1, 2}
        assert set(out.values()) == {3, 1}


class TestSplitGuarantees:
    def run_trial(self, rng, size_hi=200, m_hi=4, q_hi=10):
        n = int(rng.integers(2, size_hi + 1))
        m = int(rng.integers(2, m_hi + 1))
        inst = gen_random(
            max(n, m), m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31))
        )
        n = inst.n
        cluster = list(range(n))
        center = 0
        nq = int(rng.integers(1, min(q_hi, n) + 1))
        Q = sorted(rng.choice(n, size=nq, replace=False).tolist())
        beta = np.full(m, float(rng.uniform(0.02, 1.0 / m)))
        alpha = np.full(m, float(rng.uniform(1.0 / m, 1.0)))
        gfb = GFBounds(beta=beta, alpha=alpha)

        whole = Solution(centers=(center,), assign=np.zeros(n, dtype=int))
        rho_in = gf_violation(inst, gfb, whole)
        out = divide(inst, cluster, center, Q)
        return inst, gfb, rho_in, out, Q, center

    def test_thousand_random_clusters(self, rng):
        for _ in range(1000):
            inst, gfb, rho_in, out, Q, center = self.run_trial(rng)
            n, m, nq = inst.n, inst.m, len(Q)
            mat = counts_matrix(inst, out, Q)
            color_tot = np.bincount(inst.colors, minlength=m)

            # per-(center,color) floor/ceiling of the fair share
            for h in range(m):
                share = color_tot[h] / nq
                assert np.all(mat[:, h] >= np.floor(share))
                assert np.all(mat[:, h] <= np.ceil(share))
            # per-center totals floor/ceiling; every center active
            totals = mat.sum(axis=1)
            assert np.all(totals >= np.floor(n / nq)) and np.all(
                totals <= np.ceil(n / nq)
            )
            assert np.all(totals >= 1)
            # conservation
            assert mat.sum() == n
            assert np.array_equal(mat.sum(axis=0), color_tot)

            # violation bound rho/|Q| + 2 (exact rho for |Q| = 1)
            assign = np.empty(n, dtype=int)
            for p, q in out.items():
                assign[p] = q
            sol = Solution(centers=tuple(Q), assign=assign)
            rho_out = gf_violation(inst, gfb, sol)
            if nq == 1:
                assert rho_out <= rho_in + 1e-9
            else:
                assert rho_out <= rho_in / nq + 2.0 + 1e-9

            # cost at most twice the cluster radius around the anchor
            R = float(inst.dist[0].max())
            worst = max(inst.dist[p, q] for p, q in out.items())
            assert worst <= 2.0 * R + 1e-9


def test_split_partitions_cluster_within_fair_shares():
    """divide on random clusters of a larger instance, anchor inside or out."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 40),
        m=st.integers(1, 4),
        anchor_outside=st.booleans(),
        anchor_in_q=st.booleans(),
    )
    def check(seed, n, m, anchor_outside, anchor_in_q):
        rng = np.random.default_rng(seed)
        m = min(m, n)
        inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=seed)
        perm = rng.permutation(n).tolist()
        size = int(rng.integers(1, n + 1))
        cluster, rest = perm[:size], perm[size:]
        outside = anchor_outside and bool(rest)
        center = rest[0] if outside else cluster[0]
        pool = [p for p in cluster if p != center]
        nq = int(rng.integers(1, size + 1))
        take = nq - 1 if anchor_in_q else min(nq, len(pool))
        if take == 0 and not anchor_in_q:
            return  # nothing but the anchor to pick
        Q = rng.choice(pool, size=take, replace=False).tolist() + ([center] if anchor_in_q else [])
        Q = rng.permutation(Q).tolist()
        seen.add((outside, anchor_in_q))

        out = divide(inst, cluster, center, Q)
        # the cluster's points are partitioned exactly among Q, and every
        # sub-center but the anchor lies inside the cluster
        assert sorted(out) == sorted(cluster)
        assert set(out.values()) == set(Q)
        assert set(Q) - {center} <= set(cluster)
        # every color within one point of its fair share at each sub-center
        mat = counts_matrix(inst, out, Q)
        color_tot = np.bincount(inst.colors[cluster], minlength=m)
        for h in range(m):
            assert np.all(np.abs(mat[:, h] - color_tot[h] / len(Q)) < 1.0)
        assert np.all(np.abs(mat.sum(axis=1) - size / len(Q)) < 1.0)

    check()
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
