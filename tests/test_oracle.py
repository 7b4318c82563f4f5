import numpy as np
import pytest

from conftest import wide_bounds
from fairkc.core import (
    DSBounds,
    ExperimentConfig,
    GFBounds,
    Instance,
    cost,
    ds_violation,
    gf_violation,
    pof,
)
from fairkc.instances import gen_l_community, gen_random
from fairkc.oracle import TooLarge, brute_force_opt
from fairkc.solvers import alg_ds, alg_gf, assignment_gf, gonzalez


class TestCaps:
    def test_too_many_points(self):
        inst = gen_random(13, 2, 2, [0.5, 0.5], seed=0)
        with pytest.raises(TooLarge):
            brute_force_opt(inst, 2)

    def test_too_many_centers(self):
        inst = gen_random(8, 2, 2, [0.5, 0.5], seed=0)
        with pytest.raises(TooLarge):
            brute_force_opt(inst, 4)


class TestUnconstrained:
    def test_community_instance_zero(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        c, sol = brute_force_opt(inst, 2)
        assert c == 0.0
        assert cost(inst, sol) == 0.0

    def test_matches_exhaustive_nearest(self, rng):
        import itertools

        for _ in range(10):
            inst = gen_random(
                int(rng.integers(4, 9)), 2, 2, [0.5, 0.5], seed=int(rng.integers(2**31))
            )
            k = int(rng.integers(1, 4))
            c, _ = brute_force_opt(inst, k)
            want = min(
                inst.dist[list(S), :].min(axis=0).max()
                for size in range(1, k + 1)
                for S in itertools.combinations(range(inst.n), size)
            )
            assert c == pytest.approx(float(want))


class TestConstrained:
    def test_gf_forces_mixing_cost(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        got = brute_force_opt(inst, 2, gfb=gfb, rho_allow=1.0)
        assert got is not None
        c, sol = got
        assert c == 1.0
        assert gf_violation(inst, gfb, sol) <= 1.0
        assert pof(c, 0.0) == float("inf")

    def test_ds_quotas_force_gap_cost(self):
        inst = gen_l_community(3, 4, 1.0, "ds-variant")
        dsb = DSBounds(k_lo=[1, 1, 1], k_hi=[3, 3, 3], k=3)
        got = brute_force_opt(inst, 3, dsb=dsb)
        assert got is not None
        c, sol = got
        assert c == 1.0
        assert ds_violation(sol, dsb, inst) == 0

    def test_gf_on_top_of_ds_costs_unboundedly_more(self):
        # DS quotas alone admit the zero-cost community solution, but adding
        # GF (even with slack 1) forces the gap distance
        inst = gen_l_community(2, 4, 1.0, "alternating")
        dsb = DSBounds(k_lo=[1, 1], k_hi=[2, 2], k=2)
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        ds_only = brute_force_opt(inst, 2, dsb=dsb)
        both = brute_force_opt(inst, 2, gfb=gfb, dsb=dsb, rho_allow=1.0)
        assert ds_only[0] == 0.0 and both[0] == 1.0
        assert pof(both[0], ds_only[0]) == float("inf")

    def test_infeasible_when_no_assignment_qualifies(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        # rho_allow 0 demands exact halves, impossible with one lone center
        dsb = DSBounds(k_lo=[2, 2], k_hi=[2, 2], k=4)
        got = brute_force_opt(inst, 3, gfb=gfb, dsb=dsb, rho_allow=0.0)
        assert got is None  # needs 4 centers but the budget is 3

    def test_oracle_is_a_floor_for_solvers(self, rng):
        for _ in range(8):
            inst = gen_random(
                int(rng.integers(6, 11)), 2, 2, [0.5, 0.5], seed=int(rng.integers(2**31))
            )
            k = int(rng.integers(2, 4))
            gfb = wide_bounds(inst, delta=0.6)
            sol = alg_gf(inst, k, gfb)
            rho = gf_violation(inst, gfb, sol)
            got = brute_force_opt(inst, k, gfb=gfb, rho_allow=max(rho, 2.0))
            assert got is not None
            assert got[0] <= cost(inst, sol) + 1e-9

            dsb = DSBounds(k_lo=[1, 1], k_hi=[k, k], k=k)
            ds_sol = alg_ds(inst, dsb)
            got_ds = brute_force_opt(inst, k, dsb=dsb)
            assert got_ds is not None
            assert got_ds[0] <= cost(inst, ds_sol) + 1e-9

    def test_widening_rho_never_raises_cost(self, rng):
        for _ in range(6):
            inst = gen_random(
                int(rng.integers(6, 10)), 2, 2, [0.5, 0.5], seed=int(rng.integers(2**31))
            )
            gfb = wide_bounds(inst, delta=0.3)
            costs = []
            for rho in (0.0, 1.0, 2.0):
                got = brute_force_opt(inst, 2, gfb=gfb, rho_allow=rho)
                costs.append(np.inf if got is None else got[0])
            assert costs[0] >= costs[1] >= costs[2]

    def test_cost_of_the_returned_solution_on_a_near_candidate(self):
        # the radius candidate 0.9999999995 lies within 1e-9 below the cost,
        # 1.0, of the optimal centers (0, 2)
        inst = Instance(
            dist=[[0, 0.9999999995, 4, 5], [0.9999999995, 0, 3, 4], [4, 3, 0, 1], [5, 4, 1, 0]],
            colors=[0, 1, 0, 1],
            m=2,
        )
        c, sol = brute_force_opt(inst, 2, ExperimentConfig((2,)).gf_bounds(inst))
        assert sol.centers == (0, 2)
        assert c == cost(inst, sol) == 1.0

    @pytest.mark.parametrize("gf, ds", [(True, False), (False, True), (True, True)])
    def test_returned_cost_is_the_solution_cost(self, gf, ds):
        rng = np.random.default_rng(20261019)
        found = 0
        for _ in range(12):
            inst = gen_random(
                int(rng.integers(5, 10)), 2, 2, [0.5, 0.5], seed=int(rng.integers(2**31))
            )
            k = int(rng.integers(2, 4))
            cfg = ExperimentConfig((k,), delta=0.3, theta=0.5)
            got = brute_force_opt(
                inst, k,
                gfb=cfg.gf_bounds(inst) if gf else None,
                dsb=cfg.ds_bounds(inst, k) if ds else None,
                rho_allow=1.0,
            )
            if got is not None:
                found += 1
                assert got[0] == cost(inst, got[1])
        assert found >= 8

    def test_gonzalez_within_twice_oracle(self, rng):
        for _ in range(6):
            inst = gen_random(
                int(rng.integers(5, 11)), 2, 2, [0.5, 0.5], seed=int(rng.integers(2**31))
            )
            k = int(rng.integers(1, 4))
            c, _ = brute_force_opt(inst, k)
            assert cost(inst, gonzalez(inst, k)) <= 2.0 * c + 1e-9


def test_lp_radius_against_oracle():
    """The radius search is bounded by the exactly fair optimum `opt`.

    On the oracle's own centers: its assignment is integral, exactly fair
    and within `opt`, so it is a feasible point of the assignment LP at
    radius `opt`, and the search returns the smallest feasible radius.

    On Gonzalez centers: Gonzalez covers every point, each optimal center
    included, within twice the unconstrained optimum, which is at most
    `opt`.  Sending each optimal cluster whole to the Gonzalez center
    nearest its center keeps every point within opt + 2 * opt, and a union
    of fair clusters is fair, so the LP is feasible at 3 * opt.

    alg_gf's rounding only uses pairs of the LP's support, so its cost is
    at most the radius returned.
    """
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(20):
        m = int(rng.integers(2, 4))
        inst = gen_random(
            int(rng.integers(6, 11)), m, 2, np.full(m, 1 / m), seed=int(rng.integers(2**31))
        )
        k = int(rng.integers(2, 4))
        gfb = wide_bounds(inst, delta=float(rng.choice([0.3, 0.6])))
        got = brute_force_opt(inst, k, gfb, rho_allow=0)
        if got is None:
            continue
        opt, sol = got
        _, r_opt = assignment_gf(inst, sol.centers, gfb)
        assert r_opt <= opt
        _, r_gonzalez = assignment_gf(inst, gonzalez(inst, k).centers, gfb)
        assert r_gonzalez <= 3.0 * opt + 1e-9
        assert cost(inst, alg_gf(inst, k, gfb)) <= r_gonzalez
        checked += 1
    assert checked >= 15
