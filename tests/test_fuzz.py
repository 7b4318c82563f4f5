"""Seeded fuzz of `run_experiment` on tiny random instances.

Every valid config must give a report, never an exception, and every `ok`
row must meet the paper's bound for its algorithm.
"""

import numpy as np
import pytest

from fairkc import solvers
from fairkc.core import (
    ExperimentConfig,
    InfeasibleError,
    cost,
    ds_violation,
    gf_violation,
)
from fairkc.harness import run_experiment
from fairkc.instances import gen_random
from fairkc.lp import NumericFailure

EPS = 1e-9
GF_BOUND = {"alg-gf": 2.0, "gf-to-gfds": 2.0, "ds-to-gfds": 3.0}
DS_EXACT = ("alg-ds", "gf-to-gfds", "ds-to-gfds")
FUZZ_TRIALS = 400


def anchor_out_case():
    """k_lo = [2, 2, 3, 1] sums to n, and the fair assignment moves the DS
    anchor 0 out of its own cluster.  The instance is feasible (every point
    its own center), but ds_to_gfds does not reach that solution."""
    inst = gen_random(8, 4, 2, [0.25, 0.25, 0.375, 0.125], seed=168)
    return inst, ExperimentConfig(k_values=(8,), delta=0.05, theta=1.0)


def fuzz_cases(trials, seed):
    yield anchor_out_case()
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(max(m, 4), 25))
        k = int(rng.integers(1, min(n, 8) + 1))
        props = rng.dirichlet(np.ones(m))
        inst = gen_random(n, m, 2, props / props.sum(), seed=int(rng.integers(2**31)))
        cfg = ExperimentConfig(
            k_values=(k,),
            delta=float(rng.choice([0.0, 0.05, 0.3])),
            theta=float(rng.choice([0.0, 0.5, 1.0])),
        )
        yield inst, cfg


def breaches(report):
    """(k, algorithm, what) for every `ok` row that breaks its bound."""
    rows = {(r.k, r.algorithm): r for r in report.rows}
    found = []
    for (k, name), r in rows.items():
        if r.status != "ok":
            continue
        if name in GF_BOUND and not r.gf_violation <= GF_BOUND[name] + EPS:
            found.append((k, name, f"GF violation {r.gf_violation}"))
        if name in DS_EXACT and r.ds_violation != 0:
            found.append((k, name, f"DS violation {r.ds_violation}"))
        base = rows[(k, "alg-gf")]
        if name == "gf-to-gfds" and not r.cost <= 2.0 * base.cost + EPS:
            found.append((k, name, f"cost {r.cost} > 2 x {base.cost}"))
    return found


@pytest.fixture
def pipeline_outputs(monkeypatch):
    """Every solution the two pipelines return inside run_experiment.

    ds-to-gfds's solutions are taken from `repair_quotas`, which builds each
    of them whether or not `run_experiment` reuses alg-gf's assignment.
    """
    out = []
    for name in ("gf_to_gfds", "repair_quotas"):

        def capture(*args, _solve=getattr(solvers, name), **kwargs):
            sol = _solve(*args, **kwargs)
            out.append(sol)
            return sol

        monkeypatch.setattr(solvers, name, capture)
    return out


def test_anchor_outside_cluster_is_an_infeasible_row(pipeline_outputs):
    inst, cfg = anchor_out_case()
    report = run_experiment(inst, cfg)
    status = {r.algorithm: r.status for r in report.rows}
    assert status == {
        "color-blind": "ok",
        "alg-gf": "ok",
        "alg-ds": "ok",
        "gf-to-gfds": "ok",
        "ds-to-gfds": "infeasible",
    }
    assert breaches(report) == []
    assert [sol.inactive_centers() for sol in pipeline_outputs] == [()]

    gfb, dsb = cfg.gf_bounds(inst), cfg.ds_bounds(inst, 8)
    with pytest.raises(solvers.QuotaUnreachable):
        solvers.ds_to_gfds(inst, solvers.alg_ds(inst, dsb), gfb, dsb)


def test_fuzz_never_raises_and_ok_rows_meet_bounds(pipeline_outputs):
    seen = set()
    for inst, cfg in fuzz_cases(FUZZ_TRIALS, seed=20230531):
        report = run_experiment(inst, cfg)
        assert breaches(report) == [], (inst.n, inst.m, cfg)
        seen.update((r.algorithm, r.status) for r in report.rows)
    assert all(sol.inactive_centers() == () for sol in pipeline_outputs)
    for name in ("alg-gf", "alg-ds", "gf-to-gfds", "ds-to-gfds"):
        assert {(name, "ok"), (name, "infeasible")} <= seen


def standalone_ds_to_gfds(inst, cfg, k):
    """(status, cost, GF violation, DS violation) of ds-to-gfds run on its own."""
    gfb = cfg.gf_bounds(inst)
    try:
        dsb = cfg.ds_bounds(inst, k)
        sol = solvers.ds_to_gfds(inst, solvers.alg_ds(inst, dsb), gfb, dsb)
    except (InfeasibleError, NumericFailure):
        return "infeasible", None, None, None
    return "ok", cost(inst, sol), gf_violation(inst, gfb, sol), ds_violation(sol, dsb, inst)


def test_ds_to_gfds_rows_equal_the_standalone_pipeline():
    # the seeded NumericFailure case first: alg-ds and Gonzalez pick the same
    # centers and alg-gf's assignment over them fails; then a fuzz stream
    # that mixes reused assignments with quotas that move the centers
    numeric = gen_random(6, 4, 2, [0.2137613423399095, 0.3457035685624727,
                                   0.19855812982820087, 0.2419769592694168], seed=525994730)
    numeric_cfg = ExperimentConfig(k_values=(6,), delta=0.999999)
    assert solvers.alg_ds(numeric, numeric_cfg.ds_bounds(numeric, 6)).centers == \
        solvers.gonzalez(numeric, 6).centers == (0, 1, 4, 5, 2, 3)
    assert standalone_ds_to_gfds(numeric, numeric_cfg, 6)[0] == "infeasible"
    reused = {True: 0, False: 0}
    for inst, cfg in [(numeric, numeric_cfg), *fuzz_cases(120, seed=8128)]:
        (k,) = cfg.k_values
        rows = {r.algorithm: r for r in run_experiment(inst, cfg).rows}
        got = rows["ds-to-gfds"]
        assert (got.status, got.cost, got.gf_violation, got.ds_violation) == \
            standalone_ds_to_gfds(inst, cfg, k), (inst.n, inst.m, cfg)
        if rows["alg-ds"].status == "ok":
            ds_centers = solvers.alg_ds(inst, cfg.ds_bounds(inst, k)).centers
            reused[ds_centers == solvers.gonzalez(inst, k).centers] += 1
    assert reused[True] >= 10 and reused[False] >= 10, reused
