"""Seeded fuzz of `run_experiment` on tiny random instances.

Every valid config must give a report, never an exception, and every `ok`
row must meet the paper's bound for its algorithm.
"""

import numpy as np
import pytest

from fairkc import solvers
from fairkc.core import ExperimentConfig
from fairkc.harness import run_experiment
from fairkc.instances import gen_random

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
    """Every solution the two pipelines return inside run_experiment."""
    out = []
    for name in ("gf_to_gfds", "ds_to_gfds"):

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
