"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Budgets are asserted with the stated limits.
"""

import hashlib
import itertools
import json
import time

import numpy as np
import pytest

from fairkc import harness
from fairkc.audit import min_alpha_nr, min_alpha_proportional
from fairkc.core import (
    DSBounds,
    ExperimentConfig,
    GFBounds,
    Instance,
    Solution,
    cost,
    ds_violation,
    gf_violation,
    pof,
)
from fairkc.divide import divide
from fairkc.flow import max_flow_gf
from conftest import from_entries
from fairkc.instances import gen_l_community, gen_random
from fairkc.oracle import brute_force_opt
from fairkc.solvers import (
    alg_ds,
    alg_gf,
    assignment_gf,
    ds_to_gfds,
    gf_to_gfds,
    gonzalez,
)

from importlib import resources

DATA_CSV = str(resources.files("fairkc") / "data" / "adult_mini.csv")


def verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def zero_instance(colors, m):
    n = len(colors)
    return Instance(dist=np.zeros((n, n)), colors=colors, m=m)


# -- criterion 1: golden Divide example ------------------------------------


def test_criterion_01_golden_divide():
    colors = [0] * 15 + [1] * 14 + [2] * 9
    inst = zero_instance(colors, 3)
    Q = [0, 15, 29, 37]
    elapsed = []
    out = None
    for _ in range(3):
        t0 = time.perf_counter()
        out = divide(inst, list(range(38)), 0, Q)
        elapsed.append(time.perf_counter() - t0)
    mat = np.zeros((4, 3), dtype=int)
    pos = {q: t for t, q in enumerate(Q)}
    for p, q in out.items():
        mat[pos[q], inst.colors[p]] += 1
    ok = (
        mat[:, 0].tolist() == [4, 4, 4, 3]
        and mat[:, 1].tolist() == [4, 3, 3, 4]
        and mat[:, 2].tolist() == [2, 3, 2, 2]
        and mat.sum(axis=1).tolist() == [10, 10, 9, 9]
        and min(elapsed) < 1e-3
    )
    verdict(1, ok, f"matrix exact, {min(elapsed)*1e6:.0f}us")


# -- criterion 2: cluster-splitting property suite ---------------------------


def test_criterion_02_divide_property_suite():
    rng = np.random.default_rng(20101)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 201))
        inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
        n = inst.n
        nq = int(rng.integers(1, min(10, n) + 1))
        Q = sorted(rng.choice(n, size=nq, replace=False).tolist())
        beta = np.full(m, float(rng.uniform(0.02, 1.0 / m)))
        alpha = np.full(m, float(rng.uniform(1.0 / m, 1.0)))
        gfb = GFBounds(beta=beta, alpha=alpha)
        rho_in = gf_violation(
            inst, gfb, Solution(centers=(0,), assign=np.zeros(n, dtype=int))
        )
        out = divide(inst, list(range(n)), 0, Q)

        mat = np.zeros((nq, m), dtype=int)
        pos = {q: t for t, q in enumerate(Q)}
        for p, q in out.items():
            mat[pos[q], inst.colors[p]] += 1
        color_tot = inst.color_counts()
        ok = True
        for h in range(m):
            share = color_tot[h] / nq
            ok &= bool(
                np.all(mat[:, h] >= np.floor(share))
                and np.all(mat[:, h] <= np.ceil(share))
            )
        totals = mat.sum(axis=1)
        ok &= bool(
            np.all(totals >= np.floor(n / nq))
            and np.all(totals <= np.ceil(n / nq))
            and np.all(totals >= 1)
        )
        assign = np.empty(n, dtype=int)
        for p, q in out.items():
            assign[p] = q
        rho_out = gf_violation(inst, gfb, Solution(centers=tuple(Q), assign=assign))
        bound = rho_in if nq == 1 else rho_in / nq + 2.0
        ok &= rho_out <= bound + 1e-9
        R = float(inst.dist[0].max())
        ok &= max(inst.dist[p, q] for p, q in out.items()) <= 2.0 * R + 1e-9
        failures += not ok
    dt = time.perf_counter() - t0
    verdict(2, failures == 0 and dt < 10.0, f"1000 trials, {failures} failures, {dt:.1f}s")


# -- criterion 3: rounding sandwich suite -----------------------------------


def test_criterion_03_rounding_sandwich_suite():
    rng = np.random.default_rng(30303)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(1000):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(m, 30))
        inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
        n = inst.n
        nq = int(rng.integers(2, 6))
        Q = sorted(rng.choice(n, size=min(nq, n), replace=False).tolist())
        entries = {}
        for j in range(n):
            deg = int(rng.integers(1, len(Q) + 1))
            picks = rng.choice(len(Q), size=deg, replace=False)
            w = rng.random(deg) + 0.05
            w /= w.sum()
            for t, wi in zip(picks, w):
                entries[(Q[t], j)] = float(wi)
        x = from_entries(n, entries)
        beta = np.full(m, float(rng.uniform(0.05, 1.0 / m)))
        alpha = np.full(m, float(rng.uniform(1.0 / m, 1.0)))

        assign = max_flow_gf(x, inst, Q)
        tot, by_color = x.marginals(inst, Q)
        ok = True
        rho_frac = 0.0
        rho_int = 0.0
        for t, q in enumerate(Q):
            members = np.flatnonzero(assign == q)
            ok &= bool(
                np.floor(tot[t] - 1e-7) <= members.size <= np.ceil(tot[t] + 1e-7)
            )
            counts = np.bincount(inst.colors[members], minlength=m)
            for h in range(m):
                ok &= bool(
                    np.floor(by_color[t, h] - 1e-7)
                    <= counts[h]
                    <= np.ceil(by_color[t, h] + 1e-7)
                )
                rho_frac = max(
                    rho_frac,
                    beta[h] * tot[t] - by_color[t, h],
                    by_color[t, h] - alpha[h] * tot[t],
                )
                if members.size:
                    rho_int = max(
                        rho_int,
                        beta[h] * members.size - counts[h],
                        counts[h] - alpha[h] * members.size,
                    )
        ok &= rho_int <= max(rho_frac, 0.0) + 2.0 + 1e-9
        support_cost = max(inst.dist[q, j] for (q, j) in x.pairs.tolist())
        ok &= max(inst.dist[assign[j], j] for j in range(n)) <= support_cost + 1e-12
        failures += not ok
    dt = time.perf_counter() - t0
    verdict(3, failures == 0 and dt < 30.0, f"1000 trials, {failures} failures, {dt:.1f}s")


# -- criteria 4 and 5: the two post-processing guarantee suites --------------


def _random_pipeline_instance(rng):
    m = int(rng.integers(2, 4))
    n = int(rng.integers(3 * m, 61))
    inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
    k = int(rng.integers(m, 7))  # at least one center slot per color
    r = inst.color_counts() / inst.n
    gfb = GFBounds(
        beta=np.maximum(1e-6, 0.4 * r), alpha=np.minimum(1.0, 1.6 * r)
    )
    k_lo = np.minimum(
        np.ceil(0.5 * r * k - 1e-9).astype(int), np.ones(m, dtype=int)
    )
    dsb = DSBounds(k_lo=k_lo, k_hi=np.full(m, k), k=k)
    return inst, k, gfb, dsb


def test_criterion_04_gf_pipeline_suite():
    rng = np.random.default_rng(40404)
    t0 = time.perf_counter()
    done = failures = 0
    while done < 200:
        inst, k, gfb, dsb = _random_pipeline_instance(rng)
        gf_sol = alg_gf(inst, k, gfb)
        if gf_violation(inst, gfb, gf_sol) != 0.0:
            continue
        done += 1
        out = gf_to_gfds(inst, gf_sol, gfb, dsb)
        ok = (
            ds_violation(out, dsb, inst) == 0
            and gf_violation(inst, gfb, out) <= 2.0 + 1e-9
            and cost(inst, out) <= 2.0 * cost(inst, gf_sol) + 1e-9
            and out.inactive_centers() == ()
        )
        failures += not ok
    dt = time.perf_counter() - t0
    verdict(4, failures == 0 and dt < 120.0, f"200 instances, {failures} failures, {dt:.1f}s")


def test_criterion_05_ds_pipeline_suite():
    rng = np.random.default_rng(50505)
    t0 = time.perf_counter()
    done = failures = 0
    while done < 200:
        inst, k, gfb, dsb = _random_pipeline_instance(rng)
        ds_sol = alg_ds(inst, dsb)
        step_a, _ = assignment_gf(inst, ds_sol.centers, gfb)
        out = ds_to_gfds(inst, ds_sol, gfb, dsb)
        done += 1
        ok = (
            ds_violation(out, dsb, inst) == 0
            and gf_violation(inst, gfb, out) <= 3.0 + 1e-9
            and cost(inst, out) <= 2.0 * cost(inst, step_a) + 1e-9
            and out.inactive_centers() == ()
        )
        failures += not ok
    dt = time.perf_counter() - t0
    verdict(5, failures == 0 and dt < 120.0, f"200 instances, {failures} failures, {dt:.1f}s")


# -- criterion 6: oracle approximation checks --------------------------------


def test_criterion_06_oracle_approximation():
    rng = np.random.default_rng(60606)
    t0 = time.perf_counter()
    done = failures = 0
    while done < 50:
        n = int(rng.integers(4, 6)) * 2  # 8 or 10 points, even color split
        inst = gen_random(n, 2, 2, [0.5, 0.5], seed=int(rng.integers(2**31)))
        k = int(rng.integers(2, 4))
        gfb = GFBounds(beta=[0.25, 0.25], alpha=[0.75, 0.75])
        dsb = DSBounds(k_lo=[1, 1], k_hi=[k, k], k=k)
        got = brute_force_opt(inst, k, gfb=gfb, dsb=dsb, rho_allow=0.0)
        if got is None:
            continue
        gf_sol = alg_gf(inst, k, gfb)
        if gf_violation(inst, gfb, gf_sol) != 0.0:
            continue
        done += 1
        opt_gfds = got[0]
        opt_gf = brute_force_opt(inst, k, gfb=gfb, rho_allow=0.0)[0]
        opt_ds = brute_force_opt(inst, k, dsb=dsb)[0]
        ds_sol = alg_ds(inst, dsb)

        ok = True
        c_gf_pipe = cost(inst, gf_to_gfds(inst, gf_sol, gfb, dsb))
        if opt_gf > 0:  # measured ratio is infinite otherwise, bound vacuous
            ok &= c_gf_pipe <= 2.0 * (cost(inst, gf_sol) / opt_gf) * opt_gfds + 1e-9

        c_ds_pipe = cost(inst, ds_to_gfds(inst, ds_sol, gfb, dsb))
        if opt_ds > 0:
            a_ds = cost(inst, ds_sol) / opt_ds
            ok &= c_ds_pipe <= 2.0 * (1.0 + a_ds) * opt_gfds + 1e-9
        failures += not ok
    dt = time.perf_counter() - t0
    verdict(6, failures == 0 and dt < 300.0, f"50 instances, {failures} failures, {dt:.1f}s")


# -- criteria 7 and 8: the price-of-fairness constructions -------------------


def test_criterion_07_gf_unbounded_pof():
    t0 = time.perf_counter()
    inst = gen_l_community(2, 4, 1.0, "alternating")
    gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
    rho = inst.n / (2 * 2) - 1  # n/(2k) - 1 = 1
    got = brute_force_opt(inst, 2, gfb=gfb, rho_allow=rho)
    blind = cost(inst, gonzalez(inst, 2))
    ok = (
        got is not None
        and got[0] == 1.0
        and blind == 0.0
        and pof(got[0], blind) == float("inf")
        and time.perf_counter() - t0 < 1.0
    )
    verdict(7, ok, f"constrained cost {got[0]}, blind {blind}, pof inf")


def test_criterion_08_ds_unbounded_pof():
    t0 = time.perf_counter()
    inst = gen_l_community(3, 4, 1.0, "ds-variant")
    dsb = DSBounds(k_lo=[1, 1, 1], k_hi=[3, 3, 3], k=3)
    got = brute_force_opt(inst, 3, dsb=dsb)
    un = brute_force_opt(inst, 3)
    dt = time.perf_counter() - t0
    ok = got is not None and got[0] == 1.0 and un[0] == 0.0 and dt < 10.0
    verdict(8, ok, f"DS cost {got[0]}, unconstrained {un[0]}, {dt:.2f}s")


# -- criterion 9: incompatibility realization --------------------------------


def _enumerate_ds_variant_solutions():
    """Exhaustively check every DS-satisfying solution on the 12-point
    ds-variant: each must cross a community (NR audit = inf) and strand an
    entire community (proportionality audit = inf).

    Points in the same community at distance zero make both audits functions
    of the crossing pattern alone, so assignments are screened in bulk and a
    sample is re-checked with the real auditors.
    """
    inst = gen_l_community(3, 4, 1.0, "ds-variant")
    n, k = 12, 3
    pcomm = np.arange(n) // 4
    colors = inst.colors
    reds = {8, 9}
    greens = {10, 11}

    # all assignments of 12 points to 3 centers, as base-3 digits
    count = 3**n
    D = np.empty((count, n), dtype=np.int8)
    vals = np.arange(count)
    for j in range(n):
        D[:, j] = (vals // (3**j)) % 3

    bad_nr = bad_prop = checked = 0
    sampled = []
    for S in itertools.combinations(range(n), k):
        if not (set(S) & reds) or not (set(S) & greens):
            continue  # cannot meet the red/green center quotas
        ccolor = colors[list(S)]
        ccomm = pcomm[list(S)]
        cnt = np.stack([(D == t).sum(axis=1) for t in range(k)], axis=1)
        active = cnt > 0
        ds_ok = np.ones(count, dtype=bool)
        for h in range(3):
            kh = (active[:, ccolor == h]).sum(axis=1)
            ds_ok &= kh >= 1
        if not np.any(ds_ok):
            continue
        cross = ccomm[D] != pcomm[None, :]
        any_cross = cross.any(axis=1)
        full_community_cross = np.zeros(count, dtype=bool)
        for c in range(3):
            full_community_cross |= cross[:, pcomm == c].sum(axis=1) >= 4
        bad_nr += int(np.sum(ds_ok & ~any_cross))
        bad_prop += int(np.sum(ds_ok & ~full_community_cross))
        checked += int(ds_ok.sum())
        idx = np.flatnonzero(ds_ok)
        for i in idx[:: max(1, idx.size // 3)][:3]:
            sampled.append((S, D[i].copy()))

    # tie the bulk predicates to the production auditors on a sample
    for S, digits in sampled[:24]:
        sol = Solution(
            centers=S, assign=np.asarray([S[t] for t in digits], dtype=int)
        )
        assert min_alpha_nr(inst, sol, k) == float("inf")
        assert min_alpha_proportional(inst, sol, k) == float("inf")
    return checked, bad_nr, bad_prop


def _enumerate_alternating_gf_solutions():
    """Every GF-feasible (rho <= 1) solution on the 8-point alternating
    instance gets the infinite NR audit, checked with the real auditor."""
    inst = gen_l_community(2, 4, 1.0, "alternating")
    n, k = 8, 2
    gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
    checked = exceptions = 0
    for size in (1, 2):
        for S in itertools.combinations(range(n), size):
            for digits in itertools.product(range(size), repeat=n):
                assign = np.asarray([S[t] for t in digits], dtype=int)
                sol = Solution(centers=S, assign=assign)
                if gf_violation(inst, gfb, sol) > 1.0 + 1e-9:
                    continue
                checked += 1
                if min_alpha_nr(inst, sol, k) != float("inf"):
                    exceptions += 1
    return checked, exceptions


def test_criterion_09_incompatibility_realization():
    t0 = time.perf_counter()
    checked_ds, bad_nr, bad_prop = _enumerate_ds_variant_solutions()
    checked_gf, bad_gf = _enumerate_alternating_gf_solutions()
    dt = time.perf_counter() - t0
    ok = (
        checked_ds > 0
        and bad_nr == 0
        and bad_prop == 0
        and checked_gf > 0
        and bad_gf == 0
        and dt < 30.0
    )
    verdict(
        9,
        ok,
        f"{checked_ds} DS solutions, {checked_gf} GF solutions, "
        f"0 exceptions, {dt:.1f}s",
    )


# -- criteria 10 and 11: experiment reproduction and determinism -------------


@pytest.fixture(scope="module")
def adult_experiment():
    inst = harness.load_instance(DATA_CSV)
    cfg = ExperimentConfig(k_values=(4, 8, 12), delta=0.2, theta=0.8, seed=0)
    t0 = time.perf_counter()
    report = harness.run_experiment(inst, cfg)
    return inst, cfg, report, time.perf_counter() - t0


def test_criterion_10_experiment_reproduction(adult_experiment):
    _, _, report, dt = adult_experiment
    rows = {(r.k, r.algorithm): r for r in report.rows}
    ok = dt < 300.0
    for k in (4, 8, 12):
        gf_pipe = rows[(k, "gf-to-gfds")]
        ds_pipe = rows[(k, "ds-to-gfds")]
        ok &= gf_pipe.status == "ok" and ds_pipe.status == "ok"
        ok &= gf_pipe.ds_violation == 0 and ds_pipe.ds_violation == 0
        ok &= gf_pipe.gf_violation <= 2.0 + 1e-9
        ok &= ds_pipe.gf_violation <= 3.0 + 1e-9
    strictly_worse = any(
        rows[(k, "alg-ds")].gf_violation
        > max(rows[(k, "gf-to-gfds")].gf_violation, rows[(k, "ds-to-gfds")].gf_violation)
        for k in (4, 8, 12)
    )
    ok &= strictly_worse
    verdict(10, ok, f"3 k values, pipelines within bounds, {dt:.0f}s")


def test_criterion_11_determinism(adult_experiment, tmp_path):
    inst, cfg, report, _ = adult_experiment
    first = str(tmp_path / "run1.json")
    second = str(tmp_path / "run2.json")
    harness.emit_report(report, first)
    harness.emit_report(harness.run_experiment(inst, cfg), second)
    same = open(first, "rb").read() == open(second, "rb").read()
    verdict(11, same, "byte-identical reports across two runs")


# sha256 of the timing-free adult_mini report at k in {4, 8, 12}, delta 0.2,
# theta 0.8: a change that claims the same solutions must keep these bytes
ADULT_REPORT_SHA256 = {
    "json": "478a63fb0c803f3b52e2aa522e27127a574173d4ed8d3a2bcbfdb748424175be",
    "csv": "a1ff79d1664e5d403f0f84dc7a5c1be3293b24174ade44dba61a35e953e2c8d4",
}


@pytest.mark.parametrize("fmt", sorted(ADULT_REPORT_SHA256))
def test_adult_report_bytes_are_pinned(adult_experiment, tmp_path, fmt):
    _, _, report, _ = adult_experiment
    path = tmp_path / f"report.{fmt}"
    harness.emit_report(report, str(path), fmt=fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ADULT_REPORT_SHA256[fmt]
