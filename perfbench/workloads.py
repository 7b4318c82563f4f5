"""The benchmark's workloads and the checks made on every report.

A workload is a list of cases built from the seed.  One *pass* runs every
case once through the public API, the way a user drives fairkc:
`harness.run_experiment`, then `harness.emit_report` of the timing-free
report, plus the audits and oracle calls a case asks for.  Every workload
uses the same pass; they differ only in their cases.

Why each workload exists, and the profile measured on the unchanged package
(one process, 2-core shared machine, Python 3.11, numpy 2.4):

* `adult` -- the bundled `adult_mini.csv` (n=500, m=2) at k in {4, 5},
  delta=0.2, theta=0.8.  Colors follow geography, so the radius search
  probes many infeasible radii (2 probes at k=4, 17 at k=5) and
  `lp.solve_feasibility` takes about 94% of the pass.  The paper's grid
  k in {4, 8, 12} takes about 80 s, longer than one benchmark run may
  last; k=5 is the smallest k with the same many-probe behaviour.
* `uniform-2k` -- one fixed `gen_random` instance, n=2000, m=3,
  dim=4, proportions [0.5, 0.3, 0.2], k in {4, 8, 12}, delta=0.5,
  theta=0.8, plus `audit_all` of the color-blind solution per k.  Colors
  are mixed, so the nearest-center start is fair and every radius search
  ends after one probe with few pivots; the pure-Python rounding flow
  (about 70%), the n^2 memory and the O(n^2) audits carry the time.  An
  LP-pivot optimisation should barely move it.
* `fuzz-small` -- a stream of tiny instances (n in [4, 24], m in [2, 4],
  Dirichlet proportions, delta in {0, 0.05, 0.3}, theta in {0, 0.5, 1},
  one k in [2, min(n, 8)]).  Thousands of small LPs make per-call set-up
  (`lp.build_assignment_lp`) and the failure, repair and `divide` paths
  count.  Desk-scale cases (n <= 12, k <= 3) also get the brute-force
  oracle.  The stream opens with the known `divide.InvalidSubset`
  reproducer, so that defect shows in every run's failure count.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fairkc import audit, harness, instances, oracle, solvers
from fairkc.core import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
ADULT_CSV = ROOT / "src" / "fairkc" / "data" / "adult_mini.csv"

CONSTRAINED = ("alg-gf", "alg-ds", "gf-to-gfds", "ds-to-gfds")
EPS = 1e-9

# The paper's guarantees on an `ok` row: (largest GF violation, DS violation 0).
GF_BOUND = {"alg-gf": 2.0, "gf-to-gfds": 2.0, "ds-to-gfds": 3.0}
DS_EXACT = ("alg-ds", "gf-to-gfds", "ds-to-gfds")

FUZZ_CASES = 162  # 6 cases in each of the 27 (delta, theta, m) cells
FUZZ_DESIGN_SEED = 20230530  # fixes each case's shape, whatever the run seed
FUZZ_DELTAS = (0.0, 0.05, 0.3)
FUZZ_THETAS = (0.0, 0.5, 1.0)
FUZZ_MS = (2, 3, 4)
ORACLE_MAX_N, ORACLE_MAX_K = 12, 3
# At delta=0.2 the simplex pivots on uniform-2k vary 5x from seed to seed
# (2.5-12.5 s of LP against 4.5-6 s of flow).  At 0.5 the nearest-center
# start is fair on every seed, which is the regime this workload stands for.
UNIFORM_DELTA = 0.5
UNIFORM_SEED = 0


@dataclass
class Case:
    label: str
    inst: object
    cfg: ExperimentConfig
    audit: bool = False
    oracle: bool = False

    @property
    def rows(self) -> int:
        return len(harness.ALGORITHMS) * len(self.cfg.k_values)


def adult_cases(seed: int) -> list:
    # The bundled data set is fixed; the seed has nothing to vary.
    inst = harness.load_instance(str(ADULT_CSV))
    cfg = ExperimentConfig(k_values=(4, 5), delta=0.2, theta=0.8)
    return [Case("adult_mini", inst, cfg)]


def uniform_cases(seed: int) -> list:
    # One fixed instance: from seed to seed a single n=2000 instance's LP size
    # and flow work move its pass time by 20% (quartile spread), more than
    # the bounds allow, so the run seed is not used.
    inst = instances.gen_random(2000, 3, 4, [0.5, 0.3, 0.2], seed=UNIFORM_SEED)
    cfg = ExperimentConfig(k_values=(4, 8, 12), delta=UNIFORM_DELTA, theta=0.8)
    return [Case(f"instance seed={UNIFORM_SEED}", inst, cfg, audit=True)]


def _fuzz_case(n, m, proportions, inst_seed, k, delta, theta):
    inst = instances.gen_random(n, m, 2, proportions, seed=inst_seed)
    cfg = ExperimentConfig(k_values=(k,), delta=delta, theta=theta)
    small = n <= ORACLE_MAX_N and k <= ORACLE_MAX_K
    return Case(f"instance seed={inst_seed} n={n} m={m} delta={delta} theta={theta}",
                inst, cfg, oracle=small)


def fuzz_cases(seed: int) -> list:
    # Known defect: ds_to_gfds raises divide.InvalidSubset out of run_experiment.
    cases = [_fuzz_case(8, 4, [0.25, 0.25, 0.375, 0.125], 168, 8, 0.05, 1.0)]
    # The shape of each case (delta, theta, m, n, k, proportions) is the same
    # for every seed: equal counts per (delta, theta, m) cell, the rest from a
    # fixed stream.  The shape sets most of a case's cost and outcome, so runs
    # on different seeds stay comparable; the seed draws points and colors.
    design = np.random.default_rng(FUZZ_DESIGN_SEED)
    rng = np.random.default_rng(seed)
    cells = [(d, t, m) for d in FUZZ_DELTAS for t in FUZZ_THETAS for m in FUZZ_MS]
    for i in range(FUZZ_CASES):
        delta, theta, m = cells[i % len(cells)]
        n = int(design.integers(4, 25))
        k = int(design.integers(2, min(n, 8) + 1))
        props = design.dirichlet(np.ones(m))
        props = props / props.sum()
        inst_seed = int(rng.integers(2**31))
        cases.append(_fuzz_case(n, m, props, inst_seed, k, delta, theta))
    return cases


WORKLOADS = {"adult": adult_cases, "uniform-2k": uniform_cases, "fuzz-small": fuzz_cases}


@dataclass
class PassResult:
    wall: float
    latencies: list  # seconds of each run_experiment call, in case order
    digest: str
    attempted: int
    ok_rows: int
    pofs: list
    failures: list  # (case label, k, algorithm, what) per failed row group
    failed_rows: int
    breaches: int  # ok rows whose output broke a guarantee


def _number(v):
    return v if isinstance(v, (int, float)) else float(v)  # "inf" etc. are strings


def check_rows(rows, case, opt_cost, failures):
    """Check the paper's guarantees on each `ok` row of one report.

    Every broken bound is appended to `failures`; returns the number of rows
    that break at least one.
    """
    by_key = {(r["k"], r["algorithm"]): r for r in rows}
    broken = set()

    def breach(r, what):
        broken.add((r["k"], r["algorithm"]))
        failures.append((case.label, r["k"], r["algorithm"], what))

    for r in rows:
        if r["status"] != "ok":
            continue
        name = r["algorithm"]
        gf, ds, c = _number(r["gf_violation"]), r["ds_violation"], _number(r["cost"])
        if name in GF_BOUND and not gf <= GF_BOUND[name] + EPS:
            breach(r, f"GF violation {gf} > {GF_BOUND[name]}")
        if name in DS_EXACT and ds != 0:
            breach(r, f"DS violation {ds} != 0")
        if name == "gf-to-gfds":
            base = by_key.get((r["k"], "alg-gf"))
            if base is not None and base["status"] == "ok":
                bound = 2.0 * _number(base["cost"])
                if not c <= bound + EPS:
                    breach(r, f"cost {c} > 2 x alg-gf cost {bound / 2}")
        if name == "color-blind" and opt_cost is not None:
            if not c <= 2.0 * opt_cost + EPS:
                breach(r, f"cost {c} > 2 x brute-force optimum {opt_cost}")
    return len(broken)


def run_pass(cases, out_dir: Path) -> PassResult:
    """Run every case once; time the whole pass and each run_experiment call."""
    report_path = out_dir / "report.json"
    digest = hashlib.sha256()
    latencies, pofs, failures = [], [], []
    attempted = ok_rows = failed_rows = breaches = 0
    clock = time.perf_counter
    start = clock()
    for case in cases:
        attempted += case.rows
        digest.update(case.label.encode())
        t0 = clock()
        try:
            report = harness.run_experiment(case.inst, case.cfg)
        except Exception as exc:  # an escape fails every row of the call
            latencies.append(clock() - t0)
            what = f"{type(exc).__name__}: {exc}"
            digest.update(what.encode())
            failed_rows += case.rows
            for k in case.cfg.k_values:
                failures.append((case.label, k, "all", f"escaped run_experiment: {what}"))
            continue
        latencies.append(clock() - t0)
        harness.emit_report(report, str(report_path))
        raw = report_path.read_bytes()
        digest.update(raw)
        rows = json.loads(raw)["rows"]

        if case.audit:
            for k in case.cfg.k_values:
                blind = solvers.gonzalez(case.inst, k)
                digest.update(repr(sorted(audit.audit_all(case.inst, blind, k).items())).encode())
        opt_cost = None
        if case.oracle:
            (k,) = case.cfg.k_values
            opt_cost, _ = oracle.brute_force_opt(case.inst, k)
            digest.update(repr(opt_cost).encode())

        found = check_rows(rows, case, opt_cost, failures)
        breaches += found
        failed_rows += found
        for r in rows:
            if r["status"] != "ok":
                continue
            ok_rows += 1
            p = _number(r["pof"])
            if r["algorithm"] in CONSTRAINED and 0.0 < p < math.inf:
                pofs.append(p)
    wall = clock() - start
    return PassResult(wall, latencies, digest.hexdigest(), attempted, ok_rows,
                      pofs, failures, failed_rows, breaches)
