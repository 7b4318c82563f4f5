"""Instance/solution I/O and the five-algorithm experiment driver.

Reports are deterministic for a fixed seed and input: rows are keyed by
(k, algorithm) in a fixed order and timing fields are kept out of emitted
files unless explicitly requested, so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import solvers
from .core import (
    ExperimentConfig,
    FairKCError,
    InfeasibleError,
    Instance,
    Solution,
    cost,
    ds_violation,
    euclidean_distances,
    gf_violation,
    pof,
)

# Each algorithm as (the stage-one algorithm it post-processes, or None; its
# step).  A step is called as step(inst, k, gfb, dsb, seed, base), base being
# the stage-one solution.  Steps look the solvers up when they run, so a
# replaced `solvers` attribute is the one called.
ALGORITHM_TABLE = {
    "color-blind": (None, lambda i, k, g, d, s, b: solvers.gonzalez(i, k, seed=s)),
    "alg-gf": (None, lambda i, k, g, d, s, b: solvers.alg_gf(i, k, g, seed=s)),
    "alg-ds": (None, lambda i, k, g, d, s, b: solvers.alg_ds(i, d, seed=s)),
    "gf-to-gfds": ("alg-gf", lambda i, k, g, d, s, b: solvers.gf_to_gfds(i, b, g, d)),
    "ds-to-gfds": ("alg-ds", lambda i, k, g, d, s, b: solvers.ds_to_gfds(i, b, g, d)),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)

REPORT_FIELDS = (
    "k",
    "algorithm",
    "status",
    "cost",
    "pof",
    "gf_violation",
    "ds_violation",
)
TIMING_FIELDS = ("seconds", "post_ratio")


class ParseError(FairKCError):
    """Malformed input file; the message carries the location."""


class ColorCardinality(FairKCError):
    """Loaded data must contain at least two colors."""


def load_instance(path: str, fmt: Optional[str] = None) -> Instance:
    """Read an instance from CSV (features + color column) or matrix JSON."""
    if fmt is None:
        fmt = "csv" if str(path).lower().endswith(".csv") else "matrix-json"
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "matrix-json":
        return _load_matrix_json(path)
    raise ValueError(f"unknown format {fmt!r}")


def _load_csv(path: str) -> Instance:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if "color" not in header:
            raise ParseError(f"{path}: header lacks a 'color' column")
        color_col = header.index("color")
        feat_cols = [c for c, name in enumerate(header) if name != "color"]
        for rank, c in enumerate(feat_cols):
            if header[c] != f"f{rank}":
                raise ParseError(
                    f"{path}: column {c + 1} named {header[c]!r}, expected 'f{rank}'"
                )
        feats = []
        labels = []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {rownum} has {len(row)} fields")
            try:
                feats.append([float(row[c]) for c in feat_cols])
            except ValueError as exc:
                raise ParseError(f"{path}: row {rownum}: {exc}") from None
            labels.append(row[color_col])
    if not feats:
        raise ParseError(f"{path}: no data rows")

    order = {}
    for lab in labels:
        order.setdefault(lab, len(order))
    if len(order) < 2:
        raise ColorCardinality(f"{path}: found {len(order)} color(s), need >= 2")
    colors = np.asarray([order[lab] for lab in labels], dtype=int)

    pts = np.asarray(feats)
    if not np.all(np.isfinite(pts)):
        bad = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
        raise ParseError(f"{path}: row {bad + 2} has a non-finite feature")
    dist = euclidean_distances(pts)
    try:
        return Instance(dist=dist, colors=colors, m=len(order), feature_vectors=pts)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_matrix_json(path: str) -> Instance:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    for key in ("n", "m", "colors", "dist"):
        if key not in obj:
            raise ParseError(f"{path}: missing key {key!r}")
    if obj["m"] < 2:
        raise ColorCardinality(f"{path}: m={obj['m']}, need >= 2")
    try:
        inst = Instance(
            dist=np.asarray(obj["dist"], dtype=float),
            colors=np.asarray(obj["colors"], dtype=int),
            m=int(obj["m"]),
        )
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if inst.n != int(obj["n"]):
        raise ParseError(f"{path}: n={obj['n']} but dist is {inst.n}x{inst.n}")
    return inst


def save_instance(inst: Instance, path: str) -> None:
    obj = {
        "n": inst.n,
        "m": inst.m,
        "colors": [int(c) for c in inst.colors],
        "dist": [[float(v) for v in row] for row in inst.dist],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def save_solution(sol: Solution, path: str) -> None:
    obj = {"centers": list(sol.centers), "assign": [int(a) for a in sol.assign]}
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_solution(path: str) -> Solution:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    for key in ("centers", "assign"):
        if key not in obj:
            raise ParseError(f"{path}: missing key {key!r}")
    try:
        return Solution(centers=tuple(obj["centers"]), assign=np.asarray(obj["assign"]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


@dataclass
class ReportRow:
    k: int
    algorithm: str
    status: str = "ok"
    cost: Optional[float] = None
    pof: Optional[float] = None
    gf_violation: Optional[float] = None
    ds_violation: Optional[int] = None
    seconds: Optional[float] = None
    post_ratio: Optional[float] = None

    def to_dict(self, include_timing=False) -> dict:
        out = {f: getattr(self, f) for f in REPORT_FIELDS}
        if include_timing:
            out.update({f: getattr(self, f) for f in TIMING_FIELDS})
        return out


@dataclass
class ExperimentReport:
    config: dict
    rows: list = field(default_factory=list)

    def to_dict(self, include_timing=False) -> dict:
        return {
            "config": self.config,
            "rows": [r.to_dict(include_timing) for r in self.rows],
        }


def run_experiment(inst: Instance, cfg: ExperimentConfig) -> ExperimentReport:
    """Run the five algorithms for every k and collect the three metrics.

    Per-algorithm infeasibility is recorded in its row, never raised.  The
    pipeline rows also carry the ratio of post-processing time to the time
    spent obtaining the stage-one solution.
    """
    report = ExperimentReport(
        config={
            "k_values": list(cfg.k_values),
            "delta": cfg.delta,
            "theta": cfg.theta,
            "p": cfg.p,
            "seed": cfg.seed,
        }
    )
    gfb = cfg.gf_bounds(inst)
    for k in cfg.k_values:
        try:
            dsb = cfg.ds_bounds(inst, k) if k <= inst.n else None
        except InfeasibleError:
            dsb = None
        if dsb is None:
            # more centers than points, or derived center quotas above the
            # budget: no problem exists at this k
            for name in ALGORITHMS:
                report.rows.append(ReportRow(k=k, algorithm=name, status="infeasible"))
            continue
        runs = {}  # name -> (solution or None, seconds, post_ratio)
        for name, (stage, step) in ALGORITHM_TABLE.items():
            base, base_s, _ = runs[stage] if stage else (None, 0.0, None)
            if stage and base is None:
                runs[name] = (None, 0.0, None)
                continue
            t0 = time.perf_counter()
            try:
                sol = step(inst, k, gfb, dsb, None, base)
            except InfeasibleError:
                sol = None
            t = time.perf_counter() - t0
            runs[name] = (sol, base_s + t, t / base_s if base_s > 0 else None)
        blind_cost = cost(inst, runs["color-blind"][0])

        for name in ALGORITHMS:
            sol, seconds, ratio = runs[name]
            if sol is None:
                report.rows.append(
                    ReportRow(k=k, algorithm=name, status="infeasible")
                )
                continue
            c = cost(inst, sol)
            report.rows.append(
                ReportRow(
                    k=k,
                    algorithm=name,
                    cost=c,
                    pof=pof(c, blind_cost),
                    gf_violation=gf_violation(inst, gfb, sol),
                    ds_violation=ds_violation(sol, dsb, inst),
                    seconds=seconds,
                    post_ratio=ratio,
                )
            )
    return report


def sanitize(obj):
    """Replace non-finite floats with strings so the JSON stays standard."""
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [sanitize(v) for v in obj]
    return obj


def emit_report(
    report: ExperimentReport,
    path: str,
    fmt: Optional[str] = None,
    include_timing: bool = False,
) -> None:
    """Write the report as JSON or CSV with a fixed field order.

    Timing fields vary across runs, so they are excluded by default to keep
    emitted reports byte-identical for a fixed seed and input.
    """
    if fmt is None:
        fmt = "csv" if str(path).lower().endswith(".csv") else "json"
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(sanitize(report.to_dict(include_timing)), fh, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        fields = REPORT_FIELDS + (TIMING_FIELDS if include_timing else ())
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in report.rows:
                writer.writerow(row.to_dict(include_timing))
    else:
        raise ValueError(f"unknown format {fmt!r}")
