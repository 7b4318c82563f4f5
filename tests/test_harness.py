import csv
import dataclasses
import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from conftest import write_far_apart_csv
from fairkc import harness, solvers
from fairkc.core import ExperimentConfig, InfeasibleError, Instance
from fairkc.divide import InvalidSubset
from fairkc.flow import InternalInfeasible
from fairkc.harness import (
    ColorCardinality,
    ParseError,
    emit_report,
    load_instance,
    load_solution,
    run_experiment,
    save_instance,
    save_solution,
)
from fairkc.instances import gen_random
from fairkc.lp import NumericFailure
from fairkc.solvers import gonzalez

DATA = resources.files("fairkc") / "data"


NUMERIC_FAILURE_PROPORTIONS = [
    0.2137613423399095, 0.3457035685624727, 0.19855812982820087, 0.2419769592694168
]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCsvLoader:
    def test_three_rows(self, tmp_path):
        p = write(
            tmp_path, "t.csv", "f0,f1,color\n0,0,x\n1,0,y\n0,1,x\n"
        )
        inst = load_instance(p)
        assert inst.n == 3 and inst.m == 2
        assert inst.colors.tolist() == [0, 1, 0]  # first-appearance order
        assert inst.dist[0, 1] == pytest.approx(1.0)
        assert inst.dist[1, 2] == pytest.approx(np.sqrt(2.0))

    def test_missing_color_column(self, tmp_path):
        p = write(tmp_path, "t.csv", "f0,f1\n0,0\n")
        with pytest.raises(ParseError):
            load_instance(p)

    @pytest.mark.parametrize(
        "text",
        ["f0,color,color\n0,x,y\n1,y,x\n", "color,f0,color\nx,0,y\ny,1,x\n"],
        ids=["f0-color-color", "color-f0-color"],
    )
    def test_second_color_column_rejected(self, tmp_path, text):
        # loaded, the labels would come from the first 'color' column alone
        p = write(tmp_path, "t.csv", text)
        with pytest.raises(ParseError, match="more than one 'color' column"):
            load_instance(p)

    def test_bad_number_reports_row(self, tmp_path):
        p = write(tmp_path, "t.csv", "f0,color\n0,x\noops,y\n")
        with pytest.raises(ParseError, match="row 3"):
            load_instance(p)

    def test_single_color_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "f0,color\n0,x\n1,x\n")
        with pytest.raises(ColorCardinality):
            load_instance(p)

    def test_misnamed_feature_column(self, tmp_path):
        p = write(tmp_path, "t.csv", "feat,color\n0,x\n1,y\n")
        with pytest.raises(ParseError):
            load_instance(p)

    def test_bundled_dataset(self):
        path = str(DATA / "adult_mini.csv")
        inst = load_instance(path)
        assert inst.n == 500 and inst.m == 2
        # independent count straight off the file, in first-appearance order
        labels = [row["color"] for row in csv.DictReader(open(path))]
        order = list(dict.fromkeys(labels))
        want = [labels.count(lab) for lab in order]
        assert inst.color_counts().tolist() == want
        assert sorted(want) == [200, 300]


class TestMatrixJson:
    def test_roundtrip(self, tmp_path):
        inst = gen_random(7, 2, 2, [0.5, 0.5], seed=3)
        p = str(tmp_path / "i.json")
        save_instance(inst, p)
        back = load_instance(p)
        assert np.allclose(back.dist, inst.dist)
        assert np.array_equal(back.colors, inst.colors)

    @pytest.mark.parametrize(
        "obj", [{"centers": [0, 1], "assign": [0, 0, 5]}, {"centers": 3, "assign": [0]}]
    )
    def test_malformed_solution_rejected(self, tmp_path, obj):
        # a point outside the centers, or centers that are not a list
        p = write(tmp_path, "s.json", json.dumps(obj))
        with pytest.raises(ParseError, match="s.json"):
            load_solution(p)

    def test_saved_bytes_are_json_dump_ones(self, tmp_path):
        dist = np.array([[0.0, np.inf, 0.1, 1e-300], [np.inf, 0.0, 2.5, 3.0],
                         [0.1, 2.5, 0.0, 1 / 3], [1e-300, 3.0, 1 / 3, 0.0]])
        for inst in (Instance(dist=dist, colors=[1, 0, 1, 1], m=2),
                     gen_random(40, 3, 4, [0.5, 0.3, 0.2], seed=3)):
            p = tmp_path / "i.json"
            save_instance(inst, str(p))
            obj = {"n": inst.n, "m": inst.m, "colors": [int(c) for c in inst.colors],
                   "dist": [[float(v) for v in row] for row in inst.dist]}
            want = tmp_path / "want.json"
            with open(want, "w") as fh:
                json.dump(obj, fh)
                fh.write("\n")
            assert p.read_bytes() == want.read_bytes()

    def test_asymmetric_rejected(self, tmp_path):
        obj = {"n": 2, "m": 2, "colors": [0, 1], "dist": [[0, 1], [2, 0]]}
        p = write(tmp_path, "bad.json", json.dumps(obj))
        with pytest.raises(ParseError):
            load_instance(p)

    def test_solution_roundtrip(self, tmp_path):
        inst = gen_random(6, 2, 2, [0.5, 0.5], seed=1)
        sol = gonzalez(inst, 2)
        p = str(tmp_path / "s.json")
        save_solution(sol, p)
        back = load_solution(p)
        assert back.centers == sol.centers
        assert np.array_equal(back.assign, sol.assign)


@pytest.fixture(scope="module")
def small_report():
    inst = gen_random(24, 2, 2, [0.5, 0.5], seed=11)
    cfg = ExperimentConfig(k_values=(2, 3), delta=0.5, theta=0.5, seed=11)
    return inst, cfg, run_experiment(inst, cfg)


class TestExperiment:
    def test_row_grid_complete(self, small_report):
        _, cfg, report = small_report
        keys = [(r.k, r.algorithm) for r in report.rows]
        assert keys == [
            (k, a) for k in cfg.k_values for a in harness.ALGORITHMS
        ]

    def test_pof_column_consistent(self, small_report):
        _, _, report = small_report
        blind = {r.k: r.cost for r in report.rows if r.algorithm == "color-blind"}
        for r in report.rows:
            if r.status != "ok":
                continue
            if blind[r.k] > 0:
                assert abs(r.pof - r.cost / blind[r.k]) <= 1e-12

    def test_pipelines_meet_bounds(self, small_report):
        _, _, report = small_report
        for r in report.rows:
            if r.algorithm in ("gf-to-gfds", "ds-to-gfds") and r.status == "ok":
                assert r.ds_violation == 0

    def test_infeasible_recorded_not_raised(self):
        # skewed colors at k=3 push the ceil-derived quotas past the budget,
        # so that k's rows all report infeasible while other k values run
        from fairkc.core import Instance

        colors = [0] * 9 + [1]
        pts = np.linspace(0.0, 1.0, 10)[:, None]
        dist = np.abs(pts - pts.T)
        inst = Instance(dist=dist, colors=colors, m=2)
        cfg = ExperimentConfig(k_values=(3, 4), delta=0.2, theta=0.8, seed=0)
        report = run_experiment(inst, cfg)
        k3 = [r for r in report.rows if r.k == 3]
        k4 = [r for r in report.rows if r.k == 4]
        assert all(r.status == "infeasible" for r in k3)
        assert all(r.status == "ok" for r in k4)

    def test_numeric_failure_recorded_not_raised(self):
        # at delta 0.999999 the lower bounds (about 2e-7) sit near FEAS_TOL,
        # and the simplex's vertex for these centers fails its residual check
        inst = gen_random(6, 4, 2, NUMERIC_FAILURE_PROPORTIONS, seed=525994730)
        cfg = ExperimentConfig(k_values=(6,), delta=0.999999)
        with pytest.raises(NumericFailure):
            solvers.alg_gf(inst, 6, cfg.gf_bounds(inst))
        report = run_experiment(inst, cfg)
        assert {r.algorithm: r.status for r in report.rows} == {
            "color-blind": "ok",
            "alg-gf": "infeasible",
            "alg-ds": "ok",
            "gf-to-gfds": "infeasible",
            "ds-to-gfds": "infeasible",
        }

    def test_k_above_n_recorded_not_raised(self):
        inst = gen_random(10, 2, 2, [0.5, 0.5], seed=3)
        cfg = ExperimentConfig(k_values=(11, 3, 10), delta=0.5, theta=0.5)
        report = run_experiment(inst, cfg)
        assert [(r.k, r.algorithm) for r in report.rows] == [
            (k, name) for k in (11, 3, 10) for name in harness.ALGORITHMS
        ]
        assert all(r.status == "infeasible" and r.cost is None
                   for r in report.rows if r.k == 11)
        blind = {r.k: r for r in report.rows if r.algorithm == "color-blind"}
        assert blind[3].status == "ok"
        assert blind[10].status == "ok" and blind[10].cost == 0.0  # k = n: every point a center

    def test_json_roundtrip_and_schema(self, small_report, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        _, _, report = small_report
        p = str(tmp_path / "r.json")
        emit_report(report, p)
        parsed = json.load(open(p))
        assert parsed == harness.sanitize(report.to_dict(include_timing=False))
        schema = json.load(open(str(DATA / "report_schema.json")))
        jsonschema.validate(parsed, schema)

    def test_csv_one_row_per_k_algorithm(self, small_report, tmp_path):
        _, cfg, report = small_report
        p = str(tmp_path / "r.csv")
        emit_report(report, p)
        rows = list(csv.DictReader(open(p)))
        assert len(rows) == len(cfg.k_values) * len(harness.ALGORITHMS)
        assert list(rows[0]) == list(harness.REPORT_FIELDS)

    def test_deterministic_bytes(self, tmp_path):
        inst = gen_random(18, 2, 2, [0.5, 0.5], seed=5)
        cfg = ExperimentConfig(k_values=(2,), delta=0.5, theta=0.5, seed=5)
        pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        emit_report(run_experiment(inst, cfg), pa)
        emit_report(run_experiment(inst, cfg), pb)
        assert open(pa, "rb").read() == open(pb, "rb").read()

    @pytest.mark.parametrize("include_timing", [False, True])
    def test_json_bytes_are_json_dumps(self, small_report, tmp_path, include_timing):
        # the report is written in one string; its bytes are those json.dump
        # streams, non-finite values (written as strings) included
        _, _, report = small_report
        rows = [dataclasses.replace(r, pof=math.inf, post_ratio=-math.inf) if i % 4 == 0 else r
                for i, r in enumerate(report.rows)]
        report = harness.ExperimentReport(config=report.config, rows=rows)
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        emit_report(report, str(got), include_timing=include_timing)
        with open(want, "w") as fh:
            json.dump(harness.sanitize(report.to_dict(include_timing)), fh, indent=2)
            fh.write("\n")
        assert got.read_bytes() == want.read_bytes()
        assert b'"inf"' in got.read_bytes()
        assert (b'"-inf"' in got.read_bytes()) is include_timing

    def test_timing_fields_optional(self, small_report, tmp_path):
        _, _, report = small_report
        p = str(tmp_path / "t.json")
        emit_report(report, p, include_timing=True)
        parsed = json.load(open(p))
        ok_rows = [r for r in parsed["rows"] if r["status"] == "ok"]
        assert all("seconds" in r for r in ok_rows)
        post = [r for r in ok_rows if r["algorithm"] == "gf-to-gfds"]
        assert all(r["post_ratio"] is None or r["post_ratio"] >= 0 for r in post)


@pytest.mark.parametrize(
    "exc, infeasible",
    [
        (solvers.InfeasibleQuota, True),
        (solvers.QuotaUnreachable, True),
        (solvers.MissingColorInCluster, True),
        (InvalidSubset, False),
        (InternalInfeasible, False),
        (NumericFailure, False),
    ],
)
def test_infeasibility_is_one_type(exc, infeasible):
    # the bug signals are not infeasibility; of them, `run_experiment` records
    # only a NumericFailure, an LP the simplex could not settle, as an
    # infeasible row (see TestExperiment)
    assert issubclass(exc, InfeasibleError) is infeasible


class TestAlgorithmTable:
    def test_stage_one_runs_once_per_k(self, monkeypatch, tmp_path):
        calls = {"alg_gf": 0, "alg_ds": 0}
        for name in calls:

            def counted(*args, _name=name, _solve=getattr(solvers, name), **kwargs):
                calls[_name] += 1
                return _solve(*args, **kwargs)

            monkeypatch.setattr(solvers, name, counted)
        inst = gen_random(24, 2, 2, [0.5, 0.5], seed=11)
        cfg = ExperimentConfig(k_values=(2, 3, 4), delta=0.5, theta=0.5)
        report = run_experiment(inst, cfg)
        assert calls == {"alg_gf": 3, "alg_ds": 3}

        p = str(tmp_path / "t.json")
        emit_report(report, p, include_timing=True)
        rows = {(r["k"], r["algorithm"]): r for r in json.load(open(p))["rows"]}
        for k in cfg.k_values:
            for pipe, stage in (("gf-to-gfds", "alg-gf"), ("ds-to-gfds", "alg-ds")):
                assert rows[(k, pipe)]["status"] == rows[(k, stage)]["status"] == "ok"
                assert rows[(k, pipe)]["seconds"] >= rows[(k, stage)]["seconds"]

    @staticmethod
    def count_assignments(monkeypatch):
        """The centers of every `solvers.assignment_gf` call, as they come."""
        calls = []

        def counted(inst, S, gfb, _solve=solvers.assignment_gf):
            calls.append(tuple(S))
            return _solve(inst, S, gfb)

        monkeypatch.setattr(solvers, "assignment_gf", counted)
        return calls

    def test_assignment_runs_once_per_k_on_gonzalez_centers(self, monkeypatch):
        # alg-ds picks Gonzalez's centers at every k here, so ds-to-gfds
        # takes alg-gf's assignment instead of solving it again
        inst = gen_random(24, 2, 2, [0.5, 0.5], seed=11)
        cfg = ExperimentConfig(k_values=(2, 3, 4), delta=0.5, theta=0.5)
        for k in cfg.k_values:
            ds_centers = solvers.alg_ds(inst, cfg.ds_bounds(inst, k)).centers
            assert ds_centers == gonzalez(inst, k).centers
        calls = self.count_assignments(monkeypatch)
        report = run_experiment(inst, cfg)
        assert calls == [gonzalez(inst, k).centers for k in cfg.k_values]
        assert all(r.status == "ok" for r in report.rows)

    def test_assignment_runs_twice_when_centers_differ(self, monkeypatch):
        inst = load_instance(str(DATA / "adult_mini.csv"))
        cfg = ExperimentConfig(k_values=(5,), delta=0.2, theta=0.8)
        ds_centers = solvers.alg_ds(inst, cfg.ds_bounds(inst, 5)).centers
        assert ds_centers != gonzalez(inst, 5).centers
        calls = self.count_assignments(monkeypatch)
        run_experiment(inst, cfg)
        assert calls == [gonzalez(inst, 5).centers, ds_centers]

    def test_reused_assignment_time_is_charged(self, monkeypatch):
        def slow(*args, _solve=solvers.alg_gf, **kwargs):
            time.sleep(0.05)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(solvers, "alg_gf", slow)
        calls = self.count_assignments(monkeypatch)
        inst = gen_random(24, 2, 2, [0.5, 0.5], seed=11)
        cfg = ExperimentConfig(k_values=(2,), delta=0.5, theta=0.5)
        rows = {r.algorithm: r for r in run_experiment(inst, cfg).rows}
        assert len(calls) == 1  # ds-to-gfds reused alg-gf's assignment
        ds = rows["ds-to-gfds"]
        assert ds.status == "ok"
        assert ds.seconds >= 0.05
        assert ds.seconds - rows["alg-ds"].seconds >= 0.05
        assert ds.post_ratio * rows["alg-ds"].seconds >= 0.05

    def test_alg_ds_quota_unreachable_is_infeasible_row(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise solvers.QuotaUnreachable("greedy selection ended below a lower bound")

        monkeypatch.setattr(solvers, "alg_ds", unreachable)
        inst = gen_random(24, 2, 2, [0.5, 0.5], seed=11)
        cfg = ExperimentConfig(k_values=(3,), delta=0.5, theta=0.5)
        report = run_experiment(inst, cfg)
        status = {r.algorithm: r.status for r in report.rows}
        assert status == {
            "color-blind": "ok",
            "alg-gf": "ok",
            "alg-ds": "infeasible",
            "gf-to-gfds": "ok",
            "ds-to-gfds": "infeasible",
        }


def test_non_finite_feature_is_parse_error(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("f0,color\nnan,x\n1,y\n")
    with pytest.raises(ParseError, match="row 2"):
        load_instance(str(p))


def test_overflowing_distance_is_parse_error(tmp_path):
    # finite features whose squared difference passes the float range
    p = tmp_path / "huge.csv"
    p.write_text("f0,color\n0,a\n1e200,b\n2e200,a\n")
    with pytest.raises(ParseError, match="row 2 .* overflows"):
        load_instance(str(p))


def test_overflowing_distance_in_a_large_csv_is_parse_error(tmp_path):
    # large enough for a parallel build, whose workers must keep the
    # loader's errstate: tier-1 turns the overflow's RuntimeWarning into an error
    p = write_far_apart_csv(tmp_path / "huge.csv")
    with pytest.raises(ParseError, match="row 2 .* overflows"):
        load_instance(p)
