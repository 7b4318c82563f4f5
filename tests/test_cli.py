import json
from importlib import resources

import pytest

from fairkc import solvers
from fairkc.cli import main


ADULT = str(resources.files("fairkc") / "data" / "adult_mini.csv")

# Gonzalez picks centers 0 and 3, whose covering radius is 1.0; the distance
# 0.9999999995 is a radius candidate within 1e-9 below it
FOUR_POINTS = {
    "n": 4,
    "m": 2,
    "colors": [0, 1, 0, 1],
    "dist": [[0, 0.9999999995, 4, 5], [0.9999999995, 0, 3, 4], [4, 3, 0, 1], [5, 4, 1, 0]],
}


def run(argv):
    return main(argv)


class TestGenerateSolveEvaluate:
    def test_full_workflow(self, tmp_path, capsys):
        inst_p = str(tmp_path / "inst.json")
        assert run(
            [
                "generate", "--family", "random", "--n", "16", "--m", "2",
                "--dim", "2", "--seed", "9", "--output", inst_p,
            ]
        ) == 0
        sol_p = str(tmp_path / "sol.json")
        assert run(
            [
                "solve", "--algo", "gf-to-gfds", "--k", "2", "--delta", "0.5",
                "--theta", "0.5", "--input", inst_p, "--output", sol_p,
            ]
        ) == 0
        solved = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert "cost" in solved and len(solved["centers"]) >= 1

        assert run(
            ["evaluate", "--solution", sol_p, "--input", inst_p, "--k", "2",
             "--delta", "0.5", "--theta", "0.5"]
        ) == 0
        ev = json.loads(capsys.readouterr().out)
        for key in (
            "cost", "gf_rho", "ds_violation", "inactive_centers",
            "min_alpha_nr", "socially_fair_cost", "min_alpha_proportional",
        ):
            assert key in ev
        assert ev["ds_violation"] == 0

    def test_evaluate_prints_the_whole_report(self, tmp_path, capsys):
        # six points on a line at 0, 1, 2, 4, 5, 6; center 2 takes the three
        # points of color 1 and center 5 takes none
        pos = [0, 1, 2, 4, 5, 6]
        inst_p, sol_p = tmp_path / "inst.json", tmp_path / "sol.json"
        inst_p.write_text(json.dumps({
            "n": 6, "m": 2, "colors": [0, 0, 0, 1, 1, 1],
            "dist": [[abs(a - b) for b in pos] for a in pos],
        }))
        sol_p.write_text(json.dumps({"centers": [0, 2, 5], "assign": [0, 0, 0, 2, 2, 2]}))
        assert run(
            ["evaluate", "--solution", str(sol_p), "--input", str(inst_p),
             "--delta", "0.5", "--theta", "0.5"]
        ) == 0
        assert capsys.readouterr().out == (
            "{\n"
            '  "cost": 4.0,\n'
            '  "gf_rho": 0.75,\n'
            '  "ds_violation": 1,\n'
            '  "inactive_centers": [\n'
            "    5\n"
            "  ],\n"
            '  "min_alpha_nr": 4.0,\n'
            '  "socially_fair_cost": 3.0,\n'
            '  "min_alpha_proportional": 4.0\n'
            "}\n"
        )

    def test_generate_community_and_oracle(self, tmp_path, capsys):
        inst_p = str(tmp_path / "comm.json")
        assert run(
            [
                "generate", "--family", "l-community", "--l", "2", "--size", "4",
                "--R", "1.0", "--pattern", "alternating", "--output", inst_p,
            ]
        ) == 0
        assert run(
            ["oracle", "--input", inst_p, "--k", "2", "--gf", "--delta", "0.0",
             "--rho-allow", "1.0"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "ok" and out["cost"] == 1.0


class TestExitCodes:
    def test_parse_error_is_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1\n1,2\n")
        sol_p = str(tmp_path / "s.json")
        code = run(
            ["solve", "--algo", "color-blind", "--k", "1",
             "--input", str(bad), "--output", sol_p]
        )
        assert code == 3

    def test_infeasible_is_two(self, tmp_path, capsys):
        # 3 blue + 1 red with tight bounds around a half/half split
        inst_p = str(tmp_path / "inst.json")
        obj = {
            "n": 4,
            "m": 2,
            "colors": [0, 0, 0, 1],
            "dist": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
        }
        (tmp_path / "inst.json").write_text(json.dumps(obj))
        code = run(
            ["solve", "--algo", "alg-gf", "--k", "2", "--delta", "0.05",
             "--input", inst_p, "--output", str(tmp_path / "s.json")]
        )
        assert code == 0  # derived bounds center on the global proportions
        # like alg-gf, color-blind needs no DS quotas; they exceed the budget here
        code = run(
            ["solve", "--algo", "color-blind", "--k", "2",
             "--input", inst_p, "--output", str(tmp_path / "s0.json")]
        )
        assert code == 0

        # two active centers demanded, but no 2-way split keeps 3:1 exact
        code = run(
            ["oracle", "--input", inst_p, "--k", "2", "--gf", "--ds",
             "--delta", "0.0", "--theta", "0.5", "--rho-allow", "0.0"]
        )
        assert code == 2

        # derived center quotas above the budget surface as infeasible
        code = run(
            ["solve", "--algo", "alg-ds", "--k", "2", "--theta", "0.8",
             "--input", inst_p, "--output", str(tmp_path / "s2.json")]
        )
        assert code == 2

    def test_numeric_failure_is_two(self, tmp_path, capsys):
        inst_p = str(tmp_path / "inst.json")
        props = "0.2137613423399095,0.3457035685624727,0.19855812982820087,0.2419769592694168"
        assert run(["generate", "--family", "random", "--n", "6", "--m", "4", "--dim", "2",
                    "--proportions", props, "--seed", "525994730", "--output", inst_p]) == 0
        capsys.readouterr()
        code = run(["solve", "--algo", "alg-gf", "--k", "6", "--delta", "0.999999",
                    "--input", inst_p, "--output", str(tmp_path / "s.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("numeric failure: ")

    def test_overflowing_csv_distance_is_three(self, tmp_path, capsys):
        csv_p = tmp_path / "huge.csv"
        csv_p.write_text("f0,color\n0,a\n1e200,b\n2e200,a\n")
        code = run(["solve", "--algo", "alg-gf", "--k", "2",
                    "--input", str(csv_p), "--output", str(tmp_path / "s.json")])
        assert code == 3
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["1.0", "1.5"])
    def test_bad_delta_is_three(self, tmp_path, capsys, delta):
        inst_p = str(tmp_path / "inst.json")
        run(["generate", "--family", "random", "--n", "12", "--m", "2",
             "--dim", "2", "--seed", "1", "--output", inst_p])
        sol_p = str(tmp_path / "s.json")
        assert run(["solve", "--algo", "color-blind", "--k", "3",
                    "--input", inst_p, "--output", sol_p]) == 0
        cfg_p = tmp_path / "cfg.json"
        cfg_p.write_text(json.dumps(
            {"input": inst_p, "k_values": [3], "delta": float(delta),
             "output": str(tmp_path / "report.json")}
        ))
        capsys.readouterr()
        for argv in (
            ["solve", "--algo", "color-blind", "--k", "3", "--delta", delta,
             "--input", inst_p, "--output", str(tmp_path / "s2.json")],
            ["evaluate", "--solution", sol_p, "--input", inst_p, "--delta", delta],
            ["experiment", "--config", str(cfg_p)],
        ):
            assert run(argv) == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("parse error:") and "delta" in err
            assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_bad_theta_is_three(self, tmp_path, capsys):
        inst_p = str(tmp_path / "inst.json")
        run(["generate", "--family", "random", "--n", "12", "--m", "2",
             "--dim", "2", "--seed", "1", "--output", inst_p])
        capsys.readouterr()
        code = run(["solve", "--algo", "alg-ds", "--k", "3", "--theta", "1.5",
                    "--input", inst_p, "--output", str(tmp_path / "s.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "theta" in err

    def test_experiment_subcommand(self, tmp_path, capsys):
        inst_p = str(tmp_path / "inst.json")
        run(
            ["generate", "--family", "random", "--n", "14", "--m", "2",
             "--dim", "2", "--seed", "4", "--output", inst_p]
        )
        report_p = str(tmp_path / "report.json")
        cfg_p = tmp_path / "cfg.json"
        cfg_p.write_text(
            json.dumps(
                {
                    "input": inst_p,
                    "k_values": [2],
                    "delta": 0.5,
                    "theta": 0.5,
                    "p": 1,
                    "seed": 0,
                    "output": report_p,
                }
            )
        )
        assert run(["experiment", "--config", str(cfg_p)]) == 0
        parsed = json.load(open(report_p))
        assert len(parsed["rows"]) == 5

    def test_post_step_errors_are_infeasible(self, tmp_path, capsys):
        # a rare color leaves a gf-to-gfds cluster without a point the cover
        # pass needs: MissingColorInCluster, reported as infeasible
        inst_p = str(tmp_path / "inst.json")
        props = "0.03460169450564441,0.003964451265038209,0.9614338542293174"
        assert run(
            ["generate", "--family", "random", "--n", "17", "--m", "3", "--dim", "2",
             "--proportions", props, "--seed", "0", "--output", inst_p]
        ) == 0
        capsys.readouterr()
        code = run(
            ["solve", "--algo", "gf-to-gfds", "--k", "4", "--delta", "0.05",
             "--theta", "0.5", "--input", inst_p, "--output", str(tmp_path / "s.json")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("infeasible: cluster of center")

    def test_quota_unreachable_is_two(self, tmp_path, capsys, monkeypatch):
        inst_p = str(tmp_path / "inst.json")
        run(["generate", "--family", "random", "--n", "12", "--m", "2",
             "--dim", "2", "--seed", "1", "--output", inst_p])

        def unreachable(*args, **kwargs):
            raise solvers.QuotaUnreachable("greedy selection ended below a lower bound")

        monkeypatch.setattr(solvers, "alg_ds", unreachable)
        code = run(
            ["solve", "--algo", "ds-to-gfds", "--k", "4", "--theta", "0.5",
             "--input", inst_p, "--output", str(tmp_path / "s.json")]
        )
        assert code == 2
        assert "infeasible: greedy selection" in capsys.readouterr().err

    def test_anchor_outside_cluster_is_two(self, tmp_path, capsys):
        # ds_to_gfds's anchor leaves its own cluster; the repair now reports
        # QuotaUnreachable instead of handing divide too many sub-centers
        inst_p = str(tmp_path / "inst.json")
        assert run(
            ["generate", "--family", "random", "--n", "8", "--m", "4", "--dim", "2",
             "--proportions", "0.25,0.25,0.375,0.125", "--seed", "168",
             "--output", inst_p]
        ) == 0
        capsys.readouterr()
        code = run(
            ["solve", "--algo", "ds-to-gfds", "--k", "8", "--delta", "0.05",
             "--theta", "1.0", "--input", inst_p, "--output", str(tmp_path / "s.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible:") and "Traceback" not in err

    def test_evaluate_quotas_above_k_is_two(self, tmp_path, capsys):
        # k defaults to the one center, and theta 0.8 asks for one of each color
        inst_p, sol_p = str(tmp_path / "inst.json"), str(tmp_path / "s.json")
        run(["generate", "--family", "random", "--n", "12", "--m", "2",
             "--seed", "1", "--output", inst_p])
        assert run(["solve", "--algo", "color-blind", "--k", "1",
                    "--input", inst_p, "--output", sol_p]) == 0
        capsys.readouterr()
        assert run(["evaluate", "--solution", sol_p, "--input", inst_p]) == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible:") and "budget" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_malformed_solution_is_three(self, tmp_path, capsys):
        # assign names point 5, which is not one of the centers
        inst_p, sol_p = str(tmp_path / "inst.json"), tmp_path / "s.json"
        run(["generate", "--family", "random", "--n", "12", "--m", "2",
             "--seed", "1", "--output", inst_p])
        sol_p.write_text(json.dumps({"centers": [0, 1], "assign": [0] * 11 + [5]}))
        capsys.readouterr()
        assert run(["evaluate", "--solution", str(sol_p), "--input", inst_p]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "selected center" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["solve", "--algo", "color-blind", "--k", "501"], "k=501"),
            (["oracle", "--k", "501"], "k=501"),
            (["evaluate", "--k", "501"], "k=501"),
            (["evaluate", "--p", "0"], "exponent p"),
        ],
    )
    def test_k_above_n_and_p_below_one_are_three(self, tmp_path, capsys, argv, word):
        # adult_mini has 500 points; the audits need 1 <= k <= n and p >= 1
        sol_p = str(tmp_path / "s.json")
        assert run(["solve", "--algo", "color-blind", "--k", "4",
                    "--input", ADULT, "--output", sol_p]) == 0
        capsys.readouterr()
        files = {"solve": ["--output", str(tmp_path / "s2.json")],
                 "oracle": [], "evaluate": ["--solution", sol_p]}[argv[0]]
        assert run(argv + ["--input", ADULT] + files) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and word in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "s2.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "random", "--m", "0"],
            ["--family", "random", "--n", "3", "--m", "5"],
            ["--family", "random", "--proportions", "x,y"],
            ["--family", "random", "--proportions", "0.5"],
            ["--family", "random", "--proportions", "0.5,0.7"],
            ["--family", "random", "--dim", "-1"],
            ["--family", "l-community", "--l", "0"],
            ["--family", "l-community", "--size", "0"],
            ["--family", "l-community", "--R", "-1.0"],
            ["--family", "l-community", "--l", "2", "--size", "3",
             "--pattern", "odd-mixed-last"],
            ["--family", "proportional-gadget", "--k", "4"],
            ["--family", "proportional-gadget", "--alpha-ap", "0.1"],
        ],
    )
    def test_bad_generate_arguments_are_three(self, tmp_path, capsys, argv):
        out_p = tmp_path / "inst.json"
        assert run(["generate", *argv, "--output", str(out_p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out_p.exists()

    @pytest.mark.parametrize("missing", ["--input", "--output"])
    def test_unreadable_or_unwritable_file_is_three(self, tmp_path, capsys, missing):
        files = {"--input": ADULT, "--output": str(tmp_path / "s.json")}
        files[missing] = str(tmp_path / "no-such-dir" / "x.json")
        argv = ["solve", "--algo", "color-blind", "--k", "4"]
        assert run(argv + [part for kv in files.items() for part in kv]) == 3
        err = capsys.readouterr().err
        assert err == f"parse error: {files[missing]}: No such file or directory\n"

    @pytest.mark.parametrize(
        "role, content",
        [
            ("config", "5"),
            ("config", {"output": 1}),
            ("config", {"input": 1}),
            ("solution", "5"),
            ("instance", "5"),
            ("instance", {"m": "2"}),
            ("instance", {"n": "x"}),
            ("solution", {"assign": [0] * 11 + [10**30]}),
        ],
        ids=["config-5", "config-output-1", "config-input-1", "solution-5",
             "instance-5", "instance-m-string", "instance-n-string",
             "solution-assign-huge"],
    )
    def test_malformed_json_file_is_three(self, tmp_path, capsys, role, content):
        # a whole-file string replaces the file; a dict replaces some of its keys
        paths = {name: tmp_path / f"{name}.json" for name in ("instance", "solution", "config")}
        inst_p, sol_p, cfg_p = (str(paths[name]) for name in ("instance", "solution", "config"))
        report_p = tmp_path / "report.json"
        run(["generate", "--family", "random", "--n", "12", "--m", "2",
             "--seed", "1", "--output", inst_p])
        assert run(["solve", "--algo", "color-blind", "--k", "2",
                    "--input", inst_p, "--output", sol_p]) == 0
        paths["config"].write_text(json.dumps(
            {"input": inst_p, "k_values": [2], "output": str(report_p)}
        ))
        if isinstance(content, dict):
            content = json.dumps({**json.loads(paths[role].read_text()), **content})
        paths[role].write_text(content)
        capsys.readouterr()
        if role == "config":
            argv = ["experiment", "--config", cfg_p]
        else:
            argv = ["evaluate", "--solution", sol_p, "--input", inst_p]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and role in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not report_p.exists()

    def test_candidate_just_below_the_covering_radius(self, tmp_path, capsys):
        inst_p, cfg_p = tmp_path / "inst.json", tmp_path / "cfg.json"
        report_p = tmp_path / "report.json"
        inst_p.write_text(json.dumps(FOUR_POINTS))
        assert run(["solve", "--algo", "alg-gf", "--k", "2", "--input", str(inst_p),
                    "--output", str(tmp_path / "s.json")]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] == 1.0
        cfg_p.write_text(json.dumps(
            {"input": str(inst_p), "k_values": [2], "output": str(report_p)}
        ))
        assert run(["experiment", "--config", str(cfg_p)]) == 0
        rows = json.loads(report_p.read_text())["rows"]
        assert [row["status"] for row in rows] == ["ok"] * 5
        capsys.readouterr()
        # the oracle reports the cost of the solution it returns, not the radius
        assert run(["oracle", "--input", str(inst_p), "--k", "2", "--gf"]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] == 1.0

    @pytest.mark.parametrize(
        "dist, word",
        [('[["0", "1.5"], ["1.5", "0"]]', "numbers"), ("[[0, true], [true, 0]]", "numbers"),
         ("[[0, Infinity], [Infinity, 0]]", "finite"), ("[[0, NaN], [NaN, 0]]", "finite")],
        ids=["string", "bool", "infinity", "nan"],
    )
    def test_non_number_distance_is_three(self, tmp_path, capsys, dist, word):
        inst_p, sol_p = tmp_path / "inst.json", tmp_path / "s.json"
        inst_p.write_text(f'{{"n": 2, "m": 2, "colors": [0, 1], "dist": {dist}}}')
        assert run(["solve", "--algo", "alg-gf", "--k", "2", "--input", str(inst_p),
                    "--output", str(sol_p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:") and word in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not sol_p.exists()

    @pytest.mark.parametrize(
        "role, key, value",
        [
            ("solution", "centers", [0.9, 3]),
            ("solution", "assign", [0, 0, 3, 3.7]),
            ("instance", "colors", [0, 1, 0.5, 1]),
            ("config", "k_values", [2.9]),
            ("config", "p", "3"),
            ("config", "seed", 1.5),
            ("config", "delta", "0.3"),
            ("config", "theta", True),
        ],
        ids=lambda v: v if isinstance(v, str) and v.isidentifier() else None,
    )
    def test_non_integer_json_field_is_three(self, tmp_path, capsys, role, key, value):
        # each value would otherwise be truncated or coerced into a valid one
        objs = {
            "instance": dict(FOUR_POINTS),
            "solution": {"centers": [0, 3], "assign": [0, 0, 3, 3]},
            "config": {"input": str(tmp_path / "instance.json"), "k_values": [2],
                       "output": str(tmp_path / "report.json")},
        }
        objs[role][key] = value
        for name, obj in objs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        if role == "config":
            argv = ["experiment", "--config", str(tmp_path / "config.json")]
        else:
            argv = ["evaluate", "--solution", str(tmp_path / "solution.json"),
                    "--input", str(tmp_path / "instance.json")]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and key in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("n, k", [(16, 2), (12, 4)])
    def test_oracle_beyond_its_caps_is_three(self, tmp_path, capsys, n, k):
        inst_p = str(tmp_path / "inst.json")
        run(["generate", "--family", "random", "--n", str(n), "--m", "2",
             "--seed", "1", "--output", inst_p])
        capsys.readouterr()
        assert run(["oracle", "--input", inst_p, "--k", str(k)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "caps" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("points", [11, 13])
    def test_solution_of_another_size_is_three(self, tmp_path, capsys, points):
        inst_p, sol_p = str(tmp_path / "inst.json"), tmp_path / "s.json"
        run(["generate", "--family", "random", "--n", "12", "--m", "2",
             "--seed", "1", "--output", inst_p])
        sol_p.write_text(json.dumps({"centers": [0, 1], "assign": [0] * points}))
        capsys.readouterr()
        assert run(["evaluate", "--solution", str(sol_p), "--input", inst_p]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and f"assigns {points} points" in err
        assert err.count("\n") == 1 and "Traceback" not in err
