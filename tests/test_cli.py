import json
from importlib import resources

import pytest

from fairkc import solvers
from fairkc.cli import main


ADULT = str(resources.files("fairkc") / "data" / "adult_mini.csv")


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
