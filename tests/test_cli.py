import argparse
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

import mkdiv
from mkdiv import cli
from mkdiv.cli import build_parser, canonical_json, main
from mkdiv.errors import MkdivError
from mkdiv.specs import parse_distribution


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def csv_pair(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("value\n0\n1\n")
    b.write_text("2\n3\n")
    return str(a), str(b)


class TestCanonicalJson:
    def test_sorted_keys_and_17_digits(self):
        text = canonical_json({"b": 1.0 / 3.0, "a": 4.0, "flag": True, "s": "x"})
        assert text == '{"a":4,"b":0.33333333333333331,"flag":true,"s":"x"}'

    def test_nested(self):
        assert canonical_json({"g": {"M": 4, "v": [1.5, 2]}}) == '{"g":{"M":4,"v":[1.5,2]}}'

    def test_float_array_renders_as_its_elements(self):
        nodes = np.random.default_rng(0).normal(size=10_000) * np.logspace(-300, 300, 10_000)
        nodes[[0, 17, 9999]] = [-0.0, 0.0, 1.0 / 3.0]
        want = "[" + ",".join(format(float(x), ".17g") for x in nodes) + "]"
        assert "-0," in want
        assert canonical_json(nodes) == want
        assert canonical_json({"nodes": nodes}) == '{"nodes":' + want + "}"

    def test_solutions_hand_over_their_node_arrays(self):
        worst = mkdiv.solve_worst_case(mkdiv.quadratic(), mkdiv.dual_power(2.0),
                                       mkdiv.Uniform(0, 1), 0.03, m=64)
        market = mkdiv.MarketSpec(mkdiv.Uniform(0, 1))
        pay = mkdiv.cheapest_payoff(mkdiv.quadratic(), mkdiv.Uniform(0, 1), market, 0.02, m=64)
        for sol, curve, eps in [(worst, worst.worst_quantile, 0.03),
                                (pay, pay.payoff_quantile, 0.02)]:
            csv_args = argparse.Namespace(eps=eps, format="csv")
            payload, csv_curve = cli._solution_payload(sol, curve, csv_args)
            assert payload["grid"]["nodes"] is curve.nodes
            assert csv_curve is curve
            json_args = argparse.Namespace(eps=eps, format="json")
            assert cli._solution_payload(sol, curve, json_args)[1] is None

    def test_none_is_null(self):
        assert canonical_json({"witness": None}) == '{"witness":null}'

    def test_a_nan_is_not_rendered(self):
        with pytest.raises(MkdivError, match="^non-finite value in JSON output: nan$"):
            canonical_json({"value": float("nan")})

    def test_an_unknown_object_is_not_rendered(self):
        with pytest.raises(MkdivError, match="^cannot serialize object to JSON$"):
            canonical_json({"value": object()})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_entry_is_named(self, bad):
        nodes = np.array([0.0, 1.0, bad, np.nan])
        with pytest.raises(MkdivError, match=f"non-finite value in JSON output: {bad}$"):
            canonical_json({"nodes": nodes})


class TestDivergence:
    def test_hand_value(self, csv_pair):
        a, b = csv_pair
        code, out, _ = run_cli(
            [
                "divergence",
                "--score", "score:bregman,phi=quadratic",
                "--from", f"empirical:path={a}",
                "--to", f"empirical:path={b}",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 4.0
        assert payload["coupling"] == "comonotonic"
        assert payload["score"] == "score:bregman,phi=quadratic"
        assert payload["grid"] == {"M": 10000}
        assert set(payload) == {"value", "coupling", "score", "grid"}

    def test_bad_spec_exits_one(self, csv_pair):
        a, b = csv_pair
        code, out, err = run_cli(
            [
                "divergence",
                "--score", "score:nonsense",
                "--from", f"empirical:path={a}",
                "--to", f"empirical:path={b}",
            ]
        )
        assert code == 1
        assert "nonsense" in json.loads(err)["error"]

    @pytest.mark.parametrize("grid", [["--grid-m", "0"], ["--grid-m", "1"]])
    def test_invalid_grid_exits_one_as_elicit_check_does(self, grid):
        divergence = run_cli(["divergence", "--score", "score:gpl,alpha=0.9",
                              "--from", "uniform:a=0,b=1", "--to", "normal:mu=1,sigma=2", *grid])
        elicit = run_cli(["elicit-check", "--functional", "functional:quantile,alpha=0.9",
                          "--score", "score:gpl,alpha=0.9", "--dist", "normal:mu=1,sigma=2", *grid])
        assert divergence[0] == elicit[0] == 1
        assert divergence[1:] == elicit[1:]
        assert "grid needs" in divergence[2] or "truncation level" in divergence[2]

    @pytest.mark.parametrize("m", ["-5", "0", "1"])
    def test_invalid_grid_exits_one_on_empirical_laws_too(self, csv_pair, m):
        # an empirical law's atoms are its sample, yet the law checks m
        a, b = csv_pair
        divergence = run_cli(["divergence", "--score", "score:bregman,phi=quadratic",
                              "--from", f"empirical:path={a}", "--to", f"empirical:path={b}",
                              "--grid-m", m])
        elicit = run_cli(["elicit-check", "--functional", "functional:mean",
                          "--score", "score:bregman,phi=quadratic",
                          "--dist", f"empirical:path={a}", "--grid-m", m])
        error = canonical_json({"error": f"grid needs an integer m >= 2, got m={m}"}) + "\n"
        assert divergence == elicit == (1, "", error)

    def test_the_echoed_dist_parses_back(self, tmp_path):
        p = tmp_path / "a,b.csv"
        p.write_text("value\n0.5\n0.25\n1\n")
        code, out, _ = run_cli(["elicit-check", "--functional", "functional:mean",
                                "--score", "score:bregman,phi=quadratic", "--dist", f"empirical:{p}"])
        assert code == 0
        dist = json.loads(out)["dist"]
        assert dist == f"empirical:{p}"
        assert parse_distribution(dist).values.tolist() == [0.25, 0.5, 1.0]

    def test_undefined_divergence_exits_one(self):
        code, out, err = run_cli(["divergence", "--score", "score:entropic,gamma=1,phi=quadratic",
                                  "--from", "normal:mu=0,sigma=100", "--to", "normal:mu=1,sigma=100"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "divergence is undefined: the score values sum to nan"


class TestVerify:
    ARGS = [
        "verify",
        "--score", "score:gpl,alpha=0.9,g=identity",
        "--n", "8",
        "--instances", "100",
        "--seed", "7",
    ]

    def test_a_largest_size_below_two_is_one_error(self):
        code, out, err = run_cli(["verify", "--score", "score:gpl,alpha=0.9", "--n", "1"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "instance sizes must satisfy 2 <= n_min <= n_max <= 64"

    def test_passes_and_reports_deviation(self):
        code, out, _ = run_cli(self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_deviation"] <= 1e-9
        assert payload["score"] == "score:gpl,alpha=0.9,g=identity"

    def test_byte_identical_repeats(self):
        _, out1, _ = run_cli(self.ARGS)
        _, out2, _ = run_cli(self.ARGS)
        assert out1 == out2

    def test_deviation_beyond_tolerance_exits_two(self):
        # an impossible tolerance turns the honest 1e-16 float noise into a
        # reported verification failure
        code, out, _ = run_cli(self.ARGS + ["--tol", "1e-30"])
        assert code == 2
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("tol", ["1e-9", "1e-30", "0"])
    def test_payload_keys_and_pass_rule(self, tol):
        code, out, _ = run_cli(self.ARGS + ["--tol", tol])
        payload = json.loads(out)
        assert set(payload) == {"score", "coupling", "instances", "n_min", "n_max", "seed",
                                "max_deviation", "tolerance", "passed"}
        assert payload["passed"] is (payload["max_deviation"] <= payload["tolerance"])
        assert code == (0 if payload["passed"] else 2)


class TestWorstCase:
    ARGS = [
        "worst-case",
        "--phi", "phi:quadratic",
        "--distortion", "distortion:dualpower,k=2",
        "--ref", "uniform:a=0,b=1",
        "--eps", "0.03",
    ]

    def test_an_infinite_budget_is_one_error(self):
        code, out, err = run_cli([*self.ARGS[:-1], "inf"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "calibration needs a finite eps, got eps=inf"

    def test_analytic_value(self):
        code, out, _ = run_cli(self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_value"] == pytest.approx(0.8666667, abs=1e-6)
        assert payload["lambda_star"] == pytest.approx(10.0 / 3.0, abs=1e-6)
        assert payload["binding"] is True
        assert len(payload["grid"]["nodes"]) == payload["grid"]["M"]
        assert set(payload) == {"lambda_star", "worst_value", "epsilon", "binding",
                                "divergence_at_solution", "grid"}
        assert set(payload["grid"]) == {"M", "nodes"}

    def test_repeat_is_byte_identical(self):
        _, out1, _ = run_cli(self.ARGS)
        _, out2, _ = run_cli(self.ARGS)
        assert out1 == out2

    def test_csv_dump(self, tmp_path):
        target = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            self.ARGS + ["--grid-m", "64", "--out", str(target), "--format", "csv"]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "u,value"
        assert len(lines) == 65


class TestPayoff:
    def test_analytic_value(self):
        code, out, _ = run_cli(
            [
                "payoff",
                "--phi", "phi:quadratic",
                "--benchmark", "uniform:a=0,b=1",
                "--market", "market:spd=uniform:a=0,b=1;r=0;T=1",
                "--eps", str(1.0 / 48.0),
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda_star"] == pytest.approx(2.0, abs=1e-6)
        assert payload["cost"] == pytest.approx(1.0 / 12.0, abs=1e-5)
        assert payload["nonneg_violation"] is True
        assert set(payload) == {"lambda_star", "cost", "epsilon", "binding",
                                "nonneg_violation", "divergence_at_solution", "grid"}
        assert set(payload["grid"]) == {"M", "nodes"}


    def test_non_finite_weight_exits_one_before_any_probe(self, calls_to):
        probes = calls_to("mkdiv.robust.perturbed_nodes")
        code, out, err = run_cli(
            ["payoff", "--phi", "phi:quadratic", "--benchmark", "uniform:a=0,b=1",
             "--market", "market:spd=lognormal:mu=706,sigma=1;r=0;T=1", "--eps", "0.02"]
        )
        assert probes == []
        assert (code, out) == (1, "")
        assert err == canonical_json({
            "error": "state-price density 'lognormal' has a non-finite weight -inf "
            "at node 0 (u=5e-05)"
        }) + "\n"


class TestElicitCheck:
    def test_expectile_agreement(self):
        code, out, _ = run_cli(
            [
                "elicit-check",
                "--functional", "functional:expectile,alpha=0.7",
                "--score", "score:expectile,alpha=0.7,phi=quadratic",
                "--dist", "uniform:a=0,b=1",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["deviation"] <= 1e-5

    def test_mean_of_a_skewed_law_is_that_of_the_scored_atoms(self):
        # the argmin scores the m grid atoms, so the mean it is checked
        # against is theirs, not the exact mean 1 of the law
        code, out, _ = run_cli(["elicit-check", "--functional", "functional:mean",
                                "--score", "score:bregman,phi=quadratic",
                                "--dist", "exponential:rate=1"])
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True
        assert payload["functional_value"] == pytest.approx(0.99996534305763873, rel=1e-15)
        assert payload["deviation"] <= 1e-8

    def test_non_finite_atom_exits_one_with_one_error(self):
        code, out, err = run_cli(["elicit-check", "--functional", "functional:mean",
                                  "--score", "score:bregman,phi=quadratic",
                                  "--dist", "lognormal:mu=0,sigma=300"])
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "non-finite sample value at index 9910: inf"}

    @pytest.mark.parametrize(
        "functional, score, dist",
        [
            ("functional:entropic,gamma=1", "score:entropic,gamma=1,phi=quadratic",
             "exponential:rate=1"),
            ("functional:entropic,gamma=1", "score:entropic,gamma=1,phi=quadratic",
             "lognormal:mu=0,sigma=1"),
            ("functional:shortfall,loss=exponential", "score:shortfall,loss=exponential",
             "lognormal:mu=0,sigma=1"),
        ],
    )
    def test_infinite_exponential_moment_exits_one(self, functional, score, dist):
        # the m grid atoms of these laws are finite, so only the law itself
        # can tell that E[e^Y] is infinite
        argv = ["elicit-check", "--functional", functional, "--score", score, "--dist", dist]
        kind = dist.split(":")[0]
        message = f"exponential moment not finite for the {kind} law (gamma=1.0)"
        assert run_cli(argv) == (1, "", canonical_json({"error": message}) + "\n")

    def test_a_flat_quantile_passes_at_distance_zero(self):
        # 0.9 * 10^4 grid atoms is an integer: the argmin may stop anywhere
        # between the 9000th and the 9001st atom, 5.7e-4 apart
        code, out, _ = run_cli(["elicit-check", "--functional", "functional:quantile,alpha=0.9",
                                "--score", "score:gpl,alpha=0.9,g=identity",
                                "--dist", "normal:mu=-1,sigma=1"])
        payload = json.loads(out)
        lo, hi = payload["interval"]
        assert code == 0 and payload["passed"] is True
        assert lo == payload["functional_value"] < hi
        assert lo <= payload["argmin"] <= hi and payload["deviation"] == 0.0

    def test_payload_keys(self):
        code, out, _ = run_cli(["elicit-check", "--functional", "functional:mean",
                                "--score", "score:bregman,phi=quadratic",
                                "--dist", "uniform:a=0,b=1", "--grid-m", "64", "--steps", "9"])
        payload = json.loads(out)
        assert set(payload) == {"functional", "score", "dist", "functional_value", "argmin",
                                "deviation", "tolerance", "passed"}
        assert code == (0 if payload["passed"] else 2)


class TestAxioms:
    @pytest.mark.parametrize("flag, message", [
        ("--pairs", "axiom check needs at least one sample pair"),
        ("--size", "sample pair 0 is empty or misaligned"),
    ])
    def test_no_pair_or_an_empty_sample_is_one_error(self, flag, message):
        code, out, err = run_cli(["axioms", "--functional", "functional:mean", flag, "0"])
        assert (code, out, err) == (1, "", json.dumps({"error": message}, separators=(",", ":")) + "\n")

    def test_expectile_03_reports_convexity_failure(self):
        code, out, _ = run_cli(
            [
                "axioms",
                "--functional", "functional:expectile,alpha=0.3",
                "--pairs", "50",
                "--size", "40",
                "--seed", "3",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["convexity"]["passed"] is False
        assert "witness" in by_name["convexity"]
        assert by_name["translation_invariance"]["passed"] is True

    def test_payload_keys_and_witness_only_on_failure(self):
        code, out, _ = run_cli(["axioms", "--functional", "functional:expectile,alpha=0.3",
                                "--pairs", "5", "--size", "40", "--seed", "3"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"functional", "tol", "all_passed", "checks",
                                "pairs", "size", "seed"}
        assert [c["name"] for c in payload["checks"]] == [
            "translation_invariance", "positive_homogeneity", "convexity", "monotonicity"]
        for c in payload["checks"]:
            keys = {"name", "passed", "max_violation"}
            assert set(c) == (keys if c["passed"] else keys | {"witness"})
        assert payload["checks"][2]["passed"] is False
        assert payload["all_passed"] is False
        assert (payload["pairs"], payload["size"], payload["seed"]) == (5, 40, 3)

    def test_deterministic(self):
        args = ["axioms", "--functional", "functional:expectile,alpha=0.7",
                "--pairs", "10", "--size", "20", "--seed", "5"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2


TVAR_WORST_CASE = ["worst-case", "--distortion", "distortion:tvar,alpha=0.9",
                   "--ref", "normal:mu=0,sigma=1", "--eps", "0.02", "--grid-m", "100"]
TVAR_WARNING = {
    "warning": "distortion 'tvar' is not strictly concave; the solution may not be unique"
}


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path, run_python):
        a = tmp_path / "a.csv"
        a.write_text("1\n2\n")
        proc = run_python(
            "-m", "mkdiv.cli", "divergence",
            "--score", "score:bregman,phi=quadratic",
            "--from", f"empirical:path={a}",
            "--to", f"empirical:path={a}",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 0.0

    def test_stderr_is_one_json_error(self, run_python):
        # the top quantile nodes overflow to inf on the way to a NaN sum
        proc = run_python(
            "-m", "mkdiv.cli", "divergence",
            "--score", "score:bregman,phi=quadratic",
            "--from", "lognormal:mu=0,sigma=300",
            "--to", "lognormal:mu=0,sigma=300",
            "--grid-m", "1000",
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr) == {
            "error": "divergence is undefined: the score values sum to nan"
        }
        # sizes no numpy array can hold are rejected before any allocation
        huge = str(2**62)
        cap = np.iinfo(np.intp).max // 8
        for argv, message in [
            (["divergence", "--score", "score:bregman,phi=quadratic",
              "--from", "normal:mu=0,sigma=1", "--to", "normal:mu=1,sigma=1", "--grid-m", huge],
             f"grid needs m <= {cap}, got m={huge}"),
            ([*TVAR_WORST_CASE[:-1], huge, "--phi", "phi:quadratic"],
             f"grid needs m <= {cap}, got m={huge}"),
            (["elicit-check", "--functional", "functional:mean",
              "--score", "score:bregman,phi=quadratic", "--dist", "normal:mu=0,sigma=1",
              "--steps", huge],
             f"argmin needs steps <= {cap}, got steps={huge}"),
            (["axioms", "--functional", "functional:mean", "--pairs", "1", "--size", huge],
             f"axiom check needs size <= {cap}, got size={huge}"),
        ]:
            proc = run_python("-m", "mkdiv.cli", *argv)
            assert (proc.returncode, proc.stdout) == (1, "")
            assert json.loads(proc.stderr) == {"error": message}

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB"),
        (MemoryError(), "out of memory"),
    ])
    def test_a_memory_error_is_one_json_error(self, exc, message, monkeypatch):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr("mkdiv.transport.mk_divergence", exhausted)
        code, out, err = run_cli(["divergence", "--score", "score:bregman,phi=quadratic",
                                  "--from", "normal:mu=0,sigma=1", "--to", "normal:mu=1,sigma=1"])
        assert (code, out) == (1, "")
        assert err.splitlines() == [canonical_json({"error": message})]

    def test_a_failed_warned_solve_prints_only_its_error(self, run_python):
        # xlogx has no room for the negative nodes of Normal(0, 1)
        proc = run_python("-m", "mkdiv.cli", *TVAR_WORST_CASE, "--phi", "phi:xlogx")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr) == {
            "error": "second Bregman argument outside the domain (0.0, inf) "
            "of generator 'xlogx'"
        }

    def test_a_warned_solve_prints_each_warning_as_json(self, run_python):
        proc = run_python("-m", "mkdiv.cli", *TVAR_WORST_CASE, "--phi", "phi:quadratic")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["binding"] is True
        assert [json.loads(line) for line in proc.stderr.splitlines()] == [TVAR_WARNING]

    @pytest.mark.parametrize("argv", [
        ["worst-case", "--phi", "phi:quadratic", "--distortion", "distortion:dualpower,k=2",
         "--ref", "uniform:a=0,b=1", "--eps", "0.03"],
        ["divergence", "--score", "score:bregman,phi=quadratic",
         "--from", "normal:mu=0,sigma=1", "--to", "normal:mu=1,sigma=1", "--grid-m", "10"],
    ])
    def test_a_closed_stdout_pipe_exits_quietly(self, argv, run_python):
        # the reader is gone before the child writes, as when `| head -c 10`
        # has read its bytes: the payload's write fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python("-m", "mkdiv.cli", *argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_the_installed_script_is_console_main(self):
        # the tests run the script as python -m mkdiv.cli; the installed
        # mkdiv must run the same function.  Read as text: Python 3.10 has
        # no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.strip() == 'mkdiv = "mkdiv.cli:console_main"'

    def test_in_process_runs_report_their_warning_each_time(self):
        for _ in range(2):
            code, out, err = run_cli([*TVAR_WORST_CASE, "--phi", "phi:quadratic"])
            assert code == 0 and out
            assert json.loads(err) == TVAR_WARNING


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--score", "score:gpl,alpha=0.9", "--grid-m", "3", "--delta", "0.4"],
            ["divergence", "--score", "score:bregman,phi=quadratic",
             "--from", "point:c=0", "--to", "point:c=1", "--tol", "1e-3"],
            ["axioms", "--functional", "functional:mean", "--format", "csv"],
            ["elicit-check", "--functional", "functional:mean",
             "--score", "score:bregman,phi=quadratic", "--dist", "point:c=0",
             "--format", "csv"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["worst-case", "payoff"])
    def test_csv_format_without_out_is_a_usage_error(self, command, capsys):
        assert main([command, *WALK_ARGS[command], "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{command}: --format csv needs --out FILE" in captured.err

    @pytest.mark.parametrize("command", ["divergence", "worst-case", "payoff", "elicit-check"])
    def test_delta_is_a_usage_error(self, command, capsys):
        assert main([command, *WALK_ARGS[command], "--delta", "0"]) == 1
        assert "unrecognized arguments: --delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--score", "score:gpl,alpha=0.9", "--instances", "2", "--tol", "nan"],
             "certification needs a finite tolerance, got tolerance=nan"),
            (["elicit-check", "--functional", "functional:mean",
              "--score", "score:bregman,phi=quadratic", "--dist", "point:c=0", "--tol", "nan"],
             "elicit-check needs a finite tol, got tol=nan"),
            (["axioms", "--functional", "functional:mean", "--tol", "-1"],
             "axiom check needs a non-negative tol, got tol=-1.0"),
        ],
    )
    def test_invalid_tolerance_exits_one_naming_it(self, argv, message):
        assert run_cli(argv) == (1, "", canonical_json({"error": message}) + "\n")

    @pytest.mark.parametrize("tol", ["inf", "1e-8"])
    @pytest.mark.parametrize("command", ["worst-case", "payoff"])
    def test_solvers_take_no_tolerance(self, command, tol):
        # binding has one rule, |divergence - eps| <= 1e-8 * eps
        message = f"mkdiv: unrecognized arguments: --tol {tol}"
        argv = [command, *WALK_ARGS[command], "--tol", tol]
        assert run_cli(argv) == (1, "", canonical_json({"error": message}) + "\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--score", "score:gpl,alpha=0.9", "--seed", "-1"],
             "certification needs an integer seed >= 0, got seed=-1"),
            (["axioms", "--functional", "functional:mean", "--seed", "-1"],
             "axiom check needs an integer seed >= 0, got seed=-1"),
            (["axioms", "--functional", "functional:mean", "--size", "-1"],
             "axiom check needs an integer size >= 0, got size=-1"),
        ],
    )
    def test_negative_seed_or_size_exits_one_naming_it(self, argv, message):
        assert run_cli(argv) == (1, "", canonical_json({"error": message}) + "\n")

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, prefix, phrase",
        [
            (["divergence", "--score", "score:bregman,phi=quadratic", "--from", "point:c=0",
              "--to", "point:c=1", "--delta", "0"],
             "mkdiv: ", "unrecognized arguments: --delta 0"),
            (["divergence", "--score", "score:bregman,phi=quadratic", "--from", "point:c=0"],
             "mkdiv divergence: ", "the following arguments are required: --to"),
            (["diverge"], "mkdiv: ", "invalid choice: 'diverge'"),
            (["worst-case", "--phi", "phi:quadratic", "--distortion", "distortion:dualpower,k=2",
              "--ref", "uniform:a=0,b=1", "--eps", "x"],
             "mkdiv worst-case: ", "argument --eps: invalid float value: 'x'"),
            (["payoff", "--phi", "phi:quadratic", "--benchmark", "uniform:a=0,b=1",
              "--market", "market:spd=uniform:a=0,b=1", "--eps", "0.02", "--format", "csv"],
             "mkdiv payoff: ", "--format csv needs --out FILE"),
        ],
    )
    def test_usage_error_is_one_json_line(self, argv, prefix, phrase, capsys):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        message = json.loads(line)["error"]
        assert line == canonical_json({"error": message})
        assert message.startswith(prefix) and phrase in message
        assert capsys.readouterr() == ("", "")  # nothing bypasses err


# A small run of every subcommand.
WALK_ARGS = {
    "divergence": ["--score", "score:bregman,phi=quadratic", "--from", "uniform:a=0,b=1",
                   "--to", "point:c=2", "--grid-m", "64"],
    "verify": ["--score", "score:gpl,alpha=0.9", "--instances", "3"],
    "worst-case": ["--phi", "phi:quadratic", "--distortion", "distortion:dualpower,k=2",
                   "--ref", "uniform:a=0,b=1", "--eps", "0.03", "--grid-m", "64"],
    "payoff": ["--phi", "phi:quadratic", "--benchmark", "uniform:a=0,b=1",
               "--market", "market:spd=uniform:a=0,b=1", "--eps", "0.02", "--grid-m", "64"],
    "elicit-check": ["--functional", "functional:mean", "--score", "score:bregman,phi=quadratic",
                     "--dist", "uniform:a=0,b=1", "--grid-m", "64", "--steps", "9"],
    "axioms": ["--functional", "functional:mean", "--pairs", "2", "--size", "5"],
}


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_walk_runs_every_subcommand():
    assert set(_subparsers()) == set(WALK_ARGS)


@pytest.mark.parametrize("command", sorted(WALK_ARGS))
def test_every_declared_flag_is_read(command, tmp_path, monkeypatch):
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(self, args=None, namespace=None):
        parsed = parse_args(self, args, Recording())
        reads.clear()  # argparse reads the namespace while it fills in defaults
        return parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    argv = [command, *WALK_ARGS[command], "--out", str(tmp_path / "artifact")]
    code, _, err = run_cli(argv)
    assert code == 0, err
    declared = {a.dest for a in _subparsers()[command]._actions if a.dest != "help"}
    assert declared - reads == set()


class TestElicitBracket:
    ARGS = ["elicit-check", "--functional", "functional:mean",
            "--score", "score:bregman,phi=quadratic", "--dist", "normal:mu=0,sigma=1"]

    def test_lower_bound_alone_is_honoured(self):
        code, out, _ = run_cli(self.ARGS + ["--z-lo", "0.5"])
        assert code == 2
        assert json.loads(out)["argmin"] >= 0.5

    def test_upper_bound_alone_is_honoured(self):
        code, out, _ = run_cli(self.ARGS + ["--z-hi", "-0.5"])
        assert code == 2
        assert json.loads(out)["argmin"] <= -0.5

    def test_a_bracket_whose_width_overflows_is_one_error(self):
        code, out, err = run_cli(self.ARGS + ["--z-lo=-1e308", "--z-hi=1e308"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == (
            "need a finite bracket width z_hi - z_lo, got (-1e+308, 1e+308)")

    def test_a_wide_bracket_is_searched_to_the_end(self):
        code, out, _ = run_cli(["elicit-check", "--functional", "functional:quantile,alpha=0.3",
                                "--score", "score:gpl,alpha=0.3,g=identity",
                                "--dist", "normal:mu=0,sigma=1", "--z-lo=-1e60", "--z-hi=1e60"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_an_end_game_with_no_finite_probe_is_one_error(self):
        code, out, err = run_cli(self.ARGS + ["--z-lo=-1e200", "--z-hi=1e200"])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("Brent's minimiser found no finite value on")

    @pytest.mark.parametrize("value", ["-1e-3", "-2E+0", "-1.e-1", "-.5e1", "-3"])
    def test_a_negative_float_is_a_value(self, value):
        # argparse through Python 3.13 takes -1e-3 for a flag
        spaced = run_cli(self.ARGS + ["--z-lo", value, "--z-hi", "1"])
        assert spaced == run_cli(self.ARGS + [f"--z-lo={value}", "--z-hi", "1"])
        assert spaced[0] != 1

    def test_an_unknown_flag_is_still_a_usage_error(self):
        code, out, err = run_cli(self.ARGS + ["--z-lo", "-1e-3", "--bogus"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "mkdiv: unrecognized arguments: --bogus"
        code, _, err = run_cli(self.ARGS + ["--z-lo", "-e"])
        assert code == 1 and "argument --z-lo: expected one argument" in err

    def test_infinite_bound_is_one_error(self):
        code, out, err = run_cli(self.ARGS + ["--z-lo=-inf"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith("need finite z_lo < z_hi, got (-inf, ")


BREG = ["--score", "score:bregman,phi=quadratic"]
WORST = ["worst-case", "--phi", "phi:quadratic", "--distortion", "distortion:dualpower,k=2",
         "--ref", "uniform:a=0,b=1", "--eps", "0.03", "--grid-m", "16"]


@pytest.mark.parametrize(
    "argv,path,reason",
    [
        (["divergence", *BREG, "--from", "empirical:path={tmp}/none.csv", "--to", "point:c=0"],
         "{tmp}/none.csv", "cannot read (No such file or directory)"),
        (["divergence", *BREG, "--from", "empirical:path={tmp}", "--to", "point:c=0"],
         "{tmp}", "cannot read (Is a directory)"),
        (["divergence", *BREG, "--from", "empirical:{tmp}/latin.csv", "--to", "point:c=0"],
         "{tmp}/latin.csv", "cannot read ('utf-8' codec can't decode"),
        (["verify", "--score", "score:lambda,file={tmp}/none.json"],
         "{tmp}/none.json", "cannot read step-function JSON (No such file or directory)"),
        (["verify", "--score", "score:lambda,file={tmp}/list.json"],
         "{tmp}/list.json", "step-function JSON must be an object, got list"),
        (["verify", "--score", "score:lambda,file={tmp}/bad.json"],
         "{tmp}/bad.json", "cannot read step-function JSON (Expecting property name"),
        (["verify", "--score", "score:lambda,file={tmp}/out.json"],
         "{tmp}/out.json", "levels must lie strictly inside (0, 1)"),
        (["verify", "--score", "score:lambda,file={tmp}/nan.json"],
         "{tmp}/nan.json", "levels must lie strictly inside (0, 1)"),
        (["divergence", "--score", "score:lambda,file={tmp}/nan.json",
          "--from", "point:c=0", "--to", "point:c=1"],
         "{tmp}/nan.json", "levels must lie strictly inside (0, 1)"),
        ([*WORST, "--out", "{tmp}/none/x.json"],
         "cannot write {tmp}/none/x.json", "No such file or directory"),
    ],
    ids=["missing-csv", "directory", "non-utf8-csv", "missing-json", "json-list", "bad-json",
         "json-level-outside", "verify-json-level-nan", "divergence-json-level-nan",
         "out-in-missing-dir"],
)
def test_file_errors_are_reported_not_raised(argv, path, reason, tmp_path):
    (tmp_path / "latin.csv").write_bytes(b"\xff\xfe1\n")
    (tmp_path / "list.json").write_text("[1,2]")
    (tmp_path / "bad.json").write_text("{bad")
    (tmp_path / "out.json").write_text('{"breakpoints": [0.0], "levels": [0.3, 1.0]}')
    (tmp_path / "nan.json").write_text('{"breakpoints": [], "levels": [NaN]}')  # json reads NaN
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    message = json.loads(err)["error"]
    assert message.startswith(path.replace("{tmp}", str(tmp_path)))
    assert reason in message


def test_a_byte_order_mark_reads_as_the_same_file_without_it(tmp_path):
    # Excel and PowerShell begin a UTF-8 file with the mark U+FEFF
    (tmp_path / "plain.csv").write_text("value\n0.5\n3.25\n-1\n2\n", encoding="utf-8")
    (tmp_path / "header.csv").write_text("value\n0.5\n3.25\n-1\n2\n", encoding="utf-8-sig")
    (tmp_path / "bare.csv").write_text("0.5\n3.25\n-1\n2\n", encoding="utf-8-sig")
    outs = {
        name: run_cli(["divergence", *BREG, "--from", f"empirical:path={tmp_path / name}",
                       "--to", "normal:mu=1,sigma=2"])
        for name in ("plain.csv", "header.csv", "bare.csv")
    }
    assert outs["plain.csv"][0] == 0
    assert outs["header.csv"] == outs["bare.csv"] == outs["plain.csv"]

    steps = '{"breakpoints": [0.0, 1.5], "levels": [0.2, 0.5, 0.9]}'
    (tmp_path / "plain.json").write_text(steps, encoding="utf-8")
    (tmp_path / "bom.json").write_text(steps, encoding="utf-8-sig")
    plain, bom = (run_cli(["divergence", "--score", f"score:lambda,file={tmp_path / name}",
                           "--from", "uniform:a=-1,b=2", "--to", "normal:mu=1,sigma=2"])
                  for name in ("plain.json", "bom.json"))
    assert plain[0] == bom[0] == 0
    # the payload echoes the score spec, and so the file's name
    assert json.loads(bom[1])["value"] == json.loads(plain[1])["value"]
