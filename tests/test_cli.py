import io
import json
import subprocess
import sys

import pytest

from mkdiv.cli import canonical_json, main


def run_cli(argv, env_m=None, monkeypatch=None):
    if env_m is not None:
        monkeypatch.setenv("MKDIV_GRID_M", str(env_m))
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
        assert payload["grid"]["M"] == 10000

    def test_env_grid_override(self, csv_pair, monkeypatch):
        a, b = csv_pair
        code, out, _ = run_cli(
            [
                "divergence",
                "--score", "score:bregman,phi=quadratic",
                "--from", f"empirical:path={a}",
                "--to", f"empirical:path={b}",
            ],
            env_m=512,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["grid"]["M"] == 512

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


class TestVerify:
    ARGS = [
        "verify",
        "--score", "score:gpl,alpha=0.9,g=identity",
        "--n", "8",
        "--instances", "100",
        "--seed", "7",
    ]

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


class TestWorstCase:
    ARGS = [
        "worst-case",
        "--phi", "phi:quadratic",
        "--distortion", "distortion:dualpower,k=2",
        "--ref", "uniform:a=0,b=1",
        "--eps", "0.03",
    ]

    def test_analytic_value(self):
        code, out, _ = run_cli(self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_value"] == pytest.approx(0.8666667, abs=1e-6)
        assert payload["lambda_star"] == pytest.approx(10.0 / 3.0, abs=1e-6)
        assert payload["binding"] is True
        assert len(payload["grid"]["nodes"]) == payload["grid"]["M"]

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


class TestAxioms:
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

    def test_deterministic(self):
        args = ["axioms", "--functional", "functional:expectile,alpha=0.7",
                "--pairs", "10", "--size", "20", "--seed", "5"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("1\n2\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "mkdiv.cli",
                "divergence",
                "--score", "score:bregman,phi=quadratic",
                "--from", f"empirical:path={a}",
                "--to", f"empirical:path={a}",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 0.0
