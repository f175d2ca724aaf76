"""Command-line interface: output contracts and exit codes."""

import csv
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from riskflow.cli import run
from riskflow.distributions import GaussianParams, WeibullParams
from riskflow.scenario import (
    build_reference_experiment,
    bundled_returns_path,
    config_to_json,
    fit_gaussian,
    load_returns,
)
from riskflow.static_risk import cvar_tail, var

#: Trajectory CSV and summary JSON of ``reproduce`` at the reference seed.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
#: The recorded Weibull CSV writes its ``modulated_cvar`` cells as numpy
#: scalar reprs (``np.float64(61.3)``), which an earlier engine let through;
#: they are compared as the float they wrap.
NUMPY_REPR = re.compile(r"np\.float64\(([^)]*)\)")


def write_series(tmp_path, levels, name="series.csv"):
    path = tmp_path / name
    rows = ["date,value"] + [
        f"2024-01-{day:02d},{level}" for day, level in enumerate(levels, start=1)
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestFit:
    def test_gaussian_fit_matches_library(self, tmp_path, capsys):
        path = write_series(tmp_path, [100.0, 103.0, 101.0, 106.0, 104.0])
        assert run(["fit", "--input", str(path), "--family", "gaussian"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = fit_gaussian(load_returns(path))
        assert payload["family"] == "gaussian"
        assert payload["params"]["mu"] == pytest.approx(expected.mu)
        assert payload["params"]["sigma"] == pytest.approx(expected.sigma)

    def test_weibull_fit_on_bundled_series(self, capsys):
        code = run(
            ["fit", "--input", str(bundled_returns_path()), "--family", "weibull"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["lambda"] == pytest.approx(7.016396321132753)
        assert payload["params"]["alpha"] == pytest.approx(0.7972403495774689)
        assert payload["params"]["theta"] == 0.0

    def test_ratio_mode(self, tmp_path, capsys):
        path = write_series(tmp_path, [100.0, 110.0, 99.0, 105.0])
        assert run(
            ["fit", "--input", str(path), "--family", "gaussian", "--returns", "ratio"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["mu"] == pytest.approx(
            fit_gaussian(load_returns(path, mode="ratio")).mu
        )

    def test_missing_file_is_exit_2(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope.csv"), "--family", "gaussian"]) == 2

    def test_degenerate_series_is_exit_3(self, tmp_path):
        # Constant increments give a degenerate likelihood: numerical failure.
        path = write_series(tmp_path, [100.0, 101.0, 102.0, 103.0])
        assert run(["fit", "--input", str(path), "--family", "weibull"]) == 3

    def test_overflowing_gaussian_fit_is_one_error_line_exit_3(self, tmp_path):
        path = write_series(tmp_path, [1e200, -1e200, 1e200, -1e200])
        proc = subprocess.run(
            [
                sys.executable, "-m", "riskflow.cli", "fit",
                "--input", str(path), "--family", "gaussian",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("INFO ")]
        assert len(errors) == 1
        assert errors[0].startswith("ERROR numerical failure: gaussian fit")


class TestRisk:
    def run_value(self, capsys, *argv):
        assert run(list(argv)) == 0
        return float(capsys.readouterr().out.strip())

    def test_gaussian_var(self, capsys):
        got = self.run_value(
            capsys,
            "risk",
            "--family",
            "gaussian",
            "--params",
            '{"mu": 0, "sigma": 1}',
            "--measure",
            "var",
            "--p",
            "0.99",
        )
        assert got == pytest.approx(var(GaussianParams(0.0, 1.0), 0.99), rel=1e-9)

    def test_weibull_cvar(self, capsys):
        got = self.run_value(
            capsys,
            "risk",
            "--family",
            "weibull",
            "--params",
            '{"lambda": 6.7679, "alpha": 0.8016}',
            "--measure",
            "cvar",
            "--p",
            "0.99",
        )
        assert got == pytest.approx(cvar_tail(WeibullParams(6.7679, 0.8016), 0.99), rel=1e-9)

    @pytest.mark.parametrize(
        "params",
        ["{not json", "[1, 2]", '{"mu": 0}', '{"mu": 0, "sigma": 1, "nu": 2}'],
    )
    def test_bad_params_exit_2(self, params):
        code = run(
            ["risk", "--family", "gaussian", "--params", params, "--measure", "var", "--p", "0.99"]
        )
        assert code == 2

    @pytest.mark.parametrize("mu", ['"x"', "null", "true", '"2"'])
    def test_non_numeric_param_is_one_line_exit_2(self, mu):
        proc = subprocess.run(
            [
                sys.executable, "-m", "riskflow.cli", "risk", "--family", "gaussian",
                "--params", f'{{"mu": {mu}, "sigma": 1}}', "--measure", "var", "--p", "0.9",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("ERROR gaussian params must be numbers")

    def test_failed_quadrature_exits_3_with_one_stderr_line(self):
        # A shape this heavy-tailed defeats the exceedance quadrature; SciPy's
        # warning must not reach stderr ahead of the error line.
        proc = subprocess.run(
            [
                sys.executable, "-m", "riskflow.cli", "risk", "--family", "weibull",
                "--params", '{"lambda": 1, "alpha": 0.15}', "--measure", "cvar", "--p", "0.99",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("ERROR numerical failure: exceedance quadrature failed")

    def test_bad_level_exit_2(self):
        code = run(
            [
                "risk",
                "--family",
                "gaussian",
                "--params",
                '{"mu": 0, "sigma": 1}',
                "--measure",
                "var",
                "--p",
                "1.0",
            ]
        )
        assert code == 2


class TestSimulate:
    def test_runs_config_and_writes_output(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        config = dataclasses.replace(
            build_reference_experiment("gaussian_msci"), output=str(out_file)
        )
        config_path = tmp_path / "exp.json"
        config_path.write_text(config_to_json(config), encoding="utf-8")
        assert run(["simulate", "--config", str(config_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_paths"] == 1
        assert stats["fraction_dynamic_le_static"]["recursive_var"] == pytest.approx(9 / 11)
        with open(out_file, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "t"
        assert len(rows) == 12

    def test_missing_config_exit_2(self, tmp_path):
        assert run(["simulate", "--config", str(tmp_path / "absent.json")]) == 2

    def test_malformed_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"family": "gaussian"}', encoding="utf-8")
        assert run(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "key,value",
        [("horizon", 2.7), ("params", {"mu": [True, "1000"], "sigma": [195.6045, 176.9755]})],
    )
    def test_malformed_config_value_is_one_line_exit_2(self, tmp_path, key, value):
        data = json.loads(config_to_json(build_reference_experiment("gaussian_msci")))
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "riskflow.cli", "simulate", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1

    def test_overflow_exits_3_with_one_stderr_line(self, tmp_path):
        config = dataclasses.replace(build_reference_experiment("gaussian_msci"), horizon=150)
        path = tmp_path / "long.json"
        path.write_text(config_to_json(config), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "riskflow.cli", "simulate", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "recursive_cvar" in proc.stderr


class TestReproduce:
    def test_writes_named_output(self, tmp_path, capsys):
        out = tmp_path / "study.json"
        assert run(["reproduce", "--study", "gaussian", "--output", str(out)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["horizon"] == 10
        assert stats["recursive_var_alternation"] is False
        records = json.loads(out.read_text())
        assert len(records) == 11
        assert set(records[0]) >= {"t", "static_var", "modulated_cvar"}

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["reproduce", "--study", "weibull"]) == 0
        capsys.readouterr()
        assert (tmp_path / "riskflow_weibull_trajectories.csv").is_file()

    @pytest.mark.parametrize("study", ["gaussian", "weibull"])
    def test_reference_bytes(self, tmp_path, capsys, study):
        out = tmp_path / "study.csv"
        assert run(["reproduce", "--study", study, "--output", str(out)]) == 0
        summary = capsys.readouterr().out.encode()
        assert summary == (REFERENCE_DIR / f"{study}.json").read_bytes()
        recorded = (REFERENCE_DIR / f"{study}.csv").read_text(encoding="utf-8")
        assert out.read_bytes() == NUMPY_REPR.sub(r"\1", recorded).encode()

    @pytest.mark.parametrize("study", ["gaussian", "weibull"])
    def test_csv_cells_are_plain_floats(self, tmp_path, capsys, study):
        out = tmp_path / "study.csv"
        assert run(["reproduce", "--study", study, "--output", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 11
        for row in rows:
            assert all(repr(float(cell)) == cell for cell in row[1:]), row


class TestAxioms:
    def read_reports(self, capsys):
        out = capsys.readouterr().out
        return [json.loads(line) for line in out.splitlines() if line.strip()]

    def test_var_profile(self, capsys):
        assert run(["axioms", "--measure", "var", "--trials", "50"]) == 0
        reports = {r["axiom"]: r for r in self.read_reports(capsys)}
        assert set(reports) == {"P1", "P2", "P3", "P4"}
        assert reports["P1"]["verdict"] == "holds"
        assert reports["P3"]["verdict"] == "violated"
        assert reports["P3"]["witness"]["margin"] > 0

    def test_cvar_profile(self, capsys):
        assert run(["axioms", "--measure", "cvar", "--trials", "50"]) == 0
        assert all(r["verdict"] == "holds" for r in self.read_reports(capsys))

    @pytest.mark.parametrize("measure", ["recursive-var", "modulated-var"])
    def test_dynamic_profiles(self, capsys, measure):
        assert run(["axioms", "--measure", measure]) == 0
        reports = self.read_reports(capsys)
        assert [r["axiom"] for r in reports] == ["D1", "D2", "D4", "D5"]
        assert all(r["verdict"] == "holds" for r in reports)


    @pytest.mark.parametrize("measure", ["var", "recursive-var"])
    def test_negative_seed_is_one_line_exit_2(self, measure):
        proc = subprocess.run(
            [sys.executable, "-m", "riskflow.cli", "axioms", "--measure", measure, "--seed", "-1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "ERROR seed must be a non-negative integer, got -1\n"


class TestParsing:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_unknown_choice_is_usage_error(self):
        with pytest.raises(SystemExit):
            run(["axioms", "--measure", "everything"])

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "riskflow.cli",
                "risk",
                "--family",
                "gaussian",
                "--params",
                '{"mu": 0, "sigma": 1}',
                "--measure",
                "var",
                "--p",
                "0.99",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert float(proc.stdout.strip()) == pytest.approx(2.3263478740408408, rel=1e-9)
