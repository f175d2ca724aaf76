"""Command-line interface: output contracts and exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from riskflow import cli
from riskflow.axioms import StaticAxiom, Verdict
from riskflow.cli import run
from riskflow.distributions import GaussianParams, WeibullParams
from riskflow.errors import ConfigError, DataError, DomainError, NumericError, RiskEngineError
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


def json_leaves(value, path=""):
    """``(path, leaf)`` pairs of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in json_leaves(item, f"{path}/{key}")]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in json_leaves(item, f"{path}/{i}")]
    return [(path, value)]


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
        assert proc.stderr.startswith("ERROR gaussian param 'mu' must be a finite real number")

    @staticmethod
    def run_weibull_cvar(alpha, lam="1"):
        return subprocess.run(
            [
                sys.executable, "-m", "riskflow.cli", "risk", "--family", "weibull",
                "--params", f'{{"lambda": {lam}, "alpha": {alpha}}}', "--measure", "cvar",
                "--p", "0.99",
            ],
            capture_output=True,
            text=True,
        )

    @pytest.mark.parametrize(
        "alpha,printed",
        [("0.15", "228269.181"), ("0.1", "360035940.6"), ("0.05", "2.432901957e+20")],
    )
    def test_heavy_tailed_weibull_cvar(self, alpha, printed):
        # Shapes this heavy-tailed defeated the adaptive quadrature that once
        # gave the exceedance: it failed at 0.15 and reported 4.29e6 at 0.1
        # and 1.84e13 at 0.05.  The printed values agree with 50-digit mpmath.
        proc = self.run_weibull_cvar(alpha)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == printed + "\n"
        assert proc.stderr == ""

    def test_overflow_exits_3_with_one_stderr_line(self):
        # Gamma(1 + 1/alpha) = 200! overflows a float.
        proc = self.run_weibull_cvar("0.005")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("ERROR numerical failure: weibull exceedance(")
        assert proc.stderr.rstrip().endswith("for (1.0, 0.005, 0.0)")

    def test_tail_mean_overflow_exits_3(self):
        # The quantile, 4.2e306, is a float; its exceedance over 1 - p is not.
        proc = self.run_weibull_cvar("0.1", lam="1e300")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "ERROR numerical failure: weibull tail_mean(0.99) overflows a float "
            "for (1e+300, 0.1, 0.0)\n"
        )

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

    def test_raised_numeric_error_names_the_seed(self, tmp_path):
        config = dataclasses.replace(
            build_reference_experiment("weibull_bbgex"),
            params={"lambda": (1.0, 1.0), "alpha": (0.005, 0.005), "theta": (0.0, 0.0)},
            seed=7,
        )
        path = tmp_path / "heavy.json"
        path.write_text(config_to_json(config), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "riskflow.cli", "simulate", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "ERROR numerical failure: [seed 7] weibull exceedance(4.4579672400725195e+132) "
            "overflows a float for (1.0, 0.005, 0.0)\n"
        )


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

    @pytest.mark.parametrize("name", ["study.JSON", "study.Json"])
    def test_json_suffix_in_any_case_writes_json(self, tmp_path, capsys, name):
        out = tmp_path / name
        assert run(["reproduce", "--study", "gaussian", "--output", str(out)]) == 0
        capsys.readouterr()
        assert len(json.loads(out.read_text())) == 11

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["reproduce", "--study", "weibull"]) == 0
        capsys.readouterr()
        assert (tmp_path / "riskflow_weibull_trajectories.csv").is_file()

    #: sha256 of ``reproduce``'s CSV and of its stdout, for the studies whose
    #: output no longer equals ``perfbench/reference``.  The Weibull CVaR
    #: columns moved by at most 6 ulp when the exceedance quadrature became a
    #: closed form, and were re-recorded when the package's incomplete gamma
    #: function replaced scipy's ``gammaincc``;
    #: ``test_weibull_reference_moved_only_cvar_within_8_ulp`` holds them to
    #: the recorded files.
    MOVED_REFERENCE_SHA256 = {
        "weibull": (
            "b8e96bdf3d24c3a2315dd7a394679cb733c8c1cf0736f7862936aa92071daca6",
            "34e448d26e52f7d5fa486994e7f9017769f50f71cd40d60c76880dfae0377ac5",
        ),
    }

    @staticmethod
    def reproduce(tmp_path, capsys, study):
        """``(csv bytes, stdout bytes)`` of ``reproduce --study <study>``."""
        out = tmp_path / "study.csv"
        assert run(["reproduce", "--study", study, "--output", str(out)]) == 0
        return out.read_bytes(), capsys.readouterr().out.encode()

    @staticmethod
    def recorded(study):
        """The recorded ``(csv text, summary text)`` of ``study``."""
        table = (REFERENCE_DIR / f"{study}.csv").read_text(encoding="utf-8")
        summary = (REFERENCE_DIR / f"{study}.json").read_text(encoding="utf-8")
        return NUMPY_REPR.sub(r"\1", table), summary

    @pytest.mark.parametrize("study", ["gaussian", "weibull"])
    def test_reference_bytes(self, tmp_path, capsys, study):
        table, summary = self.reproduce(tmp_path, capsys, study)
        if study in self.MOVED_REFERENCE_SHA256:
            digests = tuple(hashlib.sha256(data).hexdigest() for data in (table, summary))
            assert digests == self.MOVED_REFERENCE_SHA256[study]
        else:
            recorded_table, recorded_summary = self.recorded(study)
            assert summary == recorded_summary.encode()
            assert table == recorded_table.encode()

    def test_weibull_reference_moved_only_cvar_within_8_ulp(self, tmp_path, capsys):
        table, summary = self.reproduce(tmp_path, capsys, "weibull")
        recorded_table, recorded_summary = self.recorded("weibull")
        got = list(csv.reader(io.StringIO(table.decode())))
        want = list(csv.reader(io.StringIO(recorded_table)))
        assert got[0] == want[0] and len(got) == len(want)
        cells = [
            (column, float(a), float(b))
            for row_got, row_want in zip(got[1:], want[1:])
            for column, a, b in zip(got[0], row_got, row_want)
        ]
        cells += [
            (column, a, b)
            for (column, a), (_, b) in zip(
                json_leaves(json.loads(summary)), json_leaves(json.loads(recorded_summary)),
                strict=True,
            )
        ]
        for column, a, b in cells:
            if "cvar" in column:
                assert abs(a - b) <= 8 * math.ulp(b), (column, a, b)
            else:
                assert a == b, (column, a, b)

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

    #: sha256 of the stdout of ``axioms --measure <measure>`` at the default
    #: trials and seed.
    STATIC_STDOUT_SHA256 = {
        "var": "cd880faa2e0da0480e7b7b54bca18d4c1dd6e37b0e6cf554e3533c6c2f9a3ad5",
        "cvar": "4692cbc38d2ea9dc7b06d7c033a6bb99c485324b04c59ff2bd6ba91044419c01",
    }

    @pytest.mark.parametrize("measure", ["var", "cvar"])
    def test_static_stdout_bytes(self, capsys, measure):
        assert run(["axioms", "--measure", measure]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.STATIC_STDOUT_SHA256[measure]

    #: sha256 of the stdout of ``axioms --measure recursive-var`` at the
    #: default seed.
    DYNAMIC_STDOUT_SHA256 = "2a017285e6187a33412dfcdb70485fec6d968da427c6543650b665d349ea40d0"

    @pytest.mark.parametrize("measure", ["recursive-var"])
    def test_dynamic_profiles(self, capsys, measure):
        assert run(["axioms", "--measure", measure]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.DYNAMIC_STDOUT_SHA256
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["axiom"] for r in reports] == ["D1", "D2", "D4", "D5"]
        assert all(r["verdict"] == "holds" for r in reports)

    def test_unexpected_verdict_warns_and_exits_1(self, capsys, caplog, monkeypatch):
        monkeypatch.setitem(
            cli._EXPECTED_VERDICTS, "var", {a.value: Verdict.HOLDS for a in StaticAxiom}
        )
        assert run(["axioms", "--measure", "var", "--trials", "5"]) == 1
        assert len(self.read_reports(capsys)) == 4
        warnings = [
            f"{record.levelname} {record.getMessage()}"
            for record in caplog.records
            if record.levelno >= logging.WARNING
        ]
        assert warnings == ["WARNING axiom P3: verdict violated, expected holds"]

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
    @pytest.mark.parametrize("error, code", [
        (NumericError, 3), (DomainError, 2), (DataError, 2), (ConfigError, 2), (RiskEngineError, 2),
    ])
    def test_engine_errors_map_to_exit_codes_by_class(self, monkeypatch, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_risk", fail)
        argv = ["risk", "--family", "gaussian", "--params", "{}", "--measure", "var", "--p", "0.9"]
        assert run(argv) == code

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_unknown_choice_is_usage_error(self):
        with pytest.raises(SystemExit):
            run(["axioms", "--measure", "everything"])

    def test_modulated_var_is_not_a_measure(self):
        # The alias printed the recursive-var reports byte for byte.
        with pytest.raises(SystemExit) as err:
            run(["axioms", "--measure", "modulated-var"])
        assert err.value.code == 2

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
