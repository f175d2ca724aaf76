"""Experiment configs, calibration, data loading, and the scenario runner."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from riskflow import scenario
from riskflow.distributions import GaussianParams, WeibullParams, sample
from riskflow.dynamic_risk import GAUSSIAN_MODULATED_CVAR_NOTE, CvarMode
from riskflow.errors import ConfigError, DataError, DomainError, NumericError
from riskflow.scenario import (
    ExperimentConfig,
    ExperimentResult,
    ReferenceStudy,
    RiskColumns,
    build_reference_experiment,
    bundled_returns_path,
    config_from_json,
    config_to_json,
    emit_trajectories,
    fit_gaussian,
    fit_weibull,
    load_returns,
    run_experiment,
)
from riskflow.static_risk import cvar_tail, var

REFERENCE_ROWS = ((0.25, 0.75), (0.35, 0.65))

# The chain realized under the reference seed; both studies share it because
# the chain seed derives from the config seed alone.
REFERENCE_STATES = (1, 1, 1, 1, 2, 2, 1, 2, 2, 1, 2, 2)


def small_config(**overrides):
    base = dict(
        family="gaussian",
        params={"mu": (1.0, -1.0), "sigma": (0.5, 0.8)},
        transition_matrix=REFERENCE_ROWS,
        orientation="row",
        initial_state=1,
        p=0.95,
        horizon=3,
        n_paths=1,
        seed=11,
        measures=("var", "cvar"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_reference_gaussian_fields(self):
        cfg = build_reference_experiment(ReferenceStudy.GAUSSIAN_MSCI)
        assert cfg.family.value == "gaussian"
        assert cfg.params["mu"] == (1169.009625, 1057.675375)
        assert cfg.params["sigma"] == (195.6045, 176.97549999999998)
        assert cfg.transition_matrix == REFERENCE_ROWS
        assert (cfg.orientation, cfg.initial_state) == ("row", 1)
        assert (cfg.p, cfg.horizon, cfg.n_paths, cfg.seed) == (0.99, 10, 1, 1729)
        assert cfg.measures == ("var", "cvar")
        assert cfg.cvar_mode is CvarMode.PIECEWISE

    def test_reference_weibull_fields(self):
        cfg = build_reference_experiment("weibull_bbgex")
        assert cfg.family.value == "weibull"
        assert cfg.params["lambda"] == (7.106295, 6.429505)
        assert cfg.params["alpha"] == (0.8016, 0.8016)
        assert cfg.params["theta"] == (0.0, 0.0)

    def test_unknown_reference_study(self):
        with pytest.raises(DomainError, match="unknown ReferenceStudy 'nope'"):
            build_reference_experiment("nope")

    def test_state_models(self):
        cfg = small_config()
        assert cfg.state_model(1) == GaussianParams(1.0, 0.5)
        assert cfg.state_model(2) == GaussianParams(-1.0, 0.8)
        weib = small_config(
            family="weibull",
            params={"lambda": (2.0, 3.0), "alpha": (1.0, 1.5), "theta": (0.0, -0.5)},
        )
        assert weib.state_model(2) == WeibullParams(3.0, 1.5, -0.5)

    def test_chain_orientation(self):
        row = small_config()
        np.testing.assert_allclose(row.chain().column(1), [0.25, 0.75])
        col = small_config(
            orientation="column", transition_matrix=((0.25, 0.35), (0.75, 0.65))
        )
        np.testing.assert_allclose(col.chain().column(1), [0.25, 0.75])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"family": "lognormal"},
            {"orientation": "diagonal"},
            {"transition_matrix": ((0.5, 0.6), (0.5, 0.5))},
            {"initial_state": 3},
            {"p": 1.0},
            {"horizon": 0},
            {"n_paths": 0},
            {"measures": ()},
            {"measures": ("var", "var")},
            {"measures": ("var", "es")},
            {"params": {"mu": (1.0, 2.0)}},
            {"params": {"mu": (1.0,), "sigma": (0.5, 0.8)}},
            {"params": {"mu": (1.0, 2.0), "sigma": (0.5, -0.8)}},
            {"params": {"mu": (1.0, float("nan")), "sigma": (0.5, 0.8)}},
            {"params": {"mu": (True, "1000"), "sigma": (0.5, 0.8)}},
            {"params": {"mu": (1.0, 2.0), "sigma": (0.5, None)}},
            {"transition_matrix": ((True, False), (False, True))},
            {"transition_matrix": (("0.25", 0.75), (0.35, 0.65))},
            {"initial_state": True},
            {"initial_state": 1.0},
            {"p": "0.95"},
            {"horizon": 2.7},
            {"horizon": "3"},
            {"n_paths": 1.9},
            {"n_paths": True},
            {"seed": "5"},
            {"seed": 11.0},
            {"seed": -1},
            {"output": 7},
            {"cvar_mode": "fast"},
        ],
    )
    def test_validation_rejects(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("horizon", 2.7),
            ("n_paths", 1.9),
            ("seed", "5"),
            ("p", "0.99"),
            ("initial_state", True),
            ("params", {"mu": [True, "1000"], "sigma": [0.5, 0.8]}),
        ],
    )
    def test_json_rejects_malformed_values(self, key, value):
        data = dict(json.loads(config_to_json(small_config())), **{key: value})
        with pytest.raises(ConfigError):
            config_from_json(json.dumps(data))

    def test_integer_entries_accepted(self):
        data = json.loads(config_to_json(small_config()))
        data.update(transition_matrix=[[1, 0], [0, 1]], p=1 / 2)
        data["params"]["sigma"] = [1, 2]
        cfg = config_from_json(json.dumps(data))
        assert cfg.transition_matrix == ((1.0, 0.0), (0.0, 1.0))
        assert cfg.params["sigma"] == (1.0, 2.0)
        assert all(type(v) is float for row in cfg.transition_matrix for v in row)

    def test_json_round_trip(self):
        for study in ReferenceStudy:
            cfg = build_reference_experiment(study)
            assert config_from_json(config_to_json(cfg)) == cfg
        cfg = small_config(cvar_mode="exact", output="out.csv", n_paths=7)
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_json_text_is_stable(self):
        a = config_to_json(build_reference_experiment("gaussian_msci"))
        b = config_to_json(build_reference_experiment("gaussian_msci"))
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a)["seed"] == 1729

    def test_json_unknown_and_missing_keys(self):
        good = json.loads(config_to_json(small_config()))
        extra = dict(good, flavour="spicy")
        with pytest.raises(ConfigError):
            config_from_json(json.dumps(extra))
        missing = {k: v for k, v in good.items() if k != "seed"}
        with pytest.raises(ConfigError):
            config_from_json(json.dumps(missing))
        with pytest.raises(ConfigError):
            config_from_json("not json at all {")
        with pytest.raises(ConfigError):
            config_from_json("[1, 2, 3]")

    def test_optional_keys_default(self):
        data = json.loads(config_to_json(small_config()))
        del data["cvar_mode"], data["output"]
        cfg = config_from_json(json.dumps(data))
        assert cfg.cvar_mode is CvarMode.PIECEWISE
        assert cfg.output is None


class TestFitGaussian:
    def test_matches_numpy_conventions(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(3.0, 2.0, 1000)
        fit = fit_gaussian(xs)
        assert fit.mu == pytest.approx(float(np.mean(xs)), abs=1e-12)
        assert fit.sigma == pytest.approx(float(np.std(xs, ddof=1)), rel=1e-12)

    def test_small_sample_exact(self):
        fit = fit_gaussian([1.0, 2.0, 3.0])
        assert fit.mu == 2.0
        assert fit.sigma == 1.0

    def test_validation(self):
        with pytest.raises(DataError):
            fit_gaussian([1.0])
        with pytest.raises(DataError):
            fit_gaussian([2.0, 2.0, 2.0])
        with pytest.raises(DataError):
            fit_gaussian([1.0, float("inf")])

    @pytest.mark.parametrize("xs", [
        [2e200, -2e200, 2e200],  # the squared deviations overflow
        [1.7e308] * 3,  # the sum overflows
    ])
    def test_overflow_is_a_numeric_error(self, xs):
        with pytest.raises(NumericError, match="gaussian fit"):
            fit_gaussian(xs)


class TestFitWeibull:
    def test_recovers_synthetic_parameters(self):
        draws = sample(WeibullParams(6.7679, 0.8016), 10_000, seed=6)
        fit = fit_weibull(draws)
        assert abs(fit.lam - 6.7679) / 6.7679 < 0.05
        assert abs(fit.alpha - 0.8016) / 0.8016 < 0.05
        assert fit.theta == 0.0

    def test_exponential_special_case(self):
        draws = sample(WeibullParams(2.0, 1.0), 20_000, seed=8)
        fit = fit_weibull(draws)
        assert abs(fit.alpha - 1.0) < 0.03
        assert abs(fit.lam - 2.0) / 2.0 < 0.03

    def test_fit_is_a_likelihood_maximum(self):
        # Independent oracle: the fitted pair beats a surrounding grid.
        draws = np.asarray(sample(WeibullParams(1.5, 1.2), 2_000, seed=3))
        fit = fit_weibull(draws)

        def loglik(lam, alpha):
            z = draws / lam
            return float(
                np.sum(
                    math.log(alpha / lam) + (alpha - 1.0) * np.log(z) - z**alpha
                )
            )

        best = loglik(fit.lam, fit.alpha)
        for dl in (-0.02, 0.02):
            for da in (-0.02, 0.02):
                assert best >= loglik(fit.lam * (1 + dl), fit.alpha * (1 + da))

    def test_validation(self):
        with pytest.raises(DataError):
            fit_weibull([1.0])
        with pytest.raises(DataError):
            fit_weibull([1.0, -2.0, 3.0])
        with pytest.raises(DataError):
            fit_weibull([0.0, 1.0])
        with pytest.raises(NumericError):
            fit_weibull([3.0, 3.0, 3.0])


class TestLoadReturns:
    def write(self, tmp_path, rows):
        path = tmp_path / "series.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_diff_and_ratio(self, tmp_path):
        path = self.write(
            tmp_path,
            ["date,value", "2024-01-01,100.0", "2024-01-02,104.0", "2024-01-03,102.0"],
        )
        assert load_returns(path) == [4.0, -2.0]
        assert load_returns(path, mode="ratio") == [1.04, 102.0 / 104.0]

    @pytest.mark.parametrize(
        "rows",
        [
            ["time,value", "2024-01-01,1.0", "2024-01-02,2.0"],  # wrong header
            ["date,value", "2024-01-02,1.0", "2024-01-01,2.0"],  # descending
            ["date,value", "2024-01-01,1.0", "2024-01-01,2.0"],  # duplicate date
            ["date,value", "01/02/2024,1.0", "2024-01-03,2.0"],  # bad date form
            ["date,value", "2024-01-01,abc", "2024-01-02,2.0"],  # bad value
            ["date,value", "2024-01-01,inf", "2024-01-02,2.0"],  # non-finite
            ["date,value", "2024-01-01,1.0,9", "2024-01-02,2.0"],  # field count
            ["date,value", "2024-01-01,1.0"],  # too short
        ],
    )
    def test_malformed_input_rejected(self, tmp_path, rows):
        with pytest.raises(DataError):
            load_returns(self.write(tmp_path, rows))

    def test_ratio_rejects_zero_levels(self, tmp_path):
        path = self.write(
            tmp_path, ["date,value", "2024-01-01,0.0", "2024-01-02,2.0"]
        )
        with pytest.raises(DataError):
            load_returns(path, mode="ratio")

    def test_unknown_mode_and_missing_file(self, tmp_path):
        path = self.write(tmp_path, ["date,value", "2024-01-01,1.0", "2024-01-02,2.0"])
        with pytest.raises(DataError):
            load_returns(path, mode="log")
        with pytest.raises(DataError):
            load_returns(tmp_path / "absent.csv")

    def test_bundled_series(self):
        path = bundled_returns_path()
        assert path.is_file()
        returns = load_returns(path)
        assert len(returns) == 500
        assert all(r > 0.0 for r in returns)
        # Frozen fit of the bundled series; regenerating the data or
        # changing the fitter should trip this.
        fit = fit_weibull(returns)
        assert fit.lam == pytest.approx(7.016396321132753, rel=1e-9)
        assert fit.alpha == pytest.approx(0.7972403495774689, rel=1e-9)


class TestRunExperiment:
    def test_reference_gaussian_run(self):
        cfg = build_reference_experiment("gaussian_msci")
        paths, stats = run_experiment(cfg)
        assert len(paths) == 1
        assert paths.states.shape == (1, 12) and paths.returns.shape == (1, 11)
        res = paths[0]
        assert res.states.tolist() == list(REFERENCE_STATES)
        assert len(res.returns) == 11
        # Static columns recompute from the realized states.
        for t in range(11):
            model = cfg.state_model(res.states[t + 1])
            assert res.var.static[t] == pytest.approx(var(model, 0.99), rel=1e-12)
            assert res.cvar.static[t] == pytest.approx(cvar_tail(model, 0.99), rel=1e-12)
        assert stats.fraction_dynamic_le_static == pytest.approx(
            {
                "recursive_var": 9 / 11,
                "modulated_var": 8 / 11,
                "recursive_cvar": 1 / 11,
                "modulated_cvar": 1.0,
            }
        )
        assert stats.recursive_var_alternation is False
        assert GAUSSIAN_MODULATED_CVAR_NOTE in stats.notes

    def test_reference_weibull_run(self):
        paths, stats = run_experiment(build_reference_experiment("weibull_bbgex"))
        assert paths[0].states.tolist() == list(REFERENCE_STATES)  # chain seed is shared
        assert stats.notes == ()
        assert stats.fraction_dynamic_le_static["modulated_cvar"] == pytest.approx(8 / 11)

    def test_piecewise_recursion_reported_unbounded(self):
        # The tail branch multiplies the carried value by (1+p)/(1-p); on the
        # reference run it dominates and the column grows without bound.
        # The summary reports it as computed.
        _, stats = run_experiment(build_reference_experiment("gaussian_msci"))
        assert stats.columns["recursive_cvar"]["max"] > 1e20
        assert stats.columns["modulated_cvar"]["max"] < 1e4

    def test_exact_mode_stays_bounded(self):
        cfg = dataclasses.replace(
            build_reference_experiment("gaussian_msci"), cvar_mode="exact"
        )
        _, stats = run_experiment(cfg)
        assert stats.columns["recursive_cvar"]["max"] < 1e4

    def test_constant_parameters_alternate_exactly(self):
        cfg = dataclasses.replace(
            build_reference_experiment("gaussian_msci"),
            params={"mu": (1113.3425, 1113.3425), "sigma": (186.29, 186.29)},
        )
        _, stats = run_experiment(cfg)
        assert stats.recursive_var_alternation is True

    @staticmethod
    def arrays(result):
        """Every array of a run result, by field name."""
        return {
            "chain_seeds": result.chain_seeds,
            "returns_seeds": result.returns_seeds,
            "states": result.states,
            "returns": result.returns,
            **result.columns(),
        }

    def test_deterministic_per_seed(self):
        cfg = small_config(n_paths=3)
        (first, first_stats), (again, again_stats) = run_experiment(cfg), run_experiment(cfg)
        assert first_stats == again_stats
        a, b = self.arrays(first), self.arrays(again)
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name
        other = run_experiment(dataclasses.replace(cfg, seed=12))[0]
        assert not np.array_equal(other.returns, first.returns)

    def test_views_hold_the_rows(self):
        result, _ = run_experiment(small_config(n_paths=3))
        views = list(result)
        assert [v.path_id for v in views] == [0, 1, 2]
        assert result[-1].path_id == 2
        with pytest.raises(IndexError):
            result[3]
        for i, view in enumerate(views):
            assert view.chain_seed == int(result.chain_seeds[i])
            assert np.array_equal(view.states, result.states[i])
            assert np.array_equal(view.returns, result.returns[i])
            for kind in ("var", "cvar"):
                for series in ("static", "recursive", "modulated"):
                    column = getattr(getattr(result, kind), series)
                    assert np.array_equal(getattr(getattr(view, kind), series), column[i])

    @pytest.mark.parametrize("study", ["gaussian_msci", "weibull_bbgex"])
    def test_overflow_is_a_numeric_error(self, study):
        # The piecewise tail branch multiplies the carried value by 199 per
        # hit; past about 130 steps the reference run leaves the floats.
        cfg = dataclasses.replace(build_reference_experiment(study), horizon=150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings stay silent
            with pytest.raises(
                NumericError, match=r"\[seed 1729\] recursive_cvar is (inf|nan) at path 0, t=\d+"
            ):
                run_experiment(cfg)

    def test_the_earliest_non_finite_cell_is_named(self, monkeypatch):
        # A bad cell of an earlier column at a later t must not hide this one.
        config = small_config(n_paths=3, measures=("var",))

        def column_with(cell, value):
            def column(*args):
                values = np.zeros((config.n_paths, config.horizon + 1))
                values[cell] = value
                return values
            return column

        monkeypatch.setattr(scenario, "recursive_var_gaussian_closed", column_with((0, 3), np.inf))
        monkeypatch.setattr(scenario, "modulated_var_trajectory", column_with((2, 1), np.nan))
        with pytest.raises(NumericError, match=r"modulated_var is nan at path 2, t=1$"):
            run_experiment(config)

    def test_result_arrays_are_read_only(self):
        result, _ = run_experiment(small_config(n_paths=3))
        arrays = [result.chain_seeds, result.returns_seeds, result.states, result.returns]
        arrays += [*result.columns().values(), result[1].states, result[1].var.static]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_var_only_run(self):
        paths, stats = run_experiment(small_config(measures=("var",)))
        assert paths[0].cvar is None
        assert paths[0].var is not None
        assert set(stats.fraction_dynamic_le_static) == {"recursive_var", "modulated_var"}
        assert "static_cvar" not in stats.columns

    def test_path_ids_and_seeds_are_distinct(self):
        paths, _ = run_experiment(small_config(n_paths=5))
        assert [p.path_id for p in paths] == [0, 1, 2, 3, 4]
        seeds = {(p.chain_seed, p.returns_seed) for p in paths}
        assert len(seeds) == 5

    def test_summary_shape(self):
        _, stats = run_experiment(small_config(n_paths=2))
        assert stats.n_paths == 2
        assert stats.horizon == 3
        for name, block in stats.columns.items():
            assert set(block) == {"min", "max", "mean"}
            assert block["min"] <= block["mean"] <= block["max"]
        payload = stats.to_json_dict()
        json.dumps(payload)  # must be serializable as-is


class TestEmitTrajectories:
    def run_small(self, **overrides):
        return run_experiment(small_config(**overrides))[0]

    def test_csv_single_path_schema(self, tmp_path):
        paths = self.run_small()
        out = tmp_path / "traj.csv"
        emit_trajectories(paths, "csv", out)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "t",
            "static_var",
            "recursive_var",
            "modulated_var",
            "static_cvar",
            "recursive_cvar",
            "modulated_cvar",
        ]
        assert len(rows) == 1 + 4  # header + t=0..3
        # Float cells round-trip exactly through repr.
        assert float(rows[1][1]) == paths[0].var.static[0]
        assert float(rows[4][6]) == paths[0].cvar.modulated[3]

    def test_csv_multi_path_adds_path_column(self, tmp_path):
        paths = self.run_small(n_paths=2)
        out = tmp_path / "traj.csv"
        emit_trajectories(paths, "csv", out)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "path"
        assert [r[0] for r in rows[1:]] == ["0"] * 4 + ["1"] * 4

    def test_csv_missing_measure_leaves_blank(self, tmp_path):
        paths = self.run_small(measures=("var",))
        out = tmp_path / "traj.csv"
        emit_trajectories(paths, "csv", out)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1][4] == rows[1][5] == rows[1][6] == ""
        assert rows[1][1] != ""

    def test_json_records(self, tmp_path):
        paths = self.run_small(measures=("var",))
        out = tmp_path / "traj.json"
        emit_trajectories(paths, "json", out)
        records = json.loads(out.read_text())
        assert len(records) == 4
        assert records[0]["t"] == 0
        assert records[0]["static_cvar"] is None
        assert records[2]["static_var"] == paths[0].var.static[2]

    @staticmethod
    def hand_built(var_rows, cvar_rows):
        """A result whose measures hold the given per-path (static, recursive,
        modulated) rows; ``None`` leaves a measure out."""
        def measure(rows):
            if rows is None:
                return None
            return RiskColumns(*(np.array(series, dtype=float) for series in zip(*rows)))

        n_paths, width = len(var_rows or cvar_rows), len((var_rows or cvar_rows)[0][0])
        return ExperimentResult(
            chain_seeds=np.zeros(n_paths, dtype=np.uint64),
            returns_seeds=np.zeros(n_paths, dtype=np.uint64),
            states=np.ones((n_paths, width + 1), dtype=int),
            returns=np.zeros((n_paths, width)),
            var=measure(var_rows),
            cvar=measure(cvar_rows),
        )

    @staticmethod
    def reference_table(result):
        """The header and rows of the table, built from the per-path views."""
        prefix = ["path"] if len(result) > 1 else []
        header = prefix + ["t", "static_var", "recursive_var", "modulated_var",
                           "static_cvar", "recursive_cvar", "modulated_cvar"]
        rows = []
        for res in result:
            for t in range(len(res.returns)):
                row = [res.path_id] if prefix else []
                row.append(t)
                for measure in (res.var, res.cvar):
                    for name in ("static", "recursive", "modulated"):
                        row.append(None if measure is None else float(getattr(measure, name)[t]))
                rows.append(row)
        return header, rows

    @classmethod
    def csv_module_text(cls, result):
        """The table as ``csv.writer`` renders it."""
        header, rows = cls.reference_table(result)
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue()

    @classmethod
    def json_module_text(cls, result):
        """The table's records as ``json.dump(..., indent=2)`` renders them."""
        header, rows = cls.reference_table(result)
        out = io.StringIO()
        json.dump([dict(zip(header, row)) for row in rows], out, indent=2)
        return out.getvalue() + "\n"

    def test_csv_bytes_match_the_csv_module(self, tmp_path):
        # Signed zeros share one column in both orders, values repeat across
        # paths and columns, tables carry var only, cvar only or both, and
        # the float 3.0 precedes the path id 3.
        var_a = ((1.25, 1.25, 1.25), (1.25, -0.0, 0.0), (0.1, 0.30000000000000004, 1e-300))
        var_b = ((1.25, 1.25, 1.25), (-0.0, 0.0, -0.0), (0.1, 0.1, -1.25))
        var_c = ((2.5, 0.0, -0.0), (3.0, 3.0, -0.0), (0.0, 1e-300, 1.25))
        var_d = ((1.25, 1.25, 1.25), (0.0, -0.0, 0.0), (-0.0, 0.1, 3.0))
        cvar_a = ((2.5, 2.5, 2.5), (0.0, -0.0, 2.5), (3.0, -7.5, 1.25))
        cvar_b = ((2.5, 2.5, 2.5), (-0.0, 2.5, 0.0), (1.25, 0.30000000000000004, -0.0))
        cvar_c = ((-7.5, 0.1, 0.1), (0.0, 0.0, -0.0), (2.5, 3.0, 1.25))
        cvar_d = ((2.5, 0.0, -0.0), (-0.0, 1.25, 1.25), (0.1, 0.1, 3.0))
        cases = [
            self.hand_built([var_a], [cvar_a]),
            self.hand_built([var_b], None),
            self.hand_built(None, [cvar_b]),
            self.hand_built([var_a, var_b, var_c, var_d], [cvar_a, cvar_b, cvar_c, cvar_d]),
            self.hand_built([var_d, var_c, var_b, var_a], None),
            self.hand_built(None, [cvar_c, cvar_b, cvar_a]),
        ]
        for result in cases:
            out = tmp_path / "traj.csv"
            emit_trajectories(result, "csv", out)
            assert out.read_bytes() == self.csv_module_text(result).encode()

    def test_json_bytes_match_the_json_module(self, tmp_path):
        # Signed zeros share one column in both orders, tables carry var
        # only, cvar only or both on 0, 1 and 3 paths, and non-finite cells
        # are written as json writes them.
        var_a = ((1.25, 1.25, 1.25), (1.25, -0.0, 0.0), (0.1, 0.30000000000000004, 1e-300))
        var_b = ((1.25, 1.25, 1.25), (-0.0, 0.0, -0.0), (0.1, 0.1, -1.25))
        var_nan = ((2.5, math.nan, -0.0), (math.inf, 3.0, -math.inf), (0.0, math.nan, 1.25))
        cvar_a = ((2.5, 2.5, 2.5), (0.0, -0.0, 2.5), (3.0, -7.5, 1.25))
        cvar_b = ((2.5, 2.5, 2.5), (-0.0, 2.5, 0.0), (1.25, 0.30000000000000004, -0.0))
        cases = [
            self.hand_built([var_a], [cvar_a]),
            self.hand_built([var_b], None),
            self.hand_built(None, [cvar_b]),
            self.hand_built([var_nan], None),
            self.hand_built([var_a, var_b, var_nan], [cvar_a, cvar_b, cvar_a]),
            self.hand_built([var_b, var_a, var_b], None),
            self.hand_built(None, [cvar_b, cvar_a, cvar_b]),
            dataclasses.replace(  # no paths: json writes "[]"
                self.hand_built([var_a], None),
                chain_seeds=np.zeros(0, dtype=np.uint64),
                returns_seeds=np.zeros(0, dtype=np.uint64),
                states=np.ones((0, 4), dtype=int),
                returns=np.zeros((0, 3)),
                var=RiskColumns(*[np.zeros((0, 3))] * 3),
            ),
        ]
        for result in cases:
            out = tmp_path / "traj.json"
            emit_trajectories(result, "json", out)
            assert out.read_bytes() == self.json_module_text(result).encode()

    #: sha256 of the JSON tables, recorded while the runner still built one
    #: object per path; the engine digests cover the CSV only.
    JSON_DIGESTS = {
        ("gaussian_msci", 1, ("var", "cvar")): "34da598fdd6f695a5c68140835da984db471da348418f02aaa513c32d2fe3375",
        ("gaussian_msci", 3, ("var", "cvar")): "bd111032357190120229ff4748ae7f4e529bb91e535ced083a5837bb260cf281",
        ("weibull_bbgex", 1, ("var", "cvar")): "e500472f179b289326b32331997c466735bd0dd30ecd9acaa18f4651ec327daa",
        ("weibull_bbgex", 3, ("var", "cvar")): "7fd506ae0f0327cdfbd889bf983064440a986bd12c88b2acb4dfcbe166f5ecba",
        ("weibull_bbgex", 3, ("var",)): "8ea0cbcab900ef796127717ca5b9b15df94a1e9b6a60bfab7b85bd5157740290",
        ("gaussian_msci", 2, ("cvar",)): "8964d8dc9fd5f4a0f0446b697ce81f6095e9e5d5b5c95f52276db1a6ba5d1cfd",
    }

    @pytest.mark.parametrize("study,n_paths,measures", JSON_DIGESTS)
    def test_json_bytes_are_pinned(self, tmp_path, study, n_paths, measures):
        cfg = dataclasses.replace(
            build_reference_experiment(study), n_paths=n_paths, measures=measures
        )
        out = tmp_path / "traj.json"
        emit_trajectories(run_experiment(cfg)[0], "json", out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.JSON_DIGESTS[study, n_paths, measures]

    def test_format_and_target_validated(self, tmp_path):
        paths = self.run_small()
        with pytest.raises(DomainError):
            emit_trajectories(paths, "parquet", tmp_path / "x")
        with pytest.raises(DataError):
            emit_trajectories(paths, "csv", tmp_path)  # target is a directory
