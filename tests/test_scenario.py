"""Experiment configs, calibration, data loading, and the scenario runner."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import statistics
import warnings

import numpy as np
import pytest

from riskflow import markov, scenario
from riskflow.distributions import STANDARD_MODELS, GaussianParams, WeibullParams, sample
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
            {"output": 7},
            {"measures": None},
            {"measures": 3},
            {"measures": "var"},
            {"measures": {"var": 1}},
            {"params": None},
            {"params": [1, 2]},
            {"params": "mu"},
            {"params": [["mu", (1.0, -1.0)], ["sigma", (0.5, 0.8)]]},
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

    #: Values of each JSON type; every field refuses each of them, except
    #: ``output``, which takes any string and ``null``.
    JSON_VALUES = {
        "object": [{}, {"a": 1}, {"var": 1}],
        "array": [[], [1, 2], [[1]], ["x"]],
        "string": ["", "x", "1"],
        "number": [-1.5, -1, 1e308],
        "true": [True],
        "null": [None],
    }

    @pytest.mark.parametrize("kind", sorted(JSON_VALUES))
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_every_field_of_every_json_type_is_a_config_error(self, key, kind):
        good = json.loads(config_to_json(small_config()))
        for value in self.JSON_VALUES[kind]:
            text = json.dumps(dict(good, **{key: value}))
            if key == "output" and kind in ("string", "null"):
                assert config_from_json(text).output == value
                continue
            with pytest.raises(ConfigError):
                config_from_json(text)

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


class TestFitInput:
    @pytest.mark.parametrize("fit", [fit_gaussian, fit_weibull])
    @pytest.mark.parametrize("returns, problem", [
        (np.ones((3, 2)), "one-dimensional, got shape"),
        (np.array(2.0), "one-dimensional, got shape"),
        ((2.0, np.True_, 5.0), "real numbers"),
    ], ids=["2-d", "0-d", "mixed-numpy-bool"])
    def test_other_input_is_a_data_error(self, fit, returns, problem):
        with pytest.raises(DataError, match=problem):
            fit(returns)

    @pytest.mark.parametrize("fit", [fit_gaussian, fit_weibull])
    def test_any_real_dtype_gives_the_same_fit(self, fit):
        xs = [1.0, 2.0, 4.0, 7.0]
        expected = fit(xs)
        for form in (
            tuple(xs), [1, 2, 4, 7], np.array(xs), np.array(xs, dtype=np.float32),
            np.array([1, 2, 4, 7], dtype=np.int32), np.array([1, 2, 4, 7], dtype=np.uint8),
        ):
            assert fit(form) == expected

    def test_gaussian_sums_are_correctly_rounded(self):
        # math.fsum of the values and of the correctly rounded squared
        # deviations, whatever the order of the draws.
        rng = np.random.default_rng(21)
        xs = rng.normal(3.0, 2.0, 10_001)
        mean = math.fsum(xs.tolist()) / xs.size
        ss = math.fsum(((x - mean) * (x - mean) for x in xs.tolist()))
        for order in (xs, xs[::-1], rng.permutation(xs)):
            assert fit_gaussian(order) == GaussianParams(mean, math.sqrt(ss / (xs.size - 1)))


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

    def test_newton_step_outside_the_bracket_falls_back_to_bisection(self):
        # One outlier: from the moment estimate the Newton step is a negative
        # shape, below every bracket, so the iteration must bisect.
        xs = np.array([1.0] * 20 + [1000.0])
        lx = np.log(xs)
        alpha0 = math.pi / (math.sqrt(6.0) * float(np.std(lx)))
        g, dg = scenario._weibull_profile(alpha0, lx)
        assert alpha0 - g / dg < 0.0
        fit = fit_weibull(xs)
        # The profile equation and the scale, recomputed here from the sums.
        s0, s1 = float(np.sum(xs**fit.alpha)), float(np.sum(xs**fit.alpha * lx))
        assert abs(s1 / s0 - 1.0 / fit.alpha - float(np.mean(lx))) <= 1e-8
        assert fit.lam == pytest.approx((s0 / xs.size) ** (1.0 / fit.alpha), rel=1e-12)

    @pytest.mark.parametrize("g,side", [(1.0, "below"), (-1.0, "above")])
    def test_unbracketed_shape_raises(self, monkeypatch, g, side):
        # A profile of one sign has no root: 80 halvings (or doublings) of
        # the starting shape are tried, then the search gives up.
        shapes = []

        def profile(alpha, lx):
            shapes.append(alpha)
            return g, 1.0

        monkeypatch.setattr(scenario, "_weibull_profile", profile)
        with pytest.raises(NumericError, match=f"could not bracket the shape from {side}"):
            fit_weibull([1.0, 2.0, 4.0])
        factor = 0.5 if side == "below" else 2.0
        tried = shapes[-80:]
        assert tried[-1] == tried[0] * factor**79
        assert all(b == a * factor for a, b in zip(tried, tried[1:]))

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

    @pytest.mark.parametrize("frac", [-0.1, 1.5, math.nan])
    def test_summary_fraction_outside_the_unit_interval_is_refused(self, frac):
        with pytest.raises(DomainError, match="outside \\[0, 1\\]"):
            scenario.SummaryStats(1, 1, {"recursive_var": frac}, {}, None)

    @pytest.mark.parametrize("study", ["gaussian_msci", "weibull_bbgex"])
    def test_path_i_reads_each_stream_advanced_by_i_rows(self, study):
        # The run's two seeds are the first two words of its SeedSequence.
        # Path i's chain uniforms are the T draws of PCG64(chain_seed)
        # advanced by i * T, and its standard returns the T + 1 draws of
        # PCG64(returns_seed) advanced by i * (T + 1), each priced with the
        # model of the state reached at t + 1: path i rebuilt alone is row i.
        cfg = dataclasses.replace(build_reference_experiment(study), n_paths=1000)
        result, _ = run_experiment(cfg)
        seeds = np.random.SeedSequence(cfg.seed).generate_state(2, np.uint64).tolist()
        assert [result.chain_seed, result.returns_seed] == seeds
        T, matrix, standard = cfg.horizon, cfg.chain(), STANDARD_MODELS[cfg.family]
        for i in (0, 1, 500, 999):
            chain = np.random.Generator(np.random.PCG64(result.chain_seed).advance(i * T))
            states = markov._walk(matrix, cfg.initial_state, chain.random((1, T)))[0]
            assert result.states[i].tolist() == states.tolist(), i
            returns = np.random.PCG64(result.returns_seed).advance(i * (T + 1))
            draws = standard.draw(np.random.Generator(returns), T + 1)
            expected = [
                cfg.state_model(state).scale(draws)[t]
                for t, state in enumerate(states[1:].tolist())
            ]
            assert result.returns[i].tolist() == expected, i

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

    @pytest.mark.parametrize("mode", ["piecewise", "exact"])
    @pytest.mark.parametrize("study", ["gaussian_msci", "weibull_bbgex"])
    def test_prefix_stability(self, study, mode):
        # Path i depends only on the root seed and i: the first 10 paths of a
        # 1000-path run are a 10-path run, bit for bit.
        cfg = dataclasses.replace(build_reference_experiment(study), cvar_mode=mode)
        full, prefix = (run_experiment(dataclasses.replace(cfg, n_paths=n))[0] for n in (1000, 10))
        assert (full.chain_seed, full.returns_seed) == (prefix.chain_seed, prefix.returns_seed)
        full, prefix = self.arrays(full), self.arrays(prefix)
        assert full.keys() == prefix.keys() and len(full) == 8  # states, returns, 6 columns
        for name in full:
            assert full[name][:10].tobytes() == prefix[name].tobytes(), name

    @pytest.mark.parametrize("mode", ["piecewise", "exact"])
    @pytest.mark.parametrize("study", ["gaussian_msci", "weibull_bbgex"])
    def test_positive_homogeneity(self, study, mode):
        # Doubling every state's location and scale doubles the returns and
        # all six columns bit for bit: scaling by a power of two is exact in
        # floating point and leaves every branch choice unchanged.
        cfg = dataclasses.replace(
            build_reference_experiment(study), cvar_mode=mode, n_paths=200
        )
        scaled = {"mu", "sigma", "lambda", "theta"}
        doubled = dataclasses.replace(cfg, params={
            k: tuple(2 * x for x in v) if k in scaled else v for k, v in cfg.params.items()
        })
        base, twice = run_experiment(cfg)[0], run_experiment(doubled)[0]
        assert np.array_equal(twice.returns, 2 * base.returns)
        assert len(base.columns()) == 6
        for name, column in base.columns().items():
            assert np.array_equal(twice.columns()[name], 2 * column), name

    @pytest.mark.parametrize("study", ["gaussian_msci", "weibull_bbgex"])
    def test_one_state_collapse(self, study):
        # When every chain state carries the first state's model, the chain
        # cannot change the one-step prediction: modulated VaR is recursive VaR.
        cfg = dataclasses.replace(
            build_reference_experiment(study), n_paths=200, measures=("var",)
        )
        two_state = run_experiment(cfg)[0].var
        assert not np.array_equal(two_state.modulated, two_state.recursive)
        one_model = {k: (v[0],) * len(v) for k, v in cfg.params.items()}
        collapsed = run_experiment(dataclasses.replace(cfg, params=one_model))[0].var
        np.testing.assert_array_max_ulp(collapsed.modulated, collapsed.recursive, maxulp=4)

    @pytest.mark.parametrize("rows", [
        build_reference_experiment("gaussian_msci").transition_matrix,
        ((0.95, 0.05), (0.05, 0.95)),
    ], ids=["reference", "slow-mixing"])
    def test_means_match_the_exact_state_law(self, rows):
        """The Monte Carlo means of the static columns, the returns and the
        alternating-sum columns are within 4 standard errors of their exact
        expectations.

        Period t is priced with the state reached at t + 1, whose law is
        ``A^(t+1) e_(Z_0)`` for the column-stochastic matrix ``A``, and
        ``A^T e_(Z_0)`` at t = T, where the terminal state is frozen.  Each
        static expectation is ``sum_j pi(j) * value_j`` with the values from
        ``statistics.NormalDist``; the standard error is the exact one,
        ``sqrt(sum_j pi(j) * second_moment_j - mean**2) / sqrt(n)``.  For a
        normal mean, a cell falls outside 4 standard errors with probability
        6.3e-5, so the 66 cells of a random seed would raise a false alarm
        with probability at most 4.2e-3; the seed here is fixed, and its
        largest deviation is 2.3 standard errors on the reference chain (1.5
        for the alternating sums) and 2.4 on the slow-mixing one.  Pricing
        period t with the state at t instead misses at t = 0 by 55 standard
        errors, and by 18 or more at every t of the sums.  The reference
        chain's second eigenvalue is -0.1, so its laws one step apart nearly
        agree; the slow-mixing chain (second eigenvalue 0.9) is what tells
        which state prices modulated VaR's predictions: pricing them from
        ``Z_(k+1)`` instead of ``Z_k`` misses there by 76 standard errors at
        t = 1, and by only 1.6 on the reference chain.

        Recursive VaR, exact recursive CVaR and modulated VaR are
        ``sum_k (-1)**(t-k) table(Z_(a_k))`` for per-state tables: the static
        value of the state pricing period k, except that modulated VaR prices
        k >= 1 with the one-step prediction ``A^T value`` from ``Z_k``.  Their
        second moments come from the joint law
        ``P(Z_a = i, Z_b = j) = pi_a(i) * (A^(b-a))[j, i]``, a <= b.
        """
        cfg = dataclasses.replace(
            build_reference_experiment("gaussian_msci"),
            transition_matrix=rows, n_paths=1000, cvar_mode=CvarMode.EXACT,
        )
        result, _ = run_experiment(cfg)
        n, T = cfg.n_paths, cfg.horizon
        A = cfg.chain().entries

        def state_law(a):
            return np.linalg.matrix_power(A, a)[:, cfg.initial_state - 1]

        law = [state_law(min(t + 1, T)) for t in range(T + 1)]
        z = statistics.NormalDist().inv_cdf(cfg.p)
        mu, sigma = np.array(cfg.params["mu"]), np.array(cfg.params["sigma"])
        static_var = mu + sigma * z
        static_cvar = mu + sigma * statistics.NormalDist().pdf(z) / (1 - cfg.p)
        cases = {  # name: (column, value per state, second moment per state)
            "static_var": (result.var.static, static_var, static_var**2),
            "static_cvar": (result.cvar.static, static_cvar, static_cvar**2),
            "returns": (result.returns, mu, mu**2 + sigma**2),
        }
        for name, (column, value, second) in cases.items():
            for t, pi in enumerate(law):
                mean = pi @ value
                error = math.sqrt(pi @ second - mean**2) / math.sqrt(n)
                assert abs(column[:, t].mean() - mean) < 4 * error, (name, t)

        def moments(terms):
            # terms: (a, f) with a non-decreasing, for the sum of f(Z_a).
            mean = sum(state_law(a) @ f for a, f in terms)
            second = 0.0
            for i, (a, f) in enumerate(terms):
                for j, (b, g) in enumerate(terms[i:]):
                    joint = (state_law(a) * f) @ (np.linalg.matrix_power(A, b - a).T @ g)
                    second += joint if j == 0 else 2.0 * joint
            return mean, second

        sums = {  # name: (column, (a_k, table) of the periods k <= t)
            "recursive_var": (
                result.var.recursive, lambda t: [(min(k + 1, T), static_var) for k in range(t + 1)]
            ),
            "recursive_cvar": (
                result.cvar.recursive, lambda t: [(min(k + 1, T), static_cvar) for k in range(t + 1)]
            ),
            "modulated_var": (
                result.var.modulated,
                lambda t: [(1, static_var)] + [(k, A.T @ static_var) for k in range(1, t + 1)],
            ),
        }
        for name, (column, tables) in sums.items():
            for t in range(T + 1):
                terms = [(a, (-1.0) ** (t - k) * table) for k, (a, table) in enumerate(tables(t))]
                mean, second = moments(terms)
                error = math.sqrt(second - mean**2) / math.sqrt(n)
                assert abs(column[:, t].mean() - mean) < 4 * error, (name, t)

    def test_views_hold_the_rows(self):
        result, _ = run_experiment(small_config(n_paths=3))
        views = list(result)
        assert [v.path_id for v in views] == [0, 1, 2]
        assert result[-1].path_id == 2
        with pytest.raises(IndexError):
            result[3]
        for i, view in enumerate(views):
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

    def test_a_raised_numeric_error_is_prefixed_with_the_seed(self):
        # Gamma(1 + 1/alpha) = 200! overflows inside the Weibull exceedance;
        # the run re-raises that error with its seed in front.
        cfg = dataclasses.replace(
            build_reference_experiment("weibull_bbgex"),
            params={"lambda": (1.0, 1.0), "alpha": (0.005, 0.005), "theta": (0.0, 0.0)},
            seed=7,
        )
        message = (
            "weibull exceedance(4.4579672400725195e+132) overflows a float "
            "for (1.0, 0.005, 0.0)"
        )
        with pytest.raises(NumericError) as err:
            run_experiment(cfg)
        assert str(err.value) == f"[seed 7] {message}"
        assert isinstance(err.value.__cause__, NumericError)
        assert str(err.value.__cause__) == message

    def test_result_arrays_are_read_only(self):
        result, _ = run_experiment(small_config(n_paths=3))
        arrays = [result.states, result.returns]
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

    def test_path_ids_and_returns_are_distinct(self):
        paths, _ = run_experiment(small_config(n_paths=5))
        assert [p.path_id for p in paths] == [0, 1, 2, 3, 4]
        assert len({p.returns.tobytes() for p in paths}) == 5

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
            chain_seed=0,
            returns_seed=0,
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

    @classmethod
    def csv_cases(cls):
        """Hand-built tables: signed zeros share one column in both orders,
        values repeat across paths and columns, tables carry var only, cvar
        only or both, and the float 3.0 precedes the path id 3."""
        var_a = ((1.25, 1.25, 1.25), (1.25, -0.0, 0.0), (0.1, 0.30000000000000004, 1e-300))
        var_b = ((1.25, 1.25, 1.25), (-0.0, 0.0, -0.0), (0.1, 0.1, -1.25))
        var_c = ((2.5, 0.0, -0.0), (3.0, 3.0, -0.0), (0.0, 1e-300, 1.25))
        var_d = ((1.25, 1.25, 1.25), (0.0, -0.0, 0.0), (-0.0, 0.1, 3.0))
        cvar_a = ((2.5, 2.5, 2.5), (0.0, -0.0, 2.5), (3.0, -7.5, 1.25))
        cvar_b = ((2.5, 2.5, 2.5), (-0.0, 2.5, 0.0), (1.25, 0.30000000000000004, -0.0))
        cvar_c = ((-7.5, 0.1, 0.1), (0.0, 0.0, -0.0), (2.5, 3.0, 1.25))
        cvar_d = ((2.5, 0.0, -0.0), (-0.0, 1.25, 1.25), (0.1, 0.1, 3.0))
        return [
            cls.hand_built([var_a], [cvar_a]),
            cls.hand_built([var_b], None),
            cls.hand_built(None, [cvar_b]),
            cls.hand_built([var_a, var_b, var_c, var_d], [cvar_a, cvar_b, cvar_c, cvar_d]),
            cls.hand_built([var_d, var_c, var_b, var_a], None),
            cls.hand_built(None, [cvar_c, cvar_b, cvar_a]),
        ]

    @classmethod
    def assert_csv_bytes(cls, results, tmp_path):
        for result in results:
            out = tmp_path / "traj.csv"
            emit_trajectories(result, "csv", out)
            assert out.read_bytes() == cls.csv_module_text(result).encode()

    def test_csv_bytes_match_the_csv_module(self, tmp_path):
        self.assert_csv_bytes(self.csv_cases(), tmp_path)

    @classmethod
    def json_cases(cls):
        """Hand-built tables: signed zeros share one column in both orders,
        tables carry var only, cvar only or both on 0, 1 and 3 paths, and
        non-finite cells are written as json writes them."""
        var_a = ((1.25, 1.25, 1.25), (1.25, -0.0, 0.0), (0.1, 0.30000000000000004, 1e-300))
        var_b = ((1.25, 1.25, 1.25), (-0.0, 0.0, -0.0), (0.1, 0.1, -1.25))
        var_nan = ((2.5, math.nan, -0.0), (math.inf, 3.0, -math.inf), (0.0, math.nan, 1.25))
        cvar_a = ((2.5, 2.5, 2.5), (0.0, -0.0, 2.5), (3.0, -7.5, 1.25))
        cvar_b = ((2.5, 2.5, 2.5), (-0.0, 2.5, 0.0), (1.25, 0.30000000000000004, -0.0))
        return [
            cls.hand_built([var_a], [cvar_a]),
            cls.hand_built([var_b], None),
            cls.hand_built(None, [cvar_b]),
            cls.hand_built([var_nan], None),
            cls.hand_built([var_a, var_b, var_nan], [cvar_a, cvar_b, cvar_a]),
            cls.hand_built([var_b, var_a, var_b], None),
            cls.hand_built(None, [cvar_b, cvar_a, cvar_b]),
            dataclasses.replace(  # no paths: json writes "[]"
                cls.hand_built([var_a], None),
                states=np.ones((0, 4), dtype=int),
                returns=np.zeros((0, 3)),
                var=RiskColumns(*[np.zeros((0, 3))] * 3),
            ),
        ]

    @classmethod
    def assert_json_bytes(cls, results, tmp_path):
        for result in results:
            out = tmp_path / "traj.json"
            emit_trajectories(result, "json", out)
            assert out.read_bytes() == cls.json_module_text(result).encode()

    def test_json_bytes_match_the_json_module(self, tmp_path):
        self.assert_json_bytes(self.json_cases(), tmp_path)

    @pytest.mark.parametrize("chunk", [2, 3])
    def test_bytes_match_across_chunk_edges(self, tmp_path, monkeypatch, chunk):
        # Rows are formatted a chunk at a time.  With chunks of 2 and 3 rows,
        # tables of 0, 3, 9 and 12 rows end on partial and full chunks, and
        # multi-path tables put ``path`` and ``t`` ids on both sides of edges.
        monkeypatch.setattr(scenario, "_CHUNK_ROWS", chunk)
        self.assert_csv_bytes([*self.csv_cases(), self.json_cases()[-1]], tmp_path)
        self.assert_json_bytes(self.json_cases(), tmp_path)

    @classmethod
    def edge_cases(cls):
        """Hand-built tables with non-finite cells (NaN under two payloads and
        both signs, whose bits differ but whose texts do not, and ``±inf``),
        columns that hold one value, and tables of one row per path."""
        nan_b = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0].item()
        nan_c = -math.nan
        inf = math.inf
        bits = {np.float64(x).view(np.uint64).item() for x in (math.nan, nan_b, nan_c)}
        assert len(bits) == 3
        odd_a = ((math.nan, inf, -inf), (nan_b, nan_c, 1.0), (inf, math.nan, nan_b))
        odd_b = ((nan_c, nan_c, -inf), (-0.0, math.nan, inf), (nan_b, 0.0, -inf))
        flat = ((2.5, 2.5, 2.5), (2.5, 2.5, 2.5), (2.5, 2.5, 2.5))
        return [
            cls.hand_built([odd_a], [flat]),
            cls.hand_built([odd_a, odd_b, odd_a], [flat, flat, flat]),
            cls.hand_built([flat, flat], None),
            cls.hand_built([((nan_b,), (-0.0,), (1e-300,))], None),
            cls.hand_built([((inf,), (nan_c,), (0.0,))], [((2.5,), (2.5,), (-inf,))]),
            cls.hand_built(None, [((math.nan,), (0.0,), (-0.0,)), ((nan_b,), (-0.0,), (0.0,))]),
        ]

    @pytest.mark.parametrize("chunk", [1, 2, scenario._CHUNK_ROWS])
    def test_bytes_of_edge_cells(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(scenario, "_CHUNK_ROWS", chunk)
        self.assert_csv_bytes(self.edge_cases(), tmp_path)
        self.assert_json_bytes(self.edge_cases(), tmp_path)

    @pytest.mark.parametrize("study", ["gaussian_msci", "weibull_bbgex"])
    def test_bytes_of_multi_path_reference_runs(self, tmp_path, study):
        # Real columns: hundreds of distinct values, repeated across paths,
        # over 2200 rows and so three chunks.
        cfg = dataclasses.replace(build_reference_experiment(study), n_paths=200)
        result = run_experiment(cfg)[0]
        self.assert_csv_bytes([result], tmp_path)
        self.assert_json_bytes([result], tmp_path)

    #: sha256 of the JSON tables, recorded while the runner still built one
    #: object per path; the engine digests cover the CSV only.  The two Weibull
    #: tables with CVaR columns were re-recorded when the Weibull exceedance
    #: became a closed form: their CVaR cells moved by at most 6 ulp (1.3e-15
    #: relative), and no other cell moved.  They were re-recorded again when
    #: the package's incomplete gamma function replaced scipy's ``gammaincc``:
    #: static CVaR cells moved by at most 2 ulp, recursive by 3 and modulated
    #: by 4, and no other cell moved.  The four multi-path tables were
    #: re-recorded when every path became one row of the run's two streams.
    #: Path 0 keeps its chain walk and its Weibull returns, and the one-path
    #: tables did not move.
    JSON_DIGESTS = {
        ("gaussian_msci", 1, ("var", "cvar")): "34da598fdd6f695a5c68140835da984db471da348418f02aaa513c32d2fe3375",
        ("gaussian_msci", 3, ("var", "cvar")): "1078a07a9d07c6a0a5414ad8f68835c3e2282ad702bdee32a486bc843c6589f7",
        ("weibull_bbgex", 1, ("var", "cvar")): "16e790190d26465f7ef468cd6ef05cade8379c7fc27b6009c1af24f6d9fb8f51",
        ("weibull_bbgex", 3, ("var", "cvar")): "575dd330f6bbaa13d54639f27efa827a96f205cd99582c3cc5d4d1f3034d6597",
        ("weibull_bbgex", 3, ("var",)): "6e763c93fe77cc123d1f8140831ebb7ea6c1d9e415faae2927bf55080e7dbae2",
        ("gaussian_msci", 2, ("cvar",)): "541d3852e5c1569d52e535a329f773065288b1f46059fb3c45b8c59fa77f6f7a",
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
