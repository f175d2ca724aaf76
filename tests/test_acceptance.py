"""End-to-end acceptance gate.

One test per headline guarantee, each at its stated tolerance and runtime
budget; ``pytest -v`` prints one pass/fail line per guarantee:

1.  closed-form trajectories match the stepwise recursion (1e-12 relative),
2.  consecutive recursion values telescope to the static quantile (1e-10),
3.  the variational conditional value-at-risk agrees with the tail formula
    and the quantile minimizes the objective (1e-6),
4.  the bundled reference configs serialize to their golden bytes,
5.  the chain-modulated value-at-risk matches a per-step Monte Carlo
    conditional expectation (1e5 draws, 3 standard errors),
6.  the axiom profile: quantile risk is monotone, translation-additive and
    homogeneous but not subadditive; the tail mean satisfies all four; the
    recursive and modulated measures pass the dynamic axioms exhaustively,
7.  a 1000-path run reports dynamic-vs-static fractions and the exact
    alternation signature under constant parameters,
8.  calibration round-trips the reference parameters from synthetic samples.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from riskflow.axioms import (
    DynamicAxiom,
    ModulatedFiniteMeasure,
    RecursiveFiniteMeasure,
    StaticAxiom,
    Verdict,
    bundled_pair_processes,
    check_dynamic_axiom,
    check_static_axiom,
)
from riskflow.distributions import (
    EmpiricalSample,
    GaussianParams,
    WeibullParams,
    sample,
)
from riskflow.dynamic_risk import (
    VectorialMeasure,
    recursive_risk_generic,
    recursive_var_gaussian_closed,
    recursive_var_weibull_closed,
)
from riskflow.markov import TransitionMatrix
from riskflow.scenario import (
    build_reference_experiment,
    config_to_json,
    fit_gaussian,
    fit_weibull,
    run_experiment,
)
from riskflow.static_risk import (
    MeasureKind,
    Orientation,
    RiskMeasureSpec,
    argmin_contains_var,
    cvar_ru,
    cvar_tail,
    var,
)

VAR_99 = RiskMeasureSpec(MeasureKind.VAR, 0.99)


def random_sequences(rng, family, T):
    if family == "gaussian":
        mus = rng.normal(0.0, 10.0, T + 1)
        sigmas = rng.uniform(0.1, 5.0, T + 1)
        models = [GaussianParams(float(m), float(s)) for m, s in zip(mus, sigmas)]
        closed = recursive_var_gaussian_closed(mus, sigmas, 0.99)
    else:
        lams = rng.uniform(0.2, 10.0, T + 1)
        alphas = rng.uniform(0.3, 4.0, T + 1)
        thetas = rng.normal(0.0, 2.0, T + 1)
        models = [
            WeibullParams(float(l), float(a), float(th))
            for l, a, th in zip(lams, alphas, thetas)
        ]
        closed = recursive_var_weibull_closed(lams, alphas, thetas, 0.99)
    return models, closed


def test_closed_form_matches_stepwise_recursion():
    """1000 random parameter sequences per family, horizons up to 50."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240901)
    for family in ("gaussian", "weibull"):
        for _ in range(1000):
            T = int(rng.integers(1, 51))
            models, closed = random_sequences(rng, family, T)
            generic = recursive_risk_generic(models, VAR_99)
            for a, b in zip(closed, generic):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    assert time.perf_counter() - start < 10.0


def test_recursion_telescopes_to_static_quantile():
    """R_t + R_{t-1} equals the period's static quantile, 1e-10 absolute."""
    rng = np.random.default_rng(20240902)
    for family in ("gaussian", "weibull"):
        for _ in range(200):
            T = int(rng.integers(1, 31))
            models, _ = random_sequences(rng, family, T)
            out = recursive_risk_generic(models, VAR_99)
            for t in range(1, T + 1):
                assert abs(out[t] + out[t - 1] - var(models[t], 0.99)) <= 1e-10


def test_variational_route_agrees_with_tail_formula():
    """cvar by minimization vs direct tail mean on 200 random models."""
    rng = np.random.default_rng(20240903)
    for i in range(200):
        which = i % 3
        if which == 0:
            model = GaussianParams(float(rng.normal(0, 5)), float(rng.uniform(0.1, 4)))
        elif which == 1:
            model = WeibullParams(
                float(rng.uniform(0.2, 5)),
                float(rng.uniform(0.4, 4)),
                float(rng.normal(0, 2)),
            )
        else:
            model = EmpiricalSample(tuple(rng.normal(0, 3, int(rng.integers(5, 80)))))
        p = float(rng.uniform(0.7, 0.995))
        a, b = cvar_ru(model, p), cvar_tail(model, p)
        assert abs(a - b) <= 1e-6 * max(1.0, abs(b))
        assert argmin_contains_var(model, p)
        if which == 0:
            q = ndtri(p)
            analytic = model.mu + model.sigma * norm.pdf(q) / (1.0 - p)
            assert abs(a - analytic) <= 1e-6 * max(1.0, abs(analytic))


def test_reference_configs_serialize_to_golden_bytes():
    """The canonical JSON of both bundled configs, byte for byte."""
    gaussian = {
        "family": "gaussian",
        "params": {
            "mu": [1169.009625, 1057.675375],
            "sigma": [195.6045, 176.97549999999998],
        },
        "transition_matrix": [[0.25, 0.75], [0.35, 0.65]],
        "orientation": "row",
        "initial_state": 1,
        "p": 0.99,
        "horizon": 10,
        "n_paths": 1,
        "seed": 1729,
        "measures": ["var", "cvar"],
        "cvar_mode": "piecewise",
        "output": None,
    }
    weibull = dict(
        gaussian,
        family="weibull",
        params={
            "lambda": [7.106295, 6.429505],
            "alpha": [0.8016, 0.8016],
            "theta": [0.0, 0.0],
        },
    )
    for study, golden in (("gaussian_msci", gaussian), ("weibull_bbgex", weibull)):
        expected = (json.dumps(golden, sort_keys=True, indent=2) + "\n").encode()
        actual = config_to_json(build_reference_experiment(study)).encode()
        assert actual == expected


def test_modulated_var_matches_monte_carlo_conditional_expectation():
    """Each barred term vs 1e5 sampled next-states, 3 standard errors."""
    start = time.perf_counter()
    config = build_reference_experiment("gaussian_msci")
    paths, _ = run_experiment(config)
    states = paths[0].states
    modulated = paths[0].var.modulated
    matrix = config.chain()
    q = ndtri(config.p)
    per_state = np.array(
        [mu + sigma * q for mu, sigma in zip(config.params["mu"], config.params["sigma"])]
    )
    T = config.horizon
    rng = np.random.default_rng(555)
    n = 100_000
    bar_means = [None]  # index 0 unused: the time-0 term is realized, not barred
    bar_ses = [0.0]
    for k in range(1, T + 1):
        draws = rng.choice(len(per_state), size=n, p=matrix.column(states[k]))
        values = per_state[draws]
        bar_means.append(float(values.mean()))
        bar_ses.append(float(values.std(ddof=1) / np.sqrt(n)))
    v0 = per_state[states[1] - 1]
    assert modulated[0] == pytest.approx(v0, abs=1e-12)
    for t in range(1, T + 1):
        estimate = ((-1.0) ** t) * v0
        variance = 0.0
        for k in range(1, t + 1):
            estimate += ((-1.0) ** (t - k)) * bar_means[k]
            variance += bar_ses[k] ** 2
        assert abs(modulated[t] - estimate) <= 3.0 * np.sqrt(variance)
    assert time.perf_counter() - start < 60.0


def test_axiom_profile():
    """Static profile at 1000 trials; dynamic axioms exhaustive on small trees."""
    start = time.perf_counter()
    var_spec = RiskMeasureSpec(MeasureKind.VAR, 0.95, Orientation.LOWER_TAIL)
    cvar_spec = RiskMeasureSpec(MeasureKind.CVAR, 0.95, Orientation.LOWER_TAIL)

    for axiom in (StaticAxiom.P1, StaticAxiom.P2, StaticAxiom.P4):
        report = check_static_axiom(axiom, var_spec, trials=1000, seed=0)
        assert report.verdict is Verdict.HOLDS, report.witness
        assert "lower_tail" in report.detail  # orientation is stated, not implied
    p3 = check_static_axiom(StaticAxiom.P3, var_spec, trials=1000, seed=0)
    assert p3.verdict is Verdict.VIOLATED
    assert p3.witness is not None and p3.witness["margin"] > 0
    assert p3.witness["var_sum"] > p3.witness["var_x"] + p3.witness["var_y"]

    for axiom in StaticAxiom:
        report = check_static_axiom(axiom, cvar_spec, trials=1000, seed=0)
        assert report.verdict is Verdict.HOLDS, report.witness

    dynamic_axioms = (DynamicAxiom.D1, DynamicAxiom.D2, DynamicAxiom.D4, DynamicAxiom.D5)
    recursive = RecursiveFiniteMeasure(var_spec)
    modulated = ModulatedFiniteMeasure(
        VectorialMeasure((var_spec, var_spec)),
        TransitionMatrix.from_rows(((0.25, 0.75), (0.35, 0.65))),
        initial_state=1,
    )
    for axiom in dynamic_axioms:
        # Recursive measure on 16-atom trees; modulated on the largest joint
        # space the 64-atom cap allows at horizon 4 (4 atoms x 16 paths).
        pairs = bundled_pair_processes(axiom, n_pairs=4, n_atoms=16, T=4)
        report = check_dynamic_axiom(axiom, recursive, pairs)
        assert report.verdict is Verdict.HOLDS, (axiom, report.witness)
        pairs = bundled_pair_processes(axiom, n_pairs=4, n_atoms=4, T=4)
        report = check_dynamic_axiom(axiom, modulated, pairs)
        assert report.verdict is Verdict.HOLDS, (axiom, report.witness)
    assert time.perf_counter() - start < 30.0


def test_thousand_path_run_records_fractions_and_alternation():
    """Fractions are reported (not pinned); the i.i.d. zero pattern is exact."""
    config = dataclasses.replace(build_reference_experiment("gaussian_msci"), n_paths=1000)
    _, stats = run_experiment(config)
    fractions = stats.fraction_dynamic_le_static
    assert set(fractions) == {
        "recursive_var",
        "modulated_var",
        "recursive_cvar",
        "modulated_cvar",
    }
    for name, value in fractions.items():
        assert 0.0 <= value <= 1.0
    print(f"fraction of steps with dynamic <= static over 1000 paths: {dict(fractions)}")

    constant = dataclasses.replace(
        config,
        n_paths=100,
        params={"mu": (1113.3425, 1113.3425), "sigma": (186.29, 186.29)},
    )
    _, stats = run_experiment(constant)
    assert stats.recursive_var_alternation is True  # odd steps exactly 0.0


def test_calibration_round_trips_reference_parameters():
    """1e5 synthetic draws: 1% for the Gaussian fit, 2% for the Weibull."""
    start = time.perf_counter()
    gaussian = GaussianParams(1113.3425, 186.29)
    fit_g = fit_gaussian(sample(gaussian, 100_000, seed=424242))
    assert abs(fit_g.mu - gaussian.mu) / gaussian.mu < 0.01
    assert abs(fit_g.sigma - gaussian.sigma) / gaussian.sigma < 0.01

    weibull = WeibullParams(6.7679, 0.8016)
    fit_w = fit_weibull(sample(weibull, 100_000, seed=424243))
    assert abs(fit_w.lam - weibull.lam) / weibull.lam < 0.02
    assert abs(fit_w.alpha - weibull.alpha) / weibull.alpha < 0.02
    assert time.perf_counter() - start < 20.0
