"""Distribution primitives: closed forms, numeric integrals, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import weibull_min

from riskflow.distributions import (
    FAMILIES,
    EmpiricalSample,
    GaussianParams,
    ModelFamily,
    WeibullParams,
    expected_positive_part,
    model_from_params,
    model_params_dict,
    sample,
)
from riskflow.errors import DataError, DomainError

# Frozen against an independent high-precision route (mpmath, 40 digits).
Z_99 = 2.3263478740408408
Z_975 = 1.959963984540054
PHI_0 = 0.3989422804014327  # standard normal density at 0
WEIBULL_REF = WeibullParams(6.7679, 0.8016)
WEIBULL_REF_VAR99 = 45.48374687636546
WEIBULL_REF_MEAN = 7.657118882653609


STANDARD_NORMAL = GaussianParams(0.0, 1.0)


def rel_close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(b))


class TestGaussian:
    def test_quantile_median_is_zero(self):
        assert STANDARD_NORMAL.quantile(0.5) == 0.0

    def test_quantile_reference_levels(self):
        assert rel_close(STANDARD_NORMAL.quantile(0.99), Z_99)
        assert rel_close(STANDARD_NORMAL.quantile(0.975), Z_975)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_quantile_rejects_bad_levels(self, p):
        with pytest.raises(DomainError):
            STANDARD_NORMAL.quantile(p)

    def test_quantile_affine_in_parameters(self):
        assert rel_close(GaussianParams(10.0, 3.0).quantile(0.99), 10.0 + 3.0 * Z_99)

    @given(st.floats(min_value=1e-4, max_value=1.0 - 1e-4))
    @settings(max_examples=200)
    def test_quantile_symmetry(self, p):
        # quantile(p) == -quantile(1-p) within 1e-12.  The range stays clear
        # of the extreme tails, where rounding 1-p in float is itself
        # amplified by 1/pdf(z) beyond the stated tolerance.
        assert abs(STANDARD_NORMAL.quantile(p) + STANDARD_NORMAL.quantile(1.0 - p)) <= 1e-12

    def test_params_validated(self):
        with pytest.raises(DomainError):
            GaussianParams(0.0, 0.0)
        with pytest.raises(DomainError):
            GaussianParams(float("inf"), 1.0)


class TestWeibull:
    def test_cdf_at_location_is_zero(self):
        assert WeibullParams(1.0, 1.0).cdf(0.0) == 0.0
        assert WeibullParams(1.0, 1.0).cdf(-3.0) == 0.0

    def test_cdf_exponential_special_case(self):
        expected = 1.0 - math.exp(-1.0)
        assert rel_close(WeibullParams(1.0, 1.0).cdf(1.0), expected)
        assert rel_close(WeibullParams(2.0, 2.0, theta=1.0).cdf(3.0), expected)

    def test_cdf_monte_carlo_agreement(self):
        params = WeibullParams(2.0, 2.0, 1.0)
        draws = sample(params, 1_000_000, seed=13)
        empirical = np.mean(draws <= 3.0)
        assert abs(empirical - (1.0 - math.exp(-1.0))) < 2e-3

    def test_quantile_exponential_special_case(self):
        assert rel_close(WeibullParams(1.0, 1.0).quantile(1.0 - 1.0 / math.e), 1.0)
        assert rel_close(WeibullParams(1.0, 1.0).quantile(0.99), -math.log(0.01))

    def test_quantile_reference_parameters(self):
        value = WEIBULL_REF.quantile(0.99)
        assert rel_close(value, WEIBULL_REF_VAR99)
        draws = sample(WEIBULL_REF, 1_000_000, seed=5)
        mc_q = np.quantile(draws, 0.99)
        assert abs(mc_q - WEIBULL_REF_VAR99) / WEIBULL_REF_VAR99 < 0.01

    def test_quantile_rejects_bad_levels(self):
        with pytest.raises(DomainError):
            WeibullParams(1.0, 1.0).quantile(1.0)

    def test_cdf_monotone_with_bounded_range(self):
        grid = np.linspace(-5.0, 60.0, 10_000)
        values = np.array([WeibullParams(1.7, 0.6, theta=-2.0).cdf(x) for x in grid])
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] >= 0.0 and values[-1] < 1.0

    def test_pdf_integrates_to_cdf(self):
        # Independent density: scipy's weibull_min, integrated by trapezoid.
        xs = np.linspace(0.5, 4.0, 20_001)
        dens = weibull_min.pdf(xs, 1.5, loc=0.5, scale=2.0)
        integral = np.trapezoid(dens, xs)
        assert abs(integral - WeibullParams(2.0, 1.5, theta=0.5).cdf(4.0)) < 1e-6

    def test_cdf_and_quantile_match_scipy(self):
        model = WeibullParams(1.7, 0.6, theta=-2.0)
        for x in (-1.5, 0.0, 3.0, 40.0):
            assert rel_close(model.cdf(x), weibull_min.cdf(x, 0.6, loc=-2.0, scale=1.7))
        for p in (0.01, 0.5, 0.99):
            assert rel_close(model.quantile(p), weibull_min.ppf(p, 0.6, loc=-2.0, scale=1.7))

    def test_params_validated(self):
        with pytest.raises(DomainError):
            WeibullParams(0.0, 1.0)
        with pytest.raises(DomainError):
            WeibullParams(1.0, -2.0)


class TestEmpirical:
    def test_values_sorted_on_construction(self):
        s = EmpiricalSample((3.0, 1.0, 2.0))
        assert s.values == (1.0, 2.0, 3.0)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(DataError):
            EmpiricalSample(())
        with pytest.raises(DataError):
            EmpiricalSample((1.0, float("nan")))

    def test_quantile_inf_convention(self):
        s = EmpiricalSample(tuple(float(i) for i in range(1, 101)))
        # smallest order statistic x_(k) with k/n >= p
        assert s.quantile(0.95) == 95.0
        assert s.quantile(0.951) == 96.0
        assert s.quantile(0.01) == 1.0

    def test_cdf_step_function(self):
        s = EmpiricalSample((1.0, 2.0, 2.0, 4.0))
        assert s.cdf(0.5) == 0.0
        assert s.cdf(2.0) == 0.75
        assert s.cdf(4.0) == 1.0


class TestMean:
    def test_gaussian_mean(self):
        assert GaussianParams(3.0, 5.0).mean() == 3.0

    def test_weibull_unit_mean(self):
        assert rel_close(WeibullParams(1.0, 1.0).mean(), 1.0)

    def test_weibull_reference_mean(self):
        assert rel_close(WEIBULL_REF.mean(), WEIBULL_REF_MEAN)
        draws = sample(WEIBULL_REF, 1_000_000, seed=11)
        assert abs(np.mean(draws) - WEIBULL_REF_MEAN) / WEIBULL_REF_MEAN < 0.01

    def test_empirical_mean(self):
        assert EmpiricalSample((1.0, 2.0, 6.0)).mean() == 3.0


class TestExpectedPositivePart:
    def test_standard_normal_at_zero(self):
        assert rel_close(expected_positive_part(GaussianParams(0.0, 1.0), 0.0), PHI_0)

    def test_empirical_direct_average(self):
        s = EmpiricalSample((1.0, 2.0, 3.0, 4.0))
        assert expected_positive_part(s, 2.5) == 0.5

    def test_gaussian_against_trapezoid(self):
        # Independent oracle: trapezoid integration of (x - a) * density.
        model = GaussianParams(1.0, 2.0)
        a = 3.0
        xs = np.linspace(a, 1.0 + 2.0 * 12.0, 400_001)
        dens = np.exp(-0.5 * ((xs - 1.0) / 2.0) ** 2) / (2.0 * math.sqrt(2.0 * math.pi))
        oracle = np.trapezoid((xs - a) * dens, xs)
        value = expected_positive_part(model, a)
        assert abs(value - oracle) < 1e-8
        assert rel_close(value, 0.16663094117537258)

    def test_weibull_below_support_reduces_to_mean_shift(self):
        params = WeibullParams(2.0, 1.5, 1.0)
        assert rel_close(
            expected_positive_part(params, -2.0),
            weibull_min.mean(1.5, loc=1.0, scale=2.0) + 2.0,
            rel=1e-10,
        )

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=100)
    def test_monotone_and_bounded_below(self, a1, a2):
        model = WeibullParams(1.8, 1.2, -1.0)
        lo, hi = min(a1, a2), max(a1, a2)
        e_lo = expected_positive_part(model, lo)
        e_hi = expected_positive_part(model, hi)
        assert e_lo >= e_hi - 1e-9
        assert e_lo >= max(0.0, weibull_min.mean(1.2, loc=-1.0, scale=1.8) - lo) - 1e-9


class TestRoundTrip:
    def test_cdf_quantile_round_trip(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            p = float(rng.uniform(1e-4, 1.0 - 1e-4))
            which = rng.integers(3)
            if which == 0:
                model = GaussianParams(float(rng.normal(0, 5)), float(rng.uniform(0.1, 4)))
            elif which == 1:
                model = WeibullParams(
                    float(rng.uniform(0.2, 5)),
                    float(rng.uniform(0.3, 4)),
                    float(rng.normal(0, 2)),
                )
            else:
                model = EmpiricalSample(tuple(rng.normal(0, 3, int(rng.integers(2, 30)))))
            q = model.quantile(p)
            c = model.cdf(q)
            if isinstance(model, EmpiricalSample):
                assert c >= p - 1e-12  # step function overshoots by construction
            else:
                assert abs(c - p) <= 1e-9


class TestSampling:
    def test_deterministic_per_seed(self):
        for model in (GaussianParams(0.0, 1.0), WeibullParams(1.0, 1.0), EmpiricalSample((1.0, 2.0))):
            a = sample(model, 5, seed=42)
            b = sample(model, 5, seed=42)
            assert np.array_equal(a, b)

    def test_gaussian_clt_bound(self):
        draws = sample(GaussianParams(0.0, 1.0), 1_000_000, seed=1)
        assert abs(np.mean(draws)) < 4.0 / math.sqrt(1_000_000)

    def test_weibull_cdf_at_one(self):
        draws = sample(WeibullParams(1.0, 1.0, 0.0), 1_000_000, seed=1)
        assert abs(np.mean(draws <= 1.0) - (1.0 - math.exp(-1.0))) < 2e-3

    def test_empirical_resamples_observed_values(self):
        source = EmpiricalSample((1.0, 5.0, 9.0))
        draws = sample(source, 100, seed=3)
        assert set(draws) <= {1.0, 5.0, 9.0}

    def test_rejects_non_positive_count(self):
        with pytest.raises(DomainError):
            sample(GaussianParams(0.0, 1.0), 0, seed=1)

    @pytest.mark.parametrize("n", [2.5, True, -1, "3"])
    def test_count_is_a_positive_integer(self, n):
        with pytest.raises(DomainError, match="sample size must be"):
            sample(GaussianParams(0.0, 1.0), n, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_integer_seed_is_non_negative(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            sample(GaussianParams(0.0, 1.0), 3, seed=seed)


class TestModelPlumbing:
    def test_shift_model(self):
        assert GaussianParams(1.0, 2.0).shift(3.0) == GaussianParams(4.0, 2.0)
        shifted = WeibullParams(1.0, 1.0, 0.5).shift(-2.0)
        assert shifted.theta == -1.5 and shifted.lam == 1.0
        s = EmpiricalSample((1.0, 2.0)).shift(1.0)
        assert s.values == (2.0, 3.0)
        with pytest.raises(DomainError):
            GaussianParams(1.0, 2.0).shift(float("nan"))

    def test_from_params_round_trip(self):
        for family, params in [
            ("gaussian", {"mu": 1.0, "sigma": 2.0}),
            ("weibull", {"lambda": 1.5, "alpha": 0.9, "theta": 0.25}),
            ("empirical", {"values": [2.0, 1.0]}),
            ("gaussian", {"mu": 1, "sigma": np.float64(2.0)}),
            ("empirical", {"values": [np.int64(2), 1, np.float32(0.5)]}),
        ]:
            model = model_from_params(family, params)
            assert model.family == family and FAMILIES[family] is type(model)
            rebuilt = model_from_params(family, model_params_dict(model))
            assert rebuilt == model

    def test_weibull_theta_defaults_to_zero(self):
        model = model_from_params("weibull", {"lambda": 1.0, "alpha": 2.0})
        assert model.theta == 0.0

    def test_from_params_rejects_wrong_keys(self):
        with pytest.raises(DataError):
            model_from_params("gaussian", {"mu": 1.0})
        with pytest.raises(DataError):
            model_from_params("gaussian", {"mu": 1.0, "sigma": 2.0, "nu": 3.0})
        with pytest.raises(DataError):
            model_from_params("cauchy", {"x0": 0.0})

    @pytest.mark.parametrize("family,params", [
        ("gaussian", {"mu": "x", "sigma": 1.0}),
        ("gaussian", {"mu": None, "sigma": 1.0}),
        ("gaussian", {"mu": [1.0], "sigma": 1.0}),
        ("weibull", {"lambda": 1.0, "alpha": {}}),
        ("empirical", {"values": ["a"]}),
        ("empirical", {"values": 3.0}),
        ("gaussian", {"mu": True, "sigma": 1.0}),
        ("gaussian", {"mu": 0.0, "sigma": "2"}),
        ("empirical", {"values": ["1", "2", "3"]}),
        ("empirical", {"values": [True, False, 2.0]}),
    ])
    def test_from_params_rejects_malformed_values(self, family, params):
        with pytest.raises(DataError):
            model_from_params(family, params)

    def test_family_enum_values(self):
        assert ModelFamily("gaussian") is ModelFamily.GAUSSIAN
        assert ModelFamily("weibull") is ModelFamily.WEIBULL
        assert model_from_params(ModelFamily.GAUSSIAN, {"mu": 0, "sigma": 1}) == GaussianParams(0.0, 1.0)
        assert model_from_params(ModelFamily.WEIBULL, {"lambda": 2, "alpha": 1}) == WeibullParams(2.0, 1.0)
