"""Single-period measures: quantile risk, tail means, variational route."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from riskflow import static_risk
from riskflow.axioms import StaticAxiom, Verdict, check_static_axiom
from riskflow.distributions import (
    EmpiricalSample,
    GaussianParams,
    WeibullParams,
    sample,
)
from riskflow.dynamic_risk import recursive_risk_generic
from riskflow.errors import DomainError, NumericError
from riskflow.static_risk import (
    MeasureKind,
    Orientation,
    RiskMeasureSpec,
    argmin_contains_var,
    cvar_ru,
    cvar_tail,
    evaluate,
    ru_objective,
    var,
)

# Frozen against an independent high-precision route (mpmath, 40 digits).
Z_99 = 2.3263478740408408
STD_NORMAL_CVAR_99 = 2.665214220345806
MSCI_LIKE = GaussianParams(1113.3425, 186.29)
MSCI_LIKE_VAR_99 = 1546.717845455068
MSCI_LIKE_CVAR_99 = 1609.84525710822
INDEX_WEIBULL = WeibullParams(6.7679, 0.8016)
INDEX_WEIBULL_VAR_99 = 45.48374687636546
INDEX_WEIBULL_CVAR_99 = 58.38588249036845
INDEX_WEIBULL_LOWER_VAR_95 = -0.16643631291795133
INDEX_WEIBULL_LOWER_CVAR_95 = -0.0733246321741337

RANKS_1_TO_100 = EmpiricalSample(tuple(float(i) for i in range(1, 101)))


def rel_close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(b))


def random_model(rng):
    which = rng.integers(3)
    if which == 0:
        return GaussianParams(float(rng.normal(0, 5)), float(rng.uniform(0.1, 4)))
    if which == 1:
        return WeibullParams(
            float(rng.uniform(0.2, 5)),
            float(rng.uniform(0.4, 4)),
            float(rng.normal(0, 2)),
        )
    return EmpiricalSample(tuple(rng.normal(0, 3, int(rng.integers(5, 60)))))


class TestValueAtRisk:
    def test_standard_normal_99(self):
        assert rel_close(var(GaussianParams(0.0, 1.0), 0.99), Z_99)

    def test_gaussian_reference_index(self):
        assert rel_close(var(MSCI_LIKE, 0.99), MSCI_LIKE_VAR_99)

    def test_weibull_reference_index(self):
        assert rel_close(var(INDEX_WEIBULL, 0.99), INDEX_WEIBULL_VAR_99)

    def test_empirical_ranks(self):
        assert var(RANKS_1_TO_100, 0.95) == 95.0

    def test_lower_tail_gaussian_negates_mean(self):
        model = GaussianParams(3.0, 2.0)
        assert rel_close(var(model, 0.99, Orientation.LOWER_TAIL), -3.0 + 2.0 * Z_99)

    def test_lower_tail_weibull_reference(self):
        value = var(INDEX_WEIBULL, 0.95, Orientation.LOWER_TAIL)
        assert rel_close(value, INDEX_WEIBULL_LOWER_VAR_95)

    def test_lower_tail_weibull_matches_negated_sample(self):
        # Reflection identity cross-checked by brute force on -X draws; the
        # tolerance is ~3 standard errors of the sample quantile.
        value = var(INDEX_WEIBULL, 0.95, Orientation.LOWER_TAIL)
        draws = -sample(INDEX_WEIBULL, 1_000_000, seed=2)
        assert abs(np.quantile(draws, 0.95) - value) < 3e-3

    @given(st.floats(min_value=0.05, max_value=0.99))
    @settings(max_examples=100)
    def test_monotone_in_level(self, p):
        model = GaussianParams(1.0, 2.0)
        assert var(model, p) <= var(model, min(p + 0.005, 0.995)) + 1e-12

    def test_rejects_bad_level(self):
        with pytest.raises(DomainError):
            var(GaussianParams(0.0, 1.0), 1.0)


class TestCvarTail:
    def test_standard_normal_99(self):
        assert rel_close(cvar_tail(GaussianParams(0.0, 1.0), 0.99), STD_NORMAL_CVAR_99)

    def test_gaussian_affine_scaling(self):
        got = cvar_tail(GaussianParams(1.0, 2.0), 0.99)
        assert rel_close(got, 1.0 + 2.0 * STD_NORMAL_CVAR_99)
        assert rel_close(got, 6.330428440691612)

    def test_gaussian_reference_index(self):
        assert rel_close(cvar_tail(MSCI_LIKE, 0.99), MSCI_LIKE_CVAR_99)

    def test_weibull_reference_index(self):
        assert rel_close(cvar_tail(INDEX_WEIBULL, 0.99), INDEX_WEIBULL_CVAR_99)

    def test_empirical_ranks_weak_inequality_tail(self):
        # Tail mean over values >= the 0.95 quantile: mean(95..100).
        assert cvar_tail(RANKS_1_TO_100, 0.95) == 97.5

    def test_empirical_ties_at_quantile_enter_tail(self):
        s = EmpiricalSample((1.0, 2.0, 2.0, 2.0, 10.0))
        # var at 0.5 is 2.0; tail {2, 2, 2, 10} averages 4.0.
        assert var(s, 0.5) == 2.0
        assert cvar_tail(s, 0.5) == 4.0

    def test_lower_tail_weibull_reference(self):
        value = cvar_tail(INDEX_WEIBULL, 0.95, Orientation.LOWER_TAIL)
        assert rel_close(value, INDEX_WEIBULL_LOWER_CVAR_95)

    def test_lower_tail_weibull_matches_negated_sample(self):
        value = cvar_tail(INDEX_WEIBULL, 0.95, Orientation.LOWER_TAIL)
        draws = -sample(INDEX_WEIBULL, 1_000_000, seed=9)
        q = np.quantile(draws, 0.95)
        mc = float(np.mean(draws[draws >= q]))
        assert abs(mc - value) < 3e-3

    def test_gaussian_monte_carlo_agreement(self):
        draws = sample(MSCI_LIKE, 1_000_000, seed=4)
        q = np.quantile(draws, 0.99)
        mc = float(np.mean(draws[draws >= q]))
        assert abs(mc - MSCI_LIKE_CVAR_99) / MSCI_LIKE_CVAR_99 < 0.005

    def test_dominates_var_everywhere(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            model = random_model(rng)
            p = float(rng.uniform(0.5, 0.995))
            for orientation in Orientation:
                v = var(model, p, orientation)
                c = cvar_tail(model, p, orientation)
                assert c >= v - 1e-10 * max(1.0, abs(v))


class TestGaussianLowerTail:
    """The lower-tail CVaR, taken as the upper tail of ``negated()``, against
    scipy's ``-mu + sigma * phi(Phi^-1(p)) / (1 - p)``."""

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99, 0.999999])
    @pytest.mark.parametrize("mu, sigma", [(1113.3425, 186.29), (-2.5, 0.3), (0.75, 20.0)])
    def test_against_scipy(self, mu, sigma, p):
        z = float(ndtri(p))
        tail = sigma * float(norm.pdf(z)) / (1.0 - p)
        # phi turns a relative error e of z into one of z*z*e, on both routes:
        # the bound is 8 + 4*z*z ulp of the larger addend, 98 ulp at 1 - 1e-6.
        bound = (8.0 + 4.0 * z * z) * math.ulp(max(abs(mu), tail))
        got = cvar_tail(GaussianParams(mu, sigma), p, Orientation.LOWER_TAIL)
        assert abs(got - (tail - mu)) <= bound


def mpmath_weibull_lower_cvar(lam, alpha, p):
    """``-(theta + lam * gamma(1 + 1/alpha, -log p) / (1 - p))`` at 60 digits,
    with ``theta = 0`` and ``gamma`` the lower incomplete gamma function."""
    with mpmath.workdps(60):
        level = mpmath.mpf(p)
        g = mpmath.gammainc(1 + 1 / mpmath.mpf(alpha), 0, -mpmath.log(level))
        return float(-(lam * g / (1 - level)))


class TestWeibullLowerTailAgainstMpmath:
    """Witnesses of the cancellation in the Weibull lower-tail CVaR, which
    subtracts the upper part from the whole mean.  In each row X >= 0, so
    the truth is <= 0."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
    @pytest.mark.parametrize(
        "lam, alpha, p",
        [(1.0, 0.8016, 0.999999), (1.0, 0.3, 0.9999), (1.0, 0.1, 0.9), (1e300, 0.1, 0.99)],
    )
    def test_cvar_tail(self, lam, alpha, p):
        got = cvar_tail(WeibullParams(lam, alpha), p, Orientation.LOWER_TAIL)
        assert math.isclose(got, mpmath_weibull_lower_cvar(lam, alpha, p), rel_tol=1e-12)

    @pytest.mark.parametrize(
        "lam, alpha, p",
        [(1.0, 1.0, 1e-10), (1.0, 1.0, 1e-17), (1.0, 1.0, 5e-324), (2.0, 0.5, 1e-17)],
    )
    def test_small_levels(self, lam, alpha, p):
        # The lower tail reflects in the formula and never forms 1 - p, which
        # rounds away 6 digits of p = 1e-10 and rounds to 1 below 2**-54.
        model = WeibullParams(lam, alpha)
        with mpmath.workdps(60):
            quantile = float(-lam * (-mpmath.log(mpmath.mpf(p))) ** (1 / mpmath.mpf(alpha)))
        assert math.isclose(var(model, p, Orientation.LOWER_TAIL), quantile, rel_tol=1e-15)
        got = cvar_tail(model, p, Orientation.LOWER_TAIL)
        assert math.isclose(got, mpmath_weibull_lower_cvar(lam, alpha, p), rel_tol=1e-15)


class TestOverflow:
    """A measure whose value leaves the floats raises ``NumericError``
    naming its inputs: it returns no ``inf`` and leaks no ``OverflowError``."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: cvar_tail(WeibullParams(1e300, 0.1), 0.99),
                r"weibull tail_mean\(0\.99\) overflows a float for \(1e\+300, 0\.1, 0\.0\)",
            ),
            (
                lambda: cvar_ru(WeibullParams(1e300, 0.1), 0.99),
                r"cvar_ru\(0\.99\) overflows a float for "
                r"WeibullParams\(lam=1e\+300, alpha=0\.1, theta=0\.0\)",
            ),
            (
                lambda: var(GaussianParams(1e308, 1e308), 0.99),
                r"gaussian quantile\(0\.99\) overflows a float for \(1e\+308, 1e\+308\)",
            ),
            (
                lambda: GaussianParams(1e308, 1e308).tail_mean(0.5),
                r"gaussian tail_mean\(0\.5\) overflows a float for \(1e\+308, 1e\+308\)",
            ),
            (
                lambda: cvar_tail(EmpiricalSample([1e308, 1.5e308, -1e308]), 0.5),
                r"empirical tail_mean\(0\.5\) overflows a float summing 3 values "
                r"in \[-1e\+308, 1\.5e\+308\]",
            ),
            (
                lambda: GaussianParams(1e308, 1.0).exceedance(-1e308),
                r"gaussian exceedance\(-1e\+308\) overflows a float for \(1e\+308, 1\.0\)",
            ),
            (
                lambda: var(WeibullParams(1e300, 0.01), 1e-300, Orientation.LOWER_TAIL),
                r"weibull negated_quantile\(1e-300\) overflows a float "
                r"for \(1e\+300, 0\.01, 0\.0\)",
            ),
            (
                lambda: EmpiricalSample([1e308]).exceedance(-1e308),
                r"empirical exceedance\(-1e\+308\) overflows a float summing 1 values "
                r"in \[1e\+308, 1e\+308\]",
            ),
        ],
        ids=["weibull-cvar_tail", "weibull-cvar_ru", "gaussian-var", "gaussian-tail_mean",
             "sample-cvar_tail", "gaussian-exceedance", "weibull-lower-var", "sample-exceedance"],
    )
    def test_is_a_numeric_error_naming_the_inputs(self, call, message):
        with pytest.raises(NumericError, match=f"^{message}$"):
            call()

    def test_gaussian_exceedance_far_below_the_threshold_is_zero(self):
        # mu - a overflows to -inf, so d = -inf: the closed form would read
        # -inf * Phi(d) = -inf * 0, where the truth is 0.
        model = GaussianParams(-1e308, 1.0)
        assert model.exceedance(1e308) == 0.0
        assert ru_objective(model, 0.9, 1e308) == 1e308

    def test_lower_tail_weibull_cvar(self):
        # The truth is about 1e308, but the cancellation of ROADMAP item 18,
        # divided by 1 - p = 2**-53, leaves the floats; item 18 makes it a value.
        with pytest.raises(
            NumericError,
            match=r"^weibull negated_tail_mean\(0\.9999999999999999\) overflows a float "
            r"for \(1e\+300, 1\.0, -1e\+308\)$",
        ):
            cvar_tail(WeibullParams(1e300, 1.0, -1e308), 1.0 - 2.0**-53, Orientation.LOWER_TAIL)


@st.composite
def samples_and_levels(draw):
    """Samples on a few levels, signed zeros among them, so values tie and
    tails sum to zero; levels on, or one float either side of, a rank k/n,
    moved into the open interval (0, 1) at its ends."""
    levels = st.sampled_from([-2.0, -1.5, -0.0, 0.0, 0.5, 1.5, 2.0])
    values = draw(st.lists(levels | st.floats(-1e3, 1e3), min_size=1, max_size=12))
    k = draw(st.integers(0, len(values)))
    boundary = k / len(values)
    p = draw(st.sampled_from([
        boundary, math.nextafter(boundary, 0.0), math.nextafter(boundary, 1.0),
    ]) | st.floats(0.0, 1.0))
    return EmpiricalSample(values), min(max(p, 5e-324), 1.0 - 2**-53)


class TestSampleLowerTail:
    """A sample's lower tail, read from the low end of its sorted values,
    equals the upper tail of its negation bit for bit, zero signs included."""

    @given(samples_and_levels())
    @settings(max_examples=400)
    def test_equals_the_negated_sample(self, case):
        s, p = case
        lower = Orientation.LOWER_TAIL
        assert var(s, p, lower).hex() == var(s.negated(), p).hex()
        assert cvar_tail(s, p, lower).hex() == cvar_tail(s.negated(), p).hex()


class TestTranslation:
    """Cash shifts move each orientation in its stated direction."""

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=100)
    def test_upper_tail_adds_cash(self, c):
        model = GaussianParams(1.0, 2.0)
        shifted = model.shift(c)
        assert abs(var(shifted, 0.99) - (var(model, 0.99) + c)) <= 1e-9
        assert abs(cvar_tail(shifted, 0.99) - (cvar_tail(model, 0.99) + c)) <= 1e-9

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=100)
    def test_lower_tail_subtracts_cash(self, c):
        model = WeibullParams(2.0, 1.3, 0.5)
        shifted = model.shift(c)
        lower = Orientation.LOWER_TAIL
        assert abs(var(shifted, 0.95, lower) - (var(model, 0.95, lower) - c)) <= 1e-9
        assert abs(
            cvar_tail(shifted, 0.95, lower) - (cvar_tail(model, 0.95, lower) - c)
        ) <= 1e-8

    def test_translation_all_families(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            model = random_model(rng)
            c = float(rng.normal(0, 10))
            p = float(rng.uniform(0.6, 0.99))
            shifted = model.shift(c)
            v0 = var(model, p)
            assert abs(var(shifted, p) - (v0 + c)) <= 1e-9 * max(1.0, abs(v0 + c))


class TestVariationalRoute:
    def test_objective_at_var_equals_cvar_continuous(self):
        for model in (GaussianParams(1.0, 2.0), WeibullParams(2.0, 0.9, -1.0)):
            for p in (0.9, 0.95, 0.99):
                v = var(model, p)
                assert rel_close(ru_objective(model, p, v), cvar_tail(model, p), rel=1e-9)

    def test_gaussian_minimum_matches_closed_form(self):
        got = cvar_ru(GaussianParams(1.0, 2.0), 0.99)
        assert abs(got - 6.330428440691612) <= 1e-6 * 6.330428440691612

    def test_objective_convex_in_eta(self):
        model = GaussianParams(0.0, 1.0)
        etas = np.linspace(-2.0, 5.0, 41)
        vals = [ru_objective(model, 0.95, float(e)) for e in etas]
        for i in range(1, len(vals) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-10

    def test_objective_above_cvar_away_from_minimum(self):
        model = WeibullParams(1.5, 1.1)
        c = cvar_tail(model, 0.9)
        for eta in (-1.0, 0.0, 10.0, 25.0):
            assert ru_objective(model, 0.9, eta) >= c - 1e-9

    def test_two_routes_agree_across_families(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            model = random_model(rng)
            p = float(rng.uniform(0.7, 0.99))
            a = cvar_ru(model, p)
            b = cvar_tail(model, p)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))
            assert argmin_contains_var(model, p)

    def test_lower_tail_route_agreement(self):
        for model in (GaussianParams(2.0, 3.0), WeibullParams(2.5, 0.8, 0.0)):
            a = cvar_ru(model, 0.95, Orientation.LOWER_TAIL)
            b = cvar_tail(model, 0.95, Orientation.LOWER_TAIL)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))
            assert argmin_contains_var(model, 0.95, Orientation.LOWER_TAIL)

    def test_empirical_flat_segment_contains_quantile(self):
        s = EmpiricalSample((1.0, 2.0, 3.0, 4.0, 100.0))
        assert argmin_contains_var(s, 0.8)

    def test_both_routes_bracket_with_the_same_var_calls(self, monkeypatch):
        # One search serves both routes; its var calls are what the traced
        # benchmark counters count, in this order.
        levels = []
        plain_var = static_risk.var

        def counted(model, p, orientation=Orientation.UPPER_TAIL):
            levels.append(p)
            return plain_var(model, p, orientation)

        monkeypatch.setattr(static_risk, "var", counted)
        model = GaussianParams(1.0, 2.0)
        static_risk.cvar_ru(model, 0.9)
        assert levels == [0.45, 0.975]
        levels.clear()
        static_risk.argmin_contains_var(model, 0.9)
        assert levels == [0.9, 0.45, 0.975]

    def test_point_mass_objective(self):
        # Single atom at 5: objective is 5 + (5-eta)+/(1-p) ... minimized at 5.
        s = EmpiricalSample((5.0,))
        assert ru_objective(s, 0.9, 5.0) == 5.0
        assert ru_objective(s, 0.9, 4.0) == pytest.approx(4.0 + 1.0 / 0.1)
        assert cvar_ru(s, 0.9) == 5.0
        # Both bracket quantiles are the atom: the search evaluates only there.
        for orientation in Orientation:
            assert argmin_contains_var(s, 0.9, orientation)


class TestSpecAndDispatch:
    def test_evaluate_routes_by_kind(self):
        model = GaussianParams(0.0, 1.0)
        v = evaluate(model, RiskMeasureSpec(MeasureKind.VAR, 0.99))
        c = evaluate(model, RiskMeasureSpec(MeasureKind.CVAR, 0.99))
        assert rel_close(v, Z_99)
        assert rel_close(c, STD_NORMAL_CVAR_99)

    def test_spec_validates_fields(self):
        with pytest.raises(DomainError):
            RiskMeasureSpec(MeasureKind.VAR, 1.5)
        with pytest.raises(DomainError):
            RiskMeasureSpec("es", 0.9)
        with pytest.raises(DomainError):
            RiskMeasureSpec(MeasureKind.VAR, 0.9, "both_tails")
        # Kind and orientation take a member or its value, as the measure functions do.
        spec = RiskMeasureSpec("var", 0.9, "lower_tail")
        assert spec == RiskMeasureSpec(MeasureKind.VAR, 0.9, Orientation.LOWER_TAIL)
        assert spec.kind is MeasureKind.VAR and spec.orientation is Orientation.LOWER_TAIL

    def test_spec_stores_the_level_as_a_float(self):
        spec = RiskMeasureSpec(MeasureKind.VAR, np.float64(0.95))
        assert spec.p == 0.95 and type(spec.p) is float
        report = check_static_axiom(StaticAxiom.P3, spec, trials=5)
        assert report.verdict is Verdict.VIOLATED

    def test_orientation_values_round_trip(self):
        assert Orientation("upper_tail") is Orientation.UPPER_TAIL
        assert MeasureKind("cvar") is MeasureKind.CVAR


#: Every entry point that takes an orientation, as ``f(model, orientation)``.
ORIENTED = {
    "var": lambda m, o: var(m, 0.9, o),
    "cvar_tail": lambda m, o: cvar_tail(m, 0.9, o),
    "ru_objective": lambda m, o: ru_objective(m, 0.9, 0.5, o),
    "cvar_ru": lambda m, o: cvar_ru(m, 0.9, o),
    "argmin_contains_var": lambda m, o: argmin_contains_var(m, 0.9, o),
    "recursive_risk_generic": lambda m, o: recursive_risk_generic(
        [m, m.shift(1.0), m], lambda x: var(x, 0.9, Orientation(o)), orientation=o
    ),
}


class TestOrientationByValue:
    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize(
        "model",
        [GaussianParams(5.0, 1.0), WeibullParams(2.0, 1.5, 1.0), EmpiricalSample((1.0, 2.0, 7.0))],
        ids=["gaussian", "weibull", "empirical"],
    )
    @pytest.mark.parametrize("name", list(ORIENTED))
    def test_value_string_equals_member(self, name, model, orientation):
        fn = ORIENTED[name]
        assert fn(model, orientation.value) == fn(model, orientation)

    @pytest.mark.parametrize("name", list(ORIENTED))
    def test_unknown_orientation_rejected(self, name):
        with pytest.raises(DomainError):
            ORIENTED[name](GaussianParams(5.0, 1.0), "sideways")
