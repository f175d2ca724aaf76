"""Distribution primitives: closed forms, numeric integrals, sampling."""

import copy
import math
import pickle
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, ndtri
from scipy.stats import chi2, weibull_min

from riskflow import distributions
from riskflow.distributions import (
    FAMILIES,
    EmpiricalSample,
    GaussianParams,
    ModelFamily,
    WeibullParams,
    expected_positive_part,
    model_from_params,
    model_params_dict,
    _normal_quantile,
    _normal_quantiles,
    _upper_gamma_q,
    sample,
)
from riskflow.errors import DataError, DomainError, NumericError
from riskflow.static_risk import Orientation, cvar_ru, cvar_tail, var

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


def ulps(value, reference):
    """``|value - reference|`` in units of the spacing of floats at ``reference``."""
    return abs(value - reference) / math.ulp(reference)


def mpmath_normal_quantile(p):
    """The standard normal quantile at 50 digits: the root of ``ncdf(z) = p``,
    solved in the tail that holds ``p`` so that ``1 - p`` is never rounded."""
    with mpmath.workdps(50):
        tail = min(mpmath.mpf(p), 1 - mpmath.mpf(p))
        z = mpmath.findroot(lambda w: mpmath.ncdf(w) - tail, float(ndtri(float(tail))))
        return float(z if p < 0.5 else -z)


class TestNormalQuantile:
    """The package's AS241 quantile against scipy's ``ndtri`` (Cephes), an
    independent implementation, and against mpmath in the far tails."""

    def test_within_8_ulp_of_ndtri(self):
        # 6 ulp at most on this grid; ndtri has rounding of its own.
        levels = np.linspace(1e-6, 1.0 - 1e-6, 200_001)
        ours = np.array([_normal_quantile(float(p)) for p in levels])
        assert np.all(np.abs(ours - ndtri(levels)) <= 8 * np.spacing(np.abs(ndtri(levels))))

    @pytest.mark.parametrize("p", [0.99, 0.999])
    def test_bit_equal_to_ndtri_at_the_reference_levels(self, p):
        # Both reference studies price at 0.99; their bytes stay put.
        assert _normal_quantile(p) == float(ndtri(p))

    def test_exact_antisymmetry(self):
        # p = k / 2**53 makes 1 - p exact, so q(1 - p) = -q(p) to the bit.
        rng = np.random.default_rng(2)
        ks = [1, 2, 2**52, 2**53 - 1, *rng.integers(1, 2**53, size=20_000).tolist()]
        for k in ks:
            p = k / 2**53
            assert _normal_quantile(1.0 - p) == -_normal_quantile(p), p
        assert _normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p", [1e-300, 2.0**-53, 1.0 - 2.0**-53, 1e-20, 5e-324])
    def test_far_tails_against_mpmath(self, p):
        assert ulps(_normal_quantile(p), mpmath_normal_quantile(p)) <= 2


#: 1e5 uniforms of ``Generator.random`` and 2e4 each on a geometric grid from
#: 2**-53 to 1/2 and its mirror below 1: the range a Gaussian draw reads.
_TAIL_GRID = np.geomspace(2.0**-53, 0.5, 20_000)
DRAW_LEVELS = np.concatenate(
    [np.random.default_rng(12345).random(100_000), _TAIL_GRID, 1.0 - _TAIL_GRID]
)


class TestNormalQuantiles:
    """The array AS241 that Gaussian draws use, on the levels they read."""

    def test_within_4_ulp_of_normal_dist(self):
        # statistics.NormalDist is CPython's own AS241 code.  It forms
        # q * num / den left to right where the package forms q * (num / den),
        # so about a fifth of these levels differ, by at most 3 ulp here.
        z = _normal_quantiles(DRAW_LEVELS)
        inv_cdf = NormalDist().inv_cdf
        reference = np.array([inv_cdf(p) for p in DRAW_LEVELS.tolist()])
        assert np.all(np.abs(z - reference) <= 4 * np.spacing(np.abs(reference)))

    def test_the_normal_tail_of_each_value_is_its_level(self):
        # Independent of AS241: erfc maps each value back to the tail mass
        # min(p, 1 - p).  A quantile off by k ulp moves that mass by about
        # k * z**2 * 2**-52 relative, so 16 ulp of slack is allowed.
        z = _normal_quantiles(DRAW_LEVELS)
        tail = np.minimum(DRAW_LEVELS, 1.0 - DRAW_LEVELS)
        mass = np.array([0.5 * math.erfc(abs(x) / math.sqrt(2.0)) for x in z.tolist()])
        assert np.all(np.abs(mass - tail) <= 16 * 2.0**-52 * np.maximum(1.0, z * z) * tail)

    def test_equal_to_the_scalar_quantile_but_for_the_log(self):
        # The same operations; only np.log may round differently from
        # math.log, which moves 3 of these tail values, by at most 3 ulp.
        z = _normal_quantiles(DRAW_LEVELS)
        scalar = np.array([_normal_quantile(p) for p in DRAW_LEVELS.tolist()])
        central = np.abs(DRAW_LEVELS - 0.5) <= 0.425
        assert z[central].tobytes() == scalar[central].tobytes()
        assert np.all(np.abs(z - scalar) <= 4 * np.spacing(np.abs(scalar)))


class _Uniforms:
    """Stands in for a numpy generator whose ``random`` gives ``values``."""

    def __init__(self, values):
        self.values = np.array(values)

    def random(self, size):
        return self.values.reshape(size)


class TestDrawEndpoints:
    """``Generator.random`` gives 0 and ``1 - 2**-53`` at its ends."""

    TOP = 1.0 - 2.0**-53

    def test_a_zero_uniform_gives_a_finite_gaussian_draw(self):
        # 0 is read as 2**-53, so the two ends give -z and z exactly.
        draws = STANDARD_NORMAL.draw(_Uniforms([0.0, self.TOP, 2.0**-53]), (3,))
        assert np.all(np.isfinite(draws))
        assert draws[0] == -draws[1] == draws[2]
        assert ulps(float(draws[1]), NormalDist().inv_cdf(self.TOP)) <= 4
        assert ulps(float(draws[1]), mpmath_normal_quantile(self.TOP)) <= 2

    def test_a_zero_uniform_gives_the_weibull_location(self):
        draws = WeibullParams(2.0, 0.5, 1.0).draw(_Uniforms([0.0, self.TOP]), (2,))
        assert draws[0] == 1.0 and math.isfinite(draws[1])


class TestUpperIncompleteGamma:
    """``Q(a, x)`` against 50-digit mpmath over the arguments the Weibull
    exceedance can meet: ``a = 1/alpha`` from 0.5 to 170 (shapes down to about
    0.0059, where ``Gamma(1 + 1/alpha)`` overflows), ``x`` from 1e-3 to 700."""

    SHAPES = (0.5, 0.6, 0.75, 1.0, 1.0 / 0.8016, 1.5, 2.0, 2.5, 3.3, 5.0, 7.7, 10.0,
              13.0, 20.0, 33.3, 50.0, 77.0, 100.0, 130.0, 170.0)

    @classmethod
    def grid(cls):
        points = []
        for a in cls.SHAPES:
            points += [(a, x) for x in np.geomspace(1e-3, 700.0, 40).tolist()]
            # Near a = x, where neither the series nor the fraction is fast.
            points += [(a, x) for x in (a * (1 - 1e-9), a, a * (1 + 1e-9), a - 0.3, a + 0.3,
                                         a + 1.0, a - math.sqrt(a), a + math.sqrt(a)) if x > 0]
            # The CVaR argument: z at the level-p quantile.
            points += [(a, -math.log1p(-p)) for p in (0.5, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-6)]
        return points

    def test_within_16_ulp_of_mpmath(self):
        # Measured at most 9 ulp here, and 14 on 4000 random points of the
        # same ranges; scipy's gammaincc is off by up to 954 ulp here.  The
        # worst cases are x close to a, and x in [1/2, 1] with a below 1,
        # where the fraction takes over a hundred terms.
        with mpmath.workdps(50):
            for a, x in self.grid():
                reference = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
                assert ulps(_upper_gamma_q(a, x), reference) <= 16, (a, x)

    def test_edges(self):
        assert _upper_gamma_q(2.0, 0.0) == 1.0
        assert _upper_gamma_q(1.0, 2.0) == math.exp(-2.0)
        assert _upper_gamma_q(1e300, 1.0) == 1.0  # Gamma(a) overflows; P underflows
        assert _upper_gamma_q(0.3, 1e300) == 0.0

    def test_a_loop_that_does_not_converge_raises(self, monkeypatch):
        with pytest.raises(NumericError, match=r"Q\(100000000\.0, 100000000\.0\) did not converge"):
            _upper_gamma_q(1e8, 1e8)
        # With a cap of 5 terms neither loop converges: the series at
        # x < a, the fraction at x > a.  Neither returns its partial value.
        monkeypatch.setattr(distributions, "_GAMMA_MAX_TERMS", 5)
        for a, x in ((3.0, 2.5), (2.5, 3.0)):
            with pytest.raises(NumericError, match=rf"Q\({a}, {x}\) did not converge in 5 terms"):
                _upper_gamma_q(a, x)


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
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_equal_samples_compare_equal_and_hash_alike(self):
        a = EmpiricalSample((3.0, 1.0, 2.0))
        b = EmpiricalSample(np.array([2.0, 3.0, 1.0]))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != EmpiricalSample((1.0, 2.0, 4.0))
        assert a != EmpiricalSample((1.0, 2.0))
        assert EmpiricalSample((0.0, 1.0)) == EmpiricalSample((-0.0, 1.0))
        assert hash(EmpiricalSample((0.0, 1.0))) == hash(EmpiricalSample((-0.0, 1.0)))
        for other in ((1.0, 2.0, 3.0), [1.0, 2.0, 3.0], GaussianParams(1.0, 1.0), None):
            assert a.__eq__(other) is NotImplemented and a != other

    def test_values_are_read_only(self):
        source = np.array([3.0, 1.0, 2.0])
        s = EmpiricalSample(source)
        assert source.tolist() == [3.0, 1.0, 2.0]  # sorted in a copy
        for derived in (s, s.negated(), s.shift(1.0)):
            with pytest.raises(ValueError):
                derived.values[0] = 10.0
        source[0] = 10.0
        assert s.values.tolist() == [1.0, 2.0, 3.0]
        for copied in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert copied == s and not copied.values.flags.writeable

    @pytest.mark.parametrize("n, level", [(3, 1 / 3), (6, 1 / 6), (7, 3 / 7)])
    def test_rank_steps_up_where_the_product_rounds_down(self, n, level):
        # At the float just above k/n, n * p rounds down to k, so ceil(n * p)
        # is one short and _rank takes its upward correction.
        p = math.nextafter(level, 1.0)
        s = EmpiricalSample(np.arange(n, dtype=float))
        k = s._rank(p)
        assert math.ceil(n * p) == k - 1
        assert (k - 1) / n < p <= k / n
        assert s.quantile(p) == k - 1.0

    def test_rejects_two_dimensional_input(self):
        for values in (np.ones((2, 3)), 3.0, np.array(3.0), np.ones((3, 1)), [[1.0, 2.0]]):
            with pytest.raises(DataError, match="one-dimensional"):
                EmpiricalSample(values)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(DataError):
            EmpiricalSample(())
        # NaN sorts last and the infinities first or last, wherever they start.
        nan, inf = math.nan, math.inf
        for values in (
            (1.0, nan), (nan, 1.0, 2.0), (1.0, nan, 2.0), (nan,), (-inf, 1.0), (1.0, inf),
            (2.0, -inf, 1.0), (inf, -inf), (inf,), (nan, inf, -inf, 0.0),
        ):
            with pytest.raises(DataError, match="non-finite"):
                EmpiricalSample(values)

    def test_negated_equals_the_sample_of_the_negated_values(self):
        rng = np.random.default_rng(11)
        levels = np.array([-2.0, -0.0, 0.0, 1.5, 3.0])
        for trial in range(600):
            n = int(rng.integers(1, 40))
            s = EmpiricalSample(rng.choice(levels, n) if trial % 2 else rng.normal(0.0, 2.0, n))
            negated, rebuilt = s.negated(), EmpiricalSample(-s.values)
            # bytes, so the order of 0.0 and -0.0 within a run of zeros counts
            assert negated.values.tobytes() == rebuilt.values.tobytes()
            assert negated == rebuilt and hash(negated) == hash(rebuilt)
            assert negated.negated().values.tobytes() == s.values.tobytes()
            assert not negated.values.flags.writeable
            assert not np.shares_memory(negated.values, s.values)

    @pytest.mark.parametrize("values, expected", [
        ((0.0, -0.0), [-0.0, -0.0, 0.0, 0.0]),
        ((-0.0, 0.0), [0.0, 0.0, -0.0, -0.0]),
        ((1.0, 0.0, -0.0, -0.0, 0.0, -2.0), [-0.0, 0.0, 0.0, 2.0]),
    ])
    def test_lower_tail_var_keeps_the_signed_zero(self, values, expected):
        # At p = 0.3, 0.5, 0.6 and 0.9: the zero of the stably sorted -values.
        got = [var(EmpiricalSample(values), p, Orientation.LOWER_TAIL) for p in (0.3, 0.5, 0.6, 0.9)]
        assert got == expected
        assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in expected]

    def test_quantile_inf_convention(self):
        s = EmpiricalSample(tuple(float(i) for i in range(1, 101)))
        # smallest order statistic x_(k) with k/n >= p
        assert s.quantile(0.95) == 95.0
        assert s.quantile(0.951) == 96.0
        assert s.quantile(0.01) == 1.0
        # Just above k/n the quantile is the next order statistic: its CDF
        # must reach p, which an absolute nudge on n*p got wrong.
        ten = EmpiricalSample(tuple(float(i) for i in range(1, 11)))
        assert ten.quantile(0.9) == 9.0
        assert ten.quantile(0.900000000001) == 10.0
        assert ten.cdf(ten.quantile(0.900000000001)) >= 0.900000000001

    def test_quantile_is_smallest_point_whose_cdf_reaches_p(self):
        rng = np.random.default_rng(5)
        for trial in range(2000):
            n = int(rng.integers(1, 200))
            if trial % 2 and n > 1:
                p = int(rng.integers(1, n)) / n
            else:
                p = float(rng.uniform(1e-6, 1.0 - 1e-6))
            s = EmpiricalSample(np.arange(1.0, n + 1.0))
            q = s.quantile(p)
            assert s.cdf(q) >= p, (n, p)
            assert q == 1.0 or s.cdf(q - 1.0) < p, (n, p)

    def test_tail_mean_averages_values_from_the_quantile_up(self):
        s = EmpiricalSample((1.0, 2.0, 2.0, 2.0, 10.0))
        assert s.tail_mean(0.5) == (2.0 + 2.0 + 2.0 + 10.0) / 4.0
        assert s.tail_mean(0.9) == 10.0

    def test_array_forms_equal_the_value_by_value_sums(self):
        rng = np.random.default_rng(3)
        for trial in range(300):
            x = rng.integers(-3, 4, int(rng.integers(1, 40))) * float(rng.uniform(0.1, 10.0))
            s = EmpiricalSample(x)
            values = sorted(float(v) for v in x)
            a, p = float(rng.choice(x)) + trial % 3 - 1.0, float(rng.uniform(0.01, 0.99))
            q = s.quantile(p)
            tail = [v for v in values if v >= q]
            assert s.mean() == math.fsum(values) / len(values)
            assert s.exceedance(a) == math.fsum(max(v - a, 0.0) for v in values) / len(values)
            assert s.tail_mean(p) == math.fsum(tail) / len(tail)
            assert s.cdf(a) == sum(v <= a for v in values) / len(values)

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


def gamma_tail_oracle(model, a):
    """``E[(X - a)+]`` for a Weibull shape ``1/k``, ``a`` above the location:
    ``lam * k! * exp(-z) * sum_{j<k} z**j / j!`` with ``z = ((a - theta)/lam)**alpha``,
    the Erlang tail of ``(lam/alpha) * Gamma(k, z)``, written without ``gammaincc``."""
    k = round(1.0 / model.alpha)
    z = ((a - model.theta) / model.lam) ** model.alpha
    series = math.fsum(z**j / math.factorial(j) for j in range(k))
    return model.lam * math.factorial(k) * math.exp(-z) * series


class TestWeibullExceedance:
    @pytest.mark.parametrize("lam,theta", [(1.0, 0.0), (2.5, -1.0), (0.3, 4.0)])
    @pytest.mark.parametrize("k", range(1, 21))
    def test_shape_one_over_k_matches_the_erlang_tail(self, k, lam, theta):
        # Shape 1 is the exponential, 1/2 has Gamma(2, z) = (1 + z) e^-z, and
        # 1/20 is the heaviest tail the engine is asked about.
        model = WeibullParams(lam, 1.0 / k, theta)
        thresholds = [model.quantile(p) for p in (0.9, 0.99, 0.999)]
        thresholds += [theta + lam * u for u in (1e-3, 0.5, 1.0, 3.0)]
        for a in thresholds:
            oracle = gamma_tail_oracle(model, a)
            assert abs(expected_positive_part(model, a) - oracle) <= 8 * math.ulp(oracle), a

    @given(
        alpha=st.floats(min_value=0.05, max_value=1.0),
        lam=st.floats(min_value=0.1, max_value=10.0),
        theta=st.floats(min_value=-5.0, max_value=5.0),
        p=st.floats(min_value=0.5, max_value=0.999),
        u=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_heavy_tails(self, alpha, lam, theta, p, u):
        model = WeibullParams(lam, alpha, theta)
        v = var(model, p)
        tail = cvar_tail(model, p)
        assert math.isfinite(tail) and tail >= v
        assert abs(cvar_ru(model, p) - tail) <= 1e-9 * abs(tail)
        lo, hi = sorted(theta + lam * x for x in u)
        assert expected_positive_part(model, lo) >= expected_positive_part(model, hi)
        # The closed form above the location meets the exact mean - a at it.
        at_location = model.mean() - theta
        just_above = expected_positive_part(model, math.nextafter(theta, math.inf))
        assert abs(just_above - at_location) <= 1e-12 * at_location
        assert expected_positive_part(model, theta) == at_location

    @pytest.mark.parametrize(
        "lam,alpha,theta,p,frozen",
        [
            # The adaptive quadrature that preceded the closed form missed
            # this one by 1.9e-7, failed at alpha = 0.15 and reported 1.84e13
            # at alpha = 0.05.
            (2.793072430383293, 1.3996983128919407, -0.14359866790571552,
             0.9820255701749334, 8.668089798968658),
            (1.0, 0.15, 0.0, 0.99, 228269.1809608234),
            (1.0, 0.05, 0.0, 0.99, 2.4329019572808332e20),
        ],
    )
    def test_cvar_against_mpmath(self, lam, alpha, theta, p, frozen):
        # Frozen from mpmath at 50 digits.  At alpha = 0.05 the quantile's
        # exponent 1/alpha = 20 multiplies the rounding of -log1p(-p) twenty-fold.
        assert rel_close(cvar_tail(WeibullParams(lam, alpha, theta), p), frozen, rel=1e-14)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: WeibullParams(1.0, 0.005).mean(),
            lambda: WeibullParams(1.0, 0.005).exceedance(1.0),
            lambda: WeibullParams(1.0, 0.001).quantile(0.99),
            lambda: WeibullParams(1e300, 0.01).quantile(0.99),
        ],
        ids=["mean", "exceedance", "quantile", "quantile-saturates"],
    )
    def test_overflow_is_a_numeric_error_naming_the_model(self, call):
        with pytest.raises(NumericError, match=r"overflows a float for \(1.*, 0\.0\)$"):
            call()

    def test_far_tail_underflows_to_zero(self):
        # ((a - theta)/lam)**alpha overflows a float: Q(1/alpha, z) <= exp(-z).
        assert expected_positive_part(WeibullParams(1.0, 2.0), 1e200) == 0.0


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

    MODELS = (GaussianParams(0.5, 2.0), WeibullParams(1.5, 0.8, -1.0), EmpiricalSample((1.0, 5.0, 9.0)))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.family)
    def test_one_seed_draws_from_numpys_generator(self, model):
        for seed in (0, 42, 2**64 - 1, 2**130):
            expected = model.draw(np.random.default_rng(seed), 13)
            assert sample(model, 13, seed).tobytes() == expected.tobytes()
            assert sample(model, 13, np.array(seed)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.family)
    def test_a_shape_is_filled_row_major_from_one_stream(self, model):
        flat = sample(model, 55, 7)
        for size in ((5, 11), [5, 11], (5, 1, 11)):
            block = sample(model, size, 7)
            assert block.shape == tuple(size)
            assert block.tobytes() == flat.tobytes()

    @pytest.mark.parametrize("model", MODELS[:2], ids=lambda m: m.family)
    def test_row_i_reads_the_stream_advanced_by_i_rows(self, model):
        # A parametric draw takes one PCG64 step: row i of a (k, n) draw is
        # n draws from the stream advanced by i * n, whatever k is.
        rows = sample(model, (40, 11), 2**64 + 5)
        for i in (0, 1, 23, 39):
            stream = np.random.Generator(np.random.PCG64(2**64 + 5).advance(i * 11))
            assert rows[i].tobytes() == model.draw(stream, 11).tobytes(), i

    @pytest.mark.parametrize("size", [0, (), (3, 0), (2, -1), (2, 1.5), (2, True), [[1], [2]]])
    def test_every_size_entry_is_a_positive_count(self, size):
        with pytest.raises(DomainError, match="sample size must be"):
            sample(GaussianParams(0.0, 1.0), size, 1)

    @pytest.mark.parametrize("seed", [[3, 4], (3,), np.array([1, 2]), [3, -1]])
    def test_a_sequence_is_not_a_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            sample(GaussianParams(0.0, 1.0), 3, seed)

    def test_gaussian_draws_pass_a_chi_square_test(self):
        # 1e6 standard draws in 106 bins: equiprobable in the body, with
        # masses down to 1e-5 (10 expected draws) in the tails.  The bound is
        # the 1 - 1e-6 quantile of chi-square with 105 degrees of freedom, so
        # a correct sampler fails on a given seed with probability 1e-6.
        # This seed reads 91 against a bound of 189.
        n = 1_000_000
        masses = np.array([1e-5, 1e-4, 1e-3, 1e-2])
        cuts = np.concatenate([masses, np.linspace(0.02, 0.98, 97), 1.0 - masses[::-1]])
        edges = np.array([NormalDist().inv_cdf(c) for c in cuts.tolist()])
        expected = n * np.diff(np.concatenate([[0.0], cuts, [1.0]]))
        bins = np.searchsorted(edges, sample(STANDARD_NORMAL, n, 2026))
        observed = np.bincount(bins, minlength=expected.size)
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        assert statistic < chi2.isf(1e-6, expected.size - 1)


class TestModelPlumbing:
    def test_shift_model(self):
        assert GaussianParams(1.0, 2.0).shift(3.0) == GaussianParams(4.0, 2.0)
        shifted = WeibullParams(1.0, 1.0, 0.5).shift(-2.0)
        assert shifted.theta == -1.5 and shifted.lam == 1.0
        s = EmpiricalSample((1.0, 2.0)).shift(1.0)
        assert s.values.tolist() == [2.0, 3.0]
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
        ("gaussian", {"mu": [1.0], "sigma": 1.0}),
        ("weibull", {"lambda": 1.0, "alpha": {}}),
        ("empirical", {"values": 3.0}),
    ])
    def test_from_params_rejects_malformed_values(self, family, params):
        with pytest.raises(DataError):
            model_from_params(family, params)

    def test_family_enum_values(self):
        assert ModelFamily("gaussian") is ModelFamily.GAUSSIAN
        assert ModelFamily("weibull") is ModelFamily.WEIBULL
        assert model_from_params(ModelFamily.GAUSSIAN, {"mu": 0, "sigma": 1}) == GaussianParams(0.0, 1.0)
        assert model_from_params(ModelFamily.WEIBULL, {"lambda": 2, "alpha": 1}) == WeibullParams(2.0, 1.0)
