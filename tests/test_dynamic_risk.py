"""Multi-period recursion, closed forms, and chain-modulated trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm, weibull_min

from riskflow import dynamic_risk
from riskflow.distributions import EmpiricalSample, GaussianParams, WeibullParams
from riskflow.dynamic_risk import (
    GAUSSIAN_MODULATED_CVAR_NOTE,
    CvarMode,
    VectorialMeasure,
    modulated_cvar_trajectory,
    modulated_var_trajectory,
    recursive_cvar,
    recursive_risk_generic,
    recursive_var_gaussian_closed,
    recursive_var_weibull_closed,
)
from riskflow.errors import DomainError
from riskflow.markov import ChainPath, TransitionMatrix, simulate_path
from riskflow.static_risk import (
    MeasureKind,
    Orientation,
    RiskMeasureSpec,
    cvar_tail,
    var,
)

Z_99 = 2.3263478740408408
STD_NORMAL_CVAR_99 = 2.665214220345806

VAR_99 = RiskMeasureSpec(MeasureKind.VAR, 0.99)
CVAR_99 = RiskMeasureSpec(MeasureKind.CVAR, 0.99)

REFERENCE_MATRIX = TransitionMatrix.from_rows(((0.25, 0.75), (0.35, 0.65)))
STANDARD_GAUSSIAN = GaussianParams(0.0, 1.0)


def random_gaussian_sequence(rng, T):
    mus = rng.normal(0.0, 10.0, T + 1)
    sigmas = rng.uniform(0.1, 5.0, T + 1)
    return mus, sigmas


def random_weibull_sequence(rng, T):
    lams = rng.uniform(0.2, 10.0, T + 1)
    alphas = rng.uniform(0.3, 4.0, T + 1)
    thetas = rng.normal(0.0, 2.0, T + 1)
    return lams, alphas, thetas


class TestRecursiveVar:
    def test_two_period_example(self):
        models = [GaussianParams(0.0, 1.0), GaussianParams(1.0, 2.0)]
        out = recursive_risk_generic(models, VAR_99, 1)
        assert out[0] == pytest.approx(Z_99, rel=1e-12)
        # R_1 = var(X_1) - R_0 = (1 + 2q) - q = 1 + q.
        assert out[1] == pytest.approx(1.0 + Z_99, rel=1e-12)
        assert out[1] == pytest.approx(3.3263478740408408, rel=1e-12)

    def test_equals_alternating_sum_of_statics(self):
        rng = np.random.default_rng(5)
        models = [
            GaussianParams(float(m), float(s))
            for m, s in zip(rng.normal(0, 5, 7), rng.uniform(0.5, 3, 7))
        ]
        out = recursive_risk_generic(models, VAR_99, 6)
        statics = [var(m, 0.99) for m in models]
        for t in range(7):
            expected = sum((-1.0) ** (t - k) * statics[k] for k in range(t + 1))
            assert out[t] == pytest.approx(expected, abs=1e-9)

    def test_telescoping_identity(self):
        rng = np.random.default_rng(6)
        models = [
            WeibullParams(float(l), float(a), float(th))
            for l, a, th in zip(
                rng.uniform(0.5, 6, 9), rng.uniform(0.4, 3, 9), rng.normal(0, 1, 9)
            )
        ]
        out = recursive_risk_generic(models, VAR_99, 8)
        for t in range(1, 9):
            assert out[t] + out[t - 1] == pytest.approx(var(models[t], 0.99), abs=1e-10)

    def test_iid_alternation(self):
        # Constant parameters alternate v, 0, v, 0, ...  The closed form gets
        # the zeros exactly (its cancellations are term-by-term); the generic
        # route re-derives each static value from a shifted model and only
        # promises float-level agreement.
        models = [GaussianParams(2.0, 1.5)] * 9
        closed = recursive_var_gaussian_closed([2.0] * 9, [1.5] * 9, 0.99, 8)
        generic = recursive_risk_generic(models, VAR_99, 8)
        v = var(models[0], 0.99)
        for t in range(9):
            if t % 2 == 0:
                assert closed[t] == v
            else:
                assert closed[t] == 0.0
            assert generic[t] == pytest.approx(closed[t], abs=1e-12)

    def test_lower_tail_orientation_same_alternating_sum(self):
        spec = RiskMeasureSpec(MeasureKind.VAR, 0.95, Orientation.LOWER_TAIL)
        models = [GaussianParams(1.0, 2.0), GaussianParams(-0.5, 1.0), GaussianParams(0.0, 3.0)]
        out = recursive_risk_generic(models, spec, 2)
        statics = [var(m, 0.95, Orientation.LOWER_TAIL) for m in models]
        assert out[0] == pytest.approx(statics[0])
        assert out[1] == pytest.approx(statics[1] - statics[0], abs=1e-9)
        assert out[2] == pytest.approx(statics[2] - statics[1] + statics[0], abs=1e-9)

    def test_callable_measure(self):
        # Any translation-additive functional recurses the same way.
        models = [EmpiricalSample((0.0, 2.0)), EmpiricalSample((1.0, 3.0))]
        out = recursive_risk_generic(models, lambda model: model.mean(), 1)
        assert out == [1.0, 1.0]  # mean(X_1) - mean(X_0) = 2 - 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            recursive_risk_generic([GaussianParams(0.0, 1.0)], VAR_99, 1)
        with pytest.raises(DomainError):
            recursive_risk_generic([], VAR_99, -1)


class TestClosedForms:
    def test_gaussian_closed_matches_generic(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            T = int(rng.integers(0, 13))
            mus, sigmas = random_gaussian_sequence(rng, T)
            closed = recursive_var_gaussian_closed(mus, sigmas, 0.99, T)
            models = [GaussianParams(float(m), float(s)) for m, s in zip(mus, sigmas)]
            generic = recursive_risk_generic(models, VAR_99, T)
            scale = max(1.0, max(abs(v) for v in generic))
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(closed, generic))

    def test_weibull_closed_matches_generic(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            T = int(rng.integers(0, 13))
            lams, alphas, thetas = random_weibull_sequence(rng, T)
            closed = recursive_var_weibull_closed(lams, alphas, thetas, 0.95, T)
            models = [
                WeibullParams(float(l), float(a), float(th))
                for l, a, th in zip(lams, alphas, thetas)
            ]
            spec = RiskMeasureSpec(MeasureKind.VAR, 0.95)
            generic = recursive_risk_generic(models, spec, T)
            scale = max(1.0, max(abs(v) for v in generic))
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(closed, generic))

    @given(
        st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=8),
        st.floats(min_value=0.6, max_value=0.995),
    )
    @settings(max_examples=100)
    def test_gaussian_closed_is_alternating_sum(self, mus, p):
        sigmas = [1.0] * len(mus)
        T = len(mus) - 1
        closed = recursive_var_gaussian_closed(mus, sigmas, p, T)
        q = float(ndtri(p))
        for t in range(T + 1):
            expected = sum((-1.0) ** (t - k) * (mus[k] + q) for k in range(t + 1))
            assert closed[t] == pytest.approx(expected, abs=1e-9)

    def test_closed_forms_validate_input(self):
        with pytest.raises(DomainError):
            recursive_var_gaussian_closed([0.0], [-1.0], 0.99, 0)
        with pytest.raises(DomainError):
            recursive_var_gaussian_closed([0.0, 1.0], [1.0], 0.99, 1)
        with pytest.raises(DomainError):
            recursive_var_weibull_closed([1.0], [0.0], [0.0], 0.99, 0)


class TestRecursiveCvar:
    def test_two_period_exact_example(self):
        models = [GaussianParams(0.0, 1.0), GaussianParams(1.0, 2.0)]
        out = recursive_cvar(models, 0.99, 1, CvarMode.EXACT)
        assert out[0] == pytest.approx(STD_NORMAL_CVAR_99, rel=1e-12)
        assert out[1] == pytest.approx(3.665214220345806, rel=1e-12)

    def test_exact_mode_telescopes(self):
        rng = np.random.default_rng(21)
        models = [
            GaussianParams(float(m), float(s))
            for m, s in zip(rng.normal(0, 3, 6), rng.uniform(0.2, 2, 6))
        ]
        out = recursive_cvar(models, 0.95, 5, CvarMode.EXACT)
        for t in range(1, 6):
            assert out[t] + out[t - 1] == pytest.approx(cvar_tail(models[t], 0.95), abs=1e-10)

    def test_exact_mode_point_mass(self):
        # Point masses make every step arithmetic: cvar of an atom is the atom.
        models = [EmpiricalSample((5.0,)), EmpiricalSample((3.0,)), EmpiricalSample((4.0,))]
        assert recursive_cvar(models, 0.9, 2, CvarMode.EXACT) == [5.0, -2.0, 6.0]

    @pytest.mark.parametrize("n_paths, T", [(1, 0), (1, 10), (50, 3), (200, 10)])
    def test_exact_mode_evaluates_cvar_once_per_model(self, monkeypatch, n_paths, T):
        models = [GaussianParams(1.0, 0.5), WeibullParams(2.0, 1.1, 0.5)]
        evaluated = []

        def counting_cvar_tail(model, p):
            evaluated.append(model)
            return cvar_tail(model, p)

        monkeypatch.setattr(dynamic_risk, "cvar_tail", counting_cvar_tail)
        states = np.random.default_rng(T).integers(0, 2, (n_paths, T + 1))
        recursive_cvar(models, 0.95, T, CvarMode.EXACT, states=states)
        assert evaluated == models
        evaluated.clear()
        path_models = [models[k] for k in states[0]]
        recursive_cvar(path_models, 0.95, T, CvarMode.EXACT)
        assert evaluated == path_models

    def test_piecewise_branch_below_threshold(self):
        p = 0.95
        models = [GaussianParams(0.0, 1.0), GaussianParams(0.0, 1.0)]
        c0 = cvar_tail(models[0], p)
        v1 = var(models[1], p)
        # Realized return far below var - 2*C_0 lands in the shifted-quantile branch.
        out = recursive_cvar(models, p, 1, CvarMode.PIECEWISE, realized_path=[0.0, -50.0])
        assert out == [c0, v1 - c0]

    def test_piecewise_branch_above_threshold(self):
        p = 0.95
        models = [GaussianParams(0.0, 1.0), GaussianParams(2.0, 3.0)]
        c0 = cvar_tail(models[0], p)
        out = recursive_cvar(models, p, 1, CvarMode.PIECEWISE, realized_path=[0.0, 50.0])
        v1, m1 = var(models[1], p), 2.0
        expected = v1 - c0 + (m1 - v1 + 2.0 * c0) / (1.0 - p)
        assert out[1] == pytest.approx(expected, rel=1e-12)
        # Same number, spelled as the family form.
        q = float(ndtri(p))
        family_form = 2.0 - (p / (1.0 - p)) * 3.0 * q + ((1.0 + p) / (1.0 - p)) * c0
        assert out[1] == pytest.approx(family_form, rel=1e-12)

    def test_piecewise_weibull_family_form(self):
        p = 0.9
        models = [WeibullParams(2.0, 1.3), WeibullParams(1.5, 0.8)]
        c0 = cvar_tail(models[0], p)
        out = recursive_cvar(models, p, 1, CvarMode.PIECEWISE, realized_path=[0.0, 1e6])
        v1, m1 = var(models[1], p), weibull_min.mean(0.8, scale=1.5)
        family_form = m1 / (1.0 - p) - (p / (1.0 - p)) * v1 + ((1.0 + p) / (1.0 - p)) * c0
        assert out[1] == pytest.approx(family_form, rel=1e-12)

    def test_piecewise_tail_branch_grows_geometrically(self):
        # With the tail branch taken every step, the carried value is scaled
        # by (1+p)/(1-p) each time — 199x at p = 0.99.  This regime is easy
        # to enter (the quantile branch needs X_t <= var_t - 2*C_{t-1}, which
        # recedes as C grows) and is reported as-is, not damped.
        p = 0.99
        models = [GaussianParams(0.0, 1.0)] * 4
        path = [1e9] * 4
        out = recursive_cvar(models, p, 3, CvarMode.PIECEWISE, realized_path=path)
        assert out[3] > 1e4 * out[0]
        ratios = [out[t] / out[t - 1] for t in (2, 3)]
        assert all(150.0 < r < 200.0 for r in ratios)

    def test_piecewise_requires_realized_path(self):
        models = [GaussianParams(0.0, 1.0)] * 2
        with pytest.raises(DomainError):
            recursive_cvar(models, 0.99, 1, CvarMode.PIECEWISE)
        with pytest.raises(DomainError):
            recursive_cvar(models, 0.99, 1, CvarMode.PIECEWISE, realized_path=[0.0])

    def test_mode_accepts_plain_strings(self):
        models = [GaussianParams(0.0, 1.0)]
        assert recursive_cvar(models, 0.99, 0, "exact") == recursive_cvar(
            models, 0.99, 0, CvarMode.EXACT
        )
        with pytest.raises(ValueError):
            recursive_cvar(models, 0.99, 0, "approximate")


class TestVectorialMeasure:
    def test_homogeneous_components_accepted(self):
        m = VectorialMeasure((VAR_99, VAR_99))
        assert m.n_states == 2

    def test_heterogeneous_rejected(self):
        lower = RiskMeasureSpec(MeasureKind.VAR, 0.99, Orientation.LOWER_TAIL)
        with pytest.raises(DomainError):
            VectorialMeasure((VAR_99, CVAR_99))
        with pytest.raises(DomainError):
            VectorialMeasure((VAR_99, lower))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            VectorialMeasure(())


class TestModulatedVarTrajectory:
    def test_gaussian_matches_manual_enumeration(self):
        p = 0.99
        models = [GaussianParams(1.0, 2.0), GaussianParams(-2.0, 3.0)]
        path = ChainPath((1, 2, 1, 1))
        out = modulated_var_trajectory(models, REFERENCE_MATRIX, path, p, 2)
        q = float(ndtri(p))
        per_state = np.array([1.0 + 2.0 * q, -2.0 + 3.0 * q])
        v0 = per_state[1]  # X_0 parameters link to the state at Z_1 = 2
        vbar_1 = float(per_state @ REFERENCE_MATRIX.column(2))  # predicted from Z_1
        vbar_2 = float(per_state @ REFERENCE_MATRIX.column(1))  # predicted from Z_2
        assert out[0] == pytest.approx(v0, rel=1e-12)
        assert out[1] == pytest.approx(vbar_1 - v0, rel=1e-12)
        assert out[2] == pytest.approx(vbar_2 - vbar_1 + v0, rel=1e-12)

    def test_weibull_bars_multiply_separate_predictions(self):
        # The barred quantile is thetabar + lambdabar * cbar — predictions of
        # theta, lambda and the shape factor taken separately, not the
        # prediction of the per-state quantile.
        p = 0.99
        lam = np.array([7.106295, 6.429505])
        alpha = np.array([0.8016, 1.2])
        theta = np.array([0.5, -0.25])
        models = [WeibullParams(*params) for params in zip(lam, alpha, theta)]
        path = ChainPath((1, 1, 2, 2))
        out = modulated_var_trajectory(models, REFERENCE_MATRIX, path, p, 2)
        c = (-math.log1p(-p)) ** (1.0 / alpha)
        col1 = REFERENCE_MATRIX.column(1)
        v0 = theta[0] + lam[0] * c[0]
        thetabar_1 = float(theta @ col1)
        lambar_1 = float(lam @ col1)
        cbar_1 = float(c @ col1)
        vbar_1 = thetabar_1 + lambar_1 * cbar_1
        assert out[0] == pytest.approx(v0, rel=1e-12)
        assert out[1] == pytest.approx(vbar_1 - v0, rel=1e-12)
        # Differs from predicting the quantile itself whenever lambda varies.
        quantile_prediction = float((theta + lam * c) @ col1)
        assert abs(vbar_1 - quantile_prediction) > 1e-6

    def test_absorbing_chain_collapses_to_recursion(self):
        # Point-mass predictions make the modulated and plain recursions equal.
        identity = TransitionMatrix.from_rows(((1.0, 0.0), (0.0, 1.0)))
        models = [GaussianParams(3.0, 1.5), GaussianParams(99.0, 1.0)]
        path = ChainPath((1,) * 7)
        out = modulated_var_trajectory(models, identity, path, 0.99, 5)
        closed = recursive_var_gaussian_closed([3.0] * 6, [1.5] * 6, 0.99, 5)
        assert out == pytest.approx(closed, rel=1e-12)

    def test_path_horizon_must_match(self):
        with pytest.raises(DomainError):
            modulated_var_trajectory(
                [STANDARD_GAUSSIAN] * 2, REFERENCE_MATRIX, ChainPath((1, 2, 2)), 0.99, 5
            )

    @pytest.mark.parametrize("models", [
        [STANDARD_GAUSSIAN],
        [STANDARD_GAUSSIAN] * 3,
        [STANDARD_GAUSSIAN, WeibullParams(1.0, 1.0)],
        [EmpiricalSample((0.0, 1.0))] * 2,
        [{"mu": 0.0, "sigma": 1.0}] * 2,
    ])
    def test_state_models_checked(self, models):
        # One model per chain state, all of one parametric family.
        path = ChainPath((1, 2, 2))
        with pytest.raises(DomainError):
            modulated_var_trajectory(models, REFERENCE_MATRIX, path, 0.99, 1)
        with pytest.raises(DomainError):
            modulated_cvar_trajectory(models, REFERENCE_MATRIX, path, [0.0, 0.0], 0.99, 1)


class TestModulatedCvarTrajectory:
    def test_gaussian_branches_and_threshold(self):
        p = 0.95
        q = float(ndtri(p))
        models = [GaussianParams(0.0, 1.0), GaussianParams(0.0, 2.0)]
        path = ChainPath((1, 2, 1, 1))
        sigbar_1 = float(np.array([1.0, 2.0]) @ REFERENCE_MATRIX.column(2))
        sigbar_2 = float(np.array([1.0, 2.0]) @ REFERENCE_MATRIX.column(1))
        # t=1 threshold: realized-parameter quantile of X_1 (state Z_2 = 1).
        below = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, path, [0.0, q - 0.01, 0.0], p, 2
        )
        above = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, path, [0.0, q + 0.01, 0.0], p, 2
        )
        assert below[0] == above[0] == pytest.approx(2.0 * norm.pdf(q) / (1.0 - p))
        assert below[1] == pytest.approx(sigbar_1 * q, rel=1e-12)
        assert above[1] == pytest.approx((p / (1.0 - p)) * sigbar_1 * q, rel=1e-12)
        # t=2 value is identical in both runs: the branches carry no memory.
        assert below[2] == above[2] == pytest.approx(sigbar_2 * q, rel=1e-12)

    def test_gaussian_memoryless_note_is_exported(self):
        assert "memoryless" in GAUSSIAN_MODULATED_CVAR_NOTE

    def test_weibull_branches_and_threshold(self):
        p = 0.9
        lam = np.array([2.0, 3.0])
        alpha = np.array([1.1, 0.9])
        models = [WeibullParams(2.0, 1.1), WeibullParams(3.0, 0.9)]
        path = ChainPath((1, 1, 1))
        c = (-math.log1p(-p)) ** (1.0 / alpha)
        col1 = REFERENCE_MATRIX.column(1)
        vbar = float(np.zeros(2) @ col1) + float(lam @ col1) * float(c @ col1)
        c0 = cvar_tail(WeibullParams(2.0, 1.1), p)
        # Threshold at t=1 is vbar + 2*C_0 (prediction plus carried value).
        eps = 1e-9
        below = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, path, [0.0, vbar + 2 * c0 - eps], p, 1
        )
        above = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, path, [0.0, vbar + 2 * c0 + eps], p, 1
        )
        assert below[0] == above[0] == pytest.approx(c0, rel=1e-12)
        assert below[1] == pytest.approx(vbar - c0, rel=1e-12)
        means = np.array([weibull_min.mean(1.1, scale=2.0), weibull_min.mean(0.9, scale=3.0)])
        meanbar = float(means @ col1)
        expected_tail = (
            meanbar / (1.0 - p) - (p / (1.0 - p)) * vbar + ((1.0 + p) / (1.0 - p)) * c0
        )
        assert above[1] == pytest.approx(expected_tail, rel=1e-12)

    def test_absorbing_chain_tail_branch_collapses_to_recursion(self):
        # With point-mass predictions and returns large enough that both the
        # modulated and the plain piecewise forms take the tail branch at
        # every step, the two trajectories coincide (their thresholds differ,
        # so the comparison is only meaningful in this common-branch regime).
        identity = TransitionMatrix.from_rows(((1.0, 0.0), (0.0, 1.0)))
        p = 0.99
        models = [WeibullParams(6.7679, 0.8016), WeibullParams(1.0, 1.0)]
        T = 4
        path = ChainPath((1,) * (T + 2))
        big = [1e9] * (T + 1)
        modulated = modulated_cvar_trajectory(models, identity, path, big, p, T)
        plain = recursive_cvar(
            [WeibullParams(6.7679, 0.8016)] * (T + 1),
            p,
            T,
            CvarMode.PIECEWISE,
            realized_path=big,
        )
        assert modulated == pytest.approx(plain, rel=1e-12)

    def test_returns_length_validated(self):
        with pytest.raises(DomainError):
            modulated_cvar_trajectory(
                [STANDARD_GAUSSIAN] * 2, REFERENCE_MATRIX, ChainPath((1, 2, 2)), [0.0], 0.99, 1
            )


class TestStackedPaths:
    """A stack of paths gives, row by row, exactly what each path gives alone."""

    T = 6
    P = 0.95

    def stack(self, n_paths=5):
        paths = [simulate_path(REFERENCE_MATRIX, 1, self.T, seed) for seed in range(n_paths)]
        rng = np.random.default_rng(3)
        returns = rng.normal(0.0, 3.0, (n_paths, self.T + 1))
        return paths, np.array([path.states for path in paths]), returns

    @pytest.mark.parametrize("models", [
        [GaussianParams(1.0, 0.5), GaussianParams(-2.0, 2.0)],
        [WeibullParams(2.0, 1.1), WeibullParams(3.0, 0.9)],
    ])
    def test_modulated_rows_match_single_paths(self, models):
        paths, states, returns = self.stack()
        var_rows = modulated_var_trajectory(models, REFERENCE_MATRIX, states, self.P, self.T)
        cvar_rows = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, states, returns, self.P, self.T
        )
        assert var_rows.shape == cvar_rows.shape == (len(paths), self.T + 1)
        for i, path in enumerate(paths):
            args = (models, REFERENCE_MATRIX, path)
            assert var_rows[i].tolist() == modulated_var_trajectory(*args, self.P, self.T)
            assert cvar_rows[i].tolist() == modulated_cvar_trajectory(
                *args, returns[i], self.P, self.T
            )

    @pytest.mark.parametrize("mode", [CvarMode.PIECEWISE, CvarMode.EXACT])
    def test_recursive_cvar_rows_match_single_paths(self, mode):
        _, states, returns = self.stack()
        models = [GaussianParams(1.0, 0.5), GaussianParams(-2.0, 2.0)]
        index = states[:, 1:] - 1
        rows = recursive_cvar(models, self.P, self.T, mode, returns, states=index)
        for i in range(len(states)):
            single = recursive_cvar(
                [models[k] for k in index[i]], self.P, self.T, mode, returns[i]
            )
            assert rows[i].tolist() == single

    def test_closed_form_rows_match_single_paths(self):
        rng = np.random.default_rng(4)
        mus, sigmas = rng.normal(0.0, 5.0, (3, 5)), rng.uniform(0.5, 2.0, (3, 5))
        rows = recursive_var_gaussian_closed(mus, sigmas, self.P, 4)
        lams, alphas, thetas = rng.uniform(1.0, 3.0, (3, 3, 5))
        weibull_rows = recursive_var_weibull_closed(lams, alphas, thetas, self.P, 4)
        for i in range(3):
            assert rows[i].tolist() == recursive_var_gaussian_closed(mus[i], sigmas[i], self.P, 4)
            assert weibull_rows[i].tolist() == recursive_var_weibull_closed(
                lams[i], alphas[i], thetas[i], self.P, 4
            )

    def test_stacks_are_validated(self):
        _, states, returns = self.stack()
        models = [STANDARD_GAUSSIAN] * 2
        bad = states.copy()
        bad[0, -1] = 3 - bad[0, -2]
        with pytest.raises(DomainError):
            modulated_var_trajectory(models, REFERENCE_MATRIX, bad, 0.9, self.T)
        with pytest.raises(DomainError):
            modulated_cvar_trajectory(models, REFERENCE_MATRIX, states, returns[:-1], 0.9, self.T)
        with pytest.raises(DomainError, match="must be integers"):
            modulated_cvar_trajectory(
                models, REFERENCE_MATRIX, states.astype(float), returns, 0.9, self.T
            )
        with pytest.raises(DomainError):
            recursive_cvar(
                [GaussianParams(0.0, 1.0)], 0.9, self.T, CvarMode.PIECEWISE, returns,
                states=states[:, 1:] - 1,
            )

