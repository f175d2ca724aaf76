"""Multi-period recursion, closed forms, and chain-modulated trajectories."""

import inspect
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
from riskflow.markov import TransitionMatrix, simulate_path
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
        out = recursive_risk_generic(models, VAR_99)
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
        out = recursive_risk_generic(models, VAR_99)
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
        out = recursive_risk_generic(models, VAR_99)
        for t in range(1, 9):
            assert out[t] + out[t - 1] == pytest.approx(var(models[t], 0.99), abs=1e-10)

    def test_iid_alternation(self):
        # Constant parameters alternate v, 0, v, 0, ...  The closed form gets
        # the zeros exactly (its cancellations are term-by-term); the generic
        # route re-derives each static value from a shifted model and only
        # promises float-level agreement.
        models = [GaussianParams(2.0, 1.5)] * 9
        closed = recursive_var_gaussian_closed([2.0] * 9, [1.5] * 9, 0.99)
        generic = recursive_risk_generic(models, VAR_99)
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
        out = recursive_risk_generic(models, spec)
        statics = [var(m, 0.95, Orientation.LOWER_TAIL) for m in models]
        assert out[0] == pytest.approx(statics[0])
        assert out[1] == pytest.approx(statics[1] - statics[0], abs=1e-9)
        assert out[2] == pytest.approx(statics[2] - statics[1] + statics[0], abs=1e-9)

    def test_callable_measure(self):
        # Any translation-additive functional recurses the same way.
        models = [EmpiricalSample((0.0, 2.0)), EmpiricalSample((1.0, 3.0))]
        out = recursive_risk_generic(models, lambda model: model.mean())
        assert out == [1.0, 1.0]  # mean(X_1) - mean(X_0) = 2 - 1


class TestClosedForms:
    def test_gaussian_closed_matches_generic(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            T = int(rng.integers(0, 13))
            mus, sigmas = random_gaussian_sequence(rng, T)
            closed = recursive_var_gaussian_closed(mus, sigmas, 0.99)
            models = [GaussianParams(float(m), float(s)) for m, s in zip(mus, sigmas)]
            generic = recursive_risk_generic(models, VAR_99)
            scale = max(1.0, max(abs(v) for v in generic))
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(closed, generic))

    def test_weibull_closed_matches_generic(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            T = int(rng.integers(0, 13))
            lams, alphas, thetas = random_weibull_sequence(rng, T)
            closed = recursive_var_weibull_closed(lams, alphas, thetas, 0.95)
            models = [
                WeibullParams(float(l), float(a), float(th))
                for l, a, th in zip(lams, alphas, thetas)
            ]
            spec = RiskMeasureSpec(MeasureKind.VAR, 0.95)
            generic = recursive_risk_generic(models, spec)
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
        closed = recursive_var_gaussian_closed(mus, sigmas, p)
        q = float(ndtri(p))
        for t in range(T + 1):
            expected = sum((-1.0) ** (t - k) * (mus[k] + q) for k in range(t + 1))
            assert closed[t] == pytest.approx(expected, abs=1e-9)

    def test_closed_forms_validate_input(self):
        with pytest.raises(DomainError):
            recursive_var_gaussian_closed([0.0], [-1.0], 0.99)
        with pytest.raises(DomainError):
            recursive_var_gaussian_closed([0.0, 1.0], [1.0], 0.99)
        with pytest.raises(DomainError):
            recursive_var_weibull_closed([1.0], [0.0], [0.0], 0.99)


class TestRecursiveCvar:
    def test_two_period_exact_example(self):
        models = [GaussianParams(0.0, 1.0), GaussianParams(1.0, 2.0)]
        out = recursive_cvar(models, 0.99, CvarMode.EXACT)
        assert out[0] == pytest.approx(STD_NORMAL_CVAR_99, rel=1e-12)
        assert out[1] == pytest.approx(3.665214220345806, rel=1e-12)

    def test_exact_mode_telescopes(self):
        rng = np.random.default_rng(21)
        models = [
            GaussianParams(float(m), float(s))
            for m, s in zip(rng.normal(0, 3, 6), rng.uniform(0.2, 2, 6))
        ]
        out = recursive_cvar(models, 0.95, CvarMode.EXACT)
        for t in range(1, 6):
            assert out[t] + out[t - 1] == pytest.approx(cvar_tail(models[t], 0.95), abs=1e-10)

    def test_exact_mode_point_mass(self):
        # Point masses make every step arithmetic: cvar of an atom is the atom.
        models = [EmpiricalSample((5.0,)), EmpiricalSample((3.0,)), EmpiricalSample((4.0,))]
        assert recursive_cvar(models, 0.9, CvarMode.EXACT) == [5.0, -2.0, 6.0]

    @pytest.mark.parametrize("n_paths, T", [(1, 0), (1, 10), (50, 3), (200, 10)])
    def test_exact_mode_evaluates_cvar_once_per_model(self, monkeypatch, n_paths, T):
        models = [GaussianParams(1.0, 0.5), WeibullParams(2.0, 1.1, 0.5)]
        evaluated = []

        def counting_cvar_tail(model, p):
            evaluated.append(model)
            return cvar_tail(model, p)

        monkeypatch.setattr(dynamic_risk, "cvar_tail", counting_cvar_tail)
        states = np.random.default_rng(T).integers(0, 2, (n_paths, T + 1))
        recursive_cvar(models, 0.95, CvarMode.EXACT, states=states)
        assert evaluated == models
        evaluated.clear()
        path_models = [models[k] for k in states[0]]
        recursive_cvar(path_models, 0.95, CvarMode.EXACT)
        assert evaluated == path_models

    def test_piecewise_branch_below_threshold(self):
        p = 0.95
        models = [GaussianParams(0.0, 1.0), GaussianParams(0.0, 1.0)]
        c0 = cvar_tail(models[0], p)
        v1 = var(models[1], p)
        # Realized return far below var - 2*C_0 lands in the shifted-quantile branch.
        out = recursive_cvar(models, p, CvarMode.PIECEWISE, realized_path=[0.0, -50.0])
        assert out == [c0, v1 - c0]

    def test_piecewise_branch_above_threshold(self):
        p = 0.95
        models = [GaussianParams(0.0, 1.0), GaussianParams(2.0, 3.0)]
        c0 = cvar_tail(models[0], p)
        out = recursive_cvar(models, p, CvarMode.PIECEWISE, realized_path=[0.0, 50.0])
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
        out = recursive_cvar(models, p, CvarMode.PIECEWISE, realized_path=[0.0, 1e6])
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
        out = recursive_cvar(models, p, CvarMode.PIECEWISE, realized_path=path)
        assert out[3] > 1e4 * out[0]
        ratios = [out[t] / out[t - 1] for t in (2, 3)]
        assert all(150.0 < r < 200.0 for r in ratios)

    def test_piecewise_requires_realized_path(self):
        models = [GaussianParams(0.0, 1.0)] * 2
        with pytest.raises(DomainError):
            recursive_cvar(models, 0.99, CvarMode.PIECEWISE)
        with pytest.raises(DomainError):
            recursive_cvar(models, 0.99, CvarMode.PIECEWISE, realized_path=[0.0])

    def test_mode_accepts_plain_strings(self):
        models = [GaussianParams(0.0, 1.0)]
        assert recursive_cvar(models, 0.99, "exact") == recursive_cvar(
            models, 0.99, CvarMode.EXACT
        )
        with pytest.raises(DomainError):
            recursive_cvar(models, 0.99, "approximate")
        with pytest.raises(DomainError):  # a stray horizon lands on the mode
            recursive_cvar(models, 0.99, 0, "exact")

    @pytest.mark.parametrize("states", [
        np.array([[0.0, 1.0]]),  # a float array used to raise a bare IndexError
        np.array([[True, False]]),  # a bool array used to act as a mask
        [[True, 1]],  # np.asarray makes this an integer array
        [[0, 2]],
        [[-1, 0]],
    ], ids=["float-array", "bool-array", "bool-in-list", "above", "below"])
    def test_states_must_index_the_models(self, states):
        models = [GaussianParams(0.0, 1.0), GaussianParams(1.0, 2.0)]
        with pytest.raises(DomainError, match=r"state indices must be integers in \[0, 1\]"):
            recursive_cvar(models, 0.99, states=states)


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
        path = (1, 2, 1, 1)
        out = modulated_var_trajectory(models, REFERENCE_MATRIX, path, p)
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
        path = (1, 1, 2, 2)
        out = modulated_var_trajectory(models, REFERENCE_MATRIX, path, p)
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
        path = np.ones(7, dtype=int)
        out = modulated_var_trajectory(models, identity, path, 0.99)
        closed = recursive_var_gaussian_closed([3.0] * 6, [1.5] * 6, 0.99)
        assert out == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("models", [
        [STANDARD_GAUSSIAN],
        [STANDARD_GAUSSIAN] * 3,
        [STANDARD_GAUSSIAN, WeibullParams(1.0, 1.0)],
        [EmpiricalSample((0.0, 1.0))] * 2,
        [{"mu": 0.0, "sigma": 1.0}] * 2,
    ])
    def test_state_models_checked(self, models):
        # One model per chain state, all of one parametric family.
        path = (1, 2, 2)
        with pytest.raises(DomainError):
            modulated_var_trajectory(models, REFERENCE_MATRIX, path, 0.99)
        with pytest.raises(DomainError):
            modulated_cvar_trajectory(models, REFERENCE_MATRIX, path, [0.0, 0.0], 0.99)


class TestChainStateInput:
    """A chain path is ``(T + 2,)`` or ``(n_paths, T + 2)`` integer 1-based
    states whose last two entries agree: the terminal state is frozen."""

    @pytest.mark.parametrize("path, problem", [
        ((1, 2, 1), "last two states"),
        ((1,), "shape"),
        ((1, 0, 0), "must be integers"),
        ((1, 3, 3), "must be integers"),
        ((1.5, 1, 1), "must be integers"),
        ((1, 2.0, 2.0), "must be integers"),
        ((True, 1, 1), "must be integers"),
        (((1, 1, 1), (2, np.True_, 1)), "must be integers"),
        (((1, 2, 2), (1, 2)), "must be integers"),  # ragged
        (np.array([1, 2, 1]), "last two states"),
        (np.array([1]), "shape"),
        (np.ones((2, 2, 3), dtype=int), "shape"),
        (np.array([1, 0, 0]), "must be integers"),
        (np.array([1.5, 1.0, 1.0]), "must be integers"),
        (np.array([1.0, 2.0, 2.0]), "must be integers"),
        (np.array([True, True, True]), "must be integers"),
    ], ids=[
        "unfrozen-terminal", "one-entry", "zero-state", "state-above", "fraction", "float-2.0",
        "bool", "numpy-bool-in-stack", "ragged", "array-unfrozen-terminal", "array-one-entry",
        "array-3d", "array-zero-state", "float-array", "integral-float-array", "bool-array",
    ])
    def test_malformed_paths_are_rejected(self, path, problem):
        with pytest.raises(DomainError, match=problem):
            modulated_var_trajectory(GAUSSIAN_PAIR, REFERENCE_MATRIX, path, 0.99)
        with pytest.raises(DomainError, match=problem):
            modulated_cvar_trajectory(GAUSSIAN_PAIR, REFERENCE_MATRIX, path, [0.0, 0.0], 0.99)


class TestModulatedCvarTrajectory:
    def test_gaussian_branches_and_threshold(self):
        p = 0.95
        q = float(ndtri(p))
        models = [GaussianParams(0.0, 1.0), GaussianParams(0.0, 2.0)]
        path = (1, 2, 1, 1)
        sigbar_1 = float(np.array([1.0, 2.0]) @ REFERENCE_MATRIX.column(2))
        sigbar_2 = float(np.array([1.0, 2.0]) @ REFERENCE_MATRIX.column(1))
        # t=1 threshold: realized-parameter quantile of X_1 (state Z_2 = 1).
        below = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, path, [0.0, q - 0.01, 0.0], p
        )
        above = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, path, [0.0, q + 0.01, 0.0], p
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
        path = (1, 1, 1)
        c = (-math.log1p(-p)) ** (1.0 / alpha)
        col1 = REFERENCE_MATRIX.column(1)
        vbar = float(np.zeros(2) @ col1) + float(lam @ col1) * float(c @ col1)
        c0 = cvar_tail(WeibullParams(2.0, 1.1), p)
        # Threshold at t=1 is vbar + 2*C_0 (prediction plus carried value).
        eps = 1e-9
        below = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, path, [0.0, vbar + 2 * c0 - eps], p
        )
        above = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, path, [0.0, vbar + 2 * c0 + eps], p
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
        path = (1,) * (T + 2)
        big = [1e9] * (T + 1)
        modulated = modulated_cvar_trajectory(models, identity, path, big, p)
        plain = recursive_cvar(
            [WeibullParams(6.7679, 0.8016)] * (T + 1), p, CvarMode.PIECEWISE, realized_path=big
        )
        assert modulated == pytest.approx(plain, rel=1e-12)

    def test_returns_length_validated(self):
        with pytest.raises(DomainError):
            modulated_cvar_trajectory(
                [STANDARD_GAUSSIAN] * 2, REFERENCE_MATRIX, (1, 2, 2), [0.0], 0.99
            )


class TestStackedPaths:
    """A stack of paths gives, row by row, exactly what each path gives alone."""

    T = 6
    P = 0.95

    def stack(self, n_paths=5):
        paths = [simulate_path(REFERENCE_MATRIX, 1, self.T, seed) for seed in range(n_paths)]
        rng = np.random.default_rng(3)
        returns = rng.normal(0.0, 3.0, (n_paths, self.T + 1))
        return paths, np.array(paths), returns

    @pytest.mark.parametrize("models", [
        [GaussianParams(1.0, 0.5), GaussianParams(-2.0, 2.0)],
        [WeibullParams(2.0, 1.1), WeibullParams(3.0, 0.9)],
    ])
    def test_modulated_rows_match_single_paths(self, models):
        paths, states, returns = self.stack()
        var_rows = modulated_var_trajectory(models, REFERENCE_MATRIX, states, self.P)
        cvar_rows = modulated_cvar_trajectory(
            models, REFERENCE_MATRIX, states, returns, self.P
        )
        assert var_rows.shape == cvar_rows.shape == (len(paths), self.T + 1)
        for i, path in enumerate(paths):
            args = (models, REFERENCE_MATRIX, path)
            assert var_rows[i].tolist() == modulated_var_trajectory(*args, self.P)
            assert cvar_rows[i].tolist() == modulated_cvar_trajectory(*args, returns[i], self.P)

    @pytest.mark.parametrize("mode", [CvarMode.PIECEWISE, CvarMode.EXACT])
    def test_recursive_cvar_rows_match_single_paths(self, mode):
        _, states, returns = self.stack()
        models = [GaussianParams(1.0, 0.5), GaussianParams(-2.0, 2.0)]
        index = states[:, 1:] - 1
        rows = recursive_cvar(models, self.P, mode, returns, states=index)
        for i in range(len(states)):
            single = recursive_cvar([models[k] for k in index[i]], self.P, mode, returns[i])
            assert rows[i].tolist() == single

    def test_closed_form_rows_match_single_paths(self):
        rng = np.random.default_rng(4)
        mus, sigmas = rng.normal(0.0, 5.0, (3, 5)), rng.uniform(0.5, 2.0, (3, 5))
        rows = recursive_var_gaussian_closed(mus, sigmas, self.P)
        lams, alphas, thetas = rng.uniform(1.0, 3.0, (3, 3, 5))
        weibull_rows = recursive_var_weibull_closed(lams, alphas, thetas, self.P)
        for i in range(3):
            assert rows[i].tolist() == recursive_var_gaussian_closed(mus[i], sigmas[i], self.P)
            assert weibull_rows[i].tolist() == recursive_var_weibull_closed(
                lams[i], alphas[i], thetas[i], self.P
            )

    def test_stacks_are_validated(self):
        _, states, returns = self.stack()
        models = [STANDARD_GAUSSIAN] * 2
        bad = states.copy()
        bad[0, -1] = 3 - bad[0, -2]
        with pytest.raises(DomainError):
            modulated_var_trajectory(models, REFERENCE_MATRIX, bad, 0.9)
        with pytest.raises(DomainError):
            modulated_cvar_trajectory(models, REFERENCE_MATRIX, states, returns[:-1], 0.9)
        with pytest.raises(DomainError, match="must be integers"):
            modulated_cvar_trajectory(
                models, REFERENCE_MATRIX, states.astype(float), returns, 0.9
            )
        with pytest.raises(DomainError):
            recursive_cvar(
                [GaussianParams(0.0, 1.0)], 0.9, CvarMode.PIECEWISE, returns,
                states=states[:, 1:] - 1,
            )


GAUSSIAN_PAIR = [GaussianParams(1.0, 0.5), GaussianParams(-2.0, 2.0)]

#: Each trajectory function on one path of ``T + 1`` periods, given ``T``
#: and that many realized returns.
TRAJECTORIES = {
    recursive_risk_generic: lambda T, r: recursive_risk_generic(
        [STANDARD_GAUSSIAN] * (T + 1), VAR_99
    ),
    recursive_var_gaussian_closed: lambda T, r: recursive_var_gaussian_closed(
        r, np.ones(T + 1), 0.99
    ),
    recursive_var_weibull_closed: lambda T, r: recursive_var_weibull_closed(
        np.ones(T + 1), np.ones(T + 1), r, 0.99
    ),
    recursive_cvar: lambda T, r: recursive_cvar(
        [STANDARD_GAUSSIAN] * (T + 1), 0.99, CvarMode.PIECEWISE, r
    ),
    modulated_var_trajectory: lambda T, r: modulated_var_trajectory(
        GAUSSIAN_PAIR, REFERENCE_MATRIX, simulate_path(REFERENCE_MATRIX, 1, T, seed=T), 0.99
    ),
    modulated_cvar_trajectory: lambda T, r: modulated_cvar_trajectory(
        GAUSSIAN_PAIR, REFERENCE_MATRIX, simulate_path(REFERENCE_MATRIX, 1, T, seed=T), r, 0.99
    ),
}

STACK = simulate_path(REFERENCE_MATRIX, 1, 6, seed=0, n_paths=5)
#: Four per-period inputs of the five paths of ``STACK``, and the 0-based
#: model index of each priced period.
PERIODS = np.random.default_rng(8).uniform(0.5, 2.0, (4, 5, 7))
INDEX = STACK[:, 1:] - 1


def _recursive_cvar_rows(rows):
    if rows == 0:
        models = [GAUSSIAN_PAIR[k] for k in INDEX[0]]
        return recursive_cvar(models, 0.95, CvarMode.PIECEWISE, PERIODS[3][0])
    return recursive_cvar(GAUSSIAN_PAIR, 0.95, CvarMode.PIECEWISE, PERIODS[3], states=INDEX)


#: Each function on path 0 (``rows = 0``) or on the whole stack
#: (``rows = slice(None)``).  ``simulate_path`` draws one path or five.
ONE_OR_MANY = {
    recursive_var_gaussian_closed: lambda rows: recursive_var_gaussian_closed(
        PERIODS[0][rows], PERIODS[1][rows], 0.95
    ),
    recursive_var_weibull_closed: lambda rows: recursive_var_weibull_closed(
        PERIODS[0][rows], PERIODS[1][rows], PERIODS[2][rows], 0.95
    ),
    recursive_cvar: _recursive_cvar_rows,
    modulated_var_trajectory: lambda rows: modulated_var_trajectory(
        GAUSSIAN_PAIR, REFERENCE_MATRIX, STACK[rows], 0.95
    ),
    modulated_cvar_trajectory: lambda rows: modulated_cvar_trajectory(
        [WeibullParams(2.0, 1.1), WeibullParams(3.0, 0.9)], REFERENCE_MATRIX, STACK[rows],
        PERIODS[3][rows], 0.95,
    ),
    simulate_path: lambda rows: simulate_path(
        REFERENCE_MATRIX, 1, 6, 0, n_paths=None if rows == 0 else 5
    ),
}

#: Inputs that disagree on the ``(n_paths, T + 1)`` shape, with both shapes.
MISMATCHED = {
    "mus against sigmas": (
        lambda: recursive_var_gaussian_closed([0.0, 1.0, 2.0], [1.0, 1.0], 0.99),
        "(1, 3)", "(1, 2)",
    ),
    "thetas against lambdas": (
        lambda: recursive_var_weibull_closed(
            np.ones((2, 3)), np.ones((2, 3)), np.zeros((3, 3)), 0.99
        ),
        "(2, 3)", "(3, 3)",
    ),
    "realized against models": (
        lambda: recursive_cvar([STANDARD_GAUSSIAN] * 3, 0.99, CvarMode.PIECEWISE, [0.0, 0.0]),
        "(1, 3)", "(1, 2)",
    ),
    "realized against states": (
        lambda: recursive_cvar(
            GAUSSIAN_PAIR, 0.99, CvarMode.PIECEWISE, np.zeros((4, 3)),
            states=np.zeros((4, 4), dtype=int),
        ),
        "(4, 4)", "(4, 3)",
    ),
    "chain path against returns": (
        lambda: modulated_cvar_trajectory(
            GAUSSIAN_PAIR, REFERENCE_MATRIX, (1, 2, 2), [0.0, 0.0, 0.0], 0.99
        ),
        "(1, 2)", "(1, 3)",
    ),
    "chain stack against returns": (
        lambda: modulated_cvar_trajectory(
            GAUSSIAN_PAIR, REFERENCE_MATRIX, STACK, np.zeros((4, 7)), 0.99
        ),
        "(5, 7)", "(4, 7)",
    ),
}


class TestShapesCarryTheHorizon:
    """No trajectory function takes the horizon: it is read off the inputs."""

    @pytest.mark.parametrize("T", [0, 1, 5])
    @pytest.mark.parametrize("fn", list(TRAJECTORIES), ids=lambda fn: fn.__name__)
    def test_one_value_per_period(self, fn, T):
        assert not {"T", "horizon"} & set(inspect.signature(fn).parameters)
        returns = np.random.default_rng(T).normal(0.0, 3.0, T + 1)
        out = TRAJECTORIES[fn](T, returns)
        assert isinstance(out, list) and len(out) == T + 1

    @pytest.mark.parametrize("fn", list(ONE_OR_MANY), ids=lambda fn: fn.__name__)
    def test_one_path_or_a_stack(self, fn):
        # One path gives a list (simulate_path: a 1-D array); a
        # stack gives an array whose row 0 is that path's result bit for bit.
        one, stack = ONE_OR_MANY[fn](0), ONE_OR_MANY[fn](slice(None))
        width = 8 if fn is simulate_path else 7
        if fn is simulate_path:
            assert isinstance(one, np.ndarray) and one.shape == (width,)
        else:
            assert isinstance(one, list) and len(one) == width
        assert isinstance(stack, np.ndarray) and stack.shape == (5, width)
        assert stack[0].tobytes() == np.array(one, dtype=stack.dtype).tobytes()

    @pytest.mark.parametrize("case", list(MISMATCHED))
    def test_disagreeing_shapes_name_both(self, case):
        call, first, second = MISMATCHED[case]
        with pytest.raises(DomainError, match="differ in shape") as excinfo:
            call()
        assert first in str(excinfo.value) and second in str(excinfo.value)

    @pytest.mark.parametrize("call", [
        lambda: recursive_risk_generic([], VAR_99),
        lambda: recursive_var_gaussian_closed([], [], 0.99),
        lambda: recursive_var_weibull_closed([], [], [], 0.99),
        lambda: recursive_cvar([], 0.99),
        lambda: modulated_var_trajectory(
            GAUSSIAN_PAIR, REFERENCE_MATRIX, np.ones((3, 1), dtype=int), 0.99
        ),
        lambda: modulated_cvar_trajectory(
            GAUSSIAN_PAIR, REFERENCE_MATRIX, np.ones((3, 1), dtype=int), np.zeros((3, 0)), 0.99
        ),
    ])
    def test_no_periods_rejected(self, call):
        with pytest.raises(DomainError):
            call()
