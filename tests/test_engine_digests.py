"""Differential test: the engine reproduces recorded output bytes.

``engine_digests.json`` was recorded with the per-path engine that preceded
the array engine; see ``engine_digests.py`` for the grid and how to
regenerate it.  The 352 keys of exact-mode CVaR runs (``*/exact/cvar/*`` and
``*/exact/var+cvar/*``) were re-recorded when exact recursive CVaR became
the alternating sum of the static CVaR column: translation invariance
telescopes ``C_t = cvar(X_t - C_{t-1})`` to ``sum_k (-1)**(t-k) cvar(X_k)``,
and the sum differs from the stepwise shifted evaluation by a few ulp (at
most 9.1e-13 on values up to 2.3e3 in the 1000-path reference studies), so
340 of those digests moved.  The 112 keys of two-state Weibull CVaR runs
(``weibull/*/cvar/2-state/*`` and ``weibull/*/var+cvar/2-state/*``, 28 of
the 44 in each group) were re-recorded when the Weibull exceedance became a
closed form: static CVaR cells moved by at most 3 ulp, the recursions built
on them by at most 3.7e-15 relative (12 ulp in modulated CVaR, 30 ulp in
exact recursive CVaR where its alternating sum cancels), and no VaR cell or
Gaussian cell moved.  The 524 keys of Gaussian three-state runs (p = 0.95)
and of Weibull CVaR runs (``weibull/*/cvar/*`` and ``weibull/*/var+cvar/*``,
28 of the 44 in each two-state group and 37 in each three-state one) were
re-recorded when the package's normal quantile and incomplete gamma function
replaced scipy's ``ndtri`` and ``gammaincc``;
``test_cells_moved_at_most_32_ulp_from_the_scipy_formulas`` bounds every
cell against those functions.  Gaussian two-state runs (p = 0.99) and Weibull
VaR columns did not move.  Keys outside these groups are as first recorded.
"""

import json
from collections import defaultdict

import numpy as np
import pytest
from scipy.special import gammaincc, ndtri

from engine_digests import DIGESTS_PATH, digest, grid
from riskflow import distributions
from riskflow.dynamic_risk import CvarMode, _alternating_sum, recursive_risk_generic
from riskflow.scenario import run_experiment
from riskflow.static_risk import MeasureKind, RiskMeasureSpec, var

RECORDED = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
BY_CONFIG = defaultdict(list)
for _key, _config in grid():
    BY_CONFIG[_key.rsplit("/", 1)[0]].append((_key, _config))
EXACT_CVAR = sorted(
    name
    for name, runs in BY_CONFIG.items()
    if runs[0][1].cvar_mode is CvarMode.EXACT and "cvar" in runs[0][1].measures
)


def test_table_covers_the_grid():
    assert sorted(RECORDED) == sorted(key for key, _ in grid())


@pytest.mark.parametrize("config_key", sorted(BY_CONFIG))
def test_output_bytes_match_the_recorded_digests(config_key, tmp_path):
    mismatched = [
        key for key, config in BY_CONFIG[config_key] if digest(config, tmp_path) != RECORDED[key]
    ]
    assert not mismatched


@pytest.mark.parametrize("config_key", EXACT_CVAR)
def test_exact_recursive_cvar_is_the_telescoped_static_column(config_key):
    for _key, config in BY_CONFIG[config_key]:
        result, _ = run_experiment(config)
        column = result.cvar.recursive
        assert column.tobytes() == _alternating_sum(result.cvar.static).tobytes()
        # The stepwise shifted recursion, one path at a time, as the oracle.
        models = [config.state_model(s) for s in range(1, config.n_states + 1)]
        spec = RiskMeasureSpec(MeasureKind.CVAR, config.p)
        oracle = np.array([
            recursive_risk_generic([models[s - 1] for s in path[1:]], spec)
            for path in result.states.tolist()
        ])
        assert np.all(np.abs(column - oracle) <= 1e-12 * np.maximum(1.0, np.abs(column)))


#: How far a cell may move from the value of scipy's ``ndtri`` and
#: ``gammaincc``, in ulp of its scale (see the test); at most 25 measured.
MOVED_ULP = 32


def piecewise_gain(config, result):
    """``(n_paths, T + 1)`` product, over the periods up to ``t``, of the
    factor by which the piecewise recursive CVaR step multiplies a change in
    its previous value: ``2/(1 - p) - 1`` on the tail branch, 1 on the other."""
    models = [config.state_model(s) for s in range(1, config.n_states + 1)]
    period = result.states[:, 1:] - 1
    v = np.array([var(m, config.p) for m in models])[period]
    tail = np.zeros(period.shape, dtype=bool)
    tail[:, 1:] = result.returns[:, 1:] > v[:, 1:] - 2.0 * result.cvar.recursive[:, :-1]
    return np.cumprod(np.where(tail, 2.0 / (1.0 - config.p) - 1.0, 1.0), axis=1)


@pytest.mark.parametrize("config_key", sorted(BY_CONFIG))
def test_cells_moved_at_most_32_ulp_from_the_scipy_formulas(config_key, monkeypatch):
    # The table was re-recorded when the normal quantile and the incomplete
    # gamma function replaced scipy's.  With scipy's functions patched back
    # in, the engine computes what it computed before; each cell of the new
    # run lies within MOVED_ULP ulp of that value, where a cell's scale is
    # the larger of its own size and the largest static value of its measure
    # on its path, and the piecewise recursive CVaR scales that by its gain.
    # Gaussian 2-state runs (p = 0.99) and Weibull VaR columns move not at all.
    family, _, _, chain = config_key.split("/")[:4]
    for _key, config in BY_CONFIG[config_key]:
        result, _ = run_experiment(config)
        with monkeypatch.context() as patched:
            patched.setattr(distributions, "_normal_quantile", lambda p: float(ndtri(p)))
            patched.setattr(distributions, "_upper_gamma_q", lambda a, x: float(gammaincc(a, x)))
            before, _ = run_experiment(config)
        for name, column in result.columns().items():
            old = before.columns()[name]
            if (family, chain) == ("gaussian", "2-state") or (family, name[-4:]) == ("weibull", "_var"):
                assert column.tobytes() == old.tobytes(), name
                continue
            static = before.columns()["static_" + name.split("_")[1]]
            scale = np.maximum(np.abs(old), np.abs(static).max(axis=1, keepdims=True))
            if name == "recursive_cvar" and config.cvar_mode is CvarMode.PIECEWISE:
                scale *= piecewise_gain(config, before)
            assert np.all(np.abs(column - old) <= MOVED_ULP * np.spacing(scale)), name
