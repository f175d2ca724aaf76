"""Differential test: the engine reproduces recorded output bytes.

``engine_digests.json`` was recorded with the per-path engine that preceded
the array engine; see ``engine_digests.py`` for the grid and how to
regenerate it.  The 352 keys of exact-mode CVaR runs (``*/exact/cvar/*`` and
``*/exact/var+cvar/*``) were re-recorded when exact recursive CVaR became
the alternating sum of the static CVaR column: translation invariance
telescopes ``C_t = cvar(X_t - C_{t-1})`` to ``sum_k (-1)**(t-k) cvar(X_k)``,
and the sum differs from the stepwise shifted evaluation by a few ulp (at
most 9.1e-13 on values up to 2.3e3 in the 1000-path reference studies), so
340 of those digests moved.  The other 704 keys are as first recorded.
"""

import json
from collections import defaultdict

import numpy as np
import pytest

from engine_digests import DIGESTS_PATH, digest, grid
from riskflow.dynamic_risk import CvarMode, _alternating_sum, recursive_risk_generic
from riskflow.scenario import run_experiment
from riskflow.static_risk import MeasureKind, RiskMeasureSpec

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
