"""Independent checks of riskflow's outputs.

Every check returns a list of failure messages (empty when the output is
right).  Reference values come from ``scipy.stats`` and ``scipy.special``
directly, never from riskflow, and are compared with tolerances rather than
bytes so that a last-bit change in a faster formula is not counted as a
failure.  Models are given as the benchmark generated them: a family name
and a parameter mapping with the keys riskflow's JSON surfaces use
(``mu``/``sigma`` or ``lambda``/``alpha``/``theta``).
"""

from __future__ import annotations

import functools
import io
import json
import math
import re
from typing import Mapping, Sequence

import numpy as np
from scipy import integrate, special, stats

#: Recursive VaR telescopes: ``R_t + R_{t-1} == static_t``.
TELESCOPE_RTOL = 1e-9
#: Quantiles from ``scipy.stats`` against riskflow's closed forms.
VAR_RTOL = 1e-9
#: Tail means, and the variational CVaR against the tail formula.  riskflow
#: integrates the Weibull tail numerically, and its quadrature can miss by a
#: few 1e-7: CVaR 8.66808812143292 against 8.668089798968658 (also mpmath's)
#: for lambda=2.793072430383293, alpha=1.3996983128919407,
#: theta=-0.14359866790571552, p=0.9820255701749334.  A closed form in its
#: place must not count as a change either, so the tolerance is quadrature
#: level; a wrong formula is off by far more.
CVAR_RTOL = 1e-6
RU_RTOL = 1e-6
#: Values the CLI prints with ten significant digits.
CLI_RTOL = 1e-8
#: Fitted parameters may miss the generating ones by this many standard errors.
FIT_SIGMAS = 6.0

#: Expected axiom verdicts: value-at-risk is not subadditive, all else holds.
EXPECTED_VIOLATIONS = {("var", "P3")}


def _off(value: float, expected: float, rtol: float, scale: float = 0.0) -> bool:
    return not abs(value - expected) <= rtol * max(abs(expected), scale)


def static_var(family: str, params: Mapping[str, float], p: float) -> float:
    if family == "gaussian":
        return float(stats.norm.ppf(p, loc=params["mu"], scale=params["sigma"]))
    return float(
        stats.weibull_min.ppf(
            p, params["alpha"], loc=params.get("theta", 0.0), scale=params["lambda"]
        )
    )


def _standard_tail_integrand(t: float) -> float:
    return t * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


@functools.lru_cache(maxsize=4096)
def _static_cvar(family: str, key: tuple[tuple[str, float], ...], p: float) -> float:
    params = dict(key)
    v = static_var(family, params, p)
    if family == "gaussian":
        # What stats.norm.expect(lambda x: x, lb=v, conditional=True) integrates,
        # in standard units and without its per-call overhead.
        z = (v - params["mu"]) / params["sigma"]
        tail, _ = integrate.quad(_standard_tail_integrand, z, math.inf, epsabs=0.0, epsrel=1e-12)
        return params["mu"] + params["sigma"] * tail / float(stats.norm.sf(z))
    lam, alpha = params["lambda"], params["alpha"]
    tail = lam * math.gamma(1.0 + 1.0 / alpha) * special.gammaincc(1.0 / alpha, -math.log1p(-p))
    return v + float(tail) / (1.0 - p)


def static_cvar(family: str, params: Mapping[str, float], p: float) -> float:
    """Upper-tail CVaR: the normal tail mean by numerical integration for
    Gaussian, ``v + lam*Gamma(1+1/alpha)*Q(1/alpha, -ln(1-p))/(1-p)`` for Weibull."""
    return _static_cvar(family, tuple(sorted(params.items())), float(p))


def _scale(family: str, params: Mapping[str, float]) -> float:
    return params["sigma"] if family == "gaussian" else params["lambda"]


def check_static(
    family: str,
    params: Mapping[str, float],
    p: float,
    var: float | None = None,
    cvar: float | None = None,
    cvar_ru: float | None = None,
    rtol_floor: float = 0.0,
) -> list[str]:
    """Static VaR, tail CVaR and variational CVaR of one model.

    ``rtol_floor`` loosens the tolerances to the precision a value was printed at.
    """
    failures = []
    scale = _scale(family, params)
    if var is not None:
        expected = static_var(family, params, p)
        if _off(var, expected, max(VAR_RTOL, rtol_floor), scale):
            failures.append(f"var {var!r} != {expected!r} ({family} {dict(params)} p={p})")
    if cvar is not None:
        expected = static_cvar(family, params, p)
        if _off(cvar, expected, max(CVAR_RTOL, rtol_floor), scale):
            failures.append(f"cvar {cvar!r} != {expected!r} ({family} {dict(params)} p={p})")
    if cvar_ru is not None and cvar is not None and _off(cvar_ru, cvar, RU_RTOL, scale):
        failures.append(f"cvar_ru {cvar_ru!r} != cvar_tail {cvar!r} ({family} {dict(params)} p={p})")
    return failures


def check_telescoping(static: np.ndarray, recursive: np.ndarray) -> list[str]:
    """``R_0 == static_0`` and ``R_t + R_{t-1} == static_t`` along axis 1."""
    lhs = np.concatenate([recursive[:, :1], recursive[:, 1:] + recursive[:, :-1]], axis=1)
    scale = np.maximum(np.abs(static), np.abs(recursive))
    bad = np.abs(lhs - static) > TELESCOPE_RTOL * np.maximum(scale, 1.0)
    if not bad.any():
        return []
    i, t = map(int, np.argwhere(bad)[0])
    return [f"recursive var does not telescope at path {i}, t={t}: {lhs[i, t]!r} != {static[i, t]!r}"]


#: A cell such as ``np.float64(61.3)``: riskflow writes ``repr`` of each float,
#: and a numpy scalar reaching the CSV prints like this under numpy 2.  At the
#: commit that introduced this benchmark the Weibull ``modulated_cvar`` column
#: is written this way.  The value inside is still compared exactly; the cells
#: are counted and reported rather than failed, so the count shows the defect
#: and its fix without making the reference study fail at that commit.
_NUMPY_REPR = re.compile(r"np\.float64\(([^)]*)\)")

_CSV_COLUMNS = (
    "static_var", "recursive_var", "modulated_var",
    "static_cvar", "recursive_cvar", "modulated_cvar",
)


def check_study(
    family: str,
    state_params: Sequence[Mapping[str, float]],
    p: float,
    horizon: int,
    n_paths: int,
    paths: Sequence[object],
    summary_json: str,
    csv_path: str,
) -> tuple[list[str], int]:
    """One experiment: its trajectories, the CSV written from them and the
    summary JSON.  ``state_params[i]`` are the parameters of chain state ``i+1``.

    Returns the failures and the number of CSV cells written as a numpy
    scalar repr (see :data:`_NUMPY_REPR`).
    """
    if len(paths) != n_paths:
        return [f"expected {n_paths} paths, got {len(paths)}"], 0
    T = horizon
    states = np.array([res.states for res in paths], dtype=int)
    if states.shape != (n_paths, T + 2) or states.min() < 1 or states.max() > len(state_params):
        return [f"chain states malformed: shape {states.shape}"], 0
    columns = {
        name: np.array([getattr(getattr(res, name.split("_")[1]), name.split("_")[0]) for res in paths])
        for name in _CSV_COLUMNS
    }
    failures = check_telescoping(columns["static_var"], columns["recursive_var"])

    # Period t is priced with the parameters of the state reached at t + 1.
    period_states = states[:, 1:]
    for i, params in enumerate(state_params):
        mask = period_states == i + 1
        if not mask.any():
            continue
        for kind, expected in (
            ("var", static_var(family, params, p)),
            ("cvar", static_cvar(family, params, p)),
        ):
            got = columns[f"static_{kind}"][mask]
            rtol = VAR_RTOL if kind == "var" else CVAR_RTOL
            worst = float(np.max(np.abs(got - expected)))
            if worst > rtol * max(abs(expected), _scale(family, params)):
                failures.append(f"static {kind} of state {i + 1} off by {worst!r} from {expected!r}")

    with open(csv_path, encoding="utf-8") as handle:
        text = handle.read()
    header = text.split("\n", 1)[0].split(",")
    # Counted apart from the failures: see numpy_repr_cells.
    numpy_reprs = len(_NUMPY_REPR.findall(text))
    try:
        table = np.loadtxt(io.StringIO(_NUMPY_REPR.sub(r"\1", text)), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return failures + [f"trajectory CSV does not parse: {exc}"], numpy_reprs
    expected_header = (["path"] if n_paths > 1 else []) + ["t", *_CSV_COLUMNS]
    if header != expected_header or table.shape != (n_paths * (T + 1), len(expected_header)):
        failures.append(f"trajectory CSV has header {header} and shape {table.shape}")
    else:
        for j, name in enumerate(_CSV_COLUMNS, start=len(expected_header) - len(_CSV_COLUMNS)):
            if not np.array_equal(table[:, j], columns[name].ravel()):
                failures.append(f"CSV column {name} differs from the returned trajectories")

    try:
        summary = json.loads(summary_json)
    except json.JSONDecodeError as exc:
        return failures + [f"summary JSON does not parse: {exc}"], numpy_reprs
    if summary.get("n_paths") != n_paths or summary.get("horizon") != T:
        failures.append(f"summary reports n_paths={summary.get('n_paths')}, horizon={summary.get('horizon')}")
    for name, values in columns.items():
        got = summary.get("columns", {}).get(name, {})
        want = {"min": float(values.min()), "max": float(values.max()), "mean": float(values.mean())}
        if any(k not in got or _off(got[k], v, 1e-9, 1.0) for k, v in want.items()):
            failures.append(f"summary column {name} is {got}, trajectories give {want}")
    return failures, numpy_reprs


def fit_tolerances(family: str, params: Mapping[str, float], n: int) -> dict[str, float]:
    """Allowed absolute error of each fitted parameter at sample size ``n``.

    Asymptotic maximum-likelihood standard errors: Gaussian ``sigma/sqrt(n)``
    for ``mu`` and ``sigma/sqrt(2n)`` for ``sigma``; Weibull ``0.78*alpha/sqrt(n)``
    for the shape and ``1.053*lam/(alpha*sqrt(n))`` for the scale.
    """
    root = math.sqrt(n)
    if family == "gaussian":
        se = {"mu": params["sigma"] / root, "sigma": params["sigma"] / math.sqrt(2 * n)}
    else:
        se = {
            "alpha": 0.78 * params["alpha"] / root,
            "lambda": 1.053 * params["lambda"] / (params["alpha"] * root),
        }
    return {k: FIT_SIGMAS * v for k, v in se.items()}


def check_fit(
    family: str, true_params: Mapping[str, float], fitted: Mapping[str, float], n: int
) -> list[str]:
    """A fit on ``n`` draws recovers the generating parameters."""
    failures = []
    for key, tol in fit_tolerances(family, true_params, n).items():
        got = fitted.get(key)
        if got is None or not abs(got - true_params[key]) <= tol:
            failures.append(
                f"{family} fit of {n} draws gave {key}={got!r}, generated with "
                f"{true_params[key]!r} (tolerance {tol:.3g})"
            )
    return failures


def check_verdicts(measure: str, verdicts: Mapping[str, str]) -> list[str]:
    """Axiom verdicts (``{"P1": "holds", ...}``) against the expected profile."""
    failures = []
    for axiom, verdict in verdicts.items():
        expected = "violated" if (measure, axiom) in EXPECTED_VIOLATIONS else "holds"
        if verdict != expected:
            failures.append(f"{measure} {axiom}: verdict {verdict!r}, expected {expected!r}")
    return failures
