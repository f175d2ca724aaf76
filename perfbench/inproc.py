"""Workloads that call riskflow inside the benchmark process.

``paths-gaussian`` and ``paths-weibull`` run the bundled reference studies as
1000-path experiments, each followed by single-path studies of the size the
``reproduce`` command runs.  ``validate`` runs the independent-check pass:
static and dynamic axiom checks, the variational CVaR against the tail
formula on a grid of distinct models, and calibration on large samples.

Every call into the package goes through a module attribute at call time
(``scenario.run_experiment``), so a :class:`tracing.Tracer` sees it.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
from pathlib import Path

import numpy as np

from common import Op, clocks, derive, reference_loop_ms, since
from riskflow import axioms, distributions, scenario, static_risk
from riskflow.dynamic_risk import VectorialMeasure
from riskflow.markov import TransitionMatrix
from tracing import Tracer

#: The ROADMAP's baseline study size.
STUDY_PATHS = 1000
#: Single-path studies after each 1000-path study; enough for a p90 with
#: ten or more samples beyond it in one run.
SINGLES_PER_ROUND = 20

#: The validation pass, sized to take well under a second at the seed commit.
STATIC_TRIALS = 400
GRID_MODELS = 40
FIT_DRAWS = 100_000
AXIOM_P = 0.95
DYNAMIC_AXIOMS = ("D1", "D2", "D4", "D5")
CHAIN_ROWS = ((0.25, 0.75), (0.35, 0.65))


class _InProcess:
    """Tracing and per-layer figures shared by the in-process workloads."""

    #: What ``op_cost_p50`` is measured in: see :func:`common.reference_loop_ms`.
    reference = "python-loop"
    reference_ms = staticmethod(reference_loop_ms)
    #: Share of the run spent on the reference; each sample varies by a few %.
    ref_share = 0.08

    def __init__(self) -> None:
        # Off only in the probes that time set-up and measure peak memory.
        self.check = True
        self.tracer = Tracer()
        self.tracing = False
        # Written by emit_trajectories while the tracer is installed: bytes,
        # and CSV cells in numpy scalar repr (see oracles._NUMPY_REPR).
        self.emitted_bytes = 0
        self.numpy_repr_cells = 0

    def trace_on(self) -> None:
        self.tracer.install()
        self.tracing = True

    def trace_off(self) -> None:
        self.tracer.uninstall()
        self.tracing = False

    def verify(self) -> None:
        """Oracles run right after each operation here; nothing is left over."""

    def layer_metrics(self, traced_rounds: int) -> dict[str, float]:
        """Per-round span figures of the rounds run with the tracer installed."""
        spans, distinct_models = self.tracer.snapshot()
        out: dict[str, float] = {}
        for name, (calls, self_ns, total_ns) in spans.items():
            out[f"{name}.calls"] = calls // traced_rounds
            out[f"{name}.self_ms"] = self_ns / 1e6 / traced_rounds
            out[f"{name}.total_ms"] = total_ns / 1e6 / traced_rounds
        epp_calls, _, epp_total = spans["distributions.expected_positive_part"]
        out["distributions.expected_positive_part.us_per_call"] = (
            epp_total / 1e3 / epp_calls if epp_calls else 0.0
        )
        static_calls = spans["static_risk.var"][0] + spans["static_risk.cvar_tail"][0]
        # Inputs repeat in every traced round, so the distinct set is one round's.
        out["static_risk.distinct_model_ratio"] = (
            distinct_models / (static_calls // traced_rounds) if static_calls else 0.0
        )
        ru_calls = spans["static_risk.cvar_ru"][0]
        out["static_risk.ru_objective.calls_per_cvar_ru"] = (
            spans["static_risk.ru_objective"][0] / ru_calls if ru_calls else 0.0
        )
        out["scenario.emit_trajectories.bytes"] = self.emitted_bytes // traced_rounds
        out["scenario.emit_trajectories.numpy_repr_cells"] = self.numpy_repr_cells // traced_rounds
        # A span the package no longer defines reads 0; this says so.
        out["tracing.unresolved_spans"] = len(self.tracer.missing)
        return out


class PathStudies(_InProcess):
    """A bundled reference study run as 1000-path and single-path experiments."""

    primary_kinds = ("study",)

    def __init__(self, study: str, seed: int, work_dir: Path) -> None:
        super().__init__()
        self.base = scenario.build_reference_experiment(study)
        self.family = self.base.family.value
        self.state_params = [
            {key: values[i] for key, values in self.base.params.items()}
            for i in range(self.base.n_states)
        ]
        self.seed = seed
        self.csv_path = work_dir / "trajectories.csv"

    def _config(self, n_paths: int, *keys: object):
        return dataclasses.replace(self.base, n_paths=n_paths, seed=derive(self.seed, *keys))

    def inputs(self, r: int) -> list[tuple[str, object]]:
        """Round ``r``: one 1000-path study, then the single-path studies."""
        return [("study", self._config(STUDY_PATHS, r, 0))] + [
            ("single", self._config(1, r, j)) for j in range(1, SINGLES_PER_ROUND + 1)
        ]

    def warm_up(self) -> None:
        op = self._study("single", self._config(1, "warm-up"))
        if op.failures:
            raise RuntimeError(f"warm-up failed: {op.failures}")

    def run(self, inputs: list[tuple[str, object]]) -> list[Op]:
        return [self._study(kind, config) for kind, config in inputs]

    def layer_metrics(self, traced_rounds: int) -> dict[str, float]:
        out = super().layer_metrics(traced_rounds)
        out["scenario.default_workers.extra_frac"] = self._default_workers_extra()
        return out

    def _default_workers_extra(self) -> float:
        """Round 0's study with the program's default worker count, timed
        against the same study with the one worker the benchmark sets:
        default over one, minus 1, untraced and unchecked."""
        config = self.inputs(0)[0][1]
        pinned = os.environ.pop("RISKFLOW_THREADS", None)
        try:
            default_ms = self._study_wall_ms(config)
            os.environ["RISKFLOW_THREADS"] = "1"
            one_ms = self._study_wall_ms(config)
        finally:
            os.environ.pop("RISKFLOW_THREADS", None)
            if pinned is not None:
                os.environ["RISKFLOW_THREADS"] = pinned
        return default_ms / one_ms - 1.0

    @staticmethod
    def _study_wall_ms(config) -> float:
        gc.collect()
        start = clocks()
        scenario.run_experiment(config)
        return since(start)[0]

    def _study(self, kind: str, config) -> Op:
        if kind == "study":
            gc.collect()  # start each large study from the same heap, untimed
        start = clocks()
        try:
            paths, stats = scenario.run_experiment(config)
            scenario.emit_trajectories(paths, "csv", self.csv_path)
            summary = json.dumps(stats.to_json_dict(), sort_keys=True)
        except Exception as exc:  # a failed operation is counted, not fatal
            return Op(kind, *since(start), [f"{kind} raised {exc!r}"])
        op = Op(kind, *since(start))
        if not self.check:
            return op
        import oracles  # keeps scipy.stats out of the probes

        op.failures, numpy_reprs = oracles.check_study(
            self.family, self.state_params, config.p, config.horizon,
            config.n_paths, paths, summary, str(self.csv_path),
        )
        if self.tracing:
            self.emitted_bytes += os.path.getsize(self.csv_path)
            self.numpy_repr_cells += numpy_reprs
        return op


class Validation(_InProcess):
    """The independent-check pass; every model and threshold is new."""

    primary_kinds = ("pass",)

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__()
        self.seed = seed
        spec = static_risk.RiskMeasureSpec(
            static_risk.MeasureKind.VAR, AXIOM_P, static_risk.Orientation.LOWER_TAIL
        )
        self.static_specs = {
            kind.value: static_risk.RiskMeasureSpec(kind, AXIOM_P, static_risk.Orientation.LOWER_TAIL)
            for kind in static_risk.MeasureKind
        }
        self.dynamic_measures = {
            "recursive-var": axioms.RecursiveFiniteMeasure(spec),
            "modulated-var": axioms.ModulatedFiniteMeasure(
                VectorialMeasure((spec, spec)), TransitionMatrix.from_rows(CHAIN_ROWS), initial_state=1
            ),
        }

    def inputs(self, r: object) -> dict[str, object]:
        rng = np.random.default_rng(derive(self.seed, "pass", r))
        grid = []
        for _ in range(GRID_MODELS):
            grid.append(("gaussian", {"mu": rng.uniform(-50.0, 50.0), "sigma": rng.uniform(0.5, 20.0)}))
            # Shapes around the fitted reference shape (0.8016).
            grid.append(("weibull", {
                "lambda": rng.uniform(0.5, 10.0), "alpha": rng.uniform(0.5, 2.0),
                "theta": rng.uniform(-5.0, 5.0),
            }))
        grid = [(family, {k: float(v) for k, v in params.items()}, float(rng.uniform(0.9, 0.995)))
                for family, params in grid]
        gauss = {"mu": float(rng.uniform(-10.0, 10.0)), "sigma": float(rng.uniform(0.5, 5.0))}
        weib = {"lambda": float(rng.uniform(1.0, 10.0)), "alpha": float(rng.uniform(0.5, 2.0))}
        return {
            "static_seeds": {kind: int(rng.integers(2**32)) for kind in self.static_specs},
            "dynamic": {
                axiom: (
                    int(rng.integers(2**32)),
                    axioms.bundled_pair_processes(
                        axiom, orientation=static_risk.Orientation.LOWER_TAIL,
                        seed=int(rng.integers(2**32)),
                    ),
                )
                for axiom in DYNAMIC_AXIOMS
            },
            "grid": [(f, params, p, distributions.model_from_params(f, params)) for f, params, p in grid],
            "fit": {
                "gaussian": (gauss, rng.normal(gauss["mu"], gauss["sigma"], FIT_DRAWS)),
                "weibull": (weib, weib["lambda"] * rng.weibull(weib["alpha"], FIT_DRAWS)),
            },
        }

    def warm_up(self) -> None:
        op = self.run(self.inputs("warm-up"))[0]
        if op.failures:
            raise RuntimeError(f"warm-up failed: {op.failures}")

    def run(self, inputs: dict[str, object]) -> list[Op]:
        gc.collect()  # start each pass from the same heap, untimed
        start = clocks()
        try:
            verdicts: dict[str, dict[str, str]] = {}
            for kind, spec in self.static_specs.items():
                verdicts[kind] = {
                    axiom.value: axioms.check_static_axiom(
                        axiom, spec, trials=STATIC_TRIALS, seed=inputs["static_seeds"][kind]
                    ).verdict.value
                    for axiom in axioms.StaticAxiom
                }
            for name, measure in self.dynamic_measures.items():
                verdicts[name] = {
                    axiom: axioms.check_dynamic_axiom(axiom, measure, pairs, seed=seed).verdict.value
                    for axiom, (seed, pairs) in inputs["dynamic"].items()
                }
            values = [
                (static_risk.var(model, p), static_risk.cvar_tail(model, p), static_risk.cvar_ru(model, p))
                for _, _, p, model in inputs["grid"]
            ]
            fits = {
                "gaussian": scenario.fit_gaussian(inputs["fit"]["gaussian"][1]),
                "weibull": scenario.fit_weibull(inputs["fit"]["weibull"][1]),
            }
        except Exception as exc:  # a failed operation is counted, not fatal
            return [Op("pass", *since(start), [f"pass raised {exc!r}"])]
        op = Op("pass", *since(start))
        if not self.check:
            return [op]
        import oracles  # keeps scipy.stats out of the probes

        for measure, found in verdicts.items():
            op.failures += oracles.check_verdicts(measure, found)
        for (family, params, p, _), (v, c, ru) in zip(inputs["grid"], values):
            op.failures += oracles.check_static(family, params, p, v, c, ru)
        for family, (params, draws) in inputs["fit"].items():
            fitted = distributions.model_params_dict(fits[family])
            op.failures += oracles.check_fit(family, params, fitted, len(draws))
        return [op]


WORKLOADS = {
    "paths-gaussian": lambda seed, work_dir: PathStudies("gaussian_msci", seed, work_dir),
    "paths-weibull": lambda seed, work_dir: PathStudies("weibull_bbgex", seed, work_dir),
    "validate": Validation,
}
