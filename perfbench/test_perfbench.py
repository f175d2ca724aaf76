"""Tests of the benchmark itself: its oracles, its determinism and its tracer.

From the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
Workload sizes are shrunk with ``monkeypatch`` so that the same code runs
in a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from statistics import median

import numpy as np
import pytest

import cli_cold
import inproc
import oracles
import run
from common import BENCH_DIR, ROOT, Op, derive
from riskflow import scenario, static_risk
from riskflow.distributions import GaussianParams, WeibullParams
from tracing import SPANS, Tracer

GAUSS = {"mu": 1.5, "sigma": 2.0}
WEIB = {"lambda": 6.7679, "alpha": 0.8016, "theta": 0.0}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inproc, "STUDY_PATHS", 12)
    monkeypatch.setattr(inproc, "SINGLES_PER_ROUND", 2)
    monkeypatch.setattr(inproc, "STATIC_TRIALS", 20)
    monkeypatch.setattr(inproc, "GRID_MODELS", 2)
    monkeypatch.setattr(inproc, "FIT_DRAWS", 5000)
    monkeypatch.setattr(cli_cold, "IMPORT_PROBES", 1)


def _traced_round(workload):
    ops, overhead, rounds = run._traced_loop(workload, seconds=0.0)
    workload.verify()
    return ops, workload.layer_metrics(rounds)


# --------------------------------------------------------------------------
# Every oracle flags a perturbed value
# --------------------------------------------------------------------------


@pytest.mark.parametrize("family,params,model", [
    ("gaussian", GAUSS, GaussianParams(GAUSS["mu"], GAUSS["sigma"])),
    ("weibull", WEIB, WeibullParams(WEIB["lambda"], WEIB["alpha"], WEIB["theta"])),
])
def test_static_oracles_flag_perturbed_values(family, params, model):
    p = 0.99
    v, c, ru = static_risk.var(model, p), static_risk.cvar_tail(model, p), static_risk.cvar_ru(model, p)
    assert oracles.check_static(family, params, p, v, c, ru) == []
    assert oracles.check_static(family, params, p, var=v * (1 + 1e-7))
    assert oracles.check_static(family, params, p, cvar=c * (1 + 1e-5))
    assert oracles.check_static(family, params, p, cvar=c, cvar_ru=c * (1 + 1e-5))


def test_cli_precision_still_flags_a_wrong_digit():
    v = oracles.static_var("gaussian", GAUSS, 0.99)
    printed = float(f"{v:.10g}")
    assert oracles.check_static("gaussian", GAUSS, 0.99, var=printed, rtol_floor=oracles.CLI_RTOL) == []
    assert oracles.check_static("gaussian", GAUSS, 0.99, var=printed * (1 + 1e-7), rtol_floor=oracles.CLI_RTOL)


def test_telescoping_oracle_flags_a_perturbed_step():
    static = np.array([[3.0, 4.0, 5.0]])
    recursive = np.array([[3.0, 1.0, 4.0]])
    assert oracles.check_telescoping(static, recursive) == []
    recursive[0, 2] *= 1 + 1e-8
    assert oracles.check_telescoping(static, recursive)


def _study(tmp_path, study="gaussian_msci", n_paths=4):
    config = dataclasses.replace(scenario.build_reference_experiment(study), n_paths=n_paths, seed=7)
    paths, stats = scenario.run_experiment(config)
    csv_path = tmp_path / "t.csv"
    scenario.emit_trajectories(paths, "csv", csv_path)
    states = [{k: v[i] for k, v in config.params.items()} for i in range(config.n_states)]
    args = (config.family.value, states, config.p, config.horizon, n_paths)
    return args, paths, json.dumps(stats.to_json_dict(), sort_keys=True), csv_path


def test_study_oracle_passes_and_flags_each_perturbation(tmp_path):
    args, paths, summary, csv_path = _study(tmp_path)
    assert oracles.check_study(*args, paths, summary, str(csv_path)) == ([], 0)

    res = paths[1]
    bumped = list(res.var.static)
    bumped[3] *= 1 + 1e-6
    bad_paths = list(paths)
    bad_paths[1] = dataclasses.replace(res, var=dataclasses.replace(res.var, static=tuple(bumped)))
    failures, _ = oracles.check_study(*args, bad_paths, summary, str(csv_path))
    assert any("telescope" in f for f in failures)
    assert any("static var" in f for f in failures)

    bumped = list(res.cvar.static)
    bumped[0] *= 1 + 1e-4
    bad_paths[1] = dataclasses.replace(res, cvar=dataclasses.replace(res.cvar, static=tuple(bumped)))
    assert any("static cvar" in f for f in oracles.check_study(*args, bad_paths, summary, str(csv_path))[0])

    data = json.loads(summary)
    data["columns"]["modulated_var"]["mean"] *= 1 + 1e-6
    assert oracles.check_study(*args, paths, json.dumps(data), str(csv_path))[0]

    text = csv_path.read_text()
    first_value = text.splitlines()[1].split(",")[2]
    csv_path.write_text(text.replace(first_value, repr(float(first_value) * (1 + 1e-12)), 1))
    assert any("CSV column" in f for f in oracles.check_study(*args, paths, summary, str(csv_path))[0])


def test_numpy_repr_cells_are_counted_and_still_compared(tmp_path):
    args, paths, summary, csv_path = _study(tmp_path, n_paths=1)
    lines = csv_path.read_text().splitlines()
    cells = lines[1].split(",")
    lines[1] = ",".join(cells[:-1] + [f"np.float64({cells[-1]})"])
    csv_path.write_text("\n".join(lines) + "\n")
    assert oracles.check_study(*args, paths, summary, str(csv_path)) == ([], 1)
    lines[1] = ",".join(cells[:-1] + [f"np.float64({float(cells[-1]) + 1.0!r})"])
    csv_path.write_text("\n".join(lines) + "\n")
    assert oracles.check_study(*args, paths, summary, str(csv_path))[0]


def test_fit_oracle_flags_a_parameter_outside_tolerance():
    n = 100_000
    for family, params in (("gaussian", GAUSS), ("weibull", WEIB)):
        tolerances = oracles.fit_tolerances(family, params, n)
        assert oracles.check_fit(family, params, dict(params), n) == []
        for key, tol in tolerances.items():
            assert oracles.check_fit(family, params, {**params, key: params[key] + 1.01 * tol}, n)


def test_verdict_oracle_expects_only_var_subadditivity_to_fail():
    good = {"P1": "holds", "P2": "holds", "P3": "violated", "P4": "holds"}
    assert oracles.check_verdicts("var", good) == []
    assert oracles.check_verdicts("var", {**good, "P3": "holds"})
    assert oracles.check_verdicts("cvar", good)
    assert oracles.check_verdicts("modulated-var", {"D4": "violated"})


def test_cli_output_checks_flag_exit_codes_and_bad_output():
    expect = {"family": "gaussian", "params": GAUSS, "measure": "var", "p": 0.99}
    v = oracles.static_var("gaussian", GAUSS, 0.99)
    check = lambda kind, code, out, exp: cli_cold._check(oracles, kind, code, out, b"", exp, WEIB)  # noqa: E731
    assert check("risk", 0, f"{v:.10g}\n".encode(), expect) == []
    assert check("risk", 0, f"{v * 1.001:.10g}\n".encode(), expect)
    assert check("risk", 2, b"", expect)
    assert check("risk", 0, b"nan?\n", expect)
    lines = [{"axiom": a, "verdict": "holds"} for a in ("P1", "P2", "P3", "P4")]
    assert check("axioms", 0, "\n".join(map(json.dumps, lines)).encode(), {})
    lines[2]["verdict"] = "violated"
    assert check("axioms", 0, "\n".join(map(json.dumps, lines)).encode(), {}) == []
    fitted = {"family": "weibull", "params": {**WEIB, "alpha": WEIB["alpha"] * 1.5}}
    assert check("fit", 0, json.dumps(fitted).encode(), {})


# --------------------------------------------------------------------------
# Same seed, same inputs and same counts
# --------------------------------------------------------------------------


def test_derived_seeds_depend_on_seed_and_label():
    assert derive(1, "pass", 0) == derive(1, "pass", 0)
    assert len({derive(1, "pass", 0), derive(2, "pass", 0), derive(1, "pass", 1)}) == 3


def test_same_seed_gives_same_inputs(tmp_path, small):
    a, b, c = (inproc.PathStudies("weibull_bbgex", s, tmp_path) for s in (5, 5, 6))
    assert a.inputs(3) == b.inputs(3) != c.inputs(3)

    va, vb = inproc.Validation(5, tmp_path).inputs(2), inproc.Validation(5, tmp_path).inputs(2)
    assert [g[:3] for g in va["grid"]] == [g[:3] for g in vb["grid"]]
    assert va["static_seeds"] == vb["static_seeds"]
    for family in ("gaussian", "weibull"):
        assert np.array_equal(va["fit"][family][1], vb["fit"][family][1])

    first = cli_cold.CliCold(5, tmp_path)
    levels = first.levels_path.read_bytes()
    second = cli_cold.CliCold(5, tmp_path)
    assert second.levels_path.read_bytes() == levels
    assert first.inputs(1) == second.inputs(1) != second.inputs(2)


@pytest.mark.parametrize("name", ["paths-gaussian", "validate"])
def test_same_seed_gives_same_counts(tmp_path, small, name):
    units = {name: unit for name, unit, _ in run.PER_LAYER}
    counts = []
    for _ in range(2):
        workload = inproc.WORKLOADS[name](9, tmp_path)
        _, layers = _traced_round(workload)
        counts.append({k: v for k, v in layers.items() if units[k] in ("count", "bytes", "ratio")})
    assert counts[0] == counts[1]


# --------------------------------------------------------------------------
# The traced run reports every span on its workload
# --------------------------------------------------------------------------

PATH_SPANS = (
    "markov.simulate_path", "markov.one_step_linked_expectation", "distributions.sample",
    "static_risk.var", "static_risk.cvar_tail", "dynamic_risk.recursive_cvar",
    "dynamic_risk.modulated_var_trajectory", "dynamic_risk.modulated_cvar_trajectory",
    "scenario.run_experiment", "scenario.emit_trajectories",
)


def test_traced_paths_gaussian_never_calls_the_quadrature(tmp_path, small):
    ops, layers = _traced_round(inproc.WORKLOADS["paths-gaussian"](3, tmp_path))
    assert not [f for op in ops for f in op.failures]
    for span in PATH_SPANS + ("dynamic_risk.recursive_var_gaussian_closed",):
        assert layers[f"{span}.calls"] > 0, span
    assert layers["distributions.expected_positive_part.calls"] == 0
    assert layers["scenario.emit_trajectories.bytes"] > 0
    assert 0 < layers["static_risk.distinct_model_ratio"] < 0.05
    assert layers["scenario.default_workers.extra_frac"] > -1


def test_traced_paths_weibull_reports_the_quadrature(tmp_path, small):
    _, layers = _traced_round(inproc.WORKLOADS["paths-weibull"](3, tmp_path))
    for span in PATH_SPANS + (
        "dynamic_risk.recursive_var_weibull_closed", "distributions.expected_positive_part",
    ):
        assert layers[f"{span}.calls"] > 0, span
    assert layers["distributions.expected_positive_part.us_per_call"] > 0


def test_traced_validate_reports_its_spans(tmp_path, small):
    ops, layers = _traced_round(inproc.WORKLOADS["validate"](3, tmp_path))
    assert not [f for op in ops for f in op.failures]
    for span in (
        "static_risk.cvar_ru", "static_risk.ru_objective", "static_risk.var", "static_risk.cvar_tail",
        "distributions.expected_positive_part", "scenario.fit_gaussian", "scenario.fit_weibull",
        "axioms.check_static_axiom", "axioms.check_dynamic_axiom",
    ):
        assert layers[f"{span}.calls"] > 0, span
    assert layers["static_risk.ru_objective.calls_per_cvar_ru"] > 10
    assert layers["static_risk.distinct_model_ratio"] > 0.5


def test_traced_cli_cold_reports_each_subcommand_and_import(tmp_path, small):
    workload = cli_cold.CliCold(3, tmp_path)
    ops = workload.run(workload.inputs(0))
    workload.verify()
    layers = workload.layer_metrics(1)
    assert not [f for op in ops for f in op.failures]
    assert sorted(layers) == sorted(
        [f"cli.{name}.wall_ms" for name in cli_cold.SUBCOMMANDS]
        + ["import.riskflow.ms", "import.scipy.integrate.ms"]
        + [f"scenario.reference_bytes_match.{study}" for study in cli_cold.STUDIES]
    )
    assert workload.peak_rss_mb() > 0
    assert layers["import.riskflow.ms"] > 0
    assert {layers[f"scenario.reference_bytes_match.{s}"] for s in cli_cold.STUDIES} <= {0, 1}


def test_loops_fill_their_time_with_whole_rounds(tmp_path, small):
    workload = inproc.WORKLOADS["paths-gaussian"](3, tmp_path)
    per_round = 1 + inproc.SINGLES_PER_ROUND
    rounds, refs = run._closed_loop(workload, seconds=0.5)
    assert len(rounds) > 1 and all(len(ops) == per_round for ops in rounds)
    assert len(refs) >= run.REF_SAMPLES * (len(rounds) + 1)
    assert all(op.cpu_ms > 0 for ops in rounds for op in ops) and all(ms > 0 for ms in refs)
    studies = sorted(ops[0].cpu_ms for ops in rounds)
    assert run._typical_cpu_ms(rounds, workload.primary_kinds) == median(studies)
    _, _, traced_rounds = run._traced_loop(workload, seconds=0.5)
    assert traced_rounds > 1


def test_typical_operation_averages_each_commands_median():
    rounds = [
        [Op("risk", 0.0, cpu), Op("fit", 0.0, 10 * cpu), Op("warm", 0.0, 99.0)]
        for cpu in (1.0, 3.0, 2.0)
    ]
    assert run._typical_cpu_ms(rounds, ("risk", "fit")) == (2.0 + 20.0) / 2
    assert run._typical_cpu_ms(rounds, ("fit",)) == 20.0


def test_unresolved_spans_are_counted(tmp_path, small):
    workload = inproc.WORKLOADS["paths-gaussian"](3, tmp_path)
    _, layers = _traced_round(workload)
    assert layers["tracing.unresolved_spans"] == 0
    workload.tracer = Tracer(SPANS + ("scenario.no_such_function",))
    _, layers = _traced_round(workload)
    assert layers["tracing.unresolved_spans"] == 1


def test_tracer_restores_functions_and_counts_recursion_once():
    original = static_risk.cvar_tail
    tracer = Tracer(("static_risk.cvar_tail", "static_risk.var"))
    tracer.install()
    try:
        assert static_risk.cvar_tail is not original
        static_risk.cvar_tail(GaussianParams(0.5, 1.0), 0.9, static_risk.Orientation.LOWER_TAIL)
    finally:
        tracer.uninstall()
    assert static_risk.cvar_tail is original
    spans, distinct = tracer.snapshot()
    calls, self_ns, total_ns = spans["static_risk.cvar_tail"]
    assert calls == 2 and self_ns <= total_ns * 1.01 + 1000
    assert distinct == 2


# --------------------------------------------------------------------------
# The benchmark's own definition
# --------------------------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {f"{s}.calls" for s in SPANS} <= {m["name"] for m in bench["per_layer"]}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_baseline_layer_map_covers_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((BENCH_DIR / "baseline.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    assert list(baseline["workloads"]) == workloads
    mapped = [name for entry in baseline["layer_map"] for name in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    assert all(set(entry["workloads"]) <= set(workloads) for entry in baseline["layer_map"])


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
