"""Command-line interface.

Subcommands::

    riskflow fit       --input data.csv --family weibull [--returns diff|ratio]
    riskflow risk      --family gaussian --params '{"mu":0,"sigma":1}' \
                       --measure var --p 0.99
    riskflow simulate  --config experiment.json
    riskflow reproduce --study gaussian|weibull [--output FILE]
    riskflow axioms    --measure var|cvar|recursive-var [--trials N] [--seed S]

stdout carries only machine-parseable output (JSON objects, JSON lines, or a
bare number); progress and diagnostics go to stderr.  Exit codes: 0 success,
1 axiom verdicts differ from the expected profile, 2 invalid input or
configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

from .axioms import (
    DynamicAxiom,
    RecursiveFiniteMeasure,
    StaticAxiom,
    Verdict,
    bundled_pair_processes,
    check_dynamic_axiom,
    check_static_axiom,
)
from .distributions import model_from_params, model_params_dict
from .errors import ConfigError, DataError, DomainError, NumericError
from .scenario import (
    ReferenceStudy,
    build_reference_experiment,
    config_from_json,
    emit_trajectories,
    fit_gaussian,
    fit_weibull,
    load_returns,
    run_experiment,
)
from .static_risk import (
    MeasureKind,
    Orientation,
    RiskMeasureSpec,
    evaluate,
)

log = logging.getLogger("riskflow")

_AXIOM_P = 0.95
_DYNAMIC_AXIOMS = (
    DynamicAxiom.D1,
    DynamicAxiom.D2,
    DynamicAxiom.D4,
    DynamicAxiom.D5,
)
_EXPECTED_VERDICTS: dict[str, dict[str, Verdict]] = {
    # VaR is not subadditive (P3).
    "var": {a.value: Verdict.HOLDS for a in StaticAxiom} | {"P3": Verdict.VIOLATED},
    "cvar": {a.value: Verdict.HOLDS for a in StaticAxiom},
    "recursive-var": {a.value: Verdict.HOLDS for a in _DYNAMIC_AXIOMS},
}


def _cmd_fit(args: argparse.Namespace) -> int:
    returns = load_returns(args.input, args.returns)
    log.info("loaded %d returns from %s (%s)", len(returns), args.input, args.returns)
    if args.family == "gaussian":
        model = fit_gaussian(returns)
    else:
        model = fit_weibull(returns)
    print(json.dumps({"family": args.family, "params": model_params_dict(model)}))
    return 0


def _cmd_risk(args: argparse.Namespace) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise DataError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise DataError("--params must be a JSON object")
    model = model_from_params(args.family, params)
    value = evaluate(model, RiskMeasureSpec(MeasureKind(args.measure), args.p))
    print(f"{value:.10g}")
    return 0


def _emit_format(path: str) -> str:
    return "json" if Path(path).suffix.lower() == ".json" else "csv"


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    config = config_from_json(text)
    result, stats = run_experiment(config)
    if config.output is not None:
        emit_trajectories(result, _emit_format(config.output), config.output)
        log.info("wrote trajectories to %s", config.output)
    print(json.dumps(stats.to_json_dict(), sort_keys=True))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    study = (
        ReferenceStudy.GAUSSIAN_MSCI
        if args.study == "gaussian"
        else ReferenceStudy.WEIBULL_BBGEX
    )
    config = build_reference_experiment(study)
    output = args.output or f"riskflow_{args.study}_trajectories.csv"
    result, stats = run_experiment(config)
    emit_trajectories(result, _emit_format(output), output)
    log.info("wrote %s trajectories to %s", args.study, output)
    print(json.dumps(stats.to_json_dict(), sort_keys=True))
    return 0


def _axiom_reports(measure: str, trials: int, seed: int):
    kind = MeasureKind.VAR if measure == "recursive-var" else MeasureKind(measure)
    spec = RiskMeasureSpec(kind, _AXIOM_P, Orientation.LOWER_TAIL)
    if measure in ("var", "cvar"):
        return [check_static_axiom(axiom, spec, trials=trials, seed=seed) for axiom in StaticAxiom]
    return [
        check_dynamic_axiom(
            axiom,
            RecursiveFiniteMeasure(spec),
            bundled_pair_processes(axiom, orientation=Orientation.LOWER_TAIL, seed=seed),
            seed=seed,
        )
        for axiom in _DYNAMIC_AXIOMS
    ]


def _cmd_axioms(args: argparse.Namespace) -> int:
    reports = _axiom_reports(args.measure, args.trials, args.seed)
    expected = _EXPECTED_VERDICTS[args.measure]
    ok = True
    for report in reports:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        if report.verdict is not expected[report.axiom]:
            ok = False
            log.warning(
                "axiom %s: verdict %s, expected %s",
                report.axiom,
                report.verdict.value,
                expected[report.axiom].value,
            )
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskflow",
        description="Static, recursive and Markov-modulated market risk measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="calibrate a return model from a level series")
    fit.add_argument("--input", required=True, help="CSV with header date,value")
    fit.add_argument("--family", required=True, choices=("gaussian", "weibull"))
    fit.add_argument(
        "--returns",
        default="diff",
        choices=("diff", "ratio"),
        help="turn levels into returns by difference or ratio",
    )
    fit.set_defaults(handler=_cmd_fit)

    risk = sub.add_parser("risk", help="evaluate one static risk measure")
    risk.add_argument("--family", required=True, choices=("gaussian", "weibull"))
    risk.add_argument("--params", required=True, help="model parameters as JSON")
    risk.add_argument("--measure", required=True, choices=("var", "cvar"))
    risk.add_argument("--p", required=True, type=float, help="confidence level in (0,1)")
    risk.set_defaults(handler=_cmd_risk)

    simulate = sub.add_parser("simulate", help="run an experiment from a JSON config")
    simulate.add_argument("--config", required=True, help="experiment config file")
    simulate.set_defaults(handler=_cmd_simulate)

    reproduce = sub.add_parser("reproduce", help="run a bundled reference study")
    reproduce.add_argument("--study", required=True, choices=("gaussian", "weibull"))
    reproduce.add_argument(
        "--output", default=None, help="trajectory file (.csv or .json)"
    )
    reproduce.set_defaults(handler=_cmd_reproduce)

    axioms = sub.add_parser("axioms", help="check axioms and report verdicts")
    axioms.add_argument(
        "--measure",
        required=True,
        choices=("var", "cvar", "recursive-var"),
    )
    axioms.add_argument("--trials", type=int, default=200)
    axioms.add_argument("--seed", type=int, default=0)
    axioms.set_defaults(handler=_cmd_axioms)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
        )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, DataError, ConfigError) as exc:
        log.error("%s", exc)
        return 2
    except NumericError as exc:
        log.error("numerical failure: %s", exc)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
