"""Start-up cost: the package loads no SciPy, not even inside its formulas,
and builds no stream table at import.

Each check runs in a fresh interpreter, since ``sys.modules`` only grows.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from riskflow.scenario import build_reference_experiment, config_to_json

#: Runs the CLI on each argv given as JSON in ``sys.argv[1]`` (after importing
#: the package when the list is empty), then prints the SciPy modules loaded.
PROBE = """
import contextlib, io, json, sys
import riskflow, riskflow.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert riskflow.cli.run(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

PARAMS = {"gaussian": '{"mu": 0, "sigma": 1}', "weibull": '{"lambda": 1, "alpha": 0.8}'}
LEVELS = [100.0, 103.0, 104.5, 109.0, 110.0, 116.0, 118.5, 121.0]


def scipy_modules_after(*commands):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_importing_the_package_loads_no_scipy():
    assert scipy_modules_after() == set()


def test_importing_the_package_builds_no_stream_tables():
    # The seeding constants and the jump-ahead table are built on the first
    # draw, not at import, which every CLI process pays for.
    probe = (
        "import riskflow, riskflow.cli\n"
        "from riskflow import streams\n"
        "print(streams._jumps.cache_info().currsize, streams._hash_constants.cache_info().currsize)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def command_argvs(command, tmp_path):
    """The argv lists of ``command``, with the input files they read written
    to ``tmp_path``."""
    if command.startswith("risk-"):
        _, family, measure = command.split("-")
        return [["risk", "--family", family, "--params", PARAMS[family],
                 "--measure", measure, "--p", "0.99"]]
    if command == "simulate":
        config = dataclasses.replace(
            build_reference_experiment("weibull_bbgex"), output=str(tmp_path / "traj.csv")
        )
        path = tmp_path / "exp.json"
        path.write_text(config_to_json(config), encoding="utf-8")
        return [["simulate", "--config", str(path)]]
    if command.startswith("reproduce-"):
        study = command.split("-")[1]
        return [["reproduce", "--study", study, "--output", str(tmp_path / f"{study}.csv")]]
    if command == "fit":
        series = tmp_path / "levels.csv"
        series.write_text(
            "date,value\n"
            + "".join(f"2024-01-{day:02d},{v}\n" for day, v in enumerate(LEVELS, start=1)),
            encoding="utf-8",
        )
        return [["fit", "--input", str(series), "--family", family]
                for family in ("weibull", "gaussian")]
    assert command == "axioms"
    return [["axioms", "--measure", measure, "--trials", "20"] for measure in ("var", "cvar")]


@pytest.mark.parametrize(
    "command",
    [
        *(f"risk-{family}-{measure}" for family in ("gaussian", "weibull") for measure in ("var", "cvar")),
        "simulate",
        "reproduce-gaussian",
        "reproduce-weibull",
        "fit",
        "axioms",
    ],
)
def test_cli_command_loads_no_scipy(command, tmp_path):
    # The normal quantile and the incomplete gamma function are the
    # package's own, so no formula reaches for scipy.special.
    assert scipy_modules_after(*command_argvs(command, tmp_path)) == set()
