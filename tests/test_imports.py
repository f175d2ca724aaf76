"""Start-up cost: the package loads no SciPy, not even inside its formulas,
and each CLI command loads only the modules it runs; ``risk`` loads no numpy.
The package resolves its exported names on first access.

Each start-up check runs in a fresh interpreter, since ``sys.modules`` only grows.
"""

import dataclasses
import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import riskflow
from riskflow import static_risk
from riskflow.scenario import build_reference_experiment, config_to_json

#: Imports the package, and ``riskflow.cli`` if there is an argv, runs the CLI
#: on each argv given as JSON in ``sys.argv[1]``, then prints the riskflow,
#: numpy and SciPy modules loaded.
PROBE = """
import contextlib, io, json, sys
import riskflow
argvs = json.loads(sys.argv[1])
if argvs:
    import riskflow.cli
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert riskflow.cli.run(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("riskflow", "numpy", "scipy"))))
"""

PARAMS = {"gaussian": '{"mu": 0, "sigma": 1}', "weibull": '{"lambda": 1, "alpha": 0.8}'}
FLOAT_PARAMS = {
    "gaussian": '{"mu": -0.5, "sigma": 1.5}',
    "weibull": '{"lambda": 1.5, "alpha": 0.8, "theta": -0.25}',
}
LEVELS = [100.0, 103.0, 104.5, 109.0, 110.0, 116.0, 118.5, 121.0]


def modules_after(*commands):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def scipy_modules_after(*commands):
    return {m for m in modules_after(*commands) if m.split(".")[0] == "scipy"}


def test_importing_the_package_loads_no_scipy():
    assert scipy_modules_after() == set()


def risk_argv(family, measure, params):
    return ["risk", "--family", family, "--params", params, "--measure", measure, "--p", "0.99"]


def command_argvs(command, tmp_path):
    """The argv lists of ``command``, with the input files they read written
    to ``tmp_path``."""
    if command.startswith("risk-"):
        _, family, measure = command.split("-")
        return [risk_argv(family, measure, PARAMS[family])]
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


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    assert modules_after() == {"riskflow"}


@pytest.mark.parametrize("params", [PARAMS, FLOAT_PARAMS], ids=["int-params", "float-params"])
@pytest.mark.parametrize("measure", ["var", "cvar"])
@pytest.mark.parametrize("family", ["gaussian", "weibull"])
def test_risk_loads_the_static_modules_and_no_numpy(family, measure, params):
    # The parametric measures are math alone; an integer parameter passes
    # the input rule's 0-d array check without importing numpy for it.
    assert modules_after(risk_argv(family, measure, params[family])) == {
        "riskflow", "riskflow.cli", "riskflow.errors", "riskflow.distributions",
        "riskflow.static_risk",
    }


@pytest.mark.parametrize("study", ["gaussian", "weibull"])
def test_reproduce_loads_no_axiom_checker(study, tmp_path):
    assert "riskflow.axioms" not in modules_after(*command_argvs(f"reproduce-{study}", tmp_path))


def test_axioms_loads_no_experiment_runner(tmp_path):
    argvs = [*command_argvs("axioms", tmp_path), ["axioms", "--measure", "recursive-var"]]
    assert "riskflow.scenario" not in modules_after(*argvs)


class TestPackageExports:
    """Each name in ``riskflow.__all__`` is looked up in the one module whose
    ``__all__`` lists it, at every access."""

    SUBMODULES = [
        importlib.import_module(f"riskflow.{info.name}")
        for info in pkgutil.iter_modules(riskflow.__path__)
    ]
    NAMES = [name for name in riskflow.__all__ if name != "__version__"]

    @pytest.mark.parametrize("name", NAMES)
    def test_is_the_home_module_binding(self, name):
        (home,) = [m for m in self.SUBMODULES if name in getattr(m, "__all__", ())]
        assert getattr(riskflow, name) is getattr(home, name)

    def test_dir_lists_every_export(self):
        assert set(riskflow.__all__) <= set(dir(riskflow))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from riskflow import *", namespace)
        assert all(namespace[name] is getattr(riskflow, name) for name in riskflow.__all__)

    def test_unknown_name_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'no_such_measure'"):
            riskflow.no_such_measure

    def test_a_function_patched_at_home_is_what_the_package_returns(self, monkeypatch):
        def patched(*args):
            return 0.0

        monkeypatch.setattr(static_risk, "var", patched)
        assert riskflow.var is patched
        monkeypatch.undo()
        assert riskflow.var is static_risk.var is not patched
