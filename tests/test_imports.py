"""Start-up cost: the package loads SciPy only inside the formulas that use it.

Each check runs in a fresh interpreter, since ``sys.modules`` only grows.
"""

import json
import subprocess
import sys

import pytest

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


def test_fit_and_axioms_load_no_scipy(tmp_path):
    levels = [100.0, 103.0, 104.5, 109.0, 110.0, 116.0, 118.5, 121.0]
    series = tmp_path / "levels.csv"
    series.write_text(
        "date,value\n"
        + "".join(f"2024-01-{day:02d},{v}\n" for day, v in enumerate(levels, start=1)),
        encoding="utf-8",
    )
    assert scipy_modules_after(
        ["fit", "--input", str(series), "--family", "weibull"],
        ["fit", "--input", str(series), "--family", "gaussian"],
        ["axioms", "--measure", "var", "--trials", "20"],
    ) == set()


def loads_integrate(loaded):
    return any(m == "scipy.integrate" or m.startswith("scipy.integrate.") for m in loaded)


@pytest.mark.parametrize("measure", ["var", "cvar"])
def test_gaussian_risk_loads_special_but_not_integrate(measure):
    loaded = scipy_modules_after(
        ["risk", "--family", "gaussian", "--params", '{"mu": 0, "sigma": 1}',
         "--measure", measure, "--p", "0.99"]
    )
    assert "scipy.special" in loaded
    assert not loads_integrate(loaded)


@pytest.mark.parametrize("command", ["risk", "reproduce"])
def test_weibull_cvar_loads_special_but_not_integrate(command, tmp_path):
    # The exceedance above the location is SciPy's gammaincc, not a quadrature.
    argv = {
        "risk": ["risk", "--family", "weibull", "--params", '{"lambda": 1, "alpha": 0.8}',
                 "--measure", "cvar", "--p", "0.99"],
        "reproduce": ["reproduce", "--study", "weibull", "--output", str(tmp_path / "w.csv")],
    }[command]
    loaded = scipy_modules_after(argv)
    assert "scipy.special" in loaded
    assert not loads_integrate(loaded)

