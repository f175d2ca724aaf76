"""The cold-CLI workload and the other measurements taken in fresh processes.

Each operation is one ``python -m riskflow.cli`` process, started only after
the previous one has exited.  This module imports only the standard library:
the peak RSS the kernel reports for a child counts the parent's resident
memory at the moment the child was started, so the benchmark process stays
small until every timed call is done and only then imports the oracles.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from datetime import date, timedelta
from pathlib import Path
from statistics import median

from common import BENCH_DIR, ROOT, Op, derive

SUBCOMMANDS = ("risk", "reproduce", "fit", "axioms")
#: Rows of the generated level series that ``fit`` reads.
LEVEL_ROWS = 10_000
#: Fresh ``-X importtime`` processes per traced run.
IMPORT_PROBES = 3
REFERENCE_DIR = BENCH_DIR / "reference"
STUDIES = ("gaussian", "weibull")
CLI_TIMEOUT_S = 120


def run_cli(
    args: list[str], work_dir: Path, flags: tuple[str, ...] = ()
) -> tuple[float, float, int, bytes, bytes, int]:
    """Run the CLI once; returns wall ms, the child's CPU ms, exit code,
    stdout, stderr and the child's own peak RSS in KiB."""
    return run_python([*flags, "-m", "riskflow.cli", *args], work_dir)


def run_python(argv: list[str], work_dir: Path) -> tuple[float, float, int, bytes, bytes, int]:
    """Run a fresh interpreter with ``argv``; returns what :func:`run_cli` does."""
    out_path, err_path = work_dir / "cli.stdout", work_dir / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, stdout=out, stderr=err)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 rather than wait: it returns this child's resource usage alone.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ms = (time.perf_counter() - start) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_ms = (usage.ru_utime + usage.ru_stime) * 1e3
    return ms, cpu_ms, proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss


class CliCold:
    """Fresh CLI processes over the commands a user runs, one at a time."""

    primary_kinds = SUBCOMMANDS
    #: What ``op_cost_p50`` is measured in: see :meth:`reference_ms`.
    reference = "python-import-numpy"
    #: Share of the run spent on the reference: one sample varies by about
    #: 15 %, so this takes about one per CLI call.
    ref_share = 0.2

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.flags: tuple[str, ...] = ()
        self.peak_kib = 0
        self.walls: dict[str, list[float]] = {name: [] for name in SUBCOMMANDS}
        self._unchecked: list[tuple[Op, int, bytes, bytes, dict]] = []
        rnd = random.Random(derive(seed, "levels"))
        self.level_params = {"lambda": rnd.uniform(1.0, 10.0), "alpha": rnd.uniform(0.6, 1.5)}
        self.levels_path = work_dir / "levels.csv"
        level, day = 100.0, date(1990, 1, 1)
        with open(self.levels_path, "w", encoding="utf-8") as handle:
            handle.write("date,value\n")
            for i in range(LEVEL_ROWS):
                handle.write(f"{day + timedelta(days=i)},{level!r}\n")
                level += rnd.weibullvariate(self.level_params["lambda"], self.level_params["alpha"])

    def inputs(self, r: object) -> list[tuple[str, list[str], dict]]:
        """Round ``r``: the six commands, with their expected outputs described."""
        rnd = random.Random(derive(self.seed, "cli", r))
        gauss = {"mu": rnd.uniform(-10.0, 10.0), "sigma": rnd.uniform(0.5, 5.0)}
        weib = {"lambda": rnd.uniform(1.0, 10.0), "alpha": rnd.uniform(0.5, 2.0)}
        p_g, p_w = rnd.uniform(0.9, 0.995), rnd.uniform(0.9, 0.995)
        commands = [
            ("risk", ["--family", "gaussian", "--params", json.dumps(gauss), "--measure", "var", "--p", repr(p_g)],
             {"family": "gaussian", "params": gauss, "measure": "var", "p": p_g}),
            ("risk", ["--family", "weibull", "--params", json.dumps(weib), "--measure", "cvar", "--p", repr(p_w)],
             {"family": "weibull", "params": weib, "measure": "cvar", "p": p_w}),
        ]
        for study in STUDIES:
            output = self.work_dir / f"reproduce_{study}.csv"
            commands.append(("reproduce", ["--study", study, "--output", str(output)], {"output": output}))
        commands.append(("fit", ["--input", str(self.levels_path), "--family", "weibull"], {}))
        commands.append(("axioms", ["--measure", "var", "--seed", str(rnd.randrange(2**31))], {}))
        return [(name, [name, *args], expect) for name, args, expect in commands]

    def reference_ms(self) -> float:
        """CPU time of a fresh ``python -c "import numpy"``: start-up, import
        and BLAS worker start, like the CLI's own cost, in code riskflow
        cannot change."""
        _, cpu_ms, code, _, err, _ = run_python(["-c", "import numpy"], self.work_dir)
        if code != 0:
            raise RuntimeError(f"reference process exited {code}: {err.decode(errors='replace')}")
        return cpu_ms

    def warm_up(self) -> None:
        _, _, code, out, err, _ = run_cli(self.inputs("warm-up")[0][1], self.work_dir)
        if code != 0:
            raise RuntimeError(f"warm-up CLI call exited {code}: {err.decode(errors='replace')}")

    def run(self, inputs: list[tuple[str, list[str], dict]]) -> list[Op]:
        ops = []
        for name, argv, expect in inputs:
            ms, cpu_ms, code, out, err, peak_kib = run_cli(argv, self.work_dir, self.flags)
            op = Op(name, ms, cpu_ms)
            if not self.flags:
                self.walls[name].append(ms)
                self.peak_kib = max(self.peak_kib, peak_kib)
            self._unchecked.append((op, code, out, err, expect))
            ops.append(op)
        return ops

    def verify(self) -> None:
        """Check every collected output; imports the oracles, so call it last."""
        import oracles

        for op, code, out, err, expect in self._unchecked:
            op.failures = _check(oracles, op.kind, code, out, err, expect, self.level_params)
        self._unchecked.clear()

    def peak_rss_mb(self) -> float:
        return self.peak_kib / 1024.0

    def trace_on(self) -> None:
        self.flags = ("-X", "importtime")

    def trace_off(self) -> None:
        self.flags = ()

    def layer_metrics(self, traced_rounds: int) -> dict[str, float]:
        """Per-subcommand wall times of the plain rounds, then the start-up
        and byte-identity figures, which only this workload takes."""
        out = {f"cli.{name}.wall_ms": median(ms) for name, ms in self.walls.items() if ms}
        out.update(import_times())
        out.update(reference_matches(self.work_dir))
        return out


def _check(oracles, kind, code, out, err, expect, level_params) -> list[str]:
    if code != 0:
        return [f"{kind} exited {code}: {err.decode(errors='replace').strip()[-300:]}"]
    text = out.decode()
    try:
        if kind == "risk":
            value = {expect["measure"]: float(text)}
            return oracles.check_static(
                expect["family"], expect["params"], expect["p"], rtol_floor=oracles.CLI_RTOL, **value
            )
        if kind == "reproduce":
            summary = json.loads(text)
            rows = Path(expect["output"]).read_text(encoding="utf-8").count("\n")
            if summary.get("n_paths") != 1 or summary.get("horizon") != 10 or rows != 12:
                return [f"reproduce wrote {rows} lines, summary n_paths={summary.get('n_paths')}"]
            return []
        if kind == "fit":
            fitted = json.loads(text)
            return oracles.check_fit("weibull", level_params, fitted["params"], LEVEL_ROWS - 1)
        verdicts = {r["axiom"]: r["verdict"] for r in map(json.loads, text.splitlines())}
        if set(verdicts) != {"P1", "P2", "P3", "P4"}:
            return [f"axioms reported {sorted(verdicts)}"]
        return oracles.check_verdicts("var", verdicts)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{kind} printed unparseable output {text[:200]!r}: {exc!r}"]


def import_times() -> dict[str, float]:
    """Cumulative import time of ``riskflow`` and ``scipy.integrate`` in fresh
    ``python -X importtime`` processes, median over :data:`IMPORT_PROBES`."""
    samples: dict[str, list[float]] = {"riskflow": [], "scipy.integrate": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import riskflow"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                found[parts[2].strip()] = int(parts[1]) / 1e3
        for name, values in samples.items():
            values.append(found.get(name, 0.0))
    return {f"import.{name}.ms": median(values) for name, values in samples.items()}


def reference_matches(work_dir: Path) -> dict[str, int]:
    """Whether ``reproduce`` (seed 1729) still writes the recorded trajectory
    CSV and prints the recorded summary JSON, byte for byte, per study."""
    out = {}
    for study in STUDIES:
        csv_path = work_dir / f"reference_{study}.csv"
        _, _, code, stdout, _, _ = run_cli(
            ["reproduce", "--study", study, "--output", str(csv_path)], work_dir
        )
        same = (
            code == 0
            and csv_path.read_bytes() == (REFERENCE_DIR / f"{study}.csv").read_bytes()
            and stdout == (REFERENCE_DIR / f"{study}.json").read_bytes()
        )
        out[f"scenario.reference_bytes_match.{study}"] = int(same)
    return out
