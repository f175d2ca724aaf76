"""Run one riskflow benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload paths-gaussian --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: the next operation starts
only after the previous one has finished and been checked.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates plain rounds with
traced rounds of the same inputs and reports the per-layer metrics.  The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries the run's environment and the detailed report.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

from common import ROOT, SRC, Op
from tracing import SPANS

WORKLOADS = ("paths-gaussian", "paths-weibull", "validate", "cli-cold")
#: Fresh processes timed from start to the first operation; ``setup_s`` is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
#: Reference samples are taken before the first round and after each round:
#: at least this many, and enough to take the workload's ``ref_share`` of the
#: round's time.
REF_SAMPLES = 2

#: End-to-end metrics: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_cost_p50", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Per-layer metrics of a traced run: (name, unit, better).  A workload
#: that never reaches a layer reports 0 for it.
PER_LAYER = tuple(
    (f"{span}.{field}", unit, "lower")
    for span in SPANS
    for field, unit in (("calls", "count"), ("self_ms", "ms"), ("total_ms", "ms"))
) + (
    ("distributions.expected_positive_part.us_per_call", "us", "lower"),
    ("static_risk.distinct_model_ratio", "ratio", "higher"),
    ("static_risk.ru_objective.calls_per_cvar_ru", "count", "lower"),
    ("scenario.emit_trajectories.bytes", "bytes", "lower"),
    ("scenario.emit_trajectories.numpy_repr_cells", "count", "lower"),
    ("scenario.reference_bytes_match.gaussian", "count", "higher"),
    ("scenario.reference_bytes_match.weibull", "count", "higher"),
    ("cli.risk.wall_ms", "ms", "lower"),
    ("cli.reproduce.wall_ms", "ms", "lower"),
    ("cli.fit.wall_ms", "ms", "lower"),
    ("cli.axioms.wall_ms", "ms", "lower"),
    ("import.riskflow.ms", "ms", "lower"),
    ("import.scipy.integrate.ms", "ms", "lower"),
    ("scenario.default_workers.extra_frac", "frac", "lower"),
    ("tracing.overhead_frac", "frac", "lower"),
    ("tracing.unresolved_spans", "count", "lower"),
)


def _make_workload(name: str, seed: int, work_dir: Path, check: bool = True):
    """Import what the workload needs, generate its inputs and warm it up.

    ``check=False`` (for probes) leaves the in-process oracles, and the
    scipy.stats import they need, out of the process.
    """
    if name == "cli-cold":
        from cli_cold import CliCold

        workload = CliCold(seed, work_dir)
    else:
        from inproc import WORKLOADS as INPROC

        workload = INPROC[name](seed, work_dir)
        workload.check = check
    workload.warm_up()
    return workload


def _probes(args: argparse.Namespace) -> tuple[float, float | None]:
    """Set up in fresh processes, one at a time.

    Returns the median time from process start to ready, and for in-process
    workloads the peak RSS of the last probe, which goes on to run round 0
    without its oracles, so that the benchmark's own memory is left out.
    """
    kinds = ["setup"] * SETUP_PROBES
    if args.workload != "cli-cold":
        kinds[-1] = "rss"
    samples, peak_mb = [], None
    for kind in kinds:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--probe", kind],
            cwd=ROOT, stdout=subprocess.PIPE,
        )
        ready = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        rest = proc.stdout.read()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or ready.strip() != b"ready":
            raise RuntimeError(f"{kind} probe failed with exit code {proc.returncode}")
        if kind == "rss":
            peak_mb = int(rest) / 1024.0
    return median(samples), peak_mb


def _closed_loop(workload, seconds: float) -> tuple[list[list[Op]], list[float]]:
    """Rounds of fresh inputs until another round would overrun ``seconds``.

    Returns each round's operations and the CPU times of the workload's
    reference, taken before the first round and after each (see
    :data:`REF_SAMPLES`).
    """
    rounds: list[list[Op]] = []
    refs = [workload.reference_ms() for _ in range(REF_SAMPLES)]
    round_s: list[float] = []
    start = time.perf_counter()
    r = 0
    while True:
        inputs = workload.inputs(r)
        t0 = time.perf_counter()
        rounds.append(workload.run(inputs))
        round_s.append(time.perf_counter() - t0)
        n_refs = max(REF_SAMPLES, round(workload.ref_share * round_s[-1] * 1e3 / median(refs)))
        refs += [workload.reference_ms() for _ in range(n_refs)]
        r += 1
        if time.perf_counter() - start + median(round_s) > seconds:
            return rounds, refs


def _typical_cpu_ms(rounds: list[list[Op]], kinds: tuple[str, ...]) -> float:
    """CPU time of a round's typical primary operation: each position of the
    round (the same kind of input every round) takes its median over the
    rounds, and the positions are averaged.  With one primary operation per
    round this is its median; on ``cli-cold`` it keeps the six commands'
    different costs from deciding where the median falls."""
    positions = [
        median(op.cpu_ms for op in column)
        for column in zip(*rounds)
        if column[0].kind in kinds
    ]
    return sum(positions) / len(positions)


def _traced_loop(workload, seconds: float) -> tuple[list[Op], float, int]:
    """Alternate plain and traced rounds of round 0's inputs.

    Returns the operations, the tracing overhead (median traced round over
    median plain round, minus one, both summed over operation times) and
    the number of traced rounds.
    """
    inputs = workload.inputs(0)
    ops: list[Op] = []
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while True:
        round_ops = workload.run(inputs)
        plain.append(sum(op.ms for op in round_ops))
        workload.trace_on()
        try:
            traced_ops = workload.run(inputs)
        finally:
            workload.trace_off()
        traced.append(sum(op.ms for op in traced_ops))
        ops += round_ops + traced_ops
        if time.perf_counter() - start + (median(plain) + median(traced)) / 1e3 > seconds:
            return ops, median(traced) / median(plain) - 1.0, len(traced)


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def _report(workload_name: str, primary_kinds: tuple[str, ...], ops: list[Op]) -> dict[str, object]:
    """The figures a user reads, with their sample counts."""
    primary = [op for op in ops if op.kind in primary_kinds]
    report: dict[str, object] = {
        "op_ms_p50": {"value": median(op.ms for op in primary), "unit": "ms", "n": len(primary)},
        "op_cpu_ms_p50": {"value": median(op.cpu_ms for op in primary), "unit": "ms", "n": len(primary)},
    }
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.ms)
    if "study" in by_kind:
        studies = by_kind["study"]
        from inproc import STUDY_PATHS

        report["paths_per_s"] = {"value": STUDY_PATHS * len(studies) / (sum(studies) / 1e3),
                                 "unit": "1/s", "n": len(studies)}
    if "single" in by_kind:
        singles = by_kind["single"]
        p90 = quantiles(singles, n=10)[-1] if len(singles) > 1 else singles[0]
        for name, value in (("single_path_ms_p50", median(singles)), ("single_path_ms_p90", p90)):
            report[name] = {"value": value, "unit": "ms", "n": len(singles)}
    if "pass" in by_kind:
        report["pass_ms_p50"] = {"value": median(by_kind["pass"]), "unit": "ms",
                                 "n": len(by_kind["pass"])}
    if workload_name == "cli-cold":
        report["cli_ms_p50"] = {"value": median([op.ms for op in ops]), "unit": "ms", "n": len(ops)}
    failed = sum(1 for op in ops if op.failures)
    report["failed_ops_frac"] = {"value": failed / len(ops), "unit": "frac", "n": len(ops)}
    return report


def _environment(args: argparse.Namespace, reference: str, refs: list[float]) -> dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "RISKFLOW_THREADS": os.environ["RISKFLOW_THREADS"],
        "reference": reference,
        "reference_ms": {"value": median(refs), "unit": "ms", "n": len(refs)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "rss"),
                        help="set up, print 'ready' and exit; 'rss' first runs round 0 "
                        "unchecked and prints the peak RSS in KiB")
    args = parser.parse_args(argv)

    if not (SRC / "riskflow" / "__init__.py").is_file():
        print(f"riskflow sources not found under {SRC}", file=sys.stderr)
        return 2
    # One path worker, in this process and in every child: on a shared host
    # with few cores, worker threads contending for the interpreter lock make
    # wall time measure the scheduler.  The default worker count is timed
    # against this in the traced run (``scenario.default_workers.extra_frac``).
    os.environ["RISKFLOW_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe:
            workload = _make_workload(args.workload, args.seed, work_dir, check=False)
            print("ready", flush=True)
            if args.probe == "rss":
                workload.run(workload.inputs(0))
                print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            return 0
        setup_s, peak_rss_mb = (None, None) if args.trace else _probes(args)
        workload = _make_workload(args.workload, args.seed, work_dir)
        if args.trace:
            refs = [workload.reference_ms() for _ in range(REF_SAMPLES)]
            ops, overhead, traced_rounds = _traced_loop(workload, args.seconds)
            workload.verify()
            layers = workload.layer_metrics(traced_rounds)
            layers["tracing.overhead_frac"] = overhead
            unknown = set(layers) - {name for name, _, _ in PER_LAYER}
            if unknown:
                raise RuntimeError(f"unlisted per-layer metrics {sorted(unknown)}")
            metrics = {name: _metric(layers.get(name, 0), unit) for name, unit, _ in PER_LAYER}
        else:
            rounds, refs = _closed_loop(workload, args.seconds)
            ops = [op for round_ops in rounds for op in round_ops]
            workload.verify()
            if peak_rss_mb is None:
                # The CLI children measure the program alone already.
                peak_rss_mb = workload.peak_rss_mb()
            values = {
                "setup_s": setup_s,
                "op_cost_p50": _typical_cpu_ms(rounds, workload.primary_kinds) / median(refs),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {name: _metric(values[name], unit) for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    failures = [f for op in ops for f in op.failures]
    for message in failures[:20]:
        print(f"oracle: {message}", file=sys.stderr)
    environment = _environment(args, workload.reference, refs)
    print(json.dumps({"environment": environment, "report": _report(args.workload, workload.primary_kinds, ops)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
