"""Golden digests of ``run_experiment`` output over a grid of configurations.

Each entry pins, for one configuration and seed, the sha256 of the
trajectory CSV written by ``emit_trajectories`` and the sha256 of the
summary JSON as the CLI prints it.  CSV cells written as a numpy scalar repr
(``np.float64(1.5)``) are compared as the plain float they wrap, so a run
that writes ``1.5`` matches a recorded ``np.float64(1.5)``.

The grid crosses both families, both CVaR modes, the measure sets ``var``,
``cvar`` and both, a two- and a three-state chain, horizons 1 and 10 and
1 and 200 paths.  Single-path configurations run 20 seeds each, 200-path
configurations two (every path there has its own derived seeds already).

Regenerate the table from the repository root with::

    PYTHONPATH=src python tests/engine_digests.py > tests/engine_digests.json

It reports on stderr how many keys differ from the table committed at git
``HEAD``, and how many in each changed configuration group (family, mode,
measures and chain, the key without its horizon, path count and seed).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from riskflow.scenario import ExperimentConfig, emit_trajectories, run_experiment

DIGESTS_PATH = Path(__file__).with_name("engine_digests.json")

_NUMPY_REPR = re.compile(r"np\.float64\(([^)]*)\)")

#: (name, rows, orientation, p, per-family state parameters).  The Weibull
#: shapes of the three-state chain give exponents 1/alpha of 1.25, 0.5 and 1.
CHAINS = (
    (
        "2-state",
        ((0.25, 0.75), (0.35, 0.65)),
        "row",
        0.99,
        {
            "gaussian": {"mu": (1169.009625, 1057.675375), "sigma": (195.6045, 176.9755)},
            "weibull": {
                "lambda": (7.106295, 6.429505),
                "alpha": (0.8016, 0.8016),
                "theta": (0.0, 0.0),
            },
        },
    ),
    (
        "3-state",
        ((0.5, 0.1, 0.2), (0.3, 0.6, 0.2), (0.2, 0.3, 0.6)),
        "column",
        0.95,
        {
            "gaussian": {"mu": (1.0, -1.0, 0.5), "sigma": (0.5, 0.8, 1.2)},
            "weibull": {
                "lambda": (2.0, 5.0, 1.0),
                "alpha": (0.8, 2.0, 1.0),
                "theta": (0.0, -0.5, 0.3),
            },
        },
    ),
)
FAMILIES = ("gaussian", "weibull")
MODES = ("piecewise", "exact")
MEASURES = (("var",), ("cvar",), ("var", "cvar"))
HORIZONS = (1, 10)
PATH_COUNTS = (1, 200)
SEEDS = {1: range(20), 200: range(2)}


def grid() -> list[tuple[str, ExperimentConfig]]:
    """Every ``(key, config)`` of the table, in a fixed order."""
    out = []
    for family, mode, measures, chain, T, n_paths in itertools.product(
        FAMILIES, MODES, MEASURES, CHAINS, HORIZONS, PATH_COUNTS
    ):
        name, rows, orientation, p, params = chain
        for seed in SEEDS[n_paths]:
            key = f"{family}/{mode}/{'+'.join(measures)}/{name}/T{T}/n{n_paths}/seed{seed}"
            out.append((key, ExperimentConfig(
                family=family,
                params=params[family],
                transition_matrix=rows,
                orientation=orientation,
                initial_state=1,
                p=p,
                horizon=T,
                n_paths=n_paths,
                seed=seed,
                measures=measures,
                cvar_mode=mode,
            )))
    return out


def digest(config: ExperimentConfig, work_dir: Path) -> str:
    """``"<csv sha256> <summary sha256>"`` of one run."""
    paths, stats = run_experiment(config)
    csv_path = work_dir / "trajectories.csv"
    emit_trajectories(paths, "csv", csv_path)
    csv_text = _NUMPY_REPR.sub(r"\1", csv_path.read_text(encoding="utf-8"))
    summary = json.dumps(stats.to_json_dict(), sort_keys=True)
    return " ".join(
        hashlib.sha256(text.encode()).hexdigest() for text in (csv_text, summary)
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        table = {key: digest(config, Path(tmp)) for key, config in grid()}
    json.dump(table, sys.stdout, indent=1)
    sys.stdout.write("\n")
    report_changes(table)


def report_changes(table: dict[str, str]) -> None:
    """Count on stderr the keys whose digest differs from the committed table,
    in total and per configuration group.

    The committed table is read from git, because the redirection shown in
    the module docstring empties the working copy before this script starts.
    """
    committed = subprocess.run(
        ["git", "show", f"HEAD:./{DIGESTS_PATH.name}"],
        cwd=DIGESTS_PATH.parent,
        capture_output=True,
        text=True,
    )
    if committed.returncode != 0:
        print(f"no committed {DIGESTS_PATH.name} to compare with", file=sys.stderr)
        return
    recorded = json.loads(committed.stdout)
    changed = [key for key in table if recorded.get(key) != table[key]]
    print(f"{len(changed)} of {len(table)} keys changed", file=sys.stderr)
    sizes = Counter(key.rsplit("/", 3)[0] for key in table)
    for group, count in Counter(key.rsplit("/", 3)[0] for key in changed).items():
        print(f"  {count} of {sizes[group]}  {group}", file=sys.stderr)


if __name__ == "__main__":
    main()
