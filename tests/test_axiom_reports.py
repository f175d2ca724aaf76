"""Every ``check_dynamic_axiom`` report on a fixed grid, pinned by sha256.

Each report is pinned as the sha256 of its ``to_json_dict()`` written with
sorted keys, so a change to the checker itself (its loop order, rng draws,
early exits, witnesses or ``detail`` text) shows here; comparing two
measures through the same checker cannot see one.

The grid crosses all seven dynamic axioms with ``RecursiveFiniteMeasure``
of VaR and CVaR, in both tails, at p = 0.95 and 0.7.  Each combination is
checked on the bundled fixtures at two seeds and on 32 lattice pairs, one
pair per report: 8 equally likely atoms, payoffs in {-1, 0, 1} and T = 3,
so histories recombine, values tie and D6 fails for VaR and for CVaR.

Regenerate the table from the repository root with::

    PYTHONPATH=src python tests/test_axiom_reports.py > tests/axiom_report_digests.json
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from riskflow.axioms import (
    DynamicAxiom,
    FiniteProcess,
    RecursiveFiniteMeasure,
    Verdict,
    bundled_pair_processes,
    check_dynamic_axiom,
)
from riskflow.static_risk import MeasureKind, Orientation, RiskMeasureSpec

DIGESTS_PATH = Path(__file__).with_name("axiom_report_digests.json")

#: (fixture seed, checker seed) of the two bundled fixture sets.
BUNDLED_SEEDS = ((2024, 0), (1, 1))
N_LATTICE = 32


def lattice_pairs() -> list[tuple[FiniteProcess, FiniteProcess]]:
    rng = np.random.default_rng(0)
    probs = (1.0 / 8,) * 8
    pairs = []
    for _ in range(N_LATTICE):
        x = FiniteProcess(probs, rng.choice([-1.0, 0.0, 1.0], (8, 4)))
        pairs.append((x, x.with_payoffs(rng.choice([-1.0, 0.0, 1.0], (8, 4)))))
    return pairs


LATTICE = lattice_pairs()
SPECS = [
    RiskMeasureSpec(kind, p, orientation)
    for kind, orientation, p in itertools.product(MeasureKind, Orientation, (0.95, 0.7))
]
GROUPS = [
    (axiom, spec, f"{axiom.value}/{spec.kind.value}/{spec.orientation.value}/{spec.p}")
    for axiom, spec in itertools.product(DynamicAxiom, SPECS)
]


@functools.cache
def reports(axiom: DynamicAxiom, spec: RiskMeasureSpec) -> tuple[dict[str, object], ...]:
    """The reports of one group: the bundled fixture sets, then one per lattice pair."""
    measure = RecursiveFiniteMeasure(spec)
    out = [
        check_dynamic_axiom(
            axiom,
            measure,
            bundled_pair_processes(axiom, orientation=spec.orientation, seed=fixture_seed),
            seed=seed,
        )
        for fixture_seed, seed in BUNDLED_SEEDS
    ]
    out += [check_dynamic_axiom(axiom, measure, [pair], seed=i) for i, pair in enumerate(LATTICE)]
    return tuple(report.to_json_dict() for report in out)


def digest(report: dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_table_covers_the_grid():
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(key for _, _, key in GROUPS)
    assert all(len(v) == len(BUNDLED_SEEDS) + N_LATTICE for v in recorded.values())


@pytest.mark.parametrize("axiom, spec, key", GROUPS, ids=[key for _, _, key in GROUPS])
def test_reports_match_the_recorded_digests(axiom, spec, key):
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[key]
    assert [digest(report) for report in reports(axiom, spec)] == recorded


@pytest.mark.parametrize("kind", list(MeasureKind))
def test_convexity_fails_on_lattice_pairs(kind):
    # The grid holds violations, so witnesses are pinned too.
    violated = [
        report
        for spec in SPECS
        if spec.kind is kind
        for report in reports(DynamicAxiom.D6, spec)[len(BUNDLED_SEEDS):]
        if report["verdict"] == Verdict.VIOLATED.value
    ]
    assert violated and all(set(r["witness"]) == {"pair", "t", "weight", "excess"} for r in violated)


if __name__ == "__main__":
    table = {key: [digest(report) for report in reports(axiom, spec)] for axiom, spec, key in GROUPS}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
