"""Executable checkers for the risk-measure axioms.

Static axioms (P1 monotonicity, P2 translation invariance, P3 subadditivity,
P4 positive homogeneity) are checked by randomized trials on equal-weight
samples over a common outcome space.  P1/P2 as usually printed — larger
payoffs mean less risk, cash reduces risk one-for-one — are literally true
under ``lower_tail`` orientation; under ``upper_tail`` the checker tests the
mirrored forms and the report's ``detail`` names exactly which form was
checked.  Value-at-risk is expected to fail P3; the checker injects a
constructed two-point witness (see :func:`var_subadditivity_witness`) so the
violation is enumerated exactly rather than stumbled upon.

Dynamic axioms (D1 normalization, D2 monotone inheritance, D3 translation,
D4 local property, D5 time consistency, D6 convexity, D7 positive
homogeneity) are checked by exhaustive evaluation on small finite processes.
The evaluation semantics makes conditioning explicit: the value of a dynamic
measure at time ``t`` on an atom is computed by running the whole recursion
on the conditional laws given the atom's time-``t`` information cell, where
cells partition atoms by payoff history through ``t - 1`` (the period-``t``
payoff is still unresolved when the time-``t`` measure is taken).  For a
pair of processes the checkers condition both sides on the common refinement
of their histories, which is what makes the local property an exact
identity: restricted to an event that is visible at time ``t``, the pasted
process and the original have identical conditional laws.  Each process is
evaluated once per time on that common filtration.  D6's mixture ``w X +
(1 - w) Y`` is evaluated on the pair's filtration too: its payoff on an atom
is a function of the pair's payoffs there, so its history splits no cell.

A note on D2 and D5: the alternating structure of the recursion means
monotone inheritance is *not* implied by pathwise dominance alone (a
dominance gap opened at period ``k`` flips sign at ``k + 1``).  The checkers
test the stated implications honestly on whatever processes they are given;
:func:`bundled_pair_processes` supplies pairs from the class where the
implications genuinely hold — dominance through period-wise cash gaps that
start at zero and never shrink, for which the alternating gap sum stays
non-negative at every horizon.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Protocol, Sequence

import numpy as np

from .distributions import EmpiricalSample
from .errors import DataError, DomainError
from .errors import _require_count, _require_member, _require_reals
from .markov import TransitionMatrix
from .static_risk import (
    MeasureKind,
    Orientation,
    RiskMeasureSpec,
    evaluate,
)
from .dynamic_risk import VectorialMeasure

__all__ = [
    "StaticAxiom",
    "DynamicAxiom",
    "Verdict",
    "AxiomReport",
    "TwoPointDistribution",
    "subadditivity_margin",
    "var_subadditivity_witness",
    "FiniteProcess",
    "filtration_partition",
    "RecursiveFiniteMeasure",
    "ModulatedFiniteMeasure",
    "check_static_axiom",
    "check_dynamic_axiom",
    "bundled_pair_processes",
]

_TOL = 1e-9


class StaticAxiom(str, Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"


class DynamicAxiom(str, Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    D6 = "D6"
    D7 = "D7"


class Verdict(str, Enum):
    HOLDS = "holds"
    VIOLATED = "violated"


#: Each axiom's form as (upper-tail form, lower-tail form), so indexed by
#: whether the orientation is the lower tail: the text that a report's
#: ``detail`` names as checked.
_FORMS: dict[Enum, tuple[str, str]] = {
    StaticAxiom.P1: ("X <= Y implies R(X) <= R(Y)", "X <= Y implies R(X) >= R(Y)"),
    StaticAxiom.P2: ("R(X + m) == R(X) + m", "R(X + m) == R(X) - m"),
    StaticAxiom.P3: ("R(X + Y) <= R(X) + R(Y)",) * 2,
    StaticAxiom.P4: ("R(k X) == k R(X) for k > 0",) * 2,
    DynamicAxiom.D1: ("R_t(0) == 0 at every time and atom",) * 2,
    DynamicAxiom.D2: (
        "X <= Y pathwise with R(X_0) <= R(Y_0) implies R_t(X) <= R_t(Y)",
        "X <= Y pathwise with R(X_0) <= R(Y_0) implies R_t(X) >= R_t(Y)",
    ),
    DynamicAxiom.D3: (
        "R_t(X + m at t) == R_t(X) + m for cell-constant m",
        "R_t(X + m at t) == R_t(X) - m for cell-constant m",
    ),
    DynamicAxiom.D4: ("R_t(1_A X + 1_Ac Y) == 1_A R_t(X) + 1_Ac R_t(Y), A in F_t",) * 2,
    DynamicAxiom.D5: ("R_t(X) <= R_t(Y) everywhere implies R_s(X) <= R_s(Y), s <= t",) * 2,
    DynamicAxiom.D6: ("R_t(w X + (1-w) Y) <= w R_t(X) + (1-w) R_t(Y)",) * 2,
    DynamicAxiom.D7: ("R_t(k X) == k R_t(X) for k > 0",) * 2,
}


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check; violations always carry a witness."""

    axiom: str
    verdict: Verdict
    witness: Mapping[str, object] | None
    detail: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "verdict", _require_member(Verdict, self.verdict))
        if self.verdict is Verdict.VIOLATED and self.witness is None:
            raise DomainError("violated verdicts must carry a witness")

    def to_json_dict(self) -> dict[str, object]:
        return {
            "axiom": self.axiom,
            "verdict": self.verdict.value,
            "witness": dict(self.witness) if self.witness is not None else None,
            "detail": self.detail,
        }


# --------------------------------------------------------------------------
# Two-point subadditivity witness (exact rational arithmetic)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPointDistribution:
    """A loss taking ``low`` with probability ``1 - high_prob``, else ``high``."""

    low: float
    high: float
    high_prob: Fraction

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise DomainError(f"need low < high, got {(self.low, self.high)!r}")
        q = Fraction(self.high_prob)
        if not 0 < q < 1:
            raise DomainError(f"high_prob must lie in (0, 1), got {q!r}")
        object.__setattr__(self, "high_prob", q)


def _two_point_var(dist: TwoPointDistribution, p: Fraction) -> float:
    # Upper-tail quantile: low iff P(X <= low) = 1 - high_prob >= p.
    return dist.low if 1 - dist.high_prob >= p else dist.high


def subadditivity_margin(
    x: TwoPointDistribution, y: TwoPointDistribution, p: float
) -> float:
    """``var(X + Y) - var(X) - var(Y)`` for independent two-point losses.

    Enumerates the four-outcome joint exactly in rational arithmetic (the
    level ``p`` is taken at its exact binary-float value), so boundary cases
    are decided without tolerance.  Positive means subadditivity fails.
    """
    p_exact = Fraction(p)
    if not 0 < p_exact < 1:
        raise DomainError(f"confidence level must lie in (0, 1), got {p!r}")
    outcomes: dict[float, Fraction] = {}
    for vx, px in ((x.low, 1 - x.high_prob), (x.high, x.high_prob)):
        for vy, py in ((y.low, 1 - y.high_prob), (y.high, y.high_prob)):
            key = vx + vy
            outcomes[key] = outcomes.get(key, Fraction(0)) + px * py
    joint_var = None
    cum = Fraction(0)
    for value in sorted(outcomes):
        cum += outcomes[value]
        if cum >= p_exact:
            joint_var = value
            break
    assert joint_var is not None  # cum reaches 1 exactly
    return joint_var - _two_point_var(x, p_exact) - _two_point_var(y, p_exact)


def var_subadditivity_witness(
    p: float,
) -> tuple[TwoPointDistribution, TwoPointDistribution, float]:
    """Two i.i.d. two-point losses whose sum breaks value-at-risk subadditivity.

    A tail probability ``q`` is a witness exactly when ``1 - sqrt(p) < q <=
    1 - p``: each marginal then has its quantile at the low outcome while the
    independent sum pushes past it.  The largest ``q = k/denom`` not above
    ``1 - p`` is tried on successively finer decimal grids (where it fails, so
    does every smaller ``k``), and where none works ``q = 1 - p`` itself, a
    witness for every ``p``: ``(1 - q)**2 = p**2 < p``.  The margin is
    enumerated exactly.
    """
    p = float(p)
    if not 0.5 < p < 1.0:
        raise DomainError(f"witness search needs p in (0.5, 1), got {p!r}")
    p_exact = Fraction(p)
    grid = (Fraction(int((1 - p_exact) * d), d) for d in (100, 1000, 10_000, 100_000))
    q = next((q for q in grid if (1 - q) ** 2 < p_exact), 1 - p_exact)
    dist = TwoPointDistribution(low=0.0, high=10.0, high_prob=q)
    return dist, dist, float(subadditivity_margin(dist, dist, p))


# --------------------------------------------------------------------------
# Weighted static evaluation (conditional laws on finite spaces)
# --------------------------------------------------------------------------


def _weighted_static(
    values: list[float], weights: list[float], spec: RiskMeasureSpec
) -> float:
    """``spec`` on the law putting ``weights[i]`` on ``values[i]``, in plain
    Python: on a cell's handful of atoms numpy's dispatch outweighs the work."""
    if spec.orientation is Orientation.LOWER_TAIL:
        values = [-v for v in values]
    order = sorted(range(len(values)), key=values.__getitem__)
    cum = list(itertools.accumulate(map(weights.__getitem__, order)))
    v = values[order[min(bisect.bisect_left(cum, spec.p - 1e-12), len(values) - 1)]]
    if spec.kind is MeasureKind.VAR:
        return v
    xs, ws = np.array(values), np.array(weights)
    mask = xs >= v
    return float(np.dot(xs[mask], ws[mask]) / ws[mask].sum())


# --------------------------------------------------------------------------
# Finite processes and their filtration
# --------------------------------------------------------------------------

_MAX_ATOMS = 64


@dataclass(frozen=True)
class FiniteProcess:
    """A payoff process on a finite outcome space, for exhaustive checks.

    ``payoffs[a][t]`` is the period-``t`` payoff on atom ``a``; all atoms
    carry strictly positive probability and there are at most 64 of them.
    """

    probs: tuple[float, ...]
    payoffs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        probs = _require_reals(self.probs, "atom probabilities", DataError)
        if probs.ndim != 1 or not 1 <= probs.size <= _MAX_ATOMS:
            raise DataError(f"finite processes support 1..{_MAX_ATOMS} atoms, got {probs.shape}")
        if not np.all(probs > 0.0):
            raise DataError("atom probabilities must be strictly positive")
        probs = probs.tolist()
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise DataError(f"atom probabilities must sum to 1, got {math.fsum(probs)!r}")
        rows = _require_reals(self.payoffs, "payoffs", DataError)
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise DataError("payoff matrix must be rectangular with T+1 >= 1 columns")
        if len(rows) != len(probs):
            raise DataError(
                f"payoff matrix has {len(rows)} rows for {len(probs)} atoms"
            )
        if not np.all(np.isfinite(rows)):
            raise DataError("payoffs must be finite")
        object.__setattr__(self, "probs", tuple(probs))
        object.__setattr__(self, "payoffs", tuple(map(tuple, rows.tolist())))

    @property
    def n_atoms(self) -> int:
        return len(self.probs)

    @property
    def horizon(self) -> int:
        return len(self.payoffs[0]) - 1

    def payoff_matrix(self) -> np.ndarray:
        return np.array(self.payoffs, dtype=float)

    def with_payoffs(self, payoffs: np.ndarray) -> "FiniteProcess":
        return FiniteProcess(self.probs, payoffs)


def _require_time(t: object, horizon: int) -> int:
    """``t`` as a count no later than ``horizon``, else a DomainError."""
    t = _require_count(t, "time")
    if t > horizon:
        raise DomainError(f"time {t!r} outside the process horizon {horizon}")
    return t


def filtration_partition(
    processes: Sequence[FiniteProcess], t: int
) -> list[tuple[int, ...]]:
    """Time-``t`` information cells: atoms grouped by payoff history < ``t``.

    With several processes the partition refines all of them (the common
    filtration used when comparing a pair); they share one atom space and
    one horizon, and ``t`` runs from 0, the trivial partition, to that
    horizon.
    """
    if not processes:
        raise DataError("need at least one process to build a partition")
    n, horizon = processes[0].n_atoms, processes[0].horizon
    if any(proc.n_atoms != n for proc in processes):
        raise DataError("processes must share one atom space")
    if any(proc.horizon != horizon for proc in processes):
        raise DataError("processes must share one horizon")
    t = _require_time(t, horizon)
    cells: dict[tuple[float, ...], list[int]] = {}
    for a in range(n):
        key = tuple(
            proc.payoffs[a][s] for proc in processes for s in range(t)
        )
        cells.setdefault(key, []).append(a)
    ordered = sorted(cells.values(), key=lambda atoms: atoms[0])
    return [tuple(atoms) for atoms in ordered]


class DynamicFiniteMeasure(Protocol):
    """What the dynamic-axiom checkers need from a measure.

    ``atom_values`` returns one value per atom: an array of shape
    ``(process.n_atoms,)``, constant on each cell of ``partition``.
    """

    @property
    def orientation(self) -> Orientation: ...

    def atom_values(
        self, process: FiniteProcess, t: int, partition: Sequence[tuple[int, ...]]
    ) -> np.ndarray: ...


class RecursiveFiniteMeasure:
    """The backward recursion evaluated conditionally on finite processes.

    The value at time ``t`` on an atom is obtained by running the recursion
    ``R_0 = R(X_0), R_s = R(X_s shifted by R_{s-1})`` on the conditional law
    given the atom's time-``t`` cell.
    """

    def __init__(self, spec: RiskMeasureSpec) -> None:
        self.spec = spec

    @property
    def orientation(self) -> Orientation:
        return self.spec.orientation

    def atom_values(
        self, process: FiniteProcess, t: int, partition: Sequence[tuple[int, ...]]
    ) -> np.ndarray:
        t = _require_time(t, process.horizon)
        sign = 1.0 if self.spec.orientation is Orientation.LOWER_TAIL else -1.0
        probs = np.array(process.probs)
        out = np.empty(process.n_atoms)
        for cell in partition:
            if len(cell) == 1:
                # A point mass (weight p/p = 1.0 exactly): its VaR and CVaR are
                # its value, negated in the lower tail, at every step.
                row = process.payoffs[cell[0]]
                value = -sign * row[0]
                for s in range(1, t + 1):
                    value = -sign * (row[s] + sign * value)
                out[cell[0]] = value
                continue
            idx = list(cell)
            cell_probs = probs[idx]
            weights = (cell_probs / cell_probs.sum()).tolist()
            rows = [process.payoffs[a] for a in cell]
            value = _weighted_static([row[0] for row in rows], weights, self.spec)
            for s in range(1, t + 1):
                value = _weighted_static([row[s] + sign * value for row in rows], weights, self.spec)
            out[idx] = value
        return out


# Kept only because perfbench/inproc.py builds it; ROADMAP item 6 deletes it.
class ModulatedFiniteMeasure(RecursiveFiniteMeasure):
    """Markov-modulated measure on finite processes: one value per atom.

    The components of a :class:`VectorialMeasure` share one spec, and the
    outgoing distribution of every chain state sums to 1, so averaging the
    components over it leaves the recursive value of ``measure.specs[0]``.
    The chain only has to match the measure and hold the initial state.
    """

    def __init__(
        self,
        measure: VectorialMeasure,
        matrix: TransitionMatrix,
        initial_state: int,
    ) -> None:
        if measure.n_states != matrix.n_states:
            raise DomainError(
                f"measure has {measure.n_states} components, chain has "
                f"{matrix.n_states} states"
            )
        matrix.require_state(initial_state)
        super().__init__(measure.specs[0])


# --------------------------------------------------------------------------
# Static axiom checker
# --------------------------------------------------------------------------


def check_static_axiom(
    axiom: StaticAxiom,
    spec: RiskMeasureSpec,
    trials: int = 1000,
    seed: int = 0,
) -> AxiomReport:
    """Randomized check of one static axiom on equal-weight common spaces.

    Deterministic per seed.  For value-at-risk P3 the constructed two-point
    witness is examined first, so the expected violation is reported with an
    exactly enumerated witness instead of depending on random luck.
    """
    axiom = _require_member(StaticAxiom, axiom)
    trials = _require_count(trials, "trials")
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials!r}")
    rng = np.random.default_rng(_require_count(seed, "seed"))
    lower = spec.orientation is Orientation.LOWER_TAIL
    form = _FORMS[axiom][lower]
    detail = f"{axiom.value} for {spec.kind.value} at p={spec.p} ({spec.orientation.value}): {form}"

    if axiom is StaticAxiom.P3 and spec.kind is MeasureKind.VAR and 0.5 < spec.p < 1.0:
        x_dist, y_dist, margin = var_subadditivity_witness(spec.p)
        p_exact = Fraction(spec.p)
        witness = {
            "x": {"low": x_dist.low, "high": x_dist.high, "high_prob": float(x_dist.high_prob)},
            "y": {"low": y_dist.low, "high": y_dist.high, "high_prob": float(y_dist.high_prob)},
            "var_x": _two_point_var(x_dist, p_exact),
            "var_y": _two_point_var(y_dist, p_exact),
            "var_sum": _two_point_var(x_dist, p_exact)
            + _two_point_var(y_dist, p_exact)
            + margin,
            "margin": margin,
            "note": "independent two-point losses; margin enumerated exactly "
            "on the four-outcome joint (orientation-symmetric)",
        }
        return AxiomReport(axiom.value, Verdict.VIOLATED, witness, detail)

    def measure(values: np.ndarray) -> float:
        return evaluate(EmpiricalSample(values), spec)

    for trial in range(trials):
        n = int(rng.integers(2, 41))
        scale = 10.0 ** rng.uniform(-1.0, 2.0)
        x = rng.normal(0.0, scale, n)
        if axiom is StaticAxiom.P1:
            y = x + np.abs(rng.normal(0.0, scale, n))
            rx, ry = measure(x), measure(y)
            ok = rx >= ry - _TOL if lower else rx <= ry + _TOL
            if not ok:
                witness = {"trial": trial, "x": x.tolist(), "y": y.tolist(), "r_x": rx, "r_y": ry}
                return AxiomReport(axiom.value, Verdict.VIOLATED, witness, detail)
        elif axiom is StaticAxiom.P2:
            m = float(rng.normal(0.0, scale))
            lhs = measure(x + m)
            rhs = measure(x) - m if lower else measure(x) + m
            if abs(lhs - rhs) > _TOL * (1.0 + abs(rhs)):
                witness = {"trial": trial, "x": x.tolist(), "m": m, "lhs": lhs, "rhs": rhs}
                return AxiomReport(axiom.value, Verdict.VIOLATED, witness, detail)
        elif axiom is StaticAxiom.P3:
            if trial % 2 == 0:
                y = rng.normal(0.0, scale, n)
            else:
                # comonotone pair: increasing transform of the same outcomes
                y = float(rng.uniform(0.5, 2.0)) * x + float(rng.normal(0.0, scale))
            lhs = measure(x + y)
            rhs = measure(x) + measure(y)
            if lhs > rhs + _TOL * (1.0 + abs(rhs)):
                witness = {"trial": trial, "x": x.tolist(), "y": y.tolist(), "lhs": lhs, "rhs": rhs}
                return AxiomReport(axiom.value, Verdict.VIOLATED, witness, detail)
        else:
            k = float(rng.uniform(0.1, 5.0))
            lhs = measure(k * x)
            rhs = k * measure(x)
            if abs(lhs - rhs) > _TOL * (1.0 + abs(rhs)):
                witness = {"trial": trial, "x": x.tolist(), "k": k, "lhs": lhs, "rhs": rhs}
                return AxiomReport(axiom.value, Verdict.VIOLATED, witness, detail)
    return AxiomReport(axiom.value, Verdict.HOLDS, None, detail)


# --------------------------------------------------------------------------
# Dynamic axiom checker
# --------------------------------------------------------------------------

ProcessPair = tuple[FiniteProcess, FiniteProcess]


def _require_pairs(pairs: Sequence[ProcessPair]) -> list[ProcessPair]:
    if not pairs:
        raise DataError("need at least one process pair")
    horizon = pairs[0][0].horizon
    for x, y in pairs:
        if x.probs != y.probs:
            raise DataError("paired processes must share one probability space")
        if x.horizon != horizon or y.horizon != horizon:
            raise DataError(
                f"all processes must share one horizon, got {x.horizon} and "
                f"{y.horizon} against {horizon}"
            )
    return list(pairs)


def _paste(x: FiniteProcess, y: FiniteProcess, mask: np.ndarray) -> FiniteProcess:
    """``1_A x + 1_Ac y`` with ``A = mask``, built from the rows of two
    processes that were validated on one probability space, so not again."""
    pasted = object.__new__(FiniteProcess)
    object.__setattr__(pasted, "probs", x.probs)
    rows = zip(mask.tolist(), x.payoffs, y.payoffs)
    object.__setattr__(pasted, "payoffs", tuple(xr if m else yr for m, xr, yr in rows))
    return pasted


def _events(cells: Sequence[tuple[int, ...]], rng: np.random.Generator) -> list[list[int]]:
    """Unions of information cells to quantify the local property over."""
    if len(cells) <= 10:
        events = []
        for r in range(1, len(cells)):
            for combo in itertools.combinations(range(len(cells)), r):
                events.append([a for i in combo for a in cells[i]])
        return events
    events = [list(c) for c in cells]
    for _ in range(32):
        pick = rng.random(len(cells)) < 0.5
        if pick.any() and not pick.all():
            events.append([a for i, c in enumerate(cells) if pick[i] for a in c])
    return events


def check_dynamic_axiom(
    axiom: DynamicAxiom,
    measure: DynamicFiniteMeasure,
    pairs: Sequence[ProcessPair],
    seed: int = 0,
) -> AxiomReport:
    """Exhaustive check of one dynamic axiom over the supplied process pairs.

    Unary axioms (D1, D3, D7) use the first process of each pair.  Pairwise
    implications (D2, D5) are tested as implications: pairs whose hypotheses
    fail are skipped, and the verdict covers the pairs where they hold.  All
    comparisons run atom by atom on the common filtration of the pair, on
    which each process is evaluated once per time.
    """
    axiom = _require_member(DynamicAxiom, axiom)
    pairs = _require_pairs(pairs)
    rng = np.random.default_rng(_require_count(seed, "seed"))
    lower = measure.orientation is Orientation.LOWER_TAIL
    T = pairs[0][0].horizon
    detail = f"{axiom.value} ({measure.orientation.value}): {_FORMS[axiom][lower]}"

    def report(witness: Mapping[str, object] | None) -> AxiomReport:
        verdict = Verdict.HOLDS if witness is None else Verdict.VIOLATED
        return AxiomReport(axiom.value, verdict, witness, detail)

    def steps(
        *processes: FiniteProcess,
    ) -> Iterator[tuple[int, list[tuple[int, ...]], list[np.ndarray]]]:
        """For each time t: t, the common cells of ``processes`` and each
        one's values on them."""
        for t in range(T + 1):
            cells = filtration_partition(processes, t)
            yield t, cells, [measure.atom_values(proc, t, cells) for proc in processes]

    for pair_index, (x_proc, y_proc) in enumerate(pairs):
        if axiom is DynamicAxiom.D1:
            zero = x_proc.with_payoffs(np.zeros((x_proc.n_atoms, T + 1)))
            for t, _, (vals,) in steps(zero):
                if np.max(np.abs(vals)) > _TOL:
                    return report(
                        {"pair": pair_index, "t": t, "max_abs": float(np.max(np.abs(vals)))}
                    )
        elif axiom is DynamicAxiom.D2:
            if np.any(x_proc.payoff_matrix() > y_proc.payoff_matrix() + _TOL):
                continue  # hypothesis X <= Y fails; vacuous pair
            for t, _, (vx, vy) in steps(x_proc, y_proc):
                if t == 0 and np.any(vx > vy + _TOL):
                    break  # hypothesis R(X_0) <= R(Y_0) fails; vacuous pair
                gap = vy - vx if lower else vx - vy
                if np.max(gap) > _TOL:
                    bad = int(np.argmax(gap))
                    return report(
                        {"pair": pair_index, "t": t, "atom": bad, "excess": float(np.max(gap))}
                    )
        elif axiom is DynamicAxiom.D3:
            sign = -1.0 if lower else 1.0
            for t, cells, (vx,) in steps(x_proc):
                shift = np.empty(x_proc.n_atoms)
                for cell in cells:
                    shift[list(cell)] = float(rng.normal(0.0, 1.0))
                shifted = x_proc.payoff_matrix()
                shifted[:, t] += shift
                lhs = measure.atom_values(x_proc.with_payoffs(shifted), t, cells)
                rhs = vx + sign * shift
                if np.max(np.abs(lhs - rhs)) > _TOL * (1.0 + float(np.max(np.abs(rhs)))):
                    return report(
                        {"pair": pair_index, "t": t, "max_abs": float(np.max(np.abs(lhs - rhs)))}
                    )
        elif axiom is DynamicAxiom.D4:
            for t, cells, (vx, vy) in steps(x_proc, y_proc):
                for event in _events(cells, rng):
                    mask = np.zeros(x_proc.n_atoms, dtype=bool)
                    mask[event] = True
                    vz = measure.atom_values(_paste(x_proc, y_proc, mask), t, cells)
                    max_abs = float(np.max(np.abs(vz - np.where(mask, vx, vy))))
                    if max_abs > _TOL:
                        return report(
                            {"pair": pair_index, "t": t, "event": sorted(event), "max_abs": max_abs}
                        )
        elif axiom is DynamicAxiom.D5:
            values = [vxy for _, _, vxy in steps(x_proc, y_proc)]
            for t, (vx, vy) in enumerate(values):
                if np.any(vx > vy + _TOL):
                    continue  # antecedent fails at this horizon
                for s, (vx_s, vy_s) in enumerate(values[: t + 1]):
                    excess = float(np.max(vx_s - vy_s))
                    if excess > _TOL:
                        return report({"pair": pair_index, "t": t, "s": s, "excess": excess})
        elif axiom is DynamicAxiom.D6:
            # The mixture's payoffs are a function of the pair's, so its
            # history splits no cell of the pair's filtration.
            pair_steps = list(steps(x_proc, y_proc))
            for w in (0.25, 0.5, 0.75):
                mixed = x_proc.with_payoffs(
                    w * x_proc.payoff_matrix() + (1.0 - w) * y_proc.payoff_matrix()
                )
                for t, cells, (vx, vy) in pair_steps:
                    vz = measure.atom_values(mixed, t, cells)
                    excess = float(np.max(vz - (w * vx + (1.0 - w) * vy)))
                    if excess > _TOL:
                        return report({"pair": pair_index, "t": t, "weight": w, "excess": excess})
        else:  # D7
            x_steps = list(steps(x_proc))
            for k in (0.5, 2.0, float(rng.uniform(0.1, 3.0))):
                scaled = x_proc.with_payoffs(k * x_proc.payoff_matrix())
                for t, cells, (vx,) in x_steps:
                    max_abs = float(np.max(np.abs(measure.atom_values(scaled, t, cells) - k * vx)))
                    if max_abs > _TOL * (1.0 + abs(k)):
                        return report({"pair": pair_index, "t": t, "k": k, "max_abs": max_abs})
    return report(None)


# --------------------------------------------------------------------------
# Bundled fixtures
# --------------------------------------------------------------------------


def bundled_pair_processes(
    axiom: DynamicAxiom,
    *,
    orientation: Orientation = Orientation.LOWER_TAIL,
    n_pairs: int = 4,
    n_atoms: int = 4,
    T: int = 3,
    seed: int = 2024,
) -> list[ProcessPair]:
    """Seeded fixture pairs on which the dynamic axioms are expected to hold.

    D2/D5 pairs dominate through period-wise cash gaps that start at zero
    and never shrink — the class where the alternating recursion preserves
    the ordering at every horizon (see module docstring).  D5 pairs are
    ordered so the antecedent holds at every time under the given
    orientation.  Other axioms get generic random pairs.
    """
    axiom = _require_member(DynamicAxiom, axiom)
    n_pairs, n_atoms, T = (
        _require_count(value, name)
        for name, value in (("n_pairs", n_pairs), ("n_atoms", n_atoms), ("T", T))
    )
    rng = np.random.default_rng(_require_count(seed, "seed"))
    if n_pairs < 1:
        raise DomainError(f"n_pairs must be positive, got {n_pairs!r}")
    if n_atoms < 1 or not (n_atoms & (n_atoms - 1)) == 0 or n_atoms > _MAX_ATOMS:
        raise DomainError(f"n_atoms must be a power of two up to {_MAX_ATOMS}")
    probs = tuple(1.0 / n_atoms for _ in range(n_atoms))
    pairs: list[ProcessPair] = []
    for _ in range(n_pairs):
        base = rng.normal(0.0, 1.0, (n_atoms, T + 1))
        x = FiniteProcess(probs, base)
        if axiom in (DynamicAxiom.D2, DynamicAxiom.D5):
            gaps = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, T))])
            richer = x.with_payoffs(base + gaps[None, :])
            if axiom is DynamicAxiom.D2:
                pairs.append((x, richer))
            else:
                # order so R_t(first) <= R_t(second) at every t
                if orientation is Orientation.LOWER_TAIL:
                    pairs.append((richer, x))
                else:
                    pairs.append((x, richer))
        else:
            other = x.with_payoffs(rng.normal(0.0, 1.0, (n_atoms, T + 1)))
            pairs.append((x, other))
    return pairs
