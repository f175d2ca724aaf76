"""Axiom checkers: randomized static properties, exhaustive dynamic ones."""

from fractions import Fraction

import numpy as np
import pytest

from riskflow import axioms
from riskflow.axioms import (
    AxiomReport,
    DynamicAxiom,
    FiniteProcess,
    ModulatedFiniteMeasure,
    RecursiveFiniteMeasure,
    StaticAxiom,
    TwoPointDistribution,
    Verdict,
    bundled_pair_processes,
    check_dynamic_axiom,
    check_static_axiom,
    filtration_partition,
    subadditivity_margin,
    var_subadditivity_witness,
)
from riskflow.distributions import EmpiricalSample
from riskflow.dynamic_risk import VectorialMeasure
from riskflow.errors import DataError, DomainError
from riskflow.markov import TransitionMatrix
from riskflow.static_risk import (
    MeasureKind,
    Orientation,
    RiskMeasureSpec,
    evaluate,
)

REFERENCE_MATRIX = TransitionMatrix.from_rows(((0.25, 0.75), (0.35, 0.65)))

VAR_LOWER = RiskMeasureSpec(MeasureKind.VAR, 0.95, Orientation.LOWER_TAIL)
VAR_UPPER = RiskMeasureSpec(MeasureKind.VAR, 0.95, Orientation.UPPER_TAIL)
CVAR_LOWER = RiskMeasureSpec(MeasureKind.CVAR, 0.95, Orientation.LOWER_TAIL)
CVAR_UPPER = RiskMeasureSpec(MeasureKind.CVAR, 0.95, Orientation.UPPER_TAIL)


def uniform_process(payoffs):
    n = len(payoffs)
    return FiniteProcess(tuple(1.0 / n for _ in range(n)), tuple(tuple(r) for r in payoffs))


class TestStaticAxioms:
    @pytest.mark.parametrize("axiom", [StaticAxiom.P1, StaticAxiom.P2, StaticAxiom.P4])
    @pytest.mark.parametrize("spec", [VAR_LOWER, VAR_UPPER], ids=["lower", "upper"])
    def test_var_monotone_translation_homogeneous(self, axiom, spec):
        report = check_static_axiom(axiom, spec, trials=300, seed=0)
        assert report.verdict is Verdict.HOLDS
        assert report.witness is None

    @pytest.mark.parametrize("spec", [VAR_LOWER, VAR_UPPER], ids=["lower", "upper"])
    def test_var_subadditivity_fails_with_witness(self, spec):
        report = check_static_axiom(StaticAxiom.P3, spec, trials=300, seed=0)
        assert report.verdict is Verdict.VIOLATED
        w = report.witness
        assert w is not None and w["margin"] > 0
        assert w["var_sum"] > w["var_x"] + w["var_y"]

    @pytest.mark.parametrize("axiom", list(StaticAxiom))
    @pytest.mark.parametrize("spec", [CVAR_LOWER, CVAR_UPPER], ids=["lower", "upper"])
    def test_cvar_satisfies_all_four(self, axiom, spec):
        report = check_static_axiom(axiom, spec, trials=300, seed=0)
        assert report.verdict is Verdict.HOLDS, report.witness

    @pytest.mark.parametrize(
        "axiom, broken, keys",
        [
            # Rises with the payoff, so dominance raises a lower-tail risk.
            (StaticAxiom.P1, lambda sample, spec: float(np.mean(sample.values)),
             {"trial", "x", "y", "r_x", "r_y"}),
            # Ignores cash.
            (StaticAxiom.P2, lambda sample, spec: 0.0, {"trial", "x", "m", "lhs", "rhs"}),
            # R(X + Y) = -1 exceeds R(X) + R(Y) = -2.
            (StaticAxiom.P3, lambda sample, spec: -1.0, {"trial", "x", "y", "lhs", "rhs"}),
            # Ignores scale.
            (StaticAxiom.P4, lambda sample, spec: 1.0, {"trial", "x", "k", "lhs", "rhs"}),
        ],
        ids=["P1", "P2", "P3", "P4"],
    )
    def test_every_trial_branch_reports_a_violation(self, monkeypatch, axiom, broken, keys):
        # CVaR takes no constructed witness, so every verdict comes from a trial.
        monkeypatch.setattr(axioms, "evaluate", broken)
        report = check_static_axiom(axiom, CVAR_LOWER, trials=20, seed=0)
        assert report.verdict is Verdict.VIOLATED
        assert report.witness is not None and set(report.witness) == keys
        assert report.witness["trial"] == 0

    def test_accepts_plain_strings_and_is_deterministic(self):
        a = check_static_axiom("P2", VAR_LOWER, trials=50, seed=7)
        b = check_static_axiom(StaticAxiom.P2, VAR_LOWER, trials=50, seed=7)
        assert a == b

    def test_detail_states_orientation(self):
        report = check_static_axiom(StaticAxiom.P1, VAR_LOWER, trials=10, seed=0)
        assert "lower_tail" in report.detail
        assert "R(X) >= R(Y)" in report.detail

    def test_lower_tail_checks_never_build_a_negated_sample(self, monkeypatch):
        # A sample's lower tail is read in place; only a zero result, whose
        # sign negated() decides, may build the negated copy.
        calls = []
        negated = EmpiricalSample.negated

        def counted(self):
            calls.append(self)
            return negated(self)

        monkeypatch.setattr(EmpiricalSample, "negated", counted)
        for spec in (VAR_LOWER, CVAR_LOWER):
            for axiom in StaticAxiom:
                check_static_axiom(axiom, spec, trials=100, seed=0)
        assert calls == []
        evaluate(EmpiricalSample((0.0, 1.0)), VAR_LOWER)  # the counter counts
        assert len(calls) == 1

    def test_trials_validated(self):
        with pytest.raises(DomainError):
            check_static_axiom(StaticAxiom.P1, VAR_LOWER, trials=0)


class TestSubadditivityWitness:
    def test_margin_positive_and_verified_exactly(self):
        for p in (0.95, 0.99):
            x, y, margin = var_subadditivity_witness(p)
            assert margin > 0
            assert subadditivity_margin(x, y, p) == margin
            # Re-derive the three quantiles from scratch with rationals.
            p_exact = Fraction(p)
            qx = x.high_prob
            assert 1 - qx >= p_exact  # marginal quantile sits at the low outcome
            low_sum = (1 - qx) * (1 - y.high_prob)
            assert low_sum < p_exact  # the joint pushes past it
            assert margin == pytest.approx(x.high)  # sum var lands one step up

    @pytest.mark.parametrize("p", [0.99999, 0.999999, 1.0 - 2.0**-53])
    def test_a_level_past_the_finest_grid_has_a_witness(self, p):
        # No grid point k/100000 lies in (1 - sqrt(p), 1 - p]: q = 1 - p does.
        x, y, margin = var_subadditivity_witness(p)
        assert x.high_prob == 1 - Fraction(p)
        assert subadditivity_margin(x, y, p) == margin > 0

    def test_margin_non_positive_when_tails_are_fat(self):
        # With the high outcome inside the confidence level the marginal
        # quantiles already sit at the top and the sum cannot overshoot.
        dist = TwoPointDistribution(low=0.0, high=10.0, high_prob=Fraction(1, 5))
        assert subadditivity_margin(dist, dist, 0.95) <= 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            TwoPointDistribution(low=1.0, high=1.0, high_prob=Fraction(1, 2))
        with pytest.raises(DomainError):
            TwoPointDistribution(low=0.0, high=1.0, high_prob=Fraction(0))
        with pytest.raises(DomainError):
            var_subadditivity_witness(0.4)
        dist = TwoPointDistribution(low=0.0, high=10.0, high_prob=Fraction(1, 20))
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError, match="must lie in \\(0, 1\\)"):
                subadditivity_margin(dist, dist, p)


class TestAxiomReport:
    def test_violated_requires_witness(self):
        with pytest.raises(DomainError):
            AxiomReport("P1", Verdict.VIOLATED, None, "broken")

    def test_json_shape(self):
        report = AxiomReport("D1", Verdict.HOLDS, None, "fine")
        assert report.to_json_dict() == {
            "axiom": "D1",
            "verdict": "holds",
            "witness": None,
            "detail": "fine",
        }


class TestFiniteProcess:
    def test_shape_properties(self):
        proc = uniform_process([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert proc.n_atoms == 2
        assert proc.horizon == 2
        np.testing.assert_array_equal(proc.payoff_matrix(), [[1, 2, 3], [4, 5, 6]])

    def test_validation(self):
        with pytest.raises(DataError):
            FiniteProcess((0.5, 0.6), ((1.0,), (2.0,)))  # probs don't sum to 1
        with pytest.raises(DataError):
            FiniteProcess((1.0,), ((1.0,), (2.0,)))  # row count mismatch
        with pytest.raises(DataError):
            FiniteProcess((0.5, 0.5), ((1.0, 2.0), (3.0,)))  # ragged
        with pytest.raises(DataError):
            n = 65
            FiniteProcess(tuple(1.0 / n for _ in range(n)), tuple((0.0,) for _ in range(n)))
        for payoffs in (((), ()), np.empty((2, 0))):  # no payoff columns
            with pytest.raises(DataError, match="T\\+1 >= 1 columns"):
                FiniteProcess((0.5, 0.5), payoffs)

    def test_partition_needs_processes_on_one_atom_space(self):
        with pytest.raises(DataError, match="at least one process"):
            filtration_partition([], 0)
        two, three = uniform_process([[1.0], [2.0]]), uniform_process([[1.0], [2.0], [3.0]])
        with pytest.raises(DataError, match="share one atom space"):
            filtration_partition([two, three], 0)

    def test_filtration_refines_over_time(self):
        # Two branches at t=1 (by X_0), four at t=2 (by X_0, X_1).
        proc = uniform_process(
            [[0.0, 0.0, 9.0], [0.0, 1.0, 9.0], [1.0, 0.0, 9.0], [1.0, 1.0, 9.0]]
        )
        assert filtration_partition([proc], 0) == [(0, 1, 2, 3)]
        assert filtration_partition([proc], 1) == [(0, 1), (2, 3)]
        assert filtration_partition([proc], 2) == [(0,), (1,), (2,), (3,)]

    def test_common_filtration_of_a_pair(self):
        x = uniform_process([[0.0, 1.0], [0.0, 2.0]])
        y = uniform_process([[5.0, 1.0], [6.0, 2.0]])
        # x alone cannot separate the atoms at t=1; y can.
        assert filtration_partition([x], 1) == [(0, 1)]
        assert filtration_partition([x, y], 1) == [(0,), (1,)]


class TestRecursiveFiniteMeasure:
    def test_time_zero_matches_static_evaluation(self):
        rng = np.random.default_rng(3)
        for spec in (VAR_LOWER, VAR_UPPER, CVAR_LOWER, CVAR_UPPER):
            for _ in range(25):
                n = int(rng.integers(2, 17))
                values = rng.normal(0.0, 2.0, n)
                proc = uniform_process([[v] for v in values])
                got = RecursiveFiniteMeasure(spec).atom_values(
                    proc, 0, filtration_partition([proc], 0)
                )
                expected = evaluate(EmpiricalSample(tuple(values)), spec)
                assert np.allclose(got, expected, atol=1e-12)

    def test_singleton_cells_recurse_pathwise(self):
        # Distinct histories at t=1 make each cell a point mass, so the
        # lower-tail recursion reduces to X_0(a) - X_1(a) on each atom.
        proc = uniform_process([[1.0, 5.0], [2.0, 7.0]])
        got = RecursiveFiniteMeasure(VAR_LOWER).atom_values(
            proc, 1, filtration_partition([proc], 1)
        )
        np.testing.assert_allclose(got, [1.0 - 5.0, 2.0 - 7.0])

    def test_time_bounds_checked(self):
        proc = uniform_process([[1.0], [2.0]])
        with pytest.raises(DomainError):
            RecursiveFiniteMeasure(VAR_LOWER).atom_values(
                proc, 1, filtration_partition([proc], 0)
            )


def _oracle_var_upper(values, weights, p):
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, p - 1e-12, side="left"))
    return float(values[order[min(idx, len(values) - 1)]])


def _oracle_static(values, weights, spec):
    vals = np.asarray(values, dtype=float)
    if spec.orientation is Orientation.LOWER_TAIL:
        vals = -vals
    v = _oracle_var_upper(vals, weights, spec.p)
    if spec.kind is MeasureKind.VAR:
        result = v
    else:
        mask = vals >= v
        result = float(np.dot(vals[mask], weights[mask]) / weights[mask].sum())
    return result


class _NumpyOracleMeasure(RecursiveFiniteMeasure):
    """The finite recursion as it was written on numpy arrays, per cell."""

    def atom_values(self, process, t, partition):
        sign = 1.0 if self.spec.orientation is Orientation.LOWER_TAIL else -1.0
        matrix = process.payoff_matrix()
        probs = np.array(process.probs)
        out = np.empty(process.n_atoms)
        for cell in partition:
            idx = list(cell)
            weights = probs[idx] / probs[idx].sum()
            value = _oracle_static(matrix[idx, 0], weights, self.spec)
            for s in range(1, t + 1):
                value = _oracle_static(matrix[idx, s] + sign * value, weights, self.spec)
            out[idx] = value
        return out


def tied_process(rng, n_atoms, horizon):
    """Payoffs from a few levels, signed zeros among them, so cells share
    histories and values tie; atom weights take at most three values."""
    levels = np.array([-1.5, -0.0, 0.0, 0.5, 2.0])
    payoffs = rng.choice(levels[: int(rng.integers(2, 6))], (n_atoms, horizon + 1))
    raw = rng.choice([1.0, 2.0, float(rng.uniform(0.1, 3.0))], n_atoms)
    if rng.random() < 0.3:
        raw[:] = 1.0  # equal weights, whose sums land within rounding of p
    return FiniteProcess(tuple((raw / raw.sum()).tolist()), tuple(map(tuple, payoffs)))


def distinct_history_process(rng, n_atoms, horizon):
    """Distinct first payoffs, one of them a signed zero, so every cell at
    t >= 1 holds one atom; later payoffs from levels with signed zeros."""
    first = (rng.permutation(n_atoms) - int(rng.integers(0, n_atoms))) * 0.5
    first[first == 0.0] = rng.choice([-0.0, 0.0])
    later = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], (n_atoms, horizon))
    raw = rng.choice([1.0, 2.0, float(rng.uniform(0.1, 3.0))], n_atoms)
    payoffs = np.column_stack([first, later])
    return FiniteProcess(tuple((raw / raw.sum()).tolist()), tuple(map(tuple, payoffs)))


ALL_SPECS = [VAR_LOWER, VAR_UPPER, CVAR_LOWER, CVAR_UPPER]
SPEC_IDS = ["var-lower", "var-upper", "cvar-lower", "cvar-upper"]


class TestRecursionMatchesNumpyOracle:
    """The plain-Python per-cell recursion against the numpy one it replaced.

    Cells run from 1 to 64 atoms, so cells of 8 or more take numpy's
    pairwise sum in the weight normalisation and the CVaR tail mean.
    """

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    def test_atom_values_are_bit_identical(self, spec):
        rng = np.random.default_rng(2113)
        sizes = set()
        for trial in range(150):
            n_atoms = (64, 20, 40, 60)[trial % 4] if trial % 10 < 4 else int(rng.integers(1, 65))
            proc = tied_process(rng, n_atoms, int(rng.integers(0, 4)))
            for t in range(proc.horizon + 1):
                partition = filtration_partition([proc], t)
                sizes.update(len(cell) for cell in partition)
                got = RecursiveFiniteMeasure(spec).atom_values(proc, t, partition)
                expected = _NumpyOracleMeasure(spec).atom_values(proc, t, partition)
                assert got.tobytes() == expected.tobytes(), (trial, t)
        assert {1, 64} <= sizes and len([k for k in sizes if k >= 8]) > 10

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    def test_one_atom_cells_are_bit_identical(self, spec):
        rng = np.random.default_rng(2115)
        zero_signs = set()
        for trial in range(100):
            proc = distinct_history_process(rng, int(rng.integers(1, 65)), int(rng.integers(1, 4)))
            for t in range(proc.horizon + 1):
                partition = filtration_partition([proc], t)
                assert t == 0 or len(partition) == proc.n_atoms
                got = RecursiveFiniteMeasure(spec).atom_values(proc, t, partition)
                expected = _NumpyOracleMeasure(spec).atom_values(proc, t, partition)
                assert got.tobytes() == expected.tobytes(), (trial, t)
                zero_signs.update(np.copysign(1.0, got[got == 0.0]).tolist())
        assert zero_signs == {-1.0, 1.0}

    def test_d4_pastes_the_rows_of_x_and_y(self, monkeypatch):
        pasted = []

        def recording_paste(x, y, mask, paste=axioms._paste):
            z = paste(x, y, mask)
            pasted.append((x, y, mask.copy(), z))
            return z

        monkeypatch.setattr(axioms, "_paste", recording_paste)
        rng = np.random.default_rng(2116)
        pairs = []
        for _ in range(3):
            x = tied_process(rng, 12, 2)
            pairs.append((x, x.with_payoffs(tied_process(rng, 12, 2).payoff_matrix())))
        check_dynamic_axiom(DynamicAxiom.D4, RecursiveFiniteMeasure(CVAR_LOWER), pairs, seed=3)
        assert len(pasted) > 100
        for x, y, mask, got in pasted:
            expected = x.with_payoffs(np.where(mask[:, None], x.payoff_matrix(), y.payoff_matrix()))
            assert got.probs == expected.probs and got.payoffs == expected.payoffs
            assert got.payoff_matrix().tobytes() == expected.payoff_matrix().tobytes()

    @pytest.mark.parametrize("spec", [VAR_UPPER, CVAR_UPPER], ids=["var", "cvar"])
    def test_cumulative_weight_at_the_level_is_inside(self, spec):
        # The first atom's weight is p - 1e-12 exactly, so it is the quantile.
        low = 0.95 - 1e-12
        proc = FiniteProcess((low, 1.0 - low), ((1.0,), (2.0,)))
        partition = filtration_partition([proc], 0)
        expected = _NumpyOracleMeasure(spec).atom_values(proc, 0, partition)
        got = RecursiveFiniteMeasure(spec).atom_values(proc, 0, partition)
        assert got.tobytes() == expected.tobytes()
        assert got[0] == (1.0 if spec.kind is MeasureKind.VAR else low + 2.0 * (1.0 - low))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    def test_reports_are_unchanged(self, spec):
        # Pairs on 12 atoms, half the payoffs tied, dominating through gaps
        # that start at 0 and may shrink, ordered both ways: D2 or D5 fails
        # on some, so witnesses are compared too.
        rng = np.random.default_rng(2114)
        pairs = []
        for _ in range(2):
            x = tied_process(rng, 12, 2)
            untied = rng.normal(0.0, 1.0, (12, 3))
            x = x.with_payoffs(np.where(rng.random((12, 3)) < 0.5, x.payoff_matrix(), untied))
            gaps = rng.uniform(0.0, 1.0, (12, 3)) * [0.0, 1.0, 1.0]
            richer = x.with_payoffs(x.payoff_matrix() + gaps)
            pairs += [(x, richer), (richer, x)]
        violated = 0
        for axiom in DynamicAxiom:
            for group in (bundled_pair_processes(axiom, orientation=spec.orientation), pairs):
                got = check_dynamic_axiom(axiom, RecursiveFiniteMeasure(spec), group, seed=3)
                expected = check_dynamic_axiom(axiom, _NumpyOracleMeasure(spec), group, seed=3)
                assert got.to_json_dict() == expected.to_json_dict(), axiom
                violated += got.verdict is Verdict.VIOLATED
        assert violated > 0


class TestModulatedFiniteMeasure:
    def build(self, spec=VAR_LOWER):
        return ModulatedFiniteMeasure(
            VectorialMeasure((spec, spec)), REFERENCE_MATRIX, initial_state=1
        )

    def test_identical_components_collapse_to_recursion(self):
        # Equal per-state specs averaged over an outgoing distribution that
        # sums to 1 leave the plain recursive value, one per atom.
        rng = np.random.default_rng(4)
        proc = uniform_process(rng.normal(0.0, 1.0, (4, 3)))
        for spec in (VAR_LOWER, CVAR_UPPER):
            modulated = self.build(spec)
            assert modulated.orientation is spec.orientation
            for t in range(3):
                partition = filtration_partition([proc], t)
                values = modulated.atom_values(proc, t, partition)
                assert values.shape == (4,)
                np.testing.assert_array_equal(
                    values, RecursiveFiniteMeasure(spec).atom_values(proc, t, partition)
                )

    def test_time_zero_is_static_value(self):
        proc = uniform_process([[1.0, 0.0], [4.0, 0.0]])
        vals = self.build().atom_values(proc, 0, filtration_partition([proc], 0))
        expected = evaluate(EmpiricalSample((1.0, 4.0)), VAR_LOWER)
        assert np.allclose(vals, expected)

    def test_component_count_must_match_chain(self):
        with pytest.raises(DomainError):
            ModulatedFiniteMeasure(
                VectorialMeasure((VAR_LOWER,)), REFERENCE_MATRIX, initial_state=1
            )
        with pytest.raises(DomainError):
            ModulatedFiniteMeasure(
                VectorialMeasure((VAR_LOWER, VAR_LOWER)), REFERENCE_MATRIX, initial_state=3
            )


class _ConstantMeasure:
    """Deliberately broken: returns a nonzero constant everywhere."""

    orientation = Orientation.LOWER_TAIL

    def atom_values(self, process, t, partition):
        return np.full(process.n_atoms, 1.0)


class _CellMeanMeasure:
    """Linear reference measure: the conditional mean of X_t per cell."""

    orientation = Orientation.UPPER_TAIL

    def atom_values(self, process, t, partition):
        matrix = process.payoff_matrix()
        probs = np.array(process.probs)
        out = np.empty(process.n_atoms)
        for cell in partition:
            idx = list(cell)
            w = probs[idx] / probs[idx].sum()
            out[idx] = float(np.dot(matrix[idx, t], w))
        return out


class _LowerCellMeanMeasure(_CellMeanMeasure):
    """Deliberately broken: the cell mean rises with the payoff, yet is
    declared lower-tail, so dominance raises the risk it should lower."""

    orientation = Orientation.LOWER_TAIL


class _PooledMeanMeasure:
    """Deliberately broken: the mean of X_t over all atoms, ignoring the cell."""

    orientation = Orientation.UPPER_TAIL

    def atom_values(self, process, t, partition):
        mean = float(np.dot(process.payoff_matrix()[:, t], process.probs))
        return np.full(process.n_atoms, mean)


class _AlternatingMeanMeasure(_CellMeanMeasure):
    """Deliberately broken: ``(-1)**t`` times the cell mean flips orderings."""

    def atom_values(self, process, t, partition):
        return (-1.0) ** t * super().atom_values(process, t, partition)


class _ConcaveMeasure(_CellMeanMeasure):
    """Deliberately broken: minus the squared cell mean is strictly concave."""

    def atom_values(self, process, t, partition):
        return -super().atom_values(process, t, partition) ** 2


class _NegatedMeanMeasure(_CellMeanMeasure):
    """Deliberately broken: minus the cell mean falls as the payoff rises."""

    def atom_values(self, process, t, partition):
        return -super().atom_values(process, t, partition)


#: One measure per dynamic axiom that breaks it, with the witness keys of
#: the branch that must report the violation.
BROKEN_DYNAMIC = {
    DynamicAxiom.D1: (_ConstantMeasure(), {"pair", "t", "max_abs"}),
    DynamicAxiom.D2: (_LowerCellMeanMeasure(), {"pair", "t", "atom", "excess"}),
    DynamicAxiom.D3: (_ConstantMeasure(), {"pair", "t", "max_abs"}),
    DynamicAxiom.D4: (_PooledMeanMeasure(), {"pair", "t", "event", "max_abs"}),
    DynamicAxiom.D5: (_AlternatingMeanMeasure(), {"pair", "t", "s", "excess"}),
    DynamicAxiom.D6: (_ConcaveMeasure(), {"pair", "t", "weight", "excess"}),
    DynamicAxiom.D7: (_ConstantMeasure(), {"pair", "t", "k", "max_abs"}),
}


class TestDynamicChecker:
    @pytest.mark.parametrize(
        "axiom", [DynamicAxiom.D1, DynamicAxiom.D2, DynamicAxiom.D4, DynamicAxiom.D5]
    )
    def test_recursive_measure_holds(self, axiom):
        pairs = bundled_pair_processes(axiom, n_pairs=2, n_atoms=4, T=2)
        measure = RecursiveFiniteMeasure(VAR_LOWER)
        report = check_dynamic_axiom(axiom, measure, pairs)
        assert report.verdict is Verdict.HOLDS, report.witness

    @pytest.mark.parametrize(
        "axiom", [DynamicAxiom.D1, DynamicAxiom.D2, DynamicAxiom.D4, DynamicAxiom.D5]
    )
    def test_modulated_measure_holds(self, axiom):
        pairs = bundled_pair_processes(axiom, n_pairs=2, n_atoms=4, T=2)
        measure = ModulatedFiniteMeasure(
            VectorialMeasure((VAR_LOWER, VAR_LOWER)), REFERENCE_MATRIX, initial_state=1
        )
        report = check_dynamic_axiom(axiom, measure, pairs)
        assert report.verdict is Verdict.HOLDS, report.witness

    @pytest.mark.parametrize("axiom", [DynamicAxiom.D3, DynamicAxiom.D7])
    def test_cash_and_scaling_axioms_hold_for_recursion(self, axiom):
        pairs = bundled_pair_processes(axiom, n_pairs=2, n_atoms=4, T=2)
        report = check_dynamic_axiom(axiom, RecursiveFiniteMeasure(VAR_LOWER), pairs)
        assert report.verdict is Verdict.HOLDS, report.witness

    def test_checker_detects_violations(self):
        # A constant nonzero measure cannot pass the zero-process axiom;
        # this guards the checker itself against vacuous passes.
        pairs = bundled_pair_processes(DynamicAxiom.D1, n_pairs=1, n_atoms=4, T=2)
        report = check_dynamic_axiom(DynamicAxiom.D1, _ConstantMeasure(), pairs)
        assert report.verdict is Verdict.VIOLATED
        assert report.witness is not None and report.witness["max_abs"] == 1.0

    @pytest.mark.parametrize("axiom", list(DynamicAxiom))
    def test_every_axiom_reports_a_violation(self, axiom):
        measure, keys = BROKEN_DYNAMIC[axiom]
        pairs = bundled_pair_processes(
            axiom, orientation=measure.orientation, n_pairs=2, n_atoms=4, T=2
        )
        report = check_dynamic_axiom(axiom, measure, pairs)
        assert report.verdict is Verdict.VIOLATED
        assert report.witness is not None and set(report.witness) == keys
        assert report.witness["pair"] == 0

    def test_linear_reference_measure_passes_pasting(self):
        pairs = bundled_pair_processes(DynamicAxiom.D4, n_pairs=2, n_atoms=4, T=2)
        report = check_dynamic_axiom(DynamicAxiom.D4, _CellMeanMeasure(), pairs)
        assert report.verdict is Verdict.HOLDS, report.witness

    def test_vacuous_pairs_are_skipped_not_failed(self):
        # Hypothesis X <= Y fails on purpose, so D2 has nothing to test.
        x = uniform_process([[5.0, 5.0], [5.0, 5.0]])
        y = uniform_process([[0.0, 0.0], [0.0, 0.0]])
        report = check_dynamic_axiom(
            DynamicAxiom.D2, RecursiveFiniteMeasure(VAR_LOWER), [(x, y)]
        )
        assert report.verdict is Verdict.HOLDS

    def test_pairs_failing_the_time_zero_hypothesis_are_skipped(self):
        # Minus the cell mean reverses every ordering.  Where X < Y at time 0
        # the hypothesis R(X_0) <= R(Y_0) fails and the pair is skipped; where
        # X_0 == Y_0 it holds and X_1 < Y_1 gives the violation.
        measure = _NegatedMeanMeasure()
        y = uniform_process([[1.0, 1.0], [1.0, 1.0]])
        skipped = uniform_process([[0.0, 0.0], [0.0, 0.0]])
        tested = uniform_process([[1.0, 0.0], [1.0, 0.0]])
        report = check_dynamic_axiom(DynamicAxiom.D2, measure, [(skipped, y)])
        assert report.verdict is Verdict.HOLDS
        report = check_dynamic_axiom(DynamicAxiom.D2, measure, [(skipped, y), (tested, y)])
        assert report.verdict is Verdict.VIOLATED
        assert report.witness == {"pair": 1, "t": 1, "atom": 0, "excess": 1.0}

    def test_pair_validation(self):
        with pytest.raises(DataError):
            check_dynamic_axiom(DynamicAxiom.D1, RecursiveFiniteMeasure(VAR_LOWER), [])
        x = uniform_process([[1.0], [2.0]])
        bad = FiniteProcess((0.3, 0.7), ((1.0,), (2.0,)))
        with pytest.raises(DataError):
            check_dynamic_axiom(
                DynamicAxiom.D1, RecursiveFiniteMeasure(VAR_LOWER), [(x, bad)]
            )
        # Every process shares the first one's horizon, within a pair and across pairs.
        longer = uniform_process([[1.0, 0.0], [2.0, 0.0]])
        for pairs in ([(x, longer)], [(x, x), (longer, longer)]):
            with pytest.raises(DataError, match="share one horizon"):
                check_dynamic_axiom(DynamicAxiom.D1, RecursiveFiniteMeasure(VAR_LOWER), pairs)


class TestBundledPairs:
    def test_shapes_and_shared_space(self):
        pairs = bundled_pair_processes(DynamicAxiom.D2, n_pairs=3, n_atoms=8, T=3)
        assert len(pairs) == 3
        for x, y in pairs:
            assert x.probs == y.probs
            assert x.horizon == y.horizon == 3
            assert x.n_atoms == 8

    def test_dominance_pairs_tie_at_time_zero(self):
        # The cash gap starts at zero so both time-0 risks coincide exactly,
        # keeping the D2 hypothesis non-vacuous.
        for x, y in bundled_pair_processes(DynamicAxiom.D2, n_pairs=4, n_atoms=4, T=3):
            xm, ym = x.payoff_matrix(), y.payoff_matrix()
            np.testing.assert_array_equal(xm[:, 0], ym[:, 0])
            assert np.all(xm <= ym + 1e-12)

    def test_ordering_pairs_respect_orientation(self):
        for first, second in bundled_pair_processes(
            DynamicAxiom.D5, orientation=Orientation.LOWER_TAIL, n_pairs=2, n_atoms=4, T=2
        ):
            # Lower tail: the richer process is the less risky one.
            assert np.all(first.payoff_matrix() >= second.payoff_matrix() - 1e-12)

    def test_atom_count_must_be_power_of_two(self):
        with pytest.raises(DomainError):
            bundled_pair_processes(DynamicAxiom.D1, n_atoms=5)


class TestCountValidation:
    """Counts are non-negative integers that are not bools (the count rule,
    ``tests/test_inputs.py``); trial and pair counts are also positive."""

    @pytest.mark.parametrize("name, value", [("n_pairs", 0)])
    def test_bundled_pair_counts(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be"):
            bundled_pair_processes(DynamicAxiom.D1, **{name: value})

    @pytest.mark.parametrize("state", [1.9, 1.0, True])
    def test_modulated_initial_state(self, state):
        with pytest.raises(DomainError, match="state index must be"):
            ModulatedFiniteMeasure(
                VectorialMeasure((VAR_LOWER, VAR_LOWER)), REFERENCE_MATRIX, initial_state=state
            )


class TestEnumArguments:
    """Axiom names are members or their values; anything else is a DomainError."""

    def test_static_axiom(self):
        with pytest.raises(DomainError, match="unknown StaticAxiom 'P9'"):
            check_static_axiom("P9", VAR_LOWER, trials=10)

    def test_dynamic_axiom(self):
        pairs = bundled_pair_processes(DynamicAxiom.D1, n_pairs=1, n_atoms=2, T=1)
        with pytest.raises(DomainError, match="unknown DynamicAxiom 'D9'"):
            check_dynamic_axiom("D9", RecursiveFiniteMeasure(VAR_LOWER), pairs)

    def test_bundled_pairs(self):
        with pytest.raises(DomainError, match="unknown DynamicAxiom 'D8'"):
            bundled_pair_processes("D8")

