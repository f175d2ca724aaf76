"""Finite-state chain machinery: matrices, paths, linked parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskflow.errors import ConfigError, DomainError
from riskflow.markov import (
    ChainPath,
    StateLinkedParams,
    TransitionMatrix,
    one_step_linked_expectation,
    simulate_path,
)

REFERENCE_ROWS = ((0.25, 0.75), (0.35, 0.65))


def reference_matrix():
    return TransitionMatrix.from_rows(REFERENCE_ROWS)


class TestTransitionMatrix:
    def test_from_rows_transposes(self):
        m = reference_matrix()
        # Stored column-stochastic: entries[j, i] = P(next=j+1 | current=i+1).
        assert m.entries[0, 0] == 0.25
        assert m.entries[1, 0] == 0.75
        assert m.entries[0, 1] == 0.35
        np.testing.assert_allclose(m.entries.sum(axis=0), [1.0, 1.0])

    def test_from_columns_stores_as_given(self):
        cols = np.array([[0.25, 0.35], [0.75, 0.65]])
        m = TransitionMatrix.from_columns(cols)
        np.testing.assert_array_equal(m.entries, cols)

    def test_column_is_outgoing_distribution(self):
        m = reference_matrix()
        np.testing.assert_allclose(m.column(1), [0.25, 0.75])
        np.testing.assert_allclose(m.column(2), [0.35, 0.65])

    def test_rejects_non_stochastic(self):
        with pytest.raises(ConfigError):
            TransitionMatrix.from_rows(((0.5, 0.6), (0.5, 0.5)))
        with pytest.raises(ConfigError):
            TransitionMatrix.from_rows(((1.2, -0.2), (0.5, 0.5)))
        with pytest.raises(ConfigError):
            TransitionMatrix(np.ones((2, 3)))

    def test_entries_are_frozen(self):
        m = reference_matrix()
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.9

    def test_state_bounds_checked(self):
        m = reference_matrix()
        with pytest.raises(DomainError):
            m.column(0)
        with pytest.raises(DomainError):
            m.column(3)

    @given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50)
    def test_two_state_rows_always_accepted(self, a, b):
        m = TransitionMatrix.from_rows(((a, 1.0 - a), (b, 1.0 - b)))
        assert m.n_states == 2


class TestChainPath:
    def test_horizon_counts_periods(self):
        path = ChainPath((1, 2, 2, 1, 1))
        assert path.horizon == 3

    def test_requires_frozen_terminal_state(self):
        with pytest.raises(DomainError):
            ChainPath((1, 2, 1))

    def test_requires_two_entries(self):
        with pytest.raises(DomainError):
            ChainPath((1,))

    def test_rejects_non_positive_states(self):
        with pytest.raises(DomainError):
            ChainPath((1, 0, 0))


class TestLinkedParams:
    def test_one_step_expectation_reference_value(self):
        m = reference_matrix()
        params = StateLinkedParams((1169.009625, 1057.675375))
        got = one_step_linked_expectation(m, params, 1)
        assert got == pytest.approx(1085.5089375, abs=1e-12)

    def test_one_step_expectation_matches_enumeration(self):
        m = reference_matrix()
        params = StateLinkedParams((3.0, -7.0))
        for state in (1, 2):
            expected = sum(
                m.column(state)[j - 1] * params.values[j - 1] for j in (1, 2)
            )
            assert one_step_linked_expectation(m, params, state) == pytest.approx(expected)

    def test_one_step_expectation_monte_carlo(self):
        m = reference_matrix()
        params = StateLinkedParams((5.0, 11.0))
        rng = np.random.default_rng(23)
        n = 200_000
        draws = rng.choice([1, 2], size=n, p=m.column(2))
        values = np.where(draws == 1, 5.0, 11.0)
        se = values.std() / np.sqrt(n)
        predicted = one_step_linked_expectation(m, params, 2)
        assert abs(values.mean() - predicted) < 3.0 * se

    def test_one_step_expectation_of_a_state_array(self):
        m = reference_matrix()
        params = StateLinkedParams((3.0, -7.0))
        states = np.array([[1, 2, 2], [2, 1, 1]])
        got = one_step_linked_expectation(m, params, states)
        assert got.shape == states.shape
        for s, value in zip(states.ravel().tolist(), got.ravel().tolist()):
            assert value == one_step_linked_expectation(m, params, s)
        with pytest.raises(DomainError):
            one_step_linked_expectation(m, params, np.array([1, 3]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            one_step_linked_expectation(reference_matrix(), StateLinkedParams((1.0,)), 1)

    def test_params_validated(self):
        with pytest.raises(DomainError):
            StateLinkedParams(())
        with pytest.raises(DomainError):
            StateLinkedParams((1.0, float("nan")))


class TestSimulatePath:
    def test_shape_and_frozen_terminal(self):
        path = simulate_path(reference_matrix(), 1, 10, seed=7)
        assert len(path.states) == 12
        assert path.states[0] == 1
        assert path.states[-1] == path.states[-2]
        assert path.horizon == 10
        assert path.seed == 7

    def test_deterministic_per_seed(self):
        m = reference_matrix()
        assert simulate_path(m, 1, 50, seed=3) == simulate_path(m, 1, 50, seed=3)
        # A different seed should eventually produce a different path.
        assert any(
            simulate_path(m, 1, 50, seed=3) != simulate_path(m, 1, 50, seed=s)
            for s in (4, 5, 6)
        )

    def test_zero_horizon(self):
        path = simulate_path(reference_matrix(), 2, 0, seed=1)
        assert path.states == (2, 2)

    def test_transition_frequencies_match_matrix(self):
        m = reference_matrix()
        path = simulate_path(m, 1, 100_000, seed=101)
        # Drop the frozen duplicate, then count realized transitions.
        states = np.array(path.states[:-1])
        prev, nxt = states[:-1], states[1:]
        for i in (1, 2):
            mask = prev == i
            n_i = int(mask.sum())
            for j in (1, 2):
                freq = np.sum(nxt[mask] == j) / n_i
                p = m.entries[j - 1, i - 1]
                se = np.sqrt(p * (1.0 - p) / n_i)
                assert abs(freq - p) < 4.0 * se

    def test_absorbing_state_stays_put(self):
        m = TransitionMatrix.from_rows(((1.0, 0.0), (0.0, 1.0)))
        path = simulate_path(m, 2, 25, seed=0)
        assert set(path.states) == {2}

    def test_rejects_bad_arguments(self):
        m = reference_matrix()
        with pytest.raises(DomainError):
            simulate_path(m, 3, 5, seed=0)
        with pytest.raises(DomainError):
            simulate_path(m, 1, -1, seed=0)
