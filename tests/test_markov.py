"""Finite-state chain machinery: matrices, paths, one-step predictions."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskflow import markov
from riskflow.errors import ConfigError, DomainError
from riskflow.markov import (
    ChainPath,
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

    @pytest.mark.parametrize("states", [(1.5, 1, 1), (1, 2.0, 2.0), (True, 1, 1)])
    def test_rejects_non_integer_states(self, states):
        with pytest.raises(DomainError, match="chain path state must be"):
            ChainPath(states)


class TestStateIndices:
    """A chain state is an integer: floats and bools are rejected, never truncated."""

    @pytest.mark.parametrize("state", [2.9, 1.9, 1.0, True, np.float64(2.0), "1"])
    def test_scalar_states_must_be_integers(self, state):
        m = reference_matrix()
        with pytest.raises(DomainError, match="state index must be a non-negative integer"):
            m.require_state(state)
        with pytest.raises(DomainError, match="state index must be a non-negative integer"):
            m.column(state)
        with pytest.raises(DomainError, match="state index must be a non-negative integer"):
            one_step_linked_expectation(m, [1.0, 2.0], state)

    def test_numpy_integers_are_states(self):
        m = reference_matrix()
        state = m.require_state(np.int64(2))
        assert state == 2 and type(state) is int
        np.testing.assert_array_equal(m.column(np.int64(2)), m.column(2))

    @pytest.mark.parametrize(
        "states", [np.array([1.0, 2.0]), np.array([[1.5, 2.0]]), np.array([True, False])]
    )
    def test_state_arrays_need_an_integer_dtype(self, states):
        with pytest.raises(DomainError, match="state indices must be integers"):
            one_step_linked_expectation(reference_matrix(), [1.0, 2.0], states)


class TestLinkedParams:
    def test_one_step_expectation_reference_value(self):
        m = reference_matrix()
        got = one_step_linked_expectation(m, (1169.009625, 1057.675375), 1)
        assert got == pytest.approx(1085.5089375, abs=1e-12)

    def test_one_step_expectation_matches_enumeration(self):
        m = reference_matrix()
        values = (3.0, -7.0)
        for state in (1, 2):
            expected = sum(m.column(state)[j - 1] * values[j - 1] for j in (1, 2))
            assert one_step_linked_expectation(m, values, state) == pytest.approx(expected)

    def test_one_step_expectation_monte_carlo(self):
        m = reference_matrix()
        rng = np.random.default_rng(23)
        n = 200_000
        draws = rng.choice([1, 2], size=n, p=m.column(2))
        values = np.where(draws == 1, 5.0, 11.0)
        se = values.std() / np.sqrt(n)
        predicted = one_step_linked_expectation(m, (5.0, 11.0), 2)
        assert abs(values.mean() - predicted) < 3.0 * se

    def test_one_step_expectation_of_a_state_array(self):
        m = reference_matrix()
        values = np.array([3.0, -7.0])
        states = np.array([[1, 2, 2], [2, 1, 1]])
        got = one_step_linked_expectation(m, values, states)
        assert got.shape == states.shape
        for s, value in zip(states.ravel().tolist(), got.ravel().tolist()):
            assert value == one_step_linked_expectation(m, values, s)
        with pytest.raises(DomainError):
            one_step_linked_expectation(m, values, np.array([1, 3]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            one_step_linked_expectation(reference_matrix(), (1.0,), 1)

    @pytest.mark.parametrize("values", [(), (1.0, float("nan")), (1.0, float("inf")), [[1.0, 2.0]]])
    def test_values_validated(self, values):
        with pytest.raises(DomainError):
            one_step_linked_expectation(reference_matrix(), values, 1)


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

    @pytest.mark.parametrize("initial,horizon,seed", [
        (1, 5, -1),
        (1, 5, 1.0),
        (1, 5, "7"),
        (1, 5, True),
        (1, 5, [3, -1]),
        (1, 5, [3, 2.5]),
        (1, 2.0, 0),
        (1, True, 0),
        (1.7, 5, 0),
        (True, 5, 0),
    ])
    def test_malformed_arguments_are_domain_errors(self, initial, horizon, seed):
        with pytest.raises(DomainError):
            simulate_path(reference_matrix(), initial, horizon, seed)

    def test_a_sequence_of_seeds_gives_stacked_states(self):
        m = reference_matrix()
        stacked = simulate_path(m, 2, 6, np.array([4, 9, 4], dtype=np.uint64))
        assert stacked.shape == (3, 8)
        assert stacked.tolist() == [list(simulate_path(m, 2, 6, s).states) for s in (4, 9, 4)]
        assert simulate_path(m, 1, 6, []).shape == (0, 8)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.uint8])
    def test_a_0d_integer_array_is_one_seed(self, dtype):
        m = reference_matrix()
        path = simulate_path(m, 1, 3, np.array(5, dtype=dtype))
        assert path == simulate_path(m, 1, 3, 5) and path.seed == 5

    @pytest.mark.parametrize("seed", [np.array(-1), np.array(1.5), np.array(True)])
    def test_a_0d_array_follows_the_seed_rule(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            simulate_path(reference_matrix(), 1, 3, seed)


def bisect_walk(matrix, initial_state, uniforms):
    """The walk one path at a time: ``bisect_right`` on the cumulative
    outgoing distribution, clamped to the last state."""
    cumulative = np.cumsum(matrix.entries, axis=0).T.tolist()
    states = [initial_state]
    for u in uniforms.tolist():
        nxt = bisect.bisect_right(cumulative[states[-1] - 1], u) + 1
        states.append(min(nxt, matrix.n_states))
    return states + states[-1:]


# Row i is the outgoing distribution of state i + 1; zeros make repeated
# cumulative values, and the last row of the four-state chain sums to
# 1 - 1e-13 with a zero last entry, so a uniform above that sum reaches the
# last state only through the clamp.
WALK_CHAINS = {
    "three-state": ((0.0, 0.4, 0.6), (0.5, 0.0, 0.5), (0.3, 0.7, 0.0)),
    "four-state": (
        (0.1, 0.0, 0.2, 0.7),
        (0.0, 0.0, 1.0, 0.0),
        (0.25, 0.25, 0.0, 0.5),
        (0.4, 0.3, 0.3 - 1e-13, 0.0),
    ),
}
#: Ties with the cumulative values, both ends of [0, 1) and a value above
#: 1 - 1e-13.
EDGE_UNIFORMS = np.array(
    [0.0, 0.4, 1 - 1e-14, 0.1, 0.5, 1 - 1e-14, 0.7, 0.30000000000000004, 0.25, 1 - 1e-14, 0.6, 0.95]
)


class _RotatedEdgeUniforms:
    """Stands in for the stream of ``seed``: ``EDGE_UNIFORMS`` rotated by the seed."""

    def __init__(self, seed):
        self.seed = seed

    def random(self, n):
        return np.roll(EDGE_UNIFORMS, -self.seed)[:n]


class _RotatedEdgeStreams(list):
    """Stands in for the batch of streams of ``seeds``: one row of
    :class:`_RotatedEdgeUniforms` per seed."""

    def random(self, n):
        return np.array([_RotatedEdgeUniforms(s).random(n) for s in self]).reshape(len(self), n)


class TestStackedWalk:
    """All paths stepped together equal per-seed calls and the bisect walk."""

    @staticmethod
    def assert_walks_agree(matrix, horizon, seeds, stream=np.random.default_rng):
        for initial in range(1, matrix.n_states + 1):
            stacked = simulate_path(matrix, initial, horizon, seeds)
            singles = [list(simulate_path(matrix, initial, horizon, s).states) for s in seeds]
            reference = [bisect_walk(matrix, initial, stream(s).random(horizon)) for s in seeds]
            assert stacked.tolist() == singles == reference

    @pytest.mark.parametrize("rows", WALK_CHAINS.values(), ids=WALK_CHAINS.keys())
    def test_seeded_streams(self, rows):
        seeds = list(range(200)) + [2**64 - 1]
        self.assert_walks_agree(TransitionMatrix.from_rows(rows), 15, seeds)

    @pytest.mark.parametrize("rows", WALK_CHAINS.values(), ids=WALK_CHAINS.keys())
    def test_edge_uniforms(self, rows, monkeypatch):
        # simulate_path resolves the name that markov imports from riskflow.streams.
        monkeypatch.setattr(markov, "_pcg64_streams", _RotatedEdgeStreams)
        matrix = TransitionMatrix.from_rows(rows)
        seeds = list(range(len(EDGE_UNIFORMS)))
        self.assert_walks_agree(matrix, len(EDGE_UNIFORMS), seeds, stream=_RotatedEdgeUniforms)
        if matrix.n_states == 4:
            # 4 -> 4 has probability zero: only the clamp takes that step.
            walks = simulate_path(matrix, 4, len(EDGE_UNIFORMS), seeds)[:, :-1]
            assert np.any((walks[:, :-1] == 4) & (walks[:, 1:] == 4))

    @pytest.mark.parametrize("rows", WALK_CHAINS.values(), ids=WALK_CHAINS.keys())
    def test_large_seeds_through_simulate_path(self, rows):
        # Seeds of 2**64 and above hash entropy words past SeedSequence's pool.
        self.assert_walks_agree(TransitionMatrix.from_rows(rows), 15, [2**64, 2**130, 3])
