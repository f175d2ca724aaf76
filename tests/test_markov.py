"""Finite-state chain machinery: matrices, paths, one-step predictions."""

import bisect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskflow import markov
from riskflow.errors import ConfigError, DomainError
from riskflow.markov import TransitionMatrix, one_step_linked_expectation, simulate_path

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

    @pytest.mark.parametrize("states", [
        np.array([1.0, 2.0]), np.array([[1.5, 2.0]]), np.array([True, False]),
        [True, 1], [[1, 2], [np.True_, 2]], [1, 2.0], ["1", "2"], [[1, 2], [1]], [],
    ])
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
        assert path.shape == (12,) and path.dtype.kind == "i"
        assert path[0] == 1
        assert path[-1] == path[-2]
        assert set(path.tolist()) <= {1, 2}

    def test_deterministic_per_seed(self):
        m = reference_matrix()
        assert np.array_equal(simulate_path(m, 1, 50, seed=3), simulate_path(m, 1, 50, seed=3))
        # A different seed should eventually produce a different path.
        assert any(
            not np.array_equal(simulate_path(m, 1, 50, seed=3), simulate_path(m, 1, 50, seed=s))
            for s in (4, 5, 6)
        )

    def test_zero_horizon(self):
        path = simulate_path(reference_matrix(), 2, 0, seed=1)
        assert path.tolist() == [2, 2]

    def test_transition_frequencies_match_matrix(self):
        m = reference_matrix()
        path = simulate_path(m, 1, 100_000, seed=101)
        # Drop the frozen duplicate, then count realized transitions.
        states = path[:-1]
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
        assert set(path.tolist()) == {2}

    def test_many_state_walk_memory(self):
        # The next-state table holds one byte per path, step and state, so a
        # 16-state, 100-path, 2000-step walk peaks at about 9 MB; a table
        # built through a (T, n_paths, 16, 16) boolean and summed into int64
        # peaked at 79 MB.
        rows = np.full((16, 16), 1 / 16)
        matrix = TransitionMatrix.from_rows(rows)
        tracemalloc.start()
        try:
            states = simulate_path(matrix, 1, 2000, 0, n_paths=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (100, 2002)
        assert peak < 24e6

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

    def test_n_paths_gives_stacked_states(self):
        m = reference_matrix()
        stacked = simulate_path(m, 2, 6, 4, n_paths=3)
        assert stacked.shape == (3, 8)
        assert stacked[0].tolist() == simulate_path(m, 2, 6, 4).tolist()
        assert stacked.tolist() == simulate_path(m, 2, 6, 4, n_paths=40)[:3].tolist()
        assert simulate_path(m, 1, 6, 4, n_paths=0).shape == (0, 8)
        for n_paths in (np.int64(3), np.array(3, dtype=np.uint8)):
            assert simulate_path(m, 2, 6, 4, n_paths=n_paths).tolist() == stacked.tolist()

    # The sequence-of-seeds form is gone: a list or array is refused by the
    # seed rule, not read as one seed per path.
    @pytest.mark.parametrize("seed", [[3, 4], (3,), np.array([1, 2]), [3, -1]])
    def test_a_sequence_is_not_a_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            simulate_path(reference_matrix(), 1, 4, seed)

    # None is the default: one path, as a 1-D array.
    @pytest.mark.parametrize("n_paths", [-1, 1.5, 3.0, True, "3", [3], np.array(-1)])
    def test_n_paths_is_a_count(self, n_paths):
        with pytest.raises(DomainError, match="n_paths must be a non-negative integer"):
            simulate_path(reference_matrix(), 1, 4, 7, n_paths=n_paths)

    def test_path_i_reads_the_stream_advanced_by_i_rows(self):
        # Row i of the uniforms is the stream of the seed advanced by i * T
        # steps: one path rebuilt alone from there equals row i.
        m, T, seed = reference_matrix(), 7, 1729
        stacked = simulate_path(m, 1, T, seed, n_paths=50)
        for i in (0, 1, 17, 49):
            stream = np.random.Generator(np.random.PCG64(seed).advance(i * T))
            assert stacked[i].tolist() == bisect_walk(m, 1, stream.random(T)), i

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.uint8])
    def test_a_0d_integer_array_is_one_seed(self, dtype):
        m = reference_matrix()
        path = simulate_path(m, 1, 3, np.array(5, dtype=dtype))
        assert path.shape == (5,) and np.array_equal(path, simulate_path(m, 1, 3, 5))

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


class TestStackedWalk:
    """All paths stepped together equal the bisect walk of each row of uniforms."""

    @staticmethod
    def assert_walks_agree(matrix, uniforms):
        for initial in range(1, matrix.n_states + 1):
            walks = markov._walk(matrix, initial, uniforms)
            assert walks.tolist() == [bisect_walk(matrix, initial, row) for row in uniforms]

    @pytest.mark.parametrize("rows", WALK_CHAINS.values(), ids=WALK_CHAINS.keys())
    def test_seeded_streams(self, rows):
        uniforms = np.random.default_rng(0).random((201, 15))
        self.assert_walks_agree(TransitionMatrix.from_rows(rows), uniforms)

    @pytest.mark.parametrize("rows", WALK_CHAINS.values(), ids=WALK_CHAINS.keys())
    def test_edge_uniforms(self, rows):
        # Row i is EDGE_UNIFORMS rotated by i, so each value meets each step.
        matrix = TransitionMatrix.from_rows(rows)
        uniforms = np.array([np.roll(EDGE_UNIFORMS, -i) for i in range(len(EDGE_UNIFORMS))])
        self.assert_walks_agree(matrix, uniforms)
        if matrix.n_states == 4:
            # 4 -> 4 has probability zero: only the clamp takes that step.
            walks = markov._walk(matrix, 4, uniforms)[:, :-1]
            assert np.any((walks[:, :-1] == 4) & (walks[:, 1:] == 4))

    @pytest.mark.parametrize("rows", WALK_CHAINS.values(), ids=WALK_CHAINS.keys())
    def test_large_seeds_through_simulate_path(self, rows):
        # Seeds of 2**64 and above hash entropy words past SeedSequence's pool.
        matrix = TransitionMatrix.from_rows(rows)
        for seed in (2**64, 2**130, 3):
            uniforms = np.random.default_rng(seed).random((3, 15))
            walks = simulate_path(matrix, 1, 15, seed, n_paths=3)
            assert walks.tolist() == [bisect_walk(matrix, 1, row) for row in uniforms]

    @pytest.mark.parametrize("n_states", range(1, 7))
    def test_random_chains_with_zero_entries(self, n_states):
        # About a third of the entries are zero, so cumulative rows repeat
        # values, also at their end; every row keeps one positive entry.
        rng = np.random.default_rng(n_states)
        for _ in range(4):
            rows = rng.random((n_states, n_states)) * (rng.random((n_states, n_states)) > 0.35)
            rows[np.arange(n_states), rng.integers(0, n_states, n_states)] += 0.05
            matrix = TransitionMatrix.from_rows(rows / rows.sum(axis=1, keepdims=True))
            self.assert_walks_agree(matrix, rng.random((40, 12)))
