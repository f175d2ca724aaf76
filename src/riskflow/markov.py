"""Finite-state Markov chains: transition matrices, paths, one-step predictions.

The chain state is a basis vector ``Z_t``; here states are handled as
1-based integer indices.  Transition matrices are stored column-stochastic:
``entries[j, i] = P(next = j+1 | current = i+1)``, so one-step conditional
expectations are plain matrix-vector products ``E[Z_next | Z = e_i] = A e_i``
(the i-th column).  Row-stochastic input (the common textbook layout) is
accepted through :meth:`TransitionMatrix.from_rows`, which transposes.

A simulated path is an integer array of ``Z_0 .. Z_{T+1}`` where the last
entry repeats ``Z_T``: period-``t`` returns draw their parameters from the
state reached at ``t + 1``, and at the final horizon no further transition
occurs, so the terminal state is frozen.  A stack of paths is an
``(n_paths, T + 2)`` array.  Seeded draws come from :mod:`riskflow.streams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, _numeric_array, _require_count, _require_reals
from .streams import _pcg64_streams, _seed_batch

__all__ = [
    "TransitionMatrix",
    "one_step_linked_expectation",
    "simulate_path",
]


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Column-stochastic transition matrix over ``n`` states."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(_require_reals(self.entries, "transition matrix", ConfigError))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ConfigError(f"transition matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("transition matrix contains non-finite entries")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ConfigError("transition probabilities must lie in [0, 1]")
        col_sums = arr.sum(axis=0)
        if np.any(np.abs(col_sums - 1.0) > 1e-12):
            raise ConfigError(
                f"transition matrix columns must sum to 1, got sums {col_sums.tolist()}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "TransitionMatrix":
        """Build from row-stochastic input ``rows[i][j] = P(next=j+1 | current=i+1)``."""
        return cls(_require_reals(rows, "transition matrix", ConfigError).T)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[float]]) -> "TransitionMatrix":
        """Build from column-stochastic input (stored as given)."""
        return cls(cols)

    @property
    def n_states(self) -> int:
        return self.entries.shape[0]

    def column(self, state: int) -> np.ndarray:
        """Outgoing distribution of the given 1-based state."""
        return self.entries[:, self.require_state(state) - 1]

    def require_state(self, state: int) -> int:
        """``state`` as an ``int``; it must be an integer in ``[1, n_states]``."""
        state = _require_count(state, "state index")
        if not 1 <= state <= self.n_states:
            raise DomainError(
                f"state index must lie in [1, {self.n_states}], got {state!r}"
            )
        return state


def _require_states(states: object, n_states: int, *, base: int = 1) -> np.ndarray:
    """``states`` as an integer array of indices in ``[base, base + n_states)``.

    A bool, a ragged nesting or a dtype other than integer (the front half
    of :func:`~riskflow.errors._require_reals`), or an index out of range,
    raises :class:`DomainError`.
    """
    top = base + n_states - 1
    complaint = f"state indices must be integers in [{base}, {top}]"
    arr = _numeric_array(states, complaint, "iu", DomainError)
    if arr.size and not base <= arr.min() <= arr.max() <= top:
        raise DomainError(f"{complaint}, got values in [{arr.min()}, {arr.max()}]")
    return arr


def one_step_linked_expectation(
    matrix: TransitionMatrix, values: Sequence[float] | np.ndarray, state: int | np.ndarray
) -> float | np.ndarray:
    """``E[<values, Z_next> | Z = e_state]`` — the predicted next-step value.

    ``values`` holds one finite number per chain state (state ``j`` at index
    ``j - 1``).  ``state`` is one 1-based state, or an integer array of them
    (for example chain paths stacked as ``(n_paths, T)``); an array gives the
    predictions elementwise, each evaluated once per chain state.
    """
    values = _require_reals(values, "per-state values")
    if values.shape != (matrix.n_states,):
        raise DomainError(
            f"per-state values have shape {values.shape}, matrix has {matrix.n_states} states"
        )
    if not np.all(np.isfinite(values)):
        raise DomainError(f"per-state values must be finite, got {values.tolist()!r}")
    table = np.array([np.dot(values, column) for column in matrix.entries.T])
    if isinstance(state, (list, tuple)) or np.ndim(state) > 0:
        return table[_require_states(state, matrix.n_states) - 1]
    return float(table[matrix.require_state(state) - 1])


def simulate_path(
    matrix: TransitionMatrix,
    initial_state: int,
    horizon: int,
    seed: int | Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Simulate ``Z_0 .. Z_T`` from the chain and freeze the terminal state.

    ``horizon`` is ``T >= 0``.  One seed (a non-negative integer, or a 0-d
    integer array) gives the ``(T + 2,)`` array of 1-based states of its
    path; a sequence of seeds gives an ``(n_seeds, T + 2)`` array, row ``i``
    the path of ``seed[i]``.  Deterministic per seed: each path's ``T``
    uniforms are ``np.random.default_rng(seed).random(T)``, drawn for all
    paths together (:meth:`riskflow.streams._PCG64Batch.random`).  Each step
    takes the first state whose cumulative transition probability exceeds
    the uniform, or else the last; one ``np.searchsorted`` per current state
    tabulates that choice for every path and step, so the walk is one gather
    per step.
    """
    single, seeds = _seed_batch(seed)
    start = matrix.require_state(initial_state)
    horizon = _require_count(horizon, "horizon")
    uniforms = _pcg64_streams(seeds).random(horizon)
    # Row i: the cumulative outgoing distribution of state i + 1.  Its last
    # entry is raised to infinity, so the count of entries <= u (searchsorted
    # "right", like bisect_right) stops at the last state.
    cumulative = np.cumsum(matrix.entries, axis=0).T
    cumulative[:, -1] = np.inf
    # nxt[t, i, s]: the 0-based state path i moves to from state s at step t.
    nxt = np.empty((horizon, len(uniforms), matrix.n_states), np.min_scalar_type(matrix.n_states))
    for s, row in enumerate(cumulative):
        nxt[:, :, s] = np.searchsorted(row, uniforms.T, side="right")
    rows = np.arange(len(uniforms))
    states = np.full((len(uniforms), horizon + 2), start - 1)
    for t in range(horizon):
        states[:, t + 1] = nxt[t, rows, states[:, t]]
    states[:, -1] = states[:, -2]
    states += 1
    return states[0] if single else states
