"""Finite-state Markov chain machinery for regime-linked parameters.

The chain state is a basis vector ``Z_t``; here states are handled as
1-based integer indices.  Transition matrices are stored column-stochastic:
``entries[j, i] = P(next = j+1 | current = i+1)``, so one-step conditional
expectations are plain matrix-vector products ``E[Z_next | Z = e_i] = A e_i``
(the i-th column).  Row-stochastic input (the common textbook layout) is
accepted through :meth:`TransitionMatrix.from_rows`, which transposes.

A simulated path covers ``Z_0 .. Z_{T+1}`` where the last entry repeats
``Z_T``: period-``t`` returns draw their parameters from the state reached at
``t + 1``, and at the final horizon no further transition occurs, so the
terminal state is frozen.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "TransitionMatrix",
    "ChainPath",
    "StateLinkedParams",
    "one_step_linked_expectation",
    "simulate_path",
]


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Column-stochastic transition matrix over ``n`` states."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
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
        return cls(np.array(rows, dtype=float).T)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[float]]) -> "TransitionMatrix":
        """Build from column-stochastic input (stored as given)."""
        return cls(np.array(cols, dtype=float))

    @property
    def n_states(self) -> int:
        return self.entries.shape[0]

    def column(self, state: int) -> np.ndarray:
        """Outgoing distribution of the given 1-based state."""
        self.require_state(state)
        return self.entries[:, state - 1]

    def require_state(self, state: int) -> int:
        state = int(state)
        if not 1 <= state <= self.n_states:
            raise DomainError(
                f"state index must lie in [1, {self.n_states}], got {state!r}"
            )
        return state


@dataclass(frozen=True)
class ChainPath:
    """A realized path ``Z_0 .. Z_{T+1}`` of 1-based states, with its seed.

    The path has ``T + 2`` entries and the last two are equal (the terminal
    state is frozen; see module docstring).
    """

    states: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        states = tuple(int(s) for s in self.states)
        if len(states) < 2:
            raise DomainError("a chain path needs at least two entries (Z_0 and Z_1)")
        if any(s < 1 for s in states):
            raise DomainError(f"state indices are 1-based positive, got {states!r}")
        if states[-1] != states[-2]:
            raise DomainError(
                f"the last two path states must be equal, got {states[-2:]!r}"
            )
        object.__setattr__(self, "states", states)

    @property
    def horizon(self) -> int:
        """The number of evaluation periods ``T`` (path length minus 2)."""
        return len(self.states) - 2


@dataclass(frozen=True)
class StateLinkedParams:
    """One scalar parameter value per chain state (index 1-based at use)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise DomainError("state-linked parameters need at least one state")
        if any(not np.isfinite(v) for v in vals):
            raise DomainError(f"state-linked parameters must be finite, got {vals!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


def one_step_linked_expectation(
    matrix: TransitionMatrix, params: StateLinkedParams, state: int | np.ndarray
) -> float | np.ndarray:
    """``E[<params, Z_next> | Z = e_state]`` — the predicted next-step parameter.

    ``state`` is one 1-based state, or an integer array of them (for example
    chain paths stacked as ``(n_paths, T)``); an array gives the predictions
    elementwise, each evaluated once per chain state.
    """
    if len(params) != matrix.n_states:
        raise DomainError(
            f"parameter vector has {len(params)} states, matrix has {matrix.n_states}"
        )
    values = params.as_array()

    def predict(s: int) -> float:
        return float(np.dot(values, matrix.column(s)))

    if np.ndim(state) == 0:
        return predict(state)
    states = np.asarray(state)
    if states.size and not 1 <= states.min() <= states.max() <= matrix.n_states:
        raise DomainError(f"state indices must lie in [1, {matrix.n_states}]")
    table = np.array([predict(s) for s in range(1, matrix.n_states + 1)])
    return table[states - 1]


def simulate_path(
    matrix: TransitionMatrix, initial_state: int, horizon: int, seed: int
) -> ChainPath:
    """Simulate ``Z_0 .. Z_T`` from the chain and freeze the terminal state.

    ``horizon`` is ``T >= 0``; the result has ``T + 2`` entries (see
    :class:`ChainPath`).  Deterministic per seed: the ``T`` uniforms come
    from one draw of the seeded stream, and each step takes the first state
    whose cumulative transition probability exceeds its uniform.
    """
    current = matrix.require_state(initial_state)
    if horizon < 0:
        raise DomainError(f"horizon must be non-negative, got {horizon!r}")
    uniforms = np.random.default_rng(seed).random(horizon).tolist()
    cumulative = np.cumsum(matrix.entries, axis=0).T.tolist()
    n = matrix.n_states
    states = [current]
    for u in uniforms:
        current = min(bisect.bisect_right(cumulative[current - 1], u) + 1, n)
        states.append(current)
    states.append(current)
    return ChainPath(states=tuple(states), seed=int(seed))
