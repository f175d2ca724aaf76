"""Finite-state Markov chains: transition matrices, paths, one-step predictions.

The chain state is a basis vector ``Z_t``; here states are handled as
1-based integer indices.  Transition matrices are stored column-stochastic:
``entries[j, i] = P(next = j+1 | current = i+1)``, so one-step conditional
expectations are plain matrix-vector products ``E[Z_next | Z = e_i] = A e_i``
(the i-th column).  Row-stochastic input (the common textbook layout) is
accepted through :meth:`TransitionMatrix.from_rows`, which transposes.

A simulated path covers ``Z_0 .. Z_{T+1}`` where the last entry repeats
``Z_T``: period-``t`` returns draw their parameters from the state reached at
``t + 1``, and at the final horizon no further transition occurs, so the
terminal state is frozen.  Seeded draws come from :mod:`riskflow.streams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import _require_non_negative_int
from .errors import ConfigError, DomainError
from .streams import _pcg64_streams, _seed_batch

__all__ = [
    "TransitionMatrix",
    "ChainPath",
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
        return self.entries[:, self.require_state(state) - 1]

    def require_state(self, state: int) -> int:
        """``state`` as an ``int``; it must be an integer in ``[1, n_states]``."""
        _require_non_negative_int("state index", state)
        if not 1 <= state <= self.n_states:
            raise DomainError(
                f"state index must lie in [1, {self.n_states}], got {state!r}"
            )
        return int(state)


@dataclass(frozen=True)
class ChainPath:
    """A realized path ``Z_0 .. Z_{T+1}`` of 1-based states, with its seed.

    The path has ``T + 2`` entries and the last two are equal (the terminal
    state is frozen; see module docstring).
    """

    states: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        for s in self.states:
            _require_non_negative_int("chain path state", s)
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


def one_step_linked_expectation(
    matrix: TransitionMatrix, values: Sequence[float] | np.ndarray, state: int | np.ndarray
) -> float | np.ndarray:
    """``E[<values, Z_next> | Z = e_state]`` — the predicted next-step value.

    ``values`` holds one finite number per chain state (state ``j`` at index
    ``j - 1``).  ``state`` is one 1-based state, or an integer array of them
    (for example chain paths stacked as ``(n_paths, T)``); an array gives the
    predictions elementwise, each evaluated once per chain state.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (matrix.n_states,):
        raise DomainError(
            f"per-state values have shape {values.shape}, matrix has {matrix.n_states} states"
        )
    if not np.all(np.isfinite(values)):
        raise DomainError(f"per-state values must be finite, got {values.tolist()!r}")

    def predict(s: int) -> float:
        return float(np.dot(values, matrix.column(s)))

    if np.ndim(state) == 0:
        return predict(state)
    states = np.asarray(state)
    if states.dtype.kind not in "iu" or np.any((states < 1) | (states > matrix.n_states)):
        raise DomainError(f"state indices must be integers in [1, {matrix.n_states}]")
    table = np.array([predict(s) for s in range(1, matrix.n_states + 1)])
    return table[states - 1]


def simulate_path(
    matrix: TransitionMatrix,
    initial_state: int,
    horizon: int,
    seed: int | Sequence[int] | np.ndarray,
) -> ChainPath | np.ndarray:
    """Simulate ``Z_0 .. Z_T`` from the chain and freeze the terminal state.

    ``horizon`` is ``T >= 0``.  One seed (a non-negative integer, or a 0-d
    integer array) gives a :class:`ChainPath`; a sequence of seeds gives an
    ``(n_seeds, T + 2)`` array of 1-based states, row ``i`` the path of
    ``seed[i]``.  Deterministic per seed: each path's ``T`` uniforms are
    ``np.random.default_rng(seed).random(T)``, drawn for all paths together
    (:meth:`riskflow.streams._PCG64Batch.random`).  Each step takes the first
    state whose cumulative transition probability exceeds the uniform, or
    else the last state; that choice is tabulated for every path, step and
    current state at once, so the walk itself is one gather per step.
    """
    single, seeds = _seed_batch(seed)
    start = matrix.require_state(initial_state)
    _require_non_negative_int("horizon", horizon)
    uniforms = _pcg64_streams(seeds).random(horizon)
    # Row i: the cumulative outgoing distribution of state i + 1, its last
    # entry raised to infinity so that the count of entries <= u (which is
    # what bisect_right returns) stops at the last state.
    cumulative = np.cumsum(matrix.entries, axis=0).T
    cumulative[:, -1] = np.inf
    # nxt[t, i, s]: the 0-based state path i moves to from state s at step t.
    nxt = (cumulative <= uniforms.T[:, :, np.newaxis, np.newaxis]).sum(axis=-1)
    rows = np.arange(len(uniforms))
    states = np.full((len(uniforms), horizon + 2), start - 1)
    for t in range(horizon):
        states[:, t + 1] = nxt[t, rows, states[:, t]]
    states[:, -1] = states[:, -2]
    states += 1
    if single:
        return ChainPath(states=tuple(states[0].tolist()), seed=int(seed))
    return states
