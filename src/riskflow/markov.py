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
terminal state is frozen.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .distributions import _require_non_negative_int
from .errors import ConfigError, DomainError

__all__ = [
    "TransitionMatrix",
    "ChainPath",
    "one_step_linked_expectation",
    "simulate_path",
]

#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


@functools.lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The ``n + 1`` successive values of a ``SeedSequence`` hash constant,
    as a read-only ``uint32`` column: it starts at ``init`` and is
    multiplied by ``mult`` after each hash, whatever the data."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, dtype=np.uint32)[:, np.newaxis]
    column.flags.writeable = False
    return column


# 0-d uint32 arrays: numpy combines them with small arrays faster than ints.
_SHIFT, _MIX_L, _MIX_R = (np.array(c, dtype=np.uint32) for c in (16, 0xCA01F9DD, 0x4973F715))
#: The pool rows that each pool row is mixed into, in order.
_OTHER_ROWS = [np.array([d for d in range(4) if d != src]) for src in range(4)]


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``hashmix`` of ``uint32`` words: output row ``k``
    hashes row ``k`` of ``words`` (or all of a 1-d ``words``) with
    ``consts[k]`` and ``consts[k + 1]``."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ (words >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> _SHIFT)


def _pcg64_streams(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """Yield, for each non-negative integer seed in turn, one reused
    :class:`numpy.random.Generator` whose state equals
    ``np.random.default_rng(seed)``'s; draw from it before taking the next.

    ``default_rng(seed)`` is ``PCG64(SeedSequence(seed))``.  The
    ``SeedSequence`` pool of 4 ``uint32`` words is hashed here for all seeds
    at once, one row per pool word and one column per seed; a seed's
    entropy is its 32-bit words, least significant first, and zero-padding
    it to the pool size hashes the same.  Words past the pool (seeds of
    ``2**128`` and above) are mixed in only for the seeds that have them.
    PCG64's 128-bit seeding step then runs in Python ints.
    """
    seeds = [int(s) for s in seeds]
    width = max(4, -(-max(seeds, default=0).bit_length() // 32))
    entropy = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    words = np.frombuffer(entropy, dtype="<u4").reshape(len(seeds), width).T.astype(np.uint32)
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * width)
    pool = _hashmix(words[:4], consts[:5])
    # Each pool word, in turn, is hashed into each of the other three.
    for src, dst in enumerate(_OTHER_ROWS):
        k = 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + 4]))
    for src in range(4, width):
        # A seed has word src when it or a later word is non-zero.
        mixed = _mix(pool, _hashmix(words[src], consts[4 * src : 4 * src + 5]))
        pool = np.where(np.any(words[src:] != 0, axis=0), mixed, pool)
    # generate_state(4, uint64): 8 words hashed from the pool in turn, paired
    # little-endian into the 64-bit words (seed_hi, seed_lo, inc_hi, inc_lo).
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(0x8B51F9DD, 0x58F38DED, 8))
    state = state[1::2].astype(np.uint64) << np.uint64(32) | state[0::2]
    generator = np.random.Generator(np.random.PCG64(0))
    # PCG64's srandom: inc = 2 * initseq + 1, then two LCG steps around
    # adding initstate to the zero state.
    for seed_hi, seed_lo, inc_hi, inc_lo in state.T.tolist():
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        pcg_state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULTIPLIER + inc) & _MASK128
        generator.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": pcg_state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator


def simulate_path(
    matrix: TransitionMatrix,
    initial_state: int,
    horizon: int,
    seed: int | Sequence[int] | np.ndarray,
) -> ChainPath | np.ndarray:
    """Simulate ``Z_0 .. Z_T`` from the chain and freeze the terminal state.

    ``horizon`` is ``T >= 0``.  One seed gives a :class:`ChainPath`; a
    sequence of seeds gives an ``(n_seeds, T + 2)`` array of 1-based states,
    row ``i`` the path of ``seed[i]``.  Deterministic per seed: each path's
    ``T`` uniforms come from one draw of its own stream, a PCG64 state equal
    to ``np.random.default_rng(seed)``'s, seeded for all paths in one batch
    (:func:`_pcg64_streams`).  All paths
    step together; each step takes the first state whose cumulative
    transition probability exceeds the uniform, or else the last state.
    """
    single = isinstance(seed, (str, bytes)) or not isinstance(seed, (Sequence, np.ndarray))
    seeds = [seed] if single else list(seed)
    start = matrix.require_state(initial_state)
    for name, value in [("horizon", horizon)] + [("seed", s) for s in seeds]:
        _require_non_negative_int(name, value)
    draws = [stream.random(horizon) for stream in _pcg64_streams(seeds)]
    uniforms = np.array(draws).reshape(len(seeds), horizon)
    # Row i: the cumulative outgoing distribution of state i + 1, its last
    # entry raised to infinity so that the count of entries <= u (which is
    # what bisect_right returns) stops at the last state.
    cumulative = np.cumsum(matrix.entries, axis=0).T
    cumulative[:, -1] = np.inf
    states = np.full((len(seeds), horizon + 2), start - 1)
    for t in range(horizon):
        states[:, t + 1] = (cumulative[states[:, t]] <= uniforms[:, t, np.newaxis]).sum(axis=1)
    states[:, -1] = states[:, -2]
    states += 1
    if single:
        return ChainPath(states=tuple(states[0].tolist()), seed=int(seed))
    return states
