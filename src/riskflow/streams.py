"""Seeded streams: per-path seeds and ``default_rng(seed)`` for a batch of
seeds, as a bit-exact port of numpy's ``SeedSequence`` and PCG64 (O'Neill,
"PCG: A Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", 2014) on ``uint32`` and ``uint64`` arrays."""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import _require_count

#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _path_seeds(seed: int, n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """The chain and returns seeds of ``n_paths`` paths as ``uint64`` arrays:
    path ``i`` takes words ``2i`` and ``2i + 1`` of ``SeedSequence(seed)``'s state."""
    words = np.random.SeedSequence(seed).generate_state(2 * n_paths, dtype=np.uint64)
    return words[0::2], words[1::2]


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


# 0-d uint32 and uint64 arrays: numpy combines them with small arrays faster
# than ints.
_SHIFT, _MIX_L, _MIX_R = (np.array(c, dtype=np.uint32) for c in (16, 0xCA01F9DD, 0x4973F715))
_1, _11, _32, _58, _63, _64, _LOW32 = (
    np.array(c, dtype=np.uint64) for c in (1, 11, 32, 58, 63, 64, 0xFFFFFFFF)
)
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


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products ``a * b`` of ``uint64`` arrays as ``(hi, lo)``
    limbs, the high limb built from 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> _32, b & _LOW32, b >> _32
    low_mid, high_mid = a0 * b1, a1 * b0
    carry = (a0 * b0 >> _32) + (low_mid & _LOW32) + (high_mid & _LOW32)
    return a1 * b1 + (low_mid >> _32) + (high_mid >> _32) + (carry >> _32), a * b


def _mul128(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``a * b mod 2**128`` of ``(hi, lo)`` limb pairs."""
    hi, lo = _mul64(a[1], b[1])
    return hi + a[1] * b[0] + a[0] * b[1], lo


def _add128(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``a + b mod 2**128`` of ``(hi, lo)`` limb pairs."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


#: The most draws one jump-ahead pass takes: all ``2**12`` columns of ``_jumps(12)``.
_BLOCK = 2**12 - 1


@functools.lru_cache(maxsize=8)
def _jumps(bits: int) -> np.ndarray:
    """The PCG64 jump-ahead table of ``2**bits`` steps: a read-only
    ``(2, 2, 2**bits)`` ``uint64`` array of ``[[A_hi, C_hi], [A_lo, C_lo]]``
    whose column ``k - 1`` holds the limbs of ``A_k = M**k`` and
    ``C_k = 1 + M + ... + M**(k - 1)`` (mod ``2**128``): ``k`` LCG steps take
    ``state`` to ``state * A_k + inc * C_k``.

    Built by doubling: ``A_(L+k) = A_L * A_k`` and ``C_(L+k) = C_L + A_L * C_k``.
    """
    a = np.array(divmod(_PCG64_MULTIPLIER, 1 << 64), dtype=np.uint64)[:, np.newaxis]
    c = np.array([[0], [1]], dtype=np.uint64)
    for _ in range(bits):
        # Columns k = 1 .. L are held, so A_L and C_L are the last ones.
        a_length, c_length = a[:, -1:], c[:, -1:]
        c = np.hstack([c, _add128(c_length, _mul128(a_length, c))])
        a = np.hstack([a, _mul128(a_length, a)])
    table = np.stack([a, c], axis=1)
    table.flags.writeable = False
    return table


def _steps(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` of the states ``k = 1 .. n`` LCG steps past each base,
    as ``(n_seeds, n)`` arrays; ``words`` holds the bases and increments as
    ``[[base_hi, inc_hi], [base_lo, inc_lo]]``, one column per stream.
    ``base * A_k`` and ``inc * C_k`` are one product, then summed."""
    jumps = _jumps((n - 1).bit_length())[..., np.newaxis, :n]
    hi, lo = _mul128(words[..., np.newaxis], jumps)
    return _add128((hi[0], lo[0]), (hi[1], lo[1]))


class _PCG64Batch:
    """The streams ``np.random.default_rng(seed)`` of a batch of seeds, drawn
    from together: each method returns one row per seed, row ``i`` equal to
    the same call on seed ``i``'s fresh generator.

    ``words`` holds each stream's ``inc`` and, as its base, the state one LCG
    step before the seeded state, ``initstate + inc`` (seeding ends with
    ``state = (initstate + inc) * M + inc``), as ``uint64`` limbs
    ``[[base_hi, inc_hi], [base_lo, inc_lo]]``, one column per seed.
    :meth:`random` jumps every stream to every step with whole-array
    arithmetic; the other draws go through one numpy generator per seed (see
    :meth:`__iter__`), since numpy does not expose the ziggurat tables
    behind them.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def __len__(self) -> int:
        return self.words.shape[-1]

    def __iter__(self) -> Iterator[np.random.Generator]:
        """Yield, for each seed in turn, one reused
        :class:`numpy.random.Generator` whose state equals
        ``np.random.default_rng(seed)``'s; draw from it before taking the next."""
        generator = np.random.Generator(np.random.PCG64(0))
        state = (limb[:, 0].tolist() for limb in _steps(self.words, 1))
        for state_hi, state_lo, inc_hi, inc_lo in zip(*state, *self.words[:, 1].tolist()):
            generator.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield generator

    def random(self, n: int) -> np.ndarray:
        """``Generator.random(n)`` of every stream, as ``(n_seeds, n)``.

        Each PCG64 draw steps the state and outputs ``rotr64(hi ^ lo, hi >> 58)``
        of the new state; ``random`` keeps the top 53 bits of that output as
        ``(x >> 11) * 2**-53``.  Draw ``t`` is ``t + 1`` steps past the base.
        Up to ``_BLOCK`` draws take one pass over all streams; a longer row
        comes from numpy's generator per seed, which draws natively where a
        jump-ahead draw costs some 40 array operations.
        """
        if n > _BLOCK:
            return self._each(n, np.float64, lambda g: g.random(n))
        hi, lo = _steps(self.words, n + 1)
        hi, lo = hi[:, 1:], lo[:, 1:]
        x, rot = hi ^ lo, hi >> _58
        x = x >> rot | x << (_64 - rot & _63)
        return (x >> _11) * 2.0**-53

    def _each(self, n: int, dtype: type, draw: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
        return np.array([draw(generator) for generator in self], dtype=dtype).reshape(len(self), n)

    def standard_normal(self, n: int) -> np.ndarray:
        """``Generator.standard_normal(n)`` of every stream, as ``(n_seeds, n)``."""
        return self._each(n, np.float64, lambda g: g.standard_normal(n))

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """``Generator.integers(low, high, size=size)`` of every stream, as
        ``(n_seeds, size)``."""
        return self._each(size, np.int64, lambda g: g.integers(low, high, size=size))


def _pcg64_streams(seeds: Sequence[int] | np.ndarray) -> _PCG64Batch:
    """The streams ``np.random.default_rng(seed)`` of the given seeds (each a
    count, :func:`~riskflow.errors._require_count`), seeded together as one
    :class:`_PCG64Batch`.

    ``default_rng(seed)`` is ``PCG64(SeedSequence(seed))``.  The
    ``SeedSequence`` pool of 4 ``uint32`` words is hashed here for all seeds
    at once, one row per pool word and one column per seed; a seed's
    entropy is its 32-bit words, least significant first, and zero-padding
    it to the pool size hashes the same.  Words past the pool (seeds of
    ``2**128`` and above) are mixed in only for the seeds that have them.
    PCG64's 128-bit seeding then runs on ``uint64`` limbs.
    """
    if isinstance(seeds, np.ndarray) and seeds.ndim == 1 and seeds.dtype.kind == "u":
        # Unsigned integer seeds are valid as they are; their two 32-bit words
        # are read from the array itself.
        width = 4
        words = np.zeros((width, seeds.size), dtype=np.uint32)
        words[:2] = seeds.astype("<u8").view("<u4").reshape(seeds.size, 2).T
    else:
        seeds = [_require_count(s, "seed") for s in seeds]
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
    # little-endian into the 64-bit words (seed_hi, seed_lo, seq_hi, seq_lo).
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(0x8B51F9DD, 0x58F38DED, 8))
    seed_hi, seed_lo, seq_hi, seq_lo = state[1::2].astype(np.uint64) << _32 | state[0::2]
    # PCG64's srandom takes inc = 2 * initseq + 1; the batch's base is then
    # initstate + inc.
    inc = (seq_hi << _1 | seq_lo >> _63, seq_lo << _1 | _1)
    base = _add128((seed_hi, seed_lo), inc)
    return _PCG64Batch(np.array([[base[0], inc[0]], [base[1], inc[1]]]))


def _seed_batch(seed: int | Sequence[int] | np.ndarray) -> tuple[bool, Sequence[int]]:
    """Whether ``seed`` is one seed (not a list or tuple, and ``np.ndim(seed) ==
    0``: an integer or a 0-d integer array) and the seeds as a sequence for
    :func:`_pcg64_streams`."""
    if isinstance(seed, (list, tuple)) or np.ndim(seed) != 0:
        return False, seed
    return True, [seed]
