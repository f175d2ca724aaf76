"""Seeded streams: the batch-seeded streams are ``default_rng(seed)``'s."""

import numpy as np
import pytest

from riskflow.errors import DomainError
from riskflow.errors import _require_count
from riskflow.streams import _BLOCK, _path_seeds, _pcg64_streams


class TestBatchSeededStreams:
    """The batch-seeded streams are ``default_rng(seed)``'s, state and bytes."""

    SMALL = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    @staticmethod
    def assert_streams_match(seeds, n=17):
        assert isinstance(np.random.default_rng(0).bit_generator, np.random.PCG64), (
            "default_rng no longer builds PCG64: streams._pcg64_streams must follow it"
        )
        for seed, stream in zip(seeds, _pcg64_streams(seeds), strict=True):
            reference = np.random.default_rng(seed)
            assert stream.bit_generator.state == reference.bit_generator.state, seed
            assert stream.random(n).tobytes() == reference.random(n).tobytes(), seed
            assert stream.standard_normal(n).tobytes() == reference.standard_normal(n).tobytes()

    def test_full_range_uint64_seeds(self):
        rng = np.random.default_rng(11)
        seeds = self.SMALL + rng.integers(0, 2**64, 5000, dtype=np.uint64).tolist()
        self.assert_streams_match(seeds)

    def test_seeds_below_2_to_32(self):
        rng = np.random.default_rng(12)
        self.assert_streams_match(self.SMALL + rng.integers(0, 2**32, 1000).tolist())

    def test_seeds_past_the_pool(self):
        # Entropy words past the pool of four: only the seeds that have them mix them in.
        big = [2**96, 2**128 - 1, 2**128, 2**130, 2**130 + 5, 3 * 2**160 + 7, 2**200]
        self.assert_streams_match(big + self.SMALL + big[::-1])

    @staticmethod
    def assert_uniforms_match(seeds, sizes=(0, 1, 11, 17)):
        """The batch's ``random(n)`` is ``default_rng(seed).random(n)``, row by row."""
        batch = _pcg64_streams(seeds)
        assert len(batch) == len(seeds)
        for n in sizes:
            reference = [np.random.default_rng(int(s)).random(n).tobytes() for s in seeds]
            assert [row.tobytes() for row in batch.random(n)] == reference, n

    def test_batch_uniforms_full_range_uint64_seeds(self):
        rng = np.random.default_rng(11)
        seeds = self.SMALL + rng.integers(0, 2**64, 5000, dtype=np.uint64).tolist()
        self.assert_uniforms_match(seeds)
        # An unsigned array is read as its own 32-bit words.
        self.assert_uniforms_match(np.array(seeds, dtype=np.uint64))

    def test_batch_uniforms_seeds_below_2_to_32(self):
        rng = np.random.default_rng(12)
        seeds = self.SMALL + rng.integers(0, 2**32, 1000).tolist()
        self.assert_uniforms_match(seeds)
        self.assert_uniforms_match(np.array([s for s in seeds if s < 2**32], dtype=np.uint32))

    def test_batch_uniforms_seeds_past_the_pool(self):
        big = [2**96, 2**128 - 1, 2**128, 2**130, 2**130 + 5, 3 * 2**160 + 7, 2**200]
        self.assert_uniforms_match(big + self.SMALL + big[::-1])

    def test_draws_longer_than_one_pass(self):
        # Up to _BLOCK draws take one jump-ahead pass; longer rows are numpy's own.
        sizes = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
        self.assert_uniforms_match([0, 7, 2**64 - 1, 2**130], sizes)

    def test_empty_batch(self):
        batch = _pcg64_streams([])
        assert batch.random(5).shape == (0, 5) and list(batch) == []
        assert batch.random(_BLOCK + 1).shape == (0, _BLOCK + 1)


class TestSeedRule:
    @pytest.mark.parametrize("seed", [0, 7, 2**130, np.int64(7), np.uint8(7), np.array(7)])
    def test_integers_are_seeds(self, seed):
        assert _require_count(seed, "seed") == int(seed) and type(_require_count(seed, "seed")) is int

    @pytest.mark.parametrize(
        "seed", [-1, True, np.bool_(True), 7.0, "7", None, np.array(-1), np.array(7.0), np.array([7])]
    )
    def test_others_are_rejected(self, seed):
        with pytest.raises(DomainError, match="^seed must be a non-negative integer, got "):
            _require_count(seed, "seed")

    def test_sequences_follow_the_rule_seed_by_seed(self):
        with pytest.raises(DomainError, match="got -1$"):
            _pcg64_streams([3, -1])


def test_path_seeds_are_pairs_of_one_root_sequence():
    chain, returns = _path_seeds(5, 3)
    words = np.random.SeedSequence(5).generate_state(6, dtype=np.uint64)
    assert chain.tolist() == words[0::2].tolist() and returns.tolist() == words[1::2].tolist()
    # Path i's seeds do not depend on the number of paths.
    assert _path_seeds(5, 2)[0].tolist() == chain[:2].tolist()
