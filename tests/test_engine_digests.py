"""Differential test: the engine reproduces recorded output bytes.

``engine_digests.json`` was recorded with the per-path engine that preceded
the array engine; see ``engine_digests.py`` for the grid and how to
regenerate it.
"""

import json
from collections import defaultdict

import pytest

from engine_digests import DIGESTS_PATH, digest, grid

RECORDED = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
BY_CONFIG = defaultdict(list)
for _key, _config in grid():
    BY_CONFIG[_key.rsplit("/", 1)[0]].append((_key, _config))


def test_table_covers_the_grid():
    assert sorted(RECORDED) == sorted(key for key, _ in grid())


@pytest.mark.parametrize("config_key", sorted(BY_CONFIG))
def test_output_bytes_match_the_recorded_digests(config_key, tmp_path):
    mismatched = [
        key for key, config in BY_CONFIG[config_key] if digest(config, tmp_path) != RECORDED[key]
    ]
    assert not mismatched
