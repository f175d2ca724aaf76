"""Pieces shared by every workload; standard library only, so that the
cold-CLI workload can keep its own process free of numpy and scipy."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def derive(seed: int, *keys: object) -> int:
    """A 63-bit seed derived from the workload seed and a label, stable across runs."""
    digest = hashlib.blake2b(repr((seed, *keys)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def clocks() -> tuple[float, float]:
    """Wall time and this process's CPU time, in ms."""
    return time.perf_counter() * 1e3, time.process_time() * 1e3


def since(start: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU ms elapsed since ``start``, a :func:`clocks` reading."""
    wall, cpu = clocks()
    return wall - start[0], cpu - start[1]


def reference_loop_ms() -> float:
    """CPU time of a fixed pure-Python loop that touches no riskflow code:
    the host's own speed, which drifts on a shared machine by more than the
    benchmark's bounds."""
    start = time.process_time()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.process_time() - start) * 1e3


@dataclass
class Op:
    """One closed-loop operation: what it was, its wall time, the CPU time
    it took, and what its oracles found wrong (empty when correct)."""

    kind: str
    ms: float
    cpu_ms: float
    failures: list[str] = field(default_factory=list)
