"""Splitting back-to-back single calls into latency chunks."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


def calls(n: int, wall: float) -> list[tuple]:
    return [(i * wall, wall, wall) for i in range(n)]


def test_chunks_hold_enough_calls_and_time():
    lat = calls(1000, 0.2e-3)  # 0.2 s of calls, 0.2 ms each
    chunks = run.latency_chunks(lat)
    assert [c for chunk in chunks for c in chunk] == lat
    for chunk in chunks:
        assert len(chunk) >= run.CHUNK_CALLS
        assert chunk[-1][0] + chunk[-1][1] - chunk[0][0] >= run.CHUNK_S - 1e-12
    assert len(chunks) == 4


def test_short_remainder_joins_the_last_chunk():
    lat = calls(250, 1e-3)
    chunks = run.latency_chunks(lat)
    assert [len(chunk) for chunk in chunks] == [100, 150]


def test_too_few_calls_make_one_chunk():
    assert run.latency_chunks(calls(30, 1e-3)) == [calls(30, 1e-3)]
    assert run.latency_chunks([]) == []
