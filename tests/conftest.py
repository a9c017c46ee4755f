"""Shared pytest configuration.

Keeps hypothesis deadlines off: several properties run the full pipeline
on generated traces, whose wall time varies too much for per-example
deadlines to be meaningful.  ``small_blocks`` runs a test once per block
size, and ``helpers`` shows the trace writer two CPUs, so that a long
trace is split, and records each helper process it starts.
"""

from __future__ import annotations

import os
import subprocess

import pytest
from hypothesis import HealthCheck, settings

from blocks import BLOCK_SIZES, use_blocks

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(params=BLOCK_SIZES, ids=lambda block: f"block{block}")
def small_blocks(request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch) -> int:
    """Blocks of 1, 2, 7 or 64 samples; returns the block size."""
    use_blocks(monkeypatch, request.param)
    return request.param


@pytest.fixture
def helpers(monkeypatch: pytest.MonkeyPatch) -> list[subprocess.Popen]:
    """Show ``write_trace`` two CPUs, so it splits a long trace; returns the processes started."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started
