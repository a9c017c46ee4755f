"""Shared pytest configuration.

Keeps hypothesis deadlines off: several properties run the full pipeline
on generated traces, whose wall time varies too much for per-example
deadlines to be meaningful.
"""

from __future__ import annotations

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
