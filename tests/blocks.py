"""Small blocks for the blocked full-length passes, so tests see every block boundary.

Full-length passes cut their range into ``core._BLOCK_SAMPLES`` blocks.
:func:`use_blocks` patches the size for one test; the ``small_blocks``
fixture in ``conftest.py`` runs a test once per size in :data:`BLOCK_SIZES`.
"""

from __future__ import annotations

import pytest

from nilmevents import core

BLOCK_SIZES = (1, 2, 7, 64)


def use_blocks(monkeypatch: pytest.MonkeyPatch, block: int) -> None:
    """Run block maps over ``block``-sample blocks."""
    monkeypatch.setattr(core, "_BLOCK_SAMPLES", block)
