"""Small blocks for the blocked full-length passes, so tests see every block boundary.

Full-length passes cut their range into ``core._BLOCK_SAMPLES`` blocks.
:func:`use_blocks` patches the size for one test; the ``small_blocks``
fixture in ``conftest.py`` runs a test once per size in :data:`BLOCK_SIZES`.
The base detector and LLD-Max prove quiet stretches over
proof blocks of ``core._PROOF_BLOCK_SAMPLES``; :func:`use_proof_blocks` patches
that size, which need not be a multiple of the 64-sample summary block.
"""

from __future__ import annotations

import pytest

from nilmevents import core

BLOCK_SIZES = (1, 2, 7, 64)
PROOF_BLOCK_SIZES = (1, 2, 7, 64, 1024)


def use_blocks(monkeypatch: pytest.MonkeyPatch, block: int) -> None:
    """Run the blocked full-length passes over ``block``-sample blocks."""
    monkeypatch.setattr(core, "_BLOCK_SAMPLES", block)


def use_proof_blocks(monkeypatch: pytest.MonkeyPatch, block: int) -> None:
    """Prove quiet stretches over ``block``-sample proof blocks, in every bound."""
    monkeypatch.setattr(core, "_PROOF_BLOCK_SAMPLES", block)
