"""Small blocks for the blocked full-length passes, so tests see every block boundary.

Full-length passes cut their range into ``core._BLOCK_SAMPLES`` blocks,
and passes over many short ranges (the base detector's unproven runs, the
smoothed derivative's reads, the refilter's windows) group their pieces
about a block at a time, so small blocks also split those into many
groups, and a short run often shares a group with its neighbours across
a group's edge.
:func:`use_blocks` patches the size for one test; the ``small_blocks``
fixture in ``conftest.py`` runs a test once per size in :data:`BLOCK_SIZES`.
The base detector and LLD-Max prove quiet stretches over
proof blocks of ``core._PROOF_BLOCK_SAMPLES``; :func:`use_proof_blocks` patches
that size, which need not be a multiple of the 64-sample summary block.
:func:`unproven_entries` lists the ranges that proof leaves as pairs.
"""

from __future__ import annotations

import pytest

from nilmevents import base, core

BLOCK_SIZES = (1, 2, 7, 64)
PROOF_BLOCK_SIZES = (1, 2, 7, 64, 1024)


def use_blocks(monkeypatch: pytest.MonkeyPatch, block: int) -> None:
    """Run the blocked full-length passes over ``block``-sample blocks."""
    monkeypatch.setattr(core, "_BLOCK_SAMPLES", block)


def use_proof_blocks(monkeypatch: pytest.MonkeyPatch, block: int) -> None:
    """Prove quiet stretches over ``block``-sample proof blocks, in every bound."""
    monkeypatch.setattr(core, "_PROOF_BLOCK_SAMPLES", block)


def pairs(ranges: tuple) -> list[tuple[int, int]]:
    """``[(start, stop), ...]`` of ranges given as ``(starts, stops)`` arrays."""
    starts, stops = ranges
    return list(zip(starts.tolist(), stops.tolist()))


def unproven_entries(summary: core._Summary, n: int, threshold: float) -> list[tuple[int, int]]:
    """The profile entries ``[start, stop)`` left to test; entry ``k`` is centre ``n + k``."""
    starts, stops = base._tested_centres(summary, n, threshold)
    return pairs((starts - n, stops - n))
