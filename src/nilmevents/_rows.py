"""The one renderer of trace rows, and a script that renders the later rows of a trace.

:func:`render` turns timestamps and values into ``timestamp,value`` lines
with ``repr`` floats, the shortest text that reads back as the same
float.  :func:`nilmevents.io.write_trace` calls it on every row it
renders itself, and on a long trace runs this file as a script in a
helper process that renders the later half::

    python -I -S _rows.py BLOCK < samples > rows

``samples`` holds native float64s, a block of ``BLOCK`` timestamps and
then the same samples' ``BLOCK`` values, block after block; the last
block may be shorter.  The script reads and renders one block at a time,
so it holds no more than a block.  It imports ``sys`` alone, so the
helper starts without numpy; ``-I`` keeps this file's directory, whose
``io.py`` would shadow the standard library's, off ``sys.path``.
"""

from __future__ import annotations

import sys


def render(stamps: list[float], values: list[float]) -> str:
    """One ``timestamp,value`` line per sample, each float in ``repr``."""
    return "".join([f"{t!r},{v!r}\n" for t, v in zip(stamps, values)])


def _main(block: int) -> None:
    """Render the blocks of samples on stdin to stdout."""
    read = sys.stdin.buffer.read
    while data := memoryview(read(16 * block)):
        half = len(data) // 2
        sys.stdout.write(render(data[:half].cast("d").tolist(), data[half:].cast("d").tolist()))


if __name__ == "__main__":
    _main(int(sys.argv[1]))
