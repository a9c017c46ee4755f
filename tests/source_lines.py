"""Count the lines of ``src/nilmevents``: code lines and physical lines.

A code line is a line that holds a token outside docstrings and
comments, so blank lines, comment lines and docstring lines are not
code, while every line of a string inside an expression is.  A docstring
is a statement that is a string alone.  A physical line is any line.

Run ``python tests/source_lines.py`` to print both counts for each
module and in total.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "nilmevents"

# Tokens that hold no code.
_LAYOUT = frozenset(
    (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING)
)
# Tokens after which a statement begins.
_STATEMENT_BREAKS = frozenset((tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT))


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token outside docstrings and comments."""
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if token.type in _LAYOUT:
            continue
        docstring = (
            token.type == tokenize.STRING
            and (before is None or before.type in _STATEMENT_BREAKS)
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    total_code = total_physical = 0
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        code, physical = code_lines(text), len(text.splitlines())
        total_code, total_physical = total_code + code, total_physical + physical
        print(f"{path.name:<16} {code:>6} code {physical:>6} physical")
    print(f"{'total':<16} {total_code:>6} code {total_physical:>6} physical")


if __name__ == "__main__":
    main()
