"""The package's one CSV renderer: every artifact table is written here.

Floats are written as Python's shortest round-trip ``repr`` (``nan``, ``inf``,
``-inf`` and ``-0.0`` spelled that way); integers, booleans and strings by ``str``.
A column given as a list of ``str`` is taken as rendered cells and passes through.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence

import numpy as np

__all__ = ["cells", "csv_table"]

# rows rendered at a time, so only one block's cell strings are alive next to the text
_BLOCK_ROWS = 4096


def cells(column) -> list[str]:
    """The rendered cells of one column; a list of ``str`` (told by its first cell) as it is."""
    if isinstance(column, list) and column and isinstance(column[0], str):
        return column
    values = np.asarray(column)
    return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))


def csv_table(header: Sequence[str], columns: Sequence) -> str:
    """Header line, then one line per row of the 1-D ``columns``, each ending in a newline.

    Each block of a column goes through :func:`cells`, so a list of ``str`` is
    joined as it is.  A column shorter than the longest one ends in empty cells.
    """
    parts = [",".join(header)]
    for lo in range(0, max(map(len, columns), default=0), _BLOCK_ROWS):
        block = [cells(column[lo:lo + _BLOCK_ROWS]) for column in columns]
        parts.append("\n".join(map(",".join, zip_longest(*block, fillvalue=""))))
    parts.append("")  # the final newline, without a second copy of the text
    return "\n".join(parts)
