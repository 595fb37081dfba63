"""The package's one CSV renderer: every artifact table is written here.

:func:`csv_chunks` yields a table as text chunks, the header line and then
blocks of at most ``_BLOCK_ROWS`` rows, so a large table such as
``snapshots.csv`` is rendered as it is written and never held whole;
:func:`csv_table` joins the chunks for the small tables whose callers want a
``str``.

Floats are written as Python's shortest round-trip ``repr`` (``nan``, ``inf``,
``-inf`` and ``-0.0`` spelled that way); integers, booleans and strings by ``str``.
A column given as a list of ``str`` is taken as rendered cells and passes through.

The float text comes from orjson's Ryu printer, one call per block of a column.
Ryu and the dtoa behind ``repr`` both print the shortest correctly rounded
digits, and for magnitudes in ``[1e-4, 1e16)`` both write them positionally,
so there the two texts are equal.  Outside that range they differ (orjson
writes ``0.00001``, ``1e-7``, ``1e16`` and ``null`` where ``repr`` writes
``1e-05``, ``1e-07``, ``1e+16`` and ``nan``), so those cells, zeros and
non-finite values included, are rendered by ``repr`` itself.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Iterator, Sequence

import numpy as np
import orjson

__all__ = ["cells", "csv_chunks", "csv_table"]

# rows rendered at a time, so only one block's cell strings are alive next to the text
_BLOCK_ROWS = 4096


def cells(column) -> list[str]:
    """The rendered cells of one column; a list of ``str`` (told by its first cell) as it is.

    A float column is rendered as the ``repr`` of each value's float64: orjson
    writes the whole column at once, and the cells whose magnitude lies outside
    ``[1e-4, 1e16)``, where its text differs from ``repr``, are written by ``repr``.
    """
    if isinstance(column, list) and column and isinstance(column[0], str):
        return column
    values = np.asarray(column)
    if values.dtype.kind != "f":
        return list(map(str, values.tolist()))
    if not values.size:
        return []
    values = np.ascontiguousarray(values, dtype=np.float64)  # orjson takes C-contiguous arrays
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(values)
    other = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)))
    for k, x in zip(other.tolist(), values[other].tolist()):
        text[k] = repr(x)
    return text


def csv_chunks(header: Sequence[str], groups: Iterable[Sequence]) -> Iterator[str]:
    """Header line, then the rows of each group of 1-D columns in turn, as text chunks.

    Each chunk after the header holds at most ``_BLOCK_ROWS`` rows of one group
    and ends in a newline.  A group is taken from ``groups`` only when the
    chunks reach it, so a generator of groups keeps one group alive at a time.
    Each block of a column goes through :func:`cells`, so a list of ``str`` is
    joined as it is.  A column shorter than the longest one of its group ends
    in empty cells.
    """
    yield ",".join(header) + "\n"
    for columns in groups:
        for lo in range(0, max(map(len, columns), default=0), _BLOCK_ROWS):
            block = [cells(column[lo:lo + _BLOCK_ROWS]) for column in columns]
            yield "\n".join(map(",".join, zip_longest(*block, fillvalue=""))) + "\n"


def csv_table(header: Sequence[str], columns: Sequence) -> str:
    """The table of one group of ``columns`` (see :func:`csv_chunks`) as one ``str``."""
    return "".join(csv_chunks(header, [columns]))
