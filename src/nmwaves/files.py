"""The one file format of the package: comma-separated tables and JSON.

A table is a header line and one line per row, cells joined by commas.
Cells are written with ``str``; for a Python float that is its shortest
round-trip ``repr``, with NaN as ``nan``. Callers pass Python numbers
(``ndarray.tolist()`` for arrays), so no cell is type-checked on the way
out. This module imports no numpy, so the CLI loads it at start-up.
"""

from __future__ import annotations

import json
import sys
from typing import Iterable, Sequence


def write_csv(path: str, header: Sequence, rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(str, header)) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    """Header cells, and the rows below them as floats; blank lines skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [list(map(float, line.split(","))) for line in fh
                if line.strip()]
    return header, rows


def write_json(path: str | None, payload: dict) -> None:
    """Indented JSON with sorted keys, to path or, if path is None, stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
