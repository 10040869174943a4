"""The one file format of the package: comma-separated tables and JSON.

A table is a header line and one line per row, cells joined by commas.
Cells are written with ``str``; for a Python float that is its shortest
round-trip ``repr``, with NaN as ``nan``. Callers pass Python numbers
(``ndarray.tolist()`` for arrays) or cells already formatted as strings,
which ``str`` leaves as they are, so no cell is type-checked on the way
out. This module imports no numpy, so the CLI loads it at start-up.

Every output is rewritten in place: the file is opened without
``O_TRUNC``, the new text is streamed over the old bytes, and a regular
file is then cut to the length of the new text. Opening with ``O_TRUNC``
(``open(path, "w")``) would truncate a file that holds data to zero,
and ext4's default ``auto_da_alloc`` then starts writeback when the
file is closed: about 0.1 ms per rewrite of a small file, against a few
microseconds in place. Replacing the file by a rename costs the same
flush and would turn a symlinked output into a plain file. The bytes,
the permissions (0o666 under the umask for a new file) and the
behaviour through symlinks and devices are those of ``open(path, "w")``.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from typing import Iterable, Iterator, Sequence, TextIO


@contextlib.contextmanager
def _rewritten(path: str) -> Iterator[TextIO]:
    """UTF-8 text stream over path, cut after the last character written.

    The cut also runs when the writer raises, so the file then holds only
    the new text written so far, never the old file's tail. Devices,
    pipes and other non-regular files are not truncated.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8", newline="") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_csv(path: str, header: Sequence, rows: Iterable[Sequence]) -> None:
    with _rewritten(path) as fh:
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
        with _rewritten(path) as fh:
            fh.write(text)
