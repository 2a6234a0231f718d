"""Canonical JSON encoding shared by interchange files, tensor files and logs.

One representation per value: compact separators, UTF-8, a single trailing
newline, floats rendered with Python's shortest round-trip repr.  Containers
must already be built in their canonical field order; this module does not
reorder keys.  The store's logs (``meta.log``, ``tokens``, ``runs.log``)
are written and read only through ``append_records`` and ``read_records``.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from pathlib import Path
from typing import Any, Iterator, Sequence

from .errors import IntegrityError

logger = logging.getLogger(__name__)


def dumps_canonical(obj: Any) -> bytes:
    # allow_nan=False: non-finite floats have no JSON form and would break
    # byte-for-byte round trips.
    text = json.dumps(obj, ensure_ascii=False, allow_nan=False,
                      separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def loads_canonical(data: bytes | str) -> Any:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return json.loads(data)


def append_records(path: Path, rows: Sequence[Any]) -> None:
    """Append one batch to a store log as one line, the bare row for a batch
    of one and a JSON array for more, so a crash keeps or drops it whole.
    A torn last line left by a crashed appender is cut off first; an empty
    batch only does that."""
    batch = rows[0] if len(rows) == 1 else rows
    line = dumps_canonical(batch) if rows else b""
    with open(path, "a+b") as fh:
        # Held until close; other appenders, in any process, wait here.
        fcntl.flock(fh, fcntl.LOCK_EX)
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                keep = fh.read().rfind(b"\n") + 1
                logger.warning("%s ends in a torn line of %d bytes; cutting "
                               "it", path, end - keep)
                fh.truncate(keep)
        fh.write(line)


def read_records(path: Path) -> Iterator[Any]:
    """Rows of a store log in append order, batches flattened.  A torn last
    line is ignored with a warning; a whole line that does not parse raises
    IntegrityError."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return
    lines = data.split(b"\n")
    torn = lines.pop()  # empty unless the last append was cut short
    if torn:
        logger.warning("%s ends in a torn line of %d bytes; ignoring it",
                       path, len(torn))
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = loads_canonical(line)
        except ValueError as exc:
            raise IntegrityError(
                f"{path} line {number} does not parse: {exc}") from None
        if isinstance(row, list):
            yield from row
        else:
            yield row
