"""Canonical JSON encoding shared by interchange files, tensor files and logs.

One representation per value: compact separators, UTF-8, a single trailing
newline, floats rendered with Python's shortest round-trip repr.  Containers
must already be built in their canonical field order; this module does not
reorder keys.  ``loads_canonical`` is the only JSON decoder.  The store's
logs (``meta.log``, ``tokens``, ``runs.log``) are written only under
``appending``, which holds a log's lock through a caller's check and append,
and read only by ``read_records``, from the offset it last returned.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

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
    try:
        return json.loads(data)
    except RecursionError:  # a ValueError, which every caller maps to a code
        raise ValueError("document is nested too deeply") from None


@contextmanager
def appending(path: Path) -> Iterator[Callable[[Sequence[Any]], None]]:
    """Lock a store log, cut a torn last line left by a crashed appender,
    and yield ``append(rows)``: one batch as one line, the bare row for a
    batch of one and a JSON array for more, so a crash keeps or drops it
    whole.  The lock is held until the block ends."""
    with open(path, "a+b") as fh:
        # per open file description: other threads and processes wait here
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
        yield lambda rows: fh.write(
            dumps_canonical(rows[0] if len(rows) == 1 else rows))


def append_records(path: Path, rows: Sequence[Any]) -> None:
    with appending(path) as append:
        append(rows)


def read_records(path: Path, start: int = 0) -> tuple[int, Iterator[Any]]:
    """The offset after the last whole line, and a lazy iterator over the
    rows after ``start``, batches flattened.  A torn last line is skipped
    with a warning; a whole line that does not parse raises IntegrityError."""
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            data = fh.read()
    except FileNotFoundError:
        return start, iter(())
    end = data.rfind(b"\n") + 1
    if end < len(data):  # the last append was cut short, or is in flight
        logger.warning("%s ends in a torn line of %d bytes; ignoring it",
                       path, len(data) - end)
    return start + end, _rows(path, data, start, end)


def _rows(path: Path, data: bytes, start: int, end: int) -> Iterator[Any]:
    pos = 0
    while pos < end:
        stop = data.index(b"\n", pos) + 1
        line, at, pos = data[pos:stop], start + pos, stop
        if not line.strip():
            continue
        try:
            row = loads_canonical(line)
        except ValueError as exc:
            raise IntegrityError(
                f"{path} line at byte {at} does not parse: {exc}") from None
        if isinstance(row, list):
            yield from row
        else:
            yield row
