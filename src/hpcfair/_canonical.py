"""Canonical JSON encoding shared by interchange files, tensor files and logs.

One representation per value: compact separators, UTF-8, a single trailing
newline, floats rendered with Python's shortest round-trip repr.  Containers
must already be built in their canonical field order; this module does not
reorder keys.  ``loads_canonical`` is the only JSON decoder, and
``loads_yaml`` the only YAML decoder (configs and manifests).  The store's
logs (``meta.log``, ``tokens``, ``runs.log``) are written only under
``appending``, which holds a log's lock through a caller's check and append,
and read only by ``read_records``, from the offset it last returned.
``fields`` and ``check`` are the shape check of every incoming document.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import yaml

from .errors import HpcfairError, IntegrityError

logger = logging.getLogger(__name__)

# libyaml when PyYAML was built with it; its loader recurses in C, so the
# nesting is bounded on the event stream (parsed on heap stacks) first
_YAML = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DEPTH = 100  # configs and manifests nest 3 deep


def dumps_canonical(obj: Any) -> bytes:
    # allow_nan=False: non-finite floats have no JSON form and would break
    # byte-for-byte round trips.
    text = json.dumps(obj, ensure_ascii=False, allow_nan=False,
                      separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def loads_canonical(data: bytes | str, what: str,
                    error: type[HpcfairError]) -> Any:
    """Decode one JSON document, or raise ``error``: "<what> is not valid
    JSON: <reason>", also for bytes that are not UTF-8 and deep nesting."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes)
                          else data)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def loads_yaml(data: bytes | str, what: str,
               error: type[HpcfairError]) -> Any:
    """Decode one YAML document, or raise ``error``: "malformed <what>:
    <reason>", also for text that is not UTF-8 and for collections nested
    deeper than ``_YAML_DEPTH``."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        depth = 0
        for event in yaml.parse(text, Loader=_YAML):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _YAML_DEPTH:
                    raise error(f"malformed {what}: nested deeper than "
                                f"{_YAML_DEPTH}")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        return yaml.load(text, Loader=_YAML)
    # UnicodeError: libyaml encodes a str, and a lone surrogate cannot be
    except (UnicodeError, yaml.YAMLError, RecursionError) as exc:
        raise error(f"malformed {what}: {exc}") from None


class Kind(NamedTuple):
    """What a document field must be: the noun a message uses, its plural
    and its test."""

    noun: str
    plural: str
    test: Callable[[Any], bool]

    def list(self, nonempty: bool = False) -> "Kind":
        """A list (or tuple) whose every item is of this kind."""
        lists = ("non-empty " if nonempty else "") + "lists of " + self.plural
        return Kind("a " + lists.replace("lists", "list", 1), lists,
                    lambda v: isinstance(v, (list, tuple))
                    and (bool(v) or not nonempty) and all(map(self.test, v)))


STR = Kind("a string", "strings", lambda v: isinstance(v, str))
NAME = Kind("a non-empty string", "non-empty strings",
            lambda v: isinstance(v, str) and v != "")
INT = Kind("an integer", "integers", lambda v: type(v) is int)  # not bool
DIM = Kind("a non-negative integer", "non-negative integers",
           lambda v: type(v) is int and v >= 0)
POSITIVE = Kind("a positive integer", "positive integers",
                lambda v: type(v) is int and v > 0)
LIST = Kind("a list", "lists", lambda v: isinstance(v, list))
OBJECT = Kind("an object", "objects", lambda v: isinstance(v, dict))


def check(value: Any, kind: Kind, what: str,
          error: type[HpcfairError]) -> Any:
    """``value`` if it is of ``kind``; otherwise raise ``error`` with the
    message "<what> must be <noun>"."""
    if not kind.test(value):
        raise error(f"{what} must be {kind.noun}")
    return value


def fields(doc: Any, where: str, error: type[HpcfairError],
           required: Mapping[str, Kind | None],
           optional: Mapping[str, tuple[Kind | None, Any]] = {}) -> list:
    """An object's required, then optional field values, in declaration
    order.  ``optional`` maps a key to (kind, value when absent); a kind of
    None leaves the test to the caller.  A malformed ``doc`` raises
    ``error``: "<where> must be an object", "<where>: unknown keys [...]",
    "<where>: missing '<key>'" or "<where>: '<key>' must be <noun>"."""
    check(doc, OBJECT, where, error)
    unknown = doc.keys() - required.keys() - optional.keys()
    if unknown:  # str(): YAML keys may mix types
        raise error(f"{where}: unknown keys {sorted(map(str, unknown))}")
    values = []
    for key, kind in required.items():
        if key not in doc:
            raise error(f"{where}: missing '{key}'")
        value = doc[key]
        if kind is not None and not kind.test(value):
            raise error(f"{where}: '{key}' must be {kind.noun}")
        values.append(value)
    for key, (kind, default) in optional.items():
        value = doc.get(key, default)
        if kind is not None and key in doc and not kind.test(value):
            raise error(f"{where}: '{key}' must be {kind.noun}")
        values.append(value)
    return values


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
        row = loads_canonical(line, f"{path} line at byte {at}",
                              IntegrityError)
        if isinstance(row, list):
            yield from row
        else:
            yield row
