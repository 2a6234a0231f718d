"""Content-addressed artifact registry with FAIR metadata.

Every artifact gets a persistent identifier derived from its bytes, so
identifiers are globally unique with zero coordination and duplicate uploads
are detected by construction.  Metadata lives in an append-only log
(``meta.log``), credentials only as hashes in ``tokens``, and blobs
under ``blobs/<hh>/<fullhash>``.  Each handle follows both logs from where
it last stopped and holds each record once, as its canonical bytes, beside
the keys search filters and sorts on and a tag index (tag -> pids); reads
decode records from those bytes, and the server sends them as they are.  A
push finds duplicates by pid, the content hash's prefix, and appends under
``meta.log``'s lock.  Pushing a "pt" or "tf" model automatically registers a
companion interchange artifact with a "converted-from" provenance edge; the
two records are one ``meta.log`` batch, kept or lost together.
"""

from __future__ import annotations

import hashlib
import logging
import os
import secrets
import sys
import threading
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple

from ._canonical import LIST, OBJECT, POSITIVE, STR, Kind, append_records, \
    appending, check, dumps_canonical, fields, loads_canonical, read_records
from .converters import BACKENDS, convert_checkpoint_bytes
from .errors import (
    AuthError,
    ConfigError,
    DuplicateContentError,
    HpcfairError,
    IntegrityError,
    InvalidArtifactError,
    UnknownPidError,
)
from .interchange import serialize_graph

logger = logging.getLogger(__name__)

ARTIFACT_TYPES = ("model", "dataset", "container-manifest")
ROLES = ("reader", "publisher")
PROVENANCE_OPS = ("converted-from", "composed-from", "derived-from")

_TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def derive_pid(content: bytes) -> str:
    """Persistent identifier: "hpcf-" + first 20 hex chars of sha-256."""
    return "hpcf-" + hashlib.sha256(content).hexdigest()[:20]


def content_digest(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


def normalize_tag(tag: str) -> str:
    # lowercase, trimmed, internal whitespace collapsed to hyphens
    return "-".join(str(tag).lower().split())


def normalize_tags(tags: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted({normalize_tag(tag) for tag in tags} - {""}))


@dataclass(frozen=True)
class ArtifactRecord:
    pid: str
    title: str
    artifact_type: str
    backend_tag: str
    version: int
    tags: tuple[str, ...]
    creator: str
    license: str
    content_hash: str
    size_bytes: int
    provenance: tuple[tuple[str, str], ...]  # (parent_pid, operation)
    created_at: str  # UTC, seconds precision, e.g. 2026-01-01T12:00:00Z

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "title": self.title,
            "artifact_type": self.artifact_type,
            "backend_tag": self.backend_tag,
            "version": self.version,
            "tags": list(self.tags),
            "creator": self.creator,
            "license": self.license,
            "content_hash": self.content_hash,
            "size_bytes": self.size_bytes,
            "provenance": [{"parent_pid": p, "operation": op}
                           for p, op in self.provenance],
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ArtifactRecord":
        return cls(
            pid=doc["pid"],
            title=doc["title"],
            # the few distinct values are shared by all records, not copied
            # into each: 2,000 indexed records take 534 B each, not 919
            artifact_type=sys.intern(doc["artifact_type"]),
            backend_tag=sys.intern(doc["backend_tag"]),
            version=doc["version"],
            tags=tuple(map(sys.intern, doc["tags"])),
            creator=sys.intern(doc["creator"]),
            license=sys.intern(doc["license"]),
            content_hash=doc["content_hash"],
            size_bytes=doc["size_bytes"],
            provenance=tuple((p["parent_pid"], p["operation"])
                             for p in doc["provenance"]),
            created_at=sys.intern(doc["created_at"]),
        )


@dataclass(frozen=True)
class ArtifactDraft:
    """Caller-supplied metadata; the registry fills in the derived fields."""

    title: str
    artifact_type: str
    backend_tag: str
    tags: tuple[str, ...] = ()
    version: int = 1
    license: str = ""
    provenance: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        # the one type check of caller metadata, direct or from_dict
        for name, (kind, _) in _DRAFT_FIELDS.items():
            check(getattr(self, name), kind, name, InvalidArtifactError)
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ArtifactDraft":
        values = fields(doc, "artifact metadata", InvalidArtifactError, {},
                        {name: (None, default)
                         for name, (_, default) in _DRAFT_FIELDS.items()})
        draft = dict(zip(_DRAFT_FIELDS, values))
        # edge objects become (parent_pid, operation) pairs; anything else
        # is left for __post_init__ to reject
        if LIST.test(draft["provenance"]):
            draft["provenance"] = [
                (p["parent_pid"], p["operation"]) if OBJECT.test(p)
                and p.keys() == {"parent_pid", "operation"} else p
                for p in draft["provenance"]]
        return cls(**draft)


_EDGE = Kind("a {parent_pid, operation} object of strings",
             "{parent_pid, operation} objects of strings",
             lambda v: isinstance(v, tuple) and len(v) == 2
             and all(map(STR.test, v)))
# each field's kind and the value from_dict gives it when absent
_DRAFT_FIELDS = {"title": (STR, ""), "artifact_type": (STR, ""),
                 "backend_tag": (STR, ""), "tags": (STR.list(), []),
                 "version": (POSITIVE, 1), "license": (STR, ""),
                 "provenance": (_EDGE.list(), [])}


@dataclass(frozen=True)
class Credential:
    token: str
    account: str
    role: str
    expires_at: datetime


@dataclass(frozen=True)
class SearchQuery:
    tags: tuple[str, ...] = ()
    artifact_type: str | None = None
    backend_tag: str | None = None
    title_substring: str | None = None

    def is_empty(self) -> bool:
        return not (self.tags or self.artifact_type or self.backend_tag
                    or self.title_substring)


class _Indexed(NamedTuple):
    """A record as the index holds it: its canonical bytes (no newline) and
    the keys search filters and sorts on; the tags are in ``_by_tag``."""

    canonical: bytes
    title_lower: str
    artifact_type: str
    backend_tag: str
    created_at: str


def _decoded(stored: list[bytes]) -> list[ArtifactRecord]:
    """Records from their canonical bytes, decoded as one JSON list."""
    rows = loads_canonical(b"[" + b",".join(stored) + b"]",
                           "indexed records", IntegrityError)
    return list(map(ArtifactRecord.from_dict, rows))


def _token_of(cred: Credential | str | None) -> str | None:
    return cred.token if isinstance(cred, Credential) else cred


def _ends_line(path: Path, size: int) -> bool:
    with open(path, "rb") as fh:
        fh.seek(size - 1)
        return fh.read(1) == b"\n"


def _slug(text: str) -> str:
    slug = "".join(c if c.isalnum() or c in "-_." else "-" for c in text)
    return slug.strip("-") or "model"


class Registry:
    """Shared store object; ``_catch_up`` is the only writer of its index."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.blob_dir = self.root / "blobs"
        self.meta_log = self.root / "meta.log"
        self.token_file = self.root / "tokens"
        self.root.mkdir(parents=True, exist_ok=True)
        self.blob_dir.mkdir(exist_ok=True)
        self._lock = threading.Lock()  # guards the index and _follow
        self._records: dict[str, _Indexed] = {}  # pid -> record
        self._by_tag: dict[str, set[str]] = {}  # tag -> pids
        # token_hash -> (account, role, expires_at) of unsalted rows; the
        # salted rows of older stores are scanned
        self._tokens: dict[str, tuple[str, str, str]] = {}
        self._salted: list[tuple[str, str, tuple[str, str, str]]] = []
        self._follow = {self.meta_log: (0, -1), self.token_file: (0, -1)}
        self._load()

    def _load(self) -> None:
        self._catch_up()
        logger.info("registry loaded: %d records", len(self._records))

    def _catch_up(self) -> None:
        """Index what meta.log and tokens gained since the last call."""
        with self._lock:
            for row in self._new_rows(self.meta_log):
                record = ArtifactRecord.from_dict(row)  # interns the keys
                self._records[record.pid] = _Indexed(
                    dumps_canonical(record.to_dict())[:-1],
                    record.title.lower(), record.artifact_type,
                    record.backend_tag, record.created_at)
                for tag in record.tags:
                    self._by_tag.setdefault(tag, set()).add(record.pid)
            for row in self._new_rows(self.token_file):
                grant = row["account"], row["role"], row["expires_at"]
                if row["salt"]:
                    self._salted.append((row["salt"], row["token_hash"],
                                         grant))
                else:
                    self._tokens[row["token_hash"]] = grant

    def _new_rows(self, path: Path) -> Iterator[Any]:
        offset, seen = self._follow[path]  # offset read to, size when read
        try:
            size = os.stat(path).st_size
        except FileNotFoundError:
            size = 0
        # one stat when nothing was appended; a torn tail (offset != seen)
        # cut and replaced by lines of equal length now ends in a newline
        if size != seen or offset != seen and _ends_line(path, size):
            offset, rows = read_records(path, offset)
            yield from rows
            self._follow[path] = (offset, size)

    # -- credentials -------------------------------------------------------

    def issue_token(self, account: str, role: str,
                    ttl_seconds: int) -> Credential:
        """Mint a credential; administrative (requires store access)."""
        if role not in ROLES:
            raise ConfigError(f"role must be one of {list(ROLES)}, "
                              f"got {role!r}")
        if not account:
            raise ConfigError("account must be non-empty")
        try:
            expires_at = datetime.now(timezone.utc) + \
                timedelta(seconds=ttl_seconds)
        except OverflowError:
            raise ConfigError(f"ttl {ttl_seconds} s is out of range") \
                from None
        token = secrets.token_hex(32)  # hex: never begins with "-"
        # 256 random bits need no salt, and an unsalted hash is one lookup
        row = {
            "token_hash": self._hash_token("", token),
            "salt": "",
            "account": account,
            "role": role,
            "expires_at": expires_at.isoformat(),
        }
        append_records(self.token_file, [row])
        return Credential(token, account, role, expires_at)

    @staticmethod
    def _hash_token(salt: str, token: str) -> str:
        return hashlib.sha256((salt + token).encode("utf-8")).hexdigest()

    def authenticate(self, cred: Credential | str | None) -> tuple[str, str]:
        """Resolve a token to (account, role); expiry is checked here."""
        token = _token_of(cred)
        if not token:
            raise AuthError("missing credential", code="unauthorized")
        token_hash = self._hash_token("", token)
        grant = self._tokens.get(token_hash)
        if grant is None:  # issued since the last call, or a salted row
            self._catch_up()
            grant = self._tokens.get(token_hash) or next(
                (grant for salt, stored, grant in self._salted
                 if self._hash_token(salt, token) == stored), None)
        if grant is None:
            raise AuthError("unknown credential", code="unknown_token")
        account, role, expires_at = grant
        if datetime.now(timezone.utc) >= datetime.fromisoformat(expires_at):
            raise AuthError("credential has expired", code="expired_token")
        return account, role

    def require_role(self, cred: Credential | str | None,
                     role: str) -> tuple[str, str]:
        account, actual = self.authenticate(cred)
        if role == "publisher" and actual != "publisher":
            raise AuthError(
                f"role '{actual}' may not publish", code="forbidden")
        return account, actual

    # -- registration ------------------------------------------------------

    def register_artifact(self, content: bytes, draft: ArtifactDraft,
                          cred: Credential | str) -> list[ArtifactRecord]:
        """Store content + metadata; returns the new records, primary first.

        Models with a convertible backend tag also produce a companion
        interchange artifact; if conversion fails or either blob is a
        duplicate, nothing at all is stored.
        """
        account, _ = self.require_role(cred, "publisher")
        self._check_draft(draft)

        planned = [(content, self._complete(content, draft, account))]
        if draft.artifact_type == "model" and draft.backend_tag in BACKENDS:
            planned.append(self._plan_companion(planned[0][1], content,
                                                draft, account))
        records = [record for _, record in planned]

        with appending(self.meta_log) as append:
            self._catch_up()  # other handles and processes push too
            for record in records:  # a pid is its content's hash prefix
                if record.pid in self._records:
                    raise DuplicateContentError(
                        f"content already registered as {record.pid}",
                        existing_pid=record.pid)
            if len({record.pid for record in records}) != len(records):
                raise DuplicateContentError(
                    "model and its converted form hash identically",
                    existing_pid=records[0].pid)
            for record in records:
                for parent, operation in record.provenance:
                    if operation not in PROVENANCE_OPS:
                        raise InvalidArtifactError(
                            f"unknown provenance operation {operation!r}")
                    if parent not in self._records and \
                            parent not in [r.pid for r in records]:
                        raise InvalidArtifactError(
                            f"provenance parent {parent} is not registered")
            for blob, record in planned:
                self._write_blob(record.content_hash, blob)
            append([record.to_dict() for record in records])
        self._catch_up()  # indexes the push by reading its line back
        for record in records:
            logger.info("registered %s (%s/%s)", record.pid,
                        record.artifact_type, record.backend_tag)
        return records

    def _check_draft(self, draft: ArtifactDraft) -> None:
        if not draft.title:
            raise InvalidArtifactError("artifact title must be non-empty")
        if draft.artifact_type not in ARTIFACT_TYPES:
            raise InvalidArtifactError(
                f"artifact_type must be one of {list(ARTIFACT_TYPES)}, "
                f"got {draft.artifact_type!r}")
        if not draft.backend_tag:
            raise InvalidArtifactError("backend_tag must be non-empty")

    def _complete(self, content: bytes, draft: ArtifactDraft,
                  account: str) -> ArtifactRecord:
        return ArtifactRecord(
            pid=derive_pid(content),
            title=draft.title,
            artifact_type=draft.artifact_type,
            backend_tag=draft.backend_tag,
            version=draft.version,
            tags=normalize_tags(draft.tags),
            creator=account,
            license=draft.license,
            content_hash=content_digest(content),
            size_bytes=len(content),
            provenance=draft.provenance,
            created_at=datetime.now(timezone.utc).strftime(_TIME_FORMAT),
        )

    def _plan_companion(self, parent: ArtifactRecord, content: bytes,
                        draft: ArtifactDraft, account: str
                        ) -> tuple[bytes, ArtifactRecord]:
        try:
            graph = convert_checkpoint_bytes(
                draft.backend_tag, content, _slug(draft.title), 1)
        except HpcfairError as exc:
            raise InvalidArtifactError(
                f"model content is not convertible: {exc}")
        blob = serialize_graph(graph)
        companion_draft = replace(
            draft,
            title=draft.title + " (onnx)",
            backend_tag="onnx",
            provenance=((parent.pid, "converted-from"),),
        )
        return blob, self._complete(blob, companion_draft, account)

    def _blob_path(self, content_hash: str) -> Path:
        return self.blob_dir / content_hash[:2] / content_hash

    def _write_blob(self, content_hash: str, blob: bytes) -> None:
        path = self._blob_path(content_hash)
        path.parent.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(blob)
        tmp.replace(path)

    # -- retrieval ---------------------------------------------------------

    def fetch_metadata(self, pid: str) -> ArtifactRecord:
        """Public read: Findable requires no credential.  The index holds
        each record once, as its canonical bytes; this decodes them."""
        return _decoded([self.record_bytes(pid)])[0]

    def record_bytes(self, pid: str) -> bytes:
        """The canonical bytes of a record, without the newline."""
        self._catch_up()
        indexed = self._records.get(pid)
        if indexed is None:
            raise UnknownPidError(f"unknown pid {pid}")
        return indexed.canonical

    def fetch_content(self, pid: str, cred: Credential | str) -> bytes:
        """Credentialed read (any role); bytes are hash-verified."""
        self.authenticate(cred)
        return self.read_blob_by_pid(pid)

    def read_blob_by_pid(self, pid: str) -> bytes:
        """Trusted server-side read used by the task layer; hash-verified.
        Only the record's hash is needed, so no record is built."""
        content_hash = loads_canonical(self.record_bytes(pid),
                                       "indexed record",
                                       IntegrityError)["content_hash"]
        path = self._blob_path(content_hash)
        if not path.exists():
            raise IntegrityError(f"stored content for {pid} is missing")
        blob = path.read_bytes()
        if content_digest(blob) != content_hash:
            raise IntegrityError(
                f"stored content for {pid} failed its integrity check")
        return blob

    # -- search ------------------------------------------------------------

    def search(self, query: SearchQuery) -> list[ArtifactRecord]:
        """All records matching every present field, newest first, ties by
        pid.  ``search_bytes`` selects them through the tag index; the
        records are decoded from the canonical bytes the index holds."""
        return _decoded(self.search_bytes(query))

    def search_bytes(self, query: SearchQuery) -> list[bytes]:
        """The canonical bytes of ``search``'s records, in its order.  Tags
        are looked up in the tag index, smallest set first; the other
        fields filter the indexed keys, and nothing is decoded."""
        if query.is_empty():
            raise ConfigError("search query requires at least one field")
        want_tags = normalize_tags(query.tags)
        title = (query.title_substring or "").lower()
        self._catch_up()
        with self._lock:  # a snapshot: pushes may go on
            if want_tags:
                sets = sorted((self._by_tag.get(tag, set())
                               for tag in want_tags), key=len)
                pids = sets[0].intersection(*sets[1:])
                candidates = [(pid, self._records[pid]) for pid in pids]
            else:
                candidates = self._records.items()
            matches = [
                (pid, indexed) for pid, indexed in candidates
                if (not query.artifact_type
                    or indexed.artifact_type == query.artifact_type)
                and (not query.backend_tag
                     or indexed.backend_tag == query.backend_tag)
                and title in indexed.title_lower]
        matches.sort(key=lambda match: match[0])
        matches.sort(key=lambda match: match[1].created_at, reverse=True)
        return [indexed.canonical for _, indexed in matches]

    def all_records(self) -> list[ArtifactRecord]:
        self._catch_up()
        with self._lock:
            stored = [indexed.canonical for indexed in self._records.values()]
        return _decoded(stored)
