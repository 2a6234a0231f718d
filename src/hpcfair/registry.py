"""Content-addressed artifact registry with FAIR metadata.

Every artifact gets a persistent identifier derived from its bytes, so
identifiers are globally unique with zero coordination and duplicate uploads
are detected by construction.  Metadata lives in an append-only log
(``meta.log``) replayed into an in-memory index on startup; blobs live under
``blobs/<hh>/<fullhash>``; credentials are stored only as salted hashes in
``tokens``.  Pushing a "pt" or "tf" model automatically registers a
companion interchange artifact with a "converted-from" provenance edge.
"""

from __future__ import annotations

import hashlib
import logging
import secrets
import threading
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator

from ._canonical import dumps_canonical, loads_canonical
from .converters import convert_checkpoint_bytes
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
CONVERTIBLE_BACKENDS = ("pt", "tf")

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
    seen = []
    for tag in tags:
        norm = normalize_tag(tag)
        if norm and norm not in seen:
            seen.append(norm)
    return tuple(sorted(seen))


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
            artifact_type=doc["artifact_type"],
            backend_tag=doc["backend_tag"],
            version=doc["version"],
            tags=tuple(doc["tags"]),
            creator=doc["creator"],
            license=doc["license"],
            content_hash=doc["content_hash"],
            size_bytes=doc["size_bytes"],
            provenance=tuple((p["parent_pid"], p["operation"])
                             for p in doc["provenance"]),
            created_at=doc["created_at"],
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

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ArtifactDraft":
        if not isinstance(doc, dict):
            raise InvalidArtifactError("artifact metadata must be an object")
        known = {"title", "artifact_type", "backend_tag", "tags", "version",
                 "license", "provenance"}
        unknown = set(doc) - known
        if unknown:
            raise InvalidArtifactError(
                f"unknown metadata keys {sorted(unknown)}")
        prov = tuple(
            (p["parent_pid"], p["operation"])
            for p in doc.get("provenance", ()))
        return cls(
            title=doc.get("title", ""),
            artifact_type=doc.get("artifact_type", ""),
            backend_tag=doc.get("backend_tag", ""),
            tags=tuple(doc.get("tags", ())),
            version=doc.get("version", 1),
            license=doc.get("license", ""),
            provenance=prov,
        )


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


def _token_of(cred: Credential | str | None) -> str | None:
    if cred is None:
        return None
    return cred.token if isinstance(cred, Credential) else cred


def _whole_lines(path: Path, *, repair: bool = False) -> list[bytes]:
    """The lines of an append-only log.  A torn (unterminated) last line is
    ignored with a warning, and with ``repair`` cut off so that the next
    append starts a fresh line."""
    if not path.exists():
        return []
    data = path.read_bytes()
    lines = data.split(b"\n")
    torn = lines.pop()  # empty unless the last append was cut short
    if torn:
        logger.warning("%s ends in a torn line of %d bytes; ignoring it",
                       path, len(torn))
        if repair:
            with open(path, "r+b") as fh:
                fh.truncate(len(data) - len(torn))
    return lines


def _read_log(path: Path, *, repair: bool = False) -> Iterator[Any]:
    """Rows of ``meta.log`` or ``tokens``, one canonical JSON value per
    whole line; a whole line that does not parse raises IntegrityError."""
    for number, line in enumerate(_whole_lines(path, repair=repair), 1):
        if not line.strip():
            continue
        try:
            row = loads_canonical(line)
        except ValueError as exc:
            raise IntegrityError(
                f"{path} line {number} does not parse: {exc}") from None
        yield row


def _slug(text: str) -> str:
    slug = "".join(c if c.isalnum() or c in "-_." else "-" for c in text)
    return slug.strip("-") or "model"


class Registry:
    """Shared store object; writes are serialized, reads are lock-free."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.blob_dir = self.root / "blobs"
        self.meta_log = self.root / "meta.log"
        self.token_file = self.root / "tokens"
        self.root.mkdir(parents=True, exist_ok=True)
        self.blob_dir.mkdir(exist_ok=True)
        self._write_lock = threading.Lock()
        self._records: dict[str, ArtifactRecord] = {}
        self._by_hash: dict[str, str] = {}  # content_hash -> pid
        _whole_lines(self.token_file, repair=True)
        self._load()

    def _load(self) -> None:
        for row in _read_log(self.meta_log, repair=True):
            record = ArtifactRecord.from_dict(row)
            self._records[record.pid] = record
            self._by_hash[record.content_hash] = record.pid
        logger.info("registry loaded: %d records", len(self._records))

    # -- credentials -------------------------------------------------------

    def issue_token(self, account: str, role: str,
                    ttl_seconds: int) -> Credential:
        """Mint a credential; administrative (requires store access)."""
        if role not in ROLES:
            raise ConfigError(f"role must be one of {list(ROLES)}, "
                              f"got {role!r}")
        if not account:
            raise ConfigError("account must be non-empty")
        token = secrets.token_hex(32)  # hex: never begins with "-"
        salt = secrets.token_hex(8)
        expires_at = datetime.now(timezone.utc) + \
            timedelta(seconds=ttl_seconds)
        row = {
            "token_hash": self._hash_token(salt, token),
            "salt": salt,
            "account": account,
            "role": role,
            "expires_at": expires_at.isoformat(),
        }
        with self._write_lock:
            with open(self.token_file, "ab") as fh:
                fh.write(dumps_canonical(row))
        return Credential(token, account, role, expires_at)

    @staticmethod
    def _hash_token(salt: str, token: str) -> str:
        return hashlib.sha256((salt + token).encode("utf-8")).hexdigest()

    def authenticate(self, cred: Credential | str | None) -> tuple[str, str]:
        """Resolve a token to (account, role); expiry is checked here."""
        token = _token_of(cred)
        if not token:
            raise AuthError("missing credential", code="unauthorized")
        for row in _read_log(self.token_file):
            if self._hash_token(row["salt"], token) != row["token_hash"]:
                continue
            expires_at = datetime.fromisoformat(row["expires_at"])
            if datetime.now(timezone.utc) >= expires_at:
                raise AuthError("credential has expired",
                                code="expired_token")
            return row["account"], row["role"]
        raise AuthError("unknown credential", code="unknown_token")

    def _require_role(self, cred: Credential | str | None,
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
        account, _ = self._require_role(cred, "publisher")
        self._check_draft(draft)

        with self._write_lock:
            planned = [(content, self._complete(content, draft, account))]
            if draft.artifact_type == "model" and \
                    draft.backend_tag in CONVERTIBLE_BACKENDS:
                planned.append(self._plan_companion(planned[0][1], content,
                                                    draft, account))

            for blob, record in planned:
                existing = self._by_hash.get(record.content_hash)
                if existing is not None:
                    raise DuplicateContentError(
                        f"content already registered as {existing}",
                        existing_pid=existing)
            seen_hashes = {record.content_hash for _, record in planned}
            if len(seen_hashes) != len(planned):
                raise DuplicateContentError(
                    "model and its converted form hash identically",
                    existing_pid=planned[0][1].pid)
            for _, record in planned:
                for parent, operation in record.provenance:
                    if operation not in PROVENANCE_OPS:
                        raise InvalidArtifactError(
                            f"unknown provenance operation {operation!r}")
                    if parent not in self._records and \
                            parent not in [r.pid for _, r in planned]:
                        raise InvalidArtifactError(
                            f"provenance parent {parent} is not registered")

            for blob, record in planned:
                self._write_blob(record.content_hash, blob)
            with open(self.meta_log, "ab") as fh:
                for _, record in planned:
                    fh.write(dumps_canonical(record.to_dict()))
            for _, record in planned:
                self._records[record.pid] = record
                self._by_hash[record.content_hash] = record.pid
                logger.info("registered %s (%s/%s)", record.pid,
                            record.artifact_type, record.backend_tag)
        return [record for _, record in planned]

    def _check_draft(self, draft: ArtifactDraft) -> None:
        if not draft.title:
            raise InvalidArtifactError("artifact title must be non-empty")
        if draft.artifact_type not in ARTIFACT_TYPES:
            raise InvalidArtifactError(
                f"artifact_type must be one of {list(ARTIFACT_TYPES)}, "
                f"got {draft.artifact_type!r}")
        if not draft.backend_tag or not isinstance(draft.backend_tag, str):
            raise InvalidArtifactError("backend_tag must be non-empty")
        if not isinstance(draft.version, int) or isinstance(draft.version,
                                                            bool) \
                or draft.version < 1:
            raise InvalidArtifactError("version must be a positive integer")

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
            provenance=tuple(draft.provenance),
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
        """Public read: Findable requires no credential."""
        record = self._records.get(pid)
        if record is None:
            raise UnknownPidError(f"unknown pid {pid}")
        return record

    def fetch_content(self, pid: str, cred: Credential | str) -> bytes:
        """Credentialed read (any role); bytes are hash-verified."""
        self.authenticate(cred)
        return self.read_blob_by_pid(pid)

    def read_blob_by_pid(self, pid: str) -> bytes:
        """Trusted server-side read used by the task layer; hash-verified."""
        record = self.fetch_metadata(pid)
        path = self._blob_path(record.content_hash)
        if not path.exists():
            raise IntegrityError(f"stored content for {pid} is missing")
        blob = path.read_bytes()
        if content_digest(blob) != record.content_hash:
            raise IntegrityError(
                f"stored content for {pid} failed its integrity check")
        return blob

    # -- search ------------------------------------------------------------

    def search(self, query: SearchQuery) -> list[ArtifactRecord]:
        """All records matching every present field, newest first."""
        if query.is_empty():
            raise ConfigError("search query requires at least one field")
        want_tags = normalize_tags(query.tags)
        matches = []
        for record in self._records.values():
            if want_tags and not set(want_tags) <= set(record.tags):
                continue
            if query.artifact_type and \
                    record.artifact_type != query.artifact_type:
                continue
            if query.backend_tag and record.backend_tag != query.backend_tag:
                continue
            if query.title_substring and \
                    query.title_substring.lower() not in record.title.lower():
                continue
            matches.append(record)
        matches.sort(key=lambda r: r.pid)
        matches.sort(key=lambda r: r.created_at, reverse=True)
        return matches

    def all_records(self) -> list[ArtifactRecord]:
        return list(self._records.values())
