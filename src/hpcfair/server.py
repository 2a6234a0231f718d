"""HTTP API over the registry and task dispatcher.

Versioned under ``/v1``.  Bodies are UTF-8 JSON with a top-level ``ok``
flag plus ``data`` or ``error{code, message}``; every failure is a raised
HpcfairError with a stable machine-readable code, whose ``details`` are
the envelope's ``data``.  A body is read whole, up to ``_BODY_LIMIT_BYTES``.
Artifact upload is a two-part body: one metadata JSON line, a newline, then
the raw content bytes.  Task submission is asynchronous: POST returns 202
with a task id to poll; a poll with ``?wait=<s>`` holds the reply until the
task ends or the wait runs out.

Handlers hold no mutable state of their own; everything shared lives in the
registry (single-writer) and dispatcher (claim table), so the threading
server needs no extra locks beyond the task table's.  The table keeps the
last ``_RESULTS_KEPT`` finished results, so it does not grow with traffic.
The record routes (metadata, search and a push's 201) send the canonical
bytes the registry holds for each record, joined into the ``ok`` envelope,
without decoding or re-encoding them.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ._canonical import OBJECT, check, dumps_canonical, loads_canonical
from .config import parse_config, validate_config
from .errors import AuthError, ConfigError, HpcfairError, \
    InvalidArtifactError, MalformedDocumentError, UnknownTaskError
from .registry import ArtifactDraft, Registry, SearchQuery, content_digest
from .tasks import Dispatcher, TaskResult

logger = logging.getLogger(__name__)

_SHUTDOWN_POLL_SECONDS = 0.05  # stop() waits up to this long
_WAIT_CAP_SECONDS = 30.0  # the longest a task poll is held (RFC 6202, section 2)
_RESULTS_KEPT = 256  # finished results kept; older ids are unknown_task
_BODY_LIMIT_BYTES = 256 * 2 ** 20  # a longer declared body is refused

_STATUS_BY_CODE = {
    "unauthorized": 401,
    "unknown_token": 401,
    "expired_token": 401,
    "forbidden": 403,
    "unknown_pid": 404,
    "unknown_task": 404,
    "not_found": 404,
    "duplicate_content": 409,
    "body_too_large": 413,
    "integrity_failure": 500,
    "internal_error": 500,
}


def ok_body(data) -> dict:
    return {"ok": True, "data": data}


def error_body(code: str, message: str, data=None) -> dict:
    body = {"ok": False, "error": {"code": code, "message": message}}
    if data is not None:
        body["data"] = data
    return body


def status_for(code: str) -> int:
    return _STATUS_BY_CODE.get(code, 400)


class HpcfairServer:
    """Owns the listening socket, the dispatcher pool, and the task table."""

    def __init__(self, registry: Registry, host: str = "127.0.0.1",
                 port: int = 0):
        self.registry = registry
        self.dispatcher = Dispatcher(store=registry)
        # the task table: running ids, and finished results oldest first
        self._running: set[str] = set()
        self._results: dict[str, TaskResult] = {}
        self._stopping = False
        self._tasks_changed = threading.Condition()
        self._pool = ThreadPoolExecutor(max_workers=8)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.app = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "HpcfairServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="hpcfair-server", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        logger.info("serving on %s", self.address)
        self._httpd.serve_forever(poll_interval=_SHUTDOWN_POLL_SECONDS)

    def stop(self) -> None:
        with self._tasks_changed:  # release every held poll
            self._stopping = True
            self._tasks_changed.notify_all()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._pool.shutdown(wait=True)
        if self._thread is not None:
            self._thread.join(timeout=5)

    # -- task table ----------------------------------------------------------

    def submit_task(self, cfg) -> str:
        # claimed here, in the handler thread, so POST order decides which
        # of two tasks exporting one path wins
        task_id = self.dispatcher.submit(cfg)
        with self._tasks_changed:
            self._running.add(task_id)
        self._pool.submit(self._run_task, cfg, task_id)
        return task_id

    def _run_task(self, cfg, task_id: str) -> None:
        result = self.dispatcher.execute(cfg, task_id)
        with self._tasks_changed:
            self._running.discard(task_id)
            self._results[task_id] = result
            if len(self._results) > _RESULTS_KEPT:
                del self._results[next(iter(self._results))]
            self._tasks_changed.notify_all()

    def task_status(self, task_id: str, wait: float = 0.0) -> dict:
        """A task's status; a running task is waited on for up to ``wait``
        seconds, or until ``stop``."""
        with self._tasks_changed:
            self._tasks_changed.wait_for(
                lambda: task_id not in self._running or self._stopping,
                timeout=wait)
            result = self._results.get(task_id)
            if result is None and task_id not in self._running:
                raise UnknownTaskError(f"unknown task id {task_id}")
        if result is None:
            return {"task_id": task_id, "status": "running"}
        return result.to_dict()


class _Handler(BaseHTTPRequestHandler):
    server_version = "hpcfair/0.1"
    protocol_version = "HTTP/1.1"
    # a keep-alive reply goes out at once, not after the peer's delayed
    # ACK (RFC 896; RFC 1122, section 4.2.3.2)
    disable_nagle_algorithm = True

    @property
    def app(self) -> HpcfairServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:
        logger.debug("%s " + fmt, self.address_string(), *args)

    # -- plumbing ------------------------------------------------------------

    def _token(self) -> str | None:
        header = self.headers.get("Authorization", "")
        if header.startswith("Bearer "):
            return header[len("Bearer "):].strip() or None
        return None

    def _authenticate(self, role: str) -> str:
        """The bearer token, once it and its role are checked; called before
        ``_body``, so that a refused request costs no read of its body."""
        token = self._token()
        if token is None:
            raise AuthError("missing bearer token")
        self.app.registry.require_role(token, role)
        return token

    def _body(self) -> bytes:
        """The whole body its Content-Length declares, up to the bound."""
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise MalformedDocumentError(f"invalid Content-Length {raw!r}")
        # refused before any read; a length of more digits than the bound
        # has is over it, and int() refuses thousands of digits
        if len(raw.lstrip("0")) > len(str(_BODY_LIMIT_BYTES)) \
                or int(raw) > _BODY_LIMIT_BYTES:
            raise HpcfairError(f"request body is over the server's bound of "
                               f"{_BODY_LIMIT_BYTES} bytes",
                               code="body_too_large")
        length = int(raw)
        body = self.rfile.read(length)
        if len(body) < length:
            raise MalformedDocumentError(
                f"request body ended after {len(body)} of {length} bytes")
        self._unread = False
        return body

    def _send_response(self, status: int) -> None:
        self.send_response(status)
        if self._unread:
            # the next request would start inside the unread body, or the
            # body's end is unknown: this connection cannot be reused
            self.send_header("Connection", "close")

    def _send_json(self, status: int, body: dict) -> None:
        self._send_payload(status, dumps_canonical(body))

    def _send_records(self, status: int, key: str, records: bytes) -> None:
        """``dumps_canonical(ok_body({key: ...}))`` around ``records``, the
        registry's canonical bytes of one record or of a JSON list."""
        self._send_payload(status, b'{"ok":true,"data":{"%s":%s}}\n'
                           % (key.encode(), records))

    def _send_payload(self, status: int, payload: bytes) -> None:
        self._send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_error(self, exc: HpcfairError) -> None:
        body = error_body(exc.code, exc.message, exc.details or None)
        self._send_json(status_for(exc.code), body)

    def _send_bytes(self, blob: bytes, digest: str) -> None:
        self._send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(blob)))
        self.send_header("X-Content-Digest", digest)
        self.end_headers()
        self.wfile.write(blob)

    # -- routing ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle(self._route_post)

    def _handle(self, route) -> None:
        self._unread = self.headers.get("Content-Length", "0").strip() != "0"
        try:
            route()
        except HpcfairError as exc:
            self._send_error(exc)
        except Exception as exc:
            logger.exception("%s %s failed", self.command, self.path)
            self._send_error(HpcfairError(str(exc)))

    def _route_get(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]

        if parts[:2] == ["v1", "artifacts"] and len(parts) == 3:
            self._send_records(200, "record",
                               self.app.registry.record_bytes(parts[2]))
        elif parts[:2] == ["v1", "artifacts"] and len(parts) == 4 \
                and parts[3] == "content":
            blob = self.app.registry.fetch_content(parts[2], self._token())
            self._send_bytes(blob, content_digest(blob))
        elif parts == ["v1", "search"]:
            found = self.app.registry.search_bytes(_parse_search(url.query))
            self._send_records(200, "records", _json_list(found))
        elif parts[:2] == ["v1", "tasks"] and len(parts) == 3:
            wait = _parse_wait(url.query)
            self._send_json(200, ok_body(self.app.task_status(parts[2],
                                                              wait)))
        else:
            raise HpcfairError(f"no route for {url.path}", code="not_found")

    def _route_post(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]

        if parts == ["v1", "artifacts"]:
            token = self._authenticate("publisher")
            meta, content = _split_upload(self._body())
            records = self.app.registry.register_artifact(
                content, ArtifactDraft.from_dict(meta), token)
            self._send_records(201, "records", _json_list(
                [self.app.registry.record_bytes(r.pid) for r in records]))
        elif parts == ["v1", "tasks"]:
            self._authenticate("reader")
            cfg = parse_config(self._body())
            report = validate_config(cfg)
            if not report.ok:
                raise ConfigError("config failed validation", details={
                    "violations": list(report.violations)})
            task_id = self.app.submit_task(cfg)
            self._send_json(202, ok_body({"task_id": task_id}))
        else:
            raise HpcfairError(f"no route for {url.path}", code="not_found")


def _json_list(items: list[bytes]) -> bytes:
    return b"[" + b",".join(items) + b"]"


def _parse_search(query_string: str) -> SearchQuery:
    params = parse_qs(query_string)

    def single(key: str) -> str | None:
        values = params.get(key, [])
        return values[0] if values and values[0] else None

    tags_raw = single("tags") or ""
    tags = tuple(t for t in (part.strip() for part in tags_raw.split(","))
                 if t)
    return SearchQuery(
        tags=tags,
        artifact_type=single("type"),
        backend_tag=single("backend"),
        title_substring=single("title"),
    )


def _parse_wait(query_string: str) -> float:
    """The ``wait`` of a task poll in seconds, capped; 0 when absent."""
    values = parse_qs(query_string, keep_blank_values=True).get("wait")
    if not values:
        return 0.0
    try:
        wait = float(values[0])
        if not wait >= 0:  # NaN fails every comparison
            raise ValueError
    except ValueError:
        raise ConfigError(f"wait must be a number of seconds >= 0, "
                          f"got {values[0]!r}") from None
    return min(wait, _WAIT_CAP_SECONDS)


def _split_upload(body: bytes) -> tuple[dict, bytes]:
    """Two-part upload: metadata JSON line + newline + raw content bytes."""
    newline = body.find(b"\n")
    if newline < 0:
        raise InvalidArtifactError(
            "upload body must be a metadata line, a newline, then content")
    meta = loads_canonical(body[:newline], "metadata line",
                           InvalidArtifactError)
    check(meta, OBJECT, "metadata", InvalidArtifactError)
    return meta, body[newline + 1:]
