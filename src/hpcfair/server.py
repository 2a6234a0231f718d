"""HTTP API over the registry and task dispatcher.

Versioned under ``/v1``.  Bodies are UTF-8 JSON with a top-level ``ok``
flag plus ``data`` or ``error{code, message}``; every failure carries a
stable machine-readable code.  Artifact upload is a two-part body: one
metadata JSON line, a newline, then the raw content bytes.  Task submission
is asynchronous: POST returns 202 with a task id to poll.

Handlers hold no mutable state of their own; everything shared lives in the
registry (single-writer) and dispatcher (claim table), so the threading
server needs no extra locks beyond the task table's.
"""

from __future__ import annotations

import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ._canonical import dumps_canonical
from .config import parse_config, validate_config
from .errors import AuthError, HpcfairError, InvalidArtifactError, \
    MalformedDocumentError, UnknownTaskError
from .registry import ArtifactDraft, Registry, SearchQuery, content_digest
from .tasks import Dispatcher, TaskResult

logger = logging.getLogger(__name__)

_STATUS_BY_CODE = {
    "unauthorized": 401,
    "unknown_token": 401,
    "expired_token": 401,
    "forbidden": 403,
    "unknown_pid": 404,
    "unknown_task": 404,
    "not_found": 404,
    "duplicate_content": 409,
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
        self._tasks: dict[str, TaskResult | None] = {}
        self._tasks_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=8)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.app = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "HpcfairServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="hpcfair-server", daemon=True)
        self._thread.start()
        logger.info("serving on %s", self.address)
        return self

    def serve_forever(self) -> None:
        logger.info("serving on %s", self.address)
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._pool.shutdown(wait=True)
        if self._thread is not None:
            self._thread.join(timeout=5)

    # -- task table ----------------------------------------------------------

    def submit_task(self, cfg) -> str:
        task_id = self.dispatcher.next_task_id(cfg)
        with self._tasks_lock:
            self._tasks[task_id] = None  # running
        self._pool.submit(self._run_task, cfg, task_id)
        return task_id

    def _run_task(self, cfg, task_id: str) -> None:
        result = self.dispatcher.execute(cfg, task_id)
        with self._tasks_lock:
            self._tasks[task_id] = result

    def task_status(self, task_id: str) -> dict:
        with self._tasks_lock:
            if task_id not in self._tasks:
                raise UnknownTaskError(f"unknown task id {task_id}")
            result = self._tasks[task_id]
        if result is None:
            return {"task_id": task_id, "status": "running"}
        return result.to_dict()


class _Handler(BaseHTTPRequestHandler):
    server_version = "hpcfair/0.1"
    protocol_version = "HTTP/1.1"

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

    def _body(self) -> bytes:
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            # the body's end is unknown, so the connection cannot be reused
            self.close_connection = True
            raise MalformedDocumentError(f"invalid Content-Length {raw!r}")
        return self.rfile.read(int(raw))

    def _send_json(self, status: int, body: dict) -> None:
        payload = dumps_canonical(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_error(self, exc: HpcfairError) -> None:
        # a duplicate upload names the artifact that already holds the bytes
        data = {"pid": exc.details["existing_pid"]} \
            if exc.code == "duplicate_content" else None
        self._send_json(status_for(exc.code),
                        error_body(exc.code, exc.message, data))

    def _send_bytes(self, blob: bytes, digest: str) -> None:
        self.send_response(200)
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
        try:
            route()
        except HpcfairError as exc:
            self._send_error(exc)
        except Exception as exc:
            logger.exception("%s %s failed", self.command, self.path)
            self._send_json(500, error_body("internal_error", str(exc)))

    def _route_get(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]

        if parts[:2] == ["v1", "artifacts"] and len(parts) == 3:
            record = self.app.registry.fetch_metadata(parts[2])
            self._send_json(200, ok_body({"record": record.to_dict()}))
        elif parts[:2] == ["v1", "artifacts"] and len(parts) == 4 \
                and parts[3] == "content":
            blob = self.app.registry.fetch_content(parts[2], self._token())
            self._send_bytes(blob, content_digest(blob))
        elif parts == ["v1", "search"]:
            query = _parse_search(url.query)
            records = self.app.registry.search(query)
            self._send_json(200, ok_body(
                {"records": [r.to_dict() for r in records]}))
        elif parts[:2] == ["v1", "tasks"] and len(parts) == 3:
            self._send_json(200, ok_body(self.app.task_status(parts[2])))
        else:
            raise HpcfairError(f"no route for {url.path}", code="not_found")

    def _route_post(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]

        if parts == ["v1", "artifacts"]:
            token = self._token()
            if token is None:
                raise AuthError("missing bearer token")
            meta, content = _split_upload(self._body())
            records = self.app.registry.register_artifact(
                content, ArtifactDraft.from_dict(meta), token)
            self._send_json(201, ok_body(
                {"records": [r.to_dict() for r in records]}))
        elif parts == ["v1", "tasks"]:
            token = self._token()
            if token is None:
                raise AuthError("missing bearer token")
            self.app.registry.authenticate(token)
            body = self._body()
            cfg = parse_config(body)
            report = validate_config(cfg)
            if not report.ok:
                self._send_json(400, error_body(
                    "invalid_config", "config failed validation",
                    {"violations": list(report.violations)}))
                return
            task_id = self.app.submit_task(cfg)
            self._send_json(202, ok_body({"task_id": task_id}))
        else:
            raise HpcfairError(f"no route for {url.path}", code="not_found")


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


def _split_upload(body: bytes) -> tuple[dict, bytes]:
    """Two-part upload: metadata JSON line + newline + raw content bytes."""
    newline = body.find(b"\n")
    if newline < 0:
        raise InvalidArtifactError(
            "upload body must be a metadata line, a newline, then content")
    try:
        meta = json.loads(body[:newline].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise InvalidArtifactError(f"metadata line is not valid JSON: {exc}")
    if not isinstance(meta, dict):
        raise InvalidArtifactError("metadata must be a JSON object")
    return meta, body[newline + 1:]
