"""Client API: one call per task, in the spirit of

    from hpcfair import modelAPI
    api = modelAPI()
    api.conversion(path_to_config)
    api.collaborate(path_to_config)
    api.container(path_to_config)

Each verb loads a config file, submits it, waits for completion, and
returns the TaskResult; a failed task raises instead of returning partial
success.  With no address the client runs tasks in-process; with an address
it submits the task through ``request``, the service's one HTTP client, and
asks for its status with ``wait``, so the server answers when it ends.
"""

from __future__ import annotations

import http.client
import logging
import os
import time
from contextlib import closing
from pathlib import Path
from urllib.parse import quote, urlencode, urlsplit

from ._canonical import loads_canonical
from .config import TaskConfig, parse_config, relative_paths
from .errors import ConfigError, HpcfairError
from .tasks import Dispatcher, TaskResult

logger = logging.getLogger(__name__)

_POLL_TIMEOUT = 60.0
_TIMEOUT = 30.0  # seconds to connect, and to wait for a reply to begin


def _connect(address: str) -> http.client.HTTPConnection:
    """An unopened connection; ConfigError unless http(s)://host[:port]."""
    try:
        parts = urlsplit(address)
        kind = {"http": http.client.HTTPConnection,
                "https": http.client.HTTPSConnection}[parts.scheme]
        if parts.hostname:
            return kind(parts.hostname, parts.port)
    except (KeyError, ValueError):  # ValueError: a bad port or IPv6 host
        pass
    raise ConfigError(f"server address {address!r} is not "
                      "http://host[:port] or https://host[:port]")


def request(address: str, method: str, path: str, *,
            token: str | None = None, data: bytes | None = None,
            params: dict | None = None,
            timeout: tuple[float, float] | None = None, connection=None):
    """One call to an hpcfair server, on ``connection`` if given, else on a
    connection of its own: returns the envelope's ``data``, or the bytes of
    an octet-stream reply.  A failure raises HpcfairError with the server's
    code and the envelope's ``data`` as details; an unreachable address, no
    reply within ``timeout`` (``(connect, read)`` seconds, ``_TIMEOUT`` each
    unless given) or a reply without an envelope raises one naming it.
    """
    conn = connection or _connect(address)
    connect_s, read_s = timeout or (_TIMEOUT, _TIMEOUT)
    query = "?" + urlencode(params) if params else ""
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    try:
        if conn.sock is None:
            conn.timeout = connect_s
            conn.connect()
        conn.sock.settimeout(read_s)
        conn.request(method, quote(urlsplit(address).path + path) + query,
                     data, headers)
        response = conn.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException) as exc:
        what = "no reply from" if isinstance(exc, TimeoutError) \
            else "cannot reach"
        raise HpcfairError(f"{what} {address}: {exc}",
                           code="connection_error") from None
    finally:
        if connection is None:
            conn.close()
    if response.status < 400 and response.getheader("Content-Type") == \
            "application/octet-stream":
        return body
    try:
        doc = loads_canonical(body, "reply", HpcfairError)
        if doc["ok"]:
            return doc["data"]
        code, message = doc["error"]["code"], doc["error"]["message"]
    except (HpcfairError, TypeError, KeyError):
        raise HpcfairError(
            f"{method} {address}{path} answered {response.status} "
            "without an hpcfair envelope", code="bad_response") from None
    raise HpcfairError(message, code=code, details=doc.get("data"))


class TaskFailed(HpcfairError):
    """A submitted task finished with status "failed"."""

    code = "task_failed"

    def __init__(self, result: TaskResult):
        error = result.error or {}
        super().__init__(
            f"task {result.task_id} failed: "
            f"{error.get('message', 'task failed')}",
            code=error.get("code", "task_failed"),
            details={"task_id": result.task_id})
        self.result = result


class ModelAPI:
    """Task-submission client; local in-process by default, HTTP if
    constructed with a server address (or HPCFAIR_ADDR in the environment).
    """

    def __init__(self, address: str | None = None, token: str | None = None,
                 store=None):
        self.address = address or os.environ.get("HPCFAIR_ADDR") or None
        self.token = token or os.environ.get("HPCFAIR_TOKEN") or None
        self._dispatcher = None if self.address else Dispatcher(store=store)

    # -- public verbs --------------------------------------------------------

    def conversion(self, config_path: str | Path) -> TaskResult:
        """Convert checkpoint files to interchange files."""
        return self._submit(self._load(config_path, expect="conversion"))

    def infer(self, config_path: str | Path) -> TaskResult:
        """Run inference with one model (or a composed pair)."""
        return self._submit(self._load(config_path, expect="inference"))

    def collaborate(self, config_path: str | Path,
                    conversion_config: str | Path | None = None
                    ) -> TaskResult:
        """Compose-and-run two models.

        One combined config must be an inference config with
        tag "collaboration"; alternatively pass the conversion config as a
        second argument to run the full convert-then-infer flow.
        """
        if conversion_config is not None:
            self._submit(self._load(conversion_config, expect="conversion"))
        loaded = self._load(config_path, expect="inference")
        if loaded[0].general.tag != "collaboration":
            raise ConfigError(
                "collaborate is for configs with general_args.tag 'collaboration', "
                f"got {loaded[0].general.tag!r}")
        return self._submit(loaded)

    def container(self, config_path: str | Path) -> TaskResult:
        """Build and run a sandboxed project."""
        return self._submit(self._load(config_path, expect="container"))

    # -- mechanics -------------------------------------------------------------

    def _load(self, config_path: str | Path,
              expect: str | None) -> tuple[TaskConfig, bytes]:
        path = Path(config_path)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        raw = path.read_bytes()
        cfg = parse_config(raw, base_dir=path.parent)
        if expect is not None and cfg.general.task != expect:
            raise ConfigError(
                f"this verb handles task '{expect}', the config declares "
                f"{cfg.general.task!r}")
        return cfg, raw

    def _submit(self, loaded: tuple[TaskConfig, bytes]) -> TaskResult:
        cfg, raw = loaded
        if self._dispatcher is not None:
            result = self._dispatcher.dispatch(cfg)
        else:
            # the server would resolve a relative path against its own
            # working directory, not the config's
            relative = relative_paths(cfg)
            if relative:
                field, path = relative[0]
                raise ConfigError(
                    f"{field} {path!r} is a relative path, which a remote "
                    "task cannot resolve; give an absolute path or a "
                    "registry pid")
            result = self._submit_http(raw)
        if result.status != "succeeded":
            raise TaskFailed(result)
        logger.info("task %s succeeded: %s", result.task_id,
                    ", ".join(result.outputs))
        return result

    def _submit_http(self, raw: bytes) -> TaskResult:
        # the task's POST and its polls share one connection (RFC 9112, 9)
        with closing(_connect(self.address)) as conn:
            task_id = request(self.address, "POST", "/v1/tasks",
                              token=self.token, data=raw,
                              connection=conn)["task_id"]
            deadline = time.monotonic() + _POLL_TIMEOUT
            while True:
                # the server holds the reply until the task ends (RFC 6202)
                wait = max(deadline - time.monotonic(), 0.0)
                data = request(self.address, "GET", f"/v1/tasks/{task_id}",
                               token=self.token, params={"wait": wait},
                               timeout=(_TIMEOUT, wait + _TIMEOUT),
                               connection=conn)
                if data["status"] != "running":
                    return TaskResult(data["task_id"], data["status"],
                                      tuple(data["outputs"]),
                                      tuple(data["log"]), data["error"])
                if time.monotonic() >= deadline:
                    raise HpcfairError(f"task {task_id} did not finish "
                                       f"within {_POLL_TIMEOUT:.0f}s")


# lowercase alias, kept for callers that write `api = modelAPI()`
modelAPI = ModelAPI
