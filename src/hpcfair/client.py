"""Client API: one call per task, in the spirit of

    from hpcfair import modelAPI
    api = modelAPI()
    api.conversion(path_to_config)
    api.collaborate(path_to_config)
    api.container(path_to_config)

Each verb loads a config file, submits it, waits for completion, and
returns the TaskResult; a failed task raises instead of returning partial
success.  With no address the client runs tasks in-process; with an address
it submits and polls through ``request``, the service's one HTTP client.
"""

from __future__ import annotations

import logging
import os
import time
from pathlib import Path

from .config import TaskConfig, parse_config
from .errors import ConfigError, HpcfairError
from .tasks import Dispatcher, TaskResult

logger = logging.getLogger(__name__)

_POLL_SECONDS = 0.05
_POLL_TIMEOUT = 60.0


def request(address: str, method: str, path: str, *,
            token: str | None = None, **kwargs):
    """One call to an hpcfair server: returns the envelope's ``data``, or
    the bytes of an octet-stream response.  A failure raises HpcfairError
    with the server's code and the envelope's ``data`` as details; an
    unreachable address or a reply without an envelope raises one naming
    the address.  Uses module-level ``requests.get``/``post`` (no Session).
    """
    import requests

    headers = {"Authorization": f"Bearer {token}"} if token else {}
    send = requests.post if method == "POST" else requests.get
    try:
        response = send(f"{address}{path}", headers=headers, **kwargs)
    except requests.ConnectionError as exc:
        raise HpcfairError(f"cannot reach {address}: {exc}",
                           code="connection_error") from None
    if response.ok and response.headers.get("Content-Type") == \
            "application/octet-stream":
        return response.content
    try:
        body = response.json()
        if body["ok"]:
            return body["data"]
        code, message = body["error"]["code"], body["error"]["message"]
    except (ValueError, TypeError, KeyError):
        raise HpcfairError(
            f"{method} {address}{path} answered {response.status_code} "
            "without an hpcfair envelope", code="bad_response") from None
    raise HpcfairError(message, code=code, details=body.get("data"))


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
                "collaborate requires general_args.tag 'collaboration', "
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
            result = self._submit_http(raw)
        if result.status != "succeeded":
            raise TaskFailed(result)
        logger.info("task %s succeeded: %s", result.task_id,
                    ", ".join(result.outputs))
        return result

    def _submit_http(self, raw: bytes) -> TaskResult:
        task_id = request(self.address, "POST", "/v1/tasks",
                          token=self.token, data=raw)["task_id"]
        deadline = time.monotonic() + _POLL_TIMEOUT
        while True:
            data = request(self.address, "GET", f"/v1/tasks/{task_id}",
                           token=self.token)
            if data["status"] in ("succeeded", "failed"):
                return TaskResult(data["task_id"], data["status"],
                                  tuple(data["outputs"]), tuple(data["log"]),
                                  data["error"])
            if time.monotonic() > deadline:
                raise HpcfairError(f"task {task_id} did not finish within "
                                   f"{_POLL_TIMEOUT:.0f}s")
            time.sleep(_POLL_SECONDS)


# lowercase alias, kept for callers that write `api = modelAPI()`
modelAPI = ModelAPI
