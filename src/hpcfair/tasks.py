"""Task dispatch: route validated configs to their executors.

The dispatcher owns a monotone task counter, the export-path claim table
and the cache of prepared inference plans.
Every task enters through ``submit``, which takes its id and claims its
export paths in one hold of the lock; ``execute`` then validates and runs it
and releases the claim however it ends.  ``dispatch``, ``submit_many`` and
the HTTP server all submit before they execute, so of two tasks writing the
same file the later submission fails with a collision error, whatever order
they run in, and re-running a config after completion is always allowed.
Every failure, a refusal included, is an HpcfairError raised to ``execute``,
which logs it and reports it in the TaskResult; none escapes.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

from .config import TaskConfig, is_path, serialize_config, validate_config
from .converters import run_conversion_task
from .errors import CollisionError, ConfigError, HpcfairError
from .runtime import PlanCache, run_inference_task
from .sandbox import run_container_task

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TaskResult:
    task_id: str
    status: str  # "succeeded" | "failed"
    outputs: tuple[str, ...] = ()
    log: tuple[str, ...] = ()
    error: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "outputs": list(self.outputs),
                "log": list(self.log)}


def _now() -> str:
    now = datetime.now(timezone.utc)  # to the millisecond
    return f"{now:%Y-%m-%dT%H:%M:%S}.{now.microsecond // 1000:03d}Z"


def _unwritable(path: str) -> str | None:
    """Why a task could never write its export to ``path``, if it could not."""
    if Path(path).is_dir():
        return f"export path is a directory: {path}"
    # only the nearest existing ancestor can be a file; above a directory
    # there are only directories
    if next(up for up in Path(path).parents if up.exists()).is_file():
        return f"export path lies under a regular file: {path}"
    return None


class Dispatcher:
    """Routes configs to task executors; safe for concurrent callers."""

    def __init__(self, store: Any = None):
        self.store = store
        self.store_root = Path(store.root) if store is not None else None
        # reentrant: submit takes an id and claims under one hold
        self._lock = threading.RLock()
        self._counter = 0
        self._active_paths: set[str] = set()
        # submitted, not yet executing: task id -> (claimed paths, collision)
        self._queued: dict[str, tuple[list[str], CollisionError | None]] = {}
        self._plans = PlanCache()  # inference plans, by model digests

    def next_task_id(self, cfg: TaskConfig) -> str:
        digest = hashlib.sha256(serialize_config(cfg)).hexdigest()[:8]
        with self._lock:
            self._counter += 1
            return f"task-{self._counter:06d}-{digest}"

    # -- claims ------------------------------------------------------------

    def _export_paths(self, cfg: TaskConfig) -> list[str]:
        # validate_config rejects the entries skipped here
        return [str(cfg.resolve(p)) for p in cfg.export_files if is_path(p)]

    def _claim(self, paths: Sequence[str]) -> None:
        with self._lock:
            clash = sorted(set(paths) & self._active_paths)
            if not clash:
                self._active_paths.update(paths)
            elif any(clash[0] in held for held, _ in self._queued.values()):
                raise CollisionError("export path already claimed by a "
                                     "concurrently submitted task")
            else:
                raise CollisionError(
                    f"export path already claimed by a running task: "
                    f"{clash[0]}")

    def _release(self, paths: Sequence[str]) -> None:
        with self._lock:
            self._active_paths.difference_update(paths)

    # -- execution ---------------------------------------------------------

    def submit(self, cfg: TaskConfig) -> str:
        """Take a task id and claim cfg's export paths; a collision is kept
        and reported by ``execute(cfg, task_id)``, which must follow."""
        with self._lock:
            task_id = self.next_task_id(cfg)
            paths = self._export_paths(cfg)
            try:
                self._claim(paths)
                self._queued[task_id] = (paths, None)
            except CollisionError as exc:
                self._queued[task_id] = ([], exc)
        return task_id

    def dispatch(self, cfg: TaskConfig) -> TaskResult:
        """Submit, run, and report synchronously."""
        return self.execute(cfg, self.submit(cfg))

    def execute(self, cfg: TaskConfig, task_id: str) -> TaskResult:
        """Validate and run a submitted task, then release its claim; a
        refusal (invalid config, collision, an export onto a directory or
        under a regular file) fails it like any other failure."""
        with self._lock:
            paths, collision = self._queued.pop(task_id)
        log = [f"{_now()} task {task_id} accepted"]
        try:
            report = validate_config(cfg)
            if not report.ok:
                raise ConfigError("; ".join(report.violations))
            if collision is not None:
                raise collision
            for problem in filter(None, map(_unwritable, paths)):
                raise ConfigError(problem)
            outputs = self._route(cfg, log)
        except HpcfairError as exc:
            logger.info("task %s failed: %s", task_id, exc.message)
            error = exc.to_dict()
        except Exception as exc:  # never let component bugs escape
            logger.exception("task %s crashed", task_id)
            error = HpcfairError(str(exc)).to_dict()
        else:
            log.append(f"{_now()} succeeded")
            return TaskResult(task_id, "succeeded", outputs=outputs,
                              log=tuple(log))
        finally:
            self._release(paths)
        log.append(f"{_now()} failed: {error['message']}")
        return TaskResult(task_id, "failed", log=tuple(log), error=error)

    def _route(self, cfg: TaskConfig, log: list[str]) -> tuple[str, ...]:
        task = cfg.general.task
        log.append(f"{_now()} routing task '{task}'")
        if task == "conversion":
            return tuple(str(p) for p in run_conversion_task(cfg))
        if task == "inference":
            return (str(run_inference_task(cfg, store=self.store,
                                           plans=self._plans)),)
        export, record = run_container_task(cfg, store_root=self.store_root)
        log.append(
            f"{_now()} run {record.run_id}: image "
            f"{record.image_digest[:12]} exit {record.exit_status} "
            f"input {record.input_digest[:12]} output "
            f"{(record.output_digest or 'none')[:12]}")
        return (str(export),)

    def submit_many(self, configs: Sequence[TaskConfig],
                    worker_num: int = 1) -> list[TaskResult]:
        """Run a batch on a pool of max(1, worker_num) threads.

        Every config is submitted, in order and under one hold of the lock,
        before any of them runs, so the batch takes contiguous ids and a
        collision always fails the later config regardless of scheduling;
        results come back in submission order.
        """
        with self._lock:
            task_ids = [self.submit(cfg) for cfg in configs]
        with ThreadPoolExecutor(max_workers=max(1, worker_num)) as pool:
            return list(pool.map(self.execute, configs, task_ids))
