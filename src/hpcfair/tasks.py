"""Task dispatch: route validated configs to their executors.

The dispatcher owns a monotone task counter and the export-path claim table.
Claims are taken under one lock in submission order and released when a task
finishes, so of two concurrently submitted tasks writing the same file the
later one fails with a collision error, deterministically, and re-running a
config after completion is always allowed.  Component failures never escape:
they are captured into the TaskResult.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

from .config import TaskConfig, serialize_config, validate_config
from .converters import run_conversion_task
from .errors import CollisionError, HpcfairError
from .runtime import run_inference_task
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
        return {
            "task_id": self.task_id,
            "status": self.status,
            "outputs": list(self.outputs),
            "log": list(self.log),
            "error": self.error,
        }


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class Dispatcher:
    """Routes configs to task executors; safe for concurrent callers."""

    def __init__(self, store: Any = None, store_root: Path | None = None):
        self.store = store
        if store_root is None and store is not None:
            store_root = Path(store.root)
        self.store_root = store_root
        # reentrant: submit_many takes ids and claims under one hold
        self._lock = threading.RLock()
        self._counter = 0
        self._active_paths: set[str] = set()

    def next_task_id(self, cfg: TaskConfig) -> str:
        digest = hashlib.sha256(serialize_config(cfg)).hexdigest()[:8]
        with self._lock:
            self._counter += 1
            return f"task-{self._counter:06d}-{digest}"

    # -- claims ------------------------------------------------------------

    def _export_paths(self, cfg: TaskConfig) -> list[str]:
        return [str(cfg.resolve(p)) for p in cfg.export_files]

    def _claim(self, paths: Sequence[str]) -> None:
        with self._lock:
            clash = sorted(set(paths) & self._active_paths)
            if clash:
                raise CollisionError(
                    f"export path already claimed by a running task: "
                    f"{clash[0]}")
            self._active_paths.update(paths)

    def _release(self, paths: Sequence[str]) -> None:
        with self._lock:
            self._active_paths.difference_update(paths)

    # -- execution ---------------------------------------------------------

    def dispatch(self, cfg: TaskConfig) -> TaskResult:
        """Validate, claim export paths, run, and report synchronously."""
        return self.execute(cfg, self.next_task_id(cfg))

    def execute(self, cfg: TaskConfig, task_id: str, *,
                preclaimed: bool = False) -> TaskResult:
        log = [f"{_now()} task {task_id} accepted"]

        report = validate_config(cfg)
        if not report.ok:
            return TaskResult(
                task_id, "failed", log=tuple(log),
                error={"code": "invalid_config",
                       "message": "; ".join(report.violations)})

        paths = self._export_paths(cfg)
        if not preclaimed:
            try:
                self._claim(paths)
            except CollisionError as exc:
                return TaskResult(
                    task_id, "failed", log=tuple(log),
                    error={"code": exc.code, "message": exc.message})
        try:
            return self._route(cfg, task_id, log)
        finally:
            if not preclaimed:
                self._release(paths)

    def _route(self, cfg: TaskConfig, task_id: str,
               log: list[str]) -> TaskResult:
        task = cfg.general.task
        log.append(f"{_now()} routing task '{task}'")
        try:
            if task == "conversion":
                written = run_conversion_task(cfg)
                outputs = tuple(str(p) for p in written)
            elif task == "inference":
                out = run_inference_task(cfg, store=self.store)
                outputs = (str(out),)
            else:
                export, record = run_container_task(
                    cfg, store_root=self.store_root)
                log.append(
                    f"{_now()} run {record.run_id}: image "
                    f"{record.image_digest[:12]} exit {record.exit_status} "
                    f"input {record.input_digest[:12]} output "
                    f"{(record.output_digest or 'none')[:12]}")
                outputs = (str(export),)
        except HpcfairError as exc:
            log.append(f"{_now()} failed: {exc.message}")
            logger.info("task %s failed: %s", task_id, exc.message)
            return TaskResult(task_id, "failed", log=tuple(log),
                              error=exc.to_dict())
        except Exception as exc:  # never let component bugs escape
            log.append(f"{_now()} failed: {exc}")
            logger.exception("task %s crashed", task_id)
            return TaskResult(task_id, "failed", log=tuple(log),
                              error={"code": "internal_error",
                                     "message": str(exc)})
        log.append(f"{_now()} succeeded")
        return TaskResult(task_id, "succeeded", outputs=outputs,
                          log=tuple(log))

    def submit_many(self, configs: Sequence[TaskConfig],
                    worker_num: int = 1) -> list[TaskResult]:
        """Run a batch with at most worker_num concurrent tasks.

        Export paths are claimed serially in submission order before any
        task starts, so collisions always fail the later config regardless
        of scheduling; results come back in submission order.
        """
        plans: list[tuple[TaskConfig, str, list[str] | None]] = []
        with self._lock:
            for cfg in configs:
                task_id = self.next_task_id(cfg)
                paths: list[str] | None = self._export_paths(cfg)
                try:
                    self._claim(paths)
                except CollisionError:
                    paths = None
                plans.append((cfg, task_id, paths))

        def work(plan: tuple[TaskConfig, str, list[str] | None]
                 ) -> TaskResult:
            cfg, task_id, paths = plan
            if paths is None:
                return TaskResult(
                    task_id, "failed",
                    log=(f"{_now()} task {task_id} accepted",),
                    error={"code": "export_collision",
                           "message": "export path already claimed by a "
                                      "concurrently submitted task"})
            try:
                return self.execute(cfg, task_id, preclaimed=True)
            finally:
                self._release(paths)

        if worker_num <= 1:
            return [work(plan) for plan in plans]
        with ThreadPoolExecutor(max_workers=worker_num) as pool:
            return list(pool.map(work, plans))
