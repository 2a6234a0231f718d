"""Span tracing installed from outside the package.

``install`` replaces the public functions and methods listed in ``TRACED``
with wrappers that record one span per call: its name, start, end, parent
span and the id of the benchmark operation it belongs to.  Every module
that imported a traced function by name gets the wrapper too, so calls
between modules are seen.  Nothing under ``src/`` changes; an untraced run
never calls ``install`` and runs the package as it is.

Spans stay in memory (``Tracer.spans``) and are written out by ``dump``
when the run ends.  ``layer_metrics`` turns them into the per-layer
metrics: median milliseconds per call, self time (the span minus the part
its children cover) and calls per operation.
"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

# (module, attribute) pairs; "Class.method" patches the class.
TRACED = (
    ("config", "parse_config"),
    ("config", "validate_config"),
    ("converters", "convert_checkpoint_bytes"),
    ("converters", "run_conversion_task"),
    ("interchange", "parse_graph"),
    ("interchange", "serialize_graph"),
    ("interchange", "validate_graph"),
    ("interchange", "compose_graphs"),
    ("interchange", "infer_shapes"),
    ("interchange", "topo_sort"),
    ("runtime", "execute"),
    ("runtime", "apply_node"),
    ("runtime", "to_array"),
    ("runtime", "parse_tensor_set"),
    ("runtime", "serialize_tensor_set"),
    ("runtime", "run_inference_task"),
    ("tasks", "Dispatcher.execute"),
    ("sandbox", "parse_manifest"),
    ("sandbox", "build_image"),
    ("sandbox", "run_container"),
    ("sandbox", "run_container_task"),
    ("registry", "Registry._load"),
    ("registry", "Registry.authenticate"),
    ("registry", "Registry.search"),
    ("registry", "Registry.register_artifact"),
    ("registry", "Registry.fetch_metadata"),
    ("registry", "Registry.fetch_content"),
    ("registry", "Registry.read_blob_by_pid"),
    ("server", "HpcfairServer.submit_task"),
    ("client", "ModelAPI._submit_http"),
)

# Spans are named "<module>.<function or method>", except these.
SPAN_NAMES = {
    "registry._load": "registry.load",
    "registry.read_blob_by_pid": "registry.read_blob",
    "client._submit_http": "client.remote_task",
}

OP_HEADER = "X-Bench-Op"


class Tracer:
    """Collects spans as (id, parent, op, name, start_ns, end_ns) tuples."""

    def __init__(self, first_id: int = 1):
        self.spans: list[tuple] = []
        self.counts: list[tuple[Any, str, int]] = []  # (op, name, amount)
        self._ids = itertools.count(first_id)
        self._local = threading.local()

    # -- context -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [(None, None)]  # (op, span id)
        return stack

    def current(self) -> tuple:
        """(op id, span id) of the innermost open span in this thread."""
        return self._stack()[-1]

    def span(self, name: str, op: Any = None, parent: int | None = None):
        """Context manager for one span; ``op`` overrides the inherited
        operation id and ``parent`` the inherited parent span."""
        return _Span(self, name, op, parent)

    def count(self, name: str, amount: int) -> None:
        self.counts.append((self.current()[0], name, amount))

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with _Span(self, name, None, None):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class _Span:
    __slots__ = ("tracer", "name", "op", "parent", "id", "start")

    def __init__(self, tracer: Tracer, name: str, op: Any,
                 parent: int | None):
        self.tracer = tracer
        self.name = name
        self.op = op
        self.parent = parent

    def __enter__(self):
        stack = self.tracer._stack()
        op, parent = stack[-1]
        if self.op is None:
            self.op = op
        if self.parent is None:
            self.parent = parent
        self.id = next(self.tracer._ids)
        stack.append((self.op, self.id))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.id, self.parent, self.op, self.name,
                                  self.start, end))
        return False


# ---------------------------------------------------------------------------
# installation


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "hpcfair" or name.startswith("hpcfair.")]


def install(tracer: Tracer) -> None:
    """Wrap every ``TRACED`` callable in this process, plus the sandbox's
    copies and entrypoint and the module-level ``requests`` calls that the
    client's remote task path makes."""
    importlib.import_module("hpcfair.cli")
    importlib.import_module("hpcfair.client")
    modules = _package_modules()
    for module_name, attr in TRACED:
        module = importlib.import_module(f"hpcfair.{module_name}")
        name = f"{module_name}.{attr.split('.')[-1]}"
        name = SPAN_NAMES.get(name, name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    sandbox = importlib.import_module("hpcfair.sandbox")
    sandbox.shutil = _CountingShutil(tracer)
    sandbox.subprocess = _TimedSubprocess(tracer)
    requests = importlib.import_module("requests")
    requests.post = _http_call(tracer, "client.submit", requests.post)
    requests.get = _http_call(tracer, "client.poll", requests.get)


def _http_call(tracer: Tracer, name: str, call: Callable) -> Callable:
    """``requests.get``/``post`` as the client's remote task path uses
    them: one span per call, and the operation id sent along to the
    server in ``OP_HEADER``."""
    def traced(url, *args, headers=None, **kwargs):
        with tracer.span(name) as span:
            headers = dict(headers or {})
            if span.op is not None:
                headers[OP_HEADER] = str(span.op)
            return call(url, *args, headers=headers, **kwargs)
    return traced


class _CountingShutil:
    """Stands in for ``shutil`` inside the sandbox module and counts the
    bytes it copies as ``sandbox.bytes_copied``."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(shutil, name)

    def _copy2(self, src, dst, *, follow_symlinks=True):
        self._tracer.count("sandbox.bytes_copied", Path(src).stat().st_size)
        return shutil.copy2(src, dst, follow_symlinks=follow_symlinks)

    def copytree(self, src, dst, **kwargs):
        return shutil.copytree(src, dst, copy_function=self._copy2, **kwargs)

    def copyfile(self, src, dst, **kwargs):
        self._tracer.count("sandbox.bytes_copied", Path(src).stat().st_size)
        return shutil.copyfile(src, dst, **kwargs)


class _TimedSubprocess:
    """Stands in for ``subprocess`` inside the sandbox module; the
    entrypoint process gets its own span, ``sandbox.entrypoint``."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(subprocess, name)

    def run(self, *args, **kwargs):
        with self._tracer.span("sandbox.entrypoint"):
            return subprocess.run(*args, **kwargs)


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_ns(span: tuple, children: list[tuple]) -> int:
    """Duration minus the union of child intervals clipped to the span."""
    start, end = span[4], span[5]
    covered = 0
    cursor = start
    for c_start, c_end in sorted((max(c[4], start), min(c[5], end))
                                 for c in children):
        if c_end <= cursor:
            continue
        covered += c_end - max(c_start, cursor)
        cursor = c_end
    return end - start - covered


def _median_ms(values: list) -> float:
    return statistics.median(values) / 1e6 if values else 0.0


# Per-layer metric name -> (kind, span or count name).  "ms" is the median
# duration per call inside timed operations, "setup_ms" the same over all
# calls, "self_ms" the median self time, "calls" the number of calls per
# operation, "count" a summed count per operation, "per_task" calls per
# remote task and "wait_ms" the route time minus the registry time in it.
LAYER_METRICS = {
    "config.parse_config_ms": ("ms", "config.parse_config"),
    "converters.convert_ms": ("ms", "converters.convert_checkpoint_bytes"),
    "converters.run_conversion_task_ms":
        ("ms", "converters.run_conversion_task"),
    "interchange.parse_graph_ms": ("ms", "interchange.parse_graph"),
    "interchange.serialize_graph_ms": ("ms", "interchange.serialize_graph"),
    "interchange.validate_graph_ms": ("ms", "interchange.validate_graph"),
    "interchange.validate_graph_calls_per_op":
        ("calls", "interchange.validate_graph"),
    "interchange.compose_graphs_ms": ("ms", "interchange.compose_graphs"),
    "interchange.infer_shapes_ms": ("ms", "interchange.infer_shapes"),
    "interchange.topo_sort_ms": ("ms", "interchange.topo_sort"),
    "runtime.execute_ms": ("ms", "runtime.execute"),
    "runtime.apply_node_calls_per_op": ("calls", "runtime.apply_node"),
    "runtime.to_array_ms": ("ms", "runtime.to_array"),
    "runtime.to_array_calls_per_op": ("calls", "runtime.to_array"),
    "runtime.parse_tensor_set_ms": ("ms", "runtime.parse_tensor_set"),
    "runtime.serialize_tensor_set_ms": ("ms", "runtime.serialize_tensor_set"),
    "tasks.execute_self_ms": ("self_ms", "tasks.execute"),
    "sandbox.build_image_ms": ("ms", "sandbox.build_image"),
    "sandbox.run_container_self_ms": ("self_ms", "sandbox.run_container"),
    "sandbox.bytes_copied_per_op": ("count", "sandbox.bytes_copied"),
    "sandbox.entrypoint_ms": ("ms", "sandbox.entrypoint"),
    "registry.authenticate_ms": ("ms", "registry.authenticate"),
    "registry.authenticate_calls_per_op":
        ("calls", "registry.authenticate"),
    "registry.search_ms": ("ms", "registry.search"),
    "registry.register_artifact_self_ms":
        ("self_ms", "registry.register_artifact"),
    "registry.read_blob_ms": ("ms", "registry.read_blob"),
    "registry.load_ms": ("setup_ms", "registry.load"),
    "server.search_ms": ("ms", "op.search"),
    "server.metadata_ms": ("ms", "op.metadata"),
    "server.pull_ms": ("ms", "op.pull"),
    "server.push_ms": ("ms", "op.push"),
    "server.task_submit_ms": ("ms", "client.submit"),
    "server.wait_ms": ("wait_ms", ("op.search", "op.metadata", "op.pull",
                                   "op.push")),
    "client.remote_task_ms": ("ms", "client.remote_task"),
    "client.polls_per_task": ("per_task", "client.poll"),
}

# units and directions for BENCHMARK.json
LAYER_UNITS = {"ms": "ms", "setup_ms": "ms", "self_ms": "ms", "wait_ms": "ms",
               "calls": "count", "count": "bytes", "per_task": "count"}


def layer_metrics(spans: list, counts: list, n_ops: int) -> dict:
    """Per-layer metrics from the spans of both processes.

    ``n_ops`` is the number of timed operations; spans outside them (the
    warm-up round, the store replay at start-up) count only for
    "setup_ms".
    """
    every: dict[str, list] = {}
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        every.setdefault(s[3], []).append(s)
        if s[2] is not None:
            by_name.setdefault(s[3], []).append(s)
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)

    # registry time inside each server route, keyed by operation id; a
    # registry span called from another registry span is already counted
    by_id = {s[0]: s for s in spans}
    registry_ns: dict[Any, int] = {}
    for s in spans:
        parent = by_id.get(s[1])
        if s[3].startswith("registry.") and s[2] is not None and not (
                parent is not None and parent[3].startswith("registry.")):
            registry_ns[s[2]] = registry_ns.get(s[2], 0) + s[5] - s[4]

    tasks = len(by_name.get("client.remote_task", ()))
    out = {}
    for metric, (kind, name) in LAYER_METRICS.items():
        if kind in ("ms", "setup_ms"):
            group = (by_name if kind == "ms" else every).get(name, ())
            value = _median_ms([s[5] - s[4] for s in group])
        elif kind == "self_ms":
            value = _median_ms([_self_ns(s, children.get(s[0], []))
                                for s in by_name.get(name, ())])
        elif kind == "calls":
            value = len(by_name.get(name, ())) / n_ops
        elif kind == "count":
            value = sum(c[2] for c in counts
                        if c[1] == name and c[0] is not None) / n_ops
        elif kind == "per_task":
            value = len(by_name.get(name, ())) / tasks if tasks else 0.0
        else:  # wait_ms: route time minus registry time in that route
            value = _median_ms([
                (s[5] - s[4]) - registry_ns.get(s[2], 0)
                for route in name for s in by_name.get(route, ())])
        out[metric] = value
    return out
