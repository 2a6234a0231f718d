"""Run ``hpcfair serve`` with span tracing, for the traced service run.

    python3 bench/serve.py SPANS_FILE -- --store DIR serve --listen HOST:PORT

Installs the wrappers of ``spans.py`` in this process, carries the
operation id each request sends in ``X-Bench-Op`` into the handler thread
and on into the task pool, then hands the remaining arguments to the
``hpcfair`` command line.  On SIGTERM it writes the spans to SPANS_FILE and
exits.  The untraced run starts ``python3 -m hpcfair.cli`` with the same
arguments, so both runs have the same process layout.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from hpcfair import cli, server  # noqa: E402

import spans  # noqa: E402


def install_server_context(tracer: spans.Tracer) -> None:
    handler = server._Handler
    for verb in ("do_GET", "do_POST"):
        method = getattr(handler, verb)

        def with_op(self, _method=method):
            header = self.headers.get(spans.OP_HEADER)
            op = int(header) if header else None
            with tracer.span("server.request", op=op):
                return _method(self)
        setattr(handler, verb, with_op)

    # submit_task runs in the handler thread, _run_task in the pool
    pending = {}
    app = server.HpcfairServer
    submit, run = app.submit_task, app._run_task

    def submit_task(self, cfg):
        pending[id(cfg)] = tracer.current()
        return submit(self, cfg)

    def run_task(self, cfg, task_id):
        op, parent = pending.pop(id(cfg), (None, None))
        with tracer.span("server.run_task", op=op, parent=parent):
            return run(self, cfg, task_id)

    app.submit_task, app._run_task = submit_task, run_task


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: serve.py SPANS_FILE -- HPCFAIR_ARGS...")
    tracer = spans.Tracer(first_id=1_000_000_000)
    spans.install(tracer)
    install_server_context(tracer)

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(Path(spans_file))


if __name__ == "__main__":
    sys.exit(main())
