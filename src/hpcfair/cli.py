"""Command-line interface.

Each subcommand wraps one registry verb or endpoint.  Commands run against
a local store (``--store`` / HPCFAIR_STORE) or a remote server (``--addr`` /
HPCFAIR_ADDR); ``--format json`` prints the ApiResponse body verbatim for
scripting.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from ._canonical import dumps_canonical, loads_canonical
from .client import ModelAPI, TaskFailed, request
from .errors import HpcfairError, InvalidArtifactError
from .registry import ArtifactDraft, ArtifactRecord, Registry, SearchQuery, \
    content_digest
from .server import HpcfairServer, ok_body

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpcfair",
        description="FAIR artifact registry and task runner")
    parser.add_argument("--store", default=os.environ.get("HPCFAIR_STORE"),
                        help="local store directory (env HPCFAIR_STORE)")
    parser.add_argument("--addr", default=os.environ.get("HPCFAIR_ADDR"),
                        help="remote server address (env HPCFAIR_ADDR)")
    parser.add_argument("--token", default=os.environ.get("HPCFAIR_TOKEN"),
                        help="bearer token (env HPCFAIR_TOKEN)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("push", help="register an artifact")
    p.add_argument("--meta", required=True,
                   help="metadata JSON file (title, artifact_type, ...)")
    p.add_argument("--content", required=True, help="artifact content file")

    p = sub.add_parser("pull", help="fetch artifact content by pid")
    p.add_argument("pid")
    p.add_argument("--out", required=True, help="output file")

    p = sub.add_parser("search", help="find artifacts by metadata")
    p.add_argument("--tags", default="", help="comma-separated tag list")
    p.add_argument("--type", dest="artifact_type", default=None)
    p.add_argument("--backend", default=None)
    p.add_argument("--title", default=None, help="title substring")

    p = sub.add_parser("run", help="run a task config")
    p.add_argument("--config", required=True, help="config file path")

    p = sub.add_parser("token", help="credential administration")
    token_sub = p.add_subparsers(dest="token_command", required=True)
    t = token_sub.add_parser("issue", help="mint a credential (local admin)")
    t.add_argument("--role", required=True, choices=("reader", "publisher"))
    t.add_argument("--account", required=True)
    t.add_argument("--ttl", required=True, type=int, help="lifetime seconds")

    p = sub.add_parser("serve", help="start the HTTP server")
    p.add_argument("--listen", default="127.0.0.1:8080", help="host:port")

    return parser


def _print_body(args, body: dict) -> None:
    if args.format == "json":
        sys.stdout.write(dumps_canonical(body).decode("utf-8"))


def _print_records(args, records: list[ArtifactRecord],
                   with_tags: bool) -> None:
    _print_body(args, ok_body({"records": [r.to_dict() for r in records]}))
    if args.format == "text":
        for record in records:
            tags = f" tags={','.join(record.tags)}" if with_tags else ""
            print(f"{record.pid}  {record.title} "
                  f"({record.artifact_type}/{record.backend_tag}){tags}")


def _registry(parser: argparse.ArgumentParser, args) -> Registry:
    if not args.store:
        parser.error("this command needs --store (or HPCFAIR_STORE)")
    return Registry(args.store)


def cmd_push(parser, args) -> int:
    meta = loads_canonical(Path(args.meta).read_bytes(), "metadata file",
                           InvalidArtifactError)
    content = Path(args.content).read_bytes()
    if args.addr:
        payload = json.dumps(meta).encode("utf-8") + b"\n" + content
        data = request(args.addr, "POST", "/v1/artifacts", token=args.token,
                       data=payload)
        records = [ArtifactRecord.from_dict(r) for r in data["records"]]
    else:
        records = _registry(parser, args).register_artifact(
            content, ArtifactDraft.from_dict(meta), args.token)
    _print_records(args, records, with_tags=False)
    return 0


def cmd_pull(parser, args) -> int:
    if args.addr:
        blob = request(args.addr, "GET", f"/v1/artifacts/{args.pid}/content",
                       token=args.token)
    else:
        blob = _registry(parser, args).fetch_content(args.pid, args.token)
    Path(args.out).write_bytes(blob)
    _print_body(args, ok_body({"pid": args.pid, "out": args.out,
                               "digest": content_digest(blob)}))
    if args.format == "text":
        print(f"{args.out}  ({len(blob)} bytes)")
    return 0


def cmd_search(parser, args) -> int:
    tags = tuple(t.strip() for t in args.tags.split(",") if t.strip())
    if not (tags or args.artifact_type or args.backend or args.title):
        parser.error("search needs at least one of "
                     "--tags/--type/--backend/--title")
    if args.addr:
        params = {"tags": ",".join(tags), "type": args.artifact_type or "",
                  "backend": args.backend or "", "title": args.title or ""}
        data = request(args.addr, "GET", "/v1/search", params=params)
        records = [ArtifactRecord.from_dict(r) for r in data["records"]]
    else:
        records = _registry(parser, args).search(SearchQuery(
            tags=tags, artifact_type=args.artifact_type,
            backend_tag=args.backend, title_substring=args.title))
    _print_records(args, records, with_tags=True)
    return 0


def cmd_run(parser, args) -> int:
    store = Registry(args.store) if args.store and not args.addr else None
    api = ModelAPI(address=args.addr, token=args.token, store=store)
    try:
        result = api._submit(api._load(args.config, expect=None))
    except TaskFailed as exc:
        _print_body(args, ok_body(exc.result.to_dict()))
        raise
    _print_body(args, ok_body(result.to_dict()))
    if args.format == "text":
        for output in result.outputs:
            print(output)
    return 0


def cmd_token(parser, args) -> int:
    cred = _registry(parser, args).issue_token(args.account, args.role,
                                               args.ttl)
    _print_body(args, ok_body({
        "token": cred.token, "account": cred.account, "role": cred.role,
        "expires_at": cred.expires_at.isoformat()}))
    if args.format == "text":
        print(cred.token)
    return 0


def cmd_serve(parser, args) -> int:
    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--listen must be host:port, got {args.listen!r}")
    server = HpcfairServer(_registry(parser, args), host, int(port))
    print(f"serving on {server.address}", file=sys.stderr)
    server.serve_forever()
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("HPCFAIR_LOG", "WARNING").upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "push": cmd_push,
        "pull": cmd_pull,
        "search": cmd_search,
        "run": cmd_run,
        "token": cmd_token,
        "serve": cmd_serve,
    }
    try:
        return handlers[args.command](parser, args)
    except HpcfairError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file_not_found: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
