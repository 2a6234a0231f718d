"""Manifest-driven reproducible project execution.

"Containerization" here is a staged-directory sandbox: building an image
copies the project tree into an immutable staging area and fingerprints it;
running executes the entrypoint in a fresh copy with an allowlisted
environment, so the staged tree is never mutated and identical inputs yield
identical output digests.

Digest framing (kept stable so external tooling can recompute it):

    tree_frame(relpath, bytes) = relpath + "\n" + decimal(len(bytes)) + "\n"
                                 + bytes + "\n"
    data_frame(bytes)          = decimal(len(bytes)) + "\n" + bytes + "\n"
    image_digest  = sha256( tree_frame for every staged file, sorted by
                            relpath, followed by the canonical manifest )
    input_digest  = sha256( data_frame for declared_inputs, manifest order )
    output_digest = sha256( data_frame for declared_outputs, manifest order )

Input/output digests frame content only, so moving a payload between paths
does not change it: a run that copies its input to its output yields
output_digest == input_digest.

The manifest's ``volume`` path is honored without privileged mounts: the
entrypoint runs with the run copy as its working directory and receives the
real path in ``HPCFAIR_VOLUME`` (the host path standing in for the volume).
"""

from __future__ import annotations

import hashlib
import logging
import os
import secrets
import shutil
import signal
import subprocess
from dataclasses import asdict, dataclass
from pathlib import Path, PurePosixPath

from ._canonical import NAME, OBJECT, STR, Kind, append_records, check, \
    dumps_canonical, fields, loads_yaml
from .config import TaskConfig, as_list
from .errors import MalformedDocumentError, SandboxError, \
    UnknownBackendError

logger = logging.getLogger(__name__)

_BASELINE_ENV = ("PATH", "LC_ALL")
_CHUNK_BYTES = 1 << 20
_ENTRYPOINT_TIMEOUT_S = 60  # then the entrypoint's process group is killed


@dataclass(frozen=True)
class SandboxManifest:
    build_tag: str
    entrypoint: str
    env: dict[str, str]
    declared_inputs: tuple[str, ...]
    declared_outputs: tuple[str, ...]
    volume: str

    def canonical_bytes(self) -> bytes:
        return dumps_canonical({
            "build_tag": self.build_tag,
            "entrypoint": self.entrypoint,
            "env": {k: self.env[k] for k in sorted(self.env)},
            "inputs": list(self.declared_inputs),
            "outputs": list(self.declared_outputs),
            "volume": self.volume,
        })


@dataclass(frozen=True)
class ImageRecord:
    build_tag: str
    image_digest: str
    staged_root: Path
    manifest: SandboxManifest


@dataclass(frozen=True)
class RunRecord:
    run_id: str
    image_digest: str
    input_digest: str
    output_digest: str | None
    exit_status: int
    captured_log: str
    errors: tuple[str, ...] = ()
    device_requested: str = "cpu"

    def to_dict(self) -> dict:
        return {**asdict(self), "errors": list(self.errors)}


_COMMAND = Kind("a non-empty command string", "",
                lambda v: STR.test(v) and v.split() != [])
_ABSOLUTE = Kind("an absolute path", "",
                 lambda v: STR.test(v) and PurePosixPath(v).is_absolute())
_ENV = Kind("a mapping of strings to strings", "",
            lambda v: OBJECT.test(v) and all(map(STR.test, [*v, *v.values()])))


def _check_rel_path(raw: object, where: str) -> str:
    path = PurePosixPath(check(raw, NAME, f"manifest: a path in '{where}'",
                               MalformedDocumentError))
    if path.is_absolute():
        raise MalformedDocumentError(
            f"{where}: '{raw}' must be relative")
    if ".." in path.parts:
        raise MalformedDocumentError(
            f"{where}: '{raw}' escapes the sandbox via '..'")
    return str(path)


def parse_manifest(data: bytes | str) -> SandboxManifest:
    """Parse and validate a build file."""
    doc = loads_yaml(data, "manifest", MalformedDocumentError)
    build_tag, entrypoint, volume, env, inputs, outputs = fields(
        doc, "manifest", MalformedDocumentError,
        {"build_tag": NAME, "entrypoint": _COMMAND, "volume": _ABSOLUTE},
        {"env": (None, {}), "inputs": (None, None), "outputs": (None, None)})
    env = check({} if env is None else env, _ENV, "manifest: 'env'",
                MalformedDocumentError)
    return SandboxManifest(
        build_tag, entrypoint, dict(env),
        tuple(_check_rel_path(p, "inputs") for p in as_list(inputs)),
        tuple(_check_rel_path(p, "outputs") for p in as_list(outputs)),
        volume)


# ---------------------------------------------------------------------------
# digests


def _data_frame(h, path: Path) -> None:
    """Frame one file into h, reading it in chunks so that memory stays
    bounded for large files; the framed length is the size fstat reports,
    and exactly that many bytes are hashed."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size
        h.update(str(left).encode("ascii") + b"\n")
        while left:
            chunk = fh.read(min(left, _CHUNK_BYTES))
            if not chunk:
                raise SandboxError(f"{path} shrank while it was hashed")
            h.update(chunk)
            left -= len(chunk)
    h.update(b"\n")


def _hash_tree(root: Path):
    """sha-256 state over all files under root, sorted by relative path;
    each file is framed as its path, its length and its bytes."""
    h = hashlib.sha256()
    for relpath in sorted(_walk_files(root)):
        h.update(relpath.encode("utf-8") + b"\n")
        _data_frame(h, root / relpath)
    return h


def digest_tree(root: Path) -> str:
    """sha-256 over all files under root, framed, sorted by relative path."""
    return _hash_tree(root).hexdigest()


def digest_paths(root: Path, relpaths: tuple[str, ...]) -> str:
    """sha-256 over the given files' contents in the given (manifest) order."""
    h = hashlib.sha256()
    for relpath in relpaths:
        _data_frame(h, root / relpath)
    return h.hexdigest()


def _walk_files(root: Path) -> list[str]:
    return [(Path(dirpath) / name).relative_to(root).as_posix()
            for dirpath, _, names in os.walk(root) for name in names]


# ---------------------------------------------------------------------------
# build and run


def build_image(manifest: SandboxManifest, work_dir: str | Path,
                staging_root: str | Path) -> ImageRecord:
    """Stage an immutable copy of work_dir and fingerprint it."""
    work_dir = Path(work_dir)
    if not work_dir.is_dir():
        raise SandboxError(f"work_dir not found: {work_dir}")
    for relpath in manifest.declared_inputs:
        if not (work_dir / relpath).is_file():
            raise SandboxError(f"declared input missing: {relpath}")

    h = _hash_tree(work_dir)
    h.update(manifest.canonical_bytes())
    image_digest = h.hexdigest()

    staged = Path(staging_root) / image_digest
    if not staged.exists():
        tmp = staged.with_name(staged.name + ".tmp-" + secrets.token_hex(4))
        shutil.copytree(work_dir, tmp)
        tmp.replace(staged)
    logger.info("image %s staged as %s", manifest.build_tag,
                image_digest[:12])
    return ImageRecord(manifest.build_tag, image_digest, staged, manifest)


def run_container(image: ImageRecord, run_root: str | Path,
                  device: str = "cpu",
                  runs_log: Path | None = None) -> RunRecord:
    """Execute the image entrypoint in a private copy of the staged tree.

    Nonzero exit and missing declared outputs are recorded on the RunRecord,
    not raised; an entrypoint that cannot be started is a hard error.
    """
    manifest = image.manifest
    run_id = "run-" + secrets.token_hex(8)
    workspace = Path(run_root) / run_id
    argv = manifest.entrypoint.split()
    env = {key: os.environ[key] for key in _BASELINE_ENV
           if key in os.environ}
    env.update(manifest.env)
    env["HOME"] = str(workspace)
    env["HPCFAIR_VOLUME"] = str(workspace)
    env["HPCFAIR_VOLUME_NAME"] = manifest.volume
    if device == "gpu":
        logger.warning("executing on cpu (gpu unavailable in reference "
                       "runtime)")

    shutil.copytree(image.staged_root, workspace)
    try:
        input_digest = digest_paths(workspace, manifest.declared_inputs)
        try:
            proc = subprocess.Popen(argv, cwd=workspace, env=env, text=True,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE,
                                    start_new_session=True)
        except FileNotFoundError:
            raise SandboxError(f"entrypoint program not found: {argv[0]}")
        except OSError as exc:  # say, a file without execute permission
            raise SandboxError(f"entrypoint cannot be executed: {exc}")
        with proc:  # on leaving, closes the pipes and reaps the leader
            try:
                out, err = proc.communicate(timeout=_ENTRYPOINT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                # the unreaped leader keeps its pid, which names the group
                os.killpg(proc.pid, signal.SIGKILL)
                raise SandboxError(
                    f"entrypoint timed out: {manifest.entrypoint}") from None
    except BaseException:  # no runs.log record will name this workspace
        shutil.rmtree(workspace, ignore_errors=True)
        raise

    missing = [p for p in manifest.declared_outputs
               if not (workspace / p).is_file()]
    record = RunRecord(
        run_id=run_id,
        image_digest=image.image_digest,
        input_digest=input_digest,
        output_digest=None if missing else digest_paths(
            workspace, manifest.declared_outputs),
        exit_status=proc.returncode,
        captured_log=out + err,
        errors=tuple(f"missing-output: {p}" for p in missing),
        device_requested=device,
    )
    if runs_log is not None:
        runs_log.parent.mkdir(parents=True, exist_ok=True)
        append_records(runs_log, [record.to_dict()])
    return record


def run_container_task(cfg: TaskConfig,
                       store_root: Path | None = None
                       ) -> tuple[Path, RunRecord]:
    """Parse manifest, build, run, export: the `task: "container"` flow.

    Returns the written export path and the run record; stage failures raise
    with the stage name in the message.  ``cfg`` has passed
    ``validate_config``.
    """
    if cfg.general.backend != "mlcube":
        raise UnknownBackendError(
            f"container supports backend 'mlcube', got "
            f"{cfg.general.backend!r}")

    store = store_root if store_root is not None else cfg.resolve("store")

    build_file = cfg.resolve(cfg.task_args["build_file"])
    if not build_file.is_file():
        raise SandboxError(
            f"parse_manifest: build file not found: "
            f"{cfg.task_args['build_file']}")
    try:
        manifest = parse_manifest(build_file.read_bytes())
    except MalformedDocumentError as exc:
        raise SandboxError(f"parse_manifest: {exc}")

    for key, value in (("build_tag", manifest.build_tag),
                       ("volume", manifest.volume)):
        if cfg.task_args[key] != value:
            logger.warning("config %s %r differs from manifest %r; the "
                           "config value labels the run", key,
                           cfg.task_args[key], value)

    work_dir = cfg.resolve(cfg.task_args["work_dir"])
    if not work_dir.is_dir():
        raise SandboxError(
            f"build_image: work_dir not found: {cfg.task_args['work_dir']}")
    try:
        image = build_image(manifest, work_dir, store / "images")
    except SandboxError as exc:
        raise SandboxError(f"build_image: {exc}")

    record = run_container(image, store / "runs",
                           device=cfg.device.device,
                           runs_log=store / "runs.log")
    workspace = store / "runs" / record.run_id
    try:
        if record.exit_status != 0:
            raise SandboxError(
                f"run_container: entrypoint exited with status "
                f"{record.exit_status}: {record.captured_log.strip()}")
        if record.errors:
            raise SandboxError(
                f"run_container: {'; '.join(record.errors)}")

        if not manifest.declared_outputs:
            raise SandboxError(
                "run_container: manifest declares no outputs to export")
        export = cfg.resolve(cfg.export_files[0])
        export.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(workspace / manifest.declared_outputs[0], export)
    finally:
        # runs.log holds the record; the working copy is not kept
        shutil.rmtree(workspace, ignore_errors=True)
    logger.info("container output exported: %s", export)
    return export, record
