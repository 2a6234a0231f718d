"""Output checks that do not trust the package.

Expected values come from the naive evaluators and digests of
``tests/oracle.py`` and from what the benchmark itself generated and
registered; nothing here is a recording of an earlier run.  Each check
raises ``CheckFailed`` with the reason.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

import oracle  # noqa: E402

REL_TOL = 1e-6
ROW_SUM_TOL = 1e-6


class CheckFailed(Exception):
    """An operation returned a result that disagrees with the oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- collaboration output ----------------------------------------------------


def expected_probs(encoder: dict, decoder: dict, x: list) -> list[float]:
    """The decoder's softmax row for input ``x``, from the checkpoints."""
    hidden = oracle.eval_sequential_doc(encoder, [x])
    return oracle.eval_layerdag_doc(decoder, {"z": hidden})["probs"][0]


def check_probs(out_bytes: bytes, want: list[float]) -> None:
    """A collaboration output file holds one [1, n] softmax row equal to
    ``want`` at 1e-6 relative tolerance, summing to 1."""
    doc = json.loads(out_bytes)
    expect(isinstance(doc, list) and len(doc) == 1,
           "output must hold exactly one tensor")
    (entry,) = doc
    expect(entry.get("name", "").endswith("probs"),
           f"unexpected output tensor {entry.get('name')!r}")
    expect(entry.get("shape") == [1, len(want)],
           f"output shape {entry.get('shape')} != {[1, len(want)]}")
    got = entry["data"]
    expect(oracle.all_close(got, want, rel=REL_TOL),
           f"output differs from the oracle by "
           f"{oracle.max_rel_err(got, want):.3g} relative")
    expect(abs(sum(got) - 1.0) <= ROW_SUM_TOL,
           f"softmax row sums to {sum(got)!r}")


def check_converted(graphs: list[bytes], encoder: dict, decoder: dict,
                    x: list) -> None:
    """Converted encoder and decoder graphs compute what their checkpoints
    compute, each evaluated by the oracle's own graph interpreter."""
    expect(len(graphs) == 2, f"conversion wrote {len(graphs)} graphs")
    enc_doc, dec_doc = (json.loads(g) for g in graphs)
    hidden = oracle.eval_sequential_doc(encoder, [x])
    (enc_out,) = oracle.eval_graph_doc(
        enc_doc, {enc_doc["inputs"][0]["name"]: x}).values()
    expect(oracle.all_close(enc_out[1], hidden[0], rel=REL_TOL),
           "converted encoder differs from its checkpoint")
    want = oracle.eval_layerdag_doc(decoder, {"z": hidden})["probs"][0]
    (dec_out,) = oracle.eval_graph_doc(
        dec_doc, {"z": oracle.flatten(hidden)}).values()
    expect(oracle.all_close(dec_out[1], want, rel=REL_TOL),
           "converted decoder differs from its checkpoint")


# -- registry and service ----------------------------------------------------


def brute_force_search(records: list[dict], tags: tuple[str, ...]) -> list:
    """Records carrying every tag, newest first, then by pid."""
    want = set(tags)
    hits = sorted((r for r in records if want <= set(r["tags"])),
                  key=lambda r: r["pid"])
    return sorted(hits, key=lambda r: r["created_at"], reverse=True)


def check_search(got: list[dict], records: list[dict],
                 tags: tuple[str, ...]) -> None:
    want = brute_force_search(records, tags)
    expect(len(got) == len(want),
           f"search {tags} returned {len(got)} records, scan finds "
           f"{len(want)}")
    expect(got == want, f"search {tags} differs from the scan")


def check_pulled(blob: bytes, pid: str, pushed_sha256: str) -> None:
    """Pulled bytes hash to what was pushed, and the pid derives from it."""
    digest = oracle.sha256_hex(blob)
    expect(digest == pushed_sha256, f"pulled {pid} does not hash to the "
                                    f"pushed content")
    expect(pid == "hpcf-" + digest[:20], f"pid {pid} is not derived from "
                                         f"the content hash")


def check_pushed(records: list[dict], content: bytes, draft: dict) -> None:
    """One record for a dataset; a model adds a converted interchange
    companion with a converted-from edge to the primary."""
    digest = hashlib.sha256(content).hexdigest()
    model = draft["artifact_type"] == "model"
    expect(len(records) == (2 if model else 1),
           f"push returned {len(records)} records")
    primary = records[0]
    expect(primary["pid"] == oracle.pid_of(content),
           "primary pid is not derived from the pushed content")
    expect(primary["content_hash"] == digest
           and primary["size_bytes"] == len(content),
           "primary record does not describe the pushed content")
    expect(primary["title"] == draft["title"]
           and primary["tags"] == draft["tags"],
           "primary record does not carry the pushed metadata")
    if model:
        companion = records[1]
        expect(companion["backend_tag"] == "onnx",
               "companion is not an interchange artifact")
        expect(companion["provenance"] == [
            {"parent_pid": primary["pid"], "operation": "converted-from"}],
            "companion lacks its converted-from edge")
        expect(companion["pid"] == "hpcf-" + companion["content_hash"][:20],
               "companion pid is not derived from its content hash")


# -- sandbox -----------------------------------------------------------------


def manifest_bytes(manifest: dict) -> bytes:
    """Canonical manifest bytes as the sandbox docstring frames them."""
    return oracle.canonical_json({k: manifest[k] for k in sorted(manifest)})


@dataclass(frozen=True)
class Project:
    """What a container run of a project must report."""

    input_sha256: str  # of data.bin, which the entrypoint copies
    io_digest: str  # framed digest of data.bin alone
    image_digest: str  # framed digest of the tree and the manifest


def expect_project(project: Path, manifest: dict) -> Project:
    """The expected digests of a project on disk."""
    files = [(path.relative_to(project).as_posix(), path.read_bytes())
             for path in project.rglob("*") if path.is_file()]
    data = dict(files)["data.bin"]
    return Project(hashlib.sha256(data).hexdigest(),
                   oracle.content_digest([data]),
                   oracle.tree_digest(files, manifest_bytes(manifest)))


def check_container(exported: bytes, run: dict, want: Project) -> None:
    """The copy entrypoint exports its input unchanged, so the output
    digest equals the input digest, and the image digest matches."""
    expect(hashlib.sha256(exported).hexdigest() == want.input_sha256,
           "exported file differs from the input")
    expect(run["exit_status"] == 0, f"entrypoint exited "
                                    f"{run['exit_status']}")
    expect(run["input_digest"] == want.io_digest, "input digest is wrong")
    expect(run["output_digest"] == run["input_digest"],
           "output digest differs from the input digest")
    expect(run["image_digest"] == want.image_digest, "image digest is wrong")
