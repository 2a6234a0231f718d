"""Staged-tree sandbox: manifests, image digests, isolated runs."""

import dataclasses
import json
import os
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracle
from hpcfair import sandbox
from hpcfair._canonical import dumps_canonical
from hpcfair.config import load_config
from hpcfair.errors import (
    MalformedDocumentError,
    SandboxError,
    UnknownBackendError,
)
from hpcfair.sandbox import (
    build_image,
    digest_paths,
    digest_tree,
    parse_manifest,
    run_container,
    run_container_task,
)
from hpcfair.tasks import Dispatcher

from conftest import write_container_project

MANIFEST = textwrap.dedent("""\
    build_tag: demo
    entrypoint: run_model --seed 1
    env:
      MODE: fast
    inputs: [data/in.txt]
    outputs: [out/result.txt]
    volume: /app
""")


# ---------------------------------------------------------------------------
# manifests


class TestParseManifest:
    def test_well_formed(self):
        m = parse_manifest(MANIFEST)
        assert m.build_tag == "demo"
        assert m.entrypoint == "run_model --seed 1"
        assert m.env == {"MODE": "fast"}
        assert m.declared_inputs == ("data/in.txt",)
        assert m.declared_outputs == ("out/result.txt",)
        assert m.volume == "/app"

    def test_path_escape_rejected(self):
        bad = MANIFEST.replace("data/in.txt", "../../etc/passwd")
        with pytest.raises(MalformedDocumentError, match="\\.\\."):
            parse_manifest(bad)

    def test_absolute_input_path_rejected(self):
        bad = MANIFEST.replace("data/in.txt", "/etc/passwd")
        with pytest.raises(MalformedDocumentError):
            parse_manifest(bad)

    def test_empty_entrypoint_rejected(self):
        bad = MANIFEST.replace("entrypoint: run_model --seed 1",
                               "entrypoint: ''")
        with pytest.raises(MalformedDocumentError, match="entrypoint"):
            parse_manifest(bad)

    def test_relative_volume_rejected(self):
        bad = MANIFEST.replace("volume: /app", "volume: app")
        with pytest.raises(MalformedDocumentError, match="volume"):
            parse_manifest(bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(MalformedDocumentError, match="gpu_count"):
            parse_manifest(MANIFEST + "gpu_count: 2\n")

    def test_keys_of_mixed_types_are_named(self):
        with pytest.raises(MalformedDocumentError,
                           match=r"unknown keys \['1', 'x'\]") as err:
            parse_manifest("1: a\nx: b\n")
        assert err.value.code == "malformed_document"

    def test_bytes_that_are_not_utf8_are_malformed(self):
        with pytest.raises(MalformedDocumentError):
            parse_manifest(b"build_tag: \xff\n")

    @pytest.mark.parametrize("env", ["0", "false", "''", "[]"])
    def test_env_that_is_not_a_mapping_is_malformed(self, env):
        bad = MANIFEST.replace("env:\n  MODE: fast\n", f"env: {env}\n")
        with pytest.raises(MalformedDocumentError, match="'env'"):
            parse_manifest(bad)

    @pytest.mark.parametrize("env", ["", "env: null\n"])
    def test_absent_or_null_env_is_empty(self, env):
        text = MANIFEST.replace("env:\n  MODE: fast\n", env)
        assert parse_manifest(text).env == {}


# ---------------------------------------------------------------------------
# images


class TestBuildImage:
    def test_build_is_deterministic(self, tmp_path):
        project = write_container_project(tmp_path)
        manifest = parse_manifest((project / "build.yaml").read_bytes())
        a = build_image(manifest, project, tmp_path / "im1")
        b = build_image(manifest, project, tmp_path / "im2")
        assert a.image_digest == b.image_digest

    def test_digest_matches_independent_oracle(self, tmp_path):
        project = write_container_project(tmp_path)
        manifest = parse_manifest((project / "build.yaml").read_bytes())
        image = build_image(manifest, project, tmp_path / "im")
        files = [(p.name, p.read_bytes()) for p in project.iterdir()]
        assert image.image_digest == oracle.tree_digest(
            files, manifest=manifest.canonical_bytes())

    def test_flipping_one_byte_changes_the_digest(self, tmp_path):
        project = write_container_project(tmp_path)
        manifest = parse_manifest((project / "build.yaml").read_bytes())
        before = build_image(manifest, project, tmp_path / "a")

        data = bytearray((project / "data.txt").read_bytes())
        data[0] ^= 0x01
        (project / "data.txt").write_bytes(bytes(data))
        after = build_image(manifest, project, tmp_path / "b")

        assert before.image_digest != after.image_digest
        files = [(p.name, p.read_bytes()) for p in project.iterdir()]
        assert after.image_digest == oracle.tree_digest(
            files, manifest=manifest.canonical_bytes())

    def test_manifest_bytes_are_part_of_the_digest(self, tmp_path):
        project = write_container_project(tmp_path)
        manifest = parse_manifest((project / "build.yaml").read_bytes())
        renamed = dataclasses.replace(manifest, build_tag="other")
        a = build_image(manifest, project, tmp_path / "a")
        b = build_image(renamed, project, tmp_path / "b")
        assert a.image_digest != b.image_digest

    def test_missing_declared_input_is_named(self, tmp_path):
        project = write_container_project(tmp_path)
        manifest = parse_manifest((project / "build.yaml").read_bytes())
        (project / "data.txt").unlink()
        with pytest.raises(SandboxError,
                           match="declared input missing: data.txt"):
            build_image(manifest, project, tmp_path / "im")

    def test_missing_work_dir_rejected(self, tmp_path):
        manifest = parse_manifest(MANIFEST)
        with pytest.raises(SandboxError, match="work_dir not found"):
            build_image(manifest, tmp_path / "nowhere", tmp_path / "im")


class TestChunkedDigests:
    """Files are hashed in 1 MiB chunks; the framing must not notice."""

    SIZES = {"empty": 0, "one": 1, "chunk": 1 << 20, "over": (5 << 19) + 3}

    def write_files(self, root):
        files = []
        for name, size in self.SIZES.items():
            data = (bytes(range(251)) * (size // 251 + 1))[:size]
            (root / name).write_bytes(data)
            files.append((name, data))
        return files

    def test_tree_and_paths_match_the_oracle(self, tmp_path):
        files = self.write_files(tmp_path)
        assert digest_tree(tmp_path) == oracle.tree_digest(files)
        assert digest_paths(tmp_path, tuple(self.SIZES)) == \
            oracle.content_digest([data for _, data in files])

    def test_file_shorter_than_its_size_is_a_sandbox_error(self, tmp_path,
                                                           monkeypatch):
        (tmp_path / "f").write_bytes(b"abc")
        real = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
            st_size=real(fd).st_size + 1))
        with pytest.raises(SandboxError, match="shrank"):
            digest_paths(tmp_path, ("f",))


# ---------------------------------------------------------------------------
# runs


def process_state(pid: int) -> str | None:
    """The state letter in /proc/<pid>/stat, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rpartition(")")[2].split()[0]


def build_fixture_image(tmp_path, deterministic=True):
    project = write_container_project(tmp_path, deterministic=deterministic)
    manifest = parse_manifest((project / "build.yaml").read_bytes())
    return build_image(manifest, project, tmp_path / "images")


class TestRunContainer:
    def test_deterministic_entrypoint_reproduces_output_digest(self,
                                                               tmp_path):
        image = build_fixture_image(tmp_path)
        a = run_container(image, tmp_path / "runs")
        b = run_container(image, tmp_path / "runs")
        assert a.exit_status == 0 and b.exit_status == 0
        assert a.output_digest == b.output_digest
        assert a.run_id != b.run_id

    def test_nondeterministic_entrypoint_is_detected(self, tmp_path):
        image = build_fixture_image(tmp_path, deterministic=False)
        a = run_container(image, tmp_path / "runs")
        b = run_container(image, tmp_path / "runs")
        assert a.output_digest != b.output_digest

    def test_pass_through_output_digest_equals_input_digest(self, tmp_path):
        project = write_container_project(tmp_path)
        (project / "gen.py").write_text(
            "import shutil\nshutil.copyfile('data.txt', 'result.txt')\n")
        manifest = parse_manifest((project / "build.yaml").read_bytes())
        image = build_image(manifest, project, tmp_path / "images")
        record = run_container(image, tmp_path / "runs")
        assert record.output_digest == record.input_digest
        assert record.output_digest == oracle.content_digest(
            [(project / "data.txt").read_bytes()])

    def test_staged_tree_is_never_mutated(self, tmp_path):
        image = build_fixture_image(tmp_path)
        before = digest_tree(image.staged_root)
        run_container(image, tmp_path / "runs")
        assert digest_tree(image.staged_root) == before

    def test_exit_3_and_missing_output_are_recorded_not_raised(self,
                                                               tmp_path):
        project = write_container_project(tmp_path)
        (project / "gen.py").write_text("import sys\nsys.exit(3)\n")
        manifest = parse_manifest((project / "build.yaml").read_bytes())
        image = build_image(manifest, project, tmp_path / "images")
        record = run_container(image, tmp_path / "runs")
        assert record.exit_status == 3
        assert record.errors == ("missing-output: result.txt",)
        assert record.output_digest is None

    def test_missing_entrypoint_program_is_a_hard_error(self, tmp_path):
        project = write_container_project(tmp_path)
        manifest = dataclasses.replace(
            parse_manifest((project / "build.yaml").read_bytes()),
            entrypoint="no_such_program_anywhere --x")
        image = build_image(manifest, project, tmp_path / "images")
        with pytest.raises(SandboxError, match="no_such_program_anywhere"):
            run_container(image, tmp_path / "runs")

    def test_missing_entrypoint_program_leaves_no_workspace(self, tmp_path):
        project = write_container_project(tmp_path)
        manifest = dataclasses.replace(
            parse_manifest((project / "build.yaml").read_bytes()),
            entrypoint="no-such-program-xyz")
        image = build_image(manifest, project, tmp_path / "images")
        with pytest.raises(SandboxError, match="no-such-program-xyz"):
            run_container(image, tmp_path / "runs")
        assert list((tmp_path / "runs").iterdir()) == []

    def test_timed_out_entrypoint_leaves_no_workspace(self, tmp_path,
                                                      monkeypatch):
        project = write_container_project(tmp_path)
        manifest = dataclasses.replace(
            parse_manifest((project / "build.yaml").read_bytes()),
            entrypoint="sleep 30")
        image = build_image(manifest, project, tmp_path / "images")
        monkeypatch.setattr(sandbox, "_ENTRYPOINT_TIMEOUT_S", 0.5)
        with pytest.raises(SandboxError, match="timed out"):
            run_container(image, tmp_path / "runs")
        assert list((tmp_path / "runs").iterdir()) == []

    def test_timed_out_entrypoint_leaves_no_process(self, tmp_path,
                                                    monkeypatch):
        project = write_container_project(tmp_path)
        (project / "fork.sh").write_text(
            'sleep 30 &\necho $! > "$PID_FILE"\nwait\n')
        pid_file = tmp_path / "sleeper.pid"
        manifest = dataclasses.replace(
            parse_manifest((project / "build.yaml").read_bytes()),
            entrypoint="sh fork.sh", env={"PID_FILE": str(pid_file)})
        image = build_image(manifest, project, tmp_path / "images")
        monkeypatch.setattr(sandbox, "_ENTRYPOINT_TIMEOUT_S", 1.0)
        started = time.monotonic()
        with pytest.raises(SandboxError, match="timed out") as caught:
            run_container(image, tmp_path / "runs")
        assert caught.value.code == "sandbox_error"
        assert time.monotonic() - started < 5.0
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while process_state(pid) not in (None, "Z") \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        # gone, or a zombie that its new parent has not reaped yet
        assert process_state(pid) in (None, "Z"), "the sleeper still runs"

    def test_manifest_env_and_volume_reach_the_process(self, tmp_path):
        project = write_container_project(tmp_path)
        (project / "gen.py").write_text(
            "import os, pathlib\n"
            "pathlib.Path('result.txt').write_text(\n"
            "    os.environ['MODE'] + ' ' + os.environ['HPCFAIR_VOLUME_NAME']"
            ")\n")
        manifest = dataclasses.replace(
            parse_manifest((project / "build.yaml").read_bytes()),
            env={"MODE": "fast"})
        image = build_image(manifest, project, tmp_path / "images")
        record = run_container(image, tmp_path / "runs")
        produced = tmp_path / "runs" / record.run_id / "result.txt"
        assert produced.read_text() == "fast /app"

    def test_runs_log_is_appended(self, tmp_path):
        image = build_fixture_image(tmp_path)
        log = tmp_path / "store" / "runs.log"
        run_container(image, tmp_path / "runs", runs_log=log)
        run_container(image, tmp_path / "runs", runs_log=log)
        lines = log.read_bytes().splitlines()
        assert len(lines) == 2

    def test_torn_runs_log_tail_is_cut_before_the_next_run(self, tmp_path):
        image = build_fixture_image(tmp_path)
        log = tmp_path / "store" / "runs.log"
        first = run_container(image, tmp_path / "runs", runs_log=log)
        log.write_bytes(log.read_bytes() + b'{"run_id":"y","b')
        record = run_container(image, tmp_path / "runs", runs_log=log)
        lines = log.read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert [json.loads(line) for line in lines] == \
            [first.to_dict(), record.to_dict()]
        assert lines[-1] + b"\n" == dumps_canonical(record.to_dict())


# ---------------------------------------------------------------------------
# the container task


class TestContainerTask:
    def test_demo_config_flow(self, demo_workspace):
        cfg = load_config(demo_workspace.root / "container.yaml")
        export, record = run_container_task(cfg)
        assert export == demo_workspace.root / "out_container.txt"
        assert export.read_text() == "PAYLOAD V1\n"
        assert record.exit_status == 0
        assert record.device_requested == "gpu"
        assert (demo_workspace.root / "store" / "runs.log").exists()

    def test_unknown_backend_rejected(self, demo_workspace):
        cfg = load_config(demo_workspace.root / "container.yaml")
        general = dataclasses.replace(cfg.general, backend="docker")
        with pytest.raises(UnknownBackendError, match="docker"):
            run_container_task(dataclasses.replace(cfg, general=general))

    def test_missing_work_dir_names_the_config_value(self, demo_workspace):
        import shutil
        root = demo_workspace.root
        # keep the build file reachable while the work dir is gone
        shutil.copyfile(root / "project_dir" / "build.yaml",
                        root / "build.yaml")
        shutil.rmtree(root / "project_dir")
        cfg = load_config(root / "container.yaml")
        cfg.task_args["build_file"] = "build.yaml"
        with pytest.raises(SandboxError,
                           match="build_image: work_dir not found: "
                                 "project_dir"):
            run_container_task(cfg)

    def test_missing_build_file_is_staged_error(self, demo_workspace):
        cfg = load_config(demo_workspace.root / "container.yaml")
        (demo_workspace.root / "project_dir" / "build.yaml").unlink()
        with pytest.raises(SandboxError,
                           match="parse_manifest: build file not found"):
            run_container_task(cfg)

    def test_failing_entrypoint_surfaces_run_stage(self, demo_workspace):
        (demo_workspace.root / "project_dir" / "gen.py").write_text(
            "raise SystemExit('boom')\n")
        cfg = load_config(demo_workspace.root / "container.yaml")
        with pytest.raises(SandboxError, match="run_container: .*boom"):
            run_container_task(cfg)

    def test_entrypoint_that_cannot_be_executed_is_a_sandbox_error(
            self, demo_workspace):
        root = demo_workspace.root
        build = root / "project_dir" / "build.yaml"
        # data.txt exists but has no execute permission
        build.write_text(build.read_text().replace(
            "entrypoint: python3 gen.py", "entrypoint: ./data.txt"))
        result = Dispatcher().dispatch(load_config(root / "container.yaml"))
        assert result.status == "failed"
        assert result.error["code"] == "sandbox_error"
        assert "entrypoint cannot be executed" in result.error["message"]
        assert list((root / "store" / "runs").iterdir()) == []

    @pytest.mark.parametrize("script, exit_status", [
        (None, 0),
        ("raise SystemExit('boom')\n", 1),
        ("pass\n", 0),  # exits 0 but writes no declared output
    ])
    def test_run_workspace_is_removed_and_its_record_kept(
            self, demo_workspace, script, exit_status):
        root = demo_workspace.root
        if script is not None:
            (root / "project_dir" / "gen.py").write_text(script)
        cfg = load_config(root / "container.yaml")
        if script is None:
            _, record = run_container_task(cfg)
        else:
            with pytest.raises(SandboxError, match="run_container: "):
                run_container_task(cfg)
        store = root / "store"
        assert list((store / "runs").iterdir()) == []
        [line] = (store / "runs.log").read_bytes().splitlines()
        logged = json.loads(line)
        assert logged["exit_status"] == exit_status
        assert logged["image_digest"] in {
            p.name for p in (store / "images").iterdir()}
        if script is None:
            assert logged == record.to_dict()
