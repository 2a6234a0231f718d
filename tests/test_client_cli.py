"""Client verbs and the command-line interface."""

import json
import time

import pytest
import requests

from hpcfair.client import ModelAPI, TaskFailed, modelAPI, request
from hpcfair.cli import main
from hpcfair.errors import ConfigError, HpcfairError
from hpcfair.registry import ArtifactDraft, Registry, derive_pid

from conftest import build_demo_workspace, make_model_checkpoint


# ---------------------------------------------------------------------------
# client verbs, local dispatch


class TestModelAPI:
    def test_three_verb_demo(self, demo_workspace):
        api = ModelAPI()
        root = demo_workspace.root

        converted = api.conversion(root / "conversion.yaml")
        assert converted.status == "succeeded"
        assert len(converted.outputs) == 2

        collaborated = api.collaborate(root / "collaboration.yaml")
        assert collaborated.status == "succeeded"
        assert collaborated.outputs[0].endswith("out.txt")

        contained = api.container(root / "container.yaml")
        assert contained.status == "succeeded"
        assert contained.outputs[0].endswith("out_container.txt")

    def test_collaborate_can_run_the_conversion_first(self, demo_workspace):
        api = ModelAPI()
        root = demo_workspace.root
        result = api.collaborate(root / "collaboration.yaml",
                                 conversion_config=root / "conversion.yaml")
        assert result.status == "succeeded"

    def test_infer_runs_collaboration_config(self, demo_workspace):
        api = ModelAPI()
        root = demo_workspace.root
        api.conversion(root / "conversion.yaml")
        assert api.infer(root / "collaboration.yaml").status == "succeeded"

    def test_collaborate_rejects_configs_without_the_tag(self,
                                                         demo_workspace):
        root = demo_workspace.root
        text = (root / "collaboration.yaml").read_text()
        (root / "plain.yaml").write_text(
            text.replace('  tag: "collaboration"\n', ""))
        with pytest.raises(ConfigError, match="tag 'collaboration'"):
            ModelAPI().collaborate(root / "plain.yaml")

    def test_collaborate_with_one_model_fails_as_task(self, demo_workspace):
        root = demo_workspace.root
        api = ModelAPI()
        api.conversion(root / "conversion.yaml")
        text = (root / "collaboration.yaml").read_text()
        (root / "one.yaml").write_text(text.replace(
            '  model_file: ["encoder.onnx", "decoder.onnx"]\n',
            '  model_file: ["encoder.onnx"]\n').replace(
            '  model_name: ["encoder","decoder"]\n',
            '  model_name: ["encoder"]\n'))
        with pytest.raises(TaskFailed) as err:
            api.collaborate(root / "one.yaml")
        assert err.value.code == "invalid_config"
        assert "exactly two models, got 1" in err.value.message
        assert err.value.result.status == "failed"

    def test_missing_config_raises_before_any_submission(self, tmp_path):
        api = ModelAPI(address="http://127.0.0.1:1")  # nothing listens here
        with pytest.raises(FileNotFoundError, match="config file not found"):
            api.conversion(tmp_path / "absent.yaml")

    def test_wrong_task_for_verb_is_rejected(self, demo_workspace):
        with pytest.raises(ConfigError, match="handles task 'conversion'"):
            ModelAPI().conversion(demo_workspace.root / "collaboration.yaml")

    def test_alias_is_the_same_class(self):
        assert modelAPI is ModelAPI


class TestModelAPIOverHttp:
    def test_conversion_submits_and_polls(self, tmp_path, server, store,
                                          publisher, monkeypatch):
        ws = build_demo_workspace(tmp_path / "ws")
        text = (ws.root / "conversion.yaml").read_text()
        text = text.replace('"./ckpt/', f'"{ws.root}/ckpt/')
        text = text.replace('"encoder.onnx"', f'"{ws.root}/encoder.onnx"')
        text = text.replace('"decoder.onnx"', f'"{ws.root}/decoder.onnx"')
        (ws.root / "remote.yaml").write_text(text)

        monkeypatch.setenv("HPCFAIR_ADDR", server.address)
        monkeypatch.setenv("HPCFAIR_TOKEN", publisher.token)
        api = ModelAPI()  # both settings come from the environment
        result = api.conversion(ws.root / "remote.yaml")
        assert result.status == "succeeded"
        assert (ws.root / "encoder.onnx").exists()

    def test_failed_remote_task_raises_task_failed(self, tmp_path, server,
                                                   publisher):
        ws = build_demo_workspace(tmp_path / "ws")
        # relative model paths cannot resolve server-side: the task fails
        api = ModelAPI(address=server.address, token=publisher.token)
        with pytest.raises(TaskFailed):
            api.collaborate(ws.root / "collaboration.yaml")

    def test_bad_token_raises_with_the_server_code(self, demo_workspace,
                                                   server, monkeypatch):
        monkeypatch.delenv("HPCFAIR_TOKEN", raising=False)
        config = demo_workspace.root / "conversion.yaml"
        for token, code in (("f" * 64, "unknown_token"),
                            (None, "unauthorized")):
            api = ModelAPI(address=server.address, token=token)
            with pytest.raises(HpcfairError) as err:
                api.conversion(config)
            assert err.value.code == code

    def test_unknown_task_raises_at_the_first_poll(self, demo_workspace,
                                                   server, publisher,
                                                   monkeypatch):
        # the server accepts the task but hands back an id it never made
        monkeypatch.setattr(server, "submit_task",
                            lambda cfg: "task-999999-00000000")
        polls = []
        real_get = requests.get

        def get(url, **kwargs):
            polls.append(url)
            return real_get(url, **kwargs)

        monkeypatch.setattr(requests, "get", get)
        api = ModelAPI(address=server.address, token=publisher.token)
        started = time.monotonic()
        with pytest.raises(HpcfairError) as err:
            api.conversion(demo_workspace.root / "conversion.yaml")
        assert err.value.code == "unknown_task"
        assert len(polls) == 1
        assert time.monotonic() - started < 5.0

    def test_reply_without_envelope_names_the_address(self, monkeypatch):
        reply = requests.Response()
        reply.status_code = 502
        reply.headers["Content-Type"] = "text/html"
        reply._content = b"<html>bad gateway</html>"
        monkeypatch.setattr(requests, "get", lambda url, **kw: reply)
        with pytest.raises(HpcfairError, match="http://proxy:9") as err:
            request("http://proxy:9", "GET", "/v1/search")
        assert err.value.code == "bad_response"

    def test_unreachable_address_names_it(self, demo_workspace):
        api = ModelAPI(address="http://127.0.0.1:1", token="t")
        with pytest.raises(HpcfairError, match="http://127.0.0.1:1") as err:
            api.conversion(demo_workspace.root / "conversion.yaml")
        assert err.value.code == "connection_error"


# ---------------------------------------------------------------------------
# command line


def write_meta(path, **overrides):
    meta = {"title": "Encoder", "artifact_type": "model",
            "backend_tag": "pt", "tags": ["nlp"], "version": 1,
            "license": "mit"}
    meta.update(overrides)
    path.write_text(json.dumps(meta))
    return path


class TestCli:
    def issue_token(self, tmp_path, capsys, role="publisher"):
        code = main(["--store", str(tmp_path / "store"), "token", "issue",
                     "--role", role, "--account", "alice", "--ttl", "3600"])
        assert code == 0
        return capsys.readouterr().out.strip()

    def test_run_prints_both_export_paths(self, demo_workspace, capsys):
        code = main(["run", "--config",
                     str(demo_workspace.root / "conversion.yaml")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [str(demo_workspace.root / "encoder.onnx"),
                       str(demo_workspace.root / "decoder.onnx")]

    def test_run_failure_exits_1_with_code_on_stderr(self, demo_workspace,
                                                     capsys):
        code = main(["run", "--config",
                     str(demo_workspace.root / "collaboration.yaml")])
        assert code == 1
        assert "error: execution_error:" in capsys.readouterr().err

    def test_failed_run_prints_its_result_as_json(self, demo_workspace,
                                                  capsys):
        code = main(["--format", "json", "run", "--config",
                     str(demo_workspace.root / "collaboration.yaml")])
        assert code == 1
        captured = capsys.readouterr()
        body = json.loads(captured.out)
        assert body["data"]["status"] == "failed"
        assert body["data"]["error"]["code"] == "execution_error"
        assert captured.err.startswith("error: execution_error:")

    def test_push_pull_round_trip(self, tmp_path, capsys):
        token = self.issue_token(tmp_path, capsys)
        meta = write_meta(tmp_path / "meta.json")
        content = make_model_checkpoint("cli")
        (tmp_path / "model.ckpt").write_bytes(content)

        code = main(["--store", str(tmp_path / "store"), "--token", token,
                     "push", "--meta", str(meta),
                     "--content", str(tmp_path / "model.ckpt")])
        assert code == 0
        out = capsys.readouterr().out
        pid = derive_pid(content)
        assert pid in out
        assert "Encoder (onnx)" in out

        code = main(["--store", str(tmp_path / "store"), "--token", token,
                     "pull", pid, "--out", str(tmp_path / "fetched.bin")])
        assert code == 0
        assert (tmp_path / "fetched.bin").read_bytes() == content

    def test_pull_unknown_pid_exits_1(self, tmp_path, capsys):
        token = self.issue_token(tmp_path, capsys)
        code = main(["--store", str(tmp_path / "store"), "--token", token,
                     "pull", "hpcf-0000000000000000dead",
                     "--out", str(tmp_path / "x.bin")])
        assert code == 1
        assert "unknown_pid" in capsys.readouterr().err

    def test_search_without_filters_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["--store", str(tmp_path / "store"), "search"])
        assert err.value.code == 2

    def test_search_lists_matching_records(self, tmp_path, capsys):
        token = self.issue_token(tmp_path, capsys)
        meta = write_meta(tmp_path / "meta.json")
        (tmp_path / "model.ckpt").write_bytes(make_model_checkpoint("s"))
        main(["--store", str(tmp_path / "store"), "--token", token,
              "push", "--meta", str(meta),
              "--content", str(tmp_path / "model.ckpt")])
        capsys.readouterr()

        code = main(["--store", str(tmp_path / "store"),
                     "search", "--tags", "nlp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Encoder" in out and "tags=nlp" in out

    def test_push_against_server_address(self, tmp_path, server, publisher,
                                         capsys):
        meta = write_meta(tmp_path / "meta.json")
        (tmp_path / "model.ckpt").write_bytes(make_model_checkpoint("net"))
        code = main(["--addr", server.address, "--token", publisher.token,
                     "push", "--meta", str(meta),
                     "--content", str(tmp_path / "model.ckpt")])
        assert code == 0

    def test_json_format_prints_machine_readable_body(self, tmp_path,
                                                      capsys):
        token = self.issue_token(tmp_path, capsys)
        meta = write_meta(tmp_path / "meta.json")
        (tmp_path / "model.ckpt").write_bytes(make_model_checkpoint("j"))
        code = main(["--store", str(tmp_path / "store"), "--token", token,
                     "--format", "json", "push", "--meta", str(meta),
                     "--content", str(tmp_path / "model.ckpt")])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["ok"] is True
        assert len(body["data"]["records"]) == 2

    def test_store_commands_require_a_store(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["pull", "hpcf-0000000000000000dead",
                  "--out", str(tmp_path / "x")])
        assert err.value.code == 2


class TestCliRemote:
    """The same commands with --addr: same output, server error codes."""

    @pytest.fixture
    def pushed(self, tmp_path, server, publisher):
        meta = write_meta(tmp_path / "meta.json")
        content = make_model_checkpoint("remote")
        (tmp_path / "model.ckpt").write_bytes(content)
        server.registry.register_artifact(
            content, ArtifactDraft.from_dict(json.loads(meta.read_text())),
            publisher)
        return meta, tmp_path / "model.ckpt", derive_pid(content)

    def both(self, capsys, server, args):
        """(local, remote) output of one command on the server's store."""
        outputs = []
        for where in (["--store", str(server.registry.root)],
                      ["--addr", server.address]):
            assert main(where + args) == 0
            outputs.append(capsys.readouterr().out)
        return outputs

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_search_matches_local(self, server, pushed, capsys, fmt):
        local, remote = self.both(capsys, server,
                                  ["--format", fmt, "search", "--tags", "nlp"])
        assert local == remote
        assert pushed[2] in remote
        if fmt == "json":
            body = requests.get(f"{server.address}/v1/search",
                                params={"tags": "nlp"}).content
            assert remote.encode() == body

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_pull_matches_local(self, tmp_path, server, publisher, pushed,
                                capsys, fmt):
        out = tmp_path / "fetched.bin"
        local, remote = self.both(capsys, server, [
            "--token", publisher.token, "--format", fmt,
            "pull", pushed[2], "--out", str(out)])
        assert local == remote
        assert out.read_bytes() == pushed[1].read_bytes()

    def test_pull_unknown_pid_exits_1(self, tmp_path, server, publisher,
                                      capsys):
        code = main(["--addr", server.address, "--token", publisher.token,
                     "pull", "hpcf-0000000000000000dead",
                     "--out", str(tmp_path / "x.bin")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: unknown_pid:")
        assert not (tmp_path / "x.bin").exists()

    def test_duplicate_push_exits_1(self, server, publisher, pushed, capsys):
        meta, content, _ = pushed
        code = main(["--addr", server.address, "--token", publisher.token,
                     "push", "--meta", str(meta), "--content", str(content)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: duplicate_content:")

    def test_run_executes_on_the_server(self, tmp_path, server, publisher,
                                        capsys, monkeypatch):
        ws = build_demo_workspace(tmp_path / "ws")
        config = ws.root / "conversion.yaml"
        config.write_text(config.read_text().replace(
            '"./ckpt/', f'"{ws.root}/ckpt/').replace(
            '"encoder.onnx"', f'"{ws.root}/encoder.onnx"').replace(
            '"decoder.onnx"', f'"{ws.root}/decoder.onnx"'))
        submitted = []
        real_submit = server.submit_task

        def submit_task(cfg):
            submitted.append(cfg)
            return real_submit(cfg)

        monkeypatch.setattr(server, "submit_task", submit_task)
        code = main(["--addr", server.address, "--token", publisher.token,
                     "run", "--config", str(config)])
        assert code == 0
        assert len(submitted) == 1
        assert capsys.readouterr().out.splitlines() == [
            str(ws.root / "encoder.onnx"), str(ws.root / "decoder.onnx")]

    def test_run_against_nothing_listening_exits_1(self, demo_workspace,
                                                   capsys):
        code = main(["--addr", "http://127.0.0.1:1", "--token", "t", "run",
                     "--config", str(demo_workspace.root / "conversion.yaml")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: connection_error: ")
        assert "http://127.0.0.1:1" in err
        assert not (demo_workspace.root / "encoder.onnx").exists()
