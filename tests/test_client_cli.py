"""Client verbs and the command-line interface."""

import contextlib
import http.client
import json
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests

import hpcfair
from hpcfair import client, server as server_module
from hpcfair.client import ModelAPI, TaskFailed, modelAPI, request
from hpcfair.cli import main
from hpcfair.errors import ConfigError, HpcfairError
from hpcfair.registry import ArtifactDraft, Registry, derive_pid

from conftest import absolute_config, build_demo_workspace, hold_tasks, \
    make_model_checkpoint


def count_polls(monkeypatch) -> tuple[list, list]:
    """Record the keyword arguments of each GET ``client.request`` sends
    and the seconds of each ``time.sleep`` this thread makes from here
    on."""
    polls, sleeps = [], []
    real_request, real_sleep = client.request, time.sleep
    this = threading.current_thread()

    def send(address, method, path, **kwargs):
        if method == "GET":
            polls.append(kwargs)
        return real_request(address, method, path, **kwargs)

    def sleep(seconds):
        if threading.current_thread() is this:
            sleeps.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(client, "request", send)
    monkeypatch.setattr(time, "sleep", sleep)
    return polls, sleeps


@contextlib.contextmanager
def raw_server(reply: bytes):
    """A listener on a raw socket that reads each request whole, sends
    ``reply`` (nothing when empty) and closes the connection; yields its
    address and the request line of each request it read."""
    seen = []
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                data = b""
                while b"\r\n\r\n" not in data and (chunk := conn.recv(4096)):
                    data += chunk
                head, _, body = data.partition(b"\r\n\r\n")
                length = re.search(rb"(?i)content-length: *(\d+)", head)
                while length and len(body) < int(length.group(1)) and \
                        (chunk := conn.recv(4096)):
                    body += chunk
                seen.append(head.split(b"\r\n")[0].decode())
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % listener.getsockname()[1], seen
    finally:
        stop.set()
        thread.join()
        listener.close()


BAD_ADDRESSES = ["localhost:1", "ftp://127.0.0.1:1", "http://",
                 "http://127.0.0.1:notaport", "http://[::1"]


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
        monkeypatch.setenv("HPCFAIR_ADDR", server.address)
        monkeypatch.setenv("HPCFAIR_TOKEN", publisher.token)
        api = ModelAPI()  # both settings come from the environment
        result = api.conversion(absolute_config(ws, "conversion.yaml"))
        assert result.status == "succeeded"
        assert (ws.root / "encoder.onnx").exists()

    def test_failed_remote_task_raises_task_failed(self, tmp_path, server,
                                                   publisher):
        ws = build_demo_workspace(tmp_path / "ws")
        # the models were never converted: the task fails on the server
        api = ModelAPI(address=server.address, token=publisher.token)
        with pytest.raises(TaskFailed) as err:
            api.collaborate(absolute_config(ws, "collaboration.yaml"))
        assert err.value.code == "execution_error"

    @pytest.mark.parametrize("name, field", [
        ("conversion.yaml", "model_args.model_file './ckpt/encoder.ckpt'"),
        ("collaboration.yaml", "task_args.model_file 'encoder.onnx'"),
        ("container.yaml", "task_args.work_dir 'project_dir'")])
    def test_relative_path_is_rejected_before_any_request(
            self, demo_workspace, monkeypatch, name, field):
        def send(*args, **kwargs):
            raise AssertionError("a request was sent")

        monkeypatch.setattr(client, "request", send)
        monkeypatch.setattr(http.client.HTTPConnection, "connect", send)
        api = ModelAPI(address="http://127.0.0.1:1", token="t")
        with pytest.raises(ConfigError, match="absolute path or a registry "
                           "pid") as err:
            api._submit(api._load(demo_workspace.root / name, expect=None))
        assert err.value.message.startswith(f"{field} is a relative path")

    def test_relative_export_is_rejected(self, demo_workspace):
        config = absolute_config(demo_workspace, "collaboration.yaml")
        config.write_text(config.read_text().replace(
            f'"{demo_workspace.root}/out.txt"', '"out.txt"'))
        api = ModelAPI(address="http://127.0.0.1:1", token="t")
        with pytest.raises(ConfigError, match="^out_args.export_file 'out"):
            api.collaborate(config)

    def test_pid_model_reference_is_sent(self, server, store, publisher,
                                         demo_workspace):
        # absolute paths and registry pids pass the relative-path check
        ModelAPI().conversion(demo_workspace.root / "conversion.yaml")
        pids = [store.register_artifact(
            (demo_workspace.root / f"{name}.onnx").read_bytes(),
            ArtifactDraft(title=name, artifact_type="model",
                          backend_tag="onnx"), publisher)[0].pid
            for name in ("encoder", "decoder")]
        config = absolute_config(demo_workspace, "collaboration.yaml")
        config.write_text(config.read_text().replace(
            f'"{demo_workspace.root}/encoder.onnx", '
            f'"{demo_workspace.root}/decoder.onnx"',
            f'"{pids[0]}", "{pids[1]}"'))
        api = ModelAPI(address=server.address, token=publisher.token)
        assert api.collaborate(config).status == "succeeded"

    def test_bad_token_raises_with_the_server_code(self, demo_workspace,
                                                   server, monkeypatch):
        monkeypatch.delenv("HPCFAIR_TOKEN", raising=False)
        config = absolute_config(demo_workspace, "conversion.yaml")
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
        polls, _ = count_polls(monkeypatch)
        api = ModelAPI(address=server.address, token=publisher.token)
        started = time.monotonic()
        with pytest.raises(HpcfairError) as err:
            api.conversion(absolute_config(demo_workspace, "conversion.yaml"))
        assert err.value.code == "unknown_task"
        assert len(polls) == 1
        assert time.monotonic() - started < 5.0

    def test_a_task_is_one_status_request_and_no_sleep(
            self, demo_workspace, server, publisher, monkeypatch):
        polls, sleeps = count_polls(monkeypatch)
        api = ModelAPI(address=server.address, token=publisher.token)
        assert api.conversion(absolute_config(
            demo_workspace, "conversion.yaml")).status == "succeeded"
        assert len(polls) == 1
        assert 59 < polls[0]["params"]["wait"] <= 60
        assert sleeps == []

    def test_a_task_that_outlasts_the_timeout_raises(
            self, demo_workspace, server, publisher, monkeypatch):
        release = hold_tasks(server)
        monkeypatch.setattr(client, "_POLL_TIMEOUT", 0.3)
        polls, sleeps = count_polls(monkeypatch)
        api = ModelAPI(address=server.address, token=publisher.token)
        started = time.monotonic()
        try:
            with pytest.raises(HpcfairError, match="did not finish within"):
                api.conversion(absolute_config(demo_workspace,
                                               "conversion.yaml"))
        finally:
            release.set()
        # the server held the one poll until the deadline
        assert len(polls) == 1 and sleeps == []
        assert time.monotonic() - started >= 0.3

    def test_a_server_that_never_answers_times_out(self, demo_workspace,
                                                   monkeypatch):
        monkeypatch.setattr(client, "_TIMEOUT", 0.2)
        with socket.socket() as silent:  # accepts, never replies
            silent.bind(("127.0.0.1", 0))
            silent.listen()
            address = "http://127.0.0.1:%d" % silent.getsockname()[1]
            started = time.monotonic()
            with pytest.raises(HpcfairError, match=address) as err:
                request(address, "GET", "/v1/search")
            assert err.value.code == "connection_error"
            api = ModelAPI(address=address, token="t")
            with pytest.raises(HpcfairError, match=address) as err:
                api.conversion(absolute_config(demo_workspace,
                                               "conversion.yaml"))
            assert err.value.code == "connection_error"
        assert time.monotonic() - started < 5.0

    def test_reply_without_envelope_names_the_address(self):
        reply = (b"HTTP/1.1 502 Bad Gateway\r\nContent-Type: text/html\r\n"
                 b"Content-Length: 24\r\n\r\n<html>bad gateway</html>")
        with raw_server(reply) as (address, seen):
            with pytest.raises(HpcfairError, match=address) as err:
                request(address, "GET", "/v1/search")
        assert err.value.code == "bad_response"
        assert "answered 502 without an hpcfair envelope" in err.value.message
        assert seen == ["GET /v1/search HTTP/1.1"]

    @pytest.mark.parametrize("address", BAD_ADDRESSES)
    def test_a_malformed_address_is_invalid_config(self, demo_workspace,
                                                   monkeypatch, address):
        def send(*args, **kwargs):
            raise AssertionError("a connection was opened")

        monkeypatch.setattr(http.client.HTTPConnection, "connect", send)
        with pytest.raises(ConfigError, match=re.escape(repr(address))):
            request(address, "GET", "/v1/search")
        api = ModelAPI(address=address, token="t")
        with pytest.raises(ConfigError, match=re.escape(repr(address))):
            api.conversion(absolute_config(demo_workspace, "conversion.yaml"))

    def test_a_task_is_one_connection_with_one_post_and_one_get(
            self, demo_workspace, server, publisher, monkeypatch):
        accepted, handled = [], []
        real_accept = server._httpd.get_request

        def get_request():
            accepted.append(real_accept())
            return accepted[-1]

        def counted(method):
            real = getattr(server_module._Handler, method)

            def handle(handler):
                handled.append((method, handler.connection))
                return real(handler)
            monkeypatch.setattr(server_module._Handler, method, handle)

        monkeypatch.setattr(server._httpd, "get_request", get_request)
        counted("do_GET")
        counted("do_POST")
        api = ModelAPI(address=server.address, token=publisher.token)
        assert api.conversion(absolute_config(
            demo_workspace, "conversion.yaml")).status == "succeeded"
        assert len(accepted) == 1
        assert handled == [("do_POST", accepted[0][0]),
                           ("do_GET", accepted[0][0])]

    def test_a_post_without_reply_is_not_resent(self, demo_workspace):
        with raw_server(b"") as (address, seen):
            api = ModelAPI(address=address, token="t")
            with pytest.raises(HpcfairError, match=address) as err:
                api.conversion(absolute_config(demo_workspace,
                                               "conversion.yaml"))
        assert err.value.code == "connection_error"
        assert seen == ["POST /v1/tasks HTTP/1.1"]

    def test_the_client_does_not_import_requests(self):
        probe = ("import sys, hpcfair.cli\n"
                 "from hpcfair.client import request\n"
                 "from hpcfair.errors import HpcfairError\n"
                 "try:\n"
                 "    request('http://127.0.0.1:1', 'GET', '/v1/search')\n"
                 "except HpcfairError:\n"
                 "    pass\n"
                 "print('requests' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, cwd=Path(hpcfair.__file__).parents[1]).stdout
        assert out.strip() == "False"

    def test_unreachable_address_names_it(self, demo_workspace):
        api = ModelAPI(address="http://127.0.0.1:1", token="t")
        with pytest.raises(HpcfairError, match="http://127.0.0.1:1") as err:
            api.conversion(absolute_config(demo_workspace, "conversion.yaml"))
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

    @pytest.mark.parametrize("ttl", ["100000000000000", "-100000000000000"])
    def test_token_ttl_out_of_range_exits_1(self, tmp_path, capsys, ttl):
        self.issue_token(tmp_path, capsys)
        tokens = (tmp_path / "store" / "tokens").read_bytes()
        code = main(["--store", str(tmp_path / "store"), "token", "issue",
                     "--role", "reader", "--account", "bob", "--ttl", ttl])
        assert code == 1
        assert "error: invalid_config:" in capsys.readouterr().err
        assert (tmp_path / "store" / "tokens").read_bytes() == tokens

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

    def test_store_push_beside_a_server_is_found_through_it(
            self, tmp_path, server, publisher, capsys):
        # the CLI opens its own handle on the server's store
        meta = write_meta(tmp_path / "meta.json")
        content = make_model_checkpoint("beside")
        (tmp_path / "model.ckpt").write_bytes(content)
        code = main(["--store", str(server.registry.root),
                     "--token", publisher.token, "push", "--meta", str(meta),
                     "--content", str(tmp_path / "model.ckpt")])
        assert code == 0
        records = requests.get(f"{server.address}/v1/search",
                               params={"tags": "nlp"}).json()["data"]
        assert derive_pid(content) in [r["pid"] for r in records["records"]]

    @pytest.mark.parametrize("text", ["{not json", "[" * 100000],
                             ids=["not-json", "deep"])
    def test_push_with_a_bad_meta_file_exits_1(self, tmp_path, capsys, text):
        token = self.issue_token(tmp_path, capsys)
        (tmp_path / "meta.json").write_text(text)
        (tmp_path / "model.ckpt").write_bytes(make_model_checkpoint("bad"))
        code = main(["--store", str(tmp_path / "store"), "--token", token,
                     "push", "--meta", str(tmp_path / "meta.json"),
                     "--content", str(tmp_path / "model.ckpt")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid_artifact:")

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

    @pytest.mark.parametrize("address", BAD_ADDRESSES)
    def test_a_malformed_address_exits_1(self, capsys, address):
        assert main(["--addr", address, "search", "--tags", "a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid_config: ")
        assert repr(address) in err

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
        # a pid with a space or a non-ASCII letter is sent percent-encoded
        for pid in ("hpcf-0000000000000000dead", "no such pid \u00e9"):
            code = main(["--addr", server.address, "--token", publisher.token,
                         "pull", pid, "--out", str(tmp_path / "x.bin")])
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
        config = absolute_config(ws, "conversion.yaml")
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
        config = absolute_config(demo_workspace, "conversion.yaml")
        code = main(["--addr", "http://127.0.0.1:1", "--token", "t", "run",
                     "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: connection_error: ")
        assert "http://127.0.0.1:1" in err
        assert not (demo_workspace.root / "encoder.onnx").exists()
