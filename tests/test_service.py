"""HTTP service: upload, fetch, search, and async task endpoints."""

import json
import re
import socket
import threading
import time

import pytest
import requests

from hpcfair import client
from hpcfair import server as server_module
from hpcfair._canonical import _YAML_DEPTH, dumps_canonical
from hpcfair.config import parse_config, validate_config
from hpcfair.errors import DuplicateContentError, HpcfairError
from hpcfair.registry import ArtifactDraft, Registry, SearchQuery, \
    content_digest
from hpcfair.server import HpcfairServer, error_body, ok_body

from conftest import absolute_config, build_demo_workspace, hold_tasks, \
    make_model_checkpoint

META = {"title": "Encoder", "artifact_type": "model", "backend_tag": "pt",
        "tags": ["nlp"], "version": 1, "license": "mit"}


def push(server, token, meta=META, content=None):
    payload = json.dumps(meta).encode() + b"\n" + (
        content if content is not None else make_model_checkpoint("enc"))
    return requests.post(f"{server.address}/v1/artifacts", data=payload,
                         headers={"Authorization": f"Bearer {token}"})


def poll_task(server, task_id, timeout=10.0):
    r = requests.get(f"{server.address}/v1/tasks/{task_id}",
                     params={"wait": timeout})
    body = r.json()["data"]
    if body["status"] == "running":
        raise AssertionError(f"task {task_id} still running after {timeout}s")
    return body


def submit(server, token, tmp_path, name="o.txt"):
    """Submit an inference task that fails at once: its model is missing."""
    cfg = (f'general_args:\n  task: "inference"\n  backend: "onnx"\n'
           f'task_args:\n  model_file: "{tmp_path}/none.onnx"\n'
           f'  input: "{tmp_path}/in.txt"\n'
           f'out_args:\n  export_file: "{tmp_path}/{name}"\n').encode()
    r = requests.post(f"{server.address}/v1/tasks", data=cfg,
                      headers={"Authorization": f"Bearer {token}"})
    assert r.status_code == 202, r.text
    return r.json()["data"]["task_id"]


@pytest.fixture
def gate(server):
    release = hold_tasks(server)
    yield release
    release.set()


def raw_post(server, path, headers, body=b"", shut=False):
    """A POST on a socket of its own: the reply's status, head and body,
    read until the server closes the connection."""
    host, port = server.address.rsplit("/", 1)[-1].split(":")
    request = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n" + "".join(
        f"{key}: {value}\r\n" for key, value in headers.items())
        + "\r\n").encode() + body
    with socket.create_connection((host, int(port)), timeout=2) as sock:
        sock.sendall(request)
        if shut:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        try:
            while chunk := sock.recv(4096):
                reply += chunk
        except ConnectionResetError:  # closed with part of a body unread
            pass
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), head, body


def timed_get(url, **kwargs):
    started = time.monotonic()
    r = requests.get(url, **kwargs)
    return r, time.monotonic() - started


class TestArtifactEndpoints:
    def test_push_returns_201_with_both_records(self, server, publisher):
        r = push(server, publisher.token)
        assert r.status_code == 201
        body = r.json()
        assert body["ok"] is True
        records = body["data"]["records"]
        assert len(records) == 2
        assert records[0]["backend_tag"] == "pt"
        assert records[1]["backend_tag"] == "onnx"
        assert records[1]["provenance"] == [
            {"parent_pid": records[0]["pid"], "operation": "converted-from"}]

    def test_duplicate_push_returns_409_with_original_pid(self, server,
                                                          publisher):
        first = push(server, publisher.token).json()["data"]["records"][0]
        r = push(server, publisher.token,
                 meta={**META, "title": "Other Name"})
        assert r.status_code == 409
        assert r.content == dumps_canonical(error_body(
            "duplicate_content",
            f"content already registered as {first['pid']}",
            {"pid": first["pid"]}))

    def test_push_without_token_is_401(self, server):
        r = requests.post(f"{server.address}/v1/artifacts",
                          data=json.dumps(META).encode() + b"\nx")
        assert r.status_code == 401
        assert r.content == dumps_canonical(error_body(
            "unauthorized", "missing bearer token"))

    def test_weight_beyond_every_float_is_400_and_stores_nothing(
            self, server, store, publisher):
        assert push(server, publisher.token).status_code == 201
        log = store.root / "meta.log"
        before = log.read_bytes()
        content = (b'{"format_tag": "pt-ckpt-v1", "layers": [{"kind": '
                   b'"linear", "weight": [[1' + b"0" * 400
                   + b']], "bias": [0]}]}')  # a 401-digit integer
        r = push(server, publisher.token, content=content)
        assert r.status_code == 400
        assert r.json()["error"]["code"] == "invalid_artifact"
        assert log.read_bytes() == before

    def test_reader_push_is_403(self, server, reader):
        r = push(server, reader.token)
        assert r.status_code == 403
        assert r.json()["error"]["code"] == "forbidden"

    def test_metadata_is_public(self, server, publisher):
        pid = push(server, publisher.token).json()["data"]["records"][0]["pid"]
        r = requests.get(f"{server.address}/v1/artifacts/{pid}")
        assert r.status_code == 200
        assert r.json()["data"]["record"]["pid"] == pid

    def test_unknown_pid_is_404(self, server):
        r = requests.get(
            f"{server.address}/v1/artifacts/hpcf-0000000000000000dead")
        assert r.status_code == 404
        assert r.json()["error"]["code"] == "unknown_pid"

    def test_content_requires_token(self, server, publisher):
        content = make_model_checkpoint("enc")
        pid = push(server, publisher.token,
                   content=content).json()["data"]["records"][0]["pid"]
        url = f"{server.address}/v1/artifacts/{pid}/content"

        anonymous = requests.get(url)
        assert anonymous.status_code == 401

        authed = requests.get(
            url, headers={"Authorization": f"Bearer {publisher.token}"})
        assert authed.status_code == 200
        assert authed.content == content
        assert authed.headers["X-Content-Digest"] == content_digest(content)

    def test_expired_token_code_is_distinct(self, server, store):
        expired = store.issue_token("eve", "publisher", ttl_seconds=0)
        r = push(server, expired.token)
        assert r.status_code == 401
        assert r.json()["error"]["code"] == "expired_token"

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_400_and_closes(self, server, publisher,
                                                  length):
        start = time.monotonic()
        status, _, body = raw_post(
            server, "/v1/artifacts",
            {"Authorization": f"Bearer {publisher.token}",
             "Content-Length": length})
        assert time.monotonic() - start < 2
        assert status == 400
        assert json.loads(body)["error"]["code"] == "malformed_document"

    def test_bad_token_push_is_401_before_the_body_is_read(self, server):
        # 10 of the 1,000,000 declared bytes are sent: a server that read
        # the body before the token would wait for the rest
        start = time.monotonic()
        status, head, body = raw_post(
            server, "/v1/artifacts",
            {"Authorization": "Bearer not-a-token",
             "Content-Length": 1000000}, b"x" * 10)
        assert time.monotonic() - start < 2
        assert status == 401
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"]["code"] == "unknown_token"


class TestSearchEndpoint:
    def test_conjunctive_tags(self, server, publisher):
        push(server, publisher.token,
             meta={**META, "title": "A", "tags": ["nlp"]},
             content=make_model_checkpoint("a"))
        push(server, publisher.token,
             meta={**META, "title": "B", "tags": ["nlp", "encoder"]},
             content=make_model_checkpoint("b"))
        r = requests.get(f"{server.address}/v1/search",
                         params={"tags": "nlp,encoder"})
        titles = {rec["title"] for rec in r.json()["data"]["records"]}
        assert titles == {"B", "B (onnx)"}

    def test_filters_combine(self, server, publisher):
        push(server, publisher.token,
             meta={**META, "title": "A", "tags": ["nlp"]},
             content=make_model_checkpoint("a"))
        r = requests.get(f"{server.address}/v1/search",
                         params={"tags": "nlp", "backend": "onnx"})
        records = r.json()["data"]["records"]
        assert records and all(rec["backend_tag"] == "onnx"
                               for rec in records)

    def test_no_matches_is_empty_list(self, server):
        r = requests.get(f"{server.address}/v1/search",
                         params={"tags": "absent"})
        assert r.status_code == 200
        assert r.json()["data"]["records"] == []


class TestTaskEndpoints:
    def test_submit_and_poll_collaboration(self, tmp_path, server,
                                           publisher):
        ws = build_demo_workspace(tmp_path / "ws")
        headers = {"Authorization": f"Bearer {publisher.token}"}

        # configs resolve paths against their own base_dir; raw bytes sent
        # over the wire lose it, so all paths must be absolute here
        conv = requests.post(
            f"{server.address}/v1/tasks",
            data=absolute_config(ws, "conversion.yaml").read_bytes(),
            headers=headers)
        assert conv.status_code == 202
        assert poll_task(server, conv.json()["data"]["task_id"])["status"] \
            == "succeeded"

        infer_body = absolute_config(ws, "collaboration.yaml").read_bytes()
        infer = requests.post(f"{server.address}/v1/tasks",
                              data=infer_body, headers=headers)
        assert infer.status_code == 202
        result = poll_task(server, infer.json()["data"]["task_id"])
        assert result["status"] == "succeeded", result
        assert result["outputs"] == [str(ws.root / "out.txt")]
        assert (ws.root / "out.txt").exists()

    def test_config_with_a_date_section_is_400(self, server, publisher):
        cfg = (b"general_args:\n  task: inference\n  backend: onnx\n"
               b"task_args:\n  model_file: m.onnx\n  input: in.txt\n"
               b"out_args:\n  export_file: o.txt\n"
               b"when: 2020-01-01\n")
        r = requests.post(
            f"{server.address}/v1/tasks", data=cfg,
            headers={"Authorization": f"Bearer {publisher.token}"})
        assert r.status_code == 400
        assert r.json()["error"]["code"] == "invalid_config"

    def test_invalid_config_is_400_with_violations(self, server, publisher):
        bad = (b"general_args:\n  task: \"inference\"\n"
               b"  backend: \"onnx\"\n"
               b"task_args:\n  model_file: \"m.onnx\"\n"
               b"out_args:\n  export_file: \"o.txt\"\n")
        violations = list(validate_config(parse_config(bad)).violations)
        assert "inference requires task_args.input" in violations
        r = requests.post(
            f"{server.address}/v1/tasks", data=bad,
            headers={"Authorization": f"Bearer {publisher.token}"})
        assert r.status_code == 400
        assert r.content == dumps_canonical(error_body(
            "invalid_config", "config failed validation",
            {"violations": violations}))

    def test_task_argument_of_the_wrong_kind_is_400(self, server,
                                                    publisher):
        bad = (b"general_args:\n  task: \"inference\"\n"
               b"  backend: \"onnx\"\n"
               b"task_args:\n  model_file: 5\n  input: \"in.txt\"\n"
               b"out_args:\n  export_file: \"o.txt\"\n")
        r = requests.post(
            f"{server.address}/v1/tasks", data=bad,
            headers={"Authorization": f"Bearer {publisher.token}"})
        assert r.status_code == 400
        assert r.json()["data"]["violations"] == [
            "inference: task_args.model_file must be a non-empty path or a "
            "non-empty list of non-empty paths"]

    @pytest.mark.parametrize("name, key", [
        ("conversion.yaml", "model_file"), ("container.yaml", "work_dir"),
        ("container.yaml", "build_file")])
    def test_empty_path_is_400(self, demo_workspace, server, publisher,
                               name, key):
        # "" would name the config's own directory on the server
        text = re.sub(rf"(?m)^(  {key}: ).*$", r'\1""',
                      absolute_config(demo_workspace, name).read_text())
        r = requests.post(
            f"{server.address}/v1/tasks", data=text.encode(),
            headers={"Authorization": f"Bearer {publisher.token}"})
        assert r.status_code == 400
        assert r.json()["error"]["code"] == "invalid_config"
        assert any(f"{key} must be a non-empty path" in v
                   for v in r.json()["data"]["violations"])

    def test_deeply_nested_config_is_400_not_500(self, server, publisher):
        r = requests.post(
            f"{server.address}/v1/tasks", data=b"[" * 100000,
            headers={"Authorization": f"Bearer {publisher.token}"})
        assert r.status_code == 400
        assert r.json()["error"]["code"] == "invalid_config"

    @pytest.mark.parametrize("doc", [b"[" * 100_000, b"- " * 100_000,
                                     b"{a: " * 100_000],
                             ids=["flow-sequences", "block-sequences",
                                  "flow-mappings"])
    def test_config_nested_past_the_bound_is_400(self, server, publisher,
                                                 doc):
        r = requests.post(
            f"{server.address}/v1/tasks", data=doc,
            headers={"Authorization": f"Bearer {publisher.token}"})
        assert r.status_code == 400
        assert r.json()["error"] == {
            "code": "invalid_config",
            "message": f"malformed config document: nested deeper than "
                       f"{_YAML_DEPTH}"}

    def test_task_submission_requires_token(self, server):
        r = requests.post(f"{server.address}/v1/tasks", data=b"x")
        assert r.status_code == 401

    def test_unknown_task_id_is_404(self, server):
        r = requests.get(f"{server.address}/v1/tasks/task-999999-deadbeef")
        assert r.status_code == 404
        assert r.json()["error"]["code"] == "unknown_task"

    def test_unknown_route_is_404(self, server):
        r = requests.get(f"{server.address}/v1/nothing")
        assert r.status_code == 404
        assert r.content == dumps_canonical(error_body(
            "not_found", "no route for /v1/nothing"))

    def test_first_posted_task_wins_an_export_collision(
            self, tmp_path, server, publisher, monkeypatch):
        ws = build_demo_workspace(tmp_path / "ws")
        body = absolute_config(ws, "conversion.yaml").read_bytes()

        # hold the first task's worker back until the second task is done,
        # so the first task runs, and would claim if it claimed late, last
        second_done = threading.Event()
        real_run = server._run_task

        def run_task(cfg, task_id):
            first = task_id.startswith("task-000001-")
            if first:
                second_done.wait(timeout=10)
            real_run(cfg, task_id)
            if not first:
                second_done.set()

        monkeypatch.setattr(server, "_run_task", run_task)
        headers = {"Authorization": f"Bearer {publisher.token}"}
        first, second = (
            requests.post(f"{server.address}/v1/tasks", data=body,
                          headers=headers).json()["data"]["task_id"]
            for _ in range(2))
        assert first.startswith("task-000001-")
        lost = poll_task(server, second)
        assert poll_task(server, first)["status"] == "succeeded"
        assert lost["status"] == "failed"
        assert lost["error"]["code"] == "export_collision"

    def test_non_path_export_file_is_400(self, server, publisher):
        cfg = (b"general_args:\n  task: \"container\"\n"
               b"  backend: \"mlcube\"\n"
               b"task_args:\n  work_dir: \"w\"\n  build_file: \"b\"\n"
               b"  build_tag: \"t\"\n  volume: \"/app\"\n"
               b"out_args:\n  export_file: 5\n")
        r = requests.post(
            f"{server.address}/v1/tasks", data=cfg,
            headers={"Authorization": f"Bearer {publisher.token}"})
        assert r.status_code == 400
        assert "out_args.export_file must be a path or a list of paths" \
            in r.json()["data"]["violations"]


    def test_export_onto_a_directory_is_a_failed_task(
            self, demo_workspace, server, publisher):
        (demo_workspace.root / "out_container.txt").mkdir()
        r = requests.post(
            f"{server.address}/v1/tasks",
            data=absolute_config(demo_workspace,
                                 "container.yaml").read_bytes(),
            headers={"Authorization": f"Bearer {publisher.token}"})
        assert r.status_code == 202
        result = poll_task(server, r.json()["data"]["task_id"])
        assert result["status"] == "failed"
        assert result["error"]["code"] == "invalid_config"


class TestTaskWait:
    """GET /v1/tasks/<id>?wait=<s> holds the reply until the task ends."""

    def test_wait_returns_when_the_task_ends(self, server, publisher,
                                             tmp_path, gate):
        task_id = submit(server, publisher.token, tmp_path)
        threading.Timer(0.2, gate.set).start()
        r, took = timed_get(f"{server.address}/v1/tasks/{task_id}",
                            params={"wait": 20})
        assert r.json()["data"]["status"] == "failed"
        assert 0.15 < took < 5.0

    def test_without_wait_the_reply_is_unchanged(self, server, publisher,
                                                 tmp_path, gate):
        task_id = submit(server, publisher.token, tmp_path)
        url = f"{server.address}/v1/tasks/{task_id}"
        r, took = timed_get(url)
        assert took < 2.0
        assert r.content == (b'{"ok":true,"data":{"task_id":"' +
                             task_id.encode() + b'","status":"running"}}\n')
        assert requests.get(url, params={"wait": 0}).content == r.content
        gate.set()
        done = poll_task(server, task_id)
        assert requests.get(url).content == dumps_canonical(
            {"ok": True, "data": done})

    def test_wait_above_the_cap_is_clamped(self, server, publisher,
                                           tmp_path, gate, monkeypatch):
        monkeypatch.setattr(server_module, "_WAIT_CAP_SECONDS", 0.3)
        task_id = submit(server, publisher.token, tmp_path)
        r, took = timed_get(f"{server.address}/v1/tasks/{task_id}",
                            params={"wait": 1000})
        assert r.json()["data"]["status"] == "running"
        assert 0.25 < took < 5.0

    @pytest.mark.parametrize("wait", ["soon", "-1", "nan", "NaN", ""])
    def test_bad_wait_is_400(self, server, publisher, tmp_path, wait):
        task_id = submit(server, publisher.token, tmp_path)
        r = requests.get(f"{server.address}/v1/tasks/{task_id}?wait={wait}")
        assert r.status_code == 400
        assert r.json()["error"]["code"] == "invalid_config"

    def test_unknown_id_with_wait_is_404_at_once(self, server):
        r, took = timed_get(f"{server.address}/v1/tasks/task-999999-deadbeef",
                            params={"wait": 20})
        assert r.status_code == 404
        assert r.json()["error"]["code"] == "unknown_task"
        assert took < 2.0

    def test_stop_releases_a_held_poll(self, store, publisher, tmp_path):
        server = HpcfairServer(store).start()
        release = hold_tasks(server)
        task_id = submit(server, publisher.token, tmp_path)
        replies = []
        waiter = threading.Thread(target=lambda: replies.append(timed_get(
            f"{server.address}/v1/tasks/{task_id}", params={"wait": 20})))
        waiter.start()
        time.sleep(0.5)  # let the poll reach the server and block
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        (r, took), = replies
        assert r.json()["data"]["status"] == "running"
        assert took < 5.0
        release.set()  # stop() waits for the running task
        stopper.join(timeout=10)
        assert not stopper.is_alive()

    def test_oldest_result_is_dropped_past_the_bound(self, server,
                                                     publisher, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(server_module, "_RESULTS_KEPT", 2)
        ids = []
        for i in range(3):  # one at a time, so they end in this order
            ids.append(submit(server, publisher.token, tmp_path, f"o{i}.txt"))
            poll_task(server, ids[-1])
        r = requests.get(f"{server.address}/v1/tasks/{ids[0]}")
        assert r.status_code == 404
        assert r.json()["error"]["code"] == "unknown_task"
        for task_id in ids[1:]:
            assert requests.get(f"{server.address}/v1/tasks/{task_id}"
                                ).json()["data"]["status"] == "failed"

    def test_a_poll_on_a_dropped_result_wakes_with_404(
            self, server, publisher, tmp_path, gate, monkeypatch):
        monkeypatch.setattr(server_module, "_RESULTS_KEPT", 0)
        task_id = submit(server, publisher.token, tmp_path)
        threading.Timer(0.2, gate.set).start()
        r, took = timed_get(f"{server.address}/v1/tasks/{task_id}",
                            params={"wait": 20})
        assert r.status_code == 404
        assert r.json()["error"]["code"] == "unknown_task"
        assert took < 5.0


class TestKeepAlive:
    def test_replies_on_one_connection_do_not_stall(self, server):
        # a reply written as headers then body waits about 40 ms for the
        # client's delayed ACK unless the server disables Nagle
        with requests.Session() as session:
            session.get(f"{server.address}/v1/search", params={"tags": "x"})
            started = time.monotonic()
            for _ in range(20):
                r = session.get(f"{server.address}/v1/search",
                                params={"tags": "x"})
                assert r.status_code == 200
            took = time.monotonic() - started
        assert took < 20 * 0.040 / 2

    def test_a_refused_post_leaves_the_connection_usable(self, server):
        # the unread body of a refused POST must not be read as the start
        # of the next request on the connection
        with requests.Session() as session:
            r = session.post(f"{server.address}/v1/tasks", data=b"x" * 10)
            assert r.status_code == 401
            r = session.get(f"{server.address}/v1/search",
                            params={"tags": "x"})
            assert r.status_code == 200
            assert r.json() == {"ok": True, "data": {"records": []}}


class TestMetadataFields:
    """Malformed metadata is a 400 naming the field and stores nothing."""

    @pytest.mark.parametrize("field, value", [
        ("title", 123), ("license", 7), ("tags", "abc"), ("tags", 5),
        ("provenance", [1]), ("version", True)])
    def test_bad_field_is_400_and_stores_nothing(self, server, store,
                                                 publisher, field, value):
        r = push(server, publisher.token, meta={**META, field: value})
        assert r.status_code == 400
        error = r.json()["error"]
        assert error["code"] == "invalid_artifact"
        assert error["message"].startswith(field)
        assert store.all_records() == []

    def test_title_search_survives_a_bad_title_and_a_reopen(self, server,
                                                            store,
                                                            publisher):
        assert push(server, publisher.token,
                    meta={**META, "title": 123}).status_code == 400
        assert push(server, publisher.token).status_code == 201
        r = requests.get(f"{server.address}/v1/search",
                         params={"title": "enc"})
        assert r.status_code == 200
        assert len(r.json()["data"]["records"]) == 2
        reopened = Registry(store.root).search(
            SearchQuery(title_substring="enc"))
        assert sorted(rec.title for rec in reopened) == ["Encoder",
                                                         "Encoder (onnx)"]

    def test_deeply_nested_metadata_is_400(self, server, publisher):
        r = requests.post(
            f"{server.address}/v1/artifacts",
            data=b"[" * 100_000 + b"\nx",
            headers={"Authorization": f"Bearer {publisher.token}"})
        assert r.status_code == 400
        assert r.json()["error"]["code"] == "invalid_artifact"


class TestProtocolMirrorsRegistry:
    def test_search_over_http_equals_direct_search(self, server, store,
                                                   publisher):
        from hpcfair.registry import SearchQuery
        for label in ("a", "b", "c"):
            push(server, publisher.token,
                 meta={**META, "title": label.upper(), "tags": ["nlp"]},
                 content=make_model_checkpoint(label))
        http_records = requests.get(
            f"{server.address}/v1/search",
            params={"tags": "nlp"}).json()["data"]["records"]
        direct = [r.to_dict() for r in store.search(SearchQuery(
            tags=("nlp",)))]
        assert http_records == direct

    def test_metadata_over_http_equals_direct_fetch(self, server, store,
                                                    publisher):
        pid = push(server,
                   publisher.token).json()["data"]["records"][0]["pid"]
        via_http = requests.get(
            f"{server.address}/v1/artifacts/{pid}").json()["data"]["record"]
        assert via_http == store.fetch_metadata(pid).to_dict()

    def test_record_replies_are_the_canonical_bytes(self, server, store,
                                                    publisher,
                                                    monkeypatch):
        """Every record reply is byte for byte ``dumps_canonical`` of the
        in-process result: pushes, metadata reads and searches."""
        pushed = []
        register = store.register_artifact

        def recording(*args, **kwargs):
            pushed.append(register(*args, **kwargs))
            return pushed[-1]

        monkeypatch.setattr(store, "register_artifact", recording)
        pool = ["nlp", "vision", "audio", "encoder"]
        uploads = [({**META, "title": "Modèle ☃ Encoder", "tags": ["nlp"]},
                     make_model_checkpoint("unicode"))]
        for i in range(5):  # 0 to 4 tags
            uploads.append(({"title": f"Set {i} – ümlaut",
                             "artifact_type": "dataset",
                             "backend_tag": ("csv", "jsonl")[i % 2],
                             "tags": pool[:i]}, f"set {i}".encode()))
        replies = []
        for meta, content in uploads:
            r = push(server, publisher.token, meta=meta, content=content)
            assert r.status_code == 201, r.text
            replies.append(r.content)
        assert len(pushed[0]) == 2  # the pt push and its companion
        assert pushed[0][1].provenance == ((pushed[0][0].pid,
                                            "converted-from"),)
        assert {len(records[0].tags) for records in pushed[1:]} == \
            {0, 1, 2, 3, 4}
        for reply, records in zip(replies, pushed):
            assert reply == dumps_canonical(ok_body(
                {"records": [r.to_dict() for r in records]}))

        for records in pushed:
            for record in records:
                r = requests.get(f"{server.address}/v1/artifacts/"
                                 f"{record.pid}")
                assert r.content == dumps_canonical(ok_body(
                    {"record": store.fetch_metadata(record.pid).to_dict()}))

        queries = [
            ({"tags": "nlp"}, SearchQuery(tags=("nlp",))),
            ({"tags": " NLP , Vision "}, SearchQuery(tags=("NLP", "Vision"))),
            ({"tags": "nlp,vision,audio,encoder"},
             SearchQuery(tags=("nlp", "vision", "audio", "encoder"))),
            ({"tags": "absent"}, SearchQuery(tags=("absent",))),
            ({"type": "dataset"}, SearchQuery(artifact_type="dataset")),
            ({"backend": "onnx"}, SearchQuery(backend_tag="onnx")),
            ({"title": "MODÈLE"}, SearchQuery(title_substring="MODÈLE")),
            ({"title": "modèle"}, SearchQuery(title_substring="modèle")),
            ({"title": "ümlaut", "backend": "jsonl", "tags": "nlp"},
             SearchQuery(tags=("nlp",), backend_tag="jsonl",
                         title_substring="ümlaut")),
        ]
        found = []
        for params, query in queries:
            r = requests.get(f"{server.address}/v1/search", params=params)
            assert r.status_code == 200
            found.append(store.search(query))
            assert r.content == dumps_canonical(ok_body(
                {"records": [rec.to_dict() for rec in found[-1]]})), params
        # every query but the absent tag finds something
        assert [bool(records) for records in found] == \
            [params != {"tags": "absent"} for params, _ in queries]


class TestErrorDetails:
    """An error's ``details`` are the same in process and over HTTP."""

    def test_a_duplicate_has_the_same_details_locally_and_remotely(
            self, server, store, publisher):
        content = make_model_checkpoint("enc")
        store.register_artifact(content, ArtifactDraft.from_dict(META),
                                publisher.token)
        with pytest.raises(DuplicateContentError) as local:
            store.register_artifact(content, ArtifactDraft.from_dict(META),
                                    publisher.token)
        with pytest.raises(HpcfairError) as remote:
            client.request(server.address, "POST", "/v1/artifacts",
                           token=publisher.token,
                           data=json.dumps(META).encode() + b"\n" + content)
        assert remote.value.code == local.value.code
        assert remote.value.details == local.value.details
        assert local.value.existing_pid == local.value.details["pid"]


class TestRequestBody:
    """A body is read whole, and only up to the server's bound."""

    @pytest.mark.parametrize("path", ["/v1/artifacts", "/v1/tasks"])
    def test_a_short_body_is_malformed_and_stores_nothing(
            self, server, store, publisher, path):
        body = json.dumps(META).encode() + b"\nabc"
        status, head, reply = raw_post(
            server, path, {"Authorization": f"Bearer {publisher.token}",
                           "Content-Length": len(body) + 1000},
            body, shut=True)
        assert status == 400
        assert b"\r\nConnection: close" in head
        assert json.loads(reply)["error"] == {
            "code": "malformed_document",
            "message": f"request body ended after {len(body)} of "
                       f"{len(body) + 1000} bytes"}
        assert store.all_records() == []

    @pytest.mark.parametrize("path", ["/v1/artifacts", "/v1/tasks"])
    @pytest.mark.parametrize("length", [
        pytest.param(server_module._BODY_LIMIT_BYTES + 1, id="limit+1"),
        pytest.param(100 * 2 ** 30, id="100GiB"),
        pytest.param("9" * 5000, id="5000-digits")])
    def test_a_body_over_the_bound_is_413_before_any_read(
            self, server, publisher, path, length):
        start = time.monotonic()
        status, head, reply = raw_post(
            server, path, {"Authorization": f"Bearer {publisher.token}",
                           "Content-Length": length}, b"x" * 10)
        assert time.monotonic() - start < 2
        assert status == 413
        assert b"\r\nConnection: close" in head
        assert json.loads(reply)["error"]["code"] == "body_too_large"

    def test_a_body_at_the_bound_is_read(self, server, publisher,
                                         monkeypatch):
        body = json.dumps(META).encode() + b"\n" \
            + make_model_checkpoint("enc")
        monkeypatch.setattr(server_module, "_BODY_LIMIT_BYTES", len(body))
        status, _, _ = raw_post(
            server, "/v1/artifacts",
            {"Authorization": f"Bearer {publisher.token}",
             "Content-Length": len(body), "Connection": "close"}, body)
        assert status == 201
