"""Dispatcher behavior: ids, routing, claims, and batch submission."""

import dataclasses
import hashlib
import json
import logging
import re
import shutil
import sys
import threading

import pytest

from hpcfair import runtime
from hpcfair.config import load_config, serialize_config
from hpcfair.interchange import compose_graphs, parse_graph
from hpcfair.registry import ArtifactDraft
from hpcfair.runtime import NamedTensorSet, execute, parse_tensor_set, \
    serialize_tensor_set
from hpcfair.tasks import Dispatcher

from conftest import build_demo_workspace


def conversion_cfg(ws):
    return load_config(ws.root / "conversion.yaml")


def collaboration_cfg(ws):
    return load_config(ws.root / "collaboration.yaml")


class TestTaskIds:
    def test_id_embeds_counter_and_config_digest(self, demo_workspace):
        d = Dispatcher()
        cfg = conversion_cfg(demo_workspace)
        digest = hashlib.sha256(serialize_config(cfg)).hexdigest()[:8]
        assert d.next_task_id(cfg) == f"task-000001-{digest}"
        assert d.next_task_id(cfg) == f"task-000002-{digest}"

    def test_same_config_runs_get_distinct_ids_same_outputs(
            self, demo_workspace):
        d = Dispatcher()
        cfg = conversion_cfg(demo_workspace)
        a = d.dispatch(cfg)
        b = d.dispatch(cfg)
        assert a.task_id != b.task_id
        assert a.status == b.status == "succeeded"
        assert a.outputs == b.outputs


class TestDispatch:
    def test_conversion_config_succeeds(self, demo_workspace):
        result = Dispatcher().dispatch(conversion_cfg(demo_workspace))
        assert result.status == "succeeded"
        assert [p.rsplit("/", 1)[-1] for p in result.outputs] \
            == ["encoder.onnx", "decoder.onnx"]
        assert any("routing task 'conversion'" in line for line in result.log)
        assert any("succeeded" in line for line in result.log)

    def test_inference_chain_succeeds(self, demo_workspace):
        d = Dispatcher()
        assert d.dispatch(conversion_cfg(demo_workspace)).status \
            == "succeeded"
        result = d.dispatch(collaboration_cfg(demo_workspace))
        assert result.status == "succeeded"
        assert result.outputs[0].endswith("out.txt")

    def test_missing_model_file_fails_with_its_name(self, demo_workspace):
        # inference before conversion: encoder.onnx does not exist yet
        result = Dispatcher().dispatch(collaboration_cfg(demo_workspace))
        assert result.status == "failed"
        assert result.error["code"] == "execution_error"
        assert "model file not found: encoder.onnx" in result.error["message"]
        assert result.outputs == ()

    def test_invalid_config_fails_before_running(self, demo_workspace):
        cfg = collaboration_cfg(demo_workspace)
        del cfg.task_args["input"]
        result = Dispatcher().dispatch(cfg)
        assert result.status == "failed"
        assert result.error["code"] == "invalid_config"
        assert "inference requires task_args.input" in result.error["message"]

    def test_non_finite_checkpoint_weight_fails_typed(self, demo_workspace):
        encoder = json.loads(json.dumps(demo_workspace.encoder_doc))
        encoder["layers"][0]["weight"][0][0] = 1e39  # inf as f32
        (demo_workspace.root / "ckpt" / "encoder.ckpt").write_text(
            json.dumps(encoder))
        result = Dispatcher().dispatch(conversion_cfg(demo_workspace))
        assert result.status == "failed"
        assert result.error["code"] == "malformed_document"

    @pytest.mark.parametrize("data", [["a"] * 4, [True] * 4,
                                      [1e39, 0.0, 0.0, 0.0]])
    def test_malformed_inference_input_fails_typed(self, demo_workspace,
                                                   data):
        d = Dispatcher()
        assert d.dispatch(conversion_cfg(demo_workspace)).status \
            == "succeeded"
        (demo_workspace.root / "input.txt").write_text(json.dumps(
            [{"name": "x", "dtype": "f32", "shape": [1, 4], "data": data}]))
        result = d.dispatch(collaboration_cfg(demo_workspace))
        assert result.status == "failed"
        assert result.error["code"] == "malformed_document"

    @pytest.mark.parametrize("name, export", [
        ("conversion.yaml", "decoder.onnx"), ("collaboration.yaml", "out.txt"),
        ("container.yaml", "out_container.txt"),
        ("conversion.yaml", "input.txt/decoder.onnx"),
        ("collaboration.yaml", "input.txt/out.txt"),
        ("container.yaml", "input.txt/out_container.txt"),
        ("collaboration.yaml", "input.txt/sub/out.txt")])
    def test_export_onto_a_directory_is_an_invalid_config(
            self, demo_workspace, name, export):
        d = Dispatcher()
        if name == "collaboration.yaml":  # its models must exist
            assert d.dispatch(conversion_cfg(demo_workspace)).status \
                == "succeeded"
        cfg = load_config(demo_workspace.root / name)
        target = demo_workspace.root / export
        if export.startswith("input.txt/"):  # under a regular file
            files = cfg.export_files
            cfg.out["export_file"] = [*files[:-1], export] \
                if len(files) > 1 else export
            message = f"export path lies under a regular file: {target}"
        else:
            target.mkdir()
            message = f"export path is a directory: {target}"
        result = d.dispatch(cfg)
        assert result.status == "failed"
        assert result.error == {"code": "invalid_config", "message": message}
        assert not any("routing" in line for line in result.log)
        if name == "conversion.yaml":  # nothing ran, so nothing is written
            assert not (demo_workspace.root / "encoder.onnx").exists()

    @pytest.mark.parametrize("kind", ["invalid config", "collision",
                                      "export onto a directory",
                                      "export under a regular file"])
    def test_a_refusal_is_logged_like_any_failure(self, demo_workspace,
                                                  caplog, kind):
        d = Dispatcher()
        cfg = load_config(demo_workspace.root / "container.yaml")
        if kind == "invalid config":
            del cfg.task_args["build_tag"]
        elif kind == "collision":
            d._claim([str(cfg.resolve("out_container.txt"))])
        elif kind == "export onto a directory":
            (demo_workspace.root / "out_container.txt").mkdir()
        else:
            cfg.out["export_file"] = "input.txt/out_container.txt"
        caplog.set_level(logging.INFO, logger="hpcfair.tasks")
        result = d.dispatch(cfg)
        assert result.status == "failed"
        assert re.fullmatch(r"\S+Z failed: (.*)", result.log[-1]).group(1) \
            == result.error["message"]
        assert not any("routing" in line for line in result.log)
        records = [r for r in caplog.records if r.name == "hpcfair.tasks"]
        assert [r.levelno for r in records] == [logging.INFO]

    def test_log_lines_are_stamped_to_the_millisecond(self, demo_workspace):
        result = Dispatcher().dispatch(conversion_cfg(demo_workspace))
        assert len(result.log) == 3
        for line in result.log:
            assert re.match(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z ",
                            line), line

    def test_container_task_logs_run_line(self, demo_workspace):
        result = Dispatcher().dispatch(
            load_config(demo_workspace.root / "container.yaml"))
        assert result.status == "succeeded", result.error
        assert result.outputs[0].endswith("out_container.txt")
        run_lines = [line for line in result.log if " run run-" in line]
        assert len(run_lines) == 1
        assert re.search(r"run run-[0-9a-f]{16}: image [0-9a-f]{12} exit 0 "
                         r"input [0-9a-f]{12} output [0-9a-f]{12}",
                         run_lines[0])

    def test_rerun_after_completion_is_allowed(self, demo_workspace):
        d = Dispatcher()
        cfg = conversion_cfg(demo_workspace)
        assert d.dispatch(cfg).status == "succeeded"
        assert d.dispatch(cfg).status == "succeeded"

    def test_dispatch_against_held_claim_reports_collision(
            self, demo_workspace):
        d = Dispatcher()
        cfg = conversion_cfg(demo_workspace)
        held = str(cfg.resolve("encoder.onnx"))
        d._claim([held])  # stands in for a task that is still running
        result = d.dispatch(cfg)
        assert result.status == "failed"
        assert result.error["code"] == "export_collision"
        assert result.error["message"] \
            == f"export path already claimed by a running task: {held}"

    def test_later_submission_loses_whichever_runs_first(self,
                                                         demo_workspace):
        d = Dispatcher()
        cfg = conversion_cfg(demo_workspace)
        first, second = d.submit(cfg), d.submit(cfg)
        lost = d.execute(cfg, second)
        assert lost.error["code"] == "export_collision"
        assert d.execute(cfg, first).status == "succeeded"
        assert d.dispatch(cfg).status == "succeeded"  # every claim released

    def test_non_path_export_file_is_an_invalid_config(self,
                                                       demo_workspace):
        d = Dispatcher()
        cfg = load_config(demo_workspace.root / "container.yaml")
        for bad in (5, ["out.txt", None], "a\0b"):
            cfg.out["export_file"] = bad
            result = d.dispatch(cfg)
            assert result.status == "failed"
            assert result.error["code"] == "invalid_config"
            assert "out_args.export_file must be a path or a list of " \
                "paths" in result.error["message"]

    @pytest.mark.parametrize("name, key", [
        ("conversion.yaml", "model_file"), ("container.yaml", "work_dir"),
        ("container.yaml", "build_file")])
    def test_empty_path_is_an_invalid_config(self, demo_workspace, name,
                                             key):
        # "" would resolve to the config's own directory
        cfg = load_config(demo_workspace.root / name)
        cfg.task_args[key] = ""
        result = Dispatcher().dispatch(cfg)
        assert result.status == "failed"
        assert result.error["code"] == "invalid_config"
        assert f"{key} must be a non-empty path" in result.error["message"]

    def test_concurrent_submissions_claim_one_path_once(self, tmp_path):
        # the work dir is missing, so the one task holding the claim fails
        # fast with a sandbox error and every other with a collision
        cfg = load_config(build_demo_workspace(tmp_path).root
                          / "container.yaml")
        cfg.task_args["work_dir"] = "absent"
        d = Dispatcher()
        ids: list[str] = []
        barrier = threading.Barrier(8)

        def submit_many_times():
            barrier.wait(timeout=10)
            for _ in range(25):
                ids.append(d.submit(cfg))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit_many_times)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        codes = sorted(d.execute(cfg, task_id).error["code"]
                       for task_id in ids)
        assert len(set(ids)) == 200
        assert codes == ["export_collision"] * 199 + ["sandbox_error"]
        assert d.dispatch(cfg).error["code"] == "sandbox_error"


class TestSubmitMany:
    def make_batch(self, tmp_path, n):
        configs = []
        for i in range(n):
            ws = build_demo_workspace(tmp_path / f"w{i}", seed=42 + i)
            configs.append(conversion_cfg(ws))
        return configs

    def test_results_come_back_in_submission_order(self, tmp_path):
        configs = self.make_batch(tmp_path, 4)
        results = Dispatcher().submit_many(configs, worker_num=2)
        for cfg, result in zip(configs, results):
            want = str(cfg.resolve("encoder.onnx"))
            assert result.outputs[0] == want

    def test_worker_counts_agree_with_serial_baseline(self, tmp_path):
        def run(worker_num):
            configs = self.make_batch(tmp_path / str(worker_num), 6)
            results = Dispatcher().submit_many(configs, worker_num)
            return [(r.status, tuple(p.rsplit("/", 2)[-1] for p in
                                     r.outputs)) for r in results]

        serial = run(1)
        assert run(2) == serial
        assert run(4) == serial
        assert all(status == "succeeded" for status, _ in serial)

    def test_forced_collision_fails_exactly_one(self, demo_workspace):
        cfg = conversion_cfg(demo_workspace)
        twin = dataclasses.replace(cfg)  # same export paths
        results = Dispatcher().submit_many([cfg, twin], worker_num=2)
        statuses = [r.status for r in results]
        assert sorted(statuses) == ["failed", "succeeded"]
        # the later submission loses
        assert results[0].status == "succeeded"
        failed = results[1]
        assert failed.error["code"] == "export_collision"
        assert failed.error["message"] == ("export path already claimed by "
                                           "a concurrently submitted task")

    def test_batch_ids_are_unique_and_monotone(self, tmp_path):
        configs = self.make_batch(tmp_path, 3)
        results = Dispatcher().submit_many(configs, worker_num=3)
        counters = [int(r.task_id.split("-")[1]) for r in results]
        assert counters == sorted(counters)
        assert len(set(r.task_id for r in results)) == 3

    @pytest.mark.parametrize("worker_num", [0, 1])
    def test_fewer_than_two_workers_still_run_the_batch(self, tmp_path,
                                                        worker_num):
        configs = self.make_batch(tmp_path, 2)
        results = Dispatcher().submit_many(configs, worker_num=worker_num)
        assert [r.status for r in results] == ["succeeded", "succeeded"]

    def test_collision_with_a_task_outside_the_batch(self, demo_workspace):
        d = Dispatcher()
        cfg = conversion_cfg(demo_workspace)
        held = str(cfg.resolve("encoder.onnx"))
        d._claim([held])  # stands in for a task that is still running
        [result] = d.submit_many([cfg])
        assert result.error["message"] \
            == f"export path already claimed by a running task: {held}"


class TestPlans:
    """A Dispatcher keeps one plan per set of model bytes, never stale."""

    def converted(self, ws, store=None) -> Dispatcher:
        d = Dispatcher(store=store)
        assert d.dispatch(conversion_cfg(ws)).status == "succeeded"
        return d

    def count_prepares(self, monkeypatch) -> list:
        calls = []
        real = runtime.prepare

        def prepare(graph):
            calls.append(graph.name)
            return real(graph)
        monkeypatch.setattr(runtime, "prepare", prepare)
        return calls

    def composed(self, ws):
        encoder, decoder = (parse_graph((ws.root / name).read_bytes())
                            for name in ("encoder.onnx", "decoder.onnx"))
        return compose_graphs(encoder, decoder, [
            (src.name, dst.name)
            for src, dst in zip(encoder.outputs, decoder.inputs)])

    def uncached_output(self, ws) -> bytes:
        graph = self.composed(ws)
        x = parse_tensor_set((ws.root / "input.txt").read_bytes())["x"]
        return serialize_tensor_set(execute(graph, NamedTensorSet.from_tensors(
            [x.renamed(graph.inputs[0].name)])))

    def test_a_rerun_pair_is_prepared_once(self, demo_workspace,
                                           monkeypatch):
        d = self.converted(demo_workspace)
        want = self.uncached_output(demo_workspace)
        prepared = self.count_prepares(monkeypatch)
        for _ in range(3):
            assert d.dispatch(collaboration_cfg(demo_workspace)).status \
                == "succeeded"
            assert (demo_workspace.root / "out.txt").read_bytes() == want
        assert prepared == ["encoder+decoder"]

    def test_overwritten_blob_of_a_cached_pid_fails_its_check(
            self, demo_workspace, store, publisher):
        d = self.converted(demo_workspace, store)
        cfg = collaboration_cfg(demo_workspace)
        cfg.task_args["model_file"] = [
            store.register_artifact(
                (demo_workspace.root / name).read_bytes(),
                ArtifactDraft(name, "model", "onnx"), publisher)[0].pid
            for name in ("encoder.onnx", "decoder.onnx")]
        assert d.dispatch(cfg).status == "succeeded"
        record = store.fetch_metadata(cfg.task_args["model_file"][1])
        store._blob_path(record.content_hash).write_bytes(
            (demo_workspace.root / "encoder.onnx").read_bytes())
        result = d.dispatch(cfg)
        assert result.status == "failed"
        assert result.error["code"] == "integrity_failure"

    def test_rewritten_model_file_runs_as_rewritten(self, tmp_path):
        ws = build_demo_workspace(tmp_path / "a")
        other = build_demo_workspace(tmp_path / "b", seed=43)
        d = self.converted(ws)
        assert d.dispatch(conversion_cfg(other)).status == "succeeded"
        assert d.dispatch(collaboration_cfg(ws)).status == "succeeded"
        before = (ws.root / "out.txt").read_bytes()
        shutil.copyfile(other.root / "decoder.onnx", ws.root / "decoder.onnx")
        assert d.dispatch(collaboration_cfg(ws)).status == "succeeded"
        after = (ws.root / "out.txt").read_bytes()
        assert after != before
        assert after == self.uncached_output(ws)

    def test_concurrent_copies_match_an_uncached_execute(
            self, demo_workspace, monkeypatch):
        d = self.converted(demo_workspace)
        want = self.uncached_output(demo_workspace)
        prepared = self.count_prepares(monkeypatch)
        configs = [collaboration_cfg(demo_workspace) for _ in range(16)]
        for i, cfg in enumerate(configs):
            cfg.out["export_file"] = f"out{i}.txt"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = d.submit_many(configs, worker_num=8)
        finally:
            sys.setswitchinterval(interval)
        assert [r.status for r in results] == ["succeeded"] * 16
        for i in range(16):
            assert (demo_workspace.root / f"out{i}.txt").read_bytes() == want
        # racing misses may each build; a later run finds the kept plan
        built = len(prepared)
        assert 1 <= built <= 8
        assert d.dispatch(configs[0]).status == "succeeded"
        assert len(prepared) == built

    def test_plan_over_the_byte_bound_is_not_kept(self, demo_workspace,
                                                  monkeypatch):
        d = self.converted(demo_workspace)
        want = self.uncached_output(demo_workspace)
        pair = collaboration_cfg(demo_workspace)
        encoder = dataclasses.replace(
            pair, general=dataclasses.replace(pair.general, tag=None),
            task_args=dict(pair.task_args, model_file="encoder.onnx"),
            out={"export_file": "encoded.txt"})
        # room for the encoder's plan, not the pair's
        small = runtime.prepare(parse_graph(
            (demo_workspace.root / "encoder.onnx").read_bytes())).nbytes
        assert runtime.prepare(self.composed(demo_workspace)).nbytes > small
        monkeypatch.setattr(runtime, "_PLAN_BYTES_KEPT", small)
        prepared = self.count_prepares(monkeypatch)
        for cfg in (encoder, pair, pair, encoder):
            assert d.dispatch(cfg).status == "succeeded"
        assert (demo_workspace.root / "out.txt").read_bytes() == want
        # the pair ran twice without a kept plan, and evicted nothing
        assert prepared == ["encoder", "encoder+decoder", "encoder+decoder"]

    def test_least_recently_used_plan_is_dropped_first(self, tmp_path,
                                                        monkeypatch):
        first = build_demo_workspace(tmp_path / "a")
        second = build_demo_workspace(tmp_path / "b", seed=43)
        d = self.converted(first)
        assert d.dispatch(conversion_cfg(second)).status == "succeeded"
        # room for one demo pair's plan, not two
        one_pair = runtime.prepare(self.composed(first)).nbytes
        monkeypatch.setattr(runtime, "_PLAN_BYTES_KEPT", one_pair * 3 // 2)
        prepared = self.count_prepares(monkeypatch)
        for ws in (first, first, second, second, first):
            assert d.dispatch(collaboration_cfg(ws)).status == "succeeded"
        assert len(prepared) == 3
