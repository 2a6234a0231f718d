"""Task configuration parsing, validation, and canonical serialization."""

import textwrap

import pytest

from hpcfair.config import (
    as_list,
    load_config,
    parse_config,
    serialize_config,
    validate_config,
)
from hpcfair.errors import ConfigError

from conftest import FIXTURES

MINIMAL_INFERENCE = textwrap.dedent("""\
    general_args:
      task: "inference"
      backend: "onnx"

    device_args:
      worker_num: 1
      device: "cpu"

    task_args:
      model_name: "m"
      model_file: "m.onnx"
      input: "in.txt"

    out_args:
      export_file: "o.txt"
""")


class TestParse:
    def test_conversion_listing_values(self):
        cfg = load_config(FIXTURES / "conversion.yaml")
        assert cfg.general.task == "conversion"
        assert cfg.general.backend == ["pt", "tf"]
        assert cfg.general.tag is None
        assert cfg.device.worker_num == 4
        assert cfg.device.device == "cpu"
        assert cfg.task_args["model_name"] == ["encoder", "decoder"]
        assert cfg.task_args["model_file"] == ["./ckpt/encoder.ckpt",
                                               "./ckpt/decoder.ckpt"]
        assert cfg.task_args["onnx_version"] == 10
        assert cfg.task_section == "model_args"
        assert cfg.out["export_file"] == ["encoder.onnx", "decoder.onnx"]
        assert cfg.base_dir == FIXTURES

    def test_collaboration_listing_values(self):
        cfg = load_config(FIXTURES / "collaboration.yaml")
        assert cfg.general.task == "inference"
        assert cfg.general.tag == "collaboration"
        assert cfg.task_args["input"] == "input.txt"
        assert cfg.task_section == "task_args"
        assert cfg.export_files == ["out.txt"]

    def test_missing_general_args_rejected(self):
        with pytest.raises(ConfigError, match="general_args"):
            parse_config("device_args:\n  worker_num: 1\n")

    def test_both_task_sections_rejected(self):
        text = MINIMAL_INFERENCE + "\nmodel_args:\n  model_name: 'x'\n"
        with pytest.raises(ConfigError,
                           match="aliases; supply exactly one"):
            parse_config(text)

    def test_neither_task_section_flagged_by_validation(self):
        text = textwrap.dedent("""\
            general_args:
              task: "inference"
              backend: "onnx"
            out_args:
              export_file: "o.txt"
        """)
        report = validate_config(parse_config(text))
        assert "config has no 'task_args'/'model_args' section" \
            in report.violations

    def test_unknown_key_lands_in_extras_with_warning(self):
        text = MINIMAL_INFERENCE.replace(
            'device: "cpu"', 'device: "cpu"\n  cuda_version: 11')
        cfg = parse_config(text)
        assert cfg.extras["device_args.cuda_version"] == 11
        assert any("unknown key 'device_args.cuda_version'" in w
                   for w in cfg.warnings)

    def test_unknown_section_lands_in_extras(self):
        text = MINIMAL_INFERENCE + "\nscheduler_args:\n  queue: 'fast'\n"
        cfg = parse_config(text)
        assert cfg.extras["scheduler_args"] == {"queue": "fast"}
        assert any("unknown section 'scheduler_args'" in w
                   for w in cfg.warnings)

    def test_scalar_and_list_sections_land_in_extras(self):
        cfg = parse_config(MINIMAL_INFERENCE + "queue: fast\nnodes: [1, 2]\n")
        assert cfg.extras["queue"] == "fast"
        assert cfg.extras["nodes"] == [1, 2]
        serialize_config(cfg)

    @pytest.mark.parametrize("extra", [
        "when: 2020-01-01\n",
        "a: {1: x}\nb: {y: 2}\n",
        "1: x\n",
        "a: {b: {c: 1}}\n",
        "a: [[1]]\n",
        "a: !!binary aGk=\n",
        "a: .nan\n",
        "a: [.inf]\n",
        'a: "\\ud800"\n',
    ], ids=["date", "mixed-keys", "int-section", "nested", "nested-list",
            "binary", "nan", "inf", "surrogate"])
    def test_section_outside_the_value_rule_is_rejected(self, extra):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_INFERENCE + extra)
        assert err.value.code == "invalid_config"

    @pytest.mark.parametrize("value", ["2020-01-01", ".nan", "{1: x}"])
    def test_known_section_values_must_serialize(self, value):
        text = MINIMAL_INFERENCE.replace('input: "in.txt"',
                                         f"input: {value}")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_bytes_that_are_not_utf8_are_invalid(self):
        with pytest.raises(ConfigError):
            parse_config(b"general_args:\n  task: \xff\n")

    def test_defaults(self):
        cfg = parse_config(MINIMAL_INFERENCE)
        assert cfg.device.gpu_mapping_file is None
        assert cfg.device.gpu_mapping_key is None
        assert cfg.extras == {}

    def test_worker_num_defaults_to_one(self):
        text = MINIMAL_INFERENCE.replace("  worker_num: 1\n", "")
        assert parse_config(text).device.worker_num == 1

    def test_as_list_wraps_scalars(self):
        assert as_list("x") == ["x"]
        assert as_list(["a", "b"]) == ["a", "b"]
        assert as_list(None) == []


class TestValidate:
    def test_minimal_inference_is_valid(self):
        report = validate_config(parse_config(MINIMAL_INFERENCE))
        assert report.ok, report.violations

    def test_missing_input_is_reported(self):
        text = MINIMAL_INFERENCE.replace('  input: "in.txt"\n', "")
        report = validate_config(parse_config(text))
        assert "inference requires task_args.input" in report.violations

    def test_worker_num_zero_is_reported(self):
        text = MINIMAL_INFERENCE.replace("worker_num: 1", "worker_num: 0")
        report = validate_config(parse_config(text))
        assert any("worker_num must be >= 1" in v for v in report.violations)

    def test_missing_export_file_is_reported(self):
        text = MINIMAL_INFERENCE.replace('  export_file: "o.txt"\n',
                                         "  {}\n")
        report = validate_config(parse_config(text))
        assert any("export_file is required" in v for v in report.violations)

    def test_conversion_length_mismatch_is_reported(self):
        cfg = load_config(FIXTURES / "conversion.yaml")
        cfg.task_args["model_name"] = ["encoder"]
        report = validate_config(cfg)
        assert not report.ok
        assert any("model_name" in v for v in report.violations)

    PATHS = "a non-empty path or a non-empty list of non-empty paths"

    @pytest.mark.parametrize("key, value, noun", [
        ("model_file", 5, PATHS),
        ("model_file", ["m.onnx", 5], PATHS),
        ("model_file", "a\0b", PATHS),
        ("input", "", "a non-empty path"),
        ("input", [5], "a non-empty path"),
        ("onnx_version", "10", "a positive integer"),
        ("model_file", ["m.onnx", ""], PATHS),
    ])
    def test_task_argument_of_the_wrong_kind_is_reported(self, key, value,
                                                         noun):
        cfg = parse_config(MINIMAL_INFERENCE)
        cfg.task_args[key] = value
        assert validate_config(cfg).violations == (
            f"inference: task_args.{key} must be {noun}",)

    def test_null_optional_argument_is_left_to_the_task(self):
        cfg = parse_config(MINIMAL_INFERENCE)
        cfg.task_args["onnx_version"] = None
        assert validate_config(cfg).ok

    def test_export_count_is_reported(self):
        cfg = parse_config(MINIMAL_INFERENCE)
        cfg.out["export_file"] = ["a.txt", "b.txt"]
        assert validate_config(cfg).violations == (
            "inference writes 1 out_args.export_file, got 2",)

    def test_list_valued_task_is_reported(self):
        text = MINIMAL_INFERENCE.replace('task: "inference"',
                                         "task: [conversion, inference]")
        report = validate_config(parse_config(text))
        assert report.violations[0].startswith(
            "general_args.task must be one of")

    def test_fixture_configs_are_valid(self):
        for name in ("conversion.yaml", "collaboration.yaml",
                     "container.yaml"):
            report = validate_config(load_config(FIXTURES / name))
            assert report.ok, (name, report.violations)


class TestSerialize:
    def test_frozen_goldens(self):
        for stem in ("conversion", "collaboration", "container"):
            cfg = load_config(FIXTURES / f"{stem}.yaml")
            golden = (FIXTURES / f"{stem}.golden.json").read_bytes()
            assert serialize_config(cfg) == golden, stem

    def test_serialization_is_deterministic(self):
        blob = serialize_config(parse_config(MINIMAL_INFERENCE))
        assert blob == serialize_config(parse_config(MINIMAL_INFERENCE))
        assert blob.endswith(b"\n")

    def test_key_order_is_canonical(self):
        reordered = textwrap.dedent("""\
            out_args:
              export_file: "o.txt"

            task_args:
              input: "in.txt"
              model_file: "m.onnx"
              model_name: "m"

            device_args:
              device: "cpu"
              worker_num: 1

            general_args:
              backend: "onnx"
              task: "inference"
        """)
        assert (serialize_config(parse_config(reordered))
                == serialize_config(parse_config(MINIMAL_INFERENCE)))
