"""Task configuration documents: the four-section YAML files users submit.

A config has sections ``general_args``, ``device_args``, a task section
(named ``task_args`` or ``model_args`` -- both spellings occur in the wild
and are accepted as aliases), and ``out_args``.  Parsing is lossless: every
key/value survives into the :class:`TaskConfig`, keys and sections it does
not know land in ``extras`` with a warning rather than an error, and
``serialize_config`` re-emits a canonical byte form suitable for golden-file
comparison; keys must be strings and values scalars or flat lists.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ._canonical import OBJECT, POSITIVE, STR, Kind, check, \
    dumps_canonical, loads_yaml
from .errors import ConfigError, ValidationReport

logger = logging.getLogger(__name__)

DEVICES = ("cpu", "gpu")

Scalar = str | int | float | bool | None


@dataclass(frozen=True)
class GeneralArgs:
    task: str
    tag: str | None = None
    backend: str | list[str] | None = None


@dataclass(frozen=True)
class DeviceArgs:
    worker_num: int = 1
    device: str = "cpu"
    gpu_mapping_file: str | None = None
    gpu_mapping_key: str | None = None


@dataclass(frozen=True)
class TaskConfig:
    general: GeneralArgs
    device: DeviceArgs
    task_args: dict[str, Any] = field(default_factory=dict)
    # which alias carried the task section; None if the section was absent
    task_section: str | None = "task_args"
    out: dict[str, Any] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()
    # directory that relative paths in the config resolve against
    base_dir: Path | None = None

    @property
    def export_files(self) -> list[str]:
        return as_list(self.out.get("export_file"))

    def resolve(self, path: str) -> Path:
        base = self.base_dir if self.base_dir is not None else Path.cwd()
        return (base / path).resolve() if not Path(path).is_absolute() \
            else Path(path)


def as_list(value: Any) -> list[Any]:
    """Normalize a scalar-or-sequence config value to a list."""
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def is_path(value: Any) -> bool:
    """Whether a config value can name a file: a string without NUL."""
    return isinstance(value, str) and "\0" not in value


def is_pid(value: Any) -> bool:
    """Whether a model reference names a registry pid, not a file."""
    return isinstance(value, str) and value.startswith("hpcf-")


def _one_or_more(kind: Kind) -> Kind:
    many = kind.list(nonempty=True)
    return Kind(f"{kind.noun} or {many.noun}",
                f"{kind.plural} or {many.plural}",
                lambda v: kind.test(v) or many.test(v))


# "" would resolve to the config's own directory, so no path may be empty
_FILE = Kind("a non-empty path", "non-empty paths",
             lambda v: is_path(v) and v != "")
_PATHS = _one_or_more(_FILE)
_VERSION = (POSITIVE, False)

# Each task's contract: its task_args keys as key -> (kind, required), where
# a kind of None takes any value and an optional key may be null, and how
# many out_args.export_file entries it writes (None: one per model_file,
# checked with the other aligned lengths in validate_config).
TASK_ARGS = {
    "conversion": ({"model_name": (_one_or_more(STR), True),
                    "model_file": (_PATHS, True),
                    "onnx_version": _VERSION}, None),
    "inference": ({"model_file": (_PATHS, True),
                   "input": (_FILE, True), "onnx_version": _VERSION}, 1),
    "container": ({"work_dir": (_FILE, True), "build_file": (_FILE, True),
                   "build_tag": (None, True), "volume": (None, True),
                   "onnx_version": _VERSION}, 1),
}
TASKS = tuple(TASK_ARGS)


_GENERAL_KEYS = ("task", "tag", "backend")
_DEVICE_KEYS = ("worker_num", "device", "gpu_mapping_file", "gpu_mapping_key")
_SECTIONS = ("general_args", "device_args", "task_args", "model_args",
             "out_args")


_SCALAR = Kind("a scalar", "scalars",
               lambda v: v is None or isinstance(v, (str, int, float, bool)))
_SCALARS = _SCALAR.list()
_VALUE = Kind("a scalar or a flat sequence", "values",
              lambda v: _SCALAR.test(v) or _SCALARS.test(v))


def _check_section(name: str, value: Any) -> dict[str, Any]:
    check(value, OBJECT, f"section '{name}'", ConfigError)
    for key, v in value.items():
        check(key, STR, f"section '{name}' key {key!r}", ConfigError)
        check(v, _VALUE, f"'{name}.{key}'", ConfigError)
    return value


def parse_config(text: bytes | str, *,
                 base_dir: Path | None = None) -> TaskConfig:
    """Parse a config document; lossless, warning on keys it does not know."""
    doc = loads_yaml(text, "config document", ConfigError)
    doc = check({} if doc is None else doc, OBJECT, "config document",
                ConfigError)
    warnings: list[str] = []
    extras: dict[str, Any] = {}

    if "general_args" not in doc:
        raise ConfigError("config is missing the 'general_args' section")
    general_raw = _check_section("general_args", doc["general_args"])
    if "task" not in general_raw:
        raise ConfigError("'general_args' is missing the 'task' key")

    device_raw = _check_section("device_args", doc.get("device_args", {}))
    out_raw = _check_section("out_args", doc.get("out_args", {}))

    if "task_args" in doc and "model_args" in doc:
        raise ConfigError(
            "'task_args' and 'model_args' are aliases; supply exactly one")
    task_section: str | None = None
    task_raw: dict[str, Any] = {}
    for alias in ("task_args", "model_args"):
        if alias in doc:
            task_section = alias
            task_raw = _check_section(alias, doc[alias])

    def take(section: str, raw: dict[str, Any],
             known: tuple[str, ...]) -> dict[str, Any]:
        kept = {}
        for key, value in raw.items():
            if key in known:
                kept[key] = value
            else:
                extras[f"{section}.{key}"] = value
                warnings.append(f"unknown key '{section}.{key}'")
        return kept

    general_known = take("general_args", general_raw, _GENERAL_KEYS)
    device_known = take("device_args", device_raw, _DEVICE_KEYS)

    for section, value in doc.items():
        check(section, STR, f"section name {section!r}", ConfigError)
        if section not in _SECTIONS:  # kept in extras, so it must serialize
            extras[section] = _check_section(section, value) \
                if OBJECT.test(value) else \
                check(value, _VALUE, f"section '{section}'", ConfigError)
            warnings.append(f"unknown section '{section}'")

    for message in warnings:
        logger.warning("%s", message)

    cfg = TaskConfig(
        general=GeneralArgs(**general_known),
        device=DeviceArgs(**device_known),
        task_args=dict(task_raw),
        task_section=task_section,
        out=dict(out_raw),
        extras=extras,
        warnings=tuple(warnings),
        base_dir=base_dir,
    )
    try:
        serialize_config(cfg)
    except ValueError as exc:  # NaN, infinities and lone surrogates
        raise ConfigError(f"config has no canonical form: {exc}") from None
    return cfg


def load_config(path: str | Path) -> TaskConfig:
    """Parse a config file; relative paths resolve against its directory."""
    path = Path(path)
    return parse_config(path.read_bytes(), base_dir=path.parent)


def serialize_config(cfg: TaskConfig) -> bytes:
    """Canonical bytes: fixed section and key order, values verbatim."""
    doc = {
        "general": asdict(cfg.general),  # in field order
        "device": asdict(cfg.device),
        "task_args": {k: cfg.task_args[k] for k in sorted(cfg.task_args)},
        "task_section": cfg.task_section,
        "out": {k: cfg.out[k] for k in sorted(cfg.out)},
        "extras": {k: cfg.extras[k] for k in sorted(cfg.extras)},
    }
    return dumps_canonical(doc)


def relative_paths(cfg: TaskConfig) -> list[tuple[str, str]]:
    """(field, value) for each relative path in cfg's task arguments and
    exports, which only a run beside the config can resolve."""
    task = cfg.general.task
    keys = TASK_ARGS[task][0] if task in TASKS else {}
    section = cfg.task_section or "task_args"
    fields = [(f"{section}.{key}", cfg.task_args.get(key))
              for key, (kind, _) in keys.items()
              if kind in (_PATHS, _FILE)]
    fields.append(("out_args.export_file", cfg.out.get("export_file")))
    return [(name, path) for name, value in fields for path in as_list(value)
            if is_path(path) and not is_pid(path)
            and not Path(path).is_absolute()]


def validate_config(cfg: TaskConfig) -> ValidationReport:
    """Dispatchability check: enums, the task's declared keys and their
    kinds (``TASK_ARGS``), its export count and aligned lengths.  Every
    task is checked here before it runs; its executor does not re-check."""
    v: list[str] = []
    task = cfg.general.task

    if task not in TASKS:  # a tuple test: a list-valued task is unhashable
        v.append(f"general_args.task must be one of {list(TASKS)}, "
                 f"got {task!r}")
    wn = cfg.device.worker_num
    if not POSITIVE.test(wn):
        v.append("worker_num must be >= 1")
    if cfg.device.device not in DEVICES:
        v.append(f"device must be one of {list(DEVICES)}, "
                 f"got {cfg.device.device!r}")
    if cfg.task_section is None:
        v.append("config has no 'task_args'/'model_args' section")
    exports = cfg.export_files
    if "export_file" not in cfg.out:
        v.append("out_args.export_file is required")
    elif not all(_FILE.test(p) for p in exports):
        v.append("out_args.export_file must be a path or a list of paths")

    keys, count = TASK_ARGS[task] if task in TASKS else ({}, None)
    section = cfg.task_section or "task_args"
    for key, (kind, required) in keys.items():
        value = cfg.task_args.get(key)
        if key not in cfg.task_args:
            if required:
                v.append(f"{task} requires {section}.{key}")
        elif kind is not None and not kind.test(value) and \
                (required or value is not None):
            v.append(f"{task}: {section}.{key} must be {kind.noun}")
    if count is not None and len(exports) != count:
        v.append(f"{task} writes {count} out_args.export_file, "
                 f"got {len(exports)}")

    if task == "conversion":
        names = as_list(cfg.task_args.get("model_name"))
        backends = as_list(cfg.general.backend)
        lengths = {"model_name": len(names), "export_file": len(exports),
                   "model_file": len(as_list(cfg.task_args.get("model_file")))}
        # a single backend string fans out over all items
        if len(backends) > 1:
            lengths["backend"] = len(backends)
        if names and len(set(lengths.values())) > 1:
            v.append("conversion requires aligned sequences of equal "
                     "length, got " +
                     ", ".join(f"{k}={n}" for k, n in sorted(lengths.items())))
        if not backends:
            v.append("conversion requires general_args.backend")

    return ValidationReport.from_violations(v)
