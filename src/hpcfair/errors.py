"""Exception hierarchy and shared validation report type.

Every error carries a stable machine-readable ``code`` so the HTTP layer,
the CLI and task results can surface failures uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class HpcfairError(Exception):
    """Base error. ``code`` is stable across releases; message text is not."""

    code = "internal_error"

    def __init__(self, message: str, *, code: str | None = None,
                 details: dict[str, Any] | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code
        self.details = details or {}

    @property
    def message(self) -> str:
        return str(self)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.details:
            out["details"] = self.details
        return out


# -- document / graph errors -------------------------------------------------

class MalformedDocumentError(HpcfairError):
    code = "malformed_document"


class UnknownOperatorError(HpcfairError):
    code = "unknown_operator"


class InvalidGraphError(HpcfairError):
    code = "invalid_graph"


class CycleError(HpcfairError):
    code = "graph_cycle"


class ShapeMismatchError(HpcfairError):
    code = "shape_mismatch"


class CompositionError(HpcfairError):
    code = "composition_error"


# -- conversion / execution errors -------------------------------------------

class ConversionError(HpcfairError):
    code = "conversion_error"


class UnknownBackendError(HpcfairError):
    code = "unknown_backend"


class ExecutionError(HpcfairError):
    code = "execution_error"


class MissingTensorError(HpcfairError):
    code = "missing_tensor"


# -- configuration / task errors ----------------------------------------------

class ConfigError(HpcfairError):
    code = "invalid_config"


class CollisionError(HpcfairError):
    code = "export_collision"


# -- registry errors -----------------------------------------------------------

class AuthError(HpcfairError):
    """Authentication/authorization failure; ``code`` distinguishes the cause."""

    code = "unauthorized"


class DuplicateContentError(HpcfairError):
    code = "duplicate_content"

    def __init__(self, message: str, *, existing_pid: str):
        super().__init__(message, details={"existing_pid": existing_pid})
        self.existing_pid = existing_pid


class UnknownPidError(HpcfairError):
    code = "unknown_pid"


class UnknownTaskError(HpcfairError):
    code = "unknown_task"


class IntegrityError(HpcfairError):
    code = "integrity_failure"


class InvalidArtifactError(HpcfairError):
    code = "invalid_artifact"


# -- sandbox errors --------------------------------------------------------------

class SandboxError(HpcfairError):
    code = "sandbox_error"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a non-throwing check: violations are data, not failures."""

    ok: bool
    violations: tuple[str, ...] = ()

    @classmethod
    def from_violations(cls, violations: list[str]) -> "ValidationReport":
        return cls(ok=not violations, violations=tuple(violations))
