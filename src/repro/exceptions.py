"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch every failure mode of this package with a single ``except`` clause
while still being able to distinguish configuration mistakes from runtime
conditions such as an unsatisfiable query.

Every class carries a **stable integer wire code** (:attr:`ReproError.
code`).  The codes are part of the network protocol (``repro.net``
serializes errors as ``(code, message)`` pairs, never as class names, so
renaming a class cannot break old clients) and are therefore *frozen*:
never renumber an existing class, only append new codes.  The registry
built at import time (:data:`ERROR_CODES`) maps codes back to classes;
:func:`error_code` and :func:`error_from_code` are the round-trip
helpers the protocol layer uses.
"""

from __future__ import annotations

from typing import ClassVar

__all__ = [
    "ReproError",
    "ValidationError",
    "MetricError",
    "NotATreeMetricError",
    "TreeConstructionError",
    "UnknownNodeError",
    "DatasetError",
    "QueryError",
    "UnsupportedConstraintError",
    "SimulationError",
    "ExperimentError",
    "ServiceError",
    "StaleGenerationError",
    "OverloadError",
    "DeadlineExceededError",
    "TracingError",
    "LintError",
    "KernelError",
    "TreePatchFallback",
    "NetworkError",
    "FrameError",
    "ProtocolError",
    "CoordinatorError",
    "ERROR_CODES",
    "error_code",
    "error_from_code",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""

    #: Stable wire code; frozen forever once released (see module notes).
    code: ClassVar[int] = 1


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, range, or type)."""

    code = 10


class MetricError(ReproError):
    """A metric-space operation failed (e.g. malformed distance matrix)."""

    code = 20


class NotATreeMetricError(MetricError):
    """An operation required an exact tree metric but the input is not one."""

    code = 21


class TreeConstructionError(ReproError):
    """The prediction/anchor tree could not be built or updated."""

    code = 30


class UnknownNodeError(ReproError, KeyError):
    """A node id was not found in the structure being queried."""

    code = 40


class DatasetError(ReproError):
    """A dataset could not be generated, loaded, or preprocessed."""

    code = 50


class QueryError(ReproError):
    """A clustering query was malformed."""

    code = 60


class UnsupportedConstraintError(QueryError):
    """A decentralized query used a bandwidth constraint outside the
    predetermined class set ``L`` (Sec. III-B.3 of the paper)."""

    code = 61


class SimulationError(ReproError):
    """The round-based simulator reached an inconsistent state."""

    code = 70


class ExperimentError(ReproError):
    """An experiment driver was misconfigured or failed to converge."""

    code = 80


class ServiceError(ReproError):
    """The long-lived cluster-query service layer failed or was misused."""

    code = 90


class StaleGenerationError(ServiceError):
    """A query was pinned to an overlay generation that is no longer
    current (membership or bandwidth state changed underneath it)."""

    code = 91


class OverloadError(ServiceError):
    """The service shed this request to protect itself (queue bound hit
    or per-client rate limit exceeded).  Retry after backing off;
    :attr:`retry_after_s` is the server's hint when it has one."""

    code = 92

    def __init__(
        self, message: str, retry_after_s: float | None = None
    ) -> None:
        super().__init__(message)
        #: Server's suggested backoff before retrying (``None`` when
        #: the server did not provide one, e.g. decoded from an old
        #: peer that predates the field).
        self.retry_after_s = retry_after_s


class DeadlineExceededError(ServiceError):
    """The request's deadline expired before (or while) it was served;
    the remaining work was shed, not executed."""

    code = 93


class TracingError(ReproError):
    """The observability layer (``repro.obs``) was misconfigured
    (bad store capacity, negative slow-query threshold)."""

    code = 100


class LintError(ReproError):
    """The static-analysis engine was misconfigured (bad rule id,
    malformed baseline file, missing lint target)."""

    code = 110


class KernelError(ReproError):
    """The vectorized kernel layer (``repro.kernels``) was fed input it
    cannot compile or patch — e.g. an overlay whose neighbor lists do
    not form a tree.  The kernels are the only implementation, so a
    substrate build surfaces this error instead of switching paths."""

    code = 120


class TreePatchFallback(KernelError):
    """An incremental CSR tree patch declined the change: the membership
    event restructures the compiled tree beyond a single leaf splice
    (departing host still has children, host missing from the compiled
    overlay, ...).  The caller takes the other rung of the maintenance
    ladder: a full rebuild."""

    code = 121


class NetworkError(ReproError):
    """The networked serving layer (``repro.net``) failed: transport
    errors, exhausted retries, or a server that went away mid-call."""

    code = 130


class FrameError(NetworkError):
    """A wire frame was malformed: bad magic, unknown protocol version
    or codec, or a declared payload above the maximum frame size."""

    code = 131


class ProtocolError(NetworkError):
    """A decoded message did not match the typed request/response
    schema (unknown type tag, missing or mistyped field)."""

    code = 132


class CoordinatorError(NetworkError):
    """The multi-worker coordinator could not complete a dispatch
    (every worker dead, or re-dispatch attempts exhausted)."""

    code = 133


def _build_registry() -> dict[int, type[ReproError]]:
    """Collect every :class:`ReproError` subclass into a code registry.

    Raises :class:`ValueError` at import time when two classes collide
    on a code or a class forgot to declare its own — both are
    programming errors that must never reach a release.
    """
    registry: dict[int, type[ReproError]] = {}
    stack: list[type[ReproError]] = [ReproError]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "code" not in cls.__dict__:
            raise ValueError(
                f"{cls.__name__} does not declare its own wire code"
            )
        if cls.code in registry:
            raise ValueError(
                f"wire code {cls.code} is claimed by both "
                f"{registry[cls.code].__name__} and {cls.__name__}"
            )
        registry[cls.code] = cls
    return registry


#: Frozen code -> class mapping for every error defined above.
ERROR_CODES: dict[int, type[ReproError]] = _build_registry()


def error_code(error: ReproError | type[ReproError]) -> int:
    """The stable wire code for *error* (an instance or a class)."""
    cls = error if isinstance(error, type) else type(error)
    return cls.code


def error_from_code(code: int, message: str) -> ReproError:
    """Reconstruct the error class registered under *code*.

    Unknown codes (a newer server talking to an older client) degrade
    to the base :class:`ReproError` rather than failing the decode —
    the caller still gets the message and can still catch broadly.
    """
    cls = ERROR_CODES.get(code, ReproError)
    return cls(message)
