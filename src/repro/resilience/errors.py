"""Structured error hierarchy for the resilience layer.

All errors raised by the resilience subsystem (and by the serving layer's
per-op rejection path) derive from :class:`ReproError`, so callers can
catch one base class and still discriminate:

``ReproError``
    root of the hierarchy.
``CorruptionError``
    a structural self-audit (or a differential check) found state that
    violates a deterministic invariant.  Carries the machine-readable
    :attr:`findings` list produced by :mod:`repro.resilience.checks`.
``InvalidInputError``
    an operation was malformed: an endpoint that is not a vertex id, a
    weight that is not a finite real, or a duplicate edge id.
    Subclasses ``ValueError`` as well, so pre-existing ``except
    ValueError`` / ``pytest.raises(ValueError)`` call sites keep working.
``UnknownEdgeError``
    an operation referenced an edge id that is not live.  Subclasses
    ``KeyError`` as well, so pre-existing ``except KeyError`` /
    ``pytest.raises(KeyError)`` call sites keep working unchanged.
``QuarantineExhausted``
    the recovery ladder ran out of options (e.g. a rebuilt engine failed
    its differential verification again, or the bisection could not
    isolate a poisoned op).
``BackendUnavailable``
    an optional execution backend was requested without its dependency
    (``backend="compiled"`` needs the native extension built).
    Subclasses ``ImportError`` so generic dependency-guard call sites
    keep working unchanged.
``WALCorruptionError``
    a durable-log or snapshot record failed validation (checksum
    mismatch, broken hash chain, sequence gap, truncated file).  Carries
    the offending record's :attr:`seq` and the artifact's :attr:`path` --
    recovery must never silently replay past one of these.
``SnapshotStaleError``
    a snapshot exists but cannot anchor recovery (the retained log tail
    starts after the snapshot's seq, or the recorded configuration does
    not match the requested one).  Also carries :attr:`seq`/:attr:`path`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CorruptionError",
    "InvalidInputError",
    "UnknownEdgeError",
    "QuarantineExhausted",
    "BackendUnavailable",
    "WALCorruptionError",
    "SnapshotStaleError",
]


class ReproError(Exception):
    """Base class for structured errors raised by the repro library."""


class CorruptionError(ReproError):
    """A deterministic invariant was found violated.

    Parameters
    ----------
    message:
        human-readable summary.
    findings:
        optional list of :class:`repro.resilience.checks.Finding`
        (or plain strings) describing each violated invariant.
    site:
        optional injection-site name when the corruption is attributable
        to a specific component (``"pram.cell"``, ``"tt.agg"``, ...).
    """

    def __init__(self, message: str, *, findings=None, site=None):
        super().__init__(message)
        self.findings = list(findings) if findings else []
        self.site = site


class InvalidInputError(ReproError, ValueError):
    """A malformed operation was rejected before it changed any state.

    Inherits from ``ValueError`` for backwards compatibility with callers
    that predate the structured hierarchy.
    """


class UnknownEdgeError(ReproError, KeyError):
    """An operation referenced an unknown or already-deleted edge id.

    Inherits from ``KeyError`` for backwards compatibility with callers
    that predate the structured hierarchy.
    """

    def __init__(self, eid, message=None):
        msg = message or f"unknown or already-deleted edge id {eid}"
        # KeyError renders its first arg with repr(); pass the message
        # once so str(exc) stays readable.
        super().__init__(msg)
        self.eid = eid

    def __str__(self):  # KeyError would quote the message
        return self.args[0] if self.args else ""


class QuarantineExhausted(ReproError):
    """Recovery could not restore a verified-clean state."""

    def __init__(self, message: str, *, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class BackendUnavailable(ReproError, ImportError):
    """An optional execution backend's dependency is not installed."""

    def __init__(self, backend: str, requirement: str, extra: str):
        super().__init__(
            f"backend {backend!r} requires {requirement}; install it via "
            f"`pip install repro[{extra}]` or pick backend='scalar'")
        self.backend = backend
        self.requirement = requirement
        self.extra = extra


class WALCorruptionError(ReproError):
    """A durable-log or snapshot record failed its integrity validation.

    Parameters
    ----------
    message:
        human-readable summary of what failed to validate.
    seq:
        batch sequence number of the offending record, when attributable
        (``None`` for file-level damage with no parseable seq).
    path:
        filesystem path of the damaged artifact (the WAL database or the
        snapshot file).
    """

    def __init__(self, message: str, *, seq=None, path=None):
        super().__init__(message)
        self.seq = seq
        self.path = str(path) if path is not None else None


class SnapshotStaleError(ReproError):
    """A snapshot cannot anchor recovery against the retained log.

    Raised when the durable log's retained tail starts *after* the
    snapshot's seq (the gap makes replay impossible) or when the
    snapshot's recorded configuration disagrees with the requested one.
    Carries the same ``seq``/``path`` attributes as
    :class:`WALCorruptionError`.
    """

    def __init__(self, message: str, *, seq=None, path=None):
        super().__init__(message)
        self.seq = seq
        self.path = str(path) if path is not None else None
