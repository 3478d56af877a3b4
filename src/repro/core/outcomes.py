"""Classified outcomes for the Testing Phase steps (§III.B.d)."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Step(enum.Enum):
    """The three interoperability-critical steps under study."""

    SERVICE_DESCRIPTION = "service-description-generation"
    ARTIFACT_GENERATION = "client-artifact-generation"
    ARTIFACT_COMPILATION = "client-artifact-compilation"


class StepStatus(enum.Enum):
    """Classification of one step's outcome.

    ``SKIPPED`` means an earlier step's error suppressed this one;
    ``NOT_APPLICABLE`` marks compilation for dynamic-language platforms
    (Table II note 3 — instantiation is checked during generation).
    ``DEGRADED`` is the resilience extension's distinction: the step
    ultimately succeeded, but only after the client's retry policy
    re-sent the request — "recovered" rather than "clean".
    """

    OK = "ok"
    WARNING = "warning"
    ERROR = "error"
    DEGRADED = "degraded"
    SKIPPED = "skipped"
    NOT_APPLICABLE = "n/a"

    @property
    def succeeded(self):
        """True when the step completed (possibly warned or degraded)."""
        return self in (StepStatus.OK, StepStatus.WARNING, StepStatus.DEGRADED)


@dataclass(frozen=True)
class StepOutcome:
    """One step's classified outcome with diagnostic counts."""

    status: StepStatus
    error_count: int = 0
    warning_count: int = 0
    codes: tuple = ()

    @property
    def has_error(self):
        return self.error_count > 0

    @property
    def has_warning(self):
        return self.warning_count > 0

    @property
    def executed(self):
        return self.status not in (StepStatus.SKIPPED, StepStatus.NOT_APPLICABLE)


#: One shared :class:`StepOutcome` per distinct verdict, keyed by its
#: fields.  A paper-scale run classifies 159,258 steps into 26 verdicts,
#: so records share these objects instead of holding a copy each.  The
#: values are frozen and keyed by their own fields, so sharing the table
#: across callers cannot change a result; it grows only with the number
#: of distinct verdicts.
_INTERNED = {}


def intern_outcome(status, error_count=0, warning_count=0, codes=()):
    """The one shared :class:`StepOutcome` with these fields."""
    key = (status, error_count, warning_count, tuple(codes))
    outcome = _INTERNED.get(key)
    if outcome is None:
        outcome = _INTERNED.setdefault(key, StepOutcome(*key))
    return outcome


OK_OUTCOME = intern_outcome(StepStatus.OK)
SKIPPED_OUTCOME = intern_outcome(StepStatus.SKIPPED)
NOT_APPLICABLE_OUTCOME = intern_outcome(StepStatus.NOT_APPLICABLE)


def classify(error_count, warning_count, codes=()):
    """The shared :class:`StepOutcome` for these diagnostic counts."""
    if error_count:
        status = StepStatus.ERROR
    elif warning_count:
        status = StepStatus.WARNING
    else:
        status = StepStatus.OK
    return intern_outcome(status, error_count, warning_count, codes)


@dataclass(frozen=True)
class ClientTestRecord:
    """One executed test: a (server, service, client) combination."""

    server_id: str
    client_id: str
    service_name: str
    generation: StepOutcome
    compilation: StepOutcome

    @property
    def has_error(self):
        return self.generation.has_error or self.compilation.has_error

    @property
    def has_warning(self):
        return self.generation.has_warning or self.compilation.has_warning

    @property
    def error_free(self):
        return not self.has_error
