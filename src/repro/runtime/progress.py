"""Live sweep telemetry: a crash-safe JSONL heartbeat stream.

A long sweep under the pool supervisor is a black box until the merged
result lands.  With ``--progress <path>`` the supervisor appends one
JSON line per heartbeat — units done/total, per-worker state, an ETA —
so an operator (or the future campaign-as-a-service scheduler) can
``tail -f`` a running sweep instead of waiting for the post-hoc trace.

Crash safety is the :class:`~repro.core.store.AppendLog` the accept
history and the perf ledger use: every line is written whole, a killed
writer leaves at most one torn trailing line, the next append (a
resumed sweep's) cuts it off, and :func:`read_progress` skips it with
a count instead of failing.  The stream is pure telemetry — nothing in
it feeds checkpoints, payloads or fingerprints.

The ETA starts from the performance ledger when a hint is available
(the wall-clock of the last recorded run of the *same configuration* —
the best possible prior, since the work is identical) and hands over to
the observed completion rate once enough of this run has finished.
"""

from __future__ import annotations

import time

from repro.core.store import AppendLog, validate_jsonl

PROGRESS_FORMAT = 1

#: Required fields per line type; mirrors the trace-schema style so the
#: CI smoke can validate a stream with zero dependencies.  A ``?``
#: suffix marks a field whose value may also be null.
PROGRESS_SCHEMA = {
    "format": PROGRESS_FORMAT,
    "line_types": {
        "meta": {
            "format": "int",
            "campaign": "str",
            "total": "int",
            "workers": "int",
            "restored": "int",
            "poisoned": "int",
            "eta_seconds": "number?",
        },
        "progress": {
            "done": "int",
            "total": "int",
            "poisoned": "int",
            "elapsed_seconds": "number",
            "eta_seconds": "number?",
            "workers": "array",
        },
        "final": {
            "done": "int",
            "total": "int",
            "poisoned": "int",
            "wall_seconds": "number",
            "outcome": "str",
        },
    },
}


class ProgressValidationError(ValueError):
    """A progress line does not conform to :data:`PROGRESS_SCHEMA`."""


def validate_progress_lines(lines):
    """Validate a whole stream and return its line count: the first
    line must be the meta line, and only a torn trailing line is
    tolerated (:func:`repro.core.store.validate_jsonl`)."""
    return len(validate_jsonl(
        lines, PROGRESS_SCHEMA["line_types"], ProgressValidationError,
        "progress stream",
    )[0])


def read_progress(path):
    """Tolerant load: ``{meta, updates, final, skipped_lines}``."""
    records, skipped = AppendLog(path).read()
    out = {"meta": None, "updates": [], "final": None, "skipped_lines": skipped}
    for obj in records:
        kind = obj.get("type")
        if kind == "meta":
            out["meta"] = obj
        elif kind == "progress":
            out["updates"].append(obj)
        elif kind == "final":
            out["final"] = obj
    return out


class ProgressWriter:
    """Appends the heartbeat stream for one supervised sweep.

    Heartbeats are rate-limited (``min_interval_seconds``) except when
    forced, so a fast sweep of tiny units does not turn the stream into
    a disk benchmark.  The writer never raises into the sweep: an
    unwritable stream degrades to silence, because telemetry must not
    be able to kill the work it observes.
    """

    def __init__(self, path, campaign="", eta_wall_hint_seconds=None,
                 min_interval_seconds=0.5, clock=time.monotonic):
        self.path = path
        self.campaign = campaign
        self.eta_wall_hint_seconds = eta_wall_hint_seconds
        self.min_interval_seconds = min_interval_seconds
        self._clock = clock
        self._log = AppendLog(path)
        self._started = clock()
        self._last_emit = None
        self._total = 0
        self._restored = 0

    def _write(self, obj):
        try:
            self._log.append(obj)
        except OSError:
            pass

    def begin(self, total, workers, restored=0, poisoned=0):
        self._total = total
        self._restored = restored
        self._write({
            "type": "meta",
            "format": PROGRESS_FORMAT,
            "campaign": self.campaign,
            "total": total,
            "workers": workers,
            "restored": restored,
            "poisoned": poisoned,
            "eta_seconds": self._eta(done=restored, poisoned=poisoned),
        })

    def _eta(self, done, poisoned):
        """Remaining seconds: ledger prior first, observed rate after.

        ``done`` includes restored units, which cost nothing this run —
        the observed rate divides elapsed time by *fresh* completions
        only, and the ledger hint scales by the truly remaining
        fraction of the whole sweep.
        """
        remaining = max(self._total - done - poisoned, 0)
        if remaining == 0:
            return 0.0
        fresh = done - self._restored
        if fresh > 0:
            elapsed = self._clock() - self._started
            return round(remaining * (elapsed / fresh), 1)
        hint = self.eta_wall_hint_seconds
        if hint and self._total:
            return round(hint * (remaining / self._total), 1)
        return None

    def update(self, done, poisoned, worker_rows, force=False):
        """One heartbeat; rate-limited unless ``force``.

        ``worker_rows`` is a list of ``{"worker", "state", "unit",
        "server", "busy_seconds"}`` dicts describing what each live
        worker holds right now.
        """
        now = self._clock()
        if (not force and self._last_emit is not None
                and now - self._last_emit < self.min_interval_seconds):
            return False
        self._last_emit = now
        self._write({
            "type": "progress",
            "done": done,
            "total": self._total,
            "poisoned": poisoned,
            "elapsed_seconds": round(now - self._started, 3),
            "eta_seconds": self._eta(done, poisoned),
            "workers": list(worker_rows),
        })
        return True

    def final(self, done, poisoned, wall_seconds, outcome="completed"):
        self._write({
            "type": "final",
            "done": done,
            "total": self._total,
            "poisoned": poisoned,
            "wall_seconds": round(wall_seconds, 3),
            "outcome": outcome,
        })
