"""Persistence: save and load campaign results as JSON.

The study's published artifact was a website of result files; this store
plays that role.  ``save_result``/``load_result`` round-trip everything
the aggregations and analyses need — per-record step outcomes included —
so a saved run can be re-analyzed without re-executing 79,629 tests.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from repro.core.outcomes import ClientTestRecord, StepOutcome, StepStatus
from repro.core.results import CampaignResult, ServerRunReport

_FORMAT_VERSION = 1


def _outcome_to_obj(outcome):
    return {
        "status": outcome.status.value,
        "errors": outcome.error_count,
        "warnings": outcome.warning_count,
        "codes": list(outcome.codes),
    }


def _outcome_from_obj(obj):
    return StepOutcome(
        status=StepStatus(obj["status"]),
        error_count=obj["errors"],
        warning_count=obj["warnings"],
        codes=tuple(obj["codes"]),
    )


def result_to_obj(result, include_records=True):
    """Convert a :class:`CampaignResult` to a JSON-compatible dict."""
    obj = {
        "format": _FORMAT_VERSION,
        "server_ids": list(result.server_ids),
        "client_ids": list(result.client_ids),
        "servers": {
            server_id: {
                "name": report.server_name,
                "services_total": report.services_total,
                "deployed": report.deployed,
                "refused": report.refused,
                "wsi_failing": sorted(report.wsi_failing),
                "wsi_advisory_only": sorted(report.wsi_advisory_only),
            }
            for server_id, report in result.servers.items()
        },
    }
    if include_records:
        obj["records"] = [
            {
                "server": record.server_id,
                "client": record.client_id,
                "service": record.service_name,
                "generation": _outcome_to_obj(record.generation),
                "compilation": _outcome_to_obj(record.compilation),
            }
            for record in result.records
        ]
    return obj


def result_from_obj(obj):
    """Rebuild a :class:`CampaignResult` from :func:`result_to_obj` output."""
    if obj.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported result format: {obj.get('format')!r}")
    result = CampaignResult(
        server_ids=tuple(obj["server_ids"]),
        client_ids=tuple(obj["client_ids"]),
    )
    for server_id, data in obj["servers"].items():
        report = ServerRunReport(
            server_id=server_id,
            server_name=data["name"],
            services_total=data["services_total"],
            deployed=data["deployed"],
            refused=data["refused"],
        )
        report.wsi_failing.update(data["wsi_failing"])
        report.wsi_advisory_only.update(data["wsi_advisory_only"])
        result.servers[server_id] = report
    for item in obj.get("records", ()):
        result.add_record(
            ClientTestRecord(
                server_id=item["server"],
                client_id=item["client"],
                service_name=item["service"],
                generation=_outcome_from_obj(item["generation"]),
                compilation=_outcome_from_obj(item["compilation"]),
            )
        )
    return result


class CheckpointMismatch(ValueError):
    """A checkpoint directory belongs to a different campaign config.

    ``hint`` tells the operator how to recover — the same remediation
    style as :class:`repro.regress.baseline.BaselineError`.
    """

    hint = (
        "point --checkpoint-dir at an empty directory, or re-run with "
        "the original campaign parameters"
    )


def write_text_atomic(text, path):
    """Write ``text`` so a crash can never leave a corrupt file.

    The payload goes to a temporary file in the destination directory
    (same filesystem, so the final rename is atomic) and is fsynced
    before ``os.replace`` publishes it under the real name.  The
    directory entry is then fsynced too: without it the rename lives
    only in the page cache, and a power loss right after a "durable"
    checkpoint write could roll the directory back to the old file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def write_json_atomic(obj, path):
    """Write ``obj`` as JSON via :func:`write_text_atomic`."""
    write_text_atomic(json.dumps(obj), path)


def _fsync_directory(directory):
    """Persist a directory's entries; best-effort off Linux/macOS."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        descriptor = os.open(directory, flags)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def save_result(result, path, include_records=True):
    """Atomically write ``result`` to ``path`` as JSON."""
    write_json_atomic(
        result_to_obj(result, include_records=include_records), path
    )


def load_result(path):
    """Load a result previously written by :func:`save_result`."""
    with open(path, "r", encoding="utf-8") as handle:
        return result_from_obj(json.load(handle))


# -- checkpointing -----------------------------------------------------------


@dataclass
class ServerSlice:
    """A ``run`` unit's payload: one chunk of one server's sweep.

    The engine folds it into the result as it is; :meth:`to_obj` and
    :meth:`from_obj` convert it only on the way into and out of a
    checkpoint or the pool's spool.
    """

    report: ServerRunReport
    records: list
    wall_seconds: float = 0.0

    def to_obj(self):
        full = result_to_obj(
            _single_server_result(self.report, self.records),
            include_records=True,
        )
        return {
            "format": _FORMAT_VERSION,
            "server": full["servers"][self.report.server_id],
            "records": full["records"],
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_obj(cls, server_id, obj):
        if obj.get("format") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported slice format: {obj.get('format')!r}"
            )
        shell = result_from_obj(
            {
                "format": _FORMAT_VERSION,
                "server_ids": [server_id],
                "client_ids": [],
                "servers": {server_id: obj["server"]},
                "records": obj["records"],
            }
        )
        return cls(
            shell.servers[server_id], shell.records,
            obj.get("wall_seconds", 0.0),
        )


def _single_server_result(report, records):
    result = CampaignResult(server_ids=(report.server_id,))
    result.servers[report.server_id] = report
    for record in records:
        result.add_record(record)
    return result


class CampaignCheckpoint:
    """Crash-safe key → JSON store backing long campaign runs.

    Every ``save`` is atomic, so the checkpoint directory is always a
    consistent prefix of the campaign: either a slice completed and is
    fully on disk, or it is absent.  ``guard`` pins the checkpoint to
    one campaign configuration — resuming with different parameters is
    an error, not a silently wrong merge.
    """

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.directory, f"{key}.json")

    def has(self, key):
        return os.path.exists(self._path(key))

    def save(self, key, obj):
        """Persist ``obj`` atomically; an object with a ``to_obj()``
        JSON form (a :class:`ServerSlice`) is converted first."""
        if hasattr(obj, "to_obj"):
            obj = obj.to_obj()
        write_json_atomic(obj, self._path(key))

    def load(self, key):
        with open(self._path(key), "r", encoding="utf-8") as handle:
            return json.load(handle)

    def guard(self, key, fingerprint):
        """Pin the checkpoint to ``fingerprint``; reject a mismatch."""
        if self.has(key):
            stored = self.load(key)
            if stored != fingerprint:
                raise CheckpointMismatch(
                    f"checkpoint at {self.directory!r} belongs to a "
                    f"different campaign: {stored!r} != {fingerprint!r}"
                )
        else:
            self.save(key, fingerprint)

    def keys(self):
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.directory)
            if name.endswith(".json")
        )

    def clear(self):
        """Remove all checkpoint entries (after a successful finish)."""
        for key in self.keys():
            try:
                os.unlink(self._path(key))
            except OSError:
                pass


class QuarantineRegistry:
    """Poisoned (server, service, client) triples a sweep must not re-run.

    A cell whose guarded step timed out or escaped with an unclassified
    exception is *poisoned*: re-executing it would stall or crash the
    sweep again.  The registry records each poisoning with its triage
    bucket and detail, and later cells of the triple are reported as
    QUARANTINED, not silently dropped.  A unit's cell poisonings travel
    in its payload; the pool's unit-level registry (a shard unit that
    crash-looped, keyed by ``(server, unit key, campaign)``) persists
    into a :class:`CampaignCheckpoint` under ``"pool-quarantine"``.
    """

    KEY = "pool-quarantine"
    _FORMAT = 1

    def __init__(self):
        self._entries = {}

    def __len__(self):
        return len(self._entries)

    def poison(self, server_id, service_name, client_id, bucket, detail=""):
        """Record a poisoned triple; the first recorded reason wins."""
        key = (server_id, service_name, client_id)
        if key not in self._entries:
            self._entries[key] = {"bucket": str(bucket), "detail": detail}

    def contains(self, server_id, service_name, client_id):
        return (server_id, service_name, client_id) in self._entries

    def reason(self, server_id, service_name, client_id):
        """The recorded poisoning, or ``None`` for a healthy triple."""
        return self._entries.get((server_id, service_name, client_id))

    def entries(self):
        """Sorted ``(server, service, client, bucket, detail)`` tuples."""
        return [
            (server, service, client, info["bucket"], info["detail"])
            for (server, service, client), info in sorted(self._entries.items())
        ]

    def to_obj(self):
        return {
            "format": self._FORMAT,
            "entries": [
                {
                    "server": server,
                    "service": service,
                    "client": client,
                    "bucket": info["bucket"],
                    "detail": info["detail"],
                }
                for (server, service, client), info in sorted(
                    self._entries.items()
                )
            ],
        }

    @classmethod
    def from_obj(cls, obj):
        if obj.get("format") != cls._FORMAT:
            raise ValueError(
                f"unsupported quarantine format: {obj.get('format')!r}"
            )
        registry = cls()
        for item in obj["entries"]:
            registry.poison(
                item["server"], item["service"], item["client"],
                item["bucket"], item["detail"],
            )
        return registry

    def save(self, checkpoint, key=None):
        """Persist into ``checkpoint`` (a no-op when it is ``None``)."""
        if checkpoint is not None:
            checkpoint.save(key or self.KEY, self.to_obj())

    @classmethod
    def load(cls, checkpoint, key=None):
        """Restore from ``checkpoint``; empty when absent or ``None``."""
        key = key or cls.KEY
        if checkpoint is not None and checkpoint.has(key):
            return cls.from_obj(checkpoint.load(key))
        return cls()
