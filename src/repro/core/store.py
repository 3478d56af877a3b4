"""Persistence: the durable-file layer and the campaign result store.

Every file the program keeps or reports goes through the primitives
here, so each one either survives a kill -9 at any instant or fails to
load with a classified :class:`StoreError` that carries a remediation
hint; a write that fails raises one too (:class:`StoreWriteError`):

* :func:`write_text_atomic` / :func:`write_json_atomic` replace a whole
  file (temp file, fsync, ``os.replace``, directory fsync);
* :class:`AppendLog` appends canonical JSON lines and reads them back
  with a count of the lines it had to skip;
* :class:`ContentStore` files JSON documents under their own sha256 and
  verifies the hash on every read;
* :func:`validate_jsonl` decodes and validates a ``meta``-first JSONL
  stream (traces, progress streams) in one pass.

The study's published artifact was a website of result files; the
result store plays that role.  ``save_result``/``load_result``
round-trip everything the aggregations and analyses need — per-record
step outcomes included — so a saved run can be re-analyzed without
re-executing 79,629 tests.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

from repro.core.canon import canonical_json
from repro.core.outcomes import ClientTestRecord, StepStatus, intern_outcome
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
    return intern_outcome(
        StepStatus(obj["status"]), obj["errors"], obj["warnings"],
        obj["codes"],
    )


def _report_to_obj(report):
    return {
        "name": report.server_name,
        "services_total": report.services_total,
        "deployed": report.deployed,
        "refused": report.refused,
        "wsi_failing": sorted(report.wsi_failing),
        "wsi_advisory_only": sorted(report.wsi_advisory_only),
    }


def _report_from_obj(server_id, obj):
    report = ServerRunReport(
        server_id=server_id,
        server_name=obj["name"],
        services_total=obj["services_total"],
        deployed=obj["deployed"],
        refused=obj["refused"],
    )
    report.wsi_failing.update(obj["wsi_failing"])
    report.wsi_advisory_only.update(obj["wsi_advisory_only"])
    return report


def _records_to_obj(records):
    # Records share a few dozen interned outcomes: convert each once.
    converted = {}

    def outcome_obj(outcome):
        found = converted.get(id(outcome))
        if found is None:
            found = converted[id(outcome)] = _outcome_to_obj(outcome)
        return found

    return [
        {
            "server": record.server_id,
            "client": record.client_id,
            "service": record.service_name,
            "generation": outcome_obj(record.generation),
            "compilation": outcome_obj(record.compilation),
        }
        for record in records
    ]


def _records_from_obj(items):
    return [
        ClientTestRecord(
            server_id=item["server"],
            client_id=item["client"],
            service_name=item["service"],
            generation=_outcome_from_obj(item["generation"]),
            compilation=_outcome_from_obj(item["compilation"]),
        )
        for item in items
    ]


def result_to_obj(result, include_records=True):
    """Convert a :class:`CampaignResult` to a JSON-compatible dict."""
    obj = {
        "format": _FORMAT_VERSION,
        "server_ids": list(result.server_ids),
        "client_ids": list(result.client_ids),
        "servers": {
            server_id: _report_to_obj(report)
            for server_id, report in result.servers.items()
        },
    }
    if include_records:
        obj["records"] = _records_to_obj(result.records)
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
        result.servers[server_id] = _report_from_obj(server_id, data)
    for record in _records_from_obj(obj.get("records", ())):
        result.add_record(record)
    return result


class StoreError(Exception):
    """A stored file cannot be used, with a classified reason.

    ``kind`` is one of :data:`StoreError.KINDS`; ``hint`` tells the
    operator how to recover instead of leaving them with a traceback.
    Each store subclasses it with its own default ``hint``, so the CLI
    needs one handler for all of them.
    """

    MISSING = "missing"
    CORRUPT = "corrupt"
    TAMPERED = "tampered"
    FINGERPRINT_MISMATCH = "fingerprint-mismatch"
    UNWRITABLE = "unwritable"

    KINDS = (MISSING, CORRUPT, TAMPERED, FINGERPRINT_MISMATCH, UNWRITABLE)

    hint = ""

    def __init__(self, kind, message, hint=""):
        if kind not in self.KINDS:
            raise ValueError(f"unknown {type(self).__name__} kind {kind!r}")
        super().__init__(message)
        self.kind = kind
        self.hint = hint or self.hint


class StoreWriteError(StoreError, OSError):
    """A file could not be written: the ``unwritable`` kind.

    It is also the failed call's :class:`OSError`, with its ``errno``,
    so code that treats a failed write as an ``OSError`` (telemetry
    degrading to silence) handles it unchanged.
    """

    def __init__(self, path, exc):
        directory = os.path.dirname(os.path.abspath(path))
        name = errno.errorcode.get(exc.errno, "unknown errno")
        super().__init__(
            self.UNWRITABLE, f"cannot write {path}: {exc.strerror or exc}",
            f"check that {directory} exists, is writable and has free "
            f"space ({name}), then re-run",
        )
        self.errno, self.strerror = exc.errno, exc.strerror
        self.filename = path

    def __str__(self):
        return self.args[0]


class ResultError(StoreError, ValueError):
    """A saved campaign result cannot be loaded."""


class CheckpointError(StoreError, ValueError):
    """A checkpoint entry cannot be used."""


class CheckpointMismatch(CheckpointError):
    """A checkpoint directory belongs to a different campaign config."""

    hint = (
        "point --checkpoint-dir at an empty directory, or re-run with "
        "the original campaign parameters"
    )

    def __init__(self, message):
        super().__init__(self.FINGERPRINT_MISMATCH, message)


def _umask():
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


#: The mode ``open()`` gives a new file.  Read once: reading the umask
#: means setting it, and the umask is process-wide.
FILE_MODE = 0o666 & ~_umask()


def write_text_atomic(text, path):
    """Write ``text`` so a crash can never leave a corrupt file.

    The payload goes to a temporary file in the destination directory
    (same filesystem, so the final rename is atomic) and is fsynced
    before ``os.replace`` publishes it under the real name.  The
    directory entry is then fsynced too: without it the rename lives
    only in the page cache, and a power loss right after a "durable"
    checkpoint write could roll the directory back to the old file.
    ``mkstemp`` creates the temp file 0600, so it gets
    :data:`FILE_MODE` first.  A failed call raises
    :class:`StoreWriteError` and leaves the old file in place.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        descriptor, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                os.fchmod(handle.fileno(), FILE_MODE)
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
    except OSError as exc:
        raise StoreWriteError(path, exc) from exc
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


def _cut_torn_tail(descriptor):
    """Truncate an unterminated last line back to the last newline."""
    end = position = os.lseek(descriptor, 0, os.SEEK_END)
    while position > 0:
        start = max(position - 4096, 0)
        cut = os.pread(descriptor, position - start, start).rfind(b"\n")
        if cut >= 0:
            position = start + cut + 1
            break
        position = start
    if position != end:
        os.ftruncate(descriptor, position)


class AppendLog:
    """An append-only file of canonical JSON lines.

    A record is committed once its newline is on disk.  A writer killed
    mid-append leaves an unterminated fragment: :meth:`read` skips it
    with a count, and the next :meth:`append` cuts it off before
    writing, so the fragment can never swallow a later record.
    """

    def __init__(self, path):
        self.path = path

    def append(self, *records):
        """Write one ``canonical_json`` line per record, in one write.

        A failed call raises :class:`StoreWriteError`.
        """
        data = "".join(
            canonical_json(record) + "\n" for record in records
        ).encode("utf-8")
        try:
            descriptor = os.open(
                self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o666
            )
            try:
                _cut_torn_tail(descriptor)
                while data:
                    data = data[os.write(descriptor, data):]
            finally:
                os.close(descriptor)
        except OSError as exc:
            raise StoreWriteError(self.path, exc) from exc

    def read(self):
        """``(records, skipped)``, or ``([], 0)`` when the file is missing.

        Lines that are not JSON are skipped and counted, and so is an
        unterminated last line: the next append would cut it off.
        """
        try:
            with open(self.path, "rb") as handle:
                lines = handle.read().split(b"\n")
        except FileNotFoundError:
            return [], 0
        records, skipped = decode_jsonl(lines[:-1])
        return records, skipped + bool(lines[-1].strip())


class ContentStore:
    """JSON documents filed in ``directory`` under their own sha256.

    ``error`` is the :class:`StoreError` subclass (and so the default
    hint) a failed :meth:`get` raises.
    """

    def __init__(self, directory, error):
        self.directory = directory
        self.error = error

    def put(self, prefix, obj):
        """Write ``obj``'s canonical bytes atomically as
        ``<prefix>-<digest12>.json``; returns ``(digest, name)``."""
        text = canonical_json(obj)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        name = f"{prefix}-{digest[:12]}.json"
        write_text_atomic(text, os.path.join(self.directory, name))
        return digest, name

    def get(self, name, digest):
        """The document ``put`` filed as ``name``, verified against
        ``digest``.

        The hash runs over the raw bytes before parsing, so a missing,
        truncated or edited file is ``tampered`` even when it still
        parses.
        """
        path = os.path.join(self.directory, name)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise self.error(
                StoreError.TAMPERED, f"{path} is gone: {exc}"
            ) from exc
        if hashlib.sha256(data).hexdigest() != digest:
            raise self.error(
                StoreError.TAMPERED,
                f"{path} does not match its recorded digest (truncated or "
                "edited file)",
            )
        try:
            return json.loads(data)
        except ValueError as exc:
            raise self.error(
                StoreError.CORRUPT, f"{path} is not JSON: {exc}"
            ) from exc


# -- JSONL streams -------------------------------------------------------------

#: Value checks for :func:`validate_jsonl` schemas.  A ``?`` suffix on a
#: type name marks a field whose value may also be null.
_TYPE_CHECKS = {
    "int": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "str": lambda value: isinstance(value, str),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
}


def decode_jsonl(lines):
    """Decode JSON ``lines``: ``(objects, skipped)``.

    A line that is not JSON is skipped and counted; blank lines are
    neither.
    """
    objects, skipped = [], 0
    for line in lines:
        if not line.strip():
            continue
        try:
            objects.append(json.loads(line))
        except ValueError:
            skipped += 1
    return objects, skipped


def _check_line(obj, number, line_types, error):
    if not isinstance(obj, dict):
        raise error(f"line {number}: not a JSON object")
    line_type = obj.get("type")
    fields = line_types.get(line_type)
    if fields is None:
        raise error(f"line {number}: unknown line type {line_type!r}")
    for field, type_name in fields.items():
        if field not in obj:
            raise error(
                f"line {number}: {line_type} line missing field {field!r}"
            )
        nullable = type_name.endswith("?")
        type_name = type_name.rstrip("?")
        if nullable and obj[field] is None:
            continue
        if not _TYPE_CHECKS[type_name](obj[field]):
            raise error(f"line {number}: field {field!r} is not a {type_name}")


def validate_jsonl(lines, line_types, error, name):
    """Decode and validate the JSONL stream ``lines``: ``(objects, skipped)``.

    Each non-blank line must be an object whose ``type`` is a key of
    ``line_types`` and that carries that entry's ``{field: type name}``
    fields, and the first must be the ``meta`` line.  A torn last line
    — what a killed or still-running writer leaves — is skipped and
    counted; anything else raises ``error`` (``name`` labels the stream
    in its messages).
    """
    lines = [line for line in lines if line.strip()]
    objects = []
    for number, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except ValueError as exc:
            if number == len(lines) and objects:
                return objects, 1
            raise error(f"line {number}: not JSON: {exc}")
        _check_line(obj, number, line_types, error)
        if not objects and obj.get("type") != "meta":
            raise error(f"{name} must start with a meta line")
        objects.append(obj)
    if not objects:
        raise error(f"{name} is empty")
    return objects, 0


def save_result(result, path, include_records=True):
    """Atomically write ``result`` to ``path`` as JSON."""
    write_json_atomic(
        result_to_obj(result, include_records=include_records), path
    )


def load_result(path):
    """Load a result previously written by :func:`save_result`.

    A missing, truncated or foreign-format file raises
    :class:`ResultError`.
    """
    hint = f"re-run `wsinterop run --save {path}` to write it again"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return result_from_obj(json.load(handle))
    except FileNotFoundError as exc:
        raise ResultError(
            ResultError.MISSING, f"no saved result at {path}: {exc}", hint
        ) from exc
    except (OSError, ValueError) as exc:
        raise ResultError(
            ResultError.CORRUPT,
            f"saved result {path} is unreadable: {exc}", hint,
        ) from exc


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
        return {
            "format": _FORMAT_VERSION,
            "server": _report_to_obj(self.report),
            "records": _records_to_obj(self.records),
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_obj(cls, server_id, obj):
        if obj.get("format") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported slice format: {obj.get('format')!r}"
            )
        return cls(
            _report_from_obj(server_id, obj["server"]),
            _records_from_obj(obj["records"]),
            obj.get("wall_seconds", 0.0),
        )


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
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                CheckpointError.CORRUPT,
                f"checkpoint entry {path} is unreadable: {exc}",
                hint=f"delete {path} and re-run with the same arguments "
                "to compute it again",
            ) from exc

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

    def save(self, checkpoint):
        """Persist into ``checkpoint`` (a no-op when it is ``None``)."""
        if checkpoint is not None:
            checkpoint.save(self.KEY, self.to_obj())

    @classmethod
    def load(cls, checkpoint):
        """Restore from ``checkpoint``; empty when absent or ``None``."""
        if checkpoint is not None and checkpoint.has(cls.KEY):
            return cls.from_obj(checkpoint.load(cls.KEY))
        return cls()
