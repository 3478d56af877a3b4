"""One crash matrix over every store's write path.

Each case fails one call a durable write makes — ``mkstemp``, the temp
file's write, ``fsync``, ``os.replace`` or an append's ``os.write`` —
with EIO or ENOSPC, once per occurrence of that call; or it makes every
open for writing fail with EROFS, a read-only directory (``chmod`` does
not stop root).  A failed append first writes half its bytes, as a
writer killed mid-append would.  After each failure the store must
reopen to its state before or after the write, or raise a classified
:class:`StoreError`; the next write must then succeed and every append
log must read back without a skipped line.

Faults are injected by replacing ``os`` and ``tempfile`` as
:mod:`repro.core.store` sees them; production code has no hook.
"""

import errno
import json
import os
import stat
import tempfile

import pytest

import repro.core.store as store_module
from repro.cli import _write_report
from repro.core.results import CampaignResult
from repro.core.store import (
    AppendLog,
    CampaignCheckpoint,
    StoreError,
    StoreWriteError,
    load_result,
    result_to_obj,
    save_result,
    write_text_atomic,
)
from repro.obs import PerfLedger, TraceSink, load_trace
from repro.regress.baseline import BaselineError, BaselineStore
from repro.runtime.progress import (
    ProgressWriter,
    read_progress,
    validate_progress_lines,
)
from repro.runtime.recorder import Exchange, TransportRecorder

ATOMIC = ("mkstemp", "write", "fsync", "replace")
APPEND = ("append",)
WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT


class _Proxy:
    """A module stand-in: ``overrides`` first, the real module after."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _FailingFile(_Proxy):
    def __init__(self, handle, faults):
        super().__init__(handle)
        self._faults = faults

    def write(self, text):
        self._faults.check("write")
        return self._real.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._real.close()


class Faults:
    """Fail occurrence ``nth`` of call ``point`` with ``code``; the
    point ``"open"`` fails every open for writing instead."""

    def __init__(self, point, nth, code):
        self.point, self.nth, self.code = point, nth, code
        self.seen = 0
        self.fired = False

    def error(self):
        return OSError(self.code, os.strerror(self.code))

    def check(self, point):
        if point != self.point:
            return
        self.seen += 1
        if self.seen - 1 == self.nth:
            self.fired = True
            raise self.error()

    def install(self, monkeypatch):
        real_os, real_tempfile = os, tempfile

        def mkstemp(*args, **kwargs):
            self.check("mkstemp")
            if self.point == "open":
                self.fired = True
                raise self.error()
            return real_tempfile.mkstemp(*args, **kwargs)

        def open_(path, flags, *args):
            if self.point == "open" and flags & WRITE_FLAGS:
                self.fired = True
                raise self.error()
            return real_os.open(path, flags, *args)

        def fsync(descriptor):
            self.check("fsync")
            return real_os.fsync(descriptor)

        def replace(source, target):
            self.check("replace")
            return real_os.replace(source, target)

        def write(descriptor, data):
            try:
                self.check("append")
            except OSError:
                real_os.write(descriptor, data[: len(data) // 2])
                raise
            return real_os.write(descriptor, data)

        fake_os = _Proxy(
            real_os, open=open_, fsync=fsync, replace=replace, write=write,
            fdopen=lambda *a, **k: _FailingFile(real_os.fdopen(*a, **k), self),
        )
        monkeypatch.setattr(store_module, "os", fake_os)
        monkeypatch.setattr(
            store_module, "tempfile", _Proxy(real_tempfile, mkstemp=mkstemp)
        )


# -- the stores: (points, setup, write, state) -----------------------------
#
# ``setup(d)`` writes the prior state, ``write(d)`` is the write under
# test and ``state(d)`` reopens the store as a tuple of components, each
# of which must come out as either its prior or its new value.


def _checkpoint_state(d):
    checkpoint = CampaignCheckpoint(d)
    return ({key: checkpoint.load(key) for key in checkpoint.keys()},)


def _result(*servers):
    return CampaignResult(server_ids=servers, client_ids=("suds",))


def _snapshot(kind, metric):
    return {
        "kind": kind, "fingerprint": "fp", "totals": {"tests": 1},
        "cells": {"s|c": {"status": "pass", "metrics": {"tests": metric}}},
    }


def _baseline_state(d):
    store = BaselineStore(d)
    try:
        kinds = store.campaigns()
    except BaselineError as exc:
        if exc.kind != BaselineError.MISSING:
            raise
        kinds = []
    snapshots = {kind: store.load(kind)["cells"] for kind in kinds}
    history = [(e["timestamp"], e["kind"]) for e in store.history()]
    return snapshots, history


def _profile(root_ms):
    return {"format": 1, "kind": "run", "trace_id": "t", "workers": 1,
            "root_ms": root_ms, "spans_total": 1, "cells": 1,
            "cells_per_sec": 1.0, "stages": {}}


def _ledger_state(d):
    ledger = PerfLedger(d)
    entries, _ = ledger.entries()
    return ([ledger.load_profile(entry)["root_ms"] for entry in entries],)


def _progress_path(d):
    return os.path.join(d, "progress.jsonl")


def _progress_state(d):
    with open(_progress_path(d), encoding="utf-8") as handle:
        validate_progress_lines(handle.readlines())
    stream = read_progress(_progress_path(d))
    return stream["meta"], stream["final"]


def _recording(count):
    exchanges = [Exchange(f"http://svc/{n}", "<r/>", 200, "<ok/>")
                 for n in range(count)]
    return TransportRecorder(None, exchanges=exchanges)


def _recorder_state(d):
    with open(os.path.join(d, "capture.json"), encoding="utf-8") as handle:
        return (len(json.load(handle)["exchanges"]),)


def _report_path(d):
    return os.path.join(d, "report.json")


def _report_state(d):
    with open(_report_path(d), encoding="utf-8") as handle:
        return (handle.read(),)


STORES = {
    "checkpoint-save": (
        ATOMIC,
        lambda d: CampaignCheckpoint(d).save("unit", {"v": 1}),
        lambda d: CampaignCheckpoint(d).save("unit", {"v": 2}),
        _checkpoint_state,
    ),
    "checkpoint-guard": (
        ATOMIC,
        lambda d: CampaignCheckpoint(d).save("unit", {"v": 1}),
        lambda d: CampaignCheckpoint(d).guard("manifest", "fp"),
        _checkpoint_state,
    ),
    "save-result": (
        ATOMIC,
        lambda d: save_result(_result("metro"), os.path.join(d, "r.json")),
        lambda d: save_result(
            _result("metro", "cxf"), os.path.join(d, "r.json")
        ),
        lambda d: (result_to_obj(load_result(os.path.join(d, "r.json"))),),
    ),
    "baseline-accept": (
        ATOMIC + APPEND,
        lambda d: BaselineStore(d).accept(
            {"run": _snapshot("run", 0)}, timestamp="t1"
        ),
        lambda d: BaselineStore(d).accept(
            {"run": _snapshot("run", 5), "fuzz": _snapshot("fuzz", 1)},
            timestamp="t2",
        ),
        _baseline_state,
    ),
    "perf-record": (
        ATOMIC + APPEND,
        lambda d: PerfLedger(d).record(_profile(1.0)),
        lambda d: PerfLedger(d).record(_profile(2.0)),
        _ledger_state,
    ),
    "trace-write": (
        ATOMIC,
        lambda d: TraceSink(d).write("t1", "run", [], None),
        lambda d: TraceSink(d).write("t2", "run", [], None),
        lambda d: (load_trace(d)["meta"]["trace_id"],),
    ),
    "progress-writer": (
        APPEND,
        lambda d: ProgressWriter(_progress_path(d)).begin(
            total=2, workers=1
        ),
        lambda d: ProgressWriter(_progress_path(d)).final(
            done=2, poisoned=0, wall_seconds=1.0
        ),
        _progress_state,
    ),
    "recorder-save": (
        ATOMIC,
        lambda d: _recording(1).save(os.path.join(d, "capture.json")),
        lambda d: _recording(2).save(os.path.join(d, "capture.json")),
        _recorder_state,
    ),
    "report-write": (
        ATOMIC,
        lambda d: _write_report(_report_path(d), lambda: '{"v": 1}\n'),
        lambda d: _write_report(_report_path(d), lambda: '{"v": 2}\n'),
        _report_state,
    ),
}


def _reopen(state, directory):
    try:
        return state(directory)
    except StoreError:
        return None


def _assert_clean_logs(directory):
    for name in os.listdir(directory):
        if name.endswith(".jsonl"):
            assert AppendLog(os.path.join(directory, name)).read()[1] == 0


def _crash_one(tmp_path, monkeypatch, store, point, nth, code):
    """Run one faulted write; returns whether the fault fired."""
    points, setup, write, state = STORES[store]
    clean = str(tmp_path / f"clean-{point}-{nth}")
    os.makedirs(clean)
    setup(clean)
    prior = state(clean)
    write(clean)
    after = state(clean)

    directory = str(tmp_path / f"crash-{point}-{nth}")
    os.makedirs(directory)
    setup(directory)
    faults = Faults(point, nth, code)
    with monkeypatch.context() as patch:
        faults.install(patch)
        try:
            write(directory)
        except OSError as exc:
            assert exc.errno == code
    reopened = _reopen(state, directory)
    if reopened is not None:
        for now, before, new in zip(reopened, prior, after):
            assert now in (before, new)
    if reopened != after:
        write(directory)
    assert state(directory) == after
    _assert_clean_logs(directory)
    return faults.fired


@pytest.mark.parametrize("code", [errno.EIO, errno.ENOSPC],
                         ids=["EIO", "ENOSPC"])
@pytest.mark.parametrize("point", ATOMIC + APPEND)
@pytest.mark.parametrize("store", sorted(STORES))
def test_failed_call_leaves_prior_or_new_state(tmp_path, monkeypatch, store,
                                               point, code):
    nth = 0
    while _crash_one(tmp_path, monkeypatch, store, point, nth, code):
        nth += 1
    # Every call of a point the path makes was failed once, and a
    # point the path does not make never fired.
    assert (nth > 0) == (point in STORES[store][0])


@pytest.mark.parametrize("store", sorted(STORES))
def test_read_only_directory(tmp_path, monkeypatch, store):
    assert _crash_one(tmp_path, monkeypatch, store, "open", 0, errno.EROFS)


def test_torn_append_at_every_offset(tmp_path):
    records = [{"n": 1, "text": "first"}, {"n": 2, "text": "second"}]
    whole = tmp_path / "whole.jsonl"
    AppendLog(str(whole)).append(*records)
    data = whole.read_bytes()
    last_start = data.rindex(b"\n", 0, len(data) - 1) + 1
    for cut in range(last_start, len(data)):
        path = tmp_path / f"cut-{cut}.jsonl"
        path.write_bytes(data[:cut])
        log = AppendLog(str(path))
        read, skipped = log.read()
        assert read == records[:1] and skipped <= 1, cut
        log.append({"n": 3})
        assert log.read() == (records[:1] + [{"n": 3}], 0), cut


class TestAppendLog:
    def test_append_writes_canonical_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        AppendLog(str(path)).append({"b": 1, "a": [1, 2]}, {"c": None})
        assert path.read_text(encoding="utf-8") == (
            '{"a":[1,2],"b":1}\n{"c":null}\n'
        )

    def test_interior_garbage_is_skipped_with_a_count(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"torn\n\xff\n\n{"b":2}\n')
        assert AppendLog(str(path)).read() == ([{"a": 1}, {"b": 2}], 2)


class TestClassifiedWriteFailure:
    """A failed write is a ``StoreError`` of kind ``unwritable`` that is
    also the failed call's ``OSError``."""

    def _check(self, exc, path):
        assert isinstance(exc, StoreError) and isinstance(exc, OSError)
        assert exc.kind == StoreError.UNWRITABLE
        assert exc.errno == errno.ENOENT
        assert str(exc) == f"cannot write {path}: {os.strerror(errno.ENOENT)}"
        assert os.path.dirname(os.path.abspath(path)) in exc.hint
        assert "ENOENT" in exc.hint

    def test_atomic_write_into_a_missing_directory(self, tmp_path):
        path = str(tmp_path / "missing" / "report.json")
        with pytest.raises(StoreWriteError) as caught:
            write_text_atomic("{}", path)
        self._check(caught.value, path)

    def test_append_into_a_missing_directory(self, tmp_path):
        path = str(tmp_path / "missing" / "log.jsonl")
        with pytest.raises(StoreWriteError) as caught:
            AppendLog(path).append({"n": 1})
        self._check(caught.value, path)


class TestFileMode:
    def test_written_files_get_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "reference", "w", encoding="utf-8"):
            pass
        expected = stat.S_IMODE(os.stat(tmp_path / "reference").st_mode)
        _write_report(str(tmp_path / "report.json"), lambda: "{}")
        save_result(_result("metro"), str(tmp_path / "result.json"))
        AppendLog(str(tmp_path / "log.jsonl")).append({"n": 1})
        for name in ("report.json", "result.json", "log.jsonl"):
            mode = stat.S_IMODE(os.stat(tmp_path / name).st_mode)
            assert mode == expected, (name, oct(mode), oct(expected))
