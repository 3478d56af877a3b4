"""End-to-end coverage of the ``wsinterop perf`` family and telemetry.

The acceptance contract: two same-seed recordings diff clean (exit 0)
at any worker count, an injected 10x stage slowdown is flagged (exit
2), a SIGKILLed recorder never corrupts the entries already in the
ledger, and the ``--progress`` stream validates against its schema
while leaving the canonical matrices byte-identical.
"""

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.obs.trace as trace_mod
from repro.cli import main
from repro.obs import PerfLedger
from repro.runtime.progress import read_progress, validate_progress_lines

_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Cheapest real sweep for recording: one service per server.
RECORD = ["perf", "record", "--campaign", "invoke", "--quick",
          "--seed", "7", "--sample", "1"]


def _record(ledger_dir, recorded_at, workers=1, extra=()):
    args = RECORD + ["--ledger-dir", ledger_dir,
                     "--recorded-at", recorded_at,
                     "--workers", str(workers)] + list(extra)
    return main(args)


class TestSameSeedZeroDrift:
    @pytest.mark.parametrize(
        "workers", [1, 2, 4] if _FORK else [1]
    )
    def test_identical_runs_diff_clean(self, tmp_path, capsys, workers):
        ledger_dir = str(tmp_path / "ledger")
        assert _record(ledger_dir, "t0", workers=workers) == 0
        assert _record(ledger_dir, "t1", workers=workers) == 0
        rc = main(["perf", "diff", "latest~1", "latest",
                   "--ledger-dir", ledger_dir])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "no significant" in out


class TestSettledHeap:
    def test_sweep_runs_on_a_frozen_heap_and_thaws_after(self, tmp_path):
        """Objects alive before the sweep are frozen while its spans are
        timed, so a full collection inside a span walks only the sweep's
        own objects; the caller's heap is unfrozen afterwards."""
        seen = []

        def probe(name):
            seen.append(gc.get_freeze_count())
            return 1.0

        trace_mod.duration_scale_hook = probe
        try:
            assert _record(str(tmp_path / "ledger"), "t0") == 0
        finally:
            trace_mod.duration_scale_hook = None
        assert seen and min(seen) > 0
        assert gc.get_freeze_count() == 0


class TestInjectedSlowdown:
    def test_ten_x_stage_slowdown_flags_exit_2(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        assert _record(ledger_dir, "t0") == 0
        trace_mod.duration_scale_hook = (
            lambda name: 10.0 if name == "wsdl-read" else 1.0
        )
        try:
            assert _record(ledger_dir, "t1") == 0
        finally:
            trace_mod.duration_scale_hook = None
        json_path = tmp_path / "diff.json"
        rc = main(["perf", "diff", "latest~1", "latest",
                   "--ledger-dir", ledger_dir, "--json", str(json_path)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "regression" in out and "wsdl-read" in out
        diff = json.loads(json_path.read_text(encoding="utf-8"))
        assert diff["significant"] is True
        flagged = [s for s in diff["stages"]
                   if s["verdict"] == "regression"]
        assert [s["stage"] for s in flagged] == ["wsdl-read"]

    def test_hook_never_perturbs_the_recorded_identity(self, tmp_path):
        """The slowdown lives in annotations only: same trace_id, same
        span count — the hook cannot touch what fingerprints cover."""
        ledger_dir = str(tmp_path / "ledger")
        assert _record(ledger_dir, "t0") == 0
        trace_mod.duration_scale_hook = lambda name: 10.0
        try:
            assert _record(ledger_dir, "t1") == 0
        finally:
            trace_mod.duration_scale_hook = None
        entries, _ = PerfLedger(ledger_dir).entries()
        assert entries[0]["trace_id"] == entries[1]["trace_id"]
        assert (entries[0]["summary"]["spans_total"]
                == entries[1]["summary"]["spans_total"])


class TestLedgerDurability:
    def test_torn_trailing_line_skipped_with_count(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        assert _record(ledger_dir, "t0") == 0
        assert _record(ledger_dir, "t1") == 0
        ledger = PerfLedger(ledger_dir)
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "invoke", "digest": "cafe')
        rc = main(["perf", "trend", "--ledger-dir", ledger_dir])
        captured = capsys.readouterr()
        assert rc == 0
        assert "1 unreadable ledger line(s) skipped" in captured.err
        assert "2 recorded run(s)" in captured.out
        # And the intact entries still diff.
        assert main(["perf", "diff", "latest~1", "latest",
                     "--ledger-dir", ledger_dir]) == 0

    def test_sigkill_mid_record_leaves_prior_entries_readable(
        self, tmp_path
    ):
        ledger_dir = str(tmp_path / "ledger")
        assert _record(ledger_dir, "t0") == 0
        before, _ = PerfLedger(ledger_dir).entries()
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli"] + RECORD
            + ["--ledger-dir", ledger_dir, "--recorded-at", "t1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        time.sleep(0.3)  # mid-sweep, before the ledger append
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        entries, skipped = PerfLedger(ledger_dir).entries()
        assert [e["digest"] for e in entries] >= [
            e["digest"] for e in before
        ]
        # Whatever the kill left behind, the survivors stay loadable.
        ledger = PerfLedger(ledger_dir)
        for entry in before:
            assert ledger.load_profile(entry)["kind"] == "invoke"


@pytest.mark.skipif(not _FORK, reason="pooled sweeps require fork")
class TestProgressStream:
    def test_pooled_record_emits_valid_stream(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        progress_path = str(tmp_path / "progress.jsonl")
        assert _record(ledger_dir, "t0", workers=2,
                       extra=["--progress", progress_path]) == 0
        capsys.readouterr()
        lines = open(progress_path, encoding="utf-8").readlines()
        assert validate_progress_lines(lines) >= 2
        stream = read_progress(progress_path)
        assert stream["meta"]["campaign"] == "invoke"
        assert stream["meta"]["workers"] == 2
        assert stream["final"]["outcome"] == "completed"
        assert stream["final"]["done"] == stream["final"]["total"]

    def test_eta_prior_comes_from_the_ledger(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        assert _record(ledger_dir, "t0") == 0
        progress_path = str(tmp_path / "progress.jsonl")
        assert _record(ledger_dir, "t1", workers=2,
                       extra=["--progress", progress_path,
                              "--perf-ledger", ledger_dir]) == 0
        capsys.readouterr()
        stream = read_progress(progress_path)
        # The meta line fires before any unit completes, so its ETA can
        # only come from the recorded history.
        assert stream["meta"]["eta_seconds"] is not None

    def test_serial_sweep_streams_progress(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        progress_path = str(tmp_path / "progress.jsonl")
        assert _record(ledger_dir, "t0", workers=1,
                       extra=["--progress", progress_path]) == 0
        assert "--workers 2 or more" not in capsys.readouterr().err
        with open(progress_path, encoding="utf-8") as handle:
            validate_progress_lines(handle.readlines())
        stream = read_progress(progress_path)
        assert stream["meta"]["workers"] == 1
        assert stream["final"]["outcome"] == "completed"
        assert stream["final"]["done"] == stream["final"]["total"]


class TestProfileEdgeCases:
    def test_missing_trace_exits_2_with_clear_message(self, tmp_path,
                                                      capsys):
        rc = main(["profile", str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no trace found" in captured.err
        assert "--trace-dir" in captured.err
        assert "Traceback" not in captured.err

    def test_empty_trace_dir_exits_2(self, tmp_path, capsys):
        rc = main(["profile", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_span_trace_renders_explicit_report(self, tmp_path,
                                                     capsys):
        trace_path = tmp_path / "trace.jsonl"
        meta = {"type": "meta", "format": 1, "trace_id": "t" * 16,
                "campaign": "run", "workers": 1, "created": 0.0}
        trace_path.write_text(json.dumps(meta) + "\n", encoding="utf-8")
        rc = main(["profile", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no spans recorded" in out


class TestRegressAdvisory:
    def test_advisory_never_changes_the_exit_code(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline")
        ledger_dir = str(tmp_path / "ledger")
        gate = ["regress", "--quick", "--campaigns", "invoke",
                "--seed", "7", "--sample", "1",
                "--baseline-dir", baseline]
        assert main(gate + ["--accept"]) == 0
        # One recording: too few to compare, advisory says so, exit 0.
        assert _record(ledger_dir, "t0") == 0
        capsys.readouterr()
        rc = main(gate + ["--perf-ledger", ledger_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "timing advisory" in out
        assert "need 2 to compare" in out
        # A second recording with a huge injected slowdown: the advisory
        # reports drift, the gate still exits 0.
        trace_mod.duration_scale_hook = (
            lambda name: 10.0 if name == "wsdl-read" else 1.0
        )
        try:
            assert _record(ledger_dir, "t1") == 0
        finally:
            trace_mod.duration_scale_hook = None
        capsys.readouterr()
        rc = main(gate + ["--perf-ledger", ledger_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TIMING DRIFT" in out
        assert "wsdl-read" in out
