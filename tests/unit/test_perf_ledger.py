"""Unit coverage of the performance ledger, critical path and telemetry.

The ledger must store and reload profiles content-addressed (tampering
is classified, never a traceback), the diff must judge median shifts
against MAD noise (identical profiles drift zero; a 10x stage slowdown
is significant), the critical path must descend the most expensive
chain, and the progress stream must validate against its schema with
the same torn-tail tolerance every other append-only artifact has.
"""

import json
import os

import pytest

from repro.obs import (
    Histogram,
    PerfLedger,
    Tracer,
    cell_critical_paths,
    critical_path,
    diff_profiles,
    perf_profile,
    profile_digest,
    slowest_service_spans,
)
from repro.obs.perf import (
    EXACT_STAGE_SAMPLES,
    LedgerError,
    STAGE_IMPROVED,
    STAGE_NEW,
    STAGE_OK,
    STAGE_REGRESSION,
    STAGE_REMOVED,
    stage_stats,
    trace_to_profile_inputs,
)
from repro.runtime.progress import (
    ProgressValidationError,
    ProgressWriter,
    read_progress,
    validate_progress_lines,
)


def _stage_histogram(values):
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram.to_obj()


def _exact_stage(values):
    """A stage as :func:`perf_profile` writes it for a few-span stage."""
    obj = _stage_histogram(values)
    obj["samples"] = sorted(values)
    return obj


def _profile(stage_values, kind="run", trace_id="tid", workers=1,
             cells_per_sec=50.0):
    """A synthetic canonical profile with the given per-stage samples."""
    return {
        "format": 1,
        "kind": kind,
        "trace_id": trace_id,
        "workers": workers,
        "root_ms": 100.0,
        "spans_total": 10,
        "cells": 5,
        "cells_per_sec": cells_per_sec,
        "stages": {
            name: _stage_histogram(values)
            for name, values in stage_values.items()
        },
        "pairs": {},
        "worker_utilization": [],
        "wire": None,
        "wire_overhead_pct": None,
    }


def _traced_trace():
    """A small real trace built through the Tracer, in load_trace shape."""
    tracer = Tracer("tid")
    with tracer.span("server", server="metro"):
        with tracer.span("service", service="EchoA"):
            with tracer.span("test", server="metro", client="suds"):
                pass
        with tracer.span("test", server="metro", client="gsoap"):
            pass
    tracer.emit_root()
    return trace_to_profile_inputs(
        "tid", "run", 1, tracer.events, tracer.metrics
    )


class TestProfileExtraction:
    def test_profile_covers_stages_pairs_and_cells(self):
        profile = perf_profile(_traced_trace())
        assert profile["kind"] == "run"
        assert profile["trace_id"] == "tid"
        assert set(profile["stages"]) >= {"server", "service", "test"}
        assert profile["cells"] == 2  # two pair_ms observations
        assert "metro|suds" in profile["pairs"]
        assert profile["spans_total"] == len(
            [e for e in _traced_trace()["spans"]]
        )

    def test_profile_digest_is_content_addressed(self):
        first = perf_profile(_traced_trace())
        second = json.loads(json.dumps(first))  # round-trip copy
        assert profile_digest(first) == profile_digest(second)
        second["cells"] += 1
        assert profile_digest(first) != profile_digest(second)

    def test_cells_fall_back_to_cell_spans_without_pair_metrics(self):
        tracer = Tracer("tid")
        with tracer.span("cell", server="metro", client="suds"):
            pass
        tracer.emit_root()
        trace = trace_to_profile_inputs(
            "tid", "invoke", 1, tracer.events, tracer.metrics
        )
        assert perf_profile(trace)["cells"] == 1

    def test_few_span_stages_carry_their_exact_durations(self):
        trace = _traced_trace()
        profile = perf_profile(trace)
        for stage, obj in profile["stages"].items():
            durations = sorted(
                span["ms"] for span in trace["spans"]
                if span["name"] == stage
            )
            assert obj["samples"] == durations
            assert len(durations) == obj["count"]

    def test_many_span_stages_keep_only_buckets(self):
        tracer = Tracer("tid")
        for _ in range(EXACT_STAGE_SAMPLES + 1):
            with tracer.span("generate"):
                pass
        tracer.emit_root()
        trace = trace_to_profile_inputs(
            "tid", "run", 1, tracer.events, tracer.metrics
        )
        stages = perf_profile(trace)["stages"]
        assert stages["generate"]["count"] == EXACT_STAGE_SAMPLES + 1
        assert "samples" not in stages["generate"]
        assert len(stages["campaign"]["samples"]) == 1


class TestLedger:
    def test_record_then_reload_verbatim(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "perf"))
        profile = _profile({"test": [1.0, 2.0, 3.0]})
        entry = ledger.record(profile, recorded_at="t0", git_rev="abc",
                              seed=7)
        assert entry["digest"] == profile_digest(profile)
        assert entry["seed"] == 7
        entries, skipped = ledger.entries()
        assert skipped == 0
        assert [e["digest"] for e in entries] == [entry["digest"]]
        assert ledger.load_profile(entry) == profile

    def test_entries_filter_by_kind_and_trace_id(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "perf"))
        ledger.record(_profile({"a": [1.0]}, kind="run", trace_id="t1"))
        ledger.record(_profile({"a": [1.0]}, kind="fuzz", trace_id="t2"))
        runs, _ = ledger.entries(kind="run")
        assert [e["kind"] for e in runs] == ["run"]
        by_trace, _ = ledger.entries(trace_id="t2")
        assert [e["trace_id"] for e in by_trace] == ["t2"]

    def test_torn_trailing_line_skipped_with_count(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "perf"))
        ledger.record(_profile({"a": [1.0]}))
        ledger.record(_profile({"a": [2.0]}))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "run", "digest": "dead')  # torn append
        entries, skipped = ledger.entries()
        assert len(entries) == 2
        assert skipped == 1

    def test_record_after_torn_tail_is_kept(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "perf"))
        ledger.record(_profile({"a": [1.0]}))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "run", "digest": "dead')  # torn append
        second = ledger.record(_profile({"a": [2.0]}))
        entries, skipped = ledger.entries()
        assert len(entries) == 2 and skipped == 0
        assert entries[-1] == second

    def test_tampered_profile_is_classified(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "perf"))
        entry = ledger.record(_profile({"a": [1.0]}))
        path = os.path.join(ledger.directory, entry["file"])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(" ")
        with pytest.raises(LedgerError) as excinfo:
            ledger.load_profile(entry)
        assert excinfo.value.kind == LedgerError.TAMPERED
        assert excinfo.value.hint  # classified errors always carry a hint

    def test_resolve_reference_forms(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "perf"))
        first = ledger.record(_profile({"a": [1.0]}))
        second = ledger.record(_profile({"a": [2.0]}))
        assert ledger.resolve("latest") == second
        assert ledger.resolve("latest~1") == first
        assert ledger.resolve("0") == first
        assert ledger.resolve("-1") == second
        assert ledger.resolve(first["digest"][:6]) == first
        with pytest.raises(LedgerError):
            ledger.resolve("latest~9")
        with pytest.raises(LedgerError):
            ledger.resolve("zz")  # too short / unknown

    def test_missing_ledger_is_empty_not_an_error(self, tmp_path):
        entries, skipped = PerfLedger(str(tmp_path / "nope")).entries()
        assert entries == [] and skipped == 0
        with pytest.raises(LedgerError) as excinfo:
            PerfLedger(str(tmp_path / "nope")).resolve("latest")
        assert excinfo.value.kind == LedgerError.MISSING


class TestDiff:
    def test_identical_profiles_have_zero_drift(self):
        profile = _profile({"test": [1.0, 1.2, 0.9, 1.1] * 5})
        diff = diff_profiles(profile, profile)
        assert not diff.significant
        assert all(s.verdict == STAGE_OK for s in diff.stages)
        assert all(s.delta_ms == 0.0 for s in diff.stages)

    def test_ten_x_slowdown_is_significant(self):
        base = _profile({"test": [1.0, 1.2, 0.9, 1.1] * 5})
        slow = _profile({"test": [10.0, 12.0, 9.0, 11.0] * 5})
        diff = diff_profiles(base, slow)
        assert diff.significant
        (delta,) = diff.regressions
        assert delta.stage == "test"
        assert delta.ratio > 5.0

    def test_symmetric_speedup_is_improvement_not_regression(self):
        base = _profile({"test": [10.0, 12.0, 9.0, 11.0] * 5})
        fast = _profile({"test": [1.0, 1.2, 0.9, 1.1] * 5})
        diff = diff_profiles(base, fast)
        assert not diff.significant
        assert [s.verdict for s in diff.stages] == [STAGE_IMPROVED]

    def test_sub_floor_wobble_is_noise(self):
        base = _profile({"test": [0.10] * 20})
        wobble = _profile({"test": [0.30] * 20})  # 3x but under 0.5ms floor
        diff = diff_profiles(base, wobble)
        assert not diff.significant

    def test_wide_histogram_needs_more_than_its_own_noise(self):
        # Median shift of ~2ms against MAD >= several ms: not significant.
        base = _profile({"test": [1.0, 5.0, 20.0, 40.0] * 5})
        moved = _profile({"test": [2.0, 7.0, 22.0, 42.0] * 5})
        diff = diff_profiles(base, moved)
        assert not diff.significant

    def test_exact_medians_do_not_jump_a_bucket_bound(self):
        # 95 ms and 105 ms straddle the 100 ms bound: the bucket
        # estimates read 75 and 175 ms, the exact medians 95 and 105.
        base = _profile({})
        base["stages"]["deploy"] = _exact_stage([95.0, 95.0, 95.0])
        slower = _profile({})
        slower["stages"]["deploy"] = _exact_stage([105.0, 105.0, 105.0])
        (delta,) = diff_profiles(base, slower).stages
        assert (delta.p50_a, delta.p50_b) == (95.0, 105.0)
        assert delta.verdict == STAGE_OK

    def test_exact_samples_still_flag_a_real_slowdown(self):
        base = _profile({})
        base["stages"]["deploy"] = _exact_stage([90.0, 95.0, 100.0])
        slow = _profile({})
        slow["stages"]["deploy"] = _exact_stage([250.0, 260.0, 270.0])
        diff = diff_profiles(base, slow)
        assert [s.stage for s in diff.regressions] == ["deploy"]
        assert diff.regressions[0].mad_ms == 5.0

    def test_exact_mad_is_the_noise_scale(self):
        # Three spans spread 10-40 ms: MAD 10 ms, so a 25 ms median
        # shift stays within 3 MADs even though it is 2.25x.
        base = _profile({})
        base["stages"]["service"] = _exact_stage([10.0, 20.0, 40.0])
        moved = _profile({})
        moved["stages"]["service"] = _exact_stage([15.0, 45.0, 60.0])
        (delta,) = diff_profiles(base, moved).stages
        assert delta.mad_ms == 10.0
        assert delta.verdict == STAGE_OK

    def test_stage_stats_fall_back_to_buckets_without_samples(self):
        obj = _stage_histogram([95.0, 95.0, 95.0])
        histogram = Histogram.from_obj(obj)
        assert stage_stats(obj) == (3, histogram.quantile(0.5),
                                    histogram.mad())
        assert stage_stats(_exact_stage([1.0, 2.0, 9.0])) == (3, 2.0, 1.0)

    def test_one_sided_stages_are_informational(self):
        base = _profile({"old": [1.0] * 5})
        current = _profile({"new": [1.0] * 5})
        diff = diff_profiles(base, current)
        verdicts = {s.stage: s.verdict for s in diff.stages}
        assert verdicts == {"old": STAGE_REMOVED, "new": STAGE_NEW}
        assert not diff.significant  # never gated

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError):
            diff_profiles(
                _profile({"a": [1.0]}, kind="run"),
                _profile({"a": [1.0]}, kind="fuzz"),
            )

    def test_config_and_worker_mismatch_noted(self):
        diff = diff_profiles(
            _profile({"a": [1.0] * 3}, trace_id="t1", workers=1),
            _profile({"a": [1.0] * 3}, trace_id="t2", workers=4),
        )
        notes = " ".join(diff.notes)
        assert "different campaign configurations" in notes
        assert "worker counts differ" in notes

    def test_to_obj_round_trips_verdicts(self):
        base = _profile({"test": [1.0] * 20})
        slow = _profile({"test": [10.0] * 20})
        obj = diff_profiles(base, slow).to_obj()
        assert obj["significant"] is True
        assert obj["stages"][0]["verdict"] == STAGE_REGRESSION
        assert obj["thresholds"]["mad_threshold"] == 3.0


class TestCriticalPath:
    def _trace(self):
        tracer = Tracer("tid")
        with tracer.span("server", server="metro"):
            with tracer.span("service", service="EchoSlow"):
                pass
            with tracer.span("service", service="EchoFast"):
                pass
        tracer.emit_root()
        trace = trace_to_profile_inputs(
            "tid", "run", 1, tracer.events, tracer.metrics
        )
        # Rewrite durations deterministically: the walk ranks by ms.
        for span in trace["spans"]:
            if span["name"] == "campaign":
                span["ms"] = 100.0
            elif span["name"] == "server":
                span["ms"] = 90.0
            elif span["attrs"].get("service") == "EchoSlow":
                span["ms"] = 70.0
            else:
                span["ms"] = 10.0
        return trace

    def test_path_descends_most_expensive_child(self):
        path = critical_path(self._trace())
        assert [hop["name"] for hop in path] == [
            "campaign", "server", "service"
        ]
        assert path[-1]["attrs"]["service"] == "EchoSlow"
        assert path[0]["pct_of_root"] == 100.0
        # self time excludes children: server holds 90 - (70 + 10) = 10.
        assert path[1]["self_ms"] == pytest.approx(10.0)

    def test_empty_trace_has_empty_path(self):
        trace = {"meta": {}, "spans": [], "metrics_events": [],
                 "workers": [], "skipped_lines": 0}
        assert critical_path(trace) == []
        assert cell_critical_paths(trace) == []
        assert slowest_service_spans(trace) == []

    def test_slowest_services_carry_drilldown_span_ids(self):
        trace = self._trace()
        ranked = slowest_service_spans(trace, top=2)
        assert [item[1] for item in ranked] == ["EchoSlow", "EchoFast"]
        server, service, count, total, span_id, slow_ms = ranked[0]
        assert server == "metro" and count == 1
        assert slow_ms == pytest.approx(70.0)
        assert any(span["id"] == span_id for span in trace["spans"])


class TestProgressStream:
    def _run_writer(self, path, clock_values):
        clock = iter(clock_values)
        writer = ProgressWriter(
            str(path), campaign="run", eta_wall_hint_seconds=10.0,
            min_interval_seconds=0.0, clock=lambda: next(clock),
        )
        return writer

    def test_stream_validates_and_reads_back(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        writer = self._run_writer(path, [0.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        writer.begin(total=4, workers=2)
        writer.update(done=1, poisoned=0, worker_rows=[
            {"worker": 1, "state": "busy", "unit": "u", "server": "metro",
             "busy_seconds": 0.5},
        ])
        writer.update(done=4, poisoned=0, worker_rows=[])
        writer.final(done=4, poisoned=0, wall_seconds=3.0)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert validate_progress_lines(lines) == 4
        stream = read_progress(str(path))
        assert stream["meta"]["total"] == 4
        assert stream["final"]["outcome"] == "completed"
        assert len(stream["updates"]) == 2

    def test_eta_prior_then_observed_rate(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        writer = self._run_writer(path, [0.0, 2.0, 2.0])
        writer.begin(total=4, workers=1)
        writer.update(done=2, poisoned=0, worker_rows=[])
        stream = read_progress(str(path))
        # Before any completion: the ledger hint scaled to the sweep.
        assert stream["meta"]["eta_seconds"] == pytest.approx(10.0)
        # After 2 fresh completions in 2s: observed 1 unit/s, 2 left.
        assert stream["updates"][0]["eta_seconds"] == pytest.approx(2.0)

    def test_restored_units_do_not_count_as_fresh_rate(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        writer = self._run_writer(path, [0.0, 1.0, 1.0])
        writer.begin(total=10, workers=1, restored=5)
        writer.update(done=5, poisoned=0, worker_rows=[])
        stream = read_progress(str(path))
        # No fresh completions yet: falls back to the hint fraction.
        assert stream["updates"][0]["eta_seconds"] == pytest.approx(5.0)

    def test_torn_tail_tolerated_garbage_elsewhere_rejected(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        writer = self._run_writer(path, [0.0])
        writer.begin(total=1, workers=1)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert validate_progress_lines(lines + ['{"type": "fin']) == 1
        with pytest.raises(ProgressValidationError):
            validate_progress_lines(['{"torn'] + lines)
        with pytest.raises(ProgressValidationError):
            validate_progress_lines([])
        with pytest.raises(ProgressValidationError):
            # First line must be the meta line.
            validate_progress_lines([
                '{"type": "final", "done": 1, "total": 1, "poisoned": 0, '
                '"wall_seconds": 1.0, "outcome": "completed"}'
            ])

    def test_resumed_stream_after_torn_tail(self, tmp_path):
        # A sweep killed mid-heartbeat, then resumed on the same stream:
        # the resumed run's meta line must not vanish into the fragment.
        path = tmp_path / "progress.jsonl"
        self._run_writer(path, [0.0]).begin(total=2, workers=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "progress", "do')
        resumed = self._run_writer(path, [0.0])
        resumed.begin(total=2, workers=1, restored=1)
        resumed.final(done=2, poisoned=0, wall_seconds=1.0)
        stream = read_progress(str(path))
        assert stream["meta"]["restored"] == 1
        assert stream["final"]["done"] == 2
        assert stream["skipped_lines"] == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert validate_progress_lines(lines) == 3

    def test_unwritable_stream_degrades_to_silence(self, tmp_path):
        writer = ProgressWriter(
            str(tmp_path / "missing-dir" / "progress.jsonl"), campaign="run"
        )
        writer.begin(total=1, workers=1)  # must not raise
        writer.final(done=1, poisoned=0, wall_seconds=0.1)
