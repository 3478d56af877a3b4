"""Performance ledger: canonical per-run perf profiles and their store.

The regression gate (`wsinterop regress`) is deliberately timing-free,
which leaves the system blind to *performance* drift: traces are
throwaway per-run artifacts and nothing retains per-stage latency
across runs.  This module closes that gap:

* :func:`perf_profile` extracts one canonical **perf profile** from a
  trace — per-stage latency histograms, per-(server, client) quantiles,
  worker utilization, wire-vs-in-memory overhead, cells/sec — all
  derived from the deterministic span/metric stream, never from the
  campaign payload.

* :class:`PerfLedger` persists profiles beside the regress baselines:
  each profile is written content-addressed (``perf-<digest12>.json``,
  in a :class:`~repro.core.store.ContentStore` like the baseline
  snapshots) and an **append-only** ``perf.jsonl`` ledger line (an
  :class:`~repro.core.store.AppendLog`, like the accept history)
  records it keyed by config identity (the trace ID, a pure function of
  campaign kind + config fingerprint), git revision and seed.

* :func:`diff_profiles` compares two profiles **noise-aware**: per
  stage it tests the *median* shift against a threshold scaled by the
  baseline histogram's median absolute deviation (never raw means — a
  single slow outlier must not flag a regression), with an absolute
  floor and a ratio guard so microsecond-scale stages cannot drown the
  diff in scheduler jitter.

Timing never flows back into canonical matrices or fingerprints — the
ledger observes the sweep, it cannot perturb what the regress gate
hashes.
"""

from __future__ import annotations

import os

from repro.core.canon import matrix_digest
from repro.core.store import AppendLog, ContentStore, StoreError
from repro.obs.metrics import Histogram

PERF_FORMAT = 1

LEDGER_FILENAME = "perf.jsonl"

#: Default noise-aware significance parameters: a stage regresses only
#: when its median moved by more than ``mad_threshold`` baseline MADs
#: AND by more than ``min_delta_ms`` absolute AND by more than
#: ``min_ratio`` relative.  All three gates exist for a reason: the MAD
#: scales to the stage's own spread, the floor shields sub-millisecond
#: stages from scheduler jitter, and the ratio keeps a wide-histogram
#: stage from flagging a small absolute wobble.
DEFAULT_MAD_THRESHOLD = 3.0
DEFAULT_MIN_DELTA_MS = 0.5
DEFAULT_MIN_RATIO = 2.0

#: A stage with at most this many spans also carries its exact span
#: durations, and diffs read its median and MAD from them.  With few
#: spans the bucket estimates are coarse: three deploys of 95 ms read as
#: a 75 ms median and three of 105 ms as 175 ms, and a bucket-midpoint
#: MAD is zero whenever the spans share a bucket — so a 10% wobble
#: across a bucket bound would pass the 2x ratio gate.
EXACT_STAGE_SAMPLES = 64


class LedgerError(StoreError):
    """A perf ledger cannot be used, with a classified reason."""

    hint = (
        "record a fresh profile with `wsinterop perf record "
        "--ledger-dir <dir>`"
    )


# -- profile extraction --------------------------------------------------------


def _histograms_named(trace, metric):
    """``{labels dict: Histogram}`` for one metric across a trace."""
    found = []
    for event in trace["metrics_events"]:
        if event["kind"] != "histogram" or event["name"] != metric:
            continue
        labels = dict(tuple(pair) for pair in event["labels"])
        found.append((labels, Histogram.from_obj(event)))
    return found


#: The wire rows: each post's total, then the parts of its exchange
#: (``connect`` only on exchanges that opened a connection).
WIRE_METRICS = (
    ("total", "wire_ms"),
    ("connect", "wire_connect_ms"),
    ("write", "wire_write_ms"),
    ("first_byte", "wire_first_byte_ms"),
    ("read", "wire_read_ms"),
)


def wire_histograms(trace):
    """``{row: Histogram}`` of the :data:`WIRE_METRICS` a trace holds."""
    rows = {}
    for row, metric in WIRE_METRICS:
        for _, histogram in _histograms_named(trace, metric):
            if row in rows:
                rows[row].merge(histogram)
            else:
                rows[row] = histogram
    return rows


def _root_ms(trace):
    for span in trace["spans"]:
        if span["parent"] == "":
            return float(span["ms"])
    return 0.0


def _stage_obj(histogram, durations):
    """A stage's histogram, plus its exact span durations when they are
    few and account for every observation the histogram holds."""
    obj = histogram.to_obj()
    if len(durations) == histogram.count <= EXACT_STAGE_SAMPLES:
        obj["samples"] = sorted(durations)
    return obj


def stage_stats(obj):
    """``(count, median, MAD)`` of one profile stage in milliseconds.

    Exact when the profile carries the stage's span durations (see
    :data:`EXACT_STAGE_SAMPLES`); estimated from the histogram buckets
    otherwise, which is all profiles recorded before that field existed
    carry.
    """
    samples = obj.get("samples")
    if samples:
        import statistics

        median = statistics.median(samples)
        mad = statistics.median(abs(value - median) for value in samples)
        return len(samples), median, mad
    histogram = Histogram.from_obj(obj)
    return histogram.count, histogram.quantile(0.5), histogram.mad()


def _summarize(histogram):
    return {
        "count": histogram.count,
        "p50_ms": round(histogram.quantile(0.50), 4),
        "p95_ms": round(histogram.quantile(0.95), 4),
        "p99_ms": round(histogram.quantile(0.99), 4),
        "mean_ms": round(histogram.mean, 4),
        "total_ms": round(histogram.total, 3),
    }


def perf_profile(trace):
    """The canonical perf profile of one loaded trace.

    ``trace`` is the dict :func:`repro.obs.sink.load_trace` returns (or
    an equivalent built in-memory from a live tracer).  The profile is
    pure data — plain dicts of numbers and strings — so it serializes
    canonically and content-addresses stably.
    """
    meta = trace["meta"] or {}
    stages = {}
    for labels, histogram in _histograms_named(trace, "span_ms"):
        stage = labels.get("name")
        if stage is None:
            continue
        if stage in stages:
            stages[stage].merge(histogram)
        else:
            stages[stage] = histogram
    pairs = {}
    cells = 0
    for labels, histogram in _histograms_named(trace, "pair_ms"):
        server = labels.get("server")
        client = labels.get("client")
        if server is None or client is None:
            continue
        key = f"{server}|{client}"
        if key in pairs:
            pairs[key].merge(histogram)
        else:
            pairs[key] = histogram
    for histogram in pairs.values():
        cells += histogram.count
    if not cells:
        # Campaigns without pair_ms rollups (e.g. invoke) still mark
        # each (server, client) measurement with a cell-level span.
        from repro.obs.trace import PAIR_SPAN_NAMES

        cell_names = set(PAIR_SPAN_NAMES) | {"cell"}
        cells = sum(
            1 for span in trace["spans"] if span["name"] in cell_names
        )
    root_ms = _root_ms(trace)
    durations = {}
    for span in trace["spans"]:
        durations.setdefault(span["name"], []).append(float(span["ms"]))
    wire_rows = wire_histograms(trace)
    wire = wire_rows.pop("total", None)
    profile = {
        "format": PERF_FORMAT,
        "kind": meta.get("campaign", ""),
        "trace_id": meta.get("trace_id", ""),
        "workers": meta.get("workers", 1),
        "root_ms": round(root_ms, 3),
        "spans_total": len(trace["spans"]),
        "cells": cells,
        "cells_per_sec": (
            round(cells / (root_ms / 1000.0), 3) if root_ms > 0 else 0.0
        ),
        "stages": {
            stage: _stage_obj(stages[stage], durations.get(stage, ()))
            for stage in sorted(stages)
        },
        "pairs": {key: _summarize(pairs[key]) for key in sorted(pairs)},
        "worker_utilization": [
            dict(row) for row in sorted(
                trace.get("workers", ()), key=lambda row: row["worker"]
            )
        ],
        "wire": _summarize(wire) if wire is not None else None,
        "wire_overhead_pct": (
            round(100.0 * wire.total / root_ms, 2)
            if wire is not None and root_ms > 0 else None
        ),
        "wire_parts": {
            part: _summarize(histogram)
            for part, histogram in wire_rows.items()
        } or None,
    }
    return profile


profile_digest = matrix_digest


# -- the ledger ----------------------------------------------------------------


class PerfLedger:
    """Append-only perf history: ``perf.jsonl`` + content-addressed files.

    Lives in its own directory (conventionally ``<baseline-dir>/perf``,
    beside the regress baselines — never *inside* them: the baseline
    snapshot GC owns that directory's ``.json`` namespace).  Every
    profile file is written atomically before its ledger line is
    appended, so a crash between the two leaves an orphan profile file
    (harmless) rather than a dangling ledger entry.
    """

    def __init__(self, directory):
        self.directory = directory
        self.path = os.path.join(directory, LEDGER_FILENAME)
        self._log = AppendLog(self.path)
        self._profiles = ContentStore(directory, LedgerError)

    def record(self, profile, recorded_at="", git_rev="", seed=None):
        """Persist ``profile`` and append its ledger entry; returns it.

        ``recorded_at`` and ``git_rev`` are recorded verbatim — passed
        in, never sampled here, mirroring the baseline accept history.
        """
        os.makedirs(self.directory, exist_ok=True)
        digest, filename = self._profiles.put("perf", profile)
        entry = {
            "format": PERF_FORMAT,
            "recorded_at": recorded_at,
            "kind": profile["kind"],
            "trace_id": profile["trace_id"],
            "git_rev": git_rev,
            "seed": seed,
            "workers": profile["workers"],
            "digest": digest,
            "file": filename,
            "summary": {
                "root_ms": profile["root_ms"],
                "spans_total": profile["spans_total"],
                "cells": profile["cells"],
                "cells_per_sec": profile["cells_per_sec"],
            },
        }
        self._log.append(entry)
        return entry

    def entries(self, kind=None, trace_id=None):
        """Ledger entries oldest-first, skipping torn lines with a count.

        Returns ``(entries, skipped)``.  A partially-appended trailing
        line — a crashed or still-running writer — must not make the
        whole history unreadable; any undecodable or malformed line is
        skipped and counted instead.
        """
        try:
            records, skipped = self._log.read()
        except OSError as exc:
            raise LedgerError(
                LedgerError.CORRUPT,
                f"perf ledger at {self.path!r} is unreadable: {exc}",
            )
        entries = []
        for entry in records:
            if not isinstance(entry, dict) or not {
                "kind", "digest", "file"
            } <= set(entry):
                skipped += 1
                continue
            if kind is not None and entry["kind"] != kind:
                continue
            if trace_id is not None and entry.get("trace_id") != trace_id:
                continue
            entries.append(entry)
        return entries, skipped

    def load_profile(self, entry):
        """The full profile behind one ledger entry, digest-verified.

        The digest check runs over the raw bytes before parsing, so a
        truncated or hand-edited profile file is classified as tampered
        rather than surfacing as a JSON traceback mid-diff.
        """
        profile = self._profiles.get(entry["file"], entry["digest"])
        if profile.get("format") != PERF_FORMAT:
            raise LedgerError(
                LedgerError.CORRUPT,
                f"profile {entry['file']!r} has unsupported format "
                f"{profile.get('format')!r}",
            )
        return profile

    def resolve(self, ref, kind=None):
        """One ledger entry from a human reference.

        ``ref`` may be ``latest``, ``latest~N`` (N promotions back), an
        integer index (negative counts from the end, python-style), or
        a digest prefix of at least 4 hex characters.
        """
        entries, _ = self.entries(kind=kind)
        if not entries:
            raise LedgerError(
                LedgerError.MISSING,
                f"perf ledger at {self.directory!r} has no entries"
                + (f" for kind {kind!r}" if kind else ""),
            )
        if ref == "latest":
            return entries[-1]
        if ref.startswith("latest~"):
            try:
                back = int(ref[len("latest~"):])
            except ValueError:
                back = -1
            if back < 0 or back >= len(entries):
                raise LedgerError(
                    LedgerError.MISSING,
                    f"ledger reference {ref!r} reaches past the "
                    f"{len(entries)}-entry history",
                )
            return entries[-1 - back]
        try:
            index = int(ref)
        except ValueError:
            matches = [
                entry for entry in entries
                if entry["digest"].startswith(ref)
            ]
            if len(ref) >= 4 and len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise LedgerError(
                    LedgerError.MISSING,
                    f"digest prefix {ref!r} is ambiguous "
                    f"({len(matches)} entries match)",
                )
            raise LedgerError(
                LedgerError.MISSING,
                f"no ledger entry matches {ref!r} (use `latest`, "
                f"`latest~N`, an index, or a >=4-char digest prefix)",
            )
        try:
            return entries[index]
        except IndexError:
            raise LedgerError(
                LedgerError.MISSING,
                f"ledger index {index} is out of range "
                f"(history holds {len(entries)} entries)",
            )


# -- noise-aware diffing -------------------------------------------------------

STAGE_OK = "ok"
STAGE_REGRESSION = "regression"
STAGE_IMPROVED = "improved"
STAGE_NEW = "new"
STAGE_REMOVED = "removed"


class StageDelta:
    """One stage's timing movement between two profiles."""

    __slots__ = (
        "stage", "count_a", "count_b", "p50_a", "p50_b",
        "delta_ms", "mad_ms", "ratio", "verdict",
    )

    def __init__(self, stage, count_a, count_b, p50_a, p50_b,
                 delta_ms, mad_ms, ratio, verdict):
        self.stage = stage
        self.count_a = count_a
        self.count_b = count_b
        self.p50_a = p50_a
        self.p50_b = p50_b
        self.delta_ms = delta_ms
        self.mad_ms = mad_ms
        self.ratio = ratio
        self.verdict = verdict

    def to_obj(self):
        return {
            "stage": self.stage,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "p50_a_ms": round(self.p50_a, 4),
            "p50_b_ms": round(self.p50_b, 4),
            "delta_ms": round(self.delta_ms, 4),
            "mad_ms": round(self.mad_ms, 4),
            "ratio": round(self.ratio, 3),
            "verdict": self.verdict,
        }


class PerfDiff:
    """The noise-aware comparison of two perf profiles."""

    def __init__(self, kind, stages, notes, thresholds):
        self.kind = kind
        self.stages = stages          # [StageDelta] in stage order
        self.notes = notes            # informational strings
        self.thresholds = thresholds  # the parameters that judged this

    @property
    def regressions(self):
        return [s for s in self.stages if s.verdict == STAGE_REGRESSION]

    @property
    def improvements(self):
        return [s for s in self.stages if s.verdict == STAGE_IMPROVED]

    @property
    def significant(self):
        """True when at least one stage significantly regressed."""
        return bool(self.regressions)

    def to_obj(self):
        return {
            "format": PERF_FORMAT,
            "kind": self.kind,
            "significant": self.significant,
            "thresholds": dict(self.thresholds),
            "notes": list(self.notes),
            "stages": [stage.to_obj() for stage in self.stages],
        }


def _judge(p50_a, p50_b, mad, mad_threshold, min_delta_ms, min_ratio):
    delta = p50_b - p50_a
    slower = delta > 0
    magnitude = abs(delta)
    baseline = p50_a if slower else p50_b
    grew = max(p50_a, p50_b)
    if magnitude <= max(min_delta_ms, mad_threshold * mad):
        return STAGE_OK
    if baseline > 0 and grew < min_ratio * baseline:
        return STAGE_OK
    return STAGE_REGRESSION if slower else STAGE_IMPROVED


def diff_profiles(profile_a, profile_b,
                  mad_threshold=DEFAULT_MAD_THRESHOLD,
                  min_delta_ms=DEFAULT_MIN_DELTA_MS,
                  min_ratio=DEFAULT_MIN_RATIO):
    """Compare two profiles stage-by-stage, medians against MAD noise.

    ``profile_a`` is the baseline, ``profile_b`` the candidate.  A
    stage is a *significant regression* only when its median latency
    rose by more than ``mad_threshold`` baseline-MADs, more than
    ``min_delta_ms`` absolute, and more than ``min_ratio`` relative —
    raw mean deltas are never consulted.  Stages present on only one
    side are reported informationally, never gated (a new stage has no
    baseline to regress against).
    """
    notes = []
    if profile_a.get("kind") != profile_b.get("kind"):
        raise ValueError(
            f"cannot diff profiles of different campaign kinds: "
            f"{profile_a.get('kind')!r} vs {profile_b.get('kind')!r}"
        )
    if profile_a.get("trace_id") != profile_b.get("trace_id"):
        notes.append(
            "profiles were recorded under different campaign "
            "configurations; stage populations may not be comparable"
        )
    if profile_a.get("workers") != profile_b.get("workers"):
        notes.append(
            f"worker counts differ ({profile_a.get('workers')} vs "
            f"{profile_b.get('workers')}); wall-clock stages shift "
            "with parallelism"
        )
    stages_a = {
        name: stage_stats(obj)
        for name, obj in profile_a.get("stages", {}).items()
    }
    stages_b = {
        name: stage_stats(obj)
        for name, obj in profile_b.get("stages", {}).items()
    }
    deltas = []
    for stage in sorted(set(stages_a) | set(stages_b)):
        in_a, in_b = stages_a.get(stage), stages_b.get(stage)
        if in_a is None or in_b is None:
            count, p50, _ = in_a or in_b
            deltas.append(StageDelta(
                stage,
                count if in_a else 0,
                count if in_b else 0,
                p50 if in_a else 0.0,
                p50 if in_b else 0.0,
                0.0, 0.0, 1.0,
                STAGE_REMOVED if in_b is None else STAGE_NEW,
            ))
            continue
        (count_a, p50_a, mad), (count_b, p50_b, _) = in_a, in_b
        verdict = _judge(
            p50_a, p50_b, mad, mad_threshold, min_delta_ms, min_ratio
        )
        ratio = (p50_b / p50_a) if p50_a > 0 else float(p50_b > 0) or 1.0
        deltas.append(StageDelta(
            stage, count_a, count_b, p50_a, p50_b,
            p50_b - p50_a, mad, ratio, verdict,
        ))
    cps_a = profile_a.get("cells_per_sec") or 0.0
    cps_b = profile_b.get("cells_per_sec") or 0.0
    if cps_a and cps_b:
        notes.append(
            f"throughput: {cps_a:g} -> {cps_b:g} cells/sec "
            f"({100.0 * (cps_b - cps_a) / cps_a:+.1f}%)"
        )
    return PerfDiff(
        profile_a.get("kind", ""), deltas, notes,
        {
            "mad_threshold": mad_threshold,
            "min_delta_ms": min_delta_ms,
            "min_ratio": min_ratio,
        },
    )


def trace_to_profile_inputs(trace_id, campaign, workers, events,
                            metrics, worker_rows=()):
    """An in-memory trace dict (the :func:`load_trace` shape) from live
    tracer output — lets ``perf record`` profile a sweep it just ran
    without round-tripping through a trace file."""
    return {
        "meta": {
            "format": PERF_FORMAT,
            "trace_id": trace_id,
            "campaign": campaign,
            "workers": workers,
            "created": 0.0,
        },
        "spans": [e for e in events if e.get("type") == "span"],
        "workers": [dict(row) for row in worker_rows],
        "metrics_events": metrics.to_events() if metrics else [],
        "skipped_lines": 0,
    }
