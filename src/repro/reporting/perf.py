"""Rendering of perf-ledger output: diffs, trends, advisories.

Three consumers share these renderers: ``wsinterop perf diff`` (the
noise-aware two-run comparison), ``wsinterop perf trend`` (per-stage
time series across the whole ledger), and the advisory timing-drift
section ``wsinterop regress`` prints when a ledger sits beside the
baseline — advisory meaning rendered only, never part of the gate's
exit code.
"""

from __future__ import annotations

import json

from repro.reporting.tables import render_table

#: Eight-level sparkline glyphs, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values):
    """A unicode mini-chart of ``values`` scaled to their own range."""
    values = list(values)
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK[0] * len(values)
    span = high - low
    return "".join(
        _SPARK[min(int((value - low) / span * len(_SPARK)), len(_SPARK) - 1)]
        for value in values
    )


def _entry_label(entry):
    rev = entry.get("git_rev") or ""
    stamp = entry.get("recorded_at") or ""
    label = entry["digest"][:12]
    if rev:
        label += f" @{rev}"
    if stamp:
        label += f" ({stamp})"
    return label


def perf_diff_rows(diff):
    """One row per stage: the medians, the noise scale, the verdict."""
    rows = []
    for stage in diff.stages:
        rows.append((
            stage.stage,
            stage.count_a,
            stage.count_b,
            f"{stage.p50_a:.3f}",
            f"{stage.p50_b:.3f}",
            f"{stage.delta_ms:+.3f}",
            f"{stage.mad_ms:.3f}",
            f"{stage.ratio:.2f}x",
            stage.verdict,
        ))
    return rows


def render_perf_diff(diff, label_a="A", label_b="B"):
    """The full two-run comparison; headline first."""
    regressions = diff.regressions
    improvements = diff.improvements
    if regressions:
        headline = (
            f"perf diff [{diff.kind}]: {len(regressions)} significant "
            f"regression(s): "
            + ", ".join(
                f"{s.stage} {s.p50_a:.3f}->{s.p50_b:.3f}ms"
                for s in regressions
            )
        )
    elif improvements:
        headline = (
            f"perf diff [{diff.kind}]: no significant regression "
            f"({len(improvements)} significant improvement(s))"
        )
    else:
        headline = (
            f"perf diff [{diff.kind}]: no significant drift "
            f"(medians within {diff.thresholds['mad_threshold']:g} MADs / "
            f"{diff.thresholds['min_delta_ms']:g}ms / "
            f"{diff.thresholds['min_ratio']:g}x)"
        )
    blocks = [headline]
    blocks.append(render_table(
        ("Stage", "N(a)", "N(b)", "p50(a) ms", "p50(b) ms", "Delta ms",
         "MAD ms", "Ratio", "Verdict"),
        perf_diff_rows(diff),
        title=f"Stage medians: {label_a} -> {label_b}",
    ))
    for note in diff.notes:
        blocks.append(f"note: {note}")
    return "\n\n".join(blocks)


def perf_diff_to_json(diff, indent=None):
    return json.dumps(diff.to_obj(), indent=indent, sort_keys=True)


def render_perf_trend(entries, profiles, stage=None):
    """Per-stage p50 series across the ledger, oldest to newest.

    Without ``stage``: one row per stage — entry count, latest/min/max
    median and a sparkline of the whole series.  With ``stage``: one
    row per ledger entry for that stage, so a drift can be pinned to
    the recording (and git revision) that introduced it.
    """
    if not entries:
        return "perf ledger is empty (record a run first)"
    header = (
        f"perf trend over {len(entries)} recorded run(s), "
        f"{_entry_label(entries[0])} .. {_entry_label(entries[-1])}"
    )
    series = {}
    for profile in profiles:
        for name, hist_obj in profile.get("stages", {}).items():
            series.setdefault(name, [None] * len(profiles))
    for index, profile in enumerate(profiles):
        from repro.obs.perf import stage_stats

        for name, hist_obj in profile.get("stages", {}).items():
            series[name][index] = stage_stats(hist_obj)[1]
    if stage is not None:
        values = series.get(stage)
        if values is None:
            known = ", ".join(sorted(series))
            return (f"{header}\n\nstage {stage!r} never appears in the "
                    f"ledger; known stages: {known}")
        rows = []
        previous = None
        for entry, value in zip(entries, values):
            if value is None:
                rows.append((_entry_label(entry), "-", "-"))
                continue
            delta = (
                f"{value - previous:+.3f}" if previous is not None else "-"
            )
            rows.append((_entry_label(entry), f"{value:.3f}", delta))
            previous = value
        return header + "\n\n" + render_table(
            ("Run", "p50 ms", "Delta ms"),
            rows,
            title=f"Stage {stage!r} median across the ledger",
        )
    rows = []
    for name in sorted(series):
        values = [value for value in series[name] if value is not None]
        if not values:
            continue
        rows.append((
            name,
            len(values),
            f"{values[-1]:.3f}",
            f"{min(values):.3f}",
            f"{max(values):.3f}",
            sparkline(values),
        ))
    throughput = [
        profile.get("cells_per_sec") or 0.0 for profile in profiles
    ]
    blocks = [header, render_table(
        ("Stage", "Runs", "Latest p50", "Min", "Max", "Trend"),
        rows,
        title="Per-stage median latency (ms) across the ledger",
    )]
    if any(throughput):
        blocks.append(
            f"throughput (cells/sec): latest {throughput[-1]:g}, "
            f"min {min(throughput):g}, max {max(throughput):g}  "
            f"{sparkline(throughput)}"
        )
    return "\n\n".join(blocks)


def render_timing_advisory(advisories):
    """The regress report's non-gating timing-drift section.

    ``advisories`` is ``[(kind, diff | None, detail)]`` — a diff of the
    two most recent ledger recordings per campaign, or ``None`` with a
    reason when the ledger holds fewer than two.  Exit-code-neutral by
    construction: this function only ever returns text.
    """
    lines = [
        "timing advisory (perf ledger; informational, never gates):"
    ]
    for kind, diff, detail in advisories:
        if diff is None:
            lines.append(f"  {kind}: {detail}")
            continue
        regressions = diff.regressions
        if regressions:
            worst = max(regressions, key=lambda s: s.delta_ms)
            lines.append(
                f"  {kind}: TIMING DRIFT — {len(regressions)} stage(s) "
                f"slower than recorded history ({detail}); worst: "
                f"{worst.stage} {worst.p50_a:.3f}->{worst.p50_b:.3f}ms "
                f"({worst.ratio:.1f}x)"
            )
        else:
            lines.append(
                f"  {kind}: timings consistent with recorded history "
                f"({detail})"
            )
    lines.append(
        "  (inspect with `wsinterop perf trend` / `wsinterop perf diff`)"
    )
    return "\n".join(lines)
