"""Perf-ledger overhead — recording history must be close to free.

The ledger rides on top of an already-traced sweep, so its whole cost
is post-hoc: extract the profile from the trace, write one
content-addressed file, append one ledger line, and (for the gate) diff
two profiles.  This bench measures those steps against the CPU time of
the traced sweep they annotate and holds the total under 5% — the same
budget DESIGN.md gives the tracing hot path, because a history
mechanism that taxes the sweep would never be left enabled.
"""

import gc
import shutil
import tempfile
import time

from conftest import print_rows

from repro.core import Campaign
from repro.obs import (
    PerfLedger,
    Tracer,
    activate,
    diff_profiles,
    perf_profile,
    trace_id_for,
)
from repro.obs.perf import trace_to_profile_inputs

#: acceptance bar: ledger record + diff on top of a traced sweep
MAX_OVERHEAD = 0.05


def _cpu_timed(fn):
    gc.collect()
    gc.disable()
    started = time.process_time()
    out = fn()
    elapsed = time.process_time() - started
    gc.enable()
    return elapsed, out


def test_ledger_overhead(benchmark, quick_config):
    trace_id = trace_id_for("run", quick_config.fingerprint())
    ledger_dir = tempfile.mkdtemp(prefix="bench-perf-")

    def measure():
        tracer = Tracer(trace_id)

        def traced():
            with activate(tracer):
                return Campaign(quick_config).run()

        sweep_seconds, _ = _cpu_timed(traced)
        tracer.emit_root()
        trace = trace_to_profile_inputs(
            trace_id, "run", 1, tracer.events, tracer.metrics
        )

        profile_seconds, profile = _cpu_timed(lambda: perf_profile(trace))
        ledger = PerfLedger(ledger_dir)
        record_seconds, _ = _cpu_timed(
            lambda: ledger.record(profile, recorded_at="bench", seed=0)
        )
        diff_seconds, diff = _cpu_timed(
            lambda: diff_profiles(profile, profile)
        )
        return sweep_seconds, profile_seconds, record_seconds, diff_seconds, diff

    sweep_seconds, profile_seconds, record_seconds, diff_seconds, diff = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    shutil.rmtree(ledger_dir, ignore_errors=True)

    ledger_seconds = profile_seconds + record_seconds + diff_seconds
    overhead = ledger_seconds / sweep_seconds
    print_rows(
        "Perf-ledger overhead (quick campaign)",
        ("Metric", "Value"),
        [
            ("traced sweep CPU (s)", f"{sweep_seconds:.3f}"),
            ("profile extraction (s)", f"{profile_seconds:.4f}"),
            ("ledger record (s)", f"{record_seconds:.4f}"),
            ("profile diff (s)", f"{diff_seconds:.4f}"),
            ("ledger overhead", f"{overhead * 100:.2f}%"),
            ("self-diff significant", diff.significant),
        ],
    )
    assert not diff.significant, "a profile must never regress against itself"
    assert overhead < MAX_OVERHEAD, (
        f"perf ledger overhead {overhead * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}%"
    )
