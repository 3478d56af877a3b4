"""Observability overhead — tracing must be close to free.

Proves the DESIGN.md §9 budget: the span hot path may tax the sweep it
observes by < 5%.  Directly comparing two ~1.5 s campaign runs is
hopeless on a shared box (run-to-run CPU variance exceeds the budget),
so the proof is assembled from stable parts instead:

* the per-site cost of an open/close span cycle, measured over a tight
  200k-iteration loop (CPU time, GC off — stable to ~1%), net of the
  no-op cost an untraced sweep already pays at the same sites;
* the span volume and CPU time of one real quick-scale campaign.

``net per-span cost x span count / campaign CPU time`` is the hot-path
tax.  The deferred flush (span IDs, event dicts, histograms — runs once
at the trace-shipping boundary) is timed and reported separately.  The
payload digest is also checked, because an observability layer that
changed the result would be worse than a slow one.
"""

import gc
import hashlib
import time

from conftest import print_rows

from repro.core import Campaign
from repro.obs import NullTracer, Tracer, activate, trace_id_for
from repro.reporting import result_to_json

LOOP = 200_000

#: acceptance bar from DESIGN.md §9 (sweep hot path)
MAX_OVERHEAD = 0.05


def _digest(result):
    return hashlib.sha256(result_to_json(result).encode()).hexdigest()


def _cpu_timed(fn):
    gc.collect()
    gc.disable()
    started = time.process_time()
    out = fn()
    elapsed = time.process_time() - started
    gc.enable()
    return elapsed, out


def _site_seconds(tracer, n=LOOP):
    """CPU seconds per ``with tracer.span(...)`` open/close cycle."""

    def loop():
        span = tracer.span
        for _ in range(n):
            with span("test", client="c"):
                pass

    elapsed, _ = _cpu_timed(loop)
    return elapsed / n


def test_tracing_overhead(benchmark, quick_config):
    trace_id = trace_id_for("run", quick_config.fingerprint())

    def measure():
        null_site = _site_seconds(NullTracer())
        traced_site = _site_seconds(Tracer(trace_id))

        untraced_seconds, untraced_result = _cpu_timed(
            lambda: Campaign(quick_config).run()
        )
        tracer = Tracer(trace_id)

        def traced():
            with activate(tracer):
                return Campaign(quick_config).run()

        traced_seconds, traced_result = _cpu_timed(traced)
        flush_seconds, _ = _cpu_timed(tracer.emit_root)
        return (null_site, traced_site, untraced_seconds, untraced_result,
                traced_seconds, traced_result, flush_seconds, tracer)

    (null_site, traced_site, untraced_seconds, untraced_result,
     traced_seconds, traced_result, flush_seconds, tracer) = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )

    spans = sum(1 for event in tracer.events if event.get("type") == "span")
    net_per_span = max(traced_site - null_site, 0.0)
    overhead = net_per_span * spans / untraced_seconds
    print_rows(
        "Tracing overhead (quick campaign)",
        ("Metric", "Value"),
        [
            ("null site cost (us)", f"{null_site * 1e6:.3f}"),
            ("traced site cost (us)", f"{traced_site * 1e6:.3f}"),
            ("net per-span cost (us)", f"{net_per_span * 1e6:.3f}"),
            ("spans recorded", spans),
            ("campaign CPU untraced (s)", f"{untraced_seconds:.3f}"),
            ("campaign CPU traced (s)", f"{traced_seconds:.3f}"),
            ("deferred flush CPU (s)", f"{flush_seconds:.3f}"),
            ("hot-path overhead", f"{overhead * 100:.2f}%"),
            ("payload identical", _digest(untraced_result)
             == _digest(traced_result)),
        ],
    )
    assert _digest(untraced_result) == _digest(traced_result)
    assert spans > 0
    assert overhead < MAX_OVERHEAD, (
        f"tracing hot-path overhead {overhead * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}%"
    )
