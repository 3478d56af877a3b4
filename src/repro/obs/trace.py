"""Deterministic span tracing for campaign sweeps.

A traced sweep emits one *span event* per completed phase — deploy,
service, client test, lifecycle step — carrying a span ID that is a
pure function of the campaign's logical coordinates, never of timing,
scheduling or worker count:

``span_id = H(parent_id, name, identity-attrs)``

with the root derived from the campaign fingerprint.  Two runs of the
same configuration therefore produce the same span IDs and the same
parent edges, whether executed serially or under any ``--workers N``
pool, which is what makes traces diffable and lets the pool merge
per-unit event streams back into the exact serial order.

Wall-clock durations (monotonic clock) and other measurements are
*annotations*: they ride on the event but never enter the ID, and they
live only in trace artifacts — campaign payloads stay byte-identical
with tracing on or off.

Instrumented code does not thread a tracer through every call; it asks
for the process-wide :func:`current_tracer`, which defaults to a
:class:`NullTracer` whose ``span`` is a shared no-op context manager,
so an untraced sweep pays one dict lookup and one ``with`` per site.
Spans must be opened and closed on the campaign's driving thread (the
guard's abandoned deadline threads never touch the tracer).

The hot path is deliberately thin: opening/closing a span touches a
slotted object, two monotonic reads and one list append.  Span IDs,
event dicts and metric aggregation are deferred to :meth:`Tracer.flush`
(triggered by reading ``events`` or by ``emit_root``), which runs once
per unit/run at the trace-shipping boundary — so tracing taxes the
sweep it observes by well under the 5% budget in DESIGN.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time

from repro.obs.metrics import MetricsRegistry

TRACE_FORMAT = 1

#: Span names whose close feeds the per-(server, client) histogram.
PAIR_SPAN_NAMES = frozenset({"test", "lifecycle", "mutant"})


#: Test hook: ``name -> multiplier`` applied to every closing span's
#: measured duration.  Lets tests and CI inject a known slowdown (e.g.
#: 10x on one stage) into the *timing annotations* without sleeping or
#: touching span identity — IDs, attrs and campaign payloads are
#: untouched, so determinism gates stay byte-identical under the hook.
duration_scale_hook = None


def _digest(material):
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def trace_id_for(campaign, config_fingerprint):
    """Deterministic trace identity of one (campaign kind, config).

    Deliberately excludes the shard shape and worker count: a trace of
    ``--workers 4 --shards 8`` must carry the same span IDs as the
    serial run of the same configuration.
    """
    canonical = json.dumps(
        {"campaign": campaign, "config": config_fingerprint},
        sort_keys=True, separators=(",", ":"),
    )
    return _digest(canonical)


def span_id_for(parent_id, name, attrs):
    """Deterministic span ID from logical coordinates only.

    The material is a flat ``\\x1f``-joined string rather than JSON —
    identity attrs are short identifier-like strings that never contain
    control characters, and this derivation is ~6x cheaper per span.
    """
    parts = [parent_id, name]
    if attrs:
        for key in sorted(attrs):
            parts.append(key)
            parts.append(str(attrs[key]))
    return _digest("\x1f".join(parts))


def root_span_id(trace_id):
    return span_id_for(trace_id, "root", {})


def server_span_id(trace_id, server_id):
    """The server rollup span's ID, computable without executing it."""
    return span_id_for(root_span_id(trace_id), "server", {"server": server_id})


class Span:
    """One span; it is its own context manager (hot path, slotted).

    ``span_id`` and ``parent_id`` are computed lazily from the parent
    chain — pure functions of logical coordinates, memoized on first
    access — so closing a span costs no hashing; :meth:`Tracer.flush`
    (or a mid-run ``current_span_id`` read) pays for it instead.
    """

    __slots__ = (
        "_tracer", "parent", "name", "attrs", "notes",
        "started", "duration_ms", "emit", "_id",
    )

    def __init__(self, tracer, name, attrs, emit):
        self._tracer = tracer
        self.parent = None
        self.name = name
        self.attrs = attrs
        self.notes = None
        self.started = 0.0
        self.duration_ms = 0.0
        self.emit = emit
        self._id = None

    @property
    def parent_id(self):
        parent = self.parent
        return self._tracer.root_id if parent is None else parent.span_id

    @property
    def span_id(self):
        if self._id is None:
            self._id = span_id_for(self.parent_id, self.name, self.attrs)
        return self._id

    def annotate(self, **notes):
        if self.notes is None:
            self.notes = notes
        else:
            self.notes.update(notes)

    def __enter__(self):
        tracer = self._tracer
        self.parent = tracer._current
        tracer._current = self
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration_ms = (time.monotonic() - self.started) * 1000.0
        if duration_scale_hook is not None:
            self.duration_ms *= duration_scale_hook(self.name)
        tracer = self._tracer
        tracer._current = self.parent
        tracer._spans.append(self)
        return False


class _NullSpan:
    """Shared inert span yielded by the null tracer."""

    __slots__ = ()
    span_id = ""
    parent_id = ""
    name = ""

    def annotate(self, **notes):
        pass


NULL_SPAN = _NullSpan()


#: One shared, reentrant no-op context manager for every untraced site.
_NULL_CONTEXT = contextlib.nullcontext(NULL_SPAN)


class NullTracer:
    """Tracing disabled: every operation is a near-free no-op."""

    enabled = False
    current_span_id = ""

    def span(self, name, **attrs):
        return _NULL_CONTEXT

    virtual_span = span

    def emit_root(self, name="campaign", **notes):
        pass


NULL_TRACER = NullTracer()


def _inherited(span, key):
    """Nearest value of an identity attr on the span's ancestor chain."""
    node = span
    while node is not None:
        value = node.attrs.get(key)
        if value is not None:
            return value
        node = node.parent
    return None


class Tracer:
    """Collects span events and feeds the metrics registry.

    Open spans form a parent chain through ``_current``; identity attrs
    flow down it so a closing ``test`` span knows its enclosing server
    without the instrumentation threading it through.  Closed spans are
    buffered raw and materialized into event dicts by :meth:`flush` in
    close order (post-order over the span tree), which for the sharded
    campaigns is exactly the order the canonical merge reproduces.
    """

    enabled = True

    def __init__(self, trace_id, metrics=None):
        self.trace_id = trace_id
        self.root_id = root_span_id(trace_id)
        self.metrics = metrics or MetricsRegistry()
        self._events = []
        self._spans = []      # closed, not yet flushed, in close order
        self._current = None  # innermost open span
        self._origin = time.monotonic()
        # flush-time fast paths: span name -> (histogram, counter key),
        # (server, client) -> pair histogram
        self._by_name = {}
        self._by_pair = {}

    @property
    def current_span_id(self):
        current = self._current
        return self.root_id if current is None else current.span_id

    def span(self, name, **attrs):
        """Open a span; its event is emitted when the context closes."""
        return Span(self, name, attrs, True)

    def virtual_span(self, name, **attrs):
        """Position children under a span someone else will emit.

        A shard unit executes a *slice* of a server: its child spans
        must parent to the server span, but the unit must not emit a
        server event covering only its slice — the collector's merge
        synthesizes that event.
        """
        return Span(self, name, attrs, False)

    @property
    def events(self):
        """Materialized span events (flushes the raw buffer first)."""
        self.flush()
        return self._events

    def flush(self):
        """Materialize buffered spans into events and metrics.

        Runs at trace-shipping boundaries (unit acknowledgement, root
        emission), keeping hashing, dict building and histogram feeding
        out of the per-span hot path.  Idempotent over already-flushed
        spans.
        """
        spans, self._spans = self._spans, []
        for span in spans:
            if not span.emit:
                continue
            self._events.append(
                _span_event(
                    span.span_id, span.parent_id, span.name, span.attrs,
                    span.notes or {}, span.duration_ms,
                    t0_ms=(span.started - self._origin) * 1000.0,
                )
            )
            self._observe(span)

    def adopt(self, events, metrics):
        """Append a merged sweep's span events and metrics.

        :func:`repro.core.sharding.execute_sharded` runs every unit under
        a tracer of its own; a tracer active around the sweep receives
        the canonical-order merge of those streams here, so it ends up
        holding the sweep's events just as if it had observed them.
        """
        self.flush()
        self._events.extend(events)
        self.metrics.merge(metrics)

    def emit_root(self, name="campaign", **notes):
        """Close the trace: emit the root span covering the whole run."""
        duration = (time.monotonic() - self._origin) * 1000.0
        self.flush()
        self._events.append(
            _span_event(
                self.root_id, "", name, {}, notes, duration,
                t0_ms=0.0,
            )
        )
        self.metrics.observe("span_ms", duration, name=name)
        self.metrics.inc("spans_total", name=name)

    # -- internals -------------------------------------------------------------

    def _observe(self, span):
        metrics = self.metrics
        duration = span.duration_ms
        name = span.name
        cached = self._by_name.get(name)
        if cached is None:
            histogram = metrics.histogram_for("span_ms", name=name)
            if histogram is None:
                metrics.observe("span_ms", duration, name=name)
                histogram = metrics.histogram_for("span_ms", name=name)
            else:
                histogram.observe(duration)
            cached = self._by_name[name] = (
                histogram, ("spans_total", (("name", name),))
            )
        else:
            cached[0].observe(duration)
        counters = metrics.counters
        counters[cached[1]] = counters.get(cached[1], 0) + 1
        if name in PAIR_SPAN_NAMES:
            server = _inherited(span, "server")
            client = _inherited(span, "client")
            if server and client:
                pair = self._by_pair.get((server, client))
                if pair is None:
                    metrics.observe(
                        "pair_ms", duration, server=server, client=client
                    )
                    self._by_pair[(server, client)] = metrics.histogram_for(
                        "pair_ms", server=server, client=client
                    )
                else:
                    pair.observe(duration)
        bucket = (span.notes or {}).get("bucket")
        if bucket:
            metrics.inc("triage_total", bucket=bucket)
            metrics.observe("triage_ms", duration, bucket=bucket)


def _span_event(span_id, parent_id, name, attrs, notes, duration_ms, t0_ms):
    # attrs/notes are owned by the (flushed) span — no defensive copy.
    return {
        "type": "span",
        "id": span_id,
        "parent": parent_id,
        "name": name,
        "attrs": attrs,
        "notes": notes,
        "ms": round(duration_ms, 3),
        "t0": round(t0_ms, 3),
    }


# -- process-wide active tracer ------------------------------------------------

_ACTIVE = NULL_TRACER


def current_tracer():
    """The tracer instrumentation sites report to (null when untraced)."""
    return _ACTIVE


@contextlib.contextmanager
def activate(tracer):
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


# -- per-unit merge ------------------------------------------------------------


class TraceCollector:
    """Engine-side assembly of one sweep's trace.

    Every unit runs under a tracer of its own — in a pool worker, which
    ships the buffered span events and a metrics snapshot with the
    unit's acknowledgement, or in-process — and the collector stores
    them by unit key.  Once the sweep completes it folds them back **in
    canonical shard order** — the same order the payload merge walks —
    so the merged event stream is identical for any worker count.
    Server spans no unit emitted (chunked campaigns execute slices) are
    synthesized from the unit wall clocks; the root span is appended
    last.
    """

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.events_by_unit = {}
        self.metrics_by_unit = {}
        #: Filled by :meth:`finalize`.
        self.events = []
        self.metrics = MetricsRegistry()
        #: Worker utilization events (``type: "worker"``), appended by
        #: the pool supervisor after the sweep.
        self.worker_events = []

    def collect(self, unit_key, observation):
        """Store one unit's shipped observation (may be ``None``)."""
        if not observation:
            return
        self.events_by_unit[unit_key] = observation.get("events", [])
        snapshot = observation.get("metrics")
        if snapshot:
            self.metrics_by_unit[unit_key] = snapshot

    def finalize(self, units, wall_seconds=0.0, root=True):
        """Merge per-unit streams in canonical order.

        ``units`` is the canonical unit list *already truncated* to the
        units whose payloads contribute to the merged result (poisoned
        and post-abort units excluded), so the trace always describes
        exactly the merged campaign result.  ``root=False`` leaves the
        root span to a tracer that adopts the merge (see
        :meth:`Tracer.adopt`) and emits its own.
        """
        seen = set()
        merged = []

        def push(event):
            if event["id"] in seen:
                return
            seen.add(event["id"])
            merged.append(event)

        by_server = []
        for unit in units:
            if by_server and by_server[-1][0] == unit.server_id:
                by_server[-1][1].append(unit)
            else:
                by_server.append((unit.server_id, [unit]))

        for server_id, server_units in by_server:
            for unit in server_units:
                for event in self.events_by_unit.get(unit.key, ()):
                    push(event)
                snapshot = self.metrics_by_unit.get(unit.key)
                if snapshot:
                    self.metrics.merge(snapshot)
            rollup_id = server_span_id(self.trace_id, server_id)
            if rollup_id not in seen:
                wall_ms = round(sum(
                    event["ms"]
                    for unit in server_units
                    for event in self.events_by_unit.get(unit.key, ())
                    if event["parent"] == rollup_id
                ), 3)
                event = _span_event(
                    rollup_id, root_span_id(self.trace_id), "server",
                    {"server": server_id}, {"synthesized": True},
                    wall_ms, t0_ms=0.0,
                )
                push(event)
                self.metrics.observe("span_ms", wall_ms, name="server")
                self.metrics.inc("spans_total", name="server")

        if root:
            root_ms = round(wall_seconds * 1000.0, 3)
            push(
                _span_event(
                    root_span_id(self.trace_id), "", "campaign", {},
                    {"merged": True}, root_ms, t0_ms=0.0,
                )
            )
            self.metrics.observe("span_ms", root_ms, name="campaign")
            self.metrics.inc("spans_total", name="campaign")
        self.events = merged
        return merged
