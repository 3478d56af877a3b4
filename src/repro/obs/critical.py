"""Critical-path analysis over one trace's deterministic span tree.

The stage-latency rollup says where time went *in aggregate*; it cannot
answer "which single chain of work made this sweep slow".  Span IDs are
pure functions of logical coordinates, so the span set forms a stable
tree: this module walks it to find the **critical path** — from the
root, repeatedly descend into the most expensive child — and ranks the
slowest spans per service with their IDs, so a `wsinterop profile`
reader can drill from a slow stage straight to the span (and, via the
regress drilldown, to recorded exchanges) that caused it.

Durations here are annotations read off the trace; nothing feeds back
into span identity or campaign payloads.
"""

from __future__ import annotations


def span_index(trace):
    """``(by_id, children)`` maps over the trace's span events.

    ``children`` preserves trace order, which for merged pool traces is
    the canonical serial order — the walk is therefore deterministic up
    to the (non-deterministic) durations it ranks by.
    """
    by_id = {}
    children = {}
    for span in trace["spans"]:
        by_id[span["id"]] = span
        children.setdefault(span["parent"], []).append(span)
    return by_id, children


def _self_ms(span, children):
    """Duration not accounted for by the span's own children."""
    nested = sum(
        child["ms"] for child in children.get(span["id"], ())
    )
    return max(span["ms"] - nested, 0.0)


#: Span names that measure one service's processing, coarsest first:
#: the run campaign has one ``service`` span per service; resilience and
#: fuzz sweeps measure a service once per (client, config) cell.
_SERVICE_SPAN_NAMES = ("service", "lifecycle", "mutant")


def _chain(start, children, max_depth):
    """Hops from ``start`` down into its most expensive child, then that
    child's, for at most ``max_depth`` spans.

    Each hop carries ``{id, name, attrs, ms, self_ms}``.  Ties break on
    trace order (first child wins), keeping the walk stable when two
    children measured identical durations.
    """
    chain = []
    current = start
    for _ in range(max_depth):
        chain.append({
            "id": current["id"],
            "name": current["name"],
            "attrs": dict(current["attrs"]),
            "ms": current["ms"],
            "self_ms": round(_self_ms(current, children), 3),
        })
        branches = children.get(current["id"])
        if not branches:
            break
        current = max(branches, key=lambda span: span["ms"])
    return chain


def _server_of(span, by_id):
    """Walk parent edges up to the enclosing ``server`` span's server."""
    seen = set()
    current = span
    while current is not None and current["id"] not in seen:
        seen.add(current["id"])
        if current["name"] == "server":
            return current["attrs"].get("server", "?")
        current = by_id.get(current["parent"])
    return "?"


def critical_path(trace, max_depth=32):
    """The most expensive root-to-leaf chain, as ordered hop dicts.

    Each hop is a :func:`_chain` hop plus ``pct_of_root``.
    """
    _, children = span_index(trace)
    roots = children.get("", ())
    if not roots:
        return []
    root = max(roots, key=lambda span: span["ms"])
    root_ms = root["ms"] or 0.0
    path = _chain(root, children, max_depth)
    for hop in path:
        hop["pct_of_root"] = (
            round(100.0 * hop["ms"] / root_ms, 1) if root_ms else 0.0
        )
    return path


def cell_critical_paths(trace, top=5, max_depth=16):
    """Per-cell critical chains: the ``top`` slowest cell-level spans.

    A *cell* span is one (server, client) measurement — ``test``,
    ``lifecycle``, ``mutant`` or ``cell`` — the unit the canonical
    matrices gate on.  For each of the slowest ones, the chain descends
    into its own most expensive children, so a slow cell explains
    itself instead of pointing at an aggregate.
    """
    from repro.obs.trace import PAIR_SPAN_NAMES

    _, children = span_index(trace)
    cell_names = set(PAIR_SPAN_NAMES) | {"cell"}
    cells = [
        span for span in trace["spans"] if span["name"] in cell_names
    ]
    cells.sort(key=lambda span: (-span["ms"], span["id"]))
    return [
        {"cell": cell["id"], "ms": cell["ms"],
         "chain": _chain(cell, children, max_depth)}
        for cell in cells[:top]
    ]


def slowest_service_spans(trace, top=10):
    """Top-``top`` services by total duration, with drill-down span IDs.

    Durations aggregate per (server, service) over the coarsest
    per-service span kind present, so nested spans are not counted
    twice.  Each row carries the ID of the single slowest contributing
    span, so the reader can jump from the table straight into the trace
    (or a regress drilldown) without grepping.  Returns ``(server,
    service, spans, total_ms, slowest_span_id, slowest_ms)`` tuples.
    """
    by_id, _ = span_index(trace)
    names_present = {span["name"] for span in trace["spans"]}
    selected = next(
        (name for name in _SERVICE_SPAN_NAMES if name in names_present), None
    )
    if selected is None:
        return []
    totals = {}
    for span in trace["spans"]:
        if span["name"] != selected:
            continue
        service = span["attrs"].get("service")
        if service is None:
            continue
        key = (_server_of(span, by_id), service)
        count, total, worst = totals.get(key, (0, 0.0, None))
        if worst is None or span["ms"] > worst["ms"]:
            worst = span
        totals[key] = (count + 1, total + span["ms"], worst)
    ranked = sorted(
        totals.items(), key=lambda item: (-item[1][1], item[0])
    )[:top]
    return [
        (server, service, count, total, worst["id"], worst["ms"])
        for (server, service), (count, total, worst) in ranked
    ]
