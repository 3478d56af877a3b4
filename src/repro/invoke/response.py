"""Response-side schema validation of echoed envelopes.

The fidelity triage (:mod:`repro.invoke.fidelity`) compares what the
*client* decoded against what was sent — so a server-side coercion the
client happens to normalize away is invisible to it.  This module closes
that gap: a :class:`ResponseTap` captures the raw response body at the
transport seam, and :func:`validate_response` checks the echoed
``{operation}Response/return`` children against the request's XSD field
shapes *before* the decoded comparison runs.  A round trip the client
calls lossless but whose wire bytes violate the schema is downgraded to
``COERCED`` and counted in the cell's ``schema_violations`` overlay.

Validation is pure analysis of the captured body — fully
deterministic, so it changes no digests between runs, worker counts or
transports.  The invoke loop hands it the envelope the client proxy
already parsed from that body, so each echoed response is parsed once.
"""

from __future__ import annotations

from repro.soap.envelope import parse_envelope
from repro.xmlcore import Element, QName, XSI_NS
from repro.xsd.lexical import lexical_ok


class ResponseTap:
    """Transport wrapper recording the last raw response.

    Mirrors the :class:`~repro.runtime.recorder.TransportRecorder`
    delegation idiom but keeps only the most recent exchange — the
    invoke loop reads it immediately after each guarded invocation, so
    there is nothing to accumulate.  Works over any transport the
    campaign's ``transport_factory`` builds (in-memory, wire, or the
    drill-down's recorder stack).
    """

    def __init__(self, inner):
        self.inner = inner
        self.last_status = None
        self.last_body = None

    @property
    def requests_sent(self):
        return getattr(self.inner, "requests_sent", 0)

    def register(self, url, handler):
        return self.inner.register(url, handler)

    def unregister(self, url):
        self.inner.unregister(url)

    def post(self, url, body, headers=None):
        response = self.inner.post(url, body, headers)
        self.last_status = response.status
        self.last_body = response.body
        return response


def validate_response(body, shape, operation, envelope=None):
    """Problems with the echoed response body, as a tuple of strings.

    ``shape`` maps field name → :class:`~repro.invoke.payloads
    .FieldShape` (the echo contract makes request and response carry the
    same particles).  Checks are deliberately one-sided: only violations
    the *server* introduced are reportable — absent fields are legal
    (optional omission), unknown locals stay lax — so a schema-honest
    echo validates clean and the counter isolates real coercions.

    ``envelope`` is ``body`` already parsed — the client proxy's own
    parse of it — and spares a second parse; without it ``body`` is
    parsed here.
    """
    if envelope is None:
        if not body:
            return ("empty response body",)
        try:
            envelope = parse_envelope(body)
        except Exception as exc:
            return (f"unparseable response envelope: {exc}",)
    wrapper = envelope.body
    if wrapper is None:
        return ("response envelope has no body element",)
    if wrapper.name.local != f"{operation}Response":
        return (
            f"body element {wrapper.name.local!r} is not "
            f"{operation + 'Response'!r}",
        )
    return_el = wrapper.find_local("return")
    if return_el is None:
        return ("response wrapper has no return element",)
    problems = []
    for child in return_el.children:
        field = shape.get(child.name.local)
        if field is None:
            if shape:
                problems.append(
                    f"{child.name.local}: element not in the schema"
                )
            continue
        if child.get(QName(XSI_NS, "nil")) == "true":
            if not field.nillable:
                problems.append(
                    f"{field.name}: xsi:nil on a non-nillable element"
                )
            continue
        if any(isinstance(item, Element) for item in child.content):
            problems.append(f"{field.name}: unexpected nested structure")
            continue
        text = child.text
        if field.enumerations and text not in field.enumerations:
            problems.append(
                f"{field.name}: {text!r} not in the enumeration"
            )
        elif not lexical_ok(field.xsd_local, text):
            problems.append(
                f"{field.name}: {text!r} outside the lexical space "
                f"of xsd:{field.xsd_local}"
            )
    if not any(field.repeated for field in shape.values()):
        seen = {}
        for child in return_el.children:
            local = child.name.local
            seen[local] = seen.get(local, 0) + 1
        for local, count in seen.items():
            if local in shape and count > 1:
                problems.append(
                    f"{local}: {count} occurrences of a non-repeated element"
                )
    return tuple(problems)
