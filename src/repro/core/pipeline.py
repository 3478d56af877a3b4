"""Execution of one client test with the paper's gating semantics.

An error in the Client Artifact Generation step suppresses the
compilation step (§III.B) — with one empirically grounded exception: the
Axis tools leave partial output behind and their compile wrapper scripts
run javac over whatever exists, which is why Table III reports
compilation warnings for every deployed service even where generation
failed.
"""

from __future__ import annotations

from repro.core.outcomes import (
    NOT_APPLICABLE_OUTCOME,
    SKIPPED_OUTCOME,
    ClientTestRecord,
    classify,
)
from repro.obs.trace import current_tracer


def _verdict(diagnostics):
    """The shared outcome for ``diagnostics``, from one pass over them."""
    errors = 0
    codes = set()
    for diag in diagnostics:
        if diag.is_error:
            errors += 1
        codes.add(diag.code)
    return classify(errors, len(diagnostics) - errors, sorted(codes))


def run_client_test(server_id, client_id, client, document, facts=None):
    """Run ``client`` against a parsed WSDL ``document``.

    ``facts`` are the document's
    :func:`~repro.frameworks.client.engine.schema_facts` when the caller
    shares one scan among all clients of a service.
    """
    with current_tracer().span("generate") as span:
        generation = client.generate(document, facts)
        generation_outcome = _verdict(generation.diagnostics)
        span.annotate(status=generation_outcome.status.value)

    compilation_outcome = NOT_APPLICABLE_OUTCOME
    if client.requires_compilation:
        run_compile = not generation_outcome.has_error or (
            client.compiles_partial_output and generation.bundle is not None
        )
        if run_compile:
            with current_tracer().span("compile") as span:
                compilation = client.compiler.compile(generation.bundle)
                compilation_outcome = _verdict(compilation.diagnostics)
                span.annotate(status=compilation_outcome.status.value)
        else:
            compilation_outcome = SKIPPED_OUTCOME

    return ClientTestRecord(
        server_id=server_id,
        client_id=client_id,
        service_name=document.name,
        generation=generation_outcome,
        compilation=compilation_outcome,
    )
