"""Reference oracle: the per-client schema scan and symbol resolution.

These are the schema-scan helpers of ``repro.frameworks.client.engine``
and the symbol-resolution helpers of ``repro.compilers.base`` as they
were before one schema-fact scan served every client and each compiler
folded its builtins once.  They are frozen here as a test-only oracle:
the differential tests assert that the live engine and compilers report
the same diagnostics (severity, code, message and order) as this code
for every document and bundle they are given.  Nothing under ``src/``
imports it.  Do not edit it to match the live code; a difference is a
bug in the live code.

The scan functions take the tool as their first argument, as they did;
the two compiler helpers were methods and take the compiler as
``self``.  The steps that did not change (empty-portType handling, code
generation, instantiation, crash detection, duplicate checks) are the
live ones.
"""

from __future__ import annotations

from repro.compilers.base import _COMMON_BUILTINS, CompilationResult
from repro.compilers.diagnostics import CompilerDiagnostic, DiagnosticSeverity
from repro.frameworks.base import GenerationResult, error, warning
from repro.frameworks.client import engine
from repro.xmlcore import XSD_NS
from repro.xsd.model import AnyParticle, ElementParticle, RefParticle


def reference_generation(tool, document):
    """``run_generation`` as it was: every tool walks the schemas itself."""
    diagnostics = []
    _emit_chatter(tool, document, diagnostics)
    _scan_schemas(tool, document, diagnostics)

    if not document.operations:
        engine._handle_empty_port_type(tool, diagnostics)

    fatal = any(diag.is_error for diag in diagnostics)
    if fatal:
        bundle = None
        if tool.compiles_partial_output:
            bundle = engine._build_bundle(tool, document, partial=True)
        return GenerationResult(tool=tool.tool, bundle=bundle, diagnostics=diagnostics)

    bundle = engine._build_bundle(tool, document, partial=False)
    if not tool.requires_compilation:
        diagnostics.extend(tool.instantiate(bundle))
    return GenerationResult(tool=tool.tool, bundle=bundle, diagnostics=diagnostics)


def reference_compile(compiler, bundle):
    """``SemanticCompiler.compile`` as it was: builtins copied per scope."""
    result = CompilationResult(compiler=compiler.name)
    crash = compiler._find_crash(bundle)
    if crash is not None:
        result.diagnostics.append(crash)
        return result

    symbols = _global_symbols(compiler, bundle)
    raw_seen = False
    for unit in bundle.units:
        compiler._check_duplicates(unit, result)
        _check_references(compiler, unit, symbols, result)
        if compiler.warns_on_raw_types and not raw_seen:
            if any(f.raw_type for f in unit.fields):
                raw_seen = True
                result.diagnostics.append(
                    CompilerDiagnostic(
                        DiagnosticSeverity.WARNING,
                        "unchecked",
                        "Note: generated code uses unchecked or unsafe "
                        "operations.",
                        unit=unit.name,
                    )
                )
    return result


# ---------------------------------------------------------------------------
# the client engine's schema scan
# ---------------------------------------------------------------------------


def _emit_chatter(tool, document, diagnostics):
    if tool.warns_on_foreign_extensions and "jaxws-bindings" in document.extension_markers:
        diagnostics.append(
            warning(
                "unknown-extension",
                f"{tool.tool}: unrecognized extension element "
                "'jaxws:bindings' was ignored (foreign platform WSDL)",
            )
        )
    if tool.warns_on_id_attributes:
        for schema in document.schemas:
            for ctype in schema.all_complex_types():
                for attribute in ctype.attributes:
                    type_name = attribute.type_name
                    if (
                        type_name is not None
                        and type_name.namespace == XSD_NS
                        and type_name.local == "ID"
                    ):
                        diagnostics.append(
                            warning(
                                "schema-validation",
                                "schema validation warning: ID-typed row "
                                "order attribute has no corresponding key",
                            )
                        )
                        return


def _scan_schemas(tool, document, diagnostics):
    for schema in document.schemas:
        for imported in schema.imports:
            if imported.location is None and tool.resolves_imports:
                diagnostics.append(
                    error(
                        "unresolved-import",
                        f"cannot import schema for namespace "
                        f"{imported.namespace!r}: no schemaLocation",
                    )
                )
        for ctype in schema.all_complex_types():
            _scan_particles(tool, document, schema, ctype, diagnostics)
            _scan_attributes(tool, ctype, diagnostics)
            if tool.rejects_keyref and any(
                constraint.kind == "keyref" for constraint in ctype.constraints
            ):
                diagnostics.append(
                    error(
                        "keyref-unsupported",
                        "soapcpp2: cannot map keyref identity constraint "
                        f"in type {ctype.name or '(anonymous)'}",
                    )
                )
    if tool.fails_on_recursive_refs and _has_reference_cycle(document):
        diagnostics.append(
            error(
                "recursive-reference",
                "maximum recursion depth exceeded while resolving schema "
                "references",
            )
        )


def _scan_particles(tool, document, schema, ctype, diagnostics):
    for particle in ctype.particles:
        if isinstance(particle, RefParticle):
            ref = particle.ref
            if ref.namespace == XSD_NS:
                if tool.supports_schema_in_instance or tool.tolerates_xsd_namespace_refs:
                    continue
                if tool.strict_element_refs:
                    diagnostics.append(
                        error(
                            "undefined-element",
                            f"undefined element declaration "
                            f"'{document.schema_prefix}:{ref.local}'",
                        )
                    )
            elif document.global_element(ref) is None:
                if tool.strict_element_refs:
                    diagnostics.append(
                        error(
                            "undefined-element",
                            f"undefined element declaration {ref.text()}",
                        )
                    )
        elif isinstance(particle, AnyParticle):
            if tool.rejects_lax_wildcards and particle.process_contents == "lax":
                diagnostics.append(
                    error(
                        "wildcard-unsupported",
                        "cannot bind wildcard content "
                        "(xs:any processContents='lax')",
                    )
                )


def _scan_attributes(tool, ctype, diagnostics):
    if tool.validates_attribute_uniqueness:
        seen = set()
        for attribute in ctype.attributes:
            if attribute.name is None:
                continue
            if attribute.name in seen:
                diagnostics.append(
                    error(
                        "duplicate-attribute",
                        f"attribute {attribute.name!r} is already defined in "
                        f"type {ctype.name or '(anonymous)'}",
                    )
                )
            seen.add(attribute.name)
    if tool.validates_attribute_types:
        for attribute in ctype.attributes:
            type_name = attribute.type_name
            if (
                type_name is not None
                and type_name.namespace == XSD_NS
                and type_name.local == "NOTATION"
            ):
                diagnostics.append(
                    error(
                        "invalid-attribute-type",
                        f"attribute {attribute.name!r} has invalid type "
                        "xsd:NOTATION",
                    )
                )


def _has_reference_cycle(document):
    """Detect reference cycles element↔type inside the target schemas."""
    for schema in document.schemas:
        graph = {}
        for decl in schema.elements:
            targets = set()
            ctype = decl.inline_type
            if ctype is None and decl.type_name is not None:
                if decl.type_name.namespace == schema.target_namespace:
                    targets.add(("type", decl.type_name.local))
            if ctype is not None:
                targets.update(_type_targets(schema, ctype))
            graph[("element", decl.name)] = targets
        for ctype in schema.complex_types:
            graph[("type", ctype.name)] = _type_targets(schema, ctype)

        visiting, done = set(), set()

        def dfs(node):
            if node in done:
                return False
            if node in visiting:
                return True
            visiting.add(node)
            for target in graph.get(node, ()):
                if dfs(target):
                    return True
            visiting.discard(node)
            done.add(node)
            return False

        if any(dfs(node) for node in list(graph)):
            return True
    return False


def _type_targets(schema, ctype):
    targets = set()
    for particle in ctype.particles:
        if isinstance(particle, RefParticle):
            if particle.ref.namespace == schema.target_namespace:
                targets.add(("element", particle.ref.local))
        elif isinstance(particle, ElementParticle):
            if particle.type_name.namespace == schema.target_namespace:
                targets.add(("type", particle.type_name.local))
    return targets


# ---------------------------------------------------------------------------
# the compilers' symbol resolution
# ---------------------------------------------------------------------------


def _global_symbols(self, bundle):
    symbols = set(_COMMON_BUILTINS) | set(self.extra_builtins)
    for unit in bundle.units:
        symbols.add(unit.name)
    return {self._fold(symbol) for symbol in symbols}


def _check_references(self, unit, symbols, result):
    local = set(symbols)
    local.update(self._fold(name) for name in unit.field_names())
    local.update(self._fold(name) for name in unit.method_names())
    for method in unit.methods:
        scope = set(local)
        scope.update(self._fold(p.name) for p in method.params)
        for reference in method.references:
            if self._fold(reference) not in scope:
                result.diagnostics.append(
                    CompilerDiagnostic(
                        DiagnosticSeverity.ERROR,
                        "unresolved-symbol",
                        f"{unit.name}.{method.name}: cannot find symbol "
                        f"{reference!r}",
                        unit=unit.name,
                    )
                )
