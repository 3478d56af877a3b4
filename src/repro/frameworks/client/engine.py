"""The shared client-artifact generation engine.

``run_generation`` drives one tool over one parsed WSDL document:

1. tool chatter (extension warnings, schema-validation warnings);
2. schema scan — where strictness differences surface as errors;
3. portType handling (empty-portType behaviours);
4. code generation — where the documented codegen bugs inject flawed
   members that the compiler simulators later trip over.

The schema scan is split in two.  :func:`schema_facts` walks a
document once and records every construct some tool cannot process;
it reads no tool flag, so one walk serves every client of a service.
``run_generation`` then keeps the facts that the tool's own flags
reject.  Every behaviour is driven by the tool's flags (see
:class:`repro.frameworks.base.ClientFramework`); the engine itself is
framework-neutral.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.artifacts.model import (
    ArtifactBundle,
    CodeUnit,
    FieldDecl,
    MethodDecl,
    ParamDecl,
    UnitKind,
)
from repro.frameworks.base import (
    GenerationResult,
    ToolDiagnostic,
    error,
    warning,
)
from repro.xmlcore import XSD_NS
from repro.xsd.model import AnyParticle, ElementParticle, RefParticle

#: XSD built-in → target-language type text (presentation only; the
#: compiler simulators resolve *references*, not type text).
_TYPE_MAPS = {
    "java": {
        "string": "String", "int": "int", "long": "long", "short": "short",
        "byte": "byte", "boolean": "boolean", "float": "float",
        "double": "double", "decimal": "BigDecimal", "dateTime": "Calendar",
        "duration": "String", "anyURI": "URI", "QName": "QName",
        "base64Binary": "byte[]", "unsignedShort": "int",
    },
    "csharp": {
        "string": "string", "int": "int", "long": "long", "short": "short",
        "byte": "byte", "boolean": "bool", "float": "float",
        "double": "double", "decimal": "decimal", "dateTime": "DateTime",
        "duration": "string", "anyURI": "Uri", "QName": "string",
        "base64Binary": "byte[]", "unsignedShort": "int",
    },
}
_TYPE_MAPS["vb"] = {
    key: value.capitalize() if value[0].islower() else value
    for key, value in _TYPE_MAPS["csharp"].items()
}
_TYPE_MAPS["jscript"] = _TYPE_MAPS["csharp"]
_TYPE_MAPS["cpp"] = {
    "string": "std::string", "int": "int", "long": "LONG64",
    "short": "short", "byte": "char", "boolean": "bool", "float": "float",
    "double": "double", "decimal": "double", "dateTime": "time_t",
    "duration": "std::string", "anyURI": "std::string",
    "QName": "std::string", "base64Binary": "xsd__base64Binary",
    "unsignedShort": "unsigned short",
}
_TYPE_MAPS["php"] = {}
_TYPE_MAPS["python"] = {}

#: An acronym of three or more letters followed by another CamelCase
#: word, e.g. ``XMLGregorianCalendar`` (acronym ``XML``, word
#: ``Gregorian…``).  ``IOException`` does NOT match: its acronym ``IO``
#: is only two letters.
_ACRONYM_PREFIX = re.compile(r"^[A-Z]{3,}[A-Z][a-z]")

_NUMERIC_XSD = {"int", "long", "short", "byte", "double", "float", "decimal"}


def run_generation(tool, document, facts=None):
    """Run ``tool`` over ``document``; return a :class:`GenerationResult`.

    ``facts`` are ``document``'s :func:`schema_facts`; they are computed
    here when the caller does not share them.
    """
    if facts is None:
        facts = schema_facts(document)
    diagnostics = []
    _emit_chatter(tool, document, facts, diagnostics)
    _read_facts(tool, facts, diagnostics)

    if not document.operations:
        _handle_empty_port_type(tool, diagnostics)

    fatal = any(diag.is_error for diag in diagnostics)
    if fatal:
        bundle = None
        if tool.compiles_partial_output:
            bundle = _build_bundle(tool, document, partial=True)
        return GenerationResult(tool=tool.tool, bundle=bundle, diagnostics=diagnostics)

    bundle = _build_bundle(tool, document, partial=False)
    if not tool.requires_compilation:
        diagnostics.extend(tool.instantiate(bundle))
    return GenerationResult(tool=tool.tool, bundle=bundle, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# schema facts: the client-independent half of the schema scan
# ---------------------------------------------------------------------------

IMPORT_WITHOUT_LOCATION = "import-without-location"
XSD_NAMESPACE_REF = "xsd-namespace-ref"
DANGLING_REF = "dangling-ref"
LAX_WILDCARD = "lax-wildcard"
DUPLICATE_ATTRIBUTE = "duplicate-attribute"
NOTATION_ATTRIBUTE = "notation-attribute"
KEYREF = "keyref"

#: Which flags make a tool reject each kind of fact.  A tool that
#: rejects a fact reports the fact's diagnostic; the others ignore it.
_REJECTS = {
    IMPORT_WITHOUT_LOCATION: lambda tool: tool.resolves_imports,
    XSD_NAMESPACE_REF: lambda tool: tool.strict_element_refs and not (
        tool.supports_schema_in_instance or tool.tolerates_xsd_namespace_refs
    ),
    DANGLING_REF: lambda tool: tool.strict_element_refs,
    LAX_WILDCARD: lambda tool: tool.rejects_lax_wildcards,
    DUPLICATE_ATTRIBUTE: lambda tool: tool.validates_attribute_uniqueness,
    NOTATION_ATTRIBUTE: lambda tool: tool.validates_attribute_types,
    KEYREF: lambda tool: tool.rejects_keyref,
}

_ID_ATTRIBUTE_WARNING = warning(
    "schema-validation",
    "schema validation warning: ID-typed row order attribute has no "
    "corresponding key",
)
_LAX_WILDCARD_ERROR = error(
    "wildcard-unsupported",
    "cannot bind wildcard content (xs:any processContents='lax')",
)
_RECURSIVE_REFERENCE_ERROR = error(
    "recursive-reference",
    "maximum recursion depth exceeded while resolving schema references",
)


@dataclass(frozen=True)
class SchemaFact:
    """One construct in a document's schemas that some tool rejects."""

    #: One of the fact kinds above: a key of ``_REJECTS``.
    kind: str
    #: The complex type the construct sits in; ``None`` for an import.
    type_name: str | None
    #: What a tool that rejects the construct reports.
    diagnostic: ToolDiagnostic


class SchemaFacts:
    """Everything client-independent that the schema scan finds.

    ``findings`` lists every :class:`SchemaFact` in the order the walk
    met it, which is the order the diagnostics are reported in.
    """

    def __init__(self, document, findings, id_attribute):
        self._document = document
        self._reference_cycle = None
        self.findings = findings
        #: Some complex type has an ``xsd:ID``-typed attribute.
        self.id_attribute = id_attribute

    @property
    def reference_cycle(self):
        """Element↔type references form a cycle: searched on first use,
        so only the tools that fail on recursive references pay for it."""
        if self._reference_cycle is None:
            self._reference_cycle = _has_reference_cycle(self._document)
        return self._reference_cycle


def schema_facts(document):
    """Walk ``document``'s schemas once; return its :class:`SchemaFacts`.

    Reads no tool flag.  Facts describe the document as it is now:
    compute them again after editing it.
    """
    findings = []
    id_attribute = False
    for schema in document.schemas:
        for imported in schema.imports:
            if imported.location is None:
                findings.append(SchemaFact(
                    IMPORT_WITHOUT_LOCATION, None,
                    error(
                        "unresolved-import",
                        f"cannot import schema for namespace "
                        f"{imported.namespace!r}: no schemaLocation",
                    ),
                ))
        for ctype in schema.all_complex_types():
            type_name = ctype.name or "(anonymous)"
            for particle in ctype.particles:
                if isinstance(particle, RefParticle):
                    ref = particle.ref
                    if ref.namespace == XSD_NS:
                        findings.append(SchemaFact(
                            XSD_NAMESPACE_REF, type_name,
                            error(
                                "undefined-element",
                                f"undefined element declaration "
                                f"'{document.schema_prefix}:{ref.local}'",
                            ),
                        ))
                    elif document.global_element(ref) is None:
                        findings.append(SchemaFact(
                            DANGLING_REF, type_name,
                            error(
                                "undefined-element",
                                f"undefined element declaration {ref.text()}",
                            ),
                        ))
                elif (
                    isinstance(particle, AnyParticle)
                    and particle.process_contents == "lax"
                ):
                    findings.append(
                        SchemaFact(LAX_WILDCARD, type_name, _LAX_WILDCARD_ERROR)
                    )
            seen = set()
            for attribute in ctype.attributes:
                if attribute.name is None:
                    continue
                if attribute.name in seen:
                    findings.append(SchemaFact(
                        DUPLICATE_ATTRIBUTE, type_name,
                        error(
                            "duplicate-attribute",
                            f"attribute {attribute.name!r} is already "
                            f"defined in type {type_name}",
                        ),
                    ))
                seen.add(attribute.name)
            for attribute in ctype.attributes:
                attribute_type = attribute.type_name
                if attribute_type is None or attribute_type.namespace != XSD_NS:
                    continue
                if attribute_type.local == "NOTATION":
                    findings.append(SchemaFact(
                        NOTATION_ATTRIBUTE, type_name,
                        error(
                            "invalid-attribute-type",
                            f"attribute {attribute.name!r} has invalid type "
                            "xsd:NOTATION",
                        ),
                    ))
                elif attribute_type.local == "ID":
                    id_attribute = True
            if any(constraint.kind == "keyref" for constraint in ctype.constraints):
                findings.append(SchemaFact(
                    KEYREF, type_name,
                    error(
                        "keyref-unsupported",
                        "soapcpp2: cannot map keyref identity constraint "
                        f"in type {type_name}",
                    ),
                ))
    return SchemaFacts(document, findings, id_attribute)


# ---------------------------------------------------------------------------
# chatter and the tool's reading of the schema facts
# ---------------------------------------------------------------------------


def _emit_chatter(tool, document, facts, diagnostics):
    if tool.warns_on_foreign_extensions and "jaxws-bindings" in document.extension_markers:
        diagnostics.append(
            warning(
                "unknown-extension",
                f"{tool.tool}: unrecognized extension element "
                "'jaxws:bindings' was ignored (foreign platform WSDL)",
            )
        )
    if tool.warns_on_id_attributes and facts.id_attribute:
        diagnostics.append(_ID_ATTRIBUTE_WARNING)


def _read_facts(tool, facts, diagnostics):
    """Report, in walk order, the facts that ``tool``'s flags reject."""
    if facts.findings:
        rejected = {kind for kind, rejects in _REJECTS.items() if rejects(tool)}
        diagnostics.extend(
            fact.diagnostic for fact in facts.findings if fact.kind in rejected
        )
    if tool.fails_on_recursive_refs and facts.reference_cycle:
        diagnostics.append(_RECURSIVE_REFERENCE_ERROR)


def _handle_empty_port_type(tool, diagnostics):
    if tool.requires_operations:
        diagnostics.append(
            error(
                "no-operations",
                "the WSDL document does not define any operation to invoke",
            )
        )
    # Silent tools and dynamic tools fall through: they either emit an
    # empty stub without complaint or build a method-less client object.


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
# code generation
# ---------------------------------------------------------------------------


def _map_type(tool, type_name, document):
    if type_name.namespace == XSD_NS:
        mapping = _TYPE_MAPS.get(tool.lang_key, {})
        return mapping.get(type_name.local, "Object")
    return type_name.local


def _array_type(tool, type_text):
    """Render a repeated element's type in the target language's idiom."""
    if tool.lang_key == "cpp":
        return f"std::vector<{type_text}>"
    if tool.lang_key == "vb":
        return f"{type_text}()"
    return f"{type_text}[]"


def _build_bundle(tool, document, partial):
    bundle = ArtifactBundle(tool=tool.tool, service=document.name, partial=partial)
    if tool.emits_raw_helper:
        helper = CodeUnit(
            name=f"{document.name or 'Service'}Helper",
            kind=UnitKind.BEAN,
            language=tool.lang_key,
            fields=[FieldDecl("cachedSerQNames", "ArrayList", raw_type=True)],
        )
        bundle.units.append(helper)

    for schema in document.schemas:
        for ctype in schema.complex_types:
            bundle.units.append(_build_bean(tool, document, schema, ctype))
            if tool.throwable_wrapper_bug and _looks_throwable(ctype):
                bundle.units.append(_build_throwable_wrapper(tool, ctype))
        for stype in schema.simple_types:
            bundle.units.append(_build_enum(tool, stype))

    if not partial:
        bundle.units.append(_build_stub(tool, document))
    return bundle


def _looks_throwable(ctype):
    """Axis1's name-based Throwable heuristic."""
    name = ctype.name or ""
    if not (name.endswith("Exception") or name.endswith("Error")):
        return False
    return any(
        isinstance(p, ElementParticle) and p.name == "message"
        for p in ctype.particles
    )


def _build_throwable_wrapper(tool, ctype):
    """Axis1's fault wrapper with the wrongly named detail attribute."""
    return CodeUnit(
        name=f"{ctype.name}FaultWrapper",
        kind=UnitKind.WRAPPER,
        language=tool.lang_key,
        fields=[FieldDecl("detail", ctype.name)],
        methods=[
            MethodDecl(
                name="getFaultDetail",
                returns=ctype.name,
                # Bug: the template refers to `faultDetail`, but the
                # emitted field is named `detail` — javac cannot resolve it.
                references=("faultDetail",),
            )
        ],
    )


def _build_bean(tool, document, schema, ctype):
    unit = CodeUnit(
        name=ctype.name or "AnonymousType",
        kind=UnitKind.BEAN,
        language=tool.lang_key,
    )
    nullable_arrays = 0
    for particle in ctype.particles:
        if isinstance(particle, ElementParticle):
            type_text = _map_type(tool, particle.type_name, document)
            if particle.max_occurs is None:
                type_text = _array_type(tool, type_text)
            field_name = particle.name
            if tool.acronym_prefix_bug:
                field_name = f"local_{particle.name}"
            unit.fields.append(FieldDecl(field_name, type_text))
            if (
                particle.nillable
                and particle.max_occurs is None
                and particle.type_name.namespace == XSD_NS
                and particle.type_name.local in _NUMERIC_XSD
            ):
                nullable_arrays += 1
        elif isinstance(particle, RefParticle):
            resolved = document.global_element(particle.ref)
            type_text = resolved.name if resolved is not None else "Object"
            unit.fields.append(FieldDecl(particle.ref.local, type_text))
        elif isinstance(particle, AnyParticle):
            unit.fields.append(FieldDecl("extraElement", "Object"))
            if tool.duplicates_mixed_any_field and ctype.mixed:
                # Bug: the mixed-content text accessor reuses the
                # wildcard field name, declaring it twice.
                unit.fields.append(FieldDecl("extraElement", "String"))

    if tool.acronym_prefix_bug and ctype.name and _ACRONYM_PREFIX.match(ctype.name):
        # Bug: the accessor template drops the `_suffix` naming convention
        # for acronym-prefixed types and refers to a field that does not
        # exist (e.g. `localXMLGregorianCalendar`).
        unit.methods.append(
            MethodDecl(
                name=f"get{ctype.name}",
                returns=ctype.name,
                references=(f"local{ctype.name}",),
            )
        )

    if tool.nullable_array_helper_bug and nullable_arrays:
        # Bug: the deserializer calls a helper the generator never emits.
        unit.methods.append(
            MethodDecl(
                name="FromXml",
                returns=unit.name,
                references=("ToNullableArray",),
            )
        )
        if tool.crash_on_deep_nullable_arrays and nullable_arrays >= 4:
            unit.flags.add("crash-compiler")
    return unit


def _build_enum(tool, stype):
    constants = []
    seen = set()
    for value in stype.enumerations:
        constant = value
        if tool.enum_normalization == "upper-snake":
            constant = _camel_to_upper_snake(value)
        elif tool.dedupes_enum_constants:
            while constant.lower() in seen:
                constant = f"{constant}1"
            seen.add(constant.lower())
        constants.append(constant)
    return CodeUnit(
        name=stype.name,
        kind=UnitKind.ENUM,
        language=tool.lang_key,
        enum_constants=constants,
    )


def _camel_to_upper_snake(value):
    parts = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", value)
    return parts.upper()


def _build_stub(tool, document):
    kind = UnitKind.STUB if tool.requires_compilation else UnitKind.PROXY
    stub = CodeUnit(
        name=f"{document.service_name or document.name or 'Service'}Stub",
        kind=kind,
        language=tool.lang_key,
    )
    for operation in document.operations:
        param_type, references = _operation_parameter(tool, document, operation)
        stub.methods.append(
            MethodDecl(
                name=operation.name,
                params=(ParamDecl("input", param_type),),
                returns=param_type,
                references=references,
            )
        )
    return stub


def _operation_parameter(tool, document, operation):
    message = document.message(operation.input_message)
    if message is None:
        return "Object", ("Object",)
    wrapper = document.global_element(message.element)
    if wrapper is None or wrapper.inline_type is None:
        return "Object", ("Object",)
    for particle in wrapper.inline_type.particles:
        if isinstance(particle, ElementParticle):
            type_text = _map_type(tool, particle.type_name, document)
            return type_text, (type_text.rstrip("[]") or "Object",)
    return "void", ()
