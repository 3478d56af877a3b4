"""Base classes shared by server and client framework models."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ToolSeverity(enum.Enum):
    """Severity of a tool (generator/deployer) diagnostic."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class ToolDiagnostic:
    """One message emitted by a framework tool."""

    severity: ToolSeverity
    code: str
    message: str

    @property
    def is_error(self):
        return self.severity is ToolSeverity.ERROR

    def __str__(self):
        return f"{self.severity.value}: [{self.code}] {self.message}"


def warning(code, message):
    """Convenience constructor for a warning diagnostic."""
    return ToolDiagnostic(ToolSeverity.WARNING, code, message)


def error(code, message):
    """Convenience constructor for an error diagnostic."""
    return ToolDiagnostic(ToolSeverity.ERROR, code, message)


@dataclass
class GenerationResult:
    """Outcome of one client-artifact generation run."""

    tool: str
    bundle: object = None  # ArtifactBundle | None
    diagnostics: list = field(default_factory=list)

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def succeeded(self):
        return not self.errors


class ServerFramework:
    """A server-side framework subsystem (Table I row).

    Subclasses implement :meth:`can_bind` (which types are describable)
    and declare, like ``name``, the catalog they deploy and the idioms
    of the WSDL they publish.  An application server asks
    :meth:`refusal`, then :meth:`generate_wsdl`.
    """

    name = ""
    version = ""
    language = ""
    #: The language catalog whose services the framework deploys.
    catalog = ""
    #: Prefix of the XSD namespace in the published WSDL.
    schema_prefix = "xsd"
    #: The vendor extensions the published WSDL carries.
    extension_markers = ()

    def can_bind(self, type_info):
        """True if the framework can describe ``type_info`` in a WSDL."""
        raise NotImplementedError

    def rejection_reason(self, type_info):
        """Human-readable reason :meth:`can_bind` returned False."""
        return "type cannot be bound to an XSD type"

    def refusal(self, service):
        """Why ``service`` cannot deploy, or ``""`` if it can.

        A service deploys only if *every* member type is bindable; the
        first one that is not gives the reason.
        """
        for type_info in service.parameter_types:
            if not self.can_bind(type_info):
                return self.rejection_reason(type_info)
        return ""

    def generate_wsdl(self, service, endpoint_url):
        """Produce the :class:`~repro.wsdl.model.WsdlDocument`."""
        # Imported here, as ``ClientFramework.generate`` imports the
        # engine: the server frameworks import this module.
        from repro.frameworks.server.common import build_echo_wsdl

        return build_echo_wsdl(
            service,
            endpoint_url,
            self.schema_prefix,
            self.extension_markers,
            self._emit_parameter_type,
        )

    def _emit_parameter_type(self, type_info, schema):
        """Describe ``type_info`` in ``schema``; returns its QName."""
        from repro.frameworks.server.common import emit_default_parameter_type

        return emit_default_parameter_type(type_info, schema)

    def __repr__(self):
        return f"<ServerFramework {self.name} {self.version}>"


class ClientFramework:
    """A client-side framework subsystem (Table II row).

    The heavy lifting happens in :mod:`repro.frameworks.client.engine`;
    subclasses mostly configure behaviour flags and code-generation
    quirks.  See DESIGN.md §5 for the flag-to-paper-footnote mapping.
    """

    name = ""
    version = ""
    tool = ""
    language = ""
    #: Key into the artifact renderers / type maps ("java", "csharp",
    #: "vb", "jscript", "cpp", "php", "python").
    lang_key = "java"

    #: Does this platform compile artifacts (Table II "Compilation")?
    requires_compilation = True
    #: Compiler simulator used when ``requires_compilation``.
    compiler = None
    #: The tool leaves partial output behind on failure, and the added
    #: compile wrapper script compiles whatever exists (Axis behaviour).
    compiles_partial_output = False

    # -- schema-processing strictness ---------------------------------------
    resolves_imports = True
    strict_element_refs = True
    tolerates_xsd_namespace_refs = False
    supports_schema_in_instance = False
    validates_attribute_uniqueness = False
    validates_attribute_types = False
    rejects_lax_wildcards = False
    rejects_keyref = False
    fails_on_recursive_refs = False

    # -- portType handling ---------------------------------------------------
    requires_operations = False
    silent_on_empty_port_type = False

    # -- tool chatter ----------------------------------------------------------
    warns_on_foreign_extensions = False
    warns_on_id_attributes = False

    # -- code-generation quirks -----------------------------------------------
    emits_raw_helper = False
    dedupes_enum_constants = False
    throwable_wrapper_bug = False
    acronym_prefix_bug = False
    enum_normalization = None  # None | "upper-snake"
    duplicates_mixed_any_field = False
    nullable_array_helper_bug = False
    crash_on_deep_nullable_arrays = False

    def generate(self, document, facts=None):
        """Generate client artifacts for a parsed WSDL document.

        ``facts`` are the document's
        :func:`~repro.frameworks.client.engine.schema_facts`, shared by
        every client of one service; without them the scan runs here.
        """
        from repro.frameworks.client.engine import run_generation

        return run_generation(self, document, facts)

    def instantiate(self, bundle):
        """Instantiation check for platforms without compilation.

        Returns diagnostics; the default flags proxy objects that expose
        no operations (the Zend/suds behaviour on operation-less WSDLs).
        """
        if bundle is None or not bundle.operation_methods:
            return [
                warning(
                    "empty-client",
                    f"{self.tool}: client object exposes no operations",
                )
            ]
        return []

    def __repr__(self):
        return f"<ClientFramework {self.name} {self.version} ({self.language})>"
