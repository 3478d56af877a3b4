"""Shared semantic-check engine for all compiler simulators."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compilers.diagnostics import CompilerDiagnostic, DiagnosticSeverity

#: Symbols every target language resolves without user declarations.
_COMMON_BUILTINS = frozenset(
    {
        "String", "int", "long", "short", "byte", "boolean", "double",
        "float", "char", "void", "Object", "Integer", "Long", "Boolean",
        "Double", "Float", "Short", "Byte", "BigDecimal", "Calendar",
        "Date", "URI", "QName", "byte[]", "List", "ArrayList", "string",
        "bool", "decimal", "DateTime", "Uri", "Nullable", "Array",
        "Number", "super", "this", "self",
    }
)


@dataclass
class CompilationResult:
    """Outcome of one compile run."""

    compiler: str
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


class SemanticCompiler:
    """Base compiler: resolves references and detects member collisions.

    Subclasses configure ``case_sensitive`` (VB is not),
    ``warns_on_raw_types`` (javac's unchecked note), ``crashes_on_flag``
    (jsc's internal crash) and may extend ``extra_builtins``.
    """

    name = "cc"
    language = ""
    case_sensitive = True
    warns_on_raw_types = False
    crashes_on_flag = None
    extra_builtins = frozenset()

    def compile(self, bundle):
        """Compile an :class:`~repro.artifacts.model.ArtifactBundle`."""
        result = CompilationResult(compiler=self.name)
        crash = self._find_crash(bundle)
        if crash is not None:
            result.diagnostics.append(crash)
            return result

        builtin_keys = self._builtin_keys()
        unit_keys = {self._fold(unit.name) for unit in bundle.units}
        raw_seen = False
        for unit in bundle.units:
            self._check_duplicates(unit, result)
            self._check_references(unit, builtin_keys, unit_keys, result)
            if self.warns_on_raw_types and not raw_seen:
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

    # -- helpers -----------------------------------------------------------

    def _find_crash(self, bundle):
        if self.crashes_on_flag is None:
            return None
        for unit in bundle.units:
            if self.crashes_on_flag in unit.flags:
                return CompilerDiagnostic(
                    DiagnosticSeverity.ERROR,
                    "crash",
                    "131 INTERNAL COMPILER CRASH",
                    unit=unit.name,
                )
        return None

    def _fold(self, name):
        return name if self.case_sensitive else name.lower()

    def _builtin_keys(self):
        """The builtin symbols as lookup keys, folded once per class."""
        cls = type(self)
        keys = cls.__dict__.get("_folded_builtins")
        if keys is None:
            keys = frozenset(
                self._fold(symbol)
                for symbol in _COMMON_BUILTINS | self.extra_builtins
            )
            cls._folded_builtins = keys
        return keys

    def _check_duplicates(self, unit, result):
        seen = {}
        for field_decl in unit.fields:
            key = self._fold(field_decl.name)
            if key in seen:
                result.diagnostics.append(
                    CompilerDiagnostic(
                        DiagnosticSeverity.ERROR,
                        "duplicate-member",
                        f"{unit.name}: member {field_decl.name!r} conflicts "
                        f"with {seen[key]!r}",
                        unit=unit.name,
                    )
                )
            else:
                seen[key] = field_decl.name
        for method in unit.methods:
            key = self._fold(method.name)
            if key in seen:
                result.diagnostics.append(
                    CompilerDiagnostic(
                        DiagnosticSeverity.ERROR,
                        "member-method-collision",
                        f"{unit.name}: method {method.name!r} collides with "
                        f"member {seen[key]!r}",
                        unit=unit.name,
                    )
                )
        constants = set()
        for constant in unit.enum_constants:
            key = self._fold(constant)
            if key in constants:
                result.diagnostics.append(
                    CompilerDiagnostic(
                        DiagnosticSeverity.ERROR,
                        "duplicate-enum-constant",
                        f"{unit.name}: duplicate enum constant {constant!r}",
                        unit=unit.name,
                    )
                )
            constants.add(key)

    def _check_references(self, unit, builtin_keys, unit_keys, result):
        """Look each reference up in four scopes in turn: the builtins,
        the bundle's unit names, the unit's members, the method's
        parameters.  Most references resolve in the first two, so the
        last two are folded only when a reference gets that far."""
        members = None
        for method in unit.methods:
            params = None
            for reference in method.references:
                key = self._fold(reference)
                if key in builtin_keys or key in unit_keys:
                    continue
                if members is None:
                    members = {
                        self._fold(name)
                        for name in (*unit.field_names(), *unit.method_names())
                    }
                if key in members:
                    continue
                if params is None:
                    params = {self._fold(p.name) for p in method.params}
                if key not in params:
                    result.diagnostics.append(
                        CompilerDiagnostic(
                            DiagnosticSeverity.ERROR,
                            "unresolved-symbol",
                            f"{unit.name}.{method.name}: cannot find symbol "
                            f"{reference!r}",
                            unit=unit.name,
                        )
                    )
