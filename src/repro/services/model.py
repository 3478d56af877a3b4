"""Service definition model."""

from __future__ import annotations

from dataclasses import dataclass

from repro.typesystem.model import TypeInfo


def sanitize_identifier(full_name):
    """Turn a fully-qualified type name into an identifier fragment."""
    return full_name.replace(".", "_")


def echo_operation_name(type_info):
    """The single operation's name, e.g. ``echoSimpleDateFormat``."""
    return f"echo{type_info.name}"


@dataclass(frozen=True)
class ServiceDefinition:
    """One generated test service.

    The service has exactly one operation, named after the parameter
    type, with one input and one output of that type: the one-member
    case of a :class:`~repro.services.composite.CompositeServiceDefinition`.
    """

    parameter_type: TypeInfo

    @property
    def parameter_types(self):
        """The member types the service echoes, as a composite's are."""
        return (self.parameter_type,)

    @property
    def name(self):
        """Service name, unique across the corpus."""
        return f"Echo{sanitize_identifier(self.parameter_type.full_name)}Service"

    @property
    def short_name(self):
        """Service name as a developer would write it (not unique)."""
        return f"Echo{self.parameter_type.name}Service"

    @property
    def operation_name(self):
        return echo_operation_name(self.parameter_type)

    @property
    def target_namespace(self):
        """The WSDL target namespace for this service."""
        return f"http://services.wsinterop.test/{self.parameter_type.full_name}"

    def __repr__(self):
        return f"<ServiceDefinition {self.name}>"
