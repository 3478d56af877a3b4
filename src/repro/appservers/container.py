"""Generic application-server container."""

from __future__ import annotations

from dataclasses import dataclass

from repro.wsdl.builder import serialize_wsdl


@dataclass
class DeploymentRecord:
    """One service's deployment outcome inside a container."""

    service: object
    accepted: bool
    reason: str = ""
    wsdl: object = None  # the in-memory WsdlDocument
    #: The serialized document clients download.  Deployment leaves it
    #: ``None``: the first read serializes ``wsdl`` and keeps the text,
    #: so a sweep that tests a sample serializes only its sample.
    wsdl_text: str = None
    endpoint_url: str = ""

    @property
    def wsdl_url(self):
        return f"{self.endpoint_url}?wsdl" if self.accepted else ""


def _published_text(record):
    text = record._wsdl_text
    if text is None:
        text = record._wsdl_text = (
            "" if record.wsdl is None
            else serialize_wsdl(record.wsdl, pretty=True)
        )
    return text


def _set_published_text(record, text):
    record._wsdl_text = text


# Installed after ``@dataclass`` has read the field, so ``__init__``,
# ``dataclasses.replace`` and ``repr`` still see a plain ``wsdl_text``.
DeploymentRecord.wsdl_text = property(_published_text, _set_published_text)


class ApplicationServer:
    """Hosts one server framework; deploys services and publishes WSDLs.

    Publication serializes the in-memory document to real XML text —
    clients re-parse it, so the full text round-trip that real tools
    perform is part of every campaign test.  A record serializes on the
    first read of its ``wsdl_text``, or for the whole container at once
    with :meth:`publish`.
    """

    name = ""
    version = ""
    host = "localhost"
    port = 8080

    def __init__(self, framework):
        self.framework = framework
        self.deployments = []

    def base_url(self):
        return f"http://{self.host}:{self.port}"

    def deploy(self, service):
        """Deploy ``service``: refuse it, or publish its WSDL at its
        endpoint.  Returns the :class:`DeploymentRecord`."""
        reason = self.framework.refusal(service)
        if reason:
            record = DeploymentRecord(service=service, accepted=False, reason=reason)
        else:
            endpoint_url = f"{self.base_url()}/{service.name}"
            record = DeploymentRecord(
                service=service,
                accepted=True,
                wsdl=self.framework.generate_wsdl(service, endpoint_url),
                endpoint_url=endpoint_url,
            )
        self.deployments.append(record)
        return record

    def deploy_corpus(self, corpus):
        """Deploy every service; returns the list of records."""
        return [self.deploy(service) for service in corpus]

    def publish(self):
        """Serialize every deployed record's WSDL now, not on first read."""
        for record in self.deployed:
            _published_text(record)

    @property
    def deployed(self):
        """Records of successfully deployed services."""
        return [record for record in self.deployments if record.accepted]

    @property
    def refused(self):
        """Records of services the framework could not describe."""
        return [record for record in self.deployments if not record.accepted]

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} {self.version} ({self.framework.name})>"
