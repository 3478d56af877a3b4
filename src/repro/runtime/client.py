"""Dynamic client proxy driven by generated artifacts."""

from __future__ import annotations

from repro.soap.encoding import decode_wrapper, encode_wrapper
from repro.soap.envelope import parse_envelope, serialize_envelope
from repro.xmlcore import QName


class ClientInvocationError(Exception):
    """Raised when an invocation cannot be performed or faults."""


class ClientSoapFaultError(ClientInvocationError):
    """The server answered with a SOAP fault envelope."""


class ClientHttpError(ClientInvocationError):
    """The transport returned a non-OK status without a fault envelope."""


class GeneratedClientProxy:
    """Invokes a remote service through its generated artifacts.

    The proxy plays the role of the hand-written client application in
    Fig. 1: it calls the methods the artifacts expose.  It refuses to
    invoke operations the artifacts do not surface — which is exactly
    what happens to a developer holding a method-less generated client.
    """

    def __init__(self, bundle, document, transport):
        self.bundle = bundle
        self.document = document
        self.transport = transport
        #: The response envelope the last successful ``invoke`` parsed,
        #: for callers that inspect the raw response without parsing it
        #: again; ``None`` until an invocation succeeds.
        self.last_envelope = None

    @property
    def operations(self):
        """Names of the operations the generated artifacts expose."""
        if self.bundle is None:
            return []
        return [method.name for method in self.bundle.operation_methods]

    def invoke(self, operation_name, values, soap_headers=()):
        """Invoke ``operation_name`` with ``values`` (property dict).

        ``soap_headers`` are optional header elements to attach (used to
        probe mustUnderstand handling).  Returns the decoded response
        payload dict.  Raises :class:`ClientInvocationError` on missing
        methods, transport failures and SOAP faults.
        """
        if operation_name not in self.operations:
            raise ClientInvocationError(
                f"generated client exposes no method {operation_name!r}"
            )
        operation = self._operation(operation_name)
        message = self.document.message(operation.input_message)
        request = encode_wrapper(message.element, {"input": values})
        body = serialize_envelope(body_element=request, headers=tuple(soap_headers))

        response = self.transport.post(
            self.document.endpoint_url,
            body,
            headers={"SOAPAction": operation.soap_action},
        )
        if not response.ok:
            envelope = _try_parse(response.body)
            if envelope is not None and envelope.is_fault:
                raise ClientSoapFaultError(
                    f"SOAP fault: {envelope.fault.string}"
                )
            raise ClientHttpError(
                f"transport error {response.status}: {response.body[:200]}"
            )

        try:
            envelope = parse_envelope(response.body)
        except Exception as exc:
            # Truncated or corrupted wire data: the stub's XML parser
            # blows up, which the application sees as a client error.
            raise ClientInvocationError(
                f"malformed response envelope: {exc}"
            ) from exc
        if envelope.is_fault:
            raise ClientSoapFaultError(f"SOAP fault: {envelope.fault.string}")
        if envelope.body is None:
            raise ClientInvocationError("empty response body")
        payload = decode_wrapper(envelope.body)
        result = payload.get("return")
        self.last_envelope = envelope
        return result if isinstance(result, dict) else payload

    def _operation(self, name):
        for operation in self.document.operations:
            if operation.name == name:
                return operation
        raise ClientInvocationError(f"WSDL declares no operation {name!r}")


def _try_parse(text):
    try:
        return parse_envelope(text)
    except Exception:
        return None
