"""Communication and Execution steps — the paper's announced future work.

§V: "In future work we intend to test WS frameworks during the
communication and execution phase to test the whole inter-operation
lifecycle."  This package implements that extension over the simulated
stack: an in-memory HTTP transport, a server-side SOAP dispatcher that
executes the echo operation, and a dynamic client proxy driven by the
generated artifacts.
"""

from repro.runtime.client import (
    ClientHttpError,
    ClientInvocationError,
    ClientSoapFaultError,
    GeneratedClientProxy,
)
from repro.runtime.guard import (
    FATAL_BUCKETS,
    INLINE_LIMITS,
    GuardLimits,
    GuardedStep,
    GuardVerdict,
    InputBudgetExceeded,
    TriageBucket,
    classify_exception,
    run_guarded,
)
from repro.runtime.lifecycle import (
    ClientGate,
    LifecycleOutcome,
    prepare_client_proxy,
    run_full_lifecycle,
)
from repro.runtime.progress import (
    PROGRESS_FORMAT,
    PROGRESS_SCHEMA,
    ProgressValidationError,
    ProgressWriter,
    read_progress,
    validate_progress_lines,
)
from repro.runtime.recorder import Exchange, TransportRecorder, check_exchange
from repro.runtime.resilience import (
    NAIVE_POLICY,
    AttemptLog,
    CircuitBreaker,
    ResiliencePolicy,
    ResilientTransport,
)
from repro.runtime.server import EchoServiceEndpoint
from repro.runtime.transport import (
    BadStatusLine,
    ChunkedEncodingError,
    CircuitOpen,
    ConnectionRefused,
    ConnectionReset,
    DeadlineExceeded,
    HeaderOverflow,
    HttpResponse,
    InMemoryHttpTransport,
    PrematureEOF,
    ProtocolError,
    TransportError,
    close_transport,
)
from repro.runtime.wire import (
    WireClient,
    WireServer,
    WireTransport,
    transport_factory_for,
)

__all__ = [
    "AttemptLog",
    "BadStatusLine",
    "ChunkedEncodingError",
    "CircuitBreaker",
    "CircuitOpen",
    "ClientGate",
    "ClientHttpError",
    "ClientInvocationError",
    "ClientSoapFaultError",
    "ConnectionRefused",
    "ConnectionReset",
    "DeadlineExceeded",
    "EchoServiceEndpoint",
    "Exchange",
    "FATAL_BUCKETS",
    "GeneratedClientProxy",
    "GuardLimits",
    "GuardVerdict",
    "GuardedStep",
    "HeaderOverflow",
    "HttpResponse",
    "INLINE_LIMITS",
    "InMemoryHttpTransport",
    "InputBudgetExceeded",
    "LifecycleOutcome",
    "NAIVE_POLICY",
    "PROGRESS_FORMAT",
    "PROGRESS_SCHEMA",
    "PrematureEOF",
    "ProgressValidationError",
    "ProgressWriter",
    "ProtocolError",
    "ResiliencePolicy",
    "ResilientTransport",
    "TransportError",
    "TransportRecorder",
    "TriageBucket",
    "WireClient",
    "WireServer",
    "WireTransport",
    "check_exchange",
    "classify_exception",
    "close_transport",
    "prepare_client_proxy",
    "read_progress",
    "run_full_lifecycle",
    "run_guarded",
    "transport_factory_for",
    "validate_progress_lines",
]
