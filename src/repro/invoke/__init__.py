"""Step 4 at the data plane: schema-guided invocation sweeps.

The control-plane campaigns measure whether tools *build*; this package
measures whether the built artifacts can actually *carry values*.  It
derives seeded test payloads straight from each service's XSD
(:mod:`repro.invoke.payloads`), drives them through the live proxy →
envelope → transport → echo path, and triages every round trip with a
total fidelity taxonomy (:mod:`repro.invoke.fidelity`).  The campaign
(:mod:`repro.invoke.campaign`) gives the sweep the same platform
guarantees as its siblings: checkpoint/resume, byte-identical sharding
and quarantine of fatal cells.
"""

from repro.invoke.campaign import (
    InvocationCampaign,
    InvocationCampaignConfig,
    InvocationCampaignResult,
    InvocationCellStats,
    invoke_result_from_obj,
    invoke_result_to_obj,
)
from repro.invoke.fidelity import (
    Fidelity,
    Triage,
    classify_failure,
    compare_roundtrip,
)
from repro.invoke.payloads import (
    DEFAULT_CLASSES,
    STRING_EDGES,
    FieldShape,
    PayloadClass,
    PayloadGenerator,
    TestPayload,
    request_shape,
)

__all__ = [
    "DEFAULT_CLASSES",
    "Fidelity",
    "FieldShape",
    "InvocationCampaign",
    "InvocationCampaignConfig",
    "InvocationCampaignResult",
    "InvocationCellStats",
    "PayloadClass",
    "PayloadGenerator",
    "STRING_EDGES",
    "TestPayload",
    "Triage",
    "classify_failure",
    "compare_roundtrip",
    "invoke_result_from_obj",
    "invoke_result_to_obj",
    "request_shape",
]
