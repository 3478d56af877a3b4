"""Fault injection and resilience campaigns (the chaos extension).

The paper measures interoperability on the happy path and defers the
Communication/Execution steps; real deployments fail in exactly those
steps.  This package makes the in-memory stack misbehave on purpose —
deterministically, from a seed — and measures which client frameworks
degrade gracefully:

* :mod:`repro.faults.plan` — the one fault taxonomy (six
  response-level kinds, then eight socket kinds) and the seeded,
  reproducible per-request fault schedule;
* :mod:`repro.faults.transport` — a chaos wrapper over any transport
  that injects the scheduled faults of every kind;
* :mod:`repro.faults.wire` — the socket pathologies (reset, slowloris,
  half-close, garbage framing, …) that a response object cannot
  express, each on a one-shot loopback listener;
* :mod:`repro.faults.policies` — per-client resilience policies (which
  2013-era stacks retried, which just died);
* :mod:`repro.faults.campaign` — the fault-rate sweep producing
  per-(server, client, fault kind) survival/recovery matrices, with
  crash-safe per-server checkpointing;
* :mod:`repro.faults.corpus` — seeded WSDL/XSD/XML corruption
  operators (truncation, tag imbalance, namespace clobbering, …) that
  manufacture hostile descriptions from well-formed ones;
* the :class:`FuzzCampaign` in :mod:`repro.faults.campaign` — the
  corruption sweep producing crash-triage matrices over the guarded
  wsdl2code + compile pipeline, with poison-cell quarantine.
"""

from repro.faults.campaign import (
    DEFAULT_INTENSITIES,
    FuzzCampaign,
    FuzzCampaignConfig,
    FuzzCampaignResult,
    FuzzCellStats,
    ResilienceCampaign,
    ResilienceCampaignConfig,
    ResilienceCampaignResult,
    ResilienceCellStats,
    fuzz_result_from_obj,
    fuzz_result_to_obj,
    resilience_result_from_obj,
    resilience_result_to_obj,
)
from repro.faults.corpus import (
    DEFAULT_MUTATION_KINDS,
    Mutant,
    MutationKind,
    WsdlMutator,
)
from repro.faults.plan import (
    DEFAULT_FAULT_KINDS,
    DEFAULT_WIRE_FAULT_KINDS,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.faults.policies import CLIENT_POLICIES, policy_for
from repro.faults.transport import FaultingTransport

__all__ = [
    "CLIENT_POLICIES",
    "DEFAULT_FAULT_KINDS",
    "DEFAULT_INTENSITIES",
    "DEFAULT_MUTATION_KINDS",
    "DEFAULT_WIRE_FAULT_KINDS",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultingTransport",
    "FuzzCampaign",
    "FuzzCampaignConfig",
    "FuzzCampaignResult",
    "FuzzCellStats",
    "Mutant",
    "MutationKind",
    "ResilienceCampaign",
    "ResilienceCampaignConfig",
    "ResilienceCampaignResult",
    "ResilienceCellStats",
    "WsdlMutator",
    "fuzz_result_from_obj",
    "fuzz_result_to_obj",
    "policy_for",
    "resilience_result_from_obj",
    "resilience_result_to_obj",
]
