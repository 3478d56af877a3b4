"""The fault sweeps: chaos at the transport, corruption at the source.

:class:`ResilienceCampaign` drives a sample of deployed services through
the full five-step lifecycle over a :class:`FaultingTransport`, with
each client wrapped in its era-accurate :class:`ResilientTransport`
policy.  The output is a survival/recovery matrix: how many tests
completed cleanly, how many completed only after re-sends
(``DEGRADED``), and how many died — per fault kind, so robustness
differences between stacks are attributable.

:class:`FuzzCampaign` attacks the *other* two lifecycle steps: it
corrupts each service's serialized WSDL with the seeded mutation
operators of :mod:`repro.faults.corpus` and drives every client's
guarded wsdl2code + compile pipeline over the mutants, producing a
crash-triage matrix (clean / parser-crash / resource-blowup / timeout /
tool-internal) per (server, client, mutation kind, intensity).  Cells
that hit a fatal bucket are quarantined via
:class:`~repro.core.store.QuarantineRegistry`, so the triple's later
mutants are skipped and reported as QUARANTINED.

Everything is seeded and deterministic, and long sweeps checkpoint after
every server so an interrupted run resumes to the identical result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.campaign import CampaignConfig
from repro.core.cells import CellMatrix, Counters, cells_to_obj
from repro.core.extended import LifecycleCampaign
from repro.core.outcomes import StepStatus
from repro.core.store import QuarantineRegistry
from repro.faults.corpus import DEFAULT_MUTATION_KINDS, MutationKind, WsdlMutator
from repro.faults.plan import DEFAULT_FAULT_KINDS, FaultKind, FaultPlan, derive_seed
from repro.faults.policies import policy_for
from repro.faults.transport import FaultingTransport
from repro.obs.trace import current_tracer
from repro.runtime import (
    ResilientTransport,
    close_transport,
    run_full_lifecycle,
)
from repro.runtime.lifecycle import (
    SharedReads,
    build_client,
    count_steps,
    guarded_read,
)
from repro.runtime.guard import GuardLimits, TriageBucket

#: Default rate sweep: a light drizzle and a heavy storm.
DEFAULT_RATES = (0.15, 0.35)


@dataclass
class ResilienceCampaignConfig:
    """Parameters of one resilience sweep."""

    base: CampaignConfig = field(default_factory=CampaignConfig)
    seed: int = 20140622
    fault_kinds: tuple = DEFAULT_FAULT_KINDS
    rates: tuple = DEFAULT_RATES
    #: Deployed services per server driven through each fault config.
    sample_per_server: int = 20
    slow_latency_ms: float = 30_000.0
    base_latency_ms: float = 5.0

    def fingerprint(self):
        """Stable identity used to guard checkpoint compatibility."""
        return {
            "seed": self.seed,
            "servers": list(self.base.server_ids),
            "clients": list(self.base.client_ids),
            "kinds": [FaultKind(kind).value for kind in self.fault_kinds],
            "rates": [repr(float(rate)) for rate in self.rates],
            "sample": self.sample_per_server,
            "slow_latency_ms": self.slow_latency_ms,
            "base_latency_ms": self.base_latency_ms,
        }


@dataclass
class ResilienceCellStats(Counters):
    """One matrix cell: a (server, client, fault kind, rate) combination."""

    FAIL_FIELDS = (
        "generation_errors", "compilation_errors",
        "communication_errors", "execution_errors",
    )

    tests: int = 0
    generation_errors: int = 0
    compilation_errors: int = 0
    communication_errors: int = 0
    execution_errors: int = 0
    #: Completed all five steps (cleanly or after re-sends).
    completed: int = 0
    #: Subset of ``completed`` whose communication step was DEGRADED.
    recovered: int = 0
    faults_injected: int = 0
    retries: int = 0
    breaker_trips: int = 0

    def add(self, outcome):
        if count_steps(self, outcome) \
                and outcome.communication is StepStatus.DEGRADED:
            self.recovered += 1

    @property
    def survival_rate(self):
        """Fraction of tests that completed the whole lifecycle."""
        return self.completed / self.tests if self.tests else 0.0

    def as_row(self):
        return (
            self.tests,
            self.faults_injected,
            self.retries,
            self.completed,
            self.recovered,
            self.communication_errors,
            f"{self.survival_rate:.2f}",
        )


@dataclass
class ResilienceCampaignResult(CellMatrix):
    """Aggregate result of one resilience sweep."""

    fault_kinds: tuple = ()  # FaultKind values (strings)
    rates: tuple = ()  # repr'd floats, in sweep order

    CELL = ResilienceCellStats
    AXES = {"fault_kinds": FaultKind, "rates": float}
    KIND = "resilience"

    @property
    def tests_executed(self):
        return sum(cell.tests for cell in self.cells.values())

    def client_survival(self, kind, rate):
        """Per-client survival rate across servers for one fault config."""
        coordinates = self.coordinates(kind, rate)
        out = {}
        for client_id in self.client_ids:
            tests = completed = 0
            for server_id in self.server_ids:
                cell = self.cells.get((server_id, client_id, *coordinates))
                if cell is None:
                    continue
                tests += cell.tests
                completed += cell.completed
            out[client_id] = completed / tests if tests else 0.0
        return out


resilience_result_to_obj = ResilienceCampaignResult.to_obj
resilience_result_from_obj = ResilienceCampaignResult.from_obj


class ResilienceCampaign(LifecycleCampaign):
    """Sweeps fault kinds and rates over the five-step lifecycle.

    Per server the corpus is deployed once and a deterministic sample is
    selected; per (fault kind, rate, client) one policy-wrapped transport
    carries that client's exchanges so its circuit breaker accumulates
    state across services, while each service gets a label-derived
    :class:`FaultPlan` so the schedule is independent of execution order.
    """

    CONFIG = ResilienceCampaignConfig
    RESULT = ResilienceCampaignResult

    def _sweep_server(self, server_id, selected, clients, new_transport,
                      server_span):
        """Sweep every (kind, rate, client) cell of one server's sample."""
        sweep = self.sweep
        tracer = current_tracer()
        cells = {}
        reads = SharedReads()
        for kind in sweep.fault_kinds:
            kind = FaultKind(kind)
            for rate in sweep.rates:
                coordinates = self.RESULT.coordinates(kind, rate)
                for client_id, client in clients.items():
                    cell = ResilienceCellStats()
                    cells[(server_id, client_id, *coordinates)] = cell
                    with tracer.span(
                        "cell", client=client_id, kind=kind.value,
                        rate=repr(float(rate)),
                    ) as cell_span:
                        self._run_cell(
                            cell, server_id, client_id, client,
                            kind, rate, selected, new_transport, reads,
                        )
                        cell_span.annotate(
                            tests=cell.tests, completed=cell.completed,
                            retries=cell.retries,
                        )
        return {"cells": cells_to_obj(cells)}

    def _run_cell(self, cell, server_id, client_id, client, kind, rate,
                  selected, new_transport, reads):
        sweep = self.sweep
        resilient = ResilientTransport(
            inner=None,
            policy=policy_for(client_id),
            seed=derive_seed(
                sweep.seed, server_id, client_id, kind.value, repr(float(rate))
            ),
        )
        for record in selected:
            seed = derive_seed(
                sweep.seed, server_id, client_id, kind.value,
                repr(float(rate)), record.service.name,
            )
            faulting = FaultingTransport(
                new_transport(),
                FaultPlan.single(
                    seed, kind, rate,
                    slow_latency_ms=sweep.slow_latency_ms,
                    base_latency_ms=sweep.base_latency_ms,
                ),
            )
            resilient.inner = faulting
            try:
                outcome = run_full_lifecycle(
                    record, client, client_id=client_id, transport=resilient,
                    reads=reads,
                )
            finally:
                # Removes the record's endpoint from the unit's wire
                # listener; a no-op for the in-memory stack.
                close_transport(faulting)
            cell.add(outcome)
            cell.faults_injected += faulting.total_faults_injected
        cell.retries += resilient.retries_performed
        cell.breaker_trips += resilient.breaker.trips


# -- WSDL corruption fuzzing -------------------------------------------------

#: Default intensity sweep: a scuffed document and a hostile one.
DEFAULT_INTENSITIES = (0.3, 0.8)


@dataclass
class FuzzCampaignConfig:
    """Parameters of one corruption-fuzz sweep."""

    base: CampaignConfig = field(default_factory=CampaignConfig)
    seed: int = 20140622
    mutation_kinds: tuple = DEFAULT_MUTATION_KINDS
    intensities: tuple = DEFAULT_INTENSITIES
    #: Mutants generated per (service, kind, intensity) combination.
    mutants_per_config: int = 1
    #: Deployed services per server fed to the mutator.
    sample_per_server: int = 6
    #: Wall-clock deadline per guarded step.
    deadline_seconds: float = 10.0
    #: Abort the sweep at the first unclassified (tool-internal) error.
    fail_fast: bool = False

    def guard_limits(self):
        return GuardLimits(deadline_seconds=self.deadline_seconds)

    def fingerprint(self):
        """Stable identity used to guard checkpoint compatibility.

        Includes the mutation seed and the full fuzz configuration, so
        a resume with a different seed or sweep shape is rejected
        rather than silently mixed into stale slices.
        """
        return {
            "campaign": "fuzz",
            "seed": self.seed,
            "servers": list(self.base.server_ids),
            "clients": list(self.base.client_ids),
            "kinds": [MutationKind(kind).value for kind in self.mutation_kinds],
            "intensities": [repr(float(i)) for i in self.intensities],
            "mutants_per_config": self.mutants_per_config,
            "sample": self.sample_per_server,
            "deadline_seconds": repr(float(self.deadline_seconds)),
        }


@dataclass
class FuzzCellStats(Counters):
    """One triage-matrix cell: (server, client, mutation kind, intensity)."""

    FAIL_FIELDS = ("parser_crash", "resource_blowup", "timeout", "tool_internal")

    mutants: int = 0
    #: The whole guarded pipeline ran clean (the tool ate the mutant).
    survived: int = 0
    #: Tool emitted classified error diagnostics (healthy rejection).
    rejected: int = 0
    parser_crash: int = 0
    resource_blowup: int = 0
    timeout: int = 0
    #: Unclassified exceptions — every count here is a harness bug.
    tool_internal: int = 0
    #: Skipped because the (server, service, client) triple is poisoned.
    quarantined: int = 0

    _BUCKET_FIELDS = {
        TriageBucket.PARSER_CRASH: "parser_crash",
        TriageBucket.RESOURCE_BLOWUP: "resource_blowup",
        TriageBucket.TIMEOUT: "timeout",
        TriageBucket.TOOL_INTERNAL: "tool_internal",
    }

    def add(self, bucket, rejected=False):
        self.mutants += 1
        if bucket is TriageBucket.CLEAN:
            if rejected:
                self.rejected += 1
            else:
                self.survived += 1
        else:
            name = self._BUCKET_FIELDS[bucket]
            setattr(self, name, getattr(self, name) + 1)

    def add_quarantined(self):
        self.mutants += 1
        self.quarantined += 1

    def as_row(self):
        return (
            self.mutants,
            self.survived,
            self.rejected,
            self.parser_crash,
            self.resource_blowup,
            self.timeout,
            self.tool_internal,
            self.quarantined,
        )


@dataclass
class FuzzCampaignResult(CellMatrix):
    """Aggregate result of one corruption-fuzz sweep."""

    mutation_kinds: tuple = ()  # MutationKind values (strings)
    intensities: tuple = ()  # repr'd floats, in sweep order
    #: True when ``fail_fast`` stopped the sweep early.
    aborted: bool = False
    #: Sorted (server, service, client, bucket, detail) poison records.
    quarantine: list = field(default_factory=list)

    CELL = FuzzCellStats
    AXES = {"mutation_kinds": MutationKind, "intensities": float}
    KIND = "fuzz"

    @property
    def mutants_executed(self):
        return sum(cell.mutants for cell in self.cells.values())

    @property
    def unclassified_total(self):
        """Tool-internal hits across the matrix; must be zero."""
        return sum(cell.tool_internal for cell in self.cells.values())


fuzz_result_to_obj = FuzzCampaignResult.to_obj
fuzz_result_from_obj = FuzzCampaignResult.from_obj


class FuzzCampaign(LifecycleCampaign):
    """Sweeps corruption operators over every server/client pair.

    Per server the corpus is deployed once and a deterministic sample
    selected; each sampled service's serialized WSDL is mutated per
    (kind, intensity, index) with a label-derived seed.  Each mutant is
    read once, under the guard, and every client runs its guarded
    generate → compile pipeline over that one read.  The verdicts land
    in a crash-triage matrix, fatal buckets poison the (server,
    service, client) triple, and each server's cells and poison
    entries checkpoint together as one unit payload.
    """

    CONFIG = FuzzCampaignConfig
    RESULT = FuzzCampaignResult

    def _sweep_server(self, server_id, selected, clients, new_transport,
                      server_span):
        """Fuzz one server's sample.

        Returns its cells, its quarantine entries and whether it
        finished (``False`` when ``fail_fast`` aborted it).
        """
        cells = {}
        quarantine = QuarantineRegistry()
        finished = self._fuzz_server(
            server_id, selected, clients, cells, quarantine
        )
        if not finished:
            server_span.annotate(aborted=True)
        return {
            "cells": cells_to_obj(cells),
            "quarantine": [list(entry) for entry in quarantine.entries()],
            "finished": finished,
        }

    def _fuzz_server(self, server_id, selected, clients, cells, quarantine):
        """Fuzz one server's sample; returns False when fail-fast aborted."""
        sweep = self.sweep
        mutator = WsdlMutator(sweep.seed)
        limits = sweep.guard_limits()
        tracer = current_tracer()
        for record in selected:
            service_name = record.service.name
            for kind in sweep.mutation_kinds:
                kind = MutationKind(kind)
                for intensity in sweep.intensities:
                    coordinates = self.RESULT.coordinates(kind, intensity)
                    for index in range(sweep.mutants_per_config):
                        mutant = mutator.mutate(
                            record.wsdl_text, kind, intensity,
                            server_id, service_name, index,
                        )
                        # Read once, by the first client not quarantined.
                        read = None
                        for client_id, client in clients.items():
                            key = (server_id, client_id, *coordinates)
                            cell = cells.get(key)
                            if cell is None:
                                cell = cells[key] = FuzzCellStats()
                            with tracer.span(
                                "mutant", service=service_name,
                                client=client_id, kind=kind.value,
                                intensity=repr(float(intensity)),
                                index=index,
                            ) as mutant_span:
                                if quarantine.contains(
                                    server_id, service_name, client_id
                                ):
                                    cell.add_quarantined()
                                    mutant_span.annotate(quarantined=True)
                                    continue
                                if read is None:
                                    read = self._read(mutant, limits)
                                bucket, rejected, detail = self._drive(
                                    read, client, limits
                                )
                                cell.add(bucket, rejected=rejected)
                                mutant_span.annotate(
                                    bucket=bucket.value, rejected=rejected
                                )
                            if bucket in (
                                TriageBucket.TIMEOUT,
                                TriageBucket.TOOL_INTERNAL,
                            ):
                                quarantine.poison(
                                    server_id, service_name, client_id,
                                    bucket.value, detail,
                                )
                                if (
                                    sweep.fail_fast
                                    and bucket is TriageBucket.TOOL_INTERNAL
                                ):
                                    return False
        return True

    def _read(self, mutant, limits):
        """The guarded wsdl-read of one mutant, as a :class:`GuardVerdict`.

        Reading takes no client, so every client of a mutant shares one
        verdict: a read that times out is a TIMEOUT for all of them.
        """
        return guarded_read(mutant.text, limits)

    def _drive(self, read, client, limits):
        """The client ladder (:func:`build_client`) over one mutant's ``read``.

        Returns ``(bucket, rejected, detail)``: the triage bucket, a
        flag marking a *classified* tool rejection (diagnostics, not an
        exception), and the failure detail for the quarantine record.
        """
        if not read.ok:
            return read.bucket, False, read.detail
        built = build_client(read.value, client, limits)
        if built.verdict is not None:
            return built.verdict.bucket, False, built.verdict.detail
        return TriageBucket.CLEAN, not built.ok, ""
