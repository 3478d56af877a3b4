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

from dataclasses import dataclass, field, fields

from repro.core.campaign import CampaignConfig
from repro.core.extended import LifecycleCampaign
from repro.core.outcomes import StepStatus
from repro.core.sharding import CAMPAIGN_FUZZ, CAMPAIGN_RESILIENCE, ShardJob
from repro.core.store import QuarantineRegistry
from repro.faults.corpus import DEFAULT_MUTATION_KINDS, MutationKind, WsdlMutator
from repro.faults.plan import DEFAULT_FAULT_KINDS, FaultKind, FaultPlan, derive_seed
from repro.faults.policies import policy_for
from repro.faults.transport import FaultingTransport
from repro.faults.wire import WireFaultingTransport, WireFaultKind, WireFaultPlan
from repro.obs.trace import current_tracer
from repro.runtime import (
    InMemoryHttpTransport,
    ResilientTransport,
    close_transport,
    run_full_lifecycle,
)
from repro.runtime.lifecycle import SharedReads, guarded_read
from repro.runtime.wire import transport_factory_for, unit_transports
from repro.runtime.guard import GuardedStep, GuardLimits, TriageBucket

_RESULT_FORMAT = 1

#: Default rate sweep: a light drizzle and a heavy storm.
DEFAULT_RATES = (0.15, 0.35)


def fault_kind_of(kind):
    """Coerce ``kind`` to its enum: in-memory or wire fault taxonomy.

    The resilience sweep accepts both :class:`FaultKind` (response-level
    chaos any transport can express) and :class:`WireFaultKind`
    (socket-level pathologies); values are disjoint so a string coerces
    unambiguously.
    """
    if isinstance(kind, (FaultKind, WireFaultKind)):
        return kind
    try:
        return FaultKind(kind)
    except ValueError:
        return WireFaultKind(kind)


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
            "kinds": [fault_kind_of(kind).value for kind in self.fault_kinds],
            "rates": [repr(float(rate)) for rate in self.rates],
            "sample": self.sample_per_server,
            "slow_latency_ms": self.slow_latency_ms,
            "base_latency_ms": self.base_latency_ms,
        }


@dataclass
class ResilienceCellStats:
    """One matrix cell: a (server, client, fault kind, rate) combination."""

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
        self.tests += 1
        if outcome.generation is StepStatus.ERROR:
            self.generation_errors += 1
        elif outcome.compilation is StepStatus.ERROR:
            self.compilation_errors += 1
        elif outcome.communication is StepStatus.ERROR:
            self.communication_errors += 1
        elif outcome.execution is StepStatus.ERROR:
            self.execution_errors += 1
        else:
            self.completed += 1
            if outcome.communication is StepStatus.DEGRADED:
                self.recovered += 1

    @property
    def survival_rate(self):
        """Fraction of tests that completed the whole lifecycle."""
        return self.completed / self.tests if self.tests else 0.0

    @property
    def recovery_rate(self):
        """Fraction of completions owed to the retry policy."""
        return self.recovered / self.completed if self.completed else 0.0

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

    def to_obj(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_obj(cls, obj):
        return cls(**obj)


def _cell_key(server_id, client_id, kind, rate):
    return (server_id, client_id, fault_kind_of(kind).value, repr(float(rate)))


@dataclass
class ResilienceCampaignResult:
    """Aggregate result of one resilience sweep."""

    server_ids: tuple = ()
    client_ids: tuple = ()
    fault_kinds: tuple = ()  # FaultKind values (strings)
    rates: tuple = ()  # repr'd floats, in sweep order
    seed: int = 0
    cells: dict = field(default_factory=dict)
    services_per_server: dict = field(default_factory=dict)

    def cell(self, server_id, client_id, kind, rate):
        return self.cells[_cell_key(server_id, client_id, kind, rate)]

    @property
    def tests_executed(self):
        return sum(cell.tests for cell in self.cells.values())

    def by_fault_kind(self, kind):
        """All cells of one fault kind: (server, client, rate) → stats."""
        kind = fault_kind_of(kind).value
        return {
            (server, client, rate): cell
            for (server, client, cell_kind, rate), cell in self.cells.items()
            if cell_kind == kind
        }

    def client_survival(self, kind, rate):
        """Per-client survival rate across servers for one fault config."""
        kind = fault_kind_of(kind).value
        rate = repr(float(rate))
        out = {}
        for client_id in self.client_ids:
            tests = completed = 0
            for server_id in self.server_ids:
                cell = self.cells.get(
                    (server_id, client_id, kind, rate)
                )
                if cell is None:
                    continue
                tests += cell.tests
                completed += cell.completed
            out[client_id] = completed / tests if tests else 0.0
        return out

    def totals(self):
        keys = (
            "tests",
            "generation_errors",
            "compilation_errors",
            "communication_errors",
            "execution_errors",
            "completed",
            "recovered",
            "faults_injected",
            "retries",
            "breaker_trips",
        )
        totals = dict.fromkeys(keys, 0)
        for cell in self.cells.values():
            for key in keys:
                totals[key] += getattr(cell, key)
        return totals


def resilience_result_to_obj(result):
    """JSON-compatible dict for a :class:`ResilienceCampaignResult`."""
    return {
        "format": _RESULT_FORMAT,
        "seed": result.seed,
        "server_ids": list(result.server_ids),
        "client_ids": list(result.client_ids),
        "fault_kinds": list(result.fault_kinds),
        "rates": list(result.rates),
        "services_per_server": dict(result.services_per_server),
        "cells": {
            "|".join(key): cell.to_obj() for key, cell in result.cells.items()
        },
    }


def resilience_result_from_obj(obj):
    """Rebuild a result from :func:`resilience_result_to_obj` output."""
    if obj.get("format") != _RESULT_FORMAT:
        raise ValueError(f"unsupported resilience format: {obj.get('format')!r}")
    result = ResilienceCampaignResult(
        server_ids=tuple(obj["server_ids"]),
        client_ids=tuple(obj["client_ids"]),
        fault_kinds=tuple(obj["fault_kinds"]),
        rates=tuple(obj["rates"]),
        seed=obj["seed"],
        services_per_server=dict(obj["services_per_server"]),
    )
    for key, cell in obj["cells"].items():
        result.cells[tuple(key.split("|"))] = ResilienceCellStats.from_obj(cell)
    return result


def merge_resilience(rconfig, ordered):
    """Fold resilience unit payloads, in canonical order, into a result."""
    result = ResilienceCampaignResult(
        server_ids=tuple(rconfig.base.server_ids),
        client_ids=tuple(rconfig.base.client_ids),
        fault_kinds=tuple(
            fault_kind_of(kind).value for kind in rconfig.fault_kinds
        ),
        rates=tuple(repr(float(rate)) for rate in rconfig.rates),
        seed=rconfig.seed,
    )
    for unit, data in ordered:
        result.services_per_server[unit.server_id] = data["services"]
        for key, cell in data["cells"].items():
            result.cells[tuple(key.split("|"))] = (
                ResilienceCellStats.from_obj(cell)
            )
    return result


class ResilienceCampaign(LifecycleCampaign):
    """Sweeps fault kinds and rates over the five-step lifecycle.

    Per server the corpus is deployed once and a deterministic sample is
    selected; per (fault kind, rate, client) one policy-wrapped transport
    carries that client's exchanges so its circuit breaker accumulates
    state across services, while each service gets a label-derived
    :class:`FaultPlan` so the schedule is independent of execution order.
    """

    #: Builds each cell's base transport (through
    #: :func:`unit_transports`, so a wire unit's cells share one listener
    #: and one connection); the regress drill-down swaps in a
    #: recorder-wrapping factory to capture the cell's exchanges.
    transport_factory = InMemoryHttpTransport

    def __init__(self, config=None):
        self.rconfig = config or ResilienceCampaignConfig()
        self.transport_factory = transport_factory_for(
            self.rconfig.base.transport
        )
        super().__init__(
            self.rconfig.base,
            sample_per_server=self.rconfig.sample_per_server,
        )

    #: Folds unit payloads into a ``ResilienceCampaignResult``.
    merge = staticmethod(merge_resilience)

    def shard_job(self):
        """This sweep as a :class:`~repro.core.sharding.ShardJob`.

        One unit per server: within a server the circuit breaker
        accumulates state across services, so a finer split would
        change outcomes.
        """
        return ShardJob(CAMPAIGN_RESILIENCE, self.rconfig, 1)

    def run_shard_unit(self, unit):
        """Deploy one server and sweep every (kind, rate, client) cell.

        Returns the unit payload: the sampled service count and the
        server's cells.
        """
        rconfig = self.rconfig
        server_id = unit.server_id
        clients = self._clients()
        tracer = current_tracer()
        cells = {}
        reads = SharedReads()
        # One unit covers the whole server, so the server span is real.
        with tracer.span("server", server=server_id), \
                unit_transports(self.transport_factory) as new_transport:
            selected = self._deploy_sample(server_id)
            for kind in rconfig.fault_kinds:
                kind = fault_kind_of(kind)
                for rate in rconfig.rates:
                    for client_id, client in clients.items():
                        cell = ResilienceCellStats()
                        cells[_cell_key(server_id, client_id, kind, rate)] = (
                            cell
                        )
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
        return {
            "services": len(selected),
            "cells": {
                "|".join(key): cell.to_obj() for key, cell in cells.items()
            },
        }

    def _run_cell(self, cell, server_id, client_id, client, kind, rate,
                  selected, new_transport, reads):
        rconfig = self.rconfig
        resilient = ResilientTransport(
            inner=None,
            policy=policy_for(client_id),
            seed=derive_seed(
                rconfig.seed, server_id, client_id, kind.value, repr(float(rate))
            ),
        )
        for record in selected:
            seed = derive_seed(
                rconfig.seed, server_id, client_id, kind.value,
                repr(float(rate)), record.service.name,
            )
            if isinstance(kind, WireFaultKind):
                faulting = WireFaultingTransport(
                    new_transport(),
                    WireFaultPlan.single(
                        seed, kind, rate,
                        base_latency_ms=rconfig.base_latency_ms,
                    ),
                )
            else:
                faulting = FaultingTransport(
                    new_transport(),
                    FaultPlan.single(
                        seed, kind, rate,
                        slow_latency_ms=rconfig.slow_latency_ms,
                        base_latency_ms=rconfig.base_latency_ms,
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

_FUZZ_FORMAT = 1

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
class FuzzCellStats:
    """One triage-matrix cell: (server, client, mutation kind, intensity)."""

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

    @property
    def classified(self):
        """Mutants that landed in a classified cell (all but internal)."""
        return self.mutants - self.tool_internal

    @property
    def totality_rate(self):
        """Fraction of mutants the harness classified — the invariant."""
        return self.classified / self.mutants if self.mutants else 1.0

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

    def to_obj(self):
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
        }

    @classmethod
    def from_obj(cls, obj):
        return cls(**obj)


def _fuzz_cell_key(server_id, client_id, kind, intensity):
    return (
        server_id, client_id, MutationKind(kind).value, repr(float(intensity))
    )


@dataclass
class FuzzCampaignResult:
    """Aggregate result of one corruption-fuzz sweep."""

    server_ids: tuple = ()
    client_ids: tuple = ()
    mutation_kinds: tuple = ()  # MutationKind values (strings)
    intensities: tuple = ()  # repr'd floats, in sweep order
    seed: int = 0
    cells: dict = field(default_factory=dict)
    services_per_server: dict = field(default_factory=dict)
    #: Sorted (server, service, client, bucket, detail) poison records.
    quarantine: list = field(default_factory=list)
    #: True when ``fail_fast`` stopped the sweep early.
    aborted: bool = False

    def cell(self, server_id, client_id, kind, intensity):
        return self.cells[_fuzz_cell_key(server_id, client_id, kind, intensity)]

    @property
    def mutants_executed(self):
        return sum(cell.mutants for cell in self.cells.values())

    @property
    def unclassified_total(self):
        """Tool-internal hits across the matrix; must be zero."""
        return sum(cell.tool_internal for cell in self.cells.values())

    def by_kind(self, kind):
        """All cells of one mutation kind: (server, client, intensity)."""
        kind = MutationKind(kind).value
        return {
            (server, client, intensity): cell
            for (server, client, cell_kind, intensity), cell
            in self.cells.items()
            if cell_kind == kind
        }

    def totals(self):
        keys = (
            "mutants",
            "survived",
            "rejected",
            "parser_crash",
            "resource_blowup",
            "timeout",
            "tool_internal",
            "quarantined",
        )
        totals = dict.fromkeys(keys, 0)
        for cell in self.cells.values():
            for key in keys:
                totals[key] += getattr(cell, key)
        return totals


def fuzz_result_to_obj(result):
    """JSON-compatible dict for a :class:`FuzzCampaignResult`."""
    return {
        "format": _FUZZ_FORMAT,
        "seed": result.seed,
        "server_ids": list(result.server_ids),
        "client_ids": list(result.client_ids),
        "mutation_kinds": list(result.mutation_kinds),
        "intensities": list(result.intensities),
        "services_per_server": dict(result.services_per_server),
        "aborted": result.aborted,
        "quarantine": [list(entry) for entry in result.quarantine],
        "cells": {
            "|".join(key): cell.to_obj() for key, cell in result.cells.items()
        },
    }


def fuzz_result_from_obj(obj):
    """Rebuild a result from :func:`fuzz_result_to_obj` output."""
    if obj.get("format") != _FUZZ_FORMAT:
        raise ValueError(f"unsupported fuzz format: {obj.get('format')!r}")
    result = FuzzCampaignResult(
        server_ids=tuple(obj["server_ids"]),
        client_ids=tuple(obj["client_ids"]),
        mutation_kinds=tuple(obj["mutation_kinds"]),
        intensities=tuple(obj["intensities"]),
        seed=obj["seed"],
        services_per_server=dict(obj["services_per_server"]),
        quarantine=[tuple(entry) for entry in obj["quarantine"]],
        aborted=obj["aborted"],
    )
    for key, cell in obj["cells"].items():
        result.cells[tuple(key.split("|"))] = FuzzCellStats.from_obj(cell)
    return result


def merge_fuzz(fconfig, ordered):
    """Fold fuzz unit payloads, in canonical order, into a result.

    A unit aborted by ``fail_fast`` ends the fold: the sweep stops
    there, so later units are neither merged nor — in-process — run.
    """
    result = FuzzCampaignResult(
        server_ids=tuple(fconfig.base.server_ids),
        client_ids=tuple(fconfig.base.client_ids),
        mutation_kinds=tuple(
            MutationKind(kind).value for kind in fconfig.mutation_kinds
        ),
        intensities=tuple(repr(float(i)) for i in fconfig.intensities),
        seed=fconfig.seed,
    )
    registry = QuarantineRegistry()
    for unit, data in ordered:
        result.services_per_server[unit.server_id] = data["services"]
        for key, cell in data["cells"].items():
            result.cells[tuple(key.split("|"))] = FuzzCellStats.from_obj(cell)
        for entry in data["quarantine"]:
            registry.poison(*entry)
        if not data["finished"]:
            result.aborted = True
            break
    result.quarantine = registry.entries()
    return result


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

    def __init__(self, config=None):
        self.fconfig = config or FuzzCampaignConfig()
        super().__init__(
            self.fconfig.base,
            sample_per_server=self.fconfig.sample_per_server,
        )

    #: Folds unit payloads into a ``FuzzCampaignResult``.
    merge = staticmethod(merge_fuzz)

    def shard_job(self):
        """This sweep as a :class:`~repro.core.sharding.ShardJob`.

        One unit per server: quarantine triples are keyed by server, so
        whole-server units keep poisoning semantics self-contained.
        """
        return ShardJob(CAMPAIGN_FUZZ, self.fconfig, 1)

    def run_shard_unit(self, unit):
        """Deploy and fuzz one server.

        Returns the unit payload: the sampled service count, the
        server's cells, its quarantine entries and whether it finished
        (``False`` when ``fail_fast`` aborted it).
        """
        tracer = current_tracer()
        cells = {}
        quarantine = QuarantineRegistry()
        with tracer.span("server", server=unit.server_id) as server_span:
            selected = self._deploy_sample(unit.server_id)
            finished = self._fuzz_server(
                unit.server_id, selected, cells, quarantine
            )
            if not finished:
                server_span.annotate(aborted=True)
        return {
            "services": len(selected),
            "cells": {
                "|".join(key): cell.to_obj() for key, cell in cells.items()
            },
            "quarantine": [list(entry) for entry in quarantine.entries()],
            "finished": finished,
        }

    def _fuzz_server(self, server_id, selected, cells, quarantine):
        """Fuzz one server's sample; returns False when fail-fast aborted."""
        fconfig = self.fconfig
        clients = self._clients()
        mutator = WsdlMutator(fconfig.seed)
        limits = fconfig.guard_limits()
        tracer = current_tracer()
        for record in selected:
            service_name = record.service.name
            for kind in fconfig.mutation_kinds:
                kind = MutationKind(kind)
                for intensity in fconfig.intensities:
                    for index in range(fconfig.mutants_per_config):
                        mutant = mutator.mutate(
                            record.wsdl_text, kind, intensity,
                            server_id, service_name, index,
                        )
                        # Read once, by the first client not quarantined.
                        read = None
                        for client_id, client in clients.items():
                            key = _fuzz_cell_key(
                                server_id, client_id, kind, intensity
                            )
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
                                    fconfig.fail_fast
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
        """Guarded generate → compile pipeline over one mutant's ``read``.

        Returns ``(bucket, rejected, detail)``: the triage bucket, a
        flag marking a *classified* tool rejection (diagnostics, not an
        exception), and the failure detail for the quarantine record.
        """
        if not read.ok:
            return read.bucket, False, read.detail

        generated = GuardedStep(
            "generate", client.generate, limits=limits
        ).run(read.value)
        if not generated.ok:
            return generated.bucket, False, generated.detail
        generation = generated.value
        if not generation.succeeded:
            return TriageBucket.CLEAN, True, ""

        if client.requires_compilation:
            compiled = GuardedStep(
                "compile", client.compiler.compile, limits=limits
            ).run(generation.bundle)
            if not compiled.ok:
                return compiled.bucket, False, compiled.detail
            if not compiled.value.succeeded:
                return TriageBucket.CLEAN, True, ""
        else:
            instantiated = GuardedStep(
                "instantiate", client.instantiate, limits=limits
            ).run(generation.bundle)
            if not instantiated.ok:
                return instantiated.bucket, False, instantiated.detail
            if any(d.is_error for d in instantiated.value):
                return TriageBucket.CLEAN, True, ""
        return TriageBucket.CLEAN, False, ""
