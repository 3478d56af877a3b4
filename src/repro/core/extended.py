"""Extended campaign: the full five-step lifecycle at scale (§V).

The paper stops after the Client Artifact Compilation step and announces
the Communication and Execution steps as future work.  This module
implements that extension: every (server, service, client) combination
that survives the first three steps is driven through a live echo round
trip over the in-memory transport, and the outcome of all five steps is
classified with the same gating semantics.  It runs on the sweep engine
(:mod:`repro.core.sharding`) as the ``lifecycle`` kind, one unit per
server, and :class:`LifecycleCampaign` is the base of the three other
sampled sweeps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.appservers import container_for
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.outcomes import StepStatus
from repro.core.sharding import (
    CAMPAIGN_LIFECYCLE,
    SERIAL,
    ShardJob,
    execute_sharded,
)
from repro.frameworks.registry import all_client_frameworks
from repro.obs.trace import current_tracer
from repro.runtime import InMemoryHttpTransport, run_full_lifecycle
from repro.runtime.lifecycle import SharedReads


@dataclass
class LifecycleCampaignConfig:
    """Parameters of one lifecycle sweep."""

    base: CampaignConfig = field(default_factory=CampaignConfig)
    #: Deployed services per server driven through all five steps
    #: (``None`` = all of them).
    sample_per_server: int = None

    def fingerprint(self):
        """Stable identity used to guard checkpoint compatibility."""
        return {
            "campaign": "lifecycle",
            "servers": list(self.base.server_ids),
            "clients": list(self.base.client_ids),
            "sample": self.sample_per_server,
        }


@dataclass
class LifecycleCellStats:
    """Per (server, client) cell of the extended campaign."""

    tests: int = 0
    generation_errors: int = 0
    compilation_errors: int = 0
    communication_errors: int = 0
    execution_errors: int = 0
    completed: int = 0  # reached execution successfully

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

    @property
    def error_tests(self):
        return self.tests - self.completed

    def as_row(self):
        return (
            self.generation_errors,
            self.compilation_errors,
            self.communication_errors,
            self.execution_errors,
            self.completed,
        )


@dataclass
class LifecycleCampaignResult:
    """Aggregate result of one extended campaign run."""

    cells: dict = field(default_factory=dict)
    server_ids: tuple = ()
    client_ids: tuple = ()
    services_per_server: dict = field(default_factory=dict)

    def cell(self, server_id, client_id):
        return self.cells[(server_id, client_id)]

    @property
    def tests_executed(self):
        return sum(cell.tests for cell in self.cells.values())

    def totals(self):
        keys = (
            "generation_errors",
            "compilation_errors",
            "communication_errors",
            "execution_errors",
            "completed",
        )
        totals = dict.fromkeys(keys, 0)
        for cell in self.cells.values():
            for key in keys:
                totals[key] += getattr(cell, key)
        totals["tests"] = self.tests_executed
        return totals

    def completion_ratio(self):
        """Fraction of tests that complete all five steps."""
        tests = self.tests_executed
        if not tests:
            return 0.0
        return self.totals()["completed"] / tests


def merge_lifecycle(lconfig, ordered):
    """Fold lifecycle unit payloads, in canonical order, into a result."""
    result = LifecycleCampaignResult(
        server_ids=tuple(lconfig.base.server_ids),
        client_ids=tuple(lconfig.base.client_ids),
    )
    for unit, data in ordered:
        result.services_per_server[unit.server_id] = data["services"]
        for client_id, cell in data["cells"].items():
            key = (unit.server_id, client_id)
            result.cells[key] = LifecycleCellStats(**cell)
    return result


class LifecycleCampaign:
    """Runs the five-step lifecycle over (a sample of) the corpus.

    ``sample_per_server`` bounds how many deployed services per server go
    through the live round trip (``None`` = all of them); sampling takes
    every k-th deployed service, so the special types — which sit at the
    front of the catalogs — are always covered.  ``config`` is a
    :class:`CampaignConfig`, or a :class:`LifecycleCampaignConfig` that
    carries the sample itself (the form the engine builds from a job).
    """

    def __init__(self, config=None, sample_per_server=None):
        if isinstance(config, LifecycleCampaignConfig):
            config, sample_per_server = config.base, config.sample_per_server
        if sample_per_server is not None and sample_per_server < 1:
            raise ValueError(
                f"sample_per_server must be >= 1, got {sample_per_server}"
            )
        self.config = config or CampaignConfig()
        self.sample_per_server = sample_per_server
        #: Builds (and caches) the catalogs and corpora every server's
        #: deployment draws from.
        self.base_campaign = Campaign(self.config)

    #: Folds unit payloads into a ``LifecycleCampaignResult``.
    merge = staticmethod(merge_lifecycle)

    def _clients(self):
        """The selected client frameworks, in registry order."""
        return {
            client_id: client
            for client_id, client in all_client_frameworks().items()
            if client_id in self.config.client_ids
        }

    def run(self, progress=None, checkpoint=None):
        """Execute the sweep in-process; see :meth:`Campaign.run`."""
        return execute_sharded(
            self.shard_job(), SERIAL, checkpoint=checkpoint,
            progress=progress, campaign=self,
        )[0]

    def shard_job(self):
        """This sweep as a :class:`~repro.core.sharding.ShardJob`: one
        unit per server."""
        return ShardJob(
            CAMPAIGN_LIFECYCLE,
            LifecycleCampaignConfig(self.config, self.sample_per_server),
        )

    def run_shard_unit(self, unit):
        """Deploy one server and drive its sample through all five steps.

        Returns the unit payload: the sampled service count and the
        server's per-client cells.
        """
        clients = self._clients()
        cells = {}
        reads = SharedReads()
        with current_tracer().span("server", server=unit.server_id):
            selected = self._deploy_sample(unit.server_id)
            for record in selected:
                transport = InMemoryHttpTransport()
                for client_id, client in clients.items():
                    cell = cells.setdefault(client_id, LifecycleCellStats())
                    cell.add(run_full_lifecycle(
                        record, client, client_id=client_id,
                        transport=transport, reads=reads,
                    ))
        return {
            "services": len(selected),
            "cells": {
                client_id: asdict(cell) for client_id, cell in cells.items()
            },
        }

    def _deploy_sample(self, server_id):
        """Deploy ``server_id``'s corpus under a ``deploy`` span; the
        deployed records this sweep drives (:meth:`_select`)."""
        container = container_for(server_id)
        with current_tracer().span("deploy") as deploy_span:
            container.deploy_corpus(self.base_campaign.corpus_for(server_id))
            deploy_span.annotate(deployed=len(container.deployed))
        return self._select(container.deployed)

    def _select(self, deployed):
        if self.sample_per_server is None or len(deployed) <= self.sample_per_server:
            return list(deployed)
        step = max(1, len(deployed) // self.sample_per_server)
        selected = deployed[::step]
        return selected[: self.sample_per_server]
