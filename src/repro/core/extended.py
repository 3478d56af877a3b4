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

from dataclasses import dataclass, field

from repro.appservers import container_for
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.cells import CellMatrix, Counters, cells_to_obj
from repro.core.outcomes import StepStatus
from repro.core.sharding import CAMPAIGN_LIFECYCLE, ShardJob
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
        """Stable identity used to guard checkpoint compatibility.

        ``cells`` names the unit payload's cell keys: a checkpoint whose
        payloads key cells by client alone is refused, not misread.
        """
        return {
            "campaign": "lifecycle",
            "servers": list(self.base.server_ids),
            "clients": list(self.base.client_ids),
            "sample": self.sample_per_server,
            "cells": "server|client",
        }


@dataclass
class LifecycleCellStats(Counters):
    """Per (server, client) cell of the extended campaign.

    ``tests`` comes last: the ``lifecycle-campaign`` totals print it
    last.
    """

    generation_errors: int = 0
    compilation_errors: int = 0
    communication_errors: int = 0
    execution_errors: int = 0
    completed: int = 0  # reached execution successfully
    tests: int = 0

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
class LifecycleCampaignResult(CellMatrix):
    """Aggregate result of one extended campaign run."""

    CELL = LifecycleCellStats
    KIND = "lifecycle"

    @classmethod
    def empty(cls, lconfig):
        return cls(
            server_ids=tuple(lconfig.base.server_ids),
            client_ids=tuple(lconfig.base.client_ids),
        )

    def cell(self, server_id, client_id):
        return self.cells[(server_id, client_id)]

    @property
    def tests_executed(self):
        return sum(cell.tests for cell in self.cells.values())

    def completion_ratio(self):
        """Fraction of tests that complete all five steps."""
        tests = self.tests_executed
        if not tests:
            return 0.0
        return self.totals()["completed"] / tests


class LifecycleCampaign(Campaign):
    """Runs the five-step lifecycle over (a sample of) the corpus.

    ``sample_per_server`` bounds how many deployed services per server go
    through the live round trip (``None`` = all of them); sampling takes
    every k-th deployed service, so the special types — which sit at the
    front of the catalogs — are always covered.  ``config`` is a
    :class:`CampaignConfig`, or a :class:`LifecycleCampaignConfig` that
    carries the sample itself (the form the engine builds from a job).

    It is also the base of the three other sampled sweeps.  No sampled
    kind's fingerprint names ``client_flag_overrides``, so a config that
    sets them is refused rather than swept as if they applied.
    """

    def __init__(self, config=None, sample_per_server=None):
        if isinstance(config, LifecycleCampaignConfig):
            config, sample_per_server = config.base, config.sample_per_server
        if sample_per_server is not None and sample_per_server < 1:
            raise ValueError(
                f"sample_per_server must be >= 1, got {sample_per_server}"
            )
        super().__init__(config)
        if self.config.client_flag_overrides:
            raise ValueError(
                "client_flag_overrides apply to the run campaign only; "
                "the sampled sweeps do not take them"
            )
        self.sample_per_server = sample_per_server

    merge = LifecycleCampaignResult.merge

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
        cells = {}
        reads = SharedReads()
        with self._prepared_clients() as clients, \
                current_tracer().span("server", server=unit.server_id):
            selected = self._deploy_sample(unit.server_id)
            for record in selected:
                transport = InMemoryHttpTransport()
                for client_id, client in clients.items():
                    cell = cells.setdefault(
                        (unit.server_id, client_id), LifecycleCellStats()
                    )
                    cell.add(run_full_lifecycle(
                        record, client, client_id=client_id,
                        transport=transport, reads=reads,
                    ))
        return {"services": len(selected), "cells": cells_to_obj(cells)}

    def _deploy_sample(self, server_id):
        """Deploy ``server_id``'s corpus under a ``deploy`` span; the
        deployed records this sweep drives (:meth:`_select`)."""
        container = container_for(server_id)
        with current_tracer().span("deploy") as deploy_span:
            container.deploy_corpus(self.corpus_for(server_id))
            deploy_span.annotate(deployed=len(container.deployed))
        return self._select(container.deployed)

    def _select(self, deployed):
        if self.sample_per_server is None or len(deployed) <= self.sample_per_server:
            return list(deployed)
        step = max(1, len(deployed) // self.sample_per_server)
        selected = deployed[::step]
        return selected[: self.sample_per_server]
