"""Extended campaign: the full five-step lifecycle at scale (§V).

The paper stops after the Client Artifact Compilation step and announces
the Communication and Execution steps as future work.  This module
implements that extension: every (server, service, client) combination
that survives the first three steps is driven through a live echo round
trip over the sweep's transport, and the outcome of all five steps is
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
from repro.core.sharding import ShardJob
from repro.obs.trace import current_tracer
from repro.runtime import close_transport, run_full_lifecycle
from repro.runtime.lifecycle import SharedReads, count_steps
from repro.runtime.wire import transport_factory_for, unit_transports


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

    add = count_steps

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
    front of the catalogs — are always covered.

    It is also the base of the three other sampled sweeps.  A kind
    declares its ``CONFIG`` (constructed with no arguments, it is the
    default sweep), its ``RESULT`` (cell, axes and engine kind) and one
    :meth:`_sweep_server` loop; construction, the shard job, the merge
    and the unit around the loop are shared.  No sampled kind's
    fingerprint names ``client_flag_overrides``, so a config that sets
    them is refused rather than swept as if they applied.
    """

    CONFIG = LifecycleCampaignConfig
    RESULT = LifecycleCampaignResult

    def __init__(self, sweep=None):
        sweep = sweep or self.CONFIG()
        sample = sweep.sample_per_server
        if sample is not None and sample < 1:
            raise ValueError(f"sample_per_server must be >= 1, got {sample}")
        super().__init__(sweep.base)
        if self.config.client_flag_overrides:
            raise ValueError(
                "client_flag_overrides apply to the run campaign only; "
                "the sampled sweeps do not take them"
            )
        self.sweep = sweep
        #: Builds the unit's transports (through :func:`unit_transports`,
        #: so a wire unit shares one listener and one connection); the
        #: regress drill-down swaps in a recorder-wrapping factory to
        #: capture a cell's exchanges.
        self.transport_factory = transport_factory_for(sweep.base.transport)

    @classmethod
    def merge(cls, config, ordered):
        return cls.RESULT.merge(config, ordered)

    def shard_job(self):
        """This sweep as a :class:`~repro.core.sharding.ShardJob`.

        One unit per server: circuit-breaker state and quarantine
        triples accumulate across a server's services, so a finer split
        would change outcomes.
        """
        return ShardJob(self.RESULT.KIND, self.sweep)

    def run_shard_unit(self, unit):
        """Deploy one server and sweep its sample (:meth:`_sweep_server`).

        Returns the unit payload: the sampled service count, then what
        the kind's loop returns (its cells and, by kind, gate counters,
        quarantine entries and whether it finished).
        """
        server_id = unit.server_id
        # One unit covers the whole server, so the server span is real.
        with self._prepared_clients() as clients, \
                current_tracer().span("server", server=server_id) as span, \
                unit_transports(self.transport_factory) as new_transport:
            selected = self._deploy_sample(server_id)
            return {
                "services": len(selected),
                **self._sweep_server(
                    server_id, selected, clients, new_transport, span
                ),
            }

    def _sweep_server(self, server_id, selected, clients, new_transport,
                      server_span):
        """Drive each sampled record through all five steps per client.

        A record's clients share one transport from the unit's
        ``new_transport``, closed once they are done.
        """
        cells = {}
        reads = SharedReads()
        for record in selected:
            transport = new_transport()
            try:
                for client_id, client in clients.items():
                    cell = cells.setdefault(
                        (server_id, client_id), LifecycleCellStats()
                    )
                    cell.add(run_full_lifecycle(
                        record, client, client_id=client_id,
                        transport=transport, reads=reads,
                    ))
            finally:
                close_transport(transport)
        return {"cells": cells_to_obj(cells)}

    def _deploy_sample(self, server_id):
        """Deploy ``server_id``'s corpus under a ``deploy`` span; the
        deployed records this sweep drives (:meth:`_select`)."""
        container = container_for(server_id)
        with current_tracer().span("deploy") as deploy_span:
            container.deploy_corpus(self.corpus_for(server_id))
            deploy_span.annotate(deployed=len(container.deployed))
        return self._select(container.deployed)

    def _select(self, deployed):
        sample = self.sweep.sample_per_server
        if sample is None or len(deployed) <= sample:
            return list(deployed)
        step = max(1, len(deployed) // sample)
        return deployed[::step][:sample]
