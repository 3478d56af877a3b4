"""Extended campaign: the full five-step lifecycle at scale (§V).

The paper stops after the Client Artifact Compilation step and announces
the Communication and Execution steps as future work.  This module
implements that extension: every (server, service, client) combination
that survives the first three steps is driven through a live echo round
trip over the in-memory transport, and the outcome of all five steps is
classified with the same gating semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.appservers import container_for
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.outcomes import StepStatus
from repro.frameworks.registry import all_client_frameworks
from repro.runtime import InMemoryHttpTransport, run_full_lifecycle


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


class LifecycleCampaign:
    """Runs the five-step lifecycle over (a sample of) the corpus.

    ``sample_per_server`` bounds how many deployed services per server go
    through the live round trip (``None`` = all of them); sampling takes
    every k-th deployed service, so the special types — which sit at the
    front of the catalogs — are always covered.
    """

    def __init__(self, config=None, sample_per_server=None):
        self.config = config or CampaignConfig()
        self.sample_per_server = sample_per_server
        #: Builds (and caches) the catalogs and corpora every server's
        #: deployment draws from.
        self.base_campaign = Campaign(self.config)

    def _clients(self):
        """The selected client frameworks, in registry order."""
        return {
            client_id: client
            for client_id, client in all_client_frameworks().items()
            if client_id in self.config.client_ids
        }

    def run(self, progress=None):
        config = self.config
        clients = self._clients()
        result = LifecycleCampaignResult(
            server_ids=tuple(config.server_ids),
            client_ids=tuple(config.client_ids),
        )

        for server_id in config.server_ids:
            container = container_for(server_id)
            container.deploy_corpus(self.base_campaign.corpus_for(server_id))
            deployed = container.deployed
            selected = self._select(deployed)
            result.services_per_server[server_id] = len(selected)
            if progress:
                progress(
                    f"[{server_id}] lifecycle over {len(selected)} of "
                    f"{len(deployed)} deployed services"
                )

            for record in selected:
                transport = InMemoryHttpTransport()
                for client_id, client in clients.items():
                    outcome = run_full_lifecycle(
                        record, client, client_id=client_id, transport=transport
                    )
                    key = (server_id, client_id)
                    if key not in result.cells:
                        result.cells[key] = LifecycleCellStats()
                    result.cells[key].add(outcome)
        return result

    def _select(self, deployed):
        if self.sample_per_server is None or len(deployed) <= self.sample_per_server:
            return list(deployed)
        step = max(1, len(deployed) // self.sample_per_server)
        selected = deployed[::step]
        return selected[: self.sample_per_server]
