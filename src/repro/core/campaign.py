"""The two-phase assessment campaign (Fig. 2).

Preparation Phase: select server and client frameworks, build the type
catalogs (optionally by crawling the simulated documentation sites) and
generate the service corpus.

Testing Phase: deploy every service (Service Description Generation),
check each published WSDL against WS-I BP 1.1, then run every client
subsystem over every WSDL (Client Artifact Generation + Compilation),
classifying each step.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from repro.appservers import container_for
from repro.core.pipeline import run_client_test
from repro.core.results import ServerRunReport, merge_run
from repro.core.sharding import (
    CAMPAIGN_RUN,
    DEFAULT_CHUNKS_PER_SERVER,
    SERIAL,
    ShardJob,
    chunk_bounds,
    execute_sharded,
)
from repro.core.store import ServerSlice
from repro.obs.trace import current_tracer
from repro.frameworks.registry import (
    CLIENT_IDS,
    SERVER_IDS,
    all_client_frameworks,
    server_framework,
)
from repro.services import generate_corpus
from repro.typesystem import (
    DEFAULT_DOTNET_QUOTAS,
    DEFAULT_JAVA_QUOTAS,
    build_dotnet_catalog,
    build_java_catalog,
)
from repro.wsdl import read_wsdl_text
from repro.wsi import check_document


@dataclass
class CampaignConfig:
    """Parameters of one campaign run."""

    server_ids: tuple = SERVER_IDS
    client_ids: tuple = CLIENT_IDS
    java_quotas: object = DEFAULT_JAVA_QUOTAS
    dotnet_quotas: object = DEFAULT_DOTNET_QUOTAS
    #: What-if overrides: ``{client_id: {flag: value}}`` applied to the
    #: instantiated client frameworks.  Used by the fix-impact ablation
    #: to simulate a tool with one of its documented bugs repaired
    #: (e.g. ``{"axis1": {"throwable_wrapper_bug": False}}``).
    client_flag_overrides: dict = field(default_factory=dict)
    #: Which transport carries step-4/5 exchanges: ``"memory"`` (the
    #: in-memory dict router) or ``"wire"`` (real loopback sockets via
    #: :class:`repro.runtime.wire.WireTransport`).  Deliberately absent
    #: from every fingerprint — the transports are byte-identical by
    #: contract, so a wire sweep gates against a memory-accepted
    #: baseline and any divergence is a reportable drift, not a
    #: fingerprint mismatch.
    transport: str = "memory"

    def fingerprint(self):
        """Stable identity guarding checkpoints, baselines and traces."""
        return {
            "servers": list(self.server_ids),
            "clients": list(self.client_ids),
            # A removed option at its old value: saved fingerprints still match.
            "parse_per_client": False,
            "overrides": {
                client_id: dict(flags)
                for client_id, flags in sorted(
                    self.client_flag_overrides.items()
                )
            },
        }


class Campaign:
    """Runs the assessment approach end to end."""

    def __init__(self, config=None):
        self.config = config or CampaignConfig()
        self._catalogs = {}
        #: ``(server_id, services_total, container)`` of the server whose
        #: chunks ``run_shard_unit`` is executing: a run deploys each
        #: corpus once and keeps one server's deployment alive at a time.
        self._deployment = None

    # -- Preparation Phase ---------------------------------------------------

    def catalog(self, language):
        """Build (and cache) the catalog for ``language``."""
        if language not in self._catalogs:
            if language == "java":
                self._catalogs[language] = build_java_catalog(self.config.java_quotas)
            elif language == "dotnet":
                self._catalogs[language] = build_dotnet_catalog(
                    self.config.dotnet_quotas
                )
            else:
                raise ValueError(f"unknown catalog language {language!r}")
        return self._catalogs[language]

    def corpus_for(self, server_id):
        """The service corpus deployed on ``server_id``."""
        return generate_corpus(self.catalog(server_framework(server_id).catalog))

    # -- Testing Phase ---------------------------------------------------------

    #: Folds unit payloads into a ``CampaignResult``.
    merge = staticmethod(merge_run)

    def run(self, progress=None, checkpoint=None):
        """Execute the campaign in-process; returns a ``CampaignResult``.

        One entry into :func:`~repro.core.sharding.execute_sharded`:
        ``progress`` is an optional callable ``(message: str) -> None``,
        and with a :class:`~repro.core.store.CampaignCheckpoint` each
        finished unit is persisted atomically and a re-run skips it,
        reproducing the exact result an uninterrupted run — under any
        worker count — would have produced.
        """
        return execute_sharded(
            self.shard_job(), SERIAL, checkpoint=checkpoint,
            progress=progress, campaign=self,
        )[0]

    @contextlib.contextmanager
    def _prepared_clients(self):
        """The selected client frameworks with what-if overrides applied.

        Overrides are remembered and restored on exit: the instances
        come from a registry and must not leak mutated flags into
        back-to-back ablation runs.
        """
        config = self.config
        clients = {
            client_id: client
            for client_id, client in all_client_frameworks().items()
            if client_id in config.client_ids
        }
        original_flags = []
        for client_id, overrides in config.client_flag_overrides.items():
            client = clients.get(client_id)
            if client is None:
                continue
            for flag, value in overrides.items():
                if not hasattr(client, flag):
                    raise AttributeError(
                        f"client {client_id!r} has no behaviour flag {flag!r}"
                    )
                original_flags.append((client, flag, getattr(client, flag)))
                setattr(client, flag, value)
        try:
            yield clients
        finally:
            for client, flag, value in reversed(original_flags):
                setattr(client, flag, value)

    # -- sharded execution -----------------------------------------------------

    def shard_job(self, chunks_per_server=None):
        """This campaign as a :class:`~repro.core.sharding.ShardJob`."""
        if chunks_per_server is None:
            chunks_per_server = DEFAULT_CHUNKS_PER_SERVER
        return ShardJob(CAMPAIGN_RUN, self.config, chunks_per_server)

    def run_shard_unit(self, unit):
        """Execute one (server, service-chunk) unit; a ``ServerSlice``.

        The chunk bounds are computed from the deployed-record count
        with :func:`repro.core.sharding.chunk_bounds`, so the split
        depends only on the corpus and the chunk count — never on the
        worker count — and concatenating all chunk payloads in
        canonical order reproduces the whole record stream exactly.
        """
        # Imported here, as ``ClientFramework.generate`` imports the
        # engine, so that importing the CLI does not load it.
        from repro.frameworks.client.engine import schema_facts

        tracer = current_tracer()
        started = time.perf_counter()
        # The unit executes a *slice* of the server, so its children
        # position under the server rollup span without emitting it —
        # the trace merge owns that event.  The deploy span is emitted
        # by the chunk-0 unit only, so its place in the canonical order
        # never depends on which worker deployed first.
        with tracer.virtual_span("server", server=unit.server_id):
            cached = (
                self._deployment is not None
                and self._deployment[0] == unit.server_id
            )
            if unit.chunk_index == 0:
                with tracer.span("deploy") as deploy_span:
                    services_total, container = self._deploy(unit.server_id)
                    deploy_span.annotate(cached=cached)
            else:
                services_total, container = self._deploy(unit.server_id)
            deployed = container.deployed
            start, stop = chunk_bounds(len(deployed), unit.chunk_count)[
                unit.chunk_index
            ]

            # Server-level counters are repeated in every chunk; the WS-I
            # sets carry only this chunk's share and are unioned at merge.
            report = ServerRunReport(
                server_id=unit.server_id,
                server_name=container.framework.name,
                services_total=services_total,
                deployed=len(container.deployed),
                refused=len(container.refused),
            )
            records = []
            with self._prepared_clients() as clients:
                for record in deployed[start:stop]:
                    with tracer.span("service", service=record.service.name):
                        with tracer.span("wsdl-read"):
                            document = read_wsdl_text(record.wsdl_text)
                        with tracer.span("wsi-check") as wsi_span:
                            wsi = check_document(document)
                            wsi_span.annotate(
                                failures=len(wsi.failures),
                                advisories=len(wsi.advisories),
                            )
                        if wsi.failures:
                            report.wsi_failing.add(document.name)
                        elif wsi.advisories:
                            report.wsi_advisory_only.add(document.name)
                        # One read and one schema scan serve every client.
                        facts = schema_facts(document)
                        for client_id, client in clients.items():
                            with tracer.span("test", client=client_id):
                                records.append(
                                    run_client_test(
                                        unit.server_id, client_id, client,
                                        document, facts,
                                    )
                                )
        if unit.chunk_index == unit.chunk_count - 1:
            self._deployment = None  # the server's last chunk is done
        wall_seconds = round(time.perf_counter() - started, 3)
        return ServerSlice(report, records, wall_seconds=wall_seconds)

    def _deploy(self, server_id):
        """``(services_total, container)`` for ``server_id``, deployed once.

        Replaces, never accumulates: the previous server's container is
        released before the next corpus is deployed.
        """
        if self._deployment is None or self._deployment[0] != server_id:
            self._deployment = None
            corpus = self.corpus_for(server_id)
            container = container_for(server_id)
            container.deploy_corpus(corpus)
            # ``run`` reads every deployed WSDL, so it serializes them
            # all here in one batch instead of on each service's first
            # read: interleaving serialization with the service loop
            # cost the paper-scale sweep 4% of its cells/s.
            container.publish()
            self._deployment = (server_id, len(corpus), container)
        return self._deployment[1:]


def run_default_campaign(progress=None):
    """Run the full paper-scale campaign (79,629 tests)."""
    return Campaign(CampaignConfig()).run(progress=progress)
