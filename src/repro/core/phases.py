"""The approach's two phases as explicit, inspectable objects (Fig. 2).

:class:`Campaign` remains the convenient one-call API; these classes
expose the intermediate products the paper describes so that users can
run, inspect and customize each step:

* :class:`PreparationPhase` — select frameworks, harvest the type
  populations (optionally through the simulated documentation sites),
  generate the service corpus per server;
* :class:`TestingPhase` — deploy, WS-I-check, generate, compile,
  classify.

Example::

    preparation = PreparationPhase(CampaignConfig()).run()
    print(preparation.summary())
    result = TestingPhase(preparation).run()
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.campaign import _SERVER_CATALOG, Campaign, CampaignConfig
from repro.docweb import harvest_type_names
from repro.frameworks.registry import all_client_frameworks, all_server_frameworks


@dataclass
class PreparationResult:
    """Everything the Preparation Phase produced."""

    config: CampaignConfig
    servers: dict = field(default_factory=dict)  # server_id -> ServerFramework
    clients: dict = field(default_factory=dict)  # client_id -> ClientFramework
    catalogs: dict = field(default_factory=dict)  # language -> Catalog
    corpora: dict = field(default_factory=dict)  # server_id -> [ServiceDefinition]
    harvested_names: dict = field(default_factory=dict)  # language -> [str]

    @property
    def services_created(self):
        return sum(len(corpus) for corpus in self.corpora.values())

    def summary(self):
        lines = [
            f"selected {len(self.servers)} server and {len(self.clients)} "
            "client framework subsystems",
        ]
        for language, catalog in self.catalogs.items():
            lines.append(f"  {catalog.summary()}")
            if language in self.harvested_names:
                lines.append(
                    f"    harvested {len(self.harvested_names[language])} names "
                    "from the documentation site"
                )
        lines.append(f"generated {self.services_created} test services")
        return "\n".join(lines)


class PreparationPhase:
    """Steps a–c of the Preparation Phase (§III.A)."""

    def __init__(self, config=None, crawl_documentation=False):
        self.config = config or CampaignConfig()
        self.crawl_documentation = crawl_documentation

    def run(self, progress=None):
        config = self.config
        campaign = Campaign(config)
        result = PreparationResult(config=config)

        result.servers = {
            server_id: framework
            for server_id, framework in all_server_frameworks().items()
            if server_id in config.server_ids
        }
        result.clients = {
            client_id: client
            for client_id, client in all_client_frameworks().items()
            if client_id in config.client_ids
        }

        for server_id in config.server_ids:
            language = _SERVER_CATALOG[server_id]
            catalog = campaign.catalog(language)
            result.catalogs[language] = catalog
            if self.crawl_documentation and language not in result.harvested_names:
                if progress:
                    progress(f"crawling the {language} documentation site")
                result.harvested_names[language] = harvest_type_names(catalog)
            result.corpora[server_id] = campaign.corpus_for(server_id)
            if progress:
                progress(
                    f"[{server_id}] corpus of {len(result.corpora[server_id])} services"
                )
        return result


class TestingPhase:
    """Steps a–d of the Testing Phase (§III.B) over a prepared corpus."""

    __test__ = False  # not a pytest test class, despite the paper's name

    def __init__(self, preparation):
        self.preparation = preparation

    def run(self, progress=None):
        """Run the campaign's Testing Phase on the prepared catalogs."""
        campaign = Campaign(self.preparation.config)
        campaign._catalogs.update(self.preparation.catalogs)
        result = campaign.run(progress=progress)
        if progress:
            for server_id, report in result.servers.items():
                progress(
                    f"[{server_id}] {report.deployed} deployed, "
                    f"{report.refused} refused"
                )
        return result
