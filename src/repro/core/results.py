"""Aggregation of campaign records into the paper's result shapes."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.cells import Counters


@dataclass
class CellStats(Counters):
    """One Table III cell: a (server, client) combination.

    Counts are *tests*, matching the paper's accounting: a test with two
    generation errors contributes one to ``gen_error_tests``; a test with
    both a warning and an error contributes to both columns (JScript's
    per-run warnings behave exactly like that).  A cell with an error
    test fails.
    """

    FAIL_FIELDS = ("gen_error_tests", "comp_error_tests")

    gen_warning_tests: int = 0
    gen_error_tests: int = 0
    comp_warning_tests: int = 0
    comp_error_tests: int = 0
    tests: int = 0

    def add(self, record):
        self.tests += 1
        if record.generation.has_warning:
            self.gen_warning_tests += 1
        if record.generation.has_error:
            self.gen_error_tests += 1
        if record.compilation.has_warning:
            self.comp_warning_tests += 1
        if record.compilation.has_error:
            self.comp_error_tests += 1

    @property
    def error_tests(self):
        return self.gen_error_tests + self.comp_error_tests

    def as_row(self):
        return (
            self.gen_warning_tests,
            self.gen_error_tests,
            self.comp_warning_tests,
            self.comp_error_tests,
        )


@dataclass
class ServerRunReport:
    """Per-server Service Description Generation outcome (Fig. 4 left)."""

    server_id: str
    server_name: str = ""
    services_total: int = 0
    deployed: int = 0
    refused: int = 0
    #: Services whose WSDL failed the WS-I check (counted as warnings).
    wsi_failing: set = field(default_factory=set)
    #: Services with only WS-I advisories (e.g. empty portTypes).
    wsi_advisory_only: set = field(default_factory=set)

    @property
    def sdg_warning_services(self):
        """Names of services warned at the description step."""
        return self.wsi_failing | self.wsi_advisory_only

    @property
    def sdg_warnings(self):
        return len(self.sdg_warning_services)

    #: Errors at this step are zero by construction: undeployable
    #: services are filtered from the corpus (§IV, first paragraph).
    sdg_errors = 0


@dataclass
class CampaignResult:
    """Everything a campaign run produced."""

    servers: dict = field(default_factory=dict)  # server_id -> ServerRunReport
    cells: dict = field(default_factory=dict)  # (server_id, client_id) -> CellStats
    records: list = field(default_factory=list)  # ClientTestRecord
    client_ids: tuple = ()
    server_ids: tuple = ()
    #: Free-form run metadata (per-server wall times, config notes).
    meta: dict = field(default_factory=dict)

    def cell(self, server_id, client_id):
        return self.cells[(server_id, client_id)]

    def add_record(self, record):
        self.records.append(record)
        key = (record.server_id, record.client_id)
        if key not in self.cells:
            self.cells[key] = CellStats()
        self.cells[key].add(record)

    # -- Fig. 4 ---------------------------------------------------------------

    def fig4_series(self, server_id):
        """The six Fig. 4 bars for one server framework."""
        report = self.servers[server_id]
        gen_warn = gen_err = comp_warn = comp_err = 0
        for client_id in self.client_ids:
            cell = self.cells.get((server_id, client_id))
            if cell is None:
                continue
            gen_warn += cell.gen_warning_tests
            gen_err += cell.gen_error_tests
            comp_warn += cell.comp_warning_tests
            comp_err += cell.comp_error_tests
        return {
            "sdg_warnings": report.sdg_warnings,
            "sdg_errors": report.sdg_errors,
            "gen_warnings": gen_warn,
            "gen_errors": gen_err,
            "comp_warnings": comp_warn,
            "comp_errors": comp_err,
        }

    # -- headline totals -------------------------------------------------------

    @property
    def tests_executed(self):
        return len(self.records)

    @property
    def services_created(self):
        return sum(report.services_total for report in self.servers.values())

    @property
    def services_deployed(self):
        return sum(report.deployed for report in self.servers.values())

    @property
    def services_refused(self):
        return sum(report.refused for report in self.servers.values())

    @property
    def wsi_warned_services(self):
        return sum(report.sdg_warnings for report in self.servers.values())

    def totals(self):
        """Aggregate counters across the whole campaign."""
        gen_warn = gen_err = comp_warn = comp_err = 0
        for cell in self.cells.values():
            gen_warn += cell.gen_warning_tests
            gen_err += cell.gen_error_tests
            comp_warn += cell.comp_warning_tests
            comp_err += cell.comp_error_tests
        return {
            "tests": self.tests_executed,
            "services_created": self.services_created,
            "services_deployed": self.services_deployed,
            "services_refused": self.services_refused,
            "sdg_warnings": self.wsi_warned_services,
            "gen_warning_tests": gen_warn,
            "gen_error_tests": gen_err,
            "comp_warning_tests": comp_warn,
            "comp_error_tests": comp_err,
            "error_situations": gen_err + comp_err,
        }


def merge_run(config, ordered):
    """Fold ``run`` unit payloads, in canonical order, into a result.

    A payload is a :class:`~repro.core.store.ServerSlice`, or its JSON
    form read back from a checkpoint.  Chunks repeat the server-level
    counters and carry only their share of the WS-I sets: the first
    chunk's report is copied, later chunks' sets are unioned into it.
    """
    from repro.core.store import ServerSlice

    result = CampaignResult(
        server_ids=tuple(config.server_ids),
        client_ids=tuple(config.client_ids),
    )
    walls = {}
    for unit, payload in ordered:
        if isinstance(payload, dict):
            payload = ServerSlice.from_obj(unit.server_id, payload)
        report = payload.report
        existing = result.servers.get(unit.server_id)
        if existing is None:
            result.servers[unit.server_id] = replace(
                report,
                wsi_failing=set(report.wsi_failing),
                wsi_advisory_only=set(report.wsi_advisory_only),
            )
        else:
            existing.wsi_failing |= report.wsi_failing
            existing.wsi_advisory_only |= report.wsi_advisory_only
        for record in payload.records:
            result.add_record(record)
        walls[unit.server_id] = round(
            walls.get(unit.server_id, 0.0) + payload.wall_seconds, 3
        )
    result.meta["wall_seconds"] = walls
    return result
