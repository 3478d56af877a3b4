"""Reference oracle: the per-kind result code of the sampled sweeps.

These are the result classes, serializers, totals, merges, canonical
cell maps and report rows of the resilience, fuzz, invoke and lifecycle
sweeps as they were before one cell-matrix type
(``repro.core.cells``) served all of them, plus the run kind's
canonicalizer.  They are frozen here as a test-only oracle: the
differential tests assert that the live code gives the same JSON
bytes, canonical matrices, totals (key order included), report rows and
per-client totals as this code for every result they are given.
Nothing under ``src/`` imports it.  Do not edit it to match the live
code; a difference is a bug in the live code.

Each cell class keeps its counters in the order they had, which is the
order ``to_obj`` wrote and ``totals`` summed.  The lifecycle merge
reads the payload form it had: cells keyed by client alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.store import QuarantineRegistry
from repro.faults.plan import FaultKind
from repro.faults.corpus import MutationKind
from repro.invoke.payloads import PayloadClass

_RESULT_FORMAT = 1
_FUZZ_FORMAT = 1
_INVOKE_FORMAT = 1


# -- cells ---------------------------------------------------------------------


@dataclass
class ResilienceCell:
    tests: int = 0
    generation_errors: int = 0
    compilation_errors: int = 0
    communication_errors: int = 0
    execution_errors: int = 0
    completed: int = 0
    recovered: int = 0
    faults_injected: int = 0
    retries: int = 0
    breaker_trips: int = 0

    @property
    def survival_rate(self):
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

    def to_obj(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_obj(cls, obj):
        return cls(**obj)


@dataclass
class FuzzCell:
    mutants: int = 0
    survived: int = 0
    rejected: int = 0
    parser_crash: int = 0
    resource_blowup: int = 0
    timeout: int = 0
    tool_internal: int = 0
    quarantined: int = 0

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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_obj(cls, obj):
        return cls(**obj)


@dataclass
class InvokeCell:
    payloads: int = 0
    lossless: int = 0
    coerced: int = 0
    corrupted: int = 0
    fault: int = 0
    client_reject: int = 0
    quarantined: int = 0
    unclassified: int = 0
    schema_violations: int = 0

    def as_row(self):
        return (
            self.payloads,
            self.lossless,
            self.coerced,
            self.corrupted,
            self.fault,
            self.client_reject,
            self.quarantined,
        )

    def to_obj(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_obj(cls, obj):
        return cls(**obj)


@dataclass
class LifecycleCell:
    tests: int = 0
    generation_errors: int = 0
    compilation_errors: int = 0
    communication_errors: int = 0
    execution_errors: int = 0
    completed: int = 0

    def as_row(self):
        return (
            self.generation_errors,
            self.compilation_errors,
            self.communication_errors,
            self.execution_errors,
            self.completed,
        )


# -- results -------------------------------------------------------------------


@dataclass
class ResilienceResult:
    server_ids: tuple = ()
    client_ids: tuple = ()
    fault_kinds: tuple = ()
    rates: tuple = ()
    seed: int = 0
    cells: dict = field(default_factory=dict)
    services_per_server: dict = field(default_factory=dict)

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


@dataclass
class FuzzResult:
    server_ids: tuple = ()
    client_ids: tuple = ()
    mutation_kinds: tuple = ()
    intensities: tuple = ()
    seed: int = 0
    cells: dict = field(default_factory=dict)
    services_per_server: dict = field(default_factory=dict)
    quarantine: list = field(default_factory=list)
    aborted: bool = False

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


@dataclass
class InvokeResult:
    server_ids: tuple = ()
    client_ids: tuple = ()
    payload_classes: tuple = ()
    seed: int = 0
    cells: dict = field(default_factory=dict)
    services_per_server: dict = field(default_factory=dict)
    gates: dict = field(default_factory=dict)
    quarantine: list = field(default_factory=list)

    def totals(self):
        keys = (
            "payloads",
            "lossless",
            "coerced",
            "corrupted",
            "fault",
            "client_reject",
            "quarantined",
            "unclassified",
            "schema_violations",
        )
        totals = dict.fromkeys(keys, 0)
        for cell in self.cells.values():
            for key in keys:
                totals[key] += getattr(cell, key)
        return totals


@dataclass
class LifecycleResult:
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
        tests = self.tests_executed
        if not tests:
            return 0.0
        return self.totals()["completed"] / tests


# -- serialization -------------------------------------------------------------


def resilience_result_to_obj(result):
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
    if obj.get("format") != _RESULT_FORMAT:
        raise ValueError(f"unsupported resilience format: {obj.get('format')!r}")
    result = ResilienceResult(
        server_ids=tuple(obj["server_ids"]),
        client_ids=tuple(obj["client_ids"]),
        fault_kinds=tuple(obj["fault_kinds"]),
        rates=tuple(obj["rates"]),
        seed=obj["seed"],
        services_per_server=dict(obj["services_per_server"]),
    )
    for key, cell in obj["cells"].items():
        result.cells[tuple(key.split("|"))] = ResilienceCell.from_obj(cell)
    return result


def fuzz_result_to_obj(result):
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
    if obj.get("format") != _FUZZ_FORMAT:
        raise ValueError(f"unsupported fuzz format: {obj.get('format')!r}")
    result = FuzzResult(
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
        result.cells[tuple(key.split("|"))] = FuzzCell.from_obj(cell)
    return result


def invoke_result_to_obj(result):
    return {
        "format": _INVOKE_FORMAT,
        "seed": result.seed,
        "server_ids": list(result.server_ids),
        "client_ids": list(result.client_ids),
        "payload_classes": list(result.payload_classes),
        "services_per_server": dict(result.services_per_server),
        "gates": {key: dict(value) for key, value in result.gates.items()},
        "quarantine": [list(entry) for entry in result.quarantine],
        "cells": {
            "|".join(key): cell.to_obj() for key, cell in result.cells.items()
        },
    }


def invoke_result_from_obj(obj):
    if obj.get("format") != _INVOKE_FORMAT:
        raise ValueError(f"unsupported invoke format: {obj.get('format')!r}")
    result = InvokeResult(
        server_ids=tuple(obj["server_ids"]),
        client_ids=tuple(obj["client_ids"]),
        payload_classes=tuple(obj["payload_classes"]),
        seed=obj["seed"],
        services_per_server=dict(obj["services_per_server"]),
        gates={key: dict(value) for key, value in obj["gates"].items()},
        quarantine=[tuple(entry) for entry in obj["quarantine"]],
    )
    for key, cell in obj["cells"].items():
        result.cells[tuple(key.split("|"))] = InvokeCell.from_obj(cell)
    return result


# -- merges --------------------------------------------------------------------


def merge_resilience(rconfig, ordered):
    result = ResilienceResult(
        server_ids=tuple(rconfig.base.server_ids),
        client_ids=tuple(rconfig.base.client_ids),
        fault_kinds=tuple(
            FaultKind(kind).value for kind in rconfig.fault_kinds
        ),
        rates=tuple(repr(float(rate)) for rate in rconfig.rates),
        seed=rconfig.seed,
    )
    for unit, data in ordered:
        result.services_per_server[unit.server_id] = data["services"]
        for key, cell in data["cells"].items():
            result.cells[tuple(key.split("|"))] = ResilienceCell.from_obj(cell)
    return result


def merge_fuzz(fconfig, ordered):
    result = FuzzResult(
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
            result.cells[tuple(key.split("|"))] = FuzzCell.from_obj(cell)
        for entry in data["quarantine"]:
            registry.poison(*entry)
        if not data["finished"]:
            result.aborted = True
            break
    result.quarantine = registry.entries()
    return result


def merge_invoke(iconfig, ordered):
    result = InvokeResult(
        server_ids=tuple(iconfig.base.server_ids),
        client_ids=tuple(iconfig.base.client_ids),
        payload_classes=tuple(
            PayloadClass(cls).value for cls in iconfig.payload_classes
        ),
        seed=iconfig.seed,
    )
    registry = QuarantineRegistry()
    for unit, data in ordered:
        result.services_per_server[unit.server_id] = data["services"]
        for key, value in data["gates"].items():
            result.gates[key] = dict(value)
        for key, cell in data["cells"].items():
            result.cells[tuple(key.split("|"))] = InvokeCell.from_obj(cell)
        for entry in data["quarantine"]:
            registry.poison(*entry)
    result.quarantine = registry.entries()
    return result


def merge_lifecycle(lconfig, ordered):
    result = LifecycleResult(
        server_ids=tuple(lconfig.base.server_ids),
        client_ids=tuple(lconfig.base.client_ids),
    )
    for unit, data in ordered:
        result.services_per_server[unit.server_id] = data["services"]
        for client_id, cell in data["cells"].items():
            key = (unit.server_id, client_id)
            result.cells[key] = LifecycleCell(**cell)
    return result


# -- canonical cell maps -------------------------------------------------------


def _cell(status, metrics):
    return {"status": status, "metrics": {k: int(v) for k, v in metrics.items()}}


def _run_cells(result):
    cells = {}
    for (server_id, client_id), stats in result.cells.items():
        failing = stats.gen_error_tests + stats.comp_error_tests
        cells[f"{server_id}|{client_id}"] = _cell(
            "fail" if failing else "pass",
            {
                "tests": stats.tests,
                "gen_warning_tests": stats.gen_warning_tests,
                "gen_error_tests": stats.gen_error_tests,
                "comp_warning_tests": stats.comp_warning_tests,
                "comp_error_tests": stats.comp_error_tests,
            },
        )
    return cells


_RESILIENCE_ERROR_FIELDS = (
    "generation_errors", "compilation_errors",
    "communication_errors", "execution_errors",
)


def _resilience_cells(result):
    cells = {}
    for key, stats in result.cells.items():
        metrics = stats.to_obj()
        failing = sum(metrics[field] for field in _RESILIENCE_ERROR_FIELDS)
        cells["|".join(key)] = _cell("fail" if failing else "pass", metrics)
    return cells


_FUZZ_FATAL_FIELDS = (
    "parser_crash", "resource_blowup", "timeout", "tool_internal",
)


def _fuzz_cells(result):
    cells = {}
    for key, stats in result.cells.items():
        metrics = stats.to_obj()
        if sum(metrics[field] for field in _FUZZ_FATAL_FIELDS):
            status = "fail"
        elif metrics["quarantined"]:
            status = "quarantined"
        else:
            status = "pass"
        cells["|".join(key)] = _cell(status, metrics)
    return cells


_INVOKE_FAIL_FIELDS = ("corrupted", "fault", "client_reject", "unclassified")


def _invoke_cells(result):
    cells = {}
    for key, stats in result.cells.items():
        metrics = stats.to_obj()
        if sum(metrics[field] for field in _INVOKE_FAIL_FIELDS):
            status = "fail"
        elif metrics["quarantined"]:
            status = "quarantined"
        else:
            status = "pass"
        cells["|".join(key)] = _cell(status, metrics)
    return cells


CANONICALIZERS = {
    "run": _run_cells,
    "resilience": _resilience_cells,
    "fuzz": _fuzz_cells,
    "invoke": _invoke_cells,
}


def canonical_totals(result):
    return {key: int(value) for key, value in result.totals().items()}


# -- report rows and per-client totals -----------------------------------------


def resilience_matrix_rows(result):
    rows = []
    for server_id in result.server_ids:
        for kind in result.fault_kinds:
            for rate in result.rates:
                for client_id in result.client_ids:
                    cell = result.cells.get(
                        (server_id, client_id, kind, rate)
                    )
                    if cell is None:
                        continue
                    rows.append(
                        (server_id, client_id, kind, rate) + cell.as_row()
                    )
    return rows


def fuzz_matrix_rows(result):
    rows = []
    for server_id in result.server_ids:
        for kind in result.mutation_kinds:
            for intensity in result.intensities:
                for client_id in result.client_ids:
                    cell = result.cells.get(
                        (server_id, client_id, kind, intensity)
                    )
                    if cell is None:
                        continue
                    rows.append(
                        (server_id, client_id, kind, intensity)
                        + cell.as_row()
                    )
    return rows


def invoke_matrix_rows(result):
    rows = []
    for server_id in result.server_ids:
        for payload_class in result.payload_classes:
            for client_id in result.client_ids:
                cell = result.cells.get(
                    (server_id, client_id, payload_class)
                )
                if cell is None:
                    continue
                rows.append(
                    (server_id, client_id, payload_class) + cell.as_row()
                )
    return rows


def lifecycle_matrix_rows(result):
    """``_report_lifecycle``'s rows (every cell present, as it assumed)."""
    return [
        (server_id, client_id) + result.cell(server_id, client_id).as_row()
        for server_id in result.server_ids
        for client_id in result.client_ids
    ]


def resilience_client_totals(result, client_id):
    """``render_client_robustness``'s per-client sums."""
    total_tests = total_completed = total_recovered = 0
    for (server, client, kind, rate), cell in result.cells.items():
        if client == client_id:
            total_tests += cell.tests
            total_completed += cell.completed
            total_recovered += cell.recovered
    return {
        "tests": total_tests,
        "completed": total_completed,
        "recovered": total_recovered,
    }


def fuzz_client_totals(result, client_id):
    """``render_triage_summary``'s per-client sums."""
    totals = dict.fromkeys(
        ("mutants", "survived", "rejected", "parser_crash",
         "resource_blowup", "timeout", "tool_internal", "quarantined"),
        0,
    )
    for (server, client, kind, intensity), cell in result.cells.items():
        if client != client_id:
            continue
        for key in totals:
            totals[key] += getattr(cell, key)
    return totals


def invoke_client_totals(result, client_id):
    """``render_fidelity_summary``'s per-client sums."""
    totals = dict.fromkeys(
        ("payloads", "lossless", "coerced", "corrupted", "fault",
         "client_reject", "quarantined", "unclassified"),
        0,
    )
    for (server, client, payload_class), cell in result.cells.items():
        if client != client_id:
            continue
        for key in totals:
            totals[key] += getattr(cell, key)
    return totals
