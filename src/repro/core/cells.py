"""One result shape for the sweeps: counter cells in a cell matrix.

Every sweep's result is the paper's (server, client) matrix (Table III),
and the sampled sweeps add coordinates of their own to each cell: fault
kind × rate (resilience), mutation kind × intensity (fuzz), payload
class (invoke), or none (lifecycle).  This module is the one
implementation of what they share:

* :class:`Counters` — a cell: integer counters in field order, their
  JSON form, and the three-valued status the regression gate compares;
* :class:`CellMatrix` — a sampled sweep's result: cells keyed
  ``(server, client, *coordinates)``, totals, report rows in sweep
  order, the JSON form, and the merge that folds unit payloads into it.

A kind keeps only what differs: its counters (``add``, ``as_row`` and
``FAIL_FIELDS``), its axes and its extra fields.  In JSON and in unit
payloads a cell key is its coordinates joined by ``"|"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import product

from repro.core.canon import STATUS_FAIL, STATUS_PASS, STATUS_QUARANTINED


@dataclass
class Counters:
    """Base of a cell: integer counters, serialized in field order.

    A cell fails when a counter named in ``FAIL_FIELDS`` is non-zero;
    otherwise it is quarantined when it has a non-zero ``quarantined``
    counter, and passes when it has none.
    """

    FAIL_FIELDS = ()

    def to_obj(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_obj(cls, obj):
        return cls(**obj)

    def status(self):
        if any(getattr(self, name) for name in self.FAIL_FIELDS):
            return STATUS_FAIL
        if getattr(self, "quarantined", 0):
            return STATUS_QUARANTINED
        return STATUS_PASS


def cells_to_obj(cells):
    """``{"server|client|...": counters}`` for a ``{key tuple: cell}`` map."""
    return {"|".join(key): cell.to_obj() for key, cell in cells.items()}


@dataclass
class CellMatrix:
    """Base of a sampled sweep's result.

    ``cells`` maps ``(server, client, *coordinates)`` to a ``CELL``;
    ``AXES`` maps the attributes holding each coordinate's values, in
    sweep order, to the type a value is read as.  The config of the
    sweep names its axes the same way.  Fields a kind adds beyond its
    axes are its extras (fuzz: ``aborted``, ``quarantine``; invoke:
    ``gates``, ``quarantine``), serialized after
    ``services_per_server``.
    """

    server_ids: tuple = ()
    client_ids: tuple = ()
    seed: int = 0
    cells: dict = field(default_factory=dict)
    services_per_server: dict = field(default_factory=dict)

    #: The cell class.
    CELL = Counters
    #: ``{attribute: type}`` of the coordinates, in sweep order.
    AXES = {}
    #: The engine kind, also named in ``unsupported <KIND> format`` errors.
    KIND = ""
    #: The version ``to_obj`` writes and ``from_obj`` accepts.
    FORMAT = 1

    @classmethod
    def coordinates(cls, *values):
        """The JSON form of one value per axis: an enum's ``value``, a
        float's ``repr``."""
        return tuple(map(_coordinate, cls.AXES.values(), values))

    @classmethod
    def empty(cls, config):
        """The result of a sweep of ``config`` before any unit is merged."""
        return cls(
            server_ids=tuple(config.base.server_ids),
            client_ids=tuple(config.base.client_ids),
            seed=getattr(config, "seed", 0),
            **{
                axis: tuple(_coordinate(parse, value)
                            for value in getattr(config, axis))
                for axis, parse in cls.AXES.items()
            },
        )

    @classmethod
    def _extras(cls):
        base = {f.name for f in fields(CellMatrix)}
        return [
            f.name for f in fields(cls)
            if f.name not in base and f.name not in cls.AXES
        ]

    def totals(self, client_id=None):
        """Every counter summed over the cells (of one client, if given)."""
        names = [f.name for f in fields(self.CELL)]
        totals = dict.fromkeys(names, 0)
        for key, cell in self.cells.items():
            if client_id is None or key[1] == client_id:
                for name in names:
                    totals[name] += getattr(cell, name)
        return totals

    def rows(self):
        """``(server, client, *coordinates) + cell.as_row()`` per cell, in
        sweep order: server, then the coordinates, then client."""
        rows = []
        for server_id in self.server_ids:
            for coords in product(*(getattr(self, axis) for axis in self.AXES)):
                for client_id in self.client_ids:
                    key = (server_id, client_id, *coords)
                    cell = self.cells.get(key)
                    if cell is not None:
                        rows.append(key + cell.as_row())
        return rows

    def to_obj(self):
        """JSON-compatible dict; key order is part of the written bytes."""
        obj = {
            "format": self.FORMAT,
            "seed": self.seed,
            "server_ids": list(self.server_ids),
            "client_ids": list(self.client_ids),
        }
        for axis in self.AXES:
            obj[axis] = list(getattr(self, axis))
        obj["services_per_server"] = dict(self.services_per_server)
        for name in self._extras():
            obj[name] = _extra_to_obj(getattr(self, name))
        obj["cells"] = cells_to_obj(self.cells)
        return obj

    @classmethod
    def from_obj(cls, obj):
        """Rebuild a result from :meth:`to_obj` output."""
        if obj.get("format") != cls.FORMAT:
            raise ValueError(
                f"unsupported {cls.KIND} format: {obj.get('format')!r}"
            )
        result = cls(
            server_ids=tuple(obj["server_ids"]),
            client_ids=tuple(obj["client_ids"]),
            seed=obj["seed"],
            services_per_server=dict(obj["services_per_server"]),
            **{axis: tuple(obj[axis]) for axis in cls.AXES},
            **{name: _extra_from_obj(obj[name]) for name in cls._extras()},
        )
        result._add_cells(obj["cells"])
        return result

    def _add_cells(self, cells):
        for key, counters in cells.items():
            self.cells[tuple(key.split("|"))] = self.CELL.from_obj(counters)

    @classmethod
    def merge(cls, config, ordered):
        """Fold unit payloads, in canonical order, into a result.

        A payload holds the server's sampled service count and cells,
        and, by kind, its quarantine entries, its gate counters and
        whether it finished.  An unfinished unit (a fail-fast abort)
        ends the fold: the sweep stops there, so later units are
        neither merged nor, in-process, run.
        """
        # store imports core.results, which imports this module.
        from repro.core.store import QuarantineRegistry

        result = cls.empty(config)
        registry = QuarantineRegistry()
        for unit, data in ordered:
            result.services_per_server[unit.server_id] = data["services"]
            for key, value in data.get("gates", {}).items():
                result.gates[key] = dict(value)
            result._add_cells(data["cells"])
            for entry in data.get("quarantine", ()):
                registry.poison(*entry)
            if not data.get("finished", True):
                result.aborted = True
                break
        if "quarantine" in cls._extras():
            result.quarantine = registry.entries()
        return result


def _coordinate(parse, value):
    value = parse(value)
    return value.value if isinstance(value, Enum) else repr(value)


def _extra_to_obj(value):
    if isinstance(value, list):  # quarantine entries
        return [list(entry) for entry in value]
    if isinstance(value, dict):  # gate counters per "server|client"
        return {key: dict(inner) for key, inner in value.items()}
    return value


def _extra_from_obj(value):
    if isinstance(value, list):
        return [tuple(entry) for entry in value]
    if isinstance(value, dict):
        return {key: dict(inner) for key, inner in value.items()}
    return value
