"""Differential oracle: one cell-matrix type against the per-kind copies.

``tests/results_reference.py`` keeps the resilience, fuzz, invoke and
lifecycle result code as it was when each kind had its own: hand-written
serializers, totals with hand-kept key tuples, merges, canonicalizers
and report rows.  Every sweep here is folded from the same unit payloads
by the live merge and by the reference merge, and the two results must
agree on everything a user or a baseline sees: the JSON bytes (key
order included), the form read back, the canonical matrix and totals,
the totals' key order, the report rows and the per-client totals.  The
sweeps are random (empty ones, missing units and cells, poison entries,
fail-fast aborts, gate counters) and the CI smokes; the run kind's
canonical matrix is checked over random cells and the quick campaign.
"""

import copy
import dataclasses
import json
from itertools import product
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import tests.results_reference as ref
from repro.core import CampaignConfig
from repro.core.canon import canonical_matrix, canonical_totals
from repro.core.extended import (
    LifecycleCampaign,
    LifecycleCampaignConfig,
    LifecycleCampaignResult,
)
from repro.core.results import CampaignResult, CellStats
from repro.core.sharding import ShardUnit
from repro.faults import (
    FaultKind,
    FuzzCampaign,
    FuzzCampaignConfig,
    FuzzCampaignResult,
    MutationKind,
    ResilienceCampaign,
    ResilienceCampaignConfig,
    ResilienceCampaignResult,
    fuzz_result_from_obj,
    fuzz_result_to_obj,
    resilience_result_from_obj,
    resilience_result_to_obj,
)
from repro.invoke import (
    InvocationCampaign,
    InvocationCampaignConfig,
    InvocationCampaignResult,
    PayloadClass,
    invoke_result_from_obj,
    invoke_result_to_obj,
)
from repro.reporting import fuzz_to_json, invoke_to_json, resilience_to_json
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

SERVERS = ("metro", "jbossws", "wcf")
CLIENTS = ("suds", "axis1", "metro", "gsoap")
RATES = (0.15, 0.4, 1.0)


class Kind(NamedTuple):
    """One sampled kind: its live code, its reference code and its axes."""

    live: type
    to_obj: Callable
    from_obj: Callable
    to_json: Callable
    ref_merge: Callable
    ref_to_obj: Callable
    ref_from_obj: Callable
    ref_rows: Callable
    ref_client_totals: Callable
    #: ``(axis values, key coordinate)`` per axis, in sweep order.
    axes: tuple
    #: ``config(base, seed, axis values)``.
    config: Callable
    #: The reference JSON writer's ``sort_keys``.
    sort_keys: bool


KINDS = {
    "resilience": Kind(
        ResilienceCampaignResult, resilience_result_to_obj,
        resilience_result_from_obj, resilience_to_json,
        ref.merge_resilience, ref.resilience_result_to_obj,
        ref.resilience_result_from_obj, ref.resilience_matrix_rows,
        ref.resilience_client_totals,
        (
            (tuple(kind.value for kind in FaultKind), str),
            (RATES, lambda rate: repr(float(rate))),
        ),
        lambda base, seed, axes: ResilienceCampaignConfig(
            base=base, seed=seed, fault_kinds=axes[0], rates=axes[1]
        ),
        False,
    ),
    "fuzz": Kind(
        FuzzCampaignResult, fuzz_result_to_obj, fuzz_result_from_obj,
        fuzz_to_json, ref.merge_fuzz, ref.fuzz_result_to_obj,
        ref.fuzz_result_from_obj, ref.fuzz_matrix_rows,
        ref.fuzz_client_totals,
        (
            (tuple(kind.value for kind in MutationKind), str),
            ((0.0, 0.3, 0.8), lambda intensity: repr(float(intensity))),
        ),
        lambda base, seed, axes: FuzzCampaignConfig(
            base=base, seed=seed, mutation_kinds=axes[0],
            intensities=axes[1],
        ),
        True,
    ),
    "invoke": Kind(
        InvocationCampaignResult, invoke_result_to_obj,
        invoke_result_from_obj, invoke_to_json, ref.merge_invoke,
        ref.invoke_result_to_obj, ref.invoke_result_from_obj,
        ref.invoke_matrix_rows, ref.invoke_client_totals,
        ((tuple(cls.value for cls in PayloadClass), str),),
        lambda base, seed, axes: InvocationCampaignConfig(
            base=base, seed=seed, payload_classes=axes[0]
        ),
        True,
    ),
}

#: The reference cell class of each kind, for its counter names.
REF_CELLS = {
    "resilience": ref.ResilienceCell,
    "fuzz": ref.FuzzCell,
    "invoke": ref.InvokeCell,
    "lifecycle": ref.LifecycleCell,
}

_words = st.sampled_from(("svc-a", "svc-b", "timeout", "fault", "x|y", ""))


def _counters(kind):
    names = [field.name for field in dataclasses.fields(REF_CELLS[kind])]
    return st.fixed_dictionaries({
        name: st.one_of(st.just(0), st.integers(0, 4)) for name in names
    })


def _subset(values):
    return st.lists(st.sampled_from(values), unique=True, max_size=3) \
        if values else st.just([])


@st.composite
def sweeps(draw, kind):
    """``(config, ordered payloads)`` of a random ``kind`` sweep."""
    spec = KINDS[kind]
    servers = draw(_subset(SERVERS))
    clients = draw(_subset(CLIENTS))
    axes = [draw(_subset(values)) for values, _ in spec.axes]
    base = CampaignConfig(server_ids=tuple(servers), client_ids=tuple(clients))
    config = spec.config(base, draw(st.integers(0, 2**31)), axes)
    coords = [
        [coordinate(value) for value in values]
        for values, (_, coordinate) in zip(axes, spec.axes)
    ]
    ordered = []
    for server in servers:
        if not draw(st.booleans()) and draw(st.booleans()):
            continue  # a unit the engine left out (poisoned or not run)
        keys = [
            (server, client, *point)
            for point in product(*coords) for client in clients
        ]
        chosen = draw(st.lists(st.sampled_from(keys), unique=True)) \
            if keys else []
        payload = {
            "services": draw(st.integers(0, 9)),
            "cells": {"|".join(key): draw(_counters(kind)) for key in chosen},
        }
        if kind in ("fuzz", "invoke"):
            payload["quarantine"] = [
                [server, draw(_words), draw(st.sampled_from(clients or ["c"])),
                 draw(_words), draw(_words)]
                for _ in range(draw(st.integers(0, 3)))
            ]
        if kind == "fuzz":
            payload["finished"] = draw(st.booleans()) or draw(st.booleans())
        if kind == "invoke":
            payload["gates"] = {
                f"{server}|{client}": draw(st.fixed_dictionaries({
                    "services": st.integers(0, 5),
                    "invoked": st.integers(0, 5),
                    "gate_failed": st.integers(0, 5),
                }))
                for client in draw(_subset(clients))
            }
        ordered.append((ShardUnit(kind, server, 0, 1), payload))
    return config, ordered


def _dumps(obj, sort_keys=False):
    return json.dumps(obj, sort_keys=sort_keys)


def assert_same_sampled(kind, config, ordered):
    """The live and reference results of one sweep agree everywhere."""
    spec = KINDS[kind]
    live = spec.live.merge(config, iter(copy.deepcopy(ordered)))
    old = spec.ref_merge(config, iter(copy.deepcopy(ordered)))
    old_obj = spec.ref_to_obj(old)

    assert _dumps(live.to_obj()) == _dumps(old_obj)
    assert _dumps(spec.to_obj(live)) == _dumps(old_obj)
    assert spec.to_json(live) == _dumps(old_obj, spec.sort_keys)
    back = spec.from_obj(json.loads(_dumps(old_obj)))
    assert _dumps(back.to_obj()) == _dumps(old_obj)
    old_back = spec.ref_from_obj(json.loads(_dumps(live.to_obj())))
    assert _dumps(spec.ref_to_obj(old_back)) == _dumps(old_obj)

    for result in (live, back):
        assert canonical_matrix(kind, result) == ref.CANONICALIZERS[kind](old)
        assert canonical_totals(kind, result) == ref.canonical_totals(old)
        assert list(result.totals().items()) == list(old.totals().items())
        assert result.rows() == spec.ref_rows(old)
        for client in old.client_ids:
            expected = spec.ref_client_totals(old, client)
            totals = result.totals(client)
            assert {key: totals[key] for key in expected} == expected


def _lifecycle_payloads(units):
    """The same cells as the live payloads (``server|client`` keys) and
    as the reference's (client keys, unit server implied)."""
    live, old = [], []
    for unit, services, cells in units:
        live.append((unit, {
            "services": services,
            "cells": {f"{unit.server_id}|{c}": dict(v) for c, v in cells},
        }))
        old.append((unit, {"services": services, "cells": dict(cells)}))
    return live, old


@st.composite
def lifecycle_sweeps(draw):
    servers = draw(_subset(SERVERS))
    clients = draw(_subset(CLIENTS))
    config = LifecycleCampaignConfig(
        CampaignConfig(server_ids=tuple(servers), client_ids=tuple(clients))
    )
    units = []
    for server in servers:
        if not draw(st.booleans()) and draw(st.booleans()):
            continue
        chosen = draw(st.lists(st.sampled_from(clients), unique=True)) \
            if clients else []
        units.append((
            ShardUnit("lifecycle", server, 0, 1),
            draw(st.integers(0, 9)),
            [(client, draw(_counters("lifecycle"))) for client in chosen],
        ))
    return config, units


def assert_same_lifecycle(config, live_ordered, old_ordered):
    live = LifecycleCampaignResult.merge(config, iter(live_ordered))
    old = ref.merge_lifecycle(config, iter(old_ordered))
    assert list(live.totals().items()) == list(old.totals().items())
    assert live.completion_ratio() == old.completion_ratio()
    assert live.services_per_server == old.services_per_server
    assert {key: cell.to_obj() for key, cell in live.cells.items()} == {
        key: dataclasses.asdict(cell) for key, cell in old.cells.items()
    }
    present = [
        (server, client) + old.cells[(server, client)].as_row()
        for server in old.server_ids for client in old.client_ids
        if (server, client) in old.cells
    ]
    assert live.rows() == present
    if len(present) == len(old.server_ids) * len(old.client_ids):
        assert live.rows() == ref.lifecycle_matrix_rows(old)


class TestRandomSweeps:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sampled_kind_matches_reference(self, kind, data):
        config, ordered = data.draw(sweeps(kind))
        assert_same_sampled(kind, config, ordered)

    @settings(max_examples=150, deadline=None)
    @given(sweep=lifecycle_sweeps())
    def test_lifecycle_matches_reference(self, sweep):
        config, units = sweep
        assert_same_lifecycle(config, *_lifecycle_payloads(units))

    @settings(max_examples=150, deadline=None)
    @given(cells=st.dictionaries(
        st.tuples(st.sampled_from(SERVERS), st.sampled_from(CLIENTS)),
        st.builds(
            CellStats,
            **{
                field.name: st.integers(0, 3)
                for field in dataclasses.fields(CellStats)
            },
        ),
        max_size=6,
    ))
    def test_run_canonical_matrix_matches_reference(self, cells):
        result = CampaignResult(cells=cells)
        assert canonical_matrix("run", result) == ref.CANONICALIZERS["run"](
            result
        )


def _quick_base():
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
    )


#: The CI smokes' sweeps, as ``kind -> (campaign class, config)``.
SMOKES = {
    "resilience": (ResilienceCampaign, ResilienceCampaignConfig(
        base=_quick_base(), seed=7,
        fault_kinds=(FaultKind.HTTP_503, FaultKind.CONNECTION_REFUSED),
        rates=(0.4,), sample_per_server=2,
    )),
    "fuzz": (FuzzCampaign, FuzzCampaignConfig(
        base=_quick_base(), seed=7, sample_per_server=2,
    )),
    "invoke": (InvocationCampaign, InvocationCampaignConfig(
        base=_quick_base(), seed=7, sample_per_server=2,
    )),
    "lifecycle": (LifecycleCampaign, LifecycleCampaignConfig(_quick_base(), 3)),
}


@pytest.fixture(scope="module")
def smoke_payloads():
    """``kind -> (config, ordered unit payloads)`` of each smoke."""
    payloads = {}
    for kind, (campaign_class, config) in SMOKES.items():
        campaign = campaign_class(config)
        payloads[kind] = (config, [
            (unit, campaign.run_shard_unit(unit))
            for unit in campaign.shard_job().units()
        ])
    return payloads


class TestSmokeSweeps:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_sampled_smoke_matches_reference(self, smoke_payloads, kind):
        config, ordered = smoke_payloads[kind]
        assert_same_sampled(kind, config, ordered)

    def test_lifecycle_smoke_matches_reference(self, smoke_payloads):
        config, ordered = smoke_payloads["lifecycle"]
        old_ordered = [
            (unit, {
                "services": data["services"],
                "cells": {
                    key.split("|")[1]: counters
                    for key, counters in data["cells"].items()
                },
            })
            for unit, data in ordered
        ]
        assert_same_lifecycle(config, ordered, old_ordered)

    def test_run_smoke_matches_reference(self, quick_campaign_result):
        assert canonical_matrix("run", quick_campaign_result) == (
            ref.CANONICALIZERS["run"](quick_campaign_result)
        )
