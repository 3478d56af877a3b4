"""Regression fleet end-to-end: empty diffs, perturbation, kill -9.

The gate's acceptance bar: identical back-to-back sweeps diff empty for
workers 1/2/4; a seeded single-cell perturbation is reported as exactly
one classified entry with drill-down evidence; and a regress sweep
SIGKILLed mid-flight resumes from its per-campaign checkpoints to a
byte-identical drift report.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import CampaignConfig
from repro.regress import (
    BaselineStore,
    build_configs,
    build_report,
    run_sweeps,
)
from repro.reporting import regress_to_json
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

CAMPAIGNS = ("run", "invoke")


def _configs():
    return build_configs(
        CAMPAIGNS,
        CampaignConfig(
            java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
        ),
        sample=2,
        payloads_per_class=1,
    )


def _sweep(workers=1, checkpoint_dir=None):
    return run_sweeps(
        CAMPAIGNS, _configs(), workers=workers, checkpoint_dir=checkpoint_dir
    )


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("regress") / "baseline")
    store = BaselineStore(directory)
    store.accept(_sweep())
    return directory


class TestEmptyDiffAcrossWorkerCounts:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_identical_sweep_diffs_empty(self, baseline, workers):
        store = BaselineStore(baseline)
        report = build_report(store, _sweep(workers=workers), _configs())
        assert report.clean
        assert report.exit_code == 0
        assert report.totals == {kind: {} for kind in CAMPAIGNS}
        for kind in CAMPAIGNS:
            digests = report.digests[kind]
            assert digests["baseline"] == digests["current"]


class TestPerturbationDrift:
    def test_single_cell_perturbation_reports_one_entry(self, baseline):
        store = BaselineStore(baseline)
        report = build_report(
            store, _sweep(), _configs(), perturb="invoke"
        )
        assert report.exit_code == 2
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.campaign == "invoke"
        assert entry.drift.value == "new-failure"
        drilldown = report.drilldowns[(entry.campaign, entry.cell)]
        assert drilldown.trace_id and drilldown.server_span
        assert drilldown.spans or drilldown.exchanges

    def test_drift_report_is_worker_count_independent(self, baseline):
        store = BaselineStore(baseline)
        serial = build_report(store, _sweep(), _configs(), perturb="invoke")
        pooled = build_report(
            store, _sweep(workers=2), _configs(), perturb="invoke"
        )
        assert regress_to_json(serial) == regress_to_json(pooled)


pytestmark_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="kill/resume suite relies on the fork start method",
)


def _run_until_killed(checkpoint_dir):
    # New session so the kill takes out the supervisor AND its forked
    # workers; an orphaned worker would otherwise keep the
    # multiprocessing resource-tracker pipe open and hang pytest's exit.
    os.setsid()
    # Pooled, so the kill also takes out worker processes; the resume
    # may use any worker count.
    _sweep(workers=2, checkpoint_dir=checkpoint_dir)


@pytestmark_fork
class TestKillResume:
    def test_sigkill_mid_regress_resumes_to_identical_report(
        self, tmp_path, baseline
    ):
        checkpoint_dir = tmp_path / "ck"
        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=_run_until_killed, args=(str(checkpoint_dir),)
        )
        child.start()
        # Wait until at least one campaign slice is checkpointed (any
        # per-kind subdirectory), then kill the sweep the hard way.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            done = []
            if checkpoint_dir.is_dir():
                for kind in CAMPAIGNS:
                    subdir = checkpoint_dir / kind
                    if not subdir.is_dir():
                        continue
                    done.extend(
                        name for name in os.listdir(subdir)
                        if name.endswith(".json") and name != "manifest.json"
                    )
            if done:
                break
            time.sleep(0.05)
        else:
            child.terminate()
            pytest.fail("no campaign checkpoint appeared before the deadline")
        os.killpg(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        # Resume the interrupted sweep from its per-campaign
        # checkpoints and diff; the report must match an uninterrupted
        # sweep's byte-for-byte (clean here, so also digest-equal).
        store = BaselineStore(baseline)
        resumed = build_report(
            store,
            _sweep(workers=2, checkpoint_dir=str(checkpoint_dir)),
            _configs(),
        )
        uninterrupted = build_report(store, _sweep(), _configs())
        assert resumed.clean
        assert regress_to_json(resumed) == regress_to_json(uninterrupted)
        # And the canonical JSON is bit-stable under a JSON round trip.
        assert json.loads(regress_to_json(resumed)) == resumed.to_obj()
