"""The regression fleet: sweep, snapshot, diff, drill, gate.

One :func:`run_sweeps` call executes any subset of the four campaign
types through the sweep engine (in-process or under the worker pool,
checkpoint/resume-capable via per-campaign checkpoint subdirectories)
and canonicalizes each result.
:func:`build_report` then either *promotes* the snapshots as the new
accepted baseline (``--accept``) or diffs them against the accepted one
and attaches drill-downs to what changed.

Exit-code semantics live here so the CLI and tests share one source of
truth: 0 clean, 2 regressions (any drift), 3 unclassified delta
(a harness bug: the drift taxonomy failed to be total).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from repro.core import canon
from repro.core.sharding import PoolConfig, campaign_class, execute_sharded
from repro.regress.baseline import BaselineStore
from repro.regress.diff import diff_matrices, perturb_matrix, totals_delta

#: The shared sweep seed; every campaign derives per-cell randomness
#: from it by labels, which is what makes drill-down re-drives exact.
DEFAULT_SEED = 20140622

EXIT_CLEAN = 0
EXIT_REGRESSIONS = 2
EXIT_UNCLASSIFIED = 3


def build_configs(campaigns, base, seed=DEFAULT_SEED, sample=2,
                  payloads_per_class=1, mutants_per_config=1):
    """One config object per requested campaign kind.

    ``base`` is the shared :class:`~repro.core.CampaignConfig` (the
    ``run`` kind uses it directly); sweep shapes (fault kinds, rates,
    mutation kinds, intensities, payload classes) stay at their module
    defaults so a regress baseline means the *default* sweep unless the
    caller builds configs by hand.  A sampled kind's ``CONFIG`` takes
    the other arguments it has a field for (``sample`` is
    ``sample_per_server``).
    """
    given = {
        "base": base, "seed": seed, "sample_per_server": sample,
        "payloads_per_class": payloads_per_class,
        "mutants_per_config": mutants_per_config,
    }
    configs = {}
    for kind in campaigns:
        canon.require_kind(kind)
        if kind == "run":
            configs[kind] = base
            continue
        config_class = campaign_class(kind).CONFIG
        names = {spec.name for spec in fields(config_class)}
        configs[kind] = config_class(**{
            name: value for name, value in given.items() if name in names
        })
    return configs


def _checkpoint_for(checkpoint_dir, kind):
    """Each campaign guards its checkpoint manifest under the same key,
    so a shared regress checkpoint directory gets one subdir per kind."""
    if not checkpoint_dir:
        return None
    from repro.core.store import CampaignCheckpoint

    return CampaignCheckpoint(os.path.join(checkpoint_dir, kind))


def run_sweep(kind, config, workers=1, checkpoint_dir=None, progress=None,
              pool_stats=None):
    """Execute one campaign sweep through the engine, resume-capable.

    ``pool_stats`` is an optional dict collecting per-kind execution
    statistics for the CLI summary.  The result is byte-identical for
    any ``workers``, so the canonical matrix — and therefore the drift
    report — does not depend on it.
    """
    campaign = campaign_class(kind)(config)
    result, stats = execute_sharded(
        campaign.shard_job(), PoolConfig(workers=workers),
        checkpoint=_checkpoint_for(checkpoint_dir, kind),
        progress=progress, campaign=campaign,
    )
    if pool_stats is not None:
        pool_stats[kind] = stats
    return result


def run_sweeps(campaigns, configs, workers=1, checkpoint_dir=None,
               progress=None, pool_stats=None):
    """All requested sweeps, canonicalized: ``{kind: snapshot}``."""
    snapshots = {}
    for kind in campaigns:
        if progress:
            progress(f"[regress] sweeping {kind}")
        result = run_sweep(
            kind, configs[kind], workers=workers,
            checkpoint_dir=checkpoint_dir, progress=progress,
            pool_stats=pool_stats,
        )
        snapshots[kind] = canon.snapshot(
            kind, result, configs[kind].fingerprint()
        )
    return snapshots


@dataclass
class RegressReport:
    """Everything one regress run decided, timing-free by construction."""

    campaigns: tuple
    #: Per kind: the manifest digest diffed against and the fresh one.
    digests: dict = field(default_factory=dict)
    #: Per kind: ``{metric: (before, after)}`` headline movements.
    totals: dict = field(default_factory=dict)
    #: Classified :class:`~repro.regress.diff.DriftEntry` objects, in
    #: (campaign, cell) canonical order.
    entries: list = field(default_factory=list)
    #: ``(campaign, cell) -> CellDrilldown`` for drilled entries.
    drilldowns: dict = field(default_factory=dict)
    #: Human description of the self-test perturbation, if one was asked.
    perturbation: str = ""

    @property
    def clean(self):
        return not self.entries

    @property
    def exit_code(self):
        return EXIT_CLEAN if self.clean else EXIT_REGRESSIONS

    def counts(self):
        """``{drift-class-value: count}`` over the changed cells."""
        out = {}
        for entry in self.entries:
            out[entry.drift.value] = out.get(entry.drift.value, 0) + 1
        return out

    def to_obj(self):
        entries = []
        for entry in self.entries:
            obj = entry.to_obj()
            drilldown = self.drilldowns.get((entry.campaign, entry.cell))
            obj["drilldown"] = drilldown.to_obj() if drilldown else None
            entries.append(obj)
        return {
            "format": 1,
            "campaigns": list(self.campaigns),
            "clean": self.clean,
            "digests": {
                kind: dict(self.digests[kind]) for kind in sorted(self.digests)
            },
            "totals": {
                kind: {
                    metric: list(change)
                    for metric, change in sorted(self.totals[kind].items())
                }
                for kind in sorted(self.totals)
            },
            "counts": self.counts(),
            "entries": entries,
            "perturbation": self.perturbation,
        }


def build_report(store, snapshots, configs, drill=True, drill_limit=5,
                 perturb=None, progress=None):
    """Diff fresh ``snapshots`` against the accepted baseline in ``store``.

    Raises :class:`~repro.regress.baseline.BaselineError` when the
    baseline is missing/corrupt/tampered or was accepted under a
    different sweep configuration, and
    :class:`~repro.regress.diff.UnclassifiedDriftError` when a delta
    escapes the taxonomy.  ``perturb`` names a campaign kind whose
    fresh matrix gets a deterministic single-cell perturbation first —
    the gate's self-test (the diff must report exactly that cell).
    """
    campaigns = tuple(kind for kind in canon.CAMPAIGN_KINDS if kind in snapshots)
    report = RegressReport(campaigns=campaigns)
    fingerprints = {}
    for kind in campaigns:
        snapshot = snapshots[kind]
        fingerprints[kind] = snapshot["fingerprint"]
        store.guard(kind, snapshot["fingerprint"])
        baseline = store.load(kind)
        cells = snapshot["cells"]
        totals = dict(snapshot["totals"])
        if perturb == kind:
            cells, description = perturb_matrix(kind, cells)
            metric = canon.FAILURE_METRIC[kind]
            if metric in totals:
                totals[metric] += 1
            report.perturbation = description
        report.digests[kind] = {
            "baseline": store.digest(kind),
            "current": canon.matrix_digest(
                dict(snapshot, cells=cells, totals=totals,
                     format=1, kind=kind)
            ),
        }
        report.totals[kind] = totals_delta(kind, baseline["totals"], totals)
        report.entries.extend(diff_matrices(kind, baseline["cells"], cells))
    if drill and report.entries:
        if progress:
            progress(f"[regress] drilling {len(report.entries)} changed cells")
        from repro.regress.drilldown import drill_entries

        report.drilldowns = drill_entries(
            report.entries, configs, fingerprints, limit=drill_limit
        )
    return report


def accept(baseline_dir, snapshots, timestamp="", git_rev=""):
    """Promote ``snapshots`` as the accepted baseline; ``{kind: digest}``."""
    return BaselineStore(baseline_dir).accept(
        snapshots, timestamp=timestamp, git_rev=git_rev
    )
