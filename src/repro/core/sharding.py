"""The one sweep engine: shard planning, execution and canonical merging.

The five sweeps — the plain assessment campaign, the resilience sweep,
the corruption fuzz, the invocation sweep and the five-step lifecycle
sweep — all run through :func:`execute_sharded`, and a run is only
useful if it is *indistinguishable* from any other run of the same
configuration.  This module owns that contract:

* **Planning.**  A sweep is split into an ordered list of
  :class:`ShardUnit` work units, one ``(server, service-chunk)`` pair at
  a time.  The split depends only on the campaign configuration and the
  chunk count — never on how many workers execute it — so the same
  configuration always yields the same units with the same keys, and a
  checkpoint written by any worker count resumes exactly under any
  other, one included.

* **Execution.**  With one worker the units run in-process, in
  canonical order, on the caller's campaign object; with more, the
  supervised process pool of :mod:`repro.runtime.pool` runs them.  The
  checkpoint guard, the restore-or-run plan, the unit-level quarantine,
  telemetry, tracing and the merge are shared, so serial, pooled and
  resumed runs agree because they run the same code.

* **Merging.**  Unit payloads are folded back into a campaign result
  **in canonical shard order**, regardless of the order in which
  workers completed them.  The sampled kinds share one merge
  (:meth:`repro.core.cells.CellMatrix.merge`) and ``run`` has its own;
  each reads a payload either as the object a unit returned or as its
  JSON form read back from a checkpoint.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

from repro.core.store import QuarantineRegistry
from repro.obs.trace import TraceCollector, Tracer, activate, current_tracer

#: Campaign kinds a :class:`ShardJob` can describe.
CAMPAIGN_RUN = "run"
CAMPAIGN_RESILIENCE = "resilience"
CAMPAIGN_FUZZ = "fuzz"
CAMPAIGN_INVOKE = "invoke"
CAMPAIGN_LIFECYCLE = "lifecycle"

#: The per-kind table: each kind's campaign class, as ``module:Class``
#: (imported on first use, because the campaign modules import this
#: one).  A class answers ``shard_job()``, ``run_shard_unit(unit)`` and
#: ``merge(config, ordered)``; its config answers ``fingerprint()``.
_CAMPAIGN_CLASSES = {
    CAMPAIGN_RUN: "repro.core.campaign:Campaign",
    CAMPAIGN_RESILIENCE: "repro.faults.campaign:ResilienceCampaign",
    CAMPAIGN_FUZZ: "repro.faults.campaign:FuzzCampaign",
    CAMPAIGN_INVOKE: "repro.invoke.campaign:InvocationCampaign",
    CAMPAIGN_LIFECYCLE: "repro.core.extended:LifecycleCampaign",
}

#: Default service-chunk count per server for the plain campaign.  Part
#: of the checkpoint fingerprint: changing it re-shards the sweep.
DEFAULT_CHUNKS_PER_SERVER = 4

#: Test-only hook: when set to a callable, it is invoked with every
#: :class:`ShardUnit` about to execute, on either path.  Worker
#: processes inherit it through ``fork``, which lets tests simulate
#: hard crashes (``os._exit``), hangs and resource blowups inside an
#: isolated child — or an interrupt of an in-process sweep — without
#: patching production code paths.
unit_fault_hook = None


def campaign_class(kind):
    """The campaign class of ``kind`` (see ``_CAMPAIGN_CLASSES``)."""
    module, _, name = _CAMPAIGN_CLASSES[kind].partition(":")
    return getattr(importlib.import_module(module), name)


@dataclass(frozen=True)
class PoolConfig:
    """Execution parameters of one sweep."""

    #: 1 runs the units in-process; more runs them in a supervised pool
    #: of that many worker processes.
    workers: int = 2
    #: SIGKILL a worker whose in-flight unit exceeds this wall clock.
    watchdog_seconds: float = 300.0
    #: Crash-loop backoff: attempts per unit before it is poisoned.
    max_attempts: int = 2


#: The in-process engine configuration every ``Campaign.run`` uses.
SERIAL = PoolConfig(workers=1)


@dataclass
class UnitFailure:
    """One containment record: a unit attempt that did not complete."""

    unit_key: str
    server_id: str
    bucket: str
    detail: str
    attempt: int

    def to_obj(self):
        return {
            "unit": self.unit_key,
            "server": self.server_id,
            "bucket": self.bucket,
            "detail": self.detail,
            "attempt": self.attempt,
        }


@dataclass
class PoolStats:
    """What the engine observed while executing one job."""

    workers: int = 0
    units_total: int = 0
    units_completed: int = 0
    #: Units whose payload already existed in the checkpoint (resume).
    units_restored: int = 0
    #: Units excluded by crash-loop backoff (this run or a prior one).
    units_poisoned: int = 0
    worker_deaths: int = 0
    watchdog_kills: int = 0
    heartbeat_kills: int = 0
    #: Containments that were retried on another worker.
    reassignments: int = 0
    failures: list = field(default_factory=list)  # UnitFailure
    #: Per-worker utilization rows: ``{"worker", "busy_pct", "idle_pct",
    #: "killed_pct", "units", "outcome"}``, one per worker process
    #: lifetime (none for an in-process sweep).
    worker_timeline: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def contained(self):
        """Total containment events (reassigned or poisoned)."""
        return self.reassignments + self.units_poisoned

    def to_obj(self):
        return {
            "workers": self.workers,
            "units_total": self.units_total,
            "units_completed": self.units_completed,
            "units_restored": self.units_restored,
            "units_poisoned": self.units_poisoned,
            "worker_deaths": self.worker_deaths,
            "watchdog_kills": self.watchdog_kills,
            "heartbeat_kills": self.heartbeat_kills,
            "reassignments": self.reassignments,
            "failures": [failure.to_obj() for failure in self.failures],
            "worker_timeline": [dict(row) for row in self.worker_timeline],
            "wall_seconds": self.wall_seconds,
        }


@dataclass(frozen=True)
class ShardUnit:
    """One schedulable work unit: a chunk of one server's sweep."""

    campaign: str
    server_id: str
    chunk_index: int
    chunk_count: int

    @property
    def key(self):
        """Stable checkpoint key; independent of the worker count."""
        return (
            f"{self.campaign}-{self.server_id}-"
            f"{self.chunk_index:03d}of{self.chunk_count:03d}"
        )


def chunk_bounds(total, chunk_count):
    """Split ``range(total)`` into ``chunk_count`` balanced ``[start, stop)``.

    The first ``total % chunk_count`` chunks carry one extra item, so
    the bounds are a pure function of ``(total, chunk_count)`` and the
    concatenation of all chunks is exactly the original range.
    """
    if chunk_count < 1:
        raise ValueError(f"chunk_count must be >= 1, got {chunk_count}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    base, extra = divmod(total, chunk_count)
    bounds = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


@dataclass(frozen=True)
class ShardJob:
    """A campaign configuration plus its worker-count-independent split.

    Carries everything a worker process needs to execute any unit of
    the sweep (``build``) and everything the engine needs to plan
    (``units``), guard checkpoints (``fingerprint``) and reassemble the
    result (``merge``).
    """

    campaign: str
    config: object
    chunks_per_server: int = 1

    def __post_init__(self):
        if self.campaign not in _CAMPAIGN_CLASSES:
            raise ValueError(f"unknown campaign kind {self.campaign!r}")
        if self.chunks_per_server < 1:
            raise ValueError(
                f"chunks_per_server must be >= 1, got {self.chunks_per_server}"
            )

    @property
    def server_ids(self):
        # The sampled sweeps wrap the plain campaign's config as ``base``.
        return tuple(getattr(self.config, "base", self.config).server_ids)

    def units(self):
        """The canonical, worker-count-independent unit list."""
        return [
            ShardUnit(self.campaign, server_id, index, self.chunks_per_server)
            for server_id in self.server_ids
            for index in range(self.chunks_per_server)
        ]

    def build(self):
        """Instantiate the executable campaign for this job."""
        return campaign_class(self.campaign)(self.config)

    def fingerprint(self):
        """Checkpoint guard value: configuration + shard shape.

        Deliberately excludes the worker count and the watchdog budget:
        a sweep checkpointed under any ``--workers`` must resume exactly
        under any other.
        """
        return {
            "campaign": self.campaign,
            "shards": {"chunks_per_server": self.chunks_per_server},
            "config": self.config.fingerprint(),
        }

    def merge(self, payloads, poisoned=()):
        """Fold a ``{unit key: payload}`` mapping into a campaign result.

        Units missing from ``payloads`` (crashed and poisoned, or never
        executed) are skipped; ``poisoned`` keys are excluded even when
        a late payload exists for them.  The fold walks the canonical
        unit order, which makes the result identical for any completion
        order.
        """
        poisoned = set(poisoned)
        return self.fold(
            (unit, payloads[unit.key])
            for unit in self.units()
            if unit.key in payloads and unit.key not in poisoned
        )

    def fold(self, ordered):
        """Fold ``(unit, payload)`` pairs, in canonical order, into a result.

        The kind's merge pulls one pair at a time, so a generator that
        runs or restores each unit on demand never holds more than one
        payload, and a merge that stops early (a fail-fast abort) stops
        the units after it from running at all.
        """
        return campaign_class(self.campaign).merge(self.config, ordered)


def run_unit(campaign, unit, trace_id=None):
    """Execute one unit on a built campaign: ``(payload, observation)``.

    The inner step of both execution paths.  With ``trace_id`` the unit
    runs under its own :class:`~repro.obs.trace.Tracer`, and
    ``observation`` carries its span events and metrics for the
    :class:`~repro.obs.trace.TraceCollector`; otherwise it is ``None``.
    """
    if unit_fault_hook is not None:
        unit_fault_hook(unit)
    if trace_id is None:
        return campaign.run_shard_unit(unit), None
    tracer = Tracer(trace_id)
    with activate(tracer):
        payload = campaign.run_shard_unit(unit)
    return payload, {"events": tracer.events, "metrics": tracer.metrics}


class Sweep:
    """One planned execution: what both paths read and what they report.

    Planning splits the canonical units into poisoned (by the pool's
    crash-loop backoff, in this run or a prior one), restored (already
    in the checkpoint) and pending.  The pool adds the units it poisons
    while running to ``poisoned``; both paths add each unit whose
    payload is available to ``completed``.
    """

    def __init__(self, job, workers, checkpoint=None, progress=None,
                 collector=None, telemetry=None):
        self.job = job
        self.checkpoint = checkpoint
        self.progress = progress
        self.collector = collector
        self.telemetry = telemetry
        self.units = job.units()
        self.stats = PoolStats(workers=workers, units_total=len(self.units))
        self.registry = QuarantineRegistry.load(checkpoint)
        self.poisoned, self.restored, self.pending = set(), set(), []
        for unit in self.units:
            reason = self.registry.reason(
                unit.server_id, unit.key, job.campaign
            )
            if reason is not None:
                self.poisoned.add(unit.key)
                self.stats.failures.append(
                    UnitFailure(
                        unit.key, unit.server_id, reason["bucket"],
                        reason["detail"], attempt=0,
                    )
                )
            elif checkpoint is not None and checkpoint.has(unit.key):
                self.restored.add(unit.key)
            else:
                self.pending.append(unit)
        self.completed = set(self.restored)
        self.stats.units_restored = len(self.restored)
        if progress and (self.restored or self.poisoned):
            progress(
                f"[sweep] resume: {len(self.restored)} restored, "
                f"{len(self.poisoned)} poisoned, {len(self.pending)} to run"
            )
        if telemetry is not None:
            telemetry.begin(
                total=len(self.units), workers=workers,
                restored=len(self.restored), poisoned=len(self.poisoned),
            )

    def unit_done(self, unit_key):
        self.completed.add(unit_key)
        if self.progress:
            self.progress(
                f"[sweep] {unit_key} done "
                f"({len(self.completed)}/{len(self.units)})"
            )

    def heartbeat(self, worker_rows, force=False):
        if self.telemetry is not None:
            self.telemetry.update(
                done=len(self.completed), poisoned=len(self.poisoned),
                worker_rows=worker_rows, force=force,
            )

    def final(self, wall_seconds, outcome="completed"):
        if self.telemetry is not None:
            self.telemetry.final(
                done=len(self.completed), poisoned=len(self.poisoned),
                wall_seconds=wall_seconds, outcome=outcome,
            )


def _run_in_process(sweep, campaign):
    """Run or restore each unit, in canonical order, as the merge asks.

    Units execute on the caller's ``campaign`` object and exceptions
    propagate untouched: containment is a pool feature.  Nothing is
    written unless a checkpoint was given.
    """
    checkpoint = sweep.checkpoint
    trace_id = sweep.collector.trace_id if sweep.collector else None
    for unit in sweep.units:
        if unit.key in sweep.poisoned:
            continue
        if unit.key in sweep.restored:
            yield unit, checkpoint.load(unit.key)
            continue
        sweep.heartbeat([{
            "worker": 1, "state": "busy", "unit": unit.key,
            "server": unit.server_id, "busy_seconds": 0.0,
        }])
        payload, observation = run_unit(campaign, unit, trace_id)
        if checkpoint is not None:
            checkpoint.save(unit.key, payload)
        if sweep.collector is not None:
            sweep.collector.collect(unit.key, observation)
        sweep.unit_done(unit.key)
        sweep.heartbeat([{
            "worker": 1, "state": "idle", "unit": None, "server": None,
            "busy_seconds": 0.0,
        }], force=True)
        yield unit, payload


def execute_sharded(job, pool=None, checkpoint=None, progress=None,
                    collector=None, progress_path=None,
                    eta_wall_hint_seconds=None, campaign=None):
    """Execute ``job``'s units and fold them into a result.

    Returns ``(result, stats)``.  ``pool.workers`` picks the path: 1
    runs the units in-process on ``campaign`` (default: ``job.build()``),
    more runs them under the supervised process pool.  Everything else
    is shared:

    * ``checkpoint`` is guarded against ``job.fingerprint()``; finished
      units are saved under worker-count-independent keys and restored
      instead of re-run, so a sweep interrupted under one worker count
      resumes exactly under any other;
    * units poisoned by the pool's crash-loop backoff (this run or a
      prior one) are left out of the merge;
    * ``progress`` receives one line per finished unit, and
      ``progress_path`` opts into the crash-safe JSONL heartbeat stream
      (:mod:`repro.runtime.progress`) with an ETA seeded from
      ``eta_wall_hint_seconds``;
    * each unit runs under its own tracer and ``collector`` (a
      :class:`~repro.obs.trace.TraceCollector`) folds the streams in
      canonical order against exactly the units the merge consumed.
      Without a collector, a tracer active around the call receives
      the merged events and metrics instead.

    Tracing and telemetry never touch payloads: the result is
    byte-identical with or without them, for any worker count.
    """
    pool = pool or PoolConfig()
    if pool.workers < 1:
        raise ValueError(f"workers must be >= 1, got {pool.workers}")
    started = time.monotonic()
    if checkpoint is not None:
        checkpoint.guard("manifest", job.fingerprint())
    caller = None
    if collector is None and current_tracer().enabled:
        caller = current_tracer()
        collector = TraceCollector(caller.trace_id)
    telemetry = None
    if progress_path:
        from repro.runtime.progress import ProgressWriter

        telemetry = ProgressWriter(
            progress_path, campaign=job.campaign,
            eta_wall_hint_seconds=eta_wall_hint_seconds,
        )
    sweep = Sweep(job, pool.workers, checkpoint=checkpoint,
                  progress=progress, collector=collector, telemetry=telemetry)
    consumed = []

    def consume(pairs):
        for unit, payload in pairs:
            consumed.append(unit)
            yield unit, payload

    try:
        if pool.workers == 1:
            ordered = _run_in_process(sweep, campaign or job.build())
        else:
            # Imported here: worker processes (and ``multiprocessing``)
            # are only paid for by sweeps that use them.
            from repro.runtime.pool import run_pool

            ordered = run_pool(sweep, pool)
        try:
            result = job.fold(consume(ordered))
        finally:
            ordered.close()
        stats = sweep.stats
        stats.units_completed = len(sweep.completed)
        stats.units_poisoned = len(sweep.poisoned)
        stats.worker_timeline.sort(key=lambda row: row["worker"])
        stats.wall_seconds = round(time.monotonic() - started, 3)
        sweep.final(stats.wall_seconds)
    except BaseException:
        sweep.final(time.monotonic() - started, outcome="interrupted")
        raise
    if collector is not None:
        collector.finalize(
            consumed, wall_seconds=stats.wall_seconds, root=caller is None
        )
        collector.worker_events = [
            {"type": "worker", **row} for row in stats.worker_timeline
        ]
        if caller is not None:
            caller.adopt(collector.events, collector.metrics)
    return result, stats
