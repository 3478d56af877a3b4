"""Supervised process-isolated execution of campaign shards.

The in-process :class:`~repro.runtime.guard.GuardedStep` contains the
failures it can *see* — a classified exception, a blown budget, a slow
step on its own thread.  It cannot pre-empt a hard crash: a
segfault-equivalent, the OOM killer, or a runaway mutant chewing the
whole interpreter still kills an in-process sweep outright.  This
module is the ``workers >= 2`` path of the sweep engine
(:func:`repro.core.sharding.execute_sharded`): units execute in
**isolated child processes** under a supervisor that survives the loss
of any worker.  Planning, restore, merging, telemetry and tracing stay
in the engine; the supervisor owns only worker processes, containment
and watchdogs.

Architecture (one supervisor, N long-lived ``multiprocessing`` workers):

* Units are **assigned explicitly**, one per worker at a time, so the
  supervisor always knows exactly which unit a dead worker held.
* A worker writes each finished unit's payload **atomically into the
  shard store** before acknowledging it over its own **private result
  pipe** — one pipe per worker, single writer, no cross-process locks
  (a shared ``mp.Queue`` write lock could be orphaned by a SIGKILL,
  wedging every surviving worker), so a kill can never leave a
  half-received payload or a stuck lock.
* Each worker runs a heartbeat thread; the supervisor SIGKILLs workers
  whose heartbeat goes quiet and — independently — workers whose
  in-flight unit exceeds the **wall-clock watchdog**.
* Worker death (crash, OOM, kill) is **contained**: the in-flight unit
  is triaged into the :class:`~repro.runtime.guard.TriageBucket`
  taxonomy and reassigned.  **Crash-loop backoff**: a unit that has
  burned ``max_attempts`` attempts is poisoned into the unit-level
  :class:`~repro.core.store.QuarantineRegistry` (checkpoint key
  ``"pool-quarantine"``) instead of being retried forever, so the sweep
  always completes; the merge leaves it out (serial-minus-poisoned).
* When a checkpoint is supplied, the shard store *is* the checkpoint:
  a ``kill -9`` of the supervisor itself resumes exactly, because every
  finished unit is already durable under a worker-count-independent key.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import multiprocessing.connection
import shutil
import tempfile
import threading
import time
from collections import deque

from repro.core import sharding
from repro.core.sharding import (  # noqa: F401  (re-exported pool API)
    PoolConfig,
    PoolStats,
    UnitFailure,
    execute_sharded,
)
from repro.core.store import CampaignCheckpoint
from repro.runtime.guard import TriageBucket, classify_exception


#: ``multiprocessing`` start method: ``fork`` where available (cheap,
#: inherits test hooks), else ``spawn``, the only one on hosts without
#: fork.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)
#: How often each worker's heartbeat thread beats.
HEARTBEAT_SECONDS = 0.5
#: SIGKILL a busy worker whose heartbeat is older than this.
HEARTBEAT_TIMEOUT_SECONDS = 30.0
#: Supervisor poll interval while waiting for worker messages.
POLL_SECONDS = 0.05


def _worker_main(worker_id, job, spool_dir, task_queue, result_conn,
                 heartbeat, trace_id=None):
    """Child-process loop: execute assigned units until the sentinel.

    Payloads are saved atomically into the shard store *before* the
    acknowledgement is sent; if the process dies in between, the next
    attempt finds the finished payload and acknowledges without
    re-executing.  Exceptions escaping a unit are triaged and reported
    as ``failed`` — the worker itself stays alive for the next unit.

    When ``trace_id`` is set, the unit's span events and metrics ride on
    the ``done`` acknowledgement (see :func:`repro.core.sharding.run_unit`)
    for the engine's collector.  A worker killed mid-send only loses its
    own observation — the unit is reassigned and re-observed like any
    other containment.
    """
    spool = CampaignCheckpoint(spool_dir)
    stop = threading.Event()

    def beat():
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(HEARTBEAT_SECONDS)

    threading.Thread(
        target=beat, name=f"pool-heartbeat-{worker_id}", daemon=True
    ).start()
    campaign = job.build()
    while True:
        unit = task_queue.get()
        if unit is None:
            stop.set()
            return
        observation = None
        try:
            if not spool.has(unit.key):
                payload, observation = sharding.run_unit(
                    campaign, unit, trace_id
                )
                spool.save(unit.key, payload)
        except Exception as exc:  # noqa: BLE001 — triaged, reported, contained
            bucket = classify_exception(exc)
            detail = f"{type(exc).__name__}: {exc}"
            result_conn.send(
                ("failed", worker_id, unit.key, bucket.value, detail[:300])
            )
        else:
            result_conn.send(("done", worker_id, unit.key, observation))


class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    __slots__ = ("id", "process", "task_queue", "conn", "heartbeat", "unit",
                 "started_at", "spawned_at", "busy_seconds", "killed_seconds",
                 "units_done", "outcome")

    def __init__(self, worker_id, process, task_queue, conn, heartbeat):
        self.id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.conn = conn  # supervisor end of the worker's result pipe
        self.heartbeat = heartbeat
        self.unit = None  # in-flight ShardUnit
        self.started_at = None
        # Utilization timeline: lifetime splits into busy (units that
        # finished or failed in-process), killed (the fatal in-flight
        # unit of a dead worker) and idle (the rest).
        self.spawned_at = time.monotonic()
        self.busy_seconds = 0.0
        self.killed_seconds = 0.0
        self.units_done = 0
        self.outcome = "retired"

    @property
    def busy(self):
        return self.unit is not None

    def assign(self, unit):
        self.unit = unit
        self.started_at = time.monotonic()
        self.task_queue.put(unit)

    def release(self, killed=False):
        if self.started_at is not None:
            elapsed = time.monotonic() - self.started_at
            if killed:
                self.killed_seconds += elapsed
            else:
                self.busy_seconds += elapsed
        self.unit = None
        self.started_at = None

    def utilization_row(self):
        lifetime = max(time.monotonic() - self.spawned_at, 1e-9)
        idle = max(
            lifetime - self.busy_seconds - self.killed_seconds, 0.0
        )
        return {
            "worker": self.id,
            "busy_pct": round(100.0 * self.busy_seconds / lifetime, 1),
            "idle_pct": round(100.0 * idle / lifetime, 1),
            "killed_pct": round(100.0 * self.killed_seconds / lifetime, 1),
            "units": self.units_done,
            "outcome": self.outcome,
        }


class _Supervisor:
    """Runs a planned :class:`~repro.core.sharding.Sweep`'s pending units."""

    def __init__(self, sweep, pool, spool):
        self.sweep = sweep
        self.job = sweep.job
        self.pool = pool
        self.spool = spool
        self.stats = sweep.stats
        self.ctx = multiprocessing.get_context(START_METHOD)
        self.workers = {}
        self.worker_ids = itertools.count(1)
        self.pending = deque(sweep.pending)
        self.attempts = {}
        #: worker id → the server whose deployment it holds.  Workers
        #: keep one corpus deployment, so scheduling is affinity-first;
        #: the canonical-order merge keeps the result independent of
        #: these choices.
        self.affinity = {}

    # -- worker lifecycle ------------------------------------------------------

    def _spawn(self):
        worker_id = next(self.worker_ids)
        task_queue = self.ctx.SimpleQueue()
        # One result pipe per worker: its single writer is the worker's
        # main thread, so no lock or buffer can be orphaned by SIGKILL.
        recv_conn, send_conn = self.ctx.Pipe(duplex=False)
        heartbeat = self.ctx.Value("d", time.monotonic(), lock=False)
        collector = self.sweep.collector
        trace_id = collector.trace_id if collector else None
        process = self.ctx.Process(
            target=_worker_main,
            args=(worker_id, self.job, self.spool.directory, task_queue,
                  send_conn, heartbeat, trace_id),
            name=f"pool-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # The child inherited the writer end; drop ours so the pipe has
        # exactly one writer and later forks cannot leak it.
        send_conn.close()
        handle = _WorkerHandle(worker_id, process, task_queue, recv_conn,
                               heartbeat)
        self.workers[worker_id] = handle
        return handle

    def _discard(self, handle):
        """Forget a dead worker (its process object is already joined)."""
        self.stats.worker_timeline.append(handle.utilization_row())
        with contextlib.suppress(OSError):
            handle.conn.close()
        self.workers.pop(handle.id, None)
        self.affinity.pop(handle.id, None)

    def _kill(self, handle):
        handle.process.kill()
        handle.process.join(5.0)

    def shutdown(self, force=False):
        for handle in list(self.workers.values()):
            if force:
                self._kill(handle)
            else:
                try:
                    handle.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        for handle in list(self.workers.values()):
            handle.process.join(0.1 if force else 2.0)
            if handle.process.is_alive():
                self._kill(handle)
            self._discard(handle)

    # -- containment -----------------------------------------------------------

    def _contain(self, unit, bucket, detail):
        """Triage a failed attempt: reassign, or poison on crash-loop."""
        sweep = self.sweep
        attempt = self.attempts.get(unit.key, 0) + 1
        self.attempts[unit.key] = attempt
        if attempt >= self.pool.max_attempts:
            sweep.registry.poison(
                unit.server_id, unit.key, self.job.campaign,
                bucket.value, detail,
            )
            sweep.registry.save(sweep.checkpoint)
            sweep.poisoned.add(unit.key)
            self.stats.failures.append(
                UnitFailure(
                    unit.key, unit.server_id, bucket.value, detail, attempt
                )
            )
            if sweep.progress:
                sweep.progress(
                    f"[pool] {unit.key} poisoned after {attempt} "
                    f"attempts ({bucket.value}): {detail}"
                )
        else:
            self.pending.appendleft(unit)
            self.stats.reassignments += 1
            if sweep.progress:
                sweep.progress(
                    f"[pool] {unit.key} reassigned after "
                    f"{bucket.value}: {detail}"
                )

    def _contain_worker_loss(self, handle, bucket, detail):
        """A busy worker is gone; rescue or requeue its in-flight unit."""
        unit = handle.unit
        handle.release(killed=True)
        if unit is None or unit.key in self.sweep.completed:
            return
        if self.spool.has(unit.key):
            # The payload landed before the worker died; only the
            # acknowledgement was lost.
            self.sweep.completed.add(unit.key)
            return
        self._contain(unit, bucket, detail)

    # -- supervision loop ------------------------------------------------------

    def _handle_message(self, message):
        kind, worker_id = message[0], message[1]
        handle = self.workers.get(worker_id)
        if kind == "done":
            unit_key = message[2]
            if self.sweep.collector is not None and len(message) > 3:
                self.sweep.collector.collect(unit_key, message[3])
            if handle is not None and handle.unit is not None \
                    and handle.unit.key == unit_key:
                handle.units_done += 1
                handle.release()
            self.sweep.unit_done(unit_key)
        elif kind == "failed":
            unit_key, bucket_value, detail = message[2], message[3], message[4]
            if handle is not None and handle.unit is not None \
                    and handle.unit.key == unit_key:
                unit = handle.unit
                handle.release()
                self._contain(unit, TriageBucket(bucket_value), detail)

    def _drain_conn(self, handle):
        """Deliver whatever a worker managed to send before anything else."""
        while True:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                return
            self._handle_message(message)

    def _reap_dead(self):
        for handle in list(self.workers.values()):
            if handle.process.is_alive():
                continue
            exitcode = handle.process.exitcode
            handle.process.join(0.1)
            # A final acknowledgement may still sit in the pipe — a
            # worker that died between sending "done" and getting the
            # next unit must not have its finished unit contained.
            self._drain_conn(handle)
            self.stats.worker_deaths += 1
            handle.outcome = "died"
            if handle.busy:
                self._contain_worker_loss(
                    handle,
                    TriageBucket.TOOL_INTERNAL,
                    f"worker {handle.id} died with exit code {exitcode} "
                    f"mid-unit",
                )
            self._discard(handle)

    def _enforce_watchdogs(self):
        now = time.monotonic()
        for handle in list(self.workers.values()):
            if not handle.busy or not handle.process.is_alive():
                continue
            elapsed = now - handle.started_at
            heartbeat_age = now - handle.heartbeat.value
            if elapsed > self.pool.watchdog_seconds:
                self.stats.watchdog_kills += 1
                bucket, detail = TriageBucket.TIMEOUT, (
                    f"unit exceeded the {self.pool.watchdog_seconds:g}s "
                    f"wall-clock watchdog; worker {handle.id} SIGKILLed"
                )
            elif heartbeat_age > HEARTBEAT_TIMEOUT_SECONDS:
                self.stats.heartbeat_kills += 1
                bucket, detail = TriageBucket.TIMEOUT, (
                    f"worker {handle.id} heartbeat silent for "
                    f"{heartbeat_age:.1f}s; SIGKILLed"
                )
            else:
                continue
            self._kill(handle)
            self._drain_conn(handle)
            self.stats.worker_deaths += 1
            handle.outcome = "killed"
            self._contain_worker_loss(handle, bucket, detail)
            self._discard(handle)

    def _pick_unit(self, handle):
        """Affinity-first scheduling: deployments are the expensive part.

        Each worker keeps the deployment of the server it last ran, so
        a unit lands on (1) the worker that holds its server, else (2)
        a server no live worker holds — spreading deployments instead
        of piling every worker onto the canonical-order head — else (3)
        the queue head.  Purely a wall-clock optimisation: the merge is
        canonical-order, so any choice yields the same bytes.
        """
        held = self.affinity.get(handle.id)
        for index, unit in enumerate(self.pending):
            if unit.server_id == held:
                del self.pending[index]
                return unit
        owned = set(self.affinity.values())
        for index, unit in enumerate(self.pending):
            if unit.server_id not in owned:
                del self.pending[index]
                return unit
        return self.pending.popleft()

    def _assign_pending(self):
        sweep = self.sweep
        for handle in self.workers.values():
            if not self.pending:
                return
            if handle.busy or not handle.process.is_alive():
                continue
            unit = self._pick_unit(handle)
            if unit.key in sweep.completed or unit.key in sweep.poisoned:
                continue
            self.affinity[handle.id] = unit.server_id
            handle.assign(unit)

    def _replenish_workers(self):
        busy = sum(1 for handle in self.workers.values() if handle.busy)
        desired = min(self.pool.workers, len(self.pending) + busy)
        while len(self.workers) < desired:
            self._spawn()

    def _heartbeat(self, force=False):
        now = time.monotonic()
        worker_rows = []
        for handle in self.workers.values():
            busy = handle.busy
            worker_rows.append({
                "worker": handle.id,
                "state": "busy" if busy else "idle",
                "unit": handle.unit.key if busy else None,
                "server": handle.unit.server_id if busy else None,
                "busy_seconds": (
                    round(now - handle.started_at, 1)
                    if busy and handle.started_at is not None else 0.0
                ),
            })
        self.sweep.heartbeat(worker_rows, force=force)

    def run(self):
        completed_seen = len(self.sweep.completed)
        try:
            while self.pending or any(
                handle.busy for handle in self.workers.values()
            ):
                self._replenish_workers()
                self._assign_pending()
                conns = {
                    handle.conn: handle
                    for handle in self.workers.values()
                }
                if conns:
                    # A dead worker's pipe reports ready (EOF) too, so
                    # this wait never blocks past a crash; recv errors
                    # are resolved by the reap below.
                    ready = multiprocessing.connection.wait(
                        list(conns), timeout=POLL_SECONDS
                    )
                    for conn in ready:
                        self._drain_conn(conns[conn])
                else:
                    time.sleep(POLL_SECONDS)
                self._reap_dead()
                self._enforce_watchdogs()
                self._heartbeat(
                    force=len(self.sweep.completed) != completed_seen
                )
                completed_seen = len(self.sweep.completed)
            self.shutdown()
        except BaseException:
            # Interrupt or supervisor bug: the quarantine registry is
            # already durable (saved at each poisoning) and every
            # finished unit is on disk, so just stop the fleet.
            self.shutdown(force=True)
            raise


def run_pool(sweep, pool):
    """The engine's ``workers >= 2`` path: run, then yield in canonical order.

    Runs every pending unit of the planned ``sweep`` under the
    supervisor, then yields ``(unit, payload)`` for each completed,
    unpoisoned unit, read back from the shard store one at a time.  The
    checkpoint is the shard store when there is one; otherwise a
    temporary spool directory plays that role until the generator is
    closed.
    """
    if sweep.checkpoint is not None:
        spool, owns_spool = sweep.checkpoint, False
    else:
        spool_dir = tempfile.mkdtemp(prefix="wsinterop-shards-")
        spool, owns_spool = CampaignCheckpoint(spool_dir), True
    try:
        _Supervisor(sweep, pool, spool).run()
        for unit in sweep.units:
            if unit.key in sweep.completed and unit.key not in sweep.poisoned:
                yield unit, spool.load(unit.key)
    finally:
        if owns_spool:
            shutil.rmtree(spool.directory, ignore_errors=True)
