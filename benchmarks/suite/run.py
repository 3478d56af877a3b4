"""Benchmark of record for the wsinterop reproduction.

Runs one workload from the root of a checkout and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``::

    python3 benchmarks/suite/run.py --workload paper-run --seed 7 \\
        --seconds 30 --trace 0

The benchmark pins itself and every process it starts to one CPU and
keeps that CPU busy for a few seconds before it times anything.
``--trace 0`` first times the set-up probe (``prepare.py``) several
times, then repeats the workload as a fresh ``python -m repro``
process, untraced, until ``--seconds`` are spent; it reports each
end-to-end metric as the median over the repeats.  Times are rescaled
to a reference CPU speed measured while they run (``speed.py``).
``--trace 1`` runs the workload once untraced and once under the layer
timer (``layers.py``) and reports the per-layer metrics.  Every run's
output is checked; a failed check counts the run's cells as failed and
makes the command exit 1.  A JSON file with every raw value and the
environment is written under ``.bench_build/suite/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from layers import layer_metrics, self_total, unit_of
from speed import SpeedProbe
from workloads import DEFAULT_SEED, WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "suite"

#: Set-up probes per ``--trace 0`` run; their median is ``setup_s``.
SETUP_SAMPLES = 11
#: Wall-clock budget of one invocation; every child is killed at its end.
BUDGET_S = 170.0
#: Busy seconds before the first timed process.  A vCPU the host has
#: let idle runs at about half speed for its first two to three seconds
#: of load.
WARM_UP_S = 3.0


def pin():
    """Confine this process, and every process it starts, to one CPU.

    Takes the highest-numbered CPU it may use.  On a small VM a thread
    woken on another vCPU waits for the host to schedule that vCPU, so
    a serial sweep whose guard and wire-server threads hand off to each
    other runs up to 1.7 times slower, and far less steadily, when its
    threads may migrate.  Returns the CPU kept.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def warm_up(seconds=WARM_UP_S):
    """Keep the pinned CPU busy for ``seconds``."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@dataclass(frozen=True)
class Sample:
    """One child process as the kernel accounted it."""

    wall_s: float
    #: ``wall_s`` rescaled to the reference CPU speed
    ref_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(cmd, env, log_path, timeout, probe):
    """Run ``cmd`` in its own session; wall, user+sys CPU and peak RSS.

    ``os.wait4`` accounts the child together with every descendant it
    waited for.  The whole session is killed at ``timeout`` and once the
    child has exited, so no process outlives the call.
    """
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        watchdog = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return Sample(ended - started, probe.reference_seconds(started, ended),
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def _log_tail(path, lines=5):
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return " | ".join(text.strip().splitlines()[-lines:])


class Run:
    """One invocation: its scratch directory, environment and deadline."""

    def __init__(self, workload, seed, work, probe):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.probe = probe
        self.deadline = time.monotonic() + BUDGET_S
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        self.env = dict(os.environ)
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + inherited if inherited else "")
        self.env["TMPDIR"] = str(tmp)
        self.problems = []
        #: every timed process: its raw sample, and for workload runs
        #: the cell count and digest
        self.records = []

    def remaining(self):
        return self.deadline - time.monotonic()

    def process(self, cmd, log_path):
        return run_process(cmd, self.env, log_path, self.remaining(),
                           self.probe)

    def repeat(self, name, traced=False):
        """One run of the workload; ``(Sample, output directory)``."""
        out = self.work / name
        out.mkdir()
        argv = self.workload.argv(self.seed, out)
        if traced:
            cmd = [sys.executable, str(SUITE / "layers.py"),
                   "--stats", str(out / "stats.json"), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        return self.process(cmd, out / "log.txt"), out

    def check(self, sample, out):
        """Check one run's output; its :class:`Outcome`.

        Called only after every timed run: reading a result back grows
        this process, and ``wait4`` reports a child's peak RSS as at
        least that of the process that forked it.
        """
        outcome = self.workload.check(out, sample.exit_code, self.seed)
        self.records.append({
            "run": out.name, **asdict(sample),
            "cells": outcome.cells, "digest": outcome.digest,
        })
        for problem in outcome.problems:
            self.problems.append(f"{out.name}: {problem}")
        if not outcome.ok:
            self.problems.append(f"{out.name} log: {_log_tail(out / 'log.txt')}")
        return outcome


def _summary(values, unit):
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def measure(run, seconds):
    """``--trace 0``: set-up probes, then repeats until ``seconds`` pass."""
    prepare = [sys.executable, str(SUITE / "prepare.py"), run.workload.scale]
    warm_up()
    setup = []
    for index in range(SETUP_SAMPLES):
        sample = run.process(prepare, run.work / "prepare.log")
        run.records.append({"run": f"prepare-{index}", **asdict(sample)})
        if sample.exit_code != 0:
            run.problems.append(
                f"set-up probe exited {sample.exit_code}: "
                f"{_log_tail(run.work / 'prepare.log')}")
            break
        setup.append(sample)
    runs = []
    started = time.monotonic()
    while not run.problems:
        sample, out = run.repeat(f"run-{len(runs)}")
        runs.append((sample, out))
        spent = time.monotonic() - started
        if (sample.exit_code != 0
                or spent + sample.wall_s > min(seconds, run.remaining() - 10.0)):
            break
    repeats = [(sample, run.check(sample, out)) for sample, out in runs]
    digests = {outcome.digest for _, outcome in repeats}
    if len(digests) > 1:
        run.problems.append(f"repeats disagree: digests {sorted(digests)}")
    cells = max((outcome.cells for _, outcome in repeats), default=0) or 1
    metrics = {}
    if repeats:
        metrics["cells_per_s"] = _summary(
            [cells / sample.ref_s for sample, _ in repeats], "cells/s")
    if setup:
        metrics["setup_s"] = _summary([sample.ref_s for sample in setup], "s")
    if repeats:
        metrics["peak_rss_mb"] = _summary(
            [sample.rss_mb for sample, _ in repeats], "MB")
    unscaled = {
        "cells_per_s": [cells / sample.wall_s for sample, _ in repeats],
        "setup_s": [sample.wall_s for sample in setup],
    }
    return cells * max(len(repeats), 1), metrics, unscaled


def trace(run):
    """``--trace 1``: one untraced and one traced run of the workload."""
    warm_up()
    plain, plain_out = run.repeat("run-0")
    traced, traced_out = run.repeat("traced-0", traced=True)
    plain_outcome = run.check(plain, plain_out)
    traced_outcome = run.check(traced, traced_out)
    cells = plain_outcome.cells or 1
    if traced_outcome.digest != plain_outcome.digest:
        run.problems.append("the traced run's digest differs from the untraced one")
    if traced.exit_code != 0:
        return cells, {}, None
    stats = json.loads((traced_out / "stats.json").read_text(encoding="utf-8"))
    overhead = traced.ref_s / plain.ref_s - 1.0
    # The layer timer's clock is the traced process's wall clock.
    scale = traced.ref_s / traced.wall_s
    metrics = {}
    for name, value in layer_metrics(stats["table"], overhead).items():
        unit = unit_of(name)
        metrics[name] = _summary([value * scale if unit == "s" else value], unit)
    layers = {
        "traced_wall_s": stats["wall_s"],
        "traced_process_wall_s": traced.wall_s,
        "untraced_process_wall_s": plain.wall_s,
        "reference_scale": scale,
        "table": dict(stats["table"], self_sum_s=self_total(stats["table"])),
    }
    return cells, metrics, layers


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _print_table(result):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  correct {result['correct']}  "
          f"cpu {result['cpu']}")
    print(f"{'metric':38} {'unit':8} {'median':>12} {'min':>12} "
          f"{'max':>12} {'n':>3}")
    for name, metric in result["metrics"].items():
        print(f"{name:38} {metric['unit']:8} {metric['median']:12.5g} "
              f"{metric['min']:12.5g} {metric['max']:12.5g} "
              f"{len(metric['values']):3d}")
    for name, values in (result.get("unscaled") or {}).items():
        if values:
            print(f"{name + ' (wall clock)':38} {'':8} "
                  f"{statistics.median(values):12.5g} {min(values):12.5g} "
                  f"{max(values):12.5g} {len(values):3d}")
    if result.get("layers"):
        table = result["layers"]["table"]
        whole = table["self_sum_s"] or 1.0
        print(f"\nself times sum to {table['self_sum_s']:.3f} s (wall clock), "
              f"misnested {table['misnested']}")
        print(f"{'layer':30} {'calls':>9} {'total_s':>9} {'self_s':>9} "
              f"{'self%':>6}")
        for layer, row in sorted(table["rows"].items(),
                                 key=lambda item: -item[1]["self_s"]):
            print(f"{layer:30} {row['calls']:9d} {row['total_s']:9.3f} "
                  f"{row['self_s']:9.3f} "
                  f"{100.0 * row['self_s'] / whole:6.1f}")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long --trace 0 repeats the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Unwind on SIGTERM too, so every child and the probe are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    nproc = len(os.sched_getaffinity(0))
    cpu = pin()
    work = BUILD / f"{args.workload}-{args.seed}-{os.getpid()}"
    load_before = os.getloadavg()[0]
    unscaled = None
    try:
        with SpeedProbe() as probe:
            run = Run(WORKLOADS[args.workload], args.seed, work, probe)
            if args.trace:
                attempted, metrics, layers = trace(run)
            else:
                attempted, metrics, unscaled = measure(run, args.seconds)
                layers = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not run.problems
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_rev": _git_rev(),
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "probe_samples": len(probe.samples),
        "probe_median_s": statistics.median(
            seconds for _, seconds in probe.samples) if probe.samples else None,
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "failed_frac": 0.0 if correct else 1.0,
        "problems": run.problems,
        "runs": run.records,
        "metrics": metrics,
        "unscaled": unscaled,
        "layers": layers,
    }
    results_path = BUILD / (
        f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    results_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    _print_table(result)
    print(f"results: {results_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["median"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
