"""Tests of the benchmark's output checks and of its CPU speed probe."""

import json
import time

import pytest

import run
import workloads
from speed import REFERENCE_S, SpeedProbe

QUICK_FUZZ = ["fuzz", "--quick", "--sample", "1", "--kinds", "truncation"]


def _flip_one_byte(digest):
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def test_one_flipped_digest_byte_fails_the_command(monkeypatch, capsys):
    fuzz = workloads.WORKLOADS["fuzz-corrupt"]
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "warm_up", lambda: None)
    monkeypatch.setattr(run, "pin", lambda: -1)  # leave pytest unpinned
    monkeypatch.setattr(
        type(fuzz), "argv",
        lambda self, seed, out: QUICK_FUZZ + [
            "--seed", str(seed), "--json", str(out / "result.json")],
    )
    command = ["--workload", "fuzz-corrupt", "--seconds", "0", "--trace", "0"]

    monkeypatch.setitem(workloads.PINNED_DIGESTS, "fuzz-corrupt", "")
    assert run.main(command) == 1
    results = run.BUILD / (
        f"results-fuzz-corrupt-seed{workloads.DEFAULT_SEED}-trace0.json")
    records = json.loads(results.read_text(encoding="utf-8"))["runs"]
    digest = next(record["digest"] for record in records
                  if record["run"] == "run-0")
    capsys.readouterr()

    monkeypatch.setitem(workloads.PINNED_DIGESTS, "fuzz-corrupt", digest)
    assert run.main(command) == 0
    passed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert passed["correct"] and passed["failed"] == 0
    assert set(passed["metrics"]) == {"cells_per_s", "setup_s", "peak_rss_mb"}

    monkeypatch.setitem(
        workloads.PINNED_DIGESTS, "fuzz-corrupt", _flip_one_byte(digest))
    assert run.main(command) == 1
    failed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not failed["correct"]
    assert failed["failed"] == failed["attempted"] > 0


def test_reference_seconds_scale_by_the_mean_probe_speed():
    probe = SpeedProbe()
    # Probes at t = 1, 2, 3, 4: the CPU runs at full, half, half and
    # full reference speed.
    probe.samples = [(1.0, REFERENCE_S), (2.0, 2 * REFERENCE_S),
                     (3.0, 2 * REFERENCE_S), (4.0, REFERENCE_S)]

    assert probe.reference_seconds(0.5, 4.5) == pytest.approx(4.0 * 0.75)
    assert probe.reference_seconds(1.5, 3.5) == pytest.approx(2.0 * 0.5)
    # No probe inside: the latest one before the interval's end.
    assert probe.reference_seconds(4.2, 4.4) == pytest.approx(0.2)
    assert probe.reference_seconds(2.2, 2.4) == pytest.approx(0.2 * 0.5)
    # No probe yet: the wall time itself.
    assert probe.reference_seconds(0.0, 0.5) == pytest.approx(0.5)


def test_the_probe_samples_while_entered_and_stops_on_exit():
    entered = time.monotonic()
    with SpeedProbe(period=0.005) as probe:
        time.sleep(0.5)
    taken = len(probe.samples)
    time.sleep(0.05)
    assert taken > 0 and len(probe.samples) == taken
    assert probe._process.returncode is not None
    assert not probe._reader.is_alive()
    assert all(entered < start < time.monotonic() and seconds > 0
               for start, seconds in probe.samples)
