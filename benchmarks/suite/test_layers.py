"""Tests of the outside-in layer timer (run with ``pytest benchmarks/suite``)."""

import json
import sys
from pathlib import Path

import pytest

from layers import LayerTimer, layer_metrics, patched, self_total, unit_of

ROOT = Path(__file__).resolve().parents[2]
WRAPPER_CODE = LayerTimer().wrap(len, "probe").__code__


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _wrappers_left():
    """Every ``repro`` module or class attribute still bound to a wrapper."""
    left = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__code__", None) is WRAPPER_CODE:
                left.append(f"{name}.{attr}")
            if isinstance(value, type):
                for method, function in vars(value).items():
                    if getattr(function, "__code__", None) is WRAPPER_CODE:
                        left.append(f"{name}.{attr}.{method}")
    return left


def test_self_time_of_nested_calls_under_a_fake_clock():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0

    traced_inner = timer.wrap(inner, "inner")
    traced_outer = timer.wrap(outer, "outer")
    timer.start()
    traced_outer()
    clock.now += 0.5
    wall = timer.stop()

    rows = timer.table()["rows"]
    assert wall == 6.5
    assert rows["outer"] == {"calls": 1, "total_s": 6.0, "self_s": 4.0}
    assert rows["inner"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert rows["other"]["self_s"] == 0.5


def test_rows_plus_other_equal_the_wall_time():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)

    def tick(seconds):
        clock.now += seconds

    leaf = timer.wrap(tick, "leaf")

    def middle():
        tick(1.0)
        leaf(0.25)
        reentered(0.5)  # same layer: part of this call, not a new span

    reentered = timer.wrap(tick, "middle")
    traced_middle = timer.wrap(middle, "middle")
    timer.start()
    for _ in range(3):
        traced_middle()
        leaf(0.125)
        tick(0.0625)
    wall = timer.stop()

    table = timer.table()
    assert table["rows"]["middle"]["calls"] == 3
    assert table["rows"]["leaf"]["calls"] == 6
    assert self_total(table) == pytest.approx(wall)
    assert table["rows"]["other"]["self_s"] == pytest.approx(3 * 0.0625)


def test_an_interleaved_call_counts_as_misnested():
    timer = LayerTimer(clock=FakeClock())
    timer.start()
    first = timer.enter("a")
    second = timer.enter("b")
    timer.exit(first)  # "a" closes while "b" is still open
    timer.exit(second)
    timer.stop()
    assert timer.table()["misnested"] == 1


def test_guard_and_wire_server_threads_nest_in_one_round_trip():
    from repro.runtime.guard import GuardedStep, GuardLimits
    from repro.runtime.wire import WireTransport
    from repro.xmlcore import parser

    def echo(body, headers):
        parser.parse(body)  # runs on the wire-server thread
        return body

    timer = LayerTimer()
    timer.start()
    with patched(timer):
        transport = WireTransport()
        try:
            transport.register("/echo", echo)
            step = GuardedStep(
                "round-trip", lambda: transport.post("/echo", "<a>1</a>"),
                limits=GuardLimits(deadline_seconds=10.0),
            )
            verdict = step.run()  # the post runs on the guard's thread
        finally:
            transport.close()
    wall = timer.stop()

    assert verdict.ok and verdict.value.body == "<a>1</a>"
    table = timer.table()
    rows = table["rows"]
    assert table["misnested"] == 0
    for layer in ("runtime.guard", "runtime.wire.post",
                  "runtime.wire.connect", "xmlcore.parse"):
        assert rows[layer]["calls"] == 1, layer
    post = rows["runtime.wire.post"]
    assert post["total_s"] - post["self_s"] == pytest.approx(
        rows["xmlcore.parse"]["total_s"] + rows["runtime.wire.connect"]["total_s"]
    )
    guard = rows["runtime.guard"]
    assert guard["total_s"] - guard["self_s"] == pytest.approx(post["total_s"])
    assert self_total(table) == pytest.approx(wall)


def test_traced_quick_run_matches_untraced_and_every_patch_is_undone(tmp_path):
    from repro.cli import main
    from repro.core.canon import canonical_matrix, matrix_digest
    from repro.core.store import load_result

    def digest(path):
        return matrix_digest(canonical_matrix("run", load_result(path)))

    assert main(["run", "--quick", "--save", str(tmp_path / "plain.json")]) == 0
    assert _wrappers_left() == []
    timer = LayerTimer()
    timer.start()
    with patched(timer) as undo:
        assert main(["run", "--quick", "--save", str(tmp_path / "traced.json")]) == 0
        assert _wrappers_left() != []
    timer.stop()

    assert digest(tmp_path / "traced.json") == digest(tmp_path / "plain.json")
    assert undo and all(getattr(owner, name) is original
                        for owner, name, original in undo)
    assert _wrappers_left() == []
    assert timer.table()["rows"]["xmlcore.parse"]["calls"] > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(layer_metrics(LayerTimer().table(), overhead_frac=0.0))
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
