"""The sampled sweeps' CI smokes, checked in-process against their pins.

Each smoke is the command CI runs; ``tests/data/<pin>.sha256`` holds the
sha256 of the JSON it writes and of what it prints (the matrix, the
per-client summary, the quarantine and gate tables and the totals).
CI checks the same files with ``sha256sum -c``.
"""

import contextlib
import hashlib
import io
import os

import pytest

from repro.cli import main

_DATA = os.path.join(os.path.dirname(__file__), "..", "data")

#: ``{smoke: argv}``, the CI smoke commands without ``--json``.
SMOKES = {
    "resilience": [
        "resilience", "--quick", "--sample", "2",
        "--kinds", "http-503,connection-refused", "--rates", "0.4",
        "--seed", "7",
    ],
    "fuzz": ["fuzz", "--quick", "--sample", "2", "--seed", "7"],
    "invoke": ["invoke", "--quick", "--sample", "2", "--seed", "7"],
}

#: ``(smoke, output) -> pin file``.
PINS = {
    ("resilience", "json"): "resilience_smoke",
    ("resilience", "stdout"): "resilience_stdout",
    ("fuzz", "json"): "fuzz_smoke",
    ("fuzz", "stdout"): "fuzz_stdout",
    ("invoke", "json"): "invoke_smoke",
    ("invoke", "stdout"): "invoke_stdout",
}


def _pinned(name):
    with open(os.path.join(_DATA, f"{name}.sha256"), encoding="utf-8") as handle:
        return handle.read().strip()


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """``{(smoke, output): bytes}`` from one run of each smoke."""
    outputs = {}
    for smoke, argv in SMOKES.items():
        path = tmp_path_factory.mktemp(smoke) / f"{smoke}.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv + ["--json", str(path)])
        assert code == 0, stderr.getvalue()
        outputs[(smoke, "json")] = path.read_bytes()
        outputs[(smoke, "stdout")] = stdout.getvalue().encode("utf-8")
    return outputs


@pytest.mark.parametrize(
    "smoke, output", sorted(PINS), ids=[f"{s}-{o}" for s, o in sorted(PINS)]
)
def test_smoke_matches_the_pinned_digest(smoke_outputs, smoke, output):
    digest = hashlib.sha256(smoke_outputs[(smoke, output)]).hexdigest()
    assert digest == _pinned(PINS[(smoke, output)])
