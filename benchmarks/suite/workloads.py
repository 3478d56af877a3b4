"""The benchmark's three workloads: their command lines and output checks.

Each workload is a closed loop with one driving client, the sweep
itself, and runs serially on one CPU.  A workload names the
``wsinterop`` arguments of one timed run, the preparation scale its
set-up probe replays, and how to read the cell count and the
timing-free canonical digest back from the run's saved output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

DEFAULT_SEED = 20140622

#: Canonical digests at ``DEFAULT_SEED``.  ``paper-run`` takes no seed,
#: so its digest must hold at every seed.
PINNED_DIGESTS = {
    "paper-run": "a9c18ea1be8ca1f282efd05ff0a6bbc1e8b2d51d66ee3e08c0d37ae1aa6928e3",
    "invoke-wire": "ea88fe5f0c3234b90ea04dca131a063f31ea73d7cc771b0f524e64aba61e8b22",
    "fuzz-corrupt": "0a823e97a6d546d97ff70dc1abc3ae105ee532a2e4b61811a50cfaba5e82dc89",
}


@dataclass(frozen=True)
class Outcome:
    """What one run produced: cells, digest, and every failed check."""

    cells: int
    digest: str
    problems: tuple

    @property
    def ok(self):
        return not self.problems


class Workload:
    name = ""
    #: ``"paper"`` or ``"quick"``: the corpora the set-up probe builds.
    scale = "quick"
    seeded = True

    def argv(self, seed, out):
        raise NotImplementedError

    def inspect(self, out):
        """``(cells, digest, problems)`` read back from a run's output."""
        raise NotImplementedError

    def check(self, out, exit_code, seed):
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        try:
            cells, digest, found = self.inspect(out)
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(0, "", tuple(problems) + (f"unreadable output: {exc}",))
        problems.extend(found)
        pinned = PINNED_DIGESTS[self.name]
        if (seed == DEFAULT_SEED or not self.seeded) and digest != pinned:
            problems.append(f"digest {digest} differs from the pinned {pinned}")
        return Outcome(cells, digest, tuple(problems))


def _canonical_digest(kind, result):
    from repro.core.canon import canonical_matrix, matrix_digest

    return matrix_digest(canonical_matrix(kind, result))


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class PaperRun(Workload):
    """``wsinterop run`` at paper scale, serial: 79,629 client tests."""

    name = "paper-run"
    scale = "paper"
    seeded = False

    def argv(self, seed, out):
        return ["run", "--save", str(out / "result.json")]

    def inspect(self, out):
        from repro.core.store import load_result

        result = load_result(out / "result.json")
        return result.totals()["tests"], _canonical_digest("run", result), []


class InvokeWire(Workload):
    """Step-4 echo round trips over real loopback sockets."""

    name = "invoke-wire"

    def argv(self, seed, out):
        return ["invoke", "--quick", "--transport", "wire", "--sample", "8",
                "--payloads", "4", "--seed", str(seed),
                "--json", str(out / "result.json")]

    def inspect(self, out):
        from repro.invoke.campaign import invoke_result_from_obj

        result = invoke_result_from_obj(_read_json(out / "result.json"))
        totals = result.totals()
        problems = []
        if totals["unclassified"]:
            problems.append(f"{totals['unclassified']} unclassified invocations")
        return totals["payloads"], _canonical_digest("invoke", result), problems


class FuzzCorrupt(Workload):
    """Guarded client pipelines fed corrupted WSDLs."""

    name = "fuzz-corrupt"

    def argv(self, seed, out):
        return ["fuzz", "--quick", "--sample", "6", "--seed", str(seed),
                "--json", str(out / "result.json")]

    def inspect(self, out):
        from repro.faults.campaign import fuzz_result_from_obj

        result = fuzz_result_from_obj(_read_json(out / "result.json"))
        totals = result.totals()
        problems = []
        if totals["tool_internal"]:
            problems.append(f"{totals['tool_internal']} tool-internal errors")
        if result.aborted:
            problems.append("sweep aborted")
        return totals["mutants"], _canonical_digest("fuzz", result), problems


WORKLOADS = {
    workload.name: workload
    for workload in (PaperRun(), InvokeWire(), FuzzCorrupt())
}
