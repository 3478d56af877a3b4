"""Corruption-fuzz extension — crash triage over hostile descriptions.

Sweeps all seven mutation kinds over a sampled slice of the corpus with
every lifecycle step guarded, and checks the claims the extension
exists to make observable: the harness is total (nothing lands in the
tool-internal bucket), corruption actually bites (plenty of classified
parser crashes), and the resource operators (deep nesting, huge text)
trip the parser budgets rather than the process.
"""

from conftest import print_rows

from repro.core import CampaignConfig
from repro.faults import FuzzCampaign, FuzzCampaignConfig, MutationKind

#: mutation seed, recorded in BENCH_fuzz.json
BENCH_SEED = 20140622


def test_fuzz_sweep(benchmark):
    config = FuzzCampaignConfig(
        base=CampaignConfig(),
        seed=20140622,
        intensities=(0.3, 0.8),
        mutants_per_config=1,
        sample_per_server=6,
    )
    campaign = FuzzCampaign(config)
    result = benchmark.pedantic(campaign.run, rounds=1, iterations=1)

    rows = []
    for kind in result.mutation_kinds:
        cells = [cell for key, cell in result.cells.items() if key[2] == kind]
        totals = {
            "mutants": sum(cell.mutants for cell in cells),
            "clean": sum(cell.survived + cell.rejected for cell in cells),
            "parse": sum(cell.parser_crash for cell in cells),
            "resource": sum(cell.resource_blowup for cell in cells),
            "internal": sum(cell.tool_internal for cell in cells),
        }
        rows.append(
            (
                kind,
                totals["mutants"],
                totals["clean"],
                totals["parse"],
                totals["resource"],
                totals["internal"],
            )
        )
    print_rows(
        "Crash triage per mutation kind (guarded wsdl2code pipeline)",
        ("Mutation", "Mutants", "Clean", "Parse", "Resrc", "Intrn"),
        rows,
    )
    totals = result.totals()
    print()
    print(f"totals: {totals}")

    assert totals["mutants"] > 0
    # Totality: nothing escapes unclassified, nothing gets quarantined.
    assert totals["tool_internal"] == 0
    assert totals["quarantined"] == 0
    assert not result.aborted
    # Corruption bites: classified parser rejections dominate somewhere.
    assert totals["parser_crash"] > 0

    # The resource operators trip parser budgets, not the process.
    def blowups(kind):
        return sum(
            cell.resource_blowup
            for key, cell in result.cells.items() if key[2] == kind
        )

    assert blowups(MutationKind.DEEP_NESTING.value) > 0
    assert blowups(MutationKind.HUGE_TEXT.value) > 0
