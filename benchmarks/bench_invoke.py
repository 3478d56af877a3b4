"""Step-4 invocation extension — round-trip fidelity over live proxies.

Sweeps schema-guided payload classes through every surviving
(server, service, client) cell's real proxy → envelope → transport →
echo path and checks the claims the extension exists to make
observable: triage is total (zero unclassified round trips), the
lossless path dominates the conforming corpus slice, and every payload
class actually executes.
"""

from conftest import print_rows

from repro.core import CampaignConfig
from repro.invoke import InvocationCampaign, InvocationCampaignConfig

#: payload seed, recorded in BENCH_invoke.json
BENCH_SEED = 20140622


def test_invoke_sweep(benchmark):
    config = InvocationCampaignConfig(
        base=CampaignConfig(),
        seed=BENCH_SEED,
        sample_per_server=6,
    )
    campaign = InvocationCampaign(config)
    result = benchmark.pedantic(campaign.run, rounds=1, iterations=1)

    rows = []
    for payload_class in result.payload_classes:
        cells = [
            cell for key, cell in result.cells.items() if key[2] == payload_class
        ]
        rows.append(
            (
                payload_class,
                sum(cell.payloads for cell in cells),
                sum(cell.lossless for cell in cells),
                sum(cell.coerced for cell in cells),
                sum(cell.corrupted for cell in cells),
                sum(cell.fault for cell in cells),
                sum(cell.client_reject for cell in cells),
            )
        )
    print_rows(
        "Round-trip fidelity per payload class (live proxy echo path)",
        ("Class", "Sent", "Lossless", "Coerced", "Corrupt", "Fault", "Reject"),
        rows,
    )
    totals = result.totals()
    print()
    print(f"totals: {totals}")

    assert totals["payloads"] >= 300
    assert totals["unclassified"] == 0
    # nil fires only where the sampled slice has nillable fields, so
    # demand broad but not universal class coverage.
    assert sum(1 for row in rows if row[1] > 0) >= 4
