"""Markdown experiment report: the EXPERIMENTS.md generator.

``render_experiments_markdown(result)`` produces the full paper-vs-
measured record for a campaign run — corpus counts, Fig. 4, all Table
III cells, headline findings and the reconstruction notes.  The shipped
``EXPERIMENTS.md`` is exactly this output; regenerate it with
``wsinterop experiments -o EXPERIMENTS.md``.
"""

from __future__ import annotations

from repro.core.analysis import headline_numbers
from repro.data import PAPER_FIG4, PAPER_HEADLINES, PAPER_TABLE3
from repro.data.paper_results import PAPER_FIG4_AS_PRINTED, RECONSTRUCTION_NOTES

_SERVER_LABELS = {
    "metro": "Metro",
    "jbossws": "JBossWS CXF",
    "wcf": "WCF .NET",
}


def _match(paper, measured):
    return "yes" if paper == measured else "NO"


def render_experiments_markdown(result, elapsed_seconds=None):
    """Render the full paper-vs-measured report for ``result``."""
    headlines = headline_numbers(result)
    lines = []
    w = lines.append

    w("# EXPERIMENTS — paper vs measured")
    w("")
    w("Every number below is produced by `Campaign(CampaignConfig()).run()` —")
    w("the paper-scale campaign (22,024 services, 79,629 tests)"
      + (f", which ran in {elapsed_seconds:.1f}s on this machine."
         if elapsed_seconds is not None else "."))
    w("Regenerate it with `wsinterop experiments -o EXPERIMENTS.md`; the tier-1")
    w("tests named in each heading check its rows.")
    w("")
    w("“Paper” columns cite the self-consistent reconstruction in")
    w("`repro/data/paper_results.py`; the paper's own Fig. 4, Table III and body")
    w("text disagree in a few aggregates — see the notes at the end.")
    w("")

    # -- corpus ------------------------------------------------------------
    w("## Corpus and scale (§III) — `test_paper_numbers.py::TestCorpusScale`, "
      "`test_catalog_calibration.py`")
    w("")
    w("| Metric | Paper | Measured | Match |")
    w("|---|---:|---:|:--|")
    corpus_rows = [
        ("java_classes", PAPER_HEADLINES["java_classes"],
         result.servers["metro"].services_total),
        ("dotnet_classes", PAPER_HEADLINES["dotnet_classes"],
         result.servers["wcf"].services_total),
        ("services_created", PAPER_HEADLINES["services_created"],
         headlines["services_created"]),
        ("deployed_metro", PAPER_HEADLINES["deployed_metro"],
         result.servers["metro"].deployed),
        ("deployed_jbossws", PAPER_HEADLINES["deployed_jbossws"],
         result.servers["jbossws"].deployed),
        ("deployed_wcf", PAPER_HEADLINES["deployed_wcf"],
         result.servers["wcf"].deployed),
        ("services_deployed", PAPER_HEADLINES["services_deployed"],
         headlines["services_deployed"]),
        ("services_refused", PAPER_HEADLINES["services_refused"],
         headlines["services_refused"]),
        ("tests", PAPER_HEADLINES["tests"], headlines["tests"]),
    ]
    for name, paper, measured in corpus_rows:
        w(f"| {name} | {paper} | {measured} | {_match(paper, measured)} |")
    w("")

    # -- Fig. 4 ------------------------------------------------------------
    w("## Fig. 4 — per-server overview — `test_paper_numbers.py::TestFig4`")
    w("")
    w("| Server | Metric | Paper (recon.) | Paper (printed) | Measured | Match |")
    w("|---|---|---:|---:|---:|:--|")
    for server_id in result.server_ids:
        series = result.fig4_series(server_id)
        for metric, paper in PAPER_FIG4[server_id].items():
            printed = PAPER_FIG4_AS_PRINTED[server_id][metric]
            measured = series[metric]
            w(f"| {server_id} | {metric} | {paper} | {printed} | {measured} "
              f"| {_match(paper, measured)} |")
    w("")

    # -- Table III ----------------------------------------------------------
    w("## Table III — per-combination cells — "
      "`test_paper_numbers.py::TestTable3`")
    w("")
    w("Cells are `generation warnings / generation errors / compilation")
    w("warnings / compilation errors`, counted in tests. `-` marks platforms")
    w("without a compilation step (instantiation is checked at generation).")
    w("")
    for server_id in result.server_ids:
        report = result.servers[server_id]
        w(f"### {_SERVER_LABELS.get(server_id, server_id)} "
          f"({report.deployed:,} services)")
        w("")
        w("| Client | Paper | Measured | Match |")
        w("|---|---|---|:--|")
        for client_id, expected in PAPER_TABLE3[server_id].items():
            cell = result.cell(server_id, client_id).as_row()
            expected_norm = tuple(0 if v is None else v for v in expected)
            paper_text = "/".join("-" if v is None else str(v) for v in expected)
            measured_text = "/".join(str(v) for v in cell)
            w(f"| {client_id} | {paper_text} | {measured_text} "
              f"| {_match(expected_norm, cell)} |")
        w("")

    # -- headlines ----------------------------------------------------------
    w("## Headline findings (§IV/§V) — `test_paper_numbers.py::TestHeadlines`")
    w("")
    w("| Metric | Paper | Measured | Match |")
    w("|---|---:|---:|:--|")
    axis1_errors = (
        result.cell("metro", "axis1").comp_error_tests
        + result.cell("jbossws", "axis1").comp_error_tests
    )
    headline_rows = [
        ("WS-I-warned services (2+4+80)",
         PAPER_HEADLINES["sdg_warnings"], headlines["wsi_warned_services"]),
        ("compilation warnings",
         PAPER_HEADLINES["comp_warning_tests"], headlines["comp_warning_tests"]),
        ("compilation errors",
         PAPER_HEADLINES["comp_error_tests"], headlines["comp_error_tests"]),
        ("same-framework error cases",
         PAPER_HEADLINES["same_framework_error_tests"],
         headlines["same_framework_error_tests"]),
        ("Axis1 throwable compile errors (477+412)",
         PAPER_HEADLINES["axis1_throwable_comp_errors"], axis1_errors),
        ("WS-I-warned services with later errors", 82,
         headlines["wsi_warned_with_errors"]),
        ("WS-I-warned but error-free services",
         PAPER_HEADLINES["wsi_error_free_services"],
         headlines["wsi_error_free_services"]),
    ]
    for name, paper, measured in headline_rows:
        w(f"| {name} | {paper} | {measured} | {_match(paper, measured)} |")
    paper_errors = PAPER_HEADLINES["error_situations"]
    measured_errors = headlines["error_situations"]
    tolerance = (
        "~ (documented)"
        if abs(measured_errors - paper_errors) / paper_errors < 0.01
        else "NO"
    )
    w(f"| total error situations | {paper_errors} | {measured_errors} "
      f"| {tolerance} |")
    w(f"| WS-I predictive ratio | 0.953 "
      f"| {headlines['wsi_predictive_ratio']:.3f} "
      f"| {'yes' if abs(headlines['wsi_predictive_ratio'] - 0.953) < 0.005 else 'NO'} |")
    w("")

    # -- extension ------------------------------------------------------------
    w("## Extension: Communication & Execution steps (paper §V future work)")
    w("")
    w("`repro.runtime` implements steps 4–5 over an in-memory SOAP transport,")
    w("and `repro.core.extended.LifecycleCampaign` runs the full five-step")
    w("lifecycle at campaign scale.  The integration suite drives all 11")
    w("client frameworks against clean services on all 3 servers: every one")
    w("completes the echo round trip; pathological services fail at exactly")
    w("the step the three-step campaign predicts")
    w("(see `examples/full_lifecycle_demo.py`).")
    w("")

    # -- notes --------------------------------------------------------------
    w("## Reconstruction notes (paper-internal inconsistencies)")
    w("")
    w("```")
    w(RECONSTRUCTION_NOTES.rstrip())
    w("```")
    w("")
    return "\n".join(lines)
