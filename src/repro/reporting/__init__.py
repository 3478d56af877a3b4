"""Rendering of campaign results in the paper's shapes.

ASCII renderers for Tables I–III and Fig. 4, paper-vs-measured
comparison rows, and CSV/JSON export for downstream analysis.
"""

from repro.reporting.compare import comparison_rows, fig4_comparison, table3_comparison
from repro.reporting.experiments import render_experiments_markdown
from repro.reporting.export import result_to_json, table3_to_csv
from repro.reporting.figures import render_fig4
from repro.reporting.fuzz import (
    fuzz_to_json,
    render_fuzz_matrix,
    render_quarantine,
    render_triage_summary,
)
from repro.reporting.html import render_html_report
from repro.reporting.invoke import (
    invoke_to_json,
    render_fidelity_summary,
    render_gate_summary,
    render_invoke_matrix,
)
from repro.reporting.latex import render_fig4_latex, render_table3_latex
from repro.reporting.perf import (
    perf_diff_rows,
    perf_diff_to_json,
    render_perf_diff,
    render_perf_trend,
    render_timing_advisory,
    sparkline,
)
from repro.reporting.profile import (
    critical_path_rows,
    render_profile,
    slowest_services,
    stage_latency_rows,
    worker_utilization_rows,
)
from repro.reporting.regress import (
    drift_rows,
    regress_summary_rows,
    regress_to_json,
    render_accept_history,
    render_drift_entries,
    render_drilldown,
    render_regress_report,
    render_regress_summary,
)
from repro.reporting.resilience import (
    render_client_robustness,
    render_resilience_matrix,
    resilience_to_json,
)
from repro.reporting.supervision import (
    render_pool_summary,
    supervision_rows,
    supervision_to_json,
    worker_utilization_rows as pool_utilization_rows,
)
from repro.reporting.tables import (
    render_table,
    render_table1,
    render_table2,
    render_table3,
)

__all__ = [
    "comparison_rows",
    "fig4_comparison",
    "fuzz_to_json",
    "invoke_to_json",
    "render_fidelity_summary",
    "render_gate_summary",
    "render_invoke_matrix",
    "render_client_robustness",
    "render_experiments_markdown",
    "render_fig4",
    "render_fig4_latex",
    "render_fuzz_matrix",
    "render_html_report",
    "critical_path_rows",
    "perf_diff_rows",
    "perf_diff_to_json",
    "pool_utilization_rows",
    "render_perf_diff",
    "render_perf_trend",
    "render_pool_summary",
    "render_profile",
    "render_timing_advisory",
    "sparkline",
    "render_quarantine",
    "drift_rows",
    "regress_summary_rows",
    "regress_to_json",
    "render_accept_history",
    "render_drift_entries",
    "render_drilldown",
    "render_regress_report",
    "render_regress_summary",
    "render_resilience_matrix",
    "render_triage_summary",
    "slowest_services",
    "stage_latency_rows",
    "supervision_rows",
    "supervision_to_json",
    "worker_utilization_rows",
    "render_table",
    "resilience_to_json",
    "render_table3_latex",
    "render_table1",
    "render_table2",
    "render_table3",
    "result_to_json",
    "table3_comparison",
    "table3_to_csv",
]
