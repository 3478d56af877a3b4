"""``wsinterop`` — the study's assessment tool as a command line.

Mirrors the free tool the paper published alongside the study [22]:
run the campaign, inspect WSDLs and WS-I reports for individual
services, print the paper's tables, and export results.

Examples::

    wsinterop tables
    wsinterop corpus
    wsinterop run --quick
    wsinterop fuzz --quick --seed 7
    wsinterop report --json results.json
    wsinterop wsdl jbossws java.util.concurrent.Future
    wsinterop check metro java.text.SimpleDateFormat
    wsinterop lifecycle metro java.util.Date --client suds
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import signal
import sys
import time

from repro.appservers import container_for
from repro.core import Campaign, CampaignConfig
from repro.core.analysis import headline_numbers
from repro.core.store import StoreError
from repro.frameworks.registry import CLIENT_IDS, SERVER_IDS, client_framework
from repro.regress.diff import UnclassifiedDriftError
from repro.reporting import (
    comparison_rows,
    render_fig4,
    render_table,
    render_table1,
    render_table2,
    render_table3,
    result_to_json,
    table3_to_csv,
)
from repro.services import ServiceDefinition
from repro.typesystem import (
    QUICK_DOTNET_QUOTAS,
    QUICK_JAVA_QUOTAS,
    build_dotnet_catalog,
    build_java_catalog,
)
from repro.wsdl import read_wsdl_text
from repro.wsi import check_document


def _config_from(args):
    transport = getattr(args, "transport", "memory") or "memory"
    if getattr(args, "quick", False):
        return CampaignConfig(
            java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS,
            transport=transport,
        )
    return CampaignConfig(transport=transport)


def _progress(message):
    print(f"  {message}", file=sys.stderr)


def _checkpoint_from(args):
    if getattr(args, "checkpoint_dir", None):
        from repro.core.store import CampaignCheckpoint

        return CampaignCheckpoint(args.checkpoint_dir)
    return None


@contextlib.contextmanager
def flush_signals_to_interrupt():
    """Deliver SIGINT/SIGTERM as :class:`KeyboardInterrupt`.

    SIGTERM's default action kills the process wherever it happens to
    be — possibly between two slices of a long sweep, abandoning the
    in-progress work without a trace.  Raising an exception instead
    unwinds through the campaign's ``finally`` blocks and the pool
    supervisor's shutdown path, so every atomic checkpoint write
    completes and the quarantine registry is flushed before exit.
    """
    handled = (signal.SIGINT, signal.SIGTERM)

    def raise_interrupt(signum, frame):
        raise KeyboardInterrupt(signal.Signals(signum).name)

    previous = {}
    for sig in handled:
        try:
            previous[sig] = signal.signal(sig, raise_interrupt)
        except ValueError:
            # Not the main thread (embedded use); signals stay as-is.
            pass
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


# -- the one sweep path -------------------------------------------------------


def _print_pool_summary(stats):
    from repro.reporting import render_pool_summary

    print(render_pool_summary(stats), file=sys.stderr)


def _telemetry_kwargs(args, kind, fingerprint):
    """``execute_sharded`` kwargs for ``--progress``.

    The ETA prior comes from the perf ledger when one was named: the
    wall-clock of the last recorded run of this exact configuration
    (same trace ID) is the best available estimate, falling back to the
    last run of the same campaign kind.  Ledger problems degrade to "no
    hint" — telemetry must never fail the sweep it observes.
    """
    progress_path = getattr(args, "progress_path", None)
    if not progress_path:
        return {}
    hint = None
    ledger_dir = (getattr(args, "perf_ledger", None)
                  or getattr(args, "ledger_dir", None))
    if ledger_dir:
        from repro.obs import PerfLedger, trace_id_for
        from repro.obs.perf import LedgerError

        try:
            ledger = PerfLedger(ledger_dir)
            entries, _ = ledger.entries(
                kind=kind, trace_id=trace_id_for(kind, fingerprint)
            )
            if not entries:
                entries, _ = ledger.entries(kind=kind)
            if entries:
                hint = entries[-1]["summary"]["root_ms"] / 1000.0
        except (LedgerError, KeyError, TypeError):
            hint = None
    return {
        "progress_path": progress_path,
        "eta_wall_hint_seconds": hint,
    }


def _sweep(args, campaign, job, trace_dir=None):
    """Run one sweep through the engine: every command's one path.

    ``--workers`` picks in-process (1) or the supervised pool; the
    checkpoint, ``--progress`` stream, ``--trace-dir`` trace and the
    result are the same code either way.  The trace ID comes from the
    campaign-level fingerprint, not the shard fingerprint, so every
    worker count of one configuration shares span IDs.  ``trace_dir``
    overrides ``--trace-dir`` (``perf record`` traces into a temporary
    directory).
    """
    from repro.core.sharding import PoolConfig, execute_sharded
    from repro.obs import TraceCollector, TraceSink, trace_id_for

    workers = getattr(args, "workers", 1)
    fingerprint = job.config.fingerprint()
    trace_dir = trace_dir or getattr(args, "trace_dir", None)
    collector = None
    if trace_dir:
        collector = TraceCollector(trace_id_for(job.campaign, fingerprint))
    result, stats = execute_sharded(
        job,
        PoolConfig(workers=workers,
                   watchdog_seconds=getattr(args, "watchdog_secs", 300.0)),
        checkpoint=_checkpoint_from(args),
        progress=_progress if getattr(args, "verbose", False) else None,
        collector=collector, campaign=campaign,
        **_telemetry_kwargs(args, job.campaign, fingerprint),
    )
    if workers > 1:
        _print_pool_summary(stats)
    if collector is not None:
        path = TraceSink(trace_dir).write(
            collector.trace_id, job.campaign, collector.events,
            collector.metrics, workers=workers,
            worker_events=collector.worker_events,
        )
        print(f"trace written to {path}", file=sys.stderr)
    return result


def _run_campaign(args):
    started = time.time()
    campaign = Campaign(_config_from(args))
    result = _sweep(
        args, campaign,
        campaign.shard_job(chunks_per_server=getattr(args, "shards", None)),
    )
    elapsed = time.time() - started
    print(f"campaign finished in {elapsed:.1f}s", file=sys.stderr)
    return result


def cmd_tables(args):
    print(render_table1())
    print()
    print(render_table2())
    return 0


def cmd_corpus(args):
    java = build_java_catalog()
    dotnet = build_dotnet_catalog()
    if getattr(args, "detail", False):
        from repro.typesystem.inventory import render_inventory

        print(render_inventory(java))
        print()
        print(render_inventory(dotnet))
    else:
        print(java.summary())
        print(dotnet.summary())
    print(f"total services to generate: {len(java) * 2 + len(dotnet)}")
    return 0


def cmd_run(args):
    result = _run_campaign(args)
    totals = result.totals()
    for key, value in totals.items():
        print(f"{key}: {value}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(table3_to_csv(result))
        print(f"per-combination CSV written to {args.csv}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result_to_json(result))
        print(f"JSON written to {args.json}", file=sys.stderr)
    if args.save:
        from repro.core.store import save_result

        save_result(result, args.save)
        print(f"full result saved to {args.save}", file=sys.stderr)
    return 0


def cmd_report(args):
    result = _run_campaign(args)
    print(render_fig4(result))
    print()
    print(render_table3(result))
    print()
    headlines = headline_numbers(result)
    print(
        render_table(
            ("Metric", "Value"),
            [(key, value) for key, value in headlines.items()],
            title="Headline numbers",
        )
    )
    print()
    rows = [
        (metric, paper, measured, "yes" if match else "NO")
        for metric, paper, measured, match in comparison_rows(result)
    ]
    print(
        render_table(
            ("Metric", "Paper", "Measured", "Match"),
            rows,
            title="Paper vs measured",
        )
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result_to_json(result))
    if args.html:
        from repro.reporting import render_html_report

        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html_report(result))
        print(f"HTML report written to {args.html}", file=sys.stderr)
    return 0


def _deploy_one(server_id, type_name):
    catalog = build_java_catalog() if server_id != "wcf" else build_dotnet_catalog()
    type_info = catalog.require(type_name)
    container = container_for(server_id)
    return container.deploy(ServiceDefinition(type_info))


def cmd_experiments(args):
    started = time.time()
    result = _run_campaign(args)
    from repro.reporting import render_experiments_markdown

    markdown = render_experiments_markdown(
        result, elapsed_seconds=time.time() - started
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"experiment report written to {args.output}", file=sys.stderr)
    else:
        print(markdown)
    return 0


def cmd_stats(args):
    from repro.core.stats import (
        error_code_taxonomy,
        maturity_ranking,
        per_language_error_rates,
        per_server_error_rates,
        wsi_association_test,
    )

    result = _run_campaign(args)
    print(
        render_table(
            ("Diagnostic code", "Erroring tests"),
            error_code_taxonomy(result),
            title="Error-cause taxonomy",
        )
    )
    print()
    print(
        render_table(
            ("Client", "Error tests", "Tests"),
            maturity_ranking(result),
            title="Tool maturity ranking (fewest errors first)",
        )
    )
    print()
    language_rows = [
        (language, data["error_tests"], data["tests"], f"{data['rate']:.4f}")
        for language, data in per_language_error_rates(result).items()
    ]
    print(
        render_table(
            ("Language", "Error tests", "Tests", "Rate"),
            language_rows,
            title="Per-language error rates",
        )
    )
    print()
    server_rows = [
        (server_id, data["error_tests"], data["tests"], f"{data['rate']:.4f}")
        for server_id, data in per_server_error_rates(result).items()
    ]
    print(
        render_table(
            ("Server", "Error tests", "Tests", "Rate"),
            server_rows,
            title="Per-server error rates",
        )
    )
    print()
    association = wsi_association_test(result)
    (a, b), (c, d) = association["table"]
    print("WS-I warned x errored association (service level):")
    print(f"  table: warned [err={a} ok={b}]  clean [err={c} ok={d}]")
    print(f"  chi2 = {association['chi2']:.1f}, p = {association['p_value']:.3g}, "
          f"odds ratio = {association['odds_ratio']:.1f}")
    return 0


def cmd_lifecycle_campaign(args):
    from repro.core.extended import LifecycleCampaign

    campaign = LifecycleCampaign(
        _config_from(args), sample_per_server=args.sample
    )
    result = campaign.run(progress=_progress if args.verbose else None)
    rows = []
    for server_id in result.server_ids:
        for client_id in result.client_ids:
            cell = result.cell(server_id, client_id)
            rows.append((server_id, client_id) + cell.as_row())
    print(
        render_table(
            ("Server", "Client", "GenErr", "CompErr", "CommErr", "ExecErr", "Done"),
            rows,
            title="Five-step lifecycle outcomes",
        )
    )
    totals = result.totals()
    print()
    for key, value in totals.items():
        print(f"{key}: {value}")
    print(f"completion ratio: {result.completion_ratio():.3f}")
    return 0


def cmd_resilience(args):
    from repro.faults import (
        FaultKind,
        ResilienceCampaign,
        ResilienceCampaignConfig,
        WireFaultKind,
        fault_kind_of,
    )
    from repro.reporting import (
        render_client_robustness,
        render_resilience_matrix,
        resilience_to_json,
    )

    try:
        if args.kinds:
            kinds = tuple(
                fault_kind_of(kind.strip()) for kind in args.kinds.split(",")
            )
        else:
            kinds = tuple(FaultKind)
    except ValueError:
        valid = ", ".join(kind.value for kind in FaultKind)
        wire_valid = ", ".join(kind.value for kind in WireFaultKind)
        print(f"error: unknown fault kind in {args.kinds!r}; "
              f"valid kinds: {valid}; "
              f"wire-only kinds (--transport wire): {wire_valid}",
              file=sys.stderr)
        return 2
    wire_kinds = [k.value for k in kinds if isinstance(k, WireFaultKind)]
    if wire_kinds and getattr(args, "transport", "memory") != "wire":
        print(f"error: fault kind(s) {', '.join(wire_kinds)} exist only on "
              f"the wire; re-run with --transport wire", file=sys.stderr)
        return 2
    try:
        rates = tuple(float(rate) for rate in args.rates.split(","))
    except ValueError:
        print(f"error: --rates expects comma-separated numbers, "
              f"got {args.rates!r}", file=sys.stderr)
        return 2
    if any(not 0.0 <= rate <= 1.0 for rate in rates):
        print(f"error: fault rates must be within [0, 1], got {args.rates!r}",
              file=sys.stderr)
        return 2
    config = ResilienceCampaignConfig(
        base=_config_from(args),
        seed=args.seed,
        fault_kinds=kinds,
        rates=rates,
        sample_per_server=args.sample,
    )
    campaign = ResilienceCampaign(config)
    started = time.time()
    result = _sweep(args, campaign, campaign.shard_job())
    print(f"resilience sweep finished in {time.time() - started:.1f}s",
          file=sys.stderr)
    print(render_resilience_matrix(result, only_failing=args.only_failing))
    print()
    print(render_client_robustness(result))
    totals = result.totals()
    print()
    for key, value in totals.items():
        print(f"{key}: {value}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(resilience_to_json(result))
        print(f"JSON written to {args.json}", file=sys.stderr)
    return 0


def cmd_fuzz(args):
    from repro.faults import (
        FuzzCampaign,
        FuzzCampaignConfig,
        MutationKind,
    )
    from repro.reporting import (
        fuzz_to_json,
        render_fuzz_matrix,
        render_quarantine,
        render_triage_summary,
    )

    try:
        if args.kinds:
            kinds = tuple(
                MutationKind(kind.strip()) for kind in args.kinds.split(",")
            )
        else:
            kinds = tuple(MutationKind)
    except ValueError:
        valid = ", ".join(kind.value for kind in MutationKind)
        print(f"error: unknown mutation kind in {args.kinds!r}; "
              f"valid kinds: {valid}", file=sys.stderr)
        return 2
    try:
        intensities = tuple(
            float(value) for value in args.intensities.split(",")
        )
    except ValueError:
        print(f"error: --intensities expects comma-separated numbers, "
              f"got {args.intensities!r}", file=sys.stderr)
        return 2
    if any(not 0.0 <= value <= 1.0 for value in intensities):
        print(f"error: intensities must be within [0, 1], "
              f"got {args.intensities!r}", file=sys.stderr)
        return 2
    config = FuzzCampaignConfig(
        base=_config_from(args),
        seed=args.seed,
        mutation_kinds=kinds,
        intensities=intensities,
        mutants_per_config=args.mutants,
        sample_per_server=args.sample,
        deadline_seconds=args.deadline,
        fail_fast=args.fail_fast,
    )
    campaign = FuzzCampaign(config)
    started = time.time()
    result = _sweep(args, campaign, campaign.shard_job())
    print(f"fuzz sweep finished in {time.time() - started:.1f}s",
          file=sys.stderr)
    print(render_fuzz_matrix(result, only_failing=args.only_failing))
    print()
    print(render_triage_summary(result))
    print()
    print(render_quarantine(result))
    totals = result.totals()
    print()
    for key, value in totals.items():
        print(f"{key}: {value}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(fuzz_to_json(result))
        print(f"JSON written to {args.json}", file=sys.stderr)
    if result.aborted:
        print("error: sweep aborted by --fail-fast on an unclassified "
              "tool-internal error", file=sys.stderr)
        return 3
    if result.unclassified_total:
        print(f"error: {result.unclassified_total} mutants escaped with "
              "unclassified (tool-internal) errors", file=sys.stderr)
        return 3
    return 0


def cmd_invoke(args):
    from repro.invoke import (
        InvocationCampaign,
        InvocationCampaignConfig,
        PayloadClass,
    )
    from repro.reporting import (
        invoke_to_json,
        render_fidelity_summary,
        render_gate_summary,
        render_invoke_matrix,
        render_quarantine,
    )

    try:
        if args.classes:
            classes = tuple(
                PayloadClass(cls.strip()) for cls in args.classes.split(",")
            )
        else:
            classes = tuple(PayloadClass)
    except ValueError:
        valid = ", ".join(cls.value for cls in PayloadClass)
        print(f"error: unknown payload class in {args.classes!r}; "
              f"valid classes: {valid}", file=sys.stderr)
        return 2
    config = InvocationCampaignConfig(
        base=_config_from(args),
        seed=args.seed,
        payload_classes=classes,
        payloads_per_class=args.payloads,
        sample_per_server=args.sample,
        deadline_seconds=args.deadline,
        service_filter=args.services or "",
    )
    campaign = InvocationCampaign(config)
    started = time.time()
    result = _sweep(args, campaign, campaign.shard_job())
    print(f"invocation sweep finished in {time.time() - started:.1f}s",
          file=sys.stderr)
    if not result.services_matched and config.service_filter:
        print(f"no deployed service matches --services "
              f"{config.service_filter!r}; nothing was invoked",
              file=sys.stderr)
    print(render_invoke_matrix(result, only_failing=args.only_failing))
    print()
    print(render_fidelity_summary(result))
    print()
    print(render_gate_summary(result))
    print()
    print(render_quarantine(result))
    totals = result.totals()
    print()
    for key, value in totals.items():
        print(f"{key}: {value}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(invoke_to_json(result))
        print(f"JSON written to {args.json}", file=sys.stderr)
    if result.unclassified_total:
        print(f"error: {result.unclassified_total} invocations escaped "
              "with unclassified errors", file=sys.stderr)
        return 3
    return 0


def _git_rev():
    """Best-effort short git revision for the accept history; "" offline."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def cmd_regress(args):
    from repro.regress import (
        BaselineStore,
        build_configs,
        build_report,
        run_sweeps,
    )
    from repro.reporting import (
        regress_to_json,
        render_accept_history,
        render_regress_report,
    )

    from repro.core.canon import CAMPAIGN_KINDS

    if args.history:
        print(render_accept_history(BaselineStore(args.baseline_dir).history()))
        return 0
    if args.campaigns:
        requested = tuple(kind.strip() for kind in args.campaigns.split(","))
        unknown = [kind for kind in requested if kind not in CAMPAIGN_KINDS]
        if unknown:
            valid = ", ".join(CAMPAIGN_KINDS)
            print(f"error: unknown campaign kind(s) {', '.join(unknown)}; "
                  f"valid kinds: {valid}", file=sys.stderr)
            return 2
        # Canonical report order regardless of how the CSV was written.
        campaigns = tuple(k for k in CAMPAIGN_KINDS if k in requested)
    else:
        campaigns = CAMPAIGN_KINDS
    if args.perturb and args.perturb not in campaigns:
        print(f"error: --perturb {args.perturb!r} is not among the swept "
              f"campaigns {', '.join(campaigns)}", file=sys.stderr)
        return 2

    configs = build_configs(
        campaigns, _config_from(args), seed=args.seed, sample=args.sample,
        payloads_per_class=args.payloads, mutants_per_config=args.mutants,
    )
    store = BaselineStore(args.baseline_dir)
    if not args.accept:
        # Surface a missing/corrupt baseline before paying for the sweep.
        store.manifest()
    started = time.time()
    progress = _progress if args.verbose else None
    pool_stats = {}
    snapshots = run_sweeps(
        campaigns, configs, workers=args.workers,
        checkpoint_dir=args.checkpoint_dir, progress=progress,
        pool_stats=pool_stats,
    )
    if args.workers > 1:
        for stats in pool_stats.values():
            _print_pool_summary(stats)
    print(f"regress sweep ({', '.join(campaigns)}) finished in "
          f"{time.time() - started:.1f}s", file=sys.stderr)

    if args.accept:
        timestamp = args.accepted_at or time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
        digests = store.accept(snapshots, timestamp=timestamp,
                               git_rev=_git_rev())
        for kind in campaigns:
            print(f"accepted {kind}: {digests[kind]}")
        print(f"baseline promoted at {args.baseline_dir}", file=sys.stderr)
        return 0

    report = build_report(
        store, snapshots, configs,
        drill=not args.no_drill, drill_limit=args.drill_limit,
        perturb=args.perturb, progress=progress,
    )
    print(render_regress_report(report))
    if args.perf_ledger:
        from repro.reporting import render_timing_advisory

        # Advisory only: rendered text, never folded into exit_code.
        print()
        print(render_timing_advisory(
            _timing_advisories(args.perf_ledger, campaigns, configs)
        ))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(regress_to_json(report))
        print(f"drift report written to {args.report}", file=sys.stderr)
    return report.exit_code


def cmd_matrix(args):
    from repro.core.matrix import render_matrix

    result = _run_campaign(args)
    print(render_matrix(result))
    return 0


def cmd_analyze(args):
    from repro.core.store import load_result

    result = load_result(args.result_file)
    print(render_fig4(result))
    print()
    print(render_table3(result))
    print()
    headlines = headline_numbers(result)
    print(
        render_table(
            ("Metric", "Value"),
            [(key, round(value, 4) if isinstance(value, float) else value)
             for key, value in headlines.items()],
            title="Headline numbers",
        )
    )
    return 0


def cmd_wsdl(args):
    record = _deploy_one(args.server, args.type_name)
    if not record.accepted:
        print(f"deployment refused: {record.reason}", file=sys.stderr)
        return 1
    from repro.wsdl.builder import serialize_wsdl

    print(serialize_wsdl(record.wsdl, pretty=True))
    return 0


def cmd_check(args):
    record = _deploy_one(args.server, args.type_name)
    if not record.accepted:
        print(f"deployment refused: {record.reason}", file=sys.stderr)
        return 1
    report = check_document(read_wsdl_text(record.wsdl_text))
    print(report.summary())
    for violation in report.violations:
        print(f"  {violation.severity.value}: {violation}")
    return 0 if report.conformant else 2


def cmd_lifecycle(args):
    from repro.runtime import run_full_lifecycle

    record = _deploy_one(args.server, args.type_name)
    if not record.accepted:
        print(f"deployment refused: {record.reason}", file=sys.stderr)
        return 1
    client = client_framework(args.client)
    outcome = run_full_lifecycle(record, client, client_id=args.client)
    print(f"service:       {outcome.service_name}")
    print(f"client:        {client.name} ({client.language})")
    print(f"generation:    {outcome.generation.value}")
    print(f"compilation:   {outcome.compilation.value}")
    print(f"communication: {outcome.communication.value}")
    print(f"execution:     {outcome.execution.value}")
    if outcome.detail:
        print(f"detail:        {outcome.detail}")
    return 0 if outcome.reached_execution else 2


def cmd_profile(args):
    from repro.obs import TraceValidationError, load_trace
    from repro.reporting import render_profile

    try:
        trace = load_trace(args.trace)
    except TraceValidationError as exc:
        print(f"error: invalid trace: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError:
        print(f"error: no trace found at {args.trace!r}; run a sweep with "
              "--trace-dir first, then point `profile` at that directory "
              "or its trace.jsonl", file=sys.stderr)
        return 2
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 2
    print(render_profile(trace, top=args.top))
    return 0


# -- the performance ledger ----------------------------------------------------


@contextlib.contextmanager
def _settled_heap():
    """Collect, then freeze, the heap that exists before a timed sweep.

    A full cyclic collection walks every tracked object, so its pause
    grows with whatever the process held before the sweep began; for
    an in-process caller still holding a paper-scale campaign result,
    one pass outlasts a whole quick-corpus deploy.  Left alone, that
    pass lands in whichever span happens to trigger it, and a same-seed
    re-record reports the stage as a regression.  Frozen objects are
    skipped by every collection until ``gc.unfreeze``, so the sweep's
    collections only walk the sweep's own objects.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _record_sweep_trace(args):
    """Run one traced sweep for ``perf record --campaign`` and load it.

    The trace round-trips through a real trace file (a temp directory
    unless ``--trace-dir`` keeps it) so the profile is extracted from
    exactly what any other trace consumer would see.  The sweep runs on
    a settled heap (:func:`_settled_heap`), so its stage timings do not
    depend on what the process allocated before it.
    """
    import tempfile

    from repro.core.sharding import campaign_class
    from repro.obs import load_trace
    from repro.regress.runner import build_configs

    kind = args.campaign
    configs = build_configs(
        (kind,), _config_from(args), seed=args.seed, sample=args.sample,
        payloads_per_class=args.payloads, mutants_per_config=args.mutants,
    )
    campaign = campaign_class(kind)(configs[kind])
    with contextlib.ExitStack() as stack:
        trace_dir = getattr(args, "trace_dir", None)
        if not trace_dir:
            trace_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="wsinterop-perf-")
            )
        stack.enter_context(_settled_heap())
        started = time.time()
        _sweep(args, campaign, campaign.shard_job(), trace_dir=trace_dir)
        print(f"{kind} sweep finished in {time.time() - started:.1f}s",
              file=sys.stderr)
        return load_trace(trace_dir)


def cmd_perf_record(args):
    from repro.obs import PerfLedger, TraceValidationError, load_trace
    from repro.obs.perf import perf_profile

    if args.trace:
        try:
            trace = load_trace(args.trace)
        except TraceValidationError as exc:
            print(f"error: invalid trace: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            print(f"error: cannot read trace {args.trace!r}: {exc}",
                  file=sys.stderr)
            return 2
        seed = None
    else:
        trace = _record_sweep_trace(args)
        seed = args.seed
    profile = perf_profile(trace)
    ledger = PerfLedger(args.ledger_dir)
    entry = ledger.record(
        profile,
        recorded_at=args.recorded_at or time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        git_rev=_git_rev(),
        seed=seed,
    )
    summary = entry["summary"]
    print(f"recorded {entry['kind']} profile {entry['digest'][:12]} "
          f"(trace {entry['trace_id'][:12]}, {summary['spans_total']} "
          f"spans, {summary['cells']} cells, root "
          f"{summary['root_ms']:.1f}ms) -> {ledger.path}")
    return 0


def cmd_perf_diff(args):
    from repro.obs import PerfLedger, diff_profiles
    from repro.reporting import perf_diff_to_json, render_perf_diff

    ledger = PerfLedger(args.ledger_dir)
    entry_a = ledger.resolve(args.ref_a, kind=args.kind)
    entry_b = ledger.resolve(args.ref_b, kind=args.kind)

    def label(entry):
        rev = entry.get("git_rev") or ""
        return entry["digest"][:12] + (f" @{rev}" if rev else "")

    try:
        diff = diff_profiles(
            ledger.load_profile(entry_a), ledger.load_profile(entry_b),
            mad_threshold=args.mad_threshold,
            min_delta_ms=args.min_delta_ms,
            min_ratio=args.min_ratio,
        )
    except ValueError as exc:
        print(f"error: {exc} (narrow the references with --kind)",
              file=sys.stderr)
        return 2
    print(render_perf_diff(diff, label_a=label(entry_a),
                           label_b=label(entry_b)))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(perf_diff_to_json(diff, indent=2))
        print(f"JSON written to {args.json}", file=sys.stderr)
    return 2 if diff.significant else 0


def cmd_perf_trend(args):
    from repro.obs import PerfLedger
    from repro.reporting import render_perf_trend

    ledger = PerfLedger(args.ledger_dir)
    entries, skipped = ledger.entries(kind=args.kind)
    if skipped:
        print(f"warning: {skipped} unreadable ledger line(s) skipped "
              "(torn append or hand-edited history)", file=sys.stderr)
    if args.last and args.last > 0:
        entries = entries[-args.last:]
    profiles = [ledger.load_profile(entry) for entry in entries]
    print(render_perf_trend(entries, profiles, stage=args.stage))
    return 0


def _timing_advisories(ledger_dir, campaigns, configs):
    """Per-campaign (kind, diff-or-None, detail) advisory inputs.

    Compares the two most recent ledger recordings of each campaign's
    *current* configuration.  Any ledger problem degrades to a detail
    string — the advisory never raises into the regress gate.
    """
    from repro.obs import PerfLedger, diff_profiles, trace_id_for
    from repro.obs.perf import LedgerError

    ledger = PerfLedger(ledger_dir)
    advisories = []
    for kind in campaigns:
        trace_id = trace_id_for(kind, configs[kind].fingerprint())
        try:
            entries, _ = ledger.entries(kind=kind, trace_id=trace_id)
            if len(entries) < 2:
                advisories.append((
                    kind, None,
                    f"{len(entries)} recorded run(s) of this configuration "
                    "— need 2 to compare",
                ))
                continue
            previous, latest = entries[-2], entries[-1]
            diff = diff_profiles(
                ledger.load_profile(previous), ledger.load_profile(latest)
            )
            advisories.append((
                kind, diff,
                f"{previous['digest'][:12]} -> {latest['digest'][:12]}",
            ))
        except (LedgerError, ValueError) as exc:
            advisories.append((kind, None, f"ledger unusable: {exc}"))
    return advisories


def _add_transport_argument(parser):
    parser.add_argument(
        "--transport", choices=("memory", "wire"), default="memory",
        help="step-4/5 exchange carrier: the in-memory router (default) or "
        "real loopback HTTP sockets; matrices are byte-identical by "
        "contract, so either gates against the same baseline",
    )


def _add_pool_arguments(parser, shards=False):
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 1 runs the sweep in-process, >1 as a "
        "supervised process-isolated pool (results are byte-identical)",
    )
    parser.add_argument(
        "--watchdog-secs", type=float, default=300.0,
        help="wall-clock seconds a worker may spend on one shard unit "
        "before the supervisor kills it and contains the unit",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write a deterministic span trace (trace.jsonl) into DIR; "
        "span IDs are identical for any --workers count and timing never "
        "leaks into campaign payloads",
    )
    parser.add_argument(
        "--progress", dest="progress_path", default=None, metavar="PATH",
        help="append a crash-safe JSONL heartbeat stream (units done/total, "
        "per-worker state, ETA) to PATH while the sweep runs; pure "
        "telemetry — results stay byte-identical",
    )
    parser.add_argument(
        "--perf-ledger", dest="perf_ledger", default=None, metavar="DIR",
        help="perf ledger consulted for the --progress ETA prior (the "
        "wall-clock of the last recorded run of this configuration)",
    )
    if shards:
        parser.add_argument(
            "--shards", type=int, default=None,
            help="service chunks per server (default 4); worker-count "
            "independent and part of the checkpoint fingerprint",
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wsinterop",
        description="Web-service framework interoperability assessment "
        "(DSN 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I and II").set_defaults(
        func=cmd_tables
    )
    corpus_parser = sub.add_parser(
        "corpus", help="print the type-catalog populations"
    )
    corpus_parser.add_argument(
        "--detail", action="store_true",
        help="kinds, namespaces and failure-class populations",
    )
    corpus_parser.set_defaults(func=cmd_corpus)

    run_parser = sub.add_parser("run", help="run the campaign, print totals")
    run_parser.add_argument("--quick", action="store_true", help="small corpora")
    run_parser.add_argument("--verbose", action="store_true")
    run_parser.add_argument("--csv", help="write per-combination CSV here")
    run_parser.add_argument("--json", help="write JSON results here")
    run_parser.add_argument(
        "--save", help="persist the full result (re-analyzable with `analyze`)"
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        help="checkpoint each completed shard unit here; re-run (under "
        "any --workers count) to resume",
    )
    _add_transport_argument(run_parser)
    _add_pool_arguments(run_parser, shards=True)
    run_parser.set_defaults(func=cmd_run)

    resilience_parser = sub.add_parser(
        "resilience",
        help="seeded fault-injection sweep over the five-step lifecycle",
    )
    resilience_parser.add_argument("--quick", action="store_true",
                                   help="small corpora")
    resilience_parser.add_argument("--verbose", action="store_true")
    resilience_parser.add_argument(
        "--seed", type=int, default=20140622,
        help="fault-schedule seed (same seed = identical results)",
    )
    resilience_parser.add_argument(
        "--sample", type=int, default=20,
        help="deployed services per server driven through each fault config",
    )
    resilience_parser.add_argument(
        "--kinds",
        help="comma-separated fault kinds (default: all six); e.g. "
        "http-503,latency,truncated-body",
    )
    resilience_parser.add_argument(
        "--rates", default="0.15,0.35",
        help="comma-separated injection rates to sweep",
    )
    resilience_parser.add_argument(
        "--only-failing", action="store_true",
        help="print only matrix rows with failures or recoveries",
    )
    resilience_parser.add_argument("--json", help="write the matrices here")
    resilience_parser.add_argument(
        "--checkpoint-dir",
        help="checkpoint each completed server here; re-run to resume",
    )
    _add_transport_argument(resilience_parser)
    _add_pool_arguments(resilience_parser)
    resilience_parser.set_defaults(func=cmd_resilience)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="seeded WSDL-corruption sweep over the guarded wsdl2code "
        "pipeline (crash-triage matrices)",
    )
    fuzz_parser.add_argument("--quick", action="store_true",
                             help="small corpora")
    fuzz_parser.add_argument("--verbose", action="store_true")
    fuzz_parser.add_argument(
        "--seed", type=int, default=20140622,
        help="mutation seed (same seed = byte-identical matrices)",
    )
    fuzz_parser.add_argument(
        "--sample", type=int, default=6,
        help="deployed services per server fed to the mutator",
    )
    fuzz_parser.add_argument(
        "--kinds",
        help="comma-separated mutation kinds (default: all seven); e.g. "
        "truncation,deep-nesting,huge-text",
    )
    fuzz_parser.add_argument(
        "--intensities", default="0.3,0.8",
        help="comma-separated corruption intensities in [0, 1] to sweep",
    )
    fuzz_parser.add_argument(
        "--mutants", type=int, default=1,
        help="mutants per (service, kind, intensity) combination",
    )
    fuzz_parser.add_argument(
        "--deadline", type=float, default=10.0,
        help="wall-clock seconds allowed per guarded step",
    )
    fuzz_parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep at the first unclassified error",
    )
    fuzz_parser.add_argument(
        "--only-failing", action="store_true",
        help="print only matrix rows with non-clean triage buckets",
    )
    fuzz_parser.add_argument("--json", help="write the triage matrices here")
    fuzz_parser.add_argument(
        "--checkpoint-dir",
        help="checkpoint each completed server here; re-run to resume "
        "(quarantined cells stay quarantined)",
    )
    _add_pool_arguments(fuzz_parser)
    fuzz_parser.set_defaults(func=cmd_fuzz)

    invoke_parser = sub.add_parser(
        "invoke",
        help="step-4 invocation sweep: schema-derived payloads through "
        "the live echo path (round-trip fidelity matrices)",
    )
    invoke_parser.add_argument("--quick", action="store_true",
                               help="small corpora")
    invoke_parser.add_argument("--verbose", action="store_true")
    invoke_parser.add_argument(
        "--seed", type=int, default=20140622,
        help="payload seed (same seed = byte-identical matrices)",
    )
    invoke_parser.add_argument(
        "--sample", type=int, default=6,
        help="deployed services per server driven through the sweep",
    )
    invoke_parser.add_argument(
        "--classes",
        help="comma-separated payload classes (default: all six); e.g. "
        "numeric-boundary,string-edge,nil",
    )
    invoke_parser.add_argument(
        "--payloads", type=int, default=2,
        help="payloads per (service, class) combination",
    )
    invoke_parser.add_argument(
        "--services", metavar="PATTERN",
        help="fnmatch pattern narrowing the swept service names",
    )
    invoke_parser.add_argument(
        "--deadline", type=float, default=10.0,
        help="wall-clock seconds allowed per guarded invocation",
    )
    invoke_parser.add_argument(
        "--only-failing", action="store_true",
        help="print only matrix rows with non-lossless round trips",
    )
    invoke_parser.add_argument("--json", help="write the fidelity matrices here")
    invoke_parser.add_argument(
        "--checkpoint-dir",
        help="checkpoint each completed server here; re-run to resume "
        "(quarantined cells stay quarantined)",
    )
    _add_transport_argument(invoke_parser)
    _add_pool_arguments(invoke_parser)
    invoke_parser.set_defaults(func=cmd_invoke)

    regress_parser = sub.add_parser(
        "regress",
        help="run the sweep fleet, diff every matrix cell-by-cell against "
        "the accepted baseline, and gate on drift (0 clean, 2 drift, "
        "3 unclassified)",
    )
    regress_parser.add_argument(
        "--baseline-dir", required=True,
        help="baseline store directory (accept with --accept first)",
    )
    regress_parser.add_argument(
        "--accept", action="store_true",
        help="promote this sweep's matrices as the accepted baseline "
        "(atomic: readers see the old baseline until the promote lands)",
    )
    regress_parser.add_argument(
        "--campaigns",
        help="comma-separated campaign kinds to sweep "
        "(default: run,resilience,fuzz,invoke)",
    )
    regress_parser.add_argument("--quick", action="store_true",
                                help="small corpora")
    regress_parser.add_argument("--verbose", action="store_true")
    regress_parser.add_argument(
        "--seed", type=int, default=20140622,
        help="shared sweep seed (same seed = byte-identical matrices)",
    )
    regress_parser.add_argument(
        "--sample", type=int, default=2,
        help="deployed services per server in each sweep",
    )
    regress_parser.add_argument(
        "--payloads", type=int, default=1,
        help="invoke sweep: payloads per (service, class) combination",
    )
    regress_parser.add_argument(
        "--mutants", type=int, default=1,
        help="fuzz sweep: mutants per (service, kind, intensity)",
    )
    regress_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per sweep; the drift report is "
        "byte-identical for any worker count",
    )
    regress_parser.add_argument(
        "--checkpoint-dir",
        help="checkpoint each sweep here (one subdirectory per campaign); "
        "re-run to resume after interruption",
    )
    regress_parser.add_argument(
        "--report", metavar="FILE",
        help="write the canonical JSON drift report here (digest-stable)",
    )
    regress_parser.add_argument(
        "--no-drill", action="store_true",
        help="skip exchange/span drill-down of changed cells",
    )
    regress_parser.add_argument(
        "--drill-limit", type=int, default=5,
        help="changed cells drilled per campaign",
    )
    regress_parser.add_argument(
        "--perturb", metavar="KIND",
        help="self-test: deterministically perturb one fresh cell of KIND "
        "before diffing (the gate must report exactly that cell)",
    )
    regress_parser.add_argument(
        "--history", action="store_true",
        help="list the baseline's accept history (timestamp, campaign, "
        "digest, git revision) and exit without sweeping",
    )
    regress_parser.add_argument(
        "--accepted-at", metavar="TIMESTAMP",
        help="timestamp recorded with --accept (default: current UTC time); "
        "pass a fixed value for reproducible accept histories",
    )
    regress_parser.add_argument(
        "--perf-ledger", dest="perf_ledger", default=None, metavar="DIR",
        help="render an advisory timing-drift section from this perf "
        "ledger (informational only — never changes the gate's exit code)",
    )
    _add_transport_argument(regress_parser)
    regress_parser.set_defaults(func=cmd_regress)

    matrix_parser = sub.add_parser(
        "matrix", help="print the interoperability verdict grid"
    )
    matrix_parser.add_argument("--quick", action="store_true")
    matrix_parser.add_argument("--verbose", action="store_true")
    matrix_parser.set_defaults(func=cmd_matrix)

    analyze_parser = sub.add_parser(
        "analyze", help="re-analyze a result saved with `run --save`"
    )
    analyze_parser.add_argument("result_file")
    analyze_parser.set_defaults(func=cmd_analyze)

    profile_parser = sub.add_parser(
        "profile",
        help="render stage latencies, slowest services and worker "
        "utilization from a trace written with --trace-dir",
    )
    profile_parser.add_argument(
        "trace", help="trace.jsonl file, or the --trace-dir that holds one"
    )
    profile_parser.add_argument(
        "--top", type=int, default=10,
        help="rows in the slowest-services table",
    )
    profile_parser.set_defaults(func=cmd_profile)

    perf_parser = sub.add_parser(
        "perf",
        help="performance ledger: record per-run perf profiles, diff them "
        "noise-aware, and trend per-stage latency across runs",
    )
    perf_sub = perf_parser.add_subparsers(dest="perf_command", required=True)

    perf_record = perf_sub.add_parser(
        "record",
        help="extract a perf profile from a trace (or run a traced sweep) "
        "and append it to the ledger",
    )
    perf_record.add_argument(
        "--ledger-dir", required=True, metavar="DIR",
        help="ledger directory (conventionally <baseline-dir>/perf); "
        "created on first record",
    )
    source = perf_record.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--trace", metavar="PATH",
        help="ingest an existing trace.jsonl (or the --trace-dir holding "
        "one) instead of running a sweep",
    )
    source.add_argument(
        "--campaign", choices=("run", "resilience", "fuzz", "invoke"),
        help="run this campaign kind under tracing and record its profile",
    )
    perf_record.add_argument("--quick", action="store_true",
                             help="small corpora")
    perf_record.add_argument("--verbose", action="store_true")
    perf_record.add_argument(
        "--seed", type=int, default=20140622,
        help="sweep seed for --campaign (matches the regress default)",
    )
    perf_record.add_argument(
        "--sample", type=int, default=2,
        help="deployed services per server for --campaign sweeps",
    )
    perf_record.add_argument(
        "--payloads", type=int, default=1,
        help="invoke sweeps: payloads per (service, class) combination",
    )
    perf_record.add_argument(
        "--mutants", type=int, default=1,
        help="fuzz sweeps: mutants per (service, kind, intensity)",
    )
    perf_record.add_argument(
        "--recorded-at", metavar="TIMESTAMP",
        help="timestamp stored in the ledger entry (default: current UTC "
        "time); pass a fixed value for reproducible histories",
    )
    _add_transport_argument(perf_record)
    _add_pool_arguments(perf_record)
    perf_record.set_defaults(func=cmd_perf_record)

    perf_diff = perf_sub.add_parser(
        "diff",
        help="noise-aware comparison of two recorded profiles "
        "(exit 0 = no significant regression, 2 = regression)",
    )
    perf_diff.add_argument(
        "ref_a", help="baseline: latest, latest~N, an index, or a digest "
        "prefix (>= 4 hex chars)",
    )
    perf_diff.add_argument("ref_b", help="candidate: same reference forms")
    perf_diff.add_argument("--ledger-dir", required=True, metavar="DIR")
    perf_diff.add_argument(
        "--kind", choices=("run", "resilience", "fuzz", "invoke"),
        help="restrict reference resolution to one campaign kind",
    )
    perf_diff.add_argument(
        "--mad-threshold", type=float, default=3.0,
        help="median shift must exceed this many baseline MADs",
    )
    perf_diff.add_argument(
        "--min-delta-ms", type=float, default=0.5,
        help="absolute floor on a significant median shift",
    )
    perf_diff.add_argument(
        "--min-ratio", type=float, default=2.0,
        help="relative floor: the grown median must be at least this "
        "multiple of the smaller one",
    )
    perf_diff.add_argument("--json", help="write the diff as JSON here")
    perf_diff.set_defaults(func=cmd_perf_diff)

    perf_trend = perf_sub.add_parser(
        "trend",
        help="per-stage median latency across the whole ledger, with "
        "sparkline trends",
    )
    perf_trend.add_argument("--ledger-dir", required=True, metavar="DIR")
    perf_trend.add_argument(
        "--kind", choices=("run", "resilience", "fuzz", "invoke"),
        help="restrict the series to one campaign kind",
    )
    perf_trend.add_argument(
        "--stage", metavar="NAME",
        help="one stage in detail: a row per recorded run",
    )
    perf_trend.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the N most recent ledger entries",
    )
    perf_trend.set_defaults(func=cmd_perf_trend)

    report_parser = sub.add_parser(
        "report", help="run the campaign, print Fig. 4 / Table III / comparison"
    )
    report_parser.add_argument("--quick", action="store_true")
    report_parser.add_argument("--verbose", action="store_true")
    report_parser.add_argument("--json", help="write JSON results here")
    report_parser.add_argument("--html", help="write a standalone HTML report here")
    report_parser.set_defaults(func=cmd_report)

    experiments_parser = sub.add_parser(
        "experiments", help="render the EXPERIMENTS.md paper-vs-measured report"
    )
    experiments_parser.add_argument("--quick", action="store_true")
    experiments_parser.add_argument("--verbose", action="store_true")
    experiments_parser.add_argument("-o", "--output", help="write markdown here")
    experiments_parser.set_defaults(func=cmd_experiments)

    stats_parser = sub.add_parser(
        "stats", help="error taxonomy, maturity ranking and WS-I association"
    )
    stats_parser.add_argument("--quick", action="store_true")
    stats_parser.add_argument("--verbose", action="store_true")
    stats_parser.set_defaults(func=cmd_stats)

    lifecycle_campaign_parser = sub.add_parser(
        "lifecycle-campaign",
        help="run the five-step lifecycle campaign (paper's future work)",
    )
    lifecycle_campaign_parser.add_argument("--quick", action="store_true")
    lifecycle_campaign_parser.add_argument("--verbose", action="store_true")
    lifecycle_campaign_parser.add_argument(
        "--sample", type=int, default=None,
        help="max deployed services per server to drive through steps 4-5",
    )
    lifecycle_campaign_parser.set_defaults(func=cmd_lifecycle_campaign)

    for name, func, help_text in (
        ("wsdl", cmd_wsdl, "print the WSDL published for one service"),
        ("check", cmd_check, "WS-I check the WSDL of one service"),
    ):
        one = sub.add_parser(name, help=help_text)
        one.add_argument("server", choices=SERVER_IDS)
        one.add_argument("type_name", help="fully-qualified parameter type")
        one.set_defaults(func=func)

    lifecycle_parser = sub.add_parser(
        "lifecycle", help="run the full 5-step lifecycle for one combination"
    )
    lifecycle_parser.add_argument("server", choices=SERVER_IDS)
    lifecycle_parser.add_argument("type_name")
    lifecycle_parser.add_argument("--client", choices=CLIENT_IDS, default="suds")
    lifecycle_parser.set_defaults(func=cmd_lifecycle)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with flush_signals_to_interrupt():
            return args.func(args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: {exc.hint}", file=sys.stderr)
        return 2
    except UnclassifiedDriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("this is a harness bug — the drift taxonomy failed to be "
              "total; please report it with the two matrices involved",
              file=sys.stderr)
        return 3
    except KeyboardInterrupt as exc:
        name = exc.args[0] if exc.args else "SIGINT"
        print(f"interrupted ({name}): completed slices are flushed to the "
              "checkpoint; re-run with the same arguments to resume",
              file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout reader went away (e.g. `wsinterop profile ... | head`);
        # not an error, but python would print a traceback at shutdown
        # unless stdout is detached first
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
