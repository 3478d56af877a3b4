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
from typing import Callable, NamedTuple

from repro.appservers import container_for
from repro.core import Campaign, CampaignConfig
from repro.core.analysis import headline_numbers
from repro.core.canon import CAMPAIGN_KINDS
from repro.core.extended import LifecycleCampaignConfig
from repro.core.sharding import campaign_class
from repro.core.store import (
    CampaignCheckpoint,
    StoreError,
    save_result,
    write_text_atomic,
)
from repro.frameworks.registry import CLIENT_IDS, SERVER_IDS, client_framework
from repro.regress.diff import UnclassifiedDriftError
from repro.regress.runner import DEFAULT_SEED
from repro.reporting import (
    comparison_rows,
    fuzz_to_json,
    invoke_to_json,
    perf_diff_to_json,
    regress_to_json,
    render_accept_history,
    render_client_robustness,
    render_experiments_markdown,
    render_fidelity_summary,
    render_fig4,
    render_fuzz_matrix,
    render_gate_summary,
    render_html_report,
    render_invoke_matrix,
    render_perf_diff,
    render_perf_trend,
    render_pool_summary,
    render_profile,
    render_quarantine,
    render_regress_report,
    render_resilience_matrix,
    render_table,
    render_table1,
    render_table2,
    render_table3,
    render_timing_advisory,
    render_triage_summary,
    resilience_to_json,
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


class UsageError(Exception):
    """A command line argparse accepts but the command cannot run.

    ``main`` prints it as ``error: <message>`` and exits 2.
    """


def positive_int(text):
    """``type=`` of ``--workers``, ``--shards`` and ``--sample``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _enum_list(text, members, noun, plural, parse=None, extra=""):
    """The members a comma list names, each parsed by ``parse`` (by
    default ``members``, an enum); all of ``members`` when empty."""
    if not text:
        return tuple(members)
    try:
        return tuple(
            (parse or members)(item.strip()) for item in text.split(",")
        )
    except ValueError:
        valid = ", ".join(member.value for member in members)
        raise UsageError(
            f"unknown {noun} in {text!r}; valid {plural}: {valid}{extra}"
        ) from None


def _unit_floats(text, flag, noun):
    """The numbers of a comma list, each within [0, 1]."""
    try:
        values = tuple(float(item) for item in text.split(","))
    except ValueError:
        raise UsageError(
            f"{flag} expects comma-separated numbers, got {text!r}"
        ) from None
    if any(not 0.0 <= value <= 1.0 for value in values):
        raise UsageError(f"{noun} must be within [0, 1], got {text!r}")
    return values


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
        return CampaignCheckpoint(args.checkpoint_dir)
    return None


def _write_report(path, render, label=None):
    """Write ``render()`` to ``path``, when one was given.

    Every report goes through the durable-file layer: a kill never
    leaves a torn file, and a failed write is a classified
    ``unwritable`` :class:`StoreError` (exit 2 with a hint).
    """
    if path:
        write_text_atomic(render(), path)
        if label:
            print(f"{label} written to {path}", file=sys.stderr)


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
        print(render_pool_summary(stats), file=sys.stderr)
    if collector is not None:
        path = TraceSink(trace_dir).write(
            collector.trace_id, job.campaign, collector.events,
            collector.metrics, workers=workers,
            worker_events=collector.worker_events,
        )
        print(f"trace written to {path}", file=sys.stderr)
    return result


def _run_campaign(args, row=None):
    """Build and run one sweep (default ``run``); returns only its result.

    The campaign holds the catalogs and a server's deployment, so it is
    dropped here, before any report serializes the result: keeping a
    paper-scale ``run`` campaign alive through ``--save`` raised peak
    memory by a fifth.
    """
    row = row or SWEEPS["run"]
    started = time.time()
    campaign = campaign_class(row.kind)(row.config(args))
    shards = getattr(args, "shards", None)  # only `run` has --shards
    result = _sweep(
        args, campaign,
        campaign.shard_job(shards) if shards else campaign.shard_job(),
    )
    print(f"{row.banner} finished in {time.time() - started:.1f}s",
          file=sys.stderr)
    return result


def cmd_sweep(args):
    """The five sweep commands: one row of :data:`SWEEPS` each."""
    row = SWEEPS[args.command]
    return row.report(_run_campaign(args, row), args)


def _totals(result):
    totals = result.totals()
    return "\n".join(f"{key}: {value}" for key, value in totals.items())


def _unclassified_exit(result, what):
    """3 when unclassified errors escaped the sweep, else 0."""
    if result.unclassified_total:
        print(f"error: {result.unclassified_total} {what}", file=sys.stderr)
        return 3
    return 0


def _report_run(result, args):
    print(_totals(result))
    _write_report(args.csv, lambda: table3_to_csv(result),
                  "per-combination CSV")
    _write_report(args.json, lambda: result_to_json(result), "JSON")
    if args.save:
        save_result(result, args.save)
        print(f"full result saved to {args.save}", file=sys.stderr)
    return 0


def _resilience_config(args):
    from repro.faults import (
        DEFAULT_FAULT_KINDS,
        DEFAULT_WIRE_FAULT_KINDS,
        FaultKind,
        ResilienceCampaignConfig,
    )

    wire_valid = ", ".join(kind.value for kind in DEFAULT_WIRE_FAULT_KINDS)
    kinds = _enum_list(
        args.kinds, DEFAULT_FAULT_KINDS, "fault kind", "kinds",
        parse=FaultKind,
        extra=f"; wire-only kinds (--transport wire): {wire_valid}",
    )
    wire_kinds = [k.value for k in kinds if k in DEFAULT_WIRE_FAULT_KINDS]
    if wire_kinds and args.transport != "wire":
        raise UsageError(
            f"fault kind(s) {', '.join(wire_kinds)} exist only on the wire; "
            "re-run with --transport wire"
        )
    return ResilienceCampaignConfig(
        base=_config_from(args), seed=args.seed, fault_kinds=kinds,
        rates=_unit_floats(args.rates, "--rates", "fault rates"),
        sample_per_server=args.sample,
    )


def _report_resilience(result, args):
    print("\n\n".join((
        render_resilience_matrix(result, only_failing=args.only_failing),
        render_client_robustness(result),
        _totals(result),
    )))
    _write_report(args.json, lambda: resilience_to_json(result), "JSON")
    return 0


def _fuzz_config(args):
    from repro.faults import FuzzCampaignConfig, MutationKind

    return FuzzCampaignConfig(
        base=_config_from(args),
        seed=args.seed,
        mutation_kinds=_enum_list(
            args.kinds, MutationKind, "mutation kind", "kinds"
        ),
        intensities=_unit_floats(
            args.intensities, "--intensities", "intensities"
        ),
        mutants_per_config=args.mutants,
        sample_per_server=args.sample,
        deadline_seconds=args.deadline,
        fail_fast=args.fail_fast,
    )


def _report_fuzz(result, args):
    print("\n\n".join((
        render_fuzz_matrix(result, only_failing=args.only_failing),
        render_triage_summary(result),
        render_quarantine(result),
        _totals(result),
    )))
    _write_report(args.json, lambda: fuzz_to_json(result), "JSON")
    if result.aborted:
        print("error: sweep aborted by --fail-fast on an unclassified "
              "tool-internal error", file=sys.stderr)
        return 3
    return _unclassified_exit(
        result, "mutants escaped with unclassified (tool-internal) errors"
    )


def _invoke_config(args):
    from repro.invoke import InvocationCampaignConfig, PayloadClass

    return InvocationCampaignConfig(
        base=_config_from(args),
        seed=args.seed,
        payload_classes=_enum_list(
            args.classes, PayloadClass, "payload class", "classes"
        ),
        payloads_per_class=args.payloads,
        sample_per_server=args.sample,
        deadline_seconds=args.deadline,
        service_filter=args.services or "",
    )


def _report_invoke(result, args):
    if not result.services_matched and args.services:
        print(f"no deployed service matches --services "
              f"{args.services!r}; nothing was invoked", file=sys.stderr)
    print("\n\n".join((
        render_invoke_matrix(result, only_failing=args.only_failing),
        render_fidelity_summary(result),
        render_gate_summary(result),
        render_quarantine(result),
        _totals(result),
    )))
    _write_report(args.json, lambda: invoke_to_json(result), "JSON")
    return _unclassified_exit(
        result, "invocations escaped with unclassified errors"
    )


def _report_lifecycle(result, args):
    print("\n\n".join((
        render_table(
            ("Server", "Client", "GenErr", "CompErr", "CommErr", "ExecErr",
             "Done"),
            result.rows(),
            title="Five-step lifecycle outcomes",
        ),
        _totals(result),
    )))
    print(f"completion ratio: {result.completion_ratio():.3f}")
    return 0


class SweepCommand(NamedTuple):
    """One sweep command: what :func:`cmd_sweep` runs and reports."""

    #: The engine kind (a ``sharding._CAMPAIGN_CLASSES`` key).
    kind: str
    #: Printed to stderr as ``<banner> finished in <seconds>s``.
    banner: str
    #: ``config(args)``: the kind's campaign configuration.
    config: Callable
    #: ``report(result, args)``: prints and writes; returns the exit code.
    report: Callable


#: ``{command: row}`` for the five sweep commands.
SWEEPS = {
    "run": SweepCommand("run", "campaign", _config_from, _report_run),
    "resilience": SweepCommand(
        "resilience", "resilience sweep", _resilience_config,
        _report_resilience,
    ),
    "fuzz": SweepCommand("fuzz", "fuzz sweep", _fuzz_config, _report_fuzz),
    "invoke": SweepCommand(
        "invoke", "invocation sweep", _invoke_config, _report_invoke
    ),
    "lifecycle-campaign": SweepCommand(
        "lifecycle", "lifecycle sweep",
        lambda args: LifecycleCampaignConfig(_config_from(args), args.sample),
        _report_lifecycle,
    ),
}


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
    _write_report(args.json, lambda: result_to_json(result))
    _write_report(args.html, lambda: render_html_report(result),
                  "HTML report")
    return 0


def _deploy_one(server_id, type_name):
    container = container_for(server_id)
    catalog = Campaign().catalog(container.framework.catalog)
    return container.deploy(ServiceDefinition(catalog.require(type_name)))


def cmd_experiments(args):
    started = time.time()
    result = _run_campaign(args)
    markdown = render_experiments_markdown(
        result, elapsed_seconds=time.time() - started
    )
    if args.output:
        _write_report(args.output, lambda: markdown, "experiment report")
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


def _git_rev(directory=os.path.dirname(os.path.abspath(__file__))):
    """Short git revision of the checkout holding ``directory`` (this
    package by default, whatever the working directory), suffixed
    ``-dirty`` when tracked files differ from it; "" outside a checkout.
    """
    import subprocess

    def git(*args):
        out = subprocess.run(
            ["git", "-C", directory, *args],
            capture_output=True, text=True, timeout=5.0,
        )
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        rev = git("rev-parse", "--short", "HEAD")
        if not rev:
            return ""
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return ""
    return f"{rev}-dirty" if dirty else rev


def cmd_regress(args):
    from repro.regress import (
        BaselineStore,
        build_configs,
        build_report,
        run_sweeps,
    )

    if args.history:
        print(render_accept_history(BaselineStore(args.baseline_dir).history()))
        return 0
    campaigns = CAMPAIGN_KINDS
    if args.campaigns:
        requested = tuple(kind.strip() for kind in args.campaigns.split(","))
        unknown = [kind for kind in requested if kind not in CAMPAIGN_KINDS]
        if unknown:
            raise UsageError(
                f"unknown campaign kind(s) {', '.join(unknown)}; "
                f"valid kinds: {', '.join(CAMPAIGN_KINDS)}"
            )
        # Canonical report order regardless of how the CSV was written.
        campaigns = tuple(k for k in CAMPAIGN_KINDS if k in requested)
    if args.perturb and args.perturb not in campaigns:
        raise UsageError(
            f"--perturb {args.perturb!r} is not among the swept "
            f"campaigns {', '.join(campaigns)}"
        )

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
            print(render_pool_summary(stats), file=sys.stderr)
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
        # Advisory only: rendered text, never folded into exit_code.
        print()
        print(render_timing_advisory(
            _timing_advisories(args.perf_ledger, campaigns, configs)
        ))
    _write_report(args.report, lambda: regress_to_json(report),
                  "drift report")
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
    from repro.obs import load_trace

    print(render_profile(load_trace(args.trace), top=args.top))
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
    from repro.obs import PerfLedger, load_trace
    from repro.obs.perf import perf_profile

    if args.trace:
        trace, seed = load_trace(args.trace), None
    else:
        trace, seed = _record_sweep_trace(args), args.seed
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
        raise UsageError(
            f"{exc} (narrow the references with --kind)"
        ) from None
    print(render_perf_diff(diff, label_a=label(entry_a),
                           label_b=label(entry_b)))
    _write_report(args.json, lambda: perf_diff_to_json(diff, indent=2), "JSON")
    return 2 if diff.significant else 0


def cmd_perf_trend(args):
    from repro.obs import PerfLedger

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


def _add_common_arguments(parser, quick_help=None):
    """``--quick`` and ``--verbose``: every command that runs a sweep."""
    parser.add_argument("--quick", action="store_true", help=quick_help)
    parser.add_argument("--verbose", action="store_true")


def _add_sample_argument(parser, default, help_text):
    parser.add_argument(
        "--sample", type=positive_int, default=default, help=help_text
    )


def _add_seed_sample_arguments(parser, seed_help, sample, sample_help):
    """The sampled sweeps' ``--seed`` and ``--sample``."""
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=seed_help)
    _add_sample_argument(parser, sample, sample_help)


def _add_fleet_arguments(parser, seed_help, sample_help, sweep):
    """The ``regress`` / ``perf record`` sweep shape: ``--seed``,
    ``--sample``, ``--payloads`` and ``--mutants``."""
    _add_seed_sample_arguments(parser, seed_help, 2, sample_help)
    parser.add_argument(
        "--payloads", type=int, default=1,
        help=f"invoke {sweep}: payloads per (service, class) combination",
    )
    parser.add_argument(
        "--mutants", type=int, default=1,
        help=f"fuzz {sweep}: mutants per (service, kind, intensity)",
    )


def _add_sweep_arguments(parser, json_help, checkpoint_help,
                         failing_help=None, save_help=None, transport=True,
                         shards=False):
    """The flags the sweep commands share, in their help order:
    ``--only-failing``, ``--json``, ``run``'s ``--save``,
    ``--checkpoint-dir``, ``--transport`` and the pool flags."""
    if failing_help:
        parser.add_argument("--only-failing", action="store_true",
                            help=failing_help)
    parser.add_argument("--json", help=json_help)
    if save_help:
        parser.add_argument("--save", help=save_help)
    parser.add_argument("--checkpoint-dir", help=checkpoint_help)
    if transport:
        _add_transport_argument(parser)
    _add_pool_arguments(parser, shards=shards)


def _add_transport_argument(parser):
    parser.add_argument(
        "--transport", choices=("memory", "wire"), default="memory",
        help="step-4/5 exchange carrier: the in-memory router (default) or "
        "real loopback HTTP sockets; matrices are byte-identical by "
        "contract, so either gates against the same baseline",
    )


def _add_pool_arguments(parser, shards=False):
    parser.add_argument(
        "--workers", type=positive_int, default=1,
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
            "--shards", type=positive_int, default=None,
            help="service chunks per server (default 4); worker-count "
            "independent and part of the checkpoint fingerprint",
        )


def _add_ledger_arguments(parser, kind_help):
    """``perf diff`` / ``perf trend``: the ledger and a kind filter."""
    parser.add_argument("--ledger-dir", required=True, metavar="DIR")
    parser.add_argument("--kind", choices=CAMPAIGN_KINDS, help=kind_help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wsinterop",
        description="Web-service framework interoperability assessment "
        "(DSN 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, quick=False, quick_help=None):
        """A subcommand; ``quick`` adds ``--quick`` and ``--verbose``."""
        child = sub.add_parser(name, help=help_text)
        child.set_defaults(func=func)
        if quick:
            _add_common_arguments(child, quick_help)
        return child

    command("tables", cmd_tables, "print Tables I and II")
    command(
        "corpus", cmd_corpus, "print the type-catalog populations"
    ).add_argument(
        "--detail", action="store_true",
        help="kinds, namespaces and failure-class populations",
    )

    run_parser = command("run", cmd_sweep, "run the campaign, print totals",
                         quick=True, quick_help="small corpora")
    run_parser.add_argument("--csv", help="write per-combination CSV here")
    _add_sweep_arguments(
        run_parser, json_help="write JSON results here",
        save_help="persist the full result (re-analyzable with `analyze`)",
        checkpoint_help="checkpoint each completed shard unit here; re-run "
        "(under any --workers count) to resume",
        transport=False, shards=True,
    )

    resilience_parser = command(
        "resilience", cmd_sweep,
        "seeded fault-injection sweep over the five-step lifecycle",
        quick=True, quick_help="small corpora",
    )
    _add_seed_sample_arguments(
        resilience_parser,
        "fault-schedule seed (same seed = identical results)", 20,
        "deployed services per server driven through each fault config",
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
    _add_sweep_arguments(
        resilience_parser, json_help="write the matrices here",
        failing_help="print only matrix rows with failures or recoveries",
        checkpoint_help="checkpoint each completed server here; re-run to "
        "resume",
    )

    fuzz_parser = command(
        "fuzz", cmd_sweep,
        "seeded WSDL-corruption sweep over the guarded wsdl2code "
        "pipeline (crash-triage matrices)",
        quick=True, quick_help="small corpora",
    )
    _add_seed_sample_arguments(
        fuzz_parser, "mutation seed (same seed = byte-identical matrices)",
        6, "deployed services per server fed to the mutator",
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
    _add_sweep_arguments(
        fuzz_parser, json_help="write the triage matrices here",
        failing_help="print only matrix rows with non-clean triage buckets",
        checkpoint_help="checkpoint each completed server here; re-run to "
        "resume (quarantined cells stay quarantined)",
        transport=False,
    )

    invoke_parser = command(
        "invoke", cmd_sweep,
        "step-4 invocation sweep: schema-derived payloads through "
        "the live echo path (round-trip fidelity matrices)",
        quick=True, quick_help="small corpora",
    )
    _add_seed_sample_arguments(
        invoke_parser, "payload seed (same seed = byte-identical matrices)",
        6, "deployed services per server driven through the sweep",
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
    _add_sweep_arguments(
        invoke_parser, json_help="write the fidelity matrices here",
        failing_help="print only matrix rows with non-lossless round trips",
        checkpoint_help="checkpoint each completed server here; re-run to "
        "resume (quarantined cells stay quarantined)",
    )

    regress_parser = command(
        "regress", cmd_regress,
        "run the sweep fleet, diff every matrix cell-by-cell against "
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
        f"(default: {','.join(CAMPAIGN_KINDS)})",
    )
    _add_common_arguments(regress_parser, "small corpora")
    _add_fleet_arguments(
        regress_parser,
        "shared sweep seed (same seed = byte-identical matrices)",
        "deployed services per server in each sweep", "sweep",
    )
    regress_parser.add_argument(
        "--workers", type=positive_int, default=1,
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

    command("matrix", cmd_matrix, "print the interoperability verdict grid",
            quick=True)

    command(
        "analyze", cmd_analyze, "re-analyze a result saved with `run --save`"
    ).add_argument("result_file")

    profile_parser = command(
        "profile", cmd_profile,
        "render stage latencies, slowest services and worker "
        "utilization from a trace written with --trace-dir",
    )
    profile_parser.add_argument(
        "trace", help="trace.jsonl file, or the --trace-dir that holds one"
    )
    profile_parser.add_argument(
        "--top", type=int, default=10,
        help="rows in the slowest-services table",
    )

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
        "--campaign", choices=CAMPAIGN_KINDS,
        help="run this campaign kind under tracing and record its profile",
    )
    _add_common_arguments(perf_record, "small corpora")
    _add_fleet_arguments(
        perf_record, "sweep seed for --campaign (matches the regress default)",
        "deployed services per server for --campaign sweeps", "sweeps",
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
    _add_ledger_arguments(
        perf_diff, "restrict reference resolution to one campaign kind"
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
    _add_ledger_arguments(
        perf_trend, "restrict the series to one campaign kind"
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

    report_parser = command(
        "report", cmd_report,
        "run the campaign, print Fig. 4 / Table III / comparison", quick=True,
    )
    report_parser.add_argument("--json", help="write JSON results here")
    report_parser.add_argument("--html", help="write a standalone HTML report here")

    command(
        "experiments", cmd_experiments,
        "render the EXPERIMENTS.md paper-vs-measured report", quick=True,
    ).add_argument("-o", "--output", help="write markdown here")

    command("stats", cmd_stats,
            "error taxonomy, maturity ranking and WS-I association",
            quick=True)

    _add_sample_argument(
        command(
            "lifecycle-campaign", cmd_sweep,
            "run the five-step lifecycle campaign (paper's future work)",
            quick=True,
        ),
        None, "max deployed services per server to drive through steps 4-5",
    )

    for name, func, help_text in (
        ("wsdl", cmd_wsdl, "print the WSDL published for one service"),
        ("check", cmd_check, "WS-I check the WSDL of one service"),
    ):
        one = command(name, func, help_text)
        one.add_argument("server", choices=SERVER_IDS)
        one.add_argument("type_name", help="fully-qualified parameter type")

    lifecycle_parser = command(
        "lifecycle", cmd_lifecycle,
        "run the full 5-step lifecycle for one combination",
    )
    lifecycle_parser.add_argument("server", choices=SERVER_IDS)
    lifecycle_parser.add_argument("type_name")
    lifecycle_parser.add_argument("--client", choices=CLIENT_IDS, default="suds")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with flush_signals_to_interrupt():
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
