"""The one client ladder: guarded generate → compile, shared by every sweep.

:func:`repro.runtime.lifecycle.build_client` is the only place a client's
``generate`` and ``compile`` run under the guard outside ``run``.  Each
failure it can report is checked here three ways: the record it
returns, the lifecycle outcome the gate builds from it, and the
``(bucket, rejected, detail)`` triple the fuzz sweep builds from it.
"""

import types

import pytest

from repro.appservers import GlassFish
from repro.compilers import (
    CompilationResult,
    CompilerDiagnostic,
    DiagnosticSeverity,
)
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.extended import LifecycleCampaign, LifecycleCampaignConfig
from repro.core.outcomes import StepStatus
from repro.faults.campaign import (
    FuzzCampaign,
    FuzzCampaignConfig,
    ResilienceCampaign,
    ResilienceCampaignConfig,
)
from repro.frameworks import GenerationResult, ToolDiagnostic, ToolSeverity
from repro.invoke.campaign import InvocationCampaign, InvocationCampaignConfig
from repro.runtime import INLINE_LIMITS, TriageBucket, run_full_lifecycle
from repro.runtime.lifecycle import build_client, guarded_read
from repro.services import ServiceDefinition
from repro.typesystem import Language, Property, TypeInfo

ERROR, OK, SKIPPED, WARNING = (
    StepStatus.ERROR, StepStatus.OK, StepStatus.SKIPPED, StepStatus.WARNING,
)

#: What a stub generate hands to compile; no failing case reaches a proxy.
BUNDLE = object()


def _generated(*errors):
    return GenerationResult("stub-gen", bundle=BUNDLE, diagnostics=[
        ToolDiagnostic(ToolSeverity.WARNING, "W1", "noted"),
        *(ToolDiagnostic(ToolSeverity.ERROR, code, message)
          for code, message in errors),
    ])


def _compiled(*errors):
    return CompilationResult("stub-cc", diagnostics=[
        CompilerDiagnostic(DiagnosticSeverity.ERROR, code, message)
        for code, message in errors
    ])


def _raise(exc):
    def tool(argument):
        raise exc
    return tool


def _client(generate=lambda document: _generated(), compile=None):
    """A compiling client whose generate and compile are given."""
    return types.SimpleNamespace(
        requires_compilation=True,
        generate=generate,
        compiler=types.SimpleNamespace(
            compile=compile or (lambda bundle: _compiled())
        ),
    )


REJECTED_BY_GENERATE = [
    ("G1", "one"), ("G2", "two"), ("G3", "three"), ("G4", "four"),
]
REJECTED_BY_COMPILE = [("C1", "cannot find symbol")]

#: id -> (client, failed step, verdict bucket or None, error count,
#: the gate's outcome (statuses, detail, triage), ``_drive``'s triple).
CASES = {
    "generate-raises": (
        _client(generate=_raise(RuntimeError("generator bug"))),
        "generation", TriageBucket.TOOL_INTERNAL, 0,
        ((ERROR, SKIPPED, SKIPPED, SKIPPED),
         "[tool-internal] RuntimeError: generator bug", "tool-internal"),
        (TriageBucket.TOOL_INTERNAL, False, "RuntimeError: generator bug"),
    ),
    "generate-rejects": (
        _client(generate=lambda document: _generated(*REJECTED_BY_GENERATE)),
        "generation", None, 4,
        ((ERROR, SKIPPED, SKIPPED, SKIPPED),
         "error: [G1] one; error: [G2] two; error: [G3] three", ""),
        (TriageBucket.CLEAN, True, ""),
    ),
    "compile-raises": (
        _client(compile=_raise(RecursionError("too deep"))),
        "compilation", TriageBucket.RESOURCE_BLOWUP, 0,
        ((WARNING, ERROR, SKIPPED, SKIPPED),
         "[resource-blowup] RecursionError: too deep", "resource-blowup"),
        (TriageBucket.RESOURCE_BLOWUP, False, "RecursionError: too deep"),
    ),
    "compile-rejects": (
        _client(compile=lambda bundle: _compiled(*REJECTED_BY_COMPILE)),
        "compilation", None, 1,
        ((WARNING, ERROR, SKIPPED, SKIPPED),
         "error: [C1] cannot find symbol", ""),
        (TriageBucket.CLEAN, True, ""),
    ),
}


@pytest.fixture(scope="module")
def record():
    entry = TypeInfo(Language.JAVA, "pkg", "Plain",
                     properties=(Property("size"),))
    record = GlassFish().deploy(ServiceDefinition(entry))
    assert record.accepted
    return record


@pytest.fixture(scope="module")
def read(record):
    verdict = guarded_read(record.wsdl_text)
    assert verdict.ok
    return verdict


@pytest.mark.parametrize("case", sorted(CASES))
class TestBuildClient:
    def test_record_names_the_failed_step(self, case, read):
        client, step, bucket, errors, _, _ = CASES[case]
        built = build_client(read.value, client, INLINE_LIMITS)
        assert not built.ok
        assert built.failed == step
        assert built.statuses[step] is ERROR
        if bucket is None:
            assert built.verdict is None
        else:
            assert built.verdict.bucket is bucket
            assert built.verdict.step == {
                "generation": "generate", "compilation": "compile",
            }[step]
        assert len(built.errors) == errors
        assert all(diagnostic.is_error for diagnostic in built.errors)
        assert (built.bundle is BUNDLE) == (step == "compilation")

    def test_the_lifecycle_gate_classifies_it(self, case, record, read):
        client, _, _, _, (statuses, detail, triage), _ = CASES[case]
        outcome = run_full_lifecycle(record, client, client_id="stub")
        assert (
            outcome.generation, outcome.compilation,
            outcome.communication, outcome.execution,
        ) == statuses
        assert outcome.detail == detail
        assert outcome.triage == triage
        assert outcome.client_id == "stub"
        assert outcome.service_name == read.value.name

    def test_the_fuzz_sweep_classifies_it(self, case, read):
        client, _, _, _, _, triple = CASES[case]
        campaign = FuzzCampaign(FuzzCampaignConfig())
        assert campaign._drive(read, client, INLINE_LIMITS) == triple


def test_a_clean_ladder_reports_every_step(read):
    built = build_client(read.value, _client(), INLINE_LIMITS)
    assert built.ok and not built.failed
    assert built.statuses == {"generation": WARNING, "compilation": OK}
    assert built.bundle is BUNDLE
    assert built.verdict is None and not built.errors


def test_a_dynamic_client_skips_compile(read):
    client = _client(compile=_raise(AssertionError("compile ran")))
    client.requires_compilation = False
    built = build_client(read.value, client, INLINE_LIMITS)
    assert built.ok
    assert built.statuses == {
        "generation": WARNING, "compilation": StepStatus.NOT_APPLICABLE,
    }


_OVERRIDES = {"axis1": {"throwable_wrapper_bug": False}}


@pytest.mark.parametrize("make", [
    lambda base: LifecycleCampaign(LifecycleCampaignConfig(base, 1)),
    lambda base: ResilienceCampaign(ResilienceCampaignConfig(base=base)),
    lambda base: FuzzCampaign(FuzzCampaignConfig(base=base)),
    lambda base: InvocationCampaign(InvocationCampaignConfig(base=base)),
], ids=["lifecycle", "resilience", "fuzz", "invoke"])
def test_sampled_kinds_refuse_client_flag_overrides(make):
    # Their fingerprints do not name the overrides, so a sweep that
    # took them would checkpoint and gate as if they were never set.
    base = CampaignConfig(client_flag_overrides=_OVERRIDES)
    with pytest.raises(ValueError, match="client_flag_overrides"):
        make(base)


def test_the_sampled_kinds_sit_on_the_campaign_base():
    assert issubclass(LifecycleCampaign, Campaign)
    assert "run" not in vars(LifecycleCampaign)
    assert LifecycleCampaign.run is Campaign.run
