"""Unit tests for the wsinterop CLI."""

import errno
import gc
import json
import os
import shutil
import subprocess
import weakref

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core import Campaign, CampaignConfig
from repro.core.extended import LifecycleCampaign
from repro.faults import ResilienceCampaign, ResilienceCampaignConfig


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_run_flags(self):
        args = build_parser().parse_args(["run", "--quick", "--csv", "x.csv"])
        assert args.quick and args.csv == "x.csv"

    @pytest.mark.parametrize("command", ["resilience", "invoke", "regress"])
    def test_transport_flag(self, command):
        extra = (
            ["--baseline-dir", "b"] if command == "regress" else []
        )
        args = build_parser().parse_args([command] + extra)
        assert args.transport == "memory"
        args = build_parser().parse_args(
            [command, "--transport", "wire"] + extra
        )
        assert args.transport == "wire"

    def test_transport_choices_are_closed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["invoke", "--transport", "pigeon"])


class TestTransportGuards:
    def test_wire_kind_requires_wire_transport(self, capsys):
        rc = main(["resilience", "--quick", "--kinds", "reset",
                   "--sample", "1"])
        assert rc == 2
        assert "--transport wire" in capsys.readouterr().err

    def test_unknown_kind_lists_both_taxonomies(self, capsys):
        rc = main(["resilience", "--quick", "--kinds", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "http-503" in err and "slowloris" in err

    def test_default_kinds_are_the_six_response_level_kinds(self):
        from repro.faults import DEFAULT_FAULT_KINDS, FaultKind

        config = cli._resilience_config(
            build_parser().parse_args(["resilience", "--quick"])
        )
        assert config.fault_kinds == DEFAULT_FAULT_KINDS
        assert [kind.value for kind in config.fault_kinds] == [
            "connection-refused", "http-500", "http-503", "latency",
            "truncated-body", "malformed-envelope",
        ]
        assert len(FaultKind) > len(config.fault_kinds)

    def test_mixed_kinds_accepted_with_wire_transport(self):
        args = build_parser().parse_args(
            ["resilience", "--kinds", "http-503,reset",
             "--transport", "wire"]
        )
        assert args.kinds == "http-503,reset"


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out

    def test_corpus(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "3971" in out and "14082" in out and "22024" in out

    def test_wsdl_prints_document(self, capsys):
        assert main(["wsdl", "metro", "java.util.Date"]) == 0
        out = capsys.readouterr().out
        assert "<wsdl:definitions" in out

    def test_wsdl_refused_type(self, capsys):
        rc = main(["wsdl", "metro", "java.util.concurrent.Future"])
        assert rc == 1
        assert "refused" in capsys.readouterr().err

    def test_check_failing_service_exits_2(self, capsys):
        rc = main(["check", "metro", "java.text.SimpleDateFormat"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_check_passing_service_exits_0(self, capsys):
        rc = main(["check", "metro", "java.util.Date"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_lifecycle_success(self, capsys):
        rc = main(["lifecycle", "metro", "java.util.Date", "--client", "suds"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution:     ok" in out

    def test_lifecycle_failure_exit_code(self, capsys):
        rc = main(
            ["lifecycle", "wcf", "System.Data.DataSet", "--client", "metro"]
        )
        assert rc == 2
        assert "generation:    error" in capsys.readouterr().out

    def test_run_quick_with_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "cells.csv"
        json_path = tmp_path / "out.json"
        rc = main(
            ["run", "--quick", "--csv", str(csv_path), "--json", str(json_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tests:" in out
        assert csv_path.read_text().startswith("server,client")
        payload = json.loads(json_path.read_text())
        assert set(payload["servers"]) == {"metro", "jbossws", "wcf"}

    def test_run_save_then_analyze(self, tmp_path, capsys):
        saved = tmp_path / "saved.json"
        assert main(["run", "--quick", "--save", str(saved)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "Headline numbers" in out

    def test_experiments_quick_to_file(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        assert main(["experiments", "--quick", "-o", str(output)]) == 0
        assert output.read_text().startswith("# EXPERIMENTS")

    def test_stats_quick(self, capsys):
        assert main(["stats", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Error-cause taxonomy" in out
        assert "odds ratio" in out

    def test_lifecycle_campaign_quick(self, capsys):
        assert main(["lifecycle-campaign", "--quick", "--sample", "15"]) == 0
        out = capsys.readouterr().out
        assert "Five-step lifecycle outcomes" in out
        assert "completion ratio" in out

    def test_matrix_quick(self, capsys):
        assert main(["matrix", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Interoperability matrix" in out
        assert "suds" in out

    def test_report_quick(self, capsys):
        rc = main(["report", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "Paper vs measured" in out


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class TestClassifiedStoreErrors:
    """A damaged file read back exits 2 with ``error:`` and ``hint:``."""

    INVOKE = ["invoke", "--quick", "--sample", "1", "--seed", "7"]

    @pytest.mark.parametrize(
        "entry", ["invoke-metro-000of001.json", "manifest.json"]
    )
    def test_truncated_checkpoint_entry(self, tmp_path, capsys, entry):
        checkpoint = tmp_path / "ck"
        argv = self.INVOKE + ["--checkpoint-dir", str(checkpoint)]
        assert main(argv) == 0
        _truncate(checkpoint / entry)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: checkpoint entry {checkpoint / entry}" in err
        assert f"hint: delete {checkpoint / entry}" in err

    def test_analyze_truncated_result(self, tmp_path, capsys):
        saved = tmp_path / "saved.json"
        assert main(["run", "--quick", "--save", str(saved)]) == 0
        _truncate(saved)
        capsys.readouterr()
        assert main(["analyze", str(saved)]) == 2
        err = capsys.readouterr().err
        assert f"error: saved result {saved} is unreadable" in err
        assert "hint: re-run `wsinterop run --save" in err

    def test_analyze_missing_result(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "error: no saved result at" in err
        assert "hint: re-run `wsinterop run --save" in err


class TestClassifiedWriteAndTraceErrors:
    INVOKE = ["invoke", "--quick", "--sample", "1", "--seed", "7"]

    def test_report_write_under_enospc(self, tmp_path, capsys, monkeypatch):
        report = tmp_path / "invoke.json"
        report.write_text("earlier report\n")

        def enospc(descriptor):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fsync", enospc)
        assert main(self.INVOKE + ["--json", str(report)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {report}: " in err
        assert f"hint: check that {tmp_path} exists" in err
        assert "ENOSPC" in err
        assert "Traceback" not in err
        assert report.read_text() == "earlier report\n"
        assert os.listdir(tmp_path) == ["invoke.json"]

    def test_report_into_a_missing_directory(self, tmp_path, capsys):
        report = tmp_path / "missing" / "invoke.json"
        assert main(self.INVOKE + ["--json", str(report)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {report}" in err
        assert "hint:" in err and "ENOENT" in err

    def test_perf_record_missing_trace(self, tmp_path, capsys):
        rc = main(["perf", "record", "--ledger-dir", str(tmp_path / "pl"),
                   "--trace", str(tmp_path / "nope")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: no trace found" in err
        assert "hint:" in err and "--trace-dir" in err


#: Commands whose --workers, --shards or --sample take a count.
COUNT_FLAGS = [
    (command, flag)
    for command, flags in (
        (["run"], ("--workers", "--shards")),
        (["resilience"], ("--workers", "--sample")),
        (["fuzz"], ("--workers", "--sample")),
        (["invoke"], ("--workers", "--sample")),
        (["lifecycle-campaign"], ("--sample",)),
        (["regress", "--baseline-dir", "b"], ("--workers", "--sample")),
        (["perf", "record", "--ledger-dir", "l", "--campaign", "run"],
         ("--workers", "--sample")),
    )
    for flag in flags
]


class TestNonPositiveCounts:
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "command,flag", COUNT_FLAGS,
        ids=[f"{command[0]}{flag}" for command, flag in COUNT_FLAGS],
    )
    def test_rejected_by_argparse(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(command + [flag, value])
        assert caught.value.code == 2
        assert f"argument {flag}: must be >= 1, got {value}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("sample", [0, -1])
    def test_sampled_campaigns_reject_an_empty_sample(self, sample):
        with pytest.raises(ValueError, match="sample_per_server"):
            LifecycleCampaign(CampaignConfig(), sample_per_server=sample)
        with pytest.raises(ValueError, match="sample_per_server"):
            ResilienceCampaign(
                ResilienceCampaignConfig(sample_per_server=sample)
            )


#: One fast invocation of each sweep command.
SWEEP_ARGV = {
    "run": ["run", "--quick"],
    "resilience": ["resilience", "--quick", "--sample", "1", "--kinds",
                   "http-503", "--rates", "0.4"],
    "fuzz": ["fuzz", "--quick", "--sample", "1", "--kinds", "truncation",
             "--intensities", "0.5"],
    "invoke": ["invoke", "--quick", "--sample", "1", "--payloads", "1"],
    "lifecycle-campaign": ["lifecycle-campaign", "--quick", "--sample", "1"],
}


class TestOneSweepCommand:
    def test_every_sweep_command_is_a_row(self):
        assert sorted(cli.SWEEPS) == sorted(SWEEP_ARGV)
        for command in SWEEP_ARGV:
            args = build_parser().parse_args(SWEEP_ARGV[command])
            assert args.func is cli.cmd_sweep

    @pytest.mark.parametrize("command", sorted(SWEEP_ARGV))
    def test_campaign_freed_before_the_report(self, command, monkeypatch,
                                              capsys):
        """No campaign is reachable while the report runs: a campaign
        holds catalogs and a deployment, and serializing a result
        beside them raises peak memory.  (Guard verdicts keep their
        exception's traceback, so a sampled sweep's campaign can sit in
        cyclic garbage; collecting it first leaves only what is still
        reachable.)"""
        built = []
        for cls in (Campaign, LifecycleCampaign):
            def tracking(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                built.append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", tracking)
        row = cli.SWEEPS[command]
        alive = []

        def report(result, args):
            gc.collect()
            alive.extend(ref() for ref in built if ref() is not None)
            return row.report(result, args)

        monkeypatch.setitem(cli.SWEEPS, command, row._replace(report=report))
        assert main(SWEEP_ARGV[command]) == 0
        assert built and alive == []


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestGitRev:
    """The revision ``regress --accept`` and ``perf record`` stamp."""

    def _git(self, directory, *args):
        return subprocess.run(
            ["git", "-C", str(directory), "-c", "user.name=t",
             "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
             *args],
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    def test_a_dirty_tree_is_marked(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        (tmp_path / "a.txt").write_text("one\n")
        self._git(tmp_path, "add", "a.txt")
        self._git(tmp_path, "commit", "-q", "-m", "one")
        rev = self._git(tmp_path, "rev-parse", "--short", "HEAD")
        (tmp_path / "untracked.txt").write_text("x\n")
        assert cli._git_rev(str(tmp_path)) == rev
        (tmp_path / "a.txt").write_text("two\n")
        assert cli._git_rev(str(tmp_path)) == f"{rev}-dirty"

    def test_reads_the_package_checkout_from_any_directory(
        self, tmp_path, monkeypatch
    ):
        package = os.path.dirname(os.path.abspath(cli.__file__))
        try:
            rev = self._git(package, "rev-parse", "--short", "HEAD")
        except subprocess.CalledProcessError:
            pytest.skip("the package is not in a git checkout")
        monkeypatch.chdir(tmp_path)
        assert cli._git_rev().removesuffix("-dirty") == rev

    def test_outside_a_checkout_it_is_empty(self, tmp_path):
        assert cli._git_rev(str(tmp_path / "missing")) == ""
