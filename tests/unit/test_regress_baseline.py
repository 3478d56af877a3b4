"""Unit tests for the content-addressed baseline store."""

import json
import os

import pytest

from repro.core.canon import canonical_json
from repro.regress.baseline import BaselineError, BaselineStore


def _snapshot(kind, fingerprint="fp", status="pass", metric=0):
    return {
        "kind": kind,
        "fingerprint": fingerprint,
        "totals": {"tests": 1},
        "cells": {"s|c": {"status": status, "metrics": {"tests": metric}}},
    }


class TestAcceptAndLoad:
    def test_roundtrip(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        digests = store.accept({"run": _snapshot("run")})
        assert set(digests) == {"run"}
        loaded = store.load("run")
        assert loaded["cells"] == _snapshot("run")["cells"]
        assert loaded["fingerprint"] == "fp"
        assert store.digest("run") == digests["run"]

    def test_snapshot_files_are_content_addressed(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        digests = store.accept({"run": _snapshot("run")})
        entry = store.manifest()["campaigns"]["run"]
        assert entry["file"] == f"run-{digests['run'][:12]}.json"
        assert entry["digest"] == digests["run"]

    def test_partial_accept_keeps_other_campaigns(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run"), "fuzz": _snapshot("fuzz")})
        old_fuzz = store.digest("fuzz")
        store.accept({"run": _snapshot("run", metric=7)})
        assert store.digest("fuzz") == old_fuzz
        assert store.load("run")["cells"]["s|c"]["metrics"]["tests"] == 7

    def test_reaccept_collects_garbage(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")})
        first_file = store.manifest()["campaigns"]["run"]["file"]
        store.accept({"run": _snapshot("run", metric=9)})
        names = set(os.listdir(str(tmp_path)))
        assert first_file not in names
        assert store.manifest()["campaigns"]["run"]["file"] in names

    def test_identical_accept_is_idempotent(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        first = store.accept({"invoke": _snapshot("invoke")})
        second = store.accept({"invoke": _snapshot("invoke")})
        assert first == second

    def test_unknown_kind_rejected(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        with pytest.raises(ValueError, match="unknown campaign kind"):
            store.accept({"banana": _snapshot("run")})


class TestClassifiedErrors:
    def test_missing_baseline(self, tmp_path):
        store = BaselineStore(str(tmp_path / "nope"))
        with pytest.raises(BaselineError) as excinfo:
            store.manifest()
        assert excinfo.value.kind == BaselineError.MISSING
        assert "--accept" in excinfo.value.hint

    def test_missing_campaign(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")})
        with pytest.raises(BaselineError) as excinfo:
            store.load("fuzz")
        assert excinfo.value.kind == BaselineError.MISSING
        assert "fuzz" in excinfo.value.hint

    def test_corrupt_manifest(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")})
        (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(BaselineError) as excinfo:
            store.manifest()
        assert excinfo.value.kind == BaselineError.CORRUPT

    def test_truncated_snapshot_is_classified(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")})
        name = store.manifest()["campaigns"]["run"]["file"]
        text = (tmp_path / name).read_text(encoding="utf-8")
        (tmp_path / name).write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(BaselineError) as excinfo:
            store.load("run")
        assert excinfo.value.kind == BaselineError.TAMPERED
        assert "re-accept" in excinfo.value.hint

    def test_tampered_snapshot_caught_even_if_parseable(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")})
        name = store.manifest()["campaigns"]["run"]["file"]
        doctored = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        doctored["cells"]["s|c"]["metrics"]["tests"] = 999
        (tmp_path / name).write_text(
            canonical_json(doctored), encoding="utf-8"
        )
        with pytest.raises(BaselineError) as excinfo:
            store.load("run")
        assert excinfo.value.kind == BaselineError.TAMPERED

    def test_deleted_snapshot_file(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")})
        os.unlink(str(tmp_path / store.manifest()["campaigns"]["run"]["file"]))
        with pytest.raises(BaselineError) as excinfo:
            store.load("run")
        assert excinfo.value.kind == BaselineError.TAMPERED

    def test_fingerprint_guard(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run", fingerprint="old")})
        assert store.guard("run", "old") == "old"
        with pytest.raises(BaselineError) as excinfo:
            store.guard("run", "new")
        assert excinfo.value.kind == BaselineError.FINGERPRINT_MISMATCH
        assert "re-accept" in excinfo.value.hint

    def test_has_swallows_unusable_store(self, tmp_path):
        assert not BaselineStore(str(tmp_path / "nope")).has("run")

    def test_error_kinds_are_closed(self):
        with pytest.raises(ValueError):
            BaselineError("novel-kind", "boom")


class TestAcceptHistory:
    def test_accept_records_one_entry_per_campaign(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        digests = store.accept(
            {"run": _snapshot("run"), "fuzz": _snapshot("fuzz")},
            timestamp="2026-08-07T00:00:00Z", git_rev="abc1234",
        )
        entries = store.history()
        assert [entry["kind"] for entry in entries] == ["fuzz", "run"]
        for entry in entries:
            assert entry["digest"] == digests[entry["kind"]]
            assert entry["timestamp"] == "2026-08-07T00:00:00Z"
            assert entry["git_rev"] == "abc1234"

    def test_history_is_append_only_oldest_first(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")}, timestamp="t1")
        store.accept({"run": _snapshot("run", metric=7)}, timestamp="t2")
        timestamps = [entry["timestamp"] for entry in store.history()]
        assert timestamps == ["t1", "t2"]

    def test_history_survives_snapshot_garbage_collection(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")}, timestamp="t1")
        store.accept({"run": _snapshot("run", metric=9)}, timestamp="t2")
        # The GC dropped the stale .json snapshot but must never touch
        # the .jsonl history.
        assert "accepts.jsonl" in os.listdir(str(tmp_path))
        assert len(store.history()) == 2

    def test_torn_and_mangled_lines_skipped(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")}, timestamp="t1")
        with open(str(tmp_path / "accepts.jsonl"), "a",
                  encoding="utf-8") as handle:
            handle.write('{"kind": "run", "dig')  # torn mid-write
            handle.write("\n[1, 2, 3]\n\n")       # wrong shape + blank
        entries = store.history()
        assert len(entries) == 1
        assert entries[0]["timestamp"] == "t1"

    def test_accept_after_torn_tail_is_kept(self, tmp_path):
        # A promote killed mid-append leaves an unterminated fragment;
        # the next accept must cut it off, not glue its line onto it.
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")}, timestamp="t1")
        with open(str(tmp_path / "accepts.jsonl"), "a",
                  encoding="utf-8") as handle:
            handle.write('{"kind": "run", "dig')
        store.accept({"run": _snapshot("run", metric=7)}, timestamp="t2")
        assert [entry["timestamp"] for entry in store.history()] == [
            "t1", "t2"
        ]

    def test_no_history_file_is_empty(self, tmp_path):
        assert BaselineStore(str(tmp_path)).history() == []

    def test_metadata_defaults_to_empty_strings(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")})
        entry = store.history()[0]
        assert entry["timestamp"] == ""
        assert entry["git_rev"] == ""


class TestAtomicity:
    def test_snapshot_written_before_manifest(self, tmp_path, monkeypatch):
        """If the promote dies before the manifest replace, the old
        baseline stays fully readable — the commit point is the manifest."""
        store = BaselineStore(str(tmp_path))
        store.accept({"run": _snapshot("run")})
        old_digest = store.digest("run")

        import repro.regress.baseline as baseline_module

        real_write = baseline_module.write_text_atomic

        def explode_on_manifest(text, path):
            if path.endswith("manifest.json"):
                raise RuntimeError("crash before commit point")
            return real_write(text, path)

        monkeypatch.setattr(
            baseline_module, "write_text_atomic", explode_on_manifest
        )
        with pytest.raises(RuntimeError):
            store.accept({"run": _snapshot("run", metric=5)})
        monkeypatch.undo()
        assert store.digest("run") == old_digest
        assert store.load("run")["cells"]["s|c"]["metrics"]["tests"] == 0
