"""Content-addressed baseline store for accepted campaign matrices.

A baseline directory is the accepted truth a regression run diffs
against::

    baseline/
      manifest.json            # commit point: kind -> {file, digest, fingerprint}
      run-3f1c9a2b44de.json    # canonical snapshot, named by content digest
      invoke-91ab07c3d2ef.json

Each campaign snapshot (:func:`repro.core.canon.snapshot`) is written to
a file named after its own sha256, and ``manifest.json`` — replaced
atomically, last — is the only mutable entry.  Promotion (``--accept``)
is therefore atomic for any number of campaigns: until the manifest
rename lands, a reader sees the previous baseline in full; afterwards it
sees the new one in full.

Snapshots live in a :class:`~repro.core.store.ContentStore`, which
re-hashes each file against the manifest digest on load, so a
truncated, tampered or hand-edited baseline is a *classified*
:class:`BaselineError` with a remediation hint, never a JSON traceback
deep inside the diff engine.
"""

from __future__ import annotations

import json
import os

from repro.core.canon import canonical_json, require_kind
from repro.core.store import (
    AppendLog,
    ContentStore,
    StoreError,
    write_text_atomic,
)

_MANIFEST = "manifest.json"
#: Append-only accept history.  The ``.jsonl`` suffix is load-bearing:
#: the snapshot garbage collector only touches ``.json`` files, so the
#: history survives any number of re-accepts.
_ACCEPTS = "accepts.jsonl"
_FORMAT = 1

#: The uniform remediation hint for an unusable baseline, mirroring the
#: checkpoint-mismatch hint style (see ``CheckpointMismatch.hint``).
REACCEPT_HINT = (
    "if the change is intended, re-accept the baseline with "
    "`wsinterop regress --accept --baseline-dir <dir>` (same sweep "
    "parameters); otherwise restore the directory from version control"
)


class BaselineError(StoreError):
    """A baseline directory cannot be used, with a classified reason."""

    hint = REACCEPT_HINT


class BaselineStore:
    """Reads and atomically promotes accepted campaign snapshots."""

    def __init__(self, directory):
        self.directory = directory
        self._snapshots = ContentStore(directory, BaselineError)
        self._accepts = AppendLog(os.path.join(directory, _ACCEPTS))

    def _path(self, name):
        return os.path.join(self.directory, name)

    # -- reading ----------------------------------------------------------

    def manifest(self):
        """The manifest dict; classified errors when unusable."""
        path = self._path(_MANIFEST)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise BaselineError(
                BaselineError.MISSING,
                f"no baseline at {self.directory!r} (manifest.json missing)",
                hint="accept one first with `wsinterop regress --accept "
                "--baseline-dir <dir>`",
            )
        except (OSError, ValueError) as exc:
            raise BaselineError(
                BaselineError.CORRUPT,
                f"baseline manifest at {path!r} is unreadable: {exc}",
            )
        if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
            raise BaselineError(
                BaselineError.CORRUPT,
                f"baseline manifest at {path!r} has unsupported format "
                f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}",
            )
        campaigns = manifest.get("campaigns")
        if not isinstance(campaigns, dict):
            raise BaselineError(
                BaselineError.CORRUPT,
                f"baseline manifest at {path!r} carries no campaign table",
            )
        return manifest

    def campaigns(self):
        """Accepted campaign kinds, in manifest-sorted order."""
        return sorted(self.manifest()["campaigns"])

    def has(self, kind):
        try:
            return require_kind(kind) in self.manifest()["campaigns"]
        except BaselineError:
            return False

    def digest(self, kind):
        """The accepted snapshot digest for ``kind`` (from the manifest)."""
        return self._entry(kind)["digest"]

    def _entry(self, kind):
        campaigns = self.manifest()["campaigns"]
        if require_kind(kind) not in campaigns:
            raise BaselineError(
                BaselineError.MISSING,
                f"baseline at {self.directory!r} has no accepted "
                f"{kind!r} matrix",
                hint="accept one first with `wsinterop regress --accept "
                f"--baseline-dir <dir> --campaigns {kind}`",
            )
        entry = campaigns[kind]
        if not isinstance(entry, dict) or not {"file", "digest"} <= set(entry):
            raise BaselineError(
                BaselineError.CORRUPT,
                f"baseline manifest entry for {kind!r} is malformed: {entry!r}",
            )
        return entry

    def load(self, kind):
        """The accepted snapshot for ``kind``, digest-verified.

        Truncation, tampering, missing files and format skew all raise
        a classified :class:`BaselineError`; the digest check runs over
        the raw bytes *before* JSON parsing, so a corrupt file is
        reported as corruption even when it happens to stay parseable.
        """
        entry = self._entry(kind)
        snapshot = self._snapshots.get(entry["file"], entry["digest"])
        if snapshot.get("format") != _FORMAT or snapshot.get("kind") != kind:
            raise BaselineError(
                BaselineError.CORRUPT,
                f"accepted {kind!r} snapshot "
                f"{self._path(entry['file'])!r} has unexpected "
                f"format/kind ({snapshot.get('format')!r}, "
                f"{snapshot.get('kind')!r})",
            )
        return snapshot

    def guard(self, kind, fingerprint):
        """Reject a diff between incompatible sweep configurations.

        A baseline accepted under one configuration (seed, corpus
        quotas, sweep shape) must never be diffed against a sweep of a
        different one — every cell would "drift".  Mirrors the
        checkpoint fingerprint guard, with the same hint style.
        """
        accepted = self.load(kind)["fingerprint"]
        if accepted != fingerprint:
            raise BaselineError(
                BaselineError.FINGERPRINT_MISMATCH,
                f"baseline {kind!r} matrix was accepted under a different "
                f"campaign configuration: {accepted!r} != {fingerprint!r}",
                hint="re-run with the original sweep parameters, or "
                "re-accept with `wsinterop regress --accept "
                "--baseline-dir <dir>` under the new ones",
            )
        return accepted

    # -- promoting --------------------------------------------------------

    def accept(self, snapshots, timestamp="", git_rev=""):
        """Atomically promote ``snapshots`` (kind -> snapshot dict).

        Campaigns not present in ``snapshots`` keep their previously
        accepted entry.  Snapshot files are content-addressed and
        written first; the manifest replace is the single commit point.
        Returns ``{kind: digest}`` for the promoted campaigns.

        ``timestamp`` and ``git_rev`` are recorded verbatim in the
        accept history — passed in, never sampled here, so the store
        itself stays free of wall-clock reads.
        """
        os.makedirs(self.directory, exist_ok=True)
        try:
            campaigns = dict(self.manifest()["campaigns"])
        except BaselineError:
            campaigns = {}
        digests = {}
        for kind in sorted(snapshots):
            require_kind(kind)
            digest, filename = self._snapshots.put(
                kind, dict(snapshots[kind], format=_FORMAT, kind=kind)
            )
            campaigns[kind] = {"file": filename, "digest": digest}
            digests[kind] = digest
        write_text_atomic(
            canonical_json({"format": _FORMAT, "campaigns": campaigns}),
            self._path(_MANIFEST),
        )
        self._collect_garbage(campaigns)
        # After the commit point: a crash here loses only this
        # promotion's history lines, never the manifest.
        self._accepts.append(*(
            {
                "timestamp": timestamp,
                "kind": kind,
                "digest": digests[kind],
                "git_rev": git_rev,
            }
            for kind in sorted(digests)
        ))
        return digests

    def history(self):
        """Accept-history entries, oldest first; ``[]`` when none.

        Torn or hand-mangled lines are skipped, not fatal — the history
        is operator-facing metadata, never an input to the gate.
        """
        try:
            records, _ = self._accepts.read()
        except OSError:
            return []
        return [
            entry for entry in records
            if isinstance(entry, dict) and {"kind", "digest"} <= set(entry)
        ]

    def _collect_garbage(self, campaigns):
        """Drop snapshot files the manifest no longer references."""
        live = {entry["file"] for entry in campaigns.values()}
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name == _MANIFEST or not name.endswith(".json"):
                continue
            if name not in live:
                try:
                    os.unlink(self._path(name))
                except OSError:
                    pass
