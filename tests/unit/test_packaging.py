"""The in-tree build backend builds installable wheels with no network."""

import base64
import csv
import hashlib
import importlib
import io
import os
import sys
import tarfile
import zipfile

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)


@pytest.fixture(scope="module")
def backend():
    sys.path.insert(0, os.path.join(ROOT, "build_backend"))
    try:
        yield importlib.import_module("offline_backend")
    finally:
        sys.path.pop(0)


def _wheel(directory, name):
    """The wheel's files, after checking every RECORD line against them."""
    with zipfile.ZipFile(os.path.join(directory, name)) as wheel:
        files = {path: wheel.read(path) for path in wheel.namelist()}
    record = files["repro-1.0.0.dist-info/RECORD"].decode()
    rows = list(csv.reader(io.StringIO(record)))
    assert {row[0] for row in rows} == set(files)
    for path, digest, size in rows:
        if path.endswith("RECORD"):
            continue
        data = files[path]
        expected = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
        assert digest == "sha256=" + expected.rstrip(b"=").decode()
        assert int(size) == len(data)
    return files


class TestOfflineBackend:
    def test_nothing_to_download(self, backend):
        assert backend.get_requires_for_build_wheel() == []
        assert backend.get_requires_for_build_sdist() == []
        assert backend.get_requires_for_build_editable() == []

    def test_editable_wheel_puts_src_on_the_path(self, backend, tmp_path):
        files = _wheel(tmp_path, backend.build_editable(str(tmp_path)))
        source = files["__editable__.repro.pth"].decode().strip()
        assert os.path.isfile(os.path.join(source, "repro", "cli.py"))
        scripts = files["repro-1.0.0.dist-info/entry_points.txt"].decode()
        assert "wsinterop = repro.cli:main" in scripts.splitlines()

    def test_wheel_packs_every_module(self, backend, tmp_path):
        files = _wheel(tmp_path, backend.build_wheel(str(tmp_path)))
        assert "repro/cli.py" in files and "repro/faults/plan.py" in files
        assert not [path for path in files if "__pycache__" in path]
        metadata = files["repro-1.0.0.dist-info/METADATA"].decode()
        assert "Name: repro\nVersion: 1.0.0\n" in metadata

    def test_sdist_carries_the_backend(self, backend, tmp_path):
        name = backend.build_sdist(str(tmp_path))
        with tarfile.open(os.path.join(tmp_path, name)) as sdist:
            names = set(sdist.getnames())
        assert "repro-1.0.0/PKG-INFO" in names
        assert "repro-1.0.0/build_backend/offline_backend.py" in names
        assert "repro-1.0.0/src/repro/cli.py" in names
