"""A pure-stdlib PEP 517 / PEP 660 build backend, so installing needs no
network: ``pyproject.toml`` declares ``requires = []``, so pip's build
isolation has nothing to download.

The wheel packs every module under ``src/``; the editable wheel puts
``src/`` on ``sys.path`` through a ``.pth`` file.  Both declare the
``[project.scripts]`` console scripts.  The metadata is read from
``pyproject.toml``'s ``[project]`` and ``[project.scripts]`` tables by
a line reader that knows only ``key = "string"`` lines, which is all
this project's file holds (``tomllib`` needs Python 3.11).
"""

import base64
import hashlib
import io
import os
import tarfile
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
#: What an sdist carries besides PKG-INFO.
SDIST_PATHS = ("pyproject.toml", "README.md", "build_backend", "src")


def _tables():
    """``(project, scripts)``: each table's string values by key."""
    tables = {"[project]": {}, "[project.scripts]": {}}
    table = None
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("["):
                table = tables.get(line)
            elif table is not None and "=" in line and line[0] != "#":
                key, _, value = line.partition("=")
                table[key.strip()] = value.strip().strip('"')
    return tables["[project]"], tables["[project.scripts]"]


def _metadata(project):
    return (
        "Metadata-Version: 2.1\n"
        f"Name: {project['name']}\n"
        f"Version: {project['version']}\n"
        f"Summary: {project['description']}\n"
        f"Requires-Python: {project['requires-python']}\n"
    )


def _dist_info(project, scripts):
    """The ``.dist-info`` files (RECORD aside), by name."""
    entry_points = "[console_scripts]\n" + "".join(
        f"{name} = {target}\n" for name, target in scripts.items()
    )
    return {
        "METADATA": _metadata(project),
        "WHEEL": (
            "Wheel-Version: 1.0\nGenerator: offline_backend\n"
            "Root-Is-Purelib: true\nTag: py3-none-any\n"
        ),
        "entry_points.txt": entry_points,
    }


def _record_line(path, data):
    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
    return f"{path},sha256={digest.rstrip(b'=').decode()},{len(data)}\n"


def _write_wheel(wheel_directory, files):
    """Write ``files`` (archive path -> bytes) and the ``.dist-info``
    into a wheel; returns the wheel's file name."""
    project, scripts = _tables()
    stem = f"{project['name']}-{project['version']}"
    info = f"{stem}.dist-info"
    files = dict(files)
    for name, text in _dist_info(project, scripts).items():
        files[f"{info}/{name}"] = text.encode("utf-8")
    record = "".join(_record_line(path, data) for path, data in files.items())
    files[f"{info}/RECORD"] = (record + f"{info}/RECORD,,\n").encode("utf-8")
    name = f"{stem}-py3-none-any.whl"
    path = os.path.join(wheel_directory, name)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as wheel:
        for archive_path, data in files.items():
            wheel.writestr(archive_path, data)
    return name


def _modules():
    """Every module under ``src/``, archive path -> bytes, sorted."""
    files = {}
    for directory, subdirectories, names in os.walk(SOURCE):
        subdirectories[:] = sorted(
            d for d in subdirectories if d != "__pycache__"
        )
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                archive_path = os.path.relpath(path, SOURCE).replace(os.sep, "/")
                with open(path, "rb") as f:
                    files[archive_path] = f.read()
    return files


def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_sdist(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    return _write_wheel(wheel_directory, _modules())


def build_editable(wheel_directory, config_settings=None,
                   metadata_directory=None):
    project, _ = _tables()
    pth = f"__editable__.{project['name']}.pth"
    return _write_wheel(wheel_directory, {pth: (SOURCE + "\n").encode()})


def build_sdist(sdist_directory, config_settings=None):
    project, _ = _tables()
    stem = f"{project['name']}-{project['version']}"
    name = f"{stem}.tar.gz"

    def skip_caches(info):
        return None if "__pycache__" in info.name else info

    with tarfile.open(os.path.join(sdist_directory, name), "w:gz") as sdist:
        for path in SDIST_PATHS:
            sdist.add(os.path.join(ROOT, path), f"{stem}/{path}",
                      filter=skip_caches)
        data = _metadata(project).encode("utf-8")
        info = tarfile.TarInfo(f"{stem}/PKG-INFO")
        info.size = len(data)
        sdist.addfile(info, io.BytesIO(data))
    return name
