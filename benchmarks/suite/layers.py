"""Outside-in layer timer for one traced ``wsinterop`` run.

The timer wraps the public entry points of the ``repro`` layers from
the outside; nothing under ``src/`` knows it exists.  It keeps one
process-wide span stack.  Guard threads and the wire-server thread run
while the thread that started them blocks, so their calls nest in time
inside that thread's open span.  An exit that does not close the
innermost open span is counted in ``misnested``.  A layer's self time is
its span time minus the time of the spans nested in it, and the root
span's self time is ``other``, so one process's rows sum to its wall
time.

Run as a script to trace one CLI invocation::

    PYTHONPATH=src python3 benchmarks/suite/layers.py \\
        --stats stats.json -- run --quick
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import os
import sys
import threading
import time

#: Row holding the root span's self time: work outside every wrapped layer.
OTHER = "other"


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer, start):
        self.layer = layer
        self.start = start
        self.child = 0.0


class LayerTimer:
    """Per-layer calls, total and self time, plus counters, for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._stack = []
        self._root = None
        #: layer -> [calls, total seconds, self seconds]
        self.rows = {}
        self.counters = {}
        self.misnested = 0
        #: hashes of serialized WSDL texts, and of those later parsed
        self.serialized = set()
        self.read_back = set()
        #: identities of the (server, corpus) pairs deployed
        self.corpora = set()

    def start(self):
        """Open the root span; everything until :meth:`stop` is timed."""
        self._root = self.enter(OTHER)

    def stop(self):
        """Close the root span; returns the wall time since :meth:`start`."""
        return self.exit(self._root)

    def enter(self, layer):
        """Open a span; ``None`` when ``layer`` is already the innermost one.

        A call that re-enters its own layer (``read_wsdl_text`` calling
        ``read_wsdl``, ``deploy_corpus`` calling ``deploy``) belongs to
        the outer call, so it opens no span of its own.
        """
        with self._lock:
            stack = self._stack
            if stack and stack[-1].layer == layer:
                return None
            frame = _Frame(layer, self.clock())
            stack.append(frame)
            return frame

    def exit(self, frame):
        """Close ``frame``; returns its duration."""
        elapsed = self.clock() - frame.start
        with self._lock:
            stack = self._stack
            if stack and stack[-1] is frame:
                stack.pop()
            else:
                self.misnested += 1
                for index in range(len(stack) - 1, -1, -1):
                    if stack[index] is frame:
                        del stack[index]
                        break
            row = self.rows.get(frame.layer)
            if row is None:
                row = self.rows[frame.layer] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - frame.child
            if stack:
                stack[-1].child += elapsed
        return elapsed

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, layer, hook=None):
        """``fn`` timed as ``layer``; ``hook`` sees every call's outcome.

        ``hook(timer, outer, args, kwargs, result, exc)`` runs inside the
        span; ``outer`` is False for a call that re-entered its layer.
        """
        timer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = timer.enter(layer)
            outer = frame is not None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(timer, outer, args, kwargs, None, exc)
                raise
            else:
                if hook is not None:
                    hook(timer, outer, args, kwargs, result, None)
                return result
            finally:
                if outer:
                    timer.exit(frame)

        return traced

    def table(self):
        """This process's rows and counters as JSON-compatible data."""
        with self._lock:
            return {
                "rows": {
                    layer: {"calls": calls, "total_s": total, "self_s": own}
                    for layer, (calls, total, own) in sorted(self.rows.items())
                },
                "counters": dict(sorted(self.counters.items())),
                "serialized": len(self.serialized),
                "serialized_read": len(self.read_back),
                "corpora": sorted(self.corpora),
                "misnested": self.misnested,
            }


# -- counters taken at the wrapped entry points ------------------------------


def _errors(name):
    """Count outer calls that raised or returned an unsuccessful result."""

    def hook(timer, outer, args, kwargs, result, exc):
        if outer and (exc is not None
                      or getattr(result, "succeeded", True) is False):
            timer.count(name)

    return hook


def _on_parse(timer, outer, args, kwargs, result, exc):
    text = args[0] if args else kwargs["text"]
    timer.count("xmlcore.parse_bytes", len(text))
    key = hash(text)
    if key in timer.serialized:
        timer.read_back.add(key)
    if outer and exc is not None:
        timer.count("xmlcore.parse_errors")


def _on_serialize(timer, outer, args, kwargs, result, exc):
    if exc is None:
        timer.count("wsdl.serialize_bytes", len(result))
        timer.serialized.add(hash(result))


def _on_deploy(timer, outer, args, kwargs, result, exc):
    timer.count("appservers.deploys")


def _on_deploy_corpus(timer, outer, args, kwargs, result, exc):
    timer.count("appservers.corpus_deploys")
    if exc is None:
        names = "\n".join(record.service.name for record in result)
        digest = hashlib.sha256(names.encode("utf-8")).hexdigest()[:16]
        timer.corpora.add(f"{type(args[0]).__name__}:{digest}")


def _on_guard(timer, outer, args, kwargs, result, exc):
    if exc is None and result.bucket.value == "timeout":
        timer.count("runtime.guard.timeouts")


def _on_fidelity(timer, outer, args, kwargs, result, exc):
    if exc is None and result.fidelity.value == "lossless":
        timer.count("invoke.lossless")


def _on_write(timer, outer, args, kwargs, result, exc):
    if exc is None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        timer.count("core.store.write_bytes", os.path.getsize(path))


#: ``(layer, "module:function" or "module:Class.method", hook)``.  A
#: function is rebound in every loaded ``repro`` module that imported
#: it; a method is wrapped on its class and on every subclass that
#: overrides it.
TARGETS = (
    ("typesystem.catalog", "repro.typesystem.java:build_java_catalog", None),
    ("typesystem.catalog", "repro.typesystem.dotnet:build_dotnet_catalog",
     None),
    ("services.corpus", "repro.services.generator:generate_corpus", None),
    ("appservers.deploy", "repro.appservers.container:ApplicationServer.deploy",
     _on_deploy),
    ("appservers.deploy",
     "repro.appservers.container:ApplicationServer.deploy_corpus",
     _on_deploy_corpus),
    ("wsdl.serialize", "repro.wsdl:serialize_wsdl", _on_serialize),
    ("xmlcore.parse", "repro.xmlcore.parser:parse", _on_parse),
    ("wsdl.read", "repro.wsdl.reader:read_wsdl_text",
     _errors("wsdl.read_errors")),
    ("wsdl.read", "repro.wsdl.reader:read_wsdl", _errors("wsdl.read_errors")),
    ("wsi.check", "repro.wsi.analyzer:check_document", None),
    ("frameworks.client.generate",
     "repro.frameworks.base:ClientFramework.generate",
     _errors("frameworks.client.generate_errors")),
    ("compilers.compile", "repro.compilers.base:SemanticCompiler.compile",
     _errors("compilers.compile_errors")),
    ("runtime.guard", "repro.runtime.guard:GuardedStep.run", _on_guard),
    ("runtime.client.invoke",
     "repro.runtime.client:GeneratedClientProxy.invoke",
     _errors("runtime.client.invoke_errors")),
    ("runtime.server.handle", "repro.runtime.server:EchoServiceEndpoint.handle",
     None),
    ("runtime.wire.post", "repro.runtime.wire:WireTransport.post", None),
    # The one private hook: ``post`` hides the connect share.
    ("runtime.wire.connect", "repro.runtime.wire:WireClient._connect", None),
    ("faults.mutate", "repro.faults.corpus:WsdlMutator.mutate", None),
    ("invoke.payloads", "repro.invoke.payloads:PayloadGenerator.generate",
     None),
    ("invoke.fidelity", "repro.invoke.fidelity:compare_roundtrip",
     _on_fidelity),
    ("invoke.response", "repro.invoke.response:validate_response", None),
    ("core.store.write", "repro.core.store:write_json_atomic", None),
    ("core.store.write", "repro.core.store:write_text_atomic", _on_write),
)


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


@contextlib.contextmanager
def patched(timer, targets=TARGETS):
    """Install ``timer`` on every target; yields ``[(owner, name, original)]``.

    On exit every patch is undone, including the wrappers that modules
    imported while the patches were live bound under their own names.
    """
    undo = []
    originals = {}  # id(wrapper) -> (wrapper, original)
    for layer, target, hook in targets:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, method = qualname.split(".")
            for cls in _subclasses(getattr(module, class_name)):
                original = vars(cls).get(method)
                if original is not None:
                    setattr(cls, method, timer.wrap(original, layer, hook))
                    undo.append((cls, method, original))
            continue
        original = getattr(module, qualname)
        wrapper = timer.wrap(original, layer, hook)
        originals[id(wrapper)] = (wrapper, original)
        for owner in _repro_modules():
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, wrapper)
                    undo.append((owner, name, original))
    try:
        yield undo
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
        for owner in _repro_modules():
            for name, value in list(vars(owner).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(owner, name, entry[1])


# -- from the process table to the per-layer metrics -------------------------


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def self_total(table):
    """Sum of the table's self times: the traced wall time."""
    return sum(row["self_s"] for row in table["rows"].values())


def layer_metrics(table, overhead_frac):
    """Every per-layer metric, in ``BENCHMARK.json`` order.

    ``*_s`` is a layer's self time.
    """
    rows, counters = table["rows"], table["counters"]

    def calls(layer):
        return rows.get(layer, {"calls": 0})["calls"]

    def own(layer):
        return rows.get(layer, {"self_s": 0.0})["self_s"]

    def counter(name):
        return counters.get(name, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "typesystem.catalog_s": own("typesystem.catalog"),
        "services.corpus_s": own("services.corpus"),
        "appservers.deploy_s": own("appservers.deploy"),
        "appservers.deploys": counter("appservers.deploys"),
        "appservers.corpus_deploys": counter("appservers.corpus_deploys"),
        "appservers.redeploy_ratio": ratio(
            counter("appservers.corpus_deploys"), len(table["corpora"])),
        "wsdl.serialize_s": own("wsdl.serialize"),
        "wsdl.serialize_mb": counter("wsdl.serialize_bytes") / 1e6,
        "wsdl.serialized_read_ratio": ratio(
            table["serialized_read"], table["serialized"]),
        "xmlcore.parse_s": own("xmlcore.parse"),
        "xmlcore.parse_calls": calls("xmlcore.parse"),
        "xmlcore.parse_mb": counter("xmlcore.parse_bytes") / 1e6,
        "xmlcore.parse_errors": counter("xmlcore.parse_errors"),
        "wsdl.read_s": own("wsdl.read"),
        "wsdl.read_calls": calls("wsdl.read"),
        "wsdl.read_errors": counter("wsdl.read_errors"),
        "wsi.check_s": own("wsi.check"),
        "frameworks.client.generate_s": own("frameworks.client.generate"),
        "frameworks.client.generate_calls": calls("frameworks.client.generate"),
        "frameworks.client.generate_errors": counter(
            "frameworks.client.generate_errors"),
        "compilers.compile_s": own("compilers.compile"),
        "compilers.compile_calls": calls("compilers.compile"),
        "compilers.compile_errors": counter("compilers.compile_errors"),
        "runtime.guard.self_s": own("runtime.guard"),
        "runtime.guard.calls": calls("runtime.guard"),
        "runtime.guard.timeouts": counter("runtime.guard.timeouts"),
        "runtime.client.invoke_s": own("runtime.client.invoke"),
        "runtime.client.invoke_calls": calls("runtime.client.invoke"),
        "runtime.client.invoke_errors": counter("runtime.client.invoke_errors"),
        "runtime.server.handle_s": own("runtime.server.handle"),
        "runtime.server.handle_calls": calls("runtime.server.handle"),
        "runtime.wire.post_s": own("runtime.wire.post"),
        "runtime.wire.connect_s": own("runtime.wire.connect"),
        "runtime.wire.posts": calls("runtime.wire.post"),
        "faults.mutate_s": own("faults.mutate"),
        "faults.mutants": calls("faults.mutate"),
        "invoke.payloads_s": own("invoke.payloads"),
        "invoke.fidelity_s": own("invoke.fidelity"),
        "invoke.response_s": own("invoke.response"),
        "invoke.lossless_ratio": ratio(
            counter("invoke.lossless"), calls("invoke.fidelity")),
        "core.store.write_s": own("core.store.write"),
        "core.store.writes": calls("core.store.write"),
        "core.store.write_mb": counter("core.store.write_bytes") / 1e6,
        "other_s": own(OTHER),
        "trace.overhead_frac": overhead_frac,
        "trace.misnested": table["misnested"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run one wsinterop CLI invocation under the layer timer")
    parser.add_argument("--stats", required=True,
                        help="write the layer table here (JSON)")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- followed by the wsinterop arguments")
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    timer = LayerTimer()
    timer.start()
    from repro.cli import main as cli_main

    with patched(timer):
        code = cli_main(cli_argv)
    wall = timer.stop()
    stats = {"wall_s": wall, "exit_code": code, "table": timer.table()}
    with open(args.stats, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
