"""Run ``python -m repro`` with timing wrappers around each package's entry points.

Usage::

    python perfbench/traced_cli.py LAYERS_JSON <repro CLI arguments...>

Behaves exactly like ``python -m repro <arguments>`` (same stdout, same exit
code), except that the public entry points of the ``repro`` packages are
wrapped before the CLI runs and, on exit, their accumulated busy time, call
counts and bytes read are written to ``LAYERS_JSON``.  Nothing under ``src/``
is edited: every module attribute bound to a wrapped function is rebound to
the wrapper, so callers that did ``from ..x import f`` resolve the wrapper
too, and wrapped methods are replaced on their class.

Times are inclusive (a layer's time contains the layers it calls) and summed
over threads, so a pool of threads can report more busy time than wall time;
a call that waits for the interpreter lock counts the wait.  Calls made in
worker processes are not counted.
``covered_s`` counts only outermost wrapped calls on the main thread, the
part of the pipeline's stage time some layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

#: (layer name, defining module, function name)
FUNCTIONS = [
    ("ensemble.generate", "repro.ensemble.generate", "generate_ensemble"),
    ("runtime.run_model", "repro.runtime", "run_model"),
    ("runtime.run_model_batch", "repro.runtime.vec", "run_model_batch"),
    ("model.build", "repro.model.builder", "build_model_source"),
    ("fortran.parse", "repro.fortran.parser", "parse_source"),
    ("graphs.metagraph", "repro.graphs.build", "build_metagraph"),
    ("analysis.quotient", "repro.analysis.quotient", "quotient_graph"),
    ("analysis.communities", "repro.analysis.communities",
     "girvan_newman_communities"),
    ("slicing.slice", "repro.slicing.backward", "slice_failing_runs"),
    ("selection.select", "repro.selection.select", "select_culprits"),
    ("refine.refine", "repro.refine.algorithm", "refine_slice"),
    ("reporting.report", "repro.reporting.report", "build_report"),
]

#: (layer name, defining module, class name, method name); the UF-ECT fit
#: (constructor) and test share one layer
METHODS = [
    ("selection.solve", "repro.selection.setcover", "BranchAndBoundSolver",
     "solve"),
    ("selection.solve", "repro.selection.setcover", "PulpSolver", "solve"),
    ("ect.test", "repro.ect.core", "UltraFastECT", "__init__"),
    ("ect.test", "repro.ect.core", "UltraFastECT", "test"),
    ("member_cache.load", "repro.ensemble.cache", "MemberCache",
     "load_artifact"),
    ("member_cache.store", "repro.ensemble.cache", "MemberCache",
     "store_artifact"),
    ("store.load", "repro.pipeline.store", "ArtifactStore", "load"),
    ("store.save", "repro.pipeline.store", "ArtifactStore", "save"),
]

#: wrapped loads whose file size counts as bytes read: layer -> counter
BYTES_READ = {"member_cache.load": "member_cache.bytes_read",
              "store.load": "store.bytes_read"}


class LayerClock:
    """Busy time, call counts and bytes read per layer."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.bytes: dict[str, int] = {name: 0 for name in BYTES_READ.values()}
        self.covered_s = 0.0
        #: entry points the code no longer has
        self.missing: list[str] = []
        self._depth = 0
        self._lock = threading.Lock()
        self._main = threading.main_thread()

    def wrap(self, layer: str, fn):
        self.seconds.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        bytes_counter = BYTES_READ.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_main = threading.current_thread() is self._main
            if on_main:
                self._depth += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                with self._lock:
                    self.seconds[layer] += elapsed
                    self.calls[layer] += 1
                if on_main:
                    self._depth -= 1
                    if self._depth == 0:
                        self.covered_s += elapsed
            if bytes_counter is not None and result is not None:
                # the file behind a successful load: (cache, key) -> path
                try:
                    size = os.stat(args[0]._path(args[1])).st_size
                except (AttributeError, OSError):
                    size = 0  # the store layout moved: the read goes uncounted
                with self._lock:
                    self.bytes[bytes_counter] += size
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {"seconds": self.seconds, "calls": self.calls,
                "bytes": self.bytes, "covered_s": self.covered_s,
                "missing": self.missing}


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (the defining module and every ``from x import f``)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _lookup(module_name: str, *path: str):
    """``module.path...``, or None once the code no longer has it."""
    try:
        obj = importlib.import_module(module_name)
        for name in path:
            obj = getattr(obj, name)
    except (ImportError, AttributeError):
        return None
    return obj


def install(clock: LayerClock) -> None:
    """Wrap every entry point the code still has.

    Modules imported before an entry point is wrapped are rebound by
    ``_rebind``; modules imported after it bind the wrapper themselves.  An
    entry point that was removed or renamed is listed in ``clock.missing``
    and its layer reads 0, so the traced run keeps working across
    refactorings.
    """
    for layer, module_name, fn_name in FUNCTIONS:
        original = _lookup(module_name, fn_name)
        if original is None:
            clock.missing.append(f"{module_name}.{fn_name}")
            continue
        _rebind(original, clock.wrap(layer, original))
    for layer, module_name, cls_name, meth_name in METHODS:
        cls = _lookup(module_name, cls_name)
        if cls is None or not hasattr(cls, meth_name):
            clock.missing.append(f"{module_name}.{cls_name}.{meth_name}")
            continue
        setattr(cls, meth_name, clock.wrap(layer, getattr(cls, meth_name)))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py LAYERS_JSON <repro CLI arguments...>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    clock = LayerClock()
    install(clock)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(out_path, "w") as handle:
            json.dump(clock.to_dict(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
