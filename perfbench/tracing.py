"""Wrappers around public ``repro`` entry points, installed from outside.

The benchmark never edits the program.  To see where wall time goes it
replaces a few public functions and methods with thin wrappers for the
length of one run and then puts the exact original objects back:

- :class:`Patches` swaps an attribute (a module-level function, wherever
  a ``repro`` module imported it by name, or a method in its class
  dictionary) and restores every swapped slot on :meth:`Patches.restore`,
  including slots a module imported while the wrapper was in place.
- :class:`Recorder` keeps one span per wrapped call (name, start, end,
  parent span, run id) in memory, accumulates each span's self time
  (its duration minus the part its child spans cover) and writes the
  spans out as JSON lines when the run ends.

``LAYER_CALLS`` is the table of wrapped calls: per-layer metric name ->
the ``module:qualname`` entry points whose spans it sums.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

__all__ = [
    "LAYER_CALLS", "Patches", "Recorder", "repro_modules", "resolve",
    "trace_layers",
]

LAYER_CALLS: dict[str, tuple[str, ...]] = {
    "graph500.generate_s": ("repro.graph500.kronecker:generate_edges",),
    "graph500.validate_s": ("repro.graph500.validate:validate_bfs_tree",),
    "graph500.edge_keys_s": ("repro.graph500.edgelist:EdgeList.sorted_edge_keys",),
    "graph500.count_edges_s": ("repro.graph500.driver:count_traversed_input_edges",),
    "csr.build_s": ("repro.csr.builder:build_csr",),
    "csr.partition_s": (
        "repro.csr.partition:ForwardGraph.__init__",
        "repro.csr.partition:BackwardGraph.__init__",
    ),
    "semiext.offload_s": (
        "repro.graph500.edgelist:EdgeList.offload",
        "repro.csr.io:offload_csr",
        "repro.bfs.semi_external:SemiExternalBFS.offload",
    ),
    "semiext.charge_s": ("repro.semiext.storage:NVMStore.charge",),
    "bfs.run_s": ("repro.bfs.hybrid:HybridBFS.run",),
    "bfs.topdown_s": (
        "repro.bfs.topdown:top_down_step",
        "repro.bfs.topdown:gather_adjacency",
    ),
    "bfs.bottomup_s": ("repro.bfs.bottomup:bottom_up_step",),
    "util.bitmap_s": (
        "repro.util.bitmap:Bitmap.test_many",
        "repro.util.bitmap:Bitmap.set_many",
    ),
    "util.gather_s": (
        "repro.util.gather:concat_ranges",
        "repro.util.gather:first_true_per_segment",
    ),
    "serve.loop_s": ("repro.serve.server:BFSServer.serve",),
    "serve.run_batch_s": ("repro.serve.engine:BatchedBFS.run_batch",),
    "serve.cache_s": (
        "repro.serve.results:ResultCache.get",
        "repro.serve.results:ResultCache.put",
    ),
    "graphmut.apply_s": ("repro.graphmut.versioned:GraphMutator.apply",),
    "graphmut.repair_s": ("repro.graphmut.versioned:GraphMutator.repair",),
    "graphmut.compact_s": ("repro.graphmut.versioned:GraphMutator.compact",),
}


def repro_modules() -> list:
    """Every loaded module of the ``repro`` package."""
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def resolve(target: str) -> tuple[object, str]:
    """``"pkg.mod:Cls.attr"`` -> ``(Cls, "attr")``; ``"pkg.mod:fn"`` ->
    ``(module, "fn")``."""
    modname, _, qualname = target.partition(":")
    owner: object = importlib.import_module(modname)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Patches:
    """Attribute swaps that :meth:`restore` undoes exactly.

    A module-level function is replaced in *every* loaded ``repro``
    module that holds it (``from x import f`` copies the reference), so
    calls through any import path reach the wrapper.  A method is
    replaced in its class dictionary; ``classmethod``, ``staticmethod``
    and ``functools.cached_property`` descriptors are re-wrapped around
    the wrapped function so binding behaves as before.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        # id(wrapper) -> (wrapper, original) of every patched function.
        self._functions: dict[int, tuple[object, object]] = {}

    def install(self, target: str, make_wrapper) -> None:
        """Replace ``target`` with ``make_wrapper(original_function)``."""
        owner, attr = resolve(target)
        if isinstance(owner, type):
            self._patch_method(owner, attr, make_wrapper)
        else:
            self._patch_function(getattr(owner, attr), make_wrapper)

    def _swap(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, fn, make_wrapper) -> None:
        wrapper = make_wrapper(fn)
        self._functions[id(wrapper)] = (wrapper, fn)
        for module in repro_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._swap(module, attr, wrapper)

    def _patch_method(self, cls: type, attr: str, make_wrapper) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make_wrapper(raw.__func__))
        elif isinstance(raw, functools.cached_property):
            new = functools.cached_property(make_wrapper(raw.func))
            new.__set_name__(cls, attr)
        else:
            new = make_wrapper(raw)
        self._swap(cls, attr, new)

    def restore(self) -> None:
        """Put every original object back (last swap first), then unbind
        any wrapper a module imported by name after it was installed."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for module in repro_modules():
            for attr, value in list(vars(module).items()):
                wrapped = self._functions.get(id(value))
                if wrapped is not None and wrapped[0] is value:
                    setattr(module, attr, wrapped[1])
        self._functions.clear()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Recorder:
    """In-memory spans of one traced run.

    Each span is ``[span_id, parent_id, name, start_s, end_s, child_s]``
    on the ``time.perf_counter`` axis; ``child_s`` accumulates the
    durations of its direct children, so self time is
    ``end - start - child_s``.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[list] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][5] += span[4] - span[3]

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = {}
        for _, _, name, t0, t1, child in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0 - child)
        return out

    def durations(self, name: str) -> list[float]:
        """Inclusive duration of every span named ``name``."""
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def count(self, name: str) -> int:
        """Number of spans named ``name``."""
        return sum(1 for s in self.spans if s[2] == name)

    def write(self, path: Path) -> Path:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, parent, name, t0, t1, _ in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "span": span_id, "parent": parent,
                    "name": name, "start_s": t0, "end_s": t1,
                }) + "\n")
        return path


def trace_layers(patches: Patches, recorder: Recorder) -> None:
    """Wrap every entry point of :data:`LAYER_CALLS` with span recording.

    Every target is resolved (its module imported) before the first
    wrapper goes in, so no module binds a wrapper by importing it late.
    """
    targets = [t for group in LAYER_CALLS.values() for t in group]
    for target in targets:
        resolve(target)
    for target in targets:
        patches.install(target, functools.partial(recorder.wrap, target))
