"""Spans around the public entry points of each ``repro`` layer.

The benchmark traces the package from outside: :func:`install` replaces
each entry point listed in :data:`TARGETS` with a wrapper that records a
span (id, parent, name, start, end, pid, run id, plus a count taken from
the call's arguments or result).  Spans are kept in memory and written
as JSON lines when a process finishes its share of the work.

Forked pool workers inherit the tracer together with the stack of open
spans, so their spans nest under the parent's ``run_specs`` span; each
worker flushes after every spec it executes, because pool workers exit
without running exit handlers.  Timestamps come from
``time.perf_counter``, which on Linux is the system-wide monotonic clock,
so spans from different processes share one time axis.

:func:`attribute` turns spans into self times.  Every instant of the
traced wall is split evenly among the spans that are innermost at that
instant (active, with no active child) in any process, so the self times
plus the uncovered remainder add up to the traced wall exactly, also
when pool workers run in parallel.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

#: (span name, module, attribute path, count) for every wrapped entry
#: point.  ``count`` names how the span's count is taken (see _COUNTS).
TARGETS = (
    ("api.execute_spec", "repro.api.executor", "execute_spec", "spec"),
    ("backends.run_specs", "repro.backends", "*.run_specs", "batch"),
    ("core.extend", "repro.core.smarts", "MeasurementSession.extend", "int"),
    ("detailed.run", "repro.detailed.pipeline", "DetailedSimulator.run",
     "counters"),
    ("functional.run", "repro.functional.engine", "@.run", "int"),
    ("functional.run_warmed", "repro.functional.engine", "@.run_warmed",
     "int"),
    ("functional.measure_length", "repro.functional.simulator",
     "measure_program_length", "int"),
    ("functional.create_core", "repro.functional.engine", "create_core",
     None),
    ("checkpoint.get_or_build", "repro.checkpoint.store",
     "CheckpointStore.get_or_build", None),
    ("checkpoint.build", "repro.checkpoint.store", "build_checkpoints", None),
    ("checkpoint.restore", "repro.checkpoint.store",
     "CheckpointSet.restore_into", "int"),
    ("simpoint.get_or_profile", "repro.checkpoint.store",
     "CheckpointStore.get_or_profile", None),
    ("simpoint.choose_clustering", "repro.simpoint.kmeans",
     "choose_clustering", None),
    ("store.read_path", "repro.store.artifacts", "ArtifactStore.read_path",
     "read"),
    ("store.write_path", "repro.store.artifacts", "ArtifactStore.write_path",
     "write"),
    ("store.result_get", "repro.api.executor", "ResultCache.get", "hit"),
)


def _count_int(args, kwargs, result):
    return {"n": int(result)}


def _count_counters(args, kwargs, result):
    return {"n": result.instructions}


def _count_spec(args, kwargs, result):
    return {"key": args[0].key()}


def _count_batch(args, kwargs, result):
    specs = args[1]
    workers = kwargs.get("max_workers") or getattr(args[0], "max_workers",
                                                   None) or 1
    if args[0].name == "serial":
        workers = 1
    return {"specs": len(specs), "workers": max(1, min(workers, len(specs)))}


def _count_read(args, kwargs, result):
    return {"bytes": len(result) if result else 0,
            "ns": Path(args[1]).parent.name}


def _count_write(args, kwargs, result):
    data = args[2] if len(args) > 2 else kwargs["data"]
    return {"bytes": len(data), "ns": Path(args[1]).parent.name}


def _count_hit(args, kwargs, result):
    # A disabled cache is not a lookup; leave it out of the hit ratio.
    return {"hit": result is not None} if args[0].enabled else {}


_COUNTS = {
    "int": _count_int, "counters": _count_counters, "spec": _count_spec,
    "batch": _count_batch, "read": _count_read, "write": _count_write,
    "hit": _count_hit,
}


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, out_dir: Path, run_id: str,
                 root_parent: str | None = None):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.stack: list[str] = [root_parent] if root_parent else []
        self.finished: list[list] = []
        self._next = 0

    def _new_id(self) -> str:
        pid = os.getpid()
        if pid != self.pid:
            # A forked worker: keep the inherited stack of open spans
            # (they are this worker's ancestors) but not the parent's
            # finished spans, which the parent writes itself.
            self.pid = pid
            self.finished = []
            self._next = 0
        self._next += 1
        return f"{pid}.{self._next}"

    def open(self) -> tuple[str, str | None, float]:
        span_id = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name: str, opened: tuple, attrs: dict | None) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span_id, parent, start = opened
        self.finished.append([span_id, parent, name, start, end, attrs])

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def flush(self) -> None:
        """Append this process's finished spans to its JSONL file."""
        if not self.finished:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as handle:
            for span_id, parent, name, start, end, attrs in self.finished:
                record = {"id": span_id, "parent": parent, "name": name,
                          "start": start, "end": end, "pid": self.pid,
                          "run": self.run_id}
                if attrs:
                    record.update(attrs)
                handle.write(json.dumps(record) + "\n")
        self.finished = []


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.opened = self.tracer.open()
        return self.opened[0]

    def __exit__(self, *exc):
        self.tracer.close(self.name, self.opened, None)
        return False


def _wrap(tracer: Tracer, name: str, func, count, flush_in_worker: bool):
    counter = _COUNTS[count] if count else None

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        opened = tracer.open()
        attrs = None
        try:
            result = func(*args, **kwargs)
            if counter is not None:
                attrs = counter(args, kwargs, result)
            return result
        finally:
            tracer.close(name, opened, attrs)
            if flush_in_worker and os.getpid() != tracer.owner_pid:
                tracer.flush()

    return wrapper


def _targets(module_name: str, path: str):
    """Yield (owner, attribute) pairs a TARGETS entry names."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        yield module, attr
    elif owner_name == "*":
        # Every registered executor backend.
        for backend in module.BACKENDS.values():
            if attr in vars(backend):
                yield backend, attr
    elif owner_name == "@":
        # The active functional engine's core class.
        yield module.engine_class(), attr
    else:
        yield getattr(module, owner_name), attr


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`TARGETS`.

    Module-level functions are replaced in every loaded ``repro`` module
    that bound them by name, so ``from x import f`` call sites see the
    wrapper too.
    """
    import repro.api  # noqa: F401 — load the package before patching
    import repro.backends  # noqa: F401

    for name, module_name, path, count in TARGETS:
        for owner, attr in _targets(module_name, path):
            func = getattr(owner, attr)
            wrapped = _wrap(tracer, name, func, count,
                            flush_in_worker=(name == "api.execute_spec"))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is func):
                    setattr(module, attr, wrapped)


def load_spans(directory: Path) -> list[dict]:
    """Every span written under ``directory`` (all processes)."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def attribute(spans: list[dict]) -> dict:
    """Self time per layer from a set of spans, in seconds.

    Each instant inside a root span (one without a recorded parent) is
    shared evenly among the innermost active spans at that instant.  A
    span whose parent is not active when it starts counts as a root.
    The benchmark's own phase spans (layer ``bench``) are summed into
    ``"other"``.  Returns ``{layer: seconds, "other": s,
    "wall": s}`` with ``sum(layers) + other == wall``.
    """
    events = []
    by_id = {}
    for span in spans:
        by_id[span["id"]] = span
        events.append((span["start"], 1, span["id"]))
        events.append((span["end"], 0, span["id"]))
    # Ends before starts at equal times, so zero-length overlaps vanish.
    events.sort(key=lambda e: (e[0], e[1]))

    active: set[str] = set()
    live_children: dict[str, int] = {}
    innermost: set[str] = set()
    owner: dict[str, str | None] = {}
    self_time: dict[str, float] = {}
    wall = 0.0
    last = None
    for when, is_start, span_id in events:
        if last is not None and innermost:
            share = (when - last) / len(innermost)
            for sid in innermost:
                self_time[sid] = self_time.get(sid, 0.0) + share
        if last is not None and active:
            wall += when - last
        last = when
        parent = by_id[span_id]["parent"]
        if is_start:
            owner[span_id] = parent if parent in active else None
            if owner[span_id] is not None:
                live_children[parent] = live_children.get(parent, 0) + 1
                innermost.discard(parent)
            active.add(span_id)
            if not live_children.get(span_id):
                innermost.add(span_id)
        else:
            active.discard(span_id)
            innermost.discard(span_id)
            up = owner.get(span_id)
            if up is not None and up in active:
                live_children[up] -= 1
                if live_children[up] == 0:
                    innermost.add(up)

    layers: dict[str, float] = {"other": 0.0}
    for sid, seconds in self_time.items():
        layer = by_id[sid]["name"].split(".", 1)[0]
        key = "other" if layer == "bench" else layer
        layers[key] = layers.get(key, 0.0) + seconds
    layers["wall"] = wall
    return layers
