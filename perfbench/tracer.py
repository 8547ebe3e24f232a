"""Span tracer that wraps a layer's entry points from the outside.

The program under test carries no instrumentation of its own.  For a
traced run the benchmark replaces selected functions with wrappers
that record one span per call (name, start, end, parent) and restores
the originals afterwards.  Wrappers must be installed before the
objects that capture bound methods (dispatch tables, listener lists)
are built, which is why every workload installs them before set-up of
the traced pass.

Spans live in per-thread buffers, so a live cluster's client thread and
event-loop thread never contend; a span's parent is the innermost open
span of the same thread.  Self time is the span's duration minus the
durations of its direct children, computed as each span closes and
summed per name.  The wrapper's own work around a child call lands in
the parent's self time; :func:`child_overhead_ns` measures that cost
once per tracer and :meth:`Tracer.sums` subtracts it per child.  The first ``max_spans`` spans per thread are kept
verbatim and written out by :meth:`Tracer.dump`; the per-name sums
cover every span.
"""

from __future__ import annotations

import array
import functools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_now_ns = time.perf_counter_ns

#: Verbatim spans kept per thread (the aggregates have no cap).
DEFAULT_MAX_SPANS = 500_000


class _ThreadBuffer:
    """One thread's open-span stack, verbatim spans and per-name sums."""

    def __init__(self, thread_name: str, max_spans: int):
        self.thread_name = thread_name
        self.max_spans = max_spans
        # stack entries: [child_ns, span_index, children] of each open span
        self.stack: List[list] = []
        self.name_ids = array.array("H")
        self.parents = array.array("i")
        self.starts = array.array("q")
        self.ends = array.array("q")
        # name_id -> [calls, total_ns, self_ns, direct children]
        self.sums: Dict[int, List[int]] = {}


class Tracer:
    """Records spans around wrapped callables.

    Use :meth:`wrap_attr` for methods and module-level functions and
    :meth:`wrap_item` for registry dict entries; :meth:`restore` puts
    every original back.  Counters that are not spans (events executed,
    bytes framed) go through :meth:`count`.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS, calibrate: bool = True):
        self.max_spans = max_spans
        self.child_overhead_ns = child_overhead_ns() if calibrate else 0.0
        self._names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        self._counts: Dict[str, float] = {}
        self._counts_lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = len(self._names)
            self._names.append(name)
            self._name_index[name] = index
        return index

    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _ThreadBuffer(threading.current_thread().name, self.max_spans)
            self._local.buffer = buffer
            with self._buffers_lock:
                self._buffers.append(buffer)
        return buffer

    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records a span ``name``."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buffer = getattr(tracer._local, "buffer", None) or tracer._buffer()
            stack = buffer.stack
            index = -1
            if len(buffer.starts) < buffer.max_spans:
                index = len(buffer.starts)
                buffer.name_ids.append(name_id)
                buffer.parents.append(stack[-1][1] if stack else -1)
                buffer.starts.append(0)
                buffer.ends.append(0)
            frame = [0, index, 0]
            stack.append(frame)
            start = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now_ns()
                stack.pop()
                duration = end - start
                if index >= 0:
                    buffer.starts[index] = start
                    buffer.ends[index] = end
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent[2] += 1
                sums = buffer.sums.get(name_id)
                if sums is None:
                    sums = buffer.sums[name_id] = [0, 0, 0, 0]
                sums[0] += 1
                sums[1] += duration
                sums[2] += duration - frame[0]
                sums[3] += frame[2]

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the plain counter ``name``."""
        with self._counts_lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    # -- installation ----------------------------------------------------

    def wrap_attr(self, owner: object, attr: str, name: Optional[str],
                  around: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`.

        ``around(original)`` may return a replacement callable that is
        traced instead of the original (used to count outcomes, such as
        the new updates a call produced, next to its span).  With
        ``name=None`` no span is recorded and only ``around`` applies.
        """
        is_class = isinstance(owner, type)
        had_own = is_class and attr in owner.__dict__
        if is_class:
            raw = next(k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__)
        else:
            raw = getattr(owner, attr)
        function = raw.__func__ if isinstance(raw, staticmethod) else raw
        replacement = around(function) if around else function
        if name is not None:
            replacement = self.traced(name, replacement)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)

        def undo() -> None:
            if had_own or not is_class:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

        self._restore.append(undo)

    def wrap_item(self, mapping: dict, key: object, name: str) -> None:
        """Replace ``mapping[key]`` with a traced wrapper until :meth:`restore`."""
        original = mapping[key]
        mapping[key] = self.traced(name, original)
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._restore:
            self._restore.pop()()

    # -- results ---------------------------------------------------------

    def sums(self) -> Dict[str, Tuple[int, int, float]]:
        """name -> (calls, total ns, self ns), merged over threads.

        Self time has the calibrated wrapper cost of each direct child
        taken out (never below zero).
        """
        merged: Dict[str, List[int]] = {}
        with self._buffers_lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            for name_id, values in list(buffer.sums.items()):
                slot = merged.setdefault(self._names[name_id], [0, 0, 0, 0])
                for position, value in enumerate(values):
                    slot[position] += value
        return {
            name: (calls, total, max(0.0, own - children * self.child_overhead_ns))
            for name, (calls, total, own, children) in merged.items()
        }

    def counts(self) -> Dict[str, float]:
        with self._counts_lock:
            return dict(self._counts)

    def dump(self, directory: Path, stem: str) -> Path:
        """Write the kept spans as binary columns plus a JSON index.

        ``<stem>.json`` names the span-name table, every thread's column
        files and their element types; each ``<stem>.<thread>.<column>``
        file is a raw :mod:`array` dump (native byte order) of equal
        length per thread.  A parent of -1 marks a root span.
        """
        directory.mkdir(parents=True, exist_ok=True)
        index = {"names": list(self._names), "threads": [], "counts": self.counts()}
        for number, buffer in enumerate(self._buffers):
            columns = {}
            for column, data in (
                ("name", buffer.name_ids),
                ("parent", buffer.parents),
                ("start_ns", buffer.starts),
                ("end_ns", buffer.ends),
            ):
                path = directory / f"{stem}.t{number}.{column}"
                with open(path, "wb") as handle:
                    data.tofile(handle)
                columns[column] = {"file": path.name, "typecode": data.typecode}
            index["threads"].append(
                {"thread": buffer.thread_name, "spans": len(buffer.starts),
                 "columns": columns}
            )
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(index, indent=1), encoding="utf-8")
        return path


def child_overhead_ns(calls: int = 20_000, batches: int = 5) -> float:
    """Wrapper cost a traced child adds to its parent's self time.

    Compares a traced parent calling a traced empty child with one
    calling the same child unwrapped; the smallest per-call difference
    over a few batches is the estimate (noise only ever adds).
    """
    best = float("inf")
    for _ in range(batches):
        probe = Tracer(max_spans=0, calibrate=False)

        def leaf() -> None:
            return None

        traced_leaf = probe.traced("leaf", leaf)

        def with_traced() -> None:
            traced_leaf()

        def with_plain() -> None:
            leaf()

        parent_traced = probe.traced("traced", with_traced)
        parent_plain = probe.traced("plain", with_plain)
        for _ in range(calls):
            parent_traced()
            parent_plain()
        sums = {name: values for name, values in probe.sums().items()}
        best = min(best, (sums["traced"][2] - sums["plain"][2]) / calls)
    return max(0.0, best)
