"""In-memory span tracer that instruments the library from outside.

The benchmark never edits ``repro``: a traced run replaces public
functions and methods of each layer with thin wrappers for the duration
of one round and restores the originals afterwards.  Each wrapped call
records a span ``[key, start_ns, end_ns, parent, child_ns, rid]``; the
parent is the innermost open span, and a closing span adds its duration
to its parent's ``child_ns``, so a span's *self* time is its duration
minus the time its child spans cover.  Calls too cheap to time without
the tracer dominating them (``PageAllocator.refcount`` runs millions of
times per round) are counted only.

Spans stay in memory; :meth:`Tracer.chrome_trace` renders them as
Chrome trace-event JSON (``chrome://tracing`` / Perfetto) at the end.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

#: Cap on events written to the trace file; every span still counts in
#: the per-layer table.
MAX_TRACE_EVENTS = 100_000


class Tracer:
    """Spans and call counts for one traced round."""

    def __init__(self) -> None:
        self.keys: List[Tuple[str, str]] = []  # key index -> (layer, name)
        self._key_index: Dict[Tuple[str, str], int] = {}
        self.spans: List[list] = []
        self.stack: List[int] = []
        self._cells: Dict[str, List[int]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _key(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._key_index:
            self._key_index[key] = len(self.keys)
            self.keys.append(key)
        return self._key_index[key]

    def span(self, layer: str, name: str, fn: Callable, rid: Optional[Callable] = None):
        """Wrap ``fn`` so every call records a span under ``layer``.

        ``rid`` maps the call's positional arguments to a request id, so
        the spans of one request share an identifier in the trace.
        """
        key = self._key(layer, name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [key, clock(), 0, stack[-1] if stack else -1, 0, rid(args) if rid else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
                if rec[3] >= 0:
                    spans[rec[3]][4] += rec[2] - rec[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, counter_name: str, fn: Callable):
        """Wrap ``fn`` so every call bumps ``counts[counter_name]``, untimed.

        Positional arguments only, and a plain list cell instead of the
        Counter: this wrapper runs millions of times per round, so every
        100 ns it costs lands in its caller's self time.
        """
        cell = self._cells.setdefault(counter_name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (a class or module attribute defined on
        ``owner`` itself) with ``wrapper_factory(original)`` until
        :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def counts(self) -> Dict[str, int]:
        """Calls of every counted-only target."""
        return {name: cell[0] for name, cell in self._cells.items()}

    # ------------------------------------------------------------ analysis

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span calls, self seconds, and inclusive seconds of
        the outermost spans of that layer (nested same-layer spans are
        not double-counted)."""
        table: Dict[str, Dict[str, float]] = {}
        spans = self.spans
        for rec in spans:
            layer = self.keys[rec[0]][0]
            row = table.setdefault(layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            dur = rec[2] - rec[1]
            row["calls"] += 1
            row["self_s"] += (dur - rec[4]) * 1e-9
            if not self._has_ancestor_in(rec, layer):
                row["incl_s"] += dur * 1e-9
        return table

    def _has_ancestor_in(self, rec: list, layer: str) -> bool:
        parent = rec[3]
        while parent >= 0:
            up = self.spans[parent]
            if self.keys[up[0]][0] == layer:
                return True
            parent = up[3]
        return False

    def name_table(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per wrapped ``(layer, name)``: calls and self seconds."""
        table = {key: {"calls": 0, "self_s": 0.0} for key in self.keys}
        for rec in self.spans:
            row = table[self.keys[rec[0]]]
            row["calls"] += 1
            row["self_s"] += (rec[2] - rec[1] - rec[4]) * 1e-9
        return table

    def outer_calls(self, wanted: Callable[[Tuple[str, str]], bool]) -> int:
        """Spans whose ``(layer, name)`` is ``wanted`` and that are not
        nested inside another wanted span (one call that delegates to a
        sibling entry point counts once)."""
        hit = [wanted(key) for key in self.keys]
        spans, n = self.spans, 0
        for rec in spans:
            if not hit[rec[0]]:
                continue
            parent = rec[3]
            while parent >= 0 and not hit[spans[parent][0]]:
                parent = spans[parent][3]
            n += parent < 0
        return n

    def chrome_trace(self, workload: str, origin_ns: int) -> dict:
        """Chrome trace-event JSON (complete ``"X"`` events, microseconds)."""
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": workload}}
        ]
        for i, rec in enumerate(self.spans[:MAX_TRACE_EVENTS]):
            layer, name = self.keys[rec[0]]
            args = {"span": i, "parent": rec[3], "self_us": (rec[2] - rec[1] - rec[4]) / 1e3}
            if rec[5] is not None:
                args["rid"] = rec[5]
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (rec[1] - origin_ns) / 1e3,
                    "dur": (rec[2] - rec[1]) / 1e3,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload,
                "spans": len(self.spans),
                "dropped_events": max(0, len(self.spans) - MAX_TRACE_EVENTS),
                "counts": dict(self.counts),
            },
        }
