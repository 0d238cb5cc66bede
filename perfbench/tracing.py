"""In-memory span recorder that wraps names in other modules at run time.

A span is (id, name, start, end, parent id, op id, tag). The op id is shared
by every span of one request; the tag carries what a layer metric is split
by (state family and size, command kind, split or no split). Nothing under
``src/`` knows about the recorder: it replaces module attributes (and
entries of dicts the program looks functions up in) while it is installed,
and puts the originals back when it is removed.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

Span = tuple  # (id, name, start, end, parent, op, tag)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self.family = ""
        self._stack: list[int] = []
        self._wraps: list[tuple[object, str, str, Optional[Callable]]] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, tag: Optional[Callable] = None) -> None:
        """Register ``owner.attr`` (or ``owner[attr]`` for a dict) for wrapping.

        ``tag(args, result)`` returns the span's tag; it runs after the call.
        """
        self._wraps.append((owner, attr, name, tag))

    def install(self) -> None:
        for owner, attr, name, tag in self._wraps:
            original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            wrapper = self._wrapper(original, name, tag)
            if isinstance(owner, dict):
                owner[attr] = wrapper
            else:
                setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _wrapper(self, fn, name: str, tag: Optional[Callable]):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                label = tag(args, result) if tag is not None else ""
                self.spans[sid] = (sid, name, start, end, parent, self.op, label)

        return traced

    @contextmanager
    def span(self, name: str, tag: str = ""):
        """A span around the benchmark's own code, such as one op."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op, tag)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover, by span id.

    Children of one span run one after another on one thread, so the part
    of the parent they cover is the sum of their durations.
    """
    child = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _, start, end, _, _, _ in spans}


def write(path, run: dict, spans: list[Span]) -> None:
    """Write the spans and per-name totals (inclusive and self) as gzipped JSON."""
    selfs = self_times(spans)
    totals: dict[str, list] = {}
    for sid, name, start, end, *_ in spans:
        t = totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += end - start
        t[2] += selfs[sid]
    t0 = spans[0][2] if spans else 0.0
    doc = {
        "run": run,
        "fields": ["id", "name", "start_s", "end_s", "parent", "op", "tag"],
        "by_name": {
            name: {"count": c, "total_s": round(tot, 6), "self_s": round(own, 6)}
            for name, (c, tot, own) in sorted(totals.items())
        },
        "spans": [
            [sid, name, round(s - t0, 7), round(e - t0, 7), parent, op, tag]
            for sid, name, s, e, parent, op, tag in spans
        ],
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
