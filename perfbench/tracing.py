"""In-memory spans around calls into the program's layers.

The benchmark patches a few public functions of ``repro`` in its own
process (nothing under ``src/`` is changed) so each call records a span:
name, start, end, parent span and operation number. Spans stay in memory
and are written out once, when the run ends. Calls made inside Spark's
Python workers are not seen; those layers are measured by probes beside
the call instead (see ``run.py``).
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.enabled = False
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call."""
        orig: Callable = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def unpatch(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # ---- reading the spans -------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Seconds of every closed span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"] is not None]

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus the time its children cover.

        Spans are opened and closed on one thread, so children of one span
        never overlap and their durations add up.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, List[float]] = {}
        for s in self.spans:
            if s["end"] is not None:
                out.setdefault(s["name"], []).append(s["end"] - s["start"] - child_time[s["id"]])
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
