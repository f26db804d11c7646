"""In-memory spans recorded by the benchmark around its calls into the library.

A span has a name, a parent, wall start and end (``time.perf_counter``) and
the process CPU time at both ends, workers that have been reaped included.
Spans stay in memory and are written out once, when the run ends.  A
disabled tracer records nothing, so the same workload code runs traced
and untraced.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "cpu_start": cpu_seconds(),
            "cpu_end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            self._open.pop()
            rec["cpu_end"] = cpu_seconds()
            rec["end"] = time.perf_counter()

    def roots(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def self_times(self, root: dict) -> dict[str, float]:
        """Self time per span name over the tree under ``root``, root included.

        A span's self time is its duration minus its children's durations;
        spans of one tree never overlap, so the self times sum to the root's
        duration exactly.
        """
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: dict[str, float] = {}
        stack = [root]
        while stack:
            s = stack.pop()
            kids = children.get(s["id"], [])
            own = (s["end"] - s["start"]) - sum(k["end"] - k["start"] for k in kids)
            out[s["name"]] = out.get(s["name"], 0.0) + own
            stack.extend(kids)
        return out

    def cpu_time(self, root: dict, name: str) -> float:
        """CPU seconds spent inside spans called ``name`` under ``root``."""
        ids = {root["id"]}
        total = 0.0
        for s in self.spans:  # parents precede their children in self.spans
            if s["parent"] in ids:
                ids.add(s["id"])
                if s["name"] == name:
                    total += s["cpu_end"] - s["cpu_start"]
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")
