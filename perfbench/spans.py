"""In-memory spans recorded around public calls from the benchmark's code.

A span has a name, start, end, parent and request id.  Spans stay in a
list until the run ends; self time is a span's duration minus the part
of it covered by its children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: "int | None" = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "request": request,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Self time (seconds) of every span, in recording order."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def by_name(self, name: str) -> list[float]:
        """Self times of the spans called *name*."""
        own = self.self_times()
        return [own[i] for i, s in enumerate(self.spans) if s["name"] == name]

    def write(self, path: Path) -> None:
        """All spans, one JSON object a line, with their self times."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span, own in zip(self.spans, self.self_times(), strict=True):
                out.write(json.dumps(dict(span, self=own), default=str) + "\n")

    def children_self_total(self, root_name: str) -> float:
        """Summed self time of every child span under roots *root_name*."""
        own = self.self_times()
        roots = {i for i, s in enumerate(self.spans) if s["name"] == root_name and s["parent"] is None}
        return sum(own[i] for i, s in enumerate(self.spans) if s["parent"] in roots)

