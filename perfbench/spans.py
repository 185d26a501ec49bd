"""In-memory spans for the traced run, written out once when the run ends.

The benchmark records a span around each of its own calls into a
layer's public function; nesting (a plan node's span inside its parent's)
comes from the open-span stack.  A span's self time is its duration minus
the part its child spans cover.  Nothing here touches the program.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op = None
        self._op_start = 0

    def begin(self, op) -> None:
        """Tag the spans that follow with operation id ``op``."""
        self.op = op
        self._op_start = len(self.spans)

    def op_self_ms(self) -> dict:
        """``{span name: summed self time in ms}`` over the current operation."""
        out: dict = defaultdict(float)
        for record in self.spans[self._op_start :]:
            duration = record["end"] - record["start"]
            out[record["name"]] += (duration - record["child_s"]) * 1e3
        return out

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "child_s": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            if self._stack:
                self._stack[-1]["child_s"] += record["end"] - record["start"]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {k: r[k] for k in ("id", "name", "op", "parent", "start", "end")}
                    for r in self.spans
                ],
                handle,
            )
