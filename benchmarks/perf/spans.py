"""In-memory span recorder for the traced run.

One span per public call into the program (``load_graph``, ``engine.plan``,
``engine.solve``/``serve``, ``service.route``, ``engine.update``) with name,
layer, start, end, parent and an op id shared by the spans of one
solve/query/update.  Spans are kept in memory and written out once, at exit.
A layer's self time is its spans' duration minus the part their children
cover, so the per-layer table sums to the root span's wall by construction.

Spans inside ``src/repro`` are a later issue (ROADMAP item 1); these are
recorded from the harness's own files, around the calls into each layer.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class Tracer:
    """Span recorder; a disabled tracer hands out one shared no-op context."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ops = 0

    def span(self, name: str, layer: str, *, new_op: bool = False):
        """Context manager recording one span under the current one.

        ``new_op=True`` starts a fresh op id (one solve, query or update);
        otherwise the span inherits its parent's.
        """
        if not self.enabled:
            return _NULL
        return self._record(name, layer, new_op)

    @contextlib.contextmanager
    def _record(self, name: str, layer: str, new_op: bool):
        parent = self._stack[-1] if self._stack else None
        if new_op:
            self._ops += 1
            op = self._ops
        else:
            op = self.spans[parent]["op"] if parent is not None else 0
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "parent": parent, "op": op, "start": time.perf_counter(),
                "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------ roll-up
    def self_times(self) -> dict[str, float]:
        """Per-layer self seconds: span duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        table: dict[str, float] = {}
        for span, inner in zip(self.spans, covered):
            own = span["end"] - span["start"] - inner
            table[span["layer"]] = table.get(span["layer"], 0.0) + own
        return table

    def wall(self) -> float:
        """First start to last end over the recorded spans."""
        if not self.spans:
            return 0.0
        return (max(s["end"] for s in self.spans)
                - min(s["start"] for s in self.spans))

    def dump(self, path, **extra) -> None:
        """Write spans, the self-time table and ``extra`` as one JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wall_s": self.wall(), "self_s": self.self_times(),
                       **extra, "spans": self.spans}, fh)
