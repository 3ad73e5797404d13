"""In-memory spans recorded around calls into the engine's modules.

A span has a name (``<module>.<call>``), start and end (perf_counter
seconds), an id, the id of the span that caused it, and the id of the
request it belongs to. ``wrap`` returns a callable that records a span per
call; with tracing off the harness never installs the wrappers, so untraced
runs execute the engine's own functions unchanged.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self.request: int | None = None

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": sid, "parent": parent, "request": self.request,
                 "name": name, "start": t0, "end": t1}
            )

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str, request=None) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (request is None or s["request"] == request)
        ]

    def per_request(self, name: str) -> dict[int, float]:
        """Total duration of ``name`` spans per request id."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name and s["request"] is not None:
                out[s["request"]] += s["end"] - s["start"]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
