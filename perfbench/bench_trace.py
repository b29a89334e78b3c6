"""In-memory spans recorded around public thermocone calls, from outside the library.

A span is (name, start_ns, end_ns, parent index, request id).  Spans are kept in
a list while the workload runs and written out once it ends.  Self time is a
span's duration minus the time its children cover; the children of one span
never overlap because the benchmark runs one caller in one thread.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int | None, int | None] | None] = []
        self._stack: list[int] = []
        self._rid: int | None = None

    def _open(self) -> tuple[int, int | None, int]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, time.perf_counter_ns()

    def _close(self, name: str, idx: int, parent: int | None, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._rid)

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""

        def traced(*args, **kwargs):
            idx, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start)

        return traced

    @contextmanager
    def request(self, rid: int, kind: str):
        self._rid = rid
        idx, parent, start = self._open()
        try:
            yield
        finally:
            self._close(f"bench.request.{kind}", idx, parent, start)
            self._rid = None

    def self_times_ns(self) -> list[int]:
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        return [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def busy(self, names) -> dict[str, tuple[int, float]]:
        """(calls, self-time ms) of every span name in `names`, zero if never called."""
        calls: dict[str, int] = defaultdict(int)
        busy_ns: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times_ns()):
            calls[span[0]] += 1
            busy_ns[span[0]] += own
        return {n: (calls[n], busy_ns[n] / 1e6) for n in names}

    def dump(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))
