"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the id of the op it belongs to.
Spans stay in a list and are written out once, when the run ends.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._parent = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, idx
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent, self.op)
            self._parent = parent

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def summary(self) -> dict:
        """name -> (calls, self seconds); self time excludes child spans."""
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                pname, pstart, pend, _, _ = self.spans[parent]
                self_s[pname] -= end - start
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((s - t0) * 1e6), round((e - t0) * 1e6), p, op]
                for n, s, e, p, op in self.spans]
        doc = {"fields": ["name", "start_us", "end_us", "parent", "op"],
               "names": names, "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
