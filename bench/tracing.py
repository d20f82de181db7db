"""In-memory spans around hooklab's public functions, as their callers see them.

A wrapper replaces a function in the namespace of the module that calls it
(``hooklab.cli.census_rows``, not ``hooklab.hooks.census_rows``), so a span
covers exactly what the caller waits for.  Spans are kept in memory and
written out once, when the pass ends.

Functions called hundreds of thousands of times per pass (``t_hook_count``
and the geometry helpers) are *leaves*: their calls are aggregated per name
into a count and a total, and their time is still charged to the enclosing
span as child time, so the enclosing span's self time excludes it.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []        # closed spans, dicts, in closing order
        self.leaves = {}       # leaf name -> [calls, total seconds]
        self.op = None         # label of the benchmark operation in progress
        self.active = True     # False while the benchmark runs untimed calls
        self._stack = []       # open spans: [id, child seconds]
        self._next_id = 0

    def wrap(self, module, attr: str, name: str, *, leaf: bool = False, attrs=None):
        """Replace ``module.attr`` by a traced wrapper.

        ``attrs(args, kwargs, result)`` returns extra fields for the span.
        """
        fn = getattr(module, attr)
        wrapper = self._leaf(fn, name) if leaf else self._span(fn, name, attrs)
        setattr(module, attr, wrapper)

    def _span(self, fn, name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "op": self.op,
                "start": start,
                "end": end,
                "self": duration - frame[1],
            }
            if attrs is not None:
                record.update(attrs(args, kwargs, result))
            self.spans.append(record)
            return result

        return wrapper

    def _leaf(self, fn, name):
        slot = self.leaves.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                slot[0] += 1
                slot[1] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def write(self, path) -> None:
        """Write every span, then the leaf aggregates, as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name, (calls, total) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "total": total}) + "\n")
