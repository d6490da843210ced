"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only at layer boundaries the benchmark can reach from
outside the package: `instrument` swaps a public function the CLI looks up
at call time (for example `unroll_tuner.cli.label_sample`) for a wrapper that
opens a span around the original call, and puts the original back on exit.
Nothing inside the package is edited, and an untraced pass runs without
these wrappers.

A span is a list `[name, parent, start_ns, end_ns]`, where `parent` is the
index of the enclosing span or -1.  Calls are single-threaded and properly
nested, so a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    """Spans and counters kept in memory until `write` is called."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @property
    def current(self) -> int:
        """Index of the innermost open span, or -1 outside every span."""
        return self._stack[-1] if self._stack else -1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, self.current, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            record[3] = time.perf_counter_ns()

    def wrap(self, fn, name: str, counter: str | None = None, on_result=None):
        """`fn` with a span around every call.

        `on_result(tracer, args, kwargs, result)` runs after the span has
        closed, so its bookkeeping is charged to the caller's span.
        """
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter:
                self.count(counter)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Seconds of self time per span name (only under `root` if given)."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        keep = None if root is None else self.subtree(root)
        out: dict[str, float] = {}
        for idx, (name, parent, start, end) in enumerate(self.spans):
            if keep is not None and idx not in keep:
                continue
            out[name] = out.get(name, 0.0) + (end - start - child_ns[idx]) / 1e9
        return out

    def subtree(self, root: int) -> set[int]:
        """Indices of `root` and every span opened inside it."""
        keep = {root}
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx][1] in keep:
                keep.add(idx)
        return keep

    def duration(self, idx: int) -> float:
        _, _, start, end = self.spans[idx]
        return (end - start) / 1e9

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans, "counts": self.counts}, fh)


@contextlib.contextmanager
def swapped(targets):
    """For the block, set each `(owner, attr, wrap)` to `wrap(original)`.

    The originals go back on exit.  An attribute that no longer exists
    raises AttributeError, so a renamed function fails the run instead of
    going unmeasured.
    """
    saved = []
    try:
        for owner, attr, wrap in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def instrument(tracer: Tracer, boundaries):
    """Wrap each `(owner, attr, span, counter, on_result)` for the block."""
    return swapped([(owner, attr, functools.partial(tracer.wrap, name=name, counter=counter,
                                                    on_result=on_result))
                    for owner, attr, name, counter, on_result in boundaries])
