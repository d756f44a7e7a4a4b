"""In-memory span recording for traced benchmark runs.

A span is one call into a layer: its name, start and end time, the span that
was open when it began (its parent) and the pass it belongs to, which plays
the part of a request identifier.  Wrappers are installed by replacing the
function where its caller looks it up (a module global or an attribute of the
benchmark's own call table) and are removed again for untraced passes, so
untraced code runs exactly as shipped.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

SETUP = -1  # pass number of spans recorded while the workload inputs are built


@dataclass
class Span:
    name: str
    parent: int
    pass_no: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the call sites listed in ``targets``.

    ``targets`` is a list of ``(span name, [(owner, attribute), ...], count)``
    where ``count(arguments, result)`` returns a dict of numbers to attach to
    the span (or ``count`` is None).  Counts are computed after the span has
    ended, so they cost no span time.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self.pass_no = SETUP
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count):
        signature = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1, self.pass_no)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.counts["failed"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count:
                span.counts.update(count(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self) -> None:
        for name, sites, count in self.targets:
            for owner, attr in sites:
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_totals(self, traced_passes: int) -> dict[str, dict[str, float]]:
        """Per span name: time ``s``, self time ``self_s``, ``calls`` and counts.

        Spans recorded during set-up count once; spans recorded in passes are
        averaged over the traced passes, so each figure reads as "set-up plus
        one pass".  Self time is a span's duration minus its children's, which
        run one after another in this single-threaded process.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, children in zip(self.spans, child_time):
            weight = 1.0 if span.pass_no == SETUP else 1.0 / traced_passes
            layer = totals[span.name]
            layer["s"] += weight * (span.end - span.start)
            layer["self_s"] += weight * (span.end - span.start - children)
            layer["calls"] += weight
            for key, value in span.counts.items():
                layer[key] += weight * value
        return totals

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "pass": s.pass_no, **s.counts}
            for s in self.spans
        ]
