"""Span tracing of the sparsebn layers from outside the library.

Library functions are wrapped where the library looks them up: module globals
for functions, class attributes for methods. Nothing under ``src/`` changes.
Every wrapped call is a span. Per span name the tracer keeps the call count,
the total time and the self time, which is the total minus the time of the
spans nested inside it. Spans named in ``keep`` are also kept one by one, with
the nearest kept span around them as their parent, and written out at the end.
The fine-grained spans (one per oracle query) are only counted, because a
paper-scale pass makes millions of them.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable
from pathlib import Path


class Tracer:
    def __init__(self, keep: Iterable[str] = ()):
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.root_s = 0.0  # time covered by spans that have no parent span
        self._keep = frozenset(keep)
        self._open: list[list[float]] = []  # child time of each open span
        self._kept_open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[object], None] | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call; ``observe`` sees results."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        kept_open = self._kept_open
        spans = self.spans
        keep = name in self._keep
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            open_spans.append(frame)
            if keep:
                span_id = len(spans)
                parent = kept_open[-1] if kept_open else None
                kept_open.append(span_id)
                spans.append((span_id, parent, name, 0.0, 0.0))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                took = end - start
                totals[0] += 1
                totals[1] += took
                totals[2] += took - frame[0]
                if open_spans:
                    open_spans[-1][0] += took
                else:
                    tracer.root_s += took
                if keep:
                    kept_open.pop()
                    spans[span_id] = (span_id, parent, name, start, end)
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` (a module global or a method) with a span."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, observe))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def write(self, path: Path, summary: dict) -> None:
        """Write the totals, the kept spans and ``summary`` as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "summary": summary,
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b}
                for i, p, n, a, b in self.spans
            ],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
