"""Outside-in span tracer: wraps public functions and methods of the
program's layers, records a span per call, and restores them afterwards.

Every span has a name, a start, an end and a parent (the span that was
open when it started).  Hot-path spans are aggregated per (name, parent)
into count, total and self time, where self time is the span's duration
minus the part its child spans cover.  Cold spans (called a handful of
times per run) are also kept one by one so they can be written out.
Work between wrapped boundaries falls into the enclosing span's self
time; time outside every span is the caller's to report.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        #: Open spans, innermost last: ``[child_time, name]`` frames.
        self._stack: list[list] = []
        #: (name, parent) -> [count, total_s, self_s, units]
        self.agg: dict[tuple, list] = {}
        #: Cold spans in completion order: (name, start, end, parent).
        self.spans: list[tuple] = []
        self._undo: list[tuple] = []

    # -- installation ----------------------------------------------------
    def wrap_attr(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        traced wrapper.  Classes are wrapped only where they define the
        attribute themselves, so an inherited method is traced once."""
        original = vars(owner)[attr]
        setattr(owner, attr, self._traced(original, name, **kw))
        self._undo.append((setattr, owner, attr, original))

    def wrap_item(self, table: dict, key, name: str, **kw) -> None:
        """Replace ``table[key]`` by a traced wrapper."""
        original = table[key]
        table[key] = self._traced(original, name, **kw)
        self._undo.append((dict.__setitem__, table, key, original))

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)

    def _traced(self, fn, name: str, *, cold: bool = False, units=None):
        """``units(args, result) -> int`` adds a per-call work count."""
        stack = self._stack
        agg = self.agg
        spans = self.spans
        clock = perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[0] += dur
                    parent = parent_frame[1]
                else:
                    parent = None
                key = (name, parent)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if cold:
                    spans.append((name, t0, t1, parent))
            if units is not None:
                rec[3] += units(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- read-out --------------------------------------------------------
    def totals(self, name: str) -> tuple[int, float, float, int]:
        """(count, total_s, self_s, units) of ``name`` over all parents.

        Count, total and units cover only outermost calls, so a span that
        re-enters itself (a kernel entry point delegating to another, an
        override calling ``super()``) is not double counted."""
        count = units = 0
        total = self_s = 0.0
        for (span, parent), (n, tot, own, u) in self.agg.items():
            if span != name:
                continue
            self_s += own
            if parent != name:
                count += n
                total += tot
                units += u
        return count, total, self_s, units

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(rec[1] for (_, parent), rec in self.agg.items() if parent is None)

    def to_json(self, origin: float) -> dict:
        """Spans relative to ``origin`` plus the per-(name, parent) table."""
        return {
            "spans": [
                {"name": n, "start": s - origin, "end": e - origin, "parent": p}
                for n, s, e, p in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "count": c, "total_s": t, "self_s": s,
                 "units": u}
                for (n, p), (c, t, s, u) in sorted(
                    self.agg.items(), key=lambda kv: -kv[1][1]
                )
            ],
        }
