"""In-memory layer tracer: timing wrappers around public entry points.

The benchmark times calls *into* each layer from its own files; nothing
inside ``src/`` changes.  Every wrapped call opens a frame on one stack.
When it returns, its duration is charged to its own name and its parent
frame learns how long the child ran, so

    self time = duration - time covered by directly nested child frames

and the self times of all frames opened under one root add up to the
root's duration exactly.

Two kinds of boundary:

- *span* boundaries (runs, cells, sections, cache calls) keep one span
  record each: name, layer, start, end, parent span and cell id;
- *count* boundaries (per-packet and per-frame calls) keep only a count,
  inclusive time and self time per ``(cell, name)``, so a million packets
  cost a million additions, not a million records.

Spans and aggregates stay in memory; :meth:`Tracer.dump` writes them out
once, when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN = "span"
COUNT = "count"


class Tracer:
    """One traced pass: a frame stack, span records and per-cell totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open frames: [start, child_s, name, layer, span index or -1].
        self._stack: List[list] = []
        self.spans: List[Dict[str, Any]] = []
        #: (cell, name) -> [layer, count, inclusive_s, self_s]
        self.calls: Dict[Tuple[int, str], list] = {}
        self.layer_self: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.cell = 0
        self._next_cell = 0
        self._span_parents: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------

    def enter(self, name: str, layer: str, span: bool = False) -> list:
        """Open a frame; ``span`` also keeps a span record for it."""
        index = -1
        if span:
            index = len(self.spans)
            self.spans.append({
                "id": index, "name": name, "layer": layer,
                "parent": self._span_parents[-1] if self._span_parents else -1,
                "cell": self.cell, "start": 0.0, "end": 0.0,
            })
            self._span_parents.append(index)
        frame = [0.0, 0.0, name, layer, index]
        self._stack.append(frame)
        frame[0] = self.clock()
        return frame

    def leave(self, frame: list) -> float:
        """Close the innermost frame; returns its duration."""
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"frame {frame[2]!r} closed out of order")
        stack.pop()
        duration = end - frame[0]
        own = duration - frame[1]
        if stack:
            stack[-1][1] += duration
        name, layer, index = frame[2], frame[3], frame[4]
        key = (self.cell, name)
        entry = self.calls.get(key)
        if entry is None:
            entry = self.calls[key] = [layer, 0, 0.0, 0.0]
        entry[1] += 1
        entry[2] += duration
        entry[3] += own
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
        if index >= 0:
            record = self.spans[index]
            record["start"], record["end"] = frame[0], end
            record["self"] = own
            self._span_parents.pop()
        return duration

    def count(self, name: str, amount: float) -> None:
        """Add to a named work counter kept beside the frames."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def begin_cell(self) -> int:
        """Open a new cell id, shared by spans until :meth:`end_cell`."""
        previous = self.cell
        self._next_cell += 1
        self.cell = self._next_cell
        return previous

    def end_cell(self, previous: int) -> None:
        self.cell = previous

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def wrapper(self, fn: Callable, name: str, layer: str, kind: str,
                counter: Optional[Tuple[str, Callable]] = None,
                cell: bool = False) -> Callable:
        """A timing wrapper around ``fn`` (metadata copied from ``fn``)."""
        enter, leave = self.enter, self.leave
        span = kind == SPAN

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            previous = self.begin_cell() if cell else None
            frame = enter(name, layer, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
                if cell:
                    self.end_cell(previous)
            if counter is not None:
                self.count(counter[0], counter[1](result))
            return result

        return traced

    def patch(self, module_name: str, path: str, layer: str, kind: str,
              counter: Optional[Tuple[str, Callable]] = None,
              cell: bool = False) -> None:
        """Wrap ``module.path`` (``func`` or ``Class.method``) in place.

        A module-level function is also replaced in every loaded ``repro``
        module that imported it by name, so ``from x import f`` callers
        are traced too.
        """
        module = importlib.import_module(module_name)
        owner: Any = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{module_name}.{path}: wrap plain functions")
        wrapped = self.wrapper(original, f"{module_name.split('.', 1)[-1]}."
                               f"{path}", layer, kind, counter, cell)
        self._set(owner, attr, wrapped)
        if owner is module:
            for other in list(sys.modules.values()):
                if (other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(attr) is original):
                    self._set(other, attr, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def by_name(self) -> Dict[str, list]:
        """Per-name totals over all cells: [layer, count, inclusive, self]."""
        out: Dict[str, list] = {}
        for (_, name), (layer, count, incl, own) in self.calls.items():
            entry = out.setdefault(name, [layer, 0, 0.0, 0.0])
            entry[1] += count
            entry[2] += incl
            entry[3] += own
        return out

    def dump(self, path: str) -> None:
        """Write spans, then per-cell aggregates, as JSON lines."""
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            for (cell, name), (layer, count, incl, own) in sorted(
                    self.calls.items()):
                handle.write(json.dumps({
                    "cell": cell, "name": name, "layer": layer,
                    "count": count, "inclusive_s": incl, "self_s": own,
                }, sort_keys=True) + "\n")
