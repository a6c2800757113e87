"""The harness's own span recorder.

Spans are recorded around the harness's calls into each layer's public
functions -- nothing inside ``src/`` is patched or wrapped.  A span is
``(name, start, end, parent, op_id)``; spans stay in memory and
:meth:`Recorder.dump` writes them as JSONL when the run ends.  A layer's
*self time* is its span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class _Span:
    __slots__ = ("_recorder", "_name", "_op_id", "_index")

    def __init__(self, recorder: "Recorder", name: str, op_id):
        self._recorder = recorder
        self._name = name
        self._op_id = op_id

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        parent = recorder._open[-1] if recorder._open else None
        self._index = len(recorder.spans)
        recorder.spans.append(
            [self._name, time.perf_counter(), None, parent, self._op_id])
        recorder._open.append(self._index)
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self._recorder
        recorder.spans[self._index][2] = time.perf_counter()
        recorder._open.pop()


class _Off:
    """The recorder switched off: entering and leaving records nothing."""

    def __enter__(self) -> "_Off":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_OFF = _Off()


class Recorder:
    """An in-memory list of spans with parent links."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.enabled = True

    def span(self, name: str, op_id=None):
        """A context manager timing one call; children nest inside it."""
        return _Span(self, name, op_id) if self.enabled else _OFF

    def durations(self) -> list[float]:
        return [end - start for _, start, end, _, _ in self.spans]

    def self_times(self) -> list[float]:
        """Per span: its duration minus its direct children's durations."""
        own = self.durations()
        total = list(own)
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                own[parent] -= total[index]
        return own

    def by_name(self, values: list[float]) -> dict[str, list[float]]:
        """Group one value per span (durations or self times) by span name."""
        grouped: dict[str, list[float]] = {}
        for span, value in zip(self.spans, values):
            grouped.setdefault(span[0], []).append(value)
        return grouped

    def dump(self, path: Path) -> None:
        with Path(path).open("w") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op_id": op_id}) + "\n")
