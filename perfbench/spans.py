"""In-memory spans for the traced runs.

Each span keeps its name, start, end and parent until the run ends, when
the list is written next to the result.  A span's self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Spans:
    """A flat list of ``[name, start, end, parent index]`` records."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent: Optional[int] = self._open[-1] if self._open else None
        self.records.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.records[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in order."""
        return [end - start for n, start, end, _p in self.records if n == name]

    def _self_seconds(self) -> List[float]:
        children: Dict[int, List[int]] = {}
        for index, record in enumerate(self.records):
            if record[3] is not None:
                children.setdefault(record[3], []).append(index)
        out = []
        for index, (_name, start, end, _parent) in enumerate(self.records):
            covered, reach = 0.0, start
            spans = sorted(
                (self.records[c][1], self.records[c][2])
                for c in children.get(index, [])
            )
            for child_start, child_end in spans:
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            out.append(end - start - covered)
        return out

    def covered(self, name: str) -> float:
        """Summed time that the children of spans called ``name`` cover."""
        return sum(
            record[2] - record[1] - own
            for record, own in zip(self.records, self._self_seconds())
            if record[0] == name
        )

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "self": own}
            for (name, start, end, parent), own
            in zip(self.records, self._self_seconds())
        ]
