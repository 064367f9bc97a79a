"""The reproduced-artefact type every experiment returns.

Both registries — the classic one (:mod:`repro.report.experiments`) and
the streaming one (:mod:`repro.report.stream_experiments`) — render a
table or figure into an :class:`ExperimentReport`.  It lives apart from
the registries so the streaming path and the run contract can build one
without importing the classic registry's analysis stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

__all__ = ["ExperimentReport"]


@dataclass
class ExperimentReport:
    """One reproduced table/figure: id, title, printable lines, raw data."""

    experiment_id: str
    title: str
    lines: List[str]
    data: Any = None

    def text(self) -> str:
        return "\n".join([self.title, ""] + self.lines)

    def print(self) -> None:  # noqa: A003 - deliberate, mirrors report usage
        print(self.text())
