"""Structured event tracing.

Every layer of the system reports interesting transitions (binding
created, lock promoted, node crashed, state excluded, ...) to a
:class:`Tracer`.  Tests assert on traces to pin down protocol behaviour;
examples print them to narrate a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class TraceEvent:
    """One trace record."""

    time: float
    category: str
    message: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = f" {self.data}" if self.data else ""
        return f"[{self.time:10.4f}] {self.category:<12} {self.message}{extra}"


class Tracer:
    """Collects :class:`TraceEvent` records, optionally filtered/echoed.

    ``categories=None`` records everything; otherwise only the listed
    categories are kept.  ``echo`` prints records as they arrive, which
    the examples use for narration.
    """

    def __init__(self, categories: set[str] | None = None, echo: bool = False,
                 clock: Callable[[], float] | None = None) -> None:
        self.events: list[TraceEvent] = []
        self._categories = categories
        self._echo = echo
        self._clock = clock or (lambda: 0.0)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock used to timestamp records."""
        self._clock = clock

    def wants(self, category: str) -> bool:
        """Whether :meth:`record` keeps records of ``category``.

        Hot callers check it first so that a dropped record costs no
        argument formatting (``NULL_TRACER`` wants nothing).
        """
        return self._categories is None or category in self._categories

    def record(self, category: str, message: str, **data: Any) -> None:
        if self._categories is not None and category not in self._categories:
            return
        event = TraceEvent(self._clock(), category, message, data)
        self.events.append(event)
        if self._echo:  # pragma: no cover - presentation only
            print(event)

    def filter(self, category: str) -> list[TraceEvent]:
        """All recorded events of one category, in time order."""
        return [e for e in self.events if e.category == category]

    def messages(self, category: str | None = None) -> list[str]:
        """Just the message strings, optionally restricted to a category."""
        return [e.message for e in self.events
                if category is None or e.category == category]

    def count(self, category: str) -> int:
        return sum(1 for e in self.events if e.category == category)

    def clear(self) -> None:
        self.events.clear()


NULL_TRACER = Tracer(categories=set())
"""A tracer that records nothing, used as the default everywhere."""
