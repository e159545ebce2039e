"""Field-driven telemetry records and structured events.

Every ``*Stats`` record in the system is a plain ``@dataclass`` whose
fields *are* its counters: the hot paths update them with ``+=`` on an
attribute, and the ``#:`` comment on a field is that metric's
documentation.  :class:`Counters` derives everything else — the
independent copy a report hands out, the totals a pool or gateway adds
up, the flat dict a PAG node carries — from ``dataclasses.fields``, so a
new counter is declared once (one field) and appears in all three.

:func:`emit_event` covers what counters cannot say: *state transitions*
(a backend quarantined, a worker respawned, a poisoned entry dropped) go
out as one JSON object per line through stdlib ``logging`` on the
emitting module's ``repro.*`` logger.  The library installs a
``NullHandler`` and nothing else — no handler, formatter or level — so
events cost one ``isEnabledFor`` check until an operator opts in::

    import logging
    logging.basicConfig(level=logging.INFO, format="%(message)s")
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import fields
from typing import ClassVar

__all__ = ["Counters", "emit_event"]

logging.getLogger("repro").addHandler(logging.NullHandler())


def emit_event(module: str, event: str, **data) -> None:
    """Log one structured event (a JSON line, keys sorted) at ``INFO`` on
    the ``module`` logger; returns before formatting when nobody listens.
    For state transitions only — per-round facts stay counters."""
    logger = logging.getLogger(module)
    if logger.isEnabledFor(logging.INFO):
        logger.info(json.dumps({"event": event, **data}, sort_keys=True, default=str))


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Counters:
    """Mixin deriving ``snapshot`` / ``merge`` / ``as_metrics`` from the
    dataclass fields of the record it is mixed into.

    Field kinds: numbers are counters (they add), ``dict[str, float]``
    fields add key-wise, ``deque`` fields are bounded rings (they
    extend, ``maxlen`` kept), nested :class:`Counters` recurse, and
    anything else (labels, tuples of per-shard snapshots) is carried but
    never summed.
    """

    #: Read-only properties :meth:`as_metrics` exports beside the numeric
    #: fields (rates, quantiles) — per class, extended by subclasses.
    DERIVED: ClassVar[tuple[str, ...]] = ()

    def snapshot(self):
        """An independent copy: later updates of the live record (ints,
        dict entries, ring, nested records) never show through.  ``dict``
        and ``deque`` fields are copied by their own C-level ``.copy()``
        — one call under the GIL — so snapshotting a record a worker
        thread is updating never iterates a live container."""
        copied = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Counters):
                value = value.snapshot()
            elif isinstance(value, (dict, deque)):
                value = value.copy()
            copied[spec.name] = value
        return type(self)(**copied)

    def merge(self, other: "Counters"):
        """Accumulate ``other`` (this record's class or a base of it — a
        shard's snapshot into the pool's totals) into ``self``; returns
        ``self``.  Merge snapshots, not records another thread updates."""
        for spec in fields(other):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, Counters):
                mine.merge(theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0.0) + value
            elif isinstance(mine, deque):
                mine.extend(theirs)
            elif _is_number(mine):
                setattr(self, spec.name, mine + theirs)
        return self

    def as_metrics(self) -> dict:
        """Flat ``{name: value}`` view — every numeric field, then the
        :attr:`DERIVED` properties — for PAG nodes and benchmark records."""
        metrics = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if _is_number(getattr(self, spec.name))
        }
        metrics.update((name, getattr(self, name)) for name in self.DERIVED)
        return metrics
