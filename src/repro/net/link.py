"""Directed capacity-limited links.

A :class:`Link` is pure bookkeeping — the set of flows currently crossing it
and its capacity.  Rate arithmetic lives in
:class:`~repro.net.flows.FlowScheduler`.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["Link"]


class Link:
    """A directed link with a fixed capacity in bytes/second.

    Capacity is split evenly among the flows crossing the link (fair-share
    fluid model, see :mod:`repro.net.flows`).

    ``flows`` is an insertion-ordered dict used as an ordered set: flows
    only ever join a link at creation time, with a monotonically increasing
    creation index, so iteration yields flows in ascending index order —
    the deterministic order the scheduler's re-rate pass needs — without
    sorting.

    A device of a ``node`` is named ``<node>.<name>``, derived when read.
    """

    __slots__ = ("_name", "node", "capacity", "flows")

    def __init__(self, name: str, capacity: float, node: Any = None) -> None:
        self._name = name
        self.node = node
        if capacity <= 0:
            raise ValueError(f"link {self.name!r}: capacity must be positive")
        self.capacity = float(capacity)
        self.flows: Dict["Flow", None] = {}

    @property
    def name(self) -> str:
        node = self.node
        return self._name if node is None else f"{node.name}.{self._name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} cap={self.capacity:.3g}B/s flows={len(self.flows)}>"
