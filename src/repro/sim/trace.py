"""Structured tracing and counters.

The harness reconstructs everything it reports (wave counts, overhead
decompositions, bytes moved) from traces, so the trace layer is a first-class
part of the reproduction rather than debug output.

A trace *category* is declared once, next to the code that emits it, with
its field names in order (:func:`declare`).  For every live category the
tracer publishes one *plan* in :attr:`Tracer.probes`: a callable taking
``(time, *values)`` in declared order.  The per-message sites call it
directly::

    probe = trace.probes.get("net.sent")
    if probe is not None:
        probe(now, pipe, msg, nbytes)

so a dark tracer costs one dict lookup per potential record, and a live one
builds no kwargs dict and no :class:`TraceRecord` unless somebody asked for
records.  :meth:`Tracer.record` is the same plan called by keyword — the
general API of the cold sites.

The tracer is also the hub the online invariant monitors
(:mod:`repro.verify`) plug into: a subscriber registers for a set of
categories and is handed every matching event *as it is emitted*, whether or
not it is also stored — as a :class:`TraceRecord`, or positionally when it
supplies its own per-category entry point (see :meth:`Tracer.subscribe`).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
    get_args,
    get_origin,
)

__all__ = ["SCHEMAS", "Schema", "TraceFormatError", "TraceRecord", "Tracer",
           "declare", "dump_jsonl", "iter_jsonl", "load_jsonl", "make_record"]

#: what a declared type admits once a record has been through JSON: ints
#: pass for floats and sequences come back as lists
_JSON_KINDS: Dict[type, Tuple[type, ...]] = {
    float: (float, int),
    tuple: (tuple, list),
}


class Schema:
    """The declared shape of one trace category.

    ``names`` is the field order every emitting site and every positional
    consumer agrees on.  ``types`` and ``required`` are what an offline
    trace must satisfy (:meth:`problem`); the live path never checks them.
    """

    __slots__ = ("category", "module", "names", "types", "required")

    def __init__(self, category: str, module: str,
                 fields: Dict[str, Any]) -> None:
        self.category = category
        self.module = module
        self.names: Tuple[str, ...] = tuple(fields)
        #: field -> declared types (``object`` admits anything)
        self.types: Dict[str, Tuple[type, ...]] = {}
        #: fields every record of the category carries
        self.required: Set[str] = set()
        for name, spec in fields.items():
            kinds = get_args(spec) if get_origin(spec) is Union else (spec,)
            if type(None) not in kinds:
                self.required.add(name)
            self.types[name] = tuple(k for k in kinds if k is not type(None))

    def values(self, fields: Dict[str, Any]) -> List[Any]:
        """``fields`` in declared order, None where a field is absent."""
        get = fields.get
        return [get(name) for name in self.names]

    def problem(self, fields: Dict[str, Any]) -> Optional[str]:
        """Why ``fields`` is not a well-formed record of this category."""
        for name in self.names:
            value = fields.get(name)
            if value is None:
                if name in self.required and name not in fields:
                    return f"{self.category} record lacks field {name!r}"
                continue
            declared = self.types[name]
            admitted = tuple(kind for declared_kind in declared
                             for kind in _JSON_KINDS.get(declared_kind,
                                                         (declared_kind,)))
            if not isinstance(value, admitted) or (
                    isinstance(value, bool) and bool not in declared
                    and object not in declared):
                expected = " or ".join(kind.__name__ for kind in declared)
                return (f"{self.category} field {name!r} is "
                        f"{type(value).__name__}, expected {expected}")
        return None


#: every declared category, in declaration (import) order
SCHEMAS: Dict[str, Schema] = {}


def declare(category: str, module: str, **fields: Any) -> str:
    """Declare ``category``: its fields in emission order, each with the
    type an offline trace must carry (``Optional[...]`` marks a field a
    site may omit).  ``module`` is the emitting module's ``__name__``.
    Call at import time, beside the emitting site; returns ``category``.
    """
    if category in SCHEMAS:
        raise ValueError(f"trace category {category!r} declared twice "
                         f"({SCHEMAS[category].module} and {module})")
    SCHEMAS[category] = Schema(category, module, fields)
    return category


class TraceRecord:
    """One trace entry.

    A hand-rolled ``__slots__`` class rather than a frozen dataclass: the
    frozen-dataclass ``__init__`` routes every field through
    ``object.__setattr__``, which was a measurable slice of the bt_wave
    profile.  Records are immutable by convention.
    """

    __slots__ = ("time", "category", "fields")

    def __init__(
        self,
        time: float,
        category: str,
        fields: Tuple[Tuple[str, Any], ...],
    ) -> None:
        self.time = time
        self.category = category
        self.fields = fields

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.fields)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time, self.category, self.fields) == (
            other.time, other.category, other.fields
        )

    def __hash__(self) -> int:
        return hash((self.time, self.category, self.fields))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecord(time={self.time!r}, "
                f"category={self.category!r}, fields={self.fields!r})")


def make_record(time: float, category: str, values: Tuple[Any, ...],
                named: Dict[str, Any]) -> TraceRecord:
    """Materialise what a plan was called with: positional ``values`` under
    their declared names, then the keyword fields as given."""
    schema = SCHEMAS.get(category)
    fields = tuple(zip(schema.names, values)) if schema is not None else ()
    if named:
        fields += tuple(named.items())
    return TraceRecord(time, category, fields)


#: a per-category entry point: ``plan(time, *values, **named)``
Plan = Callable[..., None]


class Tracer:
    """Collects :class:`TraceRecord` entries and scalar counters.

    Parameters
    ----------
    enabled:
        Master switch for record *storage*.  A disabled tracer still
        accumulates counters (they are nearly free and the harness always
        needs them) and still feeds subscribers, but drops records.
    categories:
        When given, only these categories are stored.  Subscribers declare
        their own category interest independently.
    """

    def __init__(
        self,
        enabled: bool = True,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        self._enabled = enabled
        self._categories: Optional[Set[str]] = set(categories) if categories else None
        self.records: List[TraceRecord] = []
        self.counters: Counter = Counter()
        #: (callback, categories-or-None, positional factory-or-None)
        self._subscribers: List[Tuple[Callable[[TraceRecord], None],
                                      Optional[Set[str]],
                                      Optional[Callable[[str], Optional[Plan]]]]] = []
        #: the plan of every *live* declared category — absent means dark.
        #: Rebuilt whenever the subscriber list changes, so a hot site's
        #: whole cost on a dark tracer is ``probes.get(category)``.
        self.probes: Dict[str, Plan] = {}
        #: callbacks the simulator invokes once per processed event with
        #: ``(time, priority, seq)`` — the raw total-order stream, kept out
        #: of the record path because it fires for *every* heap pop
        self.step_listeners: List[Callable[[float, int, int], None]] = []
        self._rebuild()

    # --------------------------------------------------------- configuration
    def _rebuild(self) -> None:
        self.probes.clear()
        self._declared = len(SCHEMAS)
        if not self._enabled and not self._subscribers:
            return
        for category in SCHEMAS:
            plan = self._plan(category)
            if plan is not None:
                self.probes[category] = plan

    def _plan(self, category: str) -> Optional[Plan]:
        """The one delivery path of ``category``; None when it is dark."""
        store = self._enabled and (
            self._categories is None or category in self._categories
        )
        callbacks = []  # handed a materialised record
        sinks = []      # handed the values as they come
        for callback, wanted, positional in self._subscribers:
            if wanted is not None and category not in wanted:
                continue
            if positional is None:
                callbacks.append(callback)
            else:
                sink = positional(category)
                if sink is not None:
                    sinks.append(sink)
        if not store and not callbacks:
            if not sinks:
                return None
            if len(sinks) == 1:
                return sinks[0]
        records = self.records

        def plan(time: float, *values: Any, **named: Any) -> None:
            if store or callbacks:
                entry = make_record(time, category, values, named)
                if store:
                    records.append(entry)
                for callback in callbacks:
                    callback(entry)
            for sink in sinks:
                sink(time, *values, **named)

        return plan

    # --------------------------------------------------------------- records
    def _unpublished(self, category: str) -> Optional[Plan]:
        """The plan of a category ``probes`` does not hold: None for a dark
        one, built on the spot for one nobody declared (ad hoc, in tests)."""
        if len(SCHEMAS) != self._declared:
            # a module declaring categories was imported after the last
            # rebuild; cold sites run first, so this heals the hot ones too
            self._rebuild()
            return self.probes.get(category)
        if category in SCHEMAS:
            return None
        return self._plan(category)

    def wants(self, category: str) -> bool:
        """True when a record of ``category`` would be stored or delivered.

        Cold sites call this before computing a record's fields.
        """
        return (category in self.probes
                or self._unpublished(category) is not None)

    def record(self, time: float, category: str, **fields: Any) -> None:
        """Emit one record by keyword: the category's plan, called with the
        fields as given (so an optional field may simply be left out)."""
        probe = self.probes.get(category)
        if probe is None:
            probe = self._unpublished(category)
            if probe is None:
                return
        probe(time, **fields)

    def subscribe(
        self,
        callback: Callable[[TraceRecord], None],
        categories: Optional[Iterable[str]] = None,
        positional: Optional[Callable[[str], Optional[Plan]]] = None,
    ) -> None:
        """Deliver matching records to ``callback`` as they are emitted.

        ``categories=None`` subscribes to everything.  A subscriber that
        can consume a category's values without a :class:`TraceRecord`
        passes ``positional``: asked once per category, it returns the
        subscriber's own ``(time, *values, **named)`` entry point (or None
        when the category does not concern it), which then stands in for
        ``callback`` — that remains the handle for :meth:`unsubscribe`.
        """
        wanted = set(categories) if categories is not None else None
        self._subscribers.append((callback, wanted, positional))
        self._rebuild()

    def unsubscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        # Equality, not identity: bound methods (`bus.dispatch`) are a fresh
        # object on every attribute access, but compare equal.
        self._subscribers = [
            entry for entry in self._subscribers if entry[0] != callback
        ]
        self._rebuild()

    def select(self, category: str) -> Iterator[TraceRecord]:
        """All records of ``category`` in chronological order."""
        return (r for r in self.records if r.category == category)

    # -------------------------------------------------------------- counters
    def count(self, key: str, increment: float = 1) -> None:
        self.counters[key] += increment

    def __getitem__(self, key: str) -> float:
        return self.counters[key]


# ------------------------------------------------------------------ JSONL IO
class TraceFormatError(ValueError):
    """A JSONL trace line that is not a record (message: ``path:LINE: …``)."""


def dump_jsonl(records: Iterable[TraceRecord], path: str) -> int:
    """Write records as JSON lines ``{"time", "category", ...fields}``.

    Non-JSON-serializable field values are stored as their ``repr``.
    Returns the number of records written.
    """
    written = 0
    with open(path, "w") as handle:
        for record in records:
            row = {"time": record.time, "category": record.category}
            row.update(record.as_dict())
            handle.write(json.dumps(row, default=repr) + "\n")
            written += 1
    return written


def iter_jsonl(path: str) -> Iterator[Tuple[int, TraceRecord]]:
    """Yield ``(line number, record)`` from a :func:`dump_jsonl` file."""
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if not isinstance(row, dict):
                raise TraceFormatError(
                    f"{path}:{number}: not a JSON object")
            category = row.pop("category", None)
            if not isinstance(category, str):
                raise TraceFormatError(
                    f"{path}:{number}: record lacks 'category'")
            time = row.pop("time", None)
            if time is None:
                raise TraceFormatError(
                    f"{path}:{number}: {category} record lacks 'time'")
            if isinstance(time, bool) or not isinstance(time, (int, float)):
                raise TraceFormatError(
                    f"{path}:{number}: {category} 'time' is "
                    f"{type(time).__name__}, expected float")
            yield number, TraceRecord(float(time), category,
                                      tuple(row.items()))


def load_jsonl(path: str) -> Iterator[TraceRecord]:
    """Yield :class:`TraceRecord` entries from a :func:`dump_jsonl` file."""
    return (record for _, record in iter_jsonl(path))
