"""Host-time attribution: a profiler's caller->callee edge table, by layer.

The input is the ``stats`` dictionary of :mod:`pstats` (what ``cProfile``
records)::

    {function: (primitive_calls, calls, self_s, inclusive_s,
                {caller: (calls, primitive_calls, self_s, inclusive_s)})}

with ``function = (filename, line, name)``.  That table already is a span
store: an edge whose two ends lie in different layers is a span at a layer
boundary — name the callee, parent the caller, with a count, an inclusive
time and a self time.

A function belongs to the layer its file lives in (``layer_of``).  Built-in
and standard-library code has no layer of its own: its self time is charged
to the layer that called it, through the non-repro frames between them, and
to ``other`` when no repro frame is above it.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

Function = Tuple[str, int, str]

__all__ = ["layer_of", "attribute"]


def layer_of(filename: str, package_root: str,
             layers: Tuple[str, ...]) -> Optional[str]:
    """Layer owning ``filename``, or None for code outside ``package_root``.

    ``package_root`` is the directory of the ``repro`` package;
    ``<root>/<pkg>/...`` maps to ``<pkg>`` when that is a declared layer,
    ``<root>/sim/trace.py`` to ``trace``, and anything else under the root
    (``repro/__init__.py``, an undeclared subpackage) to ``other``.
    """
    root = package_root.rstrip("/\\") + os.sep
    if not filename.startswith(root):
        return None
    parts = filename[len(root):].replace("\\", "/").split("/")
    if parts == ["sim", "trace.py"]:
        return "trace"
    if len(parts) >= 2 and parts[0] in layers:
        return parts[0]
    return "other"


def attribute(stats: Dict[Function, tuple], package_root: str,
              layers: Tuple[str, ...]) -> dict:
    """Fold an edge table into per-layer self time, call counts and spans.

    Returns ``self_s`` / ``share`` / ``calls`` / ``calls_in`` keyed by
    layer, and ``spans``: the boundary edges entering a repro layer, sorted
    by inclusive time.  ``calls`` counts calls of the layer's own functions
    (``other``: of everything outside the package); ``calls_in`` counts the
    calls among them whose caller is in a different layer.  Both classify an
    edge's two ends by file alone, so a callback reached through a built-in
    frame (``heapq`` -> ``__lt__``, ``sorted`` -> key function) counts as
    entering from ``other``; that keeps the counts whole numbers.
    """
    direct = {func: layer_of(func[0], package_root, layers) for func in stats}
    for _, _, _, _, callers in stats.values():
        for caller in callers:
            if caller not in direct:
                direct[caller] = layer_of(caller[0], package_root, layers)

    owners = _owner_shares(stats, direct)

    self_s = {layer: 0.0 for layer in layers}
    calls = {layer: 0 for layer in layers}
    calls_in = {layer: 0 for layer in layers}
    spans: List[dict] = []
    for func, (_, n_calls, own, _, callers) in stats.items():
        for layer, part in owners[func].items():
            self_s[layer] += own * part
        home = direct[func] or "other"
        calls[home] += n_calls
        for caller, (edge_calls, _, edge_self, edge_inclusive) in callers.items():
            origin = direct[caller] or "other"
            if origin == home:
                continue
            calls_in[home] += edge_calls
            if direct[func] is not None:
                spans.append({
                    "name": _label(func), "parent": _label(caller),
                    "layer": home, "parent_layer": origin,
                    "count": edge_calls, "inclusive_s": edge_inclusive,
                    "self_s": edge_self,
                })
    total = sum(self_s.values())
    share = {layer: (value / total if total else 0.0)
             for layer, value in self_s.items()}
    spans.sort(key=lambda span: (-span["inclusive_s"], span["name"],
                                 span["parent"]))
    return {"self_s": self_s, "share": share, "calls": calls,
            "calls_in": calls_in, "total_s": total, "spans": spans}


#: non-repro frames walked upwards from a built-in before giving up on
#: finding its repro caller (argparse and json go about five deep)
_OWNER_ROUNDS = 16


def _owner_shares(stats: Dict[Function, tuple],
                  direct: Dict[Function, Optional[str]]
                  ) -> Dict[Function, Dict[str, float]]:
    """For every function, the fractions of its self time owed by each layer.

    A repro function owes all of it to its own layer.  Any other function
    splits it over its callers in proportion to the self time each caused
    (call counts when the clock saw none), and a non-repro caller passes its
    part on to *its* callers.  Solved by repeated substitution starting from
    "nothing known"; what is still circulating in a recursion after the
    last round is shared out like the part that has settled, and a function
    no repro frame ever reaches is ``other``.
    """
    owners: Dict[Function, Dict[str, float]] = {}
    loose = []  # (function, [(caller, fraction)]) for non-repro functions
    for func, (_, _, _, _, callers) in stats.items():
        if direct[func] is not None:
            owners[func] = {direct[func]: 1.0}
            continue
        weight_at = 2 if any(edge[2] > 0 for edge in callers.values()) else 0
        total = sum(edge[weight_at] for edge in callers.values())
        if total > 0:
            owners[func] = {}
            loose.append((func, [(caller, edge[weight_at] / total)
                                 for caller, edge in callers.items()]))
        else:
            owners[func] = {"other": 1.0}
    for _ in range(_OWNER_ROUNDS):
        updated = {}
        for func, parts in loose:
            shares: Dict[str, float] = {}
            for caller, fraction in parts:
                above = owners.get(caller)
                if above is None:  # a caller the profiler has no entry for
                    above = {direct[caller] or "other": 1.0}
                for layer, part in above.items():
                    shares[layer] = shares.get(layer, 0.0) + fraction * part
            updated[func] = shares
        owners.update(updated)
    for func, _ in loose:
        settled = sum(owners[func].values())
        owners[func] = ({layer: part / settled
                         for layer, part in owners[func].items()}
                        if settled > 0 else {"other": 1.0})
    return owners


def _label(func: Function) -> str:
    filename, line, name = func
    if filename == "~":  # pstats' marker for built-ins
        return name
    return f"{os.path.basename(filename)}:{line}({name})"
