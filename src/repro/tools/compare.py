"""Diff two saved JSON documents, or two directories of them, leaf by leaf.

``python -m repro.tools.compare OLD NEW`` takes two files or two
directories, whose ``*.json`` files pair by name: harness results, the
``*_quick.json`` documents and chaos ``--out`` reports alike.  It knows no
schema.  Every differing leaf, every key or list item only one side has and
every file only one side has is a difference, named
``<file>:<dotted.path[i]>`` (a one-sided file with an empty path).

* ``--allow GLOB`` (repeatable) summarises once per glob the differences
  whose name it matches (the first that does): how many paths, how many
  went lower, how many higher, and the largest relative move.  Only ``*``
  (any run of characters) and ``?`` (one) are special, so ``series[*]``
  means what it says;
* ``--rel-tol T`` absorbs every other numeric move within ``T`` relative
  (``|new - old| / |old|``; a move off 0 is never absorbed) and reports,
  per file, how many it absorbed and the largest.

Every other difference is printed as ``name: old -> new``, and any makes
the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["ABSENT", "compare", "diff", "diff_paths", "main"]


#: the side of a difference that has no such key, list item or file
ABSENT = type("Absent", (), {"__repr__": lambda self: "absent"})()


def diff(old: Any, new: Any, name: str = "") -> Iterator[Tuple[str, Any, Any]]:
    """Every difference ``(name, old, new)`` between two JSON values, in
    document order.  Keys join with ``.``, list items are ``[i]``; a leaf
    differs unless both sides are equal values of one type (so ``1`` vs
    ``1.0`` differs)."""
    if isinstance(old, dict) and isinstance(new, dict):
        prefix = f"{name}." if name and not name.endswith(":") else name
        for key, value in old.items():
            yield from diff(value, new.get(key, ABSENT), f"{prefix}{key}")
        for key, value in new.items():
            if key not in old:
                yield f"{prefix}{key}", ABSENT, value
    elif isinstance(old, list) and isinstance(new, list):
        for index in range(max(len(old), len(new))):
            yield from diff(old[index] if index < len(old) else ABSENT,
                            new[index] if index < len(new) else ABSENT,
                            f"{name}[{index}]")
    elif type(old) is not type(new) or old != new:
        yield name, old, new


def _load(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def diff_paths(old: str, new: str) -> Iterator[Tuple[str, Any, Any]]:
    """:func:`diff` two JSON files (named by the new one), or every
    ``*.json`` of two directories, paired by name (a file one side lacks
    is :data:`ABSENT` there)."""
    if os.path.isdir(old):
        pairs = [(entry, os.path.join(old, entry), os.path.join(new, entry))
                 for entry in sorted({entry for directory in (old, new)
                                      for entry in os.listdir(directory)
                                      if entry.endswith(".json")})]
    else:
        pairs = [(os.path.basename(new), old, new)]
    for entry, *sides in pairs:
        yield from diff(*(_load(side) if os.path.exists(side) else ABSENT
                          for side in sides), f"{entry}:")


def relative_move(old: Any, new: Any) -> Optional[float]:
    """``(new - old) / |old|`` for two numbers (bools are not), infinite
    off 0; None where no ratio rates the move."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (old, new)):
        return None
    return (new - old) / abs(old) if old else math.copysign(math.inf, new)


def _show(value: Any, width: int = 72) -> str:
    text = repr(value) if value is ABSENT else json.dumps(value)
    return text if len(text) <= width else text[:width - 3] + "..."


def compare(old: str, new: str, rel_tol: float = 0.0,
            allow: Sequence[str] = ()) -> Tuple[List[str], int]:
    """The report of :func:`diff_paths` under ``--rel-tol`` / ``--allow``,
    as lines, and how many differences neither absorbed nor allowed."""
    lines: List[str] = []
    absorbed: Dict[str, List[Tuple[float, str]]] = {}  # file -> moves
    allowed: Dict[str, List[Optional[float]]] = {glob: [] for glob in allow}
    globs = [(glob, re.compile(re.escape(glob).replace(r"\*", ".*").replace(
        r"\?", ".") + r"\Z", re.DOTALL)) for glob in allow]
    for name, before, after in diff_paths(old, new):
        move = relative_move(before, after)
        glob = next((glob for glob, rx in globs if rx.match(name)), None)
        if glob is not None:
            allowed[glob].append(move)
        elif move is not None and rel_tol and abs(move) <= rel_tol:
            absorbed.setdefault(name.split(":")[0], []).append(
                (abs(move), name))
        else:
            rated = f" ({move:+.3g})" if move is not None and math.isfinite(
                move) else ""
            lines.append(f"{name}: {_show(before)} -> {_show(after)}{rated}")
    unexplained = len(lines)
    for file, moves in sorted(absorbed.items()):
        largest, name = max(moves)
        lines.append(f"{file}: {len(moves)} move(s) within --rel-tol "
                     f"{rel_tol:g}, largest {largest:.3g} at {name}")
    for glob, moves in allowed.items():
        rated = [move for move in moves if move is not None]
        lines.append(
            f"--allow {glob!r}: {len(moves)} path(s), "
            f"{sum(move < 0 for move in rated)} lower, "
            f"{sum(move > 0 for move in rated)} higher, largest relative "
            f"move {max(map(abs, rated), default=0):.3g}")
    lines.append(f"{unexplained} difference(s)" if unexplained
                 else "no differences")
    return lines, unexplained


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rel-tol", type=float, default=0.0,
                        help="absorb numeric moves within this relative tol")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="GLOB", help="summarise matches (repeatable)")
    args = parser.parse_args(argv)
    if not (os.path.exists(args.old) and os.path.exists(args.new)
            and os.path.isdir(args.old) == os.path.isdir(args.new)):
        parser.error("give two existing files or two existing directories")
    lines, unexplained = compare(args.old, args.new, args.rel_tol, args.allow)
    print("\n".join(lines))
    return 1 if unexplained else 0


if __name__ == "__main__":
    raise SystemExit(main())
