"""Offline invariant checking: ``python -m repro.verify trace.jsonl``.

Feeds a JSONL trace dump (see :func:`repro.sim.trace.dump_jsonl`) through
the same monitors that run online, and prints a per-monitor verdict.  Exit
status is non-zero when any invariant is violated.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.sim.trace import SCHEMAS, TraceFormatError, iter_jsonl
from repro.verify.bus import MonitorBus
from repro.verify.monitors import all_monitors

__all__ = ["main"]


def check_trace(path: str, stop_early: bool = True) -> MonitorBus:
    """Run every monitor over the records of ``path``; returns the bus.

    A record of a declared category must carry its declared fields with
    their declared types: a malformed line raises
    :class:`~repro.sim.trace.TraceFormatError` naming it, rather than
    reaching a monitor as a None or a wrongly typed value.
    """
    bus = MonitorBus(all_monitors(), raise_on_violation=False)
    stopped = False
    for number, record in iter_jsonl(path):
        schema = SCHEMAS.get(record.category)
        problem = schema and schema.problem(record.as_dict())
        if problem:
            raise TraceFormatError(f"{path}:{number}: {problem}")
        bus.dispatch(record)
        if stop_early and bus.violations:
            stopped = True
            break
    if not stopped:
        bus.finish()
    return bus


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Check protocol invariants of dumped simulation traces.",
    )
    parser.add_argument("traces", nargs="+", metavar="trace.jsonl",
                        help="JSONL trace dump(s) to check")
    parser.add_argument("-k", "--keep-going", action="store_true",
                        help="collect every violation instead of stopping "
                             "at the first one")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print failing traces")
    args = parser.parse_args(argv)

    failed = 0
    for path in args.traces:
        try:
            bus = check_trace(path, stop_early=not args.keep_going)
        except OSError as err:
            print(f"{path}: error: {err.strerror or err}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as err:
            print(f"{path}: error: not a JSONL trace dump ({err})",
                  file=sys.stderr)
            return 2
        except TraceFormatError as err:
            print(err, file=sys.stderr)
            return 2
        if bus.ok:
            if not args.quiet:
                checked = sum(m.checked for m in bus.monitors)
                print(f"{path}: OK ({checked} checks, "
                      f"{len(bus.monitors)} monitors)")
            continue
        failed += 1
        print(f"{path}: FAIL ({len(bus.violations)} violation(s))")
        for verdict_name, verdict in bus.verdicts().items():
            if verdict["ok"]:
                continue
            for message in verdict["violations"]:
                print(f"  [{verdict_name}] {message}")
    return 1 if failed else 0
