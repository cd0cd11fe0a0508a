"""Command-line entry for the observability layer.

Usage::

    # run one configuration with full tracing + metrics, dump the trace
    python -m repro.obs record --protocol pcl -o run.jsonl

    # export a recorded trace as a Chrome-trace / Perfetto timeline
    python -m repro.obs timeline run.jsonl -o run.trace.json

    # check a timeline document against the trace_events shape rules
    python -m repro.obs validate run.trace.json

``record`` writes two files: the raw trace (JSONL, one record per line,
re-loadable with :func:`repro.sim.trace.load_jsonl`) and — unless
``--no-metrics`` — a ``<out>.metrics.json`` snapshot of every counter,
gauge and histogram the run accumulated.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.apps import BENCHMARKS
    from repro.harness.config import get_profile
    from repro.harness.runner import execute
    from repro.sim import Tracer
    from repro.sim.trace import dump_jsonl

    bench = BENCHMARKS[args.bench](klass=args.klass)
    profile = get_profile(args.profile, seed=args.seed)
    tracer = Tracer(enabled=True)
    result = execute(
        bench,
        args.n_procs,
        args.protocol,
        profile,
        channel=args.channel,
        period=args.period,
        procs_per_node=args.procs_per_node,
        name=f"obs-{args.protocol or 'none'}",
        metrics=not args.no_metrics,
        tracer=tracer,
    )
    count = dump_jsonl(tracer.records, args.out)
    print(f"recorded {count} trace records -> {args.out}")
    print(f"completion={result.completion:.3f}s waves={result.waves} "
          f"monitors_ok={result.monitors_ok}")
    if not args.no_metrics:
        snapshot = result.meta.get("metrics", {})
        metrics_path = args.metrics_out or f"{args.out}.metrics.json"
        with open(metrics_path, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics snapshot -> {metrics_path}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs.timeline import export_timeline

    doc = export_timeline(args.trace, args.out)
    print(f"{len(doc['traceEvents'])} trace events -> {args.out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.obs.timeline import validate_trace_events

    with open(args.trace) as handle:
        doc = json.load(handle)
    problems = validate_trace_events(doc)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    print(f"{args.trace}: ok ({len(doc.get('traceEvents', []))} events)")
    return 0


def main(argv=None) -> int:
    from repro.apps import BENCHMARKS
    from repro.ft import PROTOCOLS
    from repro.harness.config import cli_int

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Record, export and validate simulation timelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run one configuration with tracing + metrics on")
    record.add_argument("--bench", default="bt", choices=sorted(BENCHMARKS),
                        help="benchmark (default: bt)")
    record.add_argument("--klass", default="B", help="NAS class (default: B)")
    record.add_argument("--protocol", default="pcl",
                        choices=(*PROTOCOLS, "none"),
                        help="checkpoint protocol (default: pcl)")
    record.add_argument("-n", "--n-procs", type=cli_int(1), default=9,
                        help="process count (BT needs a perfect square)")
    record.add_argument("--channel", default=None,
                        help="channel kind (default: the protocol's)")
    record.add_argument("--period", type=float, default=30.0,
                        help="checkpoint period, paper seconds")
    record.add_argument("--procs-per-node", type=cli_int(1), default=2)
    record.add_argument("--profile", default="smoke")
    record.add_argument("--seed", type=cli_int(0), default=0)
    record.add_argument("-o", "--out", default="run.jsonl",
                        help="trace output path (JSONL)")
    record.add_argument("--metrics-out", default=None,
                        help="metrics snapshot path "
                             "(default: <out>.metrics.json)")
    record.add_argument("--no-metrics", action="store_true")
    record.set_defaults(func=_cmd_record)

    timeline = sub.add_parser(
        "timeline", help="export a recorded trace as a Perfetto timeline")
    timeline.add_argument("trace", help="trace JSONL from 'record'")
    timeline.add_argument("-o", "--out", default=None,
                          help="output path (default: <trace>.trace.json)")
    timeline.set_defaults(func=_cmd_timeline)

    validate = sub.add_parser(
        "validate", help="check a timeline JSON against shape rules")
    validate.add_argument("trace", help="trace_events JSON from 'timeline'")
    validate.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    if args.command == "record" and args.protocol == "none":
        args.protocol = None
    if args.command == "timeline" and args.out is None:
        args.out = f"{args.trace}.trace.json"
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
