"""Chaos campaign CLI.

Standard CI smoke sweep (48 scenarios, exits 1 on any bad verdict)::

    python -m repro.chaos --smoke --out results/chaos

One flag per entry of :data:`repro.chaos.spec.CAMPAIGNS` (``--smoke`` is
the default): ``--storage`` runs only the 12 storage-resilience scenarios
(replicated servers, server kills, image corruption), ``--dcl`` the 12
message-drain (Dcl) scenarios, ``--recovery`` the 30 cascading-failure
ones; ``--list`` prints the scenario labels without running anything;
``--filter`` restricts the campaign to labels containing a substring.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from typing import List, Optional

from repro.chaos.report import write_report
from repro.chaos.runner import run_campaign
from repro.chaos.spec import CAMPAIGNS, RECOVERY_POLICIES
from repro.harness.config import cli_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Fault-injection campaigns over the checkpointing "
                    "harness (verdicts: completed/recovered/"
                    "recovered-degraded pass; wrong-result/deadlock/"
                    "livelock/hang/crash/storage-unrecoverable fail, "
                    "unless the scenario expects them).",
    )
    selection = parser.add_mutually_exclusive_group()
    default = next(iter(CAMPAIGNS))
    for name, build in CAMPAIGNS.items():
        selection.add_argument(
            f"--{name}", dest="campaign", action="store_const", const=name,
            help=build.__doc__.splitlines()[0]
            + (" (the default)" if name == default else ""))
    parser.set_defaults(campaign=default)
    parser.add_argument("--policy", default=None, choices=RECOVERY_POLICIES,
                        help="only run scenarios using this recovery "
                             "policy (restart scenarios carry no label "
                             "marker, so use this rather than --filter)")
    parser.add_argument("--seed", type=cli_int(0), default=0,
                        help="root seed for every scenario (default 0)")
    parser.add_argument("--out", default="results/chaos",
                        help="directory for the JSON + markdown report "
                             "(default results/chaos)")
    parser.add_argument("--filter", default=None, metavar="SUBSTR",
                        help="only run scenarios whose label contains this")
    parser.add_argument("--list", action="store_true",
                        help="print scenario labels and exit")
    parser.add_argument("--no-monitors", action="store_true",
                        help="skip the online invariant monitors "
                             "(faster, weaker wrong-result detection)")
    parser.add_argument("--jobs", type=cli_int(1), default=None, metavar="N",
                        help="run scenarios on an N-worker process pool "
                             "(default: the REPRO_JOBS environment "
                             "variable, else sequential); the report is "
                             "identical either way")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # what the imports built lives as long as the process: freeze it once,
    # so the collection before each run only walks the runs' objects
    gc.collect()
    gc.freeze()
    campaign = CAMPAIGNS[args.campaign](args.seed)
    if args.filter:
        campaign = campaign.filtered(args.filter)
    if args.policy:
        campaign = campaign.with_policy(args.policy)
    if args.list:
        for scenario in campaign:
            print(scenario.label)
        return 0
    if not len(campaign):
        print("no scenarios selected", file=sys.stderr)
        return 2

    started = time.monotonic()

    def progress(result):
        mark = "ok " if result.ok else "BAD"
        print(f"  [{mark}] {result.scenario.label}: {result.verdict}"
              + (f" ({result.detail})" if result.detail else ""))

    print(f"chaos campaign {campaign.name!r}: {len(campaign)} scenarios")
    outcome = run_campaign(campaign, monitors=not args.no_monitors,
                           progress=progress, jobs=args.jobs)
    json_path, md_path = write_report(outcome, args.out)
    elapsed = time.monotonic() - started
    counts = ", ".join(f"{v}={n}" for v, n in outcome.counts().items())
    print(f"done in {elapsed:.1f}s: {counts}")
    print(f"report: {json_path} / {md_path}")
    if not outcome.ok:
        for failure in outcome.failures():
            print(f"FAILED {failure.scenario.label}: {failure.verdict} "
                  f"{failure.detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
