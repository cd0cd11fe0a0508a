"""ULFM-style failure-set membership agreement.

Survivor-based recovery (``spare``/``shrink`` policies) cannot act the
instant one socket closes: different survivors notice different closures at
different times, and a cascading failure can widen the failed set while the
first recovery is still being decided.  Acting on a partial view would let
two survivors recover toward two different worlds.

:class:`MembershipTracker` reproduces the shape of ULFM's
``MPIX_Comm_agree`` on top of the simulator's socket-closure detection:

1. **Suspicion** — every ``job.socket_closed`` signal lands in
   :meth:`observe`; a suspicion window (a small multiple of the fabric
   latency) lets near-simultaneous closures coalesce into one round.
2. **Ballots** — the lowest-ranked survivor proposes the failed set it can
   prove (ranks whose channel is down or whose machine is dead); one round
   trip later every survivor acknowledges.  If the view changed while the
   ballot was in flight (a cascading kill), the ballot fails and a new one
   starts with a higher number.
3. **Commit** — when a ballot completes with an unchanged view, every
   survivor commits the same failed set (``ft.membership_commit`` per rank);
   only then may the recovery policy act.  After ``max_ballots`` unstable
   rounds the current view is committed anyway — agreement must terminate,
   and the recovery path re-checks liveness before relaunching.

The tracker is deterministic: rounds are timed off the fabric latency, no
randomness, and the commit records carry the ballot number so the
``membership-agreement`` monitor can check that no survivor ever acts on a
set that differs from what the round proposed.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.sim.trace import declare

__all__ = ["MembershipTracker"]

#: one propose + one acknowledge traversal per ballot
_BALLOT_ROUND_TRIPS = 2.0


declare("ft.suspect", __name__, rank=int, peer=int)
declare("ft.membership_round", __name__, ballot=int, coordinator=int,
        failed=tuple, survivors=int)
declare("ft.membership_commit", __name__, rank=int, ballot=int, failed=tuple)


class MembershipTracker:
    """Drives one failure-set agreement round among the survivors."""

    def __init__(
        self,
        sim: "Simulator",
        job: "MPIJob",
        latency: float,
        ballot_start: int = 1,
        max_ballots: int = 4,
        suspicion_window: float = None,
    ) -> None:
        self.sim = sim
        self.job = job
        self.latency = latency
        self.ballot_start = ballot_start
        self.max_ballots = max_ballots
        #: coalescing delay before the first ballot; defaults to one round
        #: trip so simultaneous socket closures land in the same proposal
        self.suspicion_window = (
            2.0 * latency if suspicion_window is None else suspicion_window
        )
        #: set by observe() while a ballot is in flight; dirties the ballot
        self._dirty = False
        #: ranks reported via socket closures (the suspicion seed; the
        #: proposal itself is re-derived from ground truth each ballot)
        self.suspected: Set[int] = set()
        #: when the suspicion window closed (detect/agree phase boundary)
        self.window_closed_at: float = sim.now

    # -------------------------------------------------------------- suspicion
    def observe(self, rank: int, peer) -> None:
        """Fold one socket-closure signal into the pending agreement."""
        if rank not in self.suspected:
            self.suspected.add(rank)
            self._dirty = True
            trace = self.sim.trace
            if trace.wants("ft.suspect"):
                trace.record(self.sim.now, "ft.suspect", rank=rank,
                             peer=peer if peer is not None else -1)

    def _failed_now(self) -> Tuple[int, ...]:
        """The provable failed set: dead channel or dead machine."""
        job = self.job
        return tuple(sorted(
            rank for rank in range(job.size)
            if job.channels[rank].down or not job.endpoints[rank].node.alive
        ))

    # -------------------------------------------------------------- agreement
    def agree(self):
        """Run ballots until the failed set holds still; returns
        ``(failed, survivors, ballot)``.  Generator — drive as a process."""
        sim = self.sim
        trace = self.sim.trace
        if self.suspicion_window > 0.0:
            yield sim.timeout(self.suspicion_window)
        self.window_closed_at = sim.now
        ballot = self.ballot_start
        last = self.ballot_start + self.max_ballots - 1
        while True:
            failed = self._failed_now()
            survivors = [r for r in range(self.job.size) if r not in failed]
            coordinator = survivors[0] if survivors else -1
            if trace.wants("ft.membership_round"):
                trace.record(sim.now, "ft.membership_round", ballot=ballot,
                             coordinator=coordinator, failed=failed,
                             survivors=len(survivors))
            self._dirty = False
            yield sim.timeout(_BALLOT_ROUND_TRIPS * self.latency)
            stable = not self._dirty and failed == self._failed_now()
            if stable or ballot >= last:
                if not stable:
                    # Forced commit after max_ballots: re-propose the final
                    # view so the committed set matches a round's proposal.
                    ballot += 1
                    failed = self._failed_now()
                    survivors = [r for r in range(self.job.size)
                                 if r not in failed]
                    coordinator = survivors[0] if survivors else -1
                    if trace.wants("ft.membership_round"):
                        trace.record(sim.now, "ft.membership_round",
                                     ballot=ballot, coordinator=coordinator,
                                     failed=failed, survivors=len(survivors))
                if trace.wants("ft.membership_commit"):
                    for rank in survivors:
                        trace.record(sim.now, "ft.membership_commit",
                                     rank=rank, ballot=ballot, failed=failed)
                return failed, survivors, ballot
            ballot += 1
