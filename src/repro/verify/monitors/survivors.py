"""Survivor recovery (:mod:`repro.ft.membership`, the place steps of
:mod:`repro.ft.spare` and :mod:`repro.ft.shrink`, docs/RECOVERY.md): act on an
agreed failed set, restore the right image.  The paper's full restart has no
agreement round and emits none of these records."""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.ft.recovery import SURVIVOR_POLICIES
from repro.verify.base import Monitor, on

__all__ = ["MembershipAgreementMonitor", "SpareConsistencyMonitor"]


class MembershipAgreementMonitor(Monitor):
    """Survivor recovery acts on an *agreed* failed set, never a partial
    view.

    The membership tracker proposes a failed set per ballot
    (``ft.membership_round``), every survivor commits it
    (``ft.membership_commit``), and only then does the recovery act
    (``ft.recovery_begin``).  The checkable contract:

    1. a commit names a ballot that was proposed, with exactly the
       proposed failed set;
    2. no rank of the failed set commits (the dead don't vote);
    3. no rank commits the same ballot twice;
    4. when recovery begins on a ballot, its committers are exactly the
       survivors (every rank of the job except the agreed failed set).
    """

    name = "membership-agreement"
    recovery_policies = SURVIVOR_POLICIES

    def __init__(self) -> None:
        super().__init__()
        #: ballot -> proposed failed set (last proposal wins: the tracker
        #: re-proposes the final view when it force-commits)
        self._proposals: Dict[int, Tuple[int, ...]] = {}
        #: ballot -> ranks that committed it
        self._committers: Dict[int, Set[int]] = {}

    @on("ft.membership_round")
    def on_ft_membership_round(self, time, ballot, coordinator, failed,
                               survivors) -> None:
        self._proposals[ballot] = tuple(failed)

    @on("ft.membership_commit")
    def on_ft_membership_commit(self, time, rank, ballot, failed) -> None:
        failed = tuple(failed)
        proposed = self._proposals.get(ballot)
        if proposed is None:
            self.violation(
                time,
                f"rank {rank} committed ballot {ballot} which was never "
                "proposed — commit without an agreement round",
            )
        elif failed != proposed:
            self.violation(
                time,
                f"rank {rank} committed failed set {failed} for ballot "
                f"{ballot} but the proposal was {proposed} — survivors "
                "disagree on who failed",
            )
        if rank in failed:
            self.violation(
                time,
                f"rank {rank} committed ballot {ballot} although it is "
                "in the failed set — the dead don't vote",
            )
        committers = self._committers.setdefault(ballot, set())
        if rank in committers:
            self.violation(
                time,
                f"rank {rank} committed ballot {ballot} twice",
            )
        committers.add(rank)

    @on("ft.recovery_begin")
    def on_ft_recovery_begin(self, time, policy, ballot, failed, n_ranks,
                             committed, incarnation) -> None:
        expected = set(range(n_ranks)) - set(failed)
        committers = self._committers.get(ballot, set())
        if committers != expected:
            missing = sorted(expected - committers)
            extra = sorted(committers - expected)
            self.violation(
                time,
                f"recovery began on ballot {ballot} but its committers "
                f"are not exactly the survivors — missing {missing}, "
                f"unexpected {extra}",
            )
        # the ballot is consumed; later recoveries use fresh ballots
        self._proposals.pop(ballot, None)
        self._committers.pop(ballot, None)


class SpareConsistencyMonitor(Monitor):
    """A promoted spare restores the failed rank's newest committed image.

    ``ft.recovery_begin`` (policy "spare") opens a recovery and pins the
    wave its restores must come from — the newest committed wave at
    agreement time; a legitimate ``ft.wave_fallback`` unpins it (an older
    retained wave will be restored instead).  Against that the monitor
    checks every ``ft.promoted`` names a rank of the agreed failed set,
    every ``ft.spare_restore`` happens inside an open spare recovery at
    the pinned wave, and ``ft.restarted`` closes the recovery.

    A kill landing *inside* the open recovery (an ``ft.failure`` record
    between ``ft.recovery_begin`` and ``ft.restarted``) is a cascading
    casualty the agreement round could not have seen: a task kill adds
    its rank to the allowed set, a node kill — whose record names only
    the machine, not the ranks on it — unpins the rank check for the rest
    of this recovery (the retry loop may then promote any casualty).
    """

    name = "spare-consistency"
    recovery_policies = SURVIVOR_POLICIES

    def __init__(self) -> None:
        super().__init__()
        self._close()

    def _close(self) -> None:
        self._open = False
        #: failed set of the open spare recovery
        self._failed: Set[int] = set()
        #: wave the restores must come from; None = unpinned (nothing
        #: committed, or a fallback re-routed to an older wave)
        self._expected: Optional[int] = None
        #: a node died mid-recovery: its record carries no rank, so any
        #: promotion is legitimate until the recovery closes
        self._cascading = False

    @on("ft.recovery_begin")
    def on_ft_recovery_begin(self, time, policy, ballot, failed, n_ranks,
                             committed, incarnation) -> None:
        self._close()
        if policy == "spare":
            self._open = True
            self._failed = set(failed)
            self._expected = committed if committed > 0 else None

    @on("ft.failure")
    def on_ft_failure(self, time, kind, rank=None, server=None,
                      node=None) -> None:
        if not self._open:
            return
        if kind == "task" and rank is not None:
            self._failed.add(rank)
        elif kind == "node":
            self._cascading = True

    @on("ft.promoted")
    def on_ft_promoted(self, time, rank, node, incarnation) -> None:
        if not self._open or self._cascading:
            return  # degraded/restart paths and cascading casualties
        if rank not in self._failed:
            self.violation(
                time,
                f"rank {rank} was promoted onto a spare although the "
                f"agreed failed set is {sorted(self._failed)} — a "
                "surviving rank lost its engine",
            )

    @on("ft.spare_restore")
    def on_ft_spare_restore(self, time, rank, wave, node) -> None:
        if not self._open:
            self.violation(
                time,
                f"spare restore of wave {wave} outside an open spare "
                "recovery",
            )
        elif self._expected is not None and wave != self._expected:
            self.violation(
                time,
                f"promoted spare restored wave {wave} but the newest "
                f"committed wave at agreement was {self._expected} — "
                "a spare must restore the newest committed image",
            )

    @on("ft.wave_fallback")
    def on_ft_wave_fallback(self, time, wave, incarnation) -> None:
        self._expected = None

    @on("ft.restarted")
    def on_ft_restarted(self, time, wave, incarnation) -> None:
        self._close()
