"""What every run's transport promises, with or without a checkpoint
protocol: FIFO connections and a launcher inside its descriptor budget."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.verify.base import Monitor, on

__all__ = ["FifoDeliveryMonitor", "FdBudgetMonitor"]


class FifoDeliveryMonitor(Monitor):
    """Connections deliver FIFO: per pipe and per (receiver, source)."""

    name = "fifo-delivery"

    def __init__(self) -> None:
        super().__init__()
        #: pipe name -> highest id accepted for send, and highest delivered
        self._sent: Dict[str, int] = {}
        self._delivered: Dict[str, int] = {}
        #: (job, rank, src) -> last seq seen arriving at the channel
        self._arrivals: Dict[Tuple[str, int, int], int] = {}
        #: (job, rank, src) -> last seq handed to the matching engine
        self._deliveries: Dict[Tuple[str, int, int], int] = {}

    @on("net.sent")
    def on_net_sent(self, time, pipe, msg, nbytes) -> None:
        self._sent[pipe] = max(msg, self._sent.get(pipe, 0))

    @on("net.delivered")
    def on_net_delivered(self, time, pipe, msg) -> None:
        sent = self._sent.get(pipe, 0)
        delivered = self._delivered.get(pipe, 0)
        if msg <= delivered:
            self.violation(
                time,
                f"pipe {pipe}: message #{msg} delivered after #{delivered} "
                "— out-of-order (or duplicate) delivery on a FIFO pipe",
            )
        if msg > sent:
            self.violation(
                time,
                f"pipe {pipe}: message #{msg} delivered but only #{sent} "
                "was ever sent",
            )
        self._delivered[pipe] = max(delivered, msg)

    @on("mpi.recv")
    def on_mpi_recv(self, time, job, rank, src, seq) -> None:
        key = (job, rank, src)
        last = self._arrivals.get(key, 0)
        if seq <= last:
            self.violation(
                time,
                f"rank {rank} received packet #{seq} from rank {src} "
                f"after #{last} (job {job}) — per-connection FIFO "
                "arrival order broken",
            )
        self._arrivals[key] = max(last, seq)

    @on("mpi.deliver")
    def on_mpi_deliver(self, time, job, rank, src, seq) -> None:
        key = (job, rank, src)
        last = self._deliveries.get(key, 0)
        if seq <= last:
            self.violation(
                time,
                f"rank {rank} delivered packet #{seq} from rank {src} "
                f"to matching after #{last} (job {job}) — per-channel "
                "FIFO delivery order broken (delayed queue released out "
                "of order?)",
            )
        self._deliveries[key] = max(last, seq)


class FdBudgetMonitor(Monitor):
    """The dispatcher's select() budget: 3 sockets/process, 1024 fds."""

    name = "fd-budget"

    @on("runtime.validated")
    def on_runtime_validated(self, time, n_ranks, launcher, fd_limit=None,
                             sockets_per_process=None, reserved_fds=None,
                             max_processes=None) -> None:
        if fd_limit is None or sockets_per_process is None:
            return  # launcher without an fd budget (InstantLauncher, FTPM)
        n_ranks = n_ranks or 0
        reserved = reserved_fds or 0
        fds = reserved + n_ranks * sockets_per_process
        if fds > fd_limit:
            self.violation(
                time,
                f"{launcher} launched {n_ranks} processes "
                f"needing {fds} descriptors ({sockets_per_process}/process + "
                f"{reserved} reserved), over the select() fd limit of "
                f"{fd_limit} — the run would fail on real MPICH-V hardware",
            )
        if max_processes is not None and n_ranks > max_processes:
            self.violation(
                time,
                f"{launcher} admitted {n_ranks} processes past "
                f"its modeled maximum of {max_processes}",
            )
