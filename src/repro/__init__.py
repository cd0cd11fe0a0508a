"""repro — blocking vs. non-blocking coordinated checkpointing for MPI.

A complete reproduction of Buntinas, Coti, Herault, Lemarinier, Pilard,
Rezmerita, Rodriguez, Cappello: "Blocking vs. non-blocking coordinated
checkpointing for large-scale fault tolerant MPI" (SC 2006 / FGCS 2008) on a
deterministic discrete-event simulation of the full system stack.

Subpackages
-----------
``repro.sim``
    Discrete-event kernel: events, generator processes, primitives, RNG,
    tracing.
``repro.net``
    Fluid-flow network model: links, NICs, connections, cluster and
    Grid'5000 topologies, fabric presets.
``repro.mpi``
    Simulated MPI: matching, collectives, restartable rank contexts, and
    the paper's three channels (ft-sock, ch_v, Nemesis).
``repro.ft``
    The protocols under study: Vcl (non-blocking Chandy-Lamport with
    message logging) and Pcl (blocking channel flushing), checkpoint
    servers, failure injection, rollback recovery, interval theory.
``repro.runtime``
    MPICH-V dispatcher, FTPM, ssh spawning, machinefiles, one-call
    deployment (:func:`repro.runtime.build_run`).
``repro.apps``
    NAS Parallel Benchmark skeletons (BT, CG) and synthetic
    kernels.
``repro.tools``
    NetPIPE probe and trace analysis.
``repro.harness``
    Per-figure reproductions with shape checks
    (``python -m repro.harness --list``).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
