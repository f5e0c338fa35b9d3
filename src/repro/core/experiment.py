"""Experiment configuration and runner.

Reproduces the paper's measurement setups:

* **Placement** (paper Figure 2): the master and the metadata server
  share one node; workers and data servers share nodes ("overlap to the
  maximum degree") in the COLOCATED placement, or run on disjoint nodes
  in DEDICATED.
* **Variants** (Section 3): ORIGINAL (local-disk conventional I/O),
  PVFS, CEFT_PVFS (64 KB stripes in both parallel file systems).
* **Hot spots** (Section 4.5 / Figure 8): ``n_stressed_disks`` nodes run
  the synchronous-append disk stressor for the whole experiment.

The search phase starts with cold caches and pre-placed fragments; the
original variant's copy step is accounted out-of-band because the paper
subtracts measured copy time from its totals — either analytically
(:func:`repro.parallel.mpiblast.estimate_copy_time`) or, with
``simulate_copy=True``, by simulating the contended NFS staging phase
(:func:`measure_copy_phase`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.cluster import Cluster, disk_stressor
from repro.cluster.params import NodeParams, prairiefire_params
from repro.core.calibration import BlastCostModel, default_cost_model
from repro.fs.ceft import CEFT, WriteProtocol
from repro.fs.localfs import LocalFS
from repro.fs.pvfs import PVFS
from repro.parallel.ioadapters import LocalIO, ParallelIO, WorkerIO
from repro.parallel.iomodel import FragmentSpec
from repro.parallel.master import JobResult
from repro.parallel.mpiblast import estimate_copy_time, run_parallel_blast
from repro.trace import TraceCollector
from repro.workloads.synthdb import NT_DATABASE_SPEC, DatabaseSpec

KiB = 1 << 10


class Variant(enum.Enum):
    """The three I/O schemes of the paper."""

    ORIGINAL = "original"
    PVFS = "pvfs"
    CEFT_PVFS = "ceft-pvfs"


class Placement(enum.Enum):
    """Node-role placement."""

    #: Workers and data servers share nodes (paper Figures 2, 5, 9).
    COLOCATED = "colocated"
    #: Workers and data servers on disjoint nodes (paper Figure 7).
    DEDICATED = "dedicated"


class Parallelization(enum.Enum):
    """The two parallel-BLAST approaches of the paper's Section 2.2."""

    #: mpiBLAST style: the database is split, the query replicated.
    DATABASE_SEGMENTATION = "database-segmentation"
    #: WU-BLAST style: the query is split, the database replicated —
    #: every worker reads the *whole* database and still pays the
    #: query-independent share of the scan cost.
    QUERY_SEGMENTATION = "query-segmentation"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one measurement point."""

    variant: Variant = Variant.ORIGINAL
    n_workers: int = 8
    #: Data servers (PVFS); for CEFT this is the total across both
    #: groups and must be even (4 mirroring 4 == 8).
    n_servers: int = 8
    placement: Placement = Placement.COLOCATED
    db: DatabaseSpec = NT_DATABASE_SPEC
    #: Fragments to segment the database into (defaults to n_workers).
    n_fragments: Optional[int] = None
    stripe_size: int = 64 * KiB
    #: How many disks to stress with the Figure 8 program.  For the
    #: parallel file systems the first data-server nodes are stressed;
    #: for ORIGINAL the first worker nodes (their local disks).
    n_stressed_disks: int = 0
    cost: BlastCostModel = field(default_factory=default_cost_model)
    node_params: NodeParams = field(default_factory=prairiefire_params)
    seed: int = 0
    #: CEFT-specific knobs.
    ceft_protocol: WriteProtocol = WriteProtocol.CLIENT_ASYNC
    ceft_double_parallelism: bool = True
    ceft_skip_hot: bool = True
    ceft_load_period: float = 5.0
    #: Collect application-level I/O traces.
    trace: bool = False
    #: Database vs query segmentation (paper Section 2.2).
    parallelization: Parallelization = Parallelization.DATABASE_SEGMENTATION
    #: For ORIGINAL: simulate the NFS->local-disk staging phase (in its
    #: own simulation, as the copies happened before the timed runs)
    #: instead of the analytic single-stream estimate.
    simulate_copy: bool = False
    #: Consecutive queries against the same database (page caches stay
    #: warm between them — see bench_ext_warmcache.py).  The paper
    #: measures single queries.
    n_queries: int = 1
    time_limit: float = 1e9

    def scaled(self, factor: float) -> "ExperimentConfig":
        """Same experiment on a proportionally smaller database (used by
        tests; compute/I-O ratios are preserved)."""
        return replace(self, db=self.db.scaled(factor))

    @property
    def fragments(self) -> List[FragmentSpec]:
        if self.parallelization is Parallelization.QUERY_SEGMENTATION:
            # One task per worker, all over the same whole-database
            # files.  Each worker still pays the query-independent
            # share of the scan plus its 1/w slice of the rest.
            w = self.n_workers
            alpha = self.cost.query_indep_fraction
            effective = int(self.db.total_residues * (alpha + (1 - alpha) / w))
            return [FragmentSpec(i, self.db.total_bytes, effective, file_id=0)
                    for i in range(w)]
        n = self.n_fragments or self.n_workers
        byte_sizes = self.db.fragment_bytes(n)
        residue_sizes = self.db.fragment_residues(n)
        return [FragmentSpec(i, byte_sizes[i], residue_sizes[i])
                for i in range(n)]


@dataclass
class ExperimentResult:
    """One measurement point."""

    config: ExperimentConfig
    #: Search-phase execution time (copy subtracted for ORIGINAL, as in
    #: the paper's methodology).  With ``n_queries > 1`` this is the
    #: first (cache-cold) query's time.
    execution_time: float
    #: Copy time per worker (ORIGINAL only; 0 otherwise).
    copy_time: float
    job: JobResult
    tracer: Optional[TraceCollector] = None
    #: Per-query makespans when ``n_queries > 1``.
    query_times: list = field(default_factory=list)
    #: Events the job's simulator fired (``sim.check.events_fired``;
    #: the ORIGINAL copy phase runs on a simulator of its own).
    events_fired: int = 0

    @property
    def io_fraction(self) -> float:
        return self.job.io_fraction()


def _build_roles(config: ExperimentConfig, cluster_nodes) -> Tuple[list, list]:
    """Return (worker nodes, server nodes) per the placement rule."""
    w, s = config.n_workers, config.n_servers
    if config.placement is Placement.COLOCATED:
        workers = cluster_nodes[1:1 + w]
        servers = cluster_nodes[1:1 + s]
    else:
        workers = cluster_nodes[1:1 + w]
        servers = cluster_nodes[1 + w:1 + w + s]
    return workers, servers


def _cluster_size(config: ExperimentConfig) -> int:
    w, s = config.n_workers, config.n_servers
    if config.variant is Variant.ORIGINAL:
        return 1 + w
    if config.placement is Placement.COLOCATED:
        return 1 + max(w, s)
    return 1 + w + s


def measure_copy_phase(config: ExperimentConfig) -> float:
    """Simulate the original BLAST's staging step: every worker copies
    its fragments from one NFS server to its local disk, concurrently.

    Returns the mean per-worker copy time (what the paper subtracts).
    The copies contend on the NFS server's single disk and NIC, so this
    is usually far slower than the per-worker analytic estimate.
    """
    from repro.fs.nfs import NFS
    from repro.parallel.iomodel import fragment_files

    cluster = Cluster(n_nodes=config.n_workers + 1,
                      params=config.node_params, seed=config.seed)
    sim = cluster.sim
    nfs = NFS(cluster[0])
    fragments = config.fragments
    for spec in fragments:
        for name, size in fragment_files(spec).items():
            nfs.populate(name, size)

    durations = []

    def copier(node, specs):
        local = LocalFS(node)
        client = nfs.client(node)
        t0 = sim.now
        for spec in specs:
            for name, _size in fragment_files(spec).items():
                yield from client.copy_to_local(local, name)
        durations.append(sim.now - t0)

    # Static assignment: fragment i to worker i (round-robin when more
    # fragments than workers).
    assignment = {i: [] for i in range(config.n_workers)}
    for k, spec in enumerate(fragments):
        assignment[k % config.n_workers].append(spec)
    procs = [sim.process(copier(cluster[i + 1], specs))
             for i, specs in assignment.items() if specs]
    sim.run_until_complete(*procs, limit=config.time_limit)
    return sum(durations) / len(durations) if durations else 0.0


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build the cluster, run the job, return the measurement."""
    if config.variant is Variant.CEFT_PVFS and config.n_servers % 2:
        raise ValueError("CEFT-PVFS needs an even total server count")
    if config.n_workers < 1:
        raise ValueError("need at least one worker")

    cluster = Cluster(n_nodes=_cluster_size(config),
                      params=config.node_params, seed=config.seed)
    sim = cluster.sim
    master = cluster[0]
    workers, servers = _build_roles(config, list(cluster))
    tracer = TraceCollector() if config.trace else None

    # --- file system + worker adapters -------------------------------
    ios: List[WorkerIO] = []
    fs = None
    if config.variant is Variant.ORIGINAL:
        for node in workers:
            local = LocalFS(node)
            ios.append(LocalIO(local, node))
        stressed_nodes = workers[:config.n_stressed_disks]
    elif config.variant is Variant.PVFS:
        fs = PVFS(master, servers, stripe_size=config.stripe_size)
        ios = [ParallelIO(fs.client(node)) for node in workers]
        stressed_nodes = servers[:config.n_stressed_disks]
    else:
        group = config.n_servers // 2
        fs = CEFT(master, servers[:group], servers[group:],
                  stripe_size=config.stripe_size,
                  protocol=config.ceft_protocol,
                  double_parallelism=config.ceft_double_parallelism,
                  skip_hot=config.ceft_skip_hot,
                  load_period=config.ceft_load_period)
        ios = [ParallelIO(fs.client(node)) for node in workers]
        stressed_nodes = servers[:group][:config.n_stressed_disks]

    # --- background load ----------------------------------------------
    for node in stressed_nodes:
        sim.process(disk_stressor(node), name=f"stressor@{node.name}", daemon=True)

    # --- run ------------------------------------------------------------
    if config.n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    query_times = []
    job = None
    for _q in range(config.n_queries):
        job = run_parallel_blast(master, workers, ios, config.fragments,
                                 config.cost, time_limit=config.time_limit,
                                 tracer=tracer)
        query_times.append(job.makespan)
    if fs is not None and hasattr(fs, "stop_monitoring"):
        fs.stop_monitoring()

    copy_time = 0.0
    if config.variant is Variant.ORIGINAL and config.simulate_copy:
        copy_time = measure_copy_phase(config)
    elif config.variant is Variant.ORIGINAL:
        if config.parallelization is Parallelization.QUERY_SEGMENTATION:
            # Query segmentation replicates the whole database.
            per_worker_bytes = float(config.db.total_bytes)
        else:
            per_worker_bytes = config.db.total_bytes / config.n_workers
        copy_time = estimate_copy_time(
            int(per_worker_bytes),
            config.node_params.network.bandwidth,
            config.node_params.disk.write_bandwidth)

    return ExperimentResult(
        config=config,
        execution_time=query_times[0],
        copy_time=copy_time,
        job=job,
        tracer=tracer,
        query_times=query_times,
        events_fired=sim.check.events_fired,
    )
