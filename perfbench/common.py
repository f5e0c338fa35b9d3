"""What a workload hands back to the runner, the run context, and the
machine-speed yardstick."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from spans import Tracer

#: Packages whose share of profiled self time the traced run reports
#: as ``<package>.self_frac``.
PROFILED_PACKAGES = ("sim", "cluster", "fs", "parallel", "trace")


@dataclass
class Outcome:
    """One run of one workload."""

    #: Wall time of every completed request of the timed loop, seconds.
    latencies: List[float]
    #: The machine-speed factor of each of those requests (see
    #: :class:`Yardstick`).
    speeds: List[float]
    #: Queries each of those requests answered.
    queries: List[int]
    #: Consecutive requests of equal work per throughput window.
    window: int
    #: Wall time of the whole timed loop, seconds.
    loop_s: float
    #: Seconds of each set-up (input on disk -> first answer), and the
    #: machine-speed factor measured around it.
    setups: List[float]
    setup_speeds: List[float]
    #: Requests sent (set-up first requests included) and how many of
    #: them failed: raised, served by the serial fallback, or wrong.
    attempted: int
    failed: int
    #: Answers that differ from their reference.
    mismatches: int
    #: Peak RSS when the served requests were done (before the
    #: benchmark computes references), see :func:`peak_rss_mb`.
    rss_mb: float
    notes: List[str] = field(default_factory=list)
    #: Per-layer metrics (traced run only).
    layers: Dict[str, float] = field(default_factory=dict)


#: Seconds :func:`yardstick_s` takes at the reference speed: its median
#: on the 2-core Xeon the benchmark was defined on.
YARDSTICK_REF_S = 0.0120


def yardstick_s() -> float:
    """Wall seconds of a fixed pure-Python loop that calls no program
    code, so it measures only how fast the machine runs right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    return time.perf_counter() - t0


class Yardstick:
    """Machine-speed factors for a sequence of requests.

    The host's speed for the same code swings by up to 1.6x over
    seconds to minutes (other tenants, frequency changes), far beyond
    any bound a regression gate could use.  Running the yardstick
    between requests and scaling each request's wall time by
    ``YARDSTICK_REF_S / yardstick`` (averaged over the samples just
    before and after it) reports the time the request would take at the
    reference speed.  The raw wall times are printed beside them.
    """

    def __init__(self):
        self.samples = [yardstick_s()]

    def tick(self) -> None:
        """Sample after a request; call once per request."""
        self.samples.append(yardstick_s())

    def factor(self, i: int) -> float:
        """Speed factor of the *i*-th request since construction."""
        return 2 * YARDSTICK_REF_S / (self.samples[i] + self.samples[i + 1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


class Context:
    """Settings of one run plus the bookkeeping workloads share."""

    def __init__(self, work: str, seed: int, seconds: float, trace: bool):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(trace)
        #: Every process the run started (workers, node agents); the
        #: run fails if any of them is still alive at the end.
        self.pids = set()

    def note_pids(self, pids: Iterable[int]) -> None:
        self.pids.update(int(p) for p in pids if p)

    @staticmethod
    def self_fracs(profile) -> Dict[str, float]:
        """Share of profiled self time (cProfile ``tottime``) spent in
        each of :data:`PROFILED_PACKAGES`."""
        profile.create_stats()
        spent = {pkg: 0.0 for pkg in PROFILED_PACKAGES}
        total = 0.0
        for (filename, _line, _func), row in profile.stats.items():
            tottime = row[2]
            total += tottime
            parts = filename.split(os.sep)
            if len(parts) >= 3 and parts[-3] == "repro" \
                    and parts[-2] in spent:
                spent[parts[-2]] += tottime
        return {f"{pkg}.self_frac": (t / total if total else 0.0)
                for pkg, t in spent.items()}
