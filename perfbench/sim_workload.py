"""The simulator workload: ``sim_paper``.

One request is one ``repro.core.experiment.run_experiment`` call.  A
cycle holds the paper's Figure 5/6/7/9 configurations at scale 0.05
(ORIGINAL/PVFS equal resources, the PVFS server sweep with its
ORIGINAL baselines, PVFS vs CEFT-PVFS on dedicated servers, one
stressed disk), the Figure 4 traced configuration, and the four
configurations pinned in ``benchmarks/results/determinism_golden.json``
at their 0.01 scale.  Each cycle visits them in a seeded random order;
the run measures whole cycles.

Answer checks: the pinned configurations must reproduce their golden
entry bit for bit, and every other configuration must give the same
fingerprint each time it recurs in a run.
"""

from __future__ import annotations

import cProfile
import json
import os
import statistics
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.experiment import (ExperimentConfig, Placement, Variant,
                                   run_experiment)
from repro.sim import engine as sim_engine
from repro.sim.fuzz import job_fingerprint

from common import Outcome, Yardstick, peak_rss_mb

SCALE = 0.05
GOLDEN_SCALE = 0.01
GOLDEN_FILE = os.path.join("benchmarks", "results", "determinism_golden.json")
#: Whole cycles a timed run measures at least: 126 requests, enough
#: for a 90th percentile with ten beyond it, and enough wall time to
#: average out the machine's slow spells.  A traced run measures one
#: plain and one profiled cycle at least.
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2
#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 5


def golden_configs() -> Dict[str, ExperimentConfig]:
    """The pinned points, exactly as the determinism test defines them."""
    return {
        "fig6_pvfs_w4_s4": ExperimentConfig(
            variant=Variant.PVFS, n_workers=4, n_servers=4),
        "fig6_pvfs_w2_s8": ExperimentConfig(
            variant=Variant.PVFS, n_workers=2, n_servers=8),
        "fig7_pvfs_w3_s8_dedicated": ExperimentConfig(
            variant=Variant.PVFS, n_workers=3, n_servers=8,
            placement=Placement.DEDICATED),
        "fig7_ceft_w3_s8_dedicated": ExperimentConfig(
            variant=Variant.CEFT_PVFS, n_workers=3, n_servers=8,
            placement=Placement.DEDICATED),
    }


def paper_configs(seed: int) -> List[Tuple[str, ExperimentConfig]]:
    out = []

    def add(name, scale=SCALE, **kw):
        out.append((name, ExperimentConfig(seed=seed, **kw).scaled(scale)))

    for w in (1, 2, 4, 8):
        for v in (Variant.ORIGINAL, Variant.PVFS):
            add(f"fig5_{v.value}_w{w}", variant=v, n_workers=w, n_servers=w)
    for w in (1, 2, 4):
        add(f"fig6_original_w{w}", variant=Variant.ORIGINAL, n_workers=w)
        for s in (1, 2, 4, 8):
            add(f"fig6_pvfs_w{w}_s{s}", variant=Variant.PVFS, n_workers=w,
                n_servers=s)
    for w in (1, 2, 4, 8):
        for v in (Variant.PVFS, Variant.CEFT_PVFS):
            add(f"fig7_{v.value}_w{w}", variant=v, n_workers=w, n_servers=8,
                placement=Placement.DEDICATED)
    for v in (Variant.ORIGINAL, Variant.PVFS, Variant.CEFT_PVFS):
        for k in (0, 1):
            add(f"fig9_{v.value}_stressed{k}", variant=v, n_workers=8,
                n_servers=8, n_stressed_disks=k, time_limit=1e7)
    add("fig4_trace", scale=GOLDEN_SCALE, variant=Variant.ORIGINAL,
        n_workers=8, n_fragments=8, trace=True)
    return out


def answer(config: ExperimentConfig) -> dict:
    res = run_experiment(config)
    out = {"execution_time": res.execution_time,
           "fingerprint": job_fingerprint(res.job)}
    if res.tracer is not None:
        out["trace_records"] = len(res.tracer.records)
    return out


class StepCounter:
    """Counts ``Simulator.step`` calls by wrapping the method from the
    benchmark side while active (traced run only)."""

    def __init__(self):
        self.events = 0
        self._orig = None

    def __enter__(self):
        self._orig = orig = sim_engine.Simulator.step

        def counting_step(sim):
            self.events += 1
            return orig(sim)

        sim_engine.Simulator.step = counting_step
        return self

    def __exit__(self, *exc):
        sim_engine.Simulator.step = self._orig


def run_sim(ctx, root: str) -> Outcome:
    tracer, traced = ctx.tracer, ctx.trace
    rng = np.random.default_rng(ctx.seed)
    seen: Dict[str, dict] = {}
    attempted = mismatches = 0
    notes: List[str] = []

    def check(name: str, got: dict, golden: Optional[dict]) -> None:
        nonlocal mismatches
        want = golden if golden is not None else seen.setdefault(name, got)
        if got != want:
            mismatches += 1
            ref = "its golden entry" if golden else "its first run"
            notes.append(f"{name}: answer differs from {ref}")

    # -- set-up: golden file on disk -> first answer, repeated -----------
    setups, setup_speeds = [], []
    for i in range(1 if traced else SETUPS):
        probe = Yardstick()
        with tracer.span("setup", request=-1 - i):
            t0 = time.perf_counter()
            with open(os.path.join(root, GOLDEN_FILE)) as f:
                goldens = json.load(f)
            cycle = [(f"golden_{name}", cfg.scaled(GOLDEN_SCALE),
                      goldens[name])
                     for name, cfg in golden_configs().items()]
            cycle += [(name, cfg, None) for name, cfg in
                      paper_configs(ctx.seed)]
            name, cfg, golden = cycle[0]
            with tracer.span("sim.run_experiment"):
                got = answer(cfg)
            setups.append(time.perf_counter() - t0)
        probe.tick()
        setup_speeds.append(probe.factor(0))
        attempted += 1
        check(name, got, golden)

    latencies: List[float] = []
    events: List[int] = []
    profile = cProfile.Profile()
    with StepCounter() if traced else nullcontext() as counter:
        probe = Yardstick()
        t_loop = time.perf_counter()
        last = 0.0
        n_cycles = 0
        min_cycles = MIN_TRACED_CYCLES if traced else MIN_CYCLES
        while n_cycles < min_cycles or \
                time.perf_counter() - t_loop + last <= ctx.seconds:
            t_cycle = time.perf_counter()
            profiling = traced and n_cycles % 2 == 1
            for k in rng.permutation(len(cycle)):
                name, cfg, golden = cycle[int(k)]
                rid = attempted
                attempted += 1
                before = counter.events if counter else 0
                with tracer.span("request", request=rid):
                    with tracer.span("sim.run_experiment"):
                        if profiling:
                            profile.enable()
                        t0 = time.perf_counter()
                        got = answer(cfg)
                        dt = time.perf_counter() - t0
                        if profiling:
                            profile.disable()
                    with tracer.span("sim.check"):
                        check(name, got, golden)
                probe.tick()
                latencies.append(dt)
                if counter is not None:
                    events.append(counter.events - before)
            n_cycles += 1
            last = time.perf_counter() - t_cycle
        loop_s = time.perf_counter() - t_loop

    speeds = [probe.factor(i) for i in range(len(latencies))]
    out = Outcome(latencies=latencies, speeds=speeds,
                  queries=[1] * len(latencies), window=len(cycle),
                  loop_s=loop_s, setups=setups, setup_speeds=setup_speeds,
                  rss_mb=peak_rss_mb(), attempted=attempted, failed=mismatches,
                  mismatches=mismatches,
                  notes=notes + [f"{n_cycles} cycles of {len(cycle)} "
                                 f"experiments"])
    if traced:
        # Odd cycles ran under cProfile: rates come from the even ones.
        plain = [i for i in range(len(latencies))
                 if (i // len(cycle)) % 2 == 0]
        plain_s = sum(latencies[i] * speeds[i] for i in plain)
        out.layers = {
            "sim.events": float(sum(events[:len(cycle)])),
            "sim.events_per_s": sum(events[i] for i in plain) / plain_s,
            "traced.latency_p50_ms": 1e3 * statistics.median(
                latencies[i] * speeds[i] for i in plain),
            "traced.requests_per_s": len(latencies) / loop_s,
        }
        out.layers.update(ctx.self_fracs(profile))
    return out
