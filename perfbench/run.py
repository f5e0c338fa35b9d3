#!/usr/bin/env python3
"""The repository's benchmark: one closed-loop workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nt_query --seed 1 --seconds 45 \
        --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/rationale.json``):

``nt_query``
    the paper's 568-bp ``blastn`` query against a ~16M-residue nt pack
    store, served by the local ``ExecPool``;
``sim_paper``
    the paper's simulated cluster experiments (Figures 4-7 and 9);
``aa_batch``
    8-query ``blastp`` batches over two localhost node agents.  It can
    be run by name but is not among the gated workloads: see
    ``rationale.json`` for why.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run on the same seed and requests that
records spans around every call into a layer, writes them to
``.perfbench/traces/`` with a per-layer table, and reports the
per-layer metrics.  Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The run fails (non-zero exit, no result line) if the program's source
is missing, or if anything it started outlives it: shared-memory
segments, worker or agent processes, pack-build spools, work
directories.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SHM_DIR = "/dev/shm"
SHM_PREFIXES = ("repro_", "psm_")

WORKLOADS = ("nt_query", "sim_paper", "aa_batch")


def machine_info() -> dict:
    """nproc, CPU model, last-level cache, Python and numpy versions."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for entry in os.listdir(cache):
            if entry.startswith("index"):
                with open(os.path.join(cache, entry, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(cache, entry, "size")) as f:
                    levels.append((level, f.read().strip()))
        llc = max(levels)[1] if levels else llc
    except (OSError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "llc": llc,
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def windows(out, lat):
    """(queries, requests, seconds) per window of ``out.window``
    consecutive requests; one partial window when no full one fits."""
    size = min(out.window, len(lat))
    return [(sum(out.queries[i:i + size]), size, sum(lat[i:i + size]))
            for i in range(0, len(lat) - size + 1, size)]


def end_to_end(out, at_ref_speed: bool = True) -> dict:
    """Every end-to-end metric by name: (value, sample count).  The
    throughput sample count is the number of windows.  Times are scaled
    to the reference machine speed (see ``common.Yardstick``) unless
    *at_ref_speed* is false, which gives raw wall time."""
    def scale(times, speeds):
        return [t * f for t, f in zip(times, speeds)] if at_ref_speed \
            else list(times)
    lat = scale(out.latencies, out.speeds)
    lat_ms = [1e3 * t for t in lat]
    wins = windows(out, lat)
    setups = scale(out.setups, out.setup_speeds)
    return {
        "latency_p50_ms": (statistics.median(lat_ms), len(lat_ms)),
        "latency_p90_ms": (percentile(lat_ms, 90), len(lat_ms)),
        "queries_per_s": (statistics.median(q / s for q, _r, s in wins),
                          len(wins)),
        "experiments_per_s": (statistics.median(r / s for _q, r, s in wins),
                              len(wins)),
        "setup_s": (statistics.median(setups), len(setups)),
        "failed_frac": (out.failed / out.attempted, out.attempted),
        "peak_rss_mb": (out.rss_mb, 1),
    }


def shm_entries() -> set:
    try:
        return {e for e in os.listdir(SHM_DIR) if e.startswith(SHM_PREFIXES)}
    except OSError:
        return set()


def temp_entries() -> set:
    try:
        return {e for e in os.listdir(tempfile.gettempdir())
                if "repro" in e or "rpk" in e}
    except OSError:
        return set()


def alive(pid: int) -> bool:
    """True if *pid* runs and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def child_pids() -> set:
    me = str(os.getpid())
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me and fields[0] != "Z":
            out.add(int(entry))
    return out


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker the pool started, and
    wait for it (it would otherwise outlive this process briefly)."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def leftovers(ctx, shm_before: set, tmp_before: set) -> list:
    """Everything the run started that is still there."""
    found = [f"shm segment {e}" for e in sorted(shm_entries() - shm_before)]
    found += [f"temp entry {e}" for e in sorted(temp_entries() - tmp_before)]
    for dirpath, dirnames, _files in os.walk(OUT_DIR):
        found += [f"pack-build spool {os.path.join(dirpath, d)}"
                  for d in dirnames if d.startswith(".rpk-build-")]
    if os.path.exists(ctx.work):
        found.append(f"work directory {ctx.work}")
    stop_resource_tracker()
    found += [f"live process {pid}" for pid in sorted(ctx.pids)
              if alive(pid)]
    found += [f"live child process {pid}" for pid in sorted(child_pids())]
    return found


def run_workload(name: str, ctx):
    nproc = os.cpu_count() or 1
    if name == "sim_paper":
        from sim_workload import run_sim
        return run_sim(ctx, ROOT)
    from engine_workloads import aa_spec, nt_spec, run_engine
    make = nt_spec if name == "nt_query" else aa_spec
    return run_engine(make(ctx.seed, nproc, ctx), ctx)


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    metrics_spec = load_benchmark_json()

    from common import Context

    shm_before, tmp_before = shm_entries(), temp_entries()
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    ctx = Context(work, args.seed, args.seconds, bool(args.trace))
    t0 = time.perf_counter()
    try:
        out = run_workload(args.workload, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - t0

    machine = machine_info()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} wall={wall:.1f}s "
          + " ".join(f"{k}={v}" for k, v in machine.items()))
    for note in out.notes:
        print(f"  note: {note}")
    units = {m["name"]: m["unit"] for m in metrics_spec["end_to_end"]}
    units["failed_frac"] = "ratio"
    e2e = end_to_end(out)
    raw = end_to_end(out, at_ref_speed=False)
    print(f"  {'metric':<20} {'at ref speed':>12} {'raw wall':>12}")
    for name, (value, n) in e2e.items():
        print(f"  {name:<20} {value:>12.4f} {raw[name][0]:>12.4f} "
              f"{units[name]:<6} (n={n})")
    print(f"  machine speed factor: median "
          f"{statistics.median(out.speeds):.3f}, range "
          f"{min(out.speeds):.3f}-{max(out.speeds):.3f}")
    print(f"  answer mismatches    {out.mismatches}")
    samples = os.path.join(OUT_DIR, "samples")
    os.makedirs(samples, exist_ok=True)
    with open(os.path.join(samples, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as f:
        json.dump({"latencies_s": out.latencies, "speeds": out.speeds,
                   "queries": out.queries, "setups_s": out.setups,
                   "setup_speeds": out.setup_speeds, "loop_s": out.loop_s},
                  f)

    if args.trace:
        traces = os.path.join(OUT_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        stem = os.path.join(traces, f"{args.workload}-seed{args.seed}")
        ctx.tracer.write(stem + ".spans.jsonl")
        table = ctx.tracer.render_table()
        with open(stem + ".layers.txt", "w") as f:
            f.write(table + "\n")
        print(table)
        names = {m["name"] for m in metrics_spec["per_layer"]}
        unknown = set(out.layers) - names
        if unknown:
            raise RuntimeError(f"layer metrics missing from BENCHMARK.json: "
                               f"{sorted(unknown)}")
        metrics = {}
        for m in metrics_spec["per_layer"]:
            # A layer this workload never calls did no work: it reads 0.
            value = float(out.layers.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<28} {value:>14.4f} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": float(e2e[m["name"]][0]),
                               "unit": m["unit"]}
                   for m in metrics_spec["end_to_end"]}

    found = leftovers(ctx, shm_before, tmp_before)
    if found:
        for item in found:
            print(f"perfbench: leftover: {item}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": out.mismatches == 0,
                      "attempted": out.attempted,
                      "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
