"""The two BLAST-engine workloads: ``nt_query`` and ``aa_batch``.

Both are closed loops with one client (this process): the next request
is sent only after the previous one has returned.  Every layer is
driven through its public functions only — ``repro.blast``
(``search_batch``, ``profile.profiled``) and ``repro.exec``
(``diskpack``, ``ExecPool``, ``NodeFleet``, ``schedule``, ``results``,
``net``).

``nt_query``
    The paper's case: one distinct 568-bp query per request (a corpus
    extract with 5% point mutations) against a ~16M-residue synthetic
    nt corpus in an 8-fragment on-disk pack store, served by
    ``ExecPool(jobs=nproc)`` over local pipes and shared memory.
``aa_batch``
    Eight distinct noisy protein queries per request (at most 350 aa,
    every 9th residue mutated) against a ~25k-residue nr-like corpus,
    served by a remote-only ``ExecPool`` over localhost ``NodeFleet``
    agents with ``replication=2``.

Every answer is compared, as tabular text, with the serial engine's
answer to the same queries (``search_batch`` on the in-memory
database), computed outside the timed loop.
"""

from __future__ import annotations

import copy
import cProfile
import hashlib
import os
import pickle
import shutil
import statistics
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.blast.fasta import FastaRecord, write_fasta
from repro.blast.profile import profiled
from repro.blast.scankernel import ScanCache
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import (SearchParams, SearchResults,
                                merge_fragment_results, search_batch)
from repro.exec import ExecPool, NodeFleet
from repro.exec.diskpack import PackStore, build_pack_store
from repro.exec.net import DATA, FrameDecoder, encode_frame
from repro.exec.results import decode_result_pairs, encode_result_pairs
from repro.exec.schedule import (DEFAULT_SCAN_RATE, plan_query_batches,
                                 plan_task_ranges)
from repro.workloads import synthetic_aa_db, synthetic_nt_db

from common import Outcome, Yardstick, peak_rss_mb

NT_RESIDUES = 16_000_000
NT_FRAGMENTS = 8
NT_QUERY_LEN = 568
NT_MUTATION_RATE = 0.05
#: Set-ups per timed run; ``setup_s`` is their median.
NT_SETUPS = 3

AA_RESIDUES = 25_000
AA_FRAGMENTS = 8
AA_QUERIES = 8
AA_QUERY_MAX = 350
AA_MUTATE_EVERY = 9
AA_AGENTS = 2
#: One set-up per run: its first request alone takes seconds.
AA_SETUPS = 1

#: Loop requests per throughput window.
WINDOW = 10

#: Queries per serial ``search_batch`` call when computing references.
REF_BATCH = 16

DEGRADED_WARNING = "exec pool degraded"


def digest(result: SearchResults) -> str:
    return hashlib.sha256(result.tabular().encode()).hexdigest()


@dataclass
class Request:
    """One closed-loop request and what became of it."""

    rid: int
    queries: List[np.ndarray]
    ids: List[str]
    latency_s: float = 0.0
    digests: Optional[List[str]] = None
    error: Optional[str] = None
    degraded: bool = False
    stats: object = None


@dataclass
class EngineSpec:
    seqtype: str
    db: object
    scheme: object
    params: SearchParams
    n_fragments: int
    setups: int
    #: Next request's queries, drawn from the workload's seeded stream.
    next_queries: Callable[[], List[np.ndarray]]
    #: Start the serving side; returns the pool and a stop function.
    open_pool: Callable[[], Tuple[ExecPool, Callable[[], None]]]
    workers: int


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def nt_spec(seed: int, nproc: int, ctx) -> EngineSpec:
    db = synthetic_nt_db(NT_RESIDUES, seed=seed)
    rng = np.random.default_rng(seed + 1)
    candidates = [i for i in range(len(db))
                  if len(db.sequence(i)) >= NT_QUERY_LEN]
    seen = set()
    n_mut = round(NT_MUTATION_RATE * NT_QUERY_LEN)

    def next_queries():
        while True:
            sid = int(rng.choice(candidates))
            seq = db.sequence(sid)
            start = int(rng.integers(0, len(seq) - NT_QUERY_LEN + 1))
            q = seq[start:start + NT_QUERY_LEN].copy()
            pos = rng.choice(NT_QUERY_LEN, size=n_mut, replace=False)
            q[pos] = (q[pos] + rng.integers(1, 4, size=n_mut)) % 4
            key = q.tobytes()
            if key not in seen:
                seen.add(key)
                return [q]

    def open_pool():
        pool = ExecPool(jobs=nproc).start()
        ctx.note_pids(pool.worker_pids().values())
        return pool, pool.close

    return EngineSpec("nt", db, NucleotideScore(),
                      SearchParams(), NT_FRAGMENTS, NT_SETUPS,
                      next_queries, open_pool, workers=nproc)


def aa_spec(seed: int, nproc: int, ctx) -> EngineSpec:
    db = synthetic_aa_db(AA_RESIDUES, seed=seed)
    rng = np.random.default_rng(seed + 1)
    seen = set()
    agents = min(AA_AGENTS, nproc)

    def next_queries():
        queries = []
        for sid in rng.permutation(len(db)):
            q = db.sequence(int(sid))[:AA_QUERY_MAX].copy()
            phase = int(rng.integers(0, AA_MUTATE_EVERY))
            q[phase::AA_MUTATE_EVERY] = (q[phase::AA_MUTATE_EVERY] + 1) % 20
            key = q.tobytes()
            if key not in seen:
                seen.add(key)
                queries.append(q)
                if len(queries) == AA_QUERIES:
                    return queries
        raise RuntimeError("aa_batch: distinct query stream exhausted")

    def open_pool():
        fleet = NodeFleet(agents)
        ctx.note_pids(p.pid for p in fleet.procs)
        try:
            pool = ExecPool(jobs=0, nodes=fleet.addresses,
                            replication=2).start()
        except BaseException:
            fleet.stop()
            raise

        def stop():
            try:
                pool.close()
            finally:
                fleet.stop()
        return pool, stop

    return EngineSpec("aa", db, ProteinScore(),
                      SearchParams(word_size=3), AA_FRAGMENTS, AA_SETUPS,
                      next_queries, open_pool, workers=agents)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def send(pool: ExecPool, store, spec: EngineSpec, req: Request) -> None:
    """One request through the pool; fills latency, answers, failure."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            if len(req.queries) == 1:
                answers = [pool.search(req.queries[0], store, spec.scheme,
                                       spec.params, query_id=req.ids[0])]
            else:
                answers = pool.search_many(req.queries, store, spec.scheme,
                                           spec.params, query_ids=req.ids)
        except Exception as exc:  # any raise is a failed request
            req.latency_s = time.perf_counter() - t0
            req.error = f"{type(exc).__name__}: {exc}"
            return
        req.latency_s = time.perf_counter() - t0
    req.stats = copy.copy(pool.last_stats)
    req.degraded = bool(req.stats is not None and req.stats.fallback) or any(
        issubclass(w.category, RuntimeWarning)
        and DEGRADED_WARNING in str(w.message) for w in caught)
    req.digests = [digest(r) for r in answers]


def run_engine(spec: EngineSpec, ctx) -> Outcome:
    tracer, traced = ctx.tracer, ctx.trace
    fasta = os.path.join(ctx.work, "corpus.fasta")
    with open(fasta, "w") as f:
        f.write(write_fasta(FastaRecord(spec.db.description(i),
                                        spec.db.sequence_str(i))
                            for i in range(len(spec.db))))
    requests: List[Request] = []

    def new_request() -> Request:
        qs = spec.next_queries()
        rid = len(requests)
        req = Request(rid, qs, [f"r{rid}q{i}" for i in range(len(qs))])
        requests.append(req)
        return req

    cache = ScanCache()
    refs: Dict[int, List[str]] = {}
    setups, layer, loop_reqs = [], {}, []
    side = stop = None
    profile = cProfile.Profile()
    try:
        # -- set-up: FASTA on disk -> first answer, repeated -------------
        for i in range(1 if traced else spec.setups):
            if stop is not None:
                stop()
                stop = None
                shutil.rmtree(os.path.join(ctx.work, f"store{i - 1}"))
            store_dir = os.path.join(ctx.work, f"store{i}")
            req = new_request()
            probe = Yardstick()
            with tracer.span("setup", request=req.rid):
                t0 = time.perf_counter()
                with tracer.span("diskpack.build"):
                    build_pack_store(fasta, store_dir, seqtype=spec.seqtype,
                                     n_fragments=spec.n_fragments,
                                     word_size=spec.params.word_size)
                t1 = time.perf_counter()
                store = PackStore.open(store_dir)
                with tracer.span("pool.start"):
                    pool, stop = spec.open_pool()
                t2 = time.perf_counter()
                with tracer.span("pool.first_request"):
                    send(pool, store, spec, req)
                t3 = time.perf_counter()
            probe.tick()
            setups.append((t3 - t0, probe.factor(0)))
            layer.update({"diskpack.build_s": t1 - t0,
                          "pool.start_s": t2 - t1,
                          "pool.first_request_ms": 1e3 * (t3 - t2)})

        if traced:
            layer.update(measure_store(store, tracer))
            references(spec, requests, refs, cache)   # also warms cache
            side = SideMeasures(spec, store, pool, cache)

        # -- the timed closed loop ---------------------------------------
        probe = Yardstick()
        t_loop = time.perf_counter()
        while time.perf_counter() - t_loop < ctx.seconds:
            req = new_request()
            loop_reqs.append(req)
            profiling = traced and req.rid % 2 == 1
            with tracer.span("request", request=req.rid):
                with tracer.span("pool.search"):
                    if profiling:
                        profile.enable()
                    send(pool, store, spec, req)
                    if profiling:
                        profile.disable()
            probe.tick()
            if side is not None:
                refs[req.rid] = side.measure(req, tracer)
        loop_s = time.perf_counter() - t_loop
        ctx.note_pids(pool.worker_pids().values())
        ship = pool.node_ship_stats()
    finally:
        if stop is not None:
            stop()
    rss_mb = peak_rss_mb()
    references(spec, requests, refs, cache)

    mismatched = {r.rid for r in requests
                  if r.digests is not None and r.digests != refs[r.rid]}
    merge_failures = side.merge_failures if side is not None else 0
    done = [r for r in loop_reqs if r.error is None]
    out = Outcome(
        latencies=[r.latency_s for r in done],
        speeds=[probe.factor(i) for i, r in enumerate(loop_reqs)
                if r.error is None],
        queries=[len(r.queries) for r in done],
        window=WINDOW,
        loop_s=loop_s,
        setups=[t for t, _f in setups],
        setup_speeds=[f for _t, f in setups],
        attempted=len(requests),
        failed=sum(1 for r in requests
                   if r.error or r.degraded or r.rid in mismatched),
        mismatches=len(mismatched) + merge_failures,
        rss_mb=rss_mb,
        notes=[f"request {r.rid}: {r.error}" for r in requests if r.error]
        + [f"request {rid}: answer differs from the serial engine"
           for rid in sorted(mismatched)]
        + [f"{sum(r.degraded for r in requests)} of {len(requests)} "
           f"requests served by the pool's serial fallback"])
    if merge_failures:
        out.notes.append(f"{merge_failures} requests: encode/frame/decode/"
                         f"merge of the per-fragment results changed the "
                         f"answer")
    if traced:
        layer.update(side.summary())
        layer.update(pool_counts(done, spec.workers, side))
        layer["nodes.bytes_shipped"] = sum(s["bytes_shipped"] for s in ship)
        layer["nodes.bytes_saved"] = sum(s["bytes_saved"] for s in ship)
        plain = [t * f for r, t, f in zip(done, out.latencies, out.speeds)
                 if r.rid % 2 == 0]
        layer["traced.latency_p50_ms"] = 1e3 * statistics.median(
            plain or out.latencies)
        layer["traced.requests_per_s"] = len(done) / loop_s
        layer.update(ctx.self_fracs(profile))
        out.layers = layer
    return out


def references(spec: EngineSpec, requests: List[Request],
               refs: Dict[int, List[str]], cache: ScanCache) -> None:
    """Serial ``search_batch`` digests for every request not yet
    checked, several requests per call."""
    todo = [r for r in requests if r.rid not in refs]
    if not todo:
        return
    per_call = max(1, REF_BATCH // max(len(r.queries) for r in todo))
    for lo in range(0, len(todo), per_call):
        chunk = todo[lo:lo + per_call]
        qs = [q for r in chunk for q in r.queries]
        ids = [i for r in chunk for i in r.ids]
        res = search_batch(qs, spec.db, spec.scheme, spec.params,
                           query_ids=ids, scan_cache=cache)
        k = 0
        for r in chunk:
            refs[r.rid] = [digest(x) for x in res[k:k + len(r.queries)]]
            k += len(r.queries)


def measure_store(store: PackStore, tracer) -> dict:
    """Pack-store size and cold open + verify time."""
    with tracer.span("diskpack.open"):
        t0 = time.perf_counter()
        reopened = PackStore.open(store.directory)
        for pack in reopened.open_packs(verify=True):
            pack.close()
        open_s = time.perf_counter() - t0
    size = sum(os.path.getsize(os.path.join(store.directory, f))
               for f in os.listdir(store.directory))
    return {"diskpack.open_s": open_s, "diskpack.store_mb": size / 2 ** 20}


class SideMeasures:
    """Per-request layer measurements of the traced run, made from
    outside the program on the same request the pool just served."""

    def __init__(self, spec: EngineSpec, store: PackStore, pool: ExecPool,
                 cache: ScanCache):
        self.spec, self.store, self.pool = spec, store, pool
        self.cache = cache
        self.merge_failures = 0
        self.ids_by_name: Dict[str, List[int]] = {}
        self.where: Dict[int, Tuple[str, int]] = {}
        self.weights: List[float] = []
        packs = store.open_packs(verify=False)
        try:
            for pack in packs:
                name = pack.spec.name
                ids = [int(i) for i in pack.spec.source_ids]
                self.ids_by_name[name] = ids
                self.weights.append(float(pack.spec.total_residues))
                for local, gid in enumerate(ids):
                    self.where[gid] = (name, local)
        finally:
            for pack in packs:
                pack.close()
        self.names = list(self.ids_by_name)
        self.rows: List[dict] = []

    def measure(self, req: Request, tracer) -> List[str]:
        spec, row = self.spec, {}
        with tracer.span("blast.serial"):
            with profiled("perfbench", enabled=True, emit=False) as prof:
                t0 = time.perf_counter()
                serial = search_batch(req.queries, spec.db, spec.scheme,
                                      spec.params, query_ids=req.ids,
                                      scan_cache=self.cache)
                row["serial_s"] = time.perf_counter() - t0
        row["stages"] = dict(prof.stages)
        row["counters"] = dict(prof.counters)
        ref = [digest(r) for r in serial]

        with tracer.span("schedule.plan"):
            t0 = time.perf_counter()
            slots = max(1, self.pool.jobs + len(self.pool.node_addresses))
            qgroups = plan_query_batches(len(req.queries), slots,
                                         max(1, self.pool.query_batch))
            ranges = plan_task_ranges(
                self.weights, n_queries=len(qgroups), jobs=slots,
                granularity=self.pool.task_granularity,
                overhead_s=self.pool.task_overhead,
                scan_rate=DEFAULT_SCAN_RATE,
                queries_per_task=max(len(g) for g in qgroups))
            row["plan_s"] = time.perf_counter() - t0
        row["tasks_planned"] = len(qgroups) * len(ranges)

        # Per-fragment results as a worker would return them: the
        # serial answer's hits regrouped by pack, with pack-local ids.
        by_pack = {}
        for qi, res in enumerate(serial):
            for hit in res.hits:
                name, local = self.where[hit.subject_id]
                part = by_pack.setdefault((qi, name), SearchResults(
                    query_id=res.query_id, query_len=res.query_len,
                    db_residues=res.db_residues,
                    db_sequences=res.db_sequences))
                part.hits.append(copy.copy(hit))
                part.hits[-1].subject_id = local
        tasks = [(qg, tuple(self.names[i] for i in rng))
                 for qg in qgroups for rng in ranges]
        with tracer.span("results.encode"):
            t0 = time.perf_counter()
            blobs = [encode_result_pairs(
                [(n, qi, by_pack[(qi, n)]) for qi in qg for n in names
                 if (qi, n) in by_pack]) for qg, names in tasks]
            row["encode_s"] = time.perf_counter() - t0
        row["bytes"] = sum(len(b) for b in blobs)

        with tracer.span("net.frame"):
            t0 = time.perf_counter()
            wire = bytearray()
            seq = 0
            for (qg, names), blob in zip(tasks, blobs):
                msg = pickle.dumps(("task", qg, names,
                                    [req.queries[qi] for qi in qg]))
                for payload in (msg, blob):
                    wire += encode_frame(DATA, seq, payload)
                    seq += 1
            decoder = FrameDecoder()
            decoder.feed(bytes(wire))
            frames = list(decoder.frames())
            row["frame_s"] = time.perf_counter() - t0
        if len(frames) != 2 * len(tasks):
            raise RuntimeError("frame round trip lost frames")

        with tracer.span("results.decode"):
            t0 = time.perf_counter()
            decoded = [decode_result_pairs(b) for b in blobs]
            row["decode_s"] = time.perf_counter() - t0
        with tracer.span("search.merge"):
            t0 = time.perf_counter()
            parts: Dict[int, Dict[str, SearchResults]] = {
                qi: {} for qi in range(len(req.queries))}
            for triples in decoded:
                for name, qi, res in triples:
                    parts[qi][name] = res
            merged = [merge_fragment_results(
                parts[qi], self.ids_by_name, query_id=req.ids[qi],
                query_len=len(q), db_residues=self.store.total_residues,
                db_sequences=len(self.store))
                for qi, q in enumerate(req.queries)]
            row["merge_s"] = time.perf_counter() - t0
        # The regrouped, encoded, framed, decoded and merged answer must
        # still be the serial answer; a difference is a failed check.
        if [digest(m) for m in merged] != ref:
            self.merge_failures += 1
        self.rows.append(row)
        return ref

    def summary(self) -> dict:
        rows = self.rows
        med = statistics.median

        def stage(row, *names):
            return sum(row["stages"].get(n, 0.0) for n in names)

        def total(name):
            return sum(r["counters"].get(name, 0) for r in rows)

        trials = total("gapped_trials")
        return {
            "blast.serial_request_ms": 1e3 * med(r["serial_s"] for r in rows),
            "blast.unaccounted_ms": 1e3 * med(
                r["serial_s"] - sum(r["stages"].values()) for r in rows),
            "blast.index_ms": 1e3 * med(stage(r, "index") for r in rows),
            "blast.scan_ms": 1e3 * med(stage(r, "scan") for r in rows),
            "blast.seed_ms": 1e3 * med(stage(r, "seed") for r in rows),
            "blast.extend_ms": 1e3 * med(stage(r, "extend") for r in rows),
            "blast.gapped_ms": 1e3 * med(stage(r, "gapped", "gapped_bulk")
                                         for r in rows),
            "blast.seeds": total("seeds") / len(rows),
            "blast.gapped_trials": trials / len(rows),
            "blast.gapped_traceback": total("gapped_traceback") / len(rows),
            "blast.traceback_per_trial": (total("gapped_traceback") / trials
                                          if trials else 0.0),
            "schedule.plan_us": 1e6 * med(r["plan_s"] for r in rows),
            "schedule.tasks_planned": med(r["tasks_planned"] for r in rows),
            "results.encode_ms": 1e3 * med(r["encode_s"] for r in rows),
            "results.decode_ms": 1e3 * med(r["decode_s"] for r in rows),
            "results.bytes": med(r["bytes"] for r in rows),
            "search.merge_ms": 1e3 * med(r["merge_s"] for r in rows),
            "net.frame_ms": 1e3 * med(r["frame_s"] for r in rows),
        }


def pool_counts(reqs: List[Request], workers: int,
                side: SideMeasures) -> dict:
    """Per-request means of ``ExecPool.last_stats`` plus the pool's
    overhead against the serial engine on the same requests."""
    stats = [r.stats for r in reqs if r.stats is not None]
    n = max(1, len(stats))

    def total(field):
        return sum(getattr(s, field) for s in stats)

    done = total("tasks_done")
    spent = done + total("requeues") + total("hedges") + total("hang_kills")
    pool_p50 = statistics.median(r.latency_s for r in reqs)
    serial_p50 = statistics.median(r["serial_s"] for r in side.rows)
    out = {f"pool.{name}": total(field) / n for name, field in (
        ("tasks", "tasks_done"), ("requeues", "requeues"),
        ("hedges", "hedges"), ("hedge_wins", "hedge_wins"),
        ("hang_kills", "hang_kills"), ("respawns", "respawns"),
        ("stale_results", "stale_results"), ("fallbacks", "fallback"),
        ("arena_results", "arena_results"),
        ("inline_results", "inline_results"),
        ("remote_results", "remote_results"),
        ("reconnects", "reconnects"),
        ("heartbeat_losses", "heartbeat_losses"))}
    out["nodes.reconnects"] = out.pop("pool.reconnects")
    out["nodes.heartbeat_losses"] = out.pop("pool.heartbeat_losses")
    out["pool.task_yield"] = done / spent if spent else 0.0
    out["pool.overhead_ms"] = 1e3 * (pool_p50 - serial_p50 / workers)
    out["pool.speedup_over_serial"] = serial_p50 / pool_p50
    return out
