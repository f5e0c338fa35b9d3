"""The multi-core pool: byte-identical parallel search, dynamic
scheduling, worker-death requeue, retry exhaustion, and shared-memory
hygiene.  The worker loop itself is also driven in-process through a
scripted pipe so its protocol is covered without a subprocess."""

import dataclasses
import os
import signal
import threading
from collections import deque

import numpy as np
import pytest

from repro.blast.reference import reference_search
from repro.blast.scankernel import db_token
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import SearchParams, search
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.exec import (ExecPool, GreedyScheduler, PoolJobError,
                        RetriesExceeded, plan_fragments, search_parallel)
from repro.exec.pool import JobSpec, PoolConfig, _worker_main
from repro.exec.shm import NAME_PREFIX, ShmRegistry, pack_fragment

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


def shm_segments():
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith(("psm_", NAME_PREFIX)))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


def diskpack_leftovers():
    """Build artifacts the streaming pack builder must never leak:
    spool directories and half-committed ``*.tmp`` files inside any
    store directory a builder of this process targeted."""
    from repro.exec import diskpack

    found = []
    for root in sorted(diskpack.build_roots()):
        if not os.path.isdir(root):
            continue
        for entry in sorted(os.listdir(root)):
            if (entry.startswith(diskpack.BUILD_DIR_PREFIX)
                    or entry.endswith(".tmp")):
                found.append(os.path.join(root, entry))
    return found


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = shm_segments()
    yield
    assert shm_segments() == before, "test leaked shared-memory segments"
    assert diskpack_leftovers() == [], "test leaked pack build artifacts"


def random_nt_db(rng, n_seqs, min_len=5, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=5, max_len=200):
    db = SequenceDB(AA)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"p{i}", "".join(AA_LETTERS[rng.integers(0, 20, length)]))
    return db


def dump(results):
    """Full byte-level result dump (every HSP field, hit order, ids)."""
    return (results.query_id, results.query_len, results.db_residues,
            results.db_sequences,
            [(h.subject_id, h.description, h.subject_len, h.fragment_id,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
def test_plan_fragments_partitions_everything():
    rng = np.random.default_rng(0)
    db = random_nt_db(rng, 23)
    bins = plan_fragments(db, 5)
    assert len(bins) == 5
    flat = sorted(i for b in bins for i in b)
    assert flat == list(range(23))
    # Greedy balance: no bin is empty for a 23-sequence database.
    assert all(b for b in bins)


def test_plan_fragments_clamps_and_validates():
    rng = np.random.default_rng(1)
    db = random_nt_db(rng, 3)
    assert len(plan_fragments(db, 10)) == 3
    assert plan_fragments(SequenceDB(NT), 4) == []
    with pytest.raises(ValueError):
        plan_fragments(db, 0)


def test_scheduler_heaviest_first_and_lifecycle():
    sched = GreedyScheduler([("a", 1.0), ("b", 5.0), ("c", 3.0)])
    assert sched.assign(0) == "b"
    assert sched.assign(1) == "c"
    assert not sched.done
    assert sched.complete(0) == "b"
    assert sched.assign(0) == "a"
    sched.complete(0)
    sched.complete(1)
    assert sched.done
    assert sched.assign(7) is None
    assert sorted(sched.completed) == ["a", "b", "c"]


def test_scheduler_requeues_at_front_with_bounded_retries():
    sched = GreedyScheduler([("a", 2.0), ("b", 1.0)], max_retries=1)
    assert sched.assign(0) == "a"
    assert sched.fail(0) == "a"          # retry 1: requeued at front
    assert sched.requeues == 1
    assert sched.assign(1) == "a"
    with pytest.raises(RetriesExceeded):
        sched.fail(1)                     # budget exhausted
    assert sched.fail(3) is None          # idle worker: nothing to fail
    assert sched.drop_pending() == 1      # "b" abandoned
    assert sched.done


def test_scheduler_rejects_duplicates_and_double_assign():
    with pytest.raises(ValueError):
        GreedyScheduler([("a", 1.0), ("a", 2.0)])
    with pytest.raises(ValueError):
        GreedyScheduler([], max_retries=-1)
    sched = GreedyScheduler([("a", 1.0), ("b", 1.0)])
    sched.assign(0)
    with pytest.raises(ValueError):
        sched.assign(0)


# ----------------------------------------------------------------------
# Equivalence with the serial engines
# ----------------------------------------------------------------------
def test_pool_matches_serial_nt_both_strands_many_fragments():
    rng = np.random.default_rng(2)
    db = random_nt_db(rng, 40)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:120].copy() for i in (3, 11, 27)]
    with ExecPool(jobs=2) as pool:
        for nf in (1, 3, 9):
            for qi, q in enumerate(queries):
                par = pool.search(q, db, scheme, params,
                                  query_id=f"q{qi}", n_fragments=nf)
                ser_scan = search(q, db, scheme, params, query_id=f"q{qi}")
                ser_loop = reference_search(q, db, scheme, params,
                                            query_id=f"q{qi}")
                assert dump(par) == dump(ser_scan) == dump(ser_loop)


def test_pool_matches_serial_protein():
    rng = np.random.default_rng(3)
    db = random_aa_db(rng, 30)
    scheme = ProteinScore()
    params = SearchParams(word_size=3, neighbor_threshold=11,
                          xdrop_ungapped=16)
    q = db.sequence(7)[:80].copy()
    with ExecPool(jobs=2) as pool:
        par = pool.search(q, db, scheme, params, both_strands=False,
                          n_fragments=6)
        assert dump(par) == dump(search(q, db, scheme, params,
                                        both_strands=False))


def test_pool_streaming_many_queries_one_pass():
    rng = np.random.default_rng(4)
    db = random_nt_db(rng, 35)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:100].copy() for i in range(0, 12, 2)]
    ids = [f"stream{i}" for i in range(len(queries))]
    # Pin granularity=1 (legacy one-task-per-fragment) and disable
    # query batching so the task count stays an exact function of
    # queries x fragments.
    with ExecPool(jobs=2, task_granularity=1, query_batch=0) as pool:
        many = pool.search_many(queries, db, scheme, params, query_ids=ids,
                                n_fragments=5)
        assert len(many) == len(queries)
        for q, qid, res in zip(queries, ids, many):
            assert dump(res) == dump(search(q, db, scheme, params,
                                            query_id=qid))
        assert pool.last_stats.tasks_done == len(queries) * 5
        assert pool.last_stats.fragments_done == len(queries) * 5
        # Batched: the whole query set rides one task per fragment (6
        # queries fit one batch), byte-identical to the serial runs.
        batched = pool.search_many(queries, db, scheme, params,
                                   query_ids=ids, n_fragments=5,
                                   query_batch=32)
        assert [dump(r) for r in batched] == [dump(r) for r in many]
        assert pool.last_stats.tasks_done == 5
        assert pool.last_stats.fragments_done == 5


def test_pool_short_query_and_empty_db():
    rng = np.random.default_rng(5)
    db = random_nt_db(rng, 10)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    short = db.sequence(0)[:5].copy()      # shorter than the word size
    with ExecPool(jobs=1) as pool:
        assert dump(pool.search(short, db, scheme, params)) == \
               dump(search(short, db, scheme, params))
        empty = SequenceDB(NT)
        assert dump(pool.search(short, empty, scheme, params)) == \
               dump(search(short, empty, scheme, params))
        assert pool.search_many([], db, scheme, params) == []


def test_pool_keep_fragment_ids_and_pack_reuse():
    rng = np.random.default_rng(6)
    db = random_nt_db(rng, 20)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(2)[:150].copy()
    with ExecPool(jobs=1) as pool:
        tagged = pool.search(q, db, scheme, params, n_fragments=4,
                             keep_fragment_ids=True)
        frags = {h.fragment_id for h in tagged.hits}
        assert frags and frags <= set(range(4))
        # Same (db, k, nf) key: packs are prepared once and reused.
        pool.search(q, db, scheme, params, n_fragments=4)
        assert len(pool._prepared) == 1
        assert pool.release_db(db) == 1
        assert len(pool._prepared) == 0


def test_search_parallel_transient_pool_and_query_ids_validation():
    rng = np.random.default_rng(7)
    db = random_nt_db(rng, 15)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(1)[:90].copy()
    assert dump(search_parallel(q, db, scheme, params, jobs=1)) == \
           dump(search(q, db, scheme, params))
    with ExecPool(jobs=1) as pool:
        assert dump(search_parallel(q, db, scheme, params, pool=pool)) == \
               dump(search(q, db, scheme, params))
        with pytest.raises(ValueError):
            pool.search_many([q], db, scheme, params, query_ids=["a", "b"])


def test_pool_validation_and_close_semantics():
    with pytest.raises(ValueError):
        ExecPool(jobs=0)
    pool = ExecPool(jobs=1)
    pool.close()
    pool.close()                           # idempotent
    with pytest.raises(PoolJobError):
        pool.start()                       # closed pools do not restart


# ----------------------------------------------------------------------
# Fault handling
# ----------------------------------------------------------------------
def test_kill_worker_mid_job_requeues_and_stays_byte_identical():
    rng = np.random.default_rng(8)
    db = random_nt_db(rng, 30, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(5)[:120].copy()
    serial = search(q, db, scheme, params)
    # granularity=1 keeps eight in-flight tasks, so the kill lands
    # while the victim still holds work (range planning would collapse
    # this little database to one task per worker and finish first).
    with ExecPool(jobs=2, task_sleep=0.15, task_granularity=1) as pool:
        pool.start()
        victim = pool.worker_pids()[0]
        timer = threading.Timer(0.25, os.kill, (victim, signal.SIGKILL))
        timer.start()
        try:
            res = pool.search(q, db, scheme, params, n_fragments=8)
        finally:
            timer.cancel()
            timer.join()
        assert dump(res) == dump(serial)
        assert pool.last_stats.worker_deaths == [0]
        assert pool.last_stats.requeues >= 1
        # The survivor carries follow-up jobs alone.
        again = pool.search(q, db, scheme, params, n_fragments=8)
        assert dump(again) == dump(serial)
        assert pool.last_stats.worker_deaths == []


def test_all_workers_dead_fails_job_cleanly():
    rng = np.random.default_rng(9)
    db = random_nt_db(rng, 20, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(3)[:120].copy()
    # Respawn and serial fallback are the new default recovery paths;
    # disable both to pin the PR 1 contract: losing every worker fails
    # the job cleanly instead of hanging or leaking.
    with ExecPool(jobs=1, task_sleep=0.3, max_retries=0,
                  respawn=False, serial_fallback=False) as pool:
        pool.start()
        pid = pool.worker_pids()[0]
        timer = threading.Timer(0.1, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            with pytest.raises(PoolJobError):
                pool.search(q, db, scheme, params, n_fragments=4)
        finally:
            timer.cancel()
            timer.join()
        assert pool.last_stats.worker_deaths == [0]
    # Context exit released every pack despite the failure (the autouse
    # fixture asserts /dev/shm is clean).


def test_worker_error_exhausts_retries_without_killing_pool():
    rng = np.random.default_rng(10)
    db = random_nt_db(rng, 10)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(0)[:90].copy()
    with ExecPool(jobs=1, max_retries=1) as pool:
        pool.start()
        prep = pool._prepare(db, params.word_size, 4, 2)
        # Poison the job table: the worker raises on every task, which
        # must surface as a clean PoolJobError after retries.
        jobs = {0: None}
        tasks = [(((0,), (spec.name,)), 1.0) for spec in prep.specs]
        with pytest.raises(PoolJobError) as err:
            pool._run_tasks(jobs, tasks)
        assert "failed 2 times" in str(err.value)
        assert pool.last_stats.worker_errors >= 2
        # The pool survives worker errors (the worker never died).
        res = pool.search(q, db, scheme, params)
        assert dump(res) == dump(search(q, db, scheme, params))


# ----------------------------------------------------------------------
# Worker loop, driven in-process through a scripted pipe
# ----------------------------------------------------------------------
class ScriptedConn:
    """Feeds a fixed message script to ``_worker_main`` and records
    everything the worker sends back."""

    def __init__(self, script):
        self.script = deque(script)
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)

    def recv(self):
        if not self.script:
            raise EOFError
        return self.script.popleft()


def _job_for(db, q, scheme, params):
    from repro.blast.search import resolve_ka

    ka = resolve_ka(scheme, params, is_protein=False)
    return JobSpec(query=q, query_id="q", scheme=scheme, params=params,
                   both_strands=True, ka=ka,
                   effective_space=(len(q), db.total_residues))


def test_worker_main_protocol_in_process():
    rng = np.random.default_rng(11)
    db = random_nt_db(rng, 12)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(4)[:90].copy()
    registry = ShmRegistry()
    spec = pack_fragment(db, params.word_size, 4,
                         cache_token=(db_token(db), 0, 0), registry=registry)
    job = _job_for(db, q, scheme, params)
    try:
        conn = ScriptedConn([
            ("attach", spec),
            ("attach", spec),               # idempotent re-attach
            ("job", 0, job),
            ("task", (0,), (spec.name,), 5),
            ("task", (0,), ("no-such-pack",), 5),  # -> error reply
            ("bogus",),                     # -> unknown-message error
            ("forget_job", 0),
            ("detach", spec.name),
            ("detach", spec.name),          # idempotent re-detach
            ("stop",),
        ])
        _worker_main(3, conn, PoolConfig())
        kinds = [m[0] for m in conn.sent]
        assert kinds == ["ready", "result", "error", "error", "stopped"]
        result_msg = conn.sent[1]
        # The task's batch, range and epoch are echoed back; result
        # pairs are (name, qi, res) triples.
        assert result_msg[1:4] == (3, (0,), (spec.name,))
        assert result_msg[6] == 5 and conn.sent[2][5] == 5
        mode, pairs = result_msg[4]
        assert mode == "inline" and pairs[0][:2] == (spec.name, 0)
        assert dump(pairs[0][2]) == dump(
            search(q, db, scheme, params, query_id="q"))
        assert "KeyError" in conn.sent[2][4]
        assert "unknown message" in conn.sent[3][4]
        stopped = conn.sent[-1]
        assert stopped[1] == 3 and stopped[2]["tasks"] == 1
    finally:
        registry.release(spec.name)


def test_worker_main_eof_tears_down_packs():
    rng = np.random.default_rng(12)
    db = random_nt_db(rng, 8)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=(db_token(db), 0, 1),
                         registry=registry)
    try:
        conn = ScriptedConn([("attach", spec)])  # then EOF, no stop
        _worker_main(0, conn, PoolConfig())
        assert [m[0] for m in conn.sent] == ["ready"]
    finally:
        registry.release(spec.name)


def test_worker_main_reports_attach_failure():
    rng = np.random.default_rng(13)
    db = random_nt_db(rng, 6)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=(db_token(db), 0, 2),
                         registry=registry)
    registry.release(spec.name)             # segment gone before attach
    conn = ScriptedConn([("attach", spec), ("stop",)])
    _worker_main(1, conn, PoolConfig())
    kinds = [m[0] for m in conn.sent]
    assert kinds == ["ready", "error", "stopped"]
    assert "FileNotFoundError" in conn.sent[1][4]


def test_task_sleep_env_hook(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_TASK_SLEEP", "0.125")
    pool = ExecPool(jobs=1)
    try:
        assert pool._cfg.task_sleep == 0.125
    finally:
        pool.close()
    monkeypatch.delenv("REPRO_EXEC_TASK_SLEEP")
    pool = ExecPool(jobs=1, task_sleep=0.5)
    try:
        assert pool._cfg.task_sleep == 0.5
    finally:
        pool.close()


def test_pool_cold_start_leaves_no_mmap_open(tmp_path):
    """The cold-start path mmaps each pack only long enough to memcpy it
    into shm: no disk mapping may survive _prepare, and ExecPool.close()
    must not be holding pack-file descriptors either."""
    from repro.exec.diskpack import build_pack_store, open_pack_count

    rng = np.random.default_rng(21)
    db = random_nt_db(rng, 14)
    store = build_pack_store(db, str(tmp_path / "store"),
                             seqtype=NT, n_fragments=3)
    query = db.sequence(3)[:80].copy()
    params = SearchParams(word_size=11)

    def store_fds():
        fds = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue
            if str(tmp_path) in target:
                fds.append(target)
        return fds

    assert open_pack_count() == 0
    pool = ExecPool(jobs=2)
    try:
        got = pool.search(query, store, NucleotideScore(), params,
                          query_id="q")
        assert open_pack_count() == 0, "pool kept a disk pack mmapped"
        assert store_fds() == [], "pool kept pack-file descriptors open"
    finally:
        pool.close()
    assert open_pack_count() == 0
    assert store_fds() == []
    want = search(query, db, NucleotideScore(), params, query_id="q")
    assert dump(got) == dump(want)
