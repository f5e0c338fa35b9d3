"""The multi-query batched scan path: QueryBatch vs per-index scans,
``search_batch`` byte-identity against sequential ``search`` across
alphabets / masking / degenerate query sets, query-batch planning, the
batched task protocol through the real pool (fault injection
included), per-stage profiling output, and the CLI's batched serial
path."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.blast.kmer import WordIndex
from repro.blast.profile import PROFILE_ENV
from repro.blast.reference import reference_search
from repro.blast.scankernel import (QueryBatch, build_scan_structures,
                                    scan_fragment, scan_fragment_batch)
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import SearchParams, search, search_batch
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.exec import ExecPool, Fault, FaultPlan
from repro.exec.schedule import plan_query_batches
from repro.exec.shm import NAME_PREFIX

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


def shm_segments():
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith(("psm_", NAME_PREFIX)))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = shm_segments()
    yield
    assert shm_segments() == before, "test leaked shared-memory segments"


def random_nt_db(rng, n_seqs, min_len=50, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=40, max_len=200):
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


def sequential_dumps(queries, db, scheme, params, **kw):
    return [dump(search(q, db, scheme, params, query_id=f"q{i}", **kw))
            for i, q in enumerate(queries)]


def batch_dumps(queries, db, scheme, params, **kw):
    ids = [f"q{i}" for i in range(len(queries))]
    return [dump(r) for r in search_batch(queries, db, scheme, params,
                                          query_ids=ids, **kw)]


# ----------------------------------------------------------------------
# The combined lookup structure
# ----------------------------------------------------------------------
def test_query_batch_scan_matches_per_index_scans():
    rng = np.random.default_rng(50)
    db = random_nt_db(rng, 15)
    structs = build_scan_structures(db, 11, 4)
    queries = [db.sequence(i)[:120].copy() for i in (1, 4, 9, 12)]
    indexes = [WordIndex.for_dna(q, 11) for q in queries]
    batch = QueryBatch(indexes)

    batched = scan_fragment_batch(batch, structs)
    for eid, ix in enumerate(indexes):
        mine = [(sid, spos.tolist(), qpos.tolist())
                for geid, sid, spos, qpos in batched if geid == eid]
        solo = [(sid, spos.tolist(), qpos.tolist())
                for sid, spos, qpos in scan_fragment(ix, structs)]
        assert mine == solo, f"entry {eid} diverges from its solo scan"


def test_query_batch_rejects_mixed_word_sizes():
    rng = np.random.default_rng(51)
    db = random_nt_db(rng, 4)
    q = db.sequence(0)[:80].copy()
    with pytest.raises(ValueError):
        QueryBatch([WordIndex.for_dna(q, 11), WordIndex.for_dna(q, 12)])


# ----------------------------------------------------------------------
# search_batch byte-identity
# ----------------------------------------------------------------------
def test_search_batch_matches_sequential_nt_both_strands():
    rng = np.random.default_rng(52)
    db = random_nt_db(rng, 30)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:140].copy() for i in (0, 7, 14, 21, 28)]
    assert batch_dumps(queries, db, scheme, params) == \
        sequential_dumps(queries, db, scheme, params)


def test_search_batch_matches_sequential_protein():
    rng = np.random.default_rng(53)
    db = random_aa_db(rng, 24)
    scheme = ProteinScore()
    params = SearchParams(word_size=3, neighbor_threshold=11,
                          xdrop_ungapped=16)
    queries = [db.sequence(i)[:70].copy() for i in (2, 8, 15, 20)]
    assert batch_dumps(queries, db, scheme, params, both_strands=False) == \
        sequential_dumps(queries, db, scheme, params, both_strands=False)


def test_search_batch_matches_sequential_with_masking():
    rng = np.random.default_rng(54)
    db = random_nt_db(rng, 20)
    # Low-complexity runs the DUST filter actually masks.
    db.add("lc", "ATATATATATAT" * 20)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11, filter_low_complexity=True)
    queries = [db.sequence(3)[:130].copy(),
               db.sequence(len(db) - 1)[:150].copy(),
               db.sequence(11)[:130].copy()]
    assert batch_dumps(queries, db, scheme, params) == \
        sequential_dumps(queries, db, scheme, params)


def test_search_batch_empty_short_and_duplicate_queries():
    rng = np.random.default_rng(55)
    db = random_nt_db(rng, 18)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(5)[:120].copy()
    queries = [np.array([], dtype=np.uint8),      # empty
               db.sequence(2)[:7].copy(),         # shorter than word size
               q, q.copy(),                       # exact duplicates
               db.sequence(9)[:100].copy()]
    assert batch_dumps(queries, db, scheme, params) == \
        sequential_dumps(queries, db, scheme, params)
    # Degenerate whole-batch cases.
    assert search_batch([], db, scheme, params) == []
    only_short = search_batch([np.array([], dtype=np.uint8)], db, scheme,
                              params)
    assert len(only_short) == 1 and only_short[0].hits == []


def test_search_batch_loop_engine_and_validation():
    rng = np.random.default_rng(56)
    db = random_nt_db(rng, 12)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:90].copy() for i in (1, 6)]
    reference = [dump(reference_search(q, db, scheme, params,
                                       query_id=f"q{i}"))
                 for i, q in enumerate(queries)]
    assert batch_dumps(queries, db, scheme, params) == reference
    with pytest.raises(ValueError):
        search_batch(queries, db, scheme, params, query_ids=["just-one"])


# ----------------------------------------------------------------------
# Batch planning
# ----------------------------------------------------------------------
def test_plan_query_batches_shapes():
    assert plan_query_batches(0, 2) == []
    assert plan_query_batches(6, 2, max_batch=32) == [(0, 1, 2, 3, 4, 5)]
    assert plan_query_batches(7, 2, max_batch=3) == [(0, 1, 2), (3, 4),
                                                     (5, 6)]
    for n in (1, 2, 5, 17, 64):
        for max_batch in (1, 3, 32):
            groups = plan_query_batches(n, 2, max_batch=max_batch)
            flat = [qi for g in groups for qi in g]
            assert flat == list(range(n))
            assert all(len(g) <= max_batch for g in groups)
            assert max(len(g) for g in groups) - \
                min(len(g) for g in groups) <= 1


# ----------------------------------------------------------------------
# Through the pool
# ----------------------------------------------------------------------
def test_pool_batched_tasks_byte_identical_at_two_jobs():
    rng = np.random.default_rng(57)
    db = random_nt_db(rng, 26, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:140].copy() for i in (0, 5, 12, 19, 24)]
    ids = [f"q{i}" for i in range(len(queries))]
    serial = sequential_dumps(queries, db, scheme, params)
    with ExecPool(jobs=2) as pool:
        got = pool.search_many(queries, db, scheme, params, query_ids=ids,
                               n_fragments=4)
        # Per-call cap: 2 groups of 3+2 queries, still byte-identical.
        capped = pool.search_many(queries, db, scheme, params,
                                  query_ids=ids, n_fragments=4,
                                  query_batch=3)
    assert [dump(r) for r in got] == serial
    assert [dump(r) for r in capped] == serial


def test_pool_hedges_batched_range_task_under_fault():
    rng = np.random.default_rng(58)
    db = random_nt_db(rng, 24, min_len=100, max_len=300)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:150].copy() for i in (2, 9, 17)]
    serial = sequential_dumps(queries, db, scheme, params)
    plan = FaultPlan(faults=(Fault("drop_result", rank=0, task_index=0),))
    with ExecPool(jobs=2, fault_plan=plan, hedge_after=0.25,
                  task_timeout=2.0) as pool:
        got = pool.search_many(queries, db, scheme, params,
                               query_ids=[f"q{i}"
                                          for i in range(len(queries))],
                               n_fragments=4)
        ledger = pool.ledger.summary()
        recovered = [e.task for e in pool.ledger.entries
                     if e.kind in ("hedge", "requeue", "hang_kill")]
    assert [dump(r) for r in got] == serial
    assert ledger.get("hedge", 0) + ledger.get("requeue", 0) >= 1
    # The recovered unit is a whole batched range task: a tuple of
    # query indexes crossed with a tuple of pack names.
    assert recovered
    qis, names = recovered[0]
    assert isinstance(qis, tuple) and len(qis) == len(queries)
    assert isinstance(names, tuple) and len(names) >= 1


def test_injector_matches_query_inside_batch():
    from repro.exec import FaultInjector

    plan = FaultPlan(faults=(Fault("slow", query=2, delay=0.0),))
    inj = FaultInjector(plan, rank=0)
    assert inj.on_task((0, 1), (0,)) is None       # 2 not in the batch
    fault = inj.on_task((1, 2, 3), (0, 1))
    assert fault is not None and fault.kind == "slow"


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
def test_profile_emits_stage_json_to_stderr(monkeypatch, capsys):
    monkeypatch.setenv(PROFILE_ENV, "1")
    rng = np.random.default_rng(59)
    db = random_nt_db(rng, 15)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:120].copy() for i in (1, 6, 11)]
    search(queries[0], db, scheme, params)
    search_batch(queries, db, scheme, params)
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2, "one JSON line per top-level search"
    single, batched = (json.loads(line) for line in err)
    assert single["profile"] == "search"
    assert batched["profile"] == "search_batch"
    assert batched["n_queries"] == len(queries)
    for doc in (single, batched):
        assert set(doc["stages"]) <= {"index", "pack", "scan", "seed",
                                      "extend", "gapped", "gapped_bulk"}
        assert doc["total_s"] >= 0.0
    assert batched["counters"].get("seeds", 0) >= 0


def test_profile_disabled_is_silent(monkeypatch, capsys):
    monkeypatch.setenv(PROFILE_ENV, "0")
    rng = np.random.default_rng(60)
    db = random_nt_db(rng, 8)
    search(db.sequence(1)[:90].copy(), db, NucleotideScore(),
           SearchParams(word_size=11))
    assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_batched_tabular_output_matches_no_query_batch(tmp_path, capsys):
    """A multi-query serial run (one batched pass) prints exactly what
    the same queries print one at a time, without query batching."""
    from repro.cli import main

    rng = np.random.default_rng(61)
    db = random_nt_db(rng, 16, min_len=120, max_len=300)
    db.write(str(tmp_path))
    fasta = tmp_path / "q.fasta"
    records = [f">q{i}\n{''.join(NT_LETTERS[db.sequence(i)[:130]])}\n"
               for i in (0, 4, 9, 13)]
    fasta.write_text("".join(records))
    dbpath = str(tmp_path / db.name)

    assert main(["blastn", "-d", dbpath, "-i", str(fasta),
                 "-m", "tabular"]) == 0
    batched_out = capsys.readouterr().out
    # A one-query FASTA takes the per-query search() dispatch.
    serial_out = ""
    for rec in records:
        one = tmp_path / "one.fasta"
        one.write_text(rec)
        assert main(["blastn", "-d", dbpath, "-i", str(one),
                     "-m", "tabular"]) == 0
        serial_out += capsys.readouterr().out
    assert batched_out == serial_out
    assert batched_out.strip(), "tabular output should not be empty"
