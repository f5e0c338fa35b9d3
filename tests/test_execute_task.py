"""The worker execution core, :func:`repro.exec.nodes.execute_task`.

One path serves every task: the query side is built once per task, and
each pack of the fragment range is scanned once for the whole batch.
Checked in-process against attached shared-memory packs: the query
index is built once however many packs the range holds, and single-
and multi-query tasks return exactly the ``(name, query index,
SearchResults)`` pairs a serial ``search`` per pack gives.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.blast.kmer import WordIndex
from repro.blast.scankernel import ScanCache
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import SearchParams, resolve_ka, search
from repro.blast.seqdb import AA, NT, SequenceDB, segment_db
from repro.exec.nodes import execute_task
from repro.exec.pool import JobSpec
from repro.exec.shm import (NAME_PREFIX, AttachedPack, PackDB, ShmRegistry,
                            pack_fragment)

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


def dump(results):
    """Full byte-level result dump (every HSP field, hit order, ids)."""
    return (results.query_id, results.query_len, results.db_residues,
            results.db_sequences,
            [(h.subject_id, h.description, h.subject_len, h.fragment_id,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


def random_db(rng, seqtype, n_seqs, min_len, max_len):
    letters = NT_LETTERS if seqtype == NT else AA_LETTERS
    db = SequenceDB(seqtype)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc",
               "".join(letters[rng.integers(0, len(letters), length)]))
    return db


def mutated(db, sid, rng, period, length):
    q = db.sequence(sid)[:length].copy()
    alphabet = 4 if db.seqtype == NT else 20
    q[::period] = (q[::period] + rng.integers(1, alphabet)) % alphabet
    return q


@pytest.fixture
def attach():
    """Publish fragments as packs and attach them, worker-style; every
    segment is released at teardown."""
    registry = ShmRegistry()
    attached = []

    def _attach(fragments, k, base):
        packs = {}
        for frag in fragments:
            spec = pack_fragment(frag, k, base, ("execute_task", 0,
                                                 frag.fragment_id),
                                 registry=registry)
            pack = AttachedPack(spec)
            attached.append(pack)
            packs[spec.name] = (pack, PackDB(pack))
        return packs

    yield _attach
    for pack in attached:
        pack.close()
    registry.release_all()


def make_jobs(queries, db, scheme, params):
    ka = resolve_ka(scheme, params, db.seqtype == AA)
    return {qi: JobSpec(query=q, query_id=f"q{qi}", scheme=scheme,
                        params=params, both_strands=True, ka=ka,
                        effective_space=(len(q), db.total_residues))
            for qi, q in enumerate(queries)}


def serial_pairs(packs, fragments, jobs, qis):
    by_id = {f.fragment_id: f for f in fragments}
    out = []
    for name, (pack, _db) in packs.items():
        frag = by_id[pack.spec.fragment_id]
        for qi in qis:
            job = jobs[qi]
            res = search(job.query, frag, job.scheme, job.params,
                         query_id=job.query_id, ka=job.ka,
                         effective_space=job.effective_space)
            out.append((name, qi, dump(res)))
    return out


def nt_case():
    rng = np.random.default_rng(31)
    db = random_db(rng, NT, 30, 100, 400)
    queries = [mutated(db, sid, rng, 13, 120) for sid in (1, 8, 15, 27)]
    return db, segment_db(db, 3), queries


@pytest.mark.parametrize("qis", [(2,), (0, 1, 3)])
def test_range_task_builds_the_query_index_once(attach, monkeypatch, qis):
    db, fragments, queries = nt_case()
    scheme, params = NucleotideScore(), SearchParams()
    packs = attach(fragments, params.word_size, 4)
    jobs = make_jobs(queries, db, scheme, params)
    expected = serial_pairs(packs, fragments, jobs, qis)

    calls = []
    for_dna = WordIndex.for_dna

    def counting(*args, **kwargs):
        calls.append(args[0])
        return for_dna(*args, **kwargs)

    monkeypatch.setattr(WordIndex, "for_dna", counting)
    pairs, elapsed, frag_ids = execute_task(packs, jobs, qis, list(packs),
                                            ScanCache())
    # One index per query orientation, not one per (pack, orientation).
    assert len(calls) == 2 * len(qis)
    assert elapsed >= 0
    assert frag_ids == [p.spec.fragment_id for p, _ in packs.values()]
    assert [(n, q, dump(r)) for n, q, r in pairs] == expected


@pytest.mark.parametrize("qis", [(1,), (0, 2)])
def test_protein_tasks_match_serial_per_pack(attach, qis):
    rng = np.random.default_rng(32)
    db = random_db(rng, AA, 24, 60, 200)
    queries = [mutated(db, sid, rng, 7, 100) for sid in (3, 11, 19)]
    fragments = segment_db(db, 2)
    scheme, params = ProteinScore(), SearchParams(word_size=3)
    packs = attach(fragments, params.word_size, 20)
    jobs = make_jobs(queries, db, scheme, params)
    pairs, _, _ = execute_task(packs, jobs, qis, list(packs), ScanCache())
    assert [(n, q, dump(r)) for n, q, r in pairs] == \
        serial_pairs(packs, fragments, jobs, qis)
