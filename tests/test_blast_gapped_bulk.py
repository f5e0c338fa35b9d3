"""Equivalence battery for the batched score-only gapped stage.

The two-pass gapped pipeline (``bulk_banded_score`` forward pass +
pointer-matrix traceback for survivors) must be *byte-identical* to the
scalar reference path.  Two layers of checks:

1. Kernel level — ``bulk_banded_score`` returns exactly the scalar
   ``banded_local_align``'s ``(score, q_end, s_end)`` per candidate,
   over random nt / protein / PSSM corpora, band widths 4/24/64, and
   the ``gap_open == gap_extend`` recurrence fallback.

2. Pipeline level — culling (diagonal memoization, E-value reject
   skips) never changes the rendered output: full result dumps and
   tabular text match the scalar path through ``search``,
   ``search_batch`` (two-hit and one-hit seeding) and the PSI-BLAST
   PSSM rounds, and the reference oracle through the process pool at
   two jobs.  The scalar side is the same driver with the bulk route
   out of reach (:func:`scalar_route`).
"""

import dataclasses
import importlib
import math
from unittest import mock

import numpy as np
import pytest

from repro.blast.gapped import banded_local_align, bulk_banded_score
from repro.blast.profile import profiled
from repro.blast.psiblast import psiblast
from repro.blast.reference import reference_search
from repro.blast.score import (
    BLOSUM62,
    NucleotideScore,
    ProteinScore,
    ScoringScheme,
)
from repro.blast.search import SearchParams, search, search_batch
from repro.blast.seqdb import AA, NT, SequenceDB

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


# ----------------------------------------------------------------------
# Corpus helpers
# ----------------------------------------------------------------------
def random_nt_db(rng, n_seqs, min_len=60, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=60, max_len=250):
    db = SequenceDB(AA)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"p{i}", "".join(AA_LETTERS[rng.integers(0, 20, length)]))
    return db


def mutated_query(db, index, rng, period=9, length=250):
    """An extract with periodic substitutions: keeps seeds alive while
    forcing plenty of near-threshold gapped candidates."""
    q = db.sequence(index)[:length].copy()
    base = 4 if db.seqtype == NT else 20
    q[::period] = (q[::period] + int(rng.integers(1, base))) % base
    return q


def dump(results):
    """Full byte-level result dump (every HSP field, hit order, ids)."""
    return (results.query_id, results.query_len,
            [(h.subject_id, h.description, h.subject_len,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


# ----------------------------------------------------------------------
# 1. Kernel equivalence: bulk scores == scalar traceback scores
# ----------------------------------------------------------------------
def _random_candidates(rng, alphabet_size, n_cand, max_len=90):
    """Random (query, subject, diag) triples packed into flat
    concatenations the way the search driver packs them."""
    q_seqs, s_seqs = [], []
    q_off, q_len, s_off, s_len, diag = [], [], [], [], []
    qpos = spos = 0
    for _ in range(n_cand):
        ql = int(rng.integers(5, max_len))
        sl = int(rng.integers(5, max_len))
        q = rng.integers(0, alphabet_size, ql).astype(np.int64)
        s = rng.integers(0, alphabet_size, sl).astype(np.int64)
        if rng.random() < 0.5:  # half the corpus: planted homology
            k = min(ql, sl)
            s[:k] = q[:k]
            s[::7] = rng.integers(0, alphabet_size, len(s[::7]))
        # Deliberately include diagonals at and beyond the valid range.
        d = int(rng.integers(-ql - 8, sl + 8))
        q_seqs.append(q)
        s_seqs.append(s)
        q_off.append(qpos)
        q_len.append(ql)
        s_off.append(spos)
        s_len.append(sl)
        diag.append(d)
        qpos += ql
        spos += sl
    qcat = np.concatenate(q_seqs)
    scat = np.concatenate(s_seqs)
    return (qcat, scat, np.array(q_off), np.array(q_len),
            np.array(s_off), np.array(s_len), np.array(diag))


def _assert_bulk_matches_scalar(rng, scheme, alphabet_size, band,
                                n_cand=300):
    qcat, scat, q_off, q_len, s_off, s_len, diag = _random_candidates(
        rng, alphabet_size, n_cand)
    score, qend, send = bulk_banded_score(
        qcat, scat, q_off, q_len, s_off, s_len, diag, scheme, band=band)
    for c in range(n_cand):
        q = qcat[q_off[c]:q_off[c] + q_len[c]]
        s = scat[s_off[c]:s_off[c] + s_len[c]]
        aln = banded_local_align(q, s, int(diag[c]), scheme, band=band)
        want = ((aln.score, aln.q_end, aln.s_end) if aln.score > 0
                else (0, 0, 0))
        got = (int(score[c]), int(qend[c]), int(send[c]))
        assert got == want, (
            f"candidate {c}: bulk {got} != scalar {want} "
            f"(ql={q_len[c]} sl={s_len[c]} diag={diag[c]} band={band})")


@pytest.mark.parametrize("band", [4, 24, 64])
def test_bulk_matches_scalar_nucleotide(band):
    rng = np.random.default_rng(100 + band)
    _assert_bulk_matches_scalar(rng, NucleotideScore(), 4, band)


@pytest.mark.parametrize("band", [4, 24, 64])
def test_bulk_matches_scalar_protein(band):
    rng = np.random.default_rng(200 + band)
    _assert_bulk_matches_scalar(rng, ProteinScore(), 20, band)


@pytest.mark.parametrize("band", [4, 24])
def test_bulk_matches_scalar_pssm(band):
    """PSI-BLAST passes query *positions* and a per-position matrix;
    the kernel must gather through that matrix identically."""
    rng = np.random.default_rng(300 + band)
    m = 80  # position count: every query is positions 0..ql-1 < m
    matrix = rng.integers(-4, 9, size=(m, 25)).astype(np.int32)
    matrix.setflags(write=False)
    scheme = ScoringScheme(matrix, 11, 1, "pssm")
    # Queries are position runs, subjects are residues — build by hand.
    q_seqs, s_seqs = [], []
    q_off, q_len, s_off, s_len, diag = [], [], [], [], []
    qpos = spos = 0
    for _ in range(200):
        ql = int(rng.integers(5, m))
        sl = int(rng.integers(5, 90))
        q_seqs.append(np.arange(ql, dtype=np.int64))
        s_seqs.append(rng.integers(0, 20, sl).astype(np.int64))
        q_off.append(qpos)
        q_len.append(ql)
        s_off.append(spos)
        s_len.append(sl)
        diag.append(int(rng.integers(-ql - 4, sl + 4)))
        qpos += ql
        spos += sl
    qcat, scat = np.concatenate(q_seqs), np.concatenate(s_seqs)
    score, qend, send = bulk_banded_score(
        qcat, scat, np.array(q_off), np.array(q_len),
        np.array(s_off), np.array(s_len), np.array(diag), scheme,
        band=band)
    for c in range(len(diag)):
        q = qcat[q_off[c]:q_off[c] + q_len[c]]
        s = scat[s_off[c]:s_off[c] + s_len[c]]
        aln = banded_local_align(q, s, diag[c], scheme, band=band)
        want = ((aln.score, aln.q_end, aln.s_end) if aln.score > 0
                else (0, 0, 0))
        assert (int(score[c]), int(qend[c]), int(send[c])) == want


def test_bulk_gap_open_equals_extend_fallback():
    """gap_open == gap_extend switches the kernel to the per-slot
    E-scan loop; it must stay exact there too."""
    rng = np.random.default_rng(7)
    scheme = NucleotideScore(gap_open=2, gap_extend=2)
    _assert_bulk_matches_scalar(rng, scheme, 4, band=8, n_cand=200)
    scheme = ScoringScheme(BLOSUM62, 3, 3, "aa")
    _assert_bulk_matches_scalar(rng, scheme, 20, band=24, n_cand=150)


def test_bulk_empty_and_degenerate_inputs():
    scheme = NucleotideScore()
    empty = np.array([], dtype=np.int64)
    score, qend, send = bulk_banded_score(
        empty, empty, empty, empty, empty, empty, empty, scheme)
    assert len(score) == len(qend) == len(send) == 0
    # Single candidate whose band misses the subject entirely.
    q = np.array([0, 1, 2, 3], dtype=np.int64)
    s = np.array([0, 1, 2, 3], dtype=np.int64)
    score, qend, send = bulk_banded_score(
        q, s, np.array([0]), np.array([4]), np.array([0]), np.array([4]),
        np.array([500]), scheme, band=4)
    assert (int(score[0]), int(qend[0]), int(send[0])) == (0, 0, 0)


# ----------------------------------------------------------------------
# 2. Pipeline equivalence: culling never changes rendered output
# ----------------------------------------------------------------------
def scalar_route():
    """Send every gapped refinement down the scalar path: the bulk
    route's candidate threshold becomes unreachable."""
    # By module object: ``repro.blast.search`` as an attribute path
    # names the exported function, not the module.
    module = importlib.import_module("repro.blast.search")
    return mock.patch.object(module, "_BULK_MIN_CANDIDATES", math.inf)


@pytest.mark.parametrize("evalue_cutoff", [10.0, 1e-2])
def test_search_nt_byte_identical(evalue_cutoff):
    rng = np.random.default_rng(40)
    db = random_nt_db(rng, 25)
    params = SearchParams(evalue_cutoff=evalue_cutoff)
    for qi in (2, 7, 11):
        q = mutated_query(db, qi, rng, period=29, length=220)
        bulk = search(q, db, NucleotideScore(), params, query_id="q")
        with scalar_route():
            scal = search(q, db, NucleotideScore(), params, query_id="q")
        assert dump(bulk) == dump(scal)
        assert bulk.tabular() == scal.tabular()


@pytest.mark.parametrize("band", [4, 24])
def test_search_protein_byte_identical(band):
    rng = np.random.default_rng(41)
    db = random_aa_db(rng, 30)
    params = SearchParams(word_size=3, band=band)
    for qi in (1, 5, 9):
        q = mutated_query(db, qi, rng, period=9, length=200)
        with profiled("t", enabled=True, emit=False) as prof:
            bulk = search(q, db, ProteinScore(), params, query_id="q")
        assert "gapped_bulk" in prof.stages
        with scalar_route(), \
                profiled("t", enabled=True, emit=False) as prof:
            scal = search(q, db, ProteinScore(), params, query_id="q")
        assert "gapped_bulk" not in prof.stages
        assert dump(bulk) == dump(scal)
        assert bulk.tabular() == scal.tabular()


@pytest.mark.parametrize("two_hit_window", [40, 0])
def test_search_batch_byte_identical(two_hit_window):
    """Both seeding paths: two-hit (grouped candidates) and one-hit
    (the vectorized bulk-group driver)."""
    rng = np.random.default_rng(42)
    db = random_aa_db(rng, 20)
    params = SearchParams(word_size=3, two_hit_window=two_hit_window)
    queries = [mutated_query(db, qi, rng, period=9, length=180)
               for qi in (0, 3, 6, 12)]
    ids = [f"q{i}" for i in range(len(queries))]
    bulk = search_batch(queries, db, ProteinScore(), params,
                        query_ids=ids)
    with scalar_route():
        scal = search_batch(queries, db, ProteinScore(), params,
                            query_ids=ids)
    assert [dump(r) for r in bulk] == [dump(r) for r in scal]


def test_pool_two_jobs_byte_identical():
    from repro.exec import ExecPool

    rng = np.random.default_rng(43)
    db = random_nt_db(rng, 24, min_len=100, max_len=300)
    params = SearchParams()
    scheme = NucleotideScore()
    queries = [mutated_query(db, qi, rng, period=29, length=200)
               for qi in (1, 8, 15)]
    ids = [f"q{i}" for i in range(len(queries))]
    with ExecPool(jobs=2) as pool:
        pooled = pool.search_many(queries, db, scheme, params,
                                  query_ids=ids, n_fragments=4)
    serial = [reference_search(q, db, scheme, params, query_id=qid)
              for q, qid in zip(queries, ids)]
    assert [dump(r) for r in pooled] == [dump(r) for r in serial]


def test_psiblast_pssm_rounds_byte_identical():
    """Round >= 2 searches position indices against a PSSM scheme with
    ``identity_query`` set — the bulk path must survive that too."""
    rng = np.random.default_rng(44)
    db = random_aa_db(rng, 15, min_len=80, max_len=200)
    # Plant a family so the PSSM rounds have material to include.
    seed_seq = db.sequence_str(0)[:120]
    fam = np.frombuffer(seed_seq.encode(), dtype=np.uint8).copy()
    for i in range(4):
        mutant = fam.copy()
        mutant[i + 1::11] = np.frombuffer(
            b"ARND", dtype=np.uint8)[rng.integers(0, 4, len(mutant[i + 1::11]))]
        db.add(f"fam{i}", mutant.tobytes().decode())
    bulk = psiblast(seed_seq, db, iterations=3)
    with scalar_route():
        scal = psiblast(seed_seq, db, iterations=3)
    assert bulk.n_iterations == scal.n_iterations
    assert bulk.converged == scal.converged
    assert ([dump(r) for r in bulk.iterations]
            == [dump(r) for r in scal.iterations])


def test_tiny_workloads_route_to_scalar():
    """Below ``_BULK_MIN_CANDIDATES`` triggered candidates the batched
    pass costs more than it culls, so the driver routes to the scalar
    path — no ``gapped_bulk`` stage, identical output (both exact)."""
    rng = np.random.default_rng(49)
    db = random_nt_db(rng, 10)
    q = mutated_query(db, 2, rng, period=29, length=200)
    params = SearchParams()
    with profiled("t", enabled=True, emit=False) as prof:
        bulk = search(q, db, NucleotideScore(), params, query_id="q")
    assert prof.counters.get("gapped_trials", 0) > 0  # gapped work ran
    assert "gapped_bulk" not in prof.stages
    with scalar_route():
        scal = search(q, db, NucleotideScore(), params, query_id="q")
    assert dump(bulk) == dump(scal)


def test_counters_traceback_bounded_by_trials():
    rng = np.random.default_rng(46)
    db = random_aa_db(rng, 25)
    q = mutated_query(db, 4, rng, period=9, length=220)
    params = SearchParams(word_size=3)
    with profiled("t", enabled=True, emit=False) as prof:
        search(q, db, ProteinScore(), params, query_id="q")
    c = prof.counters
    assert c.get("gapped_trials", 0) > 0
    assert 0 < c.get("gapped_traceback", 0) <= c["gapped_trials"]
    # The whole point of the two-pass stage: most candidates resolve
    # without a pointer-matrix DP on a noisy corpus.
    assert c.get("gapped_culled", 0) > 0


def test_gapped_method_xdrop_unaffected():
    """gapped_method='xdrop' bypasses the banded pipeline entirely —
    the bulk route must never engage there."""
    rng = np.random.default_rng(48)
    db = random_nt_db(rng, 10)
    q = mutated_query(db, 1, rng, period=29, length=180)
    params = SearchParams(gapped_method="xdrop")
    bulk = search(q, db, NucleotideScore(), params, query_id="q")
    with scalar_route():
        scal = search(q, db, NucleotideScore(), params, query_id="q")
    assert dump(bulk) == dump(scal)


def test_no_candidates_no_crash():
    """A query with zero seeds exercises the empty-job path."""
    db = SequenceDB(NT)
    db.add("s0", "ACGT" * 40)
    q = np.zeros(30, dtype=np.uint8)  # poly-A: seeds, but vs poly-ACGT
    q[:] = 2  # poly-G — no 11-mer matches ACGT repeats
    res = search(q, db, NucleotideScore(), SearchParams(), query_id="q")
    assert res.hits == []
