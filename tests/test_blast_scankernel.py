"""The concatenated-fragment scan kernel and its cache.

Covers exact equivalence of ``search`` with the per-subject
:func:`~repro.blast.reference.reference_search` oracle (nt and
protein, both strands, randomized databases), the oracle's runtime
boundary, the sentinel masking that keeps windows from
spanning sequence boundaries, degenerate databases (short/empty/single
sequences), the bounded LRU ScanCache, the batched ungapped extension,
and the vectorised within-row E scan of the gapped aligner.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.blast import (ScanCache, SequenceDB, build_scan_structures,
                         default_scan_cache, scan_fragment)
from repro.blast.alphabet import encode_dna, encode_protein
from repro.blast.extend import batched_ungapped_extend, ungapped_extend
from repro.blast.kmer import (_NEIGHBOR_CACHE, _NEIGHBOR_CACHE_MAX,
                              WordIndex, _all_words, word_codes)
from repro.blast.reference import reference_search
from repro.blast.score import BLOSUM62, NucleotideScore, ProteinScore
from repro.blast.search import SearchParams, search
from repro.blast.seqdb import AA, NT

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


def random_nt_db(rng, n_seqs, min_len=5, max_len=400):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i}", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=5, max_len=200):
    db = SequenceDB(AA)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"p{i}", "".join(AA_LETTERS[rng.integers(0, 20, length)]))
    return db


def dump(results):
    return [(h.subject_id, h.subject_len,
             [dataclasses.astuple(p) for p in h.hsps])
            for h in results.hits]


# ---------------------------------------------------------------- structures

def test_structures_layout_and_codes_match_per_sequence():
    rng = np.random.default_rng(0)
    db = random_nt_db(rng, 17, min_len=3, max_len=120)
    k = 11
    structs = build_scan_structures(db, k, base=4)

    assert structs.n_sequences == len(db)
    assert structs.total_residues == db.total_residues
    # Layout: every sequence is recoverable from its slice, and the gap
    # between consecutive sequences is exactly one sentinel symbol.
    for i in range(len(db)):
        assert np.array_equal(structs.subject(i), db.sequence(i))
    sentinels = np.nonzero(structs.concat == 4)[0]
    assert len(sentinels) == len(db) - 1

    # The concatenated codes at each valid position equal the
    # per-sequence rolling codes at the corresponding local position.
    per_seq = {}
    for i in range(len(db)):
        per_seq[i] = word_codes(db.sequence(i), k, 4)
    starts = structs.starts
    for code, gpos in zip(structs.codes, structs.code_pos):
        sid = int(np.searchsorted(starts, gpos, side="right")) - 1
        local = int(gpos - starts[sid])
        assert per_seq[sid][local] == code
    # ... and every per-sequence window is present: counts match.
    assert len(structs.codes) == sum(len(v) for v in per_seq.values())


def test_sentinel_spanning_windows_produce_no_hits():
    # Two runs of A's that abut across the sentinel: a query word longer
    # than either sequence must not match the chimeric join.
    db = SequenceDB(NT)
    db.add("a", "AAAAA")
    db.add("b", "AAAAAA")
    structs = build_scan_structures(db, k=11, base=4)
    assert len(structs.codes) == 0  # no sequence has an 11-mer window

    index = WordIndex.for_dna(encode_dna("A" * 11), k=11)
    assert scan_fragment(index, structs) == []

    # Whole-pipeline view: no hits either.
    res = search(encode_dna("A" * 11), db, NucleotideScore(),
                 SearchParams(), scan_cache=ScanCache())
    assert res.hits == []


def test_short_empty_and_single_sequences():
    db = SequenceDB(NT)
    db.add("tiny", "ACG")                      # shorter than the word size
    db.add("hit", "ACGTACGTACGTACGTACGT")
    db._seqs.append(np.empty(0, dtype=np.uint8))   # empty payload
    db._descriptions.append("empty")
    db._version += 1
    structs = build_scan_structures(db, k=11, base=4)
    assert structs.n_sequences == 3
    assert np.array_equal(structs.lengths, [3, 20, 0])
    # Only the 20-mer contributes windows.
    assert len(structs.codes) == 10

    query = encode_dna("ACGTACGTACGTACGT")
    res_scan = search(query, db, NucleotideScore(), SearchParams(),
                      scan_cache=ScanCache())
    res_loop = reference_search(query, db, NucleotideScore(),
                                SearchParams())
    assert dump(res_scan) == dump(res_loop)
    assert [h.subject_id for h in res_scan.hits] == [1]


def test_single_sequence_fragment_and_empty_db():
    db = SequenceDB(NT)
    db.add("only", "ACGTACGTACGTACGTACGTACGT")
    structs = build_scan_structures(db, k=11, base=4)
    assert np.count_nonzero(structs.concat == 4) == 0   # no sentinels
    per = word_codes(db.sequence(0), 11, 4)
    assert np.array_equal(structs.codes, per)
    assert np.array_equal(structs.code_pos, np.arange(len(per)))

    empty = SequenceDB(NT)
    structs = build_scan_structures(empty, k=11, base=4)
    assert structs.n_sequences == 0
    assert len(structs.codes) == 0
    index = WordIndex.for_dna(encode_dna("ACGTACGTACGT"), k=11)
    assert scan_fragment(index, structs) == []


def test_scan_fragment_matches_per_sequence_scan():
    rng = np.random.default_rng(7)
    db = random_nt_db(rng, 40)
    k = 11
    query = encode_dna("".join(NT_LETTERS[rng.integers(0, 4, 120)]))
    index = WordIndex.for_dna(query, k)
    structs = build_scan_structures(db, k, base=4)

    got = {sid: (spos, qpos)
           for sid, spos, qpos in scan_fragment(index, structs)}
    for sid in range(len(db)):
        codes = word_codes(db.sequence(sid), k, 4)
        spos, qpos = index.scan(codes)
        if len(spos) == 0:
            assert sid not in got
        else:
            g_spos, g_qpos = got.pop(sid)
            assert np.array_equal(g_spos, spos)
            assert np.array_equal(g_qpos, qpos)
    assert got == {}  # no spurious subjects


# ------------------------------------------------------------- equivalence

def test_engines_equivalent_randomized_nt_both_strands():
    rng = np.random.default_rng(123)
    for trial in range(5):
        db = random_nt_db(rng, 30, min_len=8, max_len=500)
        # Plant a (mutated) copy of part of the query so both strands
        # and the gapped path are exercised.
        query_arr = NT_LETTERS[rng.integers(0, 4, 150)]
        planted = "".join(query_arr[20:120])
        db.add("planted", planted)
        query = encode_dna("".join(query_arr))
        for gapped in (True, False):
            params = SearchParams(gapped=gapped)
            r_scan = search(query, db, NucleotideScore(), params,
                            scan_cache=ScanCache())
            r_loop = reference_search(query, db, NucleotideScore(), params)
            assert dump(r_scan) == dump(r_loop)
        assert any(h.description == "planted" for h in r_scan.hits)


def test_engines_equivalent_randomized_protein():
    rng = np.random.default_rng(321)
    for trial in range(3):
        db = random_aa_db(rng, 25)
        seq = AA_LETTERS[rng.integers(0, 20, 90)]
        db.add("planted", "".join(seq[10:70]))
        query = encode_protein("".join(seq))
        params = SearchParams(word_size=3, neighbor_threshold=11,
                              xdrop_ungapped=16, gapped_trigger=22)
        r_scan = search(query, db, ProteinScore(), params,
                        scan_cache=ScanCache())
        r_loop = reference_search(query, db, ProteinScore(), params)
        assert dump(r_scan) == dump(r_loop)
        assert any(h.description == "planted" for h in r_scan.hits)


_BOUNDARY_SCRIPT = textwrap.dedent("""
    import os
    import sys

    from repro.blast.alphabet import encode_dna
    from repro.blast.score import NucleotideScore
    from repro.blast.search import SearchParams
    from repro.blast.seqdb import SequenceDB
    from repro.cli import main
    from repro.exec import ExecPool

    directory, name, fasta = sys.argv[1:4]
    assert main(["blastn", "-d", os.path.join(directory, name),
                 "-i", fasta, "-m", "tabular"]) == 0
    db = SequenceDB.load(directory, name)
    with ExecPool(jobs=2) as pool:
        res = pool.search(encode_dna(db.sequence_str(1)[:80]), db,
                          NucleotideScore(), SearchParams(),
                          n_fragments=2)
    assert res.hits
    assert "repro.blast.reference" not in sys.modules
    print("boundary ok")
""")


def test_reference_oracle_stays_out_of_the_runtime(tmp_path):
    """A serial CLI search and a two-worker pool search never import
    the test oracle: it must not creep back onto a runtime path."""
    rng = np.random.default_rng(5)
    db = random_nt_db(rng, 10, min_len=100, max_len=200)
    db.write(str(tmp_path))
    fasta = tmp_path / "q.fasta"
    fasta.write_text(">q\n" + db.sequence_str(3)[:90] + "\n")
    out = subprocess.run(
        [sys.executable, "-c", _BOUNDARY_SCRIPT, str(tmp_path), db.name,
         str(fasta)],
        env=dict(os.environ,
                 PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__))),
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("boundary ok")


# ----------------------------------------------------------------- the cache

def test_scan_cache_hits_and_mutation_invalidation():
    rng = np.random.default_rng(5)
    db = random_nt_db(rng, 6, min_len=30, max_len=60)
    cache = ScanCache()
    s1 = cache.get(db, 11, 4)
    s2 = cache.get(db, 11, 4)
    assert s1 is s2
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    # A different word size is a different entry.
    cache.get(db, 7, 4)
    assert cache.stats()["misses"] == 2

    # Mutation bumps the db version: stale structures are not reused.
    db.add("new", "ACGTACGTACGTACGTACGTACGT")
    s3 = cache.get(db, 11, 4)
    assert s3 is not s1
    assert s3.n_sequences == len(db)


def test_scan_cache_lru_entry_bound():
    rng = np.random.default_rng(6)
    dbs = [random_nt_db(rng, 3, min_len=20, max_len=40) for _ in range(5)]
    cache = ScanCache(max_entries=2)
    for db in dbs:
        cache.get(db, 11, 4)
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 3
    # Least-recently-used went first: the two newest survive.
    assert cache.get(dbs[-1], 11, 4) is not None
    assert cache.stats()["hits"] == 1
    cache.get(dbs[0], 11, 4)           # evicted → a fresh miss
    assert cache.stats()["misses"] == 6


def test_scan_cache_byte_bound_keeps_most_recent():
    rng = np.random.default_rng(8)
    dbs = [random_nt_db(rng, 4, min_len=200, max_len=300) for _ in range(3)]
    cache = ScanCache(max_bytes=1)       # every entry exceeds the bound
    for db in dbs:
        cache.get(db, 11, 4)
        assert len(cache) == 1           # most recent always retained
    assert cache.stats()["evictions"] == 2
    assert cache.total_bytes > 1

    with pytest.raises(ValueError):
        ScanCache(max_entries=0)
    with pytest.raises(ValueError):
        ScanCache(max_bytes=0)

    cache.clear()
    assert len(cache) == 0 and cache.total_bytes == 0


def test_default_scan_cache_is_shared_and_used_by_search():
    cache = default_scan_cache()
    assert default_scan_cache() is cache
    db = SequenceDB(NT)
    db.add("s", "ACGTACGTACGTACGTACGTACGT")
    before = cache.stats()["misses"]
    search(encode_dna("ACGTACGTACGT"), db, NucleotideScore(),
           SearchParams())
    assert cache.stats()["misses"] > before


# ------------------------------------------------------- batched extension

def test_batched_extension_matches_per_seed_reference():
    rng = np.random.default_rng(11)
    scheme = NucleotideScore()
    for trial in range(10):
        query = rng.integers(0, 4, 80).astype(np.uint8)
        subject = rng.integers(0, 4, 120).astype(np.uint8)
        # Seeds in the order the seeding functions emit them: grouped by
        # diagonal, ascending subject position within a diagonal.
        raw = sorted(
            {(int(q), int(s))
             for q, s in zip(rng.integers(0, 70, 12), rng.integers(0, 110, 12))},
            key=lambda t: (t[1] - t[0], t[1]))
        got = batched_ungapped_extend(query, subject, raw, scheme, xdrop=20)

        covered = {}
        expect = []
        for qp, sp in raw:
            dg = sp - qp
            if covered.get(dg, -1) >= sp:
                continue
            hsp = ungapped_extend(query, subject, qp, sp, scheme, xdrop=20)
            covered[dg] = hsp.s_end
            if hsp.score > 0:
                expect.append(hsp)
        assert got == expect


def test_chunked_best_prefix_matches_full_pass():
    from repro.blast.extend import _CHUNK, _best_prefix
    rng = np.random.default_rng(13)
    for trial in range(30):
        n = int(rng.integers(1, 4 * _CHUNK))
        scores = rng.integers(-3, 3, n)
        cum = np.cumsum(scores)
        runmax = np.maximum.accumulate(np.maximum(cum, 0))
        dropped = runmax - cum > 5
        stop = int(np.argmax(dropped)) if dropped.any() else n
        if stop == 0:
            expect = (0, 0)
        else:
            best = int(np.argmax(cum[:stop]))
            expect = (0, 0) if cum[best] <= 0 else (best + 1, int(cum[best]))
        assert _best_prefix(scores, 5) == expect
    assert _best_prefix(np.empty(0, dtype=np.int64), 5) == (0, 0)


# ------------------------------------------------ vectorised gapped E scan

def test_vectorized_e_scan_matches_loop():
    from repro.blast.gapped import _e_scan_loop, _e_scan_vectorized
    rng = np.random.default_rng(17)
    w = 49
    for go, ge in ((5, 2), (11, 1), (3, 2)):
        slot_ge = ge * np.arange(w)
        open_cost = go + slot_ge[:-1]
        scratch = np.empty(w, dtype=np.int64)
        for trial in range(20):
            H0 = rng.integers(-10, 40, w).astype(np.int64)
            codes0 = rng.integers(0, 2, w).astype(np.int8)

            H_l, codes_l = H0.copy(), codes0.copy()
            pe_l = np.zeros(w, dtype=np.int8)
            E_l = _e_scan_loop(H_l, codes_l, pe_l, go, ge)

            H_v, codes_v = H0.copy(), codes0.copy()
            pe_v = np.zeros(w, dtype=np.int8)
            E_v = _e_scan_vectorized(H_v, codes_v, pe_v, go, ge,
                                     slot_ge, open_cost, scratch)
            assert np.array_equal(E_l, E_v)
            assert np.array_equal(H_l, H_v)
            assert np.array_equal(codes_l, codes_v)
            assert np.array_equal(pe_l, pe_v)


def test_gap_open_not_above_extend_still_works_end_to_end():
    # gap_open <= gap_extend forces the reference scan-loop path of the
    # banded aligner; the engines must still agree.
    rng = np.random.default_rng(19)
    db = random_nt_db(rng, 10, min_len=30, max_len=120)
    seq = NT_LETTERS[rng.integers(0, 4, 100)]
    db.add("planted", "".join(seq[5:95]))
    query = encode_dna("".join(seq))
    scheme = NucleotideScore(gap_open=1, gap_extend=2)
    params = SearchParams()
    r_scan = search(query, db, scheme, params, scan_cache=ScanCache())
    r_loop = reference_search(query, db, scheme, params)
    assert dump(r_scan) == dump(r_loop)
    assert r_scan.hits


# ------------------------------------------------------ neighbour cache LRU

def test_neighbor_cache_is_bounded():
    _NEIGHBOR_CACHE.clear()
    for k, n in [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (1, 5)]:
        words = _all_words(k, n)
        assert words.shape == (n ** k, k)
        assert len(_NEIGHBOR_CACHE) <= _NEIGHBOR_CACHE_MAX
    assert len(_NEIGHBOR_CACHE) == _NEIGHBOR_CACHE_MAX
    # (1, 2) was evicted long ago; re-deriving it works and re-caches it.
    assert (1, 2) not in _NEIGHBOR_CACHE
    assert _all_words(1, 2).shape == (2, 1)
    assert (1, 2) in _NEIGHBOR_CACHE
    # Recently-used entries survive: touch (2, 3) then add a new key.
    _all_words(2, 3)
    _all_words(3, 2)
    assert (2, 3) in _NEIGHBOR_CACHE
    _NEIGHBOR_CACHE.clear()


# ------------------------------------------------- explicit token eviction

def test_scan_cache_explicit_evict_by_token():
    from repro.blast.scankernel import db_token

    rng = np.random.default_rng(9)
    db1 = random_nt_db(rng, 4, min_len=30, max_len=60)
    db2 = random_nt_db(rng, 4, min_len=30, max_len=60)
    cache = ScanCache()
    cache.get(db1, 11, 4)
    cache.get(db1, 7, 4)          # second word size, same database
    cache.get(db2, 11, 4)
    assert len(cache) == 3

    assert cache.evict(db_token(db1)) == 2
    assert len(cache) == 1        # db2's entry is untouched
    assert cache.evict(db_token(db1)) == 0
    assert cache.get(db2, 11, 4) is not None
    assert cache.stats()["hits"] == 1

    # Unknown tokens are a no-op.
    assert cache.evict(999999) == 0


def test_scan_cache_evicts_entries_when_db_is_garbage_collected():
    import gc

    rng = np.random.default_rng(10)
    cache = ScanCache()
    db = random_nt_db(rng, 3, min_len=20, max_len=40)
    cache.get(db, 11, 4)
    assert len(cache) == 1
    del db
    gc.collect()
    assert len(cache) == 0


def test_scan_cache_put_seeds_external_structures():
    rng = np.random.default_rng(11)
    db = random_nt_db(rng, 5, min_len=30, max_len=60)
    structs = build_scan_structures(db, 11, 4)
    cache = ScanCache()
    cache.put(db, 11, 4, structs)
    # A primed entry is an exact hit: no rebuild, the same object back.
    assert cache.get(db, 11, 4) is structs
    assert cache.stats() == {"hits": 1, "misses": 0, "evictions": 0,
                             "entries": 1, "bytes": structs.nbytes}
    # put participates in the LRU bound like any other entry.
    small = ScanCache(max_entries=1)
    small.put(db, 11, 4, structs)
    other = random_nt_db(rng, 3, min_len=20, max_len=40)
    small.put(other, 11, 4, build_scan_structures(other, 11, 4))
    assert len(small) == 1
    assert small.stats()["evictions"] == 1


def test_db_token_is_stable_and_unique():
    from repro.blast.scankernel import db_token

    rng = np.random.default_rng(12)
    db1 = random_nt_db(rng, 2, min_len=20, max_len=30)
    db2 = random_nt_db(rng, 2, min_len=20, max_len=30)
    t1 = db_token(db1)
    assert db_token(db1) == t1
    assert db_token(db2) != t1
