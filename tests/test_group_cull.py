"""The dead-group cull of the bulk one-hit driver.

After the bulk ungapped extension, ``search_batch`` drops every hit
group whose best seed score is below both the gapped trigger (when
gapped refinement is on) and the smallest score whose E-value passes
the cutoff.  Such a group can neither trigger a gapped DP nor emit an
HSP, so the cull must never change output.  Every case here compares
``search_batch`` byte for byte against per-query ``search`` (whose scan
branch never culls) and against the ``engine="loop"`` reference, with
the cut placed on both sides of the trigger and at the exact threshold
score.
"""

import dataclasses

import numpy as np
import pytest

from repro.blast.profile import profiled
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import (SearchParams, _live_groups, resolve_ka,
                                search, search_batch)
from repro.blast.seqdb import AA, NT, SequenceDB

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


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
    """A stretch of subject *sid* with every *period*-th residue
    changed: many short seeds whose ungapped scores straddle the
    cut-offs."""
    q = db.sequence(sid)[:length].copy()
    alphabet = 4 if db.seqtype == NT else 20
    q[::period] = (q[::period] + rng.integers(1, alphabet)) % alphabet
    return q


@pytest.fixture(scope="module")
def nt_case():
    rng = np.random.default_rng(2024)
    db = random_db(rng, NT, 40, 150, 500)
    queries = [mutated(db, sid, rng, period, 140)
               for sid, period in ((0, 13), (5, 9), (11, 17), (23, 7))]
    # A low-complexity query: hits all over the fragment, mostly weak.
    queries.append(np.array([0, 1] * 30 + [2, 3, 3] * 20, dtype=np.uint8))
    return db, queries


def check_identical(queries, db, scheme, params, **kw):
    """search_batch == per-query search == loop engine, byte for byte.
    Returns the batch's profile counters."""
    n = len(queries)
    ids = [f"q{i}" for i in range(n)]
    identity = kw.pop("identity_queries", [None] * n)
    spaces = kw.pop("effective_spaces", [None] * n)
    with profiled("test", enabled=True, emit=False) as prof:
        batch = search_batch(queries, db, scheme, params, query_ids=ids,
                             identity_queries=identity,
                             effective_spaces=spaces, **kw)
    loop = search_batch(queries, db, scheme, params, query_ids=ids,
                        identity_queries=identity, effective_spaces=spaces,
                        engine="loop", **kw)
    single = [search(q, db, scheme, params, query_id=ids[i],
                     identity_query=identity[i],
                     effective_space=spaces[i], **kw)
              for i, q in enumerate(queries)]
    got = [dump(r) for r in batch]
    assert got == [dump(r) for r in single]
    assert got == [dump(r) for r in loop]
    return prof.counters


def evalue_floor(ka, cutoff, m, n):
    score = 1
    while ka.evalue(score, m, n) > cutoff:
        score += 1
    return score


@pytest.mark.parametrize("cutoff", [1e-30, 10.0, 1e6])
@pytest.mark.parametrize("gapped", [True, False])
def test_cutoffs_gapped_and_ungapped(nt_case, cutoff, gapped):
    """Scored as one fragment of a 16M-residue database, the space the
    pool's workers search with — large enough that weak groups die."""
    db, queries = nt_case
    params = SearchParams(evalue_cutoff=cutoff, gapped=gapped)
    spaces = [(len(q), 16_000_000) for q in queries]
    counters = check_identical(queries, db, NucleotideScore(), params,
                               effective_spaces=spaces)
    if cutoff <= 10.0:
        assert counters.get("groups_culled", 0) > 0


@pytest.mark.parametrize("side", [-4, 0, 4])
def test_trigger_around_the_evalue_threshold(nt_case, side):
    db, queries = nt_case
    scheme = NucleotideScore()
    params = SearchParams(evalue_cutoff=1e-3)
    ka = resolve_ka(scheme, params, False)
    floor = evalue_floor(ka, params.evalue_cutoff, len(queries[0]),
                         db.total_residues)
    params = dataclasses.replace(params, gapped_trigger=floor + side)
    check_identical(queries, db, scheme, params)


def test_effective_space_overrides(nt_case):
    db, queries = nt_case
    spaces = [(1000, 10 ** 9), None, (50, 1000), (len(queries[3]), 1),
              (10 ** 6, 10 ** 7)]
    for cutoff in (1e-5, 10.0):
        check_identical(queries, db, NucleotideScore(),
                        SearchParams(evalue_cutoff=cutoff),
                        effective_spaces=spaces)


@pytest.mark.parametrize("both_strands", [True, False])
def test_masked_queries_and_strands(nt_case, both_strands):
    db, queries = nt_case
    params = SearchParams(filter_low_complexity=True, evalue_cutoff=1.0)
    check_identical(queries, db, NucleotideScore(), params,
                    both_strands=both_strands)


@pytest.mark.parametrize("cutoff", [1e-8, 10.0])
def test_protein_one_hit_with_identity_queries(cutoff):
    rng = np.random.default_rng(7)
    db = random_db(rng, AA, 30, 60, 220)
    queries = [mutated(db, sid, rng, 5, 120) for sid in (2, 9, 17)]
    identity = [mutated(db, sid, rng, 3, 120) for sid in (2, 9, 17)]
    identity[1] = None
    params = SearchParams(word_size=3, two_hit_window=0,
                          evalue_cutoff=cutoff)
    counters = check_identical(queries, db, ProteinScore(), params,
                               identity_queries=identity)
    assert counters.get("groups_culled", 0) > 0


def planted_db(rng, query, start, length):
    """A database whose subject 0 holds ``query[start:start+length]``
    flanked by residues that mismatch the query's neighbours, so its
    only strong group scores exactly *length* (+1 per match)."""
    flank = 30
    left = (query[start - flank:start] + 1) % 4
    right = (query[start + length:start + length + flank] + 1) % 4
    subject = np.concatenate([left, query[start:start + length], right])
    db = SequenceDB(NT)
    db.add("planted", subject.astype(np.uint8))
    for i in range(6):
        db.add(f"r{i}", "".join(NT_LETTERS[rng.integers(0, 4, 200)]))
    return db


@pytest.mark.parametrize("gapped", [True, False])
def test_boundary_group_at_the_threshold_is_kept(gapped):
    rng = np.random.default_rng(99)
    query = rng.integers(0, 4, 200).astype(np.uint8)
    length = 40
    db = planted_db(rng, query, 60, length)
    scheme = NucleotideScore()
    base = SearchParams(gapped=gapped, gapped_trigger=length + 10)
    ka = resolve_ka(scheme, base, False)
    at = ka.evalue(length, len(query), db.total_residues)

    # Cut-off exactly at the group's best score's E-value: the floor is
    # that very score, and the group must survive.
    params = dataclasses.replace(base, evalue_cutoff=at)
    assert evalue_floor(ka, at, len(query), db.total_residues) == length
    check_identical([query], db, scheme, params)
    res = search_batch([query], db, scheme, params)[0]
    assert [(h.subject_id, h.hsps[0].score) for h in res.hits] == \
        [(0, length)]

    # One ulp tighter: the floor moves past the best score, the group
    # is culled, and the engines still agree (on nothing reported).
    params = dataclasses.replace(base, evalue_cutoff=np.nextafter(at, 0.0))
    counters = check_identical([query], db, scheme, params)
    assert search_batch([query], db, scheme, params)[0].hits == []
    assert counters.get("groups_culled", 0) >= 1


def test_live_groups_keeps_best_equal_to_floor():
    scheme = NucleotideScore()
    params = SearchParams(gapped=False, evalue_cutoff=1e-3)
    ka = resolve_ka(scheme, params, False)
    space = (500, 10 ** 6)
    floor = evalue_floor(ka, params.evalue_cutoff, *space)
    # Four groups, group-major seeds, with best scores floor,
    # floor - 1, none (no seeds) and floor + 3.
    scores = np.array([floor, 2, floor - 1, 1, floor + 3], dtype=np.int64)
    bounds = np.array([0, 2, 4, 4, 5])
    g_eid = np.zeros(4, dtype=np.int64)
    live = _live_groups(scores, bounds, g_eid, [(0, None, 1)], [space],
                        params, ka)
    assert live == [0, 3]
    gapped = dataclasses.replace(params, gapped=True, gapped_trigger=2)
    assert _live_groups(scores, bounds, g_eid, [(0, None, 1)], [space],
                        gapped, ka) == [0, 1, 3]
