"""The per-subject reference search, a test and benchmark oracle.

:func:`reference_search` is the original search driver: word codes
recomputed for every subject and orientation, then the scalar seeding,
extension and gapped path, one subject at a time.  The drivers in
:mod:`repro.blast.search` must match it byte for byte, and the engine
benchmarks time their speedup gates against it, so keep it as it is:
a faster oracle weakens those gates.  No runtime module imports it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.blast.kmer import WordIndex, dna_word_codes, protein_word_codes
from repro.blast.profile import profiled
from repro.blast.score import ScoringScheme
from repro.blast.search import (HSP, Hit, SearchParams, SearchResults,
                                _candidates_to_hsps, _collect_candidates,
                                _query_orientations, _search_space,
                                resolve_ka)
from repro.blast.seqdb import AA, SequenceDB
from repro.blast.stats import KarlinAltschul


def reference_search(query: np.ndarray, db: SequenceDB,
                     scheme: ScoringScheme,
                     params: Optional[SearchParams] = None,
                     query_id: str = "query",
                     ka: Optional[KarlinAltschul] = None,
                     both_strands: bool = True,
                     identity_query: Optional[np.ndarray] = None,
                     effective_space: Optional[Tuple[int, int]] = None
                     ) -> SearchResults:
    """:func:`repro.blast.search.search`, one subject at a time.

    Takes the same arguments as ``search`` except the scan cache, which
    this driver never uses, and returns identical results.
    """
    with profiled("reference_search", query_id=query_id,
                  query_len=len(query)):
        params = params or SearchParams()
        is_protein = db.seqtype == AA
        if ka is None:
            ka = resolve_ka(scheme, params, is_protein)
        m = len(query)
        n_total = db.total_residues
        results = SearchResults(query_id=query_id, query_len=m,
                                db_residues=n_total, db_sequences=len(db))
        if m < params.word_size:
            return results
        m_eff, n_eff = _search_space(ka, params, m, n_total, len(db),
                                     effective_space)
        orientations = _query_orientations(query, scheme, params,
                                           is_protein, both_strands)
        for sid in range(len(db)):
            subject = db.sequence(sid)
            hsps = []
            for oriented_query, oriented_index, strand in orientations:
                hsps.extend(_hsps_for_strand(
                    oriented_query, subject, oriented_index, scheme, params,
                    is_protein, ka, m_eff, n_eff, strand,
                    identity_query=identity_query))
            if hsps:
                hsps.sort(key=lambda h: (h.evalue, -h.score))
                results.hits.append(Hit(
                    subject_id=sid,
                    description=db.description(sid),
                    subject_len=len(subject),
                    hsps=hsps[:params.max_hsps],
                    fragment_id=db.fragment_id,
                ))
        results.sort()
        return results


def _hsps_for_strand(query: np.ndarray, subject: np.ndarray,
                     index: WordIndex, scheme: ScoringScheme,
                     params: SearchParams, is_protein: bool,
                     ka: KarlinAltschul, m_eff: int, n_eff: int,
                     strand: int,
                     identity_query: Optional[np.ndarray] = None
                     ) -> List[HSP]:
    """Steps 1-4 for one query orientation against one subject (the
    legacy per-sequence scan)."""
    if is_protein:
        codes = protein_word_codes(subject, params.word_size)
    else:
        codes = dna_word_codes(subject, params.word_size)
    spos, qpos = index.scan(codes)
    if len(spos) == 0:
        return []
    return _hsps_from_hits(query, subject, spos, qpos, scheme, params,
                           is_protein, ka, m_eff, n_eff, strand,
                           identity_query=identity_query)


def _hsps_from_hits(query: np.ndarray, subject: np.ndarray,
                    spos: np.ndarray, qpos: np.ndarray,
                    scheme: ScoringScheme, params: SearchParams,
                    is_protein: bool, ka: KarlinAltschul,
                    m_eff: int, n_eff: int, strand: int,
                    identity_query: Optional[np.ndarray] = None
                    ) -> List[HSP]:
    """Steps 2-4 from word hits for one orientation/subject pair."""
    candidates = _collect_candidates(query, subject, spos, qpos, scheme,
                                     params, is_protein)
    return _candidates_to_hsps(query, subject, candidates, scheme, params,
                               is_protein, ka, m_eff, n_eff, strand,
                               identity_query=identity_query)
