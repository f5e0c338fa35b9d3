"""The BLAST search driver.

Pipeline (Altschul et al. 1990/1997):

1. scan the database's word codes against the query word index;
2. pick seeds (one-hit for nucleotide, two-hit for protein);
3. ungapped X-drop extension of each seed, deduplicated per diagonal;
4. banded gapped extension of HSPs above the gapped trigger score;
5. Karlin–Altschul E-values; keep hits under the E-value cutoff.

Step 1 packs the whole database fragment into one sentinel-separated
concatenation (:mod:`repro.blast.scankernel`), computes rolling word
codes once per fragment (cached across queries in the
:class:`~repro.blast.scankernel.ScanCache`), scans the query index
against everything in one shot, and only then drops to per-sequence
work for the handful of subjects with word hits.  The original
one-subject-at-a-time scan survives only as a test and benchmark
oracle, :func:`repro.blast.reference.reference_search`, which no
runtime module imports.

Results merge across database fragments by alignment score, which is
exactly what the mpiBLAST master does with worker results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.alphabet import DNA, PROTEIN, reverse_complement
from repro.blast.extend import (UngappedHSP, batched_ungapped_extend,
                                bulk_ungapped_extend)
from repro.blast.gapped import (GappedAlignment, banded_local_align,
                                bulk_banded_score)
from repro.blast.xdrop import xdrop_gapped_extend
from repro.blast.kmer import WordIndex
from repro.blast.profile import current_profile, profiled
from repro.blast.scankernel import (QueryBatch, ScanCache, default_scan_cache,
                                    scan_fragment, scan_fragment_batch)
from repro.blast.score import ScoringScheme
from repro.blast.seed import (one_hit_seeds, one_hit_seeds_grouped,
                              two_hit_seeds)
from repro.blast.seqdb import AA, SequenceDB
from repro.blast.stats import (KarlinAltschul, effective_search_space,
                               karlin_altschul_params)


@dataclass(frozen=True)
class SearchParams:
    """Tunable knobs of the search pipeline."""

    #: Word size (11 for blastn, 3 for blastp).
    word_size: int = 11
    #: Neighbourhood threshold T for protein words.
    neighbor_threshold: int = 11
    #: X-drop for ungapped extension.
    xdrop_ungapped: int = 20
    #: Ungapped score needed to attempt gapped extension.
    gapped_trigger: int = 22
    #: Diagonal band half-width for gapped extension.
    band: int = 24
    #: Report cutoff.
    evalue_cutoff: float = 10.0
    #: Two-hit window A (protein only; 0 disables two-hit seeding).
    two_hit_window: int = 40
    #: Keep at most this many HSPs per subject sequence.
    max_hsps: int = 10
    #: Do gapped refinement at all (BLAST 1.x behaviour when False).
    gapped: bool = True
    #: Mask low-complexity query regions before seeding (DUST / SEG).
    filter_low_complexity: bool = False
    #: Apply NCBI's length adjustment (edge-effect correction) to the
    #: E-value search space.
    effective_lengths: bool = False
    #: Gapped refinement algorithm: "banded" (fixed diagonal band) or
    #: "xdrop" (NCBI's adaptive-region extension; finds indels larger
    #: than the band at somewhat higher cost).
    gapped_method: str = "banded"


@dataclass
class HSP:
    """One reported high-scoring pair."""

    q_start: int
    q_end: int
    s_start: int
    s_end: int
    score: int
    bit_score: float
    evalue: float
    identities: int
    align_len: int
    #: +1 / -1 (nucleotide minus-strand hits), or frame for translated.
    strand: int = 1
    #: Alignment operations ("M" pair, "D" query-vs-gap, "I" gap-vs-
    #: subject); empty when not tracked.
    ops: str = ""

    @property
    def identity(self) -> float:
        return self.identities / self.align_len if self.align_len else 0.0


@dataclass
class Hit:
    """All HSPs against one database sequence."""

    subject_id: int
    description: str
    subject_len: int
    hsps: List[HSP] = field(default_factory=list)
    #: Which fragment the subject came from (for merged results).
    fragment_id: Optional[int] = None

    @property
    def best_score(self) -> int:
        return max((h.score for h in self.hsps), default=0)

    @property
    def best_evalue(self) -> float:
        return min((h.evalue for h in self.hsps), default=float("inf"))


@dataclass
class SearchResults:
    """Hits for one query against one database (or fragment)."""

    query_id: str
    query_len: int
    db_residues: int
    db_sequences: int
    hits: List[Hit] = field(default_factory=list)

    def sort(self) -> None:
        """Order hits best-first (by E-value, then score)."""
        for hit in self.hits:
            hit.hsps.sort(key=lambda h: (h.evalue, -h.score))
        self.hits.sort(key=lambda h: (h.best_evalue, -h.best_score))

    def best(self) -> Optional[HSP]:
        self.sort()
        return self.hits[0].hsps[0] if self.hits and self.hits[0].hsps else None

    def merge(self, other: "SearchResults") -> "SearchResults":
        """Combine results from another fragment of the same database —
        the master's merge step in parallel BLAST.

        Neither input is modified: the merged hits hold rescaled copies.
        """
        if other.query_id != self.query_id:
            raise ValueError("cannot merge results for different queries")
        merged = SearchResults(
            query_id=self.query_id,
            query_len=self.query_len,
            db_residues=self.db_residues + other.db_residues,
            db_sequences=self.db_sequences + other.db_sequences,
        )
        # E-values were computed against fragment sizes; rescale to the
        # combined database size (E scales linearly in n).
        for src in (self, other):
            factor = (merged.db_residues / src.db_residues
                      if src.db_residues > 0 else 1.0)
            merged.hits.extend(
                replace(hit, hsps=[replace(h, evalue=h.evalue * factor)
                                   for h in hit.hsps])
                for hit in src.hits)
        merged.sort()
        return merged

    def tabular(self, max_hits: int = 0) -> str:
        """Tab-separated output (NCBI outfmt-6 column order):

        query id, subject id, % identity, alignment length, mismatches,
        gap opens, q. start, q. end, s. start, s. end, evalue, bit
        score.  Coordinates are 1-based inclusive, like NCBI's.
        """
        self.sort()
        rows = []
        hits = self.hits if max_hits <= 0 else self.hits[:max_hits]
        for hit in hits:
            sid = (hit.description.split()[0] if hit.description
                   else str(hit.subject_id))
            for h in hit.hsps:
                gap_opens = 0
                prev = ""
                for op in h.ops:
                    if op in "DI" and op != prev:
                        gap_opens += 1
                    prev = op
                gap_cols = h.ops.count("D") + h.ops.count("I")
                mismatches = h.align_len - h.identities - gap_cols
                rows.append("\t".join([
                    self.query_id, sid,
                    f"{100 * h.identity:.3f}", str(h.align_len),
                    str(mismatches), str(gap_opens),
                    str(h.q_start + 1), str(h.q_end),
                    str(h.s_start + 1), str(h.s_end),
                    f"{h.evalue:.2e}", f"{h.bit_score:.1f}",
                ]))
        return "\n".join(rows)

    def report(self, max_hits: int = 25) -> str:
        """Plain-text summary table."""
        self.sort()
        lines = [
            f"Query: {self.query_id} ({self.query_len} letters)",
            f"Database: {self.db_sequences} sequences, {self.db_residues} letters",
            "",
            f"{'Subject':<40s} {'bits':>7s} {'E':>10s} {'ident':>6s}",
        ]
        for hit in self.hits[:max_hits]:
            h = hit.hsps[0]
            desc = hit.description[:40]
            lines.append(
                f"{desc:<40s} {h.bit_score:7.1f} {h.evalue:10.2e} "
                f"{100 * h.identity:5.1f}%")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def merge_fragment_results(by_pack: Dict[str, "SearchResults"],
                           ids_by_name: Dict[str, List[int]], *,
                           query_id: str, query_len: int,
                           db_residues: int, db_sequences: int,
                           fragment_id: Optional[int] = None,
                           keep_fragment_ids: bool = False
                           ) -> "SearchResults":
    """Merge per-fragment results into one whole-database result.

    *by_pack* maps pack name to that fragment's ``SearchResults`` (hits
    carry fragment-local subject ids); *ids_by_name* maps pack name to
    the fragment's global id table.  Because every worker searched with
    the whole database's Karlin–Altschul parameters and effective
    space (shipped in the job spec), scores and E-values need no
    rescaling here — the merge is pure relabelling plus the serial
    engine's deterministic ordering, which is what makes the parallel
    path byte-identical to a serial scan.

    Hits are mutated in place (subject ids globalized; fragment ids
    overwritten with *fragment_id* unless *keep_fragment_ids*).
    """
    merged = SearchResults(query_id=query_id, query_len=query_len,
                           db_residues=db_residues,
                           db_sequences=db_sequences)
    for pack_name, res in by_pack.items():
        ids = ids_by_name[pack_name]
        for hit in res.hits:
            hit.subject_id = ids[hit.subject_id]
            if not keep_fragment_ids:
                hit.fragment_id = fragment_id
            merged.hits.append(hit)
    # Deterministic cross-fragment tie-break: pre-order by global
    # subject id (the order a serial scan appends hits in), then the
    # standard stable result sort.
    merged.hits.sort(key=lambda h: h.subject_id)
    merged.sort()
    return merged


# ----------------------------------------------------------------------
def resolve_ka(scheme: ScoringScheme, params: SearchParams,
               is_protein: bool) -> KarlinAltschul:
    """The Karlin–Altschul parameters :func:`search` uses when none are
    passed explicitly.

    Exposed so the parallel runtime (:mod:`repro.exec`) can compute the
    exact same statistics on the master and ship them to every worker —
    fragment results stay bit-identical to a serial whole-database
    search.
    """
    if is_protein:
        key = (f"aa:blosum62:{scheme.gap_open}/{scheme.gap_extend}"
               if params.gapped else None)
    else:
        match = int(scheme.matrix[0, 0])
        mis = int(scheme.matrix[0, 1])
        key = (f"nt:{'+' if match > 0 else ''}{match}/{mis}:"
               f"{scheme.gap_open}/{scheme.gap_extend}"
               if params.gapped else None)
    return karlin_altschul_params(scheme.matrix, gapped_key=key)


def _word_skip(oriented: np.ndarray, params: SearchParams,
               is_protein: bool) -> Optional[np.ndarray]:
    """Word starts to leave out of the query index: the low-complexity
    mask (DUST / SEG) when ``params.filter_low_complexity`` is on."""
    if not params.filter_low_complexity:
        return None
    from repro.blast.filter import apply_query_filter

    _, skip = apply_query_filter(oriented, is_protein, params.word_size)
    return skip


def _query_orientations(query: np.ndarray, scheme: ScoringScheme,
                        params: SearchParams, is_protein: bool,
                        both_strands: bool
                        ) -> List[Tuple[np.ndarray, WordIndex, int]]:
    """``(oriented query, word index, strand)`` for every orientation
    one query is searched in: the query itself and, for nucleotide
    searches with *both_strands*, its reverse complement."""
    if is_protein:
        index = WordIndex.for_protein(query, scheme, params.word_size,
                                      params.neighbor_threshold,
                                      skip=_word_skip(query, params, True))
        return [(query, index, 1)]
    orientations = [(query, WordIndex.for_dna(
        query, params.word_size, skip=_word_skip(query, params, False)), 1)]
    if both_strands:
        rc = reverse_complement(query)
        orientations.append((rc, WordIndex.for_dna(
            rc, params.word_size, skip=_word_skip(rc, params, False)), -1))
    return orientations


def _search_space(ka: KarlinAltschul, params: SearchParams, m: int,
                  n_total: int, n_seqs: int,
                  effective_space: Optional[Tuple[int, int]]
                  ) -> Tuple[int, int]:
    """The ``(m_eff, n_eff)`` E-values are computed against: an
    explicit *effective_space*, else the length-adjusted space when
    ``params.effective_lengths``, else the raw lengths."""
    if effective_space is not None:
        return tuple(effective_space)
    if params.effective_lengths:
        return effective_search_space(ka, m, n_total, n_seqs)
    return m, n_total


def _collect_candidates(query: np.ndarray, subject: np.ndarray,
                        spos: np.ndarray, qpos: np.ndarray,
                        scheme: ScoringScheme, params: SearchParams,
                        is_protein: bool) -> List[UngappedHSP]:
    """Steps 2-3 (seeding + ungapped extension) from word hits for one
    orientation/subject pair."""
    prof = current_profile()
    t0 = time.perf_counter() if prof is not None else 0.0
    if is_protein and params.two_hit_window > 0:
        seeds = two_hit_seeds(spos, qpos, params.word_size, params.two_hit_window)
    else:
        seeds = one_hit_seeds(spos, qpos)
    if prof is not None:
        prof.add("seed", time.perf_counter() - t0)
    if not seeds:
        return []

    # Ungapped extension, batched per diagonal, with coverage dedup:
    # a seed already inside a previous HSP on its diagonal is skipped.
    t0 = time.perf_counter() if prof is not None else 0.0
    candidates = batched_ungapped_extend(
        query, subject, seeds, scheme, xdrop=params.xdrop_ungapped,
        stats=prof.counters if prof is not None else None)
    if prof is not None:
        prof.add("extend", time.perf_counter() - t0)
    return candidates


def _candidates_to_hsps(query: np.ndarray, subject: np.ndarray,
                        candidates: List[UngappedHSP],
                        scheme: ScoringScheme, params: SearchParams,
                        is_protein: bool, ka: KarlinAltschul,
                        m_eff: int, n_eff: int, strand: int,
                        identity_query: Optional[np.ndarray] = None
                        ) -> List[HSP]:
    """Steps 4-5 (gapped refinement, dedup, E-value filter) from
    ungapped candidates for one orientation/subject pair — the scalar
    path (one DP with traceback per triggered candidate)."""
    if not candidates:
        return []
    id_query = query if identity_query is None else identity_query
    prof = current_profile()
    candidates.sort(key=lambda h: -h.score)
    candidates = candidates[:params.max_hsps]

    out: List[HSP] = []
    seen_spans: List[Tuple[int, int]] = []
    for cand in candidates:
        if params.gapped and cand.score >= params.gapped_trigger:
            mid_q = cand.q_start + cand.length // 2
            mid_s = cand.s_start + cand.length // 2
            t0 = time.perf_counter() if prof is not None else 0.0
            if params.gapped_method == "xdrop":
                aln = xdrop_gapped_extend(query, subject, mid_q, mid_s,
                                          scheme, xdrop=2 * params.band)
            else:
                aln = banded_local_align(query, subject, mid_s - mid_q,
                                         scheme, band=params.band,
                                         identity_query=identity_query)
            if prof is not None:
                prof.add("gapped", time.perf_counter() - t0)
                prof.count("gapped_trials")
                prof.count("gapped_traceback")
            if aln.score <= 0:
                continue
            q0, q1, s0, s1 = aln.q_start, aln.q_end, aln.s_start, aln.s_end
            score = aln.score
            identities, align_len = aln.identities, aln.align_len
            ops = aln.ops
        else:
            q0, q1 = cand.q_start, cand.q_end
            s0, s1 = cand.s_start, cand.s_end
            score = cand.score
            matches = id_query[q0:q1] == subject[s0:s1]
            identities = int(np.count_nonzero(matches))
            align_len = cand.length
            ops = "M" * align_len
        # Drop duplicates: identical subject spans found via different seeds.
        span = (s0, s1)
        if span in seen_spans:
            continue
        seen_spans.append(span)
        evalue = ka.evalue(score, m_eff, n_eff)
        if evalue > params.evalue_cutoff:
            continue
        out.append(HSP(
            q_start=q0, q_end=q1, s_start=s0, s_end=s1,
            score=score, bit_score=ka.bit_score(score), evalue=evalue,
            identities=identities, align_len=align_len, strand=strand,
            ops=ops,
        ))
    return out


#: Below this many triggered candidates the scalar path wins — the
#: batched forward pass re-scores everything and then still pays the
#: survivor tracebacks, which only pays off once there is enough to
#: cull (measured crossover is well under this on the dev box; the
#: routing is invisible in output, both paths are exact).  This is the
#: only selector between the two gapped paths.
_BULK_MIN_CANDIDATES = 24


@dataclass
class _GappedJob:
    """One orientation/subject group's ungapped candidates awaiting
    steps 4-5, plus everything needed to finalize them into HSPs.

    *q_off* / *s_off* locate the oriented query and the subject inside
    the flat concatenations handed to :func:`_finalize_candidates`;
    finalized HSPs are appended to *sink* so callers can batch many
    groups through one bulk DP and still read results back in their
    original accumulation order.
    """

    query: np.ndarray
    subject: np.ndarray
    q_off: int
    s_off: int
    candidates: List[UngappedHSP]
    m_eff: int
    n_eff: int
    strand: int
    identity_query: Optional[np.ndarray]
    sink: List[HSP]


def _finalize_candidates(jobs: List[_GappedJob], qcat: np.ndarray,
                         scat: np.ndarray, scheme: ScoringScheme,
                         params: SearchParams, is_protein: bool,
                         ka: KarlinAltschul) -> None:
    """Steps 4-5 for many orientation/subject groups at once.

    The batched pipeline runs gapped refinement in two passes.  **Pass
    1** scores every distinct (group, diagonal) band DP with one
    :func:`~repro.blast.gapped.bulk_banded_score` call — every
    triggered candidate on a diagonal shares the band DP centred on
    it, because ``banded_local_align`` depends on the seed only
    through the diagonal.  **Pass 2** replays each group's scalar
    decision sequence from the pass-1 scores and runs the
    pointer-matrix traceback only for candidates that still need one:
    zero-score candidates are dropped outright, and an
    E-value-rejected candidate skips traceback when its subject end
    position (known exactly from pass 1) is unique among the group's
    prospective spans — the only way its never-rendered span could
    influence later dedup decisions would be colliding with a span
    sharing that end.  Output is byte-identical to running
    :func:`_candidates_to_hsps` per group.

    The scalar path serves ungapped searches, the xdrop method, and
    workloads with fewer than ``_BULK_MIN_CANDIDATES`` triggered
    candidates.
    """
    if not jobs:
        return
    # Both paths are exact, so routing is purely a cost call: with only
    # a handful of triggered candidates (typical blastn — seeds match
    # little but the true source) the batched forward pass plus the
    # survivor tracebacks costs more than just running the scalar DPs.
    n_triggered = sum(1 for job in jobs for c in job.candidates
                      if c.score >= params.gapped_trigger)
    if (not params.gapped or params.gapped_method != "banded"
            or n_triggered < _BULK_MIN_CANDIDATES):
        for job in jobs:
            job.sink.extend(_candidates_to_hsps(
                job.query, job.subject, job.candidates, scheme, params,
                is_protein, ka, job.m_eff, job.n_eff, job.strand,
                identity_query=job.identity_query))
        return

    prof = current_profile()
    # Scalar preamble, replayed exactly: best-first order, max_hsps.
    for job in jobs:
        job.candidates.sort(key=lambda h: -h.score)
        del job.candidates[params.max_hsps:]

    # Pass 1: collect one score-only DP problem per distinct
    # (group, diagonal) among the triggered candidates.
    diags_of: List[Dict[int, int]] = []
    e_qoff: List[int] = []
    e_qlen: List[int] = []
    e_soff: List[int] = []
    e_slen: List[int] = []
    e_diag: List[int] = []
    for job in jobs:
        diags: Dict[int, int] = {}
        for cand in job.candidates:
            if cand.score < params.gapped_trigger:
                continue
            dg = cand.diag
            if dg not in diags:
                diags[dg] = len(e_diag)
                e_qoff.append(job.q_off)
                e_qlen.append(len(job.query))
                e_soff.append(job.s_off)
                e_slen.append(len(job.subject))
                e_diag.append(dg)
        diags_of.append(diags)

    if e_diag:
        t0 = time.perf_counter() if prof is not None else 0.0
        scores, _qends, sends = bulk_banded_score(
            qcat, scat,
            np.array(e_qoff, dtype=np.int64),
            np.array(e_qlen, dtype=np.int64),
            np.array(e_soff, dtype=np.int64),
            np.array(e_slen, dtype=np.int64),
            np.array(e_diag, dtype=np.int64),
            scheme, band=params.band)
        if prof is not None:
            prof.add("gapped_bulk", time.perf_counter() - t0)
            prof.count("gapped_trials", len(e_diag))
    else:
        scores = sends = np.zeros(0, dtype=np.int64)

    for job, diags in zip(jobs, diags_of):
        _finalize_one(job, diags, scores, sends, scheme, params, ka, prof)


def _finalize_one(job: _GappedJob, diags: Dict[int, int],
                  scores: np.ndarray, sends: np.ndarray,
                  scheme: ScoringScheme, params: SearchParams,
                  ka: KarlinAltschul, prof) -> None:
    """Pass 2 of the batched gapped pipeline for one group: replay the
    scalar candidate loop from the bulk scores, tracing back only when
    an alignment's exact extent can still matter."""
    # Census of the *emittable* candidates' subject end positions.  A
    # span is appended to the dedup list before the E-value check, so
    # a rejected candidate's span can influence output only by
    # deduplicating a later candidate that would otherwise be emitted —
    # which requires an E-value-passing candidate with the *same* span,
    # hence the same subject end.  (Rejected candidates deduplicating
    # each other is invisible: whichever appends first, the span value
    # ends up in the list and none of them is emitted.)  E-values here
    # depend only on scores, all known exactly after pass 1.
    end_count: Dict[int, int] = {}
    for cand in job.candidates:
        if cand.score >= params.gapped_trigger:
            ei = diags[cand.diag]
            score = int(scores[ei])
            if score <= 0:
                continue
            se = int(sends[ei])
        else:
            score = cand.score
            se = cand.s_end
        if ka.evalue(score, job.m_eff, job.n_eff) <= params.evalue_cutoff:
            end_count[se] = end_count.get(se, 0) + 1

    out = job.sink
    seen_spans: List[Tuple[int, int]] = []
    memo: Dict[int, GappedAlignment] = {}
    for cand in job.candidates:
        if cand.score >= params.gapped_trigger:
            ei = diags[cand.diag]
            score = int(scores[ei])
            if score <= 0:
                if prof is not None:
                    prof.count("gapped_culled")
                continue
            evalue = ka.evalue(score, job.m_eff, job.n_eff)
            if (evalue > params.evalue_cutoff
                    and end_count.get(int(sends[ei]), 0) == 0):
                # E-value reject whose span cannot deduplicate any
                # emittable candidate: the scalar path would discard
                # it after appending a span that can never change what
                # is rendered.  No traceback needed.
                if prof is not None:
                    prof.count("gapped_culled")
                continue
            aln = memo.get(cand.diag)
            if aln is None:
                t0 = time.perf_counter() if prof is not None else 0.0
                aln = banded_local_align(job.query, job.subject,
                                         cand.diag, scheme,
                                         band=params.band,
                                         identity_query=job.identity_query)
                if prof is not None:
                    prof.add("gapped", time.perf_counter() - t0)
                    prof.count("gapped_traceback")
                memo[cand.diag] = aln
            elif prof is not None:
                prof.count("gapped_culled")
            if aln.score <= 0:
                continue
            q0, q1, s0, s1 = aln.q_start, aln.q_end, aln.s_start, aln.s_end
            score = aln.score
            identities, align_len = aln.identities, aln.align_len
            ops = aln.ops
        else:
            q0, q1 = cand.q_start, cand.q_end
            s0, s1 = cand.s_start, cand.s_end
            score = cand.score
            id_query = (job.query if job.identity_query is None
                        else job.identity_query)
            matches = id_query[q0:q1] == job.subject[s0:s1]
            identities = int(np.count_nonzero(matches))
            align_len = cand.length
            ops = "M" * align_len
        span = (s0, s1)
        if span in seen_spans:
            continue
        seen_spans.append(span)
        evalue = ka.evalue(score, job.m_eff, job.n_eff)
        if evalue > params.evalue_cutoff:
            continue
        out.append(HSP(
            q_start=q0, q_end=q1, s_start=s0, s_end=s1,
            score=score, bit_score=ka.bit_score(score), evalue=evalue,
            identities=identities, align_len=align_len,
            strand=job.strand, ops=ops,
        ))


def search(query: np.ndarray, db: SequenceDB, scheme: ScoringScheme,
           params: Optional[SearchParams] = None,
           query_id: str = "query",
           ka: Optional[KarlinAltschul] = None,
           both_strands: bool = True,
           identity_query: Optional[np.ndarray] = None,
           scan_cache: Optional[ScanCache] = None,
           effective_space: Optional[Tuple[int, int]] = None) -> SearchResults:
    """Search an encoded *query* against every sequence of *db*.

    For nucleotide databases the reverse-complement strand of the query
    is searched too (``both_strands``).

    The fragment's scan structures come from the database itself when
    it is pack-backed, else from *scan_cache* (defaulting to the
    process-wide :func:`~repro.blast.scankernel.default_scan_cache`).

    *effective_space* overrides the ``(m_eff, n_eff)`` search space the
    E-values are computed against.  The parallel runtime passes the
    *whole* database's space to every fragment search so per-fragment
    E-values — and the cutoff they are filtered by — come out exactly
    as a serial whole-database search would produce them.

    With ``REPRO_PROFILE=1`` in the environment each top-level call
    emits one JSON line of per-stage timings to stderr (see
    :mod:`repro.blast.profile`).
    """
    with profiled("search", query_id=query_id, query_len=len(query)):
        return _search_impl(query, db, scheme, params, query_id, ka,
                            both_strands, identity_query, scan_cache,
                            effective_space)


def _search_impl(query: np.ndarray, db: SequenceDB, scheme: ScoringScheme,
                 params: Optional[SearchParams],
                 query_id: str,
                 ka: Optional[KarlinAltschul],
                 both_strands: bool,
                 identity_query: Optional[np.ndarray],
                 scan_cache: Optional[ScanCache],
                 effective_space: Optional[Tuple[int, int]]) -> SearchResults:
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
    prof = current_profile()
    t0 = time.perf_counter() if prof is not None else 0.0
    orientations = _query_orientations(query, scheme, params, is_protein,
                                       both_strands)
    if prof is not None:
        prof.add("index", time.perf_counter() - t0)

    # One scan over the packed fragment, then per-sequence work only
    # for subjects with word hits.
    # Explicit None check: an *empty* ScanCache is falsy (__len__).
    cache = scan_cache if scan_cache is not None else default_scan_cache()
    base = len(PROTEIN) if is_protein else len(DNA)
    # A pack-backed db (shm segment or mmapped disk pack) already *is*
    # the scan structure — take it directly; the cache only serves
    # databases that must be (re)built.
    t0 = time.perf_counter() if prof is not None else 0.0
    provider = getattr(db, "scan_structures", None)
    structs = provider(params.word_size, base) if provider else None
    if structs is None:
        structs = cache.get(db, params.word_size, base)
    if prof is not None:
        prof.add("pack", time.perf_counter() - t0)
    per_sid: Dict[int, List[HSP]] = {}
    jobs: List[_GappedJob] = []
    collected: List[Tuple[int, List[HSP]]] = []
    q_offs: List[int] = []
    off = 0
    for oriented_query, _, _ in orientations:
        q_offs.append(off)
        off += len(oriented_query)
    for oi, (oriented_query, oriented_index, strand) in \
            enumerate(orientations):
        t0 = time.perf_counter() if prof is not None else 0.0
        groups = scan_fragment(oriented_index, structs)
        if prof is not None:
            prof.add("scan", time.perf_counter() - t0)
        for sid, spos, qpos in groups:
            cands = _collect_candidates(
                oriented_query, structs.subject(sid), spos, qpos,
                scheme, params, is_protein)
            if not cands:
                continue
            sink: List[HSP] = []
            jobs.append(_GappedJob(
                query=oriented_query, subject=structs.subject(sid),
                q_off=q_offs[oi], s_off=int(structs.starts[sid]),
                candidates=cands, m_eff=m_eff, n_eff=n_eff,
                strand=strand, identity_query=identity_query,
                sink=sink))
            collected.append((sid, sink))
    if jobs:
        qcat = (orientations[0][0] if len(orientations) == 1
                else np.concatenate([o[0] for o in orientations]))
        _finalize_candidates(jobs, qcat, structs.concat, scheme,
                             params, is_protein, ka)
    for sid, sink in collected:
        if sink:
            per_sid.setdefault(sid, []).extend(sink)
    for sid in sorted(per_sid):
        hsps = per_sid[sid]
        hsps.sort(key=lambda h: (h.evalue, -h.score))
        results.hits.append(Hit(
            subject_id=sid,
            description=db.description(sid),
            subject_len=int(structs.lengths[sid]),
            hsps=hsps[:params.max_hsps],
            fragment_id=db.fragment_id,
        ))
    results.sort()
    return results


def search_batch(queries: Sequence[np.ndarray], db: SequenceDB,
                 scheme: ScoringScheme,
                 params: Optional[SearchParams] = None, *,
                 query_ids: Optional[Sequence[str]] = None,
                 ka: Optional[KarlinAltschul] = None,
                 both_strands: bool = True,
                 identity_queries: Optional[Sequence[Optional[np.ndarray]]] = None,
                 scan_cache: Optional[ScanCache] = None,
                 effective_spaces: Optional[Sequence[Optional[Tuple[int, int]]]]
                 = None) -> List[SearchResults]:
    """Search N queries against *db* in one pass over the fragment.

    Byte-identical to N sequential :func:`search` calls — same hits,
    same HSPs, same ordering — but all query orientations are packed
    into one :class:`~repro.blast.scankernel.QueryBatch` so the
    fragment's cached word codes are traversed **once** (one presence
    gather + one hit-mapping ``searchsorted``) instead of once per
    orientation.  Per-(query, subject) seeding and extension then run
    on exactly the hit groups the per-query scan would have produced.

    Per-query arguments (*query_ids*, *identity_queries*,
    *effective_spaces*) are parallel sequences; ``None`` entries take
    the same defaults as :func:`search`.  *ka* is resolved once and
    shared — the parallel runtime ships one set of Karlin–Altschul
    parameters per job batch for the same reason.

    The query side and the per-database step are separately available
    as :func:`prepare_queries` and :func:`search_prepared`, so a caller
    searching many fragments builds the query side once.
    """
    with profiled("search_batch", n_queries=len(queries)):
        prepared = prepare_queries(queries, scheme, params,
                                   is_protein=db.seqtype == AA,
                                   query_ids=query_ids,
                                   both_strands=both_strands,
                                   identity_queries=identity_queries,
                                   effective_spaces=effective_spaces)
        return search_prepared(prepared, db, ka=ka, scan_cache=scan_cache)


@dataclass
class PreparedQueries:
    """The query side of a batched search, built once by
    :func:`prepare_queries` and reusable against any number of database
    fragments of the matching sequence type.

    Holds one entry per (query, orientation), in (query, +strand-first)
    order — the order the sequential driver accumulates HSPs in, which
    is what keeps the batched path byte-identical — together with the
    entries' combined :class:`~repro.blast.scankernel.QueryBatch` and
    the flat concatenation of the oriented queries (*qcat*, with
    per-entry *qstarts* / *qlens*) that every extension and the bulk
    gapped pass index into.  Queries shorter than the word size
    contribute no entries (the sequential driver returns their empty
    results before building an index); with no entries at all *batch*
    and *qcat* are ``None``.
    """

    scheme: ScoringScheme
    params: SearchParams
    is_protein: bool
    query_ids: List[str]
    query_lens: List[int]
    identity_queries: List[Optional[np.ndarray]]
    effective_spaces: List[Optional[Tuple[int, int]]]
    entries: List[Tuple[int, np.ndarray, int]]
    batch: Optional[QueryBatch]
    qcat: Optional[np.ndarray]
    qstarts: Optional[np.ndarray]
    qlens: Optional[np.ndarray]


def prepare_queries(queries: Sequence[np.ndarray], scheme: ScoringScheme,
                    params: Optional[SearchParams] = None, *,
                    is_protein: bool,
                    query_ids: Optional[Sequence[str]] = None,
                    both_strands: bool = True,
                    identity_queries: Optional[
                        Sequence[Optional[np.ndarray]]] = None,
                    effective_spaces: Optional[
                        Sequence[Optional[Tuple[int, int]]]] = None
                    ) -> PreparedQueries:
    """Build the query side of :func:`search_batch`: word indexes
    (masked per ``params.filter_low_complexity``), the combined
    :class:`~repro.blast.scankernel.QueryBatch` and the flat query
    concatenation.  None of it depends on the database, so a worker
    serving a range of fragments builds it once and hands it to
    :func:`search_prepared` for each fragment.

    Per-query arguments take the same defaults as :func:`search_batch`.
    """
    params = params or SearchParams()
    n_q = len(queries)
    query_ids = list(query_ids) if query_ids is not None else ["query"] * n_q
    identity_queries = (list(identity_queries)
                        if identity_queries is not None else [None] * n_q)
    effective_spaces = (list(effective_spaces)
                        if effective_spaces is not None else [None] * n_q)
    if not (len(query_ids) == len(identity_queries)
            == len(effective_spaces) == n_q):
        raise ValueError("per-query argument sequences must match "
                         "len(queries)")

    prof = current_profile()
    t0 = time.perf_counter() if prof is not None else 0.0
    entries: List[Tuple[int, np.ndarray, int]] = []
    indexes: List[WordIndex] = []
    for qi, q in enumerate(queries):
        if len(q) < params.word_size:
            continue
        for oriented, index, strand in _query_orientations(
                q, scheme, params, is_protein, both_strands):
            entries.append((qi, oriented, strand))
            indexes.append(index)
    batch = qcat = qstarts = qlens = None
    if entries:
        batch = QueryBatch(indexes)
        qlens = np.array([len(e[1]) for e in entries], dtype=np.int64)
        qstarts = np.zeros(len(entries), dtype=np.int64)
        np.cumsum(qlens[:-1], out=qstarts[1:])
        qcat = np.concatenate([e[1] for e in entries])
    if prof is not None:
        prof.add("index", time.perf_counter() - t0)
    return PreparedQueries(
        scheme=scheme, params=params, is_protein=is_protein,
        query_ids=query_ids, query_lens=[len(q) for q in queries],
        identity_queries=identity_queries,
        effective_spaces=effective_spaces, entries=entries, batch=batch,
        qcat=qcat, qstarts=qstarts, qlens=qlens)


def search_prepared(prepared: PreparedQueries, db: SequenceDB, *,
                    ka: Optional[KarlinAltschul] = None,
                    scan_cache: Optional[ScanCache] = None
                    ) -> List[SearchResults]:
    """The per-database step of :func:`search_batch`: scan *db* with an
    already-built :class:`PreparedQueries` and return one
    :class:`SearchResults` per query, byte-identical to
    ``search_batch`` over the same queries.
    """
    if prepared.is_protein != (db.seqtype == AA):
        raise ValueError(f"queries were prepared for "
                         f"{'aa' if prepared.is_protein else 'nt'}, "
                         f"database is {db.seqtype!r}")
    with profiled("search_batch", n_queries=len(prepared.query_ids)):
        return _search_prepared_impl(prepared, db, ka, scan_cache)


def _search_prepared_impl(prepared: PreparedQueries, db: SequenceDB,
                          ka: Optional[KarlinAltschul],
                          scan_cache: Optional[ScanCache]
                          ) -> List[SearchResults]:
    scheme, params = prepared.scheme, prepared.params
    is_protein = prepared.is_protein
    if ka is None:
        ka = resolve_ka(scheme, params, is_protein)
    n_total = db.total_residues
    results = [SearchResults(query_id=qid, query_len=qlen,
                             db_residues=n_total, db_sequences=len(db))
               for qid, qlen in zip(prepared.query_ids, prepared.query_lens)]
    entries = prepared.entries
    if not entries:
        return results
    spaces: List[Optional[Tuple[int, int]]] = [None] * len(results)
    for qi, _, _ in entries:
        if spaces[qi] is None:
            spaces[qi] = _search_space(ka, params, prepared.query_lens[qi],
                                       n_total, len(db),
                                       prepared.effective_spaces[qi])

    prof = current_profile()
    cache = scan_cache if scan_cache is not None else default_scan_cache()
    base = len(PROTEIN) if is_protein else len(DNA)
    t0 = time.perf_counter() if prof is not None else 0.0
    provider = getattr(db, "scan_structures", None)
    structs = provider(params.word_size, base) if provider else None
    if structs is None:
        structs = cache.get(db, params.word_size, base)
    if prof is not None:
        prof.add("pack", time.perf_counter() - t0)

    t0 = time.perf_counter() if prof is not None else 0.0
    groups = scan_fragment_batch(prepared.batch, structs)
    if prof is not None:
        prof.add("scan", time.perf_counter() - t0)

    identity_queries = prepared.identity_queries
    qcat, qstarts = prepared.qcat, prepared.qstarts
    per_q: Dict[int, Dict[int, List[HSP]]] = {}
    jobs: List[_GappedJob] = []
    order: List[Tuple[int, int, List[HSP]]] = []
    if is_protein and params.two_hit_window > 0:
        # Two-hit seeding is an inherently sequential per-diagonal scan;
        # run the per-group seeding/extension on each hit group
        # (gapped refinement still batches across groups).
        for eid, sid, spos, qpos in groups:
            qi, oriented_query, strand = entries[eid]
            cands = _collect_candidates(oriented_query,
                                        structs.subject(sid), spos, qpos,
                                        scheme, params, is_protein)
            if not cands:
                continue
            m_eff, n_eff = spaces[qi]
            sink: List[HSP] = []
            jobs.append(_GappedJob(
                query=oriented_query, subject=structs.subject(sid),
                q_off=int(qstarts[eid]), s_off=int(structs.starts[sid]),
                candidates=cands, m_eff=m_eff, n_eff=n_eff,
                strand=strand, identity_query=identity_queries[qi],
                sink=sink))
            order.append((qi, sid, sink))
    elif groups:
        _bulk_groups_to_jobs(groups, prepared, structs, spaces, ka, jobs,
                             order)
    _finalize_candidates(jobs, qcat, structs.concat, scheme, params,
                         is_protein, ka)
    for qi, sid, sink in order:
        if sink:
            per_q.setdefault(qi, {}).setdefault(sid, []).extend(sink)
    for qi, per_sid in per_q.items():
        res = results[qi]
        for sid in sorted(per_sid):
            hsps = per_sid[sid]
            hsps.sort(key=lambda h: (h.evalue, -h.score))
            res.hits.append(Hit(
                subject_id=sid,
                description=db.description(sid),
                subject_len=int(structs.lengths[sid]),
                hsps=hsps[:params.max_hsps],
                fragment_id=db.fragment_id,
            ))
        res.sort()
    return results


def _bulk_groups_to_jobs(groups, prepared: PreparedQueries, structs,
                         spaces, ka: KarlinAltschul, jobs, order) -> None:
    """Steps 2-3 for every batched hit group at once (one-hit seeding).

    Instead of paying per-(query, subject) numpy dispatch for seeding
    and ungapped extension — which dominates once the shared scan pass
    is amortised over the batch — the whole hit stream is seeded with
    one grouped lexsort and extended with one flat 2-D gather against
    the query/subject concatenations (``prepared.qcat`` with per-entry
    ``qstarts`` offsets and ``structs.concat``).  Groups that cannot
    produce output are then dropped wholesale (see
    :func:`_live_groups`); for the rest the per-diagonal coverage dedup
    is replayed per group from the bulk extents, and each group's
    surviving candidates become one :class:`_GappedJob` appended to
    *jobs* — with a matching ``(query, subject id, sink)`` row in
    *order* — for the caller's :func:`_finalize_candidates` pass, so
    each group contributes exactly the HSPs :func:`_collect_candidates`
    and :func:`_candidates_to_hsps` would have produced for it.
    """
    prof = current_profile()
    params = prepared.params
    entries = prepared.entries
    qstarts, qlens = prepared.qstarts, prepared.qlens
    g_eid = np.array([g[0] for g in groups], dtype=np.int64)
    g_sid = np.array([g[1] for g in groups], dtype=np.int64)
    gid_of_hit = np.repeat(
        np.arange(len(groups), dtype=np.int64),
        np.array([len(g[2]) for g in groups], dtype=np.int64))
    sp_all = np.concatenate([g[2] for g in groups])
    qp_all = np.concatenate([g[3] for g in groups])

    t0 = time.perf_counter() if prof is not None else 0.0
    sgid, sqp, ssp = one_hit_seeds_grouped(gid_of_hit, sp_all, qp_all)
    if prof is not None:
        prof.add("seed", time.perf_counter() - t0)
        prof.count("seeds", len(sgid))

    t0 = time.perf_counter() if prof is not None else 0.0
    seid = g_eid[sgid]
    ssid = g_sid[sgid]
    ll, ls, rl, rs = bulk_ungapped_extend(
        prepared.qcat, structs.concat,
        qstarts[seid] + sqp, structs.starts[ssid] + ssp,
        np.minimum(sqp, ssp),
        np.minimum(qlens[seid] - sqp, structs.lengths[ssid] - ssp),
        scheme=prepared.scheme, xdrop=params.xdrop_ungapped)
    if prof is not None:
        prof.add("extend", time.perf_counter() - t0)

    # sgid is group-major; per-group seed slices by binary search.
    bounds = np.searchsorted(sgid, np.arange(len(groups) + 1))
    live = _live_groups(ls + rs, bounds, g_eid, entries, spaces, params, ka)
    if prof is not None:
        prof.count("groups_culled", len(groups) - len(live))
    sqp_l, ssp_l = sqp.tolist(), ssp.tolist()
    ll_l, ls_l = ll.tolist(), ls.tolist()
    rl_l, rs_l = rl.tolist(), rs.tolist()
    identity_queries = prepared.identity_queries
    skipped = 0
    for gi in live:
        eid, sid = groups[gi][0], groups[gi][1]
        lo, hi = int(bounds[gi]), int(bounds[gi + 1])
        # Replay of the per-diagonal coverage dedup: a seed inside the
        # extent of the previously accepted extension on its diagonal
        # contributes nothing (identical to batched_ungapped_extend).
        covered: Dict[int, int] = {}
        cands: List[UngappedHSP] = []
        for i in range(lo, hi):
            qp, sp = sqp_l[i], ssp_l[i]
            dg = sp - qp
            if covered.get(dg, -1) >= sp:
                skipped += 1
                continue
            s0 = sp - ll_l[i]
            length = ll_l[i] + rl_l[i]
            covered[dg] = s0 + length
            score = ls_l[i] + rs_l[i]
            if score > 0:
                cands.append(UngappedHSP(q_start=qp - ll_l[i], s_start=s0,
                                         length=length, score=score))
        if not cands:
            continue
        qi, oriented_query, strand = entries[eid]
        m_eff, n_eff = spaces[qi]
        sink: List[HSP] = []
        jobs.append(_GappedJob(
            query=oriented_query, subject=structs.subject(sid),
            q_off=int(qstarts[eid]), s_off=int(structs.starts[sid]),
            candidates=cands, m_eff=m_eff, n_eff=n_eff, strand=strand,
            identity_query=identity_queries[qi], sink=sink))
        order.append((qi, sid, sink))
    if prof is not None and skipped:
        prof.count("seeds_skipped", skipped)


def _live_groups(seed_scores: np.ndarray, bounds: np.ndarray,
                 g_eid: np.ndarray, entries, spaces, params: SearchParams,
                 ka: KarlinAltschul) -> List[int]:
    """Indexes of the hit groups that can still produce an HSP.

    *seed_scores* holds every seed's ungapped score, group-major, with
    group ``g``'s seeds at ``bounds[g]:bounds[g + 1]``.  A group's
    candidates are a subset of its seeds' extensions, so its best seed
    score bounds every candidate score from above.  A group whose best
    is below the gapped trigger (when gapped refinement is on) sends
    no candidate to a gapped DP, so each candidate would be reported —
    or not — on its own ungapped score.  If the best is also below
    the smallest positive integer score whose E-value passes the
    cutoff, no candidate can pass, and the whole group is dead.

    That E-value floor is found per distinct ``(m_eff, n_eff)`` by
    walking scores upward from 1 with the scalar ``ka.evalue`` and the
    very comparison :func:`_candidates_to_hsps` makes, stopping at the
    first passing score or past the best seed score of that space's
    groups.  Every score below the floor was tested and failed, so the
    cull is exact without relying on the rounding of the E-value
    formula.
    """
    if len(seed_scores) == 0:
        return []
    lo = bounds[:-1]
    has_seeds = lo < bounds[1:]
    best = np.maximum.reduceat(seed_scores,
                               np.minimum(lo, len(seed_scores) - 1))
    best = np.where(has_seeds, best, 0)
    maybe_dead = (best < params.gapped_trigger if params.gapped
                  else np.ones(len(best), dtype=bool))
    # Walk each space's floor no further than its best doomed group.
    e_top = np.zeros(len(entries), dtype=np.int64)
    np.maximum.at(e_top, g_eid[maybe_dead], best[maybe_dead])
    tops: Dict[Tuple[int, int], int] = {}
    for (qi, _, _), top in zip(entries, e_top.tolist()):
        tops[spaces[qi]] = max(tops.get(spaces[qi], 0), top)
    floors: Dict[Tuple[int, int], int] = {}
    for (m_eff, n_eff), top in tops.items():
        score = 1
        while (score <= top
               and ka.evalue(score, m_eff, n_eff) > params.evalue_cutoff):
            score += 1
        floors[(m_eff, n_eff)] = score
    e_floor = np.array([floors[spaces[qi]] for qi, _, _ in entries],
                       dtype=np.int64)
    dead = maybe_dead & (best < e_floor[g_eid])
    return np.flatnonzero(has_seeds & ~dead).tolist()
