"""Concatenated-database scan kernel and the ScanCache.

The naive search driver scans the query word index against one subject
sequence at a time: per subject it re-derives rolling word codes, runs
``WordIndex.scan``, and pays Python/numpy dispatch overhead ~1400 times
per query on even a 1 M-base fragment.  For the paper's workload — a
568-char blastn query against the 1.76 M-sequence nt database — that
per-sequence loop *is* the compute half of the reproduction.

This module makes the **fragment**, not the sequence, the unit of the
hot loop (the same contiguous-layout lesson the paper's parallel file
systems apply to I/O: pack once, then operate in bulk):

* :func:`build_scan_structures` concatenates a fragment's encoded
  sequences into one flat array with one-symbol sentinel separators,
  computes rolling word codes for the whole concatenation **once**, and
  masks out every window that spans a sentinel (those windows would
  otherwise manufacture chimeric words across sequence boundaries);
* :func:`scan_fragment` runs a query :class:`~repro.blast.kmer.WordIndex`
  against the cached codes in one shot and maps the hits back to
  ``(sequence id, subject offset)`` groups via ``np.searchsorted`` on
  the cached per-sequence offsets table;
* :class:`ScanCache` keeps the expensive per-fragment artifacts
  (concatenation, offsets table, word codes) in a bounded LRU keyed by
  fragment identity, so a stream of queries against the same fragments
  — the warm-cache and query-stream workloads — pays the packing cost
  once per fragment.

The kernel is exact: for every window that lies inside one sequence the
concatenated code equals the per-sequence code, so downstream seeding /
extension sees byte-identical hits (``tests/test_blast_scankernel.py``
asserts old-vs-new equivalence on randomized databases).
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.kmer import WordIndex

#: Default bounds of the process-wide ScanCache: at most 8 fragments
#: and ~256 MB of cached structures (a 1 M-residue fragment costs
#: ~17 bytes/residue: 1 for the concatenation, 8 for codes, 8 for the
#: valid-window positions).
DEFAULT_MAX_ENTRIES = 8
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_token_counter = itertools.count(1)


def db_token(db) -> int:
    """The database's scan-cache identity token, assigned on first use.

    Tokens are the process-local half of the key every scan-structure
    consumer shares (the :class:`ScanCache`, the shared-memory pack
    registry of :mod:`repro.exec`): monotonically increasing, so a
    recycled ``id()`` can never alias a dead database.  Falls back to
    ``id(db)`` for objects that refuse attributes.
    """
    token = getattr(db, "_scan_token", None)
    if token is None:
        token = next(_token_counter)
        try:
            db._scan_token = token
        except (AttributeError, TypeError):  # pragma: no cover
            token = id(db)
    return token


@dataclass
class ScanStructures:
    """Cached per-fragment scan artifacts.

    ``concat`` holds every sequence of the fragment back to back,
    separated by single sentinel symbols (value ``base``, one above the
    alphabet).  ``codes`` are the rolling word codes of every window
    that does **not** span a sentinel; ``code_pos[i]`` is the position
    of ``codes[i]`` in ``concat``.  ``starts``/``lengths`` give each
    sequence's slice of ``concat``.
    """

    k: int
    base: int
    n_sequences: int
    total_residues: int
    concat: np.ndarray      # uint8, length sum(lengths) + (n-1) sentinels
    starts: np.ndarray      # int64 (n,), start offset of each sequence
    lengths: np.ndarray     # int64 (n,)
    codes: np.ndarray       # int64, valid word codes only
    code_pos: np.ndarray    # int64, concat position of each valid code

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the cached arrays."""
        return (self.concat.nbytes + self.starts.nbytes +
                self.lengths.nbytes + self.codes.nbytes +
                self.code_pos.nbytes)

    def subject(self, sid: int) -> np.ndarray:
        """View of sequence *sid* inside the concatenation."""
        lo = int(self.starts[sid])
        return self.concat[lo:lo + int(self.lengths[sid])]


def build_scan_structures(db, k: int, base: int) -> ScanStructures:
    """Pack one database fragment for bulk scanning.

    *db* is anything with the :class:`~repro.blast.seqdb.SequenceDB`
    access surface (``__len__``, ``lengths``, ``sequence``).  Sequences
    shorter than *k* (including empty ones) contribute no valid windows
    and therefore can never produce hits — exactly like the
    per-sequence scan, where their code arrays are empty.
    """
    n = len(db)
    lengths = np.asarray(db.lengths() if n else [], dtype=np.int64)
    # Sequence i starts after all previous sequences plus i sentinels.
    starts = np.zeros(n, dtype=np.int64)
    if n:
        np.cumsum(lengths[:-1] + 1, out=starts[1:])
    total = int(lengths.sum()) if n else 0
    length = total + max(n - 1, 0)

    # Lazy databases expose a bulk loader: one contiguous payload read
    # beats n seek+read round trips when packing a whole fragment.
    preload = getattr(db, "preload_sequences", None)
    if preload is not None:
        preload()

    sentinel = base
    concat = np.full(length, sentinel, dtype=np.uint8)
    for i in range(n):
        lo = int(starts[i])
        concat[lo:lo + int(lengths[i])] = db.sequence(i)

    n_windows = length - k + 1
    if n_windows <= 0:
        codes = np.empty(0, dtype=np.int64)
        code_pos = np.empty(0, dtype=np.int64)
    else:
        # Rolling codes by Horner evaluation: k passes over the flat
        # array instead of a (n_windows, k) strided matmul.  Sentinel
        # digits are worth ``base``, so the widest intermediate is
        # bounded by (base+1)**k — int32 when that fits (every standard
        # word size), int64 otherwise.
        code_dtype = np.int32 if (base + 1) ** k < 2 ** 31 else np.int64
        codes_full = np.zeros(n_windows, dtype=code_dtype)
        for j in range(k):
            codes_full *= base
            codes_full += concat[j:j + n_windows]
        # A window is valid iff it contains no sentinel — i.e. iff it
        # lies wholly inside one sequence.  The sentinel positions are
        # known from the layout, so the valid positions are constructed
        # directly (sequence i contributes ``starts[i] + arange(w_i)``
        # windows) instead of the old cumsum-over-sentinels scan, which
        # cost three extra full-length passes over the concatenation.
        per_seq = np.maximum(lengths - (k - 1), 0)
        nz = per_seq > 0
        reps = per_seq[nz]
        total_windows = int(reps.sum())
        if total_windows:
            rep_starts = np.repeat(starts[nz], reps)
            within = np.arange(total_windows, dtype=np.int64) - np.repeat(
                np.concatenate([[0], np.cumsum(reps)[:-1]]), reps)
            code_pos = rep_starts + within
        else:
            code_pos = np.empty(0, dtype=np.int64)
        codes = codes_full[code_pos]

    return ScanStructures(k=k, base=base, n_sequences=n,
                          total_residues=total, concat=concat,
                          starts=starts, lengths=lengths,
                          codes=codes, code_pos=code_pos)


def scan_fragment(index: WordIndex, structs: ScanStructures
                  ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """Scan a query word index against a packed fragment.

    Returns ``(sid, subject_positions, query_positions)`` triples in
    ascending ``sid`` order, one per sequence with at least one word
    hit; positions are local to the sequence, exactly as the
    per-sequence ``index.scan`` would have produced them.
    """
    cpos, qpos = index.scan(structs.codes)
    if len(cpos) == 0:
        return []
    gpos = structs.code_pos[cpos]            # ascending concat positions
    sids = np.searchsorted(structs.starts, gpos, side="right") - 1
    local = gpos - structs.starts[sids]
    cuts = np.nonzero(np.diff(sids))[0] + 1
    bounds = np.concatenate([[0], cuts, [len(sids)]])
    return [(int(sids[bounds[t]]),
             local[bounds[t]:bounds[t + 1]],
             qpos[bounds[t]:bounds[t + 1]])
            for t in range(len(bounds) - 1)]


class QueryBatch:
    """N query word-indexes packed into one combined lookup structure.

    The serial driver pays one full pass over a fragment's cached word
    codes *per query orientation* (the presence-bitmap gather inside
    ``WordIndex.scan`` touches every code).  A batch folds every
    entry's words into one sorted table — ``unique_codes`` with
    ``offsets`` into parallel ``positions``/``eids`` arrays, plus one
    shared presence bitmap — so a single pass serves all N entries and
    every hit comes back tagged with the entry id it belongs to.

    Entries are whatever the caller treats as independent scans; the
    batched search driver uses one entry per (query, orientation).  All
    indexes must share ``(k, base)``.  Within one subject position the
    expanded hits appear entry-major, and within an entry in that
    index's own order — so filtering the combined hit stream down to
    one entry reproduces exactly what ``index.scan`` would have
    returned for it (the byte-identity argument of the batched path).
    """

    def __init__(self, indexes: Sequence[WordIndex]):
        if not indexes:
            raise ValueError("QueryBatch needs at least one index")
        k, base = indexes[0].k, indexes[0].base
        for ix in indexes[1:]:
            if ix.k != k or ix.base != base:
                raise ValueError(
                    f"all indexes in a batch must share (k, base); got "
                    f"({ix.k}, {ix.base}) vs ({k}, {base})")
        self.k = k
        self.base = base
        self.n_entries = len(indexes)
        codes_parts: List[np.ndarray] = []
        pos_parts: List[np.ndarray] = []
        eid_parts: List[np.ndarray] = []
        for eid, ix in enumerate(indexes):
            if ix.n_words == 0:
                continue
            counts = np.diff(ix.offsets)
            # ``positions`` is already stored code-major inside the
            # index; repeating the unique codes by their counts
            # reconstructs the aligned (code, position) pairs.
            codes_parts.append(np.repeat(ix.unique_codes, counts))
            pos_parts.append(ix.positions)
            eid_parts.append(np.full(ix.n_words, eid, dtype=np.int64))
        if codes_parts:
            codes = np.concatenate(codes_parts)
            positions = np.concatenate(pos_parts)
            eids = np.concatenate(eid_parts)
        else:
            codes = np.empty(0, dtype=np.int64)
            positions = np.empty(0, dtype=np.int64)
            eids = np.empty(0, dtype=np.int64)
        # Stable sort keeps, within one code, the entry-major order of
        # the concatenation — and within one entry, the index's own
        # (already code-sorted) position order.
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        self.positions = positions[order]
        self.eids = eids[order]
        self.unique_codes, starts = np.unique(codes, return_index=True)
        self.offsets = np.append(starts, len(codes)).astype(np.int64)
        space = base ** k
        if 0 < space <= WordIndex._BITMAP_LIMIT:
            self._present = np.zeros(space, dtype=bool)
            self._present[self.unique_codes] = True
        else:
            self._present = None

    @property
    def n_words(self) -> int:
        return len(self.positions)

    def scan(self, subject_codes: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Find all word hits of every entry in one subject pass.

        Returns ``(subject_positions, entry_ids, query_positions)``,
        one row per (subject word, matching entry word) pair — the
        multi-entry form of :meth:`WordIndex.scan`.
        """
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                 np.empty(0, dtype=np.int64))
        if len(subject_codes) == 0 or len(self.unique_codes) == 0:
            return empty
        if self._present is not None:
            spos = np.nonzero(self._present[subject_codes])[0]
            if len(spos) == 0:
                return empty
            uidx = np.searchsorted(self.unique_codes, subject_codes[spos])
        else:
            idx = np.searchsorted(self.unique_codes, subject_codes)
            idx_clipped = np.minimum(idx, len(self.unique_codes) - 1)
            valid = self.unique_codes[idx_clipped] == subject_codes
            spos = np.nonzero(valid)[0]
            if len(spos) == 0:
                return empty
            uidx = idx_clipped[spos]
        starts = self.offsets[uidx]
        counts = self.offsets[uidx + 1] - starts
        total = int(counts.sum())
        rep_starts = np.repeat(starts, counts)
        within = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        flat = rep_starts + within
        return (np.repeat(spos, counts), self.eids[flat],
                self.positions[flat])


def scan_fragment_batch(batch: QueryBatch, structs: ScanStructures
                        ) -> List[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Scan a whole query batch against a packed fragment in one pass.

    Returns ``(entry_id, sid, subject_positions, query_positions)``
    groups, entry-major with ascending ``sid`` inside each entry.  For
    every entry the groups are exactly what :func:`scan_fragment` would
    have produced for that entry's index alone — one combined bitmap
    gather, ``searchsorted`` hit-mapping pass, and grouping sort serve
    all N entries instead of N separate traversals.
    """
    from repro.blast.seed import group_hits_by_entry

    cpos, eids, qpos = batch.scan(structs.codes)
    if len(cpos) == 0:
        return []
    gpos = structs.code_pos[cpos]
    sids = np.searchsorted(structs.starts, gpos, side="right") - 1
    local = gpos - structs.starts[sids]
    return group_hits_by_entry(eids, sids, local, qpos)


class ScanCache:
    """Bounded LRU cache of :class:`ScanStructures`, keyed by fragment.

    The key combines a per-database token (assigned on first use, so a
    recycled ``id()`` can never alias), the database's sequence and
    residue counts plus its mutation version (so adding a sequence
    invalidates stale entries), and the word size / alphabet base.

    Entries are evicted least-recently-used when either bound —
    ``max_entries`` or ``max_bytes`` — is exceeded; the most recent
    entry is always retained, even if it alone exceeds ``max_bytes``.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[tuple, ScanStructures]" = OrderedDict()
        self._finalized: set = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _db_key(self, db) -> tuple:
        token = db_token(db)
        if token not in self._finalized:
            self._finalized.add(token)
            try:
                weakref.finalize(db, self.evict, token)
            except TypeError:  # pragma: no cover
                pass
        return (token, len(db), db.total_residues,
                getattr(db, "_version", 0))

    def evict(self, token: int) -> int:
        """Explicitly drop every entry built from the database with
        *token*; returns how many entries were dropped.

        The ``weakref`` finalizer only covers same-process lifetime: a
        pack attached in a pool worker lives in *that* process, so a
        long-lived parent would otherwise pin entries for children that
        are already dead.  The pool teardown path calls this directly.
        """
        keys = [k for k in self._entries if k[0][0] == token]
        for key in keys:
            del self._entries[key]
        return len(keys)

    # ------------------------------------------------------------------
    def get(self, db, k: int, base: int) -> ScanStructures:
        """Return the packed structures for *db*, building on miss."""
        key = (self._db_key(db), k, base)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = build_scan_structures(db, k, base)
        self._entries[key] = entry
        self._evict()
        return entry

    def put(self, db, k: int, base: int, structs: ScanStructures) -> None:
        """Seed the cache with externally built structures for *db*.

        The process pool uses this to prime a worker's cache with
        shared-memory-backed packs so :func:`~repro.blast.search.search`
        attaches zero-copy instead of repacking.  Same LRU accounting as
        a miss.
        """
        key = (self._db_key(db), k, base)
        self._entries[key] = structs
        self._entries.move_to_end(key)
        self._evict()

    def _evict(self) -> None:
        while len(self._entries) > 1 and (
                len(self._entries) > self.max_entries
                or self.total_bytes > self.max_bytes):
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._entries),
                "bytes": self.total_bytes}

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        self._entries.clear()


_DEFAULT_CACHE = ScanCache()


def default_scan_cache() -> ScanCache:
    """The process-wide cache used by :func:`repro.blast.search.search`
    when no explicit cache is passed."""
    return _DEFAULT_CACHE
