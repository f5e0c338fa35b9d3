"""Shared-memory fragment packs.

A fragment's packed scan structures (the flat sentinel-separated
concatenation, rolling word codes, offsets tables — see
:mod:`repro.blast.scankernel`) are immutable once built, which makes
them ideal for ``multiprocessing.shared_memory``: the master packs each
fragment **once**, and every pool worker attaches the segment and
reconstructs zero-copy ``numpy`` views over it.  The description
strings ride along in the same segment (a UTF-8 blob plus an offsets
table), so a worker needs nothing but the :class:`PackSpec` — a small
picklable descriptor — to serve searches against the fragment.

Lifetime discipline (the same orphan-cleanup lesson PR 1 applied to
simulated I/O processes):

* every segment this process creates is tracked in a
  :class:`ShmRegistry` whose ``release_all`` runs at interpreter exit;
* Python's own ``resource_tracker`` is the crash net — if the creating
  process is SIGKILLed, the tracker daemon unlinks every registered
  segment when the pipe to its parent drops;
* workers *attach* but never own: the resource-tracker daemon is
  shared across the process tree (its fd is inherited under fork and
  spawn alike), so a worker's attach merely re-registers the name into
  the same set — workers only ``close()`` on teardown and must never
  unregister, or they would strip the creator's crash-net entry.

Segment names carry the ``repro_`` prefix so a leak check is one
``ls /dev/shm`` away (CI fails the job if any survive the suite).
"""

from __future__ import annotations

import atexit
import os
import secrets
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.scankernel import ScanStructures, build_scan_structures

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None

#: Offsets inside a segment are aligned so every reconstructed array
#: view is at least cacheline-aligned.
_ALIGN = 64

#: Every segment this package creates starts with this prefix; the CI
#: leak check greps ``/dev/shm`` for it (and for ``psm_``, the stdlib's
#: anonymous default, which we never use on purpose).
NAME_PREFIX = "repro"

#: The ScanStructures array fields serialized into a pack, in layout
#: order.  ``hdr_blob``/``hdr_offsets`` carry the description strings.
_FIELDS = ("concat", "starts", "lengths", "codes", "code_pos",
           "hdr_blob", "hdr_offsets")


class PackIntegrityError(RuntimeError):
    """A shared-memory pack failed CRC32 verification.

    Raised at publish time (a torn write — the read-back of the fresh
    segment differs from the source arrays) or at attach time (the
    segment was corrupted between publish and attach).  Typed so the
    pool and CLI can fail loudly and distinctly instead of serving
    silent garbage hits from a damaged mapping.  Takes a plain message
    so it pickles across worker pipes.
    """


def _integrity_error(name: str, field: str, expected: int,
                     got: int) -> PackIntegrityError:
    return PackIntegrityError(
        f"pack {name!r}: field {field!r} CRC32 mismatch "
        f"(expected {expected:#010x}, got {got:#010x})")


def _crc(arr: np.ndarray) -> int:
    """CRC32 over an array's raw bytes (contiguous by construction)."""
    try:
        return zlib.crc32(memoryview(arr).cast("B"))
    except TypeError:  # pragma: no cover - non-contiguous fallback
        return zlib.crc32(arr.tobytes())


@dataclass(frozen=True)
class PackSpec:
    """Picklable descriptor of one shared-memory fragment pack.

    ``cache_token`` is the pack's ScanCache identity, minted from the
    parent database's existing token+version scheme as
    ``(parent_token, parent_version, fragment_id)`` — unique per
    fragment even when greedy binning yields fragments of identical
    shape, and stale by construction once the parent mutates.
    """

    name: str                     # shared-memory segment name
    cache_token: tuple
    seqtype: str
    fragment_id: Optional[int]
    k: int
    base: int
    n_sequences: int
    total_residues: int
    source_ids: Tuple[int, ...]   # parent ordinal of each local sequence
    arrays: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    size: int
    #: CRC32 per serialized field, computed from the published segment
    #: itself (read-back) so a torn publish fails immediately; attach
    #: re-verifies unless explicitly told not to.  Empty = unverified
    #: legacy spec.
    checksums: Tuple[Tuple[str, int], ...] = ()


def _segment_name(fragment_id: Optional[int]) -> str:
    frag = "x" if fragment_id is None else str(fragment_id)
    return (f"{NAME_PREFIX}_{os.getpid()}_f{frag}_{secrets.token_hex(6)}")


def ensure_tracker() -> None:
    """Start the resource-tracker daemon in *this* process now.

    The pool calls this before spawning workers: the tracker starts
    lazily on first shared-memory use, and a worker forked before that
    point would lazily spawn its *own* tracker whose attach
    registrations nothing ever unlinks (spurious leak warnings at
    worker exit).  Started eagerly, every child inherits the parent
    tracker's fd and all registrations land in one shared cache where
    create/attach re-registration is idempotent and the single
    unlink-time unregister clears the name for good.
    """
    try:  # pragma: no cover - trivial passthrough to stdlib
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:
        pass


class ShmRegistry:
    """Owner-side ledger of created segments with guaranteed unlink.

    ``release_all`` runs via ``atexit`` in the creating process only
    (children forked from it inherit the ledger but never own the
    segments, so release checks the pid).
    """

    def __init__(self):
        self._segments: Dict[str, object] = {}
        self._pid = os.getpid()
        atexit.register(self.release_all)

    def register(self, shm) -> None:
        self._segments[shm.name] = shm

    def names(self) -> List[str]:
        return list(self._segments)

    def release(self, name: str) -> bool:
        """Unlink and close one segment; idempotent, crash-tolerant."""
        if os.getpid() != self._pid:  # pragma: no cover - child ledger copy
            self._segments.pop(name, None)
            return False
        shm = self._segments.pop(name, None)
        if shm is None:
            return False
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        try:
            shm.close()
        except BufferError:  # pragma: no cover - live views; exit soon
            pass
        return True

    def release_all(self) -> int:
        released = 0
        for name in list(self._segments):
            released += bool(self.release(name))
        return released

    def __len__(self) -> int:
        return len(self._segments)


_DEFAULT_REGISTRY: Optional[ShmRegistry] = None


def default_registry() -> ShmRegistry:
    """The process-wide registry (created on first use, per process)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None or _DEFAULT_REGISTRY._pid != os.getpid():
        _DEFAULT_REGISTRY = ShmRegistry()
    return _DEFAULT_REGISTRY


# ----------------------------------------------------------------------
def pack_layout(structs: ScanStructures, descriptions: Sequence[str]):
    """Compute the canonical pack byte layout for *structs*.

    Returns ``(arrays, layout, size)`` where *arrays* maps field name →
    contiguous ndarray, *layout* is the ``(field, dtype, shape, offset)``
    section table with every offset rounded up to :data:`_ALIGN`, and
    *size* is the total data-region length.  This single function
    defines the layout for **both** shared-memory segments
    (:func:`create_pack`) and on-disk packs
    (:mod:`repro.exec.diskpack`), which is what lets a pack file be
    bulk-copied into a segment without re-encoding.
    """
    hdr_parts = [d.encode() for d in descriptions]
    hdr_offsets = np.zeros(len(hdr_parts) + 1, dtype=np.int64)
    if hdr_parts:
        np.cumsum([len(b) for b in hdr_parts], out=hdr_offsets[1:])
    hdr_blob = np.frombuffer(b"".join(hdr_parts), dtype=np.uint8)

    arrays = {
        "concat": structs.concat, "starts": structs.starts,
        "lengths": structs.lengths, "codes": structs.codes,
        "code_pos": structs.code_pos,
        "hdr_blob": hdr_blob, "hdr_offsets": hdr_offsets,
    }
    layout = []
    offset = 0
    for field in _FIELDS:
        arr = np.ascontiguousarray(arrays[field])
        arrays[field] = arr
        layout.append((field, arr.dtype.str, tuple(arr.shape), offset))
        offset += -(-arr.nbytes // _ALIGN) * _ALIGN
    return arrays, tuple(layout), offset


def create_pack(structs: ScanStructures, descriptions: Sequence[str],
                seqtype: str, cache_token: tuple,
                fragment_id: Optional[int] = None,
                source_ids: Optional[Sequence[int]] = None,
                registry: Optional[ShmRegistry] = None) -> PackSpec:
    """Copy packed scan structures into a fresh shared-memory segment.

    Returns the :class:`PackSpec` workers attach with.  The segment is
    registered for unlink in *registry* (default: the process-wide
    one).
    """
    if _shm is None:  # pragma: no cover
        raise RuntimeError("multiprocessing.shared_memory unavailable")
    arrays, layout, offset = pack_layout(structs, descriptions)

    name = _segment_name(fragment_id)
    shm = _shm.SharedMemory(name=name, create=True, size=max(offset, 1))
    checksums = []
    for field, dtype, shape, off in layout:
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        view[...] = arrays[field]
        # Publish-time integrity: checksum the segment's own bytes and
        # cross-check against the source — a torn write fails here, and
        # the recorded CRC lets every attach re-verify cheaply.
        written = _crc(view)
        expected = _crc(arrays[field])
        if written != expected:  # pragma: no cover - torn publish
            shm.close()
            shm.unlink()
            raise _integrity_error(name, field, expected, written)
        checksums.append((field, written))
    # Explicit None check: an *empty* ShmRegistry is falsy (__len__).
    (registry if registry is not None else default_registry()).register(shm)
    return PackSpec(
        name=name, cache_token=cache_token, seqtype=seqtype,
        fragment_id=fragment_id,
        k=structs.k, base=structs.base, n_sequences=structs.n_sequences,
        total_residues=structs.total_residues,
        source_ids=tuple(int(i) for i in (source_ids or range(structs.n_sequences))),
        arrays=tuple(layout), size=max(offset, 1),
        checksums=tuple(checksums),
    )


def pack_fragment(db, k: int, base: int, cache_token: tuple,
                  registry: Optional[ShmRegistry] = None) -> PackSpec:
    """Build scan structures for a fragment database and publish them
    as a shared-memory pack in one step."""
    structs = build_scan_structures(db, k, base)
    descriptions = [db.description(i) for i in range(len(db))]
    return create_pack(structs, descriptions, db.seqtype, cache_token,
                       fragment_id=db.fragment_id,
                       source_ids=getattr(db, "source_ids", None),
                       registry=registry)


def publish_pack_bytes(data, layout, checksums, *, seqtype: str,
                       cache_token: tuple, fragment_id: Optional[int],
                       k: int, base: int, n_sequences: int,
                       total_residues: int,
                       source_ids: Sequence[int], size: int,
                       registry: Optional[ShmRegistry] = None) -> PackSpec:
    """Publish an already-encoded pack data region into shared memory.

    *data* is the raw byte region of a pack whose sections follow the
    canonical :func:`pack_layout` — in practice a ``memoryview`` over a
    mmapped on-disk pack (:class:`repro.exec.diskpack.DiskPack`).  The
    bytes are bulk-copied into a fresh segment (one memcpy, no
    re-encoding) and every field is re-checksummed from the segment
    itself against the recorded CRC32s, so a torn copy or a corrupted
    source fails with :class:`PackIntegrityError` before any worker can
    attach.  This is the pool's cold-start path: disk → shm without
    rebuilding a single scan structure.
    """
    if _shm is None:  # pragma: no cover
        raise RuntimeError("multiprocessing.shared_memory unavailable")
    if len(data) != size:
        raise PackIntegrityError(
            f"pack data region is {len(data)} bytes, layout expects {size}")
    name = _segment_name(fragment_id)
    shm = _shm.SharedMemory(name=name, create=True, size=max(size, 1))
    try:
        if size:
            shm.buf[:size] = data
        crc_map = dict(checksums)
        for field, dtype, shape, off in layout:
            view = np.ndarray(tuple(shape), dtype=dtype, buffer=shm.buf,
                              offset=off)
            got = _crc(view)
            expected = crc_map.get(field)
            if expected is None or got != expected:
                raise _integrity_error(name, field, expected or 0, got)
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    (registry if registry is not None else default_registry()).register(shm)
    return PackSpec(
        name=name, cache_token=cache_token, seqtype=seqtype,
        fragment_id=fragment_id, k=k, base=base,
        n_sequences=n_sequences, total_residues=total_residues,
        source_ids=tuple(int(i) for i in source_ids),
        arrays=tuple((f, d, tuple(s), o) for f, d, s, o in layout),
        size=max(size, 1), checksums=tuple((f, int(c)) for f, c in checksums),
    )


def read_pack_bytes(spec: PackSpec) -> bytes:
    """Copy a published pack's whole data region out of shared memory.

    This is the master-side half of pack *shipping*: the bytes follow
    the canonical :func:`pack_layout` (the same region an on-disk
    ``.rpk`` pack carries), so a remote node can republish them through
    :func:`publish_pack_bytes` — which re-verifies every per-field
    CRC32 from its own fresh segment, catching corruption introduced
    anywhere along the copy → frame → copy chain.
    """
    if _shm is None:  # pragma: no cover
        raise RuntimeError("multiprocessing.shared_memory unavailable")
    seg = _shm.SharedMemory(name=spec.name)
    try:
        return bytes(seg.buf[:spec.size])
    finally:
        seg.close()


def corrupt_segment(spec: PackSpec, field: Optional[str] = None,
                    nbytes: int = 8) -> str:
    """Flip bytes inside one field of a published pack (fault hook).

    Damages *nbytes* in the middle of *field*'s data region (default:
    the largest field, usually the concatenation) so the corruption is
    guaranteed to land on checksummed payload rather than alignment
    padding.  Returns the corrupted field name.  Test/chaos use only —
    this is the torn-segment fault that attach-time CRC verification
    must catch.
    """
    if _shm is None:  # pragma: no cover
        raise RuntimeError("multiprocessing.shared_memory unavailable")
    layout = {f: (dtype, shape, off) for f, dtype, shape, off in spec.arrays}
    if field is None:
        field = max(layout, key=lambda f: int(
            np.prod(layout[f][1], dtype=np.int64))
            * np.dtype(layout[f][0]).itemsize)
    dtype, shape, off = layout[field]
    size = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    if size == 0:
        raise ValueError(f"field {field!r} is empty; nothing to corrupt")
    seg = _shm.SharedMemory(name=spec.name)
    try:
        start = off + max(0, size // 2 - 1)
        for pos in range(start, min(off + size, start + nbytes)):
            seg.buf[pos] ^= 0xFF
    finally:
        seg.close()
    return field


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable descriptor of one worker's shm result arena."""

    name: str
    size: int


class ResultArena:
    """A per-worker shared-memory slab for batched result shipping.

    The worker serializes a completed task's results
    (:mod:`repro.exec.results`), writes the blob into its arena, and
    sends only a small ``(offset, nbytes, crc)`` descriptor over the
    pipe; the master reads the blob back and verifies the CRC32 before
    decoding — the same integrity discipline as pack fields, so a torn
    or scribbled arena raises :class:`PackIntegrityError` instead of
    producing silent garbage hits.  One writer (the worker), one
    reader (the master), strictly alternating: the master consumes a
    descriptor before it dispatches the worker's next task, so a
    single slot at offset 0 is race-free.
    """

    def __init__(self, spec: ArenaSpec, create: bool = False,
                 registry: Optional[ShmRegistry] = None):
        if _shm is None:  # pragma: no cover
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        self.spec = spec
        self._shm = _shm.SharedMemory(name=spec.name, create=create,
                                      size=spec.size if create else 0)
        if create:
            (registry if registry is not None
             else default_registry()).register(self._shm)

    @classmethod
    def create(cls, size: int, tag: str = "a",
               registry: Optional[ShmRegistry] = None) -> "ResultArena":
        """Allocate a fresh arena (master side; registered for unlink)."""
        name = (f"{NAME_PREFIX}_{os.getpid()}_arena_{tag}_"
                f"{secrets.token_hex(6)}")
        return cls(ArenaSpec(name=name, size=max(int(size), 1)), create=True,
                   registry=registry)

    @property
    def size(self) -> int:
        return self.spec.size

    def write(self, blob: bytes, offset: int = 0) -> Tuple[int, int, int]:
        """Copy *blob* into the arena; returns ``(offset, nbytes, crc)``
        — the descriptor the pipe carries instead of the payload."""
        n = len(blob)
        if offset < 0 or offset + n > self.spec.size:
            raise ValueError(f"blob of {n} bytes does not fit arena "
                             f"{self.spec.name!r} ({self.spec.size} bytes) "
                             f"at offset {offset}")
        self._shm.buf[offset:offset + n] = blob
        return offset, n, zlib.crc32(blob)

    def read(self, offset: int, nbytes: int, crc: int) -> bytes:
        """Read a descriptor's payload back, verifying its CRC32;
        raises :class:`PackIntegrityError` on mismatch."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.spec.size:
            raise PackIntegrityError(
                f"arena {self.spec.name!r}: descriptor ({offset}, {nbytes}) "
                f"exceeds arena size {self.spec.size}")
        blob = bytes(self._shm.buf[offset:offset + nbytes])
        got = zlib.crc32(blob)
        if got != crc:
            raise PackIntegrityError(
                f"arena {self.spec.name!r}: result blob CRC32 mismatch "
                f"(expected {crc:#010x}, got {got:#010x})")
        return blob

    def close(self) -> None:
        """Drop the mapping (the creating registry owns the unlink)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - live views; exit soon
            pass


class AttachedPack:
    """A pack mapped into this process: zero-copy views, no ownership.

    Attach verifies the segment against the spec's recorded CRC32s by
    default (*verify=False* skips it, e.g. for hot re-attach of a
    segment this process just published), so a corrupted or torn
    mapping raises :class:`PackIntegrityError` before a single hit can
    be computed from it.
    """

    def __init__(self, spec: PackSpec, verify: bool = True):
        if _shm is None:  # pragma: no cover
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        self.spec = spec
        self._shm = _shm.SharedMemory(name=spec.name)
        views = {}
        for field, dtype, shape, off in spec.arrays:
            views[field] = np.ndarray(shape, dtype=dtype,
                                      buffer=self._shm.buf, offset=off)
        self._views = views
        if verify:
            try:
                self.verify()
            except PackIntegrityError:
                self.close()
                raise
        self.hdr_blob: np.ndarray = views["hdr_blob"]
        self.hdr_offsets: np.ndarray = views["hdr_offsets"]
        self.structs = ScanStructures(
            k=spec.k, base=spec.base, n_sequences=spec.n_sequences,
            total_residues=spec.total_residues, concat=views["concat"],
            starts=views["starts"], lengths=views["lengths"],
            codes=views["codes"], code_pos=views["code_pos"])

    def verify(self) -> None:
        """Re-checksum every field against the spec; raises
        :class:`PackIntegrityError` on the first mismatch."""
        for field, expected in self.spec.checksums:
            got = _crc(self._views[field])
            if got != expected:
                raise _integrity_error(self.spec.name, field, expected, got)

    def close(self) -> None:
        """Drop the mapping (never unlinks — the creator owns that).
        Tolerates still-exported views; the mapping then lives until
        process exit, which is where teardown calls this anyway."""
        try:
            self._shm.close()
        except BufferError:
            pass


class PackDB:
    """Duck-typed ``SequenceDB`` surface over an attached pack.

    Serves :func:`~repro.blast.search.search` in a worker without ever
    copying sequence payloads: ``sequence(i)`` is a slice view into the
    shared concatenation, descriptions decode lazily from the shared
    header blob.  Carries the pack's ScanCache identity so a worker cache
    primed via :meth:`~repro.blast.scankernel.ScanCache.put` hits.
    """

    def __init__(self, pack: AttachedPack):
        spec = pack.spec
        self._pack = pack
        self.seqtype = spec.seqtype
        self.name = spec.name
        self.fragment_id = spec.fragment_id
        self.source_ids = list(spec.source_ids)
        # ScanCache key compatibility: the pack's token is the whole
        # identity, so a primed entry is an exact hit and two packs can
        # never alias (tokens are tuples, but the cache only needs
        # hashability and equality).
        self._scan_token = spec.cache_token
        self._version = 0
        self._hdr_cache: Dict[int, str] = {}

    def __len__(self) -> int:
        return self._pack.spec.n_sequences

    @property
    def n_sequences(self) -> int:
        return self._pack.spec.n_sequences

    @property
    def total_residues(self) -> int:
        return self._pack.spec.total_residues

    def lengths(self) -> List[int]:
        return [int(x) for x in self._pack.structs.lengths]

    def scan_structures(self, k: int, base: int):
        """The pack's pre-built structures when they match ``(k, base)``.

        :func:`~repro.blast.search.search` prefers this provider over a
        :class:`~repro.blast.scankernel.ScanCache` rebuild — the pack
        already *is* the scan structure, in shm or mmapped from disk —
        and falls back to the cache on mismatch (``None``).
        """
        s = self._pack.structs
        return s if (s.k == k and s.base == base) else None

    def sequence(self, i: int) -> np.ndarray:
        return self._pack.structs.subject(i)

    def description(self, i: int) -> str:
        desc = self._hdr_cache.get(i)
        if desc is None:
            lo = int(self._pack.hdr_offsets[i])
            hi = int(self._pack.hdr_offsets[i + 1])
            desc = bytes(self._pack.hdr_blob[lo:hi]).decode()
            self._hdr_cache[i] = desc
        return desc

    def __iter__(self):
        return ((self.description(i), self.sequence(i))
                for i in range(len(self)))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PackDB {self.name!r} {self.seqtype} n={len(self)} "
                f"residues={self.total_residues}>")
