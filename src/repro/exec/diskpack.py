"""Persistent on-disk fragment packs: the paper-scale database format.

The paper formats a 2.7 GB ``nt`` once with ``formatdb`` and then every
search run attaches to the preformatted files; our fragment packs were
rebuilt in RAM per process, so every restart repaid the whole publish
cost.  This module makes a pack *persistent*: a versioned, checksummed,
mmap-able file whose data region is **byte-identical** to a
shared-memory segment's (:func:`repro.exec.shm.pack_layout` defines the
layout for both), so a cold start is either a zero-copy ``mmap``
(serial search) or one ``memcpy`` into shm (the pool) — never a
re-encode.

Layout of one ``.rpk`` pack file::

    [preamble, 32 B ]  magic ``RPKPACK1``, format version, flags,
                       header length, header CRC32, padding
    [header,   JSON ]  seqtype, word size/base, counts, global source
                       ids, the ScanCache identity, the section table
                       ``(field, dtype, shape, offset)`` and per-field
                       CRC32s — the same fields, order and 64-byte
                       alignment as a shm segment
    [pad to 64 B    ]
    [data region    ]  the sections themselves

A *pack store* is a directory of pack files plus a ``manifest.json``
naming them.  The manifest is written last via atomic rename, making it
the commit point: a build crashing at any earlier moment leaves no
readable store (only a stale ``.rpk-build-*`` spool directory and
``*.tmp`` files, which the next build sweeps), and each pack file is
itself committed with the same ``tmp → fsync → rename`` discipline, so
a readable ``.rpk`` is always complete.

Integrity taxonomy (the "never a wrong answer" contract):

* :class:`PackFormatError` — wrong magic or an unsupported format
  version: this reader must not interpret the bytes at all;
* :class:`~repro.exec.shm.PackIntegrityError` (its base) — right
  format, damaged content: truncation, header CRC mismatch, a
  section failing its CRC32 at open/attach, or a manifest entry not
  matching the pack file it names.

Both are raised before a single hit can be computed from the data.

The streaming builder (:class:`PackStoreBuilder`) formats arbitrarily
large FASTA in bounded memory: records stream in one at a time
(:func:`repro.blast.fasta.iter_fasta`), each is assigned to the
currently lightest fragment (online greedy — the streaming analog of
the LPT binning the in-RAM path uses) and spilled to a per-fragment
spool file immediately; finalize then packs one fragment at a time, so
peak memory is one fragment's scan structures, never the corpus.
"""

from __future__ import annotations

import json
import mmap
import os
import secrets
import shutil
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.blast.alphabet import DNA, PROTEIN, encode_dna, encode_protein
from repro.blast.fasta import FastaRecord, iter_fasta
from repro.blast.scankernel import ScanStructures, build_scan_structures
from repro.blast.search import (SearchParams, SearchResults,
                                merge_fragment_results, resolve_ka, search)
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.blast.stats import effective_search_space
from repro.exec.shm import (_ALIGN, _FIELDS, PackDB, PackIntegrityError,
                            PackSpec, _crc, _integrity_error, pack_layout)

#: File magic: 8 bytes, ASCII, format generation baked into the name.
MAGIC = b"RPKPACK1"

#: On-disk format version; bumped on any incompatible layout change.
#: Readers reject any other version (version negotiation is explicit:
#: there is exactly one readable version per build).
FORMAT_VERSION = 1

#: Pack files end in this; the manifest names them relative to the
#: store directory.
PACK_SUFFIX = ".rpk"

#: The store's commit point: written last, atomically.
MANIFEST_NAME = "manifest.json"

#: Streaming builds spool into a dot-directory with this prefix inside
#: the destination store (same filesystem — ``os.replace`` must be
#: atomic); leftovers from a crashed build are swept by the next one.
BUILD_DIR_PREFIX = ".rpk-build-"

#: ``<8sIIQI``: magic, format version, flags, header length, header
#: CRC32 — 28 bytes, padded to 32.
_PREAMBLE = struct.Struct("<8sIIQI")
_PREAMBLE_SIZE = 32

#: Crash hooks for the atomic-commit tests: after N section writes the
#: builder ``os._exit``\ s, simulating a mid-build kill; the manifest
#: hook dies after every pack is committed but before the store is.
_CRASH_SECTIONS_ENV = "REPRO_DISKPACK_CRASH_AFTER_SECTIONS"
_CRASH_MANIFEST_ENV = "REPRO_DISKPACK_CRASH_BEFORE_MANIFEST"
_CRASH_EXIT = 86

#: Every store directory a builder of this process has targeted; the
#: test suite's leak fixture sweeps these for stray build artifacts.
_BUILD_ROOTS: Set[str] = set()

#: Live DiskPack mappings in this process (id → path): the pool's
#: cold start must publish-and-close, and ``ExecPool.close()`` must
#: leave this empty — the mmap-still-open regression check.
_OPEN_PACKS: Dict[int, str] = {}


class PackFormatError(PackIntegrityError):
    """The file is not a pack this reader can interpret: wrong magic or
    an unsupported format version.  Subclasses
    :class:`~repro.exec.shm.PackIntegrityError` so every open failure
    is typed and catchable as one family, while version-negotiation
    failures stay distinguishable from damage to a well-formed pack."""


def _align64(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def build_roots() -> Set[str]:
    """Store directories builders of this process have written into."""
    return set(_BUILD_ROOTS)


def open_pack_count() -> int:
    """Live mmapped packs in this process (leak/regression checks)."""
    return len(_OPEN_PACKS)


def open_pack_paths() -> List[str]:
    return sorted(_OPEN_PACKS.values())


_section_writes = 0


def _maybe_crash_after_section() -> None:
    global _section_writes
    raw = os.environ.get(_CRASH_SECTIONS_ENV) or ""
    if not raw.strip():
        return
    _section_writes += 1
    if _section_writes >= int(raw):
        os._exit(_CRASH_EXIT)


def _maybe_crash_before_manifest() -> None:
    if (os.environ.get(_CRASH_MANIFEST_ENV) or "").strip():
        os._exit(_CRASH_EXIT)


# ----------------------------------------------------------------------
# One pack file
# ----------------------------------------------------------------------
def write_pack(path: str, structs: ScanStructures,
               descriptions: Sequence[str], *, seqtype: str,
               store_id: str, version: int, fragment_id: int,
               source_ids: Sequence[int]) -> dict:
    """Serialize one fragment's scan structures to *path*, atomically.

    The data region follows the canonical
    :func:`~repro.exec.shm.pack_layout` byte-for-byte.  The file is
    assembled as ``path + ".tmp"``, fsynced, then renamed into place —
    a crash at any point leaves either no file or a ``.tmp`` no reader
    ever opens, never a readable partial pack.  Returns the header
    dict.
    """
    arrays, layout, size = pack_layout(structs, descriptions)
    checksums = [(field, _crc(arrays[field]))
                 for field, _d, _s, _o in layout]
    header = {
        "format_version": FORMAT_VERSION,
        "seqtype": seqtype,
        "k": int(structs.k),
        "base": int(structs.base),
        "n_sequences": int(structs.n_sequences),
        "total_residues": int(structs.total_residues),
        "fragment_id": int(fragment_id),
        "store_id": store_id,
        "version": int(version),
        "source_ids": [int(i) for i in source_ids],
        "sections": [[f, d, list(s), o] for f, d, s, o in layout],
        "data_size": int(size),
        "checksums": [[f, int(c)] for f, c in checksums],
    }
    blob = json.dumps(header, separators=(",", ":")).encode()
    preamble = _PREAMBLE.pack(MAGIC, FORMAT_VERSION, 0, len(blob),
                              zlib.crc32(blob))
    preamble += b"\0" * (_PREAMBLE_SIZE - len(preamble))
    data_off = _align64(_PREAMBLE_SIZE + len(blob))

    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(preamble)
        f.write(blob)
        f.write(b"\0" * (data_off - _PREAMBLE_SIZE - len(blob)))
        pos = 0
        for field, _dtype, _shape, off in layout:
            if off > pos:
                f.write(b"\0" * (off - pos))
                pos = off
            arr = arrays[field]
            f.write(memoryview(arr).cast("B"))
            pos += arr.nbytes
            _maybe_crash_after_section()
        if size > pos:
            f.write(b"\0" * (size - pos))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return header


def _read_header(f, path: str) -> Tuple[dict, int]:
    """Parse and validate preamble + header; returns
    ``(header, data_offset)``."""
    raw = f.read(_PREAMBLE_SIZE)
    if len(raw) < _PREAMBLE_SIZE:
        raise PackIntegrityError(
            f"pack {path!r}: truncated preamble "
            f"({len(raw)} of {_PREAMBLE_SIZE} bytes)")
    magic, version, _flags, hlen, hcrc = _PREAMBLE.unpack(
        raw[:_PREAMBLE.size])
    if magic != MAGIC:
        raise PackFormatError(
            f"pack {path!r}: bad magic {magic!r} (not an {MAGIC.decode()}"
            f" pack)")
    if version != FORMAT_VERSION:
        raise PackFormatError(
            f"pack {path!r}: unsupported format version {version} "
            f"(this build reads version {FORMAT_VERSION})")
    blob = f.read(hlen)
    if len(blob) < hlen:
        raise PackIntegrityError(
            f"pack {path!r}: truncated header ({len(blob)} of {hlen} bytes)")
    got = zlib.crc32(blob)
    if got != hcrc:
        raise PackIntegrityError(
            f"pack {path!r}: header CRC32 mismatch "
            f"(expected {hcrc:#010x}, got {got:#010x})")
    try:
        header = json.loads(blob)
    except ValueError as exc:  # pragma: no cover - CRC passed, bad JSON
        raise PackIntegrityError(f"pack {path!r}: undecodable header "
                                 f"({exc})") from exc
    return header, _align64(_PREAMBLE_SIZE + hlen)


class DiskPack:
    """One pack file mapped read-only into this process.

    Opening verifies the preamble, the header CRC32 and (by default)
    every section's CRC32 against the header's table, so a corrupted
    file raises a typed :class:`~repro.exec.shm.PackIntegrityError`
    before any search can see its bytes.  The reconstructed
    :attr:`structs` views are zero-copy into the mapping; :attr:`data`
    exposes the raw data region for the pool's bulk copy into shm
    (:func:`~repro.exec.shm.publish_pack_bytes`).
    """

    def __init__(self, path: str, verify: bool = True):
        self.path = path
        self._file = open(path, "rb")
        self._mmap: Optional[mmap.mmap] = None
        try:
            header, data_off = _read_header(self._file, path)
            size = int(header["data_size"])
            file_size = os.fstat(self._file.fileno()).st_size
            if file_size < data_off + size:
                raise PackIntegrityError(
                    f"pack {path!r}: truncated data region "
                    f"({file_size} bytes on disk, header expects "
                    f"{data_off + size})")
            self._mmap = mmap.mmap(self._file.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        except BaseException:
            self.close()
            raise
        self.header = header
        self.data_offset = data_off
        self.layout: Tuple[Tuple[str, str, Tuple[int, ...], int], ...] = \
            tuple((f, d, tuple(s), o) for f, d, s, o in header["sections"])
        self.checksums: Tuple[Tuple[str, int], ...] = \
            tuple((f, int(c)) for f, c in header["checksums"])
        self.data = memoryview(self._mmap)[data_off:data_off + size]
        views = {field: np.ndarray(shape, dtype=dtype, buffer=self._mmap,
                                   offset=data_off + off)
                 for field, dtype, shape, off in self.layout}
        self._views: Optional[dict] = views
        _OPEN_PACKS[id(self)] = path
        if verify:
            try:
                self.verify()
            except PackIntegrityError:
                self.close()
                raise
        self.hdr_blob = views["hdr_blob"]
        self.hdr_offsets = views["hdr_offsets"]
        self.structs = ScanStructures(
            k=header["k"], base=header["base"],
            n_sequences=header["n_sequences"],
            total_residues=header["total_residues"],
            concat=views["concat"], starts=views["starts"],
            lengths=views["lengths"], codes=views["codes"],
            code_pos=views["code_pos"])
        self.spec = PackSpec(
            name=path, cache_token=self.identity, seqtype=header["seqtype"],
            fragment_id=header["fragment_id"], k=header["k"],
            base=header["base"], n_sequences=header["n_sequences"],
            total_residues=header["total_residues"],
            source_ids=tuple(int(i) for i in header["source_ids"]),
            arrays=self.layout, size=size, checksums=self.checksums)

    @property
    def identity(self) -> tuple:
        """The pack's ScanCache identity, ``(token, version,
        fragment_id)`` with the store's ``("rpk", store_id)`` as token —
        same shape as the in-RAM scheme, stale by construction once the
        fragment is rebuilt (its version bumps)."""
        h = self.header
        return (("rpk", h["store_id"]), h["version"], h["fragment_id"])

    def verify(self) -> None:
        """Re-checksum every mapped section against the header table."""
        for field, expected in self.checksums:
            got = _crc(self._views[field])
            if got != expected:
                raise _integrity_error(self.path, field, expected, got)

    def close(self) -> None:
        """Release the views and unmap.  A caller still holding
        exported views (e.g. a live :class:`~repro.exec.shm.PackDB`)
        keeps the mapping alive until those die; the file descriptor is
        closed either way."""
        _OPEN_PACKS.pop(id(self), None)
        for attr in ("structs", "hdr_blob", "hdr_offsets", "_views"):
            if hasattr(self, attr):
                setattr(self, attr, None)
        data = getattr(self, "data", None)
        if data is not None:
            data.release()
            self.data = None
        if self._mmap is not None:
            try:
                self._mmap.close()
                self._mmap = None
            except BufferError:  # pragma: no cover - external live views
                pass
        self._file.close()

    def __enter__(self) -> "DiskPack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        h = self.header
        return (f"<DiskPack {self.path!r} {h['seqtype']} "
                f"frag={h['fragment_id']} n={h['n_sequences']} "
                f"residues={h['total_residues']}>")


def corrupt_pack_file(path: str, field: Optional[str] = None,
                      nbytes: int = 8) -> str:
    """Scribble bytes inside one region of a pack file (test hook).

    *field* is a section name from the header's table, or the pseudo
    targets ``"preamble"`` (damages the magic) and ``"header"``
    (damages the JSON blob — which also holds the CRC table, so this
    doubles as the corrupt-the-checksums case; the preamble's header
    CRC32 catches it).  Mirrors
    :func:`repro.exec.shm.corrupt_segment`: the damage lands mid-field,
    on checksummed payload, never on alignment padding.  Returns the
    corrupted region's name.
    """
    with open(path, "r+b") as f:
        if field == "preamble":
            f.seek(0)
            first = f.read(1)
            f.seek(0)
            f.write(bytes([first[0] ^ 0xFF]))
            return field
        raw = f.read(_PREAMBLE_SIZE)
        _magic, _ver, _flags, hlen, _hcrc = _PREAMBLE.unpack(
            raw[:_PREAMBLE.size])
        if field == "header":
            pos = _PREAMBLE_SIZE + hlen // 2
            f.seek(pos)
            b = f.read(1)
            f.seek(pos)
            f.write(bytes([b[0] ^ 0xFF]))
            return field
        # Re-read the header properly (validated) to find the section.
        f.seek(0)
        header, data_off = _read_header(f, path)
        layout = {sec[0]: (sec[1], sec[2], sec[3])
                  for sec in header["sections"]}
        if field is None:
            field = max(layout, key=lambda fl: int(
                np.prod(layout[fl][1], dtype=np.int64))
                * np.dtype(layout[fl][0]).itemsize)
        dtype, shape, off = layout[field]
        size = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if size == 0:
            raise ValueError(f"field {field!r} is empty; nothing to corrupt")
        start = data_off + off + max(0, size // 2 - 1)
        end = min(data_off + off + size, start + nbytes)
        f.seek(start)
        chunk = bytes(b ^ 0xFF for b in f.read(end - start))
        f.seek(start)
        f.write(chunk)
    return field


# ----------------------------------------------------------------------
# The store: a directory of packs + an atomically committed manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PackEntry:
    """One pack as the manifest records it."""

    file: str
    fragment_id: int
    version: int
    n_sequences: int
    total_residues: int


class PackStore:
    """A committed directory of on-disk fragment packs.

    Duck-types the database surface the pool and CLI consume
    (``seqtype``, ``__len__``, ``total_residues``, ``fragment_id``,
    ``name``, plus the ScanCache identity pair ``_scan_token`` /
    ``_version``), so ``ExecPool.search_many(query, store, ...)`` cold-
    starts straight from disk.  ``_version`` is the store's
    ``db_version`` — bumped by :meth:`append` exactly like
    ``SequenceDB._version``, so the pool's stale-pack invalidation
    works unchanged.
    """

    is_pack_store = True
    fragment_id: Optional[int] = None

    def __init__(self, directory: str, manifest: dict):
        self.directory = directory
        self.manifest = manifest
        self.name = manifest["name"]
        self.seqtype = manifest["seqtype"]
        self.k = int(manifest["k"])
        self.base = int(manifest["base"])
        self.store_id = manifest["store_id"]
        self.packs: List[PackEntry] = [
            PackEntry(file=p["file"], fragment_id=int(p["fragment_id"]),
                      version=int(p["version"]),
                      n_sequences=int(p["n_sequences"]),
                      total_residues=int(p["total_residues"]))
            for p in manifest["packs"]]
        self._scan_token = ("rpk", self.store_id)
        self._version = int(manifest["db_version"])

    @classmethod
    def open(cls, directory: str) -> "PackStore":
        path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.isfile(path):
            raise PackFormatError(
                f"{directory!r}: no {MANIFEST_NAME} — not a pack store "
                f"(or an uncommitted build)")
        try:
            with open(path) as f:
                manifest = json.load(f)
        except ValueError as exc:
            raise PackFormatError(
                f"{directory!r}: unreadable manifest ({exc})") from exc
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise PackFormatError(
                f"{directory!r}: unsupported store format version "
                f"{version!r} (this build reads version {FORMAT_VERSION})")
        return cls(directory, manifest)

    def __len__(self) -> int:
        return int(self.manifest["n_sequences"])

    @property
    def n_sequences(self) -> int:
        return len(self)

    @property
    def total_residues(self) -> int:
        return int(self.manifest["total_residues"])

    def pack_path(self, entry: PackEntry) -> str:
        return os.path.join(self.directory, entry.file)

    def open_packs(self, verify: bool = True) -> List[DiskPack]:
        """Map every pack; on any failure, close what was opened and
        re-raise.  Each pack's recorded identity must match the
        manifest entry naming it — a swapped or stale file is damage,
        not a different answer."""
        packs: List[DiskPack] = []
        try:
            for entry in self.packs:
                pack = DiskPack(self.pack_path(entry), verify=verify)
                packs.append(pack)
                got = pack.identity
                want = (self._scan_token, entry.version, entry.fragment_id)
                if got != want:
                    raise PackIntegrityError(
                        f"pack {pack.path!r}: identity {got!r} does not "
                        f"match manifest entry {want!r} (swapped or stale "
                        f"pack file)")
        except BaseException:
            for pack in packs:
                pack.close()
            raise
        return packs

    def verify(self) -> int:
        """CRC-verify every pack; returns the number checked."""
        for pack in self.open_packs(verify=True):
            pack.close()
        return len(self.packs)

    def _write_manifest(self) -> None:
        path = os.path.join(self.directory, MANIFEST_NAME)
        _write_manifest_file(path, self.manifest)

    # ------------------------------------------------------------------
    def append(self, records: Iterable[FastaRecord]) -> int:
        """Incrementally add records: only the lightest fragment is
        re-packed (re-indexed), every other pack file is untouched.

        Bumps the store's ``db_version`` and the rebuilt pack's own
        version — the pool's ``(token, version, ...)`` invalidation
        then republishes exactly what changed... at today's pool
        granularity, the whole prepared set; the per-pack identities
        are what a finer-grained invalidation would key on.  Returns
        the number of sequences added.
        """
        encode = encode_dna if self.seqtype == NT else encode_protein
        added: List[Tuple[str, np.ndarray]] = []
        for rec in records:
            seq = rec.sequence
            enc = encode(seq) if isinstance(seq, str) else np.asarray(
                seq, dtype=np.uint8)
            if len(enc) == 0:
                raise ValueError(f"empty sequence for {rec.description!r}")
            added.append((rec.description, enc))
        if not added:
            return 0

        new_version = self._version + 1
        if self.packs:
            target = min(range(len(self.packs)),
                         key=lambda i: self.packs[i].total_residues)
            entry = self.packs[target]
            # Load the one fragment being rebuilt (bounded by fragment
            # size, not store size).
            sub = SequenceDB(self.seqtype,
                             name=f"{self.name}.{entry.fragment_id:03d}",
                             fragment_id=entry.fragment_id)
            source_ids: List[int] = []
            with DiskPack(self.pack_path(entry)) as pack:
                pdb = PackDB(pack)
                for i in range(len(pdb)):
                    sub.add(pdb.description(i), np.array(pdb.sequence(i)))
                source_ids = list(pack.spec.source_ids)
        else:
            target = 0
            entry = None
            sub = SequenceDB(self.seqtype, name=f"{self.name}.000",
                             fragment_id=0)
            source_ids = []

        next_gid = len(self)
        for desc, enc in added:
            sub.add(desc, enc)
            source_ids.append(next_gid)
            next_gid += 1

        structs = build_scan_structures(sub, self.k, self.base)
        fragment_id = entry.fragment_id if entry else 0
        fname = entry.file if entry else f"{self.name}.000{PACK_SUFFIX}"
        write_pack(self.pack_path(
            PackEntry(fname, fragment_id, 0, 0, 0)), structs,
            [sub.description(i) for i in range(len(sub))],
            seqtype=self.seqtype, store_id=self.store_id,
            version=new_version, fragment_id=fragment_id,
            source_ids=source_ids)
        new_entry = PackEntry(file=fname, fragment_id=fragment_id,
                              version=new_version,
                              n_sequences=len(sub),
                              total_residues=sub.total_residues)
        if entry:
            self.packs[target] = new_entry
        else:
            self.packs.append(new_entry)

        self.manifest["db_version"] = new_version
        self.manifest["n_sequences"] = len(self) + len(added)
        self.manifest["total_residues"] = (
            self.total_residues + sum(len(e) for _d, e in added))
        self.manifest["packs"] = [vars(p) for p in self.packs]
        self._version = new_version
        self._write_manifest()
        return len(added)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PackStore {self.directory!r} {self.seqtype} "
                f"packs={len(self.packs)} n={len(self)} "
                f"residues={self.total_residues} v={self._version}>")


def _write_manifest_file(path: str, manifest: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def sweep_build_leftovers(directory: str) -> List[str]:
    """Remove crashed-build artifacts (spool dirs, ``*.tmp``) from a
    store directory; returns what was removed.  Committed packs and the
    manifest are never touched — this is why "rebuild succeeds" after a
    crash: the new build starts from a directory containing only
    committed state."""
    removed: List[str] = []
    if not os.path.isdir(directory):
        return removed
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name.startswith(BUILD_DIR_PREFIX) and os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
            removed.append(path)
        elif name.endswith(".tmp") and os.path.isfile(path):
            os.unlink(path)
            removed.append(path)
    return removed


# ----------------------------------------------------------------------
# Streaming builder
# ----------------------------------------------------------------------
class _Spool:
    """One fragment's on-disk spool during a streaming build: encoded
    residues and description bytes append to two flat files, only the
    per-sequence length/offset bookkeeping stays in memory."""

    def __init__(self, build_dir: str, idx: int):
        self.idx = idx
        self.seq_path = os.path.join(build_dir, f"frag{idx}.seq")
        self.hdr_path = os.path.join(build_dir, f"frag{idx}.hdr")
        self._seq_f = open(self.seq_path, "wb")
        self._hdr_f = open(self.hdr_path, "wb")
        self.lengths: List[int] = []
        self.hdr_lens: List[int] = []
        self.source_ids: List[int] = []

    @property
    def n(self) -> int:
        return len(self.lengths)

    @property
    def residues(self) -> int:
        return sum(self.lengths)

    def add(self, global_id: int, description: str,
            encoded: np.ndarray) -> None:
        self._seq_f.write(memoryview(np.ascontiguousarray(encoded)))
        blob = description.encode()
        self._hdr_f.write(blob)
        self.lengths.append(len(encoded))
        self.hdr_lens.append(len(blob))
        self.source_ids.append(global_id)

    def close_writes(self) -> None:
        self._seq_f.close()
        self._hdr_f.close()

    def load(self, seqtype: str) -> "_SpoolDB":
        return _SpoolDB(self, seqtype)

    def release(self) -> None:
        for path in (self.seq_path, self.hdr_path):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass


class _SpoolDB:
    """Duck-typed read surface over one finished spool, for
    :func:`~repro.blast.scankernel.build_scan_structures`."""

    def __init__(self, spool: _Spool, seqtype: str):
        self.seqtype = seqtype
        self.fragment_id = spool.idx
        self._lengths = spool.lengths
        payload = np.fromfile(spool.seq_path, dtype=np.uint8)
        self._starts = np.zeros(len(self._lengths) + 1, dtype=np.int64)
        np.cumsum(self._lengths, out=self._starts[1:])
        self._payload = payload
        with open(spool.hdr_path, "rb") as f:
            blob = f.read()
        self.descriptions: List[str] = []
        pos = 0
        for n in spool.hdr_lens:
            self.descriptions.append(blob[pos:pos + n].decode())
            pos += n

    def __len__(self) -> int:
        return len(self._lengths)

    def lengths(self) -> List[int]:
        return list(self._lengths)

    def sequence(self, i: int) -> np.ndarray:
        return self._payload[self._starts[i]:self._starts[i + 1]]


class PackStoreBuilder:
    """Streaming pack-store builder (bounded memory, atomic commit).

    Records are assigned online to the currently lightest fragment and
    spilled to that fragment's spool immediately; :meth:`finalize`
    packs fragments one at a time and commits the manifest last.  Use
    as a context manager — an exception aborts the build and removes
    the spool directory, leaving the destination exactly as found.
    """

    def __init__(self, directory: str, *, seqtype: str = NT,
                 name: str = "db", n_fragments: int = 4,
                 word_size: Optional[int] = None):
        if seqtype not in (NT, AA):
            raise ValueError(f"seqtype must be 'nt' or 'aa', got {seqtype!r}")
        if n_fragments < 1:
            raise ValueError("n_fragments must be >= 1")
        self.directory = directory
        self.seqtype = seqtype
        self.name = name
        self.word_size = int(word_size if word_size is not None
                             else (3 if seqtype == AA else 11))
        self.base = len(PROTEIN) if seqtype == AA else len(DNA)
        self._encode = encode_dna if seqtype == NT else encode_protein
        os.makedirs(directory, exist_ok=True)
        sweep_build_leftovers(directory)
        _BUILD_ROOTS.add(os.path.abspath(directory))
        self._build_dir = os.path.join(
            directory, BUILD_DIR_PREFIX + secrets.token_hex(4))
        os.makedirs(self._build_dir)
        self._spools = [_Spool(self._build_dir, i)
                        for i in range(n_fragments)]
        self._loads = [0] * n_fragments
        self._n = 0
        self._residues = 0
        self._done = False

    def add(self, description: str, sequence) -> int:
        """Add one record; returns its global ordinal id."""
        if self._done:
            raise RuntimeError("builder already finalized/aborted")
        enc = (self._encode(sequence) if isinstance(sequence, str)
               else np.asarray(sequence, dtype=np.uint8))
        if len(enc) == 0:
            raise ValueError(f"empty sequence for {description!r}")
        target = self._loads.index(min(self._loads))
        self._spools[target].add(self._n, description, enc)
        self._loads[target] += len(enc)
        gid = self._n
        self._n += 1
        self._residues += len(enc)
        return gid

    def add_records(self, records: Iterable[FastaRecord]) -> int:
        n0 = self._n
        for rec in records:
            self.add(rec.description, rec.sequence)
        return self._n - n0

    def finalize(self) -> PackStore:
        """Pack every non-empty spool and commit the manifest."""
        if self._done:
            raise RuntimeError("builder already finalized/aborted")
        store_id = secrets.token_hex(8)
        entries: List[dict] = []
        fragment_id = 0
        for spool in self._spools:
            spool.close_writes()
            if spool.n == 0:
                spool.release()
                continue
            sdb = spool.load(self.seqtype)
            structs = build_scan_structures(sdb, self.word_size, self.base)
            fname = f"{self.name}.{fragment_id:03d}{PACK_SUFFIX}"
            write_pack(os.path.join(self.directory, fname), structs,
                       sdb.descriptions, seqtype=self.seqtype,
                       store_id=store_id, version=0,
                       fragment_id=fragment_id,
                       source_ids=spool.source_ids)
            entries.append({"file": fname, "fragment_id": fragment_id,
                            "version": 0, "n_sequences": spool.n,
                            "total_residues": spool.residues})
            fragment_id += 1
            del sdb, structs
            spool.release()
        _maybe_crash_before_manifest()
        manifest = {
            "format_version": FORMAT_VERSION,
            "store_id": store_id,
            "name": self.name,
            "seqtype": self.seqtype,
            "k": self.word_size,
            "base": self.base,
            "db_version": 0,
            "n_sequences": self._n,
            "total_residues": self._residues,
            "packs": entries,
        }
        _write_manifest_file(
            os.path.join(self.directory, MANIFEST_NAME), manifest)
        shutil.rmtree(self._build_dir, ignore_errors=True)
        self._done = True
        return PackStore(self.directory, manifest)

    def abort(self) -> None:
        """Drop the spool directory; committed files are untouched."""
        if self._done:
            return
        for spool in self._spools:
            try:
                spool.close_writes()
            except Exception:  # pragma: no cover - already closed
                pass
        shutil.rmtree(self._build_dir, ignore_errors=True)
        self._done = True

    def __enter__(self) -> "PackStoreBuilder":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()


def build_pack_store(source, directory: str, *, seqtype: str = NT,
                     name: str = "db", n_fragments: int = 4,
                     word_size: Optional[int] = None) -> PackStore:
    """Build a pack store from *source* and commit it.

    *source* is a FASTA path, an open text handle, an iterable of
    :class:`~repro.blast.fasta.FastaRecord`, or anything with the
    ``SequenceDB`` read surface (``__len__``/``sequence``/
    ``description``).  File and handle sources stream — memory stays
    bounded by the largest fragment, not the corpus.
    """
    builder = PackStoreBuilder(directory, seqtype=seqtype, name=name,
                               n_fragments=n_fragments,
                               word_size=word_size)
    with builder:
        if hasattr(source, "sequence") and hasattr(source, "description"):
            for i in range(len(source)):
                builder.add(source.description(i), source.sequence(i))
        elif isinstance(source, (str, os.PathLike)):
            with open(source) as f:
                builder.add_records(iter_fasta(f))
        elif hasattr(source, "read"):
            builder.add_records(iter_fasta(source))
        else:
            builder.add_records(source)
        return builder.finalize()


# ----------------------------------------------------------------------
# Serial search straight off the mapping
# ----------------------------------------------------------------------
def search_store(query: np.ndarray, store: PackStore, scheme,
                 params: Optional[SearchParams] = None, *,
                 query_id: str = "query", both_strands: bool = True,
                 keep_fragment_ids: bool = False,
                 verify: bool = True) -> SearchResults:
    """Serial search against a mmapped store, byte-identical to
    ``search(query, db, ...)`` over the equivalent in-RAM database.

    Exactly the pool's statistics discipline, minus the pool: one
    whole-store Karlin–Altschul resolution and effective search space
    shared by every fragment, per-fragment scans over zero-copy
    :class:`~repro.exec.shm.PackDB` views, then the same
    source-id-globalizing merge.
    """
    params = params or SearchParams()
    if params.word_size != store.k:
        raise ValueError(
            f"store {store.directory!r} was built with word size "
            f"{store.k}; searching at word size {params.word_size} "
            f"requires a rebuild (packdb build --word-size "
            f"{params.word_size})")
    is_protein = store.seqtype == AA
    query = np.asarray(query, dtype=np.uint8)
    ka = resolve_ka(scheme, params, is_protein)
    if params.effective_lengths:
        space = effective_search_space(ka, len(query),
                                       store.total_residues, len(store))
    else:
        space = (len(query), store.total_residues)

    by_pack: Dict[str, SearchResults] = {}
    ids_by_name: Dict[str, List[int]] = {}
    packs = store.open_packs(verify=verify)
    try:
        for pack in packs:
            db = PackDB(pack)
            by_pack[db.name] = search(
                query, db, scheme, params, query_id=query_id, ka=ka,
                both_strands=both_strands, effective_space=space)
            ids_by_name[db.name] = list(pack.spec.source_ids)
            del db
    finally:
        for pack in packs:
            pack.close()
    return merge_fragment_results(
        by_pack, ids_by_name, query_id=query_id, query_len=len(query),
        db_residues=store.total_residues, db_sequences=len(store),
        fragment_id=None,
        keep_fragment_ids=keep_fragment_ids)
