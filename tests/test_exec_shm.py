"""Shared-memory fragment packs: layout round trip, PackDB surface,
registry lifetime discipline, and the /dev/shm leak invariant."""

import os

import numpy as np
import pytest

from repro.blast.alphabet import encode_dna
from repro.blast.scankernel import ScanCache, build_scan_structures, db_token
from repro.blast.search import SearchParams, search
from repro.blast.score import NucleotideScore
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.exec.shm import (NAME_PREFIX, AttachedPack, PackDB,
                            PackIntegrityError, ShmRegistry, corrupt_segment,
                            create_pack, default_registry, pack_fragment)

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


def shm_segments():
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith(("psm_", NAME_PREFIX)))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


def random_nt_db(rng, n_seqs, min_len=5, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def random_aa_db(rng, n_seqs, min_len=5, max_len=200):
    db = SequenceDB(AA)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"p{i}", "".join(AA_LETTERS[rng.integers(0, 20, length)]))
    return db


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = shm_segments()
    yield
    assert shm_segments() == before, "test leaked shared-memory segments"


def test_pack_roundtrip_preserves_structures_and_headers():
    rng = np.random.default_rng(0)
    db = random_nt_db(rng, 20)
    registry = ShmRegistry()
    structs = build_scan_structures(db, 11, 4)
    spec = create_pack(structs, [db.description(i) for i in range(len(db))],
                       NT, cache_token=("t", 0, 0), fragment_id=0,
                       registry=registry)
    assert spec.name.startswith(NAME_PREFIX + "_")
    pack = AttachedPack(spec)
    try:
        for field in ("concat", "starts", "lengths", "codes", "code_pos"):
            np.testing.assert_array_equal(getattr(pack.structs, field),
                                          getattr(structs, field))
        pdb = PackDB(pack)
        assert len(pdb) == len(db)
        assert pdb.total_residues == db.total_residues
        assert pdb.lengths() == db.lengths()
        for i in range(len(db)):
            assert pdb.description(i) == db.description(i)
            np.testing.assert_array_equal(pdb.sequence(i), db.sequence(i))
        # Cached description path returns the same object.
        assert pdb.description(3) is pdb.description(3)
        assert list(pdb)[2][0] == db.description(2)
    finally:
        pack.close()
        assert registry.release(spec.name)


def test_packdb_serves_scan_search_identically():
    rng = np.random.default_rng(1)
    db = random_nt_db(rng, 25)
    query = db.sequence(4)[:90].copy()
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=(db_token(db), 0, 0),
                         registry=registry)
    pack = AttachedPack(spec)
    try:
        pdb = PackDB(pack)
        cache = ScanCache()
        cache.put(pdb, 11, 4, pack.structs)
        got = search(query, pdb, scheme, params, scan_cache=cache)
        want = search(query, db, scheme, params)
        assert [h.subject_id for h in got.hits] == \
               [h.subject_id for h in want.hits]
        assert [h.description for h in got.hits] == \
               [h.description for h in want.hits]
    finally:
        pack.close()
        registry.release(spec.name)


def test_pack_fragment_records_source_ids():
    rng = np.random.default_rng(2)
    db = random_nt_db(rng, 12)
    sub = db.subset([7, 2, 9], name="frag", fragment_id=5)
    assert sub.source_ids == [7, 2, 9]
    assert sub.fragment_id == 5
    np.testing.assert_array_equal(sub.sequence(1), db.sequence(2))
    registry = ShmRegistry()
    spec = pack_fragment(sub, 11, 4, cache_token=("t", 0, 5),
                         registry=registry)
    try:
        assert spec.source_ids == (7, 2, 9)
        assert spec.fragment_id == 5
        assert spec.n_sequences == 3
    finally:
        registry.release(spec.name)


def test_protein_pack_roundtrip():
    rng = np.random.default_rng(3)
    db = random_aa_db(rng, 15)
    registry = ShmRegistry()
    spec = pack_fragment(db, 3, 20, cache_token=("p", 0, 0),
                         registry=registry)
    pack = AttachedPack(spec)
    try:
        pdb = PackDB(pack)
        assert pdb.seqtype == AA
        for i in range(len(db)):
            np.testing.assert_array_equal(pdb.sequence(i), db.sequence(i))
    finally:
        pack.close()
        registry.release(spec.name)


def test_registry_release_is_idempotent_and_unlinks():
    rng = np.random.default_rng(4)
    db = random_nt_db(rng, 5)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("r", 0, 0),
                         registry=registry)
    assert spec.name in registry.names()
    assert os.path.exists(f"/dev/shm/{spec.name}")
    assert registry.release(spec.name) is True
    assert not os.path.exists(f"/dev/shm/{spec.name}")
    assert registry.release(spec.name) is False
    assert len(registry) == 0


def test_registry_release_all():
    rng = np.random.default_rng(5)
    db = random_nt_db(rng, 5)
    registry = ShmRegistry()
    for frag in range(3):
        pack_fragment(db, 11, 4, cache_token=("ra", 0, frag),
                      registry=registry)
    assert len(registry) == 3
    assert registry.release_all() == 3
    assert registry.release_all() == 0
    assert len(registry) == 0


def test_attach_after_unlink_fails():
    rng = np.random.default_rng(6)
    db = random_nt_db(rng, 4)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("u", 0, 0),
                         registry=registry)
    registry.release(spec.name)
    with pytest.raises(FileNotFoundError):
        AttachedPack(spec)


def test_default_registry_is_per_process():
    reg = default_registry()
    assert default_registry() is reg
    assert reg._pid == os.getpid()


def test_pack_spec_carries_checksums_and_attach_verifies():
    rng = np.random.default_rng(7)
    db = random_nt_db(rng, 10)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("crc", 0, 0),
                         registry=registry)
    try:
        assert spec.checksums, "publish must record per-field CRCs"
        fields = [f for f, _crc in spec.checksums]
        assert "concat" in fields and "starts" in fields
        pack = AttachedPack(spec)          # verifies on attach
        pack.verify()                      # and is re-verifiable
        pack.close()
    finally:
        registry.release(spec.name)


def test_corrupt_segment_fails_attach_with_typed_error():
    rng = np.random.default_rng(8)
    db = random_nt_db(rng, 10, min_len=50, max_len=200)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("crc", 0, 1),
                         registry=registry)
    try:
        field = corrupt_segment(spec)
        with pytest.raises(PackIntegrityError, match="CRC32 mismatch"):
            AttachedPack(spec)
        # The error names the damaged field and the segment.
        with pytest.raises(PackIntegrityError, match=field):
            AttachedPack(spec)
        # An unverified attach still maps (forensics / tooling path)
        # and flags the damage when asked.
        pack = AttachedPack(spec, verify=False)
        with pytest.raises(PackIntegrityError):
            pack.verify()
        pack.close()
    finally:
        registry.release(spec.name)


def test_corrupt_segment_named_field():
    rng = np.random.default_rng(9)
    db = random_nt_db(rng, 8, min_len=50, max_len=200)
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("crc", 0, 2),
                         registry=registry)
    try:
        assert corrupt_segment(spec, field="starts") == "starts"
        with pytest.raises(PackIntegrityError, match="starts"):
            AttachedPack(spec)
    finally:
        registry.release(spec.name)


def test_empty_descriptions_and_single_sequence():
    db = SequenceDB(NT)
    db.add("", encode_dna("ACGTACGTACGTACG"))
    registry = ShmRegistry()
    spec = pack_fragment(db, 11, 4, cache_token=("e", 0, 0),
                         registry=registry)
    pack = AttachedPack(spec)
    try:
        pdb = PackDB(pack)
        assert pdb.description(0) == ""
        assert len(pdb) == 1
    finally:
        pack.close()
        registry.release(spec.name)
