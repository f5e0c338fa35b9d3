"""The on-disk pack format: round-trip fidelity against the in-RAM
engine, byte-identity with the shm layout, mmap cold start through the
pool, a per-section corruption matrix, crash-mid-build atomicity, the
incremental append path, and the ``packdb`` / ``blastall --db-pack``
CLI surface."""

import dataclasses
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from repro.blast.scankernel import build_scan_structures
from repro.blast.score import NucleotideScore, ProteinScore
from repro.blast.search import SearchParams, search
from repro.blast.seqdb import AA, NT, SequenceDB
from repro.blast.fasta import FastaRecord
from repro.cli import EXIT_INTEGRITY, main
from repro.exec import ExecPool
from repro.exec.diskpack import (BUILD_DIR_PREFIX, FORMAT_VERSION, MAGIC,
                                 MANIFEST_NAME, DiskPack, PackFormatError,
                                 PackStore, PackStoreBuilder,
                                 build_pack_store, corrupt_pack_file,
                                 open_pack_count, search_store,
                                 sweep_build_leftovers, write_pack)
from repro.exec.shm import (_FIELDS, PackDB, PackIntegrityError,
                            ShmRegistry, create_pack)

NT_LETTERS = np.array(list("ACGT"))
AA_LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))


def shm_segments():
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith("psm_") or n.startswith("repro"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture(autouse=True)
def no_leaks():
    before = shm_segments()
    yield
    assert shm_segments() == before, "test leaked shared-memory segments"
    assert open_pack_count() == 0, "test leaked an open DiskPack mapping"


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


def dump(results):
    """Full byte-level result dump (every HSP field, hit order, ids)."""
    return (results.query_id, results.query_len, results.db_residues,
            results.db_sequences,
            [(h.subject_id, h.description, h.subject_len, h.fragment_id,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


def store_files(directory):
    return sorted(os.listdir(directory))


# ----------------------------------------------------------------------
# Round trip: build → reopen → search, byte-identical to the RAM engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_fragments", [1, 3, 8])
def test_round_trip_nt(tmp_path, n_fragments):
    rng = np.random.default_rng(100 + n_fragments)
    db = random_nt_db(rng, 24)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=n_fragments)
    assert len(store) == len(db)
    assert store.total_residues == db.total_residues
    assert len(store.packs) == min(n_fragments, len(db))
    params = SearchParams(word_size=11)
    scheme = NucleotideScore()
    for qi in (0, 7, 19):
        q = db.sequence(qi)[:150].copy()
        got = search_store(q, store, scheme, params, query_id=f"q{qi}")
        want = search(q, db, scheme, params, query_id=f"q{qi}")
        assert dump(got) == dump(want)
    # A fresh process would re-open from the manifest: same answer.
    reopened = PackStore.open(str(tmp_path / "store"))
    q = db.sequence(7)[:150].copy()
    assert dump(search_store(q, reopened, scheme, params, query_id="q7")) \
        == dump(search(q, db, scheme, params, query_id="q7"))
    assert store.verify() == len(store.packs)
    assert open_pack_count() == 0


def test_round_trip_protein(tmp_path):
    rng = np.random.default_rng(7)
    db = random_aa_db(rng, 16)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=AA,
                             n_fragments=3)
    params = SearchParams(word_size=3, neighbor_threshold=11)
    scheme = ProteinScore()
    for qi in (0, 5, 11):
        q = db.sequence(qi)[:90].copy()
        got = search_store(q, store, scheme, params, query_id=f"q{qi}",
                           both_strands=False)
        want = search(q, db, scheme, params, query_id=f"q{qi}",
                      both_strands=False)
        assert dump(got) == dump(want)


def test_round_trip_property_random_corpora(tmp_path):
    """Seeded property loop: random corpora of both residue types, all
    queries byte-identical between the mmapped store and the in-RAM
    database."""
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for seqtype in (NT, AA):
            if seqtype == NT:
                db = random_nt_db(rng, int(rng.integers(3, 20)))
                params = SearchParams(word_size=11)
                scheme = NucleotideScore()
            else:
                db = random_aa_db(rng, int(rng.integers(3, 15)))
                params = SearchParams(word_size=3, neighbor_threshold=11)
                scheme = ProteinScore()
            d = str(tmp_path / f"s{seed}-{seqtype}")
            store = build_pack_store(
                db, d, seqtype=seqtype,
                n_fragments=int(rng.integers(1, 6)),
                word_size=params.word_size)
            qi = int(rng.integers(0, len(db)))
            q = db.sequence(qi)[:120].copy()
            got = search_store(q, store, scheme, params, query_id="q")
            want = search(q, db, scheme, params, query_id="q")
            assert dump(got) == dump(want), (seed, seqtype)


def test_empty_and_single_sequence_stores(tmp_path):
    empty = build_pack_store([], str(tmp_path / "empty"), seqtype=NT,
                             n_fragments=3)
    assert len(empty) == 0 and empty.total_residues == 0
    from repro.blast.alphabet import encode_dna
    q = encode_dna("ACGTACGTACGTACGT")
    r = search_store(q, empty, NucleotideScore(), SearchParams(word_size=11))
    assert r.hits == [] and r.db_sequences == 0

    db = SequenceDB(NT)
    db.add("only one", "ACGTACGTACGTACGTACGTACGT")
    one = build_pack_store(db, str(tmp_path / "one"), seqtype=NT,
                           n_fragments=4)
    assert len(one.packs) == 1, "empty fragments must be skipped"
    got = search_store(db.sequence(0), one, NucleotideScore(),
                       SearchParams(word_size=11), query_id="q")
    want = search(db.sequence(0), db, NucleotideScore(),
                  SearchParams(word_size=11), query_id="q")
    assert dump(got) == dump(want)


def test_builder_source_ids_cover_corpus(tmp_path):
    rng = np.random.default_rng(17)
    db = random_nt_db(rng, 21)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=5)
    seen = []
    for pack in store.open_packs():
        seen.extend(pack.spec.source_ids)
        pack.close()
    assert sorted(seen) == list(range(len(db)))


def test_streaming_build_from_fasta_file(tmp_path):
    rng = np.random.default_rng(23)
    db = random_nt_db(rng, 12)
    fasta = tmp_path / "db.fasta"
    from repro.blast.alphabet import decode_dna
    with open(fasta, "w") as f:
        for i in range(len(db)):
            f.write(f">{db.description(i)}\n{decode_dna(db.sequence(i))}\n")
    store = build_pack_store(str(fasta), str(tmp_path / "store"),
                             seqtype=NT, n_fragments=3)
    q = db.sequence(4)[:100].copy()
    params = SearchParams(word_size=11)
    assert dump(search_store(q, store, NucleotideScore(), params,
                             query_id="q")) \
        == dump(search(q, db, NucleotideScore(), params, query_id="q"))


# ----------------------------------------------------------------------
# Disk layout == shm layout, byte for byte
# ----------------------------------------------------------------------
def test_disk_layout_matches_shm_layout(tmp_path):
    """The whole point of the format: a pack file's data region is the
    shm segment's bytes — same sections, same offsets, same CRCs — so
    cold start is one memcpy, no re-encode."""
    rng = np.random.default_rng(5)
    db = random_nt_db(rng, 9)
    structs = build_scan_structures(db, 11, 4)
    descriptions = [db.description(i) for i in range(len(db))]
    path = str(tmp_path / "frag.rpk")
    write_pack(path, structs, descriptions, seqtype=NT, store_id="sid",
               version=0, fragment_id=0, source_ids=range(len(db)))

    registry = ShmRegistry()
    spec = create_pack(structs, descriptions, NT, ("tok", 0, 0),
                       fragment_id=0, registry=registry)
    try:
        with DiskPack(path) as pack:
            assert pack.layout == tuple(spec.arrays)
            assert pack.checksums == tuple(spec.checksums)
            assert [f for f, _ in pack.checksums] == list(_FIELDS)
            from multiprocessing import shared_memory
            seg = shared_memory.SharedMemory(name=spec.name)
            try:
                assert bytes(pack.data) == bytes(seg.buf[:spec.size])
            finally:
                seg.close()
    finally:
        registry.release(spec.name)


def test_diskpack_feeds_scan_engine_directly(tmp_path):
    """PackDB over a mapping is a first-class scan database: the search
    engine consumes its pre-built structures without touching the
    ScanCache."""
    rng = np.random.default_rng(31)
    db = random_nt_db(rng, 8)
    structs = build_scan_structures(db, 11, 4)
    descriptions = [db.description(i) for i in range(len(db))]
    path = str(tmp_path / "frag.rpk")
    write_pack(path, structs, descriptions, seqtype=NT, store_id="sid",
               version=0, fragment_id=0, source_ids=range(len(db)))
    params = SearchParams(word_size=11)
    q = db.sequence(2)[:100].copy()
    with DiskPack(path) as pack:
        pdb = PackDB(pack)
        assert pdb.scan_structures(11, 4) is pack.structs
        assert pdb.scan_structures(12, 4) is None
        got = search(q, pdb, NucleotideScore(), params, query_id="q")
        del pdb
    want = search(q, db, NucleotideScore(), params, query_id="q")

    def no_frag(d):
        head, hits = d[:4], d[4]
        return head, [(s, desc, sl, [h for h in hsps])
                      for s, desc, sl, _frag, hsps in hits]
    # The PackDB path tags hits with its fragment id; everything else
    # — ids, order, scores, alignments — must be byte-identical.
    assert no_frag(dump(got)) == no_frag(dump(want))


# ----------------------------------------------------------------------
# Pool cold start from disk
# ----------------------------------------------------------------------
def test_pool_cold_start_matches_serial(tmp_path):
    rng = np.random.default_rng(41)
    db = random_nt_db(rng, 18)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=4)
    params = SearchParams(word_size=11)
    scheme = NucleotideScore()
    queries = [db.sequence(i)[:120].copy() for i in (1, 9)]
    with ExecPool(jobs=2) as pool:
        for qi, q in enumerate(queries):
            par = pool.search(q, store, scheme, params, query_id=f"q{qi}")
            ser = search(q, db, scheme, params, query_id=f"q{qi}")
            assert dump(par) == dump(ser)
        assert open_pack_count() == 0, \
            "cold start must close every mapping after the shm copy"


def test_pool_and_search_store_reject_word_size_mismatch(tmp_path):
    rng = np.random.default_rng(43)
    db = random_nt_db(rng, 6)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=2, word_size=11)
    q = db.sequence(0)[:80].copy()
    bad = SearchParams(word_size=7)
    with pytest.raises(ValueError, match="word size"):
        search_store(q, store, NucleotideScore(), bad)
    with ExecPool(jobs=1) as pool:
        with pytest.raises(ValueError, match="word size"):
            pool.search(q, store, NucleotideScore(), bad)


# ----------------------------------------------------------------------
# Format negotiation and truncation
# ----------------------------------------------------------------------
def one_pack_file(tmp_path, seed=3, n=8):
    rng = np.random.default_rng(seed)
    db = random_nt_db(rng, n)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=1)
    return store.pack_path(store.packs[0]), db, store


def test_bad_magic_rejected(tmp_path):
    path, _db, _store = one_pack_file(tmp_path)
    corrupt_pack_file(path, "preamble")
    with pytest.raises(PackFormatError, match="magic"):
        DiskPack(path)
    assert open_pack_count() == 0


def test_unsupported_format_version_rejected(tmp_path):
    path, _db, _store = one_pack_file(tmp_path)
    with open(path, "r+b") as f:
        f.seek(len(MAGIC))
        f.write(struct.pack("<I", FORMAT_VERSION + 1))
    with pytest.raises(PackFormatError, match="version"):
        DiskPack(path)


@pytest.mark.parametrize("keep", [4, 20, 200])
def test_truncated_file_rejected(tmp_path, keep):
    """Cut the file inside the preamble, the header, and the data
    region; every cut is detected before any view is handed out."""
    path, _db, _store = one_pack_file(tmp_path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:keep])
    with pytest.raises(PackIntegrityError):
        DiskPack(path)
    open(path, "wb").write(data[:-100])
    with pytest.raises(PackIntegrityError, match="truncated"):
        DiskPack(path)


# ----------------------------------------------------------------------
# Corruption matrix: every section, typed error, never a wrong answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field", list(_FIELDS) + ["preamble", "header"])
def test_corruption_detected_per_section(tmp_path, field):
    path, _db, store = one_pack_file(tmp_path, seed=9, n=10)
    corrupt_pack_file(path, field)
    with pytest.raises(PackIntegrityError):
        DiskPack(path)
    # The store-level surfaces refuse too — verify, serial search, pool.
    with pytest.raises(PackIntegrityError):
        store.verify()
    from repro.blast.alphabet import encode_dna
    q = encode_dna("ACGTACGTACGTACGTACGT")
    with pytest.raises(PackIntegrityError):
        search_store(q, store, NucleotideScore(), SearchParams(word_size=11))
    assert open_pack_count() == 0


def test_pool_refuses_corrupt_store_before_any_result(tmp_path):
    rng = np.random.default_rng(51)
    db = random_nt_db(rng, 10)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=3)
    corrupt_pack_file(store.pack_path(store.packs[1]))
    q = db.sequence(0)[:80].copy()
    with ExecPool(jobs=2) as pool:
        with pytest.raises(PackIntegrityError):
            pool.search(q, store, NucleotideScore(), SearchParams(word_size=11))
    assert open_pack_count() == 0


def test_swapped_pack_files_rejected(tmp_path):
    """Two structurally valid packs in each other's places: each file's
    recorded identity disagrees with the manifest entry naming it."""
    rng = np.random.default_rng(53)
    db = random_nt_db(rng, 14)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=2)
    a = store.pack_path(store.packs[0])
    b = store.pack_path(store.packs[1])
    tmp = a + ".swap"
    os.rename(a, tmp)
    os.rename(b, a)
    os.rename(tmp, b)
    with pytest.raises(PackIntegrityError, match="identity"):
        store.open_packs()
    assert open_pack_count() == 0


def test_manifest_missing_bad_json_and_future_version(tmp_path):
    with pytest.raises(PackFormatError, match="manifest"):
        PackStore.open(str(tmp_path))
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text("{not json")
    with pytest.raises(PackFormatError, match="unreadable"):
        PackStore.open(str(tmp_path))
    manifest.write_text(json.dumps({"format_version": FORMAT_VERSION + 7}))
    with pytest.raises(PackFormatError, match="version"):
        PackStore.open(str(tmp_path))


# ----------------------------------------------------------------------
# Crash mid-build: atomicity of the commit protocol
# ----------------------------------------------------------------------
_BUILD_SCRIPT = """\
import sys
import numpy as np
from repro.blast.seqdb import NT, SequenceDB
from repro.exec.diskpack import build_pack_store

rng = np.random.default_rng(61)
letters = np.array(list("ACGT"))
db = SequenceDB(NT)
for i in range(16):
    n = int(rng.integers(30, 200))
    db.add(f"s{i}", "".join(letters[rng.integers(0, 4, n)]))
build_pack_store(db, sys.argv[1], seqtype=NT, n_fragments=3)
print("committed")
"""


def _run_build(directory, env_extra=None):
    env = dict(os.environ, PYTHONPATH="src")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-c", _BUILD_SCRIPT, directory],
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)) or ".",
        capture_output=True, text=True)


@pytest.mark.parametrize("env_extra,desc", [
    ({"REPRO_DISKPACK_CRASH_AFTER_SECTIONS": "3"}, "mid-section-write"),
    ({"REPRO_DISKPACK_CRASH_BEFORE_MANIFEST": "1"}, "before-manifest"),
])
def test_crash_mid_build_leaves_no_readable_pack(tmp_path, env_extra, desc):
    d = str(tmp_path / "store")
    proc = _run_build(d, env_extra)
    assert proc.returncode == 86, (desc, proc.stdout, proc.stderr)
    # Nothing committed: no manifest, and no finished .rpk a reader
    # would trust without one.
    assert not os.path.exists(os.path.join(d, MANIFEST_NAME))
    with pytest.raises(PackFormatError, match="manifest"):
        PackStore.open(d)
    # A clean rebuild over the wreckage succeeds and sweeps it.
    proc = _run_build(d)
    assert proc.returncode == 0, proc.stderr
    assert "committed" in proc.stdout
    leftovers = [f for f in store_files(d)
                 if f.startswith(BUILD_DIR_PREFIX) or f.endswith(".tmp")]
    assert leftovers == []
    store = PackStore.open(d)
    assert store.verify() == len(store.packs)
    assert len(store) == 16


def test_builder_abort_on_exception_cleans_spools(tmp_path):
    d = str(tmp_path / "store")
    with pytest.raises(RuntimeError):
        with PackStoreBuilder(d, seqtype=NT, n_fragments=2) as b:
            b.add("s0", "ACGTACGTACGTACGT")
            raise RuntimeError("caller blew up mid-build")
    assert not os.path.exists(os.path.join(d, MANIFEST_NAME))
    assert [f for f in store_files(d) if f.startswith(BUILD_DIR_PREFIX)] == []
    assert sweep_build_leftovers(d) == []


# ----------------------------------------------------------------------
# Incremental append
# ----------------------------------------------------------------------
def test_append_rebuilds_only_lightest_fragment(tmp_path):
    rng = np.random.default_rng(71)
    db = random_nt_db(rng, 15)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=3)
    before = {e.fragment_id: e.version for e in store.packs}
    assert set(before.values()) == {0}
    v0 = store._version

    extra = [FastaRecord(f"x{i} new",
                         "".join(NT_LETTERS[rng.integers(0, 4, 80)]))
             for i in range(4)]
    for rec in extra:
        db.add(rec.description, rec.sequence)
    store.append(extra)

    after = {e.fragment_id: e.version for e in store.packs}
    bumped = [f for f in after if after[f] != before[f]]
    assert len(bumped) == 1, "append must re-pack exactly one fragment"
    assert store._version == v0 + 1
    assert len(store) == len(db)
    assert store.total_residues == db.total_residues

    params = SearchParams(word_size=11)
    scheme = NucleotideScore()
    for target in (store, PackStore.open(str(tmp_path / "store"))):
        q = db.sequence(len(db) - 2)[:80].copy()
        got = search_store(q, target, scheme, params, query_id="q")
        want = search(q, db, scheme, params, query_id="q")
        assert dump(got) == dump(want)


def test_append_invalidates_pool_cache(tmp_path):
    """The store's version bump must flow through the pool's staleness
    check: results after append reflect the new records."""
    rng = np.random.default_rng(73)
    db = random_nt_db(rng, 8)
    store = build_pack_store(db, str(tmp_path / "store"), seqtype=NT,
                             n_fragments=2)
    params = SearchParams(word_size=11)
    scheme = NucleotideScore()
    from repro.blast.alphabet import encode_dna
    novel = "".join(NT_LETTERS[rng.integers(0, 4, 120)])
    q = encode_dna(novel)
    with ExecPool(jobs=2) as pool:
        cold = pool.search(q, store, scheme, params, query_id="q")
        store.append([FastaRecord("novel seq", novel)])
        db.add("novel seq", novel)
        warm = pool.search(q, store, scheme, params, query_id="q")
        assert dump(warm) == dump(search(q, db, scheme, params,
                                         query_id="q"))
        assert warm.db_sequences == cold.db_sequences + 1
        assert any(h.description == "novel seq" for h in warm.hits)


# ----------------------------------------------------------------------
# CLI: packdb build / info / verify and blastall --db-pack
# ----------------------------------------------------------------------
@pytest.fixture
def cli_corpus(tmp_path):
    rng = np.random.default_rng(0)
    target = "".join(rng.choice(list("ACGT"), 500))
    fasta = tmp_path / "seqs.fasta"
    fasta.write_text(f">s1 target\n{target}\n>s2 decoy\n"
                     + "".join(rng.choice(list("ACGT"), 400)) + "\n")
    query = tmp_path / "query.fasta"
    query.write_text(f">q1\n{target[100:250]}\n")
    return str(fasta), str(query), str(tmp_path)


def test_cli_packdb_build_info_verify(cli_corpus, capsys):
    fasta, _query, d = cli_corpus
    out_dir = os.path.join(d, "store")
    assert main(["packdb", "build", "-i", fasta, "-o", out_dir,
                 "--fragments", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 sequences" in out
    assert main(["packdb", "info", out_dir, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "fragment" in out.lower()
    assert main(["packdb", "verify", out_dir]) == 0
    capsys.readouterr()
    # Both -i and --from-db, or neither, is a usage error.
    assert main(["packdb", "build", "-o", out_dir + "2"]) == 2
    capsys.readouterr()


def test_cli_packdb_verify_exit_code_on_corruption(cli_corpus, capsys):
    fasta, _query, d = cli_corpus
    out_dir = os.path.join(d, "store")
    main(["packdb", "build", "-i", fasta, "-o", out_dir,
          "--fragments", "1"])
    capsys.readouterr()
    store = PackStore.open(out_dir)
    corrupt_pack_file(store.pack_path(store.packs[0]))
    assert main(["packdb", "verify", out_dir]) == EXIT_INTEGRITY
    assert main(["packdb", "info", out_dir, "--verify"]) == EXIT_INTEGRITY
    capsys.readouterr()


def test_cli_blastall_db_pack_matches_ram_path(cli_corpus, capsys):
    fasta, query, d = cli_corpus
    out_dir = os.path.join(d, "store")
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    main(["packdb", "build", "-i", fasta, "-o", out_dir,
          "--fragments", "2"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query]) == 0
    ram = capsys.readouterr().out
    assert main(["blastall", "-p", "blastn", "--db-pack", out_dir,
                 "-i", query]) == 0
    disk = capsys.readouterr().out
    assert main(["blastall", "-p", "blastn", "--db-pack", out_dir,
                 "-i", query, "--jobs", "2"]) == 0
    disk_par = capsys.readouterr().out
    assert "s1 target" in ram
    assert disk == ram
    assert disk_par == ram


def test_cli_blastall_db_pack_usage_and_integrity(cli_corpus, capsys):
    fasta, query, d = cli_corpus
    out_dir = os.path.join(d, "store")
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    main(["packdb", "build", "-i", fasta, "-o", out_dir,
          "--fragments", "1"])
    capsys.readouterr()
    # -d and --db-pack are mutually exclusive.
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "--db-pack", out_dir, "-i", query]) == 2
    # Pack stores are nt here; a protein program is a usage error.
    assert main(["blastall", "-p", "blastp", "--db-pack", out_dir,
                 "-i", query]) == 2
    capsys.readouterr()
    store = PackStore.open(out_dir)
    corrupt_pack_file(store.pack_path(store.packs[0]))
    assert main(["blastall", "-p", "blastn", "--db-pack", out_dir,
                 "-i", query]) == EXIT_INTEGRITY
    capsys.readouterr()
    assert open_pack_count() == 0
