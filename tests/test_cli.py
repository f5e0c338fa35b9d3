"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


@pytest.fixture
def fasta_file(tmp_path):
    import numpy as np

    rng = np.random.default_rng(0)
    target = "".join(rng.choice(list("ACGT"), 500))
    path = tmp_path / "seqs.fasta"
    path.write_text(f">s1 target\n{target}\n>s2 decoy\n"
                    + "".join(rng.choice(list("ACGT"), 400)) + "\n")
    query = tmp_path / "query.fasta"
    query.write_text(f">q1\n{target[100:250]}\n")
    return str(path), str(query), str(tmp_path)


def test_formatdb_and_blastall(fasta_file, capsys):
    fasta, query, d = fasta_file
    assert main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"]) == 0
    out = capsys.readouterr().out
    assert "formatted 2 sequences" in out

    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query]) == 0
    out = capsys.readouterr().out
    assert "s1 target" in out


def test_blastall_with_alignments(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-a"]) == 0
    out = capsys.readouterr().out
    assert "Query  1" in out
    assert "Sbjct" in out


def test_blastall_evalue_and_filter_flags(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-e", "1e-10", "-F"]) == 0
    out = capsys.readouterr().out
    assert "s1 target" in out


def test_segmentdb(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    outdir = os.path.join(d, "frags")
    assert main(["segmentdb", "-d", f"{d}/mini", "-o", outdir,
                 "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "fragment 0" in out and "fragment 1" in out
    assert os.path.exists(os.path.join(outdir, "mini.000.nin"))


def test_synthdb(tmp_path, capsys):
    assert main(["synthdb", "-o", str(tmp_path), "-n", "syn",
                 "--residues", "20000"]) == 0
    out = capsys.readouterr().out
    assert "synthetic sequences" in out
    assert os.path.exists(tmp_path / "syn.nin")


def test_experiment_command(capsys):
    assert main(["experiment", "--variant", "pvfs", "--workers", "2",
                 "--servers", "2", "--scale", "0.02", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "execution time" in out
    assert "I/O operations" in out  # trace summary


def test_experiment_queryseg_flag(capsys):
    assert main(["experiment", "--variant", "pvfs", "--workers", "2",
                 "--servers", "2", "--scale", "0.02", "--queryseg"]) == 0
    out = capsys.readouterr().out
    assert "execution time" in out


def test_experiment_original_reports_copy_time(capsys):
    assert main(["experiment", "--variant", "original", "--workers", "2",
                 "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "copy time" in out


def test_reproduce_command(capsys):
    assert main(["reproduce", "--figure", "T1", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Bonnie" in out


def test_profile_flag_does_not_outlive_the_call(fasta_file, capsys,
                                                monkeypatch):
    """--profile reaches the searches of its own run only: the
    environment switch is restored when main() returns."""
    from repro.blast import blastn
    from repro.blast.profile import PROFILE_ENV
    from repro.blast.seqdb import SequenceDB

    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    monkeypatch.delenv(PROFILE_ENV, raising=False)
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "--profile"]) == 0
    assert '"stages"' in capsys.readouterr().err
    assert PROFILE_ENV not in os.environ
    db = SequenceDB.load(d, "mini")
    blastn("ACGTACGTACGTACGTACGT", db)
    assert capsys.readouterr().err == ""

    monkeypatch.setenv(PROFILE_ENV, "0")
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "--profile"]) == 0
    assert os.environ[PROFILE_ENV] == "0"


def test_blastall_tabular_output(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "tabular"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert any(line.count("\t") == 11 for line in out)


def test_blastall_xml_output(fasta_file, capsys):
    import xml.etree.ElementTree as ET

    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "xml"]) == 0
    out = capsys.readouterr().out
    root = ET.fromstring(out.strip())
    assert root.tag == "BlastOutput"


def test_psiblast_command(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(0)
    aas = "ARNDCQEGHILKMFPSTWYV"
    prot = "".join(rng.choice(list(aas), 200))
    fasta = tmp_path / "prots.fasta"
    fasta.write_text(f">p1 target\n{prot}\n>p2 decoy\n"
                     + "".join(rng.choice(list(aas), 200)) + "\n")
    main(["formatdb", "-i", str(fasta), "-d", str(tmp_path), "-n",
          "prot", "-p"])
    query = tmp_path / "q.fasta"
    query.write_text(f">q\n{prot[40:160]}\n")
    capsys.readouterr()
    assert main(["psiblast", "-d", f"{tmp_path}/prot",
                 "-i", str(query), "-j", "2"]) == 0
    out = capsys.readouterr().out
    assert "iteration 1" in out
    assert "p1" in out


def test_blastn_jobs_output_identical_to_serial(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "tabular"]) == 0
    serial = capsys.readouterr().out
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "-m", "tabular", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial
    assert main(["blastall", "-p", "blastn", "-d", f"{d}/mini",
                 "-i", query, "-m", "tabular", "--jobs", "2",
                 "--fragments", "3"]) == 0
    assert capsys.readouterr().out == serial


def test_blastn_task_granularity_flag(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "-m", "tabular"]) == 0
    serial = capsys.readouterr().out
    # Pinned per-fragment tasks and adaptive ranges both match serial.
    for extra in (["--task-granularity", "1"], ["--task-granularity", "2"]):
        assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                     "-m", "tabular", "--jobs", "2"] + extra) == 0
        assert capsys.readouterr().out == serial


def test_blastall_jobs_falls_back_for_translated_programs(fasta_file, capsys):
    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastall", "-p", "tblastx", "-d", f"{d}/mini",
                 "-i", query, "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "--jobs applies to blastn/blastp only" in captured.err


# ----------------------------------------------------------------------
# Parallel-run exit codes (fault plans injected via the env hook so
# the CLI code path under test is exactly what users run)
# ----------------------------------------------------------------------
def test_blastn_jobs_corrupt_pack_exit_code(fasta_file, capsys, monkeypatch):
    from repro.cli import EXIT_INTEGRITY

    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    monkeypatch.setenv("REPRO_EXEC_FAULT_PLAN",
                       '[{"kind": "corrupt_pack", "rank": 0}]')
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "--jobs", "2"]) == EXIT_INTEGRITY
    captured = capsys.readouterr()
    assert "pack integrity failure" in captured.err
    assert "CRC32" in captured.err


def test_blastn_jobs_pool_failure_exit_code(fasta_file, capsys, monkeypatch):
    from repro.cli import EXIT_POOL_FAILURE

    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    monkeypatch.setenv("REPRO_EXEC_FAULT_PLAN", '[{"kind": "kill"}]')
    assert main(["blastn", "-d", f"{d}/mini", "-i", query, "--jobs", "2",
                 "--no-respawn", "--no-fallback"]) == EXIT_POOL_FAILURE
    captured = capsys.readouterr()
    assert "pool failure" in captured.err


def test_blastn_jobs_degraded_exit_code(fasta_file, capsys, monkeypatch):
    from repro.cli import EXIT_DEGRADED

    fasta, query, d = fasta_file
    main(["formatdb", "-i", fasta, "-d", d, "-n", "mini"])
    capsys.readouterr()
    assert main(["blastn", "-d", f"{d}/mini", "-i", query,
                 "-m", "tabular"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("REPRO_EXEC_FAULT_PLAN", '[{"kind": "kill"}]')
    assert main(["blastn", "-d", f"{d}/mini", "-i", query, "-m", "tabular",
                 "--jobs", "2", "--no-respawn"]) == EXIT_DEGRADED
    captured = capsys.readouterr()
    # Degraded, but the answer itself is byte-identical.
    assert captured.out == serial
    assert "degraded" in captured.err
