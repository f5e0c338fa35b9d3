"""Same-seed determinism of the experiment pipeline.

The simulator is single-threaded and fully deterministic, so two runs
of the same :class:`ExperimentConfig` must agree to the last bit —
execution time and the whole JobResult fingerprint.  Representative
figure-6 (PVFS server sweep) and figure-7 (PVFS vs CEFT, dedicated
placement) measurement points are additionally pinned against golden
values in ``benchmarks/results/determinism_golden.json``; any kernel
change that shifts them must regenerate the goldens deliberately
(and re-pin ``EVENTS_FIRED``, the number of events each one fires)::

    PYTHONPATH=src python tests/test_determinism.py --regen
"""

import json
import pathlib

import pytest

from repro.core.experiment import (
    ExperimentConfig,
    Placement,
    Variant,
    run_experiment,
)
from repro.sim.fuzz import job_fingerprint

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "benchmarks" / "results" / "determinism_golden.json")

SCALE = 1 / 100

#: The pinned measurement points (all scaled 1/100 like the rest of the
#: test suite; full-scale runs belong in benchmarks/).
CONFIGS = {
    "fig6_pvfs_w4_s4": ExperimentConfig(
        variant=Variant.PVFS, n_workers=4, n_servers=4).scaled(SCALE),
    "fig6_pvfs_w2_s8": ExperimentConfig(
        variant=Variant.PVFS, n_workers=2, n_servers=8).scaled(SCALE),
    "fig7_pvfs_w3_s8_dedicated": ExperimentConfig(
        variant=Variant.PVFS, n_workers=3, n_servers=8,
        placement=Placement.DEDICATED).scaled(SCALE),
    "fig7_ceft_w3_s8_dedicated": ExperimentConfig(
        variant=Variant.CEFT_PVFS, n_workers=3, n_servers=8,
        placement=Placement.DEDICATED).scaled(SCALE),
}


#: ``sim.check.events_fired`` for each pinned point on the default
#: (unperturbed) schedule.  A kernel change that keeps these goldens
#: but adds or drops an event can still move results elsewhere; the pin
#: makes it fail here.  Kept out of the golden file, whose entries the
#: benchmark compares whole.
EVENTS_FIRED = {
    "fig6_pvfs_w2_s8": 10337,
    "fig6_pvfs_w4_s4": 10711,
    "fig7_ceft_w3_s8_dedicated": 11823,
    "fig7_pvfs_w3_s8_dedicated": 11366,
}


def compute_entry(config):
    res = run_experiment(config)
    return {
        "execution_time": res.execution_time,
        "fingerprint": job_fingerprint(res.job),
    }


def load_goldens():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- identity
@pytest.mark.parametrize("name", ["fig6_pvfs_w4_s4",
                                  "fig7_ceft_w3_s8_dedicated"])
def test_same_seed_runs_are_bit_identical(name):
    first = compute_entry(CONFIGS[name])
    second = compute_entry(CONFIGS[name])
    assert first == second                      # includes exact float time


def test_seed_changes_time_but_conserves_work():
    import dataclasses

    base = CONFIGS["fig6_pvfs_w4_s4"]
    a = compute_entry(base)
    b = compute_entry(dataclasses.replace(base, seed=1))
    fp_a, fp_b = a["fingerprint"], b["fingerprint"]
    # Byte totals and fragment coverage are seed-independent ...
    for key in ("fragments_done", "fragments_searched",
                "read_bytes_total", "workers_accounted"):
        assert fp_a[key] == fp_b[key]
    # ... even if the timing noise differs between the seeds.
    assert a["execution_time"] > 0 and b["execution_time"] > 0


# ---------------------------------------------------------------- goldens
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_against_golden(name):
    goldens = load_goldens()
    assert name in goldens, (
        f"{name} missing from {GOLDEN_PATH.name}; regenerate with "
        f"'PYTHONPATH=src python tests/test_determinism.py --regen'")
    assert compute_entry(CONFIGS[name]) == goldens[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_event_count(name, monkeypatch):
    from repro.sim import engine

    monkeypatch.setattr(engine, "_TIE_BREAK_OVERRIDE", None)
    monkeypatch.delenv("REPRO_TIE_BREAK_SEED", raising=False)
    assert run_experiment(CONFIGS[name]).events_fired == EVENTS_FIRED[name]


# ---------------------------------------------------------------- bench
def _bench_engine():
    import importlib.util

    path = GOLDEN_PATH.parents[2] / "tools" / "bench_engine.py"
    spec = importlib.util.spec_from_file_location("bench_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_sim_section_times_the_pinned_points(monkeypatch, tmp_path):
    bench = _bench_engine()
    assert bench.sim_configs() == CONFIGS
    monkeypatch.setattr(bench, "SIM_ROUNDS_MIN", 2)
    sim = bench.measure_sim(rounds=1)
    assert sim["rounds"] == 2 and sim["golden_mismatches"] == []
    assert sim["events_per_round"] == sum(EVENTS_FIRED.values())
    assert sim["events_per_s"]["median"] > 0
    assert sim["experiment_s"]["iqr"] >= 0

    # No floor, and a baseline recorded before the section existed is
    # accepted; only a wrong answer fails.
    corpus = {"residues": 1}
    current = {"corpus": corpus, "speedup_kernel_over_loop": 2.0,
               "equivalent": True, "sim": sim}
    baseline = tmp_path / "BENCH_blast.json"
    baseline.write_text(json.dumps({"corpus": corpus,
                                    "speedup_kernel_over_loop": 2.0}))
    assert bench.check_against(current, str(baseline), 0.3) == 0
    current["sim"] = dict(sim, golden_mismatches=["fig6_pvfs_w4_s4"])
    assert bench.check_against(current, str(baseline), 0.3) == 1


def main(argv=None):
    """Regenerate the golden file (run as a script, never from pytest)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true",
                        help="recompute and overwrite the golden file")
    args = parser.parse_args(argv)
    if not args.regen:
        parser.error("nothing to do (did you mean --regen?)")
    goldens = {name: compute_entry(cfg) for name, cfg in sorted(CONFIGS.items())}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
