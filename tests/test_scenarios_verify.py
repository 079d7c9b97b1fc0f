"""End-to-end tests for the differential-verification harness and the
``repro verify`` CLI command."""

import json

import numpy as np
import pytest

from repro.api import SolverConfig, available_algorithms
from repro.cli import main as cli_main
from repro.core.timeindexed import resolve_grid
from repro.scenarios import (
    BUILTIN_FAMILIES,
    build_scenario,
    execute_scenario,
    format_verification_report,
    invariant_names,
    run_verification,
    scenario_families,
    verify_scenario,
    write_verification_report,
)
from repro.scenarios.families import expected_model


@pytest.fixture(scope="module")
def small_report():
    # Budget 12 > the eight families, so every family is sampled and index 1
    # (single path) scenarios are included — jahanjou gets coverage too.
    return run_verification(budget=12, seed=0)


class TestRunVerification:
    def test_zero_violations_on_clean_build(self, small_report):
        summary = small_report["summary"]
        assert summary["ok"], json.dumps(small_report["scenarios"], indent=2)
        assert summary["violations"] == 0
        assert summary["crashes"] == 0

    def test_all_families_and_both_models_covered(self, small_report):
        assert small_report["summary"]["families_covered"] == sorted(
            scenario_families()
        )
        models = {
            block["scenario"]["model"] for block in small_report["scenarios"]
        }
        assert models == {"free_path", "single_path"}

    def test_every_registered_algorithm_ran(self, small_report):
        from repro.api import available_algorithms

        assert small_report["summary"]["algorithms_run"] == sorted(
            available_algorithms()
        )

    def test_every_invariant_checked_per_scenario(self, small_report):
        for block in small_report["scenarios"]:
            assert set(block["invariants"]) == set(invariant_names())
            for outcome in block["invariants"].values():
                assert outcome["ok"]

    def test_report_is_json_serializable_and_reproducible(self, small_report):
        json.dumps(small_report)
        again = run_verification(budget=12, seed=0)
        for a, b in zip(small_report["scenarios"], again["scenarios"]):
            assert a["scenario"] == b["scenario"]
            assert a["algorithms"].keys() == b["algorithms"].keys()
            for name in a["algorithms"]:
                assert a["algorithms"][name]["objective"] == pytest.approx(
                    b["algorithms"][name]["objective"]
                )

    def test_unknown_algorithm_fails_fast(self):
        with pytest.raises(ValueError):
            run_verification(budget=1, seed=0, algorithms=["nope"])

    def test_unknown_invariant_fails_fast(self):
        with pytest.raises(ValueError):
            run_verification(budget=1, seed=0, invariants=["nope"])

    def test_algorithm_subset_filters_by_model(self):
        report = run_verification(
            budget=2, seed=0, families=["zipf-sizes"], algorithms=["terra", "fifo"]
        )
        blocks = report["scenarios"]
        # zipf-sizes scenario 0 is free path (terra + fifo), scenario 1
        # single path (terra skipped, fifo kept) — and skipping on one
        # scenario must count neither as a crash nor as lost coverage.
        assert set(blocks[0]["algorithms"]) == {"terra", "fifo"}
        assert set(blocks[1]["algorithms"]) == {"fifo"}
        assert report["summary"]["uncovered_algorithms"] == []
        assert report["summary"]["ok"]

    def test_algorithm_with_zero_coverage_fails_the_run(self):
        # trace-replay scenario 0 is single path; free-path-only terra then
        # never runs anywhere — the run must NOT report ok.
        report = run_verification(
            budget=1, seed=0, families=["trace-replay"], algorithms=["terra"]
        )
        assert report["summary"]["algorithms_run"] == []
        assert report["summary"]["uncovered_algorithms"] == ["terra"]
        assert not report["summary"]["ok"]
        from repro.scenarios import format_verification_report

        rendered = format_verification_report(report)
        assert "never ran" in rendered
        assert "INCOMPLETE COVERAGE" in rendered

    def test_empty_algorithm_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run_verification(budget=1, seed=0, algorithms=[])


class TestVerifyScenario:
    def test_single_scenario_block_shape(self):
        block = verify_scenario(build_scenario("link-failure", 0, 4))
        assert block["scenario"]["family"] == "link-failure"
        assert block["violations"] == []
        assert block["seconds"] > 0
        for stats in block["algorithms"].values():
            assert stats["objective"] >= 0
            assert stats["feasible"]

    def test_shared_lp_honours_the_config_grid(self):
        # Regression: the shared LP dropped config fields and was solved on
        # the default grid whatever the config asked for.
        scenario = build_scenario("link-failure", 0, 4)
        run = execute_scenario(
            scenario,
            config=SolverConfig(slot_length=0.5),
            algorithms=["lp-heuristic", "fifo"],
        )
        expected = resolve_grid(run.instance, slot_length=0.5)
        # A default uniform request is solved on a prefix of its grid.
        solved = run.lp_solution.grid.boundaries
        np.testing.assert_array_equal(solved, expected.boundaries[: solved.size])
        assert run.lp_solution.metadata["request"]["grid"] == (
            expected.boundary_digest()
        )
        assert run.reports["lp-heuristic"].lp_solution is run.lp_solution


#: Every built-in family at indices 0 and 1, i.e. both transmission models.
FAMILY_ADDRESSES = [
    (family, index) for family in BUILTIN_FAMILIES for index in (0, 1)
]


@pytest.fixture(scope="module")
def family_blocks():
    """One verification block per address in ``FAMILY_ADDRESSES`` (seed 0)."""
    return {
        (family, index): verify_scenario(build_scenario(family, index, 0))
        for family, index in FAMILY_ADDRESSES
    }


class TestEveryFamily:
    """Each family's first two scenarios verify clean, one address at a time
    (a budget-limited run only reaches index 1 for some families)."""

    #: The shared time-indexed LP's optimum per address at root seed 0.  The
    #: optimal value of an LP is unique, so it does not depend on which
    #: optimal vertex the backend returns; a mismatch means the family, the
    #: grid or the LP changed.
    LP_BOUNDS = {
        ("adversarial-arrival", 0): 9.0,
        ("adversarial-arrival", 1): 16.0,
        ("bursty-arrivals", 0): 26.13389113551856,
        ("bursty-arrivals", 1): 34.56869018833254,
        ("hardness-gadget", 0): 210.7748900684259,
        ("hardness-gadget", 1): 25.787291697770918,
        ("link-failure", 0): 62.3687350116471,
        ("link-failure", 1): 52.319111020205064,
        ("online-poisson", 0): 4.0,
        ("online-poisson", 1): 3.0,
        ("oversubscribed", 0): 293.10137183685185,
        ("oversubscribed", 1): 47.15138632799424,
        ("trace-replay", 0): 1049.4954511310093,
        ("trace-replay", 1): 518.5291348166635,
        ("zipf-sizes", 0): 26.114598157517307,
        ("zipf-sizes", 1): 20.539050421986293,
    }

    @pytest.mark.parametrize("family, index", FAMILY_ADDRESSES)
    def test_scenario_verifies_clean(self, family_blocks, family, index):
        block = family_blocks[(family, index)]
        assert block["violations"] == [], json.dumps(block, indent=2)
        model = expected_model(family, index)
        assert block["scenario"]["model"] == model.value
        assert sorted(block["algorithms"]) == sorted(
            available_algorithms(model=model)
        )
        assert all(stats["feasible"] for stats in block["algorithms"].values())
        assert sorted(block["invariants"]) == sorted(invariant_names())

    @pytest.mark.parametrize("family, index", FAMILY_ADDRESSES)
    def test_lp_bound_is_stable(self, family_blocks, family, index):
        block = family_blocks[(family, index)]
        bounds = {
            stats["lower_bound"]
            for stats in block["algorithms"].values()
            if stats["lower_bound"] is not None
        }
        # Every LP-based algorithm reports the one shared LP's bound.
        assert len(bounds) == 1
        assert bounds.pop() == pytest.approx(
            self.LP_BOUNDS[(family, index)], rel=1e-6
        )


class TestReportWriting:
    def test_write_to_directory(self, tmp_path, small_report):
        path = write_verification_report(small_report, tmp_path)
        assert path.name.startswith("VERIFY_") and path.suffix == ".json"
        assert json.loads(path.read_text())["summary"]["ok"]

    def test_write_to_explicit_file(self, tmp_path, small_report):
        target = tmp_path / "sub" / "report.json"
        path = write_verification_report(small_report, target)
        assert path == target
        assert target.exists()

    def test_format_mentions_verdict_and_algorithms(self, small_report):
        rendered = format_verification_report(small_report)
        assert "-> OK" in rendered
        assert "jahanjou" in rendered
        assert "total violations: 0" in rendered


class TestCli:
    def test_verify_command_writes_report(self, tmp_path, capsys):
        code = cli_main(
            [
                "verify",
                "--budget",
                "6",
                "--seed",
                "1",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        produced = list(tmp_path.glob("VERIFY_*.json"))
        assert len(produced) == 1
        payload = json.loads(produced[0].read_text())
        assert payload["budget"] == 6
        assert payload["seed"] == 1
        assert payload["summary"]["ok"]

    def test_verify_family_filter(self, tmp_path, capsys):
        code = cli_main(
            [
                "verify",
                "--budget",
                "2",
                "--family",
                "zipf-sizes",
                "--algorithms",
                "fifo,sebf",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads(next(tmp_path.glob("VERIFY_*.json")).read_text())
        assert payload["summary"]["families_covered"] == ["zipf-sizes"]
        assert payload["summary"]["algorithms_run"] == ["fifo", "sebf"]

    def test_verify_unknown_family_exit_code(self, tmp_path):
        assert (
            cli_main(["verify", "--family", "bogus", "--output", str(tmp_path)])
            == 2
        )

    def test_verify_unknown_algorithm_exit_code(self, tmp_path):
        assert (
            cli_main(
                ["verify", "--algorithms", "bogus", "--output", str(tmp_path)]
            )
            == 2
        )

    def test_verify_blank_algorithm_list_exit_code(self, tmp_path):
        assert (
            cli_main(
                ["verify", "--algorithms", " , ", "--output", str(tmp_path)]
            )
            == 2
        )

    def test_verify_zero_coverage_exit_code(self, tmp_path, capsys):
        code = cli_main(
            [
                "verify",
                "--budget",
                "1",
                "--family",
                "trace-replay",
                "--algorithms",
                "terra",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_list_families(self, capsys):
        assert cli_main(["verify", "--list-families"]) == 0
        out = capsys.readouterr().out
        assert "zipf-sizes" in out
        assert "incremental-sim" in out


    def test_list_families_names_every_family_and_invariant(self, capsys):
        assert cli_main(["verify", "--list-families"]) == 0
        lines = capsys.readouterr().out.splitlines()
        split = lines.index("invariants:")
        assert lines[0] == "scenario families:"
        families = [line.split()[0] for line in lines[1:split]]
        invariants = [line.split()[0] for line in lines[split + 1 :]]
        assert sorted(families) == sorted(BUILTIN_FAMILIES)
        assert invariants == list(invariant_names())


class TestVerifyStore:
    """Store-backed verification: resume + replay semantics."""

    def test_repeated_run_replays_from_store(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        cold = run_verification(budget=3, seed=0, store=store)
        assert cold["summary"]["cached_scenarios"] == 0
        assert store.writes == 3

        warm = run_verification(budget=3, seed=0, store=store)
        assert warm["summary"]["cached_scenarios"] == 3
        assert store.writes == 3  # nothing recomputed
        # Identical verification content, scenario by scenario.
        for a, b in zip(cold["scenarios"], warm["scenarios"]):
            assert a["scenario"] == b["scenario"]
            assert a["violations"] == b["violations"]
            for algo in a["algorithms"]:
                assert a["algorithms"][algo]["objective"] == pytest.approx(
                    b["algorithms"][algo]["objective"]
                )

    def test_partial_store_resumes_the_remainder(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        run_verification(budget=2, seed=0, store=store)
        # A wider run covers the two stored scenarios for free and only
        # verifies the new ones.
        wider = run_verification(budget=4, seed=0, store=store)
        assert wider["summary"]["cached_scenarios"] == 2
        assert store.writes == 4

    def test_selections_are_part_of_the_key(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        run_verification(budget=2, seed=0, store=store)
        narrowed = run_verification(
            budget=2, seed=0, store=store, algorithms=["fifo"]
        )
        # Narrowing the algorithm selection must not replay the wider block.
        assert narrowed["summary"]["cached_scenarios"] == 0
        assert narrowed["summary"]["algorithms_run"] == ["fifo"]

    def test_invariant_registered_after_a_stored_run_is_checked(self, tmp_path):
        from repro.scenarios.invariants import _REGISTRY, register_invariant
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        stored = run_verification(budget=2, seed=0, algorithms=["fifo"], store=store)
        assert stored["summary"]["ok"]

        @register_invariant("planted-always-violated", description="test only")
        def _always_violated(run):
            return ["planted violation"]

        try:
            again = run_verification(
                budget=2, seed=0, algorithms=["fifo"], store=store
            )
        finally:
            _REGISTRY.pop("planted-always-violated", None)
        # The default invariant set grew, so the stored blocks (which never
        # ran the planted invariant) must not be replayed.
        assert again["summary"]["cached_scenarios"] == 0
        assert not again["summary"]["ok"]
        for block in again["scenarios"]:
            assert not block["invariants"]["planted-always-violated"]["ok"]

    def test_algorithm_registered_after_a_stored_run_is_run(self, tmp_path):
        import dataclasses

        from repro.api.registry import _REGISTRY, get_algorithm, register_algorithm
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        run_verification(budget=2, seed=0, store=store)
        fifo = get_algorithm("fifo").solver

        @register_algorithm("planted-fifo", description="test only")
        def _planted(instance, config, lp_solution=None):
            report = fifo(instance, config, lp_solution)
            return dataclasses.replace(report, algorithm="planted-fifo")

        try:
            again = run_verification(budget=2, seed=0, store=store)
        finally:
            _REGISTRY.pop("planted-fifo", None)
        # The default algorithm set grew, so no stored block may stand in
        # for a run that now includes the planted algorithm.
        assert again["summary"]["cached_scenarios"] == 0
        for block in again["scenarios"]:
            assert "planted-fifo" in block["algorithms"]

    def test_equivalent_selections_share_stored_blocks(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        run_verification(budget=2, seed=0, store=store)
        # Explicit selections naming the same algorithms and invariants as
        # the defaults, in another order, address the same blocks.
        explicit = run_verification(
            budget=2,
            seed=0,
            store=store,
            algorithms=list(reversed(available_algorithms())),
            invariants=list(reversed(invariant_names())),
        )
        assert explicit["summary"]["cached_scenarios"] == 2
        assert store.writes == 2

    def test_cli_store_flag(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        out_dir = str(tmp_path / "reports")
        assert (
            cli_main(
                ["verify", "--budget", "2", "--seed", "0",
                 "--store", store_dir, "--output", out_dir]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            cli_main(
                ["verify", "--budget", "2", "--seed", "0",
                 "--store", store_dir, "--output", out_dir]
            )
            == 0
        )
        assert "2 from store" in capsys.readouterr().out


class TestCrashBlocksNotCached:
    """Regression: transient crashes must be retried, never replayed."""

    def test_crash_block_is_recomputed_next_run(self, tmp_path, monkeypatch):
        from repro.scenarios import engine
        from repro.store import ResultStore
        import repro.scenarios.verify as verify_mod

        scenario = engine.build_scenario("bursty-arrivals", 0, 0)
        store = ResultStore(tmp_path / "store")

        def crashing_solve(*args, **kwargs):
            raise MemoryError("transient pressure")

        monkeypatch.setattr(verify_mod, "solve", crashing_solve)
        block = verify_scenario(scenario, store=store)
        assert any(v["kind"] == "crash" for v in block["violations"])
        assert store.writes == 0  # the failed block was not checkpointed

        monkeypatch.undo()
        healed = verify_scenario(scenario, store=store)
        assert not healed.get("cached")
        assert healed["violations"] == []
        assert store.writes == 1  # the clean block now is
        replay = verify_scenario(scenario, store=store)
        assert replay.get("cached") is True
