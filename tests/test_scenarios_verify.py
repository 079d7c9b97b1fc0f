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


def without_timing(algorithms_block):
    """A scenario block's per-algorithm outcomes without their run times."""
    return {
        name: {key: value for key, value in stats.items() if key != "solve_seconds"}
        for name, stats in algorithms_block.items()
    }


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

    def test_registered_invariant_is_checked_by_default(self):
        from repro.scenarios.invariants import _REGISTRY, register_invariant

        @register_invariant("planted-always-violated", description="test only")
        def _always_violated(run):
            return ["planted violation"]

        try:
            report = run_verification(budget=2, seed=0, algorithms=["fifo"])
        finally:
            _REGISTRY.pop("planted-always-violated", None)
        assert "planted-always-violated" in report["invariants"]
        assert report["summary"]["violations"] == 2
        assert not report["summary"]["ok"]
        for block in report["scenarios"]:
            assert block["invariants"]["planted-always-violated"] == {
                "ok": False,
                "violations": ["planted violation"],
            }

    def test_registered_algorithm_runs_by_default(self):
        import dataclasses

        from repro.api.registry import _REGISTRY, get_algorithm, register_algorithm

        fifo = get_algorithm("fifo").solver

        @register_algorithm("planted-fifo", description="test only")
        def _planted(instance, config, lp_solution=None):
            report = fifo(instance, config, lp_solution)
            return dataclasses.replace(report, algorithm="planted-fifo")

        try:
            report = run_verification(budget=2, seed=0)
        finally:
            _REGISTRY.pop("planted-fifo", None)
        assert "planted-fifo" in report["summary"]["algorithms_run"]
        for block in report["scenarios"]:
            algorithms = block["algorithms"]
            assert algorithms["planted-fifo"]["objective"] == (
                algorithms["fifo"]["objective"]
            )

    def test_equivalent_selections_give_the_same_report(self, small_report):
        # Naming the default algorithms and invariants explicitly, in
        # another order, verifies the same thing.
        explicit = run_verification(
            budget=2,
            seed=0,
            algorithms=list(reversed(available_algorithms())),
            invariants=list(reversed(invariant_names())),
        )
        for ours, theirs in zip(explicit["scenarios"], small_report["scenarios"]):
            assert ours["scenario"] == theirs["scenario"]
            assert ours["invariants"] == theirs["invariants"]
            assert ours["violations"] == theirs["violations"]
            assert without_timing(ours["algorithms"]) == (
                without_timing(theirs["algorithms"])
            )


class TestVerifyScenario:
    def test_single_scenario_block_shape(self):
        block = verify_scenario(build_scenario("link-failure", 0, 4))
        assert block["scenario"]["family"] == "link-failure"
        assert block["violations"] == []
        assert block["seconds"] > 0
        for stats in block["algorithms"].values():
            assert stats["objective"] >= 0
            assert stats["feasible"]

    def test_scenario_solves_one_shared_lp(self, lp_solves):
        scenario = build_scenario("link-failure", 0, 4)
        run = execute_scenario(
            scenario,
            algorithms=["lp-heuristic", "stretch", "stretch-best", "fifo"],
        )
        assert lp_solves == [run.instance.name]
        for name in ("lp-heuristic", "stretch", "stretch-best"):
            assert run.reports[name].lp_solution is run.lp_solution

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


class TestCrashBlocksNotCached:
    """A transient crash is a violation of its own run only."""

    def test_crash_block_is_recomputed_next_run(self, monkeypatch):
        from repro.scenarios import engine
        import repro.scenarios.verify as verify_mod

        scenario = engine.build_scenario("bursty-arrivals", 0, 0)

        def crashing_solve(*args, **kwargs):
            raise MemoryError("transient pressure")

        monkeypatch.setattr(verify_mod, "solve", crashing_solve)
        block = verify_scenario(scenario)
        assert any(v["kind"] == "crash" for v in block["violations"])

        monkeypatch.undo()
        healed = verify_scenario(scenario)
        assert healed["violations"] == []
