"""Resumable sweeps: determinism, kill-and-resume, zero re-solves."""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter

import pytest

import repro.api.batch as batch_module
import repro.experiments.sweep as sweep_module
from repro.api import SolverConfig, solve
from repro.experiments.sweep import (
    InstanceSpec,
    SweepSpec,
    enumerate_units,
    run_sweep,
    sweep_status,
)
from repro.store import (
    ResultStore,
    canonical_payload_bytes,
    instance_fingerprint,
    report_to_dict,
    result_key,
)
from repro.utils.retry import Backoff
from repro.workloads.traces import TraceValidationError, save_trace


#: tiny_spec's algorithms, and a mix of online and offline ones.
OFFLINE = ("lp-heuristic", "fifo", "stretch")
ONLINE = ("online-batch", "online-wsjf", "lp-heuristic")


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="test-sweep",
        instances=tuple(
            InstanceSpec(
                topology="paper-example",
                profile="FB",
                num_coflows=2,
                model="free_path",
                seed=seed,
            )
            for seed in (1, 2)
        ),
        algorithms=OFFLINE,
        config=SolverConfig(num_samples=2),
        seed=7,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def result_bytes(result) -> dict:
    """key -> canonical payload bytes (timing excluded), for identity checks."""
    return {
        unit.key: canonical_payload_bytes(result.reports[unit.key])
        for unit in result.units
    }


class TestSpec:
    def test_spec_round_trips_through_json(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        spec.save_json(path)
        loaded = SweepSpec.load_json(path)
        assert loaded == spec

    def test_spec_rejects_live_rng(self):
        with pytest.raises(ValueError, match="rng must be None"):
            tiny_spec(config=SolverConfig(rng=3))

    def test_spec_rejects_unknown_config_fields(self):
        data = tiny_spec().to_dict()
        data["config"]["epsilon"] = 0.2  # the ε axis is `epsilons`, not config
        with pytest.raises(ValueError, match="unknown sweep config fields"):
            SweepSpec.from_dict(data)

    @pytest.mark.parametrize(
        "field,value",
        [("epsilon", [0.2]), ("sed", 5), ("num_shards", 3)],
        ids=["misspelt-axis", "misspelt-seed", "removed-field"],
    )
    def test_spec_rejects_unknown_fields(self, field, value):
        # Each would otherwise run the default (uniform grid, seed 0).
        data = tiny_spec().to_dict()
        data[field] = value
        with pytest.raises(ValueError, match="unknown sweep spec fields") as err:
            SweepSpec.from_dict(data)
        assert f"['{field}']" in str(err.value)
        assert "'epsilons'" in str(err.value) and "'seed'" in str(err.value)

    def test_spec_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            tiny_spec(instances=())
        with pytest.raises(ValueError):
            tiny_spec(algorithms=())
        with pytest.raises(ValueError):
            tiny_spec(epsilons=())


class TestUnits:
    def test_unit_seeds_are_address_derived(self):
        spec = tiny_spec()
        instances = [ispec.build() for ispec in spec.instances]
        a = enumerate_units(spec, instances)
        b = enumerate_units(spec, instances)
        assert [u.key for u in a] == [u.key for u in b]
        # Randomized algorithms carry a pinned derived seed; deterministic
        # ones carry None so unrelated sweeps share their cache entries.
        by_algo = {u.algorithm: u for u in a}
        assert by_algo["stretch"].rng_seed is not None
        assert by_algo["fifo"].rng_seed is None
        assert by_algo["lp-heuristic"].rng_seed is None

    def test_model_mismatch_units_are_skipped(self):
        spec = tiny_spec(algorithms=("terra", "jahanjou", "fifo"))
        instances = [ispec.build() for ispec in spec.instances]
        units = enumerate_units(spec, instances)  # free-path instances
        algos = {u.algorithm for u in units}
        assert "terra" in algos and "fifo" in algos
        assert "jahanjou" not in algos  # single-path only


class TestRunSweep:
    def test_full_run_solves_every_unit(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        result = run_sweep(spec, store)
        assert result.complete
        assert result.solved == len(result.units)
        assert result.hits == 0
        assert all(u.status == "solved" for u in result.units)
        assert all(u.objective is not None for u in result.units)

    @pytest.mark.parametrize(
        "algorithms,parallel",
        [(OFFLINE, None), (ONLINE, None), (OFFLINE, 2)],
        ids=["offline", "online", "offline-parallel"],
    )
    def test_interrupted_sweep_resumes_byte_identical(
        self, tmp_path, monkeypatch, algorithms, parallel
    ):
        """The acceptance criterion: kill mid-run, resume, identical bytes.

        A ``KeyboardInterrupt`` from the second unit solve of the second
        (instance, ε) group must leave every unit of the first group in
        the store, and none of the second.  With worker processes the
        interrupt is raised in the worker (forked after the patch) and
        re-raised by the pool.
        """
        if parallel and batch_module._effective_start_method() != "fork":
            pytest.skip("the patched solve reaches forked workers only")
        spec = tiny_spec(algorithms=algorithms)
        uninterrupted = run_sweep(spec, ResultStore(tmp_path / "a"))

        real_solve = sweep_module.solve
        second_group = (instance_fingerprint(spec.instances[1].build()), None)
        solves = Counter()  # per process: a group's units share one worker

        def interrupted_solve(instance, algorithm, *, config, lp_solution=None):
            group = (instance_fingerprint(instance), config.epsilon)
            solves[group] += 1
            if group == second_group and solves[group] == 2:
                raise KeyboardInterrupt
            return real_solve(
                instance, algorithm, config=config, lp_solution=lp_solution
            )

        monkeypatch.setattr(sweep_module, "solve", interrupted_solve)
        store = ResultStore(tmp_path / "b")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store, parallel=parallel)
        monkeypatch.undo()
        first_group = [u for u in uninterrupted.units if u.instance_index == 0]
        assert len(first_group) == len(algorithms)
        assert store.keys() == sorted(u.key for u in first_group)
        status = sweep_status(spec, store)
        assert status["stored"] == len(first_group)
        assert status["pending"] == len(uninterrupted.units) - len(first_group)
        assert not status["complete"]

        resumed = run_sweep(spec, store)
        assert resumed.complete
        assert resumed.hits == len(first_group)
        assert resumed.solved == len(resumed.units) - len(first_group)
        assert result_bytes(resumed) == result_bytes(uninterrupted)

    def test_completed_sweep_rerun_performs_zero_solves(self, tmp_path):
        """The acceptance criterion: warm re-run is pure store hits."""
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        run_sweep(spec, store)
        store.reset_counters()
        warm = run_sweep(spec, store)
        assert warm.complete
        assert warm.solved == 0
        assert warm.hits == len(warm.units)
        assert store.misses == 0
        assert all(u.status == "hit" for u in warm.units)
        assert result_bytes(warm) == result_bytes(run_sweep(spec, store))

    def test_one_lp_solve_per_instance(self, tmp_path, lp_solves):
        # Each (instance, ε) group's LP consumers (lp-heuristic and
        # stretch) read one shared solve.
        spec = tiny_spec()
        run_sweep(spec, ResultStore(tmp_path / "store"))
        assert len(lp_solves) == len(spec.instances)

    def test_one_lp_solve_per_group(self, tmp_path, lp_solves):
        spec = tiny_spec(epsilons=(None, 0.5))
        result = run_sweep(spec, ResultStore(tmp_path / "store"))
        groups = {(u.instance_index, u.epsilon) for u in result.units}
        assert len(lp_solves) == len(groups) == 4

    def test_warm_rerun_solves_no_lp(self, tmp_path, lp_solves):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        run_sweep(spec, store)
        assert lp_solves
        lp_solves.clear()
        assert run_sweep(spec, store).complete
        assert lp_solves == []

    def test_stored_reports_equal_standalone_solves(self, tmp_path):
        # A unit's stored report is the report of one plain solve under the
        # unit's own config (its epsilon and, if randomized, its derived
        # seed): sharing an LP within a group changes no byte.
        spec = tiny_spec(epsilons=(None, 0.5))
        result = run_sweep(spec, ResultStore(tmp_path / "store"))
        instances = [ispec.build() for ispec in spec.instances]
        for unit in result.units:
            config = spec.config.replace(epsilon=unit.epsilon, rng=unit.rng_seed)
            report = solve(
                instances[unit.instance_index], unit.algorithm, config=config
            )
            stored = result.reports[unit.key]
            assert canonical_payload_bytes(report_to_dict(report)) == (
                canonical_payload_bytes(stored)
            ), unit

    def test_parallel_equals_serial(self, tmp_path):
        spec = tiny_spec()
        serial = run_sweep(spec, ResultStore(tmp_path / "serial"))
        parallel = run_sweep(
            spec, ResultStore(tmp_path / "parallel"), parallel=2
        )
        assert result_bytes(serial) == result_bytes(parallel)

    def test_epsilon_axis_produces_distinct_units(self, tmp_path):
        spec = tiny_spec(algorithms=("lp-heuristic",), epsilons=(None, 0.5))
        store = ResultStore(tmp_path / "store")
        result = run_sweep(spec, store)
        assert result.complete
        assert len(result.units) == 2 * len(spec.instances)
        eps_values = {u.epsilon for u in result.units}
        assert eps_values == {None, 0.5}

    def test_unknown_algorithm_fails_fast(self, tmp_path):
        spec = tiny_spec(algorithms=("lp-heuristic", "no-such-algo"))
        with pytest.raises(ValueError, match="no-such-algo"):
            run_sweep(spec, ResultStore(tmp_path / "store"))

    def test_status_reports_coverage_without_solving(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        before = sweep_status(spec, store)
        assert before["stored"] == 0 and not before["complete"]
        # A store filled by another sweep that shares the first instance.
        run_sweep(tiny_spec(instances=spec.instances[:1]), store)
        mid = sweep_status(spec, store)
        assert mid["stored"] == mid["pending"] == mid["units"] // 2
        run_sweep(spec, store)
        after = sweep_status(spec, store)
        assert after["complete"] and after["pending"] == 0

    def test_custom_algorithm_falls_back_to_serial_with_a_warning(
        self, tmp_path, monkeypatch, custom_algorithm
    ):
        monkeypatch.setattr(batch_module, "_effective_start_method", lambda: "spawn")
        spec = tiny_spec(algorithms=("fifo", custom_algorithm))
        monkeypatch.setattr(batch_module, "ProcessPoolExecutor", None)  # no pool
        with pytest.warns(
            RuntimeWarning, match="not importable.*running serially"
        ) as record:
            result = run_sweep(spec, ResultStore(tmp_path / "store"), parallel=2)
        assert record[0].filename == __file__  # names the caller's line
        assert result.complete and result.solved == len(result.units) == 4


class TestSweepCLI:
    def write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec().to_dict()))
        return path

    def test_cli_partial_store_resume_warm(self, tmp_path, capsys):
        from repro.cli import main

        spec = tiny_spec()
        spec_path = str(self.write_spec(tmp_path))
        first_path = tmp_path / "first.json"
        first_path.write_text(
            json.dumps(tiny_spec(instances=spec.instances[:1]).to_dict())
        )
        store_dir = str(tmp_path / "store")
        assert main(["sweep", str(first_path), "--store", store_dir]) == 0
        capsys.readouterr()

        assert main(["sweep", spec_path, "--store", store_dir, "--status"]) == 0
        assert capsys.readouterr().out == (
            "sweep test-sweep: 3/6 units stored, 3 pending, 0 failed (incomplete)\n"
        )

        assert main(["sweep", spec_path, "--store", store_dir]) == 0
        lines = capsys.readouterr().out.splitlines()
        sources = [line.split()[-1] for line in lines[2:8]]
        assert sources == ["hit"] * 3 + ["solved"] * 3
        assert lines[8].startswith("units 6: hit 3, solved 3, failed 0 (")
        assert len(lines) == 9  # no "sweep incomplete" line

        assert main(["sweep", spec_path, "--store", store_dir]) == 0
        assert "hit 6, solved 0, failed 0" in capsys.readouterr().out

        assert main(["sweep", spec_path, "--store", store_dir, "--status"]) == 0
        assert "(complete)" in capsys.readouterr().out

    def test_cli_bad_spec_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["sweep", str(bad), "--store", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("topology", "star", "unknown topology 'star'; expected one of 'swan'"),
            ("profile", "SPEC2006", "unknown workload 'SPEC2006'; expected one of"),
        ],
        ids=["unknown-topology", "unknown-profile"],
    )
    @pytest.mark.parametrize("status", [False, True], ids=["run", "status"])
    def test_cli_unknown_name_is_one_unquoted_error_line(
        self, tmp_path, capsys, field, value, message, status
    ):
        from repro.cli import main

        instance = InstanceSpec(
            topology="paper-example", profile="FB", num_coflows=2
        )
        spec = tiny_spec(
            instances=(dataclasses.replace(instance, **{field: value}),)
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        argv = ["sweep", str(path), "--store", str(tmp_path / "s")]
        assert main(argv + ["--status"] * status) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and '"' not in err


class TestReviewRegressions:
    """Fixes from review: identity, address-derived seeds, CLI errors."""

    def test_unit_keys_survive_instance_reordering(self):
        base = tiny_spec()
        extra = InstanceSpec(
            topology="paper-example",
            profile="FB",
            num_coflows=2,
            model="free_path",
            seed=9,
        )
        reordered = tiny_spec(instances=(extra,) + base.instances)

        def keys_by_content(spec):
            instances = [ispec.build() for ispec in spec.instances]
            units = enumerate_units(spec, instances)
            return {
                (spec.instances[u.instance_index], u.algorithm, u.epsilon): u.key
                for u in units
            }

        a, b = keys_by_content(base), keys_by_content(reordered)
        # Every unit of the original spec keeps its key (and thus its store
        # entry and derived seed) when an instance is inserted in front.
        for address, key in a.items():
            assert b[address] == key

    def test_status_does_not_count_corrupt_entries_as_stored(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        result = run_sweep(spec, store)
        victim = result.units[0]
        store.object_path(victim.key).write_text("{ truncated")
        status = sweep_status(spec, store)
        assert status["stored"] == len(result.units) - 1
        assert not status["complete"]
        # And execution agrees: the corrupt unit is recomputed.
        healed = run_sweep(spec, store)
        assert healed.solved == 1 and healed.complete

    def test_cli_missing_trace_is_an_error_not_a_traceback(self, tmp_path, capsys):
        from repro.cli import main

        spec = tiny_spec(
            instances=(InstanceSpec(trace=str(tmp_path / "missing.json")),)
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["sweep", str(path), "--store", str(tmp_path / "s")]) == 2
        assert main(
            ["sweep", str(path), "--store", str(tmp_path / "s"), "--status"]
        ) == 2


class TestTraceInstances:
    """Trace instances are read by the one instance-file reader."""

    def test_enveloped_trace_shares_the_bare_files_units(self, tmp_path):
        instance = tiny_spec().instances[0].build()
        bare, enveloped = tmp_path / "bare.json", tmp_path / "enveloped.json"
        instance.save_json(bare)
        save_trace(instance, enveloped)  # {"kind": "instance", "data": ...}
        store = ResultStore(tmp_path / "store")
        first = run_sweep(tiny_spec(instances=(InstanceSpec(trace=str(bare)),)), store)
        second = run_sweep(
            tiny_spec(instances=(InstanceSpec(trace=str(enveloped)),)), store
        )
        assert [u.key for u in second.units] == [u.key for u in first.units]
        assert second.hits == len(second.units) == 3

    def test_coflow_only_trace_is_an_error(self, tmp_path):
        path = tmp_path / "coflows.json"
        save_trace(list(tiny_spec().instances[0].build().coflows), path)
        with pytest.raises(TraceValidationError, match="no network"):
            InstanceSpec(trace=str(path)).build()


class TestFailureDiscipline:
    """Poison units are quarantined as failure records, never raised."""

    @staticmethod
    def _inject_failures(monkeypatch, failures):
        """Make attempt ``a`` of a unit's solve raise ``RuntimeError`` iff
        ``a < failures(algorithm)``.

        Attempts are counted per unit key from this call on, so calling it
        again starts every unit at attempt 0, as a fresh process would.
        """
        real_solve = sweep_module.solve
        attempts = Counter()

        def flaky_solve(instance, algorithm, *, config, lp_solution=None):
            key = result_key(instance, algorithm, config)
            attempt = attempts[key]
            attempts[key] += 1
            if attempt < failures(algorithm):
                raise RuntimeError(f"injected failure, attempt {attempt}")
            return real_solve(
                instance, algorithm, config=config, lp_solution=lp_solution
            )

        monkeypatch.setattr(sweep_module, "solve", flaky_solve)

    def test_terminal_failures_are_quarantined_not_raised(
        self, tmp_path, monkeypatch
    ):
        self._inject_failures(monkeypatch, lambda algorithm: math.inf)
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        result = run_sweep(spec, store, backoff=Backoff(retries=1, base=0.0))
        assert not result.complete
        assert result.failed == len(result.units)
        assert result.summary()["failed"] == len(result.units)
        assert all(u.status == "failed" for u in result.units)
        assert sorted(store.failure_keys()) == sorted(u.key for u in result.units)
        record = store.get_failure(result.units[0].key)
        assert record["error"] == "RuntimeError"
        assert record["attempts"] == 2  # retries=1 -> two attempts
        assert record["key"] == result.units[0].key
        assert "traceback" in record

    def test_failed_units_are_retried_on_rerun_and_cleared(
        self, tmp_path, monkeypatch
    ):
        self._inject_failures(monkeypatch, lambda algorithm: math.inf)
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        run_sweep(spec, store, backoff=Backoff(retries=0, base=0.0))
        assert store.failure_keys()  # quarantined
        monkeypatch.undo()
        # Records are history, not a blacklist: a plain re-run retries
        # the units, succeeds, and clears every record.
        healed = run_sweep(spec, store)
        assert healed.complete
        assert healed.solved == len(healed.units)
        assert store.failure_keys() == []
        status = sweep_status(spec, store)
        assert status["failed"] == 0 and status["complete"]

    def test_transient_failures_are_absorbed_by_retries(
        self, tmp_path, monkeypatch
    ):
        # With three attempts per unit, a unit that fails once recovers on
        # a retry; stretch units fail all three and are quarantined.
        def failures(algorithm):
            return 3 if algorithm == "stretch" else 1

        spec = tiny_spec()
        backoff = Backoff(retries=2, base=0.0)
        self._inject_failures(monkeypatch, failures)
        result = run_sweep(spec, ResultStore(tmp_path / "store"), backoff=backoff)
        assert result.solved + result.failed == len(result.units)
        assert result.solved > 0  # retries actually rescued units
        assert result.failed == sum(u.algorithm == "stretch" for u in result.units)
        self._inject_failures(monkeypatch, failures)
        rerun = run_sweep(spec, ResultStore(tmp_path / "store"), backoff=backoff)
        assert rerun.failed == result.failed  # same fates on a re-run

    def test_rerun_heals_to_the_fault_free_bytes(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        reference = run_sweep(spec, ResultStore(tmp_path / "reference"))
        store_root = tmp_path / "store"
        self._inject_failures(monkeypatch, lambda algorithm: math.inf)
        first = run_sweep(
            spec, ResultStore(store_root), backoff=Backoff(retries=1, base=0.0)
        )
        assert first.failed == len(first.units)
        monkeypatch.undo()
        healed = run_sweep(spec, ResultStore(store_root))
        assert healed.complete
        assert healed.solved == len(healed.units)
        assert result_bytes(healed) == result_bytes(reference)
        assert ResultStore(store_root).failure_keys() == []
        warm_store = ResultStore(store_root)
        warm = run_sweep(spec, warm_store)
        assert warm.solved == 0 and warm.hits == len(warm.units)
        assert warm_store.misses == 0

    def test_corruption_at_rest_is_quarantined_and_recomputed(self, tmp_path):
        spec = tiny_spec()
        store_root = tmp_path / "store"
        reference = run_sweep(spec, ResultStore(store_root))
        for unit in reference.units:
            # A torn write: every stored entry truncated in place.
            path = ResultStore(store_root).object_path(unit.key)
            path.write_bytes(path.read_bytes()[:16])
        heal_store = ResultStore(store_root)
        healed = run_sweep(spec, heal_store)
        assert healed.complete
        assert healed.solved == len(healed.units)
        assert heal_store.corrupted == len(healed.units)
        assert len(heal_store.quarantined()) == len(healed.units)
        assert result_bytes(healed) == result_bytes(reference)
