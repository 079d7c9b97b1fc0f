"""The persistent result store: fingerprints, round-trips, failure modes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import SolverConfig, solve
from repro.network.topologies import named_topology
from repro.schedule.timegrid import TimeGrid
from repro.store import (
    FingerprintError,
    ResultStore,
    canonical_payload_bytes,
    config_fingerprint,
    instance_fingerprint,
    report_to_dict,
    result_key,
)
from repro.workloads.generator import WorkloadSpec, generate_instance


def tiny_instance(seed: int = 1, *, model: str = "free_path", name=None):
    graph = named_topology("paper-example")
    spec = WorkloadSpec(profile="FB", num_coflows=2, seed=seed, name=name)
    return generate_instance(graph, spec, model=model, rng=seed)


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprints:
    def test_instance_fingerprint_is_stable(self):
        assert instance_fingerprint(tiny_instance(1)) == instance_fingerprint(
            tiny_instance(1)
        )

    def test_instance_fingerprint_sees_content(self):
        assert instance_fingerprint(tiny_instance(1)) != instance_fingerprint(
            tiny_instance(2)
        )

    def test_instance_name_is_excluded(self):
        # Renamed copies of the same instance share one cache entry.
        a = tiny_instance(1, name="alpha")
        b = tiny_instance(1, name="beta")
        assert a.name != b.name
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_config_fingerprint_distinguishes_fields(self):
        base = SolverConfig()
        assert config_fingerprint(base) == config_fingerprint(SolverConfig())
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(epsilon=0.2)
        )
        assert config_fingerprint(base) != config_fingerprint(base.replace(rng=7))
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(num_samples=3)
        )

    #: A non-default value for every LP field of SolverConfig.
    LP_FIELD_VALUES = {
        "grid": TimeGrid.uniform(4),
        "num_slots": 12,
        "slot_length": 0.5,
        "epsilon": 0.2,
        "solver_method": "highs-ds",
    }

    def test_lp_field_table_covers_lp_kwargs(self):
        # A new LP field must be added to the table, so the test below
        # cannot silently miss it.
        assert set(self.LP_FIELD_VALUES) == set(SolverConfig().lp_kwargs())

    @pytest.mark.parametrize("field", sorted(SolverConfig().lp_kwargs()))
    def test_every_lp_field_changes_the_fingerprint(self, field):
        # Regression: an LP argument the key ignored served one config's
        # cached results to another.
        base = SolverConfig()
        changed = base.replace(**{field: self.LP_FIELD_VALUES[field]})
        assert config_fingerprint(base) != config_fingerprint(changed)

    def test_live_generator_has_no_fingerprint(self):
        with pytest.raises(FingerprintError):
            config_fingerprint(SolverConfig(rng=np.random.default_rng(0)))

    def test_result_key_covers_algorithm(self):
        instance = tiny_instance(1)
        cfg = SolverConfig()
        assert result_key(instance, "fifo", cfg) != result_key(
            instance, "sebf", cfg
        )

    def test_explicit_grid_is_fingerprinted(self):
        a = SolverConfig(grid=TimeGrid.uniform(4))
        b = SolverConfig(grid=TimeGrid.uniform(5))
        assert config_fingerprint(a) != config_fingerprint(b)
        assert config_fingerprint(a) == config_fingerprint(
            SolverConfig(grid=TimeGrid.uniform(4))
        )


# --------------------------------------------------------------------------- #
# the report surface (what the sweep stores per unit)
# --------------------------------------------------------------------------- #
class TestReportRoundTrip:
    def test_round_trip_preserves_surface(self):
        instance = tiny_instance(1)
        report = solve(instance, "lp-heuristic")
        # The surface must survive an actual JSON round-trip, not just the
        # dict conversion.
        data = json.loads(json.dumps(report_to_dict(report)))
        assert data["algorithm"] == report.algorithm
        assert data["num_coflows"] == instance.num_coflows
        assert data["model"] == instance.model.value
        assert data["objective"] == report.objective
        assert data["coflow_completion_times"] == [
            float(t) for t in report.coflow_completion_times
        ]
        assert data["lower_bound"] == report.lower_bound
        assert data["solve_seconds"] == report.solve_seconds
        assert data["feasible"] is True
        assert data["had_schedule"] and data["had_lp_solution"]

    def test_round_trip_through_store(self, tmp_path):
        instance = tiny_instance(1)
        store = ResultStore(tmp_path / "store")
        report = solve(instance, "sebf")
        key = result_key(instance, "sebf", SolverConfig())
        store.put(key, report_to_dict(report))
        stored = ResultStore(tmp_path / "store").get(key)
        assert stored == json.loads(json.dumps(report_to_dict(report)))

    def test_unserializable_extras_are_dropped_not_fatal(self):
        instance = tiny_instance(1)
        report = solve(instance, "lp-heuristic")
        report.extras["opaque"] = object()
        report.extras["fine"] = [1, 2.5, "x"]
        data = json.loads(json.dumps(report_to_dict(report)))
        assert data["extras"]["fine"] == [1, 2.5, "x"]
        assert "opaque" not in data["extras"]
        assert data["extras"]["_dropped"] == ["opaque"]


# --------------------------------------------------------------------------- #
# the store itself
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "0" * 30
        assert store.get(key) is None
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}
        assert store.stats()["hits"] == 1
        assert store.stats()["misses"] == 1
        assert store.stats()["entries"] == 1

    def test_store_survives_reopen(self, tmp_path):
        key = "cd" + "0" * 30
        ResultStore(tmp_path / "s").put(key, {"x": 2})
        assert ResultStore(tmp_path / "s").get(key) == {"x": 2}

    def test_corrupted_entry_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ef" + "0" * 30
        store.put(key, {"x": 3})
        path = store.object_path(key)
        path.write_text("{ truncated garbage")
        assert store.get(key) is None
        assert store.corrupted == 1
        assert not path.exists()
        assert len(store.quarantined()) == 1
        # The slot is writable again and behaves normally afterwards.
        store.put(key, {"x": 4})
        assert store.get(key) == {"x": 4}

    def test_foreign_json_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "aa" + "0" * 30
        path = store.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"not": "an envelope"}))
        assert store.get(key) is None
        assert store.corrupted == 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("ab" + "1" * 30, {"x": 1})
        leftovers = [
            p for p in (tmp_path / "s").rglob("*.tmp") if p.is_file()
        ]
        assert leftovers == []


# --------------------------------------------------------------------------- #
# canonical payload bytes
# --------------------------------------------------------------------------- #
class TestCanonicalBytes:
    def test_timing_is_excluded_by_default(self):
        a = {"objective": 1.0, "solve_seconds": 0.1}
        b = {"objective": 1.0, "solve_seconds": 0.9}
        assert canonical_payload_bytes(a) == canonical_payload_bytes(b)
        assert canonical_payload_bytes(
            a, ignore_timing=False
        ) != canonical_payload_bytes(b, ignore_timing=False)

    def test_key_order_is_irrelevant(self):
        assert canonical_payload_bytes({"a": 1, "b": 2}) == canonical_payload_bytes(
            {"b": 2, "a": 1}
        )


class TestRaceHonestPut:
    """put() reports whether the write landed first; losers are counted."""

    def test_first_write_lands(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "3" * 30
        assert store.put(key, {"x": 1}) is True
        assert store.writes == 1 and store.races == 0

    def test_second_writer_loses_and_is_counted(self, tmp_path):
        key = "cd" + "3" * 30
        winner = ResultStore(tmp_path / "s")
        loser = ResultStore(tmp_path / "s")
        assert winner.put(key, {"x": 1}) is True
        assert loser.put(key, {"x": 2}) is False
        assert loser.races == 1 and loser.writes == 0
        # First write wins: the stored bytes never flap.
        assert winner.get(key) == {"x": 1}
        assert loser.stats()["races"] == 1

    def test_corrupt_occupant_is_replaced_not_a_race(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ef" + "3" * 30
        path = store.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ torn")
        assert store.put(key, {"x": 3}) is True
        assert store.races == 0 and store.corrupted == 1
        assert store.get(key) == {"x": 3}

    def test_reset_counters_zeroes_races(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "4" * 30
        store.put(key, {"x": 1})
        store.put(key, {"x": 2})
        assert store.races == 1
        store.reset_counters()
        assert store.races == 0


class TestQuarantine:
    def test_repeated_quarantines_never_clobber(self, tmp_path):
        """Each quarantine gets a unique name; evidence accumulates."""
        store = ResultStore(tmp_path / "s")
        key = "ab" + "5" * 30
        for round_ in range(3):
            store.put(key, {"round": round_})
            store.object_path(key).write_text("{ torn garbage")
            assert store.get(key) is None
        assert store.corrupted == 3
        assert len(store.quarantined()) == 3
        assert len({p.name for p in store.quarantined()}) == 3

    def test_quarantined_files_are_not_entries(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "cd" + "5" * 30
        store.put(key, {"x": 1})
        store.object_path(key).write_text("{ torn")
        store.get(key)
        assert store.keys() == []  # the .corrupt-* file is not an object
        assert store.stats()["quarantined"] == 1


class TestFailureRecords:
    def test_round_trip_and_clear(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "6" * 30
        assert store.get_failure(key) is None
        store.put_failure(key, {"error": "RuntimeError", "key": key})
        assert store.get_failure(key)["error"] == "RuntimeError"
        assert store.failure_keys() == [key]
        assert store.stats()["failures"] == 1
        store.clear_failure(key)
        assert store.get_failure(key) is None
        assert store.failure_keys() == []
        store.clear_failure(key)  # idempotent

    def test_latest_failure_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "cd" + "6" * 30
        store.put_failure(key, {"attempt": 1})
        store.put_failure(key, {"attempt": 2})
        assert store.get_failure(key) == {"attempt": 2}
        assert store.failure_keys() == [key]

    def test_short_key_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with pytest.raises(ValueError):
            store.failure_path("ab")


class TestContainsValidates:
    """Regression: contains() must agree with get(), not just stat the file."""

    def test_corrupt_entry_is_not_contained(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "ab" + "2" * 30
        store.put(key, {"x": 1})
        assert store.contains(key)
        store.object_path(key).write_text("{ truncated")
        before = store.stats()
        assert not store.contains(key)
        # contains() is a pure probe: no counters, no quarantine.
        assert store.stats() == before
        assert store.object_path(key).exists()

    def test_foreign_schema_is_not_contained(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "cd" + "2" * 30
        path = store.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"schema": 999, "key": key, "payload": {"x": 1}})
        )
        assert not store.contains(key)
