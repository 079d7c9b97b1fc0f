"""Per-rule injected-violation fixtures for ``repro lint``.

Every rule gets at least one fixture tree containing a violation it must
catch (the analyzer equivalent of the scenario engine's corruption tests:
a checker that cannot fire proves nothing) plus a negative case showing
the sanctioned idiom passes.
"""

import textwrap

import pytest

from repro.lint import run_lint
from repro.lint.rules import BUILTIN_RULES


def write_module(tmp_path, rel, code):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return path


def lint_codes(tmp_path, **kwargs):
    result = run_lint(tmp_path, **kwargs)
    return [f.rule for f in result.findings]


# --------------------------------------------------------------------------- #
# R001 — raw entropy
# --------------------------------------------------------------------------- #
class TestR001RawEntropy:
    def test_stdlib_random_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import random

            def draw():
                return random.random()
            """,
        )
        assert "R001" in lint_codes(tmp_path, select=["R001"])

    def test_argless_default_rng_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import numpy as np

            def fresh():
                return np.random.default_rng()
            """,
        )
        assert "R001" in lint_codes(tmp_path, select=["R001"])

    def test_seeded_default_rng_is_flagged(self, tmp_path):
        # Seeding does not sanction a constructor: only utils/rng.py builds
        # generators, so a stream is always derived from its address.
        write_module(
            tmp_path,
            "mod.py",
            """
            import numpy as np

            def seeded(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert lint_codes(tmp_path, select=["R001"]) == ["R001"]

    def test_legacy_numpy_global_state_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import numpy as np

            def draw():
                np.random.seed(0)
                return np.random.rand(3)
            """,
        )
        assert lint_codes(tmp_path, select=["R001"]).count("R001") == 2

    def test_os_urandom_and_uuid4_are_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import os
            import uuid

            def token():
                return os.urandom(8), uuid.uuid4()
            """,
        )
        assert lint_codes(tmp_path, select=["R001"]).count("R001") == 2

    def test_sanctioned_rng_module_is_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "utils/rng.py",
            """
            import numpy as np

            def entropy_seed():
                return np.random.default_rng()
            """,
        )
        assert lint_codes(tmp_path, select=["R001"]) == []

    def test_constructor_in_a_function_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "scenarios/engine.py",
            """
            import numpy as np
            from numpy.random import Generator as Gen

            def build_scenario(family, index, root_seed):
                return _make(index)

            def _make(index):
                legacy = np.random.RandomState(index)
                seq = np.random.SeedSequence(index)
                return Gen(np.random.PCG64(seq)), legacy
            """,
        )
        result = run_lint(tmp_path, select=["R001"])
        assert [f.path for f in result.findings] == ["scenarios/engine.py"] * 4
        named = " ".join(f.message for f in result.findings)
        for ctor in ("RandomState", "SeedSequence", "Generator", "PCG64"):
            assert f"numpy.random.{ctor}" in named

    def test_derived_stream_is_clean(self, tmp_path):
        write_module(
            tmp_path,
            "scenarios/engine.py",
            """
            from repro.utils.rng import as_generator, derive_seed

            def build_scenario(family, index, root_seed):
                return as_generator(derive_seed(root_seed, family, index))
            """,
        )
        assert lint_codes(tmp_path, select=["R001"]) == []

    def test_rng_module_constructors_are_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "utils/rng.py",
            """
            import numpy as np

            ROOT = np.random.SeedSequence(0)

            def as_generator(seed):
                return np.random.Generator(np.random.PCG64(seed))
            """,
        )
        assert lint_codes(tmp_path, select=["R001"]) == []

    def test_module_level_rng_binding_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "streams.py",
            """
            import numpy as np

            RNG = np.random.default_rng(7)
            """,
        )
        result = run_lint(tmp_path, select=["R001"])
        assert [f.rule for f in result.findings] == ["R001"]
        assert "module-level rng binding 'RNG'" in result.findings[0].message

    def test_module_level_derived_rng_is_flagged(self, tmp_path):
        # A derive_rng product is still hidden shared state at module level.
        write_module(
            tmp_path,
            "streams.py",
            """
            from repro.utils.rng import derive_rng

            GEN: object = derive_rng(1, "ambient")
            """,
        )
        result = run_lint(tmp_path, select=["R001"])
        assert [f.rule for f in result.findings] == ["R001"]
        assert "'GEN'" in result.findings[0].message


# --------------------------------------------------------------------------- #
# R002 — wall clock
# --------------------------------------------------------------------------- #
class TestR002WallClock:
    def test_time_time_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert "R002" in lint_codes(tmp_path, select=["R002"])

    def test_datetime_now_is_flagged_through_from_import(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            from datetime import datetime

            def stamp():
                return datetime.now().isoformat()
            """,
        )
        assert "R002" in lint_codes(tmp_path, select=["R002"])

    def test_perf_counter_passes(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import time

            def duration():
                return time.perf_counter()
            """,
        )
        assert lint_codes(tmp_path, select=["R002"]) == []

    def test_sanctioned_timing_module_is_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "utils/timing.py",
            """
            from datetime import datetime

            def report_stamp():
                return datetime.now().isoformat(timespec="seconds")
            """,
        )
        assert lint_codes(tmp_path, select=["R002"]) == []


# --------------------------------------------------------------------------- #
# R003 — float equality
# --------------------------------------------------------------------------- #
class TestR003FloatEquality:
    def test_float_literal_equality_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def check(x):
                return x == 1.0
            """,
        )
        assert "R003" in lint_codes(tmp_path, select=["R003"])

    def test_float_inf_comparison_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def check(alpha):
                return alpha != float("inf")
            """,
        )
        assert "R003" in lint_codes(tmp_path, select=["R003"])

    def test_negative_float_literal_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def check(x):
                return -1.5 == x
            """,
        )
        assert "R003" in lint_codes(tmp_path, select=["R003"])

    def test_integer_equality_passes(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def check(n):
                return n == 3 or n != 0
            """,
        )
        assert lint_codes(tmp_path, select=["R003"]) == []

    def test_float_ordering_passes(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def check(x):
                return x <= 1.0 or x > 2.5
            """,
        )
        assert lint_codes(tmp_path, select=["R003"]) == []


# --------------------------------------------------------------------------- #
# R004 — non-atomic writes
# --------------------------------------------------------------------------- #
class TestR004NonAtomicWrite:
    def test_open_w_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
        )
        assert "R004" in lint_codes(tmp_path, select=["R004"])

    def test_write_text_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            from pathlib import Path

            def save(path, text):
                Path(path).write_text(text)
            """,
        )
        assert "R004" in lint_codes(tmp_path, select=["R004"])

    def test_path_open_w_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def save(path, text):
                with path.open("w", newline="") as handle:
                    handle.write(text)
            """,
        )
        assert "R004" in lint_codes(tmp_path, select=["R004"])

    def test_reads_pass(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            from pathlib import Path

            def load(path):
                with open(path) as handle:
                    return handle.read() + Path(path).read_text()
            """,
        )
        assert lint_codes(tmp_path, select=["R004"]) == []

    def test_sanctioned_io_module_is_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "utils/io.py",
            """
            import os

            def writer(fd):
                return os.fdopen(fd, "w")
            """,
        )
        assert lint_codes(tmp_path, select=["R004"]) == []

    def test_aliased_raw_write_primitives_are_flagged_anywhere(self, tmp_path):
        write_module(
            tmp_path,
            "experiments/export.py",
            """
            import os
            import shutil as sh
            from os import fdopen as open_fd
            from tempfile import mkstemp

            FD, TMP = mkstemp()

            def export(payload, dest):
                with open_fd(FD, "w") as handle:
                    handle.write(payload)
                sh.copy(TMP, dest)
                os.link(TMP, dest + ".bak")
            """,
        )
        result = run_lint(tmp_path, select=["R004"])
        # One finding per site, the module-level mkstemp included.
        assert [f.rule for f in result.findings] == ["R004"] * 4
        named = " ".join(f.message for f in result.findings)
        for primitive in ("tempfile.mkstemp", "os.fdopen", "shutil.copy", "os.link"):
            assert primitive in named

    def test_raw_write_primitives_in_utils_io_are_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "utils/io.py",
            """
            import os
            import tempfile

            def atomic_writer(path):
                fd, tmp = tempfile.mkstemp(dir=".")
                os.link(tmp, path)
                return fd, tmp
            """,
        )
        assert lint_codes(tmp_path, select=["R004"]) == []


# --------------------------------------------------------------------------- #
# R005 — JSON boundary
# --------------------------------------------------------------------------- #
class TestR005JsonBoundary:
    def test_json_dumps_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import json

            def render(doc):
                return json.dumps(doc)
            """,
        )
        assert "R005" in lint_codes(tmp_path, select=["R005"])

    def test_json_loads_passes(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import json

            def parse(text):
                return json.loads(text)
            """,
        )
        assert lint_codes(tmp_path, select=["R005"]) == []

    def test_serialization_boundary_is_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "store/fingerprint.py",
            """
            import json

            def canonical_json(payload):
                return json.dumps(payload, sort_keys=True)
            """,
        )
        assert lint_codes(tmp_path, select=["R005"]) == []


# --------------------------------------------------------------------------- #
# R006 — registry completeness (project scope)
# --------------------------------------------------------------------------- #
class TestR006RegistryCompleteness:
    def test_unregistered_baseline_entry_point_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "baselines/greedy.py",
            """
            def greedy_schedule(instance):
                return instance
            """,
        )
        assert "R006" in lint_codes(tmp_path, select=["R006"])

    def test_registered_baseline_passes(self, tmp_path):
        write_module(
            tmp_path,
            "baselines/greedy.py",
            """
            from repro.api.registry import register_algorithm

            def greedy_schedule(instance):
                return instance

            @register_algorithm("greedy")
            def _greedy(instance, config):
                return greedy_schedule(instance)
            """,
        )
        assert lint_codes(tmp_path, select=["R006"]) == []

    def test_online_registration_without_flag_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "online/policies.py",
            """
            from repro.api.registry import register_algorithm

            @register_algorithm("online-wsjf")
            def _wsjf(instance, config):
                return instance
            """,
        )
        assert "R006" in lint_codes(tmp_path, select=["R006"])

    def test_online_registration_with_flag_passes(self, tmp_path):
        write_module(
            tmp_path,
            "online/policies.py",
            """
            from repro.api.registry import register_algorithm

            @register_algorithm("online-wsjf", online=True)
            def _wsjf(instance, config):
                return instance
            """,
        )
        assert lint_codes(tmp_path, select=["R006"]) == []

    def test_policies_module_without_registrations_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "online/policies.py",
            """
            def helper():
                return 1
            """,
        )
        assert "R006" in lint_codes(tmp_path, select=["R006"])


# --------------------------------------------------------------------------- #
# R007 — silent broad except
# --------------------------------------------------------------------------- #
class TestR007BroadExcept:
    def test_except_exception_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def swallow(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """,
        )
        assert "R007" in lint_codes(tmp_path, select=["R007"])

    def test_bare_except_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def swallow(fn):
                try:
                    return fn()
                except:
                    return None
            """,
        )
        assert "R007" in lint_codes(tmp_path, select=["R007"])

    def test_reraising_handler_passes(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def annotate(fn, log):
                try:
                    return fn()
                except Exception as exc:
                    log.append(str(exc))
                    raise
            """,
        )
        assert lint_codes(tmp_path, select=["R007"]) == []

    def test_specific_exception_passes(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            def load(path):
                try:
                    return path.read_text()
                except (OSError, ValueError):
                    return None
            """,
        )
        assert lint_codes(tmp_path, select=["R007"]) == []


# --------------------------------------------------------------------------- #
# R009 — bare sleep / ad-hoc retry
# --------------------------------------------------------------------------- #
class TestR009BareSleep:
    def test_time_sleep_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "experiments/poller.py",
            """
            import time

            def poll():
                time.sleep(0.5)
            """,
        )
        assert "R009" in lint_codes(tmp_path, select=["R009"])

    def test_from_import_sleep_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            from time import sleep

            def wait():
                sleep(1)
            """,
        )
        assert "R009" in lint_codes(tmp_path, select=["R009"])

    def test_asyncio_sleep_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import asyncio

            async def wait():
                await asyncio.sleep(2)
            """,
        )
        assert "R009" in lint_codes(tmp_path, select=["R009"])

    def test_sanctioned_retry_module_is_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "utils/retry.py",
            """
            import time

            def _pause(seconds):
                time.sleep(seconds)
            """,
        )
        assert lint_codes(tmp_path, select=["R009"]) == []

    def test_backoff_sleep_passes(self, tmp_path):
        write_module(
            tmp_path,
            "experiments/sweep.py",
            """
            from repro.utils.retry import Backoff

            def poll(poller: Backoff):
                poller.sleep(0)
            """,
        )
        assert lint_codes(tmp_path, select=["R009"]) == []


# --------------------------------------------------------------------------- #
# R010 — direct solver-engine access
# --------------------------------------------------------------------------- #
class TestR010DirectLinprog:
    def test_linprog_import_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "core/solver_shortcut.py",
            """
            from scipy.optimize import linprog

            def solve(c):
                return linprog(c)
            """,
        )
        assert "R010" in lint_codes(tmp_path, select=["R010"])

    def test_qualified_linprog_call_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import scipy.optimize

            def solve(c):
                return scipy.optimize.linprog(c)
            """,
        )
        assert "R010" in lint_codes(tmp_path, select=["R010"])

    def test_highspy_import_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "sim/fast_path.py",
            """
            from scipy.optimize._highspy import _core

            def engine():
                return _core._Highs()
            """,
        )
        assert "R010" in lint_codes(tmp_path, select=["R010"])

    def test_highspy_module_import_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "mod.py",
            """
            import scipy.optimize._highspy._core as hs

            def engine():
                return hs._Highs()
            """,
        )
        assert "R010" in lint_codes(tmp_path, select=["R010"])

    def test_backend_modules_are_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "lp/backends/linprog.py",
            """
            from scipy.optimize import linprog

            def solve(c):
                return linprog(c)
            """,
        )
        write_module(
            tmp_path,
            "lp/backends/highs.py",
            """
            from scipy.optimize._highspy import _core

            def engine():
                return _core._Highs()
            """,
        )
        assert lint_codes(tmp_path, select=["R010"]) == []

    def test_backend_layer_consumers_pass(self, tmp_path):
        write_module(
            tmp_path,
            "sim/allocator.py",
            """
            from repro.lp.backends import make_persistent_lp
            from repro.lp.solver import solve_lp

            def solve(program):
                return solve_lp(program, require_optimal=True)

            def resident(c, matrix, row_lower, row_upper, lower, upper):
                return make_persistent_lp(
                    c, matrix, row_lower, row_upper, lower, upper
                )
            """,
        )
        assert lint_codes(tmp_path, select=["R010"]) == []


def test_every_builtin_rule_has_an_injection_test():
    """Guard: adding a rule without a catchability fixture fails here."""
    tested = {
        "R001",
        "R002",
        "R003",
        "R004",
        "R005",
        "R006",
        "R007",
        "R009",
        "R010",
    }
    assert set(BUILTIN_RULES) == tested
