"""Interprocedural lint tests: call graph, dataflow, R1xx/R203/R3xx rules.

Every rule is proven *catchable* by an injected-violation fixture (the same
discipline as the invariant tests of PR 3 and the per-file rule tests of
PR 6: a rule that cannot fire is a rule nobody needs), and every sanctioned
pattern is proven *not* to fire.  Fixture packages are written under a
``pkg/`` root so their root-relative layout (``experiments/sweep.py``,
``sim/rate_allocation.py``) matches the patterns the rules target, and
cross-module imports spell ``pkg.`` exactly as the resolver expects.
"""

import io
import json
import subprocess
import textwrap

import pytest

from repro.cli import main
from repro.lint import (
    CallGraph,
    expand_selection,
    extract_source,
    result_to_json,
    run_lint,
    source_digest,
    write_certificate,
)
from repro.lint.callgraph import FileExtract, extract_file
from repro.lint.dataflow import format_chain, reachable
from repro.lint.framework import FileContext


def write_module(tmp_path, rel, code):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return path


def write_pkg(tmp_path, modules):
    """Write a fixture package under ``tmp_path/pkg`` and return its root."""
    root = tmp_path / "pkg"
    for rel, code in modules.items():
        write_module(root, rel, code)
    return root


def findings_for(root, select):
    result = run_lint(root, select=select)
    return result.findings


# --------------------------------------------------------------------------- #
# selection expansion
# --------------------------------------------------------------------------- #
class TestSelection:
    def test_family_prefix_expands(self):
        codes = expand_selection(["R1"])
        assert codes == ("R101", "R102", "R103")

    def test_exact_code_passes_through(self):
        assert expand_selection(["R301"]) == ("R301",)

    def test_issue_spelling_selects_all_new_families(self):
        codes = expand_selection(["R1", "R2", "R3"])
        assert set(codes) == {
            "R101", "R102", "R103", "R203",
            "R301", "R302", "R303",
        }

    def test_duplicates_collapse(self):
        assert expand_selection(["R101", "R1"]) == ("R101", "R102", "R103")

    def test_unknown_family_fails_fast(self):
        with pytest.raises(ValueError, match="R9"):
            expand_selection(["R9"])


# --------------------------------------------------------------------------- #
# call graph: golden edges for a known fixture package
# --------------------------------------------------------------------------- #
GOLDEN_A = """
from pkg.b import Gadget, helper

def top():
    helper()
    g = Gadget()
    g.spin()

def caller_of_local():
    top()
"""

GOLDEN_B = """
def helper():
    return 1

class Gadget:
    def __init__(self):
        self.state = 0

    def spin(self):
        self.whirl()

    def whirl(self):
        return self.state
"""


class TestCallGraphGolden:
    def graph(self, tmp_path):
        root = write_pkg(tmp_path, {"a.py": GOLDEN_A, "b.py": GOLDEN_B})
        extracts = {}
        for rel in ("a.py", "b.py"):
            source = (root / rel).read_text()
            extracts[rel] = extract_source(rel, source)
        return CallGraph("pkg", extracts)

    def test_every_expected_edge_is_present(self, tmp_path):
        graph = self.graph(tmp_path)
        assert graph.edge_set() == {
            ("pkg.a.top", "pkg.b.helper"),
            ("pkg.a.top", "pkg.b.Gadget.__init__"),
            ("pkg.a.top", "pkg.b.Gadget.spin"),
            ("pkg.a.caller_of_local", "pkg.a.top"),
            ("pkg.b.Gadget.spin", "pkg.b.Gadget.whirl"),
        }
        assert graph.unresolved_calls == 0

    def test_reachability_carries_chains(self, tmp_path):
        graph = self.graph(tmp_path)
        closure = reachable(graph, ["pkg.a.caller_of_local"])
        assert "pkg.b.Gadget.whirl" in closure
        chain = closure["pkg.b.Gadget.whirl"].chain
        assert format_chain(chain, "pkg") == (
            "a.caller_of_local -> a.top -> b.Gadget.spin -> b.Gadget.whirl"
        )

    def test_reverse_file_closure(self, tmp_path):
        graph = self.graph(tmp_path)
        assert graph.reverse_file_closure(["b.py"]) == {"a.py", "b.py"}
        assert graph.reverse_file_closure(["a.py"]) == {"a.py"}

    def test_extract_round_trips_through_json(self, tmp_path):
        root = write_pkg(tmp_path, {"a.py": GOLDEN_A, "b.py": GOLDEN_B})
        source = (root / "a.py").read_text()
        extract = extract_source("a.py", source)
        doc = json.loads(json.dumps(extract.to_dict()))
        assert FileExtract.from_dict(doc) == extract


# --------------------------------------------------------------------------- #
# R1xx seed flow
# --------------------------------------------------------------------------- #
R101_VIOLATION = {
    "scenarios/engine.py": """
        import numpy as np

        def build_scenario(family, index, root_seed):
            return _make(index)

        def _make(index):
            rng = np.random.default_rng(index)
            return rng
    """,
}

R101_SANCTIONED = {
    "scenarios/engine.py": """
        from pkg.utils.rng import as_generator, derive_seed

        def build_scenario(family, index, root_seed):
            rng = as_generator(derive_seed(root_seed, family, index))
            return rng
    """,
    "utils/rng.py": """
        import numpy as np

        def derive_seed(root, *path):
            return root

        def as_generator(seed):
            return np.random.default_rng(seed)
    """,
}


class TestSeedFlow:
    def test_r101_constructor_on_seeded_path_fires(self, tmp_path):
        root = write_pkg(tmp_path, R101_VIOLATION)
        findings = findings_for(root, ["R101"])
        assert [f.rule for f in findings] == ["R101"]
        assert findings[0].path == "scenarios/engine.py"
        # The chain names the entry point, not just the helper.
        assert "build_scenario" in findings[0].message
        assert "_make" in findings[0].message

    def test_r101_derived_path_is_clean(self, tmp_path):
        root = write_pkg(tmp_path, R101_SANCTIONED)
        assert findings_for(root, ["R101"]) == []

    def test_r101_utils_rng_itself_is_exempt(self, tmp_path):
        # utils/rng.py is the sanctioned constructor site even when its
        # helpers are reachable from a seeded entry point.
        root = write_pkg(tmp_path, R101_SANCTIONED)
        result = run_lint(root, select=["R1"])
        assert result.ok

    def test_r102_module_level_rng_fires(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "streams.py": """
                import numpy as np

                RNG = np.random.default_rng(7)
                """,
            },
        )
        findings = findings_for(root, ["R102"])
        assert [f.rule for f in findings] == ["R102"]
        assert "RNG" in findings[0].message

    def test_r102_module_level_derived_rng_also_fires(self, tmp_path):
        # Even a derive_rng product is hidden shared state at module level.
        root = write_pkg(
            tmp_path,
            {"streams.py": "GEN = derive_rng(1, 'ambient')\n"},
        )
        assert [f.rule for f in findings_for(root, ["R102"])] == ["R102"]

    def test_r103_rng_reused_across_loop_units_fires(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "scenarios/engine.py": """
                def sample_all(root_seed, count):
                    rng = derive_rng(root_seed, "family")
                    out = []
                    for index in range(count):
                        out.append(_build(rng, index))
                    return out

                def _build(rng, index):
                    return index
                """,
            },
        )
        findings = findings_for(root, ["R103"])
        assert [f.rule for f in findings] == ["R103"]
        assert "'rng'" in findings[0].message

    def test_r103_per_unit_derivation_is_clean(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "scenarios/engine.py": """
                def sample_all(root_seed, count):
                    out = []
                    for index in range(count):
                        rng = derive_rng(root_seed, "family", index)
                        out.append(_build(rng, index))
                    return out

                def _build(rng, index):
                    return index
                """,
            },
        )
        assert findings_for(root, ["R103"]) == []


# --------------------------------------------------------------------------- #
# R203 atomic commit boundary
# --------------------------------------------------------------------------- #
class TestFabricWriteSafety:
    """R203: raw write primitives stay behind utils/io's atomic helpers."""

    def test_r203_aliased_raw_write_fires_anywhere(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "experiments/export.py": """
                import tempfile

                def export(payload):
                    fd, path = tempfile.mkstemp()
                    return path
                """,
            },
        )
        findings = findings_for(root, ["R203"])
        assert [f.rule for f in findings] == ["R203"]
        assert "tempfile.mkstemp" in findings[0].message

    def test_r203_utils_io_is_the_sanctioned_site(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "utils/io.py": """
                import tempfile

                def atomic_writer(path):
                    fd, tmp = tempfile.mkstemp(dir=".")
                    return fd, tmp
                """,
            },
        )
        assert findings_for(root, ["R203"]) == []


# --------------------------------------------------------------------------- #
# R3xx kernel purity
# --------------------------------------------------------------------------- #
class TestKernelPurity:
    def test_r301_transitive_io_fires_with_chain(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                import time

                def allocate_rates(instance):
                    return _inner(instance)

                def _inner(instance):
                    return time.time()
                """,
            },
        )
        findings = findings_for(root, ["R301"])
        assert [f.rule for f in findings] == ["R301"]
        assert "wall_clock" in findings[0].message
        assert "allocate_rates -> " in findings[0].message

    def test_r301_module_global_mutation_fires(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                _CACHE = {}

                def allocate_rates(instance):
                    _CACHE[instance] = 1
                    return 1
                """,
            },
        )
        findings = findings_for(root, ["R301"])
        assert [f.rule for f in findings] == ["R301"]
        assert "global_mut" in findings[0].message

    def test_r301_self_mutation_memo_is_allowed(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                class Allocator:
                    def __init__(self):
                        self._memo = {}

                    def solve(self, key):
                        self._memo[key] = key
                        return key

                def allocate_rates(instance):
                    a = Allocator()
                    return a.solve(3)
                """,
            },
        )
        assert findings_for(root, ["R301"]) == []

    def test_r301_local_mutation_is_allowed(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                def allocate_rates(instance):
                    rates = [0.0]
                    rates[0] = 1.0
                    return rates
                """,
            },
        )
        assert findings_for(root, ["R301"]) == []

    def test_r302_kernel_edge_into_store_fires(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                from pkg.store.store import persist

                def allocate_rates(instance):
                    persist(instance)
                    return 1
                """,
                "store/store.py": """
                def persist(value):
                    return value
                """,
            },
        )
        findings = findings_for(root, ["R302"])
        assert [f.path for f in findings] == ["store/store.py"]
        assert "allocate_rates -> store.store.persist" in findings[0].message

    def test_r303_argument_mutation_fires(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                def allocate_rates(rates):
                    rates[0] = 1.0
                    return rates
                """,
            },
        )
        findings = findings_for(root, ["R303"])
        assert [f.rule for f in findings] == ["R303"]
        assert "rates[0]" in findings[0].message

    def test_certificate_reflects_fixture_verdict(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                def allocate_rates(instance):
                    print(instance)
                    return 1
                """,
            },
        )
        result = run_lint(root, select=["R3"])
        cert = result.certificate
        assert cert is not None
        assert cert["verdict"] == "impure"
        assert cert["violations"][0]["rule"] == "R301"
        assert cert["roots"] == ["sim.rate_allocation.allocate_rates"]

    def test_suppressed_violation_becomes_sanctioned_entry(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                _CACHE = {}

                def allocate_rates(instance):
                    _CACHE[instance] = 1  # repro-lint: allow[R301]
                    return 1
                """,
            },
        )
        result = run_lint(root, select=["R3"])
        assert result.ok
        cert = result.certificate
        assert cert["verdict"] == "pure"
        assert len(cert["sanctioned"]) == 1
        assert cert["sanctioned"][0]["rule"] == "R301"


# --------------------------------------------------------------------------- #
# shipped tree: the acceptance criteria
# --------------------------------------------------------------------------- #
class TestShippedTree:
    def test_interprocedural_pass_is_clean(self):
        result = run_lint(select=["R1", "R2", "R3"])
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_kernel_closure_is_certified_pure_and_deep(self):
        result = run_lint(select=["R3"])
        cert = result.certificate
        assert cert["verdict"] == "pure"
        functions = {entry["function"] for entry in cert["closure"]}
        # The certificate is only worth committing if resolution actually
        # reached the hot path, not just the root signatures.
        assert "sim.rate_allocation.RateAllocator.coflow_allocation" in functions
        assert "sim.rate_allocation._FreePathTemplate.solve" in functions
        assert "sim.simulator.simulate_priority_schedule" in functions
        assert len(cert["closure"]) >= 25

    def test_committed_certificate_matches_regeneration(self):
        import pathlib

        committed = pathlib.Path(__file__).resolve().parent.parent / "KERNEL_PURITY.json"
        assert committed.exists(), (
            "KERNEL_PURITY.json missing; regenerate with "
            "`repro lint --certificate KERNEL_PURITY.json`"
        )
        result = run_lint(select=["R3"])
        assert json.loads(committed.read_text()) == json.loads(
            json.dumps(result.certificate)
        )


# --------------------------------------------------------------------------- #
# cache, timings, diff
# --------------------------------------------------------------------------- #
class TestCacheAndTimings:
    def test_warm_run_hits_cache_and_agrees(self, tmp_path):
        root = write_pkg(tmp_path, R101_VIOLATION)
        cache = tmp_path / "cache.json"
        cold = run_lint(root, select=["R1"], cache_path=cache)
        assert cold.cache_hits == 0 and cold.cache_misses == cold.files_checked
        warm = run_lint(root, select=["R1"], cache_path=cache)
        assert warm.cache_misses == 0 and warm.cache_hits == warm.files_checked
        assert warm.findings == cold.findings

    def test_changed_file_misses_only_itself(self, tmp_path):
        root = write_pkg(tmp_path, {"a.py": GOLDEN_A, "b.py": GOLDEN_B})
        cache = tmp_path / "cache.json"
        run_lint(root, select=["R3"], cache_path=cache)
        (root / "a.py").write_text((root / "a.py").read_text() + "\nX = 1\n")
        warm = run_lint(root, select=["R3"], cache_path=cache)
        assert warm.cache_hits == 1 and warm.cache_misses == 1

    def test_corrupt_cache_is_ignored(self, tmp_path):
        root = write_pkg(tmp_path, R101_VIOLATION)
        cache = tmp_path / "cache.json"
        cache.write_text("{ not json")
        result = run_lint(root, select=["R1"], cache_path=cache)
        assert result.cache_hits == 0
        assert [f.rule for f in result.findings] == ["R101"]

    def test_timings_land_in_result_and_report(self, tmp_path):
        root = write_pkg(tmp_path, R101_VIOLATION)
        result = run_lint(root, select=["R1"])
        assert set(result.timings) == {
            "read_parse", "extract", "graph", "rules", "total",
        }
        doc = result_to_json(result)
        assert set(doc["timings"]) == set(result.timings)
        assert doc["cache"] == {"hits": 0, "misses": 0}


def _git(cwd, *argv):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


class TestDiffScope:
    def make_repo(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "a.py": GOLDEN_A,
                "b.py": GOLDEN_B,
                "c.py": "import time\n\ndef stamp():\n    return time.time()\n",
            },
        )
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-qm", "seed")
        return root

    def test_diff_targets_changed_plus_reverse_closure(self, tmp_path):
        root = self.make_repo(tmp_path)
        (root / "b.py").write_text((root / "b.py").read_text() + "\nY = 2\n")
        result = run_lint(root, select=["R002"], diff="HEAD")
        # b.py changed; a.py depends on b.py; c.py is untouched, so its
        # wall-clock violation is out of scope for this run.
        assert result.files_targeted == 2
        assert result.findings == []
        assert result.diff_base == "HEAD"

    def test_diff_still_lints_the_changed_file(self, tmp_path):
        root = self.make_repo(tmp_path)
        (root / "b.py").write_text(
            (root / "b.py").read_text() + "\nimport time\n\ndef now():\n    return time.time()\n"
        )
        result = run_lint(root, select=["R002"], diff="HEAD")
        assert [f.path for f in result.findings] == ["b.py"]

    def test_graph_rules_keep_full_tree_semantics_under_diff(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "trivial.py": "X = 1\n",
                "sim/rate_allocation.py": """
                import time

                def allocate_rates(instance):
                    return time.time()
                """,
            },
        )
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-qm", "seed")
        (root / "trivial.py").write_text("X = 2\n")
        result = run_lint(root, select=["R3"], diff="HEAD")
        # Only trivial.py is in diff scope, but kernel purity is a global
        # property: the violation elsewhere must still surface.
        assert [f.rule for f in result.findings] == ["R301"]

    def test_bad_ref_fails_fast(self, tmp_path):
        root = self.make_repo(tmp_path)
        with pytest.raises(ValueError, match="--diff"):
            run_lint(root, diff="no-such-ref")


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCli:
    def test_select_family_prefixes(self, tmp_path):
        root = write_pkg(tmp_path, R101_VIOLATION)
        out = io.StringIO()
        code = main(["lint", str(root), "--select", "R1,R2,R3"], out)
        assert code == 1
        assert "R101" in out.getvalue()

    def test_certificate_flag_writes_deterministic_json(self, tmp_path):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                def allocate_rates(instance):
                    return 1
                """,
            },
        )
        cert_path = tmp_path / "KERNEL_PURITY.json"
        out = io.StringIO()
        code = main(
            ["lint", str(root), "--select", "R3", "--certificate", str(cert_path)],
            out,
        )
        assert code == 0
        first = cert_path.read_bytes()
        main(
            ["lint", str(root), "--select", "R3", "--certificate", str(cert_path)],
            io.StringIO(),
        )
        assert cert_path.read_bytes() == first
        doc = json.loads(first)
        assert doc["kind"] == "kernel-purity-certificate"
        assert doc["verdict"] == "pure"

    def test_certificate_flag_requires_r3_selection(self, tmp_path):
        root = write_pkg(tmp_path, {"mod.py": "X = 1\n"})
        out = io.StringIO()
        code = main(
            [
                "lint", str(root), "--select", "R004",
                "--certificate", str(tmp_path / "c.json"),
            ],
            out,
        )
        assert code == 2

    def test_output_directory_publishes_certificate_alongside_report(
        self, tmp_path
    ):
        root = write_pkg(
            tmp_path,
            {
                "sim/rate_allocation.py": """
                def allocate_rates(instance):
                    return 1
                """,
            },
        )
        report_dir = tmp_path / "reports"
        out = io.StringIO()
        code = main(["lint", str(root), "--output", str(report_dir)], out)
        assert code == 0
        assert (report_dir / "KERNEL_PURITY.json").exists()
        assert list(report_dir.glob("LINT_*.json"))

    def test_cache_flag_round_trips(self, tmp_path):
        root = write_pkg(tmp_path, R101_VIOLATION)
        cache = tmp_path / "cache.json"
        main(["lint", str(root), "--cache", str(cache)], io.StringIO())
        assert cache.exists()
        doc = json.loads(cache.read_text())
        assert set(doc) == {"schema", "extract_schema", "files"}
        digest = source_digest((root / "scenarios/engine.py").read_text())
        assert doc["files"]["scenarios/engine.py"]["digest"] == digest

    def test_diff_bad_ref_exits_2(self, tmp_path):
        root = write_pkg(tmp_path, {"mod.py": "X = 1\n"})
        out = io.StringIO()
        code = main(["lint", str(root), "--diff", "no-such-ref"], out)
        assert code == 2
