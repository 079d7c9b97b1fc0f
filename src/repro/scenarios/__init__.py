"""repro.scenarios — scenario engine + differential verification.

Generate workloads far beyond the fixed benchmark profiles and cross-check
every registered algorithm against the library's built-in oracles::

    from repro import scenarios

    # one reproducible scenario
    s = scenarios.build_scenario("zipf-sizes", index=3, root_seed=0)

    # the full differential harness (what `repro verify` runs)
    report = scenarios.run_verification(budget=20, seed=0)
    assert report["summary"]["ok"]

Components
----------
* :mod:`~repro.scenarios.engine` — the family registry and the
  bit-reproducible ``(root_seed, family, index)`` addressing scheme.
* :mod:`~repro.scenarios.families` — the eight built-in families: online
  Poisson and bursty arrivals, Zipf-skewed sizes, oversubscribed fat trees,
  degraded links, trace replay, open-shop hardness gadgets and adversarial
  arrivals.
* :mod:`~repro.scenarios.invariants` — the differential invariant suite
  (LP builder equivalence, simulator equivalence, feasibility, LP bounds,
  baseline orderings, report consistency, online release and lower-bound
  respect, the certified LP horizon).
* :mod:`~repro.scenarios.verify` — the harness + machine-readable report,
  what ``repro verify`` runs (``--family``, ``--algorithms`` and
  ``--invariant`` select scenarios and checks).
"""

from repro.scenarios import families as _families  # noqa: F401 - registers built-ins
from repro.scenarios.engine import (
    Scenario,
    ScenarioFamily,
    UnknownFamilyError,
    build_scenario,
    family_table,
    get_family,
    register_family,
    sample_scenarios,
    scenario_families,
)
from repro.scenarios.families import (
    BUILTIN_FAMILIES,
    ONLINE_FAMILIES,
    expected_model,
)
from repro.scenarios.invariants import (
    ScenarioRun,
    check_invariants,
    get_invariant,
    invariant_names,
    register_invariant,
)
from repro.scenarios.verify import (
    execute_scenario,
    format_verification_report,
    run_verification,
    verify_scenario,
    write_verification_report,
)

__all__ = [
    "BUILTIN_FAMILIES",
    "ONLINE_FAMILIES",
    "Scenario",
    "ScenarioFamily",
    "ScenarioRun",
    "UnknownFamilyError",
    "build_scenario",
    "check_invariants",
    "execute_scenario",
    "expected_model",
    "family_table",
    "format_verification_report",
    "get_family",
    "get_invariant",
    "invariant_names",
    "register_family",
    "register_invariant",
    "run_verification",
    "sample_scenarios",
    "scenario_families",
    "verify_scenario",
    "write_verification_report",
]
