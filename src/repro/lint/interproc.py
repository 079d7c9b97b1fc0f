"""Interprocedural lint rules: seed flow, atomic commits, kernel purity.

These are the graph-scoped rule families built on :mod:`repro.lint.callgraph`
and :mod:`repro.lint.dataflow`.  Where the per-file rules (R0xx) flag a
*spelling* — ``time.time()``, ``open(..., "w")`` — these flag a *path*: the
spelling may be three calls away from the entry point whose discipline it
breaks, so every finding message carries the call chain that proves the
connection.

Rule families
-------------
**R1xx seed flow.**  Every Generator reaching a solve / scenario / sweep
path must originate from ``derive_seed``/``derive_rng`` (i.e. the helpers
of :mod:`repro.utils.rng`, the one module allowed to touch numpy's
constructors).  Rng objects must not be stored in module globals (hidden
cross-call state) or reused across unit addresses inside a loop (the PR 4
sweep discipline: one derived stream per unit, or resume is not
byte-identical).

**R203 atomic commit boundary.**  The raw write and publish primitives
(``os.fdopen``, ``tempfile.mkstemp``, ``os.link``, ``shutil.copy*``) live
behind :mod:`repro.utils.io`'s atomic helpers; anywhere else in the tree
they are findings, however they are aliased.

**R3xx kernel purity.**  The ROADMAP's compiled-kernel item needs a
machine-checked guarantee that the simulator hot loop — everything
transitively reachable from the rate-allocation entry points and the event
step — is pure: no I/O, no wall clock, no raw entropy, no module-global
mutation, no argument mutation.  :func:`build_certificate` turns a passing
R3xx run into ``KERNEL_PURITY.json``, the artifact a future Cython/numba
backend asserts against before trusting that a port preserves semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.dataflow import (
    ReachedEffect,
    effect_closure,
    format_chain,
    reachable,
)
from repro.lint.framework import Finding, ProjectContext, register_rule

# --------------------------------------------------------------------------- #
# root sets
# --------------------------------------------------------------------------- #
#: Files whose public functions anchor the solve/scenario/sweep seed
#: discipline: a Generator live anywhere in their call closures must have
#: been derived, not constructed.
SEED_ROOT_FILES = (
    "api/batch.py",
    "scenarios/engine.py",
    "experiments/sweep.py",
    "online/engine.py",
)

#: Decorators whose carriers are registry entry points (and hence roots).
REGISTRY_DECORATORS = ("register_algorithm", "register_family")

#: Files that constitute the solve path for the rng-reuse check: a loop
#: handing one rng to repeated calls into these is reusing a stream across
#: unit addresses.
SOLVE_PATH_FILES = (
    "api/batch.py",
    "api/algorithms.py",
    "scenarios/engine.py",
    "experiments/sweep.py",
    "online/engine.py",
    "sim/*.py",
)

#: Kernel root files: every public module-level function here is a root.
KERNEL_ROOT_FILES = ("sim/rate_allocation.py",)

#: Extra named kernel roots beyond the public surface of the root files.
KERNEL_ROOT_FUNCTIONS = (("sim/simulator.py", "simulate_priority_schedule"),)

#: Effect kinds that break kernel purity (argument mutation is split out
#: into R303 so its finding reads differently).
IMPURE_KINDS = {
    "io_read",
    "io_write",
    "raw_write",
    "stdout",
    "wall_clock",
    "raw_entropy",
    "rng_construct",
    "store_mutation",
    "global_mut",
}

#: Files the kernel closure must not touch at all (R302): persistence and
#: orchestration layers whose presence in the closure means the kernel is
#: not portable, whatever the individual effects say.
KERNEL_FORBIDDEN_FILES = ("store/*.py", "cli.py", "utils/io.py")


def seed_roots(graph: CallGraph) -> List[str]:
    """Registry-decorated functions plus the public surface of the seed
    root files (sorted, deduplicated)."""
    roots: Set[str] = set(graph.decorated(*REGISTRY_DECORATORS))
    for qual in graph.functions_matching(*SEED_ROOT_FILES):
        fn = graph.functions[qual]
        if "." not in fn.local and not fn.name.startswith("_"):
            roots.add(qual)
    return sorted(roots)


def kernel_roots(graph: CallGraph) -> List[str]:
    """The purity roots: the rate-allocation public surface + the event step."""
    roots: Set[str] = set()
    for qual in graph.functions_matching(*KERNEL_ROOT_FILES):
        fn = graph.functions[qual]
        if "." not in fn.local and not fn.name.startswith("_"):
            roots.add(qual)
    for rel_pattern, name in KERNEL_ROOT_FUNCTIONS:
        for qual in graph.functions_matching(rel_pattern):
            if graph.functions[qual].local == name:
                roots.add(qual)
    return sorted(roots)


def _finding(
    rel: str, line: int, rule: str, message: str, col: int = 1
) -> Finding:
    return Finding(path=rel, line=line, col=col, rule=rule, message=message)


# --------------------------------------------------------------------------- #
# R1xx — seed flow
# --------------------------------------------------------------------------- #
@register_rule(
    "R101",
    "seed-origin",
    description=(
        "rng constructors reachable from solve/scenario/sweep entry points "
        "must live in utils/rng.py; derive the stream with "
        "derive_rng/as_generator instead"
    ),
    rationale=(
        "PR 3/PR 4 made every unit's stream a pure function of its address "
        "via derive_seed; a constructor elsewhere in the closure reopens "
        "the door to position-dependent streams"
    ),
    scope="graph",
    allowed_paths=("utils/rng.py",),
)
def seed_origin(project: ProjectContext, graph: CallGraph) -> Iterable[Finding]:
    roots = seed_roots(graph)
    for hit in effect_closure(graph, roots, kinds={"rng_construct"}):
        chain = format_chain(hit.chain, graph.root_name)
        yield _finding(
            hit.rel,
            hit.effect.line,
            "R101",
            (
                f"{hit.effect.detail} constructed on a seeded path "
                f"(reached via {chain}); only utils/rng.py may touch numpy "
                "constructors — use as_generator/derive_rng"
            ),
        )


@register_rule(
    "R102",
    "no-module-rng",
    description=(
        "rng objects must not be bound at module level: a module-global "
        "Generator is hidden mutable state shared across every caller"
    ),
    rationale=(
        "PR 4's byte-identical sweep resume requires streams addressed per "
        "unit, never ambient; a module rng advances differently depending "
        "on import and call order"
    ),
    scope="graph",
    allowed_paths=("utils/rng.py",),
)
def no_module_rng(project: ProjectContext, graph: CallGraph) -> Iterable[Finding]:
    for rel in sorted(graph.extracts):
        for name, line in graph.extracts[rel].module_rng_globals:
            yield _finding(
                rel,
                line,
                "R102",
                (
                    f"module-level rng binding {name!r}: generators are "
                    "per-unit values (derive them where used), not module "
                    "state"
                ),
            )


@register_rule(
    "R103",
    "no-rng-reuse-across-units",
    description=(
        "a Generator bound before a loop must not be passed into solve-path "
        "calls inside the loop: each unit address derives its own stream"
    ),
    rationale=(
        "reusing one stream across loop iterations makes unit results "
        "depend on visit order, which is exactly what PR 4's stateless "
        "derive_seed addressing removed"
    ),
    scope="graph",
    allowed_paths=("utils/rng.py",),
)
def no_rng_reuse(project: ProjectContext, graph: CallGraph) -> Iterable[Finding]:
    solve_path = set(graph.functions_matching(*SOLVE_PATH_FILES))
    for rel in sorted(graph.extracts):
        for fn in graph.extracts[rel].functions:
            for arg in fn.loop_rng_args:
                callee = graph.resolve_call(rel, fn, arg.call)
                if callee is None:
                    continue
                closure = reachable(graph, [callee])
                if not solve_path.intersection(closure):
                    continue
                callee_name = format_chain((callee,), graph.root_name)
                yield _finding(
                    rel,
                    arg.call.line,
                    "R103",
                    (
                        f"rng {arg.variable!r} (bound line {arg.bound_line}) "
                        f"is reused across loop iterations by {callee_name}; "
                        "derive one stream per unit address instead"
                    ),
                )


# --------------------------------------------------------------------------- #
# R203 — atomic commit boundary
# --------------------------------------------------------------------------- #
@register_rule(
    "R203",
    "atomic-commit-boundary",
    description=(
        "aliased raw write/publish primitives (os.fdopen, tempfile.mkstemp, "
        "os.link, shutil.copy*) belong in utils/io.py only; everywhere else "
        "writes go through the atomic helpers"
    ),
    rationale=(
        "PR 4 funnelled result publication through atomic temp+rename; "
        "R004 catches the direct spellings per file, this closes the "
        "aliased forms a single-file rule cannot see through"
    ),
    scope="graph",
    allowed_paths=("utils/io.py",),
)
def atomic_commit_boundary(
    project: ProjectContext, graph: CallGraph
) -> Iterable[Finding]:
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        rel = graph.symbols[qual].rel
        for effect in fn.effects:
            if effect.kind != "raw_write":
                continue
            yield _finding(
                rel,
                effect.line,
                "R203",
                (
                    f"{effect.detail} in {fn.local}: raw write primitives "
                    "live behind utils/io.py's atomic helpers, not in "
                    "caller code"
                ),
            )


# --------------------------------------------------------------------------- #
# R3xx — kernel purity
# --------------------------------------------------------------------------- #
@register_rule(
    "R301",
    "kernel-purity",
    description=(
        "functions transitively reachable from the rate-allocation entry "
        "points and the simulator event step must be free of I/O, wall "
        "clock, raw entropy, rng construction and module-global mutation"
    ),
    rationale=(
        "the ROADMAP's compiled-kernel item needs a machine-checked purity "
        "guarantee before the hot loop can be ported; receiver-owned (self) "
        "state like memo caches is explicitly allowed"
    ),
    scope="graph",
)
def kernel_purity(project: ProjectContext, graph: CallGraph) -> Iterable[Finding]:
    roots = kernel_roots(graph)
    for hit in effect_closure(graph, roots, kinds=IMPURE_KINDS):
        chain = format_chain(hit.chain, graph.root_name)
        yield _finding(
            hit.rel,
            hit.effect.line,
            "R301",
            (
                f"impure effect {hit.effect.kind} ({hit.effect.detail}) in "
                f"kernel closure, reached via {chain}"
            ),
        )


@register_rule(
    "R302",
    "kernel-boundary",
    description=(
        "the kernel call closure must not enter the persistence or "
        "orchestration layers (store/, cli.py, utils/io.py)"
    ),
    rationale=(
        "a compiled backend can port arithmetic, not a store dependency; "
        "an edge into those layers means the kernel boundary leaked even "
        "if no individual effect fires"
    ),
    scope="graph",
)
def kernel_boundary(project: ProjectContext, graph: CallGraph) -> Iterable[Finding]:
    from fnmatch import fnmatch

    roots = kernel_roots(graph)
    closure = reachable(graph, roots)
    for qual in sorted(closure):
        sym = graph.symbols[qual]
        if not any(
            fnmatch(sym.rel, pattern) or fnmatch(sym.rel, f"*/{pattern}")
            for pattern in KERNEL_FORBIDDEN_FILES
        ):
            continue
        chain = format_chain(closure[qual].chain, graph.root_name)
        yield _finding(
            sym.rel,
            sym.line,
            "R302",
            (
                f"{sym.local} is inside the kernel closure via {chain}; "
                "the kernel must not depend on persistence/orchestration "
                "layers"
            ),
        )


@register_rule(
    "R303",
    "kernel-argument-mutation",
    description=(
        "kernel-closure functions must not mutate their (non-self) "
        "arguments: callers hand in arrays the compiled backend will "
        "treat as immutable inputs"
    ),
    rationale=(
        "in-place argument mutation is invisible at the call site and "
        "breaks the array-in/array-out contract the compiled kernel "
        "port assumes"
    ),
    scope="graph",
)
def kernel_argument_mutation(
    project: ProjectContext, graph: CallGraph
) -> Iterable[Finding]:
    roots = kernel_roots(graph)
    for hit in effect_closure(graph, roots, kinds={"param_mut"}):
        chain = format_chain(hit.chain, graph.root_name)
        yield _finding(
            hit.rel,
            hit.effect.line,
            "R303",
            (
                f"kernel function mutates argument ({hit.effect.detail}), "
                f"reached via {chain}; return the new value instead"
            ),
        )


#: The codes whose combined verdict the purity certificate records.
CERTIFICATE_RULES = ("R301", "R302", "R303")

#: Certificate schema (bump on shape changes so a stale committed file
#: fails loudly in the comparing test rather than silently drifting).
CERTIFICATE_SCHEMA = 1


def build_certificate(
    graph: CallGraph,
    digests: Dict[str, str],
    surviving: Sequence[Finding],
    sanctioned: Sequence[Finding],
) -> Dict:
    """The ``KERNEL_PURITY.json`` document for one analysis run.

    Deliberately timestamp-free: the certificate is a pure function of the
    analyzed sources, so the committed copy stays byte-stable until the
    kernel (or the analyzer) actually changes — and the regeneration test
    can compare dictionaries directly.

    Parameters
    ----------
    digests:
        rel -> source digest for every analyzed file; the certificate keeps
        only the files the kernel closure touches.
    surviving:
        R3xx findings that survived suppression filtering (verdict
        ``impure`` if any exist).
    sanctioned:
        R3xx findings consumed by a ``# repro-lint: allow[...]`` comment —
        recorded so every waived effect is visible in the artifact with its
        location (the rationale lives in the comment at that line).
    """
    roots = kernel_roots(graph)
    closure = reachable(graph, roots)
    prefix = f"{graph.root_name}."

    def strip(qual: str) -> str:
        return qual[len(prefix):] if qual.startswith(prefix) else qual

    closure_rels = sorted({graph.symbols[qual].rel for qual in closure})
    return {
        "schema": CERTIFICATE_SCHEMA,
        "kind": "kernel-purity-certificate",
        "rules": list(CERTIFICATE_RULES),
        "verdict": "impure" if surviving else "pure",
        "roots": [strip(qual) for qual in roots],
        "closure": [
            {
                "function": strip(qual),
                "file": graph.symbols[qual].rel,
                "line": graph.symbols[qual].line,
            }
            for qual in sorted(closure)
        ],
        "violations": [
            {
                "rule": f.rule,
                "file": f.path,
                "line": f.line,
                "message": f.message,
            }
            for f in sorted(surviving)
        ],
        "sanctioned": [
            {
                "rule": f.rule,
                "file": f.path,
                "line": f.line,
                "message": f.message,
            }
            for f in sorted(sanctioned)
        ],
        "files": {
            rel: digests[rel] for rel in closure_rels if rel in digests
        },
    }
