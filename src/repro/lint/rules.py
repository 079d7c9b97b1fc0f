"""The built-in per-file ``repro lint`` rules (R001–R007, R009, R010).

Each rule encodes one invariant a previous PR established at runtime; the
``rationale`` field records which.  File-scoped rules get a
:class:`~repro.lint.framework.FileContext`; the registry-completeness rule
is project-scoped and sees every file at once.  Rules are pure AST
analyses — they never import or execute the code under inspection, so
linting a broken tree is safe.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.framework import (
    FileContext,
    Finding,
    ProjectContext,
    register_rule,
)

# --------------------------------------------------------------------------- #
# R001 — no raw entropy
# --------------------------------------------------------------------------- #
#: Legacy numpy global-state entry points (implicit hidden seed state).
_NUMPY_GLOBAL_STATE = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "bytes",
}

#: Entropy sources with no reproducible identity at all.
_RAW_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
                "secrets.token_hex", "secrets.randbelow"}

#: Generator / bit-stream constructors: only utils/rng.py may call them.
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
}

#: The utils.rng factories (by bare name): sanctioned inside a function,
#: but a module-level binding of their product is still ambient state.
_RNG_FACTORIES = {"as_generator", "derive_rng", "spawn_rng", "iter_generators"}


def _module_rng_bindings(ctx: FileContext) -> Dict[int, List[str]]:
    """id(call) -> names, for module-level ``NAME = <rng constructor/factory>``."""
    bindings: Dict[int, List[str]] = {}
    for node in ctx.tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        call = node.value
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        bare = func.attr if isinstance(func, ast.Attribute) else None
        if isinstance(func, ast.Name):
            bare = func.id
        if ctx.imports.qualify(func) in _RNG_CONSTRUCTORS or bare in _RNG_FACTORIES:
            targets: List[ast.expr] = (
                list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            )
            bindings[id(call)] = [
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
    return bindings


@register_rule(
    "R001",
    "no-raw-entropy",
    description=(
        "random.*, numpy rng constructors (default_rng, Generator, "
        "RandomState, SeedSequence, PCG64), os.urandom and uuid4 are banned "
        "outside utils/rng.py, as is a module-level rng binding; all "
        "randomness flows through utils.rng (as_generator / derive_rng)"
    ),
    rationale=(
        "PR 3: scenario addressing is bit-reproducible only because every "
        "stream is derived statelessly from (root_seed, *path); a seeded "
        "constructor elsewhere (once in scenarios/engine.py) or a module "
        "rng reopens position-dependent streams"
    ),
    allowed_paths=("utils/rng.py",),
)
def check_raw_entropy(ctx: FileContext) -> Iterator[Finding]:
    bindings = _module_rng_bindings(ctx)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if id(node) in bindings:
            names = ", ".join(repr(name) for name in bindings[id(node)])
            yield ctx.finding(
                node,
                "R001",
                f"module-level rng binding {names}: generators are per-unit "
                "values (derive them where used), not module state",
            )
            continue
        qual = ctx.imports.qualify(node.func)
        if qual is None:
            continue
        if qual.startswith("random.") or qual == "random.Random":
            yield ctx.finding(
                node,
                "R001",
                f"call to stdlib '{qual}' (process-global entropy); use "
                "repro.utils.rng.as_generator / derive_rng instead",
            )
        elif qual in _RAW_ENTROPY:
            yield ctx.finding(
                node,
                "R001",
                f"call to '{qual}' (irreproducible entropy); derive "
                "randomness from a seed via repro.utils.rng",
            )
        elif qual in _RNG_CONSTRUCTORS:
            yield ctx.finding(
                node,
                "R001",
                f"rng constructor '{qual}' outside utils/rng.py; derive the "
                "stream with repro.utils.rng.as_generator / derive_rng",
            )
        elif (
            qual.startswith("numpy.random.")
            and qual.rsplit(".", 1)[-1] in _NUMPY_GLOBAL_STATE
        ):
            yield ctx.finding(
                node,
                "R001",
                f"legacy numpy global-state API '{qual}'; use a Generator "
                "from repro.utils.rng instead",
            )


# --------------------------------------------------------------------------- #
# R002 — no wall clock
# --------------------------------------------------------------------------- #
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.strftime",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


@register_rule(
    "R002",
    "no-wall-clock",
    description=(
        "time.time() / datetime.now() are banned outside the sanctioned "
        "stamping helper (utils.timing.report_stamp); durations use "
        "time.perf_counter"
    ),
    rationale=(
        "PR 2/PR 3: report content must be reproducible from inputs; the "
        "only wall-clock a report may carry is its 'created' stamp, "
        "written by one helper"
    ),
    allowed_paths=("utils/timing.py",),
)
def check_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.imports.qualify(node.func)
        if qual in _WALL_CLOCK:
            yield ctx.finding(
                node,
                "R002",
                f"wall-clock read '{qual}'; stamp reports via "
                "repro.utils.timing.report_stamp()/file_stamp() (durations: "
                "time.perf_counter)",
            )


# --------------------------------------------------------------------------- #
# R003 — no float equality
# --------------------------------------------------------------------------- #
def _is_floatish(node: ast.expr) -> bool:
    """Whether *node* is provably a float expression (literal or float())."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_floatish(node.operand)
    ):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    return False


@register_rule(
    "R003",
    "no-float-equality",
    description=(
        "== / != against float values is banned; use math.isclose or the "
        "TimeGrid relative-tolerance discipline"
    ),
    rationale=(
        "PR 4: absolute comparisons broke at ~1e6 horizons; all float "
        "tolerance in the library is relative to magnitude"
    ),
)
def check_float_equality(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_floatish(left) or _is_floatish(right):
                yield ctx.finding(
                    node,
                    "R003",
                    "float equality comparison; use math.isclose(...) or "
                    "the TimeGrid relative-tolerance helpers",
                )
                break


# --------------------------------------------------------------------------- #
# R004 — no non-atomic writes
# --------------------------------------------------------------------------- #
def _write_mode(node: ast.Call, mode_position: int) -> Optional[str]:
    """The constant file-mode argument of an open-like call, if any."""
    mode_node: Optional[ast.expr] = None
    if len(node.args) > mode_position:
        mode_node = node.args[mode_position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None


def _is_writing(mode: Optional[str]) -> bool:
    return mode is not None and any(ch in mode for ch in "wax+")


#: Raw write / publish primitives the atomic helpers of utils/io.py own.
_RAW_WRITE = {
    "os.link",
    "tempfile.mkstemp",
    "tempfile.NamedTemporaryFile",
    "shutil.copy",
    "shutil.copy2",
    "shutil.copyfile",
    "shutil.move",
}


@register_rule(
    "R004",
    "no-nonatomic-write",
    description=(
        "open(..., 'w') / Path.write_text and the raw write primitives "
        "(os.fdopen(..., 'w'), os.link, tempfile.mkstemp / "
        "NamedTemporaryFile, shutil.copy* / move) are banned; all output "
        "files go through utils.io.atomic_writer / atomic_write_* "
        "(temp + os.replace)"
    ),
    rationale=(
        "PR 4: kill-and-resume is safe only because a file either exists "
        "completely or not at all; the store's temp+rename discipline is "
        "now the shared utils.io helper"
    ),
    allowed_paths=("utils/io.py",),
)
def check_nonatomic_write(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            if _is_writing(_write_mode(node, 1)):
                yield ctx.finding(
                    node,
                    "R004",
                    "non-atomic open(..., 'w'); use "
                    "repro.utils.io.atomic_writer / atomic_write_*",
                )
            continue
        qual = ctx.imports.qualify(func)
        if qual in _RAW_WRITE:
            yield ctx.finding(
                node,
                "R004",
                f"raw write primitive '{qual}'; it lives behind "
                "repro.utils.io's atomic helpers, not in caller code",
            )
            continue
        if qual == "os.fdopen":
            if _is_writing(_write_mode(node, 1)):
                yield ctx.finding(
                    node,
                    "R004",
                    "non-atomic os.fdopen(..., 'w'); use "
                    "repro.utils.io.atomic_writer / atomic_write_*",
                )
            continue
        if isinstance(func, ast.Attribute):
            if func.attr == "open" and _is_writing(_write_mode(node, 0)):
                yield ctx.finding(
                    node,
                    "R004",
                    "non-atomic .open('w'); use "
                    "repro.utils.io.atomic_writer / atomic_write_*",
                )
            elif func.attr in ("write_text", "write_bytes"):
                yield ctx.finding(
                    node,
                    "R004",
                    f"non-atomic .{func.attr}(...); use "
                    "repro.utils.io.atomic_write_text / atomic_write_json",
                )


# --------------------------------------------------------------------------- #
# R005 — plain JSON at the boundary
# --------------------------------------------------------------------------- #
@register_rule(
    "R005",
    "json-boundary",
    description=(
        "direct json.dump/json.dumps only inside the serialization boundary "
        "(store.serialize, store.fingerprint, utils.io); everything else "
        "writes via atomic_write_json, which numpy-normalizes first"
    ),
    rationale=(
        "PR 4/PR 5: numpy scalars reaching json.dump either crash or "
        "silently change rendering; results cross the boundary as plain "
        "JSON only"
    ),
    allowed_paths=("utils/io.py", "store/serialize.py", "store/fingerprint.py"),
)
def check_json_boundary(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.imports.qualify(node.func)
        if qual in ("json.dump", "json.dumps"):
            yield ctx.finding(
                node,
                "R005",
                f"direct {qual.split('.')[-1]} outside the serialization "
                "boundary; write files via utils.io.atomic_write_json and "
                "build keys via store.fingerprint.canonical_json",
            )


# --------------------------------------------------------------------------- #
# R006 — registry completeness (project-scoped)
# --------------------------------------------------------------------------- #
def _registrations(
    project: ProjectContext,
) -> List[Tuple[FileContext, ast.AST, Optional[str], Dict[str, object], Set[str]]]:
    """Every ``@register_algorithm`` site: (file, node, name, kwargs, refs)."""
    sites = []
    for ctx in project.files:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                func = decorator.func
                target = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if target != "register_algorithm":
                    continue
                name: Optional[str] = None
                if decorator.args and isinstance(decorator.args[0], ast.Constant):
                    value = decorator.args[0].value
                    name = value if isinstance(value, str) else None
                kwargs: Dict[str, object] = {}
                for keyword in decorator.keywords:
                    if keyword.arg is not None and isinstance(
                        keyword.value, ast.Constant
                    ):
                        kwargs[keyword.arg] = keyword.value.value
                refs: Set[str] = {node.name}
                for child in ast.walk(node):
                    if isinstance(child, ast.Name):
                        refs.add(child.id)
                    elif isinstance(child, ast.Attribute):
                        refs.add(child.attr)
                sites.append((ctx, decorator, name, kwargs, refs))
    return sites


@register_rule(
    "R006",
    "registry-completeness",
    description=(
        "every *_schedule entry point in baselines/ is reachable from a "
        "@register_algorithm registration, and registrations in online "
        "modules carry online=True"
    ),
    rationale=(
        "PR 1/PR 5: the registry is the single dispatch surface (CLI, "
        "batch, sweep, verify); an unregistered entry point is invisible "
        "to all of them, and a mis-flagged online policy dodges the "
        "online invariants"
    ),
    scope="project",
)
def check_registry_completeness(project: ProjectContext) -> Iterator[Finding]:
    sites = _registrations(project)
    referenced: Set[str] = set()
    for _ctx, _node, _name, _kwargs, refs in sites:
        referenced.update(refs)

    # (a) completeness: baselines entry points must be reachable.
    for ctx in project.matching("baselines/*.py"):
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") or not node.name.endswith("_schedule"):
                continue
            if node.name not in referenced:
                yield ctx.finding(
                    node,
                    "R006",
                    f"schedule entry point '{node.name}' is not referenced "
                    "by any @register_algorithm registration; register it "
                    "so the CLI/batch/sweep/verify layers can reach it",
                )

    # (b) flag consistency: online modules register online policies.
    online_files = {id(c) for c in project.matching("online/*.py")}
    for ctx, node, name, kwargs, _refs in sites:
        label = name or "<dynamic>"
        if id(ctx) in online_files and kwargs.get("online") is not True:
            yield ctx.finding(
                node,
                "R006",
                f"registration '{label}' in an online module must set "
                "online=True so the online invariants cover it",
            )
        elif (
            name is not None
            and name.startswith("online-")
            and kwargs.get("online") is not True
        ):
            yield ctx.finding(
                node,
                "R006",
                f"registration '{label}' is named like an online policy "
                "but does not set online=True",
            )

    # (c) an online/policies.py module with no registrations at all has
    # fallen out of the registry entirely.
    for ctx in project.matching("online/policies.py"):
        if not any(id(site_ctx) == id(ctx) for site_ctx, *_ in sites):
            yield Finding(
                path=ctx.rel,
                line=1,
                col=1,
                rule="R006",
                message=(
                    "online/policies.py defines no @register_algorithm "
                    "registration; online policies must be registered"
                ),
            )


# --------------------------------------------------------------------------- #
# R007 — no silent broad except
# --------------------------------------------------------------------------- #
def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises the caught exception (bare ``raise``)."""
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


def _broad_names(type_node: Optional[ast.expr]) -> List[str]:
    if type_node is None:
        return ["bare except"]
    nodes = (
        list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
    )
    return [
        node.id
        for node in nodes
        if isinstance(node, ast.Name) and node.id in ("Exception", "BaseException")
    ]


@register_rule(
    "R007",
    "no-silent-broad-except",
    description=(
        "except Exception / bare except is banned unless the handler "
        "re-raises; sanctioned crash-recording sites carry an explicit "
        "allow[R007]"
    ),
    rationale=(
        "PR 3: the verification harness records crashes as data "
        "deliberately; everywhere else a broad except hides programming "
        "errors behind plausible results"
    ),
)
def check_broad_except(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = _broad_names(node.type)
        if not broad or _handler_reraises(node):
            continue
        label = broad[0]
        yield ctx.finding(
            node,
            "R007",
            f"broad '{'except' if label == 'bare except' else f'except {label}'}'"
            " silently swallows programming errors; catch the specific "
            "failure types (or re-raise)",
        )


# --------------------------------------------------------------------------- #
# R009 — no bare sleep / ad-hoc retry
# --------------------------------------------------------------------------- #
@register_rule(
    "R009",
    "no-bare-sleep",
    description=(
        "time.sleep is banned outside the sanctioned retry/backoff module "
        "(utils/retry.py); pauses go through Backoff.sleep"
    ),
    rationale=(
        "the sweep's retry policy (Backoff) promises that every delay is "
        "bounded, enumerable and deterministically jittered from the "
        "unit's address; an ad-hoc sleep is an unbounded, unseeded wait "
        "outside that policy"
    ),
    allowed_paths=("utils/retry.py",),
)
def check_bare_sleep(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.imports.qualify(node.func)
        if qual in ("time.sleep", "asyncio.sleep"):
            yield ctx.finding(
                node,
                "R009",
                f"bare sleep '{qual}'; route delays through "
                "repro.utils.retry.Backoff.sleep so they are bounded and "
                "deterministic",
            )


# --------------------------------------------------------------------------- #
# R010 — no direct solver-engine access
# --------------------------------------------------------------------------- #
@register_rule(
    "R010",
    "no-direct-linprog",
    description=(
        "scipy.optimize.linprog and the private _highspy engine are only "
        "touched inside repro.lp.backends; everything else solves one-shot "
        "LPs through repro.lp.solver.solve_lp and warm-started ones on a "
        "repro.lp.backends.HighsEngine from make_highs_engine"
    ),
    rationale=(
        "the engine layer normalizes every result into an LPResult, "
        "solve_lp caches only optimal results, and make_highs_engine "
        "returns None when HIGHS_AVAILABLE is false so callers fall back "
        "to linprog; a direct engine call bypasses all three"
    ),
    allowed_paths=("lp/backends/linprog.py", "lp/backends/highs.py"),
)
def check_direct_linprog(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if "_highspy" in alias.name:
                    yield ctx.finding(
                        node,
                        "R010",
                        f"import of private HiGHS engine '{alias.name}'; "
                        "solve warm-started LPs on "
                        "repro.lp.backends.HighsEngine instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if "_highspy" in module:
                yield ctx.finding(
                    node,
                    "R010",
                    f"import from private HiGHS engine '{module}'; solve "
                    "warm-started LPs on repro.lp.backends.HighsEngine "
                    "instead",
                )
                continue
            for alias in node.names:
                if "_highspy" in alias.name:
                    yield ctx.finding(
                        node,
                        "R010",
                        f"import of private HiGHS engine '{alias.name}'; "
                        "solve warm-started LPs on "
                        "repro.lp.backends.HighsEngine instead",
                    )
                elif module == "scipy.optimize" and alias.name == "linprog":
                    yield ctx.finding(
                        node,
                        "R010",
                        "direct import of scipy.optimize.linprog; solve "
                        "through repro.lp.solver.solve_lp instead",
                    )
        elif isinstance(node, ast.Call):
            qual = ctx.imports.qualify(node.func)
            if qual == "scipy.optimize.linprog":
                yield ctx.finding(
                    node,
                    "R010",
                    "direct call to scipy.optimize.linprog; solve through "
                    "repro.lp.solver.solve_lp instead",
                )


#: Importing this module registers every built-in rule; the tuple is the
#: stable public catalogue (mirrors scenarios.families' registration style).
BUILTIN_RULES = (
    "R001",
    "R002",
    "R003",
    "R004",
    "R005",
    "R006",
    "R007",
    "R009",
    "R010",
)
