"""Project-wide symbol table and call graph for interprocedural lint.

PR 6's rules see one file at a time, so any discipline violation that
crosses a function boundary — an unseeded rng threaded through a helper, a
raw write reached via a wrapper — is invisible to them.  This module gives
the R1xx/R203/R3xx rules (:mod:`repro.lint.interproc`) the project
view they need, in two strictly separated stages:

**Extraction** (:func:`extract_file`) walks one parsed file and produces a
:class:`FileExtract`: the symbols it defines, the *raw* call sites inside
each function (classified but unresolved), the function's local *effect
facts* (wall-clock reads, raw writes, entropy, global mutation, ...), and
everything else the graph rules need from that file.  Extraction only looks
at one file, so its output is a pure function of the file's bytes — which
is what makes the digest-keyed cache sound: a warm run deserializes the
extract of every unchanged file and never re-parses it.

**Resolution** (:class:`CallGraph`) joins every extract into one graph.
Name resolution covers module-level names, ``repro.``-absolute imports,
``self`` method calls, method calls on locals whose class is inferred from
an assignment (``store = ResultStore(...)``) or a parameter annotation,
and one level of attribute hops through annotated class attributes
(``instance.graph.capacity_vector()``).  Like the per-file
:class:`~repro.lint.framework.ImportMap`, the graph only judges what it can
prove: an unresolvable call produces no edge (and is counted, so the golden
tests can pin the resolution rate).

Symbols are addressed by qualified name ``<root>.<module>.<Class>.<func>``
where ``<root>`` is the lint root's directory name — ``repro`` for the real
tree, the fixture package name in tests — so rules match on root-relative
file patterns (``sim/rate_allocation.py``), never on the spelled-out root.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import asdict, dataclass, field
from fnmatch import fnmatch
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.framework import FileContext, ImportMap, parse_suppressions

#: Schema stamp for serialized extracts (bump on any shape change: a cache
#: written by an older analyzer must be discarded, not misread).
EXTRACT_SCHEMA = 2

# --------------------------------------------------------------------------- #
# effect tables
# --------------------------------------------------------------------------- #
#: Wall-clock reads (mirrors rule R002's table).
WALL_CLOCK_CALLS = {
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

#: Irreproducible entropy sources (mirrors rule R001's tables).
RAW_ENTROPY_CALLS = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
}

#: Generator/bit-stream constructors.  Only :mod:`repro.utils.rng` may call
#: these; everywhere else a Generator must come from the utils.rng helpers.
RNG_CONSTRUCTOR_CALLS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
}

#: The sanctioned rng factories (their results are derive_seed-rooted or
#: explicitly caller-seeded): calls to these are *not* rng-construction
#: violations, and a variable bound to one still counts as an rng value for
#: the reuse-across-units check (R103).
SANCTIONED_RNG_FACTORIES = {
    "as_generator",
    "derive_rng",
    "spawn_rng",
    "iter_generators",
}

#: Raw write/publish primitives the atomic-write boundary (utils/io) owns.
#: Deliberately disjoint from rule R004's per-file patterns: R004 already
#: flags the direct spellings (``open(..., "w")``, ``.write_text``); these
#: are the aliased / lower-level forms a per-file rule cannot see through.
RAW_WRITE_CALLS = {
    "os.fdopen",
    "os.link",
    "tempfile.mkstemp",
    "tempfile.NamedTemporaryFile",
    "shutil.copy",
    "shutil.copy2",
    "shutil.copyfile",
    "shutil.move",
}

#: File-reading calls (impure for the kernel, fine elsewhere).
IO_READ_CALLS = {
    "json.load",
}

#: Attribute methods that read file content.
IO_READ_ATTRS = {"read_text", "read_bytes"}

#: Attribute methods that write file content (R004's attribute set, reused
#: here as *effect facts* rather than per-file findings).
IO_WRITE_ATTRS = {"write_text", "write_bytes"}

#: Store-mutation methods (the ResultStore write surface).
STORE_MUTATION_ATTRS = {"put", "put_failure", "clear_failure", "put_run"}

#: The sanctioned atomic-write helpers (by bare name, as imported).
ATOMIC_WRITE_HELPERS = {
    "atomic_writer",
    "atomic_write_text",
    "atomic_write_json",
    "exclusive_write_json",
}


# --------------------------------------------------------------------------- #
# serializable extract model
# --------------------------------------------------------------------------- #
@dataclass
class CallSite:
    """One raw (unresolved) call inside a function.

    ``kind`` decides how :class:`CallGraph` resolves ``data``:

    - ``"name"`` — ``f(...)``: ``data = (f,)``
    - ``"qual"`` — importable dotted call: ``data = (dotted,)``
    - ``"self"`` — ``self.m(...)``: ``data = (m,)``
    - ``"typed"`` — ``v.m(...)`` with the class of ``v`` inferred:
      ``data = (type_name, m)``
    - ``"attr"`` — ``v.a.m(...)``: ``data = (type_of_v, a, m)``
    - ``"ret"`` — ``v.m(...)`` where ``v = f(...)``: the class of ``v`` is
      ``f``'s return annotation, resolved in *f's* file at graph time:
      ``data = (callable_ref, m)``
    """

    kind: str
    data: Tuple[str, ...]
    line: int


@dataclass
class Effect:
    """One local effect fact: what a function does besides compute."""

    kind: str  # wall_clock | raw_entropy | rng_construct | raw_write |
    #            io_read | io_write | stdout | store_mutation | global_mut |
    #            param_mut
    line: int
    detail: str


@dataclass
class LoopRngArg:
    """A loop-invariant rng value passed into a call inside a loop.

    The seed-reuse rule (R103) needs exactly this shape: which variable,
    where it was bound, and which call inside the loop received it.  The
    callee reference is a :class:`CallSite` so resolution (does this call
    reach the solve path?) happens at graph-build time.
    """

    variable: str
    bound_line: int
    call: CallSite


@dataclass
class FunctionExtract:
    """Everything the graph rules need to know about one function."""

    local: str  # "func" or "Class.func"
    name: str
    line: int
    end_line: int
    decorators: Tuple[str, ...] = ()
    params: Tuple[str, ...] = ()
    #: Return-annotation class name (resolved against this file's imports),
    #: None when unannotated or not a plain class.
    returns: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    effects: List[Effect] = field(default_factory=list)
    loop_rng_args: List[LoopRngArg] = field(default_factory=list)


@dataclass
class ClassExtract:
    """One class: its annotated attribute types and base class names."""

    name: str
    line: int
    bases: Tuple[str, ...] = ()
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class FileExtract:
    """The cacheable per-file product of :func:`extract_file`."""

    rel: str
    functions: List[FunctionExtract] = field(default_factory=list)
    classes: List[ClassExtract] = field(default_factory=list)
    module_rng_globals: List[Tuple[str, int]] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    suppressions: Dict[int, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        doc = asdict(self)
        doc["schema"] = EXTRACT_SCHEMA
        # JSON keys are strings; suppression lines round-trip through int().
        doc["suppressions"] = {
            str(line): sorted(codes) for line, codes in self.suppressions.items()
        }
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "FileExtract":
        if doc.get("schema") != EXTRACT_SCHEMA:
            raise ValueError(f"extract schema mismatch: {doc.get('schema')!r}")
        return cls(
            rel=doc["rel"],
            functions=[
                FunctionExtract(
                    local=f["local"],
                    name=f["name"],
                    line=f["line"],
                    end_line=f["end_line"],
                    decorators=tuple(f["decorators"]),
                    params=tuple(f["params"]),
                    returns=f.get("returns"),
                    calls=[CallSite(c["kind"], tuple(c["data"]), c["line"]) for c in f["calls"]],
                    effects=[Effect(e["kind"], e["line"], e["detail"]) for e in f["effects"]],
                    loop_rng_args=[
                        LoopRngArg(
                            a["variable"],
                            a["bound_line"],
                            CallSite(
                                a["call"]["kind"],
                                tuple(a["call"]["data"]),
                                a["call"]["line"],
                            ),
                        )
                        for a in f["loop_rng_args"]
                    ],
                )
                for f in doc["functions"]
            ],
            classes=[
                ClassExtract(
                    name=c["name"],
                    line=c["line"],
                    bases=tuple(c["bases"]),
                    attr_types=dict(c["attr_types"]),
                )
                for c in doc["classes"]
            ],
            module_rng_globals=[
                (str(name), int(line)) for name, line in doc["module_rng_globals"]
            ],
            imports=dict(doc["imports"]),
            suppressions={
                int(line): list(codes)
                for line, codes in doc["suppressions"].items()
            },
        )


def source_digest(source: str) -> str:
    """Content key for the extract cache (first 16 hex chars of SHA-256)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# extraction helpers
# --------------------------------------------------------------------------- #
def _type_name(node: Optional[ast.expr], imports: ImportMap) -> Optional[str]:
    """Best-effort class name of an annotation (dotted when importable).

    ``Optional[X]`` / ``"X"`` string annotations / ``X | None`` unions peel
    down to ``X``; anything genuinely ambiguous resolves to ``None`` — the
    rules only judge what they can prove.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: re-parse the inner expression.
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        value = _type_name(node.value, imports)
        if value in ("typing.Optional", "Optional"):
            return _type_name(node.slice, imports)
        return None  # containers (List[...], Dict[...]) are not receivers
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # X | None / None | X
        left = _type_name(node.left, imports)
        right = _type_name(node.right, imports)
        candidates = [c for c in (left, right) if c not in (None, "None")]
        return candidates[0] if len(candidates) == 1 else None
    if isinstance(node, ast.Name):
        return imports.aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        qualified = imports.qualify(node)
        if qualified is not None:
            return qualified
        parts: List[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if isinstance(cursor, ast.Name):
            return ".".join([cursor.id, *reversed(parts)])
    return None


def _call_name(node: ast.expr) -> Optional[str]:
    """The bare trailing name of a call target (for decorator matching)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_write_mode_call(node: ast.Call, mode_position: int) -> bool:
    mode: Optional[ast.expr] = None
    if len(node.args) > mode_position:
        mode = node.args[mode_position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(ch in mode.value for ch in "wax+")
    return False


def _binding_names(target: ast.expr) -> Set[str]:
    """Names *bound* by an assignment target.

    ``a, (b, c) = ...`` binds a/b/c; ``d[k] = ...`` and ``d.x = ...`` bind
    nothing — they *mutate* d, and treating d as locally bound would mask
    exactly the global-mutation facts the kernel-purity rule exists for.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for element in target.elts:
            names.update(_binding_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return set()


def _assigned_names(node: ast.AST) -> Set[str]:
    """Every plain name bound by assignment-like statements under *node*."""
    names: Set[str] = set()
    for child in ast.walk(node):
        targets: List[ast.expr] = []
        if isinstance(child, ast.Assign):
            targets = list(child.targets)
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            targets = [child.target]
        elif isinstance(child, ast.For):
            targets = [child.target]
        elif isinstance(child, (ast.withitem,)) and child.optional_vars is not None:
            targets = [child.optional_vars]
        for target in targets:
            names.update(_binding_names(target))
    return names


class _FunctionWalker:
    """Single pass over one function body collecting calls + effects."""

    def __init__(
        self,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        *,
        class_name: Optional[str],
        imports: ImportMap,
        module_level_names: Set[str],
        local_classes: Set[str],
        module_functions: Set[str],
    ) -> None:
        self.fn = fn
        self.class_name = class_name
        self.imports = imports
        self.module_level_names = module_level_names
        self.local_classes = local_classes
        self.module_functions = module_functions
        args = fn.args
        self.params: List[str] = [
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        ]
        if args.vararg:
            self.params.append(args.vararg.arg)
        if args.kwarg:
            self.params.append(args.kwarg.arg)
        #: Parameter / local variable name -> inferred class name.
        self.var_types: Dict[str, str] = {}
        #: Local variable name -> callable ref whose return value it holds
        #: (resolved to a class through that callable's annotation later).
        self.ret_binds: Dict[str, str] = {}
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            typed = _type_name(a.annotation, imports)
            if typed is not None:
                self.var_types[a.arg] = typed
        self.local_binds = _assigned_names(fn)
        self.is_method = class_name is not None and bool(self.params) and (
            self.params[0] in ("self", "cls")
        )
        #: rng-bound locals: name -> (line, sanctioned)
        self.rng_binds: Dict[str, Tuple[int, bool]] = {}
        self.global_decls: Set[str] = set()
        self.calls: List[CallSite] = []
        self.effects: List[Effect] = []
        self.loop_rng_args: List[LoopRngArg] = []

    # -- classification ------------------------------------------------- #
    def _rng_constructor_kind(self, call: ast.Call) -> Optional[bool]:
        """None if not an rng constructor; else True when sanctioned."""
        qualified = self.imports.qualify(call.func)
        if qualified in RNG_CONSTRUCTOR_CALLS:
            return False
        name = _call_name(call.func)
        if name in SANCTIONED_RNG_FACTORIES:
            return True
        if qualified is not None and qualified.rsplit(".", 1)[-1] in SANCTIONED_RNG_FACTORIES:
            return True
        return None

    def _classify_call(self, call: ast.Call) -> Optional[CallSite]:
        func = call.func
        qualified = self.imports.qualify(func)
        if qualified is not None:
            return CallSite("qual", (qualified,), call.lineno)
        if isinstance(func, ast.Name):
            return CallSite("name", (func.id,), call.lineno)
        if isinstance(func, ast.Attribute):
            method = func.attr
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and self.class_name is not None:
                    return CallSite("self", (method,), call.lineno)
                typed = self.var_types.get(base.id)
                if typed is not None:
                    return CallSite("typed", (typed, method), call.lineno)
                if base.id in self.local_classes:
                    return CallSite("typed", (base.id, method), call.lineno)
                ret_of = self.ret_binds.get(base.id)
                if ret_of is not None:
                    return CallSite("ret", (ret_of, method), call.lineno)
                return None
            if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                owner = base.value.id
                if owner in ("self", "cls") and self.class_name is not None:
                    return CallSite(
                        "attr", (self.class_name, base.attr, method), call.lineno
                    )
                typed = self.var_types.get(owner)
                if typed is not None:
                    return CallSite("attr", (typed, base.attr, method), call.lineno)
        return None

    def _record_effects(self, call: ast.Call) -> None:
        qualified = self.imports.qualify(call.func)
        func = call.func
        name = func.id if isinstance(func, ast.Name) else None
        attr = func.attr if isinstance(func, ast.Attribute) else None
        line = call.lineno

        if qualified in WALL_CLOCK_CALLS:
            self.effects.append(Effect("wall_clock", line, qualified))
        elif qualified in RAW_ENTROPY_CALLS or (
            qualified is not None and qualified.startswith("random.")
        ):
            self.effects.append(Effect("raw_entropy", line, qualified))
        elif qualified in RNG_CONSTRUCTOR_CALLS:
            self.effects.append(Effect("rng_construct", line, qualified))
        elif qualified in RAW_WRITE_CALLS:
            if qualified == "os.fdopen" and not _is_write_mode_call(call, 1):
                pass  # read-mode fdopen is io_read territory, not a write
            else:
                self.effects.append(Effect("raw_write", line, qualified))
        elif qualified in IO_READ_CALLS:
            self.effects.append(Effect("io_read", line, qualified))

        if name == "open" and _is_write_mode_call(call, 1):
            self.effects.append(Effect("io_write", line, "open"))
        elif name == "open":
            self.effects.append(Effect("io_read", line, "open"))
        elif name == "print":
            self.effects.append(Effect("stdout", line, "print"))
        elif name in ATOMIC_WRITE_HELPERS:
            self.effects.append(Effect("store_mutation", line, name))

        if attr in IO_WRITE_ATTRS:
            self.effects.append(Effect("io_write", line, f".{attr}"))
        elif attr in IO_READ_ATTRS:
            self.effects.append(Effect("io_read", line, f".{attr}"))
        elif attr == "open" and _is_write_mode_call(call, 0):
            self.effects.append(Effect("io_write", line, ".open"))
        elif attr in STORE_MUTATION_ATTRS:
            self.effects.append(Effect("store_mutation", line, f".{attr}"))

    def _record_mutations(self, node: ast.AST) -> None:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            self._record_mutation_target(target, node)

    def _record_mutation_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._record_mutation_target(element, node)
            return
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self.effects.append(
                    Effect("global_mut", node.lineno, f"global {target.id}")
                )
            return
        # Subscript / attribute stores: find the base name.
        base = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if not isinstance(base, ast.Name):
            return
        root = base.id
        rendered = ast.unparse(target)
        if root in ("self", "cls"):
            return  # receiver-owned state is the caller's to mutate
        if root in self.global_decls or (
            root in self.module_level_names and root not in self.local_binds
            and root not in self.params
        ):
            self.effects.append(Effect("global_mut", node.lineno, rendered))
        elif root in self.params:
            self.effects.append(Effect("param_mut", node.lineno, rendered))

    def _record_rng_bind(self, node: ast.AST) -> None:
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            return
        kind = self._rng_constructor_kind(node.value)
        if kind is None:
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.rng_binds[target.id] = (node.lineno, kind)

    def _infer_var_type(self, node: ast.AST) -> None:
        """`v = ClassName(...)` pins v's class for method-call resolution."""
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            return
        func = node.value.func
        typed: Optional[str] = None
        if isinstance(func, ast.Name):
            if func.id in self.local_classes:
                typed = func.id
            else:
                alias = self.imports.aliases.get(func.id)
                if alias is not None and alias[:1].isalpha() and any(
                    part[:1].isupper() for part in alias.rsplit(".", 1)[-1:]
                ):
                    typed = alias
        elif isinstance(func, ast.Attribute):
            qualified = self.imports.qualify(func)
            if qualified is not None and qualified.rsplit(".", 1)[-1][:1].isupper():
                typed = qualified
        if typed is None:
            # Not a constructor: remember which callable produced the value
            # so `v = f(...); v.m()` resolves through f's return annotation.
            ref: Optional[str] = None
            if isinstance(func, ast.Name):
                ref = self.imports.aliases.get(func.id, func.id)
            elif isinstance(func, ast.Attribute):
                ref = self.imports.qualify(func)
            if ref is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.ret_binds[target.id] = ref
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.var_types[target.id] = typed

    def _collect_loop_rng_args(self, loop: ast.AST) -> None:
        loop_line = loop.lineno
        rebound_inside = _assigned_names(loop)
        for child in ast.walk(loop):
            if not isinstance(child, ast.Call):
                continue
            site = self._classify_call(child)
            if site is None:
                continue
            arg_names = [
                a.id for a in child.args if isinstance(a, ast.Name)
            ] + [
                k.value.id
                for k in child.keywords
                if isinstance(k.value, ast.Name)
            ]
            for name in arg_names:
                bound = self.rng_binds.get(name)
                if bound is None:
                    continue
                bound_line, _sanctioned = bound
                if bound_line < loop_line and name not in rebound_inside:
                    self.loop_rng_args.append(
                        LoopRngArg(
                            variable=name, bound_line=bound_line, call=site
                        )
                    )

    # -- driver ---------------------------------------------------------- #
    def run(self) -> None:
        # Two passes: bindings first (so a call on line N resolves against a
        # type assigned on line M > N too — good enough for lint purposes),
        # then calls/effects/mutations.
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            self._infer_var_type(node)
            self._record_rng_bind(node)
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Call):
                site = self._classify_call(node)
                if site is not None:
                    self.calls.append(site)
                self._record_effects(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._record_mutations(node)
            elif isinstance(node, (ast.For, ast.While)):
                self._collect_loop_rng_args(node)


def extract_file(ctx: FileContext) -> FileExtract:
    """Extract symbols, call sites and effect facts from one parsed file."""
    imports = ctx.imports
    module_level_names: Set[str] = set()
    local_classes: Set[str] = set()
    module_functions: Set[str] = set()
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            local_classes.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module_functions.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_level_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            module_level_names.add(node.target.id)

    extract = FileExtract(
        rel=ctx.rel,
        imports=dict(imports.aliases),
        suppressions={
            line: sorted(codes) for line, codes in ctx.suppressions.items()
        },
    )

    def extract_function(
        fn: "ast.FunctionDef | ast.AsyncFunctionDef", class_name: Optional[str]
    ) -> FunctionExtract:
        walker = _FunctionWalker(
            fn,
            class_name=class_name,
            imports=imports,
            module_level_names=module_level_names,
            local_classes=local_classes,
            module_functions=module_functions,
        )
        walker.run()
        local = f"{class_name}.{fn.name}" if class_name else fn.name
        return FunctionExtract(
            local=local,
            name=fn.name,
            line=fn.lineno,
            end_line=fn.end_lineno or fn.lineno,
            decorators=tuple(
                name
                for name in (_call_name(d) for d in fn.decorator_list)
                if name is not None
            ),
            params=tuple(walker.params),
            returns=_type_name(fn.returns, imports),
            calls=walker.calls,
            effects=walker.effects,
            loop_rng_args=walker.loop_rng_args,
        )

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract.functions.append(extract_function(node, None))
        elif isinstance(node, ast.ClassDef):
            attr_types: Dict[str, str] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    typed = _type_name(stmt.annotation, imports)
                    if typed is not None:
                        attr_types[stmt.target.id] = typed
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    extract.functions.append(extract_function(stmt, node.name))
                    # A property's return annotation types the attribute of
                    # the same name (`instance.graph` -> NetworkGraph).
                    decorators = {
                        _call_name(d) for d in stmt.decorator_list
                    }
                    if "property" in decorators or "cached_property" in decorators:
                        typed = _type_name(stmt.returns, imports)
                        if typed is not None:
                            attr_types[stmt.name] = typed
                    # `self.x: T = ...` in any method also types attribute x.
                    for child in ast.walk(stmt):
                        if (
                            isinstance(child, ast.AnnAssign)
                            and isinstance(child.target, ast.Attribute)
                            and isinstance(child.target.value, ast.Name)
                            and child.target.value.id == "self"
                        ):
                            typed = _type_name(child.annotation, imports)
                            if typed is not None:
                                attr_types[child.target.attr] = typed
            extract.classes.append(
                ClassExtract(
                    name=node.name,
                    line=node.lineno,
                    bases=tuple(
                        name
                        for name in (_call_name(b) for b in node.bases)
                        if name is not None
                    ),
                    attr_types=attr_types,
                )
            )
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            qualified = imports.qualify(node.value.func)
            name = _call_name(node.value.func)
            if qualified in RNG_CONSTRUCTOR_CALLS or name in SANCTIONED_RNG_FACTORIES:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        extract.module_rng_globals.append(
                            (target.id, node.lineno)
                        )
    return extract


def extract_source(rel: str, source: str) -> FileExtract:
    """Parse *source* and extract it (used when no FileContext exists yet)."""
    tree = ast.parse(source, filename=rel)
    ctx = FileContext(path=None, rel=rel, source=source, tree=tree)  # type: ignore[arg-type]
    return extract_file(ctx)


# --------------------------------------------------------------------------- #
# the resolved graph
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Symbol:
    """One resolved function in the project graph."""

    qual: str  # <root>.<module path>.<Class>.<func>
    rel: str
    local: str  # "func" or "Class.func"
    line: int


class CallGraph:
    """The project call graph: symbols, edges, and resolution machinery.

    Built from per-file extracts (fresh or cache-loaded); all resolution is
    deterministic and order-independent, so two builds over the same
    extracts produce identical edge sets — the golden tests pin this.
    """

    def __init__(self, root_name: str, extracts: Dict[str, FileExtract]) -> None:
        self.root_name = root_name
        self.extracts = extracts
        #: module dotted path (without root prefix) per rel
        self.module_of: Dict[str, str] = {}
        #: full dotted module (root-prefixed) -> rel
        self.rel_of_module: Dict[str, str] = {}
        self.symbols: Dict[str, Symbol] = {}
        self.functions: Dict[str, FunctionExtract] = {}
        #: (rel, ClassName) -> ClassExtract
        self.classes: Dict[Tuple[str, str], ClassExtract] = {}
        #: bare class name -> [rel, ...] (for annotation-by-name resolution)
        self._class_rels: Dict[str, List[str]] = {}
        self.edges: Dict[str, List[Tuple[str, int]]] = {}
        self.reverse_edges: Dict[str, Set[str]] = {}
        self.unresolved_calls = 0
        self.resolved_calls = 0
        self._build_tables()
        self._build_edges()

    # -- table construction --------------------------------------------- #
    @staticmethod
    def _rel_to_module(rel: str) -> str:
        parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def _build_tables(self) -> None:
        for rel, extract in sorted(self.extracts.items()):
            module = self._rel_to_module(rel)
            self.module_of[rel] = module
            full = f"{self.root_name}.{module}" if module else self.root_name
            self.rel_of_module[full] = rel
            for cls in extract.classes:
                self.classes[(rel, cls.name)] = cls
                self._class_rels.setdefault(cls.name, []).append(rel)
            for fn in extract.functions:
                qual = self.qualify(rel, fn.local)
                self.symbols[qual] = Symbol(
                    qual=qual, rel=rel, local=fn.local, line=fn.line
                )
                self.functions[qual] = fn

    def qualify(self, rel: str, local: str) -> str:
        module = self.module_of[rel]
        prefix = f"{self.root_name}.{module}" if module else self.root_name
        return f"{prefix}.{local}"

    # -- resolution ------------------------------------------------------ #
    def _resolve_class(
        self, rel: str, type_name: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        """(rel, ClassName) for a type string, seen from file *rel*."""
        if type_name is None:
            return None
        type_name = type_name.strip("'\"")
        if "." in type_name:
            module, _, cls = type_name.rpartition(".")
            target_rel = self.rel_of_module.get(module)
            if target_rel is not None and (target_rel, cls) in self.classes:
                return (target_rel, cls)
            # The dotted path may itself be module.Class.attr-free already;
            # fall through to bare-name matching on the last segment.
            type_name = cls
        if (rel, type_name) in self.classes:
            return (rel, type_name)
        rels = self._class_rels.get(type_name, [])
        if len(rels) == 1:
            return (rels[0], type_name)
        return None  # undefined or ambiguous: prove nothing

    def _method_symbol(
        self, rel: str, cls: str, method: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[str]:
        """The symbol for Class.method, following base classes by name."""
        seen = _seen or set()
        if (rel, cls) in seen:
            return None
        seen.add((rel, cls))
        qual = self.qualify(rel, f"{cls}.{method}")
        if qual in self.symbols:
            return qual
        extract = self.classes.get((rel, cls))
        if extract is None:
            return None
        for base in extract.bases:
            resolved = self._resolve_class(rel, base)
            if resolved is not None:
                found = self._method_symbol(*resolved, method, seen)
                if found is not None:
                    return found
        return None

    def _resolve_site(
        self, rel: str, caller: FunctionExtract, site: CallSite
    ) -> Optional[str]:
        extract = self.extracts[rel]
        if site.kind == "name":
            (name,) = site.data
            qual = self.qualify(rel, name)
            if qual in self.symbols:
                return qual
            resolved = self._resolve_class(rel, name)
            if resolved is not None and resolved[0] == rel and name not in extract.imports:
                return self._method_symbol(*resolved, "__init__")
            imported = extract.imports.get(name)
            if imported is not None:
                return self._resolve_dotted(imported)
            return None
        if site.kind == "qual":
            (dotted,) = site.data
            return self._resolve_dotted(dotted)
        if site.kind == "self":
            (method,) = site.data
            cls = caller.local.split(".", 1)[0]
            return self._method_symbol(rel, cls, method)
        if site.kind == "typed":
            type_name, method = site.data
            resolved = self._resolve_class(rel, type_name)
            if resolved is None:
                return None
            return self._method_symbol(*resolved, method)
        if site.kind == "ret":
            callable_ref, method = site.data
            if "." in callable_ref:
                producer = self._resolve_dotted(callable_ref)
            else:
                producer = self.qualify(rel, callable_ref)
                if producer not in self.symbols:
                    producer = None
            if producer is None:
                return None
            returns = self.functions[producer].returns
            target = self._resolve_class(self.symbols[producer].rel, returns)
            if target is None:
                return None
            return self._method_symbol(*target, method)
        if site.kind == "attr":
            type_name, attr, method = site.data
            resolved = self._resolve_class(rel, type_name)
            if resolved is None:
                return None
            attr_rel, attr_cls = resolved
            attr_type = self.classes[(attr_rel, attr_cls)].attr_types.get(attr)
            target = self._resolve_class(attr_rel, attr_type)
            if target is None:
                return None
            return self._method_symbol(*target, method)
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        """A fully qualified import path -> project symbol, if it is one."""
        parts = dotted.split(".")
        # Longest module prefix first: repro.a.b.C.m -> module repro.a.b,
        # symbol C.m; or module repro.a.b.c, symbol m.
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            rel = self.rel_of_module.get(module)
            if rel is None:
                continue
            local = ".".join(parts[cut:])
            qual = self.qualify(rel, local)
            if qual in self.symbols:
                return qual
            if len(parts) - cut == 1:
                # Bare class reference: route to the constructor.
                resolved = self._resolve_class(rel, local)
                if resolved is not None:
                    return self._method_symbol(*resolved, "__init__")
            if len(parts) - cut == 2:
                resolved = self._resolve_class(rel, parts[cut])
                if resolved is not None:
                    return self._method_symbol(*resolved, parts[cut + 1])
            return None
        return None

    def _build_edges(self) -> None:
        for qual, fn in sorted(self.functions.items()):
            rel = self.symbols[qual].rel
            out: List[Tuple[str, int]] = []
            for site in fn.calls:
                callee = self._resolve_site(rel, fn, site)
                if callee is None:
                    self.unresolved_calls += 1
                    continue
                self.resolved_calls += 1
                out.append((callee, site.line))
                self.reverse_edges.setdefault(callee, set()).add(qual)
            self.edges[qual] = out

    # -- queries ---------------------------------------------------------- #
    def resolve_call(
        self, rel: str, caller: FunctionExtract, site: CallSite
    ) -> Optional[str]:
        """Public resolution entry point for rules that hold raw call sites
        (e.g. the rng-reuse check resolving a loop body's callee)."""
        return self._resolve_site(rel, caller, site)

    def callees(self, qual: str) -> List[str]:
        return sorted({callee for callee, _ in self.edges.get(qual, [])})

    def edge_set(self) -> Set[Tuple[str, str]]:
        """Every (caller, callee) pair — what the golden test pins."""
        return {
            (caller, callee)
            for caller, out in self.edges.items()
            for callee, _ in out
        }

    def functions_matching(self, *patterns: str) -> List[str]:
        """Symbols whose file matches any fnmatch *pattern* (sorted)."""
        return sorted(
            qual
            for qual, sym in self.symbols.items()
            if any(
                fnmatch(sym.rel, pattern) or fnmatch(sym.rel, f"*/{pattern}")
                for pattern in patterns
            )
        )

    def decorated(self, *decorator_names: str) -> List[str]:
        """Symbols carrying any of the given decorator names (sorted)."""
        wanted = set(decorator_names)
        return sorted(
            qual
            for qual, fn in self.functions.items()
            if wanted.intersection(fn.decorators)
        )

    def file_dependencies(self) -> Dict[str, Set[str]]:
        """rel -> set of rels it depends on (imports and resolved calls)."""
        deps: Dict[str, Set[str]] = {rel: set() for rel in self.extracts}
        for rel, extract in self.extracts.items():
            for dotted in extract.imports.values():
                resolved = self._resolve_dotted(dotted)
                if resolved is not None:
                    deps[rel].add(self.symbols[resolved].rel)
                else:
                    # Module import: repro.utils.io -> utils/io.py
                    target = self.rel_of_module.get(dotted)
                    if target is None:
                        # `from repro.utils.io import X` qualifies X fully;
                        # peel trailing segments until a module matches.
                        parts = dotted.split(".")
                        for cut in range(len(parts) - 1, 0, -1):
                            target = self.rel_of_module.get(".".join(parts[:cut]))
                            if target is not None:
                                break
                    if target is not None:
                        deps[rel].add(target)
        for caller, out in self.edges.items():
            for callee, _ in out:
                deps[self.symbols[caller].rel].add(self.symbols[callee].rel)
        for rel in deps:
            deps[rel].discard(rel)
        return deps

    def reverse_file_closure(self, changed: Iterable[str]) -> Set[str]:
        """*changed* plus every file that (transitively) depends on one.

        This is the ``--diff`` lint scope: a change to ``utils/rng.py``
        re-lints every caller of its helpers, because an interface change
        there can create violations in files whose text did not change.
        """
        deps = self.file_dependencies()
        dependents: Dict[str, Set[str]] = {}
        for rel, targets in deps.items():
            for target in targets:
                dependents.setdefault(target, set()).add(rel)
        closure: Set[str] = set()
        frontier = [rel for rel in changed if rel in self.extracts]
        while frontier:
            rel = frontier.pop()
            if rel in closure:
                continue
            closure.add(rel)
            frontier.extend(dependents.get(rel, ()))
        return closure


# --------------------------------------------------------------------------- #
# the digest-keyed cache
# --------------------------------------------------------------------------- #
CACHE_SCHEMA = 1


def load_cache(path) -> Dict[str, Dict]:
    """The cache file's per-rel entries ({} on any mismatch or damage)."""
    import json
    from pathlib import Path

    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if doc.get("schema") != CACHE_SCHEMA or doc.get("extract_schema") != EXTRACT_SCHEMA:
        return {}
    files = doc.get("files")
    return files if isinstance(files, dict) else {}


def save_cache(path, entries: Dict[str, Dict]) -> None:
    """Persist per-rel extract entries atomically (the write discipline)."""
    from repro.utils.io import atomic_write_json

    atomic_write_json(
        path,
        {
            "schema": CACHE_SCHEMA,
            "extract_schema": EXTRACT_SCHEMA,
            "files": entries,
        },
        sort_keys=True,
    )
