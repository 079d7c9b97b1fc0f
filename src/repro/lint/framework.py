"""The ``repro lint`` rule framework.

Five PRs of reproducibility discipline — stateless ``derive_seed``
addressing, byte-identical sweep resume, atomic temp+rename writes,
relative float tolerances, plain-JSON boundaries — live in this repository
as *conventions*.  This package encodes them as mechanical AST checks, the
same way :mod:`repro.scenarios.invariants` encodes runtime contracts as
differential invariants: a rule that cannot fire is a rule nobody needs to
remember.

Architecture
------------
* :class:`FileContext` — one parsed source file: source text, AST, resolved
  import aliases and the ``# repro-lint: allow[...]`` suppressions found in
  its comments.
* :class:`ProjectContext` — every file of a lint run, for cross-module
  checks (e.g. registry completeness).
* :func:`register_rule` — decorator registering a check under a stable
  ``R###`` code with a *file* or *project* scope and optional per-path
  exemptions (the one sanctioned module a rule's discipline funnels
  through).
* :class:`Finding` — one violation: rule code, file, position, message.

Suppressions
------------
A finding is suppressed by a ``# repro-lint: allow[R004]`` comment on the
same line (several codes separate with commas:
``# repro-lint: allow[R002,R007]``).  Suppressions are themselves checked:
one that suppresses nothing — a stale allow after the offending code moved
or was fixed — is reported as an ``R000`` *unused-suppression* finding, so
the allowlist can never silently rot.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

#: Code under which unused / unknown suppressions are reported.
UNUSED_SUPPRESSION = "R000"

#: Code under which unparseable files are reported (always active).
PARSE_ERROR = "E001"

_ALLOW_RE = re.compile(r"repro-lint:\s*allow\[([^\]]*)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation, sortable by (path, line, col, rule)."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ImportMap:
    """Resolves local names to fully qualified dotted module paths.

    Built once per file from its ``import`` / ``from ... import``
    statements; :meth:`qualify` then turns an attribute chain like
    ``np.random.default_rng`` (with ``import numpy as np``) into
    ``"numpy.random.default_rng"``.  Names bound by assignment, not import,
    resolve to ``None`` — the rules only judge what they can prove.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # `import numpy.random` binds the name `numpy`.
                        root = alias.name.split(".")[0]
                        self.aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports resolve within the package
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def qualify(self, node: ast.expr) -> Optional[str]:
        """Fully qualified dotted path of an attribute chain, if importable."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)]) if parts else base


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number → rule codes allowed on that line.

    Comments are located with :mod:`tokenize` (so the marker inside a string
    literal is never mistaken for a suppression).  Unknown codes are kept —
    the runner reports them as ``R000`` findings rather than ignoring them.
    """
    suppressions: Dict[int, Set[str]] = {}
    if "repro-lint" not in source:
        return suppressions  # most files have no marker: skip tokenizing
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if not match:
                continue
            codes = {
                code.strip() for code in match.group(1).split(",") if code.strip()
            }
            if codes:
                suppressions.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenizeError:  # pragma: no cover - ast parsed, so rare
        pass
    return suppressions


@dataclass
class FileContext:
    """One parsed file plus the per-file machinery every rule needs."""

    path: Path  #: absolute path on disk
    rel: str  #: posix path relative to the enclosing package root
    source: str
    tree: ast.Module
    imports: ImportMap = field(init=False)
    suppressions: Dict[int, Set[str]] = field(init=False)

    def __post_init__(self) -> None:
        self.imports = ImportMap(self.tree)
        self.suppressions = parse_suppressions(self.source)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """A :class:`Finding` anchored at *node*'s position in this file."""
        return Finding(
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


@dataclass
class ProjectContext:
    """Every file of one lint run — the input to project-scoped rules."""

    root: Path
    files: List[FileContext]

    def matching(self, pattern: str) -> List[FileContext]:
        """Files whose root-relative path matches *pattern* (fnmatch)."""
        from fnmatch import fnmatch

        return [
            ctx
            for ctx in self.files
            if fnmatch(ctx.rel, pattern) or fnmatch(ctx.rel, f"*/{pattern}")
        ]


#: File-scoped check: yields findings for one file.
FileCheck = Callable[[FileContext], Iterable[Finding]]
#: Project-scoped check: yields findings across the whole file set.
ProjectCheck = Callable[[ProjectContext], Iterable[Finding]]


@dataclass(frozen=True)
class RuleInfo:
    """One registered rule: code, scope, exemptions and provenance.

    ``rationale`` names the PR that established the invariant the rule
    encodes — the same provenance discipline as the invariant registry of
    :mod:`repro.scenarios.invariants`.
    """

    code: str
    name: str
    description: str
    rationale: str
    scope: str  # "file" | "project"
    check: Callable
    allowed_paths: Tuple[str, ...] = ()

    def exempts(self, rel: str) -> bool:
        """Whether *rel* is one of the rule's sanctioned modules."""
        return any(
            rel == allowed or rel.endswith(f"/{allowed}")
            for allowed in self.allowed_paths
        )


_RULES: Dict[str, RuleInfo] = {}


def register_rule(
    code: str,
    name: str,
    *,
    description: str,
    rationale: str = "",
    scope: str = "file",
    allowed_paths: Iterable[str] = (),
) -> Callable[[Callable], Callable]:
    """Decorator registering *check* under *code* (latest registration wins)."""
    if scope not in ("file", "project"):
        raise ValueError(f"rule scope must be 'file' or 'project', got {scope!r}")

    def decorator(check: Callable) -> Callable:
        _RULES[code] = RuleInfo(
            code=code,
            name=name,
            description=description,
            rationale=rationale,
            scope=scope,
            check=check,
            allowed_paths=tuple(allowed_paths),
        )
        return check

    return decorator


def get_rule(code: str) -> RuleInfo:
    """The registry entry for *code* (``ValueError`` with the catalogue if absent)."""
    try:
        return _RULES[code]
    except KeyError:
        raise ValueError(
            f"unknown lint rule {code!r}; registered rules: "
            + ", ".join(sorted(_RULES))
        ) from None


def rule_codes() -> Tuple[str, ...]:
    """Sorted codes of every registered rule."""
    return tuple(sorted(_RULES))


def rule_table() -> Tuple[RuleInfo, ...]:
    """All registry entries sorted by code (for the CLI and the README)."""
    return tuple(_RULES[code] for code in rule_codes())
