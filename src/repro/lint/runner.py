"""Lint execution: walk a tree, run the rules, apply suppressions.

:func:`run_lint` is the single entry point the CLI and the tests use.  It
returns a :class:`LintResult` whose findings are already suppression-
filtered, augmented with ``R000`` unused-suppression findings and sorted —
the CLI only formats and exits.

Every file is read and parsed exactly once into a
:class:`~repro.lint.framework.FileContext`; the same parsed tree feeds the
file-scoped rules, the project-scoped rules and the suppression pass.
``LintResult.timings`` records where the time went; the numbers land in
``LINT_<date>.json`` so a slow lint run is a diagnosable artifact, not an
anecdote.

Finding paths are relative to the *enclosing package root*, whatever the
target: linting ``src/repro/utils`` or ``src/repro/utils/io.py`` reports
``utils/io.py``, so each rule's sanctioned-module exemption applies to a
subpackage or single-file target exactly as to the whole tree.
Project-scoped rules (registry completeness) need every registration, so
they run only when the target is the whole package.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint import rules as _rules  # noqa: F401 - registers the built-ins
from repro.lint.framework import (
    PARSE_ERROR,
    UNUSED_SUPPRESSION,
    FileContext,
    Finding,
    ProjectContext,
    get_rule,
    rule_codes,
)


def default_root() -> Path:
    """The installed ``repro`` package directory — what ``repro lint`` checks."""
    import repro

    return Path(repro.__file__).resolve().parent


def package_root(target: Path) -> Path:
    """The top of the package enclosing *target* (a directory or a file).

    Climbs from the target while the parent directory is itself a package
    (has an ``__init__.py``); a target outside any package is its own root.
    """
    root = target if target.is_dir() else target.parent
    while (root.parent / "__init__.py").exists():
        root = root.parent
    return root


def iter_python_files(root: Path) -> List[Path]:
    """Every ``.py`` file under *root* (sorted; ``__pycache__`` skipped)."""
    if root.is_file():
        return [root]
    return sorted(
        path
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    )


@dataclass
class LintResult:
    """Outcome of one lint run (already filtered and sorted)."""

    root: Path
    findings: List[Finding]
    files_checked: int
    rules_run: Tuple[str, ...]
    suppressions_used: int = 0
    #: Seconds per stage: read_parse, rules, total.
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def _build_contexts(
    base: Path, files: Sequence[Path]
) -> Tuple[List[FileContext], List[Finding]]:
    contexts: List[FileContext] = []
    parse_failures: List[Finding] = []
    for path in files:
        rel = path.relative_to(base).as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            parse_failures.append(
                Finding(
                    path=rel,
                    line=int(line),
                    col=1,
                    rule=PARSE_ERROR,
                    message=f"could not parse file: {exc}",
                )
            )
            continue
        contexts.append(FileContext(path=path, rel=rel, source=source, tree=tree))
    return contexts, parse_failures


def run_lint(
    root: Optional[str | Path] = None,
    *,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint *root* (default: the installed ``repro`` package).

    Parameters
    ----------
    root:
        Directory (or single file) to analyze.
    select:
        Exact rule codes to run (default: all registered rules; ``R000``
        and ``E001`` may be named too).  Unknown codes raise
        ``ValueError`` with the catalogue.

    Returns
    -------
    LintResult
        Suppression-filtered findings (sorted by path/line/col/rule) plus
        ``R000`` findings for suppressions that matched nothing — a stale
        ``allow[...]`` is itself a finding, so the allowlist cannot rot.
    """
    started = time.perf_counter()
    root = Path(root) if root is not None else default_root()
    if not root.exists():
        raise ValueError(f"lint target {root} does not exist")
    if select is not None:
        chosen = tuple(dict.fromkeys(select))
        if not chosen:
            raise ValueError("select must name at least one rule")
    else:
        chosen = rule_codes()
    meta = (UNUSED_SUPPRESSION, PARSE_ERROR)
    infos = [get_rule(code) for code in chosen if code not in meta]
    target = root.resolve()
    base = package_root(target)
    if target != base:
        # Project-scoped rules need every registration in the package.
        infos = [info for info in infos if info.scope == "file"]
    ran = {info.code for info in infos}

    # ---- read + parse (once, shared by every rule) ------------------------ #
    t0 = time.perf_counter()
    files = iter_python_files(target)
    contexts, findings = _build_contexts(base, files)
    by_rel = {ctx.rel: ctx for ctx in contexts}
    project = ProjectContext(root=base, files=contexts)
    read_parse_seconds = time.perf_counter() - t0

    # ---- rules ------------------------------------------------------------ #
    t0 = time.perf_counter()
    raw: List[Finding] = []
    for info in infos:
        if info.scope == "project":
            raw.extend(info.check(project))
            continue
        for ctx in contexts:
            if not info.exempts(ctx.rel):
                raw.extend(info.check(ctx))
    rules_seconds = time.perf_counter() - t0

    # Apply suppressions: an allow[CODE] comment on the finding's line
    # silences it and marks the suppression as consumed.
    consumed: Set[Tuple[str, int, str]] = set()
    for finding in raw:
        ctx = by_rel.get(finding.path)
        allowed = ctx.suppressions.get(finding.line, set()) if ctx else set()
        if finding.rule in allowed:
            consumed.add((finding.path, finding.line, finding.rule))
        else:
            findings.append(finding)

    # Report unused (or unknown-code) suppressions, unless R000 itself was
    # deselected.  A suppression for a rule that did not run (outside the
    # selection, or project-scoped on a partial target) is not "unused" —
    # it had no chance to match.
    registered = set(rule_codes())
    if UNUSED_SUPPRESSION in chosen or select is None:
        for ctx in contexts:
            for line, codes in sorted(ctx.suppressions.items()):
                for code in sorted(codes):
                    if code in registered and code not in ran:
                        continue
                    if (ctx.rel, line, code) in consumed:
                        continue
                    reason = (
                        "suppresses nothing on this line"
                        if code in registered
                        else "names an unknown rule"
                    )
                    findings.append(
                        Finding(
                            path=ctx.rel,
                            line=line,
                            col=1,
                            rule=UNUSED_SUPPRESSION,
                            message=(
                                f"unused suppression: allow[{code}] {reason}; "
                                "remove the stale comment"
                            ),
                        )
                    )

    return LintResult(
        root=root,
        findings=sorted(findings),
        files_checked=len(files),
        rules_run=tuple(code for code in chosen if code in ran or code in meta),
        suppressions_used=len(consumed),
        timings={
            "read_parse": read_parse_seconds,
            "rules": rules_seconds,
            "total": time.perf_counter() - started,
        },
    )
