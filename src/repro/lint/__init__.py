"""``repro.lint`` — AST-based determinism & discipline analysis.

The repository's reproducibility invariants (stateless seed derivation,
single sanctioned wall-clock site, relative float tolerances, atomic
temp+rename writes, plain-JSON boundaries, registry completeness, no
silent broad excepts, no internal use of deprecated shims) are enforced
mechanically by the rules in :mod:`repro.lint.rules`, driven by the
framework in :mod:`repro.lint.framework` and executed by
:func:`repro.lint.runner.run_lint`.

Since PR 9 the per-file rules are backed by an *interprocedural* layer:
:mod:`repro.lint.callgraph` builds a project-wide symbol table and call
graph (digest-cacheable per file), :mod:`repro.lint.dataflow` runs closure
queries over it, and :mod:`repro.lint.interproc` registers the graph-scoped
rules — R1xx seed flow, R203 atomic commit boundary, R3xx kernel purity
(which also emits the ``KERNEL_PURITY.json`` certificate).

Run it as ``repro lint`` (nonzero exit on findings) or programmatically::

    from repro.lint import run_lint
    result = run_lint()          # lints the installed repro package
    assert result.ok, [f.render() for f in result.findings]
    assert result.certificate["verdict"] == "pure"
"""

from repro.lint.callgraph import (
    CallGraph,
    FileExtract,
    extract_file,
    extract_source,
    source_digest,
)
from repro.lint.dataflow import effect_closure, format_chain, reachable
from repro.lint.framework import (
    FileContext,
    Finding,
    ProjectContext,
    RuleInfo,
    get_rule,
    register_rule,
    rule_codes,
    rule_table,
)
from repro.lint.interproc import build_certificate, kernel_roots, seed_roots
from repro.lint.report import (
    format_result,
    format_rule_table,
    result_to_json,
    write_certificate,
    write_lint_report,
)
from repro.lint.runner import (
    LintResult,
    changed_files,
    default_root,
    expand_selection,
    run_lint,
)
from repro.lint.rules import BUILTIN_RULES

__all__ = [
    "CallGraph",
    "FileExtract",
    "extract_file",
    "extract_source",
    "source_digest",
    "effect_closure",
    "format_chain",
    "reachable",
    "build_certificate",
    "kernel_roots",
    "seed_roots",
    "write_certificate",
    "changed_files",
    "expand_selection",
    "FileContext",
    "Finding",
    "ProjectContext",
    "RuleInfo",
    "get_rule",
    "register_rule",
    "rule_codes",
    "rule_table",
    "format_result",
    "format_rule_table",
    "result_to_json",
    "write_lint_report",
    "LintResult",
    "default_root",
    "run_lint",
    "BUILTIN_RULES",
]
