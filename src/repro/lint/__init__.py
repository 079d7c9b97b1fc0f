"""``repro lint`` — AST-based determinism & discipline analysis.

The repository's reproducibility invariants (stateless seed derivation and
no module-level rng state, single sanctioned wall-clock site, relative
float tolerances, atomic temp+rename writes, plain-JSON boundaries,
registry completeness, no silent broad excepts, bounded retries, one
solver-engine layer) are enforced mechanically by the nine rules in
:mod:`repro.lint.rules`, driven by the framework in
:mod:`repro.lint.framework` and executed by :func:`repro.lint.runner.run_lint`.
Every rule is per-file except registry completeness (R006), which sees the
whole package at once.

Run it as ``repro lint`` (nonzero exit on findings) or programmatically::

    from repro.lint import run_lint
    result = run_lint()          # lints the installed repro package
    assert result.ok, [f.render() for f in result.findings]
"""

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
from repro.lint.report import (
    format_result,
    format_rule_table,
    result_to_json,
    write_lint_report,
)
from repro.lint.runner import LintResult, default_root, run_lint
from repro.lint.rules import BUILTIN_RULES

__all__ = [
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
