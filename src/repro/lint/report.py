"""Lint report rendering: CLI text, machine-readable JSON, LINT_*.json.

``LINT_<date>.json`` joins the ``VERIFY_*.json`` report family: stamped
through :func:`repro.utils.timing.report_stamp`, written atomically through
:func:`repro.utils.io.atomic_write_json`, and uploaded by the CI lint job
as an artifact.  A schema 2 document carries ``rules``, ``findings``,
``summary`` and ``timings`` (``read_parse``, ``rules``, ``total``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.lint.framework import rule_table
from repro.lint.runner import LintResult
from repro.utils.io import atomic_write_json
from repro.utils.timing import file_stamp, report_stamp

SCHEMA_VERSION = 2


def result_to_json(result: LintResult) -> Dict:
    """The JSON document for *result* (what ``--format json`` prints)."""
    return {
        "schema": SCHEMA_VERSION,
        "created": report_stamp(),
        "root": str(result.root),
        "files_checked": result.files_checked,
        "rules": [
            {
                "code": info.code,
                "name": info.name,
                "scope": info.scope,
                "description": info.description,
                "rationale": info.rationale,
                "allowed_paths": list(info.allowed_paths),
            }
            for info in rule_table()
            if info.code in result.rules_run
        ],
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
            }
            for finding in result.findings
        ],
        "summary": {
            "findings": len(result.findings),
            "by_rule": result.by_rule(),
            "suppressions_used": result.suppressions_used,
            "ok": result.ok,
        },
        "timings": {
            stage: round(seconds, 6)
            for stage, seconds in result.timings.items()
        },
    }


def write_lint_report(result: LintResult, output: str | Path = ".") -> Path:
    """Write the JSON report; *output* may be a directory or a ``.json`` path."""
    path = Path(output)
    if path.suffix != ".json":
        path = path / f"LINT_{file_stamp()}.json"
    return atomic_write_json(path, result_to_json(result))


def format_result(result: LintResult) -> str:
    """Human-readable lint output (one line per finding plus a summary)."""
    lines: List[str] = [finding.render() for finding in result.findings]
    if lines:
        lines.append("")
    by_rule = ", ".join(
        f"{rule}:{count}" for rule, count in result.by_rule().items()
    )
    suppressed = (
        f", {result.suppressions_used} finding(s) suppressed"
        if result.suppressions_used
        else ""
    )
    verdict = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    detail = f" [{by_rule}]" if by_rule else ""
    lines.append(
        f"repro lint: {result.files_checked} files, "
        f"{len(result.rules_run)} rules -> {verdict}{detail}{suppressed}"
    )
    return "\n".join(lines)


def format_rule_table() -> str:
    """The rule catalogue (``repro lint --list-rules``)."""
    lines: List[str] = []
    for info in rule_table():
        exempt = (
            f" (sanctioned: {', '.join(info.allowed_paths)})"
            if info.allowed_paths
            else ""
        )
        lines.append(f"{info.code} {info.name} [{info.scope}]{exempt}")
        lines.append(f"     {info.description}")
        if info.rationale:
            lines.append(f"     rationale: {info.rationale}")
    lines.append(
        "R000 unused-suppression: an allow[...] comment that suppresses "
        "nothing is itself a finding"
    )
    lines.append(
        'suppression syntax: trailing comment "# repro-lint: allow[R004]" '
        "(comma-separate several codes)"
    )
    return "\n".join(lines)
