"""Text rendering of experiment results.

The paper's figures are bar charts; this module prints the same numbers as
aligned text tables (one row per algorithm series, one column per workload)
plus the qualitative "shape checks" the reproduction cares about (who wins,
by roughly what factor).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import figures as F
from repro.experiments.runner import ExperimentResult

#: Human-readable labels for the algorithm series (matching the paper's legends).
SERIES_LABELS: Dict[str, str] = {
    F.SERIES_LP_BOUND: "Time indexed LP (lower bound)",
    F.SERIES_HEURISTIC: "Heuristic (lambda = 1.0)",
    F.SERIES_BEST_LAMBDA: "Best lambda",
    F.SERIES_AVERAGE_LAMBDA: "Average lambda",
    F.SERIES_INTERVAL_LP_BOUND: "Time interval LP (lower bound)",
    F.SERIES_INTERVAL_HEURISTIC: "Interval heuristic (lambda = 1.0)",
    F.SERIES_JAHANJOU: "Jahanjou et al.",
    F.SERIES_TERRA: "Terra",
    F.SERIES_FIFO: "FIFO",
    F.SERIES_WSJF: "Weighted SJF",
    F.SERIES_STRETCH_NO_COMPACTION: "Average lambda (no compaction)",
    F.SERIES_SINCRONIA: "Sincronia-style BSSI",
    "lp_variables": "LP variables",
    "lp_solve_seconds": "LP solve seconds",
}


def _format_value(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def format_result_table(
    result: ExperimentResult,
    *,
    series: Optional[Sequence[str]] = None,
    include_ratios: bool = True,
) -> str:
    """Render an experiment result as an aligned text table.

    One column per workload (or sweep point), one row per series; optionally
    followed by ratio-to-LP-bound rows, which is how the reproduction is
    compared against the paper (absolute values depend on the synthetic
    trace scale, ratios do not).
    """
    config = result.config
    columns = list(result.values.keys())
    if series is None:
        requested: List[str] = []
        for s in config.series:
            if any(s in result.values[c] for c in columns):
                requested.append(s)
        # Include any extra series the runner recorded (e.g. LP sizes).
        for c in columns:
            for s in result.values[c]:
                if s not in requested:
                    requested.append(s)
    else:
        requested = list(series)

    label_width = max(
        [len(SERIES_LABELS.get(s, s)) for s in requested] + [len("series")]
    )
    col_width = max([len(c) for c in columns] + [12])

    lines = []
    lines.append(f"{config.experiment_id}: {config.title}")
    lines.append(f"objective: {config.objective_name} (less is better)")
    header = "series".ljust(label_width) + " | " + " | ".join(
        c.rjust(col_width) for c in columns
    )
    lines.append(header)
    lines.append("-" * len(header))
    for s in requested:
        label = SERIES_LABELS.get(s, s)
        row = [label.ljust(label_width)]
        cells = []
        for c in columns:
            value = result.values[c].get(s)
            cells.append(
                _format_value(value).rjust(col_width) if value is not None else "-".rjust(col_width)
            )
        lines.append(row[0] + " | " + " | ".join(cells))

    if include_ratios and F.SERIES_LP_BOUND in requested:
        lines.append("")
        lines.append("ratio to the LP lower bound:")
        for s in requested:
            if s == F.SERIES_LP_BOUND or s not in SERIES_LABELS:
                continue
            ratios = result.ratio_to(s, F.SERIES_LP_BOUND)
            if not ratios:
                continue
            label = SERIES_LABELS.get(s, s)
            cells = [
                f"{ratios[c]:.2f}x".rjust(col_width) if c in ratios else "-".rjust(col_width)
                for c in columns
            ]
            lines.append(label.ljust(label_width) + " | " + " | ".join(cells))
    return "\n".join(lines)


#: Slotted schedules, which the slotted time-indexed LP bounds from below.
#: The continuous-time baselines (Terra, FIFO, weighted SJF) may dip below
#: it because they are not restricted to slot boundaries.
_SLOTTED_SERIES = (
    F.SERIES_HEURISTIC,
    F.SERIES_BEST_LAMBDA,
    F.SERIES_AVERAGE_LAMBDA,
    F.SERIES_STRETCH_NO_COMPACTION,
    F.SERIES_JAHANJOU,
)

#: Relative slack for comparisons between objectives that may tie exactly.
_TIE = 1e-6


def summarize_shape_checks(result: ExperimentResult) -> Dict[str, bool]:
    """The paper's qualitative findings, checked on one experiment.

    Returns one named boolean per check.  A check is present when at least
    one column carries every series it reads, and it must hold on each such
    column.  ``repro experiment`` and ``examples/reproduce_figures.py`` exit
    with status 1 when any check fails.

    * ``lp_is_lower_bound`` — every slotted series (the heuristic, best,
      average and no-compaction λ of Stretch, Jahanjou et al.) is at least
      the LP bound;
    * ``heuristic_close_to_bound`` — the λ = 1 heuristic is within 1.5× of
      the bound;
    * ``heuristic_is_best_lambda`` — the heuristic is no worse than the
      best sampled λ (the paper finds λ = 1 the best choice);
    * ``average_lambda_within_2x`` — the average over the sampled λ, an
      estimate of the expectation Theorem 4.4 bounds, is at most 2× the
      bound;
    * ``heuristic_beats_jahanjou`` — single path (Figs. 9–10): the heuristic
      improves on Jahanjou et al.;
    * ``terra_competitive`` — Figs. 11–12: Terra is at most 1.5× the
      heuristic and the heuristic at most 2× Terra ("close to what Terra
      gets");
    * ``interval_lp_is_lower_bound`` — the interval-indexed heuristic is at
      least its own LP bound (Figs. 8–10);
    * ``lp_shrinks_with_epsilon`` — Fig. 8: the LP's variable count never
      grows with ε;
    * ``coarse_epsilon_costs_quality`` — Fig. 8: the heuristic at the
      coarsest ε is 1× to 5× the heuristic at the finest;
    * ``heuristic_competitive_with_fifo`` — the heuristic is at most 1.1×
      FIFO;
    * ``greedy_above_half_bound`` — FIFO and weighted SJF are at least half
      the LP bound.
    """
    rows = list(result.values.values())
    checks: Dict[str, bool] = {}

    def check(
        name: str, reads: Sequence[str], holds: Callable[[Dict[str, float]], bool]
    ) -> None:
        applicable = [row for row in rows if all(s in row for s in reads)]
        if applicable:
            checks[name] = all(holds(row) for row in applicable)

    bound, heuristic = F.SERIES_LP_BOUND, F.SERIES_HEURISTIC
    best, average = F.SERIES_BEST_LAMBDA, F.SERIES_AVERAGE_LAMBDA
    interval_bound = F.SERIES_INTERVAL_LP_BOUND
    interval_heuristic = F.SERIES_INTERVAL_HEURISTIC
    jahanjou, terra = F.SERIES_JAHANJOU, F.SERIES_TERRA
    fifo, wsjf = F.SERIES_FIFO, F.SERIES_WSJF

    check(
        "lp_is_lower_bound",
        [bound],
        lambda r: all(
            r[bound] <= r[s] * (1 + _TIE) for s in _SLOTTED_SERIES if s in r
        ),
    )
    check(
        "heuristic_close_to_bound",
        [bound, heuristic],
        lambda r: r[heuristic] <= 1.5 * r[bound],
    )
    check(
        "heuristic_is_best_lambda",
        [heuristic, best],
        lambda r: r[heuristic] <= r[best] * (1 + _TIE),
    )
    check(
        "average_lambda_within_2x",
        [bound, average],
        lambda r: r[average] <= 2.0 * r[bound],
    )
    check(
        "heuristic_beats_jahanjou",
        [heuristic, jahanjou],
        lambda r: r[heuristic] < r[jahanjou],
    )
    check(
        "terra_competitive",
        [heuristic, terra],
        lambda r: r[terra] <= 1.5 * r[heuristic] and r[heuristic] <= 2.0 * r[terra],
    )
    check(
        "interval_lp_is_lower_bound",
        [interval_bound, interval_heuristic],
        lambda r: r[interval_bound] <= r[interval_heuristic] * (1 + _TIE),
    )
    check(
        "heuristic_competitive_with_fifo",
        [heuristic, fifo],
        lambda r: r[heuristic] <= 1.1 * r[fifo],
    )
    check(
        "greedy_above_half_bound",
        [bound, fifo, wsjf],
        lambda r: min(r[fifo], r[wsjf]) >= 0.5 * r[bound],
    )
    if result.config.epsilon_values and rows:
        # Fig. 8: one column per ε, labelled "eps=<value>"; finest ε first.
        sweep = [
            result.values[column]
            for column in sorted(
                result.values, key=lambda c: float(c.split("=", 1)[1])
            )
        ]
        variables = [row["lp_variables"] for row in sweep]
        checks["lp_shrinks_with_epsilon"] = all(
            finer >= coarser for finer, coarser in zip(variables, variables[1:])
        )
        finest = sweep[0][interval_heuristic]
        coarsest = sweep[-1][interval_heuristic]
        checks["coarse_epsilon_costs_quality"] = (
            finest * (1 - _TIE) <= coarsest <= 5.0 * finest
        )
    return checks
