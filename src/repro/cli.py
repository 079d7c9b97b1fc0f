"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Eleven commands cover the common workflows without writing any Python:

``topologies``
    List the built-in WAN topologies with their sizes.
``algorithms``
    List every algorithm registered in :mod:`repro.api` with its
    capability flags.
``generate``
    Generate a synthetic benchmark workload and write it to a JSON trace.
``solve``
    Load an instance (JSON trace produced by ``generate`` or
    ``CoflowInstance.save_json``) and schedule it with any registered
    algorithm.
``batch``
    Solve several traces with several algorithms at once, optionally across
    worker processes (the :func:`repro.api.solve_many` runner).
``experiment``
    Run one of the paper-figure experiments and print its table (optionally
    exporting CSV/JSON).
``verify``
    Run the differential-verification harness (:mod:`repro.scenarios`):
    sample scenarios across every registered family, run every registered
    algorithm on each, and cross-check the invariant suite against the
    library's oracles.  Writes a machine-readable ``VERIFY_<date>.json``.
``sweep``
    Run (or resume) a sharded parameter sweep described by a JSON spec
    file through the persistent result store
    (:mod:`repro.experiments.sweep` / :mod:`repro.store`): completed units
    are checkpointed per chunk, interrupted sweeps resume exactly, and a
    completed sweep re-runs with zero new LP solves.
``online``
    Run an online scheduling policy (:mod:`repro.online`) over a trace or
    a scenario address, event by event, and compare it against the
    clairvoyant offline schedule.
``scenarios``
    ``scenarios convert-fb`` converts a public Facebook-format coflow trace
    (:mod:`repro.workloads.fbtrace`) into the library's JSON trace format.
    Scenarios themselves are run, selected and replayed by ``verify``.
``lint``
    Run the AST-based determinism & discipline analyzer (:mod:`repro.lint`)
    over the library source: raw entropy and rng construction, wall-clock
    reads, float ``==``, non-atomic writes, numpy-at-the-JSON-boundary,
    registry completeness, silent broad excepts, bare sleeps and direct
    solver-engine calls are all mechanical findings.  Writes a
    machine-readable ``LINT_<date>.json`` with ``--output``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.api import (
    SolverConfig,
    algorithm_table,
    available_algorithms,
    solve,
    solve_many,
)
from repro.coflow.instance import CoflowInstance
from repro.experiments.export import write_csv, write_json
from repro.experiments.figures import ALL_EXPERIMENTS, get_experiment
from repro.experiments.reporting import format_result_table, summarize_shape_checks
from repro.experiments.runner import run_experiment
from repro.network.topologies import gscale_topology, named_topology, swan_topology
from repro.workloads.generator import WorkloadSpec, generate_instance
from repro.workloads.profiles import BENCHMARK_NAMES


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Near Optimal Coflow Scheduling in Networks — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topologies", help="list the built-in topologies")

    sub.add_parser("algorithms", help="list the registered solver algorithms")

    gen = sub.add_parser("generate", help="generate a synthetic workload trace")
    gen.add_argument("output", help="path of the JSON trace to write")
    gen.add_argument("--workload", choices=BENCHMARK_NAMES, default="FB")
    gen.add_argument("--topology", default="swan")
    gen.add_argument("--model", choices=["free_path", "single_path"], default="free_path")
    gen.add_argument("--num-coflows", type=int, default=12)
    gen.add_argument("--demand-scale", type=float, default=1.5)
    gen.add_argument("--unweighted", action="store_true")
    gen.add_argument("--seed", type=int, default=2019)

    solve_cmd = sub.add_parser("solve", help="schedule an instance from a JSON trace")
    solve_cmd.add_argument(
        "trace", help="instance JSON written by `generate` or save_json"
    )
    solve_cmd.add_argument(
        "--algorithm", choices=available_algorithms(), default="lp-heuristic"
    )
    solve_cmd.add_argument("--num-samples", type=int, default=10)
    solve_cmd.add_argument("--slot-length", type=float, default=1.0)
    solve_cmd.add_argument("--epsilon", type=float, default=None)
    solve_cmd.add_argument("--solver-method", default="highs")
    solve_cmd.add_argument("--seed", type=int, default=0)

    batch = sub.add_parser(
        "batch", help="solve several traces with several algorithms in parallel"
    )
    batch.add_argument("traces", nargs="+", help="instance JSON traces")
    batch.add_argument(
        "--algorithms",
        default="lp-heuristic",
        help="comma-separated registered algorithm names",
    )
    batch.add_argument("--parallel", type=int, default=1, help="worker processes")
    batch.add_argument("--num-samples", type=int, default=10)
    batch.add_argument("--slot-length", type=float, default=1.0)
    batch.add_argument("--epsilon", type=float, default=None)
    batch.add_argument("--solver-method", default="highs")
    batch.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run a paper-figure experiment")
    exp.add_argument("experiment_id", choices=sorted(ALL_EXPERIMENTS))
    exp.add_argument("--scale", type=float, default=1.0)
    exp.add_argument("--csv", help="optional CSV output path")
    exp.add_argument("--json", help="optional JSON output path")
    exp.add_argument(
        "--store",
        default=None,
        help="result-store directory: cache the deterministic per-algorithm "
        "series so repeated runs skip solved series",
    )

    verify = sub.add_parser(
        "verify",
        help="differentially verify every algorithm on sampled scenarios",
    )
    verify.add_argument(
        "--budget", type=int, default=20, help="number of scenarios to sample"
    )
    verify.add_argument("--seed", type=int, default=0, help="root scenario seed")
    verify.add_argument(
        "--family",
        action="append",
        dest="families",
        help="sample only this scenario family (repeatable); default: all",
    )
    verify.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated algorithm names (default: every registered one)",
    )
    verify.add_argument(
        "--invariant",
        action="append",
        dest="invariants",
        help="check only this invariant (repeatable); default: all",
    )
    verify.add_argument(
        "--output",
        default=".",
        help="directory (or .json file path) for the VERIFY report (default: .)",
    )
    verify.add_argument(
        "--list-families",
        action="store_true",
        help="list the registered scenario families and invariants, then exit",
    )
    verify.add_argument(
        "--store",
        default=None,
        help="result-store directory: cache per-scenario blocks so an "
        "interrupted verification resumes and a repeated one is free",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run (or resume) a sharded sweep through the result store",
    )
    sweep.add_argument("spec", help="sweep spec JSON (see repro.experiments.sweep)")
    sweep.add_argument(
        "--store",
        default=".repro-store",
        help="result-store directory (default: .repro-store)",
    )
    sweep.add_argument(
        "--parallel", type=int, default=1, help="worker processes per chunk"
    )
    sweep.add_argument(
        "--shards",
        type=int,
        default=None,
        help="override the spec's chunk count (never changes results)",
    )
    sweep.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        help="execute at most this many chunks, then stop (resume later); "
        "fully cached chunks are free and do not count",
    )
    sweep.add_argument(
        "--status",
        action="store_true",
        help="report store coverage of the sweep without solving anything",
    )

    online = sub.add_parser(
        "online",
        help="run an online scheduling policy over a trace or scenario",
    )
    online.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="instance JSON trace; omit when using --family",
    )
    online.add_argument(
        "--family",
        default=None,
        help="scenario family to stream instead of a trace "
        "(e.g. online-poisson; see `repro verify --list-families`)",
    )
    online.add_argument(
        "--index", type=int, default=0, help="scenario index within the family"
    )
    online.add_argument(
        "--root-seed", type=int, default=0, help="scenario root seed"
    )
    online.add_argument(
        "--policy",
        choices=["batch", "batch-wc", "resolve", "wsjf"],
        default="batch",
        help="online policy: geometric batching, work-conserving batching, "
        "incremental re-solve, or the static WSJF baseline",
    )
    online.add_argument(
        "--base",
        type=float,
        default=None,
        help="epoch growth factor (> 1); default 2.0",
    )
    online.add_argument(
        "--offline-algorithm",
        default="lp-heuristic",
        help="offline algorithm the batching policies delegate batches to",
    )
    online.add_argument("--slot-length", type=float, default=1.0)
    online.add_argument("--seed", type=int, default=0)
    online.add_argument(
        "--compare-offline",
        action="store_true",
        help="also solve the clairvoyant offline problem and report the "
        "competitive ratio",
    )

    scen = sub.add_parser(
        "scenarios", help="trace tooling: the Facebook trace converter"
    )
    scen_sub = scen.add_subparsers(dest="scenarios_command", required=True)

    scen_fb = scen_sub.add_parser(
        "convert-fb", help="convert a Facebook-format coflow trace to JSON"
    )
    scen_fb.add_argument("src", help="Facebook-format text trace")
    scen_fb.add_argument("out", help="JSON trace to write")
    scen_fb.add_argument(
        "--demand-scale", type=float, default=1.0, help="size multiplier (trace is MB)"
    )
    scen_fb.add_argument(
        "--time-scale",
        type=float,
        default=1e-3,
        help="arrival-stamp multiplier (trace is ms; default converts to s)",
    )
    scen_fb.add_argument(
        "--max-coflows",
        type=int,
        default=None,
        help="truncate the corpus after this many coflows",
    )

    lint = sub.add_parser(
        "lint",
        help="run the AST-based determinism & discipline analyzer",
    )
    lint.add_argument(
        "path",
        nargs="?",
        default=None,
        help="directory or file to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format on stdout",
    )
    lint.add_argument(
        "--output",
        default=None,
        help="also write a machine-readable LINT_<date>.json report "
        "(directory or .json path)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (e.g. R003,R007; default: "
        "all rules)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    return parser


def _cmd_topologies(out) -> int:
    for name, graph in (("swan", swan_topology()), ("gscale", gscale_topology())):
        print(
            f"{name:<8s} {graph.name:<10s} nodes={graph.num_nodes:<3d} "
            f"directed edges={graph.num_edges:<3d} "
            f"total capacity={graph.total_capacity():g}",
            file=out,
        )
    print(
        "helper topologies: paper-example, figure-1, star, line, ring, "
        "parallel-edges, switch-fabric (see repro.network.topologies)",
        file=out,
    )
    return 0


def _cmd_generate(args, out) -> int:
    graph = named_topology(args.topology)
    spec = WorkloadSpec(
        profile=args.workload,
        num_coflows=args.num_coflows,
        weighted=not args.unweighted,
        demand_scale=args.demand_scale,
        seed=args.seed,
    )
    instance = generate_instance(graph, spec, model=args.model, rng=args.seed)
    instance.save_json(args.output)
    print(
        f"wrote {instance.num_coflows} coflows / {instance.num_flows} flows "
        f"({args.workload} on {graph.name}, {args.model}) to {args.output}",
        file=out,
    )
    return 0


def _cmd_algorithms(out) -> int:
    for info in algorithm_table():
        models = ",".join(m.value for m in info.supported_models)
        flags = []
        if info.uses_shared_lp:
            flags.append("shared-lp")
        if info.randomized:
            flags.append("randomized")
        if info.online:
            flags.append("online")
        rendered_flags = f" [{', '.join(flags)}]" if flags else ""
        print(f"{info.name:<16s} models={models:<22s}{rendered_flags}", file=out)
        if info.description:
            print(f"{'':<16s} {info.description}", file=out)
    return 0


def _cmd_solve(args, out) -> int:
    instance = CoflowInstance.load_json(args.trace)
    try:
        report = solve(
            instance,
            args.algorithm,
            slot_length=args.slot_length,
            epsilon=args.epsilon,
            rng=args.seed,
            num_samples=args.num_samples,
            solver_method=args.solver_method,
        )
    except ValueError as exc:  # model mismatch, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bound = "n/a" if report.lower_bound is None else f"{report.lower_bound:.3f}"
    gap = "n/a" if report.lower_bound is None else f"{report.gap:.3f}x"
    print(f"instance          : {instance}", file=out)
    print(f"algorithm         : {report.algorithm}", file=out)
    if report.lp_solution is not None:
        lp_result = report.lp_solution.lp_result
        metadata = report.lp_solution.metadata
        iterations = (
            ""
            if lp_result.simplex_iterations is None
            else f", {lp_result.simplex_iterations} it"
        )
        print(
            f"LP solve          : {report.lp_solution.grid.num_slots} of "
            f"{metadata['requested_slots']} slots, "
            f"{len(metadata['horizon_rounds'])} rounds, "
            f"{lp_result.solve_seconds:.3f}s{iterations}",
            file=out,
        )
    print(f"LP lower bound    : {bound}", file=out)
    print(f"objective         : {report.objective:.3f}", file=out)
    print(f"gap to bound      : {gap}", file=out)
    for coflow, time in zip(instance.coflows, report.coflow_completion_times):
        name = coflow.name or "coflow"
        print(f"  {name:<20s} weight {coflow.weight:8.2f}  C = {time:g}", file=out)
    return 0


def _cmd_batch(args, out) -> int:
    algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    instances = [CoflowInstance.load_json(path) for path in args.traces]
    config = SolverConfig(
        slot_length=args.slot_length,
        epsilon=args.epsilon,
        rng=args.seed,
        num_samples=args.num_samples,
        solver_method=args.solver_method,
    )
    try:
        reports = solve_many(
            instances, algorithms, config=config, parallel=args.parallel
        )
    except ValueError as exc:  # unknown algorithm, model mismatch, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = f"{'trace':<28s} {'algorithm':<16s} {'objective':>10s} {'bound':>10s} {'gap':>7s} {'sec':>7s}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for i, path in enumerate(args.traces):
        for k in range(len(algorithms)):
            report = reports[i * len(algorithms) + k]
            bound = (
                "n/a" if report.lower_bound is None else f"{report.lower_bound:.3f}"
            )
            gap = "n/a" if report.lower_bound is None else f"{report.gap:.3f}"
            print(
                f"{path:<28s} {report.algorithm:<16s} {report.objective:>10.3f} "
                f"{bound:>10s} {gap:>7s} {report.solve_seconds:>7.3f}",
                file=out,
            )
    return 0


def _cmd_experiment(args, out) -> int:
    config = get_experiment(args.experiment_id)
    store = None
    if args.store:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    result = run_experiment(config, scale=args.scale, store=store)
    print(format_result_table(result), file=out)
    checks = summarize_shape_checks(result)
    if checks:
        rendered = ", ".join(f"{k}={'PASS' if v else 'FAIL'}" for k, v in checks.items())
        print(f"\nshape checks: {rendered}", file=out)
    if args.csv:
        rows = write_csv([result], args.csv)
        print(f"wrote {rows} rows to {args.csv}", file=out)
    if args.json:
        write_json([result], args.json)
        print(f"wrote JSON to {args.json}", file=out)
    return 0 if all(checks.values()) else 1


def _cmd_verify(args, out) -> int:
    from repro.scenarios import (
        family_table,
        format_verification_report,
        get_invariant,
        invariant_names,
        run_verification,
        write_verification_report,
    )

    if args.list_families:
        print("scenario families:", file=out)
        for family in family_table():
            print(f"  {family.name:<20s} {family.description}", file=out)
        print("invariants:", file=out)
        for name in invariant_names():
            print(f"  {name:<22s} {get_invariant(name).description}", file=out)
        return 0
    algorithms = None
    if args.algorithms:
        algorithms = [
            name.strip() for name in args.algorithms.split(",") if name.strip()
        ]
    store = None
    if args.store:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    try:
        # Unknown family/algorithm/invariant names all fail fast inside
        # run_verification, before any scenario is generated or solved.
        report = run_verification(
            args.budget,
            args.seed,
            families=args.families,
            algorithms=algorithms,
            invariants=args.invariants,
            store=store,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_verification_report(report, args.output)
    print(format_verification_report(report), file=out)
    print(f"wrote {path}", file=out)
    return 0 if report["summary"]["ok"] else 1


def _cmd_sweep(args, out) -> int:
    from repro.experiments.sweep import SweepSpec, run_sweep, sweep_status
    from repro.store import ResultStore

    try:
        spec = SweepSpec.load_json(args.spec)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: could not load sweep spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    store = ResultStore(args.store)
    if args.status:
        try:
            status = sweep_status(spec, store)
        except (OSError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"sweep {status['sweep']} ({status['sweep_id'][:12]}): "
            f"{status['stored']}/{status['units']} units stored, "
            f"{status['pending']} pending, {status['failed']} failed "
            f"({'complete' if status['complete'] else 'incomplete'})",
            file=out,
        )
        return 0
    try:
        result = run_sweep(
            spec,
            store,
            parallel=args.parallel,
            max_chunks=args.max_chunks,
            num_shards=args.shards,
        )
    except (OSError, KeyError, ValueError) as exc:
        # Unknown algorithm / empty cross product (ValueError), missing
        # trace file (OSError), unknown topology name (KeyError): all are
        # spec problems, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = (
        f"{'instance':<30s} {'algorithm':<16s} {'eps':>6s} "
        f"{'objective':>10s} {'source':>7s}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for unit in result.units:
        label = spec.instances[unit.instance_index].label()
        eps = "-" if unit.epsilon is None else f"{unit.epsilon:g}"
        objective = (
            "pending" if unit.objective is None else f"{unit.objective:.3f}"
        )
        print(
            f"{label:<30s} {unit.algorithm:<16s} {eps:>6s} "
            f"{objective:>10s} {unit.status:>7s}",
            file=out,
        )
    summary = result.summary()
    print(
        f"units {summary['units']}: hit {summary['hits']}, "
        f"solved {summary['solved']}, pending {summary['pending']}, "
        f"failed {summary['failed']} "
        f"(chunks {summary['chunks_run']}/{summary['chunks_total']}, "
        f"{summary['seconds']:.2f}s, store {store.root})",
        file=out,
    )
    if not result.complete:
        print(
            "sweep incomplete; re-run the same command to resume from the "
            "last checkpoint",
            file=out,
        )
    return 0


def _cmd_online(args, out) -> int:
    from repro.online import (
        ArrivalStream,
        GeometricBatchingPolicy,
        IncrementalResolvePolicy,
        OnlineEngine,
        WSJFPolicy,
    )

    if (args.trace is None) == (args.family is None):
        print(
            "error: give exactly one input — a trace path or --family",
            file=sys.stderr,
        )
        return 2
    # Flags that only the batching policies read must not be silently
    # ignored: a "comparison across bases" that never varied anything is
    # worse than an error.
    if args.policy in ("resolve", "wsjf"):
        if args.base is not None:
            print(
                f"error: --base only applies to the batching policies, "
                f"not --policy {args.policy}",
                file=sys.stderr,
            )
            return 2
        if args.offline_algorithm != "lp-heuristic" and not args.compare_offline:
            print(
                f"error: --offline-algorithm only applies to the batching "
                f"policies (or with --compare-offline), not --policy "
                f"{args.policy}",
                file=sys.stderr,
            )
            return 2
    try:
        if args.family is not None:
            stream = ArrivalStream.from_scenario(
                args.family, args.index, args.root_seed
            )
        else:
            stream = ArrivalStream.from_trace(args.trace)
        if args.policy in ("batch", "batch-wc"):
            policy = GeometricBatchingPolicy(
                args.base if args.base is not None else 2.0,
                offline_algorithm=args.offline_algorithm,
                early_start=args.policy == "batch-wc",
            )
        elif args.policy == "resolve":
            policy = IncrementalResolvePolicy()
        else:
            policy = WSJFPolicy()
        config = SolverConfig(slot_length=args.slot_length, rng=args.seed)
        result = OnlineEngine(stream, config=config).run(policy)
    except (OSError, KeyError, ValueError) as exc:
        # Missing trace file, unknown family/offline algorithm, bad base.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    instance = stream.instance
    print(f"stream            : {stream}", file=out)
    print(f"policy            : {result.algorithm}", file=out)
    print(
        f"objective         : {result.weighted_completion_time:.3f} "
        f"(makespan {result.makespan:.3f})",
        file=out,
    )
    if result.batches:
        print(f"batches           : {result.num_batches}", file=out)
        for batch in result.batches:
            members = ", ".join(
                instance.coflows[j].name or f"C{j}" for j in batch.coflow_indices
            )
            print(
                f"  epoch {batch.epoch_index:<3d} start t={batch.start_time:<8.3f} "
                f"makespan {batch.makespan:<8.3f} [{members}]",
                file=out,
            )
    if args.compare_offline:
        # The same config as the online run, so the clairvoyant baseline
        # never silently solves under different knobs.
        offline = solve(instance, args.offline_algorithm, config=config)
        ratio = result.competitive_ratio(offline.objective)
        bound = (
            "n/a" if offline.lower_bound is None else f"{offline.lower_bound:.3f}"
        )
        print(
            f"offline ({args.offline_algorithm}) : {offline.objective:.3f} "
            f"(LP bound {bound})",
            file=out,
        )
        print(f"competitive ratio : {ratio:.3f}x", file=out)
    return 0


def _cmd_scenarios(args, out) -> int:
    # args.scenarios_command == "convert-fb", the only verb
    from repro.workloads.fbtrace import convert_facebook_trace

    try:
        summary = convert_facebook_trace(
            args.src,
            args.out,
            demand_scale=args.demand_scale,
            time_scale=args.time_scale,
            max_coflows=args.max_coflows,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"converted {summary['num_coflows']} coflows / "
        f"{summary['num_flows']} flows "
        f"(horizon {summary['max_release_time']:.3f}) to {summary['out']}",
        file=out,
    )
    return 0


def _cmd_lint(args, out) -> int:
    from repro.lint import (
        format_result,
        format_rule_table,
        result_to_json,
        run_lint,
        write_lint_report,
    )

    if args.list_rules:
        print(format_rule_table(), file=out)
        return 0
    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    try:
        result = run_lint(args.path, select=select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        # result_to_json is already plain JSON (built from normalized data).
        print(json.dumps(result_to_json(result), indent=2), file=out)  # repro-lint: allow[R005]
    else:
        print(format_result(result), file=out)
    if args.output is not None:
        path = write_lint_report(result, args.output)
        print(f"wrote {path}", file=out)
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code.

    When the reader of stdout goes away (``repro algorithms | head -1``),
    stdout is pointed at ``os.devnull`` so the interpreter's final flush
    cannot fail again, and the exit code is 1, as Python's signal
    documentation recommends for ``BrokenPipeError``.
    """
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        code = _dispatch(args, out)
        out.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _dispatch(args: argparse.Namespace, out) -> int:
    if args.command == "topologies":
        return _cmd_topologies(out)
    if args.command == "algorithms":
        return _cmd_algorithms(out)
    if args.command == "generate":
        return _cmd_generate(args, out)
    if args.command == "solve":
        return _cmd_solve(args, out)
    if args.command == "batch":
        return _cmd_batch(args, out)
    if args.command == "experiment":
        return _cmd_experiment(args, out)
    if args.command == "verify":
        return _cmd_verify(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "online":
        return _cmd_online(args, out)
    if args.command == "scenarios":
        return _cmd_scenarios(args, out)
    if args.command == "lint":
        return _cmd_lint(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
