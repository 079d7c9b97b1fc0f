"""Trace (de)serialization and replay.

Workloads can be saved to and loaded from a small JSON format so that
experiment runs are exactly repeatable and traces can be exchanged without
re-running the generators.  The format is the one produced by
``CoflowInstance.to_dict`` for full instances, or a bare list of coflows for
topology-independent traces.

:func:`replay_trace` is the replay hook used by the scenario engine's
``trace-replay`` family: it loads a saved trace and rebuilds a runnable
:class:`CoflowInstance` on a (possibly different) topology, deterministically
remapping endpoints that do not exist on the target graph and re-pinning
shortest paths for the single path model.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.coflow.coflow import Coflow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.network.graph import NetworkGraph
from repro.utils.io import atomic_write_json
from repro.utils.rng import RandomSource, as_generator

TraceLike = Union[CoflowInstance, List[Coflow]]


class TraceValidationError(ValueError):
    """A trace file failed validation; the message names the offending row."""


def _coflows_from_rows(rows: List[dict], *, where: str) -> List[Coflow]:
    """Build coflows from serialized rows, reporting the failing row index.

    :class:`Coflow` / :class:`Flow` construction already rejects NaN,
    infinite and non-positive sizes and negative release times; this wrapper
    turns those bare ``ValueError``\\ s into a :class:`TraceValidationError`
    that says *which* row of *where* is malformed.
    """
    coflows: List[Coflow] = []
    for row, data in enumerate(rows):
        try:
            coflows.append(Coflow.from_dict(data))
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise TraceValidationError(
                f"{where}: malformed trace row {row}: {err}"
            ) from err
    return coflows


def _instance_from_dict(data: dict, *, where: str) -> CoflowInstance:
    """Inverse of :meth:`CoflowInstance.to_dict`, naming a malformed coflow row."""
    graph_data = data["graph"]
    graph = NetworkGraph(
        [
            (e["source"], e["sink"], float(e["capacity"]))
            for e in graph_data["edges"]
        ],
        nodes=graph_data.get("nodes"),
        name=graph_data.get("name", "network"),
    )
    return CoflowInstance(
        graph,
        _coflows_from_rows(data["coflows"], where=where),
        model=data.get("model", TransmissionModel.FREE_PATH),
        name=data.get("name"),
    )


def validate_trace_order(coflows: List[Coflow], *, where: str = "trace") -> None:
    """Raise :class:`TraceValidationError` unless release times are non-decreasing.

    Recorded traces (e.g. the Facebook corpus) list coflows in arrival
    order; a decreasing timestamp means the file was corrupted or
    mis-converted.  Synthetic traces are free to order coflows any way they
    like, so this check is opt-in (``require_ordered=...``).
    """
    previous = 0.0
    for row, coflow in enumerate(coflows):
        if coflow.release_time < previous:
            raise TraceValidationError(
                f"{where}: out-of-order release time at trace row {row}: "
                f"{coflow.release_time} after {previous}"
            )
        previous = coflow.release_time


def save_trace(trace: TraceLike, path: str | Path) -> None:
    """Write an instance or a coflow list to *path* as JSON."""
    path = Path(path)
    if isinstance(trace, CoflowInstance):
        payload = {"kind": "instance", "data": trace.to_dict()}
    else:
        payload = {
            "kind": "coflows",
            "data": [c.to_dict() for c in trace],
        }
    atomic_write_json(path, payload)


def load_trace(path: str | Path, *, require_ordered: bool = False) -> TraceLike:
    """Read a trace written by :func:`save_trace` or ``CoflowInstance.save_json``.

    Besides the two enveloped kinds this accepts the bare
    :meth:`CoflowInstance.to_dict` format (what ``repro generate`` writes),
    so every trace file in the repository is a valid arrival-stream source.

    Malformed rows (NaN / negative / zero sizes, negative release times)
    raise :class:`TraceValidationError` naming the offending row.  With
    *require_ordered* the coflows' release times must also be
    non-decreasing, as recorded arrival traces are.
    """
    where = str(path)
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"unrecognized trace file {path} (not a JSON object)")
    kind = payload.get("kind")
    try:
        if kind == "instance":
            trace: TraceLike = _instance_from_dict(payload["data"], where=where)
        elif kind == "coflows":
            trace = _coflows_from_rows(payload["data"], where=where)
        elif kind is None and "coflows" in payload and "graph" in payload:
            trace = _instance_from_dict(payload, where=where)
        else:
            raise ValueError(f"unrecognized trace file {path} (kind={kind!r})")
    except KeyError as err:
        raise TraceValidationError(f"{where}: missing field {err}") from err
    if require_ordered:
        coflows = trace.coflows if isinstance(trace, CoflowInstance) else trace
        validate_trace_order(list(coflows), where=where)
    return trace


def load_instance(path: str | Path) -> CoflowInstance:
    """Read an instance file: bare (``repro generate``) or enveloped (:func:`save_trace`).

    A coflow-only trace (what ``repro scenarios convert-fb`` writes) names
    no network, so it raises :class:`TraceValidationError`; replay it onto
    a topology with :func:`replay_coflows` instead.
    """
    trace = load_trace(path)
    if not isinstance(trace, CoflowInstance):
        raise TraceValidationError(
            f"{path}: a coflow-only trace has no network to schedule on "
            "(`repro online` replays one onto SWAN)"
        )
    return trace


def load_coflows(path: str | Path, *, require_ordered: bool = False) -> List[Coflow]:
    """Load a trace and return its coflows regardless of the stored kind."""
    trace = load_trace(path, require_ordered=require_ordered)
    if isinstance(trace, CoflowInstance):
        return list(trace.coflows)
    return trace


def replay_coflows(
    coflows: List[Coflow],
    graph: NetworkGraph,
    *,
    model: TransmissionModel | str = TransmissionModel.FREE_PATH,
    rng: RandomSource = None,
    name: str = "trace-replay",
) -> CoflowInstance:
    """Replay a (possibly foreign) coflow trace on *graph*.

    Endpoints present on *graph* are kept as-is; endpoints the graph does not
    know are remapped onto its nodes by a deterministic random assignment
    (one mapping per distinct foreign node, drawn from *rng*), preserving the
    trace's communication structure — two flows that shared a source keep
    sharing one.  A flow whose remapped source and sink coincide is nudged to
    the next node.  Pinned paths from the originating topology are dropped;
    the single path model re-pins random shortest paths on the target graph.
    """
    model = TransmissionModel.parse(model)
    gen = as_generator(rng)
    nodes = list(graph.nodes)
    if len(nodes) < 2:
        raise ValueError("need at least two nodes to replay a trace")
    foreign = sorted(
        {
            endpoint
            for coflow in coflows
            for flow in coflow.flows
            for endpoint in (flow.source, flow.sink)
            if not graph.has_node(endpoint)
        }
    )
    mapping: Dict[str, str] = {
        node: str(nodes[int(gen.integers(0, len(nodes)))]) for node in foreign
    }

    def _remap(endpoint: str) -> str:
        return mapping.get(endpoint, endpoint)

    replayed: List[Coflow] = []
    for coflow in coflows:
        flows = []
        for flow in coflow.flows:
            src, dst = _remap(flow.source), _remap(flow.sink)
            if src == dst:
                dst = str(nodes[(nodes.index(dst) + 1) % len(nodes)])
            flows.append(dataclasses.replace(flow, source=src, sink=dst, path=None))
        replayed.append(dataclasses.replace(coflow, flows=tuple(flows)))
    if model is TransmissionModel.SINGLE_PATH:
        from repro.network.paths import pin_random_shortest_paths

        replayed = pin_random_shortest_paths(graph, replayed, gen)
    return CoflowInstance(graph, replayed, model=model, name=name)


def replay_trace(
    path: str | Path,
    graph: NetworkGraph,
    *,
    model: TransmissionModel | str = TransmissionModel.FREE_PATH,
    rng: RandomSource = None,
    name: Optional[str] = None,
    require_ordered: bool = False,
) -> CoflowInstance:
    """Load the trace at *path* and replay it on *graph* (see :func:`replay_coflows`).

    Malformed rows raise :class:`TraceValidationError`; *require_ordered*
    additionally rejects traces whose release times decrease.
    """
    return replay_coflows(
        load_coflows(path, require_ordered=require_ordered),
        graph,
        model=model,
        rng=rng,
        name=name or f"replay:{Path(path).stem}",
    )


def trace_summary(trace: TraceLike) -> dict:
    """Small descriptive statistics used in experiment logs."""
    coflows = trace.coflows if isinstance(trace, CoflowInstance) else trace
    num_flows = sum(len(c) for c in coflows)
    total_demand = sum(c.total_demand for c in coflows)
    return {
        "num_coflows": len(coflows),
        "num_flows": num_flows,
        "total_demand": total_demand,
        "max_release_time": max((c.release_time for c in coflows), default=0.0),
        "weighted": any(abs(c.weight - 1.0) > 1e-12 for c in coflows),
    }
