"""Converter for the public Facebook coflow trace format.

The widely used Facebook/Coflow-Benchmark corpus (``FB2010-1Hr-150-0.txt``
and friends) stores one MapReduce shuffle per line::

    <num_ports> <num_coflows>                      # header
    <id> <arrival_ms> <M> <m_1> ... <m_M> <R> <r_1:size_1> ... <r_R:size_R>

where the ``m_k`` are mapper rack locations, and each ``r_k:size_k`` names a
reducer rack together with the **total** megabytes it receives.  Following
the usual convention, that total is split evenly over the ``M`` mappers, so
the shuffle becomes ``M × R`` point-to-point flows of ``size_k / M`` each.

Rack ``p`` appears as source node ``m<p>`` and sink node ``r<p>`` — mapper
and reducer sides are distinct nodes, matching the ingress/egress port model
the trace was recorded under and guaranteeing ``source != sink`` even when a
mapper and a reducer share a rack.  The converted coflows are
topology-independent: :func:`repro.workloads.traces.replay_coflows` remaps
the ``m*``/``r*`` endpoints onto any target graph deterministically.

Every parse error is reported as a
:class:`~repro.workloads.traces.TraceValidationError` naming the offending
line; arrival times must be non-decreasing (the corpus is sorted by
arrival), and NaN / negative sizes are rejected outright.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.workloads.traces import TraceValidationError, save_trace

#: The corpus records arrival times in milliseconds; convert to the unit
#: the rest of the library uses (seconds) by default.
DEFAULT_TIME_SCALE = 1e-3


def _parse_row(
    tokens: List[str], line_no: int, *, demand_scale: float, time_scale: float
) -> Coflow:
    def fail(message: str) -> TraceValidationError:
        return TraceValidationError(f"line {line_no}: {message}")

    if len(tokens) < 4:
        raise fail(f"expected at least 4 fields, got {len(tokens)}")
    try:
        arrival = float(tokens[1])
        num_mappers = int(tokens[2])
    except ValueError as err:
        raise fail(str(err)) from err
    if not math.isfinite(arrival) or arrival < 0:
        raise fail(f"arrival time must be finite and >= 0, got {tokens[1]}")
    if num_mappers <= 0:
        raise fail(f"coflow needs at least one mapper, got {num_mappers}")
    cursor = 3
    if len(tokens) < cursor + num_mappers + 1:
        raise fail(f"row truncated: {num_mappers} mapper locations promised")
    mappers = [f"m{tokens[cursor + k]}" for k in range(num_mappers)]
    cursor += num_mappers
    try:
        num_reducers = int(tokens[cursor])
    except ValueError as err:
        raise fail(str(err)) from err
    if num_reducers <= 0:
        raise fail(f"coflow needs at least one reducer, got {num_reducers}")
    cursor += 1
    if len(tokens) != cursor + num_reducers:
        raise fail(
            f"row promises {num_reducers} reducers but carries "
            f"{len(tokens) - cursor} fields"
        )
    flows: List[Flow] = []
    for k in range(num_reducers):
        token = tokens[cursor + k]
        rack, sep, size_text = token.partition(":")
        if not sep:
            raise fail(f"reducer field {token!r} is not of the form rack:size")
        try:
            size = float(size_text)
        except ValueError as err:
            raise fail(str(err)) from err
        if math.isnan(size):
            raise fail(f"reducer {rack!r} has NaN size")
        if not math.isfinite(size) or size < 0:
            raise fail(f"reducer {rack!r} size must be finite and >= 0, got {size}")
        if size <= 0.0:
            continue  # a reducer that receives nothing contributes no flows
        per_mapper = size * demand_scale / num_mappers
        for mapper in mappers:
            flows.append(Flow(source=mapper, sink=f"r{rack}", demand=per_mapper))
    if not flows:
        raise fail("coflow carries no data (every reducer size is 0)")
    return Coflow(
        flows=tuple(flows),
        weight=1.0,
        release_time=arrival * time_scale,
    )


def parse_facebook_trace(
    text: str,
    *,
    demand_scale: float = 1.0,
    time_scale: float = DEFAULT_TIME_SCALE,
    max_coflows: Optional[int] = None,
) -> List[Coflow]:
    """Parse Facebook-format trace *text* into a list of coflows.

    *demand_scale* multiplies every transfer size (the corpus is in MB;
    pick the scale that matches your capacity units), *time_scale* converts
    arrival stamps (milliseconds by default).  *max_coflows* truncates the
    corpus after that many rows — handy for smoke tests on the full file.
    """
    lines = [line.strip() for line in text.splitlines()]
    rows = [
        (no, line) for no, line in enumerate(lines, start=1) if line
    ]
    if not rows:
        raise TraceValidationError("trace is empty")
    header_no, header = rows[0]
    header_tokens = header.split()
    if len(header_tokens) != 2:
        raise TraceValidationError(
            f"line {header_no}: header must be '<num_ports> <num_coflows>', "
            f"got {header!r}"
        )
    coflows: List[Coflow] = []
    previous_arrival = 0.0
    for no, line in rows[1:]:
        if max_coflows is not None and len(coflows) >= max_coflows:
            break
        coflow = _parse_row(
            line.split(), no, demand_scale=demand_scale, time_scale=time_scale
        )
        if coflow.release_time < previous_arrival:
            raise TraceValidationError(
                f"line {no}: out-of-order arrival {coflow.release_time} "
                f"after {previous_arrival}"
            )
        previous_arrival = coflow.release_time
        coflows.append(coflow)
    declared = int(header_tokens[1])
    if max_coflows is None and len(coflows) != declared:
        raise TraceValidationError(
            f"header declares {declared} coflows but the file carries "
            f"{len(coflows)}"
        )
    return coflows


def convert_facebook_trace(
    src: str | Path,
    out: str | Path,
    *,
    demand_scale: float = 1.0,
    time_scale: float = DEFAULT_TIME_SCALE,
    max_coflows: Optional[int] = None,
) -> dict:
    """Convert the Facebook trace at *src* into the library's JSON format.

    The output at *out* is a ``kind: coflows`` trace consumable by
    :func:`repro.workloads.traces.replay_trace`.
    Returns a small summary dict (coflow/flow counts, horizon).
    """
    coflows = parse_facebook_trace(
        Path(src).read_text(),
        demand_scale=demand_scale,
        time_scale=time_scale,
        max_coflows=max_coflows,
    )
    save_trace(coflows, out)
    return {
        "source": str(src),
        "out": str(out),
        "num_coflows": len(coflows),
        "num_flows": sum(len(c) for c in coflows),
        "max_release_time": max((c.release_time for c in coflows), default=0.0),
        "total_demand": sum(c.total_demand for c in coflows),
    }
