"""Loop-based reference assembly of the time-indexed LP.

This module assembles the same program as
:mod:`repro.core.timeindexed` — Eq. 2 in its prefix-sum form and the free
path model's one commodity per source node included — with per-flow,
per-commodity and per-slot Python loops instead of batched index
arithmetic.
It is an equivalence oracle: the ``lp-matrix`` invariant of ``repro
verify`` and ``tests/test_core_timeindexed_vectorized.py`` assert that the
vectorized builder produces bit-identical matrices (same ``c``,
``A_ub``/``A_eq`` after CSR canonicalization, same right-hand sides and
bounds) on both transmission models.

It is *not* part of the public API and receives no new features; use
:func:`repro.core.timeindexed.build_time_indexed_lp` everywhere else.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.lp.model import ConstraintSense, LinearProgram
from repro.schedule.timegrid import TimeGrid


def build_time_indexed_lp_reference(instance: CoflowInstance, grid: TimeGrid):
    """Assemble the LP of Section 3 / Appendix A with per-slot Python loops.

    Returns ``(lp, bundle)`` exactly like the vectorized builder; see the
    module docstring for why this implementation is kept.
    """
    # Imported here to avoid a cycle (timeindexed imports nothing from us).
    from repro.core.timeindexed import _LPIndexBundle

    num_flows = instance.num_flows
    num_coflows = instance.num_coflows
    num_slots = grid.num_slots
    durations = grid.durations
    graph = instance.graph
    num_edges = graph.num_edges
    free_path = instance.model is TransmissionModel.FREE_PATH

    lp = LinearProgram(name=f"coflow-{instance.model.value}-{instance.name}")

    # ----------------------------- variables --------------------------- #
    x_block = lp.add_variables("x", num_flows * num_slots, lower=0.0, upper=1.0)
    x_idx = x_block.reshape(num_flows, num_slots)
    big_x_block = lp.add_variables("X", num_coflows * num_slots, lower=0.0, upper=1.0)
    big_x_idx = big_x_block.reshape(num_coflows, num_slots)
    c_block = lp.add_variables("C", num_coflows, lower=0.0)
    c_idx = c_block.indices()
    s_block = lp.add_variables("S", num_flows * num_slots, lower=0.0, upper=1.0)
    s_idx = s_block.reshape(num_flows, num_slots)
    z_idx = None
    if free_path:
        sources = [
            node
            for node in graph.nodes
            if any(ref.flow.source == node for ref in instance.flow_refs())
        ]
        z_block = lp.add_variables("z", len(sources) * num_slots * num_edges)
        z_idx = z_block.reshape(len(sources), num_slots, num_edges)

    # ----------------------------- objective --------------------------- #
    lp.set_objective(c_idx, instance.weights)

    # ------------------------- release times (Eq. 4) ------------------- #
    release = instance.flow_release_times()
    allowed = grid.release_mask(release)  # (num_flows, num_slots)
    forbidden_flows, forbidden_slots = np.nonzero(~allowed)
    for f, t in zip(forbidden_flows, forbidden_slots):
        lp.fix_variable(int(x_idx[f, t]), 0.0)

    # -------------------- demand satisfaction (Eq. 1) ------------------ #
    rows = np.repeat(np.arange(num_flows), num_slots)
    cols = x_idx.reshape(-1)
    vals = np.ones(num_flows * num_slots)
    lp.add_constraints_batch(
        rows, cols, vals, np.ones(num_flows), ConstraintSense.EQUAL
    )

    # ------------------- coflow completion indicators (Eq. 2) ---------- #
    # Prefix sums S_f(t) = S_f(t-1) + x_f(t), then X_j(t) <= S_f(t).
    coflow_of_flow = instance.coflow_of_flow()
    eq_rows = []
    eq_cols = []
    eq_vals = []
    ub_rows = []
    ub_cols = []
    ub_vals = []
    row_counter = 0
    for f in range(num_flows):
        j = int(coflow_of_flow[f])
        for t in range(num_slots):
            if t == 0:
                cols_ft = [s_idx[f, t], x_idx[f, t]]
                vals_ft = [1.0, -1.0]
            else:
                cols_ft = [s_idx[f, t], s_idx[f, t - 1], x_idx[f, t]]
                vals_ft = [1.0, -1.0, -1.0]
            eq_rows.append(np.full(len(cols_ft), row_counter, dtype=np.int64))
            eq_cols.append(np.array(cols_ft, dtype=np.int64))
            eq_vals.append(np.array(vals_ft, dtype=float))
            ub_rows.append(np.full(2, row_counter, dtype=np.int64))
            ub_cols.append(np.array([big_x_idx[j, t], s_idx[f, t]], dtype=np.int64))
            ub_vals.append(np.array([1.0, -1.0]))
            row_counter += 1
    lp.add_constraints_batch(
        np.concatenate(eq_rows),
        np.concatenate(eq_cols),
        np.concatenate(eq_vals),
        np.zeros(row_counter),
        ConstraintSense.EQUAL,
    )
    lp.add_constraints_batch(
        np.concatenate(ub_rows),
        np.concatenate(ub_cols),
        np.concatenate(ub_vals),
        np.zeros(row_counter),
        ConstraintSense.LESS_EQUAL,
    )

    # ------------------- completion-time lower bound (Eq. 3 / 16) ------ #
    first_duration = float(durations[0])
    total_duration = float(durations.sum())
    rows3 = []
    cols3 = []
    vals3 = []
    rhs3 = np.full(num_coflows, -(first_duration + total_duration))
    for j in range(num_coflows):
        size = 1 + num_slots
        rows_j = np.full(size, j, dtype=np.int64)
        cols_j = np.empty(size, dtype=np.int64)
        vals_j = np.empty(size, dtype=float)
        cols_j[0] = c_idx[j]
        vals_j[0] = -1.0
        cols_j[1:] = big_x_idx[j]
        vals_j[1:] = -durations
        rows3.append(rows_j)
        cols3.append(cols_j)
        vals3.append(vals_j)
    lp.add_constraints_batch(
        np.concatenate(rows3),
        np.concatenate(cols3),
        np.concatenate(vals3),
        rhs3,
        ConstraintSense.LESS_EQUAL,
    )

    # ------------------------ model-specific part ----------------------- #
    if free_path:
        assert z_idx is not None
        _add_free_path_constraints_loop(lp, instance, grid, x_idx, z_idx, sources)
    else:
        _add_single_path_constraints_loop(lp, instance, grid, x_idx)

    bundle = _LPIndexBundle(x=x_idx, big_x=big_x_idx, c=c_idx, s=s_idx, z=z_idx)
    return lp, bundle


def _add_single_path_constraints_loop(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: TimeGrid,
    x_idx: np.ndarray,
) -> None:
    """Edge bandwidth constraints along pinned paths (paper Eq. 6 / 19)."""
    graph = instance.graph
    edge_index = graph.edge_index()
    capacities = graph.capacity_vector()
    durations = grid.durations
    num_slots = grid.num_slots

    flows_on_edge: Dict[int, list] = {}
    for ref in instance.flow_refs():
        flow = ref.flow
        if not flow.has_path:
            raise ValueError(
                f"single path LP requires a pinned path on flow {ref.label}"
            )
        for edge in flow.path_edges():
            flows_on_edge.setdefault(edge_index[edge], []).append(
                (ref.global_index, flow.demand)
            )

    rows = []
    cols = []
    vals = []
    rhs = []
    row_counter = 0
    for e, flow_list in sorted(flows_on_edge.items()):
        flow_ids = np.array([f for f, _ in flow_list], dtype=np.int64)
        demands = np.array([d for _, d in flow_list], dtype=float)
        for t in range(num_slots):
            rows.append(np.full(flow_ids.size, row_counter, dtype=np.int64))
            cols.append(x_idx[flow_ids, t])
            vals.append(demands)
            rhs.append(capacities[e] * durations[t])
            row_counter += 1
    if row_counter:
        lp.add_constraints_batch(
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
            np.array(rhs),
            ConstraintSense.LESS_EQUAL,
        )


def _add_free_path_constraints_loop(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: TimeGrid,
    x_idx: np.ndarray,
    z_idx: np.ndarray,
    sources: List[str],
) -> None:
    """Multicommodity-flow constraints of the free path model (Eqs. 7–10 /
    20–23), one commodity per source node in *sources* order."""
    graph = instance.graph
    edge_index = graph.edge_index()
    capacities = graph.capacity_vector()
    durations = grid.durations
    num_slots = grid.num_slots
    num_edges = graph.num_edges
    nodes = graph.nodes
    demands = instance.demands()

    out_edges = {node: [edge_index[e] for e in graph.out_edges(node)] for node in nodes}
    in_edges = {node: [edge_index[e] for e in graph.in_edges(node)] for node in nodes}

    eq_rows = []
    eq_cols = []
    eq_vals = []
    eq_counter = 0
    for k, src in enumerate(sources):
        flows = [
            (ref.global_index, ref.flow.sink)
            for ref in instance.flow_refs()
            if ref.flow.source == src
        ]
        sinks = {sink for _, sink in flows}
        for e in in_edges[src]:
            for t in range(num_slots):
                lp.fix_variable(int(z_idx[k, t, e]), 0.0)
        for t in range(num_slots):
            for node in nodes:
                node_in = in_edges[node]
                node_out = out_edges[node]
                if node != src and node not in sinks and not node_in and not node_out:
                    continue
                # Inflow minus outflow, except outflow minus inflow at src.
                sign = -1.0 if node == src else 1.0
                cols = [z_idx[k, t, e] for e in node_in + node_out]
                vals = [sign] * len(node_in) + [-sign] * len(node_out)
                for f, sink in flows:
                    if node == src or node == sink:
                        cols.append(x_idx[f, t])
                        vals.append(-demands[f])
                eq_rows.append(np.full(len(cols), eq_counter, dtype=np.int64))
                eq_cols.append(np.array(cols, dtype=np.int64))
                eq_vals.append(np.array(vals, dtype=float))
                eq_counter += 1

    if eq_counter:
        lp.add_constraints_batch(
            np.concatenate(eq_rows),
            np.concatenate(eq_cols),
            np.concatenate(eq_vals),
            np.zeros(eq_counter),
            ConstraintSense.EQUAL,
        )

    rows = []
    cols = []
    rhs = []
    row_counter = 0
    for t in range(num_slots):
        for e in range(num_edges):
            rows.append(np.full(len(sources), row_counter, dtype=np.int64))
            cols.append(z_idx[:, t, e])
            rhs.append(capacities[e] * durations[t])
            row_counter += 1
    lp.add_constraints_batch(
        np.concatenate(rows),
        np.concatenate(cols),
        np.ones(len(sources) * row_counter),
        np.array(rhs),
        ConstraintSense.LESS_EQUAL,
    )
