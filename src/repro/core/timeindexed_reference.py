"""Loop-based reference assembly of the time-indexed LP.

This module assembles the same program as
:mod:`repro.core.timeindexed` — Eq. 2 in its prefix-sum form included —
with per-flow, per-slot Python loops instead of batched index arithmetic.
It is an equivalence oracle: the ``lp-matrix`` invariant of ``repro
verify`` and ``tests/test_core_timeindexed_vectorized.py`` assert that the
vectorized builder produces bit-identical matrices (same ``c``,
``A_ub``/``A_eq`` after CSR canonicalization, same right-hand sides and
bounds) on both transmission models.

It is *not* part of the public API and receives no new features; use
:func:`repro.core.timeindexed.build_time_indexed_lp` everywhere else.
"""

from __future__ import annotations

from typing import Dict

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
    y_idx = None
    if free_path:
        y_block = lp.add_variables(
            "y", num_flows * num_slots * num_edges, lower=0.0, upper=1.0
        )
        y_idx = y_block.reshape(num_flows, num_slots, num_edges)

    # ----------------------------- objective --------------------------- #
    lp.set_objective(c_idx, instance.weights)

    # ------------------------- release times (Eq. 4) ------------------- #
    release = instance.flow_release_times()
    allowed = grid.release_mask(release)  # (num_flows, num_slots)
    forbidden_flows, forbidden_slots = np.nonzero(~allowed)
    for f, t in zip(forbidden_flows, forbidden_slots):
        lp.fix_variable(int(x_idx[f, t]), 0.0)
        if y_idx is not None:
            for e in range(num_edges):
                lp.fix_variable(int(y_idx[f, t, e]), 0.0)

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
        assert y_idx is not None
        _add_free_path_constraints_loop(lp, instance, grid, x_idx, y_idx)
    else:
        _add_single_path_constraints_loop(lp, instance, grid, x_idx)

    bundle = _LPIndexBundle(x=x_idx, big_x=big_x_idx, c=c_idx, s=s_idx, y=y_idx)
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
    y_idx: np.ndarray,
) -> None:
    """Multicommodity-flow constraints of the free path model (Eqs. 7–10 / 20–23)."""
    graph = instance.graph
    edge_index = graph.edge_index()
    capacities = graph.capacity_vector()
    durations = grid.durations
    num_slots = grid.num_slots
    num_edges = graph.num_edges
    nodes = graph.nodes

    out_edges = {node: [edge_index[e] for e in graph.out_edges(node)] for node in nodes}
    in_edges = {node: [edge_index[e] for e in graph.in_edges(node)] for node in nodes}

    eq_rows = []
    eq_cols = []
    eq_vals = []
    eq_rhs = []
    eq_counter = 0

    for ref in instance.flow_refs():
        f = ref.global_index
        src, dst = ref.flow.source, ref.flow.sink
        for e in in_edges[src]:
            for t in range(num_slots):
                lp.fix_variable(int(y_idx[f, t, e]), 0.0)
        for e in out_edges[dst]:
            for t in range(num_slots):
                lp.fix_variable(int(y_idx[f, t, e]), 0.0)

        src_out = np.array(out_edges[src], dtype=np.int64)
        dst_in = np.array(in_edges[dst], dtype=np.int64)
        for t in range(num_slots):
            size = src_out.size + 1
            eq_rows.append(np.full(size, eq_counter, dtype=np.int64))
            eq_cols.append(np.concatenate([y_idx[f, t, src_out], [x_idx[f, t]]]))
            eq_vals.append(np.concatenate([np.ones(src_out.size), [-1.0]]))
            eq_rhs.append(0.0)
            eq_counter += 1
            size = dst_in.size + 1
            eq_rows.append(np.full(size, eq_counter, dtype=np.int64))
            eq_cols.append(np.concatenate([y_idx[f, t, dst_in], [x_idx[f, t]]]))
            eq_vals.append(np.concatenate([np.ones(dst_in.size), [-1.0]]))
            eq_rhs.append(0.0)
            eq_counter += 1
            for node in nodes:
                if node == src or node == dst:
                    continue
                node_in = np.array(in_edges[node], dtype=np.int64)
                node_out = np.array(out_edges[node], dtype=np.int64)
                if node_in.size == 0 and node_out.size == 0:
                    continue
                size = node_in.size + node_out.size
                eq_rows.append(np.full(size, eq_counter, dtype=np.int64))
                eq_cols.append(
                    np.concatenate([y_idx[f, t, node_in], y_idx[f, t, node_out]])
                )
                eq_vals.append(
                    np.concatenate([np.ones(node_in.size), -np.ones(node_out.size)])
                )
                eq_rhs.append(0.0)
                eq_counter += 1

    if eq_counter:
        lp.add_constraints_batch(
            np.concatenate(eq_rows),
            np.concatenate(eq_cols),
            np.concatenate(eq_vals),
            np.array(eq_rhs),
            ConstraintSense.EQUAL,
        )

    num_flows = instance.num_flows
    demands = instance.demands()
    rows = []
    cols = []
    vals = []
    rhs = []
    row_counter = 0
    flow_range = np.arange(num_flows)
    for t in range(num_slots):
        for e in range(num_edges):
            rows.append(np.full(num_flows, row_counter, dtype=np.int64))
            cols.append(y_idx[flow_range, t, e])
            vals.append(demands)
            rhs.append(capacities[e] * durations[t])
            row_counter += 1
    lp.add_constraints_batch(
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
        np.array(rhs),
        ConstraintSense.LESS_EQUAL,
    )
