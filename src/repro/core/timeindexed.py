"""The time-indexed LP relaxation for coflow scheduling in networks.

This module implements the linear program of the paper's Section 3 —
constraints (1)–(5) shared by both models, plus the model-specific
constraints: edge bandwidths along pinned paths for the single path model
(Eq. 6) and per-slot multicommodity-flow constraints for the free path
model (Eqs. 7–10).  The geometric-interval variant of Appendix A
(Eqs. 14–23) is obtained simply by passing a geometric
:class:`~repro.schedule.timegrid.TimeGrid`: every constraint below is
written in terms of slot durations, which are 1 for the uniform grid and
``tau_t - tau_{t-1}`` for the geometric one.

Variables
---------
``x[f, t]``
    Fraction of flow *f* scheduled during slot *t* (paper ``x_j^i(t)``).
``X[j, t]``
    Fraction of coflow *j* completed by the end of slot *t* (paper
    ``X_j(t)``), bounded to [0, 1].
``S[f, t]``
    Fraction of flow *f* sent by the end of slot *t*, the prefix sum
    ``sum_{l <= t} x[f, l]`` that Eq. 2 bounds ``X_j(t)`` by, bounded to
    [0, 1].
``C[j]``
    Completion-time variable of coflow *j*.
``z[s, t, e]`` (free path only)
    Data carried on edge *e* during slot *t* by commodity *s*: every flow
    whose source is node *s*, in graph node order.  This replaces the
    paper's per-flow ``x_j^i(t, e)`` (F·T·E columns) by S·T·E columns for
    S distinct sources, with the same optimum: a flow from one source to
    several sinks always decomposes into source→sink paths.  After the
    solve, :func:`solve_time_indexed_lp` splits each (source, slot)
    commodity into per-flow fractions ``y[f, t, e]`` once, which is what
    :attr:`CoflowLPSolution.edge_fractions` holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.lp.model import ConstraintSense, LinearProgram
from repro.lp.result import LPResult
from repro.lp.solver import solve_lp
from repro.schedule.schedule import Schedule
from repro.schedule.timegrid import TimeGrid
from repro.utils.validation import check_positive


# --------------------------------------------------------------------------- #
# horizon estimation
# --------------------------------------------------------------------------- #
def suggest_horizon(
    instance: CoflowInstance,
    *,
    slot_length: float = 1.0,
    slack: float = 1.1,
) -> int:
    """A safe number of uniform slots ``T`` for the time-indexed LP.

    The LP needs a horizon large enough that *some* feasible schedule exists.
    Serialising all flows is always feasible, so we bound the horizon by the
    latest release time plus the serial transmission time, where each flow's
    serial time uses the bottleneck bandwidth of its pinned path (single
    path) or its maximum ``s -> t`` flow value (free path).

    Parameters
    ----------
    instance:
        The instance to bound.
    slot_length:
        Length of the uniform slots the LP will use.
    slack:
        Multiplier (> 1) applied to the serial time; a little slack keeps the
        LP comfortably feasible and leaves room for the completion-time
        variables to do their job.

    Returns
    -------
    int
        Number of slots (at least 1).
    """
    check_positive(slot_length, "slot_length")
    check_positive(slack, "slack")
    serial_time = 0.0
    graph = instance.graph
    for ref in instance.flow_refs():
        flow = ref.flow
        if instance.model is TransmissionModel.SINGLE_PATH and flow.has_path:
            rate = graph.path_bottleneck(flow.path)  # type: ignore[arg-type]
        else:
            rate = graph.max_flow_value(flow.source, flow.sink)
        if rate <= 0:
            raise ValueError(
                f"flow {ref.label} has no positive-rate route; instance infeasible"
            )
        serial_time += flow.demand / rate
    horizon_time = instance.max_release_time() + serial_time * slack
    return max(int(np.ceil(horizon_time / slot_length)) + 1, 1)


def resolve_grid(
    instance: CoflowInstance,
    *,
    grid: Optional[TimeGrid] = None,
    num_slots: Optional[int] = None,
    slot_length: float = 1.0,
    epsilon: Optional[float] = None,
) -> TimeGrid:
    """Resolve a grid specification to the requested :class:`TimeGrid`.

    Exactly one specification is used, in this order of precedence:

    1. an explicit *grid*;
    2. *epsilon* — a geometric grid ``0, 1, (1+eps), ...`` covering the
       suggested horizon (Appendix A);
    3. *num_slots* uniform slots of *slot_length*;
    4. otherwise, a uniform grid sized by :func:`suggest_horizon`.

    The result is the *requested* grid: its digest is the request identity
    (:func:`lp_request`) shared by :func:`solve_time_indexed_lp` and the
    shared-LP reuse decision of :func:`repro.core.scheduler.lp_solution_for`
    — both must resolve the same parameters to the same grid or shared-LP
    reuse silently degrades.  For the default uniform grid (case 4) it is
    also the growth cap of the certified horizon: the LP is solved on the
    shortest prefix of it that provably holds the optimum, never on more.
    """
    if grid is not None:
        return grid
    if epsilon is not None:
        horizon_slots = suggest_horizon(instance, slot_length=slot_length)
        return TimeGrid.geometric(horizon_slots * slot_length, epsilon)
    if num_slots is None:
        num_slots = suggest_horizon(instance, slot_length=slot_length)
    return TimeGrid.uniform(num_slots, slot_length)


def lp_request(grid: TimeGrid, *, solver_method: str) -> Dict[str, str]:
    """The identity of one LP solve request, as recorded on its solution:
    the requested grid's digest and the solver method."""
    return {"grid": grid.boundary_digest(), "solver_method": solver_method}


# --------------------------------------------------------------------------- #
# LP solution container
# --------------------------------------------------------------------------- #
@dataclass
class CoflowLPSolution:
    """An optimal solution of the time-indexed (or interval-indexed) LP.

    Attributes
    ----------
    instance, grid:
        The problem and time grid the LP was built on.  For a default
        uniform request this is the certified prefix of the requested grid
        (see :func:`solve_time_indexed_lp`), otherwise the requested grid.
    objective:
        The LP objective ``sum_j w_j C_j*`` — a valid lower bound on the
        optimal weighted completion time (paper Eq. 11).
    completion_times:
        The LP completion-time variables ``C_j*`` per coflow.
    fractions:
        Optimal ``x[f, t]`` values, shape ``(num_flows, num_slots)``.
    edge_fractions:
        Per-flow edge fractions ``y[f, t, e]`` for the free path model,
        otherwise ``None``: the share of flow *f*'s demand that crosses
        edge *e* in slot *t*, split from the optimal commodity flows
        ``z[s, t, e]`` by :func:`_split_commodities`.  Each flow's
        fractions are a path flow from its source to its sink worth
        ``x[f, t]``, and together the flows of one source use no more of
        an edge than its commodity does.
    lp_result:
        The raw solver result (status, timings, sizes).
    metadata:
        For solutions of :func:`solve_time_indexed_lp`: the size of the
        solved LP (``"lp_size"``), the :func:`lp_request` they answer
        (``"request"``: the *requested* grid's digest and the solver method),
        which shared-LP reuse compares, the requested grid's slot count
        (``"requested_slots"``) and one ``(num_slots, LP status)`` pair per
        solve in order (``"horizon_rounds"``).
    """

    instance: CoflowInstance
    grid: TimeGrid
    objective: float
    completion_times: np.ndarray
    fractions: np.ndarray
    edge_fractions: Optional[np.ndarray]
    lp_result: LPResult
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def lower_bound(self) -> float:
        """Alias for :attr:`objective`, emphasising its role as a bound."""
        return self.objective

    def to_schedule(self) -> Schedule:
        """The LP solution interpreted directly as a schedule.

        This is exactly the "LP-based heuristic" raw material of the paper's
        Section 6.2: the LP fractions form a feasible transmission schedule,
        whose *true* completion times (Eq. 12) can exceed the LP
        completion-time variables.
        """
        return Schedule(
            self.instance,
            self.grid,
            self.fractions.copy(),
            None if self.edge_fractions is None else self.edge_fractions.copy(),
            metadata={"source": "lp", **self.metadata},
        )

    def fractional_completion_times(self) -> np.ndarray:
        """Continuous-time fractional completion times implied by the fractions.

        Computed as ``sum_t midpoint-weighted x`` — only used for diagnostics
        and tests; the LP's own ``C_j`` variables are the quantity the
        analysis works with.
        """
        coflow_idx = self.instance.coflow_of_flow()
        cumulative = np.cumsum(self.fractions, axis=1)
        ends = self.grid.boundaries[1:]
        # Fractional completion of a flow: integral of (1 - cumulative) + first slot end.
        durations = self.grid.durations
        remaining = np.clip(1.0 - cumulative, 0.0, None)
        flow_frac = durations[0] + remaining @ durations
        times = np.zeros(self.instance.num_coflows, dtype=float)
        np.maximum.at(times, coflow_idx, flow_frac)
        return times


@dataclass
class _LPIndexBundle:
    """Variable-index arrays for one assembled coflow LP."""

    x: np.ndarray  # (num_flows, T)
    big_x: np.ndarray  # (num_coflows, T)
    c: np.ndarray  # (num_coflows,)
    s: np.ndarray  # (num_flows, T)
    z: Optional[np.ndarray]  # (num_sources, T, E) or None


# --------------------------------------------------------------------------- #
# LP construction
# --------------------------------------------------------------------------- #
def build_time_indexed_lp(
    instance: CoflowInstance,
    grid: TimeGrid,
) -> tuple[LinearProgram, _LPIndexBundle]:
    """Assemble the LP of Section 3 / Appendix A for *instance* on *grid*.

    Returns the :class:`~repro.lp.model.LinearProgram` plus the index bundle
    needed to read the solution back.  Use :func:`solve_time_indexed_lp` for
    the common build-and-solve path.

    The assembly is fully vectorized: every constraint family is emitted as
    one batched COO triplet built from precomputed incidence arrays (the
    flow→edge incidence and release masks cached on
    :class:`~repro.coflow.instance.CoflowInstance` and
    :class:`~repro.network.graph.NetworkGraph`), with no per-slot or
    per-flow Python loops on the hot path.  The produced program is
    bit-identical to the loop-based reference in
    :mod:`repro.core.timeindexed_reference`, which the equivalence tests
    and the ``lp-matrix`` invariant assert.
    """
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
    z_idx: Optional[np.ndarray] = None
    if free_path:
        num_sources = _commodities(instance)[0].size
        z_block = lp.add_variables("z", num_sources * num_slots * num_edges)
        z_idx = z_block.reshape(num_sources, num_slots, num_edges)

    # ----------------------------- objective --------------------------- #
    lp.set_objective(c_idx, instance.weights)

    # ------------------------- release times (Eq. 4) ------------------- #
    release = instance.flow_release_times()
    allowed = grid.release_mask(release)  # (num_flows, num_slots)
    lp.fix_variables(x_idx[~allowed], 0.0)

    # -------------------- demand satisfaction (Eq. 1) ------------------ #
    rows = np.repeat(np.arange(num_flows), num_slots)
    cols = x_idx.reshape(-1)
    vals = np.ones(num_flows * num_slots)
    lp.add_constraints_batch(
        rows, cols, vals, np.ones(num_flows), ConstraintSense.EQUAL
    )

    # ------------------- coflow completion indicators (Eq. 2) ---------- #
    # X_j(t) <= sum_{l <= t} x_f(l)   for every flow f of coflow j, every t,
    # through prefix sums: equality row (f, t) is S_f(t) - S_f(t-1) - x_f(t)
    # = 0 and inequality row (f, t) is X_j(t) - S_f(t) <= 0, which takes
    # O(F T) nonzeros where the expanded sums take O(F T^2).
    num_cells = num_flows * num_slots
    cells = np.arange(num_cells, dtype=np.int64)
    later_cells = cells.reshape(num_flows, num_slots)[:, 1:].reshape(-1)
    lp.add_constraints_batch(
        np.concatenate([cells, cells, later_cells]),
        np.concatenate(
            [s_idx.reshape(-1), x_idx.reshape(-1), s_idx[:, :-1].reshape(-1)]
        ),
        np.concatenate([np.ones(num_cells), -np.ones(num_cells + later_cells.size)]),
        np.zeros(num_cells),
        ConstraintSense.EQUAL,
    )
    coflow_of_flow = instance.coflow_of_flow()
    lp.add_constraints_batch(
        np.concatenate([cells, cells]),
        np.concatenate([big_x_idx[coflow_of_flow, :].reshape(-1), s_idx.reshape(-1)]),
        np.concatenate([np.ones(num_cells), -np.ones(num_cells)]),
        np.zeros(num_cells),
        ConstraintSense.LESS_EQUAL,
    )

    # ------------------- completion-time lower bound (Eq. 3 / 16) ------ #
    # C_j >= d_0 + sum_t d_t (1 - X_j(t))
    #   <=>  -C_j - sum_t d_t X_j(t) <= -(d_0 + sum_t d_t)
    first_duration = float(durations[0])
    total_duration = float(durations.sum())
    lp.add_constraints_batch(
        np.concatenate(
            [np.arange(num_coflows), np.repeat(np.arange(num_coflows), num_slots)]
        ),
        np.concatenate([c_idx, big_x_idx.reshape(-1)]),
        np.concatenate(
            [-np.ones(num_coflows), -np.tile(durations, num_coflows)]
        ),
        np.full(num_coflows, -(first_duration + total_duration)),
        ConstraintSense.LESS_EQUAL,
    )

    # ------------------------ model-specific part ----------------------- #
    if free_path:
        assert z_idx is not None
        _add_free_path_constraints(lp, instance, grid, x_idx, z_idx)
    else:
        _add_single_path_constraints(lp, instance, grid, x_idx)

    bundle = _LPIndexBundle(x=x_idx, big_x=big_x_idx, c=c_idx, s=s_idx, z=z_idx)
    return lp, bundle


def _add_single_path_constraints(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: TimeGrid,
    x_idx: np.ndarray,
) -> None:
    """Edge bandwidth constraints along pinned paths (paper Eq. 6 / 19).

    Built from the cached flow→edge incidence of the instance: entry *k* of
    the incidence contributes one coefficient per slot, giving row
    ``rank(edge_k) * T + t`` directly by arithmetic.
    """
    graph = instance.graph
    capacities = graph.capacity_vector()
    durations = grid.durations
    num_slots = grid.num_slots

    try:
        inc_flows, inc_edges = instance.path_edge_incidence()
    except ValueError as exc:
        raise ValueError(str(exc).replace("path incidence", "single path LP")) from exc
    if inc_flows.size == 0:
        return

    # Stable sort groups incidence entries by edge while preserving the
    # flow-insertion order within each edge (matching the loop reference).
    order = np.argsort(inc_edges, kind="stable")
    inc_flows = inc_flows[order]
    inc_edges = inc_edges[order]
    used_edges, edge_rank = np.unique(inc_edges, return_inverse=True)

    slot_range = np.arange(num_slots, dtype=np.int64)
    rows = (edge_rank[:, None] * num_slots + slot_range[None, :]).reshape(-1)
    cols = x_idx[inc_flows, :].reshape(-1)
    vals = np.repeat(instance.demands()[inc_flows], num_slots)
    rhs = (capacities[used_edges][:, None] * durations[None, :]).reshape(-1)
    lp.add_constraints_batch(rows, cols, vals, rhs, ConstraintSense.LESS_EQUAL)


def _commodities(
    instance: CoflowInstance,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Node-index layout of the free path commodities.

    Returns ``(sources, commodity, sinks, tails, heads)``: the source node of
    each commodity (one per distinct flow source, in graph node order), the
    commodity and sink node of each flow, and the tail and head node of
    each edge.
    """
    graph = instance.graph
    node_index = {node: i for i, node in enumerate(graph.nodes)}
    refs = instance.flow_refs()
    flow_sources = np.array([node_index[r.flow.source] for r in refs], dtype=np.int64)
    sinks = np.array([node_index[r.flow.sink] for r in refs], dtype=np.int64)
    sources, commodity = np.unique(flow_sources, return_inverse=True)
    tails = np.array([node_index[u] for u, _ in graph.edges], dtype=np.int64)
    heads = np.array([node_index[v] for _, v in graph.edges], dtype=np.int64)
    return sources, commodity.reshape(-1), sinks, tails, heads


def _add_free_path_constraints(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: TimeGrid,
    x_idx: np.ndarray,
    z_idx: np.ndarray,
) -> None:
    """Multicommodity-flow constraints of the free path model (Eqs. 7–10 / 20–23),
    with one commodity per source node.

    Row ``(s, t, v)`` balances ``z[s, t, :]`` at node *v*: at ``v = s``,
    outflow minus inflow is ``sum_f d_f x_f(t)`` over the flows leaving *s*;
    anywhere else, inflow minus outflow is ``sum_f d_f x_f(t)`` over the
    flows from *s* to *v* (zero at a transit node).  A row exists for every
    node on an edge and for the commodity's source and sinks.  Eq. 10 caps
    ``sum_s z[s, t, e]`` at ``c_e d_t``.  Edges into *s* are fixed to 0 for
    commodity *s*: cancelling flow cycles removes such flow without
    changing any balance, so the optimum is unchanged.

    Every row index is arithmetic on (commodity, slot, node rank), so the
    block is emitted as one batch with no per-flow or per-slot loop.
    """
    graph = instance.graph
    num_slots = grid.num_slots
    num_edges = graph.num_edges
    num_nodes = graph.num_nodes
    sources, commodity, sinks, tails, heads = _commodities(instance)
    num_sources = sources.size

    # Balance rows: every node on an edge, plus each commodity's endpoints.
    is_source = sources[:, None] == np.arange(num_nodes)[None, :]  # (S, N)
    active = is_source.copy()
    active[:, tails] = True
    active[:, heads] = True
    active[commodity, sinks] = True
    rows_per_slot = active.sum(axis=1)
    rank = np.cumsum(active, axis=1) - 1
    first_row = np.concatenate([[0], np.cumsum(rows_per_slot * num_slots)[:-1]])
    slot_range = np.arange(num_slots, dtype=np.int64)

    def row(k: np.ndarray, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        return first_row[k] + t * rows_per_slot[k] + rank[k, v]

    # z enters its head's row as inflow and its tail's row as outflow; the
    # source row counts outflow positive.
    k = np.arange(num_sources)[:, None, None]
    t = slot_range[None, :, None]
    sign = np.where(is_source, -1.0, 1.0)
    shape = (num_sources, num_slots, num_edges)
    z_rows = [row(k, t, heads[None, None, :]), row(k, t, tails[None, None, :])]
    z_vals = [
        np.broadcast_to(sign[:, None, heads], shape),
        np.broadcast_to(-sign[:, None, tails], shape),
    ]
    # -d_f x_f(t) in the row of the flow's source and of its sink.
    fk = commodity[:, None]
    ft = slot_range[None, :]
    x_rows = [row(fk, ft, sources[fk]), row(fk, ft, sinks[:, None])]
    x_vals = np.broadcast_to(-instance.demands()[:, None], x_idx.shape)
    total_rows = int(rows_per_slot.sum()) * num_slots
    if total_rows:
        lp.add_constraints_batch(
            np.concatenate([r.reshape(-1) for r in z_rows + x_rows]),
            np.concatenate([z_idx.reshape(-1)] * 2 + [x_idx.reshape(-1)] * 2),
            np.concatenate([v.reshape(-1) for v in z_vals + [x_vals, x_vals]]),
            np.zeros(total_rows),
            ConstraintSense.EQUAL,
        )
    into_source = heads[None, :] == sources[:, None]  # (S, E)
    lp.fix_variables(z_idx.transpose(0, 2, 1)[into_source], 0.0)

    # Eq. (10): edge bandwidths.  Row (t, e) sums z over all commodities.
    te_range = np.arange(num_slots * num_edges, dtype=np.int64)
    rhs = (grid.durations[:, None] * graph.capacity_vector()[None, :]).reshape(-1)
    lp.add_constraints_batch(
        np.tile(te_range, num_sources),
        z_idx.reshape(-1),
        np.ones(z_idx.size),
        rhs,
        ConstraintSense.LESS_EQUAL,
    )


#: Commodity flow an edge has left below this share of the commodity's slot
#: supply counts as spent when :func:`_commodity_paths` walks it.
SPLIT_RTOL = 1e-12


def _commodity_paths(
    source: int,
    flow: List[float],
    need: Dict[int, float],
    out_edges: List[List[int]],
    heads: List[int],
    tol: float,
) -> List[Tuple[int, List[int], float]]:
    """Decompose one commodity's slot flow into ``(sink, edges, amount)`` paths.

    *flow* is the data on each edge and *need* the data each sink node
    receives.  A walk starts at *source*, takes the first edge (in edge
    order) with more than *tol* left, and stops at the first node that still
    needs data; the path carries its bottleneck.  A walk that closes a cycle
    cancels it, and one that runs into a dead end drops the edge into it.
    Each step either extends the walk or zeroes an edge or a need, so the
    loop ends; what is left once every sink is served is circulation and is
    dropped.
    """
    left = [value if value > tol else 0.0 for value in flow]
    need = dict(need)
    unmet = sum(1 for value in need.values() if value > 0.0)
    paths: List[Tuple[int, List[int], float]] = []
    nodes, edges, on_path = [source], [], {source: 0}

    def spend(path_edges: List[int], amount: float) -> None:
        for e in path_edges:
            rest = left[e] - amount
            left[e] = rest if rest > tol else 0.0

    while unmet:
        node = nodes[-1]
        if need.get(node, 0.0) > 0.0:
            amount = min(need[node], min(left[e] for e in edges))
            paths.append((node, list(edges), amount))
            spend(edges, amount)
            need[node] -= amount
            if need[node] <= 0.0:
                unmet -= 1
            nodes, edges, on_path = [source], [], {source: 0}
            continue
        step = next((e for e in out_edges[node] if left[e] > 0.0), None)
        if step is None:
            if node == source:
                break
            left[edges.pop()] = 0.0
            del on_path[nodes.pop()]
            continue
        head = heads[step]
        if head in on_path:
            start = on_path[head]
            cycle = edges[start:] + [step]
            spend(cycle, min(left[e] for e in cycle))
            for dropped in nodes[start + 1 :]:
                del on_path[dropped]
            del nodes[start + 1 :], edges[start:]
            continue
        edges.append(step)
        nodes.append(head)
        on_path[head] = len(nodes) - 1
    return paths


def _split_commodities(
    instance: CoflowInstance, fractions: np.ndarray, flow: np.ndarray
) -> np.ndarray:
    """Per-flow edge fractions ``y[f, t, e]`` from commodity flows ``z[s, t, e]``.

    Each (source, slot) commodity is decomposed into source→sink paths by
    :func:`_commodity_paths`, with a tolerance of :data:`SPLIT_RTOL` times its
    supply ``sum_f d_f x_f(t)``.  Flows that share a (source, sink) pair
    share that pair's paths in proportion to ``d_f x_f(t)``: flow *f* gets
    ``y[f, t, :] = x_f(t) P / D`` for the pair's path flow ``P`` and its
    data ``D = sum d_f x_f(t)``.  So the flows of one source never use more
    of an edge than its commodity does.
    """
    graph = instance.graph
    sources, commodity, sinks, _tails, heads = _commodities(instance)
    out_edges = [graph.out_edge_indices(node).tolist() for node in graph.nodes]
    head_list = heads.tolist()
    sent = np.clip(fractions, 0.0, None)
    data = sent * instance.demands()[:, None]
    pairs, pair_of_flow = np.unique(
        np.stack([commodity, sinks], axis=1), axis=0, return_inverse=True
    )
    pair_of_flow = pair_of_flow.reshape(-1)
    need = np.zeros((len(pairs), fractions.shape[1]))
    np.add.at(need, pair_of_flow, data)
    supply = np.zeros((sources.size, fractions.shape[1]))
    np.add.at(supply, commodity, data)
    pair_at: List[Dict[int, int]] = [{} for _ in range(sources.size)]
    for p, (k, sink) in enumerate(pairs.tolist()):
        pair_at[k][sink] = p
    carried = np.zeros(need.shape + (graph.num_edges,))
    for k, t in zip(*np.nonzero(supply > 0.0)):
        paths = _commodity_paths(
            int(sources[k]),
            flow[k, t].tolist(),
            {sink: float(need[p, t]) for sink, p in pair_at[k].items()},
            out_edges,
            head_list,
            SPLIT_RTOL * supply[k, t],
        )
        for sink, path, amount in paths:
            carried[pair_at[k][sink], t, path] += amount
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = np.where(need[:, :, None] > 0.0, carried / need[:, :, None], 0.0)
    return sent[:, :, None] * unit[pair_of_flow]


def _horizon_certified(
    instance: CoflowInstance,
    grid: TimeGrid,
    result: LPResult,
    bundle: _LPIndexBundle,
) -> bool:
    """Whether the LP optimum on *grid* is also the optimum of every longer
    grid that has *grid* as its prefix.

    It is when the round is optimal, sends nothing in its last slot, and
    every flow may send in that slot: a longer-horizon optimum, mixed in at
    a small weight with everything from the last slot onward folded into
    it, then fits on *grid*, and moving data earlier never lowers a prefix
    sum ``S_f(t)``.  So a strictly better longer optimum would beat this one.
    """
    if not result.is_optimal:
        return False
    last = grid.num_slots - 1
    sends_last = np.any(result.values(bundle.x[:, last]) > 0.0)
    release_mask = grid.release_mask(instance.flow_release_times())
    return not sends_last and bool(np.all(release_mask[:, last]))


def solve_time_indexed_lp(
    instance: CoflowInstance,
    *,
    grid: Optional[TimeGrid] = None,
    num_slots: Optional[int] = None,
    slot_length: float = 1.0,
    epsilon: Optional[float] = None,
    solver_method: str = "highs",
) -> CoflowLPSolution:
    """Build and solve the coflow LP for *instance*.

    The requested grid is resolved by :func:`resolve_grid` (explicit *grid*,
    then *epsilon*, then *num_slots* uniform slots of *slot_length*, then a
    suggested uniform horizon); the first three are solved as given.  The
    suggested uniform grid is solved on growing prefixes instead, each with
    a cold solve: the first ends two slots after the one the latest release
    may first use, each next one is 1.5× longer, and growth stops at the
    first prefix :func:`_horizon_certified` accepts, or at the whole grid.

    ``metadata`` records the request (:func:`lp_request` on the requested
    grid), the requested slot count, the solved LP's size and one
    ``(num_slots, LP status)`` pair per round (``"horizon_rounds"``).

    Returns
    -------
    CoflowLPSolution
        The optimal LP solution on the solved grid; raises
        :class:`~repro.lp.solver.LPSolverError` if the LP on the requested
        grid cannot be solved to optimality.
    """
    requested = resolve_grid(
        instance,
        grid=grid,
        num_slots=num_slots,
        slot_length=slot_length,
        epsilon=epsilon,
    )
    slots = requested.num_slots
    if grid is None and num_slots is None and epsilon is None:
        first = requested.first_usable_slot(instance.max_release_time()) + 2
        slots = min(first, slots)
    rounds: List[Tuple[int, str]] = []
    while True:
        final = slots == requested.num_slots
        solved = (
            requested if final else TimeGrid(requested.boundaries[: slots + 1])
        )
        lp, bundle = build_time_indexed_lp(instance, solved)
        result = solve_lp(lp, method=solver_method, require_optimal=final)
        rounds.append((slots, result.status.value))
        if final or _horizon_certified(instance, solved, result, bundle):
            break
        slots = min(int(np.ceil(1.5 * slots)), requested.num_slots)
    completion_times = result.values(bundle.c)
    fractions = result.values(bundle.x)
    return CoflowLPSolution(
        instance=instance,
        grid=solved,
        objective=float(np.dot(instance.weights, completion_times)),
        completion_times=completion_times,
        fractions=fractions,
        edge_fractions=(
            None
            if bundle.z is None
            else _split_commodities(instance, fractions, result.values(bundle.z))
        ),
        lp_result=result,
        metadata={
            "lp_size": lp.size_summary(),
            "request": lp_request(requested, solver_method=solver_method),
            "requested_slots": requested.num_slots,
            "horizon_rounds": rounds,
        },
    )
