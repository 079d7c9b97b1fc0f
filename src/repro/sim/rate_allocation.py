"""Rate allocation primitives for the continuous-time simulator.

Two questions are answered here:

1. *How fast can a single coflow finish on a given (residual) network?*
   (:func:`coflow_standalone_time`, :func:`max_concurrent_rate`) — this is
   the quantity Terra computes per coflow before ordering them by SRTF.
2. *Given a priority order over coflows, what rate does every flow get right
   now?* (:func:`allocate_rates`) — coflows are served greedily in priority
   order, each receiving the rates that let it finish as early as possible on
   the capacity left over by higher-priority coflows.  This mirrors how
   Varys/Terra-style schedulers turn an ordering into a work-conserving rate
   assignment.

For the single path model the per-coflow allocation has a closed form (the
coflow's flows progress proportionally to their remaining demand, limited by
the most congested edge).  For the free path model it is a small LP: maximise
the common progress rate ``alpha`` such that shipping ``alpha * remaining_f``
per unit time is a feasible multicommodity flow in the residual network.

Performance
-----------
All primitives run through a per-instance :class:`RateAllocator` that
precomputes the flow→edge incidence (single path) and caches the assembled
max-concurrent-flow LP *structure* per active flow set (free path): between
simulator events only the ``-remaining`` coefficients and the residual
capacities change.  A template keeps its program's compressed-column arrays
and the optimal basis of its last solve, not a solver.  Each solve writes
the new values into copies of two arrays, loads the program into the
allocator's one HiGHS engine (made at the first free-path solve, presolve
off) and restarts the dual simplex from the template's own basis, so solves
of other templates in between do not change where it starts.  An idle
template costs a few kilobytes; a HiGHS model kept per template would cost
about 200 KB.  Before any LP, a free-path coflow is checked for
reachability: its optimal rate is 0 exactly when some active flow's sink
cannot be reached from its source over edges with residual capacity > 0, so
such a *blocked* coflow gets the empty allocation without a template or a
solve.  The test is a boolean transitive closure over the graph's nodes,
memoized per set of open edges and skipped when every edge is open.
Standalone completion times are memoized per (coflow, remaining-demand
signature), which collapses the repeated LP families solved by Terra and the
greedy baselines when several of them run on the same instance.  The
allocator counts the LPs it solves (:attr:`RateAllocator.lp_solves`) and the
blocked allocations it short-circuits (:attr:`RateAllocator.blocked`).

The allocator assumes instances and their graphs are immutable once
scheduling starts (the same assumption the instance-level array caches
make).  The loop-based originals live in :mod:`repro.sim.reference` and are
used as the equivalence oracle and benchmark baseline.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.coflow.instance import CoflowInstance, FlowRef, TransmissionModel
from repro.lp.backends import (
    HighsEngine,
    HighsEngineError,
    LPSpec,
    make_highs_engine,
    solve_spec,
)
from repro.lp.solver import LPSolverError
from repro.network.graph import NetworkGraph

#: Rates below this threshold are treated as zero.
RATE_TOL = 1e-9


@dataclass
class RateAllocation:
    """Result of one allocation round.

    Attributes
    ----------
    rates:
        Rate (demand units per unit time) assigned to each flow, indexed by
        global flow index.  Flows not in the active set get 0.
    edge_rates:
        Optional per-flow, per-edge rates for the free path model, shape
        ``(num_flows, num_edges)``; used to verify capacity feasibility.
    residual_capacity:
        Capacity left unused on every edge after the allocation.
    """

    rates: np.ndarray
    edge_rates: Optional[np.ndarray]
    residual_capacity: np.ndarray


@dataclass
class CoflowAllocation:
    """Compact allocation of one coflow (the incremental simulator's unit).

    Attributes
    ----------
    flow_idx:
        Global indices of the flows that received a rate.
    flow_rates:
        Their rates, parallel to *flow_idx*.
    usage:
        Per-edge capacity consumed by this coflow (length ``num_edges``).
    edge_rates:
        Per-flow per-edge rates, shape ``(len(flow_idx), num_edges)``, for
        the free path model; ``None`` for single path.
    """

    flow_idx: np.ndarray
    flow_rates: np.ndarray
    usage: np.ndarray
    edge_rates: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _CommodityRows:
    """Flow-conservation rows of one source→sink commodity, over edge indices.

    Row 0 is the source's out-flow and row 1 the sink's in-flow, each equal
    to ``alpha * remaining`` (the template adds that coefficient); the other
    rows balance every other node that has an edge.  ``closed_edges`` enter
    the source or leave the sink: no circulation through the endpoints (the
    time-indexed LP builder's convention).
    """

    rows: np.ndarray
    edges: np.ndarray
    values: np.ndarray
    num_rows: int
    closed_edges: np.ndarray


def _commodity_rows(graph: NetworkGraph, source: str, sink: str) -> _CommodityRows:
    rows: List[int] = []
    edges: List[int] = []
    values: List[float] = []

    def emit(row: int, edge_idx: np.ndarray, value: float) -> None:
        rows.extend([row] * edge_idx.size)
        edges.extend(edge_idx.tolist())
        values.extend([value] * edge_idx.size)

    emit(0, graph.out_edge_indices(source), 1.0)
    emit(1, graph.in_edge_indices(sink), 1.0)
    row = 2
    for node in graph.nodes:
        if node == source or node == sink:
            continue
        node_in = graph.in_edge_indices(node)
        node_out = graph.out_edge_indices(node)
        if node_in.size == 0 and node_out.size == 0:
            continue
        emit(row, node_in, 1.0)
        emit(row, node_out, -1.0)
        row += 1
    return _CommodityRows(
        rows=np.array(rows, dtype=np.int64),
        edges=np.array(edges, dtype=np.int64),
        values=np.array(values, dtype=float),
        num_rows=row,
        closed_edges=np.concatenate(
            [graph.in_edge_indices(source), graph.out_edge_indices(sink)]
        ),
    )


class _FreePathTemplate:
    """Prebuilt max-concurrent-flow LP for one fixed set of active flows.

    The program (variable order, row order, sparsity pattern, bounds) is the
    loop-built LP of :mod:`repro.sim.reference`: variable 0 is ``alpha``,
    then ``y[a, e]`` per active flow *a* and edge *e*; the equality rows are
    the flows' commodity rows in order, then one capacity row per edge.
    Only the ``-remaining`` coefficients of ``alpha`` in the source/sink
    rows and the residual right-hand sides vary between calls.

    A template holds the program in compressed-column form and the optimal
    basis of its last solve, not a solver: every solve writes its inputs
    into copies of the value and row-upper arrays, loads the program into
    the allocator's one :class:`~repro.lp.backends.HighsEngine` and restarts
    the dual simplex from that basis.
    """

    def __init__(self, num_edges: int, commodities: Sequence[_CommodityRows]) -> None:
        k = len(commodities)
        n = 1 + k * num_edges  # alpha plus y[a, e]
        offsets = np.cumsum([0] + [c.num_rows for c in commodities])
        first_col = 1 + num_edges * np.arange(k)
        num_eq = int(offsets[-1])

        self.lower = np.zeros(n, dtype=float)
        self.upper = np.full(n, np.inf)
        for commodity, col in zip(commodities, first_col):
            self.upper[col + commodity.closed_edges] = 0.0
        # One combined matrix: the equality rows (bounds 0, 0) on top, then
        # the capacity rows sum_a y[a, e] <= residual_e (bounds -inf,
        # residual).  Column 0 holds exactly alpha's coefficients, one in
        # every source and sink row; the -1.0 placeholder must be nonzero so
        # HiGHS keeps the entry, and it becomes -remaining before a solve.
        alpha_rows = np.repeat(offsets[:-1], 2) + np.tile([0, 1], k)
        matrix = sparse.csc_matrix(
            (
                np.concatenate(
                    [c.values for c in commodities]
                    + [np.full(2 * k, -1.0), np.ones(k * num_edges)]
                ),
                (
                    np.concatenate(
                        [c.rows + off for c, off in zip(commodities, offsets)]
                        + [alpha_rows, num_eq + np.tile(np.arange(num_edges), k)]
                    ),
                    np.concatenate(
                        [c.edges + col for c, col in zip(commodities, first_col)]
                        + [np.zeros(2 * k, dtype=np.int64), np.arange(1, n)]
                    ),
                ),
            ),
            shape=(num_eq + num_edges, n),
        )
        self.start = matrix.indptr
        self.index = matrix.indices
        self.value = matrix.data
        # alpha's entries come first in the value array; each belongs to the
        # flow whose commodity rows hold its row.
        self._alpha_flows = (
            np.searchsorted(offsets, self.index[: self.start[1]], side="right") - 1
        )
        self.row_lower = np.concatenate([np.zeros(num_eq), np.full(num_edges, -np.inf)])
        self.row_upper = np.zeros(num_eq + num_edges)

        self.c = np.zeros(n)
        self.c[0] = -1.0  # maximise alpha
        self.num_edges = num_edges
        self.k = k
        self.num_eq_rows = num_eq
        #: Optimal basis of the last engine solve (``None`` before the first).
        self.basis = None
        self._memo: Dict[Tuple[bytes, bytes], Tuple[float, np.ndarray]] = {}
        #: LPs actually solved (memo hits excluded).
        self.solves = 0

    #: Bound on the per-template input→solution memo (see :meth:`solve`).
    MEMO_MAX_ENTRIES = 4096

    def _program(self, rem_active: np.ndarray, residual: np.ndarray):
        """The value and row-upper arrays for these inputs (fresh copies)."""
        value = self.value.copy()
        value[: self._alpha_flows.size] = -rem_active[self._alpha_flows]
        row_upper = self.row_upper.copy()
        row_upper[self.num_eq_rows :] = residual
        return value, row_upper

    def spec(self, rem_active: np.ndarray, residual: np.ndarray) -> LPSpec:
        """The program for these remaining demands and (non-negative)
        residual capacities, as a backend-neutral :class:`LPSpec`."""
        value, row_upper = self._program(rem_active, residual)
        matrix = sparse.csr_matrix(
            sparse.csc_matrix(
                (value, self.index, self.start),
                shape=(self.row_upper.size, self.c.size),
            )
        )
        num_eq = self.num_eq_rows
        return LPSpec(
            c=self.c,
            a_ub=matrix[num_eq:],
            b_ub=row_upper[num_eq:],
            a_eq=matrix[:num_eq],
            b_eq=row_upper[:num_eq],
            col_lower=self.lower,
            col_upper=self.upper,
            name="max-concurrent-flow",
        )

    def solve(
        self,
        rem_active: np.ndarray,
        residual: np.ndarray,
        engine: Optional[HighsEngine],
    ):
        """Solve for the given remaining demands / residual capacities on
        *engine* (``None``: through :func:`~repro.lp.backends.solve_spec`).

        Returns ``(alpha, y)`` with ``y`` of shape ``(k, num_edges)``.

        Results are memoized on the exact inputs.  This is not (only) an
        optimization: a warm-started HiGHS re-solve may return *different*
        optimal vertices for the same degenerate LP depending on the basis
        left by earlier solves, and the simulator's incremental==full
        equivalence contract needs the allocation to be a deterministic
        function of ``(remaining, residual)``.  The memo pins the first
        vertex seen for each input, making every later request — from
        either simulation mode — reproduce it exactly.  The basis a solve
        starts from is this template's own, so solves of other templates on
        the same engine do not change the vertex.
        """
        residual_clipped = np.maximum(residual, 0.0)
        key = (rem_active.tobytes(), residual_clipped.tobytes())
        cached = self._memo.get(key)
        if cached is not None:
            alpha, y = cached
            return alpha, y.copy()
        self.solves += 1
        if engine is not None:
            value, row_upper = self._program(rem_active, residual_clipped)
            try:
                x, self.basis = engine.solve(
                    self.c,
                    self.start,
                    self.index,
                    value,
                    self.row_lower,
                    row_upper,
                    self.lower,
                    self.upper,
                    self.basis,
                )
            except HighsEngineError as exc:
                raise LPSolverError(
                    f"LP 'max-concurrent-flow' failed to solve: {exc}"
                ) from exc
        else:
            solution = solve_spec(self.spec(rem_active, residual_clipped))
            if not solution.is_optimal:
                raise LPSolverError(
                    f"LP 'max-concurrent-flow' failed to solve: "
                    f"{solution.status.value} ({solution.message})"
                )
            x = np.asarray(solution.x, dtype=float)
        alpha = float(max(x[0], 0.0))
        y = np.clip(x[1:].reshape(self.k, self.num_edges), 0.0, None)
        if len(self._memo) >= self.MEMO_MAX_ENTRIES:
            self._memo.clear()
        self._memo[key] = (alpha, y)
        return alpha, y.copy()


def _reachability(num_nodes: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Boolean transitive closure: ``reach[u, v]`` iff ``v`` is reachable from ``u``
    over the directed edges ``tails[i] -> heads[i]`` (Floyd–Warshall)."""
    reach = np.eye(num_nodes, dtype=bool)
    reach[tails, heads] = True
    for k in range(num_nodes):
        reach |= reach[:, k, None] & reach[k]
    return reach


class RateAllocator:
    """Per-instance vectorized allocation engine (see module docstring)."""

    def __init__(self, instance: CoflowInstance) -> None:
        self.instance = instance
        self.num_flows = instance.num_flows
        self.num_edges = instance.graph.num_edges
        self.free_path = instance.model is TransmissionModel.FREE_PATH
        coflow_of_flow = instance.coflow_of_flow()
        self._coflow_flow_idx: List[np.ndarray] = [
            np.nonzero(coflow_of_flow == j)[0]
            for j in range(instance.num_coflows)
        ]
        self._capacity = instance.graph.capacity_vector()
        self._capacity.setflags(write=False)
        # One shared, read-only empty allocation: most allocations of a
        # saturated network are empty, and nobody writes to them.
        self._empty = CoflowAllocation(
            flow_idx=np.empty(0, dtype=np.int64),
            flow_rates=np.empty(0, dtype=float),
            usage=np.zeros(self.num_edges, dtype=float),
            edge_rates=(
                np.empty((0, self.num_edges), dtype=float) if self.free_path else None
            ),
        )
        for array in (self._empty.flow_idx, self._empty.flow_rates, self._empty.usage):
            array.setflags(write=False)
        if self.free_path:
            graph = instance.graph
            node_of = {node: i for i, node in enumerate(graph.nodes)}
            self._num_nodes = len(node_of)
            self._edge_tail = np.array([node_of[u] for u, _ in graph.edges], dtype=np.int64)
            self._edge_head = np.array([node_of[v] for _, v in graph.edges], dtype=np.int64)
            refs = instance.flow_refs()
            self._flow_source = np.array(
                [node_of[r.flow.source] for r in refs], dtype=np.int64
            )
            self._flow_sink = np.array([node_of[r.flow.sink] for r in refs], dtype=np.int64)
            self._reach: Dict[bytes, np.ndarray] = {}
            self._commodities: Dict[Tuple[str, str], _CommodityRows] = {}
        else:
            inc_flows, inc_edges = instance.path_edge_incidence()
            self._inc_flows = inc_flows
            self._inc_edges = inc_edges
            # Per coflow: the (flow, edge) pairs of its flows' pinned paths.
            self._coflow_incidence: List[Tuple[np.ndarray, np.ndarray]] = []
            for idx in self._coflow_flow_idx:
                positions = np.nonzero(np.isin(inc_flows, idx))[0]
                self._coflow_incidence.append(
                    (inc_flows[positions], inc_edges[positions])
                )
        self._templates: Dict[Tuple[int, ...], _FreePathTemplate] = {}
        self._standalone_cache: Dict[Tuple[int, bytes], float] = {}
        #: Free-path allocations short-circuited by the reachability test.
        self.blocked = 0

    @property
    def lp_solves(self) -> int:
        """Max-concurrent-flow LPs solved so far (memo hits excluded)."""
        return sum(template.solves for template in self._templates.values())

    @cached_property
    def _engine(self) -> Optional[HighsEngine]:
        """The one HiGHS engine every template of this allocator solves on,
        made at the first template solve; ``None`` without HiGHS."""
        return make_highs_engine()

    # ------------------------------------------------------------------ #
    # single path
    # ------------------------------------------------------------------ #
    def _single_path_core(
        self,
        cand_idx: np.ndarray,
        incidence: Tuple[np.ndarray, np.ndarray],
        remaining: np.ndarray,
        residual: np.ndarray,
    ) -> CoflowAllocation:
        ef, ee = incidence
        keep = remaining[ef] > RATE_TOL
        ef = ef[keep]
        ee = ee[keep]
        if ef.size == 0:
            return self._empty
        usage_per_alpha = np.bincount(
            ee, weights=remaining[ef], minlength=self.num_edges
        )
        loaded = usage_per_alpha > RATE_TOL
        if not loaded.any():
            return self._empty
        with np.errstate(divide="ignore"):
            alpha = float(np.min(residual[loaded] / usage_per_alpha[loaded]))
        alpha = max(alpha, 0.0)
        if alpha <= RATE_TOL:
            return self._empty
        active = cand_idx[remaining[cand_idx] > RATE_TOL]
        return CoflowAllocation(
            flow_idx=active,
            flow_rates=alpha * remaining[active],
            usage=alpha * usage_per_alpha,
        )

    # ------------------------------------------------------------------ #
    # free path
    # ------------------------------------------------------------------ #
    def _sinks_reachable(self, active: np.ndarray, residual: np.ndarray) -> bool:
        """Whether every active flow's sink is reachable from its source over
        edges with residual capacity > 0.

        The max-concurrent-flow optimum is 0 exactly when this fails (a
        commodity with no positive-capacity path cannot ship any fraction of
        its demand), so the test decides those LPs without solving them.
        """
        open_edges = residual > 0.0
        if open_edges.all():
            return True
        key = open_edges.tobytes()
        reach = self._reach.get(key)
        if reach is None:
            reach = _reachability(
                self._num_nodes, self._edge_tail[open_edges], self._edge_head[open_edges]
            )
            if len(self._reach) >= _FreePathTemplate.MEMO_MAX_ENTRIES:
                self._reach.clear()
            self._reach[key] = reach
        return bool(reach[self._flow_source[active], self._flow_sink[active]].all())

    def _commodity(self, flow: int) -> _CommodityRows:
        """The commodity rows of flow *flow*, built once per source/sink pair."""
        ref = self.instance.flow_refs()[flow]
        pair = (ref.flow.source, ref.flow.sink)
        rows = self._commodities.get(pair)
        if rows is None:
            rows = _commodity_rows(self.instance.graph, *pair)
            self._commodities[pair] = rows
        return rows

    def _free_path_core(
        self,
        cand_idx: np.ndarray,
        remaining: np.ndarray,
        residual: np.ndarray,
    ) -> CoflowAllocation:
        active = cand_idx[remaining[cand_idx] > RATE_TOL]
        if active.size == 0:
            return self._empty
        if not self._sinks_reachable(active, residual):
            self.blocked += 1
            return self._empty
        key = tuple(active.tolist())
        template = self._templates.get(key)
        if template is None:
            template = _FreePathTemplate(
                self.num_edges, [self._commodity(f) for f in key]
            )
            self._templates[key] = template
        alpha, y = template.solve(remaining[active], residual, self._engine)
        if alpha <= RATE_TOL:
            return self._empty
        return CoflowAllocation(
            flow_idx=active,
            flow_rates=alpha * remaining[active],
            usage=y.sum(axis=0),
            edge_rates=y,
        )

    # ------------------------------------------------------------------ #
    # per-coflow entry point
    # ------------------------------------------------------------------ #
    def coflow_allocation(
        self, coflow_index: int, remaining: np.ndarray, residual: np.ndarray
    ) -> CoflowAllocation:
        """Fastest-completion allocation of one coflow on *residual*.

        The returned allocation is shared (an empty one always is) and must
        not be modified.
        """
        cand = self._coflow_flow_idx[coflow_index]
        if self.free_path:
            return self._free_path_core(cand, remaining, residual)
        return self._single_path_core(
            cand, self._coflow_incidence[coflow_index], remaining, residual
        )

    # ------------------------------------------------------------------ #
    # standalone times (Terra's LP families), cached
    # ------------------------------------------------------------------ #
    def max_concurrent_rate(
        self, coflow_index: int, remaining: Optional[np.ndarray] = None
    ) -> float:
        if remaining is None:
            remaining = self.instance.demands()
        cand = self._coflow_flow_idx[coflow_index]
        rem_slice = np.ascontiguousarray(remaining[cand])
        key = (coflow_index, rem_slice.tobytes())
        cached = self._standalone_cache.get(key)
        if cached is not None:
            return cached
        alloc = self.coflow_allocation(coflow_index, remaining, self._capacity)
        if alloc.flow_idx.size == 0:
            active_any = bool((rem_slice > RATE_TOL).any())
            alpha = 0.0 if active_any else float("inf")
        else:
            with np.errstate(divide="ignore"):
                alpha = float(
                    np.min(alloc.flow_rates / remaining[alloc.flow_idx])
                )
        self._standalone_cache[key] = alpha
        return alpha


#: One allocator per live instance; instances are assumed immutable once
#: scheduling starts, so the allocator (and its caches) never invalidates.
_ALLOCATORS: "weakref.WeakKeyDictionary[CoflowInstance, RateAllocator]" = (
    weakref.WeakKeyDictionary()
)


def get_rate_allocator(instance: CoflowInstance) -> RateAllocator:
    """The (cached) :class:`RateAllocator` for *instance*."""
    allocator = _ALLOCATORS.get(instance)
    if allocator is None:
        allocator = RateAllocator(instance)
        # A content-transparent memo: the mapping is weak, keyed by
        # instance identity, and the cached allocator is a pure function of
        # the (immutable) instance, so results never depend on whether the
        # entry was present.
        _ALLOCATORS[instance] = allocator
    return allocator


# --------------------------------------------------------------------------- #
# public primitives (same signatures as the original loop implementations)
# --------------------------------------------------------------------------- #
def single_path_coflow_rates(
    instance: CoflowInstance,
    flow_refs: Sequence[FlowRef],
    remaining: np.ndarray,
    residual: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fastest-completion rates for one coflow's flows along pinned paths.

    All flows of the coflow progress proportionally to their remaining
    demand: flow *f* gets rate ``alpha * remaining_f`` with the largest
    ``alpha`` such that no edge of the residual network is overloaded.

    Returns ``(rates_by_global_index, usage)`` where ``usage`` has one
    entry per edge.
    """
    allocator = get_rate_allocator(instance)
    cand = np.array([r.global_index for r in flow_refs], dtype=np.int64)
    if allocator.free_path:
        # A free-path instance whose flows happen to carry pinned paths may
        # still use the single-path primitive (legacy behaviour); build the
        # incidence locally from the given refs.
        edge_index = instance.graph.edge_index()
        ef_list: List[int] = []
        ee_list: List[int] = []
        for ref in flow_refs:
            for edge in ref.flow.path_edges():
                ef_list.append(ref.global_index)
                ee_list.append(edge_index[edge])
        ef_all = np.array(ef_list, dtype=np.int64)
        ee_all = np.array(ee_list, dtype=np.int64)
        keep = remaining[ef_all] > RATE_TOL if ef_all.size else np.zeros(0, bool)
        rates = np.zeros(instance.num_flows, dtype=float)
        usage = np.zeros(allocator.num_edges, dtype=float)
        if keep.any():
            usage_per_alpha = np.bincount(
                ee_all[keep],
                weights=remaining[ef_all[keep]],
                minlength=allocator.num_edges,
            )
            loaded = usage_per_alpha > RATE_TOL
            with np.errstate(divide="ignore"):
                alpha = max(
                    float(np.min(residual[loaded] / usage_per_alpha[loaded])), 0.0
                )
            if alpha > RATE_TOL:
                active = cand[remaining[cand] > RATE_TOL]
                rates[active] = alpha * remaining[active]
                usage = alpha * usage_per_alpha
        return rates, usage
    positions = np.nonzero(np.isin(allocator._inc_flows, cand))[0]
    incidence = (allocator._inc_flows[positions], allocator._inc_edges[positions])
    alloc = allocator._single_path_core(cand, incidence, remaining, residual)
    rates = np.zeros(instance.num_flows, dtype=float)
    rates[alloc.flow_idx] = alloc.flow_rates
    return rates, alloc.usage.copy()


def free_path_coflow_rates(
    instance: CoflowInstance,
    flow_refs: Sequence[FlowRef],
    remaining: np.ndarray,
    residual: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fastest-completion rates for one coflow in the free path model.

    Solves the max-concurrent-flow LP: maximise ``alpha`` such that routing
    ``alpha * remaining_f`` units per unit time for every unfinished flow *f*
    of the coflow is a feasible multicommodity flow within the residual
    capacities.

    Returns ``(rates, per_flow_edge_rates, usage)``.
    """
    allocator = get_rate_allocator(instance)
    cand = np.array([r.global_index for r in flow_refs], dtype=np.int64)
    alloc = allocator._free_path_core(cand, remaining, residual)
    rates = np.zeros(instance.num_flows, dtype=float)
    flow_edge_rates = np.zeros((instance.num_flows, allocator.num_edges), dtype=float)
    rates[alloc.flow_idx] = alloc.flow_rates
    if alloc.flow_idx.size:
        flow_edge_rates[alloc.flow_idx] = alloc.edge_rates
    return rates, flow_edge_rates, alloc.usage.copy()


def allocate_rates(
    instance: CoflowInstance,
    remaining: np.ndarray,
    coflow_priority: Sequence[int],
    *,
    active_coflows: Optional[Sequence[int]] = None,
) -> RateAllocation:
    """Greedy, priority-ordered rate allocation (one simulator round).

    Parameters
    ----------
    instance:
        The scheduling instance (model decides the allocation primitive).
    remaining:
        Remaining demand of every flow (global flow index).
    coflow_priority:
        Coflow indices from highest to lowest priority.
    active_coflows:
        Coflows currently allowed to transmit (released and unfinished);
        defaults to every coflow in *coflow_priority*.
    """
    allocator = get_rate_allocator(instance)
    graph = instance.graph
    residual = graph.capacity_vector()
    rates = np.zeros(instance.num_flows, dtype=float)
    edge_rates = (
        np.zeros((instance.num_flows, graph.num_edges), dtype=float)
        if allocator.free_path
        else None
    )
    active_set = set(active_coflows if active_coflows is not None else coflow_priority)

    for j in coflow_priority:
        if j not in active_set:
            continue
        alloc = allocator.coflow_allocation(j, remaining, residual)
        if alloc.flow_idx.size:
            rates[alloc.flow_idx] = alloc.flow_rates
            if edge_rates is not None:
                edge_rates[alloc.flow_idx] += alloc.edge_rates
            residual = np.clip(residual - alloc.usage, 0.0, None)
    return RateAllocation(rates=rates, edge_rates=edge_rates, residual_capacity=residual)


def max_concurrent_rate(
    instance: CoflowInstance, coflow_index: int, remaining: Optional[np.ndarray] = None
) -> float:
    """Largest ``alpha`` such that the coflow can ship ``alpha`` of its remaining
    demand per unit time when it has the whole network to itself."""
    return get_rate_allocator(instance).max_concurrent_rate(coflow_index, remaining)


def coflow_standalone_time(
    instance: CoflowInstance, coflow_index: int, remaining: Optional[np.ndarray] = None
) -> float:
    """Minimum time for the coflow to finish alone on the empty network.

    This is Terra's per-coflow completion-time estimate: the reciprocal of
    the maximum concurrent rate.  Returns 0 when the coflow has no remaining
    demand.  Results are memoized per (coflow, remaining-demand signature)
    on the instance's allocator — the network is always the empty one — so
    the repeated LP families of Terra and the greedy baselines are solved
    once.
    """
    alpha = max_concurrent_rate(instance, coflow_index, remaining)
    if np.isinf(alpha):
        return 0.0
    if alpha <= RATE_TOL:
        raise ValueError(
            f"coflow {coflow_index} cannot make progress on the network"
        )
    return 1.0 / alpha
