"""A coflow scheduling instance: a network plus the coflows to schedule on it."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.network.graph import NetworkGraph


class TransmissionModel(str, enum.Enum):
    """The two transmission models studied by the paper (Section 2).

    ``SINGLE_PATH``
        Every flow is pinned to a given path; only edge bandwidths constrain
        the schedule (paper Eq. 6).  This is Jahanjou et al.'s
        "circuit-based coflows with paths given" model.
    ``FREE_PATH``
        Per-slot transmissions form a feasible multicommodity flow; data may
        split and merge arbitrarily (paper Eqs. 7–10).  Introduced by Terra.
    """

    SINGLE_PATH = "single_path"
    FREE_PATH = "free_path"

    @classmethod
    def parse(cls, value: "TransmissionModel | str") -> "TransmissionModel":
        """Accept either an enum member or its string name/value."""
        if isinstance(value, cls):
            return value
        key = str(value).strip().lower().replace("-", "_")
        for member in cls:
            if member.value == key or member.name.lower() == key:
                return member
        raise ValueError(
            f"unknown transmission model {value!r}; "
            f"expected one of {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class FlowRef:
    """A (coflow index, flow index) pair with a dense global index.

    LP builders and schedules address flows by their global index so that
    schedule matrices can be plain numpy arrays.
    """

    coflow_index: int
    flow_index: int
    global_index: int
    flow: Flow
    coflow: Coflow

    @property
    def release_time(self) -> float:
        """The binding release time of this flow."""
        return self.coflow.effective_release_time(self.flow)

    @property
    def demand(self) -> float:
        return self.flow.demand

    @property
    def label(self) -> str:
        """Readable identifier, e.g. ``C3.f1 (a->b)``."""
        cname = self.coflow.name or f"C{self.coflow_index}"
        fname = self.flow.name or f"f{self.flow_index}"
        return f"{cname}.{fname} ({self.flow.source}->{self.flow.sink})"


class CoflowInstance:
    """A complete scheduling problem: ``(G, c)`` plus the coflow set ``J``.

    Parameters
    ----------
    graph:
        The capacitated network.
    coflows:
        The coflows to schedule.  Order is preserved and used as the coflow
        index everywhere in the library.
    model:
        Which transmission model this instance is intended for.  Single path
        instances must have a pinned path on every flow and the paths must
        exist in the graph; free path instances only need connectivity.
    name:
        Optional label used in experiment reports.
    """

    def __init__(
        self,
        graph: NetworkGraph,
        coflows: Sequence[Coflow],
        *,
        model: TransmissionModel | str = TransmissionModel.FREE_PATH,
        name: Optional[str] = None,
        validate: bool = True,
    ) -> None:
        self._graph = graph
        self._coflows: Tuple[Coflow, ...] = tuple(coflows)
        self._model = TransmissionModel.parse(model)
        self._name = name or f"instance-{self._model.value}"
        if not self._coflows:
            raise ValueError("an instance must contain at least one coflow")
        self._flow_refs: Tuple[FlowRef, ...] = self._build_flow_refs()
        buckets: List[List[FlowRef]] = [[] for _ in self._coflows]
        for ref in self._flow_refs:
            buckets[ref.coflow_index].append(ref)
        self._flows_by_coflow: Tuple[Tuple[FlowRef, ...], ...] = tuple(
            tuple(bucket) for bucket in buckets
        )
        # Lazily computed, cached numpy views (see _frozen_array).
        self._array_cache: Dict[str, np.ndarray] = {}
        self._path_incidence_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if validate:
            self.validate()

    def _frozen_array(self, key: str, build) -> np.ndarray:
        """Build-once cache for derived arrays, returned read-only.

        The arrays are shared between callers (LP builders, simulators,
        baselines), so they are marked non-writeable; callers that need a
        mutable copy must copy explicitly.
        """
        cached = self._array_cache.get(key)
        if cached is None:
            cached = np.asarray(build())
            cached.setflags(write=False)
            self._array_cache[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> NetworkGraph:
        return self._graph

    @property
    def coflows(self) -> Tuple[Coflow, ...]:
        return self._coflows

    @property
    def model(self) -> TransmissionModel:
        return self._model

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_coflows(self) -> int:
        return len(self._coflows)

    @property
    def num_flows(self) -> int:
        """Total number of flows across all coflows."""
        return len(self._flow_refs)

    @property
    def weights(self) -> np.ndarray:
        """Coflow weights as a float array indexed by coflow index (cached)."""
        return self._frozen_array(
            "weights", lambda: np.array([c.weight for c in self._coflows], dtype=float)
        )

    @property
    def release_times(self) -> np.ndarray:
        """Coflow release times as a float array indexed by coflow index (cached)."""
        return self._frozen_array(
            "release_times",
            lambda: np.array([c.release_time for c in self._coflows], dtype=float),
        )

    def _build_flow_refs(self) -> Tuple[FlowRef, ...]:
        refs: List[FlowRef] = []
        for j, coflow in enumerate(self._coflows):
            for i, flow in enumerate(coflow.flows):
                refs.append(
                    FlowRef(
                        coflow_index=j,
                        flow_index=i,
                        global_index=len(refs),
                        flow=flow,
                        coflow=coflow,
                    )
                )
        return tuple(refs)

    # ------------------------------------------------------------------ #
    # flow enumeration
    # ------------------------------------------------------------------ #
    def flow_refs(self) -> Tuple[FlowRef, ...]:
        """All flows with their dense global indices (stable ordering)."""
        return self._flow_refs

    def flows_of(self, coflow_index: int) -> Tuple[FlowRef, ...]:
        """Flow refs belonging to the coflow at *coflow_index* (precomputed)."""
        return self._flows_by_coflow[coflow_index]

    def flow_ref(self, coflow_index: int, flow_index: int) -> FlowRef:
        """Look up a flow ref by (coflow, flow) position."""
        for ref in self._flow_refs:
            if ref.coflow_index == coflow_index and ref.flow_index == flow_index:
                return ref
        raise KeyError(f"no flow ({coflow_index}, {flow_index}) in instance")

    def demands(self) -> np.ndarray:
        """Flow demands as a float array indexed by global flow index (cached)."""
        return self._frozen_array(
            "demands",
            lambda: np.array([r.demand for r in self._flow_refs], dtype=float),
        )

    def flow_release_times(self) -> np.ndarray:
        """Effective flow release times indexed by global flow index (cached)."""
        return self._frozen_array(
            "flow_release_times",
            lambda: np.array([r.release_time for r in self._flow_refs], dtype=float),
        )

    def coflow_of_flow(self) -> np.ndarray:
        """Coflow index of each flow, indexed by global flow index (cached)."""
        return self._frozen_array(
            "coflow_of_flow",
            lambda: np.array([r.coflow_index for r in self._flow_refs], dtype=int),
        )

    def coflow_release_times(self) -> np.ndarray:
        """Earliest release time of each coflow, min over its flows (cached)."""

        def build() -> np.ndarray:
            release = np.full(self.num_coflows, np.inf)
            for ref in self._flow_refs:
                release[ref.coflow_index] = min(
                    release[ref.coflow_index], ref.release_time
                )
            return release

        return self._frozen_array("coflow_release_times", build)

    def coflow_total_demands(self) -> np.ndarray:
        """Total demand of each coflow, indexed by coflow index (cached)."""
        return self._frozen_array(
            "coflow_total_demands",
            lambda: np.bincount(
                self.coflow_of_flow(),
                weights=self.demands(),
                minlength=self.num_coflows,
            ),
        )

    def path_edge_incidence(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flow→edge incidence of the pinned paths, as parallel COO arrays.

        Returns ``(flow_ids, edge_ids)``: entry *k* says the flow with global
        index ``flow_ids[k]`` traverses the edge with dense index
        ``edge_ids[k]``.  Entries are ordered flow-major, path-order minor.
        Computed once and cached; this is the array the vectorized LP builder
        and the simulator's rate allocator share.

        Raises
        ------
        ValueError
            If some flow has no pinned path.
        """
        if self._path_incidence_cache is None:
            edge_index = self._graph.edge_index()
            flow_ids: List[int] = []
            edge_ids: List[int] = []
            for ref in self._flow_refs:
                if not ref.flow.has_path:
                    raise ValueError(
                        f"path incidence requires a pinned path on flow {ref.label}"
                    )
                for edge in ref.flow.path_edges():
                    flow_ids.append(ref.global_index)
                    edge_ids.append(edge_index[edge])
            flows = np.array(flow_ids, dtype=np.int64)
            edges = np.array(edge_ids, dtype=np.int64)
            flows.setflags(write=False)
            edges.setflags(write=False)
            self._path_incidence_cache = (flows, edges)
        return self._path_incidence_cache

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def total_demand(self) -> float:
        """Sum of all flow demands in the instance."""
        return float(self.demands().sum())

    def max_release_time(self) -> float:
        """Latest effective release time over all flows."""
        return float(self.flow_release_times().max(initial=0.0))

    def horizon_upper_bound(self) -> int:
        """A safe integral upper bound ``T`` on the schedule makespan.

        Any released flow can always ship at least ``min_capacity`` units per
        slot along some path once scheduled alone, so serialising all flows
        after the last release time bounds the horizon.  The bound is loose
        but only affects LP size, not correctness; callers typically pass a
        tighter, workload-aware horizon.
        """
        min_cap = self._graph.min_capacity()
        serial_slots = int(np.ceil(self.total_demand() / min_cap)) + self.num_flows
        return int(np.ceil(self.max_release_time())) + max(serial_slots, 1)

    def trivial_lower_bound(self) -> float:
        """A weak per-coflow lower bound on the weighted completion time.

        Each coflow needs at least ``ceil(max flow demand / max capacity)``
        slots after its release time; summing the weighted bounds gives an
        instance-level sanity lower bound used in tests.
        """
        max_cap = self._graph.max_capacity()
        total = 0.0
        for coflow in self._coflows:
            slots = np.ceil(coflow.max_demand / max_cap)
            total += coflow.weight * (coflow.release_time + max(slots, 1.0))
        return float(total)

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def with_model(self, model: TransmissionModel | str) -> "CoflowInstance":
        """Return a copy of the instance for a different transmission model."""
        return CoflowInstance(
            self._graph,
            self._coflows,
            model=model,
            name=self._name,
        )

    def with_coflows(self, coflows: Sequence[Coflow]) -> "CoflowInstance":
        """Return a copy with a different coflow set (same graph and model)."""
        return CoflowInstance(
            self._graph, coflows, model=self._model, name=self._name
        )

    def unweighted(self) -> "CoflowInstance":
        """Copy of the instance with all coflow weights set to 1."""
        return self.with_coflows([c.unweighted() for c in self._coflows])

    def without_release_times(self) -> "CoflowInstance":
        """Copy of the instance with all release times reset to 0."""
        new = []
        for coflow in self._coflows:
            flows = [f.with_release_time(0.0) for f in coflow.flows]
            new.append(coflow.with_flows(flows).with_release_time(0.0))
        return self.with_coflows(new)

    def subset(self, coflow_indices: Sequence[int]) -> "CoflowInstance":
        """Instance restricted to the given coflow indices (order preserved)."""
        chosen = [self._coflows[i] for i in coflow_indices]
        return self.with_coflows(chosen)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the instance is well formed for its transmission model.

        Raises
        ------
        ValueError
            If an endpoint is missing from the graph, a pinned path uses a
            missing edge, a single-path instance has unpinned flows, or a
            free-path instance has a disconnected source/sink pair.
        """
        for ref in self._flow_refs:
            flow = ref.flow
            for endpoint in (flow.source, flow.sink):
                if not self._graph.has_node(endpoint):
                    raise ValueError(
                        f"flow {ref.label} endpoint {endpoint!r} is not a node of "
                        f"graph {self._graph.name!r}"
                    )
            if self._model is TransmissionModel.SINGLE_PATH:
                if not flow.has_path:
                    raise ValueError(
                        f"single path instance requires a pinned path on every "
                        f"flow; {ref.label} has none"
                    )
                self._graph.validate_path(flow.path)  # type: ignore[arg-type]
            else:
                if not self._graph.is_connected(flow.source, flow.sink):
                    raise ValueError(
                        f"no directed path from {flow.source!r} to {flow.sink!r} "
                        f"for flow {ref.label}"
                    )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable representation of the instance."""
        return {
            "name": self._name,
            "model": self._model.value,
            "graph": {
                "name": self._graph.name,
                "nodes": list(self._graph.nodes),
                "edges": [
                    {"source": u, "sink": v, "capacity": cap}
                    for (u, v), cap in self._graph.capacities().items()
                ],
            },
            "coflows": [c.to_dict() for c in self._coflows],
        }

    def save_json(self, path: str | Path) -> None:
        """Write the instance to a JSON file (atomic temp+rename).

        :func:`repro.workloads.traces.load_instance` reads it back.
        """
        from repro.utils.io import atomic_write_json

        atomic_write_json(path, self.to_dict())

    def __repr__(self) -> str:
        return (
            f"CoflowInstance(name={self._name!r}, model={self._model.value!r}, "
            f"coflows={self.num_coflows}, flows={self.num_flows}, "
            f"graph={self._graph.name!r})"
        )
