"""The embedding graph: the placement target of the embedder (Section II).

"First, we construct an embedding graph as a uniform grid of feasible
placement locations.  Then, we assign placement costs based on local
placement congestion information. ... To each edge in the graph we assign
wire cost.  The ability to work on arbitrary graphs implicitly allows
support of nonuniform target technology structures."

Vertices are dense integers; each directed edge carries a wire cost and a
wire delay.  Per-vertex *base* placement costs encode congestion;
node-specific adjustments (the equivalence discount of Section III) are
supplied per embedding run through a callback, so one graph serves many
replication trees.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.arch.fpga import FpgaArch, Slot

#: Marker cost for blocked vertices ("a designer may wish that certain
#: areas of the design remain undisturbed").
BLOCKED = math.inf


@dataclass(frozen=True)
class Edge:
    """A directed embedding-graph edge."""

    target: int
    wire_cost: float
    wire_delay: float


class EmbeddingGraph:
    """A general routing/placement target graph."""

    def __init__(self) -> None:
        self._adjacency: list[list[Edge]] = []
        self._base_cost: list[float] = []
        self._position: list[Slot | None] = []
        self._csr: tuple[list[int], list[int], list[float], list[float]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_vertex(self, base_cost: float = 0.0, position: Slot | None = None) -> int:
        vertex = len(self._adjacency)
        self._adjacency.append([])
        self._base_cost.append(base_cost)
        self._position.append(position)
        self._csr = None
        return vertex

    def add_edge(
        self, u: int, v: int, wire_cost: float, wire_delay: float, both: bool = True
    ) -> None:
        self._adjacency[u].append(Edge(v, wire_cost, wire_delay))
        if both:
            self._adjacency[v].append(Edge(u, wire_cost, wire_delay))
        self._csr = None

    def block_vertex(self, vertex: int) -> None:
        """Mark a vertex as unusable for gate placement."""
        self._base_cost[vertex] = BLOCKED

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adjacency)

    def edges_from(self, vertex: int) -> list[Edge]:
        return self._adjacency[vertex]

    def csr(self) -> tuple[list[int], list[int], list[float], list[float]]:
        """Flat-array (CSR) adjacency: ``(indptr, targets, costs, delays)``.

        Vertex ``v``'s out-edges occupy positions ``indptr[v]`` to
        ``indptr[v + 1]``.  Built once and cached — the graph geometry is
        fixed across the per-sink embeddings of a flow iteration — and
        invalidated by :meth:`add_vertex` / :meth:`add_edge`.  Plain
        Python lists deliberately: at these sizes list indexing beats the
        boxing overhead of ``array``/numpy element access in the DP's
        inner loop.
        """
        if self._csr is None:
            indptr = [0]
            targets: list[int] = []
            costs: list[float] = []
            delays: list[float] = []
            for edges in self._adjacency:
                for edge in edges:
                    targets.append(edge.target)
                    costs.append(edge.wire_cost)
                    delays.append(edge.wire_delay)
                indptr.append(len(targets))
            self._csr = (indptr, targets, costs, delays)
        return self._csr

    def distances_to(self, vertex: int) -> list[float]:
        """Shortest wire delay from every vertex to ``vertex`` along the
        directed edges (``inf`` where ``vertex`` cannot be reached).

        Dijkstra from ``vertex`` over the reversed :meth:`csr` edges.
        """
        indptr, targets, _costs, delays = self.csr()
        into: list[list[tuple[int, float]]] = [[] for _ in self._adjacency]
        for u in range(len(into)):
            for index in range(indptr[u], indptr[u + 1]):
                into[targets[index]].append((u, delays[index]))
        dist = [math.inf] * len(into)
        dist[vertex] = 0.0
        heap = [(0.0, vertex)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for u, delay in into[v]:
                step = d + delay
                if step < dist[u]:
                    dist[u] = step
                    heapq.heappush(heap, (step, u))
        return dist

    def base_cost(self, vertex: int) -> float:
        return self._base_cost[vertex]

    def set_base_cost(self, vertex: int, cost: float) -> None:
        self._base_cost[vertex] = cost

    def is_blocked(self, vertex: int) -> bool:
        return math.isinf(self._base_cost[vertex])

    def position(self, vertex: int) -> Slot | None:
        return self._position[vertex]

    def vertices(self) -> range:
        return range(len(self._adjacency))


class GridEmbeddingGraph(EmbeddingGraph):
    """Uniform grid over an FPGA's logic slots (+ optional pad ring).

    Vertices are grid slots; 4-neighbour edges carry unit wire cost
    scaled by ``wire_cost_per_unit`` and the architecture's per-unit wire
    delay.  The fixed per-connection delay of the linear model
    (:class:`repro.arch.delay.LinearDelayModel.connection_delay`) is NOT
    on the edges — the embedder charges it once per nonzero-length
    connection using the branching bit, which reproduces the piecewise
    point-to-point delay exactly for tree routes.
    """

    def __init__(
        self,
        arch: FpgaArch,
        wire_cost_per_unit: float = 1.0,
        include_pads: bool = True,
    ) -> None:
        super().__init__()
        self.arch = arch
        self.wire_cost_per_unit = wire_cost_per_unit
        self._vertex_of: dict[Slot, int] = {}

        slots = list(arch.logic_slots())
        if include_pads:
            slots += arch.pad_slots()
        for slot in slots:
            self._vertex_of[slot] = self.add_vertex(0.0, position=slot)

        delay_per_unit = arch.delay_model.wire_delay_per_unit
        for slot, u in self._vertex_of.items():
            x, y = slot
            for neighbour in ((x + 1, y), (x, y + 1)):
                v = self._vertex_of.get(neighbour)
                if v is not None:
                    self.add_edge(u, v, wire_cost_per_unit, delay_per_unit)

    def vertex_at(self, slot: Slot) -> int:
        """Vertex id of a grid slot; raises ``KeyError`` if absent."""
        return self._vertex_of[slot]

    def slot_at(self, vertex: int) -> Slot:
        position = self.position(vertex)
        assert position is not None
        return position
