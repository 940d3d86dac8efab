"""Optimal timing-driven fanin-tree embedding (Section II, Fig. 6).

The dynamic program proceeds bottom-up over the tree topology.  For each
tree node ``i`` and embedding-graph vertex ``j`` it maintains the Pareto
front ``A[i][j]`` of non-dominated ``(cost, delay-key)`` signatures of
embeddings of the subtree rooted at ``i`` *driven from* ``j``:

* **ComputeInitial** — a leaf's single branching label sits at its fixed
  vertex with zero cost and its arrival time.
* **GenDijkstra** — a multi-label wavefront expansion (generalized
  Dijkstra, after [9]) propagates each new generation of branching
  labels through the graph, accumulating wire cost/delay and discarding
  dominated labels on the fly.  Labels pop in lexicographic
  ``(cost, delay-key)`` order, so any label that would dominate a popped
  label has been popped before it — the classic label-setting argument.
* **JoinTree** — at an internal node, children fronts at each vertex are
  folded pairwise (the schemes' ``combine`` is associative) with
  intermediate Pareto pruning; the result is charged the node's
  placement cost and gate delay and becomes the branching generation
  ``A^b[i][j]``.
* **AugmentRoot** — the root (sink) joins at its fixed vertex (or at
  every vertex when FF relocation frees it) and yields the final
  cost/delay trade-off curve.

One pruning rule on top of the paper's: a label is never built or pushed
once it cannot reach the root within ``delay_bound``.  Every label of
node ``i`` at vertex ``v`` still pays ``G(i)``, the gate delays of
``i``'s ancestors (the root's capture included), and — for schemes
whose ``extend`` adds exactly the wire delay (RT, Lex-N, Lex-mc) and a
fixed root — at least ``D(v)``, the shortest wire delay from ``v`` to the
root; so a label whose primary delay plus ``G(i) + D(v)`` passes the
bound is dead.  A dead label only dominates labels as dead as itself,
so without a front cap the root front is exactly the unpruned DP's; with
``max_labels_per_vertex`` the cap slots go to live labels only.

Two paper-faithful details:

* the fixed per-connection delay of the linear model is charged at join
  time to every child label whose ``branching`` bit is clear (i.e. the
  child gate is *not* co-located with the parent), which reproduces the
  piecewise point-to-point delay of Section II-B exactly;
* the branching bit doubles as the overlap-control device of Section
  II-A: with ``max_cohabiting_children`` set, joins whose children would
  stack more gates on one vertex than CLB capacity allows are skipped.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.embedding_graph import EmbeddingGraph
from repro.core.signatures import DelayScheme, MaxArrivalScheme, SortKey
from repro.core.solutions import (
    _MAX_SORT,
    _MIN_SORT,
    BitAwareFront,
    Label,
    ParetoFront,
    make_front,
)
from repro.core.topology import FaninTree, TreeNode
from repro.perf import PERF

#: Float slack of the delay-bound lookahead (ns): far above the round-off
#: of summing gate and wire delays in another order, far below any delay
#: difference the flow acts on.
_SLACK = 1e-9

#: Placement cost callback: (tree node, vertex) -> cost (inf = forbidden).
PlacementCostFn = Callable[[TreeNode, int], float]


def zero_placement_cost(_node: TreeNode, _vertex: int) -> float:
    """Default: no placement cost anywhere."""
    return 0.0


@dataclass
class EmbedderOptions:
    """Tuning knobs for the embedding DP.

    Attributes:
        connection_delay: Fixed delay charged once per nonzero-length
            tree connection (match the architecture's linear model).
        delay_bound: Labels that cannot reach the root within this are
            pruned: a label's primary delay plus the gate delays still
            ahead of it and (for additive-wire schemes and a fixed
            root) its shortest wire delay to the root (the flow passes
            the current critical delay — slower solutions are never
            useful).  ``inf`` disables.
        max_labels_per_vertex: Optional cap on front size per (node,
            vertex); keeps worst-case work bounded on large graphs.
            ``0`` disables.
        max_cohabiting_children: Optional overlap control (Section II-A
            approach 1): maximum number of *branching* children allowed
            in a single join.  ``None`` disables (approach 2 — the
            legalizer cleans up).
    """

    connection_delay: float = 0.0
    delay_bound: float = math.inf
    max_labels_per_vertex: int = 0
    max_cohabiting_children: int | None = None


@dataclass
class EmbeddingResult:
    """Trade-off curve at the root plus reconstruction machinery."""

    tree: FaninTree
    scheme: DelayScheme
    root_front: ParetoFront
    #: For a movable root (FF relocation, Section V-D): every per-vertex
    #: non-dominated label — "the tradeoff curve that is composed of
    #: solutions at all possible locations for the critical sink".
    #: Cross-vertex dominance must NOT collapse these, because the
    #: relocation pick weighs a position-dependent penalty.
    root_candidates: list[Label] = field(default_factory=list)
    #: Vertices explored (diagnostics).
    vertices_touched: int = 0

    def trade_off(self) -> list[tuple[float, float]]:
        """(cost, primary delay) pairs, cheapest first."""
        return [
            (label.cost, self.scheme.primary(label.key)) for label in self.root_front
        ]

    def pick(self, delay_bound: float, fallback_margin: float = 0.02) -> Label | None:
        """Cheapest root label with primary delay <= bound, else ~fastest.

        Implements the paper's selection rule ("the cheapest solution
        that is fast enough", Section II-C).  When nothing meets the
        bound, the fallback is the cheapest label within
        ``fallback_margin`` of the fastest achievable delay — going to
        the literal fastest can cost arbitrarily much replication for a
        negligible delay edge.
        """
        qualifying = [
            label
            for label in self.root_front
            if self.scheme.primary(label.key) <= delay_bound + 1e-12
        ]
        if qualifying:
            return min(qualifying, key=lambda label: label.cost)
        fastest = self.root_front.best_delay()
        if fastest is None:
            return None
        limit = self.scheme.primary(fastest.key) * (1.0 + fallback_margin)
        near_fastest = [
            label
            for label in self.root_front
            if self.scheme.primary(label.key) <= limit + 1e-12
        ]
        return min(near_fastest, key=lambda label: label.cost)

    def extract_placements(self, label: Label) -> dict[int, int]:
        """Tree-node-index -> vertex for the chosen solution.

        Top-down retrace of the DP choices (Section II: "the actual
        embedding is reconstructed in a top-down process").  Leaves are
        included (at their fixed vertices).
        """
        placements: dict[int, int] = {}
        stack = [label]
        while stack:
            current = stack.pop()
            while not current.branching:
                assert current.pred is not None
                current = current.pred
            placements[current.node] = current.vertex
            stack.extend(current.parts)
        return placements

    def extract_routes(self, label: Label) -> dict[int, list[int]]:
        """Tree-node-index -> vertex path from the node to its parent.

        The path is the wavefront trail (placement vertex first, parent's
        vertex last); co-located connections yield single-vertex paths.
        """
        routes: dict[int, list[int]] = {}
        stack = [label]
        while stack:
            current = stack.pop()
            trail = [current.vertex]
            while not current.branching:
                assert current.pred is not None
                current = current.pred
                trail.append(current.vertex)
            trail.reverse()
            routes[current.node] = trail
            stack.extend(current.parts)
        return routes


class FaninTreeEmbedder:
    """The DP engine; one instance per embedding graph (reusable)."""

    def __init__(
        self,
        graph: EmbeddingGraph,
        scheme: DelayScheme | None = None,
        placement_cost: PlacementCostFn = zero_placement_cost,
        options: EmbedderOptions | None = None,
    ) -> None:
        self.graph = graph
        self.scheme = scheme if scheme is not None else MaxArrivalScheme()
        self.placement_cost = placement_cost
        self.options = options if options is not None else EmbedderOptions()

    # ------------------------------------------------------------------
    # Top level (TreeEmbedding / ComputeSubTree of Fig. 6)
    # ------------------------------------------------------------------

    def embed(self, tree: FaninTree) -> EmbeddingResult:
        tree.validate()
        with PERF.timer("embed.tree"):
            fronts: dict[int, dict[int, ParetoFront]] = {}
            root = tree.root
            gates = self._gates_ahead(tree)
            wire = self._wire_ahead(root)
            touched = 0
            for node in tree.postorder():
                if node.index == root.index:
                    continue
                limits = self._limits(gates[node.index], wire)
                if node.is_leaf:
                    branch = self._compute_initial(node)
                else:
                    branch = self._join_tree(node, fronts, limits)
                node_fronts = self._gen_dijkstra(node, branch, limits)
                fronts[node.index] = node_fronts
                # Accumulate the diagnostic during the walk: children fronts
                # are dropped right below, so a post-hoc sum would only see
                # the surviving (root-adjacent) fronts.  Every materialized
                # front holds at least one label (creation and first insert
                # are fused in the wavefront loop), so the count is the size.
                touched += len(node_fronts)
                for child in node.children:
                    fronts.pop(child, None)  # children fronts no longer needed
            root_front, root_candidates = self._augment_root(root, fronts)
        return EmbeddingResult(
            tree=tree,
            scheme=self.scheme,
            root_front=root_front,
            root_candidates=root_candidates,
            vertices_touched=touched,
        )

    # ------------------------------------------------------------------
    # Delay-bound lookahead
    # ------------------------------------------------------------------

    @staticmethod
    def _gates_ahead(tree: FaninTree) -> dict[int, float]:
        """``G(i)``: the gate delays of node ``i``'s strict ancestors, the
        root's capture delay included — what every label of ``i`` still
        pays through ``finalize`` on its way to the root."""
        ahead = {tree.root.index: 0.0}
        for node in reversed(tree.postorder()):  # parents before children
            below = ahead[node.index] + node.gate_delay
            for child in node.children:
                ahead[child] = below
        return ahead

    def _wire_ahead(self, root: TreeNode) -> list[float] | None:
        """``D(v)``: the shortest wire delay from ``v`` to the fixed root,
        or ``None`` (``D = 0``) for a movable root and for schemes whose
        ``extend`` does not add the edge's wire delay to the primary."""
        if root.vertex is None or not self.scheme.additive_wire:
            return None
        return self.graph.distances_to(root.vertex)

    def _limits(self, gates: float, wire: list[float] | None) -> list[float]:
        """Per-vertex bound on the primary delay of one node's labels.

        A label at ``v`` whose primary delay plus ``gates`` and ``D(v)``
        exceeds ``delay_bound`` cannot reach the root within it: joins
        take the max of the children and add connection and gate delays,
        and wire adds at least ``D(v)``.  Such a label is never built or
        pushed, and since it only ever dominates labels as dead as
        itself, every surviving label is one the unpruned DP keeps; only
        a ``max_labels_per_vertex`` cap sees the difference, as dead
        labels no longer take its slots.  ``_SLACK`` absorbs the float
        round-off of summing the lookahead in another order.
        """
        bound = self.options.delay_bound
        size = self.graph.num_vertices
        if math.isinf(bound) or (wire is None and not gates):
            return [bound] * size
        base = bound - gates + _SLACK
        if wire is None:
            return [base] * size
        return [base - delay for delay in wire]

    # ------------------------------------------------------------------
    # ComputeInitial
    # ------------------------------------------------------------------

    def _compute_initial(self, node: TreeNode) -> dict[int, list[Label]]:
        assert node.vertex is not None
        key = self.scheme.leaf_key(node.arrival, node.is_critical_input)
        label = Label(
            cost=0.0,
            key=key,
            sort=self.scheme.sort_key(key),
            vertex=node.vertex,
            node=node.index,
            branching=True,
        )
        return {node.vertex: [label]}

    # ------------------------------------------------------------------
    # JoinTree (line c2): fold children fronts at every vertex
    # ------------------------------------------------------------------

    def _join_tree(
        self,
        node: TreeNode,
        fronts: dict[int, dict[int, ParetoFront]],
        limits: list[float],
    ) -> dict[int, list[Label]]:
        child_fronts = [fronts[child] for child in node.children]
        branch: dict[int, list[Label]] = {}
        # Only vertices reached by EVERY child can join; iterate the
        # smallest child map (ascending, to keep the original vertex
        # order) instead of the whole graph.
        smallest = min(child_fronts, key=len)
        for vertex in sorted(smallest):
            if self.graph.is_blocked(vertex):
                continue
            p_ij = self.placement_cost(node, vertex)
            if math.isinf(p_ij):
                continue
            per_child = []
            for front_map in child_fronts:
                front = front_map.get(vertex)
                if front is None or not len(front):
                    break
                per_child.append(front.labels())
            else:
                joined = self._join_at_vertex(
                    node, vertex, per_child, p_ij, limits[vertex]
                )
                if joined:
                    branch[vertex] = joined
        return branch

    def _join_at_vertex(
        self,
        node: TreeNode,
        vertex: int,
        per_child: list[list[Label]],
        p_ij: float,
        delay_limit: float,
    ) -> list[Label]:
        """Fold children fronts with intermediate Pareto pruning.

        Partial combos are plain ``(cost, sort, key, bits, parts)`` tuples
        pruned with the same staircase / partial-order rules the fronts
        use — no probe :class:`Label` is ever allocated; real labels are
        built only for the finalized survivors whose primary delay is
        within ``delay_limit`` (see :meth:`_limits`).
        """
        scheme = self.scheme
        conn = self.options.connection_delay
        limit = self.options.max_cohabiting_children
        extend = scheme.extend
        combine = scheme.combine
        sort_key = scheme.sort_key

        fast = type(scheme) is MaxArrivalScheme
        if fast:
            # Float specialization: extend is +, combine is max, the sort
            # key mirrors the delay key — so the staircase collapses to
            # two parallel float lists (costs ascending, keys strictly
            # descending) and every bisect compares raw floats.
            f_combos: list[tuple[float, float | None, int, tuple[Label, ...]]] = [
                (0.0, None, 0, ())
            ]
            for child_labels in per_child:
                f_costs: list[float] = []
                f_keys: list[float] = []
                f_data: list[tuple[int, tuple[Label, ...]]] = []
                for cost, key, bits, parts in f_combos:
                    for child in child_labels:
                        child_bits = bits + (1 if child.branching else 0)
                        if limit is not None and child_bits > limit:
                            continue
                        child_key = child.key
                        if conn and not child.branching:
                            child_key = child_key + conn
                        if key is None or child_key > key:
                            merged = child_key
                        else:
                            merged = key
                        new_cost = cost + child.cost
                        index = bisect_right(f_costs, new_cost) - 1
                        if index >= 0 and f_keys[index] <= merged:
                            continue  # dominated
                        start = bisect_left(f_costs, new_cost)
                        end = start
                        while end < len(f_costs) and f_keys[end] >= merged:
                            end += 1
                        del f_costs[start:end]
                        del f_keys[start:end]
                        del f_data[start:end]
                        f_costs.insert(start, new_cost)
                        f_keys.insert(start, merged)
                        f_data.insert(start, (child_bits, parts + (child,)))
                f_combos = [
                    (f_costs[i], f_keys[i], f_data[i][0], f_data[i][1])
                    for i in range(len(f_costs))
                ]
            results: list[Label] = []
            node_index = node.index
            gate_delay = node.gate_delay
            for cost, key, _bits, parts in f_combos:
                assert key is not None
                final = key + gate_delay
                if final > delay_limit:
                    continue
                results.append(
                    Label(
                        cost + p_ij,
                        final,
                        (final,),
                        vertex,
                        node_index,
                        True,
                        parts=parts,
                    )
                )
            return results

        combos: list[tuple[float, SortKey | None, object, int, tuple[Label, ...]]] = [
            (0.0, None, None, 0, ())
        ]
        if scheme.total_order:
            for child_labels in per_child:
                # StaircaseFront.insert inlined over parallel lists:
                # stair_keys holds the bisectable (cost, sort) staircase,
                # stair_data the (key, bits, parts) payloads.
                stair_keys: list[tuple[float, SortKey]] = []
                stair_data: list[tuple[object, int, tuple[Label, ...]]] = []
                for cost, _sort, key, bits, parts in combos:
                    for child in child_labels:
                        child_bits = bits + (1 if child.branching else 0)
                        if limit is not None and child_bits > limit:
                            continue
                        child_key = child.key
                        if conn and not child.branching:
                            child_key = extend(child_key, conn)
                        merged = (
                            child_key if key is None else combine(key, child_key)
                        )
                        new_sort = sort_key(merged)
                        new_cost = cost + child.cost
                        index = bisect_right(stair_keys, (new_cost, _MAX_SORT)) - 1
                        if index >= 0 and stair_keys[index][1] <= new_sort:
                            continue  # dominated
                        start = bisect_left(stair_keys, (new_cost, _MIN_SORT))
                        end = start
                        while (
                            end < len(stair_keys) and stair_keys[end][1] >= new_sort
                        ):
                            end += 1
                        del stair_keys[start:end]
                        del stair_data[start:end]
                        pos = bisect_left(stair_keys, (new_cost, new_sort))
                        stair_keys.insert(pos, (new_cost, new_sort))
                        stair_data.insert(
                            pos, (merged, child_bits, parts + (child,))
                        )
                combos = [
                    (entry[0], entry[1], datum[0], datum[1], datum[2])
                    for entry, datum in zip(stair_keys, stair_data)
                ]
        else:
            dominates = scheme.dominates
            for child_labels in per_child:
                entries: list[
                    tuple[float, SortKey, object, int, tuple[Label, ...]]
                ] = []
                for cost, _sort, key, bits, parts in combos:
                    for child in child_labels:
                        child_bits = bits + (1 if child.branching else 0)
                        if limit is not None and child_bits > limit:
                            continue
                        child_key = child.key
                        if conn and not child.branching:
                            child_key = extend(child_key, conn)
                        merged = (
                            child_key if key is None else combine(key, child_key)
                        )
                        new_cost = cost + child.cost
                        dominated = False
                        for kept in entries:
                            if kept[0] <= new_cost and dominates(kept[2], merged):
                                dominated = True
                                break
                        if dominated:
                            continue
                        entries = [
                            kept
                            for kept in entries
                            if not (
                                new_cost <= kept[0] and dominates(merged, kept[2])
                            )
                        ]
                        entries.append(
                            (
                                new_cost,
                                sort_key(merged),
                                merged,
                                child_bits,
                                parts + (child,),
                            )
                        )
                entries.sort(key=lambda entry: (entry[0], entry[1]))
                combos = entries

        results: list[Label] = []
        primary = scheme.primary
        node_index = node.index
        for cost, _sort, key, _bits, parts in combos:
            assert key is not None
            final = scheme.finalize(key, node.gate_delay)
            if primary(final) > delay_limit:
                continue
            results.append(
                Label(
                    cost + p_ij,
                    final,
                    sort_key(final),
                    vertex,
                    node_index,
                    True,
                    parts=parts,
                )
            )
        return results

    @staticmethod
    def _bits(labels: tuple[Label, ...]) -> int:
        return sum(1 for label in labels if label.branching)

    # ------------------------------------------------------------------
    # GenDijkstra (multi-label wavefront expansion)
    # ------------------------------------------------------------------

    def _vertex_front(self) -> BitAwareFront:
        """Wavefront front with bit-aware pruning (Section II-A)."""
        return BitAwareFront(
            self.scheme,
            self.options.connection_delay,
            self.options.max_cohabiting_children is not None,
        )

    def _gen_dijkstra(
        self, node: TreeNode, branch: dict[int, list[Label]], limits: list[float]
    ) -> dict[int, ParetoFront]:
        scheme = self.scheme
        extend = scheme.extend
        sort_key = scheme.sort_key
        primary = scheme.primary
        indptr, targets, wire_costs, wire_delays = self.graph.csr()
        node_index = node.index
        heappush = heapq.heappush
        heappop = heapq.heappop

        fronts: dict[int, BitAwareFront] = {}
        tick = 0
        cap = self.options.max_labels_per_vertex
        perf = PERF if PERF.enabled else None
        fast = type(scheme) is MaxArrivalScheme
        heap: list = []
        for labels in branch.values():
            for label in labels:
                # Fast path orders the heap by the raw key float — for the
                # 1-tuple sort keys of MaxArrivalScheme the ordering is
                # identical and every sift compares floats, not tuples.
                heap.append(
                    (label.cost, label.key if fast else label.sort, tick, label)
                )
                tick += 1
        heapq.heapify(heap)

        pushed = len(heap)
        popped = pruned = 0
        if fast:
            # Specialized loop for the default float scheme: extend is a
            # float add, sort_key a 1-tuple, primary the identity — the
            # inlined arithmetic and dominance scans drop three method
            # calls per edge on the hottest loop in the DP.  Exact-type
            # check so subclass overrides still take the generic path.
            conn = self.options.connection_delay
            overlap = self.options.max_cohabiting_children is not None
            while heap:
                cost, _sort, _tick, label = heappop(heap)
                popped += 1
                vertex = label.vertex
                branching = label.branching
                front = fronts.get(vertex)
                if front is None:
                    # First label at a vertex is never dominated: fuse
                    # front creation with its first (always-accepted)
                    # insert.
                    front = fronts[vertex] = self._vertex_front()
                    if branching or not conn:
                        dom_sort, dom_key = label.sort, label.key
                    else:
                        dom_sort = label._dom_sort
                        if dom_sort is None:
                            dom_key = label.key + conn
                            dom_sort = (dom_key,)
                            label._dom_sort = dom_sort
                            label._dom_key = dom_key
                        else:
                            dom_key = label._dom_key
                    (front._b if branching else front._nb).append(
                        (cost, dom_sort, dom_key, label)
                    )
                else:
                    # BitAwareFront.is_dominated + insert + the cap check,
                    # fused into one pass over the buckets.
                    nb = front._nb
                    b = front._b
                    sort = label.sort
                    if branching or not conn:
                        dom_sort, dom_key = sort, label.key
                    else:
                        dom_sort = label._dom_sort
                        if dom_sort is None:
                            dom_key = label.key + conn
                            dom_sort = (dom_key,)
                            label._dom_sort = dom_sort
                            label._dom_key = dom_key
                        else:
                            dom_key = label._dom_key
                    # All dominance sorts are 1-tuples of the float at
                    # entry index 2 here, so every tuple comparison in
                    # the scans collapses to a float comparison.
                    label_key = label.key
                    beaten = False
                    if branching:
                        for c, _s, k, _l in b:
                            if c <= cost and k <= label_key:
                                beaten = True
                                break
                        if not beaten:
                            for c, _s, k, _l in nb:
                                if c <= cost and k <= label_key:
                                    beaten = True
                                    break
                    else:
                        for c, _s, k, _l in nb:
                            if c <= cost and k <= dom_key:
                                beaten = True
                                break
                        if not beaten and not overlap:
                            for c, _s, k, _l in b:
                                if c <= cost and k <= label_key:
                                    beaten = True
                                    break
                    if beaten:
                        continue
                    if cap and len(nb) + len(b) >= cap and cost >= front.max_cost():
                        continue
                    bucket = b if branching else nb
                    bucket[:] = [
                        entry
                        for entry in bucket
                        if not (cost <= entry[0] and dom_key <= entry[2])
                    ]
                    bucket.append((cost, dom_sort, dom_key, label))
                label_key = label.key
                for index in range(indptr[vertex], indptr[vertex + 1]):
                    key = label_key + wire_delays[index]
                    target = targets[index]
                    if key > limits[target]:
                        continue  # cannot reach the root within the bound
                    new_cost = cost + wire_costs[index]
                    target_front = fronts.get(target)
                    if target_front is None:
                        successor = Label(
                            new_cost, key, (key,), target, node_index, False, label
                        )
                    else:
                        # dominated_extension, inlined for float keys.
                        dom_key = key + conn if conn else key
                        beaten = False
                        for c, _s, k, _l in target_front._nb:
                            if c <= new_cost and k <= dom_key:
                                beaten = True
                                break
                        if not beaten and not overlap:
                            for c, _s, k, _l in target_front._b:
                                if c <= new_cost and k <= key:
                                    beaten = True
                                    break
                        if beaten:
                            pruned += 1
                            continue
                        successor = Label(
                            new_cost, key, (key,), target, node_index, False, label
                        )
                        successor._dom_sort = (dom_key,)
                        successor._dom_key = dom_key
                    heappush(heap, (new_cost, key, tick, successor))
                    tick += 1
                    pushed += 1
            if perf is not None:
                perf.add("embedder.labels_pushed", pushed)
                perf.add("embedder.labels_popped", popped)
                perf.add("embedder.labels_pruned", pruned)
            return fronts
        while heap:
            cost, _sort, _tick, label = heappop(heap)
            popped += 1
            vertex = label.vertex
            front = fronts.get(vertex)
            if front is None:
                front = fronts[vertex] = self._vertex_front()
                front.insert_undominated(label)  # empty front: always admitted
            else:
                if front.is_dominated(label):
                    continue
                # Front full: admit only labels cheaper than the tail.
                if cap and len(front) >= cap and cost >= front.max_cost():
                    continue
                front.insert_undominated(label)
            label_key = label.key
            for index in range(indptr[vertex], indptr[vertex + 1]):
                key = extend(label_key, wire_delays[index])
                target = targets[index]
                if primary(key) > limits[target]:
                    continue  # cannot reach the root within the bound
                new_cost = cost + wire_costs[index]
                new_sort = sort_key(key)
                target_front = fronts.get(target)
                if target_front is not None:
                    # Dominance verdict BEFORE construction: dominated
                    # successors never allocate a Label.
                    admitted = target_front.dominated_extension(
                        new_cost, new_sort, key
                    )
                    if admitted is None:
                        pruned += 1
                        continue
                else:
                    admitted = None
                successor = Label(
                    new_cost, key, new_sort, target, node_index, False, label
                )
                if admitted is not None:
                    successor._dom_sort, successor._dom_key = admitted
                heappush(heap, (new_cost, new_sort, tick, successor))
                tick += 1
                pushed += 1
        if perf is not None:
            perf.add("embedder.labels_pushed", pushed)
            perf.add("embedder.labels_popped", popped)
            perf.add("embedder.labels_pruned", pruned)
        return fronts

    # ------------------------------------------------------------------
    # AugmentRoot
    # ------------------------------------------------------------------

    def _augment_root(
        self, root: TreeNode, fronts: dict[int, dict[int, ParetoFront]]
    ) -> tuple[ParetoFront, list[Label]]:
        result = make_front(self.scheme)
        candidates: list[Label] = []
        targets = (
            [root.vertex]
            if root.vertex is not None
            else [v for v in self.graph.vertices() if not self.graph.is_blocked(v)]
        )
        child_fronts = [fronts[child] for child in root.children]
        for vertex in targets:
            assert vertex is not None
            p_ij = (
                0.0 if root.vertex is not None else self.placement_cost(root, vertex)
            )
            if math.isinf(p_ij):
                continue
            per_child = []
            for front_map in child_fronts:
                front = front_map.get(vertex)
                if front is None or not len(front):
                    break
                per_child.append(front.labels())
            else:
                vertex_front = make_front(self.scheme)
                for label in self._join_at_vertex(
                    root, vertex, per_child, p_ij, self.options.delay_bound
                ):
                    result.insert(label)
                    if vertex_front.insert(label):
                        candidates.append(label)
        candidates = [
            label
            for label in candidates
            if root.vertex is not None or not self.graph.is_blocked(label.vertex)
        ]
        return result, candidates
