"""The embedder's delay-bound lookahead keeps every qualifying root label.

A label of tree node ``i`` at vertex ``v`` is dropped once its primary
delay plus ``G(i)`` (the gate delays of ``i``'s ancestors, the root's
capture included) and ``D(v)`` (the shortest wire delay to the fixed
root, for schemes whose ``extend`` adds exactly the wire delay) passes
``delay_bound``.  Without a front cap that prunes only labels that can
never reach the root within the bound, so the root front — the cost, key
and vertex of every label — must be identical to the DP that drops a
label only when its own arrival passes the bound.
"""

from __future__ import annotations

import random

import pytest

from repro.arch import FpgaArch, LinearDelayModel
from repro.core.embedder import EmbedderOptions, FaninTreeEmbedder
from repro.core.embedding_graph import GridEmbeddingGraph
from repro.core.signatures import (
    ElmoreScheme,
    LexMcScheme,
    LexScheme,
    MaxArrivalScheme,
    QuadraticWireScheme,
)
from repro.core.topology import FaninTree
from repro.perf import PERF

SCHEMES = {
    "rt": MaxArrivalScheme,
    "lex-3": lambda: LexScheme(3),
    "lex-mc": LexMcScheme,
    "quadratic": lambda: QuadraticWireScheme(unit_delay=0.5),
    "elmore": ElmoreScheme,
}


class Unpruned(FaninTreeEmbedder):
    """The DP without the lookahead: a label is dropped only when its own
    primary delay passes the bound."""

    def _limits(self, gates, wire):
        return [self.options.delay_bound] * self.graph.num_vertices


def random_tree(rng: random.Random, graph: GridEmbeddingGraph) -> FaninTree:
    """Random leaves joined by random gates under a fixed or movable root."""
    tree = FaninTree()
    vertices = list(graph.vertices())
    pool = [
        tree.add_leaf(
            rng.choice(vertices), arrival=rng.uniform(0.0, 3.0), is_critical_input=k == 0
        )
        for k in range(rng.randint(2, 5))
    ]
    while len(pool) > 1 or not pool[0].children:
        count = rng.randint(1, min(3, len(pool)))
        children = [pool.pop(rng.randrange(len(pool))) for _ in range(count)]
        pool.append(tree.add_internal(children, gate_delay=rng.uniform(0.3, 1.2)))
    root_vertex = rng.choice(vertices) if rng.random() < 0.8 else None
    tree.set_root(pool[0], gate_delay=rng.uniform(0.0, 0.5), vertex=root_vertex)
    return tree


def root_labels(result) -> tuple[list, list]:
    return (
        [(label.cost, label.key, label.vertex) for label in result.root_front],
        [(label.cost, label.key, label.vertex) for label in result.root_candidates],
    )


def pushed(embedder: FaninTreeEmbedder, tree: FaninTree):
    """Embed with the perf registry on; return the result and its pushes."""
    PERF.reset()
    PERF.enable()
    try:
        result = embedder.embed(tree)
        count = PERF.counter("embedder.labels_pushed")
    finally:
        PERF.disable()
        PERF.reset()
    return result, count


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_root_front_identical_without_a_cap(scheme_name):
    """Random trees at bounds that cut the unbounded root front: the
    lookahead leaves every root label in place and prunes pushes."""
    rng = random.Random(scheme_name)
    saved = total = 0
    for _trial in range(24):
        model = LinearDelayModel(
            wire_delay_per_unit=rng.choice((0.35, 1.0)),
            connection_delay=rng.choice((0.0, 0.25)),
        )
        side = rng.randint(3, 5)
        graph = GridEmbeddingGraph(
            FpgaArch(side, side, delay_model=model), include_pads=rng.random() < 0.7
        )
        tree = random_tree(rng, graph)
        scheme = SCHEMES[scheme_name]()
        overlap = rng.choice((None, 1)) if scheme_name == "rt" else None

        def options(bound: float) -> EmbedderOptions:
            return EmbedderOptions(
                connection_delay=model.connection_delay,
                delay_bound=bound,
                max_labels_per_vertex=0,
                max_cohabiting_children=overlap,
            )

        free = Unpruned(graph, scheme=scheme, options=options(float("inf"))).embed(tree)
        delays = sorted(scheme.primary(label.key) for label in free.root_front)
        # A bound that some root labels meet exactly and others miss.
        bound = delays[len(delays) // 2]
        plain, plain_pushed = pushed(
            Unpruned(graph, scheme=scheme, options=options(bound)), tree
        )
        gated, gated_pushed = pushed(
            FaninTreeEmbedder(graph, scheme=scheme, options=options(bound)), tree
        )
        assert root_labels(gated) == root_labels(plain)
        assert plain.root_front.labels(), "the bound keeps at least one label"
        assert gated_pushed <= plain_pushed
        saved += plain_pushed - gated_pushed
        total += plain_pushed
    assert saved > 0.05 * total, "the lookahead pruned next to nothing"


def test_wire_lookahead_follows_the_scheme():
    """``D`` is the grid distance to a fixed root for additive-wire
    schemes and zero otherwise."""
    graph = GridEmbeddingGraph(
        FpgaArch(3, 3, delay_model=LinearDelayModel(wire_delay_per_unit=0.5)),
        include_pads=False,
    )
    tree = FaninTree()
    leaf = tree.add_leaf(graph.vertex_at((1, 1)), arrival=0.0)
    gate = tree.add_internal([leaf], gate_delay=1.0)
    tree.set_root(gate, gate_delay=0.25, vertex=graph.vertex_at((3, 3)))
    gates = FaninTreeEmbedder._gates_ahead(tree)
    assert gates == {leaf.index: 1.25, gate.index: 0.25, tree.root.index: 0.0}
    wire = FaninTreeEmbedder(graph, scheme=LexMcScheme())._wire_ahead(tree.root)
    assert wire[graph.vertex_at((1, 1))] == 2.0
    assert wire[graph.vertex_at((3, 3))] == 0.0
    for scheme in (QuadraticWireScheme(), ElmoreScheme()):
        assert FaninTreeEmbedder(graph, scheme=scheme)._wire_ahead(tree.root) is None


#: Every flow design e2ebench draws at seed 1, with its workload's
#: algorithm and iteration cap: rt-flow (dsip, des, bigkey; 2 draws; RT,
#: 4 iterations) and lex3-flow (dsip, bigkey; 4 draws; Lex-3, 2).
E2EBENCH_FLOWS = [
    (name, draw, "rt", 4) for draw in range(2) for name in ("dsip", "des", "bigkey")
] + [(name, draw, "lex-3", 2) for draw in range(4) for name in ("dsip", "bigkey")]


@pytest.mark.slow
def test_root_front_identical_on_every_e2ebench_tree(monkeypatch):
    """Every tree the flow embeds for e2ebench's seed-1 flow designs,
    re-embedded without a cap, with and without the lookahead."""
    from repro.bench.runner import replication_config
    from repro.core.flow import optimize_replication

    from tests.route.test_wmin import e2ebench_placement

    original = FaninTreeEmbedder.embed
    checked: list[str] = []
    mismatches: list[str] = []
    current = [""]

    def embed(self, tree):
        options = EmbedderOptions(
            connection_delay=self.options.connection_delay,
            delay_bound=self.options.delay_bound,
            max_labels_per_vertex=0,
            max_cohabiting_children=self.options.max_cohabiting_children,
        )
        results = [
            original(engine(self.graph, self.scheme, self.placement_cost, options), tree)
            for engine in (FaninTreeEmbedder, Unpruned)
        ]
        label = f"{current[0]} tree {len(checked)}"
        checked.append(label)
        if root_labels(results[0]) != root_labels(results[1]):
            mismatches.append(label)
        return original(self, tree)

    monkeypatch.setattr(FaninTreeEmbedder, "embed", embed)
    for name, draw, algorithm, iterations in E2EBENCH_FLOWS:
        current[0] = f"{name}#{draw} {algorithm}"
        netlist, placement = e2ebench_placement(name, draw)
        config = replication_config(algorithm)
        config.max_iterations = iterations
        optimize_replication(netlist.clone(), placement.copy(), config)
    assert len(checked) >= 30
    assert not mismatches, f"root fronts differ on: {mismatches}"
