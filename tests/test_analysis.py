import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from scholar_sounder.analysis import (
    Graph,
    Partition,
    canonical_number,
    connected_components,
    degree_stats,
    detect_communities,
    indexed_adjacency,
    k_core,
    propagation_sweep,
    top_clusters,
)


def make_graph(edges, nodes=()):
    g = Graph()
    for n in nodes:
        g.add_node(n)
    for edge in edges:
        g.add_edge(*edge)
    return g


def random_graph(rng, max_nodes, edge_prob=0.25, weighted=False):
    n = rng.randint(0, max_nodes)
    names = [f"n{i:03d}" for i in range(n)]
    g = Graph()
    for name in names:
        g.add_node(name)
    for a, b in itertools.combinations(names, 2):
        if rng.random() < edge_prob:
            g.add_edge(a, b, float(rng.randint(1, 5)) if weighted else 1.0)
    return g


@st.composite
def weighted_graphs(draw, max_nodes=14):
    n = draw(st.integers(0, max_nodes))
    names = [f"n{i:02d}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = make_graph([], nodes=names)
    for a, b in chosen:
        g.add_edge(a, b, float(draw(st.integers(1, 5))))
    return g


def two_triangles_with_bridge():
    return make_graph(
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")]
    )


# -- oracles ------------------------------------------------------------


def components_oracle(g: Graph):
    """Transitive closure by repeated squaring of the reachability relation."""
    reach = {n: {n} for n in g.nodes}
    for (a, b) in g.edges:
        reach[a].add(b)
        reach[b].add(a)
    changed = True
    while changed:
        changed = False
        for n in g.nodes:
            expanded = set(reach[n])
            for m in reach[n]:
                expanded |= reach[m]
            if expanded != reach[n]:
                reach[n] = expanded
                changed = True
    seen, comps = set(), []
    for n in sorted(g.nodes):
        if n not in seen:
            comps.append(reach[n])
            seen |= reach[n]
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def neighbours(g: Graph) -> dict:
    """Node -> set of its neighbours."""
    adj = {n: set() for n in g.nodes}
    for (a, b) in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def k_core_oracle(g: Graph, k: int):
    """Union of all node subsets whose induced subgraph has min degree >= k
    (the property is closed under union, so the union is the k-core)."""
    nodes = sorted(g.nodes)
    adj = neighbours(g)
    best: set = set()
    for r in range(k + 1, len(nodes) + 1):
        for subset in itertools.combinations(nodes, r):
            s = set(subset)
            if all(len(s.intersection(adj[node])) >= k for node in s):
                best |= s
    return best


def top_clusters_oracle(g: Graph, p: Partition):
    """Per-community scan of the whole edge list."""
    reports = []
    for cid, members in p.communities().items():
        member_set = set(members)
        internal = [w for (a, b), w in g.edges.items() if a in member_set and b in member_set]
        reports.append({
            "community_id": cid, "size": len(members), "members": sorted(members),
            "internal_edges": len(internal), "internal_weight": canonical_number(sum(internal)),
        })
    reports.sort(key=lambda r: (-r["size"], r["members"][0]))
    return reports


def induces_connected_subgraph(g: Graph, members) -> bool:
    """Search from one member, stepping only onto members."""
    members = set(members)
    adj = neighbours(g)
    start = next(iter(members))
    seen, stack = {start}, [start]
    while stack:
        for nbr in (adj[stack.pop()] & members) - seen:
            seen.add(nbr)
            stack.append(nbr)
    return seen == members


def partitions_of(items):
    """All set partitions (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in partitions_of(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


def modularity(g: Graph, blocks):
    m = sum(g.edges.values())
    if m == 0:
        return 0.0
    strength = {n: 0.0 for n in g.nodes}
    for (a, b), w in g.edges.items():
        strength[a] += w
        strength[b] += w
    q = 0.0
    for block in blocks:
        s = set(block)
        internal = sum(w for (a, b), w in g.edges.items() if a in s and b in s)
        total = sum(strength[n] for n in s)
        q += internal / m - (total / (2 * m)) ** 2
    return q


# -- tests --------------------------------------------------------------


class TestGraph:
    def test_add_weight_accumulates_skips_self_pairs_and_adds_no_node(self):
        g = Graph()
        g.add_weight("b", "a")
        g.add_weight("a", "b", 2)
        g.add_weight("a", "a")
        assert g.edges == {("a", "b"): 3}
        assert g.nodes == {}

    def test_canonical_dict_sorts_and_writes_integral_floats_as_ints(self):
        g = Graph()
        g.add_node("b", score=2.0, flag=True, name="B")
        g.add_node("a", score=0.5)
        g.add_edge("b", "a", 3.0)
        canonical = g.to_canonical_dict()
        assert canonical == {
            "nodes": {"a": {"score": 0.5}, "b": {"flag": True, "name": "B", "score": 2}},
            "edges": {"a|b": 3},
        }
        assert list(canonical["nodes"]) == ["a", "b"]
        assert list(canonical["nodes"]["b"]) == ["flag", "name", "score"]
        assert type(canonical["edges"]["a|b"]) is int


class TestDegreeStats:
    def test_star(self):
        g = make_graph([("hub", f"leaf{i}") for i in range(4)])
        stats = degree_stats(indexed_adjacency(g))
        assert stats["degree"]["hub"] == 4
        assert all(stats["degree"][f"leaf{i}"] == 1 for i in range(4))
        assert stats["histogram"] == {"1": 4, "4": 1}
        assert list(stats["histogram"]) == ["1", "4"]

    def test_empty(self):
        stats = degree_stats(indexed_adjacency(Graph()))
        assert stats["degree"] == {}
        assert stats["histogram"] == {}

    def test_weighted_degree(self):
        g = make_graph([("a", "b", 2.0), ("a", "c", 3.0)])
        assert degree_stats(indexed_adjacency(g))["weighted_degree"]["a"] == 5.0

    def test_fixture_notion_network_hub_degree(self, optics_config, fixture_fetcher):
        from scholar_sounder.notion_graph import sound_tags
        from scholar_sounder.parser import parse_label_page

        net = sound_tags(optics_config, fixture_fetcher.fetch, parse_label_page)
        stats = degree_stats(indexed_adjacency(net))
        # 21 distinct tags co-listed with physical_optics across the 8
        # author entries on its results page
        assert stats["degree"]["physical_optics"] == 21


class TestConnectedComponents:
    def test_two_triangles(self):
        g = make_graph([("a", "b"), ("b", "c"), ("a", "c"),
                        ("x", "y"), ("y", "z"), ("x", "z")])
        comps = connected_components(indexed_adjacency(g))
        assert [len(c) for c in comps] == [3, 3]
        assert comps[0] == ["a", "b", "c"]  # size tie: smallest member first

    def test_empty(self):
        assert connected_components(indexed_adjacency(Graph())) == []

    def test_isolated_nodes_are_singletons(self):
        g = make_graph([("a", "b")], nodes=["lonely"])
        comps = connected_components(indexed_adjacency(g))
        assert ["lonely"] in comps

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_transitive_closure_oracle(self, seed):
        g = random_graph(random.Random(seed), max_nodes=50, edge_prob=0.05)
        comps = connected_components(indexed_adjacency(g))
        assert list(map(set, comps)) == components_oracle(g)
        assert all(c == sorted(c) for c in comps)

    def test_sizes_sum_to_node_count(self):
        g = random_graph(random.Random(7), max_nodes=40, edge_prob=0.1)
        assert sum(len(c) for c in connected_components(indexed_adjacency(g))) == len(g.nodes)


class TestKCore:
    def test_triangle_with_pendant(self):
        g = make_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "pendant")])
        nodes, edges = k_core(indexed_adjacency(g), 2)
        assert set(nodes) == {"a", "b", "c"}
        assert edges == 3

    def test_k1_drops_isolated_nodes(self):
        g = make_graph([("a", "b")], nodes=["lonely"])
        nodes, _ = k_core(indexed_adjacency(g), 1)
        assert set(nodes) == {"a", "b"}

    def test_min_weight_filters_before_peeling(self):
        g = make_graph([("a", "b", 1.0), ("b", "c", 5.0), ("a", "c", 5.0)])
        nodes, edges = k_core(indexed_adjacency(g), 1, min_weight=2.0)
        assert set(nodes) == {"a", "b", "c"}
        assert edges == 2  # b-c and a-c; a-b is lighter than min_weight

    def test_may_return_empty_graph(self):
        g = make_graph([("a", "b")])
        assert k_core(indexed_adjacency(g), 3) == ([], 0)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, max_nodes=12, edge_prob=0.3)
        k = rng.choice([2, 3])
        assert set(k_core(indexed_adjacency(g), k)[0]) == k_core_oracle(g, k)

    def test_every_output_node_has_degree_at_least_k(self):
        g = random_graph(random.Random(42), max_nodes=30, edge_prob=0.15)
        adj = neighbours(g)
        for k in (2, 3):
            nodes, _ = k_core(indexed_adjacency(g), k)
            deg = {node: len(adj[node].intersection(nodes)) for node in nodes}
            assert all(d >= k for d in deg.values())

    def test_order_independence(self):
        rng = random.Random(11)
        g = random_graph(rng, max_nodes=20, edge_prob=0.2)
        names = sorted(g.nodes)
        rng.shuffle(names)
        permuted = Graph()
        for n in names:
            permuted.add_node(n)
        for (a, b), w in sorted(g.edges.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            permuted.add_edge(a, b, w)
        assert k_core(indexed_adjacency(g), 2) == k_core(indexed_adjacency(permuted), 2)

    def test_input_graph_unmodified(self):
        g = make_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "pendant")])
        before = (dict(g.nodes), dict(g.edges))
        index = indexed_adjacency(g)
        k_core(index, 2)
        assert (g.nodes, g.edges) == before
        assert index == indexed_adjacency(g)


class TestDetectCommunities:
    def test_two_triangles_bridge_matches_modularity_oracle(self):
        g = two_triangles_with_bridge()
        partition = detect_communities(indexed_adjacency(g))
        blocks = [set(m) for m in partition.communities().values()]
        assert len(blocks) == 2
        assert {"a", "b", "c"} in blocks and {"d", "e", "f"} in blocks
        best = max(partitions_of(sorted(g.nodes)), key=lambda p: modularity(g, p))
        assert sorted(map(sorted, best)) == [["a", "b", "c"], ["d", "e", "f"]]

    def test_edgeless_graph_gives_singletons(self):
        g = make_graph([], nodes=[f"n{i}" for i in range(5)])
        partition = detect_communities(indexed_adjacency(g))
        assert len(set(partition.assignment.values())) == 5

    def test_complete_graph_single_community(self):
        g = make_graph([(a, b) for a, b in itertools.combinations("abcde", 2)])
        partition = detect_communities(indexed_adjacency(g))
        assert set(partition.assignment.values()) == {0}

    def test_total_partition_with_dense_ids(self):
        g = random_graph(random.Random(3), max_nodes=30, edge_prob=0.1)
        partition = detect_communities(indexed_adjacency(g))
        assert set(partition.assignment) == set(g.nodes)
        ids = set(partition.assignment.values())
        assert ids == set(range(len(ids)))

    def test_deterministic(self):
        g = random_graph(random.Random(4), max_nodes=25, edge_prob=0.15, weighted=True)
        index = indexed_adjacency(g)
        assert detect_communities(index) == detect_communities(index)

    def test_result_is_a_propagation_fixpoint_or_capped(self):
        graphs = [two_triangles_with_bridge()] + [
            random_graph(random.Random(seed), max_nodes=30, edge_prob=0.15, weighted=True)
            for seed in range(20)
        ]
        for g in graphs:
            partition = detect_communities(indexed_adjacency(g))
            assert partition.converged and partition.sweeps < 100
            order, adjacency = indexed_adjacency(g)
            labels = [partition.assignment[node] for node in order]
            assert propagation_sweep(adjacency, labels) is False
            assert labels == [partition.assignment[node] for node in order]

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "b")],
            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],  # K2,2
            [("hub", f"leaf{i}") for i in range(4)],
        ],
        ids=["edge", "k22", "star"],
    )
    def test_bipartite_structures_form_one_community(self, edges):
        partition = detect_communities(indexed_adjacency(make_graph(edges)))
        assert set(partition.assignment.values()) == {0}
        assert partition.converged

    def test_independent_of_edge_insertion_order(self):
        # fractional weights make float sums depend on summation order
        for seed in range(300):
            rng = random.Random(seed)
            names = [f"n{i:02d}" for i in range(rng.randint(2, 20))]
            edges = [
                (a, b, rng.choice([0.1, 0.2, 0.3, 0.6, 0.7]))
                for a, b in itertools.combinations(names, 2)
                if rng.random() < 0.3
            ]
            shuffled = edges[:]
            rng.shuffle(shuffled)
            g = make_graph(edges, nodes=names)
            permuted = make_graph([(b, a, w) for a, b, w in shuffled], nodes=names[::-1])
            assert (
                detect_communities(indexed_adjacency(g)).assignment
                == detect_communities(indexed_adjacency(permuted)).assignment
            )

    def test_sweep_updates_in_place_in_index_order(self):
        # path 0-1-2: node 0 adopts 1's label, node 1 then sees {1, 2}
        # tied and keeps its own, node 2 adopts 1's label
        adjacency = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]]
        labels = [0, 1, 2]
        assert propagation_sweep(adjacency, labels) is True
        assert labels == [1, 1, 1]
        assert propagation_sweep(adjacency, labels) is False

    def test_indexed_adjacency_sorted(self):
        g = make_graph([("c", "a", 2.0), ("b", "a")], nodes=["z"])
        order, adjacency = indexed_adjacency(g)
        assert order == ["a", "b", "c", "z"]
        assert adjacency == [[(1, 1.0), (2, 2.0)], [(0, 1.0)], [(0, 2.0)], []]

    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_connected_communities_without_a_heavier_neighbor_community(self, g):
        partition = detect_communities(indexed_adjacency(g))
        assert partition.converged
        assert set(partition.assignment) == set(g.nodes)
        ids = set(partition.assignment.values())
        assert ids == set(range(len(ids)))
        for members in partition.communities().values():
            assert induces_connected_subgraph(g, members)
        order, adjacency = indexed_adjacency(g)
        for node, nbrs in zip(order, adjacency):
            weight_to: dict[int, float] = {}
            for j, w in nbrs:
                nbr = order[j]
                cid = partition.assignment[nbr]
                weight_to[cid] = weight_to.get(cid, 0.0) + w
            own = weight_to.get(partition.assignment[node], 0.0)
            assert all(w <= own for w in weight_to.values())


class TestTopClusters:
    def test_largest_first(self):
        g = make_graph([("a", "b"), ("b", "c"), ("x", "y")])
        p = Partition({"a": 0, "b": 0, "c": 0, "x": 1, "y": 1})
        top = top_clusters(indexed_adjacency(g), p)
        assert [c["members"] for c in top] == [["a", "b", "c"], ["x", "y"]]

    def test_every_community_is_reported(self):
        g = make_graph([("a", "b")])
        p = Partition({"a": 0, "b": 1})
        assert len(top_clusters(indexed_adjacency(g), p)) == 2

    def test_two_triangle_internal_counts(self):
        g = two_triangles_with_bridge()
        p = detect_communities(indexed_adjacency(g))
        top = top_clusters(indexed_adjacency(g), p)
        assert len(top) == 2
        for cluster in top:
            assert cluster["size"] == 3
            assert cluster["internal_edges"] == 3
            assert cluster["internal_weight"] == 3.0

    def test_empty_graph_has_no_clusters(self):
        assert top_clusters(indexed_adjacency(Graph()), Partition({})) == []

    @pytest.mark.parametrize("seed", range(50))
    def test_single_pass_matches_per_community_scan(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, max_nodes=30, edge_prob=0.2, weighted=True)
        k = rng.randint(1, max(1, len(g.nodes)))
        p = Partition({node: rng.randrange(k) for node in g.nodes})
        assert top_clusters(indexed_adjacency(g), p) == top_clusters_oracle(g, p)


class TestNetworkxSecondOpinion:
    @pytest.fixture()
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def to_nx(nx, g: Graph, min_weight=0.0):
        h = nx.Graph()
        h.add_nodes_from(g.nodes)
        h.add_weighted_edges_from((a, b, w) for (a, b), w in g.edges.items() if w >= min_weight)
        return h

    @pytest.mark.parametrize("seed", range(20))
    def test_communities_connected(self, nx, seed):
        g = random_graph(random.Random(seed), max_nodes=40, edge_prob=0.1, weighted=True)
        h = self.to_nx(nx, g)
        for members in detect_communities(indexed_adjacency(g)).communities().values():
            assert nx.is_connected(h.subgraph(members))

    @pytest.mark.parametrize("seed", range(20))
    def test_components_and_k_core_agree(self, nx, seed):
        rng = random.Random(seed)
        g = random_graph(rng, max_nodes=40, edge_prob=0.1, weighted=True)
        index = indexed_adjacency(g)
        ours = sorted(map(sorted, connected_components(index)))
        assert ours == sorted(map(sorted, nx.connected_components(self.to_nx(nx, g))))
        for k, min_weight in [(1, 0.0), (2, 0.0), (3, 0.0), (2, 3.0)]:
            nodes, edges = k_core(index, k, min_weight)
            theirs = nx.k_core(self.to_nx(nx, g, min_weight), k)
            assert set(nodes) == set(theirs.nodes)
            assert edges == theirs.number_of_edges()
