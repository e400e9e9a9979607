"""Graph filtering and clustering: degree statistics, connected components,
weight-thresholded k-core extraction, deterministic asynchronous label
propagation into connected communities, and top-cluster reports. All
operations treat the input graph as immutable."""

from __future__ import annotations

import random
from dataclasses import dataclass


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def canonical_number(value):
    """The form numbers take in files and reports: an integral float as an int."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


class Graph:
    """Undirected weighted graph with per-node attribute maps.

    Edges live under canonical (sorted) pair keys. ``add_edge`` rejects
    self-loops and duplicate pairs; ``add_weight`` accumulates evidence.
    """

    def __init__(self):
        self.nodes: dict[str, dict] = {}
        self.edges: dict[tuple[str, str], float] = {}

    def add_node(self, node_id: str, **attrs):
        self.nodes.setdefault(node_id, {}).update(attrs)

    def add_edge(self, a: str, b: str, weight: float = 1.0):
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        pair = canonical_pair(a, b)
        if pair in self.edges:
            raise ValueError(f"duplicate edge {pair}")
        self.add_node(a)
        self.add_node(b)
        self.edges[pair] = weight

    def add_weight(self, a: str, b: str, amount=1):
        """Add ``amount`` to the weight of the pair, creating the edge if
        needed; a self-pair is ignored and no node is created."""
        if a != b:
            pair = canonical_pair(a, b)
            self.edges[pair] = self.edges.get(pair, 0) + amount

    def adjacency(self) -> dict[str, dict[str, float]]:
        adj: dict[str, dict[str, float]] = {n: {} for n in self.nodes}
        for (a, b), w in self.edges.items():
            adj[a][b] = w
            adj[b][a] = w
        return adj

    def subgraph(self, keep: set[str]) -> "Graph":
        g = Graph()
        for n in self.nodes:
            if n in keep:
                g.add_node(n, **self.nodes[n])
        for (a, b), w in self.edges.items():
            if a in keep and b in keep:
                g.edges[(a, b)] = w
        return g

    def total_weight(self) -> float:
        return sum(self.edges.values())

    def to_canonical_dict(self) -> dict:
        """Comparable form: sorted nodes and attributes, sorted ``"a|b"`` edges."""
        return {
            "nodes": {
                n: {k: canonical_number(v) for k, v in sorted(attrs.items())}
                for n, attrs in sorted(self.nodes.items())
            },
            "edges": {f"{a}|{b}": canonical_number(w) for (a, b), w in sorted(self.edges.items())},
        }


@dataclass
class DegreeStats:
    degree: dict[str, int]
    weighted_degree: dict[str, float]
    histogram: dict[int, int]  # degree value -> node count


@dataclass
class Partition:
    assignment: dict[str, int]  # node -> dense community id from 0
    sweeps: int = 0  # propagation sweeps run
    converged: bool = True  # the last sweep changed no label

    def communities(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for node in sorted(self.assignment):
            out.setdefault(self.assignment[node], []).append(node)
        return out


@dataclass
class ClusterReport:
    community_id: int
    size: int
    members: list[str]
    internal_edges: int
    internal_weight: float


def degree_stats(g: Graph) -> DegreeStats:
    degree = {n: 0 for n in g.nodes}
    weighted = {n: 0.0 for n in g.nodes}
    for (a, b), w in g.edges.items():
        degree[a] += 1
        degree[b] += 1
        weighted[a] += w
        weighted[b] += w
    histogram: dict[int, int] = {}
    for d in degree.values():
        histogram[d] = histogram.get(d, 0) + 1
    return DegreeStats(degree=degree, weighted_degree=weighted, histogram=histogram)


def connected_components(g: Graph) -> list[set[str]]:
    """Components ordered by size descending, then by smallest member id."""
    adj = g.adjacency()
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in sorted(g.nodes):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            for nbr in adj[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    comp.add(nbr)
                    stack.append(nbr)
        components.append(comp)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def k_core(g: Graph, k: int, min_weight: float = 0.0) -> Graph:
    """Drop edges lighter than min_weight, then peel nodes of degree < k
    until every remaining node has degree >= k."""
    if k < 1:
        raise ValueError("k must be positive")
    adj: dict[str, set[str]] = {n: set() for n in g.nodes}
    for (a, b), w in g.edges.items():
        if w >= min_weight:
            adj[a].add(b)
            adj[b].add(a)
    alive = set(g.nodes)
    pending = [n for n in alive if len(adj[n]) < k]
    while pending:
        node = pending.pop()
        if node not in alive:
            continue
        alive.discard(node)
        for nbr in adj[node]:
            adj[nbr].discard(node)
            if nbr in alive and len(adj[nbr]) < k:
                pending.append(nbr)
    out = g.subgraph(alive)
    out.edges = {p: w for p, w in out.edges.items() if w >= min_weight}
    return out


def detect_communities(g: Graph, seed: int = 0) -> Partition:
    """Deterministic weighted label propagation with connected communities.

    Every node starts with its own label. Each sweep visits the nodes in
    sorted order and updates labels in place (asynchronously): a node keeps
    its label unless another label has a larger summed incident edge
    weight, and then adopts the heaviest label, ties going to the largest.
    (With ties to the smallest label, the label a sweep carries forward
    wins every tie downstream and floods the graph: two triangles joined by
    an edge become one community.) Every change strictly raises the total
    weight of edges whose ends agree, so sweeps reach a fixpoint; 100
    sweeps is a guard. Each label class is then split into its connected
    components, and community ids are densified by first appearance over
    sorted node order. Seed 0 numbers initial labels in sorted node order
    (the canonical run); any other seed shuffles the numbering, which
    exists only to probe the result's sensitivity to labeling.
    """
    order, adjacency = indexed_adjacency(g)
    labels = list(range(len(order)))
    if seed != 0:
        random.Random(seed).shuffle(labels)
    sweeps, converged = 0, False
    while not converged and sweeps < 100:
        sweeps += 1
        converged = not propagation_sweep(adjacency, labels)
    # split label classes into connected components, numbered by first
    # appearance over sorted node order
    community = [-1] * len(order)
    count = 0
    for start in range(len(order)):
        if community[start] >= 0:
            continue
        community[start] = count
        stack = [start]
        while stack:
            for nbr, _ in adjacency[stack.pop()]:
                if community[nbr] < 0 and labels[nbr] == labels[start]:
                    community[nbr] = count
                    stack.append(nbr)
        count += 1
    return Partition(
        assignment=dict(zip(order, community)), sweeps=sweeps, converged=converged
    )


def indexed_adjacency(g: Graph) -> tuple[list[str], list[list[tuple[int, float]]]]:
    """Sorted node ids, and per node index its (neighbor index, weight)
    pairs in ascending neighbor order, so that weight sums do not depend on
    edge insertion order."""
    order = sorted(g.nodes)
    index = {node: i for i, node in enumerate(order)}
    adjacency: list[list[tuple[int, float]]] = [[] for _ in order]
    for (a, b), w in g.edges.items():
        i, j = index[a], index[b]
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    for nbrs in adjacency:
        nbrs.sort()
    return order, adjacency


def propagation_sweep(adjacency: list[list[tuple[int, float]]], labels: list[int]) -> bool:
    """One asynchronous sweep over node indices in order, updating labels
    in place (the rule is in detect_communities); returns whether any label
    changed."""
    changed = False
    for node, nbrs in enumerate(adjacency):
        if not nbrs:
            continue
        weight_by_label: dict[int, float] = {}
        for nbr, w in nbrs:
            lbl = labels[nbr]
            weight_by_label[lbl] = weight_by_label.get(lbl, 0.0) + w
        top = max(weight_by_label.values())
        if weight_by_label.get(labels[node], 0.0) < top:
            labels[node] = max(lbl for lbl, w in weight_by_label.items() if w == top)
            changed = True
    return changed


def top_clusters(g: Graph, p: Partition) -> list[ClusterReport]:
    """Every community, largest first (ties by smallest member id), with
    internal edge counts and weights recomputed from the edge list in one pass."""
    if set(p.assignment) != set(g.nodes):
        raise ValueError("partition does not cover the graph")
    communities = p.communities()
    internal_edges = dict.fromkeys(communities, 0)
    internal_weight = dict.fromkeys(communities, 0)
    for (a, b), w in g.edges.items():
        cid = p.assignment[a]
        if cid == p.assignment[b]:
            internal_edges[cid] += 1
            internal_weight[cid] += w
    reports = [
        ClusterReport(
            community_id=cid,
            size=len(members),
            members=members,
            internal_edges=internal_edges[cid],
            internal_weight=internal_weight[cid],
        )
        for cid, members in communities.items()
    ]
    reports.sort(key=lambda r: (-r.size, r.members[0]))
    return reports
