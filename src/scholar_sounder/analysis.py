"""Graph filtering and clustering: degree statistics, connected components,
weight-thresholded k-core extraction, deterministic asynchronous label
propagation into connected communities, and top-cluster reports.

Every operation takes the shared index that ``indexed_adjacency`` builds
once per graph, not a ``Graph``: sorted node ids, and per node index its
neighbours in ascending order. Operations work on node indices, read the
index without changing it, and return ids only in their results.
``degree_stats``, ``connected_components`` and ``top_clusters`` return their
``report.json`` sections as the report holds them; ``detect_communities``
returns a ``Partition`` and ``k_core`` the core's ids and edge count."""

from __future__ import annotations

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

    def to_canonical_dict(self) -> dict:
        """Comparable form: sorted nodes and attributes, sorted ``"a|b"`` edges."""
        return {
            "nodes": {
                n: {k: canonical_number(v) for k, v in sorted(attrs.items())}
                for n, attrs in sorted(self.nodes.items())
            },
            "edges": {f"{a}|{b}": canonical_number(w) for (a, b), w in sorted(self.edges.items())},
        }


# per node index, its (neighbor index, weight) pairs in ascending neighbor order
Adjacency = list[list[tuple[int, float]]]
Index = tuple[list[str], Adjacency]  # (sorted node ids, adjacency by index)


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


def indexed_adjacency(g: Graph) -> Index:
    """Sorted node ids, and per node index its (neighbor index, weight)
    pairs in ascending neighbor order, so that weight sums do not depend on
    edge insertion order."""
    order = sorted(g.nodes)
    index = {node: i for i, node in enumerate(order)}
    adjacency: Adjacency = [[] for _ in order]
    for (a, b), w in g.edges.items():
        i, j = index[a], index[b]
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    for nbrs in adjacency:
        nbrs.sort()
    return order, adjacency


def degree_stats(index: Index) -> dict:
    """Per node its degree and weighted degree, and per degree (as text, in
    ascending order) its node count."""
    order, adjacency = index
    degree = {node: len(nbrs) for node, nbrs in zip(order, adjacency)}
    # int sums stay exact past the float range
    weighted = {
        node: canonical_number(sum(w for _, w in nbrs)) for node, nbrs in zip(order, adjacency)
    }
    histogram: dict[int, int] = {}
    for d in degree.values():
        histogram[d] = histogram.get(d, 0) + 1
    return {
        "degree": degree,
        "weighted_degree": weighted,
        "histogram": {str(d): count for d, count in sorted(histogram.items())},
    }


def split_components(adjacency: Adjacency, labels: list[int]) -> list[int]:
    """Per node index, its component in the graph of the edges whose ends
    have equal labels; components are numbered from 0 by first appearance
    in index order."""
    component = [-1] * len(adjacency)
    count = 0
    for start, label in enumerate(labels):
        if component[start] >= 0:
            continue
        component[start] = count
        stack = [start]
        while stack:
            for nbr, _ in adjacency[stack.pop()]:
                if component[nbr] < 0 and labels[nbr] == label:
                    component[nbr] = count
                    stack.append(nbr)
        count += 1
    return component


def connected_components(index: Index) -> list[list[str]]:
    """Sorted member ids of each component, largest first, then by
    smallest member id."""
    order, adjacency = index
    members: dict[int, list[str]] = {}
    for node, cid in zip(order, split_components(adjacency, [0] * len(order))):
        members.setdefault(cid, []).append(node)
    return sorted(members.values(), key=lambda c: (-len(c), c[0]))


def k_core(index: Index, k: int, min_weight: float = 0.0) -> tuple[list[str], int]:
    """Drop edges lighter than min_weight, then peel nodes of degree < k
    (k >= 1) until every remaining node has degree >= k. Returns the sorted
    ids that remain and the number of kept edges among them."""
    order, adjacency = index
    degree = [sum(w >= min_weight for _, w in nbrs) for nbrs in adjacency]
    # a node is queued once: at the start, or when its degree falls to k - 1
    pending = [i for i, d in enumerate(degree) if d < k]
    while pending:
        for nbr, w in adjacency[pending.pop()]:
            if w >= min_weight:
                degree[nbr] -= 1
                if degree[nbr] == k - 1:
                    pending.append(nbr)
    core = [i for i, d in enumerate(degree) if d >= k]
    return [order[i] for i in core], sum(degree[i] for i in core) // 2


def detect_communities(index: Index) -> Partition:
    """Deterministic weighted label propagation with connected communities.

    Every node starts with its own label, its index in sorted node order.
    Each sweep visits the nodes in that order and updates labels in place
    (asynchronously): a node keeps its label unless another label has a
    larger summed incident edge weight, and then adopts the heaviest label,
    ties going to the largest. (With ties to the smallest label, the label
    a sweep carries forward wins every tie downstream and floods the graph:
    two triangles joined by an edge become one community.) Every change
    strictly raises the total weight of edges whose ends agree, so sweeps
    reach a fixpoint; 100 sweeps is a guard. Each label class is then split
    into its connected components, and community ids are densified by first
    appearance over sorted node order.
    """
    order, adjacency = index
    labels = list(range(len(order)))
    sweeps, converged = 0, False
    while not converged and sweeps < 100:
        sweeps += 1
        converged = not propagation_sweep(adjacency, labels)
    community = split_components(adjacency, labels)
    return Partition(
        assignment=dict(zip(order, community)), sweeps=sweeps, converged=converged
    )


def propagation_sweep(adjacency: Adjacency, labels: list[int]) -> bool:
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


def top_clusters(index: Index, p: Partition) -> list[dict]:
    """Every community, largest first (ties by smallest member id), with
    internal edge counts and weights summed in one pass over the index."""
    order, adjacency = index
    community = [p.assignment[node] for node in order]
    communities = p.communities()
    internal_edges = dict.fromkeys(communities, 0)
    internal_weight = dict.fromkeys(communities, 0)
    for i, (cid, nbrs) in enumerate(zip(community, adjacency)):
        for j, w in nbrs:
            if j > i and community[j] == cid:
                internal_edges[cid] += 1
                internal_weight[cid] += w
    reports = [
        {
            "community_id": cid,
            "size": len(members),
            "members": members,
            "internal_edges": internal_edges[cid],
            "internal_weight": canonical_number(internal_weight[cid]),
        }
        for cid, members in communities.items()
    ]
    reports.sort(key=lambda r: (-r["size"], r["members"][0]))
    return reports
