"""Daily graph construction and structural analysis.

A daily graph is built from the relevant lists of one snapshot: there is an
edge (source, target) whenever target sits at position <= cutoff in the
source's relevant list and both endpoints belong to the corpus.  The node set
is always the full corpus, so isolated videos stay visible to the structural
measures below.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .data_model import DailySnapshot, DataFormatError, Dataset, DynamicNetwork


class Component(Enum):
    """Bow-tie component labels."""

    LSCC = "LSCC"
    IN = "IN"
    OUT = "OUT"
    TENDRILS = "Tendrils"
    DISCONNECTED = "Disconnected"


class DirectedGraph:
    """Immutable directed graph over string node ids, no self-loops."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.nodes = frozenset(nodes)
        self.edges = frozenset(edges)
        for src, dst in self.edges:
            if src == dst:
                raise DataFormatError(f"self-loop on {src}")
            if src not in self.nodes or dst not in self.nodes:
                raise DataFormatError(f"edge ({src}, {dst}) leaves the node set")

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = defaultdict(list)
        for src, dst in self.edges:
            adj[src].append(dst)
        return {v: tuple(sorted(ts)) for v, ts in adj.items()}

    @cached_property
    def predecessors(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = defaultdict(list)
        for src, dst in self.edges:
            adj[dst].append(src)
        return {v: tuple(sorted(ss)) for v, ss in adj.items()}

    def indegrees(self) -> dict[str, int]:
        counts = Counter(dst for _, dst in self.edges)
        return {v: counts.get(v, 0) for v in self.nodes}


def build_graph(
    snapshot: DailySnapshot, corpus: frozenset[str] | set[str], cutoff: int = 15
) -> DirectedGraph:
    """Build the daily graph for one snapshot.

    Only relevant lists induce edges; recommended lists are measurement data
    for list alignment, not link structure.  A snapshot that carries
    recommended lists but no relevant ones is rejected as inconsistent.
    """
    if cutoff < 1:
        raise DataFormatError(f"cutoff must be at least 1, got {cutoff}")
    if not snapshot.relevant and snapshot.recommended:
        raise DataFormatError(f"snapshot {snapshot.date} has no relevant lists")
    edges: set[tuple[str, str]] = set()
    for src, rlist in snapshot.relevant.items():
        if src not in corpus:
            continue
        for tgt, pos in rlist.entries:
            if pos <= cutoff and tgt in corpus:
                edges.add((src, tgt))
    return DirectedGraph(corpus, edges)


@dataclass(frozen=True, eq=False)
class LinkPresence:
    """Daily presence of every link that enters at least one daily graph.

    ``src`` and ``tgt`` hold one link each as codes into ``ids`` (the
    snapshot table's vocabulary), sorted by (source, target).  ``days`` is a
    read-only links x window-days boolean matrix.
    """

    ids: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    days: np.ndarray

    def pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.ids[self.src].tolist(), self.ids[self.tgt].tolist()))


def daily_link_presence(
    network: DynamicNetwork, corpus: frozenset[str] | set[str], cutoff: int = 15
) -> LinkPresence:
    """Link presence of every daily graph at once, read off the snapshot table.

    Same rules and errors as :func:`build_graph` on each day; built once per
    network, corpus and cutoff.
    """
    if cutoff < 1:
        raise DataFormatError(f"cutoff must be at least 1, got {cutoff}")
    corpus = frozenset(corpus)
    return network.derived(("links", corpus, cutoff), lambda: _link_presence(network, corpus, cutoff))


def _link_presence(network: DynamicNetwork, corpus: frozenset[str], cutoff: int) -> LinkPresence:
    t = network.table
    relevant = t.kind == 0
    orphan_days = np.setdiff1d(t.day[~relevant], t.day[relevant])
    if orphan_days.size:
        day = network.window.start + timedelta(days=int(orphan_days[0]))
        raise DataFormatError(f"snapshot {day} has no relevant lists")
    n = t.ids.size
    member = np.fromiter(map(corpus.__contains__, t.ids.tolist()), dtype=bool, count=n)
    edge = relevant & (t.pos <= cutoff) & member[t.src] & member[t.tgt]
    keys, link = np.unique(t.src[edge].astype(np.int64) * n + t.tgt[edge], return_inverse=True)
    days = np.zeros((keys.size, network.window.n_days), dtype=bool)
    days[link, t.day[edge]] = True
    days.flags.writeable = False
    return LinkPresence(t.ids, keys // n, keys % n, days)


def strongly_connected_components(graph: DirectedGraph) -> list[frozenset[str]]:
    """Tarjan's algorithm with an explicit stack.

    Roots are visited in sorted node order so the component list comes out in
    a deterministic order.  No recursion, so graphs with very long paths are
    fine.
    """
    succ = graph.successors
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[frozenset[str]] = []
    counter = 0

    for root in sorted(graph.nodes):
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ.get(root, ())))]
        while work:
            node, children = work[-1]
            descended = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ.get(child, ()))))
                    descended = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(frozenset(comp))
    return components


def _reach(seeds: Iterable[str], adjacency: Mapping[str, tuple[str, ...]]) -> set[str]:
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@dataclass(frozen=True)
class BowTie:
    """Bow-tie decomposition of one daily graph.

    ``node_fractions`` always sums to 1; ``view_fractions`` is filled in by
    :func:`bowtie_attention` and sums to 1 as well.
    """

    assignment: Mapping[str, Component]
    node_fractions: Mapping[Component, float]
    view_fractions: Mapping[Component, float] | None = None

    def members(self, component: Component) -> frozenset[str]:
        return frozenset(v for v, c in self.assignment.items() if c is component)


def bowtie_decompose(graph: DirectedGraph) -> BowTie:
    """Partition nodes into LSCC / IN / OUT / Tendrils / Disconnected.

    The LSCC is the largest strongly connected component, ties broken by the
    lexicographically smallest member id.  IN and OUT are the ancestors and
    descendants of the LSCC outside it.  Tendrils collect the remaining nodes
    that are reachable from IN or can reach OUT (tubes fold in here), and
    everything else is disconnected.
    """
    if not graph.nodes:
        raise DataFormatError("cannot decompose an empty graph")
    sccs = strongly_connected_components(graph)
    lscc = min(sccs, key=lambda s: (-len(s), min(s)))

    descendants = _reach(lscc, graph.successors)
    ancestors = _reach(lscc, graph.predecessors)
    out = descendants - lscc
    in_ = ancestors - lscc

    rest = graph.nodes - lscc - in_ - out
    from_in = _reach(in_, graph.successors)
    to_out = _reach(out, graph.predecessors)
    tendrils = rest & (from_in | to_out)
    disconnected = rest - tendrils

    assignment: dict[str, Component] = {}
    for comp, members in (
        (Component.LSCC, lscc),
        (Component.IN, in_),
        (Component.OUT, out),
        (Component.TENDRILS, tendrils),
        (Component.DISCONNECTED, disconnected),
    ):
        for v in members:
            assignment[v] = comp

    n = len(graph.nodes)
    node_fractions = {
        comp: sum(1 for c in assignment.values() if c is comp) / n for comp in Component
    }
    return BowTie(assignment, node_fractions)


def bowtie_attention(bowtie: BowTie, dataset: Dataset, on_date: date) -> BowTie:
    """Attach the fraction of that day's views falling into each component."""
    totals = {comp: 0.0 for comp in Component}
    grand = 0.0
    for vid, comp in bowtie.assignment.items():
        v = float(dataset.views_on(vid, on_date))
        totals[comp] += v
        grand += v
    if grand == 0:
        raise DataFormatError(f"no views recorded on {on_date}")
    view_fractions = {comp: totals[comp] / grand for comp in Component}
    return BowTie(bowtie.assignment, bowtie.node_fractions, view_fractions)


def indegree_ccdf(graph: DirectedGraph) -> list[tuple[int, float]]:
    """Complementary cumulative in-degree distribution P(indegree >= k).

    Covers the full integer grid 0..max indegree, so the first point is
    always (0, 1.0) and values never increase.
    """
    if not graph.nodes:
        raise DataFormatError("cannot compute a degree distribution of an empty graph")
    degs = np.fromiter(graph.indegrees().values(), dtype=np.int64, count=len(graph.nodes))
    hist = np.bincount(degs)
    ge = np.cumsum(hist[::-1])[::-1] / len(graph.nodes)
    return [(k, float(ge[k])) for k in range(len(hist))]


def view_group_flow(graph: DirectedGraph, day_views: Mapping[str, float]) -> np.ndarray:
    """4x4 edge-count matrix between same-day view quartiles.

    Nodes are sorted by (views, id) ascending and cut into four groups; when
    the node count is not divisible by 4 the lower groups take the extra
    members.  Row index is the source group, column index the target group,
    group 0 is the bottom quartile.  The matrix sums to the edge count.
    """
    matrix = np.zeros((4, 4), dtype=np.int64)
    if not graph.nodes:
        return matrix
    try:
        order = sorted(graph.nodes, key=lambda v: (day_views[v], v))
    except KeyError as exc:
        raise DataFormatError(f"missing views for node {exc.args[0]}") from None
    group_of: dict[str, int] = {}
    for gi, chunk in enumerate(np.array_split(np.arange(len(order)), 4)):
        for idx in chunk:
            group_of[order[idx]] = gi
    for src, dst in graph.edges:
        matrix[group_of[src], group_of[dst]] += 1
    return matrix


@dataclass(frozen=True)
class ChurnStats:
    """Distribution of day-over-day relative in-degree change at one in-degree."""

    indegree: int
    count: int
    p10: float
    p25: float
    p50: float
    p75: float
    p90: float


def indegree_change_ratios(
    network: DynamicNetwork,
    corpus: frozenset[str] | set[str],
    cutoff: int = 15,
    min_indegree: int = 20,
) -> dict[int, ChurnStats]:
    """Relative in-degree change (d_next - d) / d grouped by today's in-degree.

    Only nodes with in-degree >= min_indegree contribute, which keeps the
    ratio well defined and drops the noisy low-degree mass.  A node absent
    tomorrow counts as in-degree 0.
    """
    if network.window.n_days < 2:
        raise DataFormatError("need at least two snapshots to measure change")
    presence = daily_link_presence(network, corpus, cutoff)
    n = presence.ids.size
    indegree = [np.bincount(presence.tgt[present], minlength=n) for present in presence.days.T]
    degs, ratios = [], []
    for today, tomorrow in zip(indegree, indegree[1:]):
        counted = (today >= min_indegree) & (today > 0)
        degs.append(today[counted])
        ratios.append((tomorrow[counted] - today[counted]) / today[counted])
    deg = np.concatenate(degs)
    ratio = np.concatenate(ratios)

    out: dict[int, ChurnStats] = {}
    for d in np.unique(deg).tolist():
        vals = ratio[deg == d]
        p10, p25, p50, p75, p90 = np.percentile(vals, [10, 25, 50, 75, 90])
        out[d] = ChurnStats(d, len(vals), p10, p25, p50, p75, p90)
    return out


def link_frequency_histogram(
    network: DynamicNetwork, corpus: frozenset[str] | set[str], cutoff: int = 15
) -> dict[int, int]:
    """Histogram mapping number-of-days-present to the count of such links.

    A link is one directed (source, target) pair under the daily graph
    construction rules.  Pairs never present do not appear, so keys run from
    1 to the window length and the products sum to the total daily edge count.
    """
    days_present = daily_link_presence(network, corpus, cutoff).days.sum(axis=1)
    return {k: int(n) for k, n in enumerate(np.bincount(days_present)) if n}
