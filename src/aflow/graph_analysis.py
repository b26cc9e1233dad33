"""Daily graph construction and structural analysis.

A daily graph is built from the relevant lists of one snapshot: there is an
edge (source, target) whenever target sits at position <= cutoff in the
source's relevant list and both endpoints belong to the corpus.  The node set
is always the full corpus, so isolated videos stay visible to the structural
measures below.  Graphs are int-coded: node i is the i-th smallest id, and
the structural measures walk compressed sparse row (CSR) lists of codes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date, timedelta
from enum import Enum
from functools import cached_property
from itertools import chain, count, repeat
from typing import Iterable, Mapping

import numpy as np

from .data_model import DailySnapshot, DataFormatError, Dataset, DynamicNetwork

CUTOFF = 15  # deepest relevant-list position that makes a link
MIN_INDEGREE = 20  # lowest in-degree the churn analysis counts


class Component(Enum):
    """Bow-tie component labels."""

    LSCC = "LSCC"
    IN = "IN"
    OUT = "OUT"
    TENDRILS = "Tendrils"
    DISCONNECTED = "Disconnected"


class DirectedGraph:
    """Immutable directed graph over int-coded nodes, no self-loops.

    ``ids`` holds the node ids sorted, so code i names ``ids[i]`` and code
    order is id order.  ``src`` and ``tgt`` hold every edge once as codes,
    sorted by (source, target).
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        ids = sorted(set(nodes))
        code = dict(zip(ids, count()))
        pairs = list(edges)
        src, tgt = np.fromiter(
            map(code.get, chain.from_iterable(pairs), repeat(-1)), dtype=np.int64, count=2 * len(pairs)
        ).reshape(-1, 2).T
        for i in np.flatnonzero((src == tgt) | (src < 0) | (tgt < 0))[:1].tolist():
            s, d = pairs[i]
            raise DataFormatError(f"self-loop on {s}" if s == d else f"edge ({s}, {d}) leaves the node set")
        n = max(len(ids), 1)
        keys = np.sort(src * n + tgt)
        keys = keys[np.diff(keys, prepend=-1) != 0]  # repeated edges collapse
        self.ids, self.src, self.tgt = tuple(ids), keys // n, keys % n

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        name = self.ids.__getitem__
        return frozenset(zip(map(name, self.src.tolist()), map(name, self.tgt.tolist())))


def _csr(head: np.ndarray, tail: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """CSR lists (indptr, indices): v's tails, in code order, are ``indices[indptr[v]:indptr[v + 1]]``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(head, minlength=n), out=indptr[1:])
    return indptr.tolist(), tail[np.lexsort((tail, head))].tolist()


def build_graph(
    snapshot: DailySnapshot, corpus: frozenset[str] | set[str], cutoff: int = CUTOFF
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
    edges = [(src, tgt) for src, rlist in snapshot.relevant.items() if src in corpus
             for tgt, pos in rlist.entries if pos <= cutoff and tgt in corpus]
    return DirectedGraph(corpus, edges)


@dataclass(frozen=True, eq=False)
class LinkPresence:
    """Daily presence of every link that enters at least one daily graph.

    ``ids`` holds the corpus sorted, as ``DirectedGraph.ids`` does, and
    ``src`` and ``tgt`` hold one link each as codes into it, sorted by
    (source, target).  ``days`` is a read-only links x window-days boolean
    matrix.
    """

    ids: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    days: np.ndarray


def daily_link_presence(
    network: DynamicNetwork, corpus: frozenset[str] | set[str], cutoff: int = CUTOFF
) -> LinkPresence:
    """Link presence of every daily graph at once, read off the snapshot table.

    Same rules and errors as :func:`build_graph` on each day.  A command builds
    it once and passes it to every analysis that reads it.
    """
    if cutoff < 1:
        raise DataFormatError(f"cutoff must be at least 1, got {cutoff}")
    t = network.table
    relevant = t.kind == 0
    orphan_days = np.setdiff1d(t.day[~relevant], t.day[relevant])
    if orphan_days.size:
        day = network.window.start + timedelta(days=int(orphan_days[0]))
        raise DataFormatError(f"snapshot {day} has no relevant lists")
    ids = np.array(sorted(corpus), dtype=str)
    code = np.searchsorted(ids, t.ids)  # table code -> corpus code, where it is one
    member = np.isin(t.ids, ids)
    edge = relevant & (t.pos <= cutoff) & member[t.src] & member[t.tgt]
    n = max(ids.size, 1)
    links = code[t.src[edge]] * n + code[t.tgt[edge]]
    keys = np.unique(links)
    days = np.zeros((keys.size, network.window.n_days), dtype=bool)
    days[np.searchsorted(keys, links), t.day[edge]] = True
    days.flags.writeable = False
    return LinkPresence(ids, keys // n, keys % n, days)


def _scc_labels(out_lists: tuple[list[int], list[int]]) -> np.ndarray:
    """Component number of every node, by Tarjan's algorithm with an explicit stack.

    Roots and successors are visited in code order, and components are
    numbered in the order Tarjan completes them.  No recursion, so graphs
    with very long paths are fine.
    """
    indptr, indices = out_lists
    n = len(indptr) - 1
    index, lowlink, depth = [-1] * n, [0] * n, [0] * n
    label = [-1] * n  # an entered node is on Tarjan's stack until it gets a label
    stack: list[int] = []
    counter = n_labels = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, -1)]  # (node, next successor slot), -1 for a node not yet entered
        while work:
            node, i = work.pop()
            if i < 0:
                index[node] = lowlink[node] = counter
                counter += 1
                depth[node] = len(stack)
                stack.append(node)
                i = indptr[node]
            else:  # back from the tree child at slot i - 1
                lowlink[node] = min(lowlink[node], lowlink[indices[i - 1]])
            while i < indptr[node + 1]:
                child = indices[i]
                i += 1
                if index[child] < 0:
                    work += [(node, i), (child, -1)]
                    break
                if label[child] < 0 and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                if lowlink[node] == index[node]:
                    for w in stack[depth[node] :]:
                        label[w] = n_labels
                    del stack[depth[node] :]
                    n_labels += 1
    return np.array(label, dtype=np.int64)


def strongly_connected_components(graph: DirectedGraph) -> list[frozenset[str]]:
    """Strongly connected components as id sets, in the order Tarjan completes them."""
    labels = _scc_labels(_csr(graph.src, graph.tgt, len(graph.ids)))
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [frozenset(graph.ids[v] for v in order[a:b]) for a, b in zip([0] + ends, ends)]


def _reach(seeds: np.ndarray, lists: tuple[list[int], list[int]]) -> np.ndarray:
    """Mask of the nodes that CSR ``lists`` lead to from a ``seeds`` node, seeds included."""
    indptr, indices = lists
    seen = seeds.tolist()
    frontier = np.flatnonzero(seeds).tolist()
    while frontier:
        node = frontier.pop()
        for nxt in indices[indptr[node] : indptr[node + 1]]:
            if not seen[nxt]:
                seen[nxt] = True
                frontier.append(nxt)
    return np.array(seen, dtype=bool)


@dataclass(frozen=True, eq=False)
class BowTie:
    """Bow-tie decomposition of one daily graph.

    Node ``ids[i]`` lies in ``list(Component)[component[i]]``.  ``node_fractions``
    sums to 1, and so does ``view_fractions``, set by :func:`bowtie_attention`.
    """

    ids: tuple[str, ...]
    component: np.ndarray
    view_fractions: Mapping[Component, float] | None = None

    @cached_property
    def sizes(self) -> dict[Component, int]:
        return dict(zip(Component, np.bincount(self.component, minlength=len(Component)).tolist()))

    @property
    def node_fractions(self) -> dict[Component, float]:
        return {comp: size / len(self.ids) for comp, size in self.sizes.items()}

    @cached_property
    def assignment(self) -> dict[str, Component]:
        return dict(zip(self.ids, map(list(Component).__getitem__, self.component.tolist())))


def bowtie_decompose(graph: DirectedGraph) -> BowTie:
    """Partition nodes into LSCC / IN / OUT / Tendrils / Disconnected.

    The LSCC is the largest strongly connected component, ties broken by the
    lexicographically smallest member id.  IN and OUT are the ancestors and
    descendants of the LSCC outside it.  Tendrils collect the remaining nodes
    that are reachable from IN or can reach OUT (tubes fold in here), and
    everything else is disconnected.
    """
    n = len(graph.ids)
    if not n:
        raise DataFormatError("cannot decompose an empty graph")
    succ, pred = _csr(graph.src, graph.tgt, n), _csr(graph.tgt, graph.src, n)
    labels = _scc_labels(succ)
    # Codes follow id order, so a component's first code is its smallest member.
    _, first, size = np.unique(labels, return_index=True, return_counts=True)
    lscc = labels == np.lexsort((first, -size))[0]
    out = _reach(lscc, succ) & ~lscc
    in_ = _reach(lscc, pred) & ~lscc
    tendrils = ~(lscc | in_ | out) & (_reach(in_, succ) | _reach(out, pred))
    # Positions in Component: LSCC, IN, OUT, Tendrils, and Disconnected for the rest.
    return BowTie(graph.ids, np.select([lscc, in_, out, tendrils], [0, 1, 2, 3], 4))


def bowtie_attention(bowtie: BowTie, dataset: Dataset, on_date: date) -> BowTie:
    """Attach the fraction of that day's views falling into each component."""
    views = dataset.window_views[dataset.codes(bowtie.ids), dataset.window.index(on_date)]
    totals = np.bincount(bowtie.component, weights=views, minlength=len(Component))
    grand = totals.sum()
    if grand == 0:
        raise DataFormatError(f"no views recorded on {on_date}")
    return replace(bowtie, view_fractions=dict(zip(Component, (totals / grand).tolist())))


def indegree_ccdf(graph: DirectedGraph) -> list[tuple[int, float]]:
    """Complementary cumulative in-degree distribution P(indegree >= k).

    Covers the full integer grid 0..max indegree, so the first point is
    always (0, 1.0) and values never increase.
    """
    n = len(graph.ids)
    if not n:
        raise DataFormatError("cannot compute a degree distribution of an empty graph")
    hist = np.bincount(np.bincount(graph.tgt, minlength=n))
    return list(enumerate((np.cumsum(hist[::-1])[::-1] / n).tolist()))


def view_group_flow(graph: DirectedGraph, views: np.ndarray) -> np.ndarray:
    """4x4 edge-count matrix between same-day view quartiles.

    ``views[i]`` holds the day's views of node ``graph.ids[i]``.  Nodes are
    sorted by (views, id) ascending and cut into four groups; when the node
    count is not divisible by 4 the lower groups take the extra members.
    Row index is the source group, column index the target group, group 0
    is the bottom quartile.  The matrix sums to the edge count.
    """
    views = np.asarray(views, dtype=float)
    if views.shape != (len(graph.ids),):
        raise DataFormatError(f"{views.size} view counts for {len(graph.ids)} nodes")
    group = np.empty(len(graph.ids), dtype=np.int64)
    # A stable sort keeps equal views in code order, which is id order.
    for g, members in enumerate(np.array_split(np.argsort(views, kind="stable"), 4)):
        group[members] = g
    return np.bincount(group[graph.src] * 4 + group[graph.tgt], minlength=16).reshape(4, 4)


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


def indegree_change_ratios(presence: LinkPresence, min_indegree: int = MIN_INDEGREE) -> dict[int, ChurnStats]:
    """Relative in-degree change (d_next - d) / d grouped by today's in-degree.

    Only nodes with in-degree >= min_indegree contribute, which keeps the
    ratio well defined and drops the noisy low-degree mass.  A node absent
    tomorrow counts as in-degree 0.
    """
    if presence.days.shape[1] < 2:
        raise DataFormatError("need at least two snapshots to measure change")
    n = len(presence.ids)
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


def link_frequency_histogram(presence: LinkPresence) -> dict[int, int]:
    """Histogram mapping number-of-days-present to the count of such links.

    A link is one directed (source, target) pair under the daily graph
    construction rules.  Pairs never present do not appear, so keys run from
    1 to the window length and the products sum to the total daily edge count.
    """
    days_present = presence.days.sum(axis=1)
    return {k: int(n) for k, n in enumerate(np.bincount(days_present)) if n}
