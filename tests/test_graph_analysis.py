import time
from datetime import date

import numpy as np
import pytest

from aflow.data_model import DailySnapshot, DataFormatError, RankedList
from aflow.graph_analysis import (
    Component,
    DirectedGraph,
    bowtie_attention,
    bowtie_decompose,
    build_graph,
    daily_link_presence,
    indegree_ccdf,
    indegree_change_ratios,
    link_frequency_histogram,
    strongly_connected_components,
    view_group_flow,
)

import _helpers
import _oracles


def make_graph(nodes, edges):
    return DirectedGraph(nodes, edges)


def members(bowtie, component):
    return {v for v, c in bowtie.assignment.items() if c is component}


def snapshot_with(relevant, recommended=None, day=date(2018, 9, 1)):
    rel = {
        src: RankedList(src, tuple(entries), "relevant") for src, entries in relevant.items()
    }
    rec = {
        src: RankedList(src, tuple(entries), "recommended")
        for src, entries in (recommended or {}).items()
    }
    return DailySnapshot(day, rel, rec)


def random_graph(seed, n, p):
    rng = np.random.default_rng(seed)
    nodes = [f"n{i:02d}" for i in range(n)]
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    edges = [(nodes[i], nodes[j]) for i, j in zip(*np.nonzero(mask))]
    return nodes, edges


def test_graph_rejects_self_loops_and_dangling_edges():
    with pytest.raises(DataFormatError, match="self-loop"):
        make_graph({"a"}, {("a", "a")})
    with pytest.raises(DataFormatError, match="leaves the node set"):
        make_graph({"a"}, {("a", "b")})


def test_build_graph_applies_cutoff_and_corpus_filter():
    snap = snapshot_with({"a": [("b", 1), ("x", 2), ("c", 3)]})
    g = build_graph(snap, corpus={"a", "b", "c", "d"}, cutoff=2)
    # x is external, c sits beyond the cutoff, d is isolated but kept as a node
    assert g.edges == frozenset({("a", "b")})
    assert g.ids == ("a", "b", "c", "d")
    with pytest.raises(DataFormatError, match="cutoff must be at least 1"):
        build_graph(snap, corpus={"a", "b"}, cutoff=0)


def test_build_graph_empty_snapshot_gives_edgeless_graph():
    g = build_graph(snapshot_with({}), corpus={"a", "b"})
    assert g.edges == frozenset()
    assert g.ids == ("a", "b")


def test_build_graph_rejects_recommended_only_snapshot():
    snap = snapshot_with({}, recommended={"a": [("b", 1)]})
    with pytest.raises(DataFormatError, match="no relevant lists"):
        build_graph(snap, corpus={"a", "b"})


def test_scc_three_cycle_and_chain():
    g = make_graph({"a", "b", "c"}, {("a", "b"), ("b", "c"), ("c", "a")})
    assert strongly_connected_components(g) == [frozenset({"a", "b", "c"})]
    chain = make_graph({"a", "b", "c"}, {("a", "b"), ("b", "c")})
    comps = set(strongly_connected_components(chain))
    assert comps == {frozenset({"a"}), frozenset({"b"}), frozenset({"c"})}


def test_scc_matches_closure_oracle_on_random_graphs():
    for seed in range(30):
        n = 8 + seed % 17
        nodes, edges = random_graph(seed, n, 0.12)
        got = set(strongly_connected_components(make_graph(nodes, edges)))
        assert got == _oracles.scc_partition(nodes, edges)


def test_bowtie_textbook_example():
    # cycle {a, b}; c feeds it; d is fed by it
    g = make_graph({"a", "b", "c", "d"}, {("a", "b"), ("b", "a"), ("c", "a"), ("b", "d")})
    bt = bowtie_decompose(g)
    assert members(bt, Component.LSCC) == {"a", "b"}
    assert members(bt, Component.IN) == {"c"}
    assert members(bt, Component.OUT) == {"d"}
    assert bt.node_fractions[Component.LSCC] == 0.5
    assert sum(bt.node_fractions.values()) == pytest.approx(1.0)


def test_bowtie_tube_counts_as_tendril():
    edges = {("a", "b"), ("b", "a"), ("c", "a"), ("b", "d"), ("c", "e"), ("e", "d")}
    bt = bowtie_decompose(make_graph({"a", "b", "c", "d", "e", "f"}, edges))
    assert bt.assignment["e"] is Component.TENDRILS
    assert bt.assignment["f"] is Component.DISCONNECTED


def test_bowtie_two_node_cycle_is_all_core():
    bt = bowtie_decompose(make_graph({"a", "b"}, {("a", "b"), ("b", "a")}))
    assert bt.node_fractions[Component.LSCC] == 1.0


def test_bowtie_singleton_tie_breaks_to_smallest_id():
    bt = bowtie_decompose(make_graph({"b", "a", "c"}, set()))
    assert members(bt, Component.LSCC) == {"a"}


def test_bowtie_empty_graph_rejected():
    with pytest.raises(DataFormatError, match="empty graph"):
        bowtie_decompose(make_graph(set(), set()))


def test_bowtie_matches_oracle_on_random_graphs():
    for seed in range(25):
        n = 10 + (seed * 3) % 21
        nodes, edges = random_graph(seed + 100, n, [0.03, 0.08, 0.15][seed % 3])
        bt = bowtie_decompose(make_graph(nodes, edges))
        expected = _oracles.bowtie_assignment(nodes, edges)
        got = {v: c.value for v, c in bt.assignment.items()}
        assert got == expected


def test_bowtie_forbidden_edge_directions():
    # no edge may run OUT -> LSCC, OUT -> IN, or LSCC -> IN
    for seed in range(15):
        nodes, edges = random_graph(seed + 300, 25, 0.07)
        bt = bowtie_decompose(make_graph(nodes, edges))
        for src, dst in edges:
            a, b = bt.assignment[src], bt.assignment[dst]
            assert not (a is Component.OUT and b in (Component.LSCC, Component.IN))
            assert not (a is Component.LSCC and b is Component.IN)


def test_bowtie_on_a_deep_graph_is_linear_and_needs_no_recursion():
    # A 50,000-node path into a 3-cycle: far deeper than the recursion limit,
    # and a reach that rescanned every edge per level would take about 10 s.
    path = [f"p{i:05d}" for i in range(50_000)]
    cycle = ["c0", "c1", "c2"]
    edges = list(zip(path, path[1:] + ["c0"])) + [("c0", "c1"), ("c1", "c2"), ("c2", "c0")]
    start = time.perf_counter()
    bt = bowtie_decompose(make_graph(path + cycle, edges))
    elapsed = time.perf_counter() - start
    assert members(bt, Component.LSCC) == set(cycle)
    assert members(bt, Component.IN) == set(path)
    assert elapsed < 5.0


def test_bowtie_attention_fractions():
    ds = _helpers.build_dataset(
        views={"a": [100] * 3, "b": [200] * 3, "c": [700] * 3},
        daily_edges=[("a", "b", 1), ("b", "a", 1)],
    )
    g = build_graph(ds.network.snapshots[0], ds.corpus)
    bt = bowtie_attention(bowtie_decompose(g), ds, date(2018, 9, 1))
    assert bt.view_fractions[Component.LSCC] == pytest.approx(0.3)
    assert bt.view_fractions[Component.DISCONNECTED] == pytest.approx(0.7)
    assert sum(bt.view_fractions.values()) == pytest.approx(1.0)


def test_bowtie_attention_rejects_zero_view_day():
    ds = _helpers.build_dataset(views={"a": [0, 0], "b": [0, 0]}, daily_edges=[("a", "b", 1)])
    g = build_graph(ds.network.snapshots[0], ds.corpus)
    with pytest.raises(DataFormatError, match="no views recorded"):
        bowtie_attention(bowtie_decompose(g), ds, date(2018, 9, 1))


def test_indegree_ccdf_star():
    # hub fed by three spokes: degrees are 3,0,0,0
    g = make_graph({"h", "s1", "s2", "s3"}, {("s1", "h"), ("s2", "h"), ("s3", "h")})
    assert indegree_ccdf(g) == [(0, 1.0), (1, 0.25), (2, 0.25), (3, 0.25)]
    lone = make_graph({"a", "b"}, set())
    assert indegree_ccdf(lone) == [(0, 1.0)]


def test_indegree_ccdf_never_increases():
    nodes, edges = random_graph(7, 40, 0.1)
    curve = indegree_ccdf(make_graph(nodes, edges))
    values = [v for _, v in curve]
    assert values[0] == 1.0
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_view_group_flow_quartiles():
    nodes = [f"v{i}" for i in range(8)]
    views = np.array([10.0 * (i + 1) for i in range(8)])  # in node code order
    # every node points at the top-viewed video v7
    edges = {(v, "v7") for v in nodes[:-1]}
    flow = view_group_flow(make_graph(nodes, edges), views)
    assert flow.sum() == 7
    assert flow[:, 3].sum() == 7
    assert flow[3, 3] == 1  # v6 sits in the top quartile with v7
    for wrong in ([], [1.0, 2.0]):
        with pytest.raises(DataFormatError, match=f"{len(wrong)} view counts for 1 nodes"):
            view_group_flow(make_graph({"a"}, set()), np.array(wrong))


def test_view_group_flow_lower_groups_take_extras():
    nodes = [f"v{i}" for i in range(6)]
    flow = view_group_flow(make_graph(nodes, {("v0", "v5")}), np.arange(6.0))
    # 6 nodes split 2/2/1/1, so v5 is alone in the top group
    assert flow[0, 3] == 1


def test_indegree_change_ratio_values():
    # 25 sources feed one hub on day 1; day 2 keeps the hub at the same degree
    sources = [f"s{i:02d}" for i in range(25)]
    corpus = set(sources) | {"hub"}
    stable_day = {s: [("hub", 1)] for s in sources}
    net = _helpers.build_network([stable_day, stable_day])
    stats = indegree_change_ratios(daily_link_presence(net, corpus), min_indegree=20)
    assert list(stats) == [25]
    assert stats[25].count == 1
    assert stats[25].p50 == 0.0

    vanished = _helpers.build_network([stable_day, {}])
    stats = indegree_change_ratios(daily_link_presence(vanished, corpus), min_indegree=20)
    assert stats[25].p50 == -1.0
    assert stats[25].p10 == -1.0


def test_indegree_change_needs_two_days():
    net = _helpers.build_network([{"a": [("b", 1)]}])
    with pytest.raises(DataFormatError, match="at least two snapshots"):
        indegree_change_ratios(daily_link_presence(net, {"a", "b"}))


def test_link_frequency_histogram():
    day_ab = {"a": [("b", 1)]}
    day_ab_cd = {"a": [("b", 1)], "c": [("d", 1)]}
    net = _helpers.build_network([day_ab_cd, day_ab, day_ab_cd])
    hist = link_frequency_histogram(daily_link_presence(net, {"a", "b", "c", "d"}))
    assert hist == {2: 1, 3: 1}
    total_edges = sum(days * n for days, n in hist.items())
    assert total_edges == 5
