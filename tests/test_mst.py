"""Distributed Borůvka minimum spanning forest vs a serial Kruskal
oracle (`dist/mst.py`)."""

import numpy as np
import pytest

from leidenalg_ray.dist.blocks import DistGraph
from leidenalg_ray.dist.mst import minimum_spanning_forest


def _kruskal(n, src, dst, w):
    """Serial Kruskal under the same lexicographic total order
    (weight, min(u,v), max(u,v)) — returns (edge set, total weight)."""
    umin = np.minimum(src, dst)
    umax = np.maximum(src, dst)
    order = np.lexsort((umax, umin, w))
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges, total = [], 0.0
    for i in order:
        a, b = find(int(src[i])), find(int(dst[i]))
        if a != b:
            parent[a] = b
            edges.append((int(umin[i]), int(umax[i]), float(w[i])))
            total += float(w[i])
    return set(edges), total


def _mst_edge_set(info):
    return {(int(min(u, v)), int(max(u, v)), float(w))
            for u, v, w in zip(info["u"], info["v"], info["weight"])}


def _er_graph(n, m, seed, int_weights=False):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m).astype(np.int64)
    dst = rng.integers(0, n, size=m).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if int_weights:
        w = rng.integers(1, 5, size=len(src)).astype(np.float64)
    else:
        w = rng.random(len(src))
    return src, dst, w


def test_mst_matches_kruskal_unique_weights(ray_session):
    n = 60
    src, dst, w = _er_graph(n, 400, seed=7)
    g = DistGraph.from_edges(src, dst, w, n=n, P=4, directed=False,
                             both_directions=True)
    info, rounds = minimum_spanning_forest(g)
    ref_edges, ref_total = _kruskal(n, src, dst, w)
    # unique float weights -> the MSF is unique as an edge set
    assert _mst_edge_set(info) == ref_edges
    assert info["total_weight"] == pytest.approx(ref_total)
    assert rounds >= 2  # genuinely multi-round on this instance


def test_mst_tied_weights_same_total_and_valid_forest(ray_session):
    n = 50
    src, dst, w = _er_graph(n, 300, seed=11, int_weights=True)
    g = DistGraph.from_edges(src, dst, w, n=n, P=4, directed=False,
                             both_directions=True)
    info, _ = minimum_spanning_forest(g)
    ref_edges, ref_total = _kruskal(n, src, dst, w)
    # ties: all MSFs share the same weight multiset / total
    assert info["total_weight"] == pytest.approx(ref_total)
    assert info["n_edges"] == len(ref_edges)
    # emitted edges form a forest spanning the same components
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(info["u"], info["v"]):
        a, b = find(int(u)), find(int(v))
        assert a != b, "cycle in emitted forest"
        parent[a] = b


def test_mst_partition_invariance(ray_session):
    n = 45
    src, dst, w = _er_graph(n, 250, seed=3)
    # weights on a 0.1 grid: a sum in emission order differs in the
    # last bits between partition counts
    for weights in (w, np.round(w * 10) / 10):
        totals = []
        for P in (1, 3, 4, 8):
            g = DistGraph.from_edges(src, dst, weights, n=n, P=P,
                                     directed=False,
                                     both_directions=True)
            info, _ = minimum_spanning_forest(g)
            totals.append((info["total_weight"],
                           tuple(sorted(_mst_edge_set(info)))))
        for total, edges in totals[1:]:
            assert total == totals[0][0]
            assert edges == totals[0][1]


def test_mst_disconnected_forest(ray_session):
    # two separate paths: 0-1-2-3 and 10-11-12
    src = np.array([0, 1, 2, 10, 11], dtype=np.int64)
    dst = np.array([1, 2, 3, 11, 12], dtype=np.int64)
    w = np.ones(5)
    g = DistGraph.from_edges(src, dst, w, n=13, P=4, directed=False,
                             both_directions=True)
    info, _ = minimum_spanning_forest(g)
    assert info["n_edges"] == 5
    assert info["total_weight"] == pytest.approx(5.0)


def test_mst_result_out_writes_shard_parquet(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import glob
    n = 40
    src, dst, w = _er_graph(n, 200, seed=19)
    g = DistGraph.from_edges(src, dst, w, n=n, P=4, directed=False,
                             both_directions=True)
    ref, _ = minimum_spanning_forest(g)
    out = str(tmp_path / "mst")
    info, _ = minimum_spanning_forest(g, result_out=out)
    assert info["rows"] == ref["n_edges"] == info["n_edges"]
    assert info["total_weight"] == pytest.approx(ref["total_weight"])
    files = glob.glob(out + "/part-*.parquet")
    assert files
    got = 0
    tw = 0.0
    for f in files:
        t = pq.read_table(f)
        got += t.num_rows
        tw += float(np.sum(t["weight"].to_numpy()))
    assert got == ref["n_edges"]
    assert tw == pytest.approx(ref["total_weight"])
