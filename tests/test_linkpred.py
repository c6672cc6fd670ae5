"""Link-prediction / sampling / assortativity vs brute-force numpy, at
K = 1, 3 and 4 buckets."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from leidenalg_ray.dist.linkpred import (
    adamic_adar_topk,
    degree_assortativity,
    neighbor_sample,
)


@pytest.fixture(scope="module")
def random_edges():
    rng = np.random.default_rng(7)
    n, m = 300, 2500
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    nl = src != dst
    a = np.minimum(src[nl], dst[nl])
    b = np.maximum(src[nl], dst[nl])
    keys = np.unique(a * n + b)
    return (keys // n).astype(np.int64), (keys % n).astype(np.int64), n


def _edges_ds(a, b):
    return rd.from_arrow(pa.table({"src": pa.array(a),
                                   "dst": pa.array(b)}))


PARTITIONS = (1, 3, 4)


@pytest.mark.parametrize("K", PARTITIONS)
def test_adamic_adar_matches_bruteforce(random_edges, K):
    a, b, n = random_edges
    got = adamic_adar_topk(_edges_ds(a, b), k_top=15,
                          num_partitions=K).to_pandas()

    # brute force over all pairs
    adj = [set() for _ in range(n)]
    for x, y in zip(a, b):
        adj[x].add(y)
        adj[y].add(x)
    deg = np.array([len(s) for s in adj])
    edge_set = set(zip(a.tolist(), b.tolist()))
    rows = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in edge_set:
                continue
            common = adj[u] & adj[v]
            if not common:
                continue
            aa = sum(1.0 / np.log(deg[w]) for w in common)
            rows.append((u, v, len(common), aa))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    rows = rows[:15]
    assert got["a"].tolist() == [r[0] for r in rows]
    assert got["b"].tolist() == [r[1] for r in rows]
    assert got["common_neighbors"].tolist() == [r[2] for r in rows]
    assert np.allclose(got["aa_score"], [r[3] for r in rows], atol=1e-6)


@pytest.mark.parametrize("K", PARTITIONS)
def test_neighbor_sample_matches_bruteforce(random_edges, K):
    a, b, n = random_edges
    got = neighbor_sample(_edges_ds(a, b), fanout=3,
                         num_partitions=K).to_pandas()
    got = got.sort_values(["src", "rk"]).reset_index(drop=True)

    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    h = (src * 7919 + dst * 104729) % 1_000_003
    order = np.lexsort((dst, h, src))
    src, dst = src[order], dst[order]
    rows = []
    prev, cnt = -1, 0
    for s, d in zip(src, dst):
        if s != prev:
            prev, cnt = s, 0
        cnt += 1
        if cnt <= 3:
            rows.append((s, d, cnt))
    assert got["src"].tolist() == [r[0] for r in rows]
    assert got["dst"].tolist() == [r[1] for r in rows]
    assert got["rk"].tolist() == [r[2] for r in rows]
    # every vertex contributes at most fanout rows
    assert got.groupby("src").size().max() <= 3


@pytest.mark.parametrize("K", PARTITIONS)
def test_assortativity_matches_numpy(random_edges, K):
    a, b, n = random_edges
    r = degree_assortativity(_edges_ds(a, b), num_partitions=K)
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    x = np.concatenate([deg[a], deg[b]]).astype(np.float64)
    y = np.concatenate([deg[b], deg[a]]).astype(np.float64)
    expect = np.corrcoef(x, y)[0, 1]
    assert r == pytest.approx(expect, abs=1e-9)


def test_spill_dirs_removed(random_edges, tmp_path, monkeypatch):
    """The three operators leave no spill directory of their own in
    the temp directory, and keep a caller's ``spill_dir``."""
    a, b, n = random_edges
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    adamic_adar_topk(_edges_ds(a, b), k_top=5, num_partitions=3)
    degree_assortativity(_edges_ds(a, b), num_partitions=3)
    neighbor_sample(_edges_ds(a, b), fanout=2, num_partitions=3).count()
    assert not [d for d in os.listdir(scratch) if d.startswith("lray_")]
    own = tmp_path / "own"
    got = degree_assortativity(_edges_ds(a, b), num_partitions=3,
                               spill_dir=str(own))
    assert got == degree_assortativity(_edges_ds(a, b), num_partitions=3)
    assert any(d.startswith("part=") for d in os.listdir(own))
