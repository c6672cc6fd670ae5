"""Distributed tier vs serial oracles: supersteps, triangles,
distributed Leiden, checkpoint/resume, parallelism-invariance."""

import numpy as np
import pytest

from leidenalg_ray.dist.blocks import DistGraph
from leidenalg_ray.dist import superstep as ss
from leidenalg_ray.dist.leiden import DistLeiden
from leidenalg_ray.oracle import (
    connected_components_serial,
    label_propagation_serial,
    pagerank_serial,
    triangles_serial,
)

from .fixtures import planted_partition


@pytest.fixture(scope="module")
def random_graph():
    rng = np.random.default_rng(3)
    n, m = 2000, 12000
    return rng.integers(0, n, m), rng.integers(0, n, m), n


def test_pagerank_matches_serial(random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    r, _ = ss.pagerank(g, tol=1e-10)
    r_ser, _ = pagerank_serial(src, dst, n, tol=1e-10)
    assert np.abs(r - r_ser).max() < 1e-12


def test_pagerank_dangling_mass(random_graph):
    src, dst, n = random_graph
    # add isolated + sink vertices
    g = DistGraph.from_edges(src, dst, n=n + 50, P=4, directed=True)
    r, _ = ss.pagerank(g, tol=1e-10)
    r_ser, _ = pagerank_serial(src, dst, n + 50, tol=1e-10)
    assert np.abs(r - r_ser).max() < 1e-12
    assert r.sum() == pytest.approx(1.0, abs=1e-6)


def test_find_partition_dataset_recovers_cliques():
    """Top-level Ray-Data entry point: Leiden over an edge Dataset on
    a sparse raw id space recovers planted cliques."""
    import pyarrow as pa
    import ray.data as rd
    from leidenalg_ray import find_partition_dataset

    srcs, dsts = [], []
    for c in range(5):
        vids = np.arange(30) * 7 + c * 210  # sparse, disjoint cliques
        ii, jj = np.triu_indices(30, k=1)
        srcs.append(vids[ii])
        dsts.append(vids[jj])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    ds = rd.from_arrow(pa.table({"src": pa.array(src),
                                 "dst": pa.array(dst)}))
    n = int(dst.max()) + 1
    mem, q, info, active = find_partition_dataset(
        ds, n=n, quality="cpm", resolution_parameter=0.1, P=4, seed=1)
    assert len(active) == 150
    labels = {tuple(np.unique(mem[np.arange(30) * 7 + c * 210]))
              for c in range(5)}
    assert all(len(l) == 1 for l in labels)   # each clique one comm
    assert len(labels) == 5                   # five distinct comms


def test_pagerank_active_mask_equals_compacted(random_graph):
    """active=True on a sparse raw id space == PageRank on the
    compacted id space (the Dataset-native query substrate)."""
    src, dst, n = random_graph
    # embed the graph in an id space 3x larger with holes
    raw_src, raw_dst = src * 3 + 1, dst * 3 + 1
    g = DistGraph.from_edges(raw_src, raw_dst, n=3 * n + 1, P=4,
                             directed=True)
    r_act, _ = ss.pagerank(g, tol=1e-10, active=True)
    # compact to exactly the appearing vertex set
    vids = np.unique(np.concatenate([raw_src, raw_dst]))
    s = np.searchsorted(vids, raw_src)
    d = np.searchsorted(vids, raw_dst)
    g_c = DistGraph.from_edges(s, d, n=len(vids), P=4, directed=True)
    r_c, _ = ss.pagerank(g_c, tol=1e-10)
    act = g.active_global()
    assert act.sum() == len(vids)
    assert np.abs(r_act[vids] - r_c).max() < 1e-12
    assert np.abs(r_act[~act]).max() == 0.0


def test_connected_components_exact():
    rng = np.random.default_rng(5)
    parts = []
    for c in range(6):
        base = c * 300
        parts.append((rng.integers(0, 280, 600) + base,
                      rng.integers(0, 280, 600) + base))
    src = np.concatenate([p[0] for p in parts])
    dst = np.concatenate([p[1] for p in parts])
    n = 1800
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    lab, _ = ss.connected_components(g)
    assert np.array_equal(lab, connected_components_serial(src, dst, n))


def test_bfs_matches_serial(random_graph):
    from leidenalg_ray.oracle import bfs_serial
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    dist, _ = ss.bfs_distances(g, [0, 7])
    nl = src != dst
    s2 = np.concatenate([src, dst[nl]])
    d2 = np.concatenate([dst, src[nl]])
    assert np.array_equal(dist, bfs_serial(s2, d2, n, [0, 7]))


def test_bfs_directed_unreachable():
    from leidenalg_ray.oracle import bfs_serial
    # 0 -> 1 -> 2, 3 isolated-but-active via 4 -> 3
    src = np.array([0, 1, 4])
    dst = np.array([1, 2, 3])
    g = DistGraph.from_edges(src, dst, n=5, P=2, directed=True)
    dist, _ = ss.bfs_distances(g, [0])
    assert np.array_equal(dist, bfs_serial(src, dst, 5, [0]))
    INF = np.iinfo(np.int64).max
    assert dist[2] == 2 and dist[3] == INF and dist[4] == INF


def test_sssp_matches_serial(random_graph):
    from leidenalg_ray.oracle import sssp_serial
    src, dst, n = random_graph
    rng = np.random.default_rng(11)
    w = rng.integers(1, 10, len(src)).astype(np.float64)
    g = DistGraph.from_edges(src, dst, weight=w, n=n, P=4,
                             both_directions=True)
    dist, _ = ss.sssp(g, [0, 7])
    nl = src != dst
    s2 = np.concatenate([src, dst[nl]])
    d2 = np.concatenate([dst, src[nl]])
    w2 = np.concatenate([w, w[nl]])
    assert np.array_equal(dist, sssp_serial(s2, d2, n, [0, 7], weight=w2))


def test_sssp_directed_unreachable():
    from leidenalg_ray.oracle import sssp_serial
    # 0 -> 1 -> 2 (2+3=5) beats the direct 0 -> 2 (10); 3, 4 unreachable
    src = np.array([0, 1, 4, 0])
    dst = np.array([1, 2, 3, 2])
    w = np.array([2.0, 3.0, 1.0, 10.0])
    g = DistGraph.from_edges(src, dst, weight=w, n=5, P=2, directed=True)
    dist, _ = ss.sssp(g, [0])
    assert np.array_equal(dist, sssp_serial(src, dst, 5, [0], weight=w))
    assert dist[2] == 5.0 and np.isinf(dist[3]) and np.isinf(dist[4])


def test_pagerank_personalized_matches_serial(random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    seeds = [3, 500, 1234]
    r, _ = ss.pagerank(g, tol=1e-10, personalize=seeds)
    r_ser, _ = pagerank_serial(src, dst, n, tol=1e-10, personalize=seeds)
    assert np.abs(r - r_ser).max() < 1e-12
    assert r.sum() == pytest.approx(1.0, abs=1e-6)


def test_kcore_matches_serial(random_graph):
    from leidenalg_ray.oracle import kcore_serial
    src, dst, n = random_graph
    # simple graph: dedup + drop loops, both directions
    nl = src != dst
    a = np.minimum(src[nl], dst[nl])
    b = np.maximum(src[nl], dst[nl])
    pairs = np.unique(a * np.int64(n) + b)
    a = (pairs // n).astype(np.int64)
    b = (pairs % n).astype(np.int64)
    g = DistGraph.from_edges(a, b, n=n, P=4, both_directions=True)
    for k in (3, 8, 14):
        mask, iters = ss.kcore(g, k)
        s2 = np.concatenate([a, b])
        d2 = np.concatenate([b, a])
        assert np.array_equal(mask, kcore_serial(s2, d2, n, k)), k


def test_kcore_planted_clique():
    """A 12-clique plus a long tail: the 11-core is exactly the
    clique."""
    cl = np.arange(12)
    ca, cb = np.meshgrid(cl, cl)
    m = ca < cb
    tail_a = np.arange(12, 40)
    tail_b = np.arange(13, 41)
    src = np.concatenate([ca[m], tail_a, [0]])
    dst = np.concatenate([cb[m], tail_b, [12]])
    g = DistGraph.from_edges(src, dst, n=41, P=4, both_directions=True)
    mask, _ = ss.kcore(g, 11)
    assert np.flatnonzero(mask).tolist() == list(range(12))


def test_hits_matches_serial(random_graph):
    from leidenalg_ray.oracle import hits_serial
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    g_rev = DistGraph.from_edges(dst, src, n=n, P=4, directed=True)
    hub, auth, act = ss.hits(g, g_rev, iters=12)
    hub_s, auth_s, act_s = hits_serial(src, dst, n, iters=12)
    assert np.array_equal(act, act_s)
    assert np.abs(hub - hub_s).max() < 1e-12
    assert np.abs(auth - auth_s).max() < 1e-12
    assert hub.sum() == pytest.approx(1.0) and \
        auth.sum() == pytest.approx(1.0)


def test_label_propagation_matches_serial(random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    lab, _ = ss.label_propagation(g, max_iter=15)
    lab_ser, _ = label_propagation_serial(src, dst, n, max_iter=15)
    assert np.array_equal(lab, lab_ser)


def test_parallelism_invariance(random_graph):
    """Same results at P=2 and P=8 (the determinism property that
    underwrites the scaling evidence)."""
    src, dst, n = random_graph
    ranks = []
    for P in (2, 8):
        g = DistGraph.from_edges(src, dst, n=n, P=P, directed=True)
        r, _ = ss.pagerank(g, tol=1e-10)
        ranks.append(r)
    assert np.abs(ranks[0] - ranks[1]).max() < 1e-15


def test_triangles_match_serial():
    rng = np.random.default_rng(7)
    n, m = 250, 2500
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    from leidenalg_ray.dist.triangles import triangle_count_arrays
    cnt, pv = triangle_count_arrays(src, dst, n, per_vertex=True)
    pv_ser, tot = triangles_serial(src, dst, n)
    assert cnt == tot
    pdf = pv.to_pandas()
    col = [c for c in pdf.columns if c != "v"][0]
    full = np.zeros(n, dtype=np.int64)
    full[pdf["v"].to_numpy()] = pdf[col].to_numpy()
    assert np.array_equal(full, pv_ser)


def test_dist_leiden_matches_inmemory():
    g, truth = planted_partition(n_comm=6, per=40, p_in=0.35,
                                 p_out=0.004, seed=13)
    dl = DistLeiden(g.src, g.dst, n=g.n, directed=False, quality="cpm",
                    resolution_parameter=0.1, P=4, seed=1)
    mem, q, info = dl.run()
    from leidenalg_ray import CPMVertexPartition, find_partition
    p = find_partition(g, CPMVertexPartition, resolution_parameter=0.1,
                       seed=1)
    assert q == pytest.approx(p.quality(), abs=1e-6)
    pairs = set(zip(mem.tolist(), truth.tolist()))
    assert len(pairs) == 6


def test_leiden_shard_state_is_sublinear():
    """Each LeidenShard holds membership/stats only for its referenced
    vids/labels — O((n + E)/P) resident, not O(n). On a perfect
    matching (degree 1) with P=16 every shard must reference ~2n/P
    vids even though n is 8x larger."""
    n = 2000
    src = np.arange(0, n, 2, dtype=np.int64)
    dst = np.arange(1, n, 2, dtype=np.int64)
    dl = DistLeiden(src, dst, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.1, P=16, seed=3)
    mem, q, info = dl.run()
    # every matched pair is one community at gamma < 1
    assert np.array_equal(mem[src], mem[dst])
    assert len(np.unique(mem)) == n // 2
    fps = dl._fan("state_footprint")
    for fp in fps:
        # structural bound: own vids + block rows
        assert fp["ref_vids"] <= n // 16 + fp["block_rows"] + 1
        # the scale property: nowhere near O(n)
        assert fp["ref_vids"] < n // 4
        assert fp["stat_labels"] < n // 2


def test_checkpoint_resume(tmp_path, random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    full, iters = ss.pagerank(g, tol=1e-10, checkpoint=str(tmp_path))
    # simulate crash: resume from the saved checkpoint — the second
    # run must reproduce the uninterrupted result exactly
    resumed, iters2 = ss.pagerank(g, tol=1e-10,
                                  checkpoint=str(tmp_path))
    assert np.array_equal(full, resumed)
    import json
    import os
    d = tmp_path / "pagerank"
    latest = (d / "LATEST").read_text().strip()
    manifest = json.loads((d / latest / "manifest.json").read_text())
    assert manifest["P"] == 4
    assert len(manifest["partitions"]) == 4
    assert all("sha1" in e for e in manifest["partitions"])
    assert manifest["fmt"] == "vids-fnv1a-v2"


def test_checkpoint_rejects_stale_id_format(tmp_path):
    """A checkpoint written under a different url->vid mapping version
    (e.g. the crc32-era hash) must be ignored on resume, not applied
    to the wrong vertices."""
    import numpy as np
    from leidenalg_ray.dist.checkpoint import CheckpointManager

    old = CheckpointManager(str(tmp_path), "pagerank", 2, n=10,
                            fmt="vids-crc32-v1")
    old.save(3, [np.arange(5.0), np.arange(5.0) + 10])
    cur = CheckpointManager(str(tmp_path), "pagerank", 2, n=10)
    assert cur.resume() is None
    # same fmt resumes fine
    same = CheckpointManager(str(tmp_path), "pagerank", 2, n=10,
                             fmt="vids-crc32-v1")
    step, shards, _ = same.resume()
    assert step == 3 and len(shards) == 2


def test_checkpoint_manifest_size_is_stable(tmp_path, monkeypatch):
    """Two saves of the same shards write manifests of equal size,
    whatever the clock reads: the save time is a fixed-width field."""
    import os
    from types import SimpleNamespace
    from leidenalg_ray.dist import checkpoint

    shards = [np.arange(5.0), np.arange(5.0) + 10]
    sizes = []
    for name, secs in (("a", 1_700_000_000.5), ("b", 1_700_000_000.25)):
        monkeypatch.setattr(checkpoint, "time", SimpleNamespace(
            time=lambda s=secs: s,
            time_ns=lambda s=secs: int(s * 1e9)))
        ck = checkpoint.CheckpointManager(str(tmp_path / name), "pr", 2)
        ck.save(1, shards)
        sizes.append(os.path.getsize(
            tmp_path / name / "pr" / "step-000001" / "manifest.json"))
    assert sizes[0] == sizes[1]


def test_leiden_checkpoint_resume(tmp_path):
    g, truth = planted_partition(n_comm=4, per=30, p_in=0.4,
                                 p_out=0.01, seed=21)
    dl = DistLeiden(g.src, g.dst, n=g.n, directed=False, quality="cpm",
                    resolution_parameter=0.1, P=4, seed=5)
    mem1, q1, _ = dl.run(checkpoint=str(tmp_path))
    # resume from the converged checkpoints: identical result
    dl2 = DistLeiden(g.src, g.dst, n=g.n, directed=False,
                     quality="cpm", resolution_parameter=0.1, P=4,
                     seed=5)
    mem2, q2, _ = dl2.run(checkpoint=str(tmp_path))
    assert q2 == pytest.approx(q1, abs=1e-9)
    assert np.array_equal(mem1, mem2)
    import os
    assert any(d.startswith("leiden-L0")
               for d in os.listdir(tmp_path))


def test_label_propagation_checkpoint(tmp_path, random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    a, _ = ss.label_propagation(g, max_iter=15,
                                checkpoint=str(tmp_path))
    b, _ = ss.label_propagation(g, max_iter=15,
                                checkpoint=str(tmp_path))
    assert np.array_equal(a, b)


def test_salted_groupby_matches_plain():
    import pyarrow as pa
    import ray.data as rd
    from leidenalg_ray.stages.salted import salted_groupby_sum
    rng = np.random.default_rng(4)
    # heavily skewed key distribution (one hot key)
    keys = np.where(rng.random(50_000) < 0.6, 7,
                    rng.integers(0, 500, 50_000)).astype(np.int64)
    vals = rng.random(50_000)
    ds = rd.from_arrow(pa.table({"k": keys, "v": vals}))
    out = salted_groupby_sum(ds, ["k"], "v", salt=8,
                             alias="s").to_pandas()
    import pandas as pd
    expect = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"] \
        .sum().reset_index()
    merged = out.sort_values("k").reset_index(drop=True)
    assert len(merged) == len(expect)
    assert np.allclose(merged["s"].to_numpy(),
                       expect["v"].to_numpy(), atol=1e-9)


def test_distgraph_from_dataset(tmp_path, random_graph):
    import pyarrow as pa
    import ray.data as rd
    src, dst, n = random_graph
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst),
                  "weight": pa.array(np.ones(len(src)))})
    g_ds = DistGraph.from_dataset(rd.from_arrow(t), n=n, P=4,
                                  directed=True,
                                  spill_dir=str(tmp_path / "edges"))
    g_arr = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    r1, _ = ss.pagerank(g_ds, tol=1e-10)
    r2, _ = ss.pagerank(g_arr, tol=1e-10)
    assert np.abs(r1 - r2).max() < 1e-15
    # the spill is the L0 checkpoint: partitioned parquet on disk
    import os
    assert any(d.startswith("part=")
               for d in os.listdir(tmp_path / "edges"))


def test_dist_leiden_max_comm_size():
    g, truth = planted_partition(n_comm=4, per=30, p_in=0.4,
                                 p_out=0.01, seed=21)
    dl = DistLeiden(g.src, g.dst, n=g.n, directed=False, quality="cpm",
                    resolution_parameter=0.1, P=4, seed=5,
                    max_comm_size=20)
    mem, q, info = dl.run()
    assert np.bincount(mem).max() <= 20


def test_dist_leiden_from_dataset_matches_arrays(tmp_path):
    """Dataset-native construction (parquet spill, shard-side loads)
    must reproduce the array path bit-for-bit on an integer-weight
    graph (partial-sum order cannot flip any tie), and must leave no
    edge state on the driver."""
    import pyarrow as pa
    import ray.data as rd
    g, truth = planted_partition(n_comm=5, per=40, p_in=0.3,
                                 p_out=0.01, seed=7)
    dl_a = DistLeiden(g.src, g.dst, n=g.n, directed=False,
                      quality="cpm", resolution_parameter=0.1, P=4,
                      seed=1)
    mem_a, q_a, _ = dl_a.run()
    t = pa.table({"src": pa.array(g.src), "dst": pa.array(g.dst)})
    dl_d = DistLeiden.from_dataset(
        rd.from_arrow(t), n=g.n, directed=False, quality="cpm",
        resolution_parameter=0.1, P=4, seed=1,
        spill_dir=str(tmp_path / "spill"))
    mem_d, q_d, _ = dl_d.run()
    assert q_d == pytest.approx(q_a, abs=1e-9)
    assert np.array_equal(mem_a, mem_d)
    # no O(edges) driver allocation: the object holds no edge arrays
    for attr in ("src", "dst", "weight", "block_refs"):
        assert not hasattr(dl_d, attr)
    assert len(dl_d.active_vids()) == g.n
    import os
    assert any(d.startswith("part=")
               for d in os.listdir(tmp_path / "spill"))


def test_dist_leiden_from_dataset_weighted_directed():
    """Weighted + isolated-vertex handling through the Dataset path:
    active_vids excludes degree-0 ids, scalars match the array path."""
    import pyarrow as pa
    import ray.data as rd
    rng = np.random.default_rng(11)
    src = rng.integers(0, 300, 900)
    dst = rng.integers(0, 300, 900)
    w = rng.integers(1, 5, 900).astype(np.float64)
    n = 320   # ids 300..319 isolated
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst),
                  "weight": pa.array(w)})
    dl_d = DistLeiden.from_dataset(rd.from_arrow(t), n=n,
                                   directed=False, quality="cpm",
                                   resolution_parameter=0.05, P=4,
                                   seed=3)
    dl_a = DistLeiden(src, dst, weight=w, n=n, directed=False,
                      quality="cpm", resolution_parameter=0.05, P=4,
                      seed=3)
    assert dl_d.m == pytest.approx(dl_a.m)
    assert dl_d.n_edges == dl_a.n_edges
    active = dl_d.active_vids()
    assert active.max() < 300
    assert np.array_equal(active, dl_a.active_vids())
    mem_d, q_d, _ = dl_d.run()
    mem_a, q_a, _ = dl_a.run()
    assert q_d == pytest.approx(q_a, abs=1e-9)
    assert np.array_equal(mem_d, mem_a)


def test_from_dataset_partition_local_dedup(tmp_path, random_graph):
    """dedup=True collapses cross-batch duplicate edges inside the
    block build (partition-local is exact: all copies of (s,d) share
    src%P) — PageRank must match from_edges on the pre-deduped
    arrays."""
    import pyarrow as pa
    import ray.data as rd
    src, dst, n = random_graph
    # duplicate every edge 3x across separate blocks
    t = pa.table({"src": pa.array(np.tile(src, 3)),
                  "dst": pa.array(np.tile(dst, 3)),
                  "weight": pa.array(np.ones(3 * len(src)))})
    ds = rd.from_arrow(t).repartition(6)
    g_ds = DistGraph.from_dataset(ds, n=n, P=4, directed=True,
                                  dedup=True,
                                  spill_dir=str(tmp_path / "e"))
    key = np.unique(src.astype(np.int64) * n + dst.astype(np.int64))
    us, ud = (key // n), (key % n)
    g_arr = DistGraph.from_edges(us, ud, n=n, P=4, directed=True)
    assert g_ds.total_edges() == g_arr.total_edges() == len(key)
    r1, _ = ss.pagerank(g_ds, tol=1e-10)
    r2, _ = ss.pagerank(g_arr, tol=1e-10)
    assert np.abs(r1 - r2).max() < 1e-15


def test_pages_distributed_build_matches_broadcast(tmp_path):
    """The at-scale pages build (bucket-rank ids + hash joins +
    partition-local dedup) must give each URL the same PageRank as the
    broadcast-arrays variant (ids differ — compare per-url)."""
    import ray.data as rd
    from leidenalg_ray.sources.pages import ensure_pages_corpus
    from leidenalg_ray.stages.graph_build import (
        pages_to_graph, pages_to_graph_arrays)
    corpus = str(tmp_path / "pages")
    ensure_pages_corpus(corpus, 2000)
    pages = rd.read_parquet(corpus)
    psrc, pdst, pw, mdf, nv = pages_to_graph_arrays(pages, B=8)
    ga = DistGraph.from_edges(psrc, pdst, n=nv, P=4, directed=True)
    ra, _ = ss.pagerank(ga, tol=1e-10)
    # num_partitions small: each chained join spawns that many
    # shuffle-aggregator actors, and the 4-cpu test session deadlocks
    # if two joins outsize it
    edges_ds, mapping, nd = pages_to_graph(pages, B=8,
                                           num_partitions=2,
                                           dedup=False)
    gd = DistGraph.from_dataset(edges_ds, n=nd, P=4, directed=True,
                                dedup=True)
    rd_, _ = ss.pagerank(gd, tol=1e-10)
    assert nd == nv
    mp = mapping.to_pandas()
    rank_by_url_d = dict(zip(mp["url"], rd_[mp["vid"].to_numpy()]))
    rank_by_url_a = dict(zip(mdf["url"], ra[mdf["vid"].to_numpy()]))
    assert rank_by_url_a.keys() == rank_by_url_d.keys()
    diffs = [abs(rank_by_url_a[u] - rank_by_url_d[u])
             for u in rank_by_url_a]
    assert max(diffs) < 1e-12


def test_checkpoint_shape_mismatch_ignored(tmp_path, random_graph):
    """A stale checkpoint from a DIFFERENT graph (changed input or
    partition plan) must be ignored, not resumed into garbage."""
    src, dst, n = random_graph
    g_small = DistGraph.from_edges(src[:500] % 500, dst[:500] % 500,
                                   n=500, P=4, directed=True)
    ss.pagerank(g_small, tol=1e-10, checkpoint=str(tmp_path))
    # same checkpoint dir, bigger graph: shards must NOT resume
    g_big = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    r, _ = ss.pagerank(g_big, tol=1e-10, checkpoint=str(tmp_path))
    from leidenalg_ray.oracle import pagerank_serial
    r_ser, _ = pagerank_serial(src, dst, n, tol=1e-10)
    assert np.abs(r - r_ser).max() < 1e-12


def test_dist_leiden_surprise_matches_inmemory():
    """Surprise runs distributed via the global-term-vector delta
    (nonlinear combine_many); quality must match the exact in-memory
    solver on a planted graph."""
    g, truth = planted_partition(n_comm=5, per=30, p_in=0.45,
                                 p_out=0.005, seed=9)
    dl = DistLeiden(g.src, g.dst, n=g.n, directed=False,
                    quality="surprise", P=4, seed=2)
    mem, q, info = dl.run()
    from leidenalg_ray import SurpriseVertexPartition, find_partition
    p = find_partition(g, SurpriseVertexPartition, seed=2)
    assert q == pytest.approx(p.quality(), rel=1e-6)
    pairs = set(zip(mem.tolist(), truth.tolist()))
    assert len(pairs) == 5


def _serial_scc(src, dst, n):
    """Iterative Tarjan; label = min vid per SCC."""
    adj = [[] for _ in range(n)]
    for a, b in zip(src, dst):
        adj[a].append(b)
    index = [-1] * n
    low = [0] * n
    on = [False] * n
    stack = []
    comp = [-1] * n
    counter = [0]
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                elif on[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    members.append(w)
                    if w == v:
                        break
                lab = min(members)
                for w in members:
                    comp[w] = lab
            work.pop()
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return np.array(comp)


def test_scc_planted():
    # cycle {0,1,2}, cycle {3,4}, bridge 2->3 (DAG edge), chain 5->0,
    # self-loop 6, isolated-in-edge-set 7<-2
    src = np.array([0, 1, 2, 3, 4, 2, 5, 6, 2])
    dst = np.array([1, 2, 0, 4, 3, 3, 0, 6, 7])
    n = 8
    gf = DistGraph.from_edges(src, dst, n=n, P=3, directed=True)
    gb = DistGraph.from_edges(dst, src, n=n, P=3, directed=True)
    lab, _ = ss.scc(gf, gb)
    assert list(lab) == [0, 0, 0, 3, 3, 5, 6, 7]


def test_scc_matches_serial(random_graph):
    src, dst, n = random_graph
    src, dst = src[:4000], dst[:4000]
    gf = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    gb = DistGraph.from_edges(dst, src, n=n, P=4, directed=True)
    lab, _ = ss.scc(gf, gb)
    exp = _serial_scc(src, dst, n)
    active = gf.active_global()
    assert (lab[active] == exp[active]).all()


def _serial_walks(src, dst, n, seeds, length):
    """Oracle for ss.random_walks: per-step min over
    (walk_hash(w, s, u), u) out-neighbour choice."""
    adj = {}
    for a, b in set(zip(src.tolist(), dst.tolist())):
        adj.setdefault(a, []).append(b)
    rows = []
    for w in seeds:
        cur = int(w)
        rows.append((int(w), 0, cur))
        for s in range(1, length + 1):
            nbrs = adj.get(cur)
            if not nbrs:
                break
            cur = min(nbrs,
                      key=lambda u: (int(ss.walk_hash(int(w), s, u)),
                                     u))
            rows.append((int(w), s, cur))
    return sorted(rows)


def test_random_walks_matches_serial(random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    seeds = np.array([0, 1, 7, 500, 1999], dtype=np.int64)
    w, s, v = ss.random_walks(g, seeds, length=6)
    got = sorted(zip(w.tolist(), s.tolist(), v.tolist()))
    assert got == _serial_walks(src, dst, n, seeds, 6)


def test_random_walks_parallelism_invariant(random_graph):
    src, dst, n = random_graph
    seeds = np.arange(12, dtype=np.int64) * 7
    outs = []
    for P in (2, 5):
        g = DistGraph.from_edges(src, dst, n=n, P=P, directed=True)
        w, s, v = ss.random_walks(g, seeds, length=4)
        outs.append(sorted(zip(w.tolist(), s.tolist(), v.tolist())))
    assert outs[0] == outs[1]


def test_random_walks_dead_end():
    # 0 -> 1 -> 2 (sink): walk from 0 stops after step 2
    g = DistGraph.from_edges(np.array([0, 1]), np.array([1, 2]),
                             n=3, P=2, directed=True)
    w, s, v = ss.random_walks(g, np.array([0], dtype=np.int64), length=5)
    assert list(s) == [0, 1, 2] and list(v) == [0, 1, 2]


def test_multi_bfs_matches_single_source(random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    seeds = [0, 17, 1999]
    dist, _ = ss.multi_bfs(g, seeds)
    for i, s in enumerate(seeds):
        single, _ = ss.bfs_distances(g, [s])
        assert (dist[i] == single).all()


def _serial_brandes(src, dst, n, sources):
    """Reference Brandes accumulation (endpoints excluded)."""
    adj = {}
    for a, b in set(zip(src.tolist(), dst.tolist())) | \
            set(zip(dst.tolist(), src.tolist())):
        if a != b:
            adj.setdefault(a, set()).add(b)
    acc = np.zeros(n)
    for s in sources:
        from collections import deque
        dist = {s: 0}
        sigma = {s: 1}
        order = []
        dq = deque([s])
        while dq:
            v = dq.popleft()
            order.append(v)
            for w in adj.get(v, ()):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    dq.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] = sigma.get(w, 0) + sigma[v]
        delta = {v: 0.0 for v in order}
        for w in reversed(order):
            for v in adj.get(w, ()):
                if dist.get(v, -2) == dist[w] - 1:
                    delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
            if w != s:
                acc[w] += delta[w]
    return acc


def _simple_undirected(src, dst, n):
    nl = src != dst
    a = np.minimum(src[nl], dst[nl])
    b = np.maximum(src[nl], dst[nl])
    pairs = np.unique(a * np.int64(n) + b)
    return (pairs // n).astype(np.int64), (pairs % n).astype(np.int64)


def test_spath_counts_matches_serial(random_graph):
    src, dst, n = random_graph
    src, dst = _simple_undirected(src, dst, n)
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    d_eng, sig_eng = ss.spath_counts(g, 0)
    # serial BFS + sigma
    from collections import deque
    adj = {}
    for a, b in set(zip(src.tolist(), dst.tolist())) | \
            set(zip(dst.tolist(), src.tolist())):
        adj.setdefault(a, set()).add(b)
    dist = {0: 0}
    sigma = {0: 1}
    dq = deque([0])
    while dq:
        v = dq.popleft()
        for w in adj.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
            if dist[w] == dist[v] + 1 and w != v:
                sigma[w] = sigma.get(w, 0) + sigma[v]
    INF = np.iinfo(np.int64).max
    for v in range(n):
        if v in dist:
            assert d_eng[v] == dist[v]
            assert sig_eng[v] == sigma[v], v
        else:
            assert d_eng[v] == INF and sig_eng[v] == 0


def test_betweenness_matches_serial():
    rng = np.random.default_rng(11)
    n, m = 120, 400
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    src, dst = _simple_undirected(src, dst, n)
    g = DistGraph.from_edges(src, dst, n=n, P=3, both_directions=True)
    seeds = [0, 5, 17]
    eng = ss.betweenness(g, seeds)
    ser = _serial_brandes(src, dst, n, seeds)
    assert np.allclose(eng, ser, atol=1e-9)


def _serial_luby(src, dst, n, max_rounds=64):
    adj = {}
    for a, b in zip(src.tolist(), dst.tolist()):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    state = {v: 0 for v in adj}          # 0 active, 1 mis, 2 out
    for r in range(max_rounds):
        active = [v for v, s in state.items() if s == 0]
        if not active:
            break
        act = set(active)
        joined = [v for v in active
                  if all(ss.mis_key(v, r) < ss.mis_key(u, r)
                         for u in adj[v] if u in act)]
        for v in joined:
            state[v] = 1
            for u in adj[v]:
                if state.get(u) == 0:
                    state[u] = 2
    out = np.zeros(n, dtype=np.int64)
    for v, s in state.items():
        out[v] = s
    return out


def test_luby_mis_matches_serial(random_graph):
    src, dst, n = random_graph
    src, dst = _simple_undirected(src, dst, n)
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    state, rounds = ss.luby_mis(g)
    assert np.array_equal(state, _serial_luby(src, dst, n))
    # independence: no edge inside the MIS; maximality: every
    # excluded vertex has a MIS neighbour
    mis = state == 1
    assert not (mis[src] & mis[dst]).any()
    adj_hit = np.zeros(n, dtype=bool)
    adj_hit[src[mis[dst]]] = True
    adj_hit[dst[mis[src]]] = True
    assert (adj_hit[state == 2]).all()


def test_luby_mis_parallelism_invariant(random_graph):
    src, dst, n = random_graph
    src, dst = _simple_undirected(src, dst, n)
    outs = []
    for P in (2, 7):
        g = DistGraph.from_edges(src, dst, n=n, P=P,
                                 both_directions=True)
        state, _ = ss.luby_mis(g)
        outs.append(state)
    assert np.array_equal(outs[0], outs[1])


def test_mis_coloring_valid_and_invariant(random_graph):
    src, dst, n = random_graph
    src, dst = _simple_undirected(src, dst, n)
    outs = []
    for P in (3, 8):
        g = DistGraph.from_edges(src, dst, n=n, P=P,
                                 both_directions=True)
        colors, nc = ss.mis_coloring(g)
        act = g.active_global()
        # complete: every active vertex coloured; inactive = -1
        assert (colors[act] >= 0).all() and (colors[~act] == -1).all()
        # proper: no edge joins two same-coloured vertices
        assert not (colors[src] == colors[dst]).any()
        assert nc <= 64
        outs.append(colors)
    assert np.array_equal(outs[0], outs[1])


# ----------------------------------------------------------------------
# Dynamic-graph maintenance: warm starts
# ----------------------------------------------------------------------
def test_pagerank_warm_start_equals_continued(random_graph):
    """Warm-starting from the 20-iteration state and running 10 more
    is bit-identical to 30 iterations cold (same float ops)."""
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    r20, _ = ss.pagerank(g, tol=0.0, max_iter=20)
    r30w, _ = ss.pagerank(g, tol=0.0, max_iter=10, init_rank=r20)
    r30c, _ = ss.pagerank(g, tol=0.0, max_iter=30)
    assert np.array_equal(r30w, r30c)


def test_pagerank_warm_start_reconverges_fast(random_graph):
    """After a small delta-edge batch, warm-starting the converged
    ranks re-converges in far fewer supersteps than from uniform."""
    src, dst, n = random_graph
    g0 = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    r0, _ = ss.pagerank(g0, tol=1e-10)
    rng = np.random.default_rng(7)
    ds, dd = rng.integers(0, n, 30), rng.integers(0, n, 30)
    g1 = DistGraph.from_edges(np.concatenate([src, ds]),
                              np.concatenate([dst, dd]),
                              n=n, P=4, directed=True)
    r_cold, it_cold = ss.pagerank(g1, tol=1e-10)
    r_warm, it_warm = ss.pagerank(g1, tol=1e-10, init_rank=r0)
    assert np.abs(r_warm - r_cold).max() < 1e-9
    assert it_warm < it_cold


def test_cc_incremental_matches_cold(random_graph):
    """Warm-start labels from the base graph converge to the same
    fixed point on the union graph, in <= the cold supersteps."""
    src, dst, n = random_graph
    half = len(src) // 2
    g_base = DistGraph.from_edges(src[:half], dst[:half], n=n, P=4,
                                  both_directions=True)
    lab0, _ = ss.connected_components(g_base)
    g_full = DistGraph.from_edges(src, dst, n=n, P=4,
                                  both_directions=True)
    cold, it_cold = ss.connected_components(g_full)
    warm, it_warm = ss.connected_components(g_full, init_labels=lab0)
    assert np.array_equal(warm, cold)
    assert it_warm <= it_cold
    ser = connected_components_serial(src, dst, n)
    # same partition (labels are component minima in both)
    assert np.array_equal(warm, ser)


def test_katz_matches_serial(random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    x = ss.katz(g, alpha=0.002, beta=1.0, iters=15)
    # serial Jacobi reference
    act = np.zeros(n, dtype=bool)
    act[src] = True
    act[dst] = True
    xs = np.where(act, 1.0, 0.0)
    for _ in range(15):
        raw = np.zeros(n)
        np.add.at(raw, dst, xs[src])
        xs = np.where(act, 1.0 + 0.002 * raw, 0.0)
    assert np.abs(x - xs).max() < 1e-12


def test_eigenvector_centrality_matches_serial(random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    x, act = ss.eigenvector_centrality(g, iters=12)
    act_s = np.zeros(n, dtype=bool)
    act_s[src] = True
    act_s[dst] = True
    xs = np.where(act_s, 1.0 / act_s.sum(), 0.0)
    # from_edges(both_directions=True) reverses only non-loop edges
    nl = src != dst
    s2, d2 = np.concatenate([src, dst[nl]]), np.concatenate([dst, src[nl]])
    for _ in range(12):
        raw = np.zeros(n)
        np.add.at(raw, d2, xs[s2])
        tot = raw.sum()
        xs = raw / tot if tot > 0 else raw
    assert np.array_equal(act, act_s)
    assert np.abs(x - xs).max() < 1e-12


def test_dist_leiden_warm_start():
    """Warm-starting from a stale merged prior still reaches the
    planted optimum, and warm-starting from the optimum keeps it."""
    G, mem_true = planted_partition(n_comm=8, per=12, p_in=0.6,
                                    p_out=0.02, seed=11)
    src, dst, n = G.src, G.dst, G.n
    dl = DistLeiden(src, dst, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.3, P=4, seed=1)
    cold, q_cold, _ = dl.run()
    # stale prior: planted communities merged pairwise
    stale = (mem_true // 2).astype(np.int64)
    dl2 = DistLeiden(src, dst, n=n, directed=False, quality="cpm",
                     resolution_parameter=0.3, P=4, seed=1)
    warm, q_warm, _ = dl2.run(initial_membership=stale)
    # a different init may land in a different (valid) fixed point;
    # require near-parity with cold (exact recovery is pinned by the
    # closed-form leiden_warm_cliques oracle query)
    assert q_warm >= 0.97 * q_cold
    # warm from the exact optimum: unchanged partition
    dl3 = DistLeiden(src, dst, n=n, directed=False, quality="cpm",
                     resolution_parameter=0.3, P=4, seed=1)
    opt, q_opt, _ = dl3.run(initial_membership=cold)
    assert q_opt >= q_cold - 1e-9


def test_dist_leiden_warm_start_validates():
    src = np.array([0, 1], dtype=np.int64)
    dst = np.array([1, 2], dtype=np.int64)
    dl = DistLeiden(src, dst, n=3, directed=False, quality="cpm",
                    resolution_parameter=0.5, P=2, seed=1)
    with pytest.raises(ValueError):
        dl.run(initial_membership=np.array([0, 1], dtype=np.int64))
    with pytest.raises(ValueError):
        dl.run(initial_membership=np.array([0, 1, 99], dtype=np.int64))


def test_wl_refinement_properties():
    """1-WL separates a 6-cycle from two triangles (degree alone
    cannot: all vertices are degree-2... both stay uniform under WL,
    so instead pin: (a) parallelism invariance, (b) a path graph's
    colors are symmetric and distinguish interior from ends, (c) WL
    colors refine degree classes."""
    # path 0-1-2-3-4
    src = np.array([0, 1, 2, 3])
    dst = np.array([1, 2, 3, 4])
    outs = []
    for P in (2, 4):
        g = DistGraph.from_edges(src, dst, n=5, P=P,
                                 both_directions=True)
        lab, act = ss.wl_refinement(g, iters=2)
        outs.append(lab)
        assert act.sum() == 5
    assert np.array_equal(outs[0], outs[1])
    lab = outs[0]
    # symmetry: 0==4, 1==3, middle distinct from both
    assert lab[0] == lab[4] and lab[1] == lab[3]
    assert lab[2] != lab[1] and lab[0] != lab[1]


def test_wl_refinement_refines_degree():
    """Same degree, different neighbourhood: star-of-stars vs clique
    membership must split a degree class."""
    # vertex 1 = centre of a 3-star (leaf neighbours), vertex 2 = a
    # K4 member (degree-3 neighbours): same degree, WL must split
    src = np.array([1, 1, 1, 2, 2, 2, 3, 3, 4])
    dst = np.array([5, 6, 7, 3, 4, 8, 4, 8, 8])
    g = DistGraph.from_edges(src, dst, n=9, P=3, both_directions=True)
    lab, _ = ss.wl_refinement(g, iters=2)
    deg = ss.assemble(g, g.out_deg)
    assert deg[1] == deg[2] == 3   # same degree class
    assert lab[1] != lab[2]        # WL splits it


def test_kcore_warm_start_matches_cold(random_graph):
    """Peeling the k-core from the (k-1)-core's survivors (the core-
    decomposition path) gives the same fixed point as peeling from
    the whole active set."""
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    prev, _ = ss.kcore(g, 6)
    warm, _ = ss.kcore(g, 9, init_alive=prev)
    cold, _ = ss.kcore(g, 9)
    assert np.array_equal(warm, cold)


def test_label_propagation_seeded_properties():
    """Two planted cliques bridged by one edge; one seed in each: the
    seed labels partition the graph along the bridge, seeds stay
    pinned, unreachable vertices stay -1."""
    ii, jj = np.triu_indices(8, k=1)
    src = np.concatenate([ii, ii + 8, [0]])
    dst = np.concatenate([jj, jj + 8, [8]])
    # vertex 20 isolated from both cliques (edge 20-21 only)
    src = np.concatenate([src, [20]])
    dst = np.concatenate([dst, [21]])
    g = DistGraph.from_edges(src, dst, n=22, P=3, both_directions=True)
    lab = ss.label_propagation_seeded(g, [0, 15], [100, 200], iters=8)
    assert lab[0] == 100 and lab[15] == 200        # pinned
    assert (lab[1:8] == 100).all()                 # clique A
    assert (lab[8:15] == 200).all()                # clique B
    assert lab[20] == -1 and lab[21] == -1         # unreachable


# ----------------------------------------------------------------------
# Distributed-tier knobs: is_membership_fixed, min_comm_size/enforcement
# ----------------------------------------------------------------------
def test_dist_fixed_membership_property(ray_session):
    """Reference fixed-label property (test_Optimiser.py:145-164)
    through find_partition_dataset: frozen vertices keep their seeded
    labels and anchor their cliques."""
    import ray.data as rd
    import pyarrow as pa
    from leidenalg_ray import find_partition_dataset

    n = 100
    src, dst = [], []
    for c in range(10):
        b = c * 10
        for i in range(10):
            for j in range(i + 1, 10):
                src.append(b + i)
                dst.append(b + j)
    ds = rd.from_arrow(pa.table({
        "src": pa.array(np.asarray(src, np.int64)),
        "dst": pa.array(np.asarray(dst, np.int64))}))
    seed = np.arange(n, dtype=np.int64)
    fixed = np.zeros(n, dtype=bool)
    for c in range(10):
        seed[c * 10] = n + c
        fixed[c * 10] = True
    mem, q, info, _ = find_partition_dataset(
        ds, n=n, quality="cpm", resolution_parameter=0.5, P=4,
        seed=42, initial_membership=seed, is_membership_fixed=fixed)
    for c in range(10):
        assert mem[c * 10] == n + c                 # label kept
        assert (mem[c * 10:(c + 1) * 10] == n + c).all()  # anchored


def test_dist_fixed_requires_seed(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from leidenalg_ray import find_partition_dataset
    ds = rd.from_arrow(pa.table({
        "src": pa.array([0, 1], type=pa.int64()),
        "dst": pa.array([1, 2], type=pa.int64())}))
    with pytest.raises(ValueError):
        find_partition_dataset(ds, n=3, quality="cpm", P=2,
                               is_membership_fixed=[True, False, False])


def test_dist_min_comm_size_enforcement(ray_session):
    """The canonical reference min-size fixture (test_Optimiser.py:
    20-38) through the distributed schedule: K100 under CPM gamma=1
    is move-indifferent (every merge delta is exactly 0), so the soft
    min_comm_size=5 bonus/penalty structure alone shapes the fixed
    point — communities of exactly 5, as the in-memory kernel
    produces on the same instance."""
    import ray.data as rd
    import pyarrow as pa
    from leidenalg_ray import find_partition_dataset

    n = 100
    ii, jj = np.triu_indices(n, k=1)
    ds = rd.from_arrow(pa.table({
        "src": pa.array(ii.astype(np.int64)),
        "dst": pa.array(jj.astype(np.int64))}))
    mem, q, info, _ = find_partition_dataset(
        ds, n=n, quality="cpm", resolution_parameter=1.0, P=4, seed=42,
        min_comm_size=5, community_constraint_enforcement=10.0)
    sizes = np.bincount(np.unique(mem, return_inverse=True)[1])
    assert sorted(sizes.tolist()) == [5] * 20


def test_leiden_driver_state_community_space(tmp_path, ray_session):
    """Round-3 scale property: level-0 membership is SHARD-resident.
    The driver's move loop holds only label-indexed stats (each
    proposal carries its current community, so commits need no
    mem[] lookup), refine grouping happens on the shards, and with
    ``membership_out`` the final labels go shard -> partitioned
    parquet without ever being gathered — verified here against the
    gathered variant bit for bit."""
    import pyarrow.dataset as pads
    n = 4000
    src = np.arange(0, n, 2, dtype=np.int64)
    dst = src + 1
    dl = DistLeiden(src, dst, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.1, P=8, seed=3)
    mem, q, info = dl.run()
    out = str(tmp_path / "membership")
    dl2 = DistLeiden(src, dst, n=n, directed=False, quality="cpm",
                     resolution_parameter=0.1, P=8, seed=3)
    none_mem, q2, info2 = dl2.run(membership_out=out)
    assert none_mem is None
    assert q2 == q
    assert info2["membership_rows"] == n
    t = pads.dataset(out).to_table().to_pandas().sort_values("vid")
    assert np.array_equal(t["comm"].to_numpy(), mem)
    # the local-move API itself returns no vid-indexed array
    res = dl2.local_move_level0()
    assert isinstance(res, tuple) and len(res) == 3
    assert np.isscalar(res[0]) or isinstance(res[0], float)


def test_membership_out_rewritten_by_another_run(tmp_path):
    """``membership_out`` written at P=4 and then at P=2 into one
    directory holds the P=2 run's rows only, every vertex once; a later
    run at the same P that finds another partition replaces them too.
    For the single-pass and the multi-pass (``n_iterations=-1``)
    run."""
    import pyarrow.parquet as pq
    g, _ = planted_partition(n_comm=3, per=20, p_in=0.5, p_out=0.02,
                             seed=8)

    def leiden(P, gamma):
        return DistLeiden(g.src, g.dst, n=g.n, directed=False,
                          quality="cpm", resolution_parameter=gamma, P=P,
                          seed=3)

    for n_iterations in (2, -1):
        out = str(tmp_path / f"m{n_iterations}")
        leiden(4, 0.1).run(n_iterations=n_iterations, membership_out=out)
        for gamma in (0.1, 0.6):
            leiden(2, gamma).run(n_iterations=n_iterations,
                                 membership_out=out)
            mem, _, _ = leiden(2, gamma).run(n_iterations=n_iterations)
            t = pq.read_table(out).sort_by("vid")
            assert np.array_equal(t["vid"].to_numpy(), np.arange(g.n))
            assert np.array_equal(t["comm"].to_numpy(), mem)


# ----------------------------------------------------------------------
# Shard-side result output for superstep kernels (result_out=)
# ----------------------------------------------------------------------
def _read_result(d, column):
    import pyarrow.parquet as pq
    t = pq.read_table(d).sort_by("vid")
    return t["vid"].to_numpy(), t[column].to_numpy(zero_copy_only=False)


def test_result_out_matches_assemble(tmp_path, random_graph):
    """``result_out=`` writes per-shard (vid, value) parquet from the
    workers; the driver gets only {path, rows, column}. Values must be
    bit-identical to the assembled path for every kernel."""
    import os
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    g2 = DistGraph.from_edges(src, dst, n=n, P=4,
                              both_directions=True)

    rank, it1 = ss.pagerank(g, tol=1e-10)
    res, it2 = ss.pagerank(g, tol=1e-10,
                           result_out=str(tmp_path / "pr"))
    assert it1 == it2
    assert res == {"path": str(tmp_path / "pr"), "rows": n,
                   "column": "rank"}
    parts = sorted(f for f in os.listdir(tmp_path / "pr")
                   if f.startswith("part-"))
    assert len(parts) == 4          # one file per shard (+ manifest)
    vids, vals = _read_result(str(tmp_path / "pr"), "rank")
    assert np.array_equal(vids, np.arange(n))
    assert np.array_equal(vals, rank)

    comp, _ = ss.connected_components(g2)
    res, _ = ss.connected_components(
        g2, result_out=str(tmp_path / "cc"))
    assert res["rows"] == n
    vids, vals = _read_result(str(tmp_path / "cc"), "component")
    assert np.array_equal(vals, comp)

    lab, _ = ss.label_propagation(g2, max_iter=4)
    res, _ = ss.label_propagation(
        g2, max_iter=4, result_out=str(tmp_path / "lp"))
    vids, vals = _read_result(str(tmp_path / "lp"), "label")
    assert np.array_equal(vals, lab)

    mask, _ = ss.kcore(g2, 5)
    res, _ = ss.kcore(g2, 5, result_out=str(tmp_path / "kc"))
    vids, vals = _read_result(str(tmp_path / "kc"), "in_core")
    assert np.array_equal(vals, mask)

    dist, _ = ss.bfs_distances(g2, [0, 7])
    res, _ = ss.bfs_distances(g2, [0, 7],
                              result_out=str(tmp_path / "bfs"))
    vids, vals = _read_result(str(tmp_path / "bfs"), "dist")
    assert np.array_equal(vals, dist)

    kz = ss.katz(g, iters=5)
    res = ss.katz(g, iters=5, result_out=str(tmp_path / "katz"))
    assert res["rows"] == n
    vids, vals = _read_result(str(tmp_path / "katz"), "katz")
    assert np.array_equal(vals, kz)


def test_result_out_resume_skips_finished(tmp_path, random_graph):
    """Resume is identity-checked: with a MATCHING manifest an
    existing part file is left untouched, a torn write (tmp name)
    never shadows a finished partition — and a dir whose manifest
    does NOT match (different P / column / graph) is cleared instead
    of silently reused."""
    import json
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    d = tmp_path / "pr"
    # matching-identity resume (the manifest of a run with the same
    # arguments): sentinel survives
    ss.pagerank(g, tol=1e-10, result_out=str(d))
    sentinel = pa.table({"vid": pa.array([-1], pa.int64()),
                         "rank": pa.array([99.0])})
    pq.write_table(sentinel, str(d / "part-00002.parquet"))
    os.remove(d / "part-00001.parquet")
    (d / "part-00001.parquet.tmp-123").write_bytes(b"torn")
    res, _ = ss.pagerank(g, tol=1e-10, result_out=str(d))
    assert res["rows"] == n        # counted, not re-written
    t2 = pq.read_table(str(d / "part-00002.parquet"))
    assert t2["rank"].to_pylist() == [99.0]   # untouched
    t1 = pq.read_table(str(d / "part-00001.parquet"))
    assert len(t1) == len(np.arange(1, n, 4))  # fresh write landed

    # identity mismatch (stale dir from a different run shape):
    # cleared and rewritten, not silently reused
    d2 = tmp_path / "pr2"
    os.makedirs(d2)
    json.dump({"n": int(n), "P": 8, "column": "rank"},
              open(d2 / "_RESULT_MANIFEST.json", "w"))
    pq.write_table(sentinel, str(d2 / "part-00002.parquet"))
    rank, _ = ss.pagerank(g, tol=1e-10)
    res, _ = ss.pagerank(g, tol=1e-10, result_out=str(d2))
    t = pq.read_table(str(d2)).sort_by("vid")
    assert np.array_equal(t["vid"].to_numpy(), np.arange(n))
    assert np.array_equal(t["rank"].to_numpy(), rank)
    # no manifest at all (pre-manifest dir or torn create): cleared
    d3 = tmp_path / "pr3"
    os.makedirs(d3)
    pq.write_table(sentinel, str(d3 / "part-00002.parquet"))
    res, _ = ss.pagerank(g, tol=1e-10, result_out=str(d3))
    t = pq.read_table(str(d3)).sort_by("vid")
    assert np.array_equal(t["rank"].to_numpy(), rank)


def test_result_out_rerun_with_other_arguments(tmp_path, random_graph):
    """The result directory is named by the arguments that change the
    result: a rerun with another damping into the same ``result_out``
    replaces the parts instead of keeping the first run's."""
    import os
    import pyarrow.parquet as pq
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    d = str(tmp_path / "pr")
    ss.pagerank(g, damping=0.85, result_out=d)
    ss.pagerank(g, damping=0.5, result_out=d)
    want, _ = ss.pagerank(g, damping=0.5)
    t = pq.read_table(d).sort_by("vid")
    assert np.array_equal(t["rank"].to_numpy(), want)
    # the same arguments again keep the finished parts
    before = os.path.getmtime(os.path.join(d, "part-00000.parquet"))
    ss.pagerank(g, damping=0.5, result_out=d)
    assert os.path.getmtime(os.path.join(d, "part-00000.parquet")) \
        == before


def test_coreness_kernel_matches_level_loop(tmp_path, random_graph):
    """The shard-resident stepped decomposition equals the driver-side
    per-level kcore loop it replaces, and its result_out path equals
    its assembled path."""
    src, dst, n = random_graph
    g2 = DistGraph.from_edges(src, dst, n=n, P=4,
                              both_directions=True)
    levels = (2, 4, 6, 8, 10)
    core, _ = ss.coreness(g2, levels)
    act = g2.active_global()
    exp = np.where(act, np.int64(1), np.int64(0))
    alive = act
    for k in levels:
        mask, _ = ss.kcore(g2, k, init_alive=alive)
        if not mask.any():
            break
        exp[mask] = k
        alive = mask
    assert np.array_equal(core, exp)
    res, _ = ss.coreness(g2, levels,
                         result_out=str(tmp_path / "core"))
    vids, vals = _read_result(str(tmp_path / "core"), "coreness")
    assert np.array_equal(vals, core)


# ----------------------------------------------------------------------
# Candidate-set variants in the distributed propose kernel
# ----------------------------------------------------------------------
def test_dist_all_comms_negative_weight_bipartite():
    """Reference tests/test_Optimiser.py:167-175 through the shard
    schedule: full 50+50 bipartite, edge weight -0.1, CPM gamma=-0.1.
    Same-side vertices share no edge, so only consider_comms="all"
    (ALL_COMMS) can merge a side; the fixed point is the two pure
    sides and the quality matches the in-memory ALL_COMMS tier."""
    a = np.repeat(np.arange(50), 50)
    b = 50 + np.tile(np.arange(50), 50)
    w = np.full(len(a), -0.1)
    dl = DistLeiden(a, b, weight=w, n=100, directed=False,
                    quality="cpm", resolution_parameter=-0.1, P=4,
                    seed=1, consider_comms="all")
    mem, q, info = dl.run()
    side = np.arange(100) < 50
    assert len(set(mem[side])) == 1
    assert len(set(mem[~side])) == 1
    assert mem[0] != mem[99]

    from leidenalg_ray import CPMVertexPartition
    from leidenalg_ray.graph import Graph
    from leidenalg_ray.optimiser import ALL_COMMS, Optimiser
    g = Graph(100, src=a, dst=b, weights=w)
    p = CPMVertexPartition(g, resolution_parameter=-0.1)
    opt = Optimiser()
    opt.set_rng_seed(1)
    opt.consider_comms = ALL_COMMS
    opt.optimise_partition(p)
    assert q == pytest.approx(p.quality(), abs=1e-9)

    # the default neighbour-only candidate set CANNOT merge a side
    # (no same-side edges): from singletons every neighbour move is
    # into a negative-weight community -> no improving move exists
    dl2 = DistLeiden(a, b, weight=w, n=100, directed=False,
                     quality="cpm", resolution_parameter=-0.1, P=4,
                     seed=1)
    mem2, q2, _ = dl2.run()
    assert len(np.unique(mem2)) == 100   # stuck at singletons
    assert q < p.quality() + 1e-9 and q2 < q


def test_dist_rand_neigh_comm_recovers_cliques():
    """consider_comms="rand_neighbor" (RAND_NEIGH_COMM): one random
    incident edge's community per vertex per superstep. On disjoint
    cliques no community can ever span two cliques (no cross edges,
    and empty/targets stay inside), and the schedule still recovers
    the planted cliques."""
    srcs, dsts = [], []
    for c in range(5):
        vids = np.arange(20) + c * 20
        ii, jj = np.triu_indices(20, k=1)
        srcs.append(vids[ii])
        dsts.append(vids[jj])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    dl = DistLeiden(src, dst, n=100, directed=False, quality="cpm",
                    resolution_parameter=0.5, P=4, seed=7,
                    consider_comms="rand_neighbor")
    mem, q, info = dl.run()
    # communities never span cliques
    for c in range(5):
        labs = set(mem[c * 20:(c + 1) * 20].tolist())
        other = set(np.delete(mem, np.s_[c * 20:(c + 1) * 20]).tolist())
        assert not (labs & other)
    # and with the full schedule it reaches one community per clique
    assert len(np.unique(mem)) == 5


def test_dist_consider_comms_validation():
    a = np.array([0, 1]); b = np.array([1, 2])
    with pytest.raises(ValueError, match="consider_comms"):
        DistLeiden(a, b, n=3, directed=False, quality="cpm",
                   resolution_parameter=0.1, P=2,
                   consider_comms="bogus")
    from leidenalg_ray.optimiser import ALL_COMMS, RAND_COMM
    dl = DistLeiden(a, b, n=3, directed=False, quality="cpm",
                    resolution_parameter=0.1, P=2,
                    consider_comms=ALL_COMMS)   # int constant accepted
    assert dl.consider_comms == "all"
    dl2 = DistLeiden(a, b, n=3, directed=False, quality="cpm",
                     resolution_parameter=0.1, P=2,
                     consider_comms=RAND_COMM)  # r5: now supported
    assert dl2.consider_comms == "rand"


def test_dist_rand_comm_complete_graph_coalesces():
    """consider_comms="rand" (RAND_COMM, reference
    Optimiser.py:104-107) through the distributed schedule: size-
    proportional random-community draws from the driver's broadcast
    per-superstep reservoir. On K_n under CPM gamma=0.5 every draw of
    a community at least as large as the leaver's remainder improves
    ((1-gamma)(b-(a-1)) > 0), so the stochastic schedule provably
    coalesces to the unique one-community optimum; seeded, so the
    run is deterministic."""
    n = 40
    ii, jj = np.triu_indices(n, k=1)
    dl = DistLeiden(ii.astype(np.int64), jj.astype(np.int64), n=n,
                    directed=False, quality="cpm",
                    resolution_parameter=0.5, P=4, seed=42,
                    consider_comms="rand")
    mem, q, info = dl.run()
    assert len(np.unique(mem)) == 1
    # CPM on one community: 2 * (C(n,2) - gamma * C(n,2))
    exp = 2 * (n * (n - 1) / 2) * 0.5
    assert q == pytest.approx(exp, abs=1e-9)
    mem2, q2, _ = DistLeiden(
        ii.astype(np.int64), jj.astype(np.int64), n=n,
        directed=False, quality="cpm", resolution_parameter=0.5,
        P=4, seed=42, consider_comms="rand").run()
    assert np.array_equal(mem, mem2) and q2 == q


def test_incremental_stats_exact_after_local_move():
    """The r5 skip-recompute design rests on one invariant: the
    driver's incrementally-maintained stats — with the shards' exact
    same-step-mover corrections folded in — equal a from-scratch
    recompute. On integer-weight graphs the match must be EXACT (all
    arithmetic is integer-valued float ops), so compare the converged
    quality bit-for-bit against a fresh ``_stats_of()`` recompute,
    on dense random graphs (plenty of same-step interactions) both
    undirected and directed."""
    rng = np.random.default_rng(11)
    for directed in (False, True):
        m = 6000
        src = rng.integers(0, 500, m)
        dst = rng.integers(0, 500, m)
        dl = DistLeiden(src, dst, n=500, directed=directed,
                        quality="cpm", resolution_parameter=0.4,
                        P=4, seed=3)
        q, steps, hist = dl.local_move_level0()
        stats_true = dl._stats_of()
        q_true = dl._quality_of(stats_true)
        assert q == q_true, (directed, q, q_true)
        # and the fixed point is reproducible
        dl2 = DistLeiden(src, dst, n=500, directed=directed,
                         quality="cpm", resolution_parameter=0.4,
                         P=4, seed=3)
        q2, steps2, _ = dl2.local_move_level0()
        assert q2 == q and steps2 == steps


def test_incremental_stats_selfcheck_every_cycle():
    """LRAY_LEIDEN_SELFCHECK recomputes the stats from scratch at
    EVERY skip cycle and raises on any drift — run it over a spread
    of random graphs (dense, sparse, weighted-integer, directed) so
    the per-cycle exactness of the correction partials is pinned, not
    just the converged endpoint."""
    import os
    os.environ["LRAY_LEIDEN_SELFCHECK"] = "1"
    try:
        rng = np.random.default_rng(23)
        cases = [
            (300, 4000, False, None),
            (300, 1200, False, None),
            (250, 3000, True, None),
            (300, 4000, False,
             rng.integers(1, 5, 4000).astype(np.float64)),
        ]
        for n, m, directed, w in cases:
            src = rng.integers(0, n, m)
            dst = rng.integers(0, n, m)
            dl = DistLeiden(src, dst, weight=w, n=n,
                            directed=directed, quality="cpm",
                            resolution_parameter=0.4, P=4, seed=9)
            q, steps, _ = dl.local_move_level0()
            assert steps > 0
    finally:
        os.environ.pop("LRAY_LEIDEN_SELFCHECK", None)


def test_incremental_stats_exact_matches_no_frontier_quality_family():
    """With the frontier/corrections disabled (LRAY_NO_FRONTIER) the
    old propose-everyone + per-cycle-recompute schedule runs; both
    schedules must land on valid fixed points of the same quality
    scale (trajectories legitimately differ)."""
    import os
    rng = np.random.default_rng(7)
    m = 4000
    src = rng.integers(0, 400, m)
    dst = rng.integers(0, 400, m)
    dl = DistLeiden(src, dst, n=400, directed=False, quality="cpm",
                    resolution_parameter=0.4, P=4, seed=5)
    q_front, _, _ = dl.local_move_level0()
    os.environ["LRAY_NO_FRONTIER"] = "1"
    try:
        dl2 = DistLeiden(src, dst, n=400, directed=False,
                         quality="cpm", resolution_parameter=0.4,
                         P=4, seed=5)
        q_old, _, _ = dl2.local_move_level0()
    finally:
        os.environ.pop("LRAY_NO_FRONTIER", None)
    assert abs(q_front - q_old) / max(abs(q_old), 1.0) < 0.02


def test_dist_rand_comm_parity_with_in_memory_fixed_point():
    """The distributed RAND_COMM fixed point satisfies the same
    properties as the in-memory tier's: every community is internally
    connected-by-construction on disjoint cliques (a community never
    spans cliques — a cross-clique move has no internal edges and
    gamma > 0 makes it strictly negative), and quality is bounded by
    the in-memory optimum found under the richer all_neighbors
    schedule."""
    from leidenalg_ray import CPMVertexPartition, find_partition
    from leidenalg_ray.graph import Graph
    srcs, dsts = [], []
    for c in range(4):
        vids = np.arange(10) + c * 10
        ii, jj = np.triu_indices(10, k=1)
        srcs.append(vids[ii])
        dsts.append(vids[jj])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    dl = DistLeiden(src, dst, n=40, directed=False, quality="cpm",
                    resolution_parameter=0.5, P=4, seed=3,
                    consider_comms="rand")
    mem, q, _ = dl.run()
    for c in range(4):
        labs = set(mem[c * 10:(c + 1) * 10].tolist())
        other = set(np.delete(mem,
                              np.s_[c * 10:(c + 1) * 10]).tolist())
        assert not (labs & other)
    G = Graph(40, src=src, dst=dst)
    p = find_partition(G, CPMVertexPartition,
                       resolution_parameter=0.5, seed=3)
    assert q <= p.quality() + 1e-9
    # singleton quality is a strict lower bound the random schedule
    # must beat (any first merge improves)
    assert q > 0


def test_run_n_iterations_negative_until_no_improvement(tmp_path):
    """n_iterations=-1 (reference Optimiser.py:341-352): full
    move+refine+aggregate passes repeat, warm-started from the
    previous pass, until one no longer improves. On planted cliques
    the first pass reaches the unique optimum, so exactly one
    improving pass runs (+ the no-improvement detection pass), the
    result matches the default schedule, and the shard-side
    membership_out path agrees bit for bit."""
    import pyarrow.dataset as pads
    srcs, dsts = [], []
    for c in range(5):
        vids = np.arange(20) + c * 20
        ii, jj = np.triu_indices(20, k=1)
        srcs.append(vids[ii])
        dsts.append(vids[jj])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)

    def mk():
        return DistLeiden(src, dst, n=100, directed=False,
                          quality="cpm", resolution_parameter=0.5,
                          P=4, seed=7)

    mem_def, q_def, _ = mk().run()
    mem_neg, q_neg, info = mk().run(n_iterations=-1)
    assert q_neg == pytest.approx(q_def, abs=1e-12)
    assert np.array_equal(mem_neg, mem_def)
    assert info["passes"] >= 2          # improving pass + detection
    out = str(tmp_path / "mem")
    none_mem, q_out, info2 = mk().run(n_iterations=-1,
                                      membership_out=out)
    assert none_mem is None
    assert q_out == pytest.approx(q_def, abs=1e-12)
    t = pads.dataset(out).to_table().sort_by("vid")
    assert np.array_equal(t["comm"].to_numpy(), mem_def)


def test_all_comms_tracks_live_labels_default_stays_compressed():
    """Documented tradeoff: consider_comms="all" makes each shard
    track ALL live community labels (it must score any of them);
    the default mode keeps the label set compressed to referenced
    labels. Perfect matching on n vertices, P=8: each shard
    references ~2n/P vids, but the live label count at singleton
    init is n."""
    n = 800
    src = np.arange(0, n, 2, dtype=np.int64)
    dst = np.arange(1, n, 2, dtype=np.int64)

    def footprints(mode):
        dl = DistLeiden(src, dst, n=n, directed=False, quality="cpm",
                        resolution_parameter=0.1, P=8, seed=3,
                        consider_comms=mode)
        # stage state exactly as a run would, then inspect
        dl._fan("init_mem", None)
        stats = dl._stats_of()
        dl._push_stats(stats)
        return dl._fan("state_footprint")

    for fp in footprints("all_neighbors"):
        assert fp["stat_labels"] < n // 2      # compressed
    for fp in footprints("all"):
        assert fp["stat_labels"] == n          # all live singletons


def test_result_out_hits_and_eigenvector(tmp_path, random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    g_rev = DistGraph.from_edges(dst, src, n=n, P=4, directed=True)
    g2 = DistGraph.from_edges(src, dst, n=n, P=4,
                              both_directions=True)
    hub, auth, act = ss.hits(g, g_rev, iters=5)
    hres, ares, none_act = ss.hits(g, g_rev, iters=5,
                                   result_out=str(tmp_path / "h"))
    assert none_act is None and hres["rows"] == n
    _, hv = _read_result(str(tmp_path / "h" / "hub"), "hub")
    _, av = _read_result(str(tmp_path / "h" / "authority"),
                         "authority")
    assert np.array_equal(hv, hub) and np.array_equal(av, auth)

    x, act2 = ss.eigenvector_centrality(g2, iters=5)
    res, none2 = ss.eigenvector_centrality(
        g2, iters=5, result_out=str(tmp_path / "ev"))
    assert none2 is None and res["rows"] == n
    _, xv = _read_result(str(tmp_path / "ev"), "eigenvector")
    assert np.array_equal(xv, x)


def test_betweenness_result_out(tmp_path, random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4,
                             both_directions=True)
    seeds = [0, 5, 9]
    bc = ss.betweenness(g, seeds)
    res = ss.betweenness(g, seeds, result_out=str(tmp_path / "bc"))
    assert res["rows"] == n
    _, vals = _read_result(str(tmp_path / "bc"), "betweenness")
    assert np.array_equal(vals, bc)


def test_result_out_more_shards_than_vertices(tmp_path):
    """P > n: zero/short shards still write valid (possibly empty)
    part files and the read-back matches the assembled path."""
    src = np.array([0, 1])
    dst = np.array([1, 2])
    g = DistGraph.from_edges(src, dst, n=3, P=4, directed=True)
    rank, _ = ss.pagerank(g, tol=1e-10)
    res, _ = ss.pagerank(g, tol=1e-10,
                         result_out=str(tmp_path / "pr"))
    assert res["rows"] == 3
    vids, vals = _read_result(str(tmp_path / "pr"), "rank")
    assert np.array_equal(vids, np.arange(3))
    assert np.array_equal(vals, rank)


def test_result_out_after_checkpoint_resume(tmp_path, random_graph):
    """A converged checkpoint resumed WITH result_out= goes through
    the shard-side write path (the early-return branch) and matches
    the original run bit for bit."""
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    ck = str(tmp_path / "ck")
    rank, _ = ss.pagerank(g, tol=1e-8, checkpoint=ck)
    res, _ = ss.pagerank(g, tol=1e-8, checkpoint=ck,
                         result_out=str(tmp_path / "pr"))
    assert res["rows"] == n
    _, vals = _read_result(str(tmp_path / "pr"), "rank")
    assert np.array_equal(vals, rank)


def test_rand_neigh_checkpoint_resume_continues_seed_sequence(
        tmp_path):
    """A rand_neighbor run interrupted by a small superstep budget
    and resumed from its checkpoint continues the per-superstep rng
    sequence (driver step counter resumes from the checkpoint's step
    metric) and still reaches the planted fixed point."""
    srcs, dsts = [], []
    for c in range(4):
        vids = np.arange(15) + c * 15
        ii, jj = np.triu_indices(15, k=1)
        srcs.append(vids[ii])
        dsts.append(vids[jj])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    ck = str(tmp_path / "ck")

    def mk():
        return DistLeiden(src, dst, n=60, directed=False,
                          quality="cpm", resolution_parameter=0.5,
                          P=4, seed=11,
                          consider_comms="rand_neighbor")

    # interrupted level-0 local move (tiny superstep budget)
    q1, s1, _ = mk().local_move_level0(max_supersteps=2,
                                       checkpoint=ck)
    # resume: picks up the saved shards AND the step counter
    q2, s2, _ = mk().local_move_level0(max_supersteps=200,
                                       checkpoint=ck)
    assert s2 >= 2                  # counter continued, not reset
    mem, q, info = mk().run()       # full schedule sanity
    for c in range(4):
        labs = set(mem[c * 15:(c + 1) * 15].tolist())
        other = set(np.delete(mem,
                              np.s_[c * 15:(c + 1) * 15]).tolist())
        assert not (labs & other)
    assert len(np.unique(mem)) == 4


def test_spam_mass_isolated_component_is_all_spam():
    """TrustRank / spam-mass composition (q_spam_mass_co semantics;
    Gyongyi et al. VLDB 2004): with teleport restricted to seeds in
    one component, a disconnected component receives trust exactly 0,
    so its relative spam mass (r - t)/r is exactly 1; the seed
    component keeps strictly positive trust everywhere."""
    ii, jj = np.triu_indices(20, k=1)
    src = np.concatenate([ii, jj, ii + 20, jj + 20])
    dst = np.concatenate([jj, ii, jj + 20, ii + 20])
    g = DistGraph.from_edges(src, dst, n=40, P=4, directed=True)
    seeds = np.array([0, 1, 2], dtype=np.int64)
    r, _ = ss.pagerank(g, damping=0.85, tol=0.0, max_iter=30)
    t, _ = ss.pagerank(g, damping=0.85, tol=0.0, max_iter=30,
                       personalize=seeds)
    assert r.sum() == pytest.approx(1.0, abs=1e-9)
    assert t.sum() == pytest.approx(1.0, abs=1e-9)
    assert t[20:].max() == 0.0
    mass = (r - t) / r
    assert np.allclose(mass[20:], 1.0, atol=1e-12)
    assert t[:20].min() > 0
    assert mass[:20].max() < 1.0


def test_diameter_double_sweep_exact_on_path():
    """Double-sweep BFS (q_diameter_sweep_co semantics): starting
    anywhere on a path graph, the farthest vertex is an endpoint and
    the second sweep's eccentricity equals the true diameter (the
    lower-bound heuristic is tight on trees)."""
    k = 17
    a = np.arange(k)
    b = np.arange(1, k + 1)
    g = DistGraph.from_edges(np.concatenate([a, b]),
                             np.concatenate([b, a]),
                             n=k + 1, P=3, directed=True)
    INF = np.iinfo(np.int64).max
    d0, _ = ss.bfs_distances(g, [8])
    fin = np.flatnonzero(d0 < INF)
    far = int(fin[d0[fin] == d0[fin].max()].min())
    assert far in (0, k)
    d1, _ = ss.bfs_distances(g, [far])
    assert int(d1[d1 < INF].max()) == k


def test_salsa_matches_serial(random_graph):
    """SALSA kernel vs a serial numpy replica of the same
    simultaneous-update recursion (sender-degree-normalised HITS)."""
    src, dst, n = random_graph
    e = np.unique(np.stack([src, dst], 1), axis=0)
    s, d = e[:, 0], e[:, 1]
    g = DistGraph.from_edges(s, d, n=n, P=4, directed=True)
    g_rev = DistGraph.from_edges(d, s, n=n, P=4, directed=True)
    hub, auth, act = ss.salsa(g, g_rev, iters=15)
    outdeg = np.bincount(s, minlength=n).astype(float)
    indeg = np.bincount(d, minlength=n).astype(float)
    act_ser = (outdeg + indeg) > 0
    h = np.where(act_ser, 1.0 / act_ser.sum(), 0.0)
    a = h.copy()
    for _ in range(15):
        ar = np.zeros(n)
        hr = np.zeros(n)
        np.add.at(ar, d, h[s] / outdeg[s])
        np.add.at(hr, s, a[d] / indeg[d])
        a, h = ar / ar.sum(), hr / hr.sum()
    assert np.array_equal(act, act_ser)
    assert np.abs(hub - h).max() < 1e-12
    assert np.abs(auth - a).max() < 1e-12


def test_salsa_authority_fixed_point_is_indegree():
    """Lempel & Moran 2000, Prop. 2: on a connected authority chain
    the SALSA authority weights converge to indegree / total edges
    (unlike HITS, which tilts to the principal eigenvector)."""
    s = np.array([0, 0, 1, 1, 2, 2, 0], dtype=np.int64)
    d = np.array([10, 11, 11, 12, 12, 10, 12], dtype=np.int64)
    g = DistGraph.from_edges(s, d, n=13, P=3, directed=True)
    g_rev = DistGraph.from_edges(d, s, n=13, P=3, directed=True)
    _, auth, _ = ss.salsa(g, g_rev, iters=200)
    indeg = np.bincount(d, minlength=13).astype(float)
    assert np.allclose(auth, indeg / indeg.sum(), atol=1e-9)


def _node2vec_serial(s_, d_, n, seeds, length, mr, mc, mf):
    M = 1000003
    adj = [np.sort(d_[s_ == vv]) for vv in range(n)]
    nbr = [set(a.tolist()) for a in adj]
    rows = []
    for wd in seeds:
        cur, prev = int(wd), -1
        rows.append((int(wd), 0, cur))
        for s2 in range(1, length + 1):
            c = adj[cur]
            if len(c) == 0:
                break
            best = None
            for u in c:
                u = int(u)
                if prev < 0:
                    mm = 1
                elif u == prev:
                    mm = mr
                elif u in nbr[prev]:
                    mm = mc
                else:
                    mm = mf
                key = min(((wd % M) * 7919 + (s2 % M) * 104729
                           + (u % M) * 15485863 + r * 32452843) % M
                          for r in range(mm))
                if best is None or (key, u) < best:
                    best = (key, u)
            prev, cur = cur, best[1]
            rows.append((int(wd), s2, cur))
    return sorted(rows)


def test_node2vec_matches_serial_and_p_invariant():
    """Two-round BSP node2vec kernel == per-walk serial replica of the
    weighted-multiset hash draw, and the output is identical at
    different partition counts (the determinism contract)."""
    rng = np.random.default_rng(7)
    n, m = 300, 2400
    e = np.unique(np.stack([rng.integers(0, n, m),
                            rng.integers(0, n, m)], 1), axis=0)
    s_, d_ = e[:, 0], e[:, 1]
    seeds = np.arange(0, 40, 5, dtype=np.int64)
    want = _node2vec_serial(s_, d_, n, seeds, 10, 3, 2, 1)
    outs = []
    for P in (3, 5):
        g = DistGraph.from_edges(s_, d_, n=n, P=P, directed=True)
        w, st, v = ss.node2vec_walks(g, seeds, length=10,
                                     mult_return=3, mult_common=2,
                                     mult_far=1)
        outs.append(sorted(zip(w.tolist(), st.tolist(), v.tolist())))
    assert outs[0] == want
    assert outs[1] == want


def test_node2vec_multiplicity_bounds():
    g = DistGraph.from_edges(np.array([0]), np.array([1]), n=2, P=2,
                             directed=True)
    with pytest.raises(ValueError):
        ss.node2vec_walks(g, [0], 2, mult_common=5)


def test_bowtie_classification_planted():
    """Bow-tie classes relative to the seed's SCC (q_bowtie_items
    semantics): planted core cycle 0->1->2->0, in-link 3->0, out-link
    2->4, in-tendril 3->7, disconnected 5->6."""
    s = np.array([0, 1, 2, 3, 2, 5, 3], dtype=np.int64)
    d = np.array([1, 2, 0, 0, 4, 6, 7], dtype=np.int64)
    gf = DistGraph.from_edges(s, d, n=8, P=3, directed=True)
    gb = DistGraph.from_edges(d, s, n=8, P=3, directed=True)
    INF = np.iinfo(np.int64).max
    df, _ = ss.bfs_distances(gf, [0])
    db, _ = ss.bfs_distances(gb, [0])
    fwd, bwd = df < INF, db < INF
    cls = np.where(fwd & bwd, "scc",
                   np.where(bwd, "in", np.where(fwd, "out", "other")))
    assert list(cls) == ["scc", "scc", "scc", "in", "out",
                         "other", "other", "other"]


def test_effective_diameter_closed_form_on_path():
    """q_effective_diameter_items math: on a 10-vertex directed path
    with one seed, distances are 0..9 (10 pairs), the 90th-percentile
    threshold is ceil(0.9*10)=9 pairs, so the effective diameter is
    the 9th-smallest distance = 8."""
    s = np.arange(9)
    d = np.arange(1, 10)
    g = DistGraph.from_edges(s, d, n=10, P=3, directed=True)
    dist, _ = ss.multi_bfs(g, np.array([0], dtype=np.int64))
    INF = np.iinfo(np.int64).max
    fin = np.sort(dist[dist < INF])
    assert len(fin) == 10
    thr = int(np.ceil(0.9 * len(fin)))
    assert int(fin[thr - 1]) == 8


def test_redirect_pointer_doubling_matches_serial():
    """Pointer-doubling resolve == serial chain walk on a random
    functional mapping (with planted cycles excluded on both sides);
    a 5000-hop chain resolves within 13 doubling rounds."""
    from leidenalg_ray.dist.redirects import resolve_redirects

    rng = np.random.default_rng(11)
    n = 400
    srcs = rng.choice(n, size=250, replace=False).astype(np.int64)
    dsts = rng.integers(0, n, size=250).astype(np.int64)
    vid, fin, hops = resolve_redirects(srcs, dsts, P=4, rounds=20)
    nxt = dict(zip(srcs.tolist(), dsts.tolist()))
    want = {}
    for s in srcs.tolist():
        cur, h, seen = s, 0, set()
        while cur in nxt and cur not in seen:
            seen.add(cur)
            cur = nxt[cur]
            h += 1
        if cur not in nxt:             # terminal (not a cycle)
            want[s] = (cur, h)
    got = {int(v): (int(f), int(h)) for v, f, h in zip(vid, fin, hops)}
    assert got == want
    # long chain: 5000 hops, log2 rounds
    s2 = np.arange(5000, dtype=np.int64)
    v2, f2, h2 = resolve_redirects(s2, s2 + 1, P=4, rounds=13)
    assert len(v2) == 5000 and (f2 == 5000).all()
    assert h2[np.argsort(v2)][0] == 5000


def test_redirects_single_partition_matches_three():
    """One partition resolves the same chains as three (the per-owner
    query split hands back a list of refs at any P)."""
    from leidenalg_ray.dist.redirects import resolve_redirects

    rng = np.random.default_rng(12)
    srcs = rng.choice(200, size=120, replace=False).astype(np.int64)
    dsts = rng.integers(0, 200, size=120).astype(np.int64)
    outs = []
    for P in (1, 3):
        vid, fin, hops = resolve_redirects(srcs, dsts, P=P, rounds=20)
        order = np.argsort(vid)
        outs.append((vid[order], fin[order], hops[order]))
    assert len(outs[0][0]) > 0
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Greedy maximal matching (locally-dominant edges)
# ----------------------------------------------------------------------
def _serial_greedy_matching(src, dst, n):
    """Sequential greedy matching in ascending match_key order — the
    confluent fixed point the parallel kernel must reproduce."""
    pairs = sorted({(min(int(a), int(b)), max(int(a), int(b)))
                    for a, b in zip(src, dst) if a != b},
                   key=lambda e: int(ss.match_key(np.int64(e[0]),
                                                  np.int64(e[1]))))
    partner = np.full(n, -1, dtype=np.int64)
    for a, b in pairs:
        if partner[a] < 0 and partner[b] < 0:
            partner[a] = b
            partner[b] = a
    return partner


def test_maximal_matching_matches_serial(random_graph):
    src, dst, n = random_graph
    src, dst = _simple_undirected(src, dst, n)
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    partner, rounds = ss.maximal_matching(g)
    assert np.array_equal(partner, _serial_greedy_matching(src, dst, n))
    # properness: mutual partners along real edges
    matched = np.flatnonzero(partner >= 0)
    assert (partner[partner[matched]] == matched).all()
    eset = {(min(int(a), int(b)), max(int(a), int(b)))
            for a, b in zip(src, dst)}
    for v in matched:
        u = int(partner[v])
        assert (min(u, int(v)), max(u, int(v))) in eset
    # maximality: no edge with both endpoints unmatched
    assert ((partner[src] >= 0) | (partner[dst] >= 0)).all()


def test_maximal_matching_parallelism_invariant(random_graph):
    src, dst, n = random_graph
    src, dst = _simple_undirected(src, dst, n)
    base = None
    for P in (2, 5, 8):
        g = DistGraph.from_edges(src, dst, n=n, P=P,
                                 both_directions=True)
        partner, _ = ss.maximal_matching(g)
        if base is None:
            base = partner
        else:
            assert np.array_equal(base, partner)


def test_maximal_matching_result_out(tmp_path, random_graph):
    src, dst, n = random_graph
    src, dst = _simple_undirected(src, dst, n)
    g = DistGraph.from_edges(src, dst, n=n, P=4, both_directions=True)
    partner, r1 = ss.maximal_matching(g)
    res, r2 = ss.maximal_matching(
        g, result_out=str(tmp_path / "match"))
    assert r1 == r2
    assert res == {"path": str(tmp_path / "match"), "rows": n,
                   "column": "partner"}
    vids, vals = _read_result(str(tmp_path / "match"), "partner")
    assert np.array_equal(vids, np.arange(n))
    assert np.array_equal(vals, partner)


def test_maximal_matching_path_graph():
    """Path 0-1-2-3-4: greedy in key order — closed-form check that
    the kernel tolerates chains (only one dominant edge at a time in
    the worst key order) and isolated leftovers stay -1."""
    src = np.array([0, 1, 2, 3], dtype=np.int64)
    dst = np.array([1, 2, 3, 4], dtype=np.int64)
    g = DistGraph.from_edges(src, dst, n=6, P=3, both_directions=True)
    partner, _ = ss.maximal_matching(g)
    assert np.array_equal(partner, _serial_greedy_matching(src, dst, 6))
    assert partner[5] == -1           # no-edge vertex never active


# ----------------------------------------------------------------------
# Directed triad census
# ----------------------------------------------------------------------
TRIAD_LABELS = ("003", "012", "102", "021D", "021U", "021C", "111D",
                "111U", "030T", "030C", "201", "120D", "120U", "120C",
                "210", "300")


def _brute_triads(arcs, verts):
    """Independent per-triple classifier (no shared code with the
    engine's wedge/triangle decomposition)."""
    from itertools import combinations
    aset = set(arcs)
    cnt = {lab: 0 for lab in TRIAD_LABELS}
    for t in combinations(sorted(verts), 3):
        code = {}
        for a, b in combinations(t, 2):
            fw, rv = (a, b) in aset, (b, a) in aset
            code[(a, b)] = 3 if fw and rv else (1 if fw else
                                                (2 if rv else 0))
        vals = list(code.values())
        nm, na = vals.count(3), vals.count(1) + vals.count(2)
        if nm + na == 0:
            cls = "003"
        elif nm + na == 1:
            cls = "102" if nm else "012"
        elif nm + na == 2:
            p1, p2 = [p for p, c in code.items() if c]
            center = (set(p1) & set(p2)).pop()

            def kind(p):
                c = code[p]
                if c == 3:
                    return "m"
                head = p[1] if c == 1 else p[0]
                return "i" if head == center else "o"
            key = "".join(sorted(kind(p1) + kind(p2)))
            cls = {"oo": "021D", "ii": "021U", "io": "021C",
                   "im": "111D", "mo": "111U", "mm": "201"}[key]
        elif nm == 3:
            cls = "300"
        elif nm == 2:
            cls = "210"
        elif nm == 1:
            mp = [p for p, c in code.items() if c == 3][0]
            w = (set(t) - set(mp)).pop()
            outs = sum(1 for p, c in code.items() if c in (1, 2)
                       and (p[1] if c == 1 else p[0]) != w)
            cls = ("120D" if outs == 2 else
                   "120U" if outs == 0 else "120C")
        else:
            indeg = {v: 0 for v in t}
            for p, c in code.items():
                if c in (1, 2):
                    indeg[p[1] if c == 1 else p[0]] += 1
            cls = "030C" if all(v == 1 for v in indeg.values()) \
                else "030T"
        cnt[cls] += 1
    return cnt


def _engine_triads(arcs, n):
    """The query's decomposition, run on raw arc lists."""
    from leidenalg_ray.dist.triangles import (
        triad_triangle_census, TRIAD_L3_LABELS, TRIAD_WEDGE_LABELS)
    from leidenalg_ray.dist.truss import edge_supports
    s = np.array([a for a, _ in arcs], dtype=np.int64)
    d = np.array([b for _, b in arcs], dtype=np.int64)
    keys = np.unique(np.minimum(s, d) * n + np.maximum(s, d))
    lo, hi = keys // n, keys % n
    kf = set(a * n + b for a, b in arcs)
    fw = np.array([int(a) * n + int(b) in kf for a, b in zip(lo, hi)])
    rv = np.array([int(b) * n + int(a) in kf for a, b in zip(lo, hi)])
    code = np.where(fw & rv, 3, np.where(fw, 1, 2)).astype(np.int64)
    verts = np.unique(np.concatenate([lo, hi]))
    N = len(verts)
    cl, ch = np.searchsorted(verts, lo), np.searchsorted(verts, hi)
    m_v = np.bincount(cl[code == 3], minlength=N) \
        + np.bincount(ch[code == 3], minlength=N)
    i_v = np.bincount(cl[code == 2], minlength=N) \
        + np.bincount(ch[code == 1], minlength=N)
    o_v = np.bincount(cl[code == 1], minlength=N) \
        + np.bincount(ch[code == 2], minlength=N)
    W = {"021D": int((o_v * (o_v - 1) // 2).sum()),
         "021U": int((i_v * (i_v - 1) // 2).sum()),
         "021C": int((i_v * o_v).sum()),
         "111D": int((m_v * i_v).sum()),
         "111U": int((m_v * o_v).sum()),
         "201": int((m_v * (m_v - 1) // 2).sum())}
    l3, wd = triad_triangle_census(lo, hi, code, n=n, P=4)
    sup = edge_supports(cl, ch, N, P=4)
    dL = m_v + i_v + o_v
    nulls = (N - 2) - (dL[cl] - 1) - (dL[ch] - 1) + sup
    out = {lab: int(l3[k]) for k, lab in enumerate(TRIAD_L3_LABELS)}
    for k, lab in enumerate(TRIAD_WEDGE_LABELS):
        out[lab] = W[lab] - int(wd[k])
    out["012"] = int(nulls[code != 3].sum())
    out["102"] = int(nulls[code == 3].sum())
    out["003"] = N * (N - 1) * (N - 2) // 6 - sum(out.values())
    return out


def test_triad_census_matches_bruteforce():
    rng = np.random.default_rng(23)
    for m in (25, 80, 160):
        n = 28
        arcs = sorted({(int(a), int(b)) for a, b in
                       zip(rng.integers(0, n, m),
                           rng.integers(0, n, m)) if a != b})
        verts = sorted({v for e in arcs for v in e})
        want = _brute_triads(arcs, verts)
        got = _engine_triads(arcs, n)
        assert got == want


def test_triad_census_closed_forms():
    # directed 3-cycle -> one 030C; transitive triple -> one 030T;
    # full mutual triangle -> one 300
    assert _engine_triads([(0, 1), (1, 2), (2, 0)], 3)["030C"] == 1
    assert _engine_triads([(0, 1), (1, 2), (0, 2)], 3)["030T"] == 1
    full = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    got = _engine_triads(full, 3)
    assert got["300"] == 1 and sum(got.values()) == 1


def test_pagerank_batch_columns_match_single_runs(random_graph):
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    seed_sets = [[3], [500, 1234], [7, 8, 9]]
    mat, _ = ss.pagerank_batch(g, seed_sets, tol=0.0, max_iter=25)
    for s, seeds in enumerate(seed_sets):
        single, _ = ss.pagerank(g, tol=0.0, max_iter=25,
                                personalize=seeds)
        assert np.abs(mat[:, s] - single).max() < 1e-12
        assert mat[:, s].sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_batch_result_out(random_graph, tmp_path):
    import glob
    import pyarrow.parquet as pq
    src, dst, n = random_graph
    g = DistGraph.from_edges(src, dst, n=n, P=4, directed=True)
    seed_sets = [[3], [500]]
    mat, _ = ss.pagerank_batch(g, seed_sets, tol=0.0, max_iter=10)
    out = str(tmp_path / "ppr")
    info, _ = ss.pagerank_batch(g, seed_sets, tol=0.0, max_iter=10,
                                result_out=out)
    assert info["rows"] == n * len(seed_sets)
    got = np.zeros((n, len(seed_sets)))
    for f in glob.glob(out + "/part-*.parquet"):
        t = pq.read_table(f)
        got[t["vid"].to_numpy(), t["seed"].to_numpy()] = \
            t["rank"].to_numpy()
    assert np.abs(got - mat).max() < 1e-15


def test_hitting_time_matches_serial_value_iteration(random_graph):
    src, dst, n = random_graph
    nl = src != dst
    g = DistGraph.from_edges(src[nl], dst[nl], n=n, P=4,
                             directed=False, both_directions=True)
    targets = [3, 77, 500]
    K = 12
    h, _ = ss.hitting_time(g, targets, iters=K)
    # serial replica over the same symmetric multigraph
    deg = np.zeros(n)
    adj = {}
    for u, v in zip(src[nl], dst[nl]):
        for a, b in ((int(u), int(v)), (int(v), int(u))):
            adj.setdefault(a, []).append(b)
            deg[a] += 1
    hs = np.zeros(n)
    tset = set(targets)
    for _ in range(K):
        new = np.zeros(n)
        for v in range(n):
            if v in tset or deg[v] == 0:
                continue
            new[v] = 1.0 + sum(hs[u] for u in adj[v]) / deg[v]
        hs = new
    assert np.abs(h - hs).max() < 1e-9
    assert all(h[t] == 0.0 for t in targets)
    # truncated expectation grows with the horizon
    h2, _ = ss.hitting_time(g, targets, iters=K + 10)
    assert (h2 >= h - 1e-12).all()


def test_dag_longest_path_planted(ray_session):
    """Chain-with-branch DAG: depth = longest path (in edges) ending
    at each vertex; cyclic input raises instead of spinning."""
    import numpy as np
    import pytest

    from leidenalg_ray.dist import superstep as ss
    from leidenalg_ray.dist.blocks import DistGraph

    # 0 -> 1 -> 2 -> 3, 4 -> 2, 5 isolated
    g = DistGraph.from_edges([0, 1, 2, 4], [1, 2, 3, 2], n=6, P=3,
                             directed=True)
    depth, iters = ss.dag_longest_path(g)
    assert list(depth) == [0, 1, 2, 3, 0, 0]
    assert iters <= 5

    cyc = DistGraph.from_edges([0, 1, 2], [1, 2, 0], n=3, P=2,
                               directed=True)
    with pytest.raises(RuntimeError, match="cycle"):
        ss.dag_longest_path(cyc, max_iter=20)


def test_dag_longest_path_result_out(ray_session, tmp_path):
    """result_out writes (vid, depth) shard-side; no driver array."""
    import pyarrow.parquet as pq

    from leidenalg_ray.dist import superstep as ss
    from leidenalg_ray.dist.blocks import DistGraph

    g = DistGraph.from_edges([0, 1, 2, 4], [1, 2, 3, 2], n=6, P=3,
                             directed=True)
    res, _ = ss.dag_longest_path(g, result_out=str(tmp_path / "d"))
    assert res["column"] == "depth" and res["rows"] == 6
    t = pq.read_table(res["path"]).to_pandas() \
        .sort_values("vid").reset_index(drop=True)
    assert list(t["depth"]) == [0, 1, 2, 3, 0, 0]


def _serial_onion(n, edges):
    """Reference onion decomposition: per round remove all vertices
    with remaining degree <= running core (core = max(core, min
    remaining degree))."""
    import collections

    adj = collections.defaultdict(set)
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    alive = set(adj)
    layer = {v: 0 for v in range(n)}
    core_at = {v: 0 for v in range(n)}
    core = 0
    rnd = 0
    while alive:
        rnd += 1
        deg = {v: sum(1 for u in adj[v] if u in alive) for v in alive}
        core = max(core, min(deg.values()))
        rm = {v for v in alive if deg[v] <= core}
        for v in rm:
            layer[v] = rnd
            core_at[v] = core
        alive -= rm
    return layer, core_at


def test_onion_layers_random_matches_serial(ray_session):
    """Kernel == serial peel on a random graph (layers + coreness)."""
    import numpy as np

    from leidenalg_ray.dist import superstep as ss
    from leidenalg_ray.dist.blocks import DistGraph

    rng = np.random.default_rng(3)
    n = 60
    src = rng.integers(0, n, 240)
    dst = rng.integers(0, n, 240)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # dedup undirected multi-edges: the kernel counts multiplicity,
    # the serial oracle uses neighbour sets
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    uniq = np.unique(lo * n + hi)
    src, dst = uniq // n, uniq % n
    g = DistGraph.from_edges(src, dst, n=n, P=4,
                             both_directions=True)
    (layers, core), rounds = ss.onion_layers(g)
    slayer, score = _serial_onion(n, zip(src.tolist(), dst.tolist()))
    for v in range(n):
        assert layers[v] == slayer[v], (v, layers[v], slayer[v])
        assert core[v] == score[v], (v, core[v], score[v])
    assert rounds == max(slayer.values())


def test_onion_layers_result_out(ray_session, tmp_path):
    """result_out writes layer and coreness shard-side."""
    import pyarrow.parquet as pq

    from leidenalg_ray.dist import superstep as ss
    from leidenalg_ray.dist.blocks import DistGraph

    # path 0-1-2-3-4: layers 1,2,3,2,1; coreness 1 everywhere
    g = DistGraph.from_edges([0, 1, 2, 3], [1, 2, 3, 4], n=5, P=3,
                             both_directions=True)
    res, _ = ss.onion_layers(g, result_out=str(tmp_path / "o"))
    lt = pq.read_table(res["layer"]["path"]).to_pandas() \
        .sort_values("vid")
    ct = pq.read_table(res["coreness"]["path"]).to_pandas() \
        .sort_values("vid")
    assert list(lt["layer"]) == [1, 2, 3, 2, 1]
    assert list(ct["coreness"]) == [1, 1, 1, 1, 1]


def test_densest_subgraph_finds_planted_core(ray_session):
    """A K8 planted inside a sparse ring: the batched peel's best
    level isolates (a superset at least as dense as) the clique;
    with eps=0 on this graph it lands exactly on the K8."""
    import numpy as np

    from leidenalg_ray.dist import superstep as ss
    from leidenalg_ray.dist.blocks import DistGraph

    # ring 0..29 + K8 on 30..37 + one bridge 0-30
    ring = [(i, (i + 1) % 30) for i in range(30)]
    k8 = [(30 + a, 30 + b) for a in range(8) for b in range(a + 1, 8)]
    edges = ring + k8 + [(0, 30)]
    src = np.array([a for a, _ in edges])
    dst = np.array([b for _, b in edges])
    g = DistGraph.from_edges(src, dst, n=38, P=4,
                             both_directions=True)
    best, mask_refs, rounds = ss.densest_subgraph(g, eps=0.0)
    assert best["density"] >= 3.5 - 1e-12  # K8 density = 7/2
    assert best["n_vertices"] == 8 and best["n_edges"] == 28
    import ray as _ray
    alive = np.concatenate([
        np.flatnonzero(_ray.get(mask_refs[p])) * g.P + p
        for p in range(g.P)])
    assert sorted(alive.tolist()) == list(range(30, 38))



def test_hyperanf_checkpoint_resume(ray_session, tmp_path):
    """Interrupted HyperANF (rounds=3) resumes from the register
    shards and reaches the identical NF sequence as an uninterrupted
    run (the standard kernel resume contract)."""
    import numpy as np
    from leidenalg_ray.dist.blocks import DistGraph
    from leidenalg_ray.dist import superstep as ss

    src = np.arange(29, dtype=np.int64)
    dst = src + 1
    g = DistGraph.from_edges(src, dst, n=30, P=4,
                             both_directions=True)
    full, t_full = ss.hyperanf(g, rounds=8)
    part, t1 = ss.hyperanf(g, rounds=3, checkpoint=str(tmp_path))
    assert t1 == 3 and len(part) == 4
    assert np.array_equal(part, full[:4])
    res, t2 = ss.hyperanf(g, rounds=8, checkpoint=str(tmp_path))
    assert t2 == t_full
    assert np.array_equal(res, full)
