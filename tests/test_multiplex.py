"""Multiplex, temporal and bipartite paths (reference
functions.py:95-306, VertexPartition.py:950-1105)."""

import numpy as np

from leidenalg_ray import (
    CPMVertexPartition,
    Optimiser,
    find_partition_multiplex,
    find_partition_temporal,
    slices_to_layers,
)
from leidenalg_ray.graph import Graph

from .fixtures import bipartite8, erdos_renyi, lattice


def test_multiplex_identical_layers_match_single():
    g = erdos_renyi(60, 0.08, seed=3)
    mem, imp = find_partition_multiplex(
        [g, g], CPMVertexPartition, resolution_parameter=0.1, seed=2)
    assert len(mem) == g.n
    assert len(set(mem)) > 1


def test_bipartite_one_community():
    g, types = bipartite8()
    p01, p0, p1 = CPMVertexPartition.Bipartite(
        g, resolution_parameter_01=0.2, types=types)
    opt = Optimiser()
    opt.optimise_partition_multiplex([p01, p0, p1],
                                     layer_weights=[1, -1, -1])
    assert len(p01) == 1


def test_slices_to_layers_shapes():
    g1 = lattice(10, 1)
    g2 = lattice(10, 1)
    layers, inter, slice_of, id_of = slices_to_layers(
        [g1, g2], coupling_edges=[(0, 1, 1.0)])
    assert len(layers) == 2
    assert layers[0].n == 20
    assert layers[0].node_size.sum() == 10  # masked node sizes
    assert inter.ecount == 10  # common ids coupled
    assert inter.node_size.sum() == 0


def test_temporal_membership_coupled():
    g1 = lattice(100, 1)
    g2 = lattice(100, 1)
    mems, imp = find_partition_temporal(
        [g1, g2], CPMVertexPartition, interslice_weight=1,
        resolution_parameter=0.05, seed=3)
    assert len(mems) == 2 and len(mems[0]) == 100
    # strong coupling: most vertices share community across slices
    same = sum(1 for a, b in zip(mems[0], mems[1]) if a == b)
    assert same > 80


# ----------------------------------------------------------------------
# Distributed multiplex / temporal (DistLeiden with a layer column)
# ----------------------------------------------------------------------
def _canon(m):
    """Label-invariant canonical form of a membership vector."""
    m = np.asarray(m)
    first, nxt = {}, 0
    out = np.empty(len(m), np.int64)
    for i, c in enumerate(m.tolist()):
        if c not in first:
            first[c] = nxt
            nxt += 1
        out[i] = first[c]
    return out


def _planted_cliques(n, size, shift=0):
    src, dst = [], []
    for c in range(n // size):
        b = c * size
        for i in range(size):
            for j in range(i + 1, size):
                src.append((b + i + shift) % n)
                dst.append((b + j + shift) % n)
    return np.asarray(src, np.int64), np.asarray(dst, np.int64)


def test_dist_multiplex_matches_inmemory():
    """The distributed multiplex schedule (layer column, lambda_k
    deltas) reaches the same objective value as the in-memory
    optimise_partition_multiplex on a planted two-layer instance."""
    import ray.data as rd
    import pyarrow as pa
    from leidenalg_ray import find_partition_multiplex_dataset

    n = 120
    rng = np.random.default_rng(3)
    s0, d0 = _planted_cliques(n, 10)
    s1 = np.concatenate([s0, rng.integers(0, n, 40)])
    d1 = np.concatenate([d0, rng.integers(0, n, 40)])

    ds = [rd.from_arrow(pa.table({"src": pa.array(s),
                                  "dst": pa.array(d)}))
          for s, d in [(s0, d0), (s1, d1)]]
    mem, q, info, vids = find_partition_multiplex_dataset(
        ds, n=n, quality="cpm", resolution_parameter=[0.5, 0.3],
        layer_weights=[1.0, 0.7], P=4, seed=42)

    g0 = Graph(n, src=s0, dst=d0)
    g1 = Graph(n, src=s1, dst=d1)
    p0 = CPMVertexPartition(g0, resolution_parameter=0.5)
    p1 = CPMVertexPartition(g1, resolution_parameter=0.3)
    opt = Optimiser()
    opt.set_rng_seed(42)
    opt.optimise_partition_multiplex([p0, p1],
                                     layer_weights=[1.0, 0.7],
                                     n_iterations=-1)
    q_mem = 1.0 * p0.quality() + 0.7 * p1.quality()
    assert q >= q_mem - 1e-9
    assert abs(q - q_mem) < 1e-6


def test_dist_multiplex_layer_weights_steer():
    """Opposing layers: the dominant lambda decides the partition, so
    the per-layer weight plumbing demonstrably reaches the kernel."""
    import ray.data as rd
    import pyarrow as pa
    from leidenalg_ray import find_partition_multiplex_dataset

    n = 60
    sA, dA = _planted_cliques(n, 10)       # cliques at offset 0
    sB, dB = _planted_cliques(n, 10, 5)    # cliques shifted by 5

    ds = [rd.from_arrow(pa.table({"src": pa.array(s),
                                  "dst": pa.array(d)}))
          for s, d in [(sA, dA), (sB, dB)]]
    memA, _, _, _ = find_partition_multiplex_dataset(
        ds, n=n, quality="cpm", resolution_parameter=0.5,
        layer_weights=[1.0, 0.05], P=4, seed=42)
    memB, _, _, _ = find_partition_multiplex_dataset(
        ds, n=n, quality="cpm", resolution_parameter=0.5,
        layer_weights=[0.05, 1.0], P=4, seed=42)
    # layer A dominant -> v and v+1 in the same 10-block share a
    # community; layer B dominant -> the shifted blocks win
    a_pairs = sum(memA[i] == memA[i + 1] for i in range(0, n, 10))
    b_pairs = sum(memB[(i + 5) % n] == memB[(i + 6) % n]
                  for i in range(0, n, 10))
    assert a_pairs == 6 and b_pairs == 6
    assert not np.array_equal(_canon(memA), _canon(memB))


def test_dist_temporal_matches_inmemory():
    """find_partition_temporal_dataset reproduces the in-memory
    temporal partitions slice by slice (label-invariant) and keeps
    coupled labels persistent across slices."""
    import ray.data as rd
    import pyarrow as pa
    from leidenalg_ray import find_partition_temporal_dataset

    n = 60
    s0, d0 = _planted_cliques(n, 10)
    s2, d2 = _planted_cliques(n, 10, 5)
    graphs = [Graph(n, src=s, dst=d)
              for s, d in [(s0, d0), (s0, d0), (s2, d2)]]
    mems, imp = find_partition_temporal(
        graphs, CPMVertexPartition, interslice_weight=0.5,
        resolution_parameter=0.5, seed=42)

    dss = [rd.from_arrow(pa.table({"src": pa.array(s),
                                   "dst": pa.array(d)}))
           for s, d in [(s0, d0), (s0, d0), (s2, d2)]]
    dmem, q, info = find_partition_temporal_dataset(
        dss, n_nodes=n, quality="cpm", resolution_parameter=0.5,
        interslice_weight=0.5, P=4, seed=42)
    assert dmem.shape == (3, n)
    for t in range(3):
        assert np.array_equal(_canon(mems[t]), _canon(dmem[t]))
    # persistent labels across the identical coupled slices
    assert np.array_equal(dmem[0], dmem[1])


def test_dist_multiplex_mixed_qualities():
    """Heterogeneous per-layer qualities (modularity + cpm) run
    distributed and match the in-memory mixed-quality objective."""
    import ray.data as rd
    import pyarrow as pa
    from leidenalg_ray import (ModularityVertexPartition,
                               find_partition_multiplex_dataset)

    n = 80
    s0, d0 = _planted_cliques(n, 8)
    s1, d1 = _planted_cliques(n, 8)
    ds = [rd.from_arrow(pa.table({"src": pa.array(s),
                                  "dst": pa.array(d)}))
          for s, d in [(s0, d0), (s1, d1)]]
    mem, q, info, _ = find_partition_multiplex_dataset(
        ds, n=n, quality=["modularity", "cpm"],
        resolution_parameter=[1.0, 0.5], layer_weights=[1.0, 1.0],
        P=4, seed=42)
    g0 = Graph(n, src=s0, dst=d0)
    g1 = Graph(n, src=s1, dst=d1)
    p0 = ModularityVertexPartition(g0)
    p1 = CPMVertexPartition(g1, resolution_parameter=0.5)
    opt = Optimiser()
    opt.set_rng_seed(42)
    opt.optimise_partition_multiplex([p0, p1], layer_weights=[1, 1],
                                     n_iterations=-1)
    q_mem = p0.quality() + p1.quality()
    assert q >= q_mem - 1e-9
    assert abs(q - q_mem) < 1e-6


def test_resolution_profile_dataset_matches_inmemory():
    """The distributed resolution profile finds the same distinct
    (n_communities, bisect_value) steps as the in-memory bisection on
    planted cliques (reference Optimiser.py:661-861)."""
    import ray.data as rd
    import pyarrow as pa
    from leidenalg_ray import resolution_profile_dataset
    from leidenalg_ray.optimiser import Optimiser as Opt

    n = 60
    s, d = _planted_cliques(n, 10)
    ds = rd.from_arrow(pa.table({"src": pa.array(s),
                                 "dst": pa.array(d)}))
    prof = resolution_profile_dataset(ds, n=n, quality="cpm",
                                      resolution_range=(0.05, 2),
                                      P=4, seed=42)
    got = sorted({(p.n_communities(), round(p.bisect_value(), 6))
                  for p in prof})

    g = Graph(n, src=s, dst=d)
    opt = Opt()
    opt.set_rng_seed(42)
    ref = opt.resolution_profile(g, CPMVertexPartition,
                                 resolution_range=(0.05, 2))
    want = sorted({(p.n_communities(), round(p.bisect_value(), 6))
                   for p in ref})
    assert got == want == [(6, 270.0), (60, 0.0)]


def test_resolution_profile_dataset_spill_cleanup(tmp_path, monkeypatch):
    """The profile removes the ``lray_profile_*`` spill it made once it
    returns, and keeps a spill directory the caller passed in."""
    import os
    import tempfile

    import pyarrow as pa
    import ray.data as rd
    from leidenalg_ray import resolution_profile_dataset

    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    n = 30
    s, d = _planted_cliques(n, 10)
    ds = rd.from_arrow(pa.table({"src": pa.array(s),
                                 "dst": pa.array(d)}))
    prof = resolution_profile_dataset(ds, n=n, resolution_range=(0.05, 2),
                                      P=2, seed=42)
    assert prof
    assert not [e for e in os.listdir(tmp)
                if e.startswith("lray_profile_")]

    own = tmp_path / "spill"
    resolution_profile_dataset(ds, n=n, resolution_range=(0.05, 2), P=2,
                               seed=42, spill_dir=str(own))
    assert sorted(e for e in os.listdir(own) if e.startswith("part=")) \
        == ["part=0", "part=1"]


def test_from_dataset_infers_layer_count():
    """A bare ``layer`` column (no n_layers / per-layer lists) must
    make the graph multiplex — previously L stayed 1 and shard actors
    crashed with an out-of-bounds IndexError on the first gather."""
    import pyarrow as pa
    import ray.data as rd
    from leidenalg_ray.dist.leiden import DistLeiden

    n = 60
    s0, d0 = _planted_cliques(n, 10)
    s1, d1 = _planted_cliques(n, 10, 5)
    t = pa.table({
        "src": pa.array(np.concatenate([s0, s1])),
        "dst": pa.array(np.concatenate([d0, d1])),
        "layer": pa.array(np.r_[np.zeros(len(s0), np.int64),
                                np.ones(len(s1), np.int64)]),
    })
    dl = DistLeiden.from_dataset(rd.from_arrow(t), n=n, quality="cpm",
                                 resolution_parameter=0.5, P=4, seed=7)
    assert dl.L == 2
    mem, q, info = dl.run(n_iterations=3)
    assert len(mem) == n and q > 0


def test_enforcement_without_min_size_is_plain_leiden():
    """enforcement > 0 with min_comm_size == 0 applies no kernel bonus,
    so the driver must keep rollback/convergence active (normalised to
    enforcement 0) — identical result to the unconstrained run."""
    from leidenalg_ray.dist.leiden import DistLeiden

    n = 60
    s, d = _planted_cliques(n, 10)
    kw = dict(n=n, directed=False, quality="cpm",
              resolution_parameter=0.5, P=4, seed=11)
    base = DistLeiden(s, d, **kw)
    noop = DistLeiden(s, d, community_constraint_enforcement=5.0, **kw)
    assert noop.enforcement == 0.0
    m1, q1, _ = base.run(n_iterations=-1)
    m2, q2, _ = noop.run(n_iterations=-1)
    assert abs(q1 - q2) < 1e-12
    assert np.array_equal(_canon(m1), _canon(m2))


def test_bipartite_distributed_matches_inmemory():
    """DistLeiden.bipartite (3 CPM layers, class-masked node sizes,
    layer weights [1,-1,-1] through the shard kernel) reaches the
    in-memory CPMVertexPartition.Bipartite + optimise_partition_
    multiplex quality on the same graph, for both unit and
    degree-as-node-size masses (reference
    VertexPartition.py:950-1105)."""
    import numpy as np
    import pytest

    from leidenalg_ray.dist.leiden import DistLeiden

    g, types = bipartite8()
    for g01, deg in ((0.2, False), (0.1, True)):
        dl = DistLeiden.bipartite(g.src, g.dst, types=np.array(types),
                                  n=8, resolution_parameter_01=g01,
                                  degree_as_node_size=deg, P=4, seed=3)
        mem, q, info = dl.run()
        p01, p0, p1 = CPMVertexPartition.Bipartite(
            g, resolution_parameter_01=g01, types=types,
            degree_as_node_size=deg)
        opt = Optimiser()
        opt.set_rng_seed(3)
        opt.optimise_partition_multiplex([p01, p0, p1],
                                         layer_weights=[1, -1, -1])
        q_in = p01.quality() - p0.quality() - p1.quality()
        assert q == pytest.approx(q_in, abs=1e-9)
        assert len(set(mem.tolist())) == len(p01)


def test_bipartite_from_dataset(ray_session):
    """Dataset-native bipartite construction: same fixed point as the
    array path, degree strengths from streaming bincount partials."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from leidenalg_ray.dist.leiden import DistLeiden

    g, types = bipartite8()
    ds = rd.from_arrow(pa.table({"src": pa.array(g.src),
                                 "dst": pa.array(g.dst)}))
    dl = DistLeiden.bipartite_from_dataset(
        ds, types=np.array(types), n=8, resolution_parameter_01=0.1,
        degree_as_node_size=True, P=4, seed=3)
    mem, q, info = dl.run()
    dl2 = DistLeiden.bipartite(g.src, g.dst, types=np.array(types),
                               n=8, resolution_parameter_01=0.1,
                               degree_as_node_size=True, P=4, seed=3)
    mem2, q2, _ = dl2.run()
    assert q == pytest.approx(q2, abs=1e-12)
    assert np.array_equal(mem, mem2)


def test_temporal_dataset_membership_out(tmp_path, ray_session):
    """find_partition_temporal_dataset(membership_out=): shards write
    union-space (vid, comm) parquet (slice = vid // n, node = vid % n)
    and the returned memberships are None; labels equal the gathered
    run bit for bit."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from leidenalg_ray.functions_api import (
        find_partition_temporal_dataset)

    n = 40
    ii, jj = np.triu_indices(10, k=1)
    src = np.concatenate([b + ii for b in range(0, n, 10)])
    dst = np.concatenate([b + jj for b in range(0, n, 10)])
    ds = rd.from_arrow(pa.table({"src": pa.array(src),
                                 "dst": pa.array(dst)}))
    mems, q, info = find_partition_temporal_dataset(
        [ds, ds], n_nodes=n, quality="cpm", resolution_parameter=0.5,
        interslice_weight=0.5, P=4, seed=3)
    out = str(tmp_path / "tc")
    none_mem, q2, info2 = find_partition_temporal_dataset(
        [ds, ds], n_nodes=n, quality="cpm", resolution_parameter=0.5,
        interslice_weight=0.5, P=4, seed=3, membership_out=out)
    assert none_mem is None
    assert q2 == q
    t = pads.dataset(out).to_table().sort_by("vid")
    vid = t["vid"].to_numpy()
    comm = t["comm"].to_numpy()
    assert len(vid) == 2 * n
    got = np.empty((2, n), dtype=np.int64)
    got[vid // n, vid % n] = comm
    assert np.array_equal(got, mems)
