"""Frontier supersteps (``_changes`` in ``dist/superstep.py``): every
kernel that cuts its gathers to the edges whose message can change
gives the outputs and superstep counts of a dense numpy replay that
gathers every edge, at P = 1, 3 and 4. Also the block build of
``DistGraph.from_edges(both_directions=True)`` against the
driver-side concatenation it replaced, and the spill directory of
``DistGraph.from_dataset``."""

import os

import numpy as np
import pytest
import ray

from leidenalg_ray.dist import superstep as ss
from leidenalg_ray.dist.blocks import DistGraph, _build_block

PARTITIONS = (1, 3, 4)
BIG = np.iinfo(np.int64).max


def _hub_graph():
    """Seeded random graph with a hub (vertex 0 joined to 25 others),
    self-loops, duplicate edges, random float weights, an isolated
    vertex, a lone edge (58, 59) and a pair 56, 57 joined both ways,
    whose labels swap forever under synchronous label propagation."""
    rng = np.random.default_rng(7)
    n = 61                                     # vertex 60: no edge
    src = np.concatenate([rng.integers(1, 56, 90), np.zeros(25, np.int64),
                          [4, 4, 11, 56, 57, 58]])
    dst = np.concatenate([rng.integers(1, 56, 90),
                          rng.choice(np.arange(1, 56), 25, replace=False),
                          [4, 17, 11, 57, 56, 59]])
    w = rng.uniform(0.1, 2.0, len(src))
    return src, dst, w, n


def _both(src, dst, w):
    """The message rows of a both-directions build, in its order."""
    nl = src != dst
    return (np.concatenate([src, dst[nl]]), np.concatenate([dst, src[nl]]),
            np.concatenate([w, w[nl]]))


def _settle(step, state, max_iter=10_000):
    """``state`` stepped until a superstep changes nothing (that
    superstep counted) or ``max_iter``: (state, supersteps)."""
    for it in range(1, max_iter + 1):
        new = step(state)
        same = np.array_equal(new, state)
        state = new
        if same:
            return state, it
    return state, max_iter


def _min_step(s, d, per_edge):
    def step(x):
        new = x.copy()
        np.minimum.at(new, d, per_edge(x[s]))
        return new
    return step


def _hops(x):
    return np.where(x == BIG, BIG, x + 1)


def _lp_step(s, d, w, n):
    """Synchronous plurality over the message rows s -> d (ties:
    lowest label; a vertex with no row keeps its label), dense."""
    W = np.zeros((n, n))
    np.add.at(W, (d, s), w)
    has_row = np.bincount(d, minlength=n) > 0

    def step(label):
        onehot = np.zeros((n, n))
        onehot[np.arange(n), label] = 1.0
        tot = W @ onehot
        return np.where(has_row, tot.argmax(axis=1), label)
    return step


def _graphs(P):
    src, dst, w, n = _hub_graph()
    return (DistGraph.from_edges(src, dst, w, n=n, P=P,
                                 both_directions=True),
            DistGraph.from_edges(src, dst, w, n=n, P=P))


@pytest.fixture(scope="module", params=PARTITIONS)
def graphs(request):
    return request.param, _graphs(request.param)


def test_min_max_kernels_match_full_replay(graphs):
    """Push frontier: CC, BFS, SSSP and multi-source BFS on the
    undirected blocks, DAG depth on a forward DAG."""
    P, (g2, _) = graphs
    src, dst, w, n = _hub_graph()
    s2, d2, w2 = _both(src, dst, w)

    comp, it = ss.connected_components(g2)
    want, want_it = _settle(_min_step(s2, d2, lambda x: x),
                            np.arange(n, dtype=np.int64))
    assert np.array_equal(comp, want) and it == want_it

    seeds = np.full(n, BIG, dtype=np.int64)
    seeds[[0, 58]] = 0
    dist, it = ss.bfs_distances(g2, [0, 58])
    want, want_it = _settle(_min_step(s2, d2, _hops), seeds)
    assert np.array_equal(dist, want) and it == want_it

    start = np.full(n, np.inf)
    start[3] = 0.0
    dist, it = ss.sssp(g2, [3])
    want, want_it = _settle(_min_step(s2, d2, lambda x: x + w2), start)
    assert np.array_equal(dist, want) and it == want_it

    sources = [0, 3, 58]
    plane = np.full((n, len(sources)), BIG, dtype=np.int64)
    plane[sources, np.arange(len(sources))] = 0
    dist, it = ss.multi_bfs(g2, sources)
    want, want_it = _settle(_min_step(s2, d2, _hops), plane)
    assert np.array_equal(dist, want.T) and it == want_it

    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    dag = DistGraph.from_edges(lo[lo != hi], hi[lo != hi], n=n, P=P)

    def deeper(x):
        new = x.copy()
        np.maximum.at(new, hi[lo != hi], x[lo[lo != hi]] + 1)
        return new
    depth, it = ss.dag_longest_path(dag)
    want, want_it = _settle(deeper, np.zeros(n, dtype=np.int64))
    assert np.array_equal(depth, want) and it == want_it


@pytest.mark.parametrize("weighted", [True, False])
def test_label_propagation_matches_full_replay(graphs, weighted):
    """Pull frontier, undirected and directed blocks. The labels of
    the pair 56, 57 (joined both ways) swap every superstep, so the
    frontier never empties and every run stops at ``max_iter``."""
    P, (g2, g1) = graphs
    src, dst, w, n = _hub_graph()
    w = w if weighted else np.ones(len(src))
    for g, rows in ((g2, _both(src, dst, w)), (g1, (src, dst, w))):
        step = _lp_step(*rows, n)
        for max_iter in (1, 2, 9):
            lab, it = ss.label_propagation(g, max_iter=max_iter,
                                           weighted=weighted)
            want, want_it = _settle(step, np.arange(n), max_iter)
            assert np.array_equal(lab, want) and it == want_it
            assert it == max_iter and lab[56] == (56, 57)[max_iter % 2]


def test_hyperanf_matches_full_replay(graphs):
    """Push frontier through ``hyperanf``'s own step (the NF prefix)."""
    P, (g2, _) = graphs
    src, dst, w, n = _hub_graph()
    s2, d2, _ = _both(src, dst, w)
    active = np.bincount(np.r_[src, dst], minlength=n) > 0
    reg = ss._hll_init(active, 0, 1)
    nf = [int(ss._hll_est_q(reg).sum())]
    rounds = 0
    for rounds in range(1, 9):
        new = reg.copy()
        np.maximum.at(new, d2, reg[s2])
        nf.append(int(ss._hll_est_q(new).sum()))
        same = np.array_equal(new, reg)
        reg = new
        if same:
            break
    nf_q, t = ss.hyperanf(g2, rounds=8)
    assert nf_q.tolist() == nf and t == rounds


@pytest.mark.parametrize("P", PARTITIONS)
@pytest.mark.parametrize("weighted", [True, False])
def test_from_edges_both_directions_blocks(P, weighted):
    """Blocks, out-degrees and out-strengths built inside the tasks are
    bit-identical to ``_build_block`` over the doubled arrays."""
    src, dst, w, n = _hub_graph()
    g = DistGraph.from_edges(src, dst, w if weighted else None, n=n, P=P,
                             both_directions=True)
    s2, d2, w2 = _both(src, dst, w if weighted else np.ones(len(src)))
    for p in range(P):
        m = s2 % P == p
        want = _build_block(s2[m], d2[m], w2[m], P)
        got = ray.get(g.blocks[p])
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key].dtype == want[key].dtype
            assert np.array_equal(got[key], want[key])
        size = g.sizes[p]
        assert np.array_equal(ray.get(g.out_deg[p]),
                              np.bincount(s2[m] // P, minlength=size))
        strength = np.zeros(size)
        np.add.at(strength, s2[m] // P, w2[m])
        assert np.array_equal(ray.get(g.out_strength[p]), strength)


def test_from_dataset_spill_dir(tmp_path, monkeypatch):
    """A spill directory ``from_dataset`` makes itself is removed once
    the blocks are built; a caller's ``spill_dir`` is left in place."""
    import tempfile

    import pyarrow as pa
    import ray.data as rd

    src, dst, w, n = _hub_graph()
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    ds = rd.from_arrow(pa.table({"src": src, "dst": dst, "weight": w}))
    g = DistGraph.from_dataset(ds, n=n, P=3)
    assert not [d for d in os.listdir(scratch)
                if d.startswith("lray_edges_")]
    assert g.total_edges() == len(src)
    own = tmp_path / "own"
    DistGraph.from_dataset(ds, n=n, P=3, spill_dir=str(own))
    assert any(d.startswith("part=") for d in os.listdir(own))
