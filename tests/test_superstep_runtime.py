"""The superstep runtime (``dist/superstep.py``): resuming every
checkpointed kernel from the middle of a run, superstep counts,
partition-count invariance (P = 1 included) and partition-count
validation."""

import numpy as np
import pytest

from leidenalg_ray.dist import superstep as ss
from leidenalg_ray.dist.blocks import DistGraph


def _graphs(P):
    """(undirected weighted, DAG, directed) views of one small graph:
    a 40-vertex path glued to a random part, so every fixed-point
    kernel needs several supersteps."""
    rng = np.random.default_rng(11)
    n = 120
    path = np.arange(39)
    src = np.concatenate([path, rng.integers(40, n, 150), [5, 39]])
    dst = np.concatenate([path + 1, rng.integers(40, n, 150), [60, 40]])
    w = rng.random(len(src)) + 0.5
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    return (DistGraph.from_edges(src, dst, weight=w, n=n, P=P,
                                 both_directions=True),
            DistGraph.from_edges(lo[keep], hi[keep], n=n, P=P),
            DistGraph.from_edges(src, dst, n=n, P=P))


# name -> (run(graphs, max_iter, checkpoint) -> (result, steps), the
# full run's max_iter)
CHECKPOINTED = {
    "pagerank": (lambda gs, it, ck: ss.pagerank(
        gs[2], tol=1e-10, max_iter=it, checkpoint=ck), 200),
    "connected_components": (lambda gs, it, ck: ss.connected_components(
        gs[0], max_iter=it, checkpoint=ck), 10_000),
    "bfs_distances": (lambda gs, it, ck: ss.bfs_distances(
        gs[0], [0, 70], max_iter=it, checkpoint=ck), 10_000),
    "sssp": (lambda gs, it, ck: ss.sssp(
        gs[0], [0], max_iter=it, checkpoint=ck), 10_000),
    "dag_longest_path": (lambda gs, it, ck: ss.dag_longest_path(
        gs[1], max_iter=it, checkpoint=ck), 10_000),
    "kcore": (lambda gs, it, ck: ss.kcore(
        gs[0], 2, max_iter=it, checkpoint=ck), 10_000),
    "label_propagation": (lambda gs, it, ck: ss.label_propagation(
        gs[0], max_iter=it, weighted=False, checkpoint=ck), 40),
    "hyperanf": (lambda gs, it, ck: ss.hyperanf(
        gs[0], rounds=it, checkpoint=ck), 12),
}


@pytest.fixture(scope="module")
def graphs_p4():
    return _graphs(4)


@pytest.mark.parametrize("name", sorted(CHECKPOINTED))
def test_resume_from_mid_run(name, graphs_p4, tmp_path):
    """Stopped after k supersteps, then resumed with the full
    ``max_iter``: bit-identical to the uninterrupted run, with the
    same superstep count."""
    run, full_iter = CHECKPOINTED[name]
    full, steps = run(graphs_p4, full_iter, None)
    k = 2
    assert steps > k
    ck = str(tmp_path)
    if name == "dag_longest_path":
        # an unconverged DAG run raises, after checkpointing its steps
        with pytest.raises(RuntimeError, match="cycle"):
            run(graphs_p4, k, ck)
    else:
        _, partial_steps = run(graphs_p4, k, ck)
        assert partial_steps == k
    resumed, resumed_steps = run(graphs_p4, full_iter, ck)
    assert resumed_steps == steps
    assert resumed.dtype == full.dtype
    assert np.array_equal(resumed, full)


def test_superstep_count_is_supersteps_completed(graphs_p4, tmp_path):
    """``max_iter=0`` runs no superstep and reports 0; a resume whose
    checkpoint is already past ``max_iter`` reports the checkpoint's
    step instead of running or counting more."""
    und, _, directed = graphs_p4
    assert ss.connected_components(und, max_iter=0)[1] == 0
    assert ss.pagerank(directed, max_iter=0)[1] == 0
    cc_ck, pr_ck = str(tmp_path / "cc"), str(tmp_path / "pr")
    assert ss.connected_components(und, max_iter=3,
                                   checkpoint=cc_ck)[1] == 3
    assert ss.connected_components(und, max_iter=1,
                                   checkpoint=cc_ck)[1] == 3
    assert ss.pagerank(directed, tol=1e-10, max_iter=3,
                       checkpoint=pr_ck)[1] == 3
    assert ss.pagerank(directed, tol=1e-10, max_iter=1,
                       checkpoint=pr_ck)[1] == 3


@pytest.fixture(scope="module")
def by_partitions():
    return {P: _graphs(P) for P in (1, 3, 4)}


# integer kernels: equal at every P
EXACT = {
    "connected_components": lambda gs: ss.connected_components(gs[0])[0],
    "bfs_distances": lambda gs: ss.bfs_distances(gs[0], [0, 70])[0],
    "kcore": lambda gs: ss.kcore(gs[0], 2)[0],
    "dag_longest_path": lambda gs: ss.dag_longest_path(gs[1])[0],
    "label_propagation": lambda gs: ss.label_propagation(
        gs[0], max_iter=40, weighted=False)[0],
    "hyperanf": lambda gs: ss.hyperanf(gs[0], rounds=12)[0],
}
# float kernels: equal to rounding
CLOSE = {
    "pagerank": lambda gs: ss.pagerank(gs[2], tol=1e-10)[0],
    "sssp": lambda gs: ss.sssp(gs[0], [0])[0],
}


@pytest.mark.parametrize("name", sorted(EXACT) + sorted(CLOSE))
def test_partition_count_invariance(name, by_partitions):
    """The same graph at P = 1, 3 and 4 gives the same answer."""
    run = EXACT.get(name) or CLOSE[name]
    base = run(by_partitions[1])
    for P in (3, 4):
        got = run(by_partitions[P])
        if name in EXACT:
            assert np.array_equal(got, base), P
        else:
            assert np.allclose(got, base, rtol=1e-12, atol=0), P


def _flat(x):
    """Kernel outputs (arrays, tuples, dicts) as a list of arrays."""
    if isinstance(x, dict):
        return [np.asarray(x[k]) for k in sorted(x)]
    if isinstance(x, (tuple, list)):
        return [a for v in x for a in _flat(v)]
    return [np.asarray(x)]


# every other exchange kernel: one partition must match three
OTHER = {
    "katz": lambda u, r, d: ss.katz(d, iters=5),
    "hits": lambda u, r, d: ss.hits(d, r, iters=5),
    "salsa": lambda u, r, d: ss.salsa(d, r, iters=5),
    "eigenvector_centrality": lambda u, r, d: ss.eigenvector_centrality(
        u, iters=5),
    "wl_refinement": lambda u, r, d: ss.wl_refinement(u),
    "label_propagation_seeded": lambda u, r, d:
        ss.label_propagation_seeded(u, [0, 70], [10, 20], iters=5,
                                    weighted=False),
    "scc": lambda u, r, d: ss.scc(d, r),
    "luby_mis": lambda u, r, d: ss.luby_mis(u),
    "mis_coloring": lambda u, r, d: ss.mis_coloring(u),
    "maximal_matching": lambda u, r, d: ss.maximal_matching(u),
    "random_walks": lambda u, r, d: ss.random_walks(d, [0, 41, 70], 4),
    "node2vec_walks": lambda u, r, d: ss.node2vec_walks(
        d, [0, 41, 70], 4, 1, 2, 3),
    "multi_bfs": lambda u, r, d: ss.multi_bfs(u, [0, 70]),
    "spath_counts": lambda u, r, d: ss.spath_counts(u, 70),
    "betweenness": lambda u, r, d: ss.betweenness(u, [0, 70]),
    "pagerank_batch": lambda u, r, d: ss.pagerank_batch(
        d, [[0], [41, 70]], max_iter=5),
    "hitting_time": lambda u, r, d: ss.hitting_time(u, [0], iters=5),
    "hyperball_harmonic": lambda u, r, d: ss.hyperball_harmonic(
        u, rounds=4),
    "onion_layers": lambda u, r, d: ss.onion_layers(u),
    "densest_subgraph": lambda u, r, d: ss.densest_subgraph(u)[0],
    "coreness": lambda u, r, d: ss.coreness(u, [2, 3]),
}


@pytest.fixture(scope="module")
def loop_free():
    """Loop-free graphs at P = 1 and 3."""
    rng = np.random.default_rng(5)
    n = 90
    src, dst = rng.integers(0, n, 220), rng.integers(0, n, 220)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return {P: (DistGraph.from_edges(src, dst, n=n, P=P,
                                     both_directions=True),
                DistGraph.from_edges(dst, src, n=n, P=P),
                DistGraph.from_edges(src, dst, n=n, P=P))
            for P in (1, 3)}


@pytest.mark.parametrize("name", sorted(OTHER))
def test_single_partition_matches_three(name, loop_free):
    """Every exchange kernel runs at P=1 (a one-output gather task
    stores its return value whole) and agrees with P=3."""
    one = _flat(OTHER[name](*loop_free[1]))
    three = _flat(OTHER[name](*loop_free[3]))
    assert len(one) == len(three)
    for a, b in zip(one, three):
        if a.dtype.kind == "f":
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)
        else:
            assert np.array_equal(a, b)


@pytest.mark.parametrize("P", [1, 2, 3])
def test_luby_kernels_skip_self_loops(P):
    """A vertex is not its own neighbour: on ``0-1, 1-2, 2-2`` the
    Luby MIS and the MIS-layer colouring terminate with a valid
    answer, the looped vertex included."""
    src, dst = np.array([0, 1, 2]), np.array([1, 2, 2])
    g = DistGraph.from_edges(src, dst, n=3, P=P, both_directions=True)
    state, rounds = ss.luby_mis(g)
    assert rounds < 64
    mis = state == 1
    assert set(state.tolist()) <= {1, 2}
    assert not (mis[:2] & mis[1:]).any()          # independent
    assert mis[0] or mis[1]                       # 0 is covered
    assert mis[1] or mis[2]                       # 2 is covered
    colors, n_colors = ss.mis_coloring(g)
    assert (colors >= 0).all() and n_colors == 2
    assert colors[0] != colors[1] and colors[1] != colors[2]


@pytest.mark.parametrize("P", [0, -2])
def test_partition_count_below_one_rejected(P):
    """P < 1 builds no block; both constructors refuse it instead of
    handing kernels an empty graph."""
    import ray.data as rd

    with pytest.raises(ValueError, match="P must be >= 1"):
        DistGraph.from_edges([0, 1], [1, 2], n=5, P=P)
    ds = rd.from_items([{"src": 0, "dst": 1}])
    with pytest.raises(ValueError, match="P must be >= 1"):
        DistGraph.from_dataset(ds, n=5, P=P)
