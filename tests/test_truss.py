"""k-truss: serial peel oracle, planted structure, P-invariance."""

import numpy as np

from leidenalg_ray.dist.truss import edge_supports, k_truss


def _serial_ktruss(edges, k):
    edges = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    while True:
        adj = {}
        for x, y in edges:
            adj.setdefault(x, set()).add(y)
            adj.setdefault(y, set()).add(x)
        drop = {e for e in edges
                if len(adj[e[0]] & adj[e[1]]) < k - 2}
        if not drop:
            return edges
        edges -= drop


def test_edge_supports_matches_serial():
    rng = np.random.default_rng(7)
    n, m = 60, 260
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    nl = src != dst
    a = np.minimum(src[nl], dst[nl])
    b = np.maximum(src[nl], dst[nl])
    keys = np.unique(a * np.int64(n) + b)
    a, b = (keys // n).astype(np.int64), (keys % n).astype(np.int64)
    sup = edge_supports(a, b, n, P=3)
    adj = {}
    for x, y in zip(a.tolist(), b.tolist()):
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    exp = np.array([len(adj[x] & adj[y])
                    for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(sup, exp)


def test_k_truss_planted_clique():
    # an 8-clique (every edge support 6) + a long path: the 5-truss
    # is exactly the clique
    ii, jj = np.triu_indices(8, k=1)
    path_a = np.arange(8, 40)
    path_b = np.arange(9, 41)
    src = np.concatenate([ii, path_a, [0]])
    dst = np.concatenate([jj, path_b, [8]])
    a, b, _ = k_truss(src, dst, 41, k=5, P=2)
    assert len(a) == 28
    assert set(zip(a.tolist(), b.tolist())) == \
        set(zip(ii.tolist(), jj.tolist()))


def test_k_truss_matches_serial_and_invariant():
    rng = np.random.default_rng(9)
    n, m = 80, 600
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    exp = _serial_ktruss(list(zip(src.tolist(), dst.tolist())), 4)
    outs = []
    for P in (2, 5):
        a, b, _ = k_truss(src, dst, n, k=4, P=P)
        outs.append(set(zip(a.tolist(), b.tolist())))
    assert outs[0] == outs[1] == exp


def test_k_truss_partitioned_matches_broadcast():
    from leidenalg_ray.dist.truss import k_truss_partitioned
    rng = np.random.default_rng(13)
    n, m = 100, 900
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    for k in (4, 6):
        a1, b1, _ = k_truss(src, dst, n, k=k, P=3)
        a2, b2, _ = k_truss_partitioned(src, dst, n, k=k, K=3)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    # K-invariance, one bucket included
    a1, b1, _ = k_truss(src, dst, n, k=4, P=2)
    for K in (1, 5):
        a3, b3, _ = k_truss_partitioned(src, dst, n, k=4, K=K)
        assert np.array_equal(a1, a3) and np.array_equal(b1, b3)


def test_edge_jaccard_matches_bruteforce():
    """support/(deg_a+deg_b-support) over edge_supports == set-based
    neighborhood Jaccard (igraph similarity_jaccard semantics for
    adjacent pairs)."""
    rng = np.random.default_rng(5)
    n = 40
    s = rng.integers(0, n, 300)
    d = rng.integers(0, n, 300)
    m = s != d
    lo, hi = np.minimum(s[m], d[m]), np.maximum(s[m], d[m])
    keys = np.unique(lo * np.int64(n) + hi)
    a, b = keys // n, keys % n
    sup = edge_supports(a, b, n)
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    nbr = [set() for _ in range(n)]
    for x, y in zip(a, b):
        nbr[x].add(y)
        nbr[y].add(x)
    for i in range(len(a)):
        inter = len(nbr[a[i]] & nbr[b[i]])
        union = len(nbr[a[i]] | nbr[b[i]])
        assert sup[i] == inter
        assert deg[a[i]] + deg[b[i]] - sup[i] == union
