"""Independent checks of the engine's outputs.

Every check recomputes what it needs from the raw inputs with numpy or
DuckDB and never calls into ``leidenalg_ray``, so a fault in the engine
cannot hide itself. Each returns a list of problems (empty when the
output is correct), so a caller can report them all at once.
"""

from __future__ import annotations

import numpy as np


def _fail(problems, msg):
    problems.append(msg)
    return problems


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
def pagerank_residual(src, dst, n, rank, damping=0.85):
    """L1 norm of ``T(rank) - rank`` where T is one PageRank step over
    the edge rows (multi-edges count with multiplicity, out-degree is
    the row count, dangling mass spread uniformly)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    contrib = np.zeros(n)
    nz = outdeg > 0
    contrib[nz] = rank[nz] / outdeg[nz]
    incoming = np.bincount(dst, weights=contrib[src], minlength=n)
    dangling = float(rank[~nz].sum())
    new = (1.0 - damping) / n + damping * (incoming + dangling / n)
    return float(np.abs(new - rank).sum())


def check_pagerank(src, dst, n, rank, tol, damping=0.85):
    """Ranks sum to 1 and the fixed-point residual is within ``tol``.
    The kernel stops once one step moves the vector by less than tol in
    L1; PageRank is a damping-contraction in L1, so the residual of the
    returned vector is below damping * tol (plus rounding)."""
    problems = []
    rank = np.asarray(rank, dtype=np.float64)
    if len(rank) != n:
        return _fail(problems, f"pagerank: {len(rank)} ranks for n={n}")
    if not np.all(np.isfinite(rank)) or rank.min() < 0:
        _fail(problems, "pagerank: negative or non-finite rank")
    total = float(rank.sum())
    if abs(total - 1.0) > 1e-9:
        _fail(problems, f"pagerank: ranks sum to {total!r}, not 1")
    res = pagerank_residual(src, dst, n, rank, damping)
    if res > tol + 1e-12:
        _fail(problems, f"pagerank: residual {res:.3e} > tol {tol:.1e}")
    return problems


# ----------------------------------------------------------------------
# Connected components
# ----------------------------------------------------------------------
def union_find_roots(src, dst, n):
    """Smallest vid of each vertex's component, by pointer-jumping
    union-find over the edge arrays (vectorised min-hooking)."""
    parent = np.arange(n, dtype=np.int64)
    a = np.asarray(src, dtype=np.int64)
    b = np.asarray(dst, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        lo = np.minimum(ra, rb)
        hi = np.maximum(ra, rb)
        m = lo != hi
        if not m.any():
            break
        np.minimum.at(parent, hi[m], lo[m])
        # full path compression
        while True:
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
    return parent


def check_components(src, dst, n, labels, roots=None):
    """Every edge joins equal labels, each label is the smallest vid in
    its component, and the component count matches a union-find."""
    problems = []
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != n:
        return _fail(problems, f"cc: {len(labels)} labels for n={n}")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if np.any(labels[src] != labels[dst]):
        _fail(problems, "cc: an edge joins two different labels")
    if labels.min() < 0 or labels.max() >= n:
        return _fail(problems, "cc: label outside [0, n)")
    smallest = np.full(n, n, dtype=np.int64)
    np.minimum.at(smallest, labels, np.arange(n))
    used = np.unique(labels)
    if np.any(smallest[used] != used):
        _fail(problems, "cc: a label is not the smallest vid it holds")
    if roots is None:
        roots = union_find_roots(src, dst, n)
    want = len(np.unique(roots))
    if len(used) != want:
        _fail(problems, f"cc: {len(used)} components, union-find "
                        f"finds {want}")
    return problems


# ----------------------------------------------------------------------
# Label propagation
# ----------------------------------------------------------------------
def replay_label_propagation(src, dst, n, rounds, weight=None):
    """Synchronous label propagation over directed message rows
    src -> dst: each vertex with incoming rows adopts the label of
    highest total row weight (ties: lowest label); a vertex without
    incoming rows keeps its label. Runs exactly ``rounds`` rounds."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.ones(len(src)) if weight is None else np.asarray(weight, float)
    label = np.arange(n, dtype=np.int64)
    for _ in range(rounds):
        # total weight per (dst, label), sorted by dst then label
        key = dst * n + label[src]
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        if len(starts) == 0:
            break
        tot = np.add.reduceat(w[order], starts)
        d, lb = key[starts] // n, key[starts] % n
        # per dst: the first (lowest) label whose total is the maximum
        group = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        best = np.repeat(np.maximum.reduceat(tot, group),
                         np.diff(np.r_[group, len(d)]))
        cand = np.flatnonzero(tot == best)
        first = cand[np.r_[True, d[cand][1:] != d[cand][:-1]]]
        label = label.copy()
        label[d[first]] = lb[first]
    return label


def check_label_propagation(replayed, labels):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != replayed.shape:
        return [f"lp: {len(labels)} labels, replay has {len(replayed)}"]
    bad = int((labels != replayed).sum())
    return [f"lp: {bad} labels differ from the replay"] if bad else []


# ----------------------------------------------------------------------
# Triangles
# ----------------------------------------------------------------------
def count_triangles(src, dst):
    """Triangles of the simple undirected graph under the edge rows
    (loops dropped, duplicates and reversed copies merged), counted by
    a DuckDB three-way self-join over the canonical (a < b) edges."""
    import duckdb
    import pyarrow as pa

    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    e = pa.table({"a": np.minimum(src, dst), "b": np.maximum(src, dst)})
    con = duckdb.connect()
    try:
        con.register("raw", e)
        con.execute("CREATE TABLE e AS SELECT DISTINCT a, b FROM raw "
                    "WHERE a < b")
        return int(con.execute(
            "SELECT count(*) FROM e e1 JOIN e e2 ON e1.b = e2.a "
            "JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b").fetchone()[0])
    finally:
        con.close()


def check_triangles(want, got):
    return [] if int(got) == int(want) else \
        [f"triangles: engine {got}, recount {want}"]


# ----------------------------------------------------------------------
# Co-occurrence graph
# ----------------------------------------------------------------------
def co_graph_sql(lineitem_path):
    """(a, b, weight) of the part co-occurrence graph by a DuckDB
    self-join on l_orderkey, sorted by (a, b)."""
    import duckdb

    con = duckdb.connect()
    try:
        df = con.execute(
            "SELECT l1.l_partkey AS a, l2.l_partkey AS b, "
            "count(*)::DOUBLE AS weight "
            f"FROM read_parquet('{lineitem_path}') l1 "
            f"JOIN read_parquet('{lineitem_path}') l2 "
            "ON l1.l_orderkey = l2.l_orderkey "
            "WHERE l1.l_partkey < l2.l_partkey "
            "GROUP BY 1, 2 ORDER BY 1, 2").fetchnumpy()
    finally:
        con.close()
    return (df["a"].astype(np.int64), df["b"].astype(np.int64),
            df["weight"].astype(np.float64))


def check_co_graph(want, got):
    a0, b0, w0 = want
    a, b, w = (np.asarray(x) for x in got)
    order = np.lexsort((b, a))
    a, b, w = a[order], b[order], w[order]
    if len(a) != len(a0):
        return [f"co graph: {len(a)} edges, DuckDB finds {len(a0)}"]
    if not (np.array_equal(a, a0) and np.array_equal(b, b0)):
        return ["co graph: edge set differs from the DuckDB self-join"]
    if not np.array_equal(w, w0):
        return ["co graph: weights differ from the DuckDB self-join"]
    return []


# ----------------------------------------------------------------------
# Leiden (CPM)
# ----------------------------------------------------------------------
def cpm_quality(src, dst, weight, membership, gamma):
    """Undirected CPM: 2 * sum_c [W_c - gamma * pe(n_c)], W_c the
    internal weight counting each edge row once, pe(s) = s(s-1)/2, or
    s^2/2 when the graph has a self-loop (the reference's loop
    correction)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    mem = np.asarray(membership, dtype=np.int64)
    w = np.asarray(weight, dtype=np.float64)
    internal = mem[src] == mem[dst]
    w_in = float(w[internal].sum())
    sizes = np.bincount(mem).astype(np.float64)
    loops = bool(np.any(src == dst))
    pe = sizes * sizes / 2 if loops else sizes * (sizes - 1) / 2
    return 2.0 * (w_in - gamma * float(pe.sum()))


def check_leiden(src, dst, weight, n, membership, quality, gamma,
                 ordered=True):
    """Membership covers n vertices, CPM recomputed from it equals the
    reported quality, every community induces a connected subgraph and
    (``ordered``) labels are dense, numbered by decreasing size."""
    problems = []
    mem = np.asarray(membership, dtype=np.int64)
    if len(mem) != n:
        return _fail(problems, f"leiden: {len(mem)} membership rows, "
                               f"n={n}")
    if mem.min() < 0:
        return _fail(problems, "leiden: negative label")
    q = cpm_quality(src, dst, weight, mem, gamma)
    if abs(q - quality) > 1e-6 * max(1.0, abs(q)):
        _fail(problems, f"leiden: reported Q={quality!r}, "
                        f"recomputed {q!r}")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    internal = mem[src] == mem[dst]
    roots = union_find_roots(src[internal], dst[internal], n)
    pieces = len(np.unique(roots))
    n_comms = len(np.unique(mem))
    if pieces != n_comms:
        _fail(problems, f"leiden: {n_comms} communities split into "
                        f"{pieces} connected pieces")
    if ordered:
        sizes = np.bincount(mem)
        if np.any(sizes == 0):
            _fail(problems, "leiden: labels are not dense")
        elif np.any(np.diff(sizes) > 0):
            _fail(problems, "leiden: labels not ordered by size")
    return problems
