"""Distributed triangle counting (SURVEY.md §2.8).

Every kernel of the triangle family runs one degree-ordered
(compact-forward) wedge enumeration: orient each edge from the
lower-(degree, vid) endpoint, so wedges enumerate only among forward
neighbours (sum outdeg^2, outdeg in O(sqrt(2m)); the standard skew
fix). It is written once, as the one wedge path:

- ``_forward_csr(a, b, n)`` — the orientation: the (degree, vid) rank
  and the forward adjacency as a CSR whose rows list their targets in
  ascending vid order.
- ``_row_pairs(indptr, rows)`` — the wedges: index pairs (i, j), i < j
  inside one CSR row, for all the given rows at once (``np.repeat`` /
  ``cumsum``, no per-vertex Python loop), in chunks of about
  ``_CHUNK_PAIRS`` pairs that end on row boundaries, so a task holds
  O(E + chunk), never O(wedges).
- ``_closed_wedges`` — those pairs membership-tested against the
  sorted edge-key array, one ``searchsorted`` per chunk.

New wedge kernels are written against these three. Two envelopes
share them:

- broadcast (``triangle_count_fast``, ``k4_count_fast``,
  ``triad_triangle_census``, ``truss.edge_supports``): the canonical
  edge-key array is stored once in the object store (for the first
  two made, with the forward CSR, by one ``_broadcast_csr`` task) and
  P tasks each take a contiguous CSR row range of about equal wedge
  count (``_row_ranges``) — fastest while the deduped edge set fits
  a node.
- partitioned (``triangle_count``, ``truss.k_truss_partitioned`` and
  the link-prediction operators of ``linkpred.py``): the >node-memory
  form. ``_bucket_edges`` spills the edge set, oriented lo -> hi and
  deduped, to K buckets by ``a % K`` and loads each into one ref plus
  its degree partial; degree/rank state is the only O(V) driver
  piece. Every later stage is one task per bucket that returns one
  part per bucket (``_split_by`` run through ``superstep._tasks(...,
  split=True)``, the same at any K >= 1), so wedge keys
  (``_wedges_by_bucket``) flow worker-to-worker into the partition
  that owns their closing edge — no stage ever holds the full edge
  set, and no Ray Data join materialises the wedge stream (the join
  formulation measured 112x slower than the broadcast path; this one
  is within a few x).
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import ray

from .superstep import _map, _tasks

# wedges per ``_row_pairs`` chunk: bounds a task's transient arrays
_CHUNK_PAIRS = 1 << 21


def _canonical_edges(src, dst, n):
    """The undirected, loop-free, deduped edge set of (src, dst) as
    sorted keys ``lo * n + hi`` and their (lo, hi) endpoint arrays."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    nl = src != dst
    keys = np.unique(np.minimum(src[nl], dst[nl]) * np.int64(n)
                     + np.maximum(src[nl], dst[nl]))
    return keys, keys // n, keys % n


def _forward_csr(a, b, n):
    """Degree-rank orientation of a deduped edge set (a, b) over vids
    [0, n): rank vertices by (degree, vid) and point every edge at its
    higher-rank endpoint. Returns ``(indptr, fsrc, fdst, pos)``: the
    forward adjacency as a CSR sorted by (source, target) — so a row
    pair i < j has ``fdst[i] < fdst[j]`` — and each vertex's rank."""
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    pos = np.empty(n, dtype=np.int64)
    pos[np.argsort(deg, kind="stable")] = np.arange(n)
    fwd = pos[a] < pos[b]
    fsrc = np.where(fwd, a, b)
    fdst = np.where(fwd, b, a)
    order = np.argsort(fsrc * np.int64(n) + fdst)   # keys are distinct
    fsrc, fdst = fsrc[order], fdst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(fsrc, minlength=n), out=indptr[1:])
    return indptr, fsrc, fdst, pos


def _seg_arange(counts):
    """``arange(c)`` for each c of ``counts``, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) - np.repeat(ends - counts, counts)


def _row_pairs(indptr, rows):
    """Every pair i < j of CSR positions inside one row of ``rows``, as
    index arrays ``(i, j)``, row by row in ``rows`` order. Chunks hold
    about ``_CHUNK_PAIRS`` pairs and end on a row boundary: one row's
    pairs are never split (a row with more pairs is a chunk alone)."""
    rows = np.asarray(rows, dtype=np.int64)
    deg = indptr[rows + 1] - indptr[rows]
    rows, deg = rows[deg >= 2], deg[deg >= 2]
    ends = np.cumsum(deg * (deg - 1) // 2)
    lo = 0
    while lo < len(rows):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + _CHUNK_PAIRS, "right")),
                 lo + 1)
        d = deg[lo:hi] - 1                 # first elements per row
        first = _seg_arange(d)
        later = np.repeat(d, d) - first    # pairs (i, j > i) per i
        i = np.repeat(np.repeat(indptr[rows[lo:hi]], d) + first, later)
        yield i, i + 1 + _seg_arange(later)
        lo = hi


def _row_ranges(indptr, P):
    """P contiguous CSR row ranges ``(lo, hi)`` holding about equal
    wedge counts: the broadcast kernels' split into P tasks."""
    deg = np.diff(indptr)
    cum = np.cumsum(deg * (deg - 1) // 2)
    total = int(cum[-1]) if len(cum) else 0
    cuts = np.searchsorted(cum, total * np.arange(1, P) // P)
    bounds = np.r_[0, cuts, len(deg)].tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _broadcast_csr(src, dst, n, P):
    """The broadcast kernels' inputs, made in one task: the canonical
    edge keys, the forward CSR ``(indptr, fsrc, fdst)`` and its P
    ``_row_ranges``."""
    keys, a, b = _canonical_edges(src, dst, n)
    indptr, fsrc, fdst, _ = _forward_csr(a, b, n)
    return keys, (indptr, fsrc, fdst), _row_ranges(indptr, P)


def _broadcast_inputs(src, dst, n, P):
    """``(key_ref, adj_ref, ranges)`` of ``_broadcast_csr`` run as a
    task: the driver holds two refs and the P row ranges."""
    key_ref, adj_ref, ranges = _tasks(_broadcast_csr, 3)(src, dst, n, P)
    return key_ref, adj_ref, ray.get(ranges)


def _key_index(keys, u, v, n):
    """Index in the sorted key array ``keys`` of each edge (u, v)."""
    return np.searchsorted(keys, np.minimum(u, v) * np.int64(n)
                           + np.maximum(u, v))


def _closed_wedges(indptr, fdst, keys, n, rows):
    """Per ``_row_pairs`` chunk of ``rows``: the wedges of the forward
    CSR closed by an edge of ``keys`` (sorted ``lo * n + hi``), as
    ``(i, j, idx)`` — the two forward-edge positions and the closing
    edge's index in ``keys``."""
    for i, j in _row_pairs(indptr, rows):
        k = fdst[i] * np.int64(n) + fdst[j]    # rows ascend: lo * n + hi
        idx = np.searchsorted(keys, k).clip(0, len(keys) - 1)
        hit = keys[idx] == k
        yield i[hit], j[hit], idx[hit]


def _split_by(bucket, K, *cols):
    """``cols`` cut into K parts by ``bucket`` (stable): a list of K
    tuples, part k holding the rows with ``bucket == k``."""
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], np.arange(K + 1))
    cols = [c[order] for c in cols]
    return [tuple(c[bounds[k]:bounds[k + 1]] for c in cols)
            for k in range(K)]


def _dedup_pairs(a, b):
    """The distinct pairs (a, b), lexsorted by (a, b)."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])] \
        if len(a) else np.empty(0, bool)
    return a[first], b[first]


def _orient(t: pa.Table, K) -> pa.Table:
    """A batch of (src, dst) edges as the spill's rows: oriented
    lo -> hi, loop-free, deduped within the batch and tagged with their
    bucket ``part = a % K``."""
    s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    nl = s != d
    a, b = _dedup_pairs(np.minimum(s[nl], d[nl]), np.maximum(s[nl], d[nl]))
    return pa.table({"a": pa.array(a), "b": pa.array(b),
                     "part": pa.array((a % K).astype(np.int32))})


def _bucket_degrees(edges):
    """A bucket's degree partial: its vids and their edge counts."""
    a, b = edges
    return np.unique(np.concatenate([a, b]), return_counts=True)


def _read_bucket(spill_dir, k):
    """Bucket k of the spill, exactly deduped (every copy of an edge
    shares its bucket) and lexsorted by (a, b), with its degree
    partial."""
    import pyarrow.dataset as pads
    d = os.path.join(spill_dir, f"part={k}")
    a = b = np.empty(0, np.int64)
    if os.path.isdir(d):
        t = pads.dataset(d).to_table(columns=["a", "b"])
        a, b = _dedup_pairs(
            t["a"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["b"].to_numpy(zero_copy_only=False).astype(np.int64))
    return (a, b), _bucket_degrees((a, b))


def _bucket_edges(edges_ds, K, spill_dir):
    """The partitioned plan's input: the (src, dst) edges of
    ``edges_ds`` oriented lo -> hi, loop-free and deduped, cut into K
    buckets by ``a % K`` through a partitioned parquet spill (each
    bucket fits a worker). Returns ``(edge_refs, deg_parts)``: one ref
    per bucket of its lexsorted ``(a, b)`` arrays, and the buckets'
    ``(vids, counts)`` degree partials. A spill directory this call
    creates is removed once the buckets are loaded; a caller's
    ``spill_dir`` is left in place."""
    owned = spill_dir is None
    spill_dir = spill_dir or tempfile.mkdtemp(prefix="lray_spill_")
    try:
        edges_ds.map_batches(_orient, fn_kwargs={"K": K},
                             batch_format="pyarrow",
                             zero_copy_batch=True) \
            .write_parquet(spill_dir, partition_cols=["part"])
        edge_refs, deg_refs = _map(_read_bucket, [spill_dir] * K,
                                   range(K), num_returns=2)
        deg_parts = ray.get(deg_refs)
    finally:
        if owned:
            shutil.rmtree(spill_dir, ignore_errors=True)
    return edge_refs, deg_parts


def _vertex_totals(parts):
    """Per-bucket ``(vids, counts)`` partials summed: the sorted vids
    and each one's total."""
    verts = np.unique(np.concatenate([p[0] for p in parts]))
    total = np.zeros(len(verts), dtype=np.int64)
    for v, c in parts:
        total[np.searchsorted(verts, v)] += c
    return verts, total


def _rank_of(deg_parts):
    """The partitioned plan's (degree, vid) order from per-bucket
    degree partials: the sorted vids and the rank of each."""
    verts, deg = _vertex_totals(deg_parts)
    pos = np.empty(len(verts), dtype=np.int64)
    pos[np.lexsort((verts, deg))] = np.arange(len(verts))
    return verts, pos


def _forward_by_bucket(K, vp, edges):
    """One edge bucket ``(a, b)`` oriented forward by the rank ``pos``
    of the sorted ``verts`` (``vp = (verts, pos)``), split into K
    parts ``(u, v)`` by source ``u % K``."""
    verts, pos = vp
    a, b = edges
    fwd = pos[np.searchsorted(verts, a)] < pos[np.searchsorted(verts, b)]
    u = np.where(fwd, a, b)
    return _split_by(u % K, K, u, np.where(fwd, b, a))


def _grouped_csr(parts):
    """The ``(u, v)`` pairs of ``parts`` lexsorted by (u, v) as a CSR
    over their distinct ``u``: ``(u, v, indptr)``, row r holding
    positions ``indptr[r]:indptr[r + 1]``."""
    u = np.concatenate([p[0] for p in parts])
    v = np.concatenate([p[1] for p in parts])
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    indptr = np.flatnonzero(np.r_[True, u[1:] != u[:-1], True]) \
        if len(u) else np.zeros(1, np.int64)
    return u, v, indptr


def _wedges_by_bucket(K, *parts):
    """The wedges of the forward-edge parts ``(u, v)`` as ``(mid, lo,
    hi)`` wedge keys, split into K parts by the closing key's bucket
    ``lo % K``."""
    u, v, indptr = _grouped_csr(parts)
    chunks = [(u[i], v[i], v[j]) for i, j in
              _row_pairs(indptr, np.arange(len(indptr) - 1))]
    mid, lo, hi = (np.concatenate([c[t] for c in chunks]) if chunks
                   else np.empty(0, np.int64) for t in range(3))
    return _split_by(lo % K, K, mid, lo, hi)


def _close_bucket(n, per_vertex, edges, *wparts):
    """Bucket k's wedge keys membership-tested against its sorted
    edge keys: the triangles it closes and, with ``per_vertex``, the
    ``(vids, counts)`` partial of their corners."""
    a, b = edges
    keys = a * n + b           # sorted: edges lexsorted by (a, b)
    mid, lo, hi = (np.concatenate([p[c] for p in wparts])
                   for c in range(3))
    e = np.empty(0, np.int64)
    if len(mid) == 0 or len(keys) == 0:
        return 0, (e, e.copy())
    wk = lo * n + hi
    idx = np.searchsorted(keys, wk).clip(0, len(keys) - 1)
    hit = keys[idx] == wk
    if not per_vertex:
        return int(hit.sum()), (e, e.copy())
    tri_v = np.concatenate([mid[hit], lo[hit], hi[hit]])
    uv, cv = np.unique(tri_v, return_counts=True)
    return int(hit.sum()), (uv, cv.astype(np.int64))


def triangle_count(edges_ds, num_partitions=16, per_vertex=False,
                   spill_dir=None):
    """Global triangle count (int), optionally with a per-vertex count
    Dataset ``(v, count())`` of int64 columns — partitioned
    compact-forward plan:

    1. ``_bucket_edges``: orient low->high + per-batch pre-dedup ->
       partitioned parquet spill by ``a % K`` (each bucket fits a
       worker), then K loader tasks: exact partition-local dedup +
       compressed degree partials,
    2. driver combines degrees (O(V)) into the (degree, vid) rank,
    3. K re-bucket tasks orient edges forward and ship them to their
       source vertex's bucket (worker-to-worker, ``num_returns=K``),
    4. K wedge tasks enumerate forward-neighbour pairs
       (``_wedges_by_bucket``) and ship each closing key (lo, hi) to
       bucket ``lo % K``,
    5. K close tasks membership-test wedge keys against their bucket's
       sorted edge keys.

    A spill directory this call creates is removed once the buckets
    are loaded; a caller's ``spill_dir`` is left in place. A graph
    without triangles gives a zero-row Dataset, which Ray Data's
    ``to_pandas()`` turns into a frame without columns; its
    ``schema()`` and ``to_arrow_refs()`` keep both.

    Partitioning assumption: vid key packing ``lo * n + hi`` needs
    ``n < 3e9`` in int64; beyond that swap for a two-level
    (searchsorted on lo, then hi) membership test.
    """
    import ray.data as rd

    K = int(num_partitions)
    edge_refs, deg_parts = _bucket_edges(edges_ds, K, spill_dir)

    # combine degrees -> (degree, vid) total order; O(V) driver state
    verts, pos = _rank_of(deg_parts)
    n = int(verts.max()) + 1 if len(verts) else 1
    vp_ref = ray.put((verts, pos))

    forward = _tasks(_forward_by_bucket, K, split=True)
    fwd_refs = [forward(K, vp_ref, edge_refs[k]) for k in range(K)]
    wedges = _tasks(_wedges_by_bucket, K, split=True)
    wedge_refs = [wedges(K, *[fwd_refs[j][k] for j in range(K)])
                  for k in range(K)]
    close = _tasks(_close_bucket, 2)
    closed = [close(n, per_vertex, edge_refs[k],
                    *[wedge_refs[j][k] for j in range(K)])
              for k in range(K)]
    total = int(sum(ray.get([c[0] for c in closed])))
    if not per_vertex:
        return total
    uv, cv = _vertex_totals(ray.get([c[1] for c in closed]))
    pv_ds = rd.from_arrow(pa.table({"v": pa.array(uv, pa.int64()),
                                    "count()": pa.array(cv, pa.int64())}))
    return total, pv_ds


def triangle_count_arrays(src, dst, n, num_partitions=8, per_vertex=False):
    """Convenience entry from numpy arrays."""
    import ray.data as rd
    t = pa.table({"src": pa.array(np.asarray(src, dtype=np.int64)),
                  "dst": pa.array(np.asarray(dst, dtype=np.int64))})
    ds = rd.from_arrow(t)
    return triangle_count(ds, num_partitions, per_vertex)


def triangle_count_fast(src, dst, n, P=16, per_vertex=False):
    """Degree-ordered triangle counting (compact-forward): orient each
    edge from the lower-(degree, vid) endpoint to the higher one, so a
    vertex's forward out-degree is O(sqrt(2m)) and the wedge count
    drops from sum deg^2 to sum outdeg^2 — the standard skew fix for
    power-law graphs.

    Wedge generation runs as P numpy tasks over row ranges of the
    forward adjacency (``_closed_wedges`` over ``_row_ranges``);
    closing membership tests run against the sorted edge-key array
    stored once by the ``_broadcast_csr`` task (8 bytes/edge — for
    corpora where the deduped edge set no longer fits a node, swap the
    closing step for the hash-join variant in ``triangle_count``).
    """
    key_ref, adj_ref, ranges = _broadcast_inputs(src, dst, n, P)

    @ray.remote
    def count_part(keys_, adj, lo, hi):
        indptr_, fsrc_, fdst_ = adj
        tri = 0
        pv = np.zeros(n, dtype=np.int64) if per_vertex else None
        for i, j, _ in _closed_wedges(indptr_, fdst_, keys_, n,
                                      np.arange(lo, hi)):
            tri += len(i)
            if per_vertex:
                pv += np.bincount(np.concatenate(
                    [fsrc_[i], fdst_[i], fdst_[j]]), minlength=n)
        return tri, pv

    results = ray.get([count_part.remote(key_ref, adj_ref, lo, hi)
                       for lo, hi in ranges])
    total = sum(r[0] for r in results)
    if not per_vertex:
        return total
    pv = np.zeros(n, dtype=np.int64)
    for r in results:
        pv += r[1]
    return total, pv


def k4_count_fast(src, dst, n, P=16):
    """4-clique (K4) counting on the compact-forward DAG: orient by
    (degree, vid) rank as in ``triangle_count_fast``; each K4 has a
    unique minimum vertex u, and its other three members form a
    TRIANGLE inside u's forward neighbourhood — so K4 = sum over u of
    triangles in the induced subgraph G[N+(u)]. That subgraph's edges
    are exactly u's closed wedges (one ``_row_pairs`` chunk never
    splits a row); its triangles come from one small dense matmul,
    run only for the rows with >= 3 closed wedges (|N+(u)| =
    O(sqrt(2m)) by the orientation, the same bound that kills hub
    blowup for triangles). Same broadcast envelope as
    ``triangle_count_fast`` (``_broadcast_csr``).

    Returns (n_triangles, n_k4)."""
    key_ref, adj_ref, ranges = _broadcast_inputs(src, dst, n, P)

    @ray.remote
    def count_part(keys_, adj, lo, hi):
        indptr_, fsrc_, fdst_ = adj
        tri = 0
        k4 = 0
        for i, j, _ in _closed_wedges(indptr_, fdst_, keys_, n,
                                      np.arange(lo, hi)):
            tri += len(i)
            # u's closed wedges are contiguous: pairs come row by row
            u = fsrc_[i]
            starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
            ends = np.r_[starts[1:], len(u)]
            big = ends - starts >= 3
            for s0, s1 in zip(starts[big], ends[big]):
                # triangles inside G[N+(u)]: one dense k x k matmul
                # (float64 is exact: entries are counts <= k)
                off = indptr_[u[s0]]
                k = int(indptr_[u[s0] + 1] - off)
                ii, jj = i[s0:s1] - off, j[s0:s1] - off
                A = np.zeros((k, k))
                A[ii, jj] = A[jj, ii] = 1
                k4 += int((A @ A)[ii, jj].sum()) // 3
        return tri, k4

    results = ray.get([count_part.remote(key_ref, adj_ref, lo, hi)
                       for lo, hi in ranges])
    return (sum(r[0] for r in results), sum(r[1] for r in results))


# ----------------------------------------------------------------------
# Directed triad census (igraph ``triad_census`` parity)
# ----------------------------------------------------------------------
TRIAD_L3_LABELS = ("030T", "030C", "120D", "120U", "120C", "210", "300")
TRIAD_WEDGE_LABELS = ("021D", "021U", "021C", "111D", "111U", "201")


def _corner_wedge_class(m, i, o):
    """Wedge class index (into TRIAD_WEDGE_LABELS) of a 2-dyad corner
    with m mutual / i asym-in / o asym-out incident dyads (m+i+o==2):
    021D = two out, 021U = two in, 021C = in+out, 111D = mutual+in,
    111U = mutual+out, 201 = two mutual (igraph MAN layouts)."""
    cls = np.full(len(m), -1, dtype=np.int64)
    cls[(m == 0) & (o == 2)] = 0
    cls[(m == 0) & (i == 2)] = 1
    cls[(m == 0) & (i == 1) & (o == 1)] = 2
    cls[(m == 1) & (i == 1)] = 3
    cls[(m == 1) & (o == 1)] = 4
    cls[m == 2] = 5
    return cls


def _census_part(key_codes, adj, n, lo, hi):
    """``triad_triangle_census`` over the forward CSR rows [lo, hi):
    the triangle-class counts and in-triangle wedge-class counts."""
    indptr, fsrc, fdst = adj
    keys, codes = key_codes
    l3 = np.zeros(7, dtype=np.int64)
    wd = np.zeros(6, dtype=np.int64)
    for i, j, idx in _closed_wedges(indptr, fdst, keys, n,
                                    np.arange(lo, hi)):
        uu, x, y, cxy = fsrc[i], fdst[i], fdst[j], codes[idx]
        cux = codes[_key_index(keys, uu, x, n)]
        cuy = codes[_key_index(keys, uu, y, n)]
        # asym arc directions (True = first->second), valid
        # only where the dyad is not mutual
        fux = np.where(uu < x, cux == 1, cux == 2)
        fuy = np.where(uu < y, cuy == 1, cuy == 2)
        fxy = np.where(x < y, cxy == 1, cxy == 2)
        aux, auy, axy = cux != 3, cuy != 3, cxy != 3
        m_u = (cux == 3).astype(np.int64) + (cuy == 3)
        o_u = (aux & fux).astype(np.int64) + (auy & fuy)
        i_u = (aux & ~fux).astype(np.int64) + (auy & ~fuy)
        m_x = (cux == 3).astype(np.int64) + (cxy == 3)
        o_x = (aux & ~fux).astype(np.int64) + (axy & fxy)
        i_x = (aux & fux).astype(np.int64) + (axy & ~fxy)
        m_y = (cuy == 3).astype(np.int64) + (cxy == 3)
        o_y = (auy & ~fuy).astype(np.int64) + (axy & ~fxy)
        i_y = (auy & fuy).astype(np.int64) + (axy & fxy)
        mm = (cux == 3).astype(np.int64) + (cuy == 3) + (cxy == 3)
        # triangle class
        tcls = np.empty(len(x), dtype=np.int64)
        tcls[mm == 3] = 6                      # 300
        tcls[mm == 2] = 5                      # 210
        one = mm == 1
        if one.any():
            ow = np.where(m_u == 0, o_u,
                          np.where(m_x == 0, o_x, o_y))
            iw = np.where(m_u == 0, i_u,
                          np.where(m_x == 0, i_x, i_y))
            tcls[one & (ow == 2)] = 2          # 120D
            tcls[one & (iw == 2)] = 3          # 120U
            tcls[one & (ow == 1) & (iw == 1)] = 4   # 120C
        zero = mm == 0
        if zero.any():
            cyc = (i_u == 1) & (o_u == 1) & (i_x == 1) & (o_x == 1)
            tcls[zero & cyc] = 1               # 030C
            tcls[zero & ~cyc] = 0              # 030T
        np.add.at(l3, tcls, 1)
        for m_, i_, o_ in ((m_u, i_u, o_u), (m_x, i_x, o_x),
                           (m_y, i_y, o_y)):
            np.add.at(wd, _corner_wedge_class(m_, i_, o_), 1)
    return l3, wd


def triad_triangle_census(lo, hi, code, n, P=16):
    """Classify every LINKED TRIANGLE (all three dyads present) of a
    directed graph given as unordered dyads ``(lo, hi)`` with code
    1 = lo->hi only, 2 = hi->lo only, 3 = mutual. Compact-forward
    triangle enumeration (each triangle exactly once) with the dyad
    code array broadcast alongside the sorted key set — the same
    envelope as ``triangle_count_fast`` (swap the closing lookup for
    the hash-join plan of ``triangle_count`` past node memory).

    Returns (l3_counts[7], wedge_dec[6]) int64 arrays, indexed by
    TRIAD_L3_LABELS / TRIAD_WEDGE_LABELS: the triangle-class counts
    and, for the open-triad subtraction, how many wedges of each
    2-dyad class sit inside those triangles."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    code = np.asarray(code, dtype=np.int64)
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys)
    keys, codes = keys[order], code[order]
    indptr, fsrc, fdst, _ = _forward_csr(lo, hi, n)
    key_ref = ray.put((keys, codes))
    adj_ref = ray.put((indptr, fsrc, fdst))

    part = _tasks(_census_part)
    results = ray.get([part(key_ref, adj_ref, n, lo, hi) for lo, hi
                       in _row_ranges(indptr, P)])
    l3 = np.zeros(7, dtype=np.int64)
    wd = np.zeros(6, dtype=np.int64)
    for r3, rw in results:
        l3 += r3
        wd += rw
    return l3, wd
