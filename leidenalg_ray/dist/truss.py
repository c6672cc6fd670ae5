"""k-truss decomposition: iterative support peel over the
degree-ordered triangle plan.

The k-truss is the maximal subgraph whose every edge closes >= k-2
triangles inside the subgraph; it is computed by repeatedly dropping
under-supported edges until a fixed point (cohesive-subgraph mining —
Cohen 2008, public algorithm). Support counting runs on the one wedge
path of ``triangles.py``: the degree-rank orientation
``_forward_csr`` and the chunked wedge pairs ``_row_pairs`` (P numpy
tasks over row ranges of equal wedge count, closing membership against
the sorted edge-key array broadcast once); each found triangle credits
all three of its edges. For edge sets past a node's memory
``k_truss_partitioned`` runs the bucketed plan of
``triangles.triangle_count`` on the same helpers.
"""

from __future__ import annotations

import numpy as np
import ray

from .exchange import _map, _split_by, _tasks
from .triangles import (_bucket_degrees, _canonical_edges, _closed_wedges,
                        _forward_by_bucket, _forward_csr, _key_index,
                        _rank_of, _row_ranges, _wedges_by_bucket)


def _support_part(keys, adj, n, lo, hi):
    """Per-edge triangle counts from the forward CSR rows [lo, hi):
    each closed wedge credits its closing edge and its two wedge
    edges."""
    indptr, fsrc, fdst = adj
    cnt = np.zeros(len(keys), dtype=np.int64)
    for i, j, idx in _closed_wedges(indptr, fdst, keys, n,
                                    np.arange(lo, hi)):
        u = fsrc[i]
        cnt += np.bincount(np.concatenate(
            [idx, _key_index(keys, u, fdst[i], n),
             _key_index(keys, u, fdst[j], n)]), minlength=len(keys))
    return cnt


def edge_supports(a, b, n, P=8):
    """Per-edge triangle counts for a deduped (a < b) edge set.
    Returns an int64 array aligned with the (a, b) order."""
    m = len(a)
    keys = a * np.int64(n) + b
    # keys must be sorted for the membership test
    assert m < 2 or (keys[1:] > keys[:-1]).all()
    indptr, fsrc, fdst, _ = _forward_csr(a, b, n)
    key_ref = ray.put(keys)
    adj_ref = ray.put((indptr, fsrc, fdst))

    part = _tasks(_support_part)
    parts = ray.get([part(key_ref, adj_ref, n, lo, hi) for lo, hi
                     in _row_ranges(indptr, P)])
    out = parts[0].copy()    # plasma arrays are read-only views
    for c in parts[1:]:
        out += c
    return out


def k_truss(src, dst, n, k, P=8, max_rounds=1_000):
    """Edges of the k-truss of the (deduped, loop-free) undirected
    graph, as sorted (a, b) arrays, plus the peel round count."""
    _, a, b = _canonical_edges(src, dst, n)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        if len(a) == 0:
            break
        sup = edge_supports(a, b, n, P=P)
        keep = sup >= k - 2
        if keep.all():
            break
        a, b = a[keep], b[keep]
    return a, b, rounds


def _truss_close(K, n, edges, *wparts):
    """Membership-test a bucket's wedges ``(mid, lo, hi)`` against its
    edges: the support each edge gets as a closing edge, then per
    bucket the keys of the found triangles' wedge edges homed there
    (``lo % K``), to be credited by ``_truss_peel``."""
    ea, eb = edges
    keys = ea * np.int64(n) + eb
    mid, lo, hi = (np.concatenate([p[c] for p in wparts])
                   for c in range(3))
    sup = np.zeros(len(keys), dtype=np.int64)
    m = w = np.empty(0, np.int64)
    if len(mid) and len(keys):
        wk = lo * np.int64(n) + hi
        idx = np.searchsorted(keys, wk).clip(0, len(keys) - 1)
        hit = keys[idx] == wk
        np.add.at(sup, idx[hit], 1)
        m = np.tile(mid[hit], 2)
        w = np.concatenate([lo[hit], hi[hit]])
    l2 = np.minimum(m, w)
    credits = _split_by(l2 % K, K, l2 * np.int64(n) + np.maximum(m, w))
    return (sup, *(c for (c,) in credits))


def _truss_peel(k, n, edges, sup_local, *credit_keys):
    """A bucket's edges with support >= k - 2 (local support plus the
    credits from every bucket) and the number dropped."""
    ea, eb = edges
    keys = ea * np.int64(n) + eb
    sup = sup_local.copy()
    np.add.at(sup, np.searchsorted(keys, np.concatenate(credit_keys)), 1)
    keep = sup >= k - 2
    return (ea[keep], eb[keep]), int((~keep).sum())


def k_truss_partitioned(src, dst, n, k, K=8, max_rounds=1_000):
    """>node-memory k-truss: edges stay bucketed by ``lo % K`` in the
    object store across peel rounds; each round mirrors
    ``triangles.triangle_count``'s plan (degree rank -> forward
    orientation -> wedge keys shipped to the closing edge's bucket)
    plus one extra K x K exchange that credits each found triangle
    back to its two wedge edges' home buckets. The driver holds only
    O(V) degree partials and per-round drop counts — never an edge
    array.

    Returns (a, b, rounds) like ``k_truss`` (driver-side result
    arrays; write per-bucket outputs directly at real scale).
    """
    _, a, b = _canonical_edges(src, dst, n)
    # initial buckets (sorted within bucket by key, for membership)
    edge_refs = []
    for kk in range(K):
        m = (a % K) == kk
        edge_refs.append(ray.put((a[m], b[m])))

    forward = _tasks(_forward_by_bucket, K, split=True)
    wedges = _tasks(_wedges_by_bucket, K, split=True)
    close = _tasks(_truss_close, K + 1)
    peel = _tasks(_truss_peel, 2)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        deg_parts = ray.get(_map(_bucket_degrees, edge_refs))
        if not any(len(p[0]) for p in deg_parts):
            break
        vp_ref = ray.put(_rank_of(deg_parts))
        fwd = [forward(K, vp_ref, edge_refs[i]) for i in range(K)]
        wref = [wedges(K, *[fwd[j][i] for j in range(K)])
                for i in range(K)]
        cref = [close(K, n, edge_refs[i], *[wref[j][i] for j in range(K)])
                for i in range(K)]
        outs = [peel(k, n, edge_refs[i], cref[i][0],
                     *[cref[j][1 + i] for j in range(K)])
                for i in range(K)]
        edge_refs = [o[0] for o in outs]
        dropped = sum(ray.get([o[1] for o in outs]))
        if dropped == 0:
            break
    parts = ray.get(edge_refs)
    a = np.concatenate([p[0] for p in parts]) if parts else a[:0]
    b = np.concatenate([p[1] for p in parts]) if parts else b[:0]
    order = np.lexsort((b, a))
    return a[order], b[order], rounds
