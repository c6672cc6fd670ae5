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

from .superstep import _tasks
from .triangles import (_canonical_edges, _closed_wedges, _forward_csr,
                        _forward_by_bucket, _key_index, _rank_of,
                        _row_ranges, _wedges_by_bucket)


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

    @ray.remote
    def support_part(lo, hi):
        indptr_, fsrc_, fdst_ = ray.get(adj_ref)
        keys_ = ray.get(key_ref)
        cnt = np.zeros(len(keys_), dtype=np.int64)
        for i, j, idx in _closed_wedges(indptr_, fdst_, keys_, n,
                                        np.arange(lo, hi)):
            u = fsrc_[i]
            # the closing edge and the two wedge edges
            cnt += np.bincount(np.concatenate(
                [idx, _key_index(keys_, u, fdst_[i], n),
                 _key_index(keys_, u, fdst_[j], n)]), minlength=len(keys_))
        return cnt

    parts = ray.get([support_part.remote(lo, hi) for lo, hi
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

    @ray.remote
    def degrees(edges):
        ea, eb = edges
        v, c = np.unique(np.concatenate([ea, eb]), return_counts=True)
        return v, c

    @ray.remote
    def close(edges, *wparts):
        """Membership-test wedges against this bucket's edges; credit
        the closing edge locally, ship wedge-edge credits home."""
        ea, eb = edges
        keys_ = ea * np.int64(n) + eb
        mid = np.concatenate([p[0] for p in wparts])
        lo = np.concatenate([p[1] for p in wparts])
        hi = np.concatenate([p[2] for p in wparts])
        sup_local = np.zeros(len(keys_), dtype=np.int64)
        credits = [[] for _ in range(K)]
        if len(mid) and len(keys_):
            wk = lo * np.int64(n) + hi
            idx = np.searchsorted(keys_, wk).clip(0, len(keys_) - 1)
            hit = keys_[idx] == wk
            np.add.at(sup_local, idx[hit], 1)
            for w in (lo[hit], hi[hit]):
                l2 = np.minimum(mid[hit], w)
                h2 = np.maximum(mid[hit], w)
                k2 = l2 * np.int64(n) + h2
                tgt = l2 % K
                for i in range(K):
                    credits[i].append(k2[tgt == i])
        out = [np.concatenate(c) if c else np.empty(0, np.int64)
               for c in credits]
        return (sup_local, *out)

    @ray.remote
    def peel(edges, sup_local, *credit_keys):
        ea, eb = edges
        keys_ = ea * np.int64(n) + eb
        sup = sup_local.copy()
        for ck in credit_keys:
            if len(ck):
                np.add.at(sup, np.searchsorted(keys_, ck), 1)
        keep = sup >= k - 2
        return (ea[keep], eb[keep]), int((~keep).sum())

    forward = _tasks(_forward_by_bucket, K, split=True)
    wedges = _tasks(_wedges_by_bucket, K, split=True)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        deg_parts = ray.get([degrees.remote(edge_refs[i])
                             for i in range(K)])
        if not any(len(p[0]) for p in deg_parts):
            break
        vp_ref = ray.put(_rank_of(deg_parts))
        fwd = [forward(K, vp_ref, edge_refs[i]) for i in range(K)]
        wref = [wedges(K, *[fwd[j][i] for j in range(K)])
                for i in range(K)]
        cref = [close.options(num_returns=K + 1).remote(
            edge_refs[i], *[wref[j][i] for j in range(K)])
            for i in range(K)]
        outs = [peel.options(num_returns=2).remote(
            edge_refs[i], cref[i][0],
            *[cref[j][1 + i] for j in range(K)]) for i in range(K)]
        edge_refs = [o[0] for o in outs]
        dropped = sum(ray.get([o[1] for o in outs]))
        if dropped == 0:
            break
    parts = ray.get(edge_refs)
    a = np.concatenate([p[0] for p in parts]) if parts else a[:0]
    b = np.concatenate([p[1] for p in parts]) if parts else b[:0]
    order = np.lexsort((b, a))
    return a[order], b[order], rounds
