"""Link prediction and neighborhood operators over edge Datasets.

Companion operators a link-graph user runs next to the §2.8 kernels
(no counterpart in the reference — vtraag/leidenalg stops at
community detection). All three run on the partitioned envelope of
``dist/triangles.py``: ``_bucket_edges`` spills the edge set, oriented
lo -> hi and deduped, to K buckets by ``a % K`` and hands back one ref
per bucket plus the degree partials; every later stage is one task per
bucket returning one part per bucket (``_split_by`` through
``superstep._tasks(..., split=True)``), so parts flow worker to worker
and the plan is the same at any K >= 1.

- ``adamic_adar_topk``: top-k non-adjacent vertex pairs by
  common-neighbor count / Adamic-Adar score. Each bucket holds both
  directions of its edges keyed by the middle vertex (``w % K``), so a
  row of its CSR is one vertex's whole neighbourhood; the wedges of
  all rows come from ``_row_pairs``, pair partials aggregate
  bucket-locally and go to the pair's owner ``lo % K``, and each owner
  returns only its own top-k — the driver merges K * k rows, never the
  pair stream.
- ``degree_assortativity``: exact integer sums of endpoint degrees per
  bucket, one float expression on the driver.
- ``neighbor_sample``: deterministic fan-out-k neighbor sampling
  (the GraphSAGE mini-batch shape): per-vertex neighbor ranking by a
  reproducible modular hash, emitted as a Dataset without driver
  materialization.

Partitioning assumptions: pair keys pack as ``lo * n + hi`` (needs
``n < 3e9`` in int64, same as triangles); per-bucket wedge volume is
``sum(deg^2)/K`` — for power-law corpora cap hub degrees upstream or
raise K so a bucket fits a worker.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray

from .superstep import _map, _tasks
from .triangles import (_bucket_edges, _grouped_csr, _row_pairs,
                        _split_by, _vertex_totals)


def _group_sum(keys, score, counts=None):
    """Aggregate (count, score-sum) per unique key. Deliberately NOT
    ``np.unique(return_inverse=True)`` / ``np.add.reduceat``: their
    scatter passes collapse ~30x when many workers run concurrently on
    one memory controller (measured on this host). argsort + boundary
    cumsum + ``bincount`` over sorted group ids keeps every write
    sequential."""
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    ss = score[order]
    flag = np.ones(len(ks), dtype=bool)
    flag[1:] = ks[1:] != ks[:-1]
    gid = np.cumsum(flag) - 1
    if counts is None:
        cn = np.bincount(gid).astype(np.int64)
    else:
        cn = np.bincount(gid, weights=counts[order]).astype(np.int64)
    sc = np.bincount(gid, weights=ss)
    return ks[flag], cn, sc


def _both_directions(K, edges):
    """A bucket's edges in both directions ``(w, v)``, split into K
    parts by the owner ``w % K``."""
    a, b = edges
    w = np.concatenate([a, b])
    return _split_by(w % K, K, w, np.concatenate([b, a]))


def _adjacency_parts(K, edge_refs):
    """Per bucket k, the refs of the K parts (one from each bucket) of
    the both-direction edges ``(w, v)`` with ``w % K == k``."""
    launch = _tasks(_both_directions, K, split=True)
    out = [launch(K, edges) for edges in edge_refs]
    return [[out[j][k] for j in range(K)] for k in range(K)]


def _aa_wedges(K, n, *parts):
    """One bucket's wedges: every neighbor pair (lo, hi) of each owned
    middle vertex w, row by row of the bucket's CSR, scored
    ``1 / ln(deg(w))`` (a row holds all of w's distinct neighbors, so
    its length is deg(w)), summed per pair key ``lo * n + hi`` and
    split into K parts by the pair's owner ``lo % K``."""
    _, v, indptr = _grouped_csr(parts)
    deg = np.diff(indptr)
    inv = np.zeros(len(deg))
    inv[deg >= 2] = 1.0 / np.log(deg[deg >= 2])
    row_inv = np.repeat(inv, deg)
    keys = [np.empty(0, np.int64)]
    score = [np.empty(0)]
    for i, j in _row_pairs(indptr, np.arange(len(deg))):
        keys.append(v[i] * n + v[j])
        score.append(row_inv[i])
    uk, cn, sc = _group_sum(np.concatenate(keys), np.concatenate(score))
    return _split_by(uk // n % K, K, uk, cn, sc)


def _aa_close(k_top, n, edges, *wparts):
    """At a pair's owner: combine the pair partials, drop the pairs
    that are edges, keep the local top ``k_top`` by (count desc, lo,
    hi)."""
    a, b = edges
    keys = np.concatenate([p[0] for p in wparts])
    cn = np.concatenate([p[1] for p in wparts])
    sc = np.concatenate([p[2] for p in wparts])
    uk, cn, sc = _group_sum(keys, sc, counts=cn)
    keep = ~np.isin(uk, a * n + b, assume_unique=True)
    uk, cn, sc = uk[keep], cn[keep], sc[keep]
    lo, hi = uk // n, uk % n
    order = np.lexsort((hi, lo, -cn))[:k_top]   # integer-deterministic
    return lo[order], hi[order], cn[order], sc[order]


def adamic_adar_topk(edges_ds, k_top=20, num_partitions=8,
                     spill_dir=None):
    """Top ``k_top`` NON-adjacent pairs by (common-neighbor count
    desc, a asc, b asc), with the Adamic-Adar score
    ``sum_w 1/ln(deg(w))`` over shared neighbors ``w`` as a second
    signal. Returns ``pa.Table(a, b, common_neighbors, aa_score)``
    with the score rounded to 6 decimals.
    """
    from ..util import round6
    K = int(num_partitions)
    edge_refs, deg_parts = _bucket_edges(edges_ds, K, spill_dir)
    verts, _ = _vertex_totals(deg_parts)
    n = int(verts.max()) + 1 if len(verts) else 1
    wedges = _tasks(_aa_wedges, K, split=True)
    wedge_refs = [wedges(K, n, *parts)
                  for parts in _adjacency_parts(K, edge_refs)]
    close = _tasks(_aa_close)
    closed = ray.get([close(k_top, n, edge_refs[k],
                            *[wedge_refs[j][k] for j in range(K)])
                      for k in range(K)])
    lo, hi, cn, sc = (np.concatenate([c[t] for c in closed])
                      for t in range(4))
    order = np.lexsort((hi, lo, -cn))[:k_top]
    return pa.table({
        "a": pa.array(lo[order]),
        "b": pa.array(hi[order]),
        "common_neighbors": pa.array(cn[order]),
        "aa_score": pa.array(round6(sc[order])),
    })


def _assortativity_sums(vd, edges):
    """A bucket's exact integer sums over its symmetrized edges: sum x,
    sum xy, sum x^2 of the endpoint degrees, and the edge count."""
    verts, deg = vd
    a, b = edges
    x = deg[np.searchsorted(verts, a)]
    y = deg[np.searchsorted(verts, b)]
    # each canonical edge contributes (x, y) AND (y, x)
    return (int(x.sum() + y.sum()), int(2 * (x * y).sum()),
            int((x * x).sum() + (y * y).sum()), 2 * len(a))


def degree_assortativity(edges_ds, num_partitions=8, spill_dir=None):
    """Degree assortativity coefficient (Pearson correlation of
    endpoint degrees over the symmetrized directed edge list). Sums
    accumulate as exact python ints from per-bucket int64 partials;
    the final expression mirrors the SQL oracle's operation order
    term for term so both sides produce the identical double."""
    K = int(num_partitions)
    edge_refs, deg_parts = _bucket_edges(edges_ds, K, spill_dir)
    vd_ref = ray.put(_vertex_totals(deg_parts))
    parts = ray.get(_map(_assortativity_sums, [vd_ref] * K, edge_refs))
    sx, sxy, sxx, m = (sum(p[t] for p in parts) for t in range(4))
    # x and y marginals are identical by symmetry; keep the general
    # Pearson form so the float ops match the SQL expression exactly
    mean_x = sx / m
    var_x = sxx / m - mean_x * mean_x
    cov = sxy / m - mean_x * mean_x
    return cov / (math.sqrt(var_x) * math.sqrt(var_x))


# Modular hash for deterministic neighbor ranking — reproducible
# verbatim in SQL (`(src*7919 + dst*104729) % 1000003`).
_SAMPLE_MOD = 1_000_003


def _sample_bucket(fanout, *parts):
    """The first ``fanout`` neighbors of each vertex owned by one
    bucket, ranked by ``(hash, dst)``, as a ``(src, dst, rk)`` table."""
    s = np.concatenate([p[0] for p in parts])
    d = np.concatenate([p[1] for p in parts])
    h = (s * 7919 + d * 104729) % _SAMPLE_MOD
    order = np.lexsort((d, h, s))
    s, d = s[order], d[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    seg = np.repeat(starts, np.diff(np.append(starts, len(s))))
    rk = np.arange(len(s)) - seg + 1
    keep = rk <= fanout
    return pa.table({"src": pa.array(s[keep]), "dst": pa.array(d[keep]),
                     "rk": pa.array(rk[keep])})


def neighbor_sample(edges_ds, fanout=5, num_partitions=8,
                    spill_dir=None):
    """Deterministic fan-out neighbor sampling: for every vertex keep
    its ``fanout`` neighbors ranked by ``((src*7919 + dst*104729) %
    1000003, dst)`` — the GraphSAGE mini-batch sampling shape with a
    reproducible pseudo-random order. Returns a Ray ``Dataset``
    ``(src, dst, rk)`` (rk 1-based) assembled from per-bucket Arrow
    tables without driver materialization."""
    import ray.data as rd

    K = int(num_partitions)
    edge_refs, _ = _bucket_edges(edges_ds, K, spill_dir)
    sample = _tasks(_sample_bucket)
    return rd.from_arrow_refs([sample(fanout, *parts) for parts
                               in _adjacency_parts(K, edge_refs)])
