"""Task kernels of the co-occurrence graph build: a self-join of
lineitem on ``l_orderkey`` and a count per part pair, run on the
exchange of ``exchange.py`` by ``pipelines/tpch_graphs.py`` (whose
module docstring gives the plan).

They live apart from ``tpch_graphs`` so that an exchange worker
imports only numpy, pyarrow.parquet and this package's core, not Ray
Data: a cold worker spent 0.47 s importing ``tpch_graphs`` before its
first task.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .exchange import _split_by

# pair keys pack as a * _PAIR_M + b (part keys below 2**32)
_PAIR_M = np.int64(1) << 32


def _cut_orders(K, path, group):
    """One lineitem row group's ``(l_orderkey, l_partkey)`` rows without
    nulls (they join nothing), cut into K parts by ``l_orderkey % K``."""
    t = pq.ParquetFile(path).read_row_group(
        group, columns=["l_orderkey", "l_partkey"]).drop_null()
    o = t["l_orderkey"].to_numpy().astype(np.int64)
    p = t["l_partkey"].to_numpy().astype(np.int64)
    return _split_by(o % K, K, o, p)


def _order_pairs(J, *parts):
    """One partition's co pairs, pre-aggregated: the distinct keys
    ``a * _PAIR_M + b`` of the row pairs of one order with part keys
    ``a < b`` (equal parts pair with nothing), and how often each
    occurs, cut into J parts by ``key % J``. Every order's rows are in
    this partition, so the pair counts are exact for its orders."""
    o = np.concatenate([np.empty(0, np.int64)] + [q[0] for q in parts])
    p = np.concatenate([np.empty(0, np.int64)] + [q[1] for q in parts])
    order = np.lexsort((p, o))
    o, p = o[order], p[order]
    # row i pairs with the later rows i+1 .. end-1 of its order
    starts = np.flatnonzero(np.r_[True, o[1:] != o[:-1]])
    ends = np.r_[starts[1:], len(o)]
    later = np.repeat(ends, ends - starts) - np.arange(len(o)) - 1
    left = np.repeat(np.arange(len(o)), later)
    first = np.cumsum(later) - later
    right = left + 1 + np.arange(len(left)) - np.repeat(first, later)
    a, b = p[left], p[right]
    keep = a < b
    key, count = np.unique(a[keep] * _PAIR_M + b[keep], return_counts=True)
    return _split_by(key % J, J, key, count)


def _merge_pairs(*partials):
    """``(a, b, weight)`` of the summed ``(key, count)`` partials,
    sorted by (a, b): the final combine of the co-graph aggregate."""
    key = np.concatenate([np.empty(0, np.int64)] + [k for k, _ in partials])
    wt = np.concatenate([np.empty(0)] + [c for _, c in partials]) \
        .astype(np.float64)
    uniq, inv = np.unique(key, return_inverse=True)
    w = np.zeros(len(uniq))
    np.add.at(w, inv, wt)
    return ((uniq // _PAIR_M).astype(np.int64),
            (uniq % _PAIR_M).astype(np.int64), w)


def _merge_table(*partials):
    """``_merge_pairs`` as an (a, b, weight) table."""
    a, b, w = _merge_pairs(*partials)
    return pa.table({"a": a, "b": b, "weight": w})
