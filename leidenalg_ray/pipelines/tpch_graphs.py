"""Graph construction from the driver's TPC-H-ish tables.

Two canonical graphs (used by the correctness-gate queries and bench):

- ``ps``: directed bipartite part->supplier graph from lineitem;
  vertex encoding ``part -> 2*l_partkey``, ``supplier ->
  2*l_suppkey+1`` (disjoint id spaces, reproducible in SQL);
  weight = number of lineitem rows. Suppliers are dangling
  (out-degree 0) — exercises PageRank's dangling-mass path.
- ``co``: undirected part co-occurrence graph: two parts are linked
  once per pair of lineitem rows that share an order
  (``a < b`` canonical orientation); weight = pair count.

The co graph is a self-join of lineitem on ``l_orderkey`` followed by
a count per pair, built on the bucketed task exchange of
``dist/exchange.py`` (no Ray Data read, join or groupby):

1. the driver lists lineitem's parquet row groups from the footers;
2. one task per row group reads ``(l_orderkey, l_partkey)`` and cuts
   the rows by ``l_orderkey % K``, so every order lands whole in one
   partition;
3. one pair task per partition sorts its rows by (orderkey, partkey),
   expands each order's row pairs with ``a < b`` and pre-aggregates
   them into ``(a << 32 | b, count)`` partials;
4. the final combine sums the partials per pair key: on the driver
   for ``co_edge_arrays``, in K tasks fed by a second cut by pair key
   for ``co_edges``.

This is the partial-then-final hash aggregation of "Robust External
Hash Aggregation in the Solid State Age" (ICDE 2024, PAPERS.md) with
the partition by order key standing in for the join.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..dist.cooccur import _cut_orders, _merge_pairs, _merge_table, \
    _order_pairs
from ..dist.exchange import _tasks, _width
from ..util import join_partitions


def read_lineitem(sf_dir, columns):
    return rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=columns)


def ps_edges(sf_dir):
    """Dataset (src, dst, weight) for the part->supplier graph."""
    li = read_lineitem(sf_dir, ["l_partkey", "l_suppkey"])

    def preagg(t: pa.Table) -> pa.Table:
        src = pc.multiply(t["l_partkey"], 2)
        dst = pc.add(pc.multiply(t["l_suppkey"], 2), 1)
        tt = pa.table({"src": src, "dst": dst})
        return tt.group_by(["src", "dst"]).aggregate([([], "count_all")]) \
                 .rename_columns(["src", "dst", "weight"])

    pre = li.map_batches(preagg, batch_format="pyarrow",
                         zero_copy_batch=True)
    out = pre.groupby(["src", "dst"]).aggregate(
        Sum("weight", alias_name="weight"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.cast(t["src"], pa.int64()),
            "dst": pc.cast(t["dst"], pa.int64()),
            "weight": pc.cast(t["weight"], pa.float64()),
        })
    return out.map_batches(finish, batch_format="pyarrow")


def _lineitem_row_groups(sf_dir):
    """``(path, row group)`` of every row group of
    ``<sf_dir>/lineitem.parquet`` (one file or a directory of files),
    and the total row count, read from the parquet footers only."""
    ds = pads.dataset(os.path.abspath(f"{sf_dir}/lineitem.parquet"),
                      format="parquet")
    groups, rows = [], 0
    for frag in ds.get_fragments():
        meta = frag.metadata
        groups += [(frag.path, g) for g in range(meta.num_row_groups)]
        rows += meta.num_rows
    return groups, rows


def _co_partials(sf_dir, num_partitions, by_key):
    """Steps 1-3 of the co-graph build (module docstring): per order
    partition, its pair partials as one ref, or (``by_key``) as K refs
    cut by pair key for K combine tasks. K is ``num_partitions``,
    raised by ``_width`` so a pair task holds about 128Ki lineitem
    rows at most; it is a task count, safe above the CPU count."""
    groups, rows = _lineitem_row_groups(sf_dir)
    K = _width(num_partitions, rows)
    cut = _tasks(_cut_orders, K, split=True)
    parts = [cut(K, path, g) for path, g in groups]
    J = K if by_key else 1
    pairs = _tasks(_order_pairs, J, split=True)
    return [pairs(J, *[q[k] for q in parts]) for k in range(K)]


def co_edges(sf_dir, num_partitions=16):
    """Dataset (a, b, weight): part co-occurrence within orders, a<b,
    one row per pair. The order-partitioned pair partials (module
    docstring) are cut again by pair key, and K combine tasks sum
    them into K tables (``num_partitions`` sizes K, see
    ``_co_partials``)."""
    outs = _co_partials(sf_dir, num_partitions, by_key=True)
    combine = _tasks(_merge_table)
    return rd.from_arrow_refs([combine(*[o[k] for o in outs])
                               for k in range(len(outs))])


_CO_ROWS_CACHE = {}


def co_edge_rows(sf_dir, num_partitions=16):
    """Multi-edge variant of ``co_edges``: (src, dst, weight) rows of
    the co graph pre-aggregated per batch of a Ray Data self hash-join
    on ``l_orderkey``, WITHOUT the final dedup, so a pair can span
    several rows. Consumers whose math sums edge weights anyway
    (Leiden, weighted PageRank, CSR block builds with partition-local
    dedup) don't need the exact one-row-per-pair table. Memoised
    (materialized) per sf_dir: every graph query on the co graph
    shares one self-join.

    It stays on the Ray Data join, unlike ``co_edges``: the seeded
    ``leiden_*_co`` rows consume this row multiset (its row split and
    order), and those rows have no oracle yet to show that a
    different multiset leaves their output correct."""
    num_partitions = join_partitions(num_partitions)
    key = (sf_dir, num_partitions)
    if key in _CO_ROWS_CACHE:
        return _CO_ROWS_CACHE[key]
    li = read_lineitem(sf_dir, ["l_orderkey", "l_partkey"])
    right = li.map_batches(
        lambda t: t.rename_columns(["l_orderkey", "partkey_r"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = li.join(right, "inner", num_partitions, on=("l_orderkey",))

    def pairs(t: pa.Table) -> pa.Table:
        a = t["l_partkey"]
        b = t["partkey_r"]
        tt = pa.table({"a": a, "b": b}).filter(pc.less(a, b))
        out = tt.group_by(["a", "b"]).aggregate([([], "count_all")]) \
                .rename_columns(["src", "dst", "weight"])
        return pa.table({
            "src": pc.cast(out["src"], pa.int64()),
            "dst": pc.cast(out["dst"], pa.int64()),
            "weight": pc.cast(out["weight"], pa.float64()),
        })

    _CO_ROWS_CACHE[key] = joined.map_batches(
        pairs, batch_format="pyarrow",
        zero_copy_batch=True).materialize()
    return _CO_ROWS_CACHE[key]


# ----------------------------------------------------------------------
# Planted structured graphs with closed-form Leiden optima.
#
# These are correctness instruments (reference
# ``tests/test_Optimiser.py:12-18,96-103``: K_n below the density
# threshold is one community; CPM at gamma->0 is connected
# components): at the chosen gammas the UNIQUE optimum is one
# community per nation, so the driver can verify the Leiden family
# against a plain-SQL oracle (dense rank of nations by size desc,
# min-suppkey asc — the engine's renumber contract).
# ----------------------------------------------------------------------
def nation_clique_edges(sf_dir):
    """Dataset (src, dst, weight=1): one clique per nation over
    supplier vids (s_suppkey is 0-based contiguous)."""
    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    right = su.map_batches(
        lambda t: t.rename_columns(["suppkey_r", "s_nationkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = su.join(right, "inner", join_partitions(4),
                     on=("s_nationkey",))

    def pairs(t: pa.Table) -> pa.Table:
        a, b = t["s_suppkey"], t["suppkey_r"]
        tt = pa.table({"src": a, "dst": b}).filter(pc.less(a, b))
        return pa.table({
            "src": pc.cast(tt["src"], pa.int64()),
            "dst": pc.cast(tt["dst"], pa.int64()),
            "weight": pa.array(np.ones(tt.num_rows)),
        })

    return joined.map_batches(pairs, batch_format="pyarrow",
                              zero_copy_batch=True)


def nation_bipartite_edges(sf_dir, weight=-0.1):
    """Dataset (src, dst, weight=-0.1): the FULL bipartite graph
    between two nation-indexed sides — side A vid = n_nationkey
    (0..24), side B vid = 25 + n_nationkey — every cross pair one
    edge. The negative-weight ALL_COMMS fixture (reference
    ``tests/test_Optimiser.py:167-175``) at nation scale: same-side
    vertices share no edge, so only an all-communities candidate set
    can merge a side."""
    na = rd.read_parquet(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey"])

    def keyed(name):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                name: pc.cast(t["n_nationkey"], pa.int64()),
                "one": pa.array(np.zeros(t.num_rows, np.int64)),
            })
        return fn

    left = na.map_batches(keyed("a"), batch_format="pyarrow",
                          zero_copy_batch=True)
    right = na.map_batches(keyed("b"), batch_format="pyarrow",
                           zero_copy_batch=True)
    joined = left.join(right, "inner", join_partitions(4), on=("one",))

    def pairs(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t["a"],
            "dst": pc.add(pc.cast(t["b"], pa.int64()),
                          pa.scalar(25, pa.int64())),
            "weight": pa.array(np.full(t.num_rows, float(weight))),
        })

    return joined.map_batches(pairs, batch_format="pyarrow",
                              zero_copy_batch=True)


def nation_bipartite_clique_edges(sf_dir):
    """Dataset (src, dst, weight=1): one COMPLETE BIPARTITE block per
    nation — side A vid = s_suppkey, side B vid = n + s_suppkey
    (n = supplier count), every cross pair within a nation one edge.
    The bipartite-CPM planted fixture: with gamma_0 = gamma_1 = 0 the
    objective reduces to w_in - gamma_01 * (#cross-side pairs), so
    one community per nation block is the unique optimum (merging
    blocks adds cross pairs with no edges; splitting loses edges)."""
    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    n = supplier_count(sf_dir)
    right = su.map_batches(
        lambda t: t.rename_columns(["suppkey_r", "s_nationkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = su.join(right, "inner", join_partitions(4),
                     on=("s_nationkey",))

    def pairs(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.cast(t["s_suppkey"], pa.int64()),
            "dst": pc.add(pc.cast(t["suppkey_r"], pa.int64()),
                          pa.scalar(n, pa.int64())),
            "weight": pa.array(np.ones(t.num_rows)),
        })

    return joined.map_batches(pairs, batch_format="pyarrow",
                              zero_copy_batch=True)


def nation_ring_edges(sf_dir):
    """Dataset (src, dst, weight=1): one ring per nation (suppliers in
    suppkey order, consecutive + wraparound when size >= 3)."""
    import pandas as pd

    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])

    def ring(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["s_suppkey"].to_numpy(np.int64))
        if len(v) < 2:
            return _empty_edges()
        src = list(v[:-1])
        dst = list(v[1:])
        if len(v) >= 3:
            src.append(int(v[0]))
            dst.append(int(v[-1]))
        return pd.DataFrame({"src": np.asarray(src, np.int64),
                             "dst": np.asarray(dst, np.int64),
                             "weight": np.ones(len(src))})

    return su.groupby("s_nationkey").map_groups(ring,
                                                batch_format="pandas")


def nation_path_edges(sf_dir):
    """Dataset (src, dst, weight=1): one simple path per nation
    (suppliers in suppkey order, consecutive pairs — the ring builder
    without the wraparound edge). Shortest paths on a path are unique
    and integral, which makes sampled Brandes betweenness closed-form
    (seed at one end -> dependency of position i is k-1-i)."""
    import pandas as pd

    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])

    def path(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["s_suppkey"].to_numpy(np.int64))
        if len(v) < 2:
            return _empty_edges()
        return pd.DataFrame({"src": v[:-1], "dst": v[1:],
                             "weight": np.ones(len(v) - 1)})

    return su.groupby("s_nationkey").map_groups(path,
                                                batch_format="pandas")


def _empty_edges():
    import pandas as pd
    return pd.DataFrame({"src": np.empty(0, np.int64),
                         "dst": np.empty(0, np.int64),
                         "weight": np.empty(0, np.float64)})


def nation_star_edges(sf_dir):
    """Dataset (src, dst, weight=1): one star per nation, hub = min
    suppkey. Every leaf is hub-adjacent, so greedy local moves reach
    the unique gamma->0 optimum (one community per component) with no
    arc-split trap — the safe 'CPM at gamma->0 == connected
    components' instrument (rings/paths have node-optimal partial
    splits that Leiden legitimately returns)."""
    import pandas as pd

    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])

    def star(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["s_suppkey"].to_numpy(np.int64))
        if len(v) < 2:
            return _empty_edges()
        return pd.DataFrame({"src": np.full(len(v) - 1, v[0], np.int64),
                             "dst": v[1:],
                             "weight": np.ones(len(v) - 1)})

    return su.groupby("s_nationkey").map_groups(star,
                                                batch_format="pandas")


def supplier_count(sf_dir):
    return rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey"]).count()


def part_count(sf_dir):
    return rd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey"]).count()


_CO_CACHE = {}


def co_edge_arrays(sf_dir, num_partitions=16):
    """(a, b, weight) numpy arrays of the co-occurrence graph, sorted
    by (a, b): the order-partitioned pair partials (module docstring)
    summed on the driver by one ``np.unique`` + ``np.add.at``, since
    the superstep substrate consumes driver-side arrays. The arrays
    do not depend on ``num_partitions`` (K, see ``_co_partials``).
    Memoised per sf_dir: the graph algorithms in the driver's
    correctness gate all share one build."""
    if sf_dir not in _CO_CACHE:
        outs = _co_partials(sf_dir, num_partitions, by_key=False)
        _CO_CACHE[sf_dir] = _merge_pairs(*ray.get([o[0] for o in outs]))
    return _CO_CACHE[sf_dir]


_PS_CACHE = {}


def ps_edge_arrays(sf_dir):
    if sf_dir not in _PS_CACHE:
        df = ps_edges(sf_dir).to_pandas()
        _PS_CACHE[sf_dir] = (df["src"].to_numpy(np.int64),
                             df["dst"].to_numpy(np.int64),
                             df["weight"].to_numpy(np.float64))
    return _PS_CACHE[sf_dir]
