"""The engine's query catalogue: every operator from SURVEY.md §2 plus
the training-data operators, each as a callable ``(sf_dir) -> result``
with (where SQL-expressible) a DuckDB oracle in ``ORACLE_SQL`` computing
the same result on the same parquet tables.

Column names and float rounding are deliberately identical on both
sides: the driver hashes values after sorting columns by name, so an
aggregate named differently (or a float that differs in the 7th
decimal) is a mismatch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Count, Min, Sum

from . import tpch_graphs as tg
from ..dist.blocks import DistGraph
from ..dist import superstep as ss
from ..dist.triangles import triangle_count
from ..stages import text as tx
from ..stages import dedup as dd
from ..stages import ann as annm
from ..util import join_partitions, round6, round_half_away

PAGERANK_ITERS = 30
DAMPING = 0.85


def _docs(sf_dir, columns=("doc_id", "text")):
    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=list(columns))


def _emb(sf_dir):
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])


# Dataset-built CSR substrates for the BSP graph queries (PageRank,
# CC, LP): edges stream through `DistGraph.from_dataset` on the RAW id
# space — no driver-side edge arrays, no driver-side id compaction
# (kernels take the vertex set from per-partition active masks). One
# build per (sf_dir, graph) is shared by every query on that graph.
_G_CACHE = {}


def _co_distgraph(sf_dir, P=8):
    """Symmetrised weighted co-occurrence graph from the multi-edge
    Dataset; exact dedup happens partition-locally in the block
    build."""
    key = (sf_dir, "co")
    if key not in _G_CACHE:
        from ..dist.blocks import symmetrize_edges
        n = int(rd.read_parquet(f"{sf_dir}/part.parquet",
                                columns=["p_partkey"])
                .max("p_partkey")) + 1
        edges = symmetrize_edges(tg.co_edge_rows(sf_dir))
        _G_CACHE[key] = DistGraph.from_dataset(
            edges, n=n, P=P, directed=False, dedup=True)
    return _G_CACHE[key]


def _ps_distgraph(sf_dir, symmetric, P=8):
    """Part–supplier bipartite graph (vids: partkey*2 / suppkey*2+1)
    from the already-deduped edge Dataset."""
    key = (sf_dir, "ps", symmetric)
    if key not in _G_CACHE:
        from ..dist.blocks import symmetrize_edges
        np_ = int(rd.read_parquet(f"{sf_dir}/part.parquet",
                                  columns=["p_partkey"])
                  .max("p_partkey"))
        ns = int(rd.read_parquet(f"{sf_dir}/supplier.parquet",
                                 columns=["s_suppkey"])
                 .max("s_suppkey"))
        n = max(2 * np_, 2 * ns + 1) + 1
        edges = tg.ps_edges(sf_dir)
        if symmetric:
            edges = symmetrize_edges(edges)
        _G_CACHE[key] = DistGraph.from_dataset(
            edges, n=n, P=P, directed=not symmetric, dedup=False)
    return _G_CACHE[key]


# ======================================================================
# Relational / aggregate baseline
# ======================================================================
def q_pricing_summary(sf_dir):
    """TPC-H Q1-shaped pricing summary: per-batch partial aggregation
    (the combiner) feeding a small groupby — the canonical
    pre-aggregate-then-shuffle pattern."""
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        disc_price = pc.multiply(t["l_extendedprice"],
                                 pc.subtract(1.0, t["l_discount"]))
        tt = pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": t["l_quantity"],
            "price": t["l_extendedprice"],
            "disc": t["l_discount"],
            "disc_price": disc_price,
        })
        return tt.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("price", "sum"), ("disc", "sum"),
             ("disc_price", "sum"), ([], "count_all")]) \
            .rename_columns(["l_returnflag", "l_linestatus", "sum_qty",
                             "sum_price", "sum_disc", "sum_disc_price",
                             "n"])

    pre = li.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
    agg = pre.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_price", alias_name="sum_price"),
        Sum("sum_disc", alias_name="sum_disc"),
        Sum("sum_disc_price", alias_name="sum_disc_price"),
        Sum("n", alias_name="n"))
    df = agg.to_pandas()
    out = pd.DataFrame({
        "l_returnflag": df["l_returnflag"],
        "l_linestatus": df["l_linestatus"],
        "sum_qty": round_half_away(df["sum_qty"], 2),
        "sum_base_price": round_half_away(df["sum_price"], 2),
        "sum_disc_price": round_half_away(df["sum_disc_price"], 2),
        "avg_qty": round6(df["sum_qty"] / df["n"]),
        "avg_disc": round6(df["sum_disc"] / df["n"]),
        "count_order": df["n"].astype(np.int64),
    })
    return out


SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(sum(l_quantity) / count(*), 6) AS avg_qty,
       round(sum(l_discount) / count(*), 6) AS avg_disc,
       count(*) AS count_order
FROM lineitem GROUP BY 1, 2
"""


def q_degree_ps(sf_dir):
    e = tg.ps_edges(sf_dir)
    out = e.groupby("src").aggregate(
        Count(alias_name="out_degree"),
        Sum("weight", alias_name="out_strength"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t["src"],
            "out_degree": pc.cast(t["out_degree"], pa.int64()),
            "out_strength": pc.cast(t["out_strength"], pa.float64()),
        })
    return out.map_batches(finish, batch_format="pyarrow")


def q_top_parts_by_strength(sf_dir):
    """Top-20 parts by summed edge weight (integer-valued -> exact
    hash match), deterministic tie-break on vid: the engine's
    sort + limit path (``ds.sort(...).limit(k)``)."""
    deg = q_degree_ps(sf_dir)
    top = deg.sort(["out_strength", "src"], descending=[True, False]) \
             .limit(20)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t["src"],
            "out_strength": pc.cast(t["out_strength"], pa.float64()),
        })
    return top.map_batches(finish, batch_format="pyarrow")


SQL_TOP_PARTS_BY_STRENGTH = """
WITH e AS (SELECT l_partkey * 2 AS src, l_suppkey * 2 + 1 AS dst,
                  CAST(count(*) AS DOUBLE) AS weight
           FROM lineitem GROUP BY 1, 2),
deg AS (SELECT src, sum(weight) AS out_strength FROM e GROUP BY src)
SELECT src, out_strength FROM deg
ORDER BY out_strength DESC, src ASC LIMIT 20
"""


# ======================================================================
# PageRank
# ======================================================================
def q_pagerank_co(sf_dir):
    """Weighted PageRank on the symmetrised co-occurrence graph,
    exactly PAGERANK_ITERS iterations (fixed, so the SQL oracle can
    reproduce it); ranks rounded to 6 decimals. Dataset-built CSR on
    the raw part-key id space, vertex set = active mask — the driver
    never holds the edge list or an id map."""
    g = _co_distgraph(sf_dir)
    rank, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                          max_iter=PAGERANK_ITERS, weighted=True,
                          active=True)
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "rank": pa.array(round6(rank[vids]))})


SQL_PAGERANK_CO = f"""
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
              CAST(count(*) AS DOUBLE) AS w
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS (SELECT a, b, w FROM e0 UNION ALL SELECT b, a, w FROM e0),
verts AS (SELECT a AS v, sum(w) AS strength FROM e GROUP BY a),
nn AS (SELECT count(*) AS n FROM verts),
pr(i, v, r) AS (
  SELECT 0, v, 1.0 / (SELECT n FROM nn) FROM verts
  UNION ALL
  SELECT p.i + 1, e.b,
         (1 - {DAMPING}) / (SELECT n FROM nn)
         + {DAMPING} * sum(p.r * e.w / vs.strength)
  FROM pr p
  JOIN verts vs ON vs.v = p.v
  JOIN e ON e.a = p.v
  WHERE p.i < {PAGERANK_ITERS}
  GROUP BY p.i, e.b
)
SELECT v AS vid, round(r, 6) AS rank
FROM pr WHERE i = {PAGERANK_ITERS}
"""


def q_participation_co(sf_dir):
    """Participation coefficient (Guimerà & Amaral 2005, 'cartography
    of complex networks'): P(v) = 1 - Σ_c (k_vc / k_v)², the
    community-role metric over the LP partition (LP is itself
    driver-green via its recursive-CTE twin, so the composition stays
    fully SQL-checkable). Integer k_vc/k_v sums with ONE final
    division — no float-accumulation-order divergence possible.
    Degrees/per-community counts use the deduped edge arrays (gate
    scale; at scale both are one groupby over (v, lab[nbr]))."""
    g = _co_distgraph(sf_dir)
    lab, _ = ss.label_propagation(g, max_iter=20)
    t = pa.concat_tables(
        [bt for bt in tg.co_edge_rows(sf_dir).iter_batches(
            batch_size=None, batch_format="pyarrow")])
    s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(max(s.max(), d.max())) + 1
    lo, hi = np.minimum(s, d), np.maximum(s, d)
    keys = np.unique(lo[lo != hi] * np.int64(n) + hi[lo != hi])
    a, b = keys // n, keys % n
    src = np.concatenate([a, b])
    nbr = np.concatenate([b, a])
    k = np.bincount(src, minlength=n).astype(np.int64)
    ckeys, ccnt = np.unique(src * np.int64(n) + lab[nbr],
                            return_counts=True)
    ssum = np.zeros(n, dtype=np.int64)
    np.add.at(ssum, ckeys // n, ccnt.astype(np.int64) ** 2)
    vids = np.flatnonzero(k > 0).astype(np.int64)
    part = 1.0 - ssum[vids].astype(np.float64) \
        / (k[vids] * k[vids]).astype(np.float64)
    return pa.table({
        "vid": pa.array(vids),
        "label": pa.array(lab[vids].astype(np.int64)),
        "participation": pa.array(round6(part)),
    })


SQL_PARTICIPATION_CO = """
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
              CAST(count(*) AS DOUBLE) AS w
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS (SELECT a, b, w FROM e0 UNION ALL SELECT b, a, w FROM e0),
verts AS (SELECT DISTINCT a AS v FROM e),
lp(i, v, lab) AS (
  SELECT 0, v, v FROM verts
  UNION ALL
  SELECT q.i + 1, q.v, q.lab FROM (
    SELECT p.i AS i, e.b AS v, p.lab AS lab,
           row_number() OVER (PARTITION BY e.b
                              ORDER BY sum(e.w) DESC, p.lab ASC) AS rn
    FROM lp p JOIN e ON e.a = p.v
    WHERE p.i < 20
    GROUP BY p.i, e.b, p.lab
  ) q WHERE q.rn = 1
),
labs AS (SELECT v, lab FROM lp WHERE i = 20),
deg AS (SELECT a AS v, count(*) AS k FROM e GROUP BY 1),
kic AS (SELECT e.a AS v, l.lab AS c, count(*) AS kc
        FROM e JOIN labs l ON l.v = e.b GROUP BY 1, 2)
SELECT CAST(d.v AS BIGINT) AS vid,
       CAST(l.lab AS BIGINT) AS label,
       round(1 - CAST(sum(kic.kc * kic.kc) AS DOUBLE)
             / (d.k * d.k), 6) AS participation
FROM kic JOIN deg d ON d.v = kic.v JOIN labs l ON l.v = kic.v
GROUP BY d.v, l.lab, d.k
"""


# ======================================================================
# BFS distances / k-core / HITS / clustering coefficient
# ======================================================================
_SQL_CO_EDGES_BOTH = """
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS (SELECT a, b FROM e0 UNION ALL SELECT b AS a, a AS b FROM e0)"""


PPR_SEEDS = 5


KATZ_ALPHA = 0.005
KATZ_BETA = 1.0
KATZ_ITERS = 20


def q_katz_co(sf_dir):
    """Katz centrality on the simple (unweighted) symmetric co graph:
    fixed KATZ_ITERS Jacobi supersteps, alpha below 1/lambda_max so
    the series converges; rounded to 6 decimals for the CTE oracle."""
    g = _co_distgraph(sf_dir)
    x = ss.katz(g, alpha=KATZ_ALPHA, beta=KATZ_BETA, iters=KATZ_ITERS)
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "katz": pa.array(round6(x[vids]))})


SQL_KATZ_CO = f"""
WITH RECURSIVE
{_SQL_CO_EDGES_BOTH},
verts AS (SELECT DISTINCT a AS v FROM e),
katz(i, v, x) AS (
  -- CAST: a bare 1.0 literal would type x DECIMAL(2,1) and truncate
  SELECT 0, v, CAST({KATZ_BETA} AS DOUBLE) FROM verts
  UNION ALL
  SELECT p.i + 1, p.v,
         {KATZ_BETA} + {KATZ_ALPHA} *
         COALESCE((SELECT sum(p2.x) FROM katz p2 JOIN e ON e.a = p2.v
                   WHERE e.b = p.v AND p2.i = p.i), 0)
  FROM katz p WHERE p.i < {KATZ_ITERS}
)
SELECT v AS vid, round(x, 6) AS katz
FROM katz WHERE i = {KATZ_ITERS}
"""


# SQL fragment: canonical co pairs + both-directions expansion shared
# by the link-prediction / sampling / assortativity oracles.
_SQL_CO_PAIRS = """e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
      FROM lineitem l1 JOIN lineitem l2
        ON l1.l_orderkey = l2.l_orderkey
       AND l1.l_partkey < l2.l_partkey
      GROUP BY 1, 2)"""


def _item_seq_edges(sf_dir):
    """Directed item-sequence graph: within each order, consecutive
    line numbers give a part->part transition edge. One l_orderkey
    hash shuffle. Returns (edges Dataset, n)."""
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_partkey"])
    n = int(rd.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey"]).max("p_partkey")) + 1

    def seq(g: pd.DataFrame) -> pd.DataFrame:
        # (l_orderkey, l_linenumber) has ties in the synthetic data:
        # break on l_partkey for a total, oracle-replicable order
        g = g.sort_values(["l_linenumber", "l_partkey"])
        a = g["l_partkey"].to_numpy(np.int64)
        return pd.DataFrame({"src": a[:-1], "dst": a[1:]})

    return li.groupby("l_orderkey").map_groups(
        seq, batch_format="pandas"), n


def _item_seq_distgraph(sf_dir, P=8):
    """Cached forward item-sequence DistGraph: the l_orderkey shuffle
    and parquet spill run once per sf_dir and are shared by every
    item-sequence query (SCC, bow-tie, walks, effective diameter).
    The spill dir is kept on the instance so the reversed build can
    reuse it."""
    key = (sf_dir, "item_seq")
    if key not in _G_CACHE:
        import tempfile
        edges, n = _item_seq_edges(sf_dir)
        spill = tempfile.mkdtemp(prefix="lray_itemseq_")
        g = DistGraph.from_dataset(edges, n=n, P=P, directed=True,
                                   dedup=True, spill_dir=spill)
        g._item_seq_spill = spill
        _G_CACHE[key] = g
    return _G_CACHE[key]


def _item_seq_rev_distgraph(sf_dir, P=8):
    """Reversed item-sequence blocks from the forward build's parquet
    spill — the l_orderkey shuffle runs once, not twice."""
    key = (sf_dir, "item_seq_rev")
    if key not in _G_CACHE:
        gf = _item_seq_distgraph(sf_dir, P)
        swapped = rd.read_parquet(gf._item_seq_spill,
                                  columns=["src", "dst"]) \
            .map_batches(
                lambda t: pa.table({"src": t["dst"],
                                    "dst": t["src"]}),
                batch_format="pyarrow", zero_copy_batch=True)
        _G_CACHE[key] = DistGraph.from_dataset(
            swapped, n=gf.n, P=P, directed=True, dedup=True)
    return _G_CACHE[key]


def q_dag_depth_items(sf_dir):
    """Critical-path depth of the item-sequence graph: SCC labels
    (FW-BW kernel), condense edges to labels (vectorised broadcast
    relabel, partition-local dedup in the block build), then the
    integer max-plus ``dag_longest_path`` kernel on the condensation
    DAG — every vertex reports the longest condensed path (in edges)
    ending at its SCC. The recursive-CTE oracle enumerates (vertex,
    path-length) pairs on the same DAG; UNION dedup bounds it by
    V x depth rows."""
    import ray

    gf = _item_seq_distgraph(sf_dir)
    gb = _item_seq_rev_distgraph(sf_dir)
    lab, _ = ss.scc(gf, gb)
    lab_ref = ray.put(lab)

    def relabel(t: pa.Table) -> pa.Table:
        lb = ray.get(lab_ref)
        a = lb[t["src"].to_numpy(zero_copy_only=False)]
        b = lb[t["dst"].to_numpy(zero_copy_only=False)]
        keep = a != b
        return pa.table({"src": pa.array(a[keep].astype(np.int64)),
                         "dst": pa.array(b[keep].astype(np.int64))})

    cond = rd.read_parquet(gf._item_seq_spill, columns=["src", "dst"]) \
        .map_batches(relabel, batch_format="pyarrow",
                     zero_copy_batch=True)
    g2 = DistGraph.from_dataset(cond, n=gf.n, P=8, directed=True,
                                dedup=True)
    depth, _ = ss.dag_longest_path(g2)
    vids = np.flatnonzero(gf.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "depth": pa.array(depth[lab[vids]])})


SQL_DAG_DEPTH_ITEMS = """
WITH RECURSIVE
seq AS (SELECT l_partkey AS a,
               lead(l_partkey) OVER (PARTITION BY l_orderkey
                                     ORDER BY l_linenumber, l_partkey) AS b
        FROM lineitem),
e AS (SELECT DISTINCT a, b FROM seq WHERE b IS NOT NULL),
verts AS (SELECT a AS v FROM e UNION SELECT b FROM e),
reach(s, t) AS (
  SELECT a, b FROM e
  UNION
  SELECT r.s, e.b FROM reach r JOIN e ON e.a = r.t
),
mutual AS (SELECT r1.s AS v, r1.t AS u
           FROM reach r1 JOIN reach r2 ON r1.s = r2.t AND r1.t = r2.s),
lab AS (SELECT vv.v AS v,
               least(vv.v, coalesce(min(m.u), vv.v)) AS l
        FROM verts vv LEFT JOIN mutual m ON m.v = vv.v
        GROUP BY vv.v),
ec AS (SELECT DISTINCT la.l AS a, lb.l AS b
       FROM e JOIN lab la ON la.v = e.a JOIN lab lb ON lb.v = e.b
       WHERE la.l <> lb.l),
cverts AS (SELECT DISTINCT l AS v FROM lab),
paths(v, d) AS (
  SELECT v, 0 FROM cverts
  UNION
  SELECT ec.b, p.d + 1 FROM paths p JOIN ec ON ec.a = p.v
),
depth AS (SELECT v, max(d) AS d FROM paths GROUP BY v)
SELECT CAST(lab.v AS BIGINT) AS vid, CAST(depth.d AS BIGINT) AS depth
FROM lab JOIN depth ON depth.v = lab.l
"""


WALK_SEEDS = 8
WALK_LEN = 8


def q_fingerprint_md5(sf_dir):
    return tx.md5_fingerprints(_docs(sf_dir))


SQL_FINGERPRINT_MD5 = """
SELECT doc_id, md5(text) AS fingerprint FROM documents
"""


def q_fingerprint_rolling(sf_dir):
    return tx.rolling_fingerprint(_docs(sf_dir))


# ``hash_token`` is the first 8 bytes of md5, big-endian — exactly this
# DuckDB expression, which makes every hash-derived operator (rolling
# fingerprints, SimHash, MinHash) SQL-oracle-able.
_SQL_TOKHASH = "('0x' || substr(md5({w}), 1, 16))::UBIGINT"
_M61_SQL = f"{(1 << 61) - 1}::HUGEINT"

# documents -> (doc_id, h: UBIGINT[] token hashes, n: token count),
# duplicates preserved (token-stream operators need occurrences).
_SQL_TOKEN_HASHES = f"""
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
  FROM documents
),
th AS (
  SELECT doc_id,
         [{_SQL_TOKHASH.format(w='w')} for w in tk] AS h,
         len(tk) AS n
  FROM toks
)"""

_POW257 = [257 ** k for k in range(8)]
_SQL_WINDOW8 = " + ".join(
    f"h[j+{t}]::HUGEINT*{_POW257[7 - t]}" for t in range(8))

SQL_FINGERPRINT_ROLLING = f"""
WITH {_SQL_TOKEN_HASHES}
SELECT doc_id,
  CASE WHEN len(h) = 0 THEN 0::UBIGINT
       WHEN len(h) >= 8 THEN
         (list_min([({_SQL_WINDOW8}) % {_M61_SQL}
                    for j in range(1, len(h) - 6)]))::UBIGINT
       ELSE
         (list_sum([h[t]::HUGEINT * ({_POW257}[len(h) - t + 1])
                    for t in range(1, len(h) + 1)]) % {_M61_SQL})::UBIGINT
  END AS fingerprint
FROM th
"""


BM25_TERMS = ("hash", "merge", "spark", "stream", "window")


CDC_MOD = 16


def q_inverted_postings(sf_dir):
    """Inverted-index posting lists for the BM25 query vocabulary:
    (term, doc_id, tf) — the index-build half of the retrieval stack
    (BM25 is the scoring half). Embarrassingly parallel: a doc's
    postings come from its own row; only matching terms are emitted,
    so the output is bounded by |q| x docs-containing-q."""
    docs = _docs(sf_dir)
    terms = sorted(BM25_TERMS)

    def postings(t: pa.Table) -> pa.Table:
        tf = tx._doc_term_tf(t)
        keep = pc.is_in(tf["term"], value_set=pa.array(terms))
        tf = tf.filter(keep)
        return pa.table({
            "term": pc.cast(tf["term"], pa.string()),
            "doc_id": pc.cast(tf["doc_id"], pa.int64()),
            "tf": pc.cast(tf["tf"], pa.int64()),
        })

    return docs.map_batches(postings, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_INVERTED_POSTINGS = f"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))
           AS term
  FROM documents)
SELECT term, doc_id, CAST(count(*) AS BIGINT) AS tf
FROM toks WHERE term IN (SELECT unnest({sorted(BM25_TERMS)!r}))
GROUP BY 1, 2
"""


SNIPPET_W = 10


def q_snippet_windows(sf_dir):
    """Best snippet per matching document: among windows of
    SNIPPET_W tokens STARTING AT a query-term hit, the one covering
    the most query-term occurrences (ties -> smallest start). The
    start-at-a-hit restriction loses no hits (shifting a window right
    to its first hit preserves its count) and makes the oracle a
    bounded self-join over hit positions instead of all starts."""
    docs = _docs(sf_dir)
    terms = sorted(BM25_TERMS)

    def best(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                      "[^a-z0-9]+")
        flat = toks.to_pylist()
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_d, out_s, out_h = [], [], []
        for i, ts in enumerate(flat):
            a = np.asarray([w for w in ts if w], dtype=object)
            pos = np.flatnonzero(np.isin(a, terms))
            if len(pos) == 0:
                continue
            cnt = np.searchsorted(pos, pos + SNIPPET_W) \
                - np.arange(len(pos))
            k = int(np.argmax(cnt))  # first max = smallest start
            out_d.append(int(ids[i]))
            out_s.append(int(pos[k]))
            out_h.append(int(cnt[k]))
        return pa.table({"doc_id": pa.array(out_d, pa.int64()),
                         "win_start": pa.array(out_s, pa.int64()),
                         "hits": pa.array(out_h, pa.int64())})

    return docs.map_batches(best, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_SNIPPET_WINDOWS = f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
tp AS (SELECT doc_id,
              unnest([{{'p': j - 1, 'w': ts[j]}}
                      FOR j IN range(1, len(ts) + 1)],
                     recursive := true)
       FROM toks),
hits AS (SELECT doc_id, p FROM tp
         WHERE w IN (SELECT unnest({sorted(BM25_TERMS)!r}))),
wins AS (SELECT h1.doc_id, h1.p AS s, count(*) AS hits
         FROM hits h1 JOIN hits h2
           ON h2.doc_id = h1.doc_id
          AND h2.p >= h1.p AND h2.p < h1.p + {SNIPPET_W}
         GROUP BY 1, 2),
best AS (SELECT doc_id, s, hits,
                row_number() OVER (PARTITION BY doc_id
                                   ORDER BY hits DESC, s ASC) AS rn
         FROM wins)
SELECT doc_id, CAST(s AS BIGINT) AS win_start,
       CAST(hits AS BIGINT) AS hits
FROM best WHERE rn = 1
"""


WINNOW_MIN_SHARED = 2
WINNOW_MAX_BUCKET = 2000


def q_distinct_parts_per_supplier(sf_dir):
    """Exact distributed count-distinct: distinct parts per supplier.
    Per-batch (suppkey, partkey) dedup bounds what the single
    supplier-key shuffle carries at the distinct-pair count, then a
    per-group vectorised nunique."""
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_suppkey", "l_partkey"])

    def pre(t: pa.Table) -> pa.Table:
        return t.group_by(["l_suppkey", "l_partkey"]).aggregate([])

    def nunique(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_suppkey": [g["l_suppkey"].iloc[0]],
            "n_parts": np.array([g["l_partkey"].nunique()], np.int64),
        })

    return li.map_batches(pre, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("l_suppkey").map_groups(nunique, batch_format="pandas")


SQL_DISTINCT_PARTS_PER_SUPPLIER = """
SELECT l_suppkey, count(DISTINCT l_partkey) AS n_parts
FROM lineitem GROUP BY l_suppkey
"""


def q_hll_parts_per_supplier(sf_dir):
    """HyperLogLog approximate count-distinct per supplier
    (``stages/sketch.py``): 64-register mergeable sketch, per-batch
    partials, one (key, register) groupby — fixed state per group at
    any corpus size. The register layout keeps the estimator
    bit-identical to the SQL replica (dyadic partial sums)."""
    from ..stages import sketch as sk
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_suppkey", "l_partkey"])
    est = sk.hll_count_distinct(li, "l_suppkey", "l_partkey")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_suppkey": pc.cast(t["key"], pa.int64()),
            "hll_est": pa.array(round6(
                t["hll_est"].to_numpy(zero_copy_only=False))),
        })
    return est.map_batches(finish, batch_format="pyarrow")


SQL_HLL_PARTS_PER_SUPPLIER = """
WITH d AS (SELECT DISTINCT l_suppkey, l_partkey FROM lineitem),
h AS (SELECT l_suppkey,
             ('0x' || substr(md5(CAST(l_partkey AS VARCHAR)), 1, 8))
               ::UBIGINT AS h
      FROM d),
b AS (SELECT l_suppkey, CAST(h >> 26 AS BIGINT) AS bucket,
             CAST(h % 67108864 AS BIGINT) AS rem
      FROM h),
b2 AS (SELECT l_suppkey, bucket,
              CASE WHEN rem = 0 THEN 27
                   ELSE 26 - (SELECT max(kk)
                              FROM generate_series(0, 26) g(kk)
                              WHERE rem >= (CAST(1 AS BIGINT) << kk))
              END AS rho
       FROM b),
r AS (SELECT l_suppkey, bucket, max(rho) AS rho
      FROM b2 GROUP BY 1, 2),
agg AS (SELECT l_suppkey, 64 - count(*) AS v_empty,
               sum(CAST(1 AS BIGINT) << (27 - rho))
                 + (64 - count(*)) * 134217728 AS s_int
        FROM r GROUP BY 1)
SELECT l_suppkey,
       round(CASE WHEN ((0.7213 / (1 + 1.079 / 64)) * 64 * 64)
                       / (s_int / 134217728.0) <= 160.0
                       AND v_empty > 0
                  THEN 64 * ln(64.0 / v_empty)
                  ELSE ((0.7213 / (1 + 1.079 / 64)) * 64 * 64)
                       / (s_int / 134217728.0)
             END, 6) AS hll_est
FROM agg
"""


TOPN_PER_CUST = 3


def q_top_orders_per_cust(sf_dir):
    """Windowed rank: top-3 orders per customer by (totalprice desc,
    orderkey asc). Per-batch partial top-3 per key prunes the shuffle
    to <= 3 rows per (batch, key); final rank in a per-key group."""
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderkey",
                                  "o_totalprice"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_totalprice", "o_orderkey"],
                            ascending=[True, False, True])
        return df.groupby("o_custkey", as_index=False,
                          sort=False).head(TOPN_PER_CUST)

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"],
                          ascending=[False, True]) \
            .head(TOPN_PER_CUST).reset_index(drop=True)
        return pd.DataFrame({
            "o_custkey": g["o_custkey"],
            "o_orderkey": g["o_orderkey"],
            "o_totalprice": round6(g["o_totalprice"].to_numpy()),
            "rn": np.arange(1, len(g) + 1, dtype=np.int64),
        })

    return od.map_batches(pre, batch_format="pandas") \
        .groupby("o_custkey").map_groups(rank, batch_format="pandas")


SQL_TOP_ORDERS_PER_CUST = f"""
WITH w AS (
  SELECT o_custkey, o_orderkey, round(o_totalprice, 6) AS o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey)
           AS rn
  FROM orders)
SELECT o_custkey, o_orderkey, o_totalprice, CAST(rn AS BIGINT) AS rn
FROM w WHERE rn <= {TOPN_PER_CUST}
"""


CLOSENESS_SEEDS = 4


def q_orders_rollup(sf_dir):
    """Grouping-sets rollup over (status, year): ONE per-batch
    partial aggregate at the finest level feeds all three levels; the
    (tiny) subtotal and grand-total rows derive from the finest
    groupby output, so the input is shuffled once, pre-aggregated."""
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderstatus", "o_orderdate",
                                  "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        yr = pc.year(t["o_orderdate"])
        # sum exact integer cents so subtotal sums are
        # order-independent (float += order differs engine vs oracle)
        cents = np.floor(
            t["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        tt = pa.table({"o_orderstatus": t["o_orderstatus"],
                       "yr": pc.cast(yr, pa.int64()),
                       "cents": pa.array(cents)})
        return tt.group_by(["o_orderstatus", "yr"]).aggregate(
            [("cents", "sum"), ([], "count_all")]) \
            .rename_columns(["o_orderstatus", "yr", "sum_cents",
                             "n_orders"])

    fine = od.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby(["o_orderstatus", "yr"]).aggregate(
            Sum("sum_cents", alias_name="sum_cents"),
            Sum("n_orders", alias_name="n_orders")) \
        .to_pandas()          # finest level: |status| x |years| rows
    lvl0 = fine.assign(yr=fine["yr"].astype(np.int64).astype(str))
    lvl1 = fine.groupby("o_orderstatus", as_index=False)[
        ["sum_cents", "n_orders"]].sum().assign(yr="ALL")
    lvl2 = pd.DataFrame({"o_orderstatus": ["ALL"], "yr": ["ALL"],
                         "sum_cents": [fine["sum_cents"].sum()],
                         "n_orders": [fine["n_orders"].sum()]})
    out = pd.concat([lvl0, lvl1, lvl2], ignore_index=True)
    return pd.DataFrame({
        "o_orderstatus": out["o_orderstatus"],
        "yr": out["yr"],
        "n_orders": out["n_orders"].astype(np.int64),
        "sum_price": round6(
            out["sum_cents"].to_numpy(np.int64) / 100.0),
    })


SQL_ORDERS_ROLLUP = """
SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
       COALESCE(CAST(year(o_orderdate) AS VARCHAR), 'ALL') AS yr,
       count(*) AS n_orders,
       round(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
             / 100.0, 6) AS sum_price
FROM orders
GROUP BY ROLLUP (o_orderstatus, year(o_orderdate))
"""


def q_cust_no_finished_order(sf_dir):
    """Broadcast anti-join: customers with no finished ('F') order.
    The distinct blocked-key set (bounded by the customer count) is
    built with per-batch dedup + a driver union, shipped once via
    ``ray.put``, and each customer batch filters vectorised — no
    all-to-all shuffle. For a blocked side past driver memory the
    hash-shuffle groupby anti-join replaces the broadcast."""
    import ray as _ray
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderstatus"]) \
        .filter(expr="o_orderstatus == 'F'")

    def keys(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.unique(t["o_custkey"])})

    parts = [b["k"] for b in od.map_batches(
        keys, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow")]
    blocked = np.unique(np.concatenate(
        [p.to_numpy(zero_copy_only=False) for p in parts])
        if parts else np.array([], dtype=np.int64))
    blocked_ref = _ray.put(blocked)

    cu = rd.read_parquet(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"])

    def anti(t: pa.Table) -> pa.Table:
        bl = _ray.get(blocked_ref)
        keep = ~np.isin(t["c_custkey"].to_numpy(), bl)
        return t.filter(pa.array(keep))

    return cu.map_batches(anti, batch_format="pyarrow")


SQL_CUST_NO_FINISHED_ORDER = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderstatus = 'F')
"""


def q_cust_order_counts(sf_dir):
    """Left outer join with zero-fill: per-customer order count.
    The aggregated side (one row per custkey, bounded by the customer
    count) broadcasts once via ``ray.put``; each customer batch
    attaches its count vectorised via ``searchsorted`` — no
    all-to-all join shuffle for an aggregate-then-join pattern."""
    import ray as _ray
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey"])

    def pre(t: pa.Table) -> pa.Table:
        return t.group_by("o_custkey").aggregate([([], "count_all")]) \
            .rename_columns(["o_custkey", "n"])

    counts = od.map_batches(pre, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Sum("n", alias_name="n")) \
        .to_pandas()
    keys = counts["o_custkey"].to_numpy(np.int64)
    vals = counts["n"].to_numpy(np.int64)
    order = np.argsort(keys)
    ref = _ray.put((keys[order], vals[order]))

    cu = rd.read_parquet(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey"])

    def attach(t: pa.Table) -> pa.Table:
        k, v = _ray.get(ref)
        ck = t["c_custkey"].to_numpy()
        pos = np.searchsorted(k, ck)
        pos_c = np.clip(pos, 0, len(k) - 1)
        hit = (len(k) > 0) & (k[pos_c] == ck)
        n = np.where(hit, v[pos_c], 0).astype(np.int64)
        return pa.table({"c_custkey": t["c_custkey"],
                         "n_orders": pa.array(n)})

    return cu.map_batches(attach, batch_format="pyarrow")


SQL_CUST_ORDER_COUNTS = """
SELECT c_custkey, CAST(COALESCE(o.n, 0) AS BIGINT) AS n_orders
FROM customer
LEFT JOIN (SELECT o_custkey, count(*) AS n FROM orders
           GROUP BY o_custkey) o
  ON o.o_custkey = c_custkey
"""


EXCEPT_THRESHOLD = 200


def q_users_click_no_signup(sf_dir):
    """Set difference (EXCEPT): users with a high-value (>200) click
    but no high-value signup. One user_id shuffle of per-batch
    boolean partials, then a vectorised flag filter — both sides of
    the EXCEPT come from a single pass over the events."""
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type", "value"]) \
        .filter(expr=f"value > {EXCEPT_THRESHOLD}")

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"],
            "saw": pa.array((et == "click").astype(np.int64)),
            "bought": pa.array((et == "signup").astype(np.int64)),
        }).group_by("user_id").aggregate(
            [("saw", "max"), ("bought", "max")]) \
            .rename_columns(["user_id", "saw", "bought"])

    from ray.data.aggregate import Max
    agg = ev.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby("user_id").aggregate(
            Max("saw", alias_name="saw"),
            Max("bought", alias_name="bought"))

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(t["saw"], 1), pc.equal(t["bought"], 0))
        return t.filter(keep).select(["user_id"])
    return agg.map_batches(finish, batch_format="pyarrow")


SQL_USERS_CLICK_NO_SIGNUP = f"""
SELECT DISTINCT user_id FROM events
WHERE event_type = 'click' AND value > {EXCEPT_THRESHOLD}
EXCEPT
SELECT DISTINCT user_id FROM events
WHERE event_type = 'signup' AND value > {EXCEPT_THRESHOLD}
"""


BIGRAM_TOP_K = 20


def q_bigram_topk(sf_dir):
    """Top-20 adjacent-token collocations over the corpus
    (``stages/text.bigram_top_terms``): flatten + parent-index
    pairing, per-batch pair counts — the bigram vocabulary, not the
    token stream, is what shuffles."""
    return tx.bigram_top_terms(_docs(sf_dir), k=BIGRAM_TOP_K)


SQL_BIGRAM_TOPK = f"""
WITH t AS (SELECT doc_id, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9]+'),
             x -> x <> '') AS arr
           FROM documents),
tok AS (SELECT doc_id, unnest(arr) AS w,
               generate_subscripts(arr, 1) AS i FROM t),
seq AS (SELECT w AS a,
               lead(w) OVER (PARTITION BY doc_id ORDER BY i) AS b
        FROM tok),
agg AS (SELECT a, b, count(*) AS n FROM seq WHERE b IS NOT NULL
        GROUP BY a, b)
SELECT a, b, n FROM agg ORDER BY n DESC, a, b LIMIT {BIGRAM_TOP_K}
"""


def q_orders_percent_rank(sf_dir):
    """percent_rank window: each order's price percentile within its
    status — one status hash shuffle, per-group vectorised min-rank
    over the sorted column (ties share rank, exactly the SQL window
    semantics)."""
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_orderstatus",
                                  "o_totalprice"])

    def prank(g: pd.DataFrame) -> pd.DataFrame:
        p = g["o_totalprice"].to_numpy(np.float64)
        order = np.argsort(p, kind="stable")
        sp = p[order]
        # min-rank with ties: position of first equal value
        first = np.searchsorted(sp, sp, side="left")
        rank = np.empty(len(p), dtype=np.int64)
        rank[order] = first + 1
        denom = max(len(p) - 1, 1)
        return pd.DataFrame({
            "o_orderkey": g["o_orderkey"],
            "pr": round6((rank - 1) / denom),
        })

    return od.groupby("o_orderstatus").map_groups(
        prank, batch_format="pandas")


SQL_ORDERS_PERCENT_RANK = """
SELECT o_orderkey,
       round(percent_rank() OVER (PARTITION BY o_orderstatus
                                  ORDER BY o_totalprice), 6) AS pr
FROM orders
"""


MOVAVG_W = 3


PRICE_BUCKET_W = 5000.0


def q_price_histogram(sf_dir):
    """Fixed-width histogram of l_extendedprice (dataset-profiling
    op): per-batch ``np.bincount`` partials, tiny driver reduce — no
    shuffle; count/min/max are order-free so the match is exact."""
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_extendedprice"])

    def part(t: pa.Table) -> pa.Table:
        x = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        b = np.floor(x / PRICE_BUCKET_W).astype(np.int64)
        uniq, inv = np.unique(b, return_inverse=True)
        n = np.bincount(inv)
        vmin = np.full(len(uniq), np.inf)
        vmax = np.full(len(uniq), -np.inf)
        np.minimum.at(vmin, inv, x)
        np.maximum.at(vmax, inv, x)
        return pa.table({"bucket": pa.array(uniq),
                         "n": pa.array(n, pa.int64()),
                         "vmin": pa.array(vmin, pa.float64()),
                         "vmax": pa.array(vmax, pa.float64())})

    acc: dict = {}
    for t in li.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .iter_batches(batch_format="pyarrow"):
        for bk, n, lo, hi in zip(t["bucket"].to_pylist(),
                                 t["n"].to_pylist(),
                                 t["vmin"].to_pylist(),
                                 t["vmax"].to_pylist()):
            if bk in acc:
                an, alo, ahi = acc[bk]
                acc[bk] = (an + n, min(alo, lo), max(ahi, hi))
            else:
                acc[bk] = (n, lo, hi)
    ks = sorted(acc)
    return pa.table({
        "bucket": pa.array(ks, pa.int64()),
        "n": pa.array([acc[k][0] for k in ks], pa.int64()),
        "min_price": pa.array([acc[k][1] for k in ks], pa.float64()),
        "max_price": pa.array([acc[k][2] for k in ks], pa.float64()),
    })


SQL_PRICE_HISTOGRAM = """
SELECT CAST(floor(l_extendedprice / 5000.0) AS BIGINT) AS bucket,
       count(*) AS n,
       min(l_extendedprice) AS min_price,
       max(l_extendedprice) AS max_price
FROM lineitem GROUP BY 1
"""


def q_orders_cube(sf_dir):
    """GROUP BY CUBE (status, year): the finest-level shuffle output
    feeds all four grouping sets (fine, per-status, per-year, grand
    total) — the input is shuffled once; exact integer-cents sums
    make every subtotal order-independent."""
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderstatus", "o_orderdate",
                                  "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        yr = pc.year(t["o_orderdate"])
        cents = np.floor(
            t["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        tt = pa.table({"o_orderstatus": t["o_orderstatus"],
                       "yr": pc.cast(yr, pa.int64()),
                       "cents": pa.array(cents)})
        return tt.group_by(["o_orderstatus", "yr"]).aggregate(
            [("cents", "sum"), ([], "count_all")]) \
            .rename_columns(["o_orderstatus", "yr", "sum_cents",
                             "n_orders"])

    fine = od.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby(["o_orderstatus", "yr"]).aggregate(
            Sum("sum_cents", alias_name="sum_cents"),
            Sum("n_orders", alias_name="n_orders")) \
        .to_pandas()
    agg_cols = ["sum_cents", "n_orders"]
    lvl0 = fine.assign(yr=fine["yr"].astype(np.int64).astype(str))
    by_status = fine.groupby("o_orderstatus", as_index=False)[
        agg_cols].sum().assign(yr="ALL")
    by_year = fine.groupby("yr", as_index=False)[agg_cols].sum()
    by_year = by_year.assign(
        yr=by_year["yr"].astype(np.int64).astype(str),
        o_orderstatus="ALL")
    total = pd.DataFrame({"o_orderstatus": ["ALL"], "yr": ["ALL"],
                          "sum_cents": [fine["sum_cents"].sum()],
                          "n_orders": [fine["n_orders"].sum()]})
    out = pd.concat([lvl0, by_status, by_year, total],
                    ignore_index=True)
    return pd.DataFrame({
        "o_orderstatus": out["o_orderstatus"],
        "yr": out["yr"],
        "n_orders": out["n_orders"].astype(np.int64),
        "sum_price": round6(
            out["sum_cents"].to_numpy(np.int64) / 100.0),
    })


SQL_ORDERS_CUBE = """
SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
       COALESCE(CAST(year(o_orderdate) AS VARCHAR), 'ALL') AS yr,
       count(*) AS n_orders,
       round(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
             / 100.0, 6) AS sum_price
FROM orders
GROUP BY CUBE (o_orderstatus, year(o_orderdate))
"""


def q_orders_above_cust_avg(sf_dir):
    """Correlated-subquery pattern (TPC-H Q17 family): orders priced
    strictly above their customer's average order price. One
    customer-keyed pre-aggregate (bounded by the customer count)
    broadcasts via ``ray.put``; each order batch compares vectorised.
    The comparison is all-integer (price_cents * n > sum_cents), so
    engine and oracle decide every boundary case identically."""
    import ray as _ray
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_custkey",
                                  "o_totalprice"])

    def pre(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        tt = pa.table({"o_custkey": t["o_custkey"],
                       "cents": pa.array(cents)})
        return tt.group_by("o_custkey").aggregate(
            [("cents", "sum"), ([], "count_all")]) \
            .rename_columns(["o_custkey", "sum_cents", "n"])

    agg = od.map_batches(pre, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby("o_custkey").aggregate(
            Sum("sum_cents", alias_name="sum_cents"),
            Sum("n", alias_name="n")).to_pandas()
    keys = agg["o_custkey"].to_numpy(np.int64)
    order = np.argsort(keys)
    ref = _ray.put((keys[order],
                    agg["sum_cents"].to_numpy(np.int64)[order],
                    agg["n"].to_numpy(np.int64)[order]))

    def above(t: pa.Table) -> pa.Table:
        k, s, n = _ray.get(ref)
        ck = t["o_custkey"].to_numpy()
        pos = np.searchsorted(k, ck)
        cents = np.floor(
            t["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        keep = cents * n[pos] > s[pos]
        return t.filter(pa.array(keep))

    return od.map_batches(above, batch_format="pyarrow")


SQL_ORDERS_ABOVE_CUST_AVG = """
WITH agg AS (
  SELECT o_custkey,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS sum_cents,
         count(*) AS n
  FROM orders GROUP BY o_custkey)
SELECT o.o_orderkey, o.o_custkey, o.o_totalprice
FROM orders o JOIN agg ON agg.o_custkey = o.o_custkey
WHERE CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT) * agg.n
      > agg.sum_cents
"""


def q_two_hop_co(sf_dir):
    """Friends-of-friends reach: distinct 1-hop and 2-hop (min-dist)
    neighbour counts for the closeness seeds, read straight off the
    multi-source BSP BFS distance planes (no pair-explosion join)."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    seeds = np.flatnonzero(act)[:CLOSENESS_SEEDS].astype(np.int64)
    dist, _ = ss.multi_bfs(g, seeds)
    n1 = (dist == 1).sum(axis=1).astype(np.int64)
    n2 = (dist == 2).sum(axis=1).astype(np.int64)
    return pa.table({"vid": pa.array(seeds),
                     "n_1hop": pa.array(n1),
                     "n_2hop": pa.array(n2)})


SQL_TWO_HOP_CO = f"""
WITH
{_SQL_CO_EDGES_BOTH},
seeds AS (SELECT a AS s FROM e GROUP BY a ORDER BY a
          LIMIT {CLOSENESS_SEEDS}),
h1 AS (SELECT seeds.s, e.b AS v FROM seeds JOIN e ON e.a = seeds.s
       GROUP BY seeds.s, e.b),
h2 AS (SELECT h1.s, e.b AS v FROM h1 JOIN e ON e.a = h1.v
       WHERE e.b <> h1.s GROUP BY h1.s, e.b),
h2o AS (SELECT h2.s, h2.v FROM h2
        LEFT JOIN h1 ON h1.s = h2.s AND h1.v = h2.v
        WHERE h1.v IS NULL)
SELECT seeds.s AS vid,
       (SELECT count(*) FROM h1 WHERE h1.s = seeds.s) AS n_1hop,
       (SELECT count(*) FROM h2o WHERE h2o.s = seeds.s) AS n_2hop
FROM seeds
"""


def q_orders_ntile(sf_dir):
    """ntile(4) price quartile per customer's orders, ordered by
    (price, orderkey): one customer shuffle, per-group vectorised
    tile assignment with the SQL distribution rule (first n%k tiles
    get the extra row)."""
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderkey",
                                  "o_totalprice"])
    K = 4

    def tiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"])
        n = len(g)
        base, rem = divmod(n, K)
        sizes = np.full(K, base, dtype=np.int64)
        sizes[:rem] += 1
        tile = np.repeat(np.arange(1, K + 1), sizes)
        return pd.DataFrame({"o_orderkey": g["o_orderkey"],
                             "tile": tile})

    return od.groupby("o_custkey").map_groups(tiles,
                                              batch_format="pandas")


SQL_ORDERS_NTILE = """
SELECT o_orderkey,
       CAST(ntile(4) OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice, o_orderkey)
            AS BIGINT) AS tile
FROM orders
"""


def q_users_click_and_signup(sf_dir):
    """Set intersection (INTERSECT): users with BOTH a high-value
    click and a high-value signup — same single-pass boolean-partial
    plan as the EXCEPT query, flipped filter."""
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type", "value"]) \
        .filter(expr=f"value > {EXCEPT_THRESHOLD}")

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"],
            "saw": pa.array((et == "click").astype(np.int64)),
            "bought": pa.array((et == "signup").astype(np.int64)),
        }).group_by("user_id").aggregate(
            [("saw", "max"), ("bought", "max")]) \
            .rename_columns(["user_id", "saw", "bought"])

    from ray.data.aggregate import Max
    agg = ev.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby("user_id").aggregate(
            Max("saw", alias_name="saw"),
            Max("bought", alias_name="bought"))

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(t["saw"], 1), pc.equal(t["bought"], 1))
        return t.filter(keep).select(["user_id"])
    return agg.map_batches(finish, batch_format="pyarrow")


SQL_USERS_CLICK_AND_SIGNUP = f"""
SELECT DISTINCT user_id FROM events
WHERE event_type = 'click' AND value > {EXCEPT_THRESHOLD}
INTERSECT
SELECT DISTINCT user_id FROM events
WHERE event_type = 'signup' AND value > {EXCEPT_THRESHOLD}
"""


def q_users_customers_outer(sf_dir):
    """FULL OUTER join (identity stitching): clickstream user ids vs
    CRM customer ids, with per-user event counts and a customer flag.
    No outer-join shuffle machinery needed: both sides land in ONE
    union-then-groupby pass (tagged partials, key shuffle once) — the
    union IS the full outer join when followed by a grouped sum."""
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id"])

    def ev_part(t: pa.Table) -> pa.Table:
        g = pa.table({"key": t["user_id"]}).group_by("key") \
            .aggregate([([], "count_all")]) \
            .rename_columns(["key", "n_events"])
        return g.append_column(
            "has_customer", pa.array(np.zeros(len(g), np.int64)))

    cu = rd.read_parquet(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey"])

    def cu_part(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({"key": t["c_custkey"],
                         "n_events": pa.array(np.zeros(n, np.int64)),
                         "has_customer": pa.array(np.ones(n, np.int64))})

    both = ev.map_batches(ev_part, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .union(cu.map_batches(cu_part, batch_format="pyarrow",
                              zero_copy_batch=True))
    agg = both.groupby("key").aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("has_customer", alias_name="has_customer"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t["key"], pa.int64()),
            "n_events": pc.cast(t["n_events"], pa.int64()),
            "has_customer": pc.cast(t["has_customer"], pa.int64()),
        })
    return agg.map_batches(finish, batch_format="pyarrow")


SQL_USERS_CUSTOMERS_OUTER = """
SELECT COALESCE(e.user_id, c.c_custkey) AS key,
       CAST(COALESCE(e.n, 0) AS BIGINT) AS n_events,
       CAST(CASE WHEN c.c_custkey IS NULL THEN 0 ELSE 1 END
            AS BIGINT) AS has_customer
FROM (SELECT user_id, count(*) AS n FROM events GROUP BY 1) e
FULL OUTER JOIN customer c ON c.c_custkey = e.user_id
"""


def q_cms_user_counts(sf_dir):
    """Count-Min sketch frequency estimation of per-user event counts
    (``stages/sketch.cms_frequencies``): 4x128 mergeable integer
    counters — per-batch partials, one <=512-cell groupby, sketch
    broadcast once, per-key min-over-rows estimate. Fixed sketch
    state at any stream size; all-integer, so the SQL replica (same
    md5 cell hashes, same min) is exact."""
    from ..stages import sketch as sk
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id"])
    est = sk.cms_frequencies(ev, "user_id")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["key"], pa.int64()),
            "cms_est": pc.cast(t["cms_est"], pa.int64()),
        })
    return est.map_batches(finish, batch_format="pyarrow")


SQL_CMS_USER_COUNTS = """
WITH cells AS (
  SELECT i.i AS r,
         CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)
                                  || '#' || i.i), 1, 8))
              ::UBIGINT % 128 AS BIGINT) AS cell,
         count(*) AS cnt
  FROM events, generate_series(0, 3) i(i)
  GROUP BY 1, 2),
users AS (SELECT DISTINCT user_id FROM events),
uc AS (SELECT u.user_id, i.i AS r,
              CAST(('0x' || substr(md5(CAST(u.user_id AS VARCHAR)
                                       || '#' || i.i), 1, 8))
                   ::UBIGINT % 128 AS BIGINT) AS cell
       FROM users u, generate_series(0, 3) i(i))
SELECT uc.user_id, CAST(min(c.cnt) AS BIGINT) AS cms_est
FROM uc JOIN cells c ON c.r = uc.r AND c.cell = uc.cell
GROUP BY uc.user_id
"""


SKIPGRAM_WINDOW = 2


def q_walk_skipgrams(sf_dir):
    """Skip-gram (center, context) training-pair counts from the
    deterministic random walks (word2vec/node2vec corpus prep): one
    walk_id shuffle, per-walk vectorised window pairing (|step delta|
    <= 2, both directions), per-batch pair-count partials, and a
    pair-vocabulary-sized groupby."""
    g = _item_seq_distgraph(sf_dir)
    act = np.flatnonzero(g.active_global())
    seeds = act[:WALK_SEEDS].astype(np.int64)
    w, s, v = ss.random_walks(g, seeds, length=WALK_LEN)
    walks = rd.from_arrow(pa.table({
        "walk_id": pa.array(w.astype(np.int64)),
        "step": pa.array(s.astype(np.int64)),
        "vid": pa.array(v.astype(np.int64))}))

    def pairs(gdf: pd.DataFrame) -> pd.DataFrame:
        gdf = gdf.sort_values("step")
        vv = gdf["vid"].to_numpy(np.int64)
        cs, xs = [], []
        for d in range(1, SKIPGRAM_WINDOW + 1):
            if len(vv) > d:
                cs += [vv[:-d], vv[d:]]
                xs += [vv[d:], vv[:-d]]
        if not cs:
            return pd.DataFrame({"center": np.array([], np.int64),
                                 "context": np.array([], np.int64)})
        return pd.DataFrame({"center": np.concatenate(cs),
                             "context": np.concatenate(xs)})

    def pre(t: pa.Table) -> pa.Table:
        g2 = t.group_by(["center", "context"]).aggregate(
            [([], "count_all")])
        return pa.table({"center": g2["center"],
                         "context": g2["context"],
                         "cnt": g2["count_all"]})

    out = walks.groupby("walk_id").map_groups(pairs,
                                              batch_format="pandas") \
        .map_batches(pre, batch_format="pyarrow") \
        .groupby(["center", "context"]).aggregate(
            Sum("cnt", alias_name="cnt"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"center": pc.cast(t["center"], pa.int64()),
                         "context": pc.cast(t["context"], pa.int64()),
                         "cnt": pc.cast(t["cnt"], pa.int64())})
    return out.map_batches(finish, batch_format="pyarrow")


SQL_WALK_SKIPGRAMS = f"""
WITH RECURSIVE
seq AS (SELECT l_partkey AS a,
               lead(l_partkey) OVER (PARTITION BY l_orderkey
                                     ORDER BY l_linenumber, l_partkey) AS b
        FROM lineitem),
e AS (SELECT DISTINCT a, b FROM seq WHERE b IS NOT NULL),
verts AS (SELECT DISTINCT v FROM
          (SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e)),
seeds AS (SELECT v FROM verts ORDER BY v LIMIT {{WALK_SEEDS}}),
walk(w, s, cur) AS (
  SELECT v, 0, v FROM seeds
  UNION ALL
  SELECT w, s + 1,
         (SELECT eb.b FROM e eb WHERE eb.a = walk.cur
          ORDER BY ((walk.w % 1000003) * 7919
                    + ((walk.s + 1) % 1000003) * 104729
                    + (eb.b % 1000003) * 15485863) % 1000003, eb.b
          LIMIT 1)
  FROM walk
  WHERE s < {{WALK_LEN}}
    AND EXISTS (SELECT 1 FROM e eb WHERE eb.a = walk.cur)
)
SELECT a.cur AS center, b.cur AS context, count(*) AS cnt
FROM walk a JOIN walk b
  ON a.w = b.w AND a.s <> b.s AND abs(a.s - b.s) <= {{SKIPGRAM_WINDOW}}
GROUP BY 1, 2
""".format(WALK_SEEDS=WALK_SEEDS, WALK_LEN=WALK_LEN,
           SKIPGRAM_WINDOW=SKIPGRAM_WINDOW)


FEATURE_PROP_DIM = 64
FEATURE_PROP_THRESHOLD = 0.4


def q_feature_prop(sf_dir):
    """GNN-style feature propagation (one smoothing round): each
    vector's neighbours in the exact cosine>=0.4 similarity graph are
    mean-aggregated. Embeddings are fixed-point quantised
    (floor(x*1e6 + 0.5) -> int64) so the distributed accumulation is
    order-independent and the SQL replica exact; the final mean is ONE
    IEEE division per (vec_id, dim). Plan: similarity edges stream
    through per-batch scatter-add partials + one (vec_id, dim)
    groupby; the quantised matrix is the broadcast small side
    (ray.put once) — past node memory the same plan hash-joins edges
    to vectors on u instead."""
    import ray
    emb = _emb(sf_dir)
    pairs = dd.embedding_cosine_pairs(
        emb, threshold=FEATURE_PROP_THRESHOLD, use_lsh=False)
    edf = emb.to_pandas()   # the small side (one row per vector)
    nvec = int(edf["vec_id"].max()) + 1
    q = np.zeros((nvec, FEATURE_PROP_DIM), dtype=np.int64)
    for vid, vec in zip(edf["vec_id"], edf["embedding"]):
        q[int(vid)] = np.floor(
            np.asarray(vec, np.float64) * 1e6 + 0.5).astype(np.int64)
    q_ref = ray.put(q)

    def prop(t: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        dsts = np.concatenate([b, a])      # each pair smooths both ends
        srcs = np.concatenate([a, b])
        vids, inv = np.unique(dsts, return_inverse=True)
        sums = np.zeros((len(vids), FEATURE_PROP_DIM), dtype=np.int64)
        np.add.at(sums, inv, qm[srcs])
        cnt = np.bincount(inv, minlength=len(vids)).astype(np.int64)
        k = len(vids)
        return pa.table({
            "vec_id": pa.array(np.repeat(vids, FEATURE_PROP_DIM)),
            "dim": pa.array(np.tile(
                np.arange(FEATURE_PROP_DIM, dtype=np.int64), k)),
            "qsum": pa.array(sums.reshape(-1)),
            "cnt": pa.array(np.repeat(cnt, FEATURE_PROP_DIM)),
        })

    agg = pairs.map_batches(prop, batch_format="pyarrow") \
        .groupby(["vec_id", "dim"]).aggregate(
            Sum("qsum", alias_name="qsum"),
            Sum("cnt", alias_name="cnt"))

    def finish(t: pa.Table) -> pa.Table:
        qsum = t["qsum"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "vec_id": pc.cast(t["vec_id"], pa.int64()),
            "dim": pc.cast(t["dim"], pa.int64()),
            "qsum": pa.array(qsum),
            "prop": pa.array(round6(qsum / (cnt * 1000000.0))),
        })
    return agg.map_batches(finish, batch_format="pyarrow")


SQL_FEATURE_PROP = """
WITH p AS (SELECT e1.vec_id AS a, e2.vec_id AS b
           FROM embeddings e1 JOIN embeddings e2
             ON e1.vec_id < e2.vec_id
           WHERE list_cosine_similarity(
                     CAST(e1.embedding AS DOUBLE[]),
                     CAST(e2.embedding AS DOUBLE[])) >= 0.4),
ed AS (SELECT a AS u, b AS v FROM p
       UNION ALL SELECT b AS u, a AS v FROM p),
q AS (SELECT ed.v AS vec_id, d.d AS dim,
             CAST(floor(CAST(e.embedding[d.d + 1] AS DOUBLE)
                        * 1000000 + 0.5) AS BIGINT) AS qv
      FROM ed JOIN embeddings e ON e.vec_id = ed.u
      CROSS JOIN generate_series(0, 63) d(d))
SELECT vec_id, CAST(dim AS BIGINT) AS dim,
       CAST(sum(qv) AS BIGINT) AS qsum,
       round(sum(qv) / (count(*) * 1000000), 6) AS prop
FROM q GROUP BY vec_id, dim
"""


RICH_CLUB_KS = (2, 4, 8, 16)


def q_rich_club_co(sf_dir):
    """Rich-club coefficient phi(k) = 2*E_k / (N_k*(N_k-1)) of the
    simple co graph for k in {2,4,8,16}: N_k = vertices with degree
    > k, E_k = edges with both endpoints in the club. Degrees and the
    distinct edge set come from the same broadcast-tier arrays as
    edge_jaccard_co (compact-forward envelope; the partitioned plan
    swaps in past node memory); per-k work is two vectorised masks —
    all-integer counts until the one final ratio."""
    t = pa.concat_tables(
        [bt for bt in tg.co_edge_rows(sf_dir).iter_batches(
            batch_size=None, batch_format="pyarrow")])
    s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(max(s.max(), d.max())) + 1
    lo = np.minimum(s, d)
    hi = np.maximum(s, d)
    keys = np.unique(lo[lo != hi] * np.int64(n) + hi[lo != hi])
    a, b = keys // n, keys % n
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    ks, nks, eks, phis = [], [], [], []
    for k in RICH_CLUB_KS:
        nk = int((deg > k).sum())
        ek = int(((deg[a] > k) & (deg[b] > k)).sum())
        phi = float(round6([(2.0 * ek) / (nk * (nk - 1))])[0]) \
            if nk >= 2 else 0.0
        ks.append(k)
        nks.append(nk)
        eks.append(ek)
        phis.append(phi)
    return pa.table({"k": pa.array(ks, pa.int64()),
                     "n_k": pa.array(nks, pa.int64()),
                     "e_k": pa.array(eks, pa.int64()),
                     "phi": pa.array(phis, pa.float64())})


SQL_RICH_CLUB_CO = f"""
WITH {_SQL_CO_PAIRS},
d2 AS (SELECT a, b FROM e0 UNION ALL SELECT b AS a, a AS b FROM e0),
deg AS (SELECT a AS v, count(*) AS dg FROM d2 GROUP BY 1),
ks AS (SELECT unnest([2, 4, 8, 16]) AS k),
nk AS (SELECT ks.k, count(*) AS n_k
       FROM ks JOIN deg ON deg.dg > ks.k GROUP BY 1),
ek AS (SELECT ks.k, count(*) AS e_k
       FROM ks JOIN e0 e ON TRUE
       JOIN deg da ON da.v = e.a
       JOIN deg db ON db.v = e.b
       WHERE da.dg > ks.k AND db.dg > ks.k GROUP BY 1)
SELECT CAST(ks.k AS BIGINT) AS k,
       CAST(COALESCE(nk.n_k, 0) AS BIGINT) AS n_k,
       CAST(COALESCE(ek.e_k, 0) AS BIGINT) AS e_k,
       round(CASE WHEN COALESCE(nk.n_k, 0) >= 2
                  THEN 2.0 * COALESCE(ek.e_k, 0)
                       / (nk.n_k * (nk.n_k - 1))
                  ELSE 0.0 END, 6) AS phi
FROM ks LEFT JOIN nk ON nk.k = ks.k
        LEFT JOIN ek ON ek.k = ks.k
"""


EDGECUT_P = 8


def q_partition_edgecut_co(sf_dir):
    """Partitioning self-audit: edge-cut fraction and vertex balance
    of the engine's own vid % P shard assignment on the co graph —
    the number every distributed kernel's exchange volume scales
    with. Per-batch integer partials (cut/total/per-shard vertex
    counts) -> one tiny reduction; integer sums, single divisions."""
    t = pa.concat_tables(
        [bt for bt in tg.co_edge_rows(sf_dir).iter_batches(
            batch_size=None, batch_format="pyarrow")])
    s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(max(s.max(), d.max())) + 1
    lo, hi = np.minimum(s, d), np.maximum(s, d)
    keys = np.unique(lo[lo != hi] * np.int64(n) + hi[lo != hi])
    a, b = keys // n, keys % n
    cut = int((a % EDGECUT_P != b % EDGECUT_P).sum())
    total = len(keys)
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    vids = np.flatnonzero(deg > 0)
    per_shard = np.bincount(vids % EDGECUT_P, minlength=EDGECUT_P)
    balance = float(per_shard.max()) * EDGECUT_P / len(vids)
    return pa.table({
        "n_edges": pa.array([total], pa.int64()),
        "n_cut": pa.array([cut], pa.int64()),
        "cut_frac": pa.array(round6([cut / total])),
        "balance": pa.array(round6([balance])),
    })


SQL_PARTITION_EDGECUT_CO = f"""
WITH e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
            FROM lineitem l1 JOIN lineitem l2
              ON l1.l_orderkey = l2.l_orderkey
             AND l1.l_partkey < l2.l_partkey
            GROUP BY 1, 2),
verts AS (SELECT a AS v FROM e0 UNION SELECT b FROM e0),
stats AS (SELECT count(*) AS total,
                 sum(CASE WHEN a % {EDGECUT_P} <> b % {EDGECUT_P}
                     THEN 1 ELSE 0 END) AS cut
          FROM e0),
shard AS (SELECT v % {EDGECUT_P} AS p, count(*) AS c
          FROM verts GROUP BY 1),
bal AS (SELECT max(c) * {EDGECUT_P}
               / (SELECT CAST(count(*) AS DOUBLE) FROM verts) AS b
        FROM shard)
SELECT CAST(stats.total AS BIGINT) AS n_edges,
       CAST(stats.cut AS BIGINT) AS n_cut,
       round(CAST(stats.cut AS DOUBLE) / stats.total, 6) AS cut_frac,
       round(bal.b, 6) AS balance
FROM stats, bal
"""


def q_ego_density_co(sf_dir):
    """Closed 1-hop ego-network density per vertex: edges within
    {v} ∪ N(v) = deg(v) spokes + tri(v) neighbour-neighbour edges
    (each such edge is exactly one triangle through v), over
    C(deg+1, 2) possible. Triangles come from the distributed
    partitioned counter; degrees from the deduped edge arrays (the
    same gate-scale broadcast as ``avg_neighbor_degree_co`` — at
    scale both terms are per-vertex kernel outputs joined on vid)."""
    return _ego_density(tg.co_edge_rows(sf_dir))


def _ego_density(edges):
    """``q_ego_density_co`` over a ``(src, dst)`` edge Dataset."""
    import ray
    _, pv = triangle_count(edges, num_partitions=8, per_vertex=True)
    # through the Arrow blocks: to_pandas() of the zero-row result of
    # a triangle-free graph has no columns
    tri_t = pa.concat_tables(ray.get(pv.to_arrow_refs()))
    t = pa.concat_tables(
        [bt for bt in edges.iter_batches(
            batch_size=None, batch_format="pyarrow")])
    s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(max(s.max(), d.max())) + 1
    lo = np.minimum(s, d)
    hi = np.maximum(s, d)
    keys = np.unique(lo[lo != hi] * np.int64(n) + hi[lo != hi])
    a, b = keys // n, keys % n
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    tri = np.zeros(n, dtype=np.int64)
    tri[tri_t["v"].to_numpy()] = tri_t["count()"].to_numpy()
    vids = np.flatnonzero(deg > 0).astype(np.int64)
    dv, tv = deg[vids].astype(np.int64), tri[vids]
    ego_edges = dv + tv
    denom = ((dv + 1) * dv).astype(np.float64) / 2.0
    return pa.table({
        "vid": pa.array(vids),
        "ego_n": pa.array(dv + 1),
        "ego_edges": pa.array(ego_edges),
        "density": pa.array(round6(ego_edges / denom)),
    })


SQL_EGO_DENSITY_CO = f"""
WITH {_SQL_CO_EDGES_BOTH},
deg AS (SELECT a AS vid, count(*) AS deg FROM e GROUP BY 1),
t AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
      FROM e0 e1 JOIN e0 e2 ON e2.a = e1.b JOIN e0 e3
        ON e3.a = e1.a AND e3.b = e2.b),
pv AS (SELECT vid, count(*) AS tri FROM (
         SELECT x AS vid FROM t UNION ALL SELECT y FROM t
         UNION ALL SELECT z FROM t) GROUP BY vid)
SELECT CAST(deg.vid AS BIGINT) AS vid,
       CAST(deg.deg + 1 AS BIGINT) AS ego_n,
       CAST(deg.deg + coalesce(pv.tri, 0) AS BIGINT) AS ego_edges,
       round(CAST(deg.deg + coalesce(pv.tri, 0) AS DOUBLE)
             / (CAST((deg.deg + 1) * deg.deg AS DOUBLE) / 2), 6)
         AS density
FROM deg LEFT JOIN pv USING (vid)
"""


def q_bigram_pmi(sf_dir):
    """PMI-scored collocations: pointwise mutual information for the
    top-20 bigrams — pmi = ln(c_ab * T_tok^2 / (T_pairs * c_a * c_b)),
    every count an exact integer so the single ln is the only float op
    (same ln-parity-with-DuckDB contract the HLL estimator uses). One
    extra corpus pass gathers unigram counts for the <=40 words of the
    top bigrams (word set broadcast once) plus the two totals as
    sentinel rows — the shuffle carries <=42 rows per batch."""
    import ray
    top = tx.bigram_top_terms(_docs(sf_dir), k=BIGRAM_TOP_K).to_pandas()
    words = np.array(sorted(set(top["a"]) | set(top["b"])))
    wref = ray.put(words)

    def partial(t: pa.Table) -> pa.Table:
        w = ray.get(wref)
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                      "[^a-z0-9]+")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        par = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False)
        keep = flat != ""
        f, p = flat[keep], par[keep]
        n_pairs = int((p[:-1] == p[1:]).sum()) if len(f) >= 2 else 0
        m = np.isin(f, w)
        vals, cnts = np.unique(f[m], return_counts=True)
        return pa.table({
            "w": pa.array(list(vals) + ["\x00tok", "\x00pair"]),
            "c": pa.array(list(cnts.astype(np.int64))
                          + [len(f), n_pairs], pa.int64()),
        })

    agg = _docs(sf_dir).map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True) \
        .groupby("w").aggregate(Sum("c", alias_name="c")).to_pandas()
    cmap = dict(zip(agg["w"], agg["c"].astype(np.int64)))
    t_tok = int(cmap.pop("\x00tok"))
    t_pairs = int(cmap.pop("\x00pair"))
    n = top["n"].to_numpy(np.int64)
    ca = np.array([cmap[x] for x in top["a"]], np.int64)
    cb = np.array([cmap[x] for x in top["b"]], np.int64)
    num = n * t_tok * t_tok
    den = t_pairs * ca * cb
    return pa.table({
        "a": pa.array(top["a"]), "b": pa.array(top["b"]),
        "n": pa.array(n),
        "pmi": pa.array(round6(np.log(num / den))),
    })


SQL_BIGRAM_PMI = f"""
WITH t AS (SELECT doc_id, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9]+'),
             x -> x <> '') AS arr
           FROM documents),
tok AS (SELECT doc_id, unnest(arr) AS w,
               generate_subscripts(arr, 1) AS i FROM t),
seq AS (SELECT w AS a,
               lead(w) OVER (PARTITION BY doc_id ORDER BY i) AS b
        FROM tok),
agg AS (SELECT a, b, count(*) AS n FROM seq WHERE b IS NOT NULL
        GROUP BY a, b),
top AS (SELECT a, b, n FROM agg ORDER BY n DESC, a, b
        LIMIT {BIGRAM_TOP_K}),
uni AS (SELECT w, count(*) AS c FROM tok GROUP BY w),
tot AS (SELECT (SELECT count(*) FROM tok) AS t_tok,
               (SELECT count(*) FROM seq WHERE b IS NOT NULL)
                   AS t_pairs)
SELECT top.a, top.b, CAST(top.n AS BIGINT) AS n,
       round(ln((top.n * tot.t_tok * tot.t_tok)
                / (tot.t_pairs * ua.c * ub.c)), 6) AS pmi
FROM top CROSS JOIN tot
JOIN uni ua ON ua.w = top.a
JOIN uni ub ON ub.w = top.b
"""


def q_audience_overlap(sf_dir):
    """Audience overlap: user-set Jaccard between every pair of event
    types. Per-batch (user, type) dedup partials, ONE user_id hash
    shuffle, per-user pair emission (types-per-user is tiny), then a
    pair-keyed count — the output is |types|^2-bounded however many
    users stream through."""
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])

    def pre(t: pa.Table) -> pa.Table:
        return t.group_by(["user_id", "event_type"]).aggregate([])

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        ts = sorted(g["event_type"].unique())
        ta, tb = [], []
        for i in range(len(ts)):
            ta.append(ts[i])
            tb.append(ts[i])          # diagonal row = set size
            for j in range(i + 1, len(ts)):
                ta.append(ts[i])
                tb.append(ts[j])
        return pd.DataFrame({"ta": ta, "tb": tb,
                             "c": np.ones(len(ta), np.int64)})

    cnt = ev.map_batches(pre, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby("user_id").map_groups(emit, batch_format="pandas") \
        .groupby(["ta", "tb"]).aggregate(Sum("c", alias_name="c")) \
        .to_pandas()
    sz = dict(zip(cnt[cnt["ta"] == cnt["tb"]]["ta"],
                  cnt[cnt["ta"] == cnt["tb"]]["c"].astype(np.int64)))
    off = cnt[cnt["ta"] != cnt["tb"]]
    inter = off["c"].to_numpy(np.int64)
    na = np.array([sz[x] for x in off["ta"]], np.int64)
    nb = np.array([sz[x] for x in off["tb"]], np.int64)
    return pa.table({
        "ta": pa.array(off["ta"]), "tb": pa.array(off["tb"]),
        "inter": pa.array(inter),
        "n_a": pa.array(na), "n_b": pa.array(nb),
        "jaccard": pa.array(round6(inter / (na + nb - inter))),
    })


SQL_AUDIENCE_OVERLAP = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
pairs AS (SELECT a.event_type AS ta, b.event_type AS tb,
                 count(*) AS inter
          FROM ut a JOIN ut b
            ON a.user_id = b.user_id AND a.event_type < b.event_type
          GROUP BY 1, 2),
sz AS (SELECT event_type, count(*) AS n FROM ut GROUP BY 1)
SELECT p.ta, p.tb, CAST(p.inter AS BIGINT) AS inter,
       CAST(sa.n AS BIGINT) AS n_a, CAST(sb.n AS BIGINT) AS n_b,
       round(p.inter / (sa.n + sb.n - p.inter), 6) AS jaccard
FROM pairs p JOIN sz sa ON sa.event_type = p.ta
             JOIN sz sb ON sb.event_type = p.tb
"""


K_ANON = 5


def q_k_anonymity(sf_dir):
    """k-anonymity audit over the (event_type, hour-of-day)
    quasi-identifier: groups with fewer than k=5 rows are re-identifi-
    cation risks a privacy-aware training-data pipeline must flag.
    Per-batch combo-count partials, one |types|x24-bounded groupby —
    counts never leave integer space."""
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        tt = pa.table({"event_type": t["event_type"],
                       "hour": pc.cast(pc.hour(t["ts"]), pa.int64())})
        return tt.group_by(["event_type", "hour"]).aggregate(
            [([], "count_all")]).rename_columns(
                ["event_type", "hour", "n"])

    agg = ev.map_batches(pre, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby(["event_type", "hour"]).aggregate(
            Sum("n", alias_name="n"))

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "event_type": pc.cast(t["event_type"], pa.string()),
            "hour": pc.cast(t["hour"], pa.int64()),
            "n": pa.array(n),
            "at_risk": pa.array((n < K_ANON).astype(np.int64)),
        })
    return agg.map_batches(finish, batch_format="pyarrow")


SQL_K_ANONYMITY = f"""
SELECT event_type, CAST(hour(ts) AS BIGINT) AS hour,
       count(*) AS n,
       CAST(CASE WHEN count(*) < {K_ANON} THEN 1 ELSE 0 END
            AS BIGINT) AS at_risk
FROM events GROUP BY 1, 2
"""


NEG_SAMPLES = 500


def q_link_negatives(sf_dir):
    """Deterministic negative sampling for link-prediction training
    (GNN corpus prep): NEG_SAMPLES hash-generated candidate pairs over
    the active vertex set, kept when they are NOT co-graph edges.
    Candidate generation is embarrassingly parallel (pure arithmetic
    on the sample index); edge membership uses the broadcast sorted
    key set (compact-forward envelope; the partitioned bucket plan
    swaps in past node memory). Same modular-hash constants as the
    random-walk kernel, so the SQL replica is exact."""
    t = pa.concat_tables(
        [bt for bt in tg.co_edge_rows(sf_dir).iter_batches(
            batch_size=None, batch_format="pyarrow")])
    s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(max(s.max(), d.max())) + 1
    lo = np.minimum(s, d)
    hi = np.maximum(s, d)
    keys = np.unique(lo[lo != hi] * np.int64(n) + hi[lo != hi])
    vids = np.unique(np.concatenate([lo, hi]))
    nv = len(vids)
    i = np.arange(NEG_SAMPLES, dtype=np.int64)
    u = vids[(i * 104729) % nv]
    v = vids[(i * 15485863 + 7919) % nv]
    a = np.minimum(u, v)
    b = np.maximum(u, v)
    ok = a != b
    i, a, b = i[ok], a[ok], b[ok]
    k = a * np.int64(n) + b
    idx = np.searchsorted(keys, k).clip(0, len(keys) - 1)
    non_edge = keys[idx] != k
    return pa.table({"i": pa.array(i[non_edge]),
                     "a": pa.array(a[non_edge]),
                     "b": pa.array(b[non_edge])})


SQL_LINK_NEGATIVES = f"""
WITH {_SQL_CO_PAIRS},
verts AS (SELECT v, row_number() OVER (ORDER BY v) - 1 AS r
          FROM (SELECT a AS v FROM e0 UNION SELECT b FROM e0)),
nv AS (SELECT count(*) AS c FROM verts),
cand AS (SELECT g.i,
                vu.v AS u, vv.v AS v
         FROM generate_series(0, {NEG_SAMPLES - 1}) g(i)
         CROSS JOIN nv
         JOIN verts vu ON vu.r = (g.i * 104729) % nv.c
         JOIN verts vv ON vv.r = (g.i * 15485863 + 7919) % nv.c),
pairs AS (SELECT i, least(u, v) AS a, greatest(u, v) AS b
          FROM cand WHERE u <> v)
SELECT p.i, p.a, p.b
FROM pairs p
LEFT JOIN e0 e ON e.a = p.a AND e.b = p.b
WHERE e.a IS NULL
"""


PPS_MOD = 1_000_000


AES_TOPK = 50
AES_LN_Q = 1_000_000_000


def q_orders_aes_sample(sf_dir):
    """Weighted sampling WITHOUT replacement (Efraimidis-Spirakis
    A-ES, Inf. Process. Lett. 2006): keep the top-k orders by priority
    ln(u)/w where u is a deterministic md5-uniform in (0,1] and
    w = integer cents of o_totalprice — one pass, per-batch partial
    top-k (the ``ann_topk`` winner envelope: the driver sees k rows
    per batch, never the corpus). u uses the hash's top 52 bits so
    (h52 + 1) / 2^52 is one exact IEEE conversion on both engines;
    ln is quantised to 1e-9 fixed point (the ``partition_compare``
    trick) and the final key q/w is a single integer-over-integer
    IEEE division — bit-identical in DuckDB."""
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        import hashlib
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        p = t["o_totalprice"].to_numpy(zero_copy_only=False)
        w = np.floor(p * 100 + 0.5).astype(np.int64)
        h = np.array([int.from_bytes(
            hashlib.md5(str(int(x)).encode()).digest()[:8], "big")
            for x in k], dtype=np.uint64)
        u = ((h >> np.uint64(12)).astype(np.float64) + 1.0) / (2.0 ** 52)
        q = np.floor(np.log(u) * AES_LN_Q + 0.5).astype(np.int64)
        key = q.astype(np.float64) / w
        order = np.lexsort((k, -key))[:AES_TOPK]
        return pa.table({
            "o_orderkey": pa.array(k[order].astype(np.int64)),
            "priority": pa.array(key[order]),
        })

    parts = od.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    parts = parts.sort_values(["priority", "o_orderkey"],
                              ascending=[False, True]).head(AES_TOPK)
    return pa.table({
        "o_orderkey": pa.array(parts["o_orderkey"].to_numpy(np.int64)),
        "priority": pa.array(round6(parts["priority"].to_numpy())),
    })


SQL_ORDERS_AES_SAMPLE = f"""
WITH x AS (
  SELECT o_orderkey AS id,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS w,
         ('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 16))
           ::UBIGINT AS h
  FROM orders),
k AS (
  SELECT id, w,
         CAST(floor(ln((CAST(h >> 12 AS DOUBLE) + 1.0)
                        / 4503599627370496.0)
                    * {AES_LN_Q} + 0.5) AS BIGINT) AS q
  FROM x)
SELECT CAST(id AS BIGINT) AS o_orderkey,
       round(CAST(q AS DOUBLE) / w, 6) AS priority
FROM k ORDER BY CAST(q AS DOUBLE) / w DESC, id LIMIT {AES_TOPK}
"""


def q_orders_pps_sample(sf_dir):
    """Deterministic probability-proportional-to-size sampling:
    order o is kept iff md5-hash(o_orderkey) % 1e6 <
    floor(o_totalprice) (integer-cents-free PPS — bigger orders more
    likely). Pure map stage, no shuffle, reproducible row-for-row in
    SQL; the standard weighted-subsample op for training-mix
    construction."""
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice"])

    def keep(t: pa.Table) -> pa.Table:
        import hashlib
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        p = t["o_totalprice"].to_numpy(zero_copy_only=False)
        h = np.array([int.from_bytes(
            hashlib.md5(str(int(x)).encode()).digest()[:4], "big")
            for x in k], dtype=np.int64) % PPS_MOD
        m = h < np.floor(p).astype(np.int64)
        return pa.table({
            "o_orderkey": pa.array(k[m].astype(np.int64)),
            "o_totalprice": pa.array(p[m]),
        })

    return od.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


SQL_ORDERS_PPS_SAMPLE = f"""
SELECT o_orderkey, o_totalprice
FROM orders
WHERE ('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 8))
      ::UBIGINT % {PPS_MOD}
      < CAST(floor(o_totalprice) AS BIGINT)
"""


EQUIDEPTH_QS = (0.25, 0.5, 0.75)


def q_price_equidepth(sf_dir):
    """Equi-depth (quantile-boundary) binning: quartile boundaries of
    o_totalprice learned once (percentile_disc order statistics),
    broadcast, then every order assigned bucket = #boundaries strictly
    below its price; per-bucket counts. The learn-boundaries-then-
    broadcast pattern is how equi-depth histograms are built at scale
    (one small aggregate, then a pure map)."""
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_totalprice"])
    # boundary learning: distinct-value counts via one groupby — the
    # driver holds only the (distinct price, count) aggregate, never
    # the raw column; stored doubles are preserved exactly so bucket
    # comparisons bit-match the SQL
    vc = od.map_batches(
        lambda t: t.group_by(["o_totalprice"]).aggregate(
            [([], "count_all")]).rename_columns(["p", "c"]),
        batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("p").aggregate(Sum("c", alias_name="c")).to_pandas() \
        .sort_values("p")
    cum = vc["c"].to_numpy(np.int64).cumsum()
    n = int(cum[-1])
    pv = vc["p"].to_numpy(np.float64)
    bounds = np.array([
        pv[np.searchsorted(cum, max(int(np.ceil(q * n)), 1))]
        for q in EQUIDEPTH_QS])

    import ray
    bref = ray.put(bounds)

    def assign(t: pa.Table) -> pa.Table:
        bs = ray.get(bref)
        p = t["o_totalprice"].to_numpy(zero_copy_only=False)
        bucket = (p[:, None] > bs[None, :]).sum(axis=1).astype(np.int64)
        tt = pa.table({"bucket": pa.array(bucket)})
        return tt.group_by(["bucket"]).aggregate(
            [([], "count_all")]).rename_columns(["bucket", "n"])

    agg = od.map_batches(assign, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby("bucket").aggregate(Sum("n", alias_name="n"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "bucket": pc.cast(t["bucket"], pa.int64()),
            "n": pc.cast(t["n"], pa.int64()),
        })
    return agg.map_batches(finish, batch_format="pyarrow")


SQL_PRICE_EQUIDEPTH = """
WITH o AS (SELECT o_totalprice AS p,
                  row_number() OVER (ORDER BY o_totalprice) AS rn,
                  count(*) OVER () AS n
           FROM orders),
b AS (SELECT q.q,
             (SELECT p FROM o
              WHERE rn = greatest(CAST(ceil(q.q * o2.n) AS BIGINT), 1)
              LIMIT 1) AS bound
      FROM (SELECT unnest([0.25, 0.5, 0.75]) AS q) q
      CROSS JOIN (SELECT count(*) AS n FROM orders) o2)
SELECT CAST((SELECT count(*) FROM b
             WHERE orders.o_totalprice > b.bound) AS BIGINT) AS bucket,
       count(*) AS n
FROM orders GROUP BY 1
"""


def q_revenue_by_nation(sf_dir):
    """TPC-H Q5-shaped star join: revenue by customer nation where the
    supplier is local (c_nationkey = s_nationkey) — the canonical
    multi-way join plan: every dimension (customer->nation->region,
    supplier) broadcast once via ray.put, the ONE big fact join
    (orders |><| lineitem on orderkey) as a Dataset hash join,
    per-batch revenue partials in EXACT integer 1e-4 units
    (cents x (100 - discount%)), one |nations|-bounded groupby.
    Reference pattern: prune at the read, broadcast small sides,
    shuffle the fact table once."""
    import ray
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"]) \
        .to_pandas()
    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"]) \
        .to_pandas()
    nat = rd.read_parquet(f"{sf_dir}/nation.parquet",
                          columns=["n_nationkey", "n_name"]).to_pandas()
    c_nat = np.full(int(cust["c_custkey"].max()) + 1, -1, np.int64)
    c_nat[cust["c_custkey"].to_numpy()] = \
        cust["c_nationkey"].to_numpy(np.int64)
    s_nat = np.full(int(supp["s_suppkey"].max()) + 1, -1, np.int64)
    s_nat[supp["s_suppkey"].to_numpy()] = \
        supp["s_nationkey"].to_numpy(np.int64)
    cref, sref = ray.put(c_nat), ray.put(s_nat)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"]) \
        .map_batches(lambda t: t.rename_columns(
            ["o_orderkey", "l_suppkey", "l_extendedprice",
             "l_discount"]),
            batch_format="pyarrow", zero_copy_batch=True)
    joined = li.join(orders, "inner", join_partitions(16),
                     on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        cn = ray.get(cref)[t["o_custkey"].to_numpy(
            zero_copy_only=False)]
        sn = ray.get(sref)[t["l_suppkey"].to_numpy(
            zero_copy_only=False)]
        keep = cn == sn
        price = t["l_extendedprice"].to_numpy(
            zero_copy_only=False)[keep]
        disc = t["l_discount"].to_numpy(zero_copy_only=False)[keep]
        cents = np.floor(price * 100 + 0.5).astype(np.int64)
        dpct = np.floor(disc * 100 + 0.5).astype(np.int64)
        rev = cents * (100 - dpct)          # exact 1e-4 money units
        df = pd.DataFrame({"nk": cn[keep], "rev_e4": rev}) \
            .groupby("nk", as_index=False)["rev_e4"].sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    agg = joined.map_batches(partial, batch_format="pyarrow") \
        .groupby("nk").aggregate(Sum("rev_e4", alias_name="rev_e4")) \
        .to_pandas()
    nmap = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    rev_e4 = agg["rev_e4"].to_numpy(np.int64)
    return pa.table({
        "n_name": pa.array([nmap[int(k)] for k in agg["nk"]],
                           pa.string()),
        "rev_e4": pa.array(rev_e4),
        "revenue": pa.array(round6(rev_e4 / 10000.0)),
    })


SQL_REVENUE_BY_NATION = """
SELECT n.n_name,
       CAST(sum(CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                * (100 - CAST(floor(l.l_discount * 100 + 0.5)
                              AS BIGINT))) AS BIGINT) AS rev_e4,
       round(sum(CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                 * (100 - CAST(floor(l.l_discount * 100 + 0.5)
                               AS BIGINT))) / 10000.0, 6) AS revenue
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
                AND s.s_nationkey = c.c_nationkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n.n_name
"""


# --- graph contraction by vertex attribute (the host-graph workflow:
# contract the url->url web graph to host->host; here part->brand on
# the gate tables — same shape: small-side attribute broadcast, edge
# relabel inside map_batches, fixed-size per-batch partials) ---------

def _brand_codes(sf_dir):
    """(sorted unique brands, partkey -> brand-code lookup array).
    The part dim is the broadcast-small side even at crawl scale (the
    host/brand domain is bounded); one column-pruned read."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/part.parquet",
                      columns=["p_partkey", "p_brand"])
    pk = t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    brands, codes = np.unique(
        np.asarray(t["p_brand"].to_pylist()), return_inverse=True)
    lut = np.zeros(int(pk.max()) + 1, dtype=np.int64)
    lut[pk] = codes
    return brands, lut


SQL_BRAND_GRAPH_CO = """
WITH e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
                   count(*) AS w
            FROM lineitem l1 JOIN lineitem l2
              ON l1.l_orderkey = l2.l_orderkey
             AND l1.l_partkey < l2.l_partkey
            GROUP BY 1, 2)
SELECT least(p1.p_brand, p2.p_brand) AS brand_a,
       greatest(p1.p_brand, p2.p_brand) AS brand_b,
       CAST(sum(e0.w) AS DOUBLE) AS weight
FROM e0 JOIN part p1 ON p1.p_partkey = e0.a
        JOIN part p2 ON p2.p_partkey = e0.b
GROUP BY 1, 2
"""


def q_redirect_resolve_planted(sf_dir):
    """Redirect-chain resolution (``dist/redirects.py`` pointer
    doubling): planted mapping of ten 9-hop chains (v -> v+1 within
    each block of 10, terminal at v%10==9), one 3-cycle and one
    self-loop. Resolved rows are closed form — final = the block
    terminal, hops = distance — and the cycle/self-loop entries are
    correctly omitted (the oracle universe excludes them)."""
    from ..dist.redirects import resolve_redirects

    src, dst = [], []
    for v in range(100):
        if v % 10 != 9:
            src.append(v)
            dst.append(v + 1)
    src += [200, 201, 202, 300]
    dst += [201, 202, 200, 300]
    vid, fin, hops = resolve_redirects(np.asarray(src, np.int64),
                                       np.asarray(dst, np.int64),
                                       P=8, rounds=10)
    return pa.table({"vid": pa.array(vid), "final": pa.array(fin),
                     "hops": pa.array(hops)})


SQL_REDIRECT_RESOLVE_PLANTED = """
WITH v AS (SELECT unnest(generate_series(0, 99)) AS v)
SELECT v AS vid,
       CAST(10 * (v // 10) + 9 AS BIGINT) AS final,
       CAST(9 - v % 10 AS BIGINT) AS hops
FROM v WHERE v % 10 <> 9
"""


def q_url_canonical_planted(sf_dir):
    """URL canonicalization (`stages/urls.py` — fragment strip, host
    lowercase, default-port drop, tracking-param removal) over a
    planted corpus of 100 deliberately-messy urls; the oracle states
    the known canonical form closed-form, so the whole RE2 rule chain
    is value-checked, not mirrored."""
    from ..stages.urls import canonicalize_urls

    msgs = []
    for v in range(100):
        u = f"HTTPS://Site{v % 7}.Example:443/p/{v}?id={v}"
        if v % 2 == 0:
            u += "&utm_source=feed"
        if v % 3 == 0:
            u += f"&gclid=g{v}"
        if v % 5 == 0:
            u += "#frag"
        msgs.append(u)
    ds = rd.from_arrow(pa.table({"url": pa.array(msgs, pa.string())}))
    df = canonicalize_urls(ds).to_pandas()
    return pa.table({"url": pa.array(df["url"], pa.string()),
                     "canon_url": pa.array(df["canon_url"],
                                           pa.string())})


SQL_URL_CANONICAL_PLANTED = """
WITH v AS (SELECT unnest(generate_series(0, 99)) AS v)
SELECT 'HTTPS://Site' || CAST(v % 7 AS VARCHAR) || '.Example:443/p/'
       || CAST(v AS VARCHAR) || '?id=' || CAST(v AS VARCHAR)
       || CASE WHEN v % 2 = 0 THEN '&utm_source=feed' ELSE '' END
       || CASE WHEN v % 3 = 0
               THEN '&gclid=g' || CAST(v AS VARCHAR) ELSE '' END
       || CASE WHEN v % 5 = 0 THEN '#frag' ELSE '' END AS url,
       'https://site' || CAST(v % 7 AS VARCHAR) || '.example/p/'
       || CAST(v AS VARCHAR) || '?id=' || CAST(v AS VARCHAR)
       AS canon_url
FROM v
"""


# --- partition comparison metrics (igraph compare_communities
# counterpart; reference workflow compares leidenalg partitions via
# igraph) — distributed contingency build, single formula source in
# leidenalg_ray/compare.py ------------------------------------------

_CMP_KA, _CMP_KB = 7, 10


def q_partition_compare(sf_dir):
    """NMI / ARI / VI / Rand / split-join between the deterministic
    partitions ``vid % 7`` and ``vid % 10`` of the part vertex set.
    Each batch reduces to a fixed (7*10)-cell integer contingency
    partial, one tiny shuffle, and the driver finishes on the (7, 10)
    matrix via ``compare.metrics_from_contingency`` (ln terms
    quantised to 1e-9 fixed point so the SQL oracle sums identical
    integers)."""
    from ..compare import metrics_from_contingency

    ka, kb = _CMP_KA, _CMP_KB
    parts = rd.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey"])

    def partial(t: pa.Table) -> pa.Table:
        pk = t["p_partkey"].to_numpy(zero_copy_only=False)
        key = (pk % ka) * kb + (pk % kb)
        n = np.bincount(key, minlength=ka * kb)
        return pa.table({
            "cell": pa.array(np.arange(ka * kb, dtype=np.int64)),
            "n": pa.array(n.astype(np.int64)),
        })

    # driver-merge of the fixed 70-cell partials (no groupby shuffle
    # for a 70-int merge — CLAUDE.md hot-path rule)
    C = np.zeros(ka * kb, dtype=np.int64)
    for part_t in parts.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        np.add.at(C, part_t["cell"].to_numpy(zero_copy_only=False),
                  part_t["n"].to_numpy(zero_copy_only=False))
    C = C.reshape(ka, kb)
    return pa.table({
        "nmi": pa.array(round6([metrics_from_contingency(C, "nmi")])),
        "ari": pa.array(round6([metrics_from_contingency(C, "ari")])),
        "vi": pa.array(round6([metrics_from_contingency(C, "vi")])),
        "rand": pa.array(round6([metrics_from_contingency(C, "rand")])),
        "split_join": pa.array(
            [int(metrics_from_contingency(C, "split-join"))],
            pa.int64()),
    })


SQL_PARTITION_COMPARE = f"""
WITH cells AS (SELECT p_partkey % {_CMP_KA} AS i,
                      p_partkey % {_CMP_KB} AS j,
                      count(*) AS n
               FROM part GROUP BY 1, 2),
nn AS (SELECT sum(n) AS N FROM cells),
am AS (SELECT i, sum(n) AS a FROM cells GROUP BY i),
bm AS (SELECT j, sum(n) AS b FROM cells GROUP BY j),
-- per-cell ln terms quantised to 1e-9 fixed point BEFORE summation
-- (identical parenthesisation to compare.metrics_from_contingency)
ifp AS (SELECT sum(c.n * CAST(floor(ln(
              (CAST(c.n AS DOUBLE) * nn.N)
              / (CAST(am.a AS DOUBLE) * CAST(bm.b AS DOUBLE)))
              * 1000000000 + 0.5) AS BIGINT)) AS v
        FROM cells c, nn
        JOIN am ON am.i = c.i JOIN bm ON bm.j = c.j),
hafp AS (SELECT sum(a * CAST(floor(ln(nn.N / CAST(a AS DOUBLE))
               * 1000000000 + 0.5) AS BIGINT)) AS v FROM am, nn),
hbfp AS (SELECT sum(b * CAST(floor(ln(nn.N / CAST(b AS DOUBLE))
               * 1000000000 + 0.5) AS BIGINT)) AS v FROM bm, nn),
pairs AS (SELECT
    (SELECT sum(n * (n - 1) // 2) FROM cells) AS sij,
    (SELECT sum(a * (a - 1) // 2) FROM am) AS sa,
    (SELECT sum(b * (b - 1) // 2) FROM bm) AS sb,
    (SELECT N * (N - 1) // 2 FROM nn) AS np),
sj AS (SELECT
    (SELECT sum(mx) FROM (SELECT max(n) AS mx FROM cells GROUP BY i))
    + (SELECT sum(mx) FROM (SELECT max(n) AS mx FROM cells GROUP BY j))
    AS covered),
fin AS (SELECT
    (CAST(ifp.v AS DOUBLE) / 1000000000) / nn.N AS i_,
    (CAST(hafp.v AS DOUBLE) / 1000000000) / nn.N AS ha,
    (CAST(hbfp.v AS DOUBLE) / 1000000000) / nn.N AS hb,
    CAST(p.sij AS DOUBLE) AS sij, CAST(p.sa AS DOUBLE) AS sa,
    CAST(p.sb AS DOUBLE) AS sb, CAST(p.np AS DOUBLE) AS np,
    nn.N AS n, sj.covered AS covered
    FROM ifp, hafp, hbfp, pairs p, nn, sj)
SELECT round(2.0 * i_ / (ha + hb), 6) AS nmi,
       round((sij - (sa * sb) / np)
             / ((sa + sb) / 2.0 - (sa * sb) / np), 6) AS ari,
       round(ha + hb - 2.0 * i_, 6) AS vi,
       round((np + 2 * sij - sa - sb) / np, 6) AS rand,
       CAST(2 * n - covered AS BIGINT) AS split_join
FROM fin
"""


def _neighbor_pair_counts(g: DistGraph, cap: int, drop_counter=None):
    """Unordered-pair multiplicities over each source's DISTINCT
    out-neighbour set: count(u, v) = |{w : w->u and w->v}| for u < v.

    A source's out-edges live in exactly ONE CSR block (blocks are
    src-partitioned), so each block emits complete pair-count partials
    for its resident sources with NO shuffle; the driver merges P
    partials (bounded at gate scale — the at-scale form feeds the same
    partials into a pair-key groupby instead of a driver merge).
    Sources with out-degree > ``cap`` are skipped — the skew guard a
    hub page needs (C(k,2) blowup) — and COUNTED via ``drop_counter``
    (the "no silent caps" rule); the SQL oracle applies the identical
    degree filter.

    Returns (u, v, count) int64 arrays plus the dropped-source count.
    """
    import ray
    P, n = g.P, g.n

    @ray.remote
    def pairs(block, p):
        s = block["src_local"] * np.int64(P) + p
        d = block["dst_local"] * np.int64(P) + block["dst_part"]
        key = np.unique(s * np.int64(n) + d)   # DISTINCT (SQL parity)
        s, d = key // n, key % n
        if not len(s):
            z = np.empty(0, np.int64)
            return z, z, 0
        cuts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        ends = np.r_[cuts[1:], len(s)]
        out, dropped = [], 0
        for c0, c1 in zip(cuts, ends):
            k = int(c1 - c0)
            if k < 2:
                continue
            if k > cap:
                dropped += 1
                continue
            nb = d[c0:c1]                      # already sorted (key order)
            iu, ju = np.triu_indices(k, 1)
            out.append(nb[iu] * np.int64(n) + nb[ju])
        if out:
            uk, uc = np.unique(np.concatenate(out), return_counts=True)
        else:
            uk = uc = np.empty(0, np.int64)
        return uk, uc.astype(np.int64), dropped

    res = ray.get([pairs.remote(g.blocks[p], p) for p in range(P)])
    n_dropped = sum(r[2] for r in res)
    if n_dropped and drop_counter is not None:
        drop_counter.add.remote(n_dropped)
    keys = np.concatenate([r[0] for r in res]) if res else np.empty(0, np.int64)
    cnts = np.concatenate([r[1] for r in res]) if res else np.empty(0, np.int64)
    uk, inv = np.unique(keys, return_inverse=True)
    tot = np.zeros(len(uk), dtype=np.int64)
    np.add.at(tot, inv, cnts)
    return uk // n, uk % n, tot, n_dropped


# ----------------------------------------------------------------------
# bipartite butterfly (4-cycle) census over the part->supplier graph
# ----------------------------------------------------------------------
BUTTERFLY_DEG_CAP = 64


def q_butterflies_ps(sf_dir):
    """Bipartite butterfly census (Sanei-Mehri et al., KDD 2018 — the
    bipartite analogue of triangle counting; igraph users get it via
    ``motifs``): butterflies = #4-cycles = sum over supplier pairs of
    C(common_parts, 2), caterpillars = #length-3 paths = sum over
    distinct edges of (deg_part-1)*(deg_supp-1), and the
    Robins–Alexander bipartite clustering coefficient 4*B/C.

    Butterfly pairs ride the same block-resident per-source pair
    kernel as cocitation (a part's supplier set lives in ONE CSR
    block, so pair-count partials need no shuffle; sources above
    BUTTERFLY_DEG_CAP are skipped, identically filtered in the
    oracle). Caterpillars reduce shard-side: one scalar per block from
    the resident out-degrees plus the cached in-degree shards."""
    import ray
    g = _ps_distgraph(sf_dir, symmetric=False)
    _, _, c, _ = _neighbor_pair_counts(g, BUTTERFLY_DEG_CAP)
    n_butterflies = int((c * (c - 1) // 2).sum())
    ind = g.in_degree_shards()

    @ray.remote
    def cat_partial(block, outd, *ind_shards):
        ds = outd[block["src_local"]]          # edges sorted by dst_part
        off = block["dst_offsets"]
        tot = 0
        for q, shard in enumerate(ind_shards):
            sl = slice(int(off[q]), int(off[q + 1]))
            dd = shard[block["dst_local"][sl]]
            tot += int(((ds[sl] - 1) * (dd - 1)).sum())
        return tot

    n_cat = int(sum(ray.get(
        [cat_partial.remote(g.blocks[p], g.out_deg[p], *ind)
         for p in range(g.P)])))
    bcc = 4.0 * n_butterflies / n_cat if n_cat else 0.0
    return pa.table({
        "n_butterflies": pa.array([n_butterflies], pa.int64()),
        "n_caterpillars": pa.array([n_cat], pa.int64()),
        "bipartite_cc": pa.array(round6([bcc])),
    })


SQL_BUTTERFLIES_PS = f"""
WITH e AS (SELECT DISTINCT l_partkey AS a, l_suppkey AS b FROM lineitem),
dga AS (SELECT a, count(*) AS k FROM e GROUP BY 1),
dgb AS (SELECT b, count(*) AS k FROM e GROUP BY 1),
el AS (SELECT e.a, e.b FROM e JOIN dga ON dga.a = e.a
       WHERE dga.k BETWEEN 2 AND {BUTTERFLY_DEG_CAP}),
p AS (SELECT x.b AS u, y.b AS v, count(*) AS m FROM el x JOIN el y
      ON x.a = y.a AND x.b < y.b GROUP BY 1, 2),
bf AS (SELECT COALESCE(sum(m * (m - 1) // 2), 0) AS nb FROM p),
cat AS (SELECT COALESCE(sum((dga.k - 1) * (dgb.k - 1)), 0) AS nc
        FROM e JOIN dga ON dga.a = e.a JOIN dgb ON dgb.b = e.b)
SELECT CAST(bf.nb AS BIGINT) AS n_butterflies,
       CAST(cat.nc AS BIGINT) AS n_caterpillars,
       round(CASE WHEN cat.nc = 0 THEN 0.0
                  ELSE 4.0 * bf.nb / cat.nc END, 6) AS bipartite_cc
FROM bf, cat
"""


# ----------------------------------------------------------------------
# temperature-scaled source mixing weights (data-mixing stage)
# ----------------------------------------------------------------------
MIX_ALPHA = 0.5  # w ∝ n^alpha; 0.5 = the sqrt temperature GPT-3-style


def q_edge_dice_co(sf_dir):
    """Per-edge Dice similarity (igraph ``similarity_dice`` for
    adjacent pairs): dice = 2*support / (deg_a + deg_b) — same
    compact-forward support plan and degree bincounts as
    ``edge_jaccard_co``, different normalisation."""
    from ..dist.truss import edge_supports
    t = pa.concat_tables(
        [b for b in tg.co_edge_rows(sf_dir).iter_batches(
            batch_size=None, batch_format="pyarrow")])
    s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(max(s.max(), d.max())) + 1
    lo = np.minimum(s, d)
    hi = np.maximum(s, d)
    keys = np.unique(lo[lo != hi] * np.int64(n) + hi[lo != hi])
    a, b = keys // n, keys % n
    sup = edge_supports(a, b, n, P=8)
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    return pa.table({"a": pa.array(a), "b": pa.array(b),
                     "support": pa.array(sup),
                     "dice": pa.array(round6(
                         2.0 * sup / (deg[a] + deg[b])))})


SQL_EDGE_DICE_CO = f"""
WITH {_SQL_CO_PAIRS},
dd AS (SELECT a, b FROM e0 UNION ALL SELECT b AS a, a AS b FROM e0),
sup AS (SELECT e.a, e.b, count(*) AS sp
        FROM e0 e JOIN dd x ON x.a = e.a
                  JOIN dd y ON y.a = e.b AND y.b = x.b
        GROUP BY 1, 2),
deg AS (SELECT a AS v, count(*) AS dg FROM dd GROUP BY 1)
SELECT e.a, e.b,
       CAST(COALESCE(sup.sp, 0) AS BIGINT) AS support,
       round(2.0 * COALESCE(sup.sp, 0) / (da.dg + db.dg), 6) AS dice
FROM e0 e
LEFT JOIN sup ON sup.a = e.a AND sup.b = e.b
JOIN deg da ON da.v = e.a
JOIN deg db ON db.v = e.b
"""


def q_spearman_centrality_co(sf_dir):
    """Spearman rank correlation between the PageRank and Katz
    orderings (the link-signal agreement diagnostic): rho = 1 -
    6*sum(d^2) / (n(n^2-1)) over the two (score desc, vid) rank
    permutations — all-integer until one final division, computed on
    the gate-identical rounded per-vertex outputs (ties broken by
    vid, the ``rrf_centrality_co`` convention)."""
    pr = q_pagerank_co(sf_dir).to_pandas()
    kz = q_katz_co(sf_dir).to_pandas()
    pr = pr.sort_values(["rank", "vid"], ascending=[False, True])
    r1 = pd.Series(np.arange(1, len(pr) + 1), index=pr["vid"].values)
    kz = kz.sort_values(["katz", "vid"], ascending=[False, True])
    r2 = pd.Series(np.arange(1, len(kz) + 1), index=kz["vid"].values)
    d = (r1 - r2.reindex(r1.index)).to_numpy(np.int64)
    n = len(d)
    sum_d2 = int((d * d).sum())
    rho = 1.0 - 6.0 * sum_d2 / (n * (n * n - 1))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "sum_d2": pa.array([sum_d2], pa.int64()),
        "spearman_rho": pa.array(round6([rho])),
    })


def _sql_spearman():
    return f"""
WITH pr AS (SELECT vid, row_number() OVER (ORDER BY rank DESC, vid)
                     AS r1
            FROM ({SQL_PAGERANK_CO})),
kz AS (SELECT vid, row_number() OVER (ORDER BY katz DESC, vid) AS r2
       FROM ({SQL_KATZ_CO})),
d AS (SELECT CAST(r1 AS BIGINT) - CAST(r2 AS BIGINT) AS dd
      FROM pr JOIN kz USING (vid))
SELECT CAST(count(*) AS BIGINT) AS n,
       CAST(sum(dd * dd) AS BIGINT) AS sum_d2,
       round(1.0 - 6.0 * sum(dd * dd)
             / (count(*) * (count(*) * count(*) - 1)), 6)
         AS spearman_rho
FROM d
"""


RRF_K = 60
RRF_TOPN = 20


def q_rrf_centrality_co(sf_dir):
    """Reciprocal-rank fusion of two centrality rankings (Cormack et
    al. 2009 — the standard way a ranking pipeline combines link
    signals): rrf(v) = 1/(60 + rank_pagerank) + 1/(60 + rank_katz),
    ranks on the two SQL-green per-vertex outputs with (score desc,
    vid) tie order, top-RRF_TOPN reported. Fusion runs on the rounded
    per-vertex outputs (the driver-hashed contract values, identical
    on both engines by the pagerank_co / katz_co gates), so the rank
    comparison is exact; the fusion itself is a fixed two-term IEEE
    expression. Driver state is the two per-vertex outputs — the size
    of the query RESULT, not the edge set."""
    pr = q_pagerank_co(sf_dir).to_pandas()
    kz = q_katz_co(sf_dir).to_pandas()
    pr = pr.sort_values(["rank", "vid"], ascending=[False, True])         .reset_index(drop=True)
    pr["r1"] = np.arange(1, len(pr) + 1)
    kz = kz.sort_values(["katz", "vid"], ascending=[False, True])         .reset_index(drop=True)
    kz["r2"] = np.arange(1, len(kz) + 1)
    m = pr[["vid", "r1"]].merge(kz[["vid", "r2"]], on="vid")
    rrf = 1.0 / (RRF_K + m["r1"].to_numpy())         + 1.0 / (RRF_K + m["r2"].to_numpy())
    m["rrf"] = rrf
    m = m.sort_values(["rrf", "vid"], ascending=[False, True])         .head(RRF_TOPN)
    return pa.table({
        "vid": pa.array(m["vid"].to_numpy(np.int64)),
        "r_pagerank": pa.array(m["r1"].to_numpy(np.int64)),
        "r_katz": pa.array(m["r2"].to_numpy(np.int64)),
        "rrf": pa.array(round6(m["rrf"].to_numpy())),
    })


def _sql_rrf():
    from textwrap import indent
    pr = SQL_PAGERANK_CO
    kz = SQL_KATZ_CO
    return f"""
WITH pr AS (SELECT vid, row_number() OVER (ORDER BY rank DESC, vid)
                     AS r1
            FROM ({pr})),
kz AS (SELECT vid, row_number() OVER (ORDER BY katz DESC, vid) AS r2
       FROM ({kz}))
SELECT pr.vid, CAST(r1 AS BIGINT) AS r_pagerank,
       CAST(r2 AS BIGINT) AS r_katz,
       round(1.0 / ({RRF_K} + r1) + 1.0 / ({RRF_K} + r2), 6) AS rrf
FROM pr JOIN kz USING (vid)
ORDER BY 1.0 / ({RRF_K} + r1) + 1.0 / ({RRF_K} + r2) DESC, vid
LIMIT {RRF_TOPN}
"""


def q_crossing_brand_co(sf_dir):
    """Per-edge community-crossing flags (igraph
    ``VertexClustering.crossing`` parity) for the co graph under the
    brand partition: one row per undirected co edge with crossing = 1
    iff its endpoints carry different brands. Per-block vectorised
    relabel against the broadcast LUT; each block emits only its
    src<dst orientation so every edge appears exactly once."""
    import ray as _ray
    g = _co_distgraph(sf_dir)
    _, lut = _brand_codes(sf_dir)
    P = g.P
    lut_ref = _ray.put(lut)

    @_ray.remote
    def edges(block, lut_, p):
        src_g = block["src_local"] * P + p
        dst_g = block["dst_local"] * P + block["dst_part"]
        m = src_g < dst_g
        s, d = src_g[m], dst_g[m]
        return s, d, (lut_[s] != lut_[d]).astype(np.int64)

    parts = _ray.get([edges.remote(g.blocks[p], lut_ref, p)
                      for p in range(P)])
    return pa.table({
        "a": pa.array(np.concatenate([p[0] for p in parts])),
        "b": pa.array(np.concatenate([p[1] for p in parts])),
        "crossing": pa.array(np.concatenate([p[2] for p in parts])),
    })


SQL_CROSSING_BRAND_CO = f"""
WITH {_SQL_CO_PAIRS}
SELECT e0.a, e0.b,
       CAST(CASE WHEN pa.p_brand <> pb.p_brand THEN 1 ELSE 0 END
            AS BIGINT) AS crossing
FROM e0 JOIN part pa ON pa.p_partkey = e0.a
        JOIN part pb ON pb.p_partkey = e0.b
"""


HH_K = 127


def q_heavy_hitter_users(sf_dir):
    """Exact heavy hitters (users with > N/(k+1) of all events)
    through the 2-pass Misra-Gries path
    (``stages/sketch.heavy_hitters``): pass 1 folds per-batch
    summaries into O(k) driver state (the merged summary provably
    keeps every key above the bar — Agarwal et al., PODS 2012),
    pass 2 recounts only the <= k candidates exactly. No full
    groupby shuffle; the oracle is the plain exact HAVING filter,
    which the guarantee makes identical."""
    from ..stages.sketch import heavy_hitters
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id"])
    keys, cnts, _n = heavy_hitters(ev, "user_id", k=HH_K)
    return pa.table({
        "user_id": pa.array(keys, pa.int64()),
        "n_events": pa.array(cnts, pa.int64()),
    })


SQL_HEAVY_HITTER_USERS = f"""
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
FROM events
GROUP BY user_id
HAVING count(*) * {HH_K + 1} > (SELECT count(*) FROM events)
ORDER BY user_id
"""


HT_ITERS = 30


def q_hitting_time_co(sf_dir):
    """Truncated expected hitting time of the weighted random walk to
    the PPR_SEEDS smallest active vids (``ss.hitting_time`` — value
    iteration, the random-walk distance used for recommendation /
    trust propagation; fixed HT_ITERS sweeps so the recursive-CTE
    oracle replays it exactly). The symmetric co graph makes the
    push-along-edges gather shape identical to PageRank's."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    targets = np.flatnonzero(act)[:PPR_SEEDS].astype(np.int64)
    h, _ = ss.hitting_time(g, targets, iters=HT_ITERS, weighted=True)
    vids = np.flatnonzero(act).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "h": pa.array(round6(h[vids]))})


SQL_HITTING_TIME_CO = f"""
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
              CAST(count(*) AS DOUBLE) AS w
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS (SELECT a, b, w FROM e0 UNION ALL SELECT b, a, w FROM e0),
verts AS (SELECT a AS v, sum(w) AS strength FROM e GROUP BY a),
tgt AS (SELECT v FROM verts ORDER BY v LIMIT {PPR_SEEDS}),
one AS (SELECT CAST(count(*) AS DOUBLE) / count(*) AS o FROM verts),
ht(i, v, h) AS (
  SELECT 0, v, CAST(0.0 AS DOUBLE) FROM verts
  UNION ALL
  SELECT p.i + 1, e.b,
         CASE WHEN e.b IN (SELECT v FROM tgt)
              THEN CAST(0.0 AS DOUBLE)
              ELSE (SELECT o FROM one)
                   + sum(p.h * e.w) / vs2.strength END
  FROM ht p
  JOIN e ON e.a = p.v
  JOIN verts vs2 ON vs2.v = e.b
  WHERE p.i < {HT_ITERS}
  GROUP BY p.i, e.b, vs2.strength
)
SELECT v AS vid, round(h, 6) AS h FROM ht WHERE i = {HT_ITERS}
"""


FUNNEL_MIN_WORDS = 50
FUNNEL_MIN_STOP_HITS = 1


class _FunnelFlags:
    """Fused funnel actor: per-doc (text_hash, key) where ``key =
    doc_id*4 + f_en*2 + f_q`` packs the lang-id and quality flags
    under the doc_id order, reusing the gate-identical ``LangId`` /
    ``GopherRules`` stage callables (state built once per actor)."""

    def __init__(self):
        self.lang = tx.LangId()
        self.gop = tx.GopherRules()

    def __call__(self, t: pa.Table) -> pa.Table:
        import hashlib
        lt = self.lang(t)
        gt = self.gop(t)
        f_en = pc.equal(lt["pred_lang"], "en").to_numpy(
            zero_copy_only=False).astype(np.int64)
        nw = gt["n_words"].to_numpy(zero_copy_only=False)
        sh = gt["stop_hits"].to_numpy(zero_copy_only=False)
        f_q = ((nw >= FUNNEL_MIN_WORDS)
               & (sh >= FUNNEL_MIN_STOP_HITS)).astype(np.int64)
        texts = np.asarray(t["text"].to_pylist(), dtype=object)
        uniq, inv = np.unique(texts, return_inverse=True)
        digests = np.asarray(
            [hashlib.md5(x.encode("utf-8")).hexdigest()
             for x in uniq], dtype=object)
        doc_id = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "text_hash": pa.array(digests[inv], pa.string()),
            "key": pa.array(doc_id * 4 + f_en * 2 + f_q),
        })
