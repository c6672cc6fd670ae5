"""Graph-domain catalogue rows (Leiden family, BSP kernels, graph diagnostics) — see queries.py for the registry."""

from .qcore import *  # noqa: F401,F403
from .qcore import (  # noqa: F401
    _G_CACHE,
    _SQL_CO_EDGES_BOTH,
    _SQL_CO_PAIRS,
    _brand_codes,
    _co_distgraph,
    _item_seq_distgraph,
    _item_seq_rev_distgraph,
    _neighbor_pair_counts,
    _ps_distgraph,
)
from ..dist.truss import k_truss
from ..dist.leiden import DistLeiden


def _compact(src, dst):
    vids = np.unique(np.concatenate([src, dst]))
    return (vids, np.searchsorted(vids, src).astype(np.int64),
            np.searchsorted(vids, dst).astype(np.int64))


def _co_canon_refs(sf_dir):
    """Canonical deduped (a < b, weight) edge rows of the co graph as
    per-shard OBJECT REFS, derived from the shared ``_co_distgraph``
    blocks (symmetrised + partition-locally deduped, so keeping only
    the src < dst direction of each shard's rows yields every
    canonical pair exactly once — no extra unique pass). Consumers
    that need the whole edge list at once (the broadcast-envelope
    kernels: K4, Burt constraint, percolation) gather these INSIDE a
    worker task, keeping the driver o(E) (r4 verdict item 4)."""
    import ray

    g = _co_distgraph(sf_dir)
    key = (sf_dir, "co_canon")
    if key not in _G_CACHE:
        P = g.P

        @ray.remote
        def canon(p, block):
            s = block["src_local"] * P + p
            d = (block["dst_local"].astype(np.int64) * P
                 + block["dst_part"].astype(np.int64))
            m = s < d
            return s[m], d[m], block["weight"][m]

        _G_CACHE[key] = [canon.remote(p, g.blocks[p])
                         for p in range(P)]
    return g, _G_CACHE[key]


# ======================================================================
# Graph build
# ======================================================================
def q_edges_ps(sf_dir):
    return tg.ps_edges(sf_dir)


SQL_EDGES_PS = """
SELECT l_partkey * 2 AS src, l_suppkey * 2 + 1 AS dst,
       CAST(count(*) AS DOUBLE) AS weight
FROM lineitem GROUP BY 1, 2
"""


def q_edges_co(sf_dir):
    return tg.co_edges(sf_dir)


SQL_EDGES_CO = """
SELECT l1.l_partkey AS a, l2.l_partkey AS b,
       CAST(count(*) AS DOUBLE) AS weight
FROM lineitem l1 JOIN lineitem l2
  ON l1.l_orderkey = l2.l_orderkey AND l1.l_partkey < l2.l_partkey
GROUP BY 1, 2
"""


SQL_DEGREE_PS = """
WITH e AS (SELECT l_partkey * 2 AS src, l_suppkey * 2 + 1 AS dst,
                  CAST(count(*) AS DOUBLE) AS weight
           FROM lineitem GROUP BY 1, 2)
SELECT src, count(*) AS out_degree, sum(weight) AS out_strength
FROM e GROUP BY src
"""


def q_degree_distribution_ps(sf_dir):
    """Degree histogram of the part->supplier graph: how many vertices
    have each out-degree (the sort/top-k + histogram shape)."""
    deg = q_degree_ps(sf_dir)
    out = deg.groupby("out_degree").aggregate(
        Count(alias_name="n_vertices"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "out_degree": pc.cast(t["out_degree"], pa.int64()),
            "n_vertices": pc.cast(t["n_vertices"], pa.int64()),
        })
    return out.map_batches(finish, batch_format="pyarrow")


SQL_DEGREE_DISTRIBUTION_PS = """
WITH e AS (SELECT l_partkey * 2 AS src, l_suppkey * 2 + 1 AS dst
           FROM lineitem GROUP BY 1, 2),
deg AS (SELECT src, count(*) AS out_degree FROM e GROUP BY src)
SELECT out_degree, count(*) AS n_vertices FROM deg GROUP BY out_degree
"""


# ======================================================================
# Connected components
# ======================================================================
def q_cc_ps(sf_dir):
    g = _ps_distgraph(sf_dir, symmetric=True)
    comp, _ = ss.connected_components(g)
    # labels propagate over RAW vids, so the component label is already
    # the smallest original vid in the component
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "component": pa.array(comp[vids])})


SQL_CC_PS = """
WITH RECURSIVE
e AS (SELECT l_partkey * 2 AS a, l_suppkey * 2 + 1 AS b
      FROM lineitem GROUP BY 1, 2),
ee AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
verts AS (SELECT DISTINCT a AS v FROM ee),
reach(v, lab) AS (
  SELECT v, v FROM verts
  UNION
  SELECT ee.b, reach.lab FROM reach JOIN ee ON ee.a = reach.v
)
SELECT v AS vid, min(lab) AS component FROM reach GROUP BY v
"""


def q_cc_sizes_ps(sf_dir):
    """Component sizes from the already-driver-resident label vector:
    one ``np.unique`` over the O(n) labels — no pandas round-trip, no
    per-vertex materialised table."""
    g = _ps_distgraph(sf_dir, symmetric=True)
    comp, _ = ss.connected_components(g)
    labs = comp[np.flatnonzero(g.active_global())]
    uniq, counts = np.unique(labs, return_counts=True)
    return pa.table({
        "component": pa.array(uniq.astype(np.int64)),
        "n_vertices": pa.array(counts.astype(np.int64)),
    })


SQL_CC_SIZES_PS = """
WITH RECURSIVE
e AS (SELECT l_partkey * 2 AS a, l_suppkey * 2 + 1 AS b
      FROM lineitem GROUP BY 1, 2),
ee AS (SELECT a, b FROM e UNION SELECT b AS a, a AS b FROM e),
verts AS (SELECT DISTINCT a AS v FROM ee),
reach(v, lab) AS (
  SELECT v, v FROM verts
  UNION
  SELECT ee.b, reach.lab FROM reach JOIN ee ON ee.a = reach.v
),
comp AS (SELECT v, min(lab) AS component FROM reach GROUP BY v)
SELECT component, count(*) AS n_vertices FROM comp GROUP BY component
"""


def q_pagerank_shardout_co(sf_dir):
    """The same PageRank run through the o(n)-driver OUTPUT seam
    (``result_out=``): each shard writes its (vid, rank) parquet from
    a worker task, the driver sees only {path, rows, column}, and the
    query reads the partitioned files back — so the driver gate
    verifies the shard-side write path end-to-end against the same
    SQL oracle as ``pagerank_co``."""
    import shutil
    import tempfile

    import pyarrow.dataset as pads

    g = _co_distgraph(sf_dir)
    out = tempfile.mkdtemp(prefix="lray_pr_out_")
    try:
        res, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                             max_iter=PAGERANK_ITERS, weighted=True,
                             active=True, result_out=out)
        assert res["rows"] == g.n
        t = pads.dataset(out).to_table()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    vids = t["vid"].to_numpy()
    rank = t["rank"].to_numpy()
    act = g.active_global()[vids]
    return pa.table({"vid": pa.array(vids[act]),
                     "rank": pa.array(round6(rank[act]))})


def q_pagerank_ps(sf_dir):
    """Directed bipartite PageRank (suppliers dangling) — exercises the
    dangling-mass redistribution. Fixed PAGERANK_ITERS iterations so
    the recursive-CTE oracle reproduces it exactly (the oracle's
    per-iteration dangling sum references the recursive table twice —
    DuckDB supports this)."""
    g = _ps_distgraph(sf_dir, symmetric=False)
    rank, iters = ss.pagerank(g, damping=DAMPING, tol=0.0,
                              max_iter=PAGERANK_ITERS, weighted=False,
                              active=True)
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "rank": pa.array(round6(rank[vids]))})


SQL_PAGERANK_PS = f"""
WITH RECURSIVE
e AS (SELECT l_partkey * 2 AS a, l_suppkey * 2 + 1 AS b
      FROM lineitem GROUP BY 1, 2),
verts AS (SELECT DISTINCT v FROM
          (SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e)),
outdeg AS (SELECT a AS v, CAST(count(*) AS DOUBLE) AS deg
           FROM e GROUP BY a),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM verts),
pr(i, v, r) AS (
  SELECT 0, v, 1.0 / (SELECT n FROM nn) FROM verts
  UNION ALL
  SELECT vx.i + 1, vx.v,
         (1 - {DAMPING}) / (SELECT n FROM nn)
         + {DAMPING} * (
             COALESCE((SELECT sum(p.r / od.deg)
                       FROM pr p JOIN outdeg od ON od.v = p.v
                       JOIN e ON e.a = p.v
                       WHERE e.b = vx.v AND p.i = vx.i), 0)
             + COALESCE((SELECT sum(p.r) FROM pr p
                         LEFT JOIN outdeg od ON od.v = p.v
                         WHERE od.v IS NULL AND p.i = vx.i), 0)
               / (SELECT n FROM nn))
  FROM pr vx WHERE vx.i < {PAGERANK_ITERS}
)
SELECT v AS vid, round(r, 6) AS rank
FROM pr WHERE i = {PAGERANK_ITERS}
"""


# ======================================================================
# Dynamic-graph maintenance: warm-started PageRank, incremental CC
# ======================================================================
PAGERANK_WARM_EXTRA = 15


def q_pagerank_warm_co(sf_dir):
    """Warm-started (dynamic) PageRank: resume from the
    PAGERANK_ITERS-step state via ``init_rank`` and run
    PAGERANK_WARM_EXTRA more supersteps. Warm-starting is bit-identical
    to having kept iterating, so the fixed-iteration CTE at
    PAGERANK_ITERS + PAGERANK_WARM_EXTRA verifies the warm-start
    plumbing exactly — the recrawl path for a web-scale link graph
    (re-converge yesterday's ranks after a delta-edge batch instead of
    restarting from uniform)."""
    g = _co_distgraph(sf_dir)
    base, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                          max_iter=PAGERANK_ITERS, weighted=True,
                          active=True)
    rank, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                          max_iter=PAGERANK_WARM_EXTRA, weighted=True,
                          active=True, init_rank=base)
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "rank": pa.array(round6(rank[vids]))})


SQL_PAGERANK_WARM_CO = f"""
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
  WHERE p.i < {PAGERANK_ITERS + PAGERANK_WARM_EXTRA}
  GROUP BY p.i, e.b
)
SELECT v AS vid, round(r, 6) AS rank
FROM pr WHERE i = {PAGERANK_ITERS + PAGERANK_WARM_EXTRA}
"""


def q_cc_incremental_ps(sf_dir):
    """Incremental connected components after a delta-edge batch:
    labels of the base graph (lineitem rows with l_linenumber <= 3)
    warm-start min-label propagation over the full graph — only the
    regions the delta edges bridge move, so re-convergence costs
    ~diameter-of-change supersteps. The fixed point is independent of
    the warm start (component minima), so the plain CC recursive CTE
    over the full edge set verifies the incremental path exactly."""
    from ..dist.blocks import symmetrize_edges
    g = _ps_distgraph(sf_dir, symmetric=True)

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_suppkey",
                                  "l_linenumber"])

    def base_edges(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_linenumber"], 3))
        tt = pa.table({
            "src": pc.cast(pc.multiply(t["l_partkey"], 2), pa.int64()),
            "dst": pc.cast(pc.add(pc.multiply(t["l_suppkey"], 2), 1),
                           pa.int64()),
        })
        return tt.group_by(["src", "dst"]).aggregate([([], "count_all")]) \
                 .rename_columns(["src", "dst", "weight"])

    base = li.map_batches(base_edges, batch_format="pyarrow",
                          zero_copy_batch=True)
    g0 = DistGraph.from_dataset(symmetrize_edges(base), n=g.n, P=g.P,
                                directed=False, dedup=True)
    labels0, _ = ss.connected_components(g0)
    comp, _ = ss.connected_components(g, init_labels=labels0)
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "component": pa.array(comp[vids])})


# same fixed point as the from-scratch run: the full-graph CC oracle
SQL_CC_INCREMENTAL_PS = SQL_CC_PS


# ======================================================================
# Triangles
# ======================================================================
def q_triangles_co(sf_dir):
    """Partitioned compact-forward triangle count over the edge
    Dataset (the >node-memory plan; the broadcast-arrays fast path is
    benchmarked separately in bench.py)."""
    n_tri = triangle_count(tg.co_edge_rows(sf_dir), num_partitions=8)
    return pa.table({"n_triangles": pa.array([n_tri], pa.int64())})


SQL_TRIANGLES_CO = """
WITH e AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_partkey < l2.l_partkey
           GROUP BY 1, 2)
SELECT count(*) AS n_triangles
FROM e e1 JOIN e e2 ON e2.a = e1.b JOIN e e3
  ON e3.a = e1.a AND e3.b = e2.b
"""


def q_triangles_co_per_vertex(sf_dir):
    _, pv = triangle_count(tg.co_edge_rows(sf_dir), num_partitions=8,
                           per_vertex=True)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "vid": pc.cast(t["v"], pa.int64()),
            "n_triangles": pc.cast(t["count()"], pa.int64()),
        })
    return pv.map_batches(finish, batch_format="pyarrow")


SQL_TRIANGLES_CO_PV = """
WITH e AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_partkey < l2.l_partkey
           GROUP BY 1, 2),
t AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
      FROM e e1 JOIN e e2 ON e2.a = e1.b JOIN e e3
        ON e3.a = e1.a AND e3.b = e2.b)
SELECT vid, count(*) AS n_triangles FROM (
  SELECT x AS vid FROM t UNION ALL SELECT y FROM t
  UNION ALL SELECT z FROM t
) GROUP BY vid
"""


# ======================================================================
# Label propagation + Leiden (non-SQL-expressible: rows-only checks;
# exactness pinned by the pytest suite)
# ======================================================================
SQL_LABEL_PROPAGATION_CO = """
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
)
SELECT v AS vid, lab AS label FROM lp WHERE i = 20
"""


def q_label_propagation_co(sf_dir):
    g = _co_distgraph(sf_dir)
    lab, _ = ss.label_propagation(g, max_iter=20)
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "label": pa.array(lab[vids])})


LP_SEED_MOD = 97
LP_SEED_ITERS = 10


def q_label_propagation_seeded_co(sf_dir):
    """Semi-supervised label spreading (the distributed analogue of
    the reference optimiser's ``is_membership_fixed``): seeds =
    vids % 97 == 0 hold pinned labels; unlabeled vertices take the
    plurality label of their LABELED neighbours each superstep.
    Fixed LP_SEED_ITERS supersteps; output = labeled vertices only."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    seeds = np.flatnonzero(act)[
        np.flatnonzero(act) % LP_SEED_MOD == 0].astype(np.int64)
    lab = ss.label_propagation_seeded(g, seeds, seeds,
                                      iters=LP_SEED_ITERS)
    vids = np.flatnonzero(lab >= 0).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "label": pa.array(lab[vids])})


SQL_LABEL_PROPAGATION_SEEDED_CO = f"""
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
              CAST(count(*) AS DOUBLE) AS w
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS (SELECT a, b, w FROM e0 UNION ALL SELECT b, a, w FROM e0),
verts AS (SELECT DISTINCT a AS v FROM e),
lp(i, v, lab) AS (
  SELECT 0, v, v FROM verts WHERE v % {LP_SEED_MOD} = 0
  UNION ALL
  SELECT x.i, x.v, x.lab FROM (
    -- non-seeds: plurality label of labeled neighbours
    SELECT q.i + 1 AS i, q.v, q.lab FROM (
      SELECT p.i AS i, e.b AS v, p.lab AS lab,
             row_number() OVER (PARTITION BY p.i, e.b
                                ORDER BY sum(e.w) DESC, p.lab ASC) AS rn
      FROM lp p JOIN e ON e.a = p.v
      WHERE p.i < {LP_SEED_ITERS} AND e.b % {LP_SEED_MOD} <> 0
      GROUP BY p.i, e.b, p.lab
    ) q WHERE q.rn = 1
    UNION ALL
    -- seeds: pinned
    SELECT p.i + 1, p.v, p.lab FROM lp p
    WHERE p.i < {LP_SEED_ITERS} AND p.v % {LP_SEED_MOD} = 0
  ) x
)
SELECT v AS vid, lab AS label FROM lp WHERE i = {LP_SEED_ITERS}
"""

# materialized variant for oracles that reference ``e`` many times
# (DuckDB inlines plain CTEs at every reference)
_SQL_CO_EDGES_BOTH_MAT = """
e0 AS MATERIALIZED (SELECT l1.l_partkey AS a, l2.l_partkey AS b
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS MATERIALIZED (SELECT a, b FROM e0
                   UNION ALL SELECT b AS a, a AS b FROM e0)"""


def q_bfs_dist_co(sf_dir):
    """Unweighted hop distance from the smallest active part key,
    via the frontier-min BSP kernel; output = reachable vertices
    only (matching the SQL reachability CTE)."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    source = int(np.flatnonzero(act)[0])
    dist, _ = ss.bfs_distances(g, [source])
    INF = np.iinfo(np.int64).max
    vids = np.flatnonzero(act & (dist < INF)).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "dist": pa.array(dist[vids])})


SQL_BFS_DIST_CO = f"""
WITH RECURSIVE
{_SQL_CO_EDGES_BOTH},
s AS (SELECT min(a) AS v FROM e),
bfs(v, d) AS (
  SELECT v, 0 FROM s
  UNION
  SELECT e.b, bfs.d + 1 FROM bfs JOIN e ON e.a = bfs.v
  WHERE bfs.d < 30
)
SELECT v AS vid, CAST(min(d) AS BIGINT) AS dist FROM bfs GROUP BY v
"""


# Bellman-Ford rounds for the SQL oracle: the engine iterates to
# fixed point, so any K >= convergence matches. Measured convergence
# on the co graph: 11 rounds at sf0.01, 15 at sf0.1, 18 at sf1
# (generated via scripts/gen_testdata.py — r5 scale re-validation;
# the old bound of 14 was one round short already at sf0.1). Growth
# is ~+3 rounds per data decade; 24 covers sf1 with two decades of
# slack.
SSSP_SQL_ITERS = 24


def _co_sssp_distgraph(sf_dir, P=8):
    """Co-occurrence graph re-weighted with a deterministic modular
    weight per canonical (a < b) pair: the count weights make every
    shortest path trivial on this dense graph (unweighted diameter 2),
    while ``(a*7919 + b*104729) % 97 + 1`` is reproducible verbatim in
    SQL. Multi-edge duplicate rows carry identical derived weights, so
    min-plus semantics need no dedup."""
    key = (sf_dir, "co_sssp")
    if key not in _G_CACHE:
        from ..dist.blocks import symmetrize_edges
        n = int(rd.read_parquet(f"{sf_dir}/part.parquet",
                                columns=["p_partkey"])
                .max("p_partkey")) + 1

        def derive(t: pa.Table) -> pa.Table:
            a = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            w = ((a * 7919 + b * 104729) % 97 + 1).astype(np.float64)
            return pa.table({"src": pa.array(a), "dst": pa.array(b),
                             "weight": pa.array(w)})

        edges = symmetrize_edges(
            tg.co_edge_rows(sf_dir).map_batches(
                derive, batch_format="pyarrow", zero_copy_batch=True))
        _G_CACHE[key] = DistGraph.from_dataset(
            edges, n=n, P=P, directed=False, dedup=False)
    return _G_CACHE[key]


def q_sssp_co(sf_dir):
    """Weighted shortest distances from the smallest active part key
    via the BSP Bellman-Ford kernel (min-plus relaxation per superstep
    to fixed point). Distances are integer-valued sums of the modular
    edge weights, so the output casts exactly to int64; unreachable
    vertices are dropped (matching the SQL's reachability filter)."""
    g = _co_sssp_distgraph(sf_dir)
    act = g.active_global()
    source = int(np.flatnonzero(act)[0])
    dist, _ = ss.sssp(g, [source])
    vids = np.flatnonzero(act & np.isfinite(dist)).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "dist": pa.array(dist[vids].astype(np.int64))})


SQL_SSSP_CO = f"""
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
ew AS (SELECT a, b,
              CAST((a * 7919 + b * 104729) % 97 + 1 AS DOUBLE) AS w
       FROM e0),
e AS (SELECT a, b, w FROM ew UNION ALL SELECT b, a, w FROM ew),
verts AS (SELECT DISTINCT a AS v FROM e),
s AS (SELECT min(v) AS v FROM verts),
ee AS (SELECT a, b, w FROM e
       UNION ALL SELECT v, v, 0.0 FROM verts),
bf(i, v, d) AS (
  SELECT 0, v, CASE WHEN v = (SELECT v FROM s) THEN 0.0 ELSE 1e18 END
  FROM verts
  UNION ALL
  SELECT p.i + 1, ee.b, min(p.d + ee.w)
  FROM bf p JOIN ee ON ee.a = p.v
  WHERE p.i < {SSSP_SQL_ITERS}
  GROUP BY p.i, ee.b
)
SELECT v AS vid, CAST(d AS BIGINT) AS dist
FROM bf WHERE i = {SSSP_SQL_ITERS} AND d < 1e17
"""


def q_pagerank_personalized_co(sf_dir):
    """Personalized PageRank on the weighted co graph: teleport (and
    dangling redistribution — zero here, the symmetric graph has no
    sinks) uniform over the PPR_SEEDS smallest active vids instead of
    the whole vertex set. Fixed PAGERANK_ITERS iterations so the
    recursive-CTE oracle reproduces it; ranks rounded to 6 decimals."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    seeds = np.flatnonzero(act)[:PPR_SEEDS].astype(np.int64)
    rank, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                          max_iter=PAGERANK_ITERS, weighted=True,
                          active=True, personalize=seeds)
    vids = np.flatnonzero(act).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "rank": pa.array(round6(rank[vids]))})


SQL_PAGERANK_PERSONALIZED_CO = f"""
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
              CAST(count(*) AS DOUBLE) AS w
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS (SELECT a, b, w FROM e0 UNION ALL SELECT b, a, w FROM e0),
verts AS (SELECT a AS v, sum(w) AS strength FROM e GROUP BY a),
seeds AS (SELECT v FROM verts ORDER BY v LIMIT {PPR_SEEDS}),
ks AS (SELECT CAST(count(*) AS DOUBLE) AS k FROM seeds),
pr(i, v, r) AS (
  SELECT 0, v,
         CASE WHEN v IN (SELECT v FROM seeds)
              THEN 1.0 / (SELECT k FROM ks) ELSE 0.0 END
  FROM verts
  UNION ALL
  SELECT p.i + 1, e.b,
         (1 - {DAMPING}) * (CASE WHEN e.b IN (SELECT v FROM seeds)
                                 THEN 1.0 / (SELECT k FROM ks)
                                 ELSE 0.0 END)
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


def q_ppr_batch_co(sf_dir):
    """Batched multi-seed personalized PageRank: PPR_SEEDS singleton
    seed vectors computed in ONE fused superstep schedule
    (``ss.pagerank_batch`` — vertex state is a (shard, S) matrix so S
    seeds cost one exchange per iteration, the PPR-similarity-feature
    batch form). Output is long-format (seed vid, vid, rank); the
    oracle runs the same fixed-iteration recursion with the seed as
    an extra recursion column."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    seeds = np.flatnonzero(act)[:PPR_SEEDS].astype(np.int64)
    mat, _ = ss.pagerank_batch(g, [[int(s)] for s in seeds],
                               damping=DAMPING, tol=0.0,
                               max_iter=PAGERANK_ITERS, weighted=True,
                               active=True)
    vids = np.flatnonzero(act).astype(np.int64)
    return pa.table({
        "seed": pa.array(np.repeat(seeds, len(vids))),
        "vid": pa.array(np.tile(vids, len(seeds))),
        "rank": pa.array(round6(mat[vids].T.ravel())),
    })


# One single-seed recursion per seed column, unioned. Two DuckDB-1.0
# planner traps force this exact shape: (a) the natural multi-key
# form (pr(i, s, v, r) with GROUP BY i, s, b) silently mis-aggregates
# beyond toy sizes (each column's mass collapses after one step), and
# (b) a CONSTANT-FOLDABLE teleport (`THEN 1.0`) inside the recursive
# aggregate miscompiles the same way — the proven
# SQL_PAGERANK_PERSONALIZED_CO shape survives only because its
# teleport is the non-foldable scalar subquery `1.0/(SELECT k FROM
# ks)`. So each seed k gets a verbatim copy of that proven recursion
# (seed = k-th smallest vertex via LIMIT 1 OFFSET k, ks{k} always 1,
# matching the kernel's flatnonzero(act)[:S] singleton columns).
def _ppr_batch_sql():
    parts = []
    for k in range(PPR_SEEDS):
        parts.append(f"""
sd{k} AS (SELECT v FROM verts ORDER BY v LIMIT 1 OFFSET {k}),
ks{k} AS (SELECT CAST(count(*) AS DOUBLE) AS k FROM sd{k}),
pr{k}(i, v, r) AS (
  SELECT 0, v,
         CASE WHEN v IN (SELECT v FROM sd{k})
              THEN 1.0 / (SELECT k FROM ks{k}) ELSE 0.0 END
  FROM verts
  UNION ALL
  SELECT p.i + 1, e.b,
         (1 - {DAMPING}) * (CASE WHEN e.b IN (SELECT v FROM sd{k})
                                 THEN 1.0 / (SELECT k FROM ks{k})
                                 ELSE 0.0 END)
         + {DAMPING} * sum(p.r * e.w / vs.strength)
  FROM pr{k} p
  JOIN verts vs ON vs.v = p.v
  JOIN e ON e.a = p.v
  WHERE p.i < {PAGERANK_ITERS}
  GROUP BY p.i, e.b
)""")
    finals = "\nUNION ALL\n".join(
        f"SELECT (SELECT v FROM sd{k}) AS seed, v AS vid,"
        f" round(r, 6) AS rank FROM pr{k} WHERE i = {PAGERANK_ITERS}"
        for k in range(PPR_SEEDS))
    return f"""
WITH RECURSIVE
e0 AS MATERIALIZED (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
              CAST(count(*) AS DOUBLE) AS w
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS MATERIALIZED (SELECT a, b, w FROM e0
                   UNION ALL SELECT b, a, w FROM e0),
verts AS MATERIALIZED (SELECT a AS v, sum(w) AS strength
                       FROM e GROUP BY a),
{",".join(parts)}
{finals}
"""


SQL_PPR_BATCH_CO = _ppr_batch_sql()


def q_spam_mass_co(sf_dir):
    """TrustRank spam mass (Gyongyi, Garcia-Molina & Pedersen, VLDB
    2004) on the weighted co graph: global PageRank ``rank`` and
    TrustRank ``trust`` (teleport + dangling mass restricted to the
    PPR_SEEDS smallest active vids — the 'manually vetted' seed set),
    both at fixed PAGERANK_ITERS; absolute spam mass ``mass`` = r - t
    and relative spam mass ``rel_mass`` = (r - t)/r. A page with high
    rank but little of it reachable from trusted seeds is the spam
    review queue. Both PageRank runs reuse the cached shard state
    (one CSR build); the composition adds no new shuffle."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    seeds = np.flatnonzero(act)[:PPR_SEEDS].astype(np.int64)
    rank, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                          max_iter=PAGERANK_ITERS, weighted=True,
                          active=True)
    trust, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                           max_iter=PAGERANK_ITERS, weighted=True,
                           active=True, personalize=seeds)
    vids = np.flatnonzero(act).astype(np.int64)
    r, t = rank[vids], trust[vids]
    return pa.table({
        "vid": pa.array(vids),
        "rank": pa.array(round6(r)),
        "trust": pa.array(round6(t)),
        "mass": pa.array(round6(r - t)),
        "rel_mass": pa.array(round6((r - t) / r)),
    })


SQL_SPAM_MASS_CO = f"""
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
seeds AS (SELECT v FROM verts ORDER BY v LIMIT {PPR_SEEDS}),
ks AS (SELECT CAST(count(*) AS DOUBLE) AS k FROM seeds),
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
),
tr(i, v, r) AS (
  SELECT 0, v,
         CASE WHEN v IN (SELECT v FROM seeds)
              THEN 1.0 / (SELECT k FROM ks) ELSE 0.0 END
  FROM verts
  UNION ALL
  SELECT p.i + 1, e.b,
         (1 - {DAMPING}) * (CASE WHEN e.b IN (SELECT v FROM seeds)
                                 THEN 1.0 / (SELECT k FROM ks)
                                 ELSE 0.0 END)
         + {DAMPING} * sum(p.r * e.w / vs.strength)
  FROM tr p
  JOIN verts vs ON vs.v = p.v
  JOIN e ON e.a = p.v
  WHERE p.i < {PAGERANK_ITERS}
  GROUP BY p.i, e.b
)
SELECT pr.v AS vid, round(pr.r, 6) AS rank, round(tr.r, 6) AS trust,
       round(pr.r - tr.r, 6) AS mass,
       round((pr.r - tr.r) / pr.r, 6) AS rel_mass
FROM pr JOIN tr ON tr.v = pr.v AND tr.i = pr.i
WHERE pr.i = {PAGERANK_ITERS}
"""


def q_diameter_sweep_co(sf_dir):
    """Double-sweep BFS diameter lower bound (Magnien, Latapy &
    Habib's classic heuristic): BFS from the smallest active vid,
    take the farthest reached vertex (smallest vid on ties), BFS
    again from it — the second eccentricity lower-bounds the graph
    diameter. Two frontier-BSP kernel runs, one row out; the exact
    all-pairs diameter is never materialised."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    s0 = int(np.flatnonzero(act)[0])
    INF = np.iinfo(np.int64).max
    d0, _ = ss.bfs_distances(g, [s0])
    fin0 = np.flatnonzero(act & (d0 < INF))
    far = int(fin0[d0[fin0] == d0[fin0].max()].min())
    d1, _ = ss.bfs_distances(g, [far])
    fin1 = np.flatnonzero(act & (d1 < INF))
    return pa.table({
        "start_vid": pa.array([s0], pa.int64()),
        "far_vid": pa.array([far], pa.int64()),
        "diameter_lb": pa.array([int(d1[fin1].max())], pa.int64()),
    })


SQL_DIAMETER_SWEEP_CO = f"""
WITH RECURSIVE
{_SQL_CO_EDGES_BOTH_MAT},
s0 AS (SELECT min(a) AS v FROM e),
b0(v, d) AS (
  SELECT v, 0 FROM s0
  UNION
  SELECT e.b, b0.d + 1 FROM b0 JOIN e ON e.a = b0.v WHERE b0.d < 30
),
d0 AS (SELECT v, min(d) AS d FROM b0 GROUP BY v),
far AS (SELECT v FROM d0 ORDER BY d DESC, v ASC LIMIT 1),
b1(v, d) AS (
  SELECT v, 0 FROM far
  UNION
  SELECT e.b, b1.d + 1 FROM b1 JOIN e ON e.a = b1.v WHERE b1.d < 30
),
d1 AS (SELECT v, min(d) AS d FROM b1 GROUP BY v)
SELECT (SELECT v FROM s0) AS start_vid,
       (SELECT v FROM far) AS far_vid,
       (SELECT CAST(max(d) AS BIGINT) FROM d1) AS diameter_lb
"""


KCORE_K = 80
_KCORE_SQL_ITERS = 12


def q_kcore_co(sf_dir):
    """k-core membership (k=80) via the distributed peel kernel; the
    kernel is idempotent past its fixed point, so the fixed-iteration
    SQL peel reproduces it exactly (fixed point is ~6 supersteps at
    sf0.01; the oracle runs 12)."""
    g = _co_distgraph(sf_dir)
    mask, _ = ss.kcore(g, KCORE_K)
    vids = np.flatnonzero(mask).astype(np.int64)
    return pa.table({"vid": pa.array(vids)})


SQL_KCORE_CO = f"""
WITH RECURSIVE
{_SQL_CO_EDGES_BOTH},
verts AS (SELECT DISTINCT a AS v FROM e),
peel(i, v) AS (
  SELECT 0, v FROM verts
  UNION ALL
  SELECT q.i + 1, q.v FROM (
    SELECT p.i AS i, e.b AS v, count(*) AS deg
    FROM peel p JOIN e ON e.a = p.v
    JOIN peel p2 ON p2.v = e.b AND p2.i = p.i
    WHERE p.i < {_KCORE_SQL_ITERS}
    GROUP BY p.i, e.b) q
  WHERE q.deg >= {KCORE_K}
)
SELECT CAST(v AS BIGINT) AS vid FROM peel WHERE i = {_KCORE_SQL_ITERS}
"""


CORENESS_LEVELS = (20, 40, 60, 80, 100, 120)
# Peel depth for the SQL twin: max observed convergence rounds across
# sf0.001/0.01/0.1 is <= 12 for every k in CORENESS_LEVELS; 14 gives
# two rounds of slack. If a corpus ever needed more, the SQL survivor
# set would be a strict superset of the fixed point — the engine side
# peels to convergence, so a gate mismatch at a new scale means THIS
# bound, not the kernel.
_CORENESS_SQL_ITERS = 14


def q_coreness_co(sf_dir):
    """Stepped core decomposition: per vertex the highest level k in
    CORENESS_LEVELS whose k-core still contains it (1 if none — the
    active set). Each level's peel warm-starts from the previous
    level's survivors (k-core ⊆ (k-1)-core), so the whole
    decomposition costs barely more than the deepest single peel."""
    g = _co_distgraph(sf_dir)
    core, _ = ss.coreness(g, CORENESS_LEVELS)
    vids = np.flatnonzero(core > 0).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "coreness": pa.array(core[vids])})


SQL_CORENESS_CO = f"""
WITH RECURSIVE
{_SQL_CO_EDGES_BOTH},
verts AS (SELECT DISTINCT a AS v FROM e),
ks AS (SELECT UNNEST({list(CORENESS_LEVELS)}) AS k),
peel(k, i, v) AS (
  SELECT ks.k, 0, verts.v FROM verts, ks
  UNION ALL
  SELECT q.k, q.i + 1, q.v FROM (
    SELECT p.k AS k, p.i AS i, e.b AS v, count(*) AS deg
    FROM peel p JOIN e ON e.a = p.v
    JOIN peel p2 ON p2.v = e.b AND p2.i = p.i AND p2.k = p.k
    WHERE p.i < {_CORENESS_SQL_ITERS}
    GROUP BY p.k, p.i, e.b) q
  WHERE q.deg >= q.k
),
sur AS (SELECT k, v FROM peel WHERE i = {_CORENESS_SQL_ITERS})
SELECT CAST(verts.v AS BIGINT) AS vid,
       CAST(COALESCE(max(sur.k), 1) AS BIGINT) AS coreness
FROM verts LEFT JOIN sur ON sur.v = verts.v
GROUP BY verts.v
"""


HITS_ITERS = 20


def q_hits_ps(sf_dir):
    """HITS hubs/authorities on the directed part->supplier graph
    (parts are pure hubs, suppliers pure authorities). Fixed
    HITS_ITERS simultaneous-update iterations with L1 normalisation,
    so the recursive-CTE oracle reproduces it; rounded to 6
    decimals."""
    g = _ps_distgraph(sf_dir, symmetric=False)
    g_rev = _ps_rev_distgraph(sf_dir)
    hub, auth, act = ss.hits(g, g_rev, iters=HITS_ITERS)
    vids = np.flatnonzero(act).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "hub": pa.array(round6(hub[vids])),
                     "authority": pa.array(round6(auth[vids]))})


SQL_HITS_PS = f"""
WITH RECURSIVE
e AS (SELECT l_partkey * 2 AS a, l_suppkey * 2 + 1 AS b
      FROM lineitem GROUP BY 1, 2),
verts AS (SELECT DISTINCT v FROM
          (SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e)),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM verts),
hits(i, v, h, a) AS (
  SELECT 0, v, 1.0 / (SELECT n FROM nn), 1.0 / (SELECT n FROM nn)
  FROM verts
  UNION ALL
  SELECT q.i, q.v,
         q.hr / sum(q.hr) OVER (),
         q.ar / sum(q.ar) OVER ()
  FROM (
    SELECT p.i + 1 AS i, p.v AS v,
           COALESCE((SELECT sum(p2.a) FROM hits p2 JOIN e ON e.b = p2.v
                     WHERE e.a = p.v AND p2.i = p.i), 0) AS hr,
           COALESCE((SELECT sum(p2.h) FROM hits p2 JOIN e ON e.a = p2.v
                     WHERE e.b = p.v AND p2.i = p.i), 0) AS ar
    FROM hits p WHERE p.i < {HITS_ITERS}
  ) q
)
SELECT v AS vid, round(h, 6) AS hub, round(a, 6) AS authority
FROM hits WHERE i = {HITS_ITERS}
"""


def _ps_rev_distgraph(sf_dir, P=8):
    """Reversed part->supplier graph (supplier -> part), built once via
    the same Dataset path; the HITS hub gather reads authority state
    partition-locally on this orientation."""
    key = (sf_dir, "ps_rev")
    if key not in _G_CACHE:
        fwd = _ps_distgraph(sf_dir, symmetric=False)

        def swap(t: pa.Table) -> pa.Table:
            return pa.table({"src": t["dst"], "dst": t["src"],
                             "weight": t["weight"]})

        edges = tg.ps_edges(sf_dir).map_batches(
            swap, batch_format="pyarrow", zero_copy_batch=True)
        _G_CACHE[key] = DistGraph.from_dataset(
            edges, n=fwd.n, P=P, directed=True, dedup=False)
    return _G_CACHE[key]


def q_salsa_ps(sf_dir):
    """SALSA hubs/authorities (Lempel & Moran 2000) on the directed
    part->supplier graph: the HITS exchange with each sender's mass
    split over its edges (hub/out-degree forward, authority/in-degree
    reversed) — the stochastic chains whose fixed point is
    indegree-proportional within authority components. Fixed
    HITS_ITERS simultaneous iterations, L1 normalised, rounded to 6
    decimals for the CTE twin."""
    g = _ps_distgraph(sf_dir, symmetric=False)
    g_rev = _ps_rev_distgraph(sf_dir)
    hub, auth, act = ss.salsa(g, g_rev, iters=HITS_ITERS)
    vids = np.flatnonzero(act).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "hub": pa.array(round6(hub[vids])),
                     "authority": pa.array(round6(auth[vids]))})


SQL_SALSA_PS = f"""
WITH RECURSIVE
e AS (SELECT l_partkey * 2 AS a, l_suppkey * 2 + 1 AS b
      FROM lineitem GROUP BY 1, 2),
outdeg AS (SELECT a AS v, CAST(count(*) AS DOUBLE) AS d
           FROM e GROUP BY a),
indeg AS (SELECT b AS v, CAST(count(*) AS DOUBLE) AS d
          FROM e GROUP BY b),
verts AS (SELECT DISTINCT v FROM
          (SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e)),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM verts),
hits(i, v, h, a) AS (
  SELECT 0, v, 1.0 / (SELECT n FROM nn), 1.0 / (SELECT n FROM nn)
  FROM verts
  UNION ALL
  SELECT q.i, q.v,
         q.hr / sum(q.hr) OVER (),
         q.ar / sum(q.ar) OVER ()
  FROM (
    SELECT p.i + 1 AS i, p.v AS v,
           COALESCE((SELECT sum(p2.a / di.d)
                     FROM hits p2 JOIN e ON e.b = p2.v
                     JOIN indeg di ON di.v = p2.v
                     WHERE e.a = p.v AND p2.i = p.i), 0) AS hr,
           COALESCE((SELECT sum(p2.h / od.d)
                     FROM hits p2 JOIN e ON e.a = p2.v
                     JOIN outdeg od ON od.v = p2.v
                     WHERE e.b = p.v AND p2.i = p.i), 0) AS ar
    FROM hits p WHERE p.i < {HITS_ITERS}
  ) q
)
SELECT v AS vid, round(h, 6) AS hub, round(a, 6) AS authority
FROM hits WHERE i = {HITS_ITERS}
"""
EIGEN_ITERS = 20


def q_eigencentrality_co(sf_dir):
    """Eigenvector centrality on the weighted symmetric co graph:
    fixed EIGEN_ITERS power-iteration supersteps with per-step L1
    normalisation (the HITS oracle pattern)."""
    g = _co_distgraph(sf_dir)
    x, act = ss.eigenvector_centrality(g, iters=EIGEN_ITERS,
                                       weighted=True)
    vids = np.flatnonzero(act).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "centrality": pa.array(round6(x[vids]))})


SQL_EIGENCENTRALITY_CO = f"""
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
              CAST(count(*) AS DOUBLE) AS w
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS (SELECT a, b, w FROM e0 UNION ALL SELECT b AS a, a AS b, w FROM e0),
verts AS (SELECT DISTINCT a AS v FROM e),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM verts),
ec(i, v, x) AS (
  SELECT 0, v, 1.0 / (SELECT n FROM nn) FROM verts
  UNION ALL
  SELECT q.i, q.v, q.raw / sum(q.raw) OVER ()
  FROM (
    SELECT p.i + 1 AS i, p.v AS v,
           COALESCE((SELECT sum(p2.x * e.w) FROM ec p2
                     JOIN e ON e.a = p2.v
                     WHERE e.b = p.v AND p2.i = p.i), 0) AS raw
    FROM ec p WHERE p.i < {EIGEN_ITERS}
  ) q
)
SELECT v AS vid, round(x, 6) AS centrality
FROM ec WHERE i = {EIGEN_ITERS}
"""


WL_ITERS = 2


def q_wl_colors_co(sf_dir):
    """Weisfeiler-Lehman (1-WL color refinement) vertex fingerprints
    on the simple co graph, WL_ITERS rounds: initial color = degree,
    then md5(own || '|' || sorted neighbour colors). Structural-role
    fingerprints for graph-similarity / isomorphism screening; the
    md5 chain is reproduced verbatim in SQL."""
    g = _co_distgraph(sf_dir)
    lab, act = ss.wl_refinement(g, iters=WL_ITERS)
    vids = np.flatnonzero(act).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "wl": pa.array(lab[vids])})


SQL_WL_COLORS_CO = f"""
WITH
{_SQL_CO_EDGES_BOTH},
deg AS (SELECT a AS v, CAST(count(*) AS VARCHAR) AS lab
        FROM e GROUP BY a),
l1 AS (SELECT e.b AS v,
              md5(any_value(d2.lab) || '|' ||
                  string_agg(d1.lab, ',' ORDER BY d1.lab)) AS lab
       FROM e JOIN deg d1 ON d1.v = e.a JOIN deg d2 ON d2.v = e.b
       GROUP BY e.b),
l2 AS (SELECT e.b AS v,
              md5(any_value(x2.lab) || '|' ||
                  string_agg(x1.lab, ',' ORDER BY x1.lab)) AS lab
       FROM e JOIN l1 x1 ON x1.v = e.a JOIN l1 x2 ON x2.v = e.b
       GROUP BY e.b)
SELECT CAST(v AS BIGINT) AS vid, lab AS wl FROM l2
"""


WL_DRIFT_YEARS = (1995, 1996)


def _co_edges_year(sf_dir, yr, num_partitions=16):
    """Distinct co-occurrence pairs restricted to orders of one
    calendar year (the crawl-slice analogue): one l_orderkey
    hash-join attaches the year filter, then the same self-join +
    per-batch pre-aggregation as ``co_edge_rows``."""
    num_partitions = join_partitions(num_partitions)
    li = tg.read_lineitem(sf_dir, ["l_orderkey", "l_partkey"])
    oy = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_orderdate"])

    def pick(t: pa.Table) -> pa.Table:
        keep = pc.equal(pc.year(t["o_orderdate"]), yr)
        return pa.table({"l_orderkey": t["o_orderkey"]}).filter(keep)

    dated = li.join(oy.map_batches(pick, batch_format="pyarrow"),
                    "inner", num_partitions, on=("l_orderkey",))
    right = li.map_batches(
        lambda t: t.rename_columns(["l_orderkey", "partkey_r"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = dated.join(right, "inner", num_partitions,
                        on=("l_orderkey",))

    def pairs(t: pa.Table) -> pa.Table:
        keep = pc.less(t["l_partkey"], t["partkey_r"])
        tt = pa.table({"src": t["l_partkey"],
                       "dst": t["partkey_r"]}).filter(keep)
        out = tt.group_by(["src", "dst"]).aggregate([])
        return pa.table({
            "src": pc.cast(out["src"], pa.int64()),
            "dst": pc.cast(out["dst"], pa.int64()),
            "weight": pa.array(np.ones(out.num_rows)),
        })

    return joined.map_batches(pairs, batch_format="pyarrow",
                              zero_copy_batch=True)


def q_wl_drift_co(sf_dir, years=WL_DRIFT_YEARS, num_partitions=16):
    """Structural drift between two temporal graph slices (the
    monitoring op a long-running crawl pipeline needs: did this
    week's link graph change SHAPE, not just size): run the same
    1-WL refinement on the co graph of each slice year, histogram the
    color fingerprints, and report the weighted Jaccard
    sum(min)/sum(max) of the two histograms — 1.0 means structurally
    indistinguishable slices. All-integer until the final ratio; the
    color histogram is the only driver state (bounded by distinct
    structural roles)."""
    from ..dist.blocks import symmetrize_edges
    n = int(rd.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey"]).max("p_partkey")) + 1
    hists = []
    for yr in years:
        g = DistGraph.from_dataset(
            symmetrize_edges(_co_edges_year(sf_dir, yr,
                                            num_partitions)), n=n, P=8,
            directed=False, dedup=True)
        lab, act = ss.wl_refinement(g, iters=WL_ITERS)
        vals, cnts = np.unique(np.asarray(lab)[np.asarray(act)],
                               return_counts=True)
        hists.append(dict(zip(vals.tolist(), cnts.tolist())))
    ha, hb = hists
    allc = set(ha) | set(hb)
    smin = sum(min(ha.get(c, 0), hb.get(c, 0)) for c in allc)
    smax = sum(max(ha.get(c, 0), hb.get(c, 0)) for c in allc)
    n_common = sum(1 for c in allc if c in ha and c in hb)
    return pa.table({
        "n_colors_a": pa.array([len(ha)], pa.int64()),
        "n_colors_b": pa.array([len(hb)], pa.int64()),
        "n_common": pa.array([n_common], pa.int64()),
        "wl_jaccard": pa.array(round6([smin / smax if smax else 1.0])),
    })


def _wl_year_chain(tag, yr):
    return f"""
e0{tag} AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       JOIN orders o ON o.o_orderkey = l1.l_orderkey
        AND year(o.o_orderdate) = {yr}
       GROUP BY 1, 2),
e{tag} AS (SELECT a, b FROM e0{tag}
           UNION ALL SELECT b AS a, a AS b FROM e0{tag}),
deg{tag} AS (SELECT a AS v, CAST(count(*) AS VARCHAR) AS lab
             FROM e{tag} GROUP BY a),
l1{tag} AS (SELECT e.b AS v,
              md5(any_value(d2.lab) || '|' ||
                  string_agg(d1.lab, ',' ORDER BY d1.lab)) AS lab
       FROM e{tag} e JOIN deg{tag} d1 ON d1.v = e.a
       JOIN deg{tag} d2 ON d2.v = e.b
       GROUP BY e.b),
l2{tag} AS (SELECT e.b AS v,
              md5(any_value(x2.lab) || '|' ||
                  string_agg(x1.lab, ',' ORDER BY x1.lab)) AS lab
       FROM e{tag} e JOIN l1{tag} x1 ON x1.v = e.a
       JOIN l1{tag} x2 ON x2.v = e.b
       GROUP BY e.b),
h{tag} AS (SELECT lab, count(*) AS c FROM l2{tag} GROUP BY lab)"""


SQL_WL_DRIFT_CO = f"""
WITH
{_wl_year_chain('a', WL_DRIFT_YEARS[0])},
{_wl_year_chain('b', WL_DRIFT_YEARS[1])},
m AS (SELECT COALESCE(ha.c, 0) AS ca, COALESCE(hb.c, 0) AS cb,
             CASE WHEN ha.lab IS NOT NULL AND hb.lab IS NOT NULL
                  THEN 1 ELSE 0 END AS in_both
      FROM ha FULL OUTER JOIN hb ON ha.lab = hb.lab)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM ha) AS n_colors_a,
       (SELECT CAST(count(*) AS BIGINT) FROM hb) AS n_colors_b,
       CAST(sum(in_both) AS BIGINT) AS n_common,
       round(sum(least(ca, cb)) * 1.0 / sum(greatest(ca, cb)), 6)
         AS wl_jaccard
FROM m
"""


def q_reciprocity_co(sf_dir):
    """Edge reciprocity of the DIRECTED co-occurrence graph (a -> b
    when a's lineitem precedes b's within an order): the fraction of
    directed edges whose reverse also exists — the classic link-graph
    symmetry diagnostic. One pair-key shuffle: per-batch partial
    direction flags, groupby max (idempotent combine), tiny partial
    count reduce."""
    from ray.data.aggregate import Max
    li = tg.read_lineitem(sf_dir,
                          ["l_orderkey", "l_partkey", "l_linenumber"])
    right = li.map_batches(
        lambda t: t.rename_columns(
            ["l_orderkey", "partkey_r", "linenumber_r"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = li.join(right, "inner", join_partitions(16),
                     on=("l_orderkey",))

    def pre(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.less(t["l_linenumber"], t["linenumber_r"]),
                       pc.not_equal(t["l_partkey"], t["partkey_r"]))
        tt = t.filter(keep)
        a, b = tt["l_partkey"], tt["partkey_r"]
        g = pa.table({
            "lo": pc.min_element_wise(a, b),
            "hi": pc.max_element_wise(a, b),
            "f": pc.cast(pc.less(a, b), pa.int64()),
            "r": pc.cast(pc.greater(a, b), pa.int64()),
        }).group_by(["lo", "hi"]).aggregate([("f", "max"), ("r", "max")])
        return g.rename_columns(["lo", "hi", "f", "r"])

    agg = joined.map_batches(pre, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby(["lo", "hi"]).aggregate(Max("f", alias_name="f"),
                                         Max("r", alias_name="r"))

    def counts(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False)
        r = t["r"].to_numpy(zero_copy_only=False)
        return pa.table({
            "ne": pa.array([int((f + r).sum())], pa.int64()),
            "nr": pa.array([int(2 * ((f == 1) & (r == 1)).sum())],
                           pa.int64()),
        })

    part = agg.map_batches(counts, batch_format="pyarrow").to_pandas()
    ne, nr = int(part["ne"].sum()), int(part["nr"].sum())
    rec = round6(np.array([nr / ne if ne else 0.0]))
    return pa.table({"n_edges": pa.array([ne], pa.int64()),
                     "n_reciprocal": pa.array([nr], pa.int64()),
                     "reciprocity": pa.array(rec)})


SQL_RECIPROCITY_CO = """
WITH d AS (SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_linenumber < l2.l_linenumber
            AND l1.l_partkey <> l2.l_partkey),
p AS (SELECT least(a, b) AS lo, greatest(a, b) AS hi,
             max(CASE WHEN a < b THEN 1 ELSE 0 END) AS f,
             max(CASE WHEN a > b THEN 1 ELSE 0 END) AS r
      FROM d GROUP BY 1, 2)
SELECT CAST(sum(f + r) AS BIGINT) AS n_edges,
       CAST(sum(CASE WHEN f = 1 AND r = 1 THEN 2 ELSE 0 END)
            AS BIGINT) AS n_reciprocal,
       round(sum(CASE WHEN f = 1 AND r = 1 THEN 2 ELSE 0 END)
             / CAST(sum(f + r) AS DOUBLE), 6) AS reciprocity
FROM p
"""


def q_clustering_coeff_co(sf_dir):
    """Local clustering coefficient: 2*triangles(v) / (deg(v)*(deg(v)-1))
    on the simple co graph (0 when deg < 2). Triangles come from the
    partitioned compact-forward plan; degrees from the Dataset-built
    CSR shards. Driver work is O(n) output assembly only."""
    g = _co_distgraph(sf_dir)
    _, pv = triangle_count(tg.co_edge_rows(sf_dir), num_partitions=8,
                           per_vertex=True)
    tri = np.zeros(g.n, dtype=np.float64)
    for batch in pv.iter_batches(batch_format="pyarrow"):
        v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch["count()"].to_numpy(zero_copy_only=False)
        tri[v] = c
    deg = ss.assemble(g, g.out_deg).astype(np.float64)
    act = g.active_global()
    vids = np.flatnonzero(act).astype(np.int64)
    d = deg[vids]
    coeff = np.zeros(len(vids))
    m = d >= 2
    coeff[m] = 2.0 * tri[vids][m] / (d[m] * (d[m] - 1.0))
    return pa.table({"vid": pa.array(vids),
                     "coeff": pa.array(round6(coeff))})


SQL_CLUSTERING_COEFF_CO = """
WITH e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
            FROM lineitem l1 JOIN lineitem l2
              ON l1.l_orderkey = l2.l_orderkey
             AND l1.l_partkey < l2.l_partkey
            GROUP BY 1, 2),
t AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
      FROM e0 e1 JOIN e0 e2 ON e2.a = e1.b JOIN e0 e3
        ON e3.a = e1.a AND e3.b = e2.b),
tc AS (SELECT vid, count(*) AS n_tri FROM (
         SELECT x AS vid FROM t UNION ALL SELECT y FROM t
         UNION ALL SELECT z FROM t) GROUP BY vid),
deg AS (SELECT v, count(*) AS d FROM (
          SELECT a AS v FROM e0 UNION ALL SELECT b AS v FROM e0)
        GROUP BY v)
SELECT deg.v AS vid,
       round(CASE WHEN deg.d >= 2
                  THEN 2.0 * COALESCE(tc.n_tri, 0) / (deg.d * (deg.d - 1))
                  ELSE 0.0 END, 6) AS coeff
FROM deg LEFT JOIN tc ON tc.vid = deg.v
"""


def q_link_predict_co(sf_dir):
    """Top-20 NON-adjacent co-graph pairs by common-neighbor count
    (Adamic-Adar score as the companion signal): partitioned wedge
    plan — per-middle-vertex pair enumeration in the bucket owning the
    middle, bucket-local aggregation, per-bucket top-k, driver merges
    K*k rows (never the pair stream)."""
    from ..dist.linkpred import adamic_adar_topk
    return adamic_adar_topk(tg.co_edge_rows(sf_dir), k_top=20,
                            num_partitions=8)


SQL_LINK_PREDICT_CO = f"""
WITH
{_SQL_CO_PAIRS},
ee AS (SELECT a AS w, b AS v FROM e0
       UNION ALL SELECT b AS w, a AS v FROM e0),
deg AS (SELECT w, count(*) AS dg FROM ee GROUP BY w),
wedges AS (SELECT x.v AS a, y.v AS b, 1.0 / ln(d.dg) AS s
           FROM ee x JOIN ee y ON x.w = y.w AND x.v < y.v
           JOIN deg d ON d.w = x.w),
agg AS (SELECT a, b, count(*) AS cn, sum(s) AS aa
        FROM wedges GROUP BY a, b),
ne AS (SELECT g.a, g.b, g.cn, g.aa FROM agg g
       LEFT JOIN e0 ON e0.a = g.a AND e0.b = g.b
       WHERE e0.a IS NULL)
SELECT a, b, cn AS common_neighbors, round(aa, 6) AS aa_score
FROM ne ORDER BY cn DESC, a ASC, b ASC LIMIT 20
"""


NEIGHBOR_FANOUT = 5


def q_neighbor_sample_co(sf_dir):
    """Deterministic fan-out-5 neighbor sampling (the GraphSAGE
    mini-batch shape): per-vertex neighbor rank by the modular hash
    ``(src*7919 + dst*104729) % 1000003`` with dst tie-break,
    assembled as a Dataset from per-bucket Arrow tables."""
    from ..dist.linkpred import neighbor_sample
    return neighbor_sample(tg.co_edge_rows(sf_dir),
                           fanout=NEIGHBOR_FANOUT, num_partitions=8)


SQL_NEIGHBOR_SAMPLE_CO = f"""
WITH
{_SQL_CO_PAIRS},
ee AS (SELECT a AS src, b AS dst FROM e0
       UNION ALL SELECT b AS src, a AS dst FROM e0),
r AS (SELECT src, dst,
             row_number() OVER (
               PARTITION BY src
               ORDER BY (src * 7919 + dst * 104729) % 1000003, dst)
               AS rk
      FROM ee)
SELECT src, dst, rk FROM r WHERE rk <= {NEIGHBOR_FANOUT}
"""


def q_assortativity_co(sf_dir):
    """Degree assortativity of the co graph (scalar): exact integer
    partial sums per bucket; the driver evaluates the Pearson
    expression in the same float operation order as the SQL."""
    from ..dist.linkpred import degree_assortativity
    r = degree_assortativity(tg.co_edge_rows(sf_dir), num_partitions=8)
    return pa.table({"assortativity": pa.array(round6([r]))})


SQL_ASSORTATIVITY_CO = f"""
WITH
{_SQL_CO_PAIRS},
ee AS (SELECT a AS s, b AS d FROM e0 UNION ALL SELECT b, a FROM e0),
deg AS (SELECT s, count(*) AS dg FROM ee GROUP BY s),
xy AS (SELECT d1.dg AS x, d2.dg AS y
       FROM ee JOIN deg d1 ON d1.s = ee.s JOIN deg d2 ON d2.s = ee.d)
SELECT round(
  (sum(x * y) / count(*) - (sum(x) / count(*)) * (sum(y) / count(*)))
  / (sqrt(sum(x * x) / count(*)
          - (sum(x) / count(*)) * (sum(x) / count(*)))
     * sqrt(sum(y * y) / count(*)
            - (sum(y) / count(*)) * (sum(y) / count(*)))), 6)
  AS assortativity
FROM xy
"""


def q_scc_items(sf_dir):
    """Strongly connected components of the directed item-sequence
    graph: the FW-BW-colouring BSP kernel (``superstep.scc``) over
    Dataset-built CSR blocks — forward and reversed block sets, no
    driver edge list."""
    gf = _item_seq_distgraph(sf_dir)
    gb = _item_seq_rev_distgraph(sf_dir)
    lab, _ = ss.scc(gf, gb)
    vids = np.flatnonzero(gf.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "scc_id": pa.array(lab[vids])})


SQL_SCC_ITEMS = """
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
           FROM reach r1 JOIN reach r2 ON r1.s = r2.t AND r1.t = r2.s)
SELECT vv.v AS vid,
       CAST(least(vv.v, coalesce(min(m.u), vv.v)) AS BIGINT) AS scc_id
FROM verts vv LEFT JOIN mutual m ON m.v = vv.v
GROUP BY vv.v
"""


def q_bowtie_items(sf_dir):
    """Bow-tie decomposition (Broder et al., 'Graph structure in the
    web', WWW 2000) of the directed item-sequence graph, relative to
    the SCC of the smallest active vid: 'scc' = mutually reachable
    with the seed, 'in' = reaches the core, 'out' = reached from the
    core, 'other' = tendrils/disconnected. Two frontier-BSP BFS runs
    (forward blocks + reversed blocks from the same one-shuffle
    spill); the driver holds two bool masks, never an edge list."""
    gf = _item_seq_distgraph(sf_dir)
    gb = _item_seq_rev_distgraph(sf_dir)
    act = gf.active_global()
    seed = int(np.flatnonzero(act)[0])
    INF = np.iinfo(np.int64).max
    df, _ = ss.bfs_distances(gf, [seed])
    db, _ = ss.bfs_distances(gb, [seed])
    fwd, bwd = df < INF, db < INF
    vids = np.flatnonzero(act).astype(np.int64)
    cls = np.where(fwd[vids] & bwd[vids], "scc",
                   np.where(bwd[vids], "in",
                            np.where(fwd[vids], "out", "other")))
    return pa.table({"vid": pa.array(vids),
                     "cls": pa.array(cls.astype(object), pa.string())})


SQL_BOWTIE_ITEMS = """
WITH RECURSIVE
seq AS (SELECT l_partkey AS a,
               lead(l_partkey) OVER (PARTITION BY l_orderkey
                                     ORDER BY l_linenumber, l_partkey) AS b
        FROM lineitem),
e AS (SELECT DISTINCT a, b FROM seq WHERE b IS NOT NULL),
verts AS (SELECT DISTINCT v FROM
          (SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e)),
s AS (SELECT min(v) AS v FROM verts),
fwd(v) AS (
  SELECT v FROM s
  UNION
  SELECT e.b FROM fwd JOIN e ON e.a = fwd.v
),
bwd(v) AS (
  SELECT v FROM s
  UNION
  SELECT e.a FROM bwd JOIN e ON e.b = bwd.v
)
SELECT vv.v AS vid,
       CASE WHEN f.v IS NOT NULL AND b.v IS NOT NULL THEN 'scc'
            WHEN b.v IS NOT NULL THEN 'in'
            WHEN f.v IS NOT NULL THEN 'out'
            ELSE 'other' END AS cls
FROM verts vv
LEFT JOIN fwd f ON f.v = vv.v
LEFT JOIN bwd b ON b.v = vv.v
"""


def q_onion_paths(sf_dir):
    """Onion decomposition on the per-nation supplier paths: a path
    peels one position from each end per round (core pins at 1), so
    layer(v_i) = min(i, k-1-i) + 1 in suppkey order and coreness = 1
    — the closed-form SQL-green row for ``superstep.onion_layers``
    through the distributed peel schedule (isolated suppliers are
    not in the edge set, so no round-0 coreness-0 shift)."""
    from ..dist.blocks import symmetrize_edges
    n = tg.supplier_count(sf_dir)
    g = DistGraph.from_dataset(
        symmetrize_edges(tg.nation_path_edges(sf_dir)),
        n=n, P=8, directed=False, dedup=False)
    (layers, core), _ = ss.onion_layers(g)
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "layer": pa.array(layers[vids]),
                     "coreness": pa.array(core[vids])})


SQL_ONION_PATHS = """
WITH c AS (SELECT s_nationkey, count(*) AS k FROM supplier
           GROUP BY 1 HAVING count(*) > 1),
r AS (SELECT s_suppkey, s_nationkey,
             row_number() OVER (PARTITION BY s_nationkey
                                ORDER BY s_suppkey) - 1 AS i
      FROM supplier)
SELECT CAST(r.s_suppkey AS BIGINT) AS vid,
       CAST(least(r.i, c.k - 1 - r.i) + 1 AS BIGINT) AS layer,
       CAST(1 AS BIGINT) AS coreness
FROM r JOIN c USING (s_nationkey)
"""


def q_densest_cliques(sf_dir):
    """Densest-subgraph batched peel (Bahmani et al. 2012, eps=0) on
    the disjoint nation cliques: every vertex of a clique shares a
    degree, so each round peels whole nations and the level-indexed
    SQL replica runs on 25 nation rows — an exact twin of the
    distributed per-vertex schedule (identical double arithmetic:
    rho = CAST(E AS DOUBLE)/V, thr = 2.0*rho)."""
    from ..dist.blocks import symmetrize_edges
    n = tg.supplier_count(sf_dir)
    g = DistGraph.from_dataset(
        symmetrize_edges(tg.nation_clique_edges(sf_dir)),
        n=n, P=8, directed=False, dedup=False)
    best, _, _ = ss.densest_subgraph(g, eps=0.0)
    return pa.table({
        "best_density": pa.array(round6([best["density"]])),
        "best_round": pa.array([best["round"]], pa.int64()),
        "n_vertices": pa.array([best["n_vertices"]], pa.int64()),
        "n_edges": pa.array([best["n_edges"]], pa.int64()),
    })


SQL_DENSEST_CLIQUES = """
WITH RECURSIVE
peel(i, nation, k) AS (
  SELECT 0, s_nationkey, count(*) FROM supplier
  GROUP BY s_nationkey HAVING count(*) > 1
  UNION ALL
  SELECT p.i + 1, p.nation, p.k
  FROM peel p JOIN (
    SELECT i, 2.0 * (CAST(sum(k * (k - 1) / 2) AS DOUBLE) / sum(k))
             AS thr
    FROM peel GROUP BY i) t ON t.i = p.i
  WHERE p.k - 1 > t.thr
),
lvl AS (SELECT i, CAST(sum(k * (k - 1) / 2) AS BIGINT) AS e,
               CAST(sum(k) AS BIGINT) AS v
        FROM peel GROUP BY i)
SELECT round(CAST(e AS DOUBLE) / v, 6) AS best_density,
       CAST(i AS BIGINT) AS best_round,
       v AS n_vertices, e AS n_edges
FROM lvl ORDER BY CAST(e AS DOUBLE) / v DESC, i ASC LIMIT 1
"""


def q_random_walks(sf_dir):
    """Deterministic random walks over the directed item-sequence
    graph (node2vec-style corpus prep): 8 walks of length 8 from the
    8 smallest active vids; each step is the out-neighbour minimising
    (walk_hash(w, s, u), u) — the BSP frontier kernel
    ``superstep.random_walks`` over Dataset-built CSR blocks."""
    g = _item_seq_distgraph(sf_dir)
    act = np.flatnonzero(g.active_global())
    seeds = act[:WALK_SEEDS].astype(np.int64)
    w, s, v = ss.random_walks(g, seeds, length=WALK_LEN)
    return pa.table({"walk_id": pa.array(w), "step": pa.array(s),
                     "vid": pa.array(v)})


SQL_RANDOM_WALKS = f"""
WITH RECURSIVE
seq AS (SELECT l_partkey AS a,
               lead(l_partkey) OVER (PARTITION BY l_orderkey
                                     ORDER BY l_linenumber, l_partkey) AS b
        FROM lineitem),
e AS (SELECT DISTINCT a, b FROM seq WHERE b IS NOT NULL),
-- UNION ALL + DISTINCT: a bare UNION CTE mis-executes under
-- WITH RECURSIVE in DuckDB 1.0.0 (returns duplicated first value)
verts AS (SELECT DISTINCT v FROM
          (SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e)),
seeds AS (SELECT v FROM verts ORDER BY v LIMIT {WALK_SEEDS}),
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
  WHERE s < {WALK_LEN}
    AND EXISTS (SELECT 1 FROM e eb WHERE eb.a = walk.cur)
)
SELECT w AS walk_id, s AS step, cur AS vid FROM walk
"""


EFFDIAM_SEEDS = 8
EFFDIAM_Q = 0.9
_EFFDIAM_SQL_DEPTH = 100   # >= observed BFS depth at the gate scales


def q_effective_diameter_items(sf_dir):
    """Effective diameter (ANF-style, Palmer/Gibbons/Faloutsos 2002):
    the smallest hop distance d such that >= 90% of the reachable
    (seed, vertex) pairs — seeds = the EFFDIAM_SEEDS smallest active
    vids, self-pairs at distance 0 included — are within d. One
    ``multi_bfs`` plane run (k distance rows per partition, messages
    pre-aggregated by destination); the driver reduces the k x n
    matrix to a single row."""
    g = _item_seq_distgraph(sf_dir)
    act = np.flatnonzero(g.active_global())
    seeds = act[:EFFDIAM_SEEDS].astype(np.int64)
    dist, _ = ss.multi_bfs(g, seeds)
    INF = np.iinfo(np.int64).max
    fin = np.sort(dist[dist < INF])
    thr = int(np.ceil(EFFDIAM_Q * len(fin)))
    return pa.table({
        "n_reach": pa.array([len(fin)], pa.int64()),
        "eff_diameter": pa.array([int(fin[thr - 1])], pa.int64()),
    })


SQL_EFFECTIVE_DIAMETER_ITEMS = f"""
WITH RECURSIVE
seq AS (SELECT l_partkey AS a,
               lead(l_partkey) OVER (PARTITION BY l_orderkey
                                     ORDER BY l_linenumber, l_partkey) AS b
        FROM lineitem),
e AS (SELECT DISTINCT a, b FROM seq WHERE b IS NOT NULL),
verts AS (SELECT DISTINCT v FROM
          (SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e)),
seeds AS (SELECT v FROM verts ORDER BY v LIMIT {EFFDIAM_SEEDS}),
bfs(s, v, d) AS (
  SELECT v, v, 0 FROM seeds
  UNION
  SELECT bfs.s, e.b, bfs.d + 1 FROM bfs JOIN e ON e.a = bfs.v
  WHERE bfs.d < {_EFFDIAM_SQL_DEPTH}
),
dmin AS (SELECT s, v, min(d) AS d FROM bfs GROUP BY s, v),
tot AS (SELECT count(*) AS c FROM dmin),
run AS (SELECT d, sum(count(*)) OVER (ORDER BY d) AS cum
        FROM dmin GROUP BY d)
SELECT (SELECT CAST(c AS BIGINT) FROM tot) AS n_reach,
       (SELECT CAST(min(d) AS BIGINT) FROM run
        WHERE cum >= ceil({EFFDIAM_Q} * (SELECT c FROM tot)))
       AS eff_diameter
"""


N2V_MR, N2V_MC, N2V_MF = 3, 2, 1   # return / common / far multiplicities


def q_node2vec_walks(sf_dir):
    """Second-order node2vec walks (Grover & Leskovec 2016) over the
    directed item-sequence graph: integer class multiplicities
    (return=3, common-neighbour=2, far=1) stand in for 1/p, 1, 1/q,
    and the draw is the deterministic weighted-multiset hash min —
    the full bias logic (predecessor-adjacency classification) runs
    through the two-round BSP kernel ``superstep.node2vec_walks``."""
    g = _item_seq_distgraph(sf_dir)
    act = np.flatnonzero(g.active_global())
    seeds = act[:WALK_SEEDS].astype(np.int64)
    w, s, v = ss.node2vec_walks(g, seeds, length=WALK_LEN,
                                mult_return=N2V_MR,
                                mult_common=N2V_MC, mult_far=N2V_MF)
    return pa.table({"walk_id": pa.array(w), "step": pa.array(s),
                     "vid": pa.array(v)})


SQL_NODE2VEC_WALKS = f"""
WITH RECURSIVE
seq AS (SELECT l_partkey AS a,
               lead(l_partkey) OVER (PARTITION BY l_orderkey
                                     ORDER BY l_linenumber, l_partkey) AS b
        FROM lineitem),
e AS (SELECT DISTINCT a, b FROM seq WHERE b IS NOT NULL),
verts AS (SELECT DISTINCT v FROM
          (SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e)),
seeds AS (SELECT v FROM verts ORDER BY v LIMIT {WALK_SEEDS}),
walk(w, s, prev, cur) AS (
  SELECT v, 0, CAST(-1 AS BIGINT), v FROM seeds
  UNION ALL
  SELECT w, s + 1, walk.cur,
         (SELECT eb.b FROM e eb WHERE eb.a = walk.cur
          ORDER BY
            (SELECT min(((walk.w % 1000003) * 7919
                         + ((walk.s + 1) % 1000003) * 104729
                         + (eb.b % 1000003) * 15485863
                         + rr.r * 32452843) % 1000003)
             FROM (VALUES (0), (1), (2), (3)) rr(r)
             WHERE rr.r < CASE
                 WHEN walk.prev < 0 THEN 1
                 WHEN eb.b = walk.prev THEN {N2V_MR}
                 WHEN EXISTS (SELECT 1 FROM e e2
                              WHERE e2.a = walk.prev
                                AND e2.b = eb.b) THEN {N2V_MC}
                 ELSE {N2V_MF} END),
            eb.b
          LIMIT 1)
  FROM walk
  WHERE s < {WALK_LEN}
    AND EXISTS (SELECT 1 FROM e eb WHERE eb.a = walk.cur)
)
SELECT w AS walk_id, s AS step, cur AS vid FROM walk
"""


def _leiden_co_dataset(sf_dir, quality, gamma):
    """Dataset-native Leiden on the co graph: the edge Dataset spills
    to partitioned parquet and each shard actor loads only its own
    partition — the driver never materialises the edge list (the
    100-TB path; VERDICT r1 #3). Vids are the raw part keys (the id
    space is dense enough); output rows cover the actual vertex set
    (degree > 0) with the dense size-desc renumber over it."""
    edges = tg.co_edge_rows(sf_dir)
    n = int(rd.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey"]).max("p_partkey")) + 1
    dl = DistLeiden.from_dataset(edges, n=n, directed=False,
                                 quality=quality,
                                 resolution_parameter=gamma, P=8,
                                 seed=42)
    mem, q, info = dl.run()
    vids = dl.active_vids()
    return pa.table({"vid": pa.array(vids),
                     "comm": pa.array(_renumber_dense(mem[vids],
                                                      len(vids)))})


def q_leiden_cpm_co(sf_dir):
    return _leiden_co_dataset(sf_dir, "cpm", 0.5)


def q_leiden_multiplex(sf_dir):
    """Multiplex Leiden over two layers on the shared part vertex set:
    layer 1 = order co-occurrence (weight = pair count), layer 2 =
    same-brand cliques (weight 1), lambda = [1, 0.2]. Exercises
    find_partition_multiplex (reference functions.py:95-176) on real
    tables. Rows-only check; multiplex semantics pinned by tests."""
    from ..functions_api import find_partition_multiplex
    from ..graph import Graph as G
    from ..partition import CPMVertexPartition as CPM

    a, b, w = tg.co_edge_arrays(sf_dir)
    vids, s, d = _compact(a, b)
    n = len(vids)
    g1 = G(n, src=s, dst=d, weights=w)

    part = rd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_brand"]).to_pandas()
    key2pos = {int(k): i for i, k in enumerate(vids)}
    bs, bd = [], []
    for _, grp in part.groupby("p_brand"):
        ks = [key2pos[int(k)] for k in grp["p_partkey"]
              if int(k) in key2pos]
        ks.sort()
        # same-brand star (not full clique: keeps the layer sparse and
        # deterministic) rooted at the smallest member
        bs += [ks[0]] * (len(ks) - 1)
        bd += ks[1:]
    g2 = G(n, src=np.asarray(bs, dtype=np.int64),
           dst=np.asarray(bd, dtype=np.int64))
    mem, imp = find_partition_multiplex(
        [g1, g2], CPM, layer_weights=[1.0, 0.2],
        resolution_parameter=0.5, seed=42)
    return pa.table({"vid": pa.array(vids),
                     "comm": pa.array(np.asarray(mem, dtype=np.int64))})


def q_resolution_profile_co(sf_dir):
    """Resolution profile (recursive bisection on gamma) for CPM over
    an induced subgraph of the co-occurrence graph (first 300 vertices
    — the profile runs a full optimisation per probed gamma).
    Output: one row per profile breakpoint (resolution, n_communities,
    bisect_value). Non-SQL-expressible -> rows-only check; endpoint
    behaviour pinned by tests."""
    from ..graph import Graph as G
    from ..optimiser import Optimiser
    from ..partition import CPMVertexPartition as CPM

    a, b, w = tg.co_edge_arrays(sf_dir)
    vids, s, d = _compact(a, b)
    keep = (s < 150) & (d < 150)
    g = G(150, src=s[keep], dst=d[keep], weights=w[keep])
    opt = Optimiser()
    opt.set_rng_seed(42)
    profile = opt.resolution_profile(g, CPM, resolution_range=(0.05, 2),
                                     min_diff_bisect_value=25,
                                     min_diff_resolution=0.02)
    return pa.table({
        "resolution": pa.array([round(p.resolution_parameter, 8)
                                for p in profile]),
        "n_communities": pa.array([int(p.n_communities())
                                   for p in profile], pa.int64()),
        "bisect_value": pa.array([round(p.bisect_value(), 6)
                                  for p in profile]),
    })


def _renumber_dense(mem, n):
    """The engine's renumber contract (reference
    ``VertexPartition.py`` renumber: size desc, min-vid tiebreak),
    recomputed defensively so planted-oracle queries pin it exactly."""
    mem = np.asarray(mem, dtype=np.int64)
    ulab, uinv = np.unique(mem, return_inverse=True)
    counts = np.bincount(uinv)
    first_v = np.full(len(ulab), np.iinfo(np.int64).max)
    np.minimum.at(first_v, uinv, np.arange(n))
    order = np.lexsort((first_v, -counts))
    rank = np.empty(len(ulab), dtype=np.int64)
    rank[order] = np.arange(len(ulab))
    return rank[uinv]


def _planted_edges(ds):
    df = ds.to_pandas()  # planted verification graph: small by design
    if len(df) == 0 or "src" not in df.columns:
        z = np.empty(0, np.int64)
        return z, z.copy(), np.empty(0, np.float64)
    return (df["src"].to_numpy(np.int64), df["dst"].to_numpy(np.int64),
            df["weight"].to_numpy(np.float64))


# Shared closed-form oracle: at the chosen gammas the unique optimum is
# one community per nation; community ids follow the engine's renumber
# contract (size desc, min member vid asc, dense from 0).
SQL_LEIDEN_NATIONS = """
WITH sz AS (SELECT s_nationkey, count(*) AS cnt, min(s_suppkey) AS mv
            FROM supplier GROUP BY s_nationkey),
r AS (SELECT s_nationkey,
             CAST(dense_rank() OVER (ORDER BY cnt DESC, mv ASC)
                  AS BIGINT) - 1 AS comm
      FROM sz)
SELECT CAST(s.s_suppkey AS BIGINT) AS vid, r.comm AS comm
FROM supplier s JOIN r ON s.s_nationkey = r.s_nationkey
"""


def q_leiden_cpm_cliques(sf_dir):
    """Distributed Leiden, CPM gamma=0.5, on disjoint per-nation
    cliques: the unique optimum is one community per clique (every
    subset S of a clique scores e(S) - 0.5*|S|(|S|-1)/2 =
    0.5*|S|(|S|-1)/2, strictly superadditive), so the driver verifies
    the full distributed schedule against a closed-form SQL oracle
    (reference ``tests/test_Optimiser.py:12-18``)."""
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    dl = DistLeiden(s, d, weight=w, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.5, P=8, seed=42)
    mem, q, info = dl.run()
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


def q_leiden_warm_cliques(sf_dir):
    """Incremental (warm-started) distributed Leiden: start from a
    deliberately stale prior — nations merged pairwise, the shape a
    yesterday's-communities seed has after graph updates — and verify
    the schedule still reaches the closed-form optimum (one community
    per nation-clique). Exercises the split path end to end: level-0
    local move cannot peel a clique vertex out of a merged community,
    so the fix must come from refinement re-validating communities
    from singletons + the aggregate-level move separating the
    disconnected parts (reference Optimiser.py aggregate-on-refined /
    seed-from-unrefined schedule)."""
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = su["s_suppkey"].to_numpy(np.int64)
    nk = su["s_nationkey"].to_numpy(np.int64)
    warm = np.arange(n, dtype=np.int64)
    # merge nations pairwise, but only vertices that have edges
    # (suppliers of >=2-supplier nations); edgeless vertices hold no
    # incidence rows in any shard so no move can ever peel them back
    counts = np.bincount(nk, minlength=int(nk.max()) + 1)
    active = counts[nk] >= 2
    warm[sk[active]] = n + nk[active] // 2
    dl = DistLeiden(s, d, weight=w, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.5, P=8, seed=42)
    mem, q, info = dl.run(initial_membership=warm)
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


def q_leiden_negweight_bipartite(sf_dir):
    """Distributed Leiden with ``consider_comms="all"`` (ALL_COMMS) on
    the full 25+25 bipartite graph with edge weight -0.1, CPM
    gamma=-0.1 — the negative-weight fixture of reference
    ``tests/test_Optimiser.py:167-175`` through the SHARD schedule.
    Same-side vertices share no edge, so only the all-communities
    candidate set can merge a side; a mixed community (a, b) scores
    exactly the sum of its pure parts (-0.1ab + 0.05(a+b)(a+b-1) =
    0.05(a^2-a) + 0.05(b^2-b)), so cross merges are quality-neutral
    and never taken (> eps gate) while same-side merges strictly
    improve — every schedule reaches the two pure sides from
    singletons. Renumber contract: equal sizes, min-vid asc -> side A
    (vid 0) is community 0."""
    s, d, w = _planted_edges(tg.nation_bipartite_edges(sf_dir))
    n = 50
    dl = DistLeiden(s, d, weight=w, n=n, directed=False, quality="cpm",
                    resolution_parameter=-0.1, P=8, seed=42,
                    consider_comms="all")
    mem, q, info = dl.run()
    side = np.arange(n) < 25
    if len(set(mem[side])) != 1 or len(set(mem[~side])) != 1 \
            or mem[0] == mem[n - 1]:
        raise AssertionError(
            "negative-weight bipartite fixed point is not the two "
            f"pure sides: {np.bincount(_renumber_dense(mem, n))}")
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


SQL_LEIDEN_NEGWEIGHT_BIPARTITE = """
SELECT CAST(n_nationkey AS BIGINT) AS vid, CAST(0 AS BIGINT) AS comm
FROM nation
UNION ALL
SELECT CAST(n_nationkey AS BIGINT) + 25, CAST(1 AS BIGINT)
FROM nation
"""


def q_leiden_bipartite_cliques(sf_dir):
    """Distributed ``CPMVertexPartition.Bipartite`` (3 CPM layers,
    class-masked node sizes, layer weights [1,-1,-1]; reference
    ``VertexPartition.py:950-1105``) through the shard kernel, on one
    complete bipartite block per nation (side A = s_suppkey, side B =
    n + s_suppkey). With gamma_0 = gamma_1 = 0 the objective is
    w_in - gamma_01 * (#cross-side pairs), so the unique optimum is
    one community per nation block (a^2 edges vs a^2 cross pairs at
    gamma_01 = 0.5: merging blocks adds 2*a1*a2 penalised pairs with
    no edges, splitting loses edges). Comm ids follow the renumber
    contract with sizes 2*|nation| and min member vid = the nation's
    min s_suppkey."""
    s, d, w = _planted_edges(tg.nation_bipartite_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    types = np.r_[np.zeros(n, np.int64), np.ones(n, np.int64)]
    dl = DistLeiden.bipartite(s, d, types=types, weight=w, n=2 * n,
                              resolution_parameter_01=0.5, P=8,
                              seed=42)
    mem, q, info = dl.run()
    return pa.table({"vid": pa.array(np.arange(2 * n,
                                               dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, 2 * n))})


SQL_LEIDEN_BIPARTITE_NATIONS = """
WITH sz AS (SELECT s_nationkey, count(*) AS cnt, min(s_suppkey) AS mv
            FROM supplier GROUP BY s_nationkey),
r AS (SELECT s_nationkey,
             CAST(dense_rank() OVER (ORDER BY cnt DESC, mv ASC)
                  AS BIGINT) - 1 AS comm
      FROM sz),
n AS (SELECT count(*) AS n FROM supplier)
SELECT CAST(s.s_suppkey AS BIGINT) AS vid, r.comm AS comm
FROM supplier s JOIN r ON s.s_nationkey = r.s_nationkey
UNION ALL
SELECT CAST(s.s_suppkey AS BIGINT) + n.n, r.comm
FROM supplier s JOIN r ON s.s_nationkey = r.s_nationkey, n
"""


def q_leiden_modularity_cliques(sf_dir):
    """Distributed Leiden, Modularity, same planted cliques: merging
    disconnected communities always decreases modularity and splitting
    a small clique loses internal weight, so the optimum is again one
    community per nation."""
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    dl = DistLeiden(s, d, weight=w, n=n, directed=False,
                    quality="modularity", P=8, seed=42)
    mem, q, info = dl.run()
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


def q_leiden_surprise_cliques(sf_dir):
    """Distributed Leiden, Surprise quality, on the planted cliques:
    the nonlinear combine runs distributed via the global-term-vector
    delta (quality.SurpriseQuality.combine_many; reference
    ``VertexPartition.py:470-492``); on disjoint cliques the optimum
    is one community per clique (maximal internal density), same SQL
    oracle."""
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    dl = DistLeiden(s, d, weight=w, n=n, directed=False,
                    quality="surprise", P=8, seed=42)
    mem, q, info = dl.run()
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


def q_leiden_significance_cliques(sf_dir):
    """Distributed Leiden, Significance quality (unweighted-only —
    reference ``VertexPartition.py:554,580``; the planted cliques are
    weight-1), same closed-form optimum: one community per clique.
    With this row every one of the six quality functions is
    driver-SQL-verified through the distributed schedule."""
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    dl = DistLeiden(s, d, weight=None, n=n, directed=False,
                    quality="significance", P=8, seed=42)
    mem, q, info = dl.run()
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


def _leiden_planted_cliques(sf_dir, quality, gamma, weighted=True):
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    dl = DistLeiden(s, d, weight=(w if weighted else None), n=n,
                    directed=False, quality=quality,
                    resolution_parameter=gamma, P=8, seed=42)
    mem, q, info = dl.run()
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


def q_leiden_rbconfig_cliques(sf_dir):
    """Distributed Leiden, RBConfiguration gamma=1 (== modularity up
    to scale — reference ``VertexPartition.py:794-796``), planted
    cliques, same closed-form optimum."""
    return _leiden_planted_cliques(sf_dir, "rb_configuration", 1.0)


def q_leiden_rber_cliques(sf_dir):
    """Distributed Leiden, RBER gamma=1 (Erdos-Renyi null — reference
    ``VertexPartition.py:680-698``), planted cliques, same closed-form
    optimum."""
    return _leiden_planted_cliques(sf_dir, "rber", 1.0)


def q_leiden_temporal_cliques(sf_dir):
    """find_partition_temporal (reference ``functions.py:178-306``)
    over two identical clique time-slices with interslice coupling
    weight 1, CPM gamma=0.5: the coupled optimum is one community per
    nation SPANNING both slices, so each slice's membership equals the
    nation grouping — the temporal entry point's driver-SQL row."""
    from ..functions_api import find_partition_temporal
    from ..graph import Graph as G
    from ..partition import CPMVertexPartition as CPM

    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    g = G(n, src=s, dst=d, weights=w)
    mems, imp = find_partition_temporal(
        [g, g], CPM, interslice_weight=1.0,
        resolution_parameter=0.5, seed=42)
    cat = np.concatenate([np.asarray(m) for m in mems])
    comm = _renumber_dense(cat, 2 * n)
    vids = np.arange(n, dtype=np.int64)
    return pa.table({
        "slice": pa.array(np.repeat(np.array([0, 1], np.int64), n)),
        "vid": pa.array(np.concatenate([vids, vids])),
        "comm": pa.array(comm),
    })


SQL_LEIDEN_TEMPORAL = """
WITH sz AS (SELECT s_nationkey, count(*) AS cnt, min(s_suppkey) AS mv
            FROM supplier GROUP BY s_nationkey),
r AS (SELECT s_nationkey,
             CAST(dense_rank() OVER (ORDER BY cnt DESC, mv ASC)
                  AS BIGINT) - 1 AS comm
      FROM sz)
SELECT CAST(sl.s AS BIGINT) AS slice,
       CAST(s.s_suppkey AS BIGINT) AS vid, r.comm AS comm
FROM supplier s
JOIN r ON s.s_nationkey = r.s_nationkey
CROSS JOIN (SELECT 0 AS s UNION ALL SELECT 1) sl
"""


def q_leiden_cpm_stars(sf_dir):
    """Distributed Leiden, CPM at gamma->0 (0.001), on disjoint
    per-nation stars: the optimum is the connected components, i.e.
    the nations (reference ``tests/test_Optimiser.py:96-103`` — CPM at
    gamma below the component-density threshold IS connected
    components). Splitting off j leaves cuts j unit edges while saving
    only gamma*j*(k-j) < j for gamma < 1/k; merging two stars costs
    gamma*kA*kB > 0. Stars (unlike rings/paths) have no partial-split
    node-optimal traps: every leaf is hub-adjacent, so greedy local
    moves reach the unique optimum."""
    s, d, w = _planted_edges(tg.nation_star_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    dl = DistLeiden(s, d, weight=w, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.001, P=8, seed=42)
    mem, q, info = dl.run()
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


def q_leiden_multiplex_cliques(sf_dir):
    """find_partition_multiplex (reference ``functions.py:95-176``)
    over two layers on the supplier vertex set — clique layer + ring
    layer, lambda=[1, 0.5], CPM gamma=0.5. Any community S inside a
    nation scores 1*(pairs(S) - 0.5*pairs(S)) + 0.5*(e_ring(S) -
    0.5*pairs(S)) = 0.25*pairs(S) + 0.5*e_ring(S) — strictly
    superadditive in S (pairs is), so the unique optimum is one
    community per nation and the same SQL oracle applies; the dominant
    clique term keeps every vertex adjacent to its whole community, so
    greedy local moves reach it (lambda=[1,1] would cancel the clique
    term exactly and leave the trap-prone pure-ring landscape)."""
    from ..functions_api import find_partition_multiplex
    from ..graph import Graph as G
    from ..partition import CPMVertexPartition as CPM

    n = tg.supplier_count(sf_dir)
    cs, cd, cw = _planted_edges(tg.nation_clique_edges(sf_dir))
    rs, rd_, rw = _planted_edges(tg.nation_ring_edges(sf_dir))
    g1 = G(n, src=cs, dst=cd, weights=cw)
    g2 = G(n, src=rs, dst=rd_, weights=rw)
    mem, imp = find_partition_multiplex(
        [g1, g2], CPM, layer_weights=[1.0, 0.5],
        resolution_parameter=0.5, seed=42)
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


def q_leiden_multiplex_dataset_cliques(sf_dir):
    """The DISTRIBUTED multiplex schedule (DistLeiden with a layer
    column: per-layer shard stats, lambda_k-weighted propose deltas,
    multiplex refinement + per-layer aggregation) on the same planted
    two-layer instance as ``leiden_multiplex_cliques`` — clique layer
    + ring layer on the supplier vertex set, lambda=[1, 0.5], CPM
    gamma=0.5, unique optimum one community per nation (see that
    query's proof). Routed through edge DATASETS ->
    ``find_partition_multiplex_dataset`` (reference
    ``functions.py:95-176`` + ``Optimiser.py:357-461``), so the
    >node-memory multiplex path carries its own driver-SQL row."""
    from ..functions_api import find_partition_multiplex_dataset

    n = tg.supplier_count(sf_dir)
    cs, cd, cw = _planted_edges(tg.nation_clique_edges(sf_dir))
    rs, rd_, rw = _planted_edges(tg.nation_ring_edges(sf_dir))
    ds1 = rd.from_arrow(pa.table({
        "src": pa.array(cs), "dst": pa.array(cd),
        "weight": pa.array(cw.astype(np.float64))}))
    ds2 = rd.from_arrow(pa.table({
        "src": pa.array(rs), "dst": pa.array(rd_),
        "weight": pa.array(rw.astype(np.float64))}))
    mem, q, info, _ = find_partition_multiplex_dataset(
        [ds1, ds2], n=n, quality="cpm", resolution_parameter=0.5,
        layer_weights=[1.0, 0.5], P=8, seed=42)
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(_renumber_dense(mem, n))})


def q_leiden_temporal_dataset_cliques(sf_dir):
    """The DISTRIBUTED temporal schedule on the same planted instance
    as ``leiden_temporal_cliques``: two identical clique time-slices
    as edge DATASETS, path-coupled (interslice weight 1, CPM gamma=0
    coupling layer with zero node sizes — reference
    ``functions.py:337-364,517-526``), CPM gamma=0.5 slice layers.
    The coupled optimum is one community per nation spanning both
    slices, so the same closed-form SQL oracle verifies the
    >node-memory temporal path end to end."""
    from ..functions_api import find_partition_temporal_dataset

    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    ds = rd.from_arrow(pa.table({
        "src": pa.array(s), "dst": pa.array(d),
        "weight": pa.array(w.astype(np.float64))}))
    mems, q, info = find_partition_temporal_dataset(
        [ds, ds], n_nodes=n, quality="cpm", resolution_parameter=0.5,
        interslice_weight=1.0, P=8, seed=42)
    comm = _renumber_dense(mems.reshape(-1), 2 * n)
    vids = np.arange(n, dtype=np.int64)
    return pa.table({
        "slice": pa.array(np.repeat(np.array([0, 1], np.int64), n)),
        "vid": pa.array(np.concatenate([vids, vids])),
        "comm": pa.array(comm),
    })


def q_leiden_fixed_cliques(sf_dir):
    """``is_membership_fixed`` through the DISTRIBUTED schedule
    (reference ``python_optimiser_interface.cpp:77-97`` + property
    ``test_Optimiser.py:145-164``): the minimum supplier of every
    >=2-supplier nation is frozen at the distinctive label
    ``n + nationkey`` (all other vertices seeded singleton). CPM
    gamma=0.5 on the nation cliques has the unique optimum one
    community per clique, so every clique must coalesce around its
    frozen anchor and inherit its label; edgeless suppliers
    (1-supplier nations) stay singleton and take the engine's
    collision-free non-fixed label ``2n + vid``. Closed-form, so the
    fixed-membership knob carries its own driver-SQL row."""
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"]) \
        .to_pandas()
    sk = su["s_suppkey"].to_numpy(np.int64)
    nk = su["s_nationkey"].to_numpy(np.int64)
    nnat = int(nk.max()) + 1
    counts = np.bincount(nk, minlength=nnat)
    minv = np.full(nnat, np.iinfo(np.int64).max)
    np.minimum.at(minv, nk, sk)
    seed = np.arange(n, dtype=np.int64)
    fixed = np.zeros(n, dtype=bool)
    for nat in np.flatnonzero(counts >= 2):
        seed[minv[nat]] = n + nat
        fixed[minv[nat]] = True
    dl = DistLeiden(s, d, weight=w, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.5, P=8, seed=42)
    mem, q, info = dl.run(initial_membership=seed,
                          is_membership_fixed=fixed)
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(mem.astype(np.int64))})


SQL_LEIDEN_FIXED = """
WITH cnt AS (SELECT s_nationkey, count(*) AS c
             FROM supplier GROUP BY 1),
nn AS (SELECT count(*) AS n FROM supplier),
anyfix AS (SELECT max(c) >= 2 AS f FROM cnt)
SELECT CAST(s.s_suppkey AS BIGINT) AS vid,
       -- no >=2-supplier nation => no anchors get frozen and the
       -- engine takes its normal renumber path (all singletons =>
       -- comm = vid); otherwise fixed communities keep n+nationkey
       -- and edgeless singletons take the engine's 2n+vid labels
       CAST(CASE WHEN NOT anyfix.f THEN s.s_suppkey
                 WHEN cnt.c >= 2 THEN nn.n + s.s_nationkey
                 ELSE 2 * nn.n + s.s_suppkey END AS BIGINT) AS comm
FROM supplier s
JOIN cnt ON cnt.s_nationkey = s.s_nationkey
CROSS JOIN nn CROSS JOIN anyfix
"""


def q_leiden_recrawl_cliques(sf_dir):
    """The canonical incremental-recrawl combination — warm start +
    frozen seed vertices — through the DISTRIBUTED schedule: yesterday's
    (deliberately stale: nations merged pairwise) communities seed the
    optimiser, each nation's min supplier is frozen at ``n +
    nationkey``, and the schedule must split the stale merges while
    anchoring every clique to its frozen vertex. Closed form: same
    output as ``leiden_fixed_cliques`` (anchored nations at
    n + nationkey, edgeless singletons at the engine's 2n + vid)."""
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"]) \
        .to_pandas()
    sk = su["s_suppkey"].to_numpy(np.int64)
    nk = su["s_nationkey"].to_numpy(np.int64)
    nnat = int(nk.max()) + 1
    counts = np.bincount(nk, minlength=nnat)
    minv = np.full(nnat, np.iinfo(np.int64).max)
    np.minimum.at(minv, nk, sk)
    seed = np.arange(n, dtype=np.int64)
    fixed = np.zeros(n, dtype=bool)
    # stale warm start: nations with edges merged pairwise
    active = counts[nk] >= 2
    seed[sk[active]] = n + nk[active] // 2
    # ...but each active nation's min supplier is frozen at its own
    # distinctive label (overrides the merged seed for the anchor)
    for nat in np.flatnonzero(counts >= 2):
        seed[minv[nat]] = n + nat
        fixed[minv[nat]] = True
    dl = DistLeiden(s, d, weight=w, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.5, P=8, seed=42)
    mem, q, info = dl.run(initial_membership=seed,
                          is_membership_fixed=fixed)
    return pa.table({"vid": pa.array(np.arange(n, dtype=np.int64)),
                     "comm": pa.array(mem.astype(np.int64))})


def q_leiden_minsize_complete(sf_dir):
    """``min_comm_size`` + ``community_constraint_enforcement``
    through the DISTRIBUTED schedule, on the reference's canonical
    fixture shape (``test_Optimiser.py:20-38``): the complete graph
    over the suppliers under CPM gamma=1 is move-indifferent (every
    merge delta is exactly 0 — internal weight gained equals the
    resolution penalty), so the soft min-size bonus/penalty alone
    shapes the fixed point. The landscape has MANY stuck states
    (e.g. all-size-4 communities: the +E fill bonus exactly cancels
    the -E leave penalty), so a size histogram would be
    seed/schedule-dependent. The emitted row asserts only the
    invariants that hold in EVERY fixed point of the dynamics:
    total mass = n, no community above min_comm_size (a member of a
    >min_s community always has the positive-score escape to an
    empty community: +E fill, no leave penalty), and no singleton
    coexisting with another fillable (<min_s) community (that move
    scores +E with no leave penalty). The K_n instance is a
    driver-built planted verification graph, like the other planted
    rows."""
    n = tg.supplier_count(sf_dir)
    ii, jj = np.triu_indices(n, k=1)
    dl = DistLeiden(ii.astype(np.int64), jj.astype(np.int64), n=n,
                    directed=False, quality="cpm",
                    resolution_parameter=1.0, P=8, seed=42,
                    min_comm_size=5,
                    community_constraint_enforcement=10.0)
    mem, q, info = dl.run()
    sizes = np.bincount(np.unique(mem, return_inverse=True)[1])
    min_s = 5
    n1 = int((sizes == 1).sum())
    mid_small = int(((sizes >= 2) & (sizes < min_s)).sum())
    escapable_singleton = n1 >= 2 or (n1 == 1 and mid_small > 0)
    fixed_ok = (int(sizes.max()) <= min_s) \
        and not escapable_singleton
    return pa.table({
        "total": pa.array([int(sizes.sum())], pa.int64()),
        "fixed_ok": pa.array([int(fixed_ok)], pa.int64()),
    })


SQL_LEIDEN_MINSIZE = """
SELECT CAST(count(*) AS BIGINT) AS total,
       CAST(1 AS BIGINT) AS fixed_ok
FROM supplier
"""


def q_leiden_randcomm_complete(sf_dir):
    """RAND_COMM through the DISTRIBUTED schedule (r5 — closes the
    last reference consider_comms enum gap; reference
    ``Optimiser.py:104-107``): candidates are size-proportional
    random-community draws from the driver's per-superstep broadcast
    reservoir. Planted on the complete supplier graph under CPM
    gamma=0.5, where EVERY draw of a community at least as large as
    the leaver's remainder improves quality ((1-gamma)(b-(a-1)) > 0),
    so the random schedule provably coalesces to the unique one-
    community optimum regardless of the draw sequence — a closed-form
    oracle despite the stochastic candidate set. Seeded, so the run
    is deterministic."""
    n = tg.supplier_count(sf_dir)
    ii, jj = np.triu_indices(n, k=1)
    dl = DistLeiden(ii.astype(np.int64), jj.astype(np.int64), n=n,
                    directed=False, quality="cpm",
                    resolution_parameter=0.5, P=8, seed=42,
                    consider_comms="rand")
    mem, q, info = dl.run()
    return pa.table({
        "vid": pa.array(np.arange(n, dtype=np.int64)),
        "comm": pa.array(mem.astype(np.int64)),
    })


SQL_LEIDEN_RANDCOMM = """
SELECT CAST(s_suppkey AS BIGINT) AS vid, CAST(0 AS BIGINT) AS comm
FROM supplier
"""


def q_leiden_modularity_co(sf_dir):
    return _leiden_co_dataset(sf_dir, "modularity", 1.0)


def q_resolution_profile_cliques(sf_dir):
    """Resolution profile (reference ``Optimiser.py:661-861``) on the
    planted per-nation cliques, reported as the DISTINCT
    (n_communities, bisect_value) partitions found. Every clique has
    uniform internal density 1, so over gamma in (0.05, 2) exactly two
    partitions exist — one community per nation below gamma=1
    (bisect value = sum k(k-1)/2) and singletons above (0) — making
    the profile driver-SQL-verifiable (the probe gamma sequence itself
    is bisection-internal and deliberately not part of the output)."""
    from ..graph import Graph as G
    from ..optimiser import Optimiser
    from ..partition import CPMVertexPartition as CPM

    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    g = G(n, src=s, dst=d, weights=w)
    opt = Optimiser()
    opt.set_rng_seed(42)
    prof = opt.resolution_profile(g, CPM, resolution_range=(0.05, 2))
    rows = sorted({(int(p.n_communities()),
                    float(round_half_away(p.bisect_value(), 6)))
                   for p in prof})
    return pa.table({
        "n_communities": pa.array([r[0] for r in rows], pa.int64()),
        "bisect_value": pa.array([r[1] for r in rows], pa.float64()),
    })


def q_resolution_profile_dataset_cliques(sf_dir):
    """The DISTRIBUTED resolution profile (``resolution_profile_dataset``
    — every bisection probe a DistLeiden run over the parquet-spilled
    edge Dataset, reference ``Optimiser.py:661-861``) on the planted
    per-nation cliques; identical closed form to
    ``resolution_profile_cliques``: exactly two distinct
    (n_communities, bisect_value) partitions over gamma in
    (0.05, 2)."""
    from ..functions_api import resolution_profile_dataset

    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    ds = rd.from_arrow(pa.table({
        "src": pa.array(s), "dst": pa.array(d),
        "weight": pa.array(w.astype(np.float64))}))
    prof = resolution_profile_dataset(ds, n=n, quality="cpm",
                                      resolution_range=(0.05, 2),
                                      P=8, seed=42)
    rows = sorted({(int(p.n_communities()),
                    float(round_half_away(p.bisect_value(), 6)))
                   for p in prof})
    return pa.table({
        "n_communities": pa.array([r[0] for r in rows], pa.int64()),
        "bisect_value": pa.array([r[1] for r in rows], pa.float64()),
    })


SQL_RESOLUTION_PROFILE_CLIQUES = """
WITH sz AS (SELECT s_nationkey, count(*) AS k
            FROM supplier GROUP BY s_nationkey)
SELECT DISTINCT * FROM (
  SELECT CAST((SELECT count(*) FROM sz) AS BIGINT) AS n_communities,
         CAST((SELECT sum(k * (k - 1) / 2) FROM sz) AS DOUBLE)
             AS bisect_value
  UNION ALL
  SELECT CAST(count(*) AS BIGINT), 0.0 FROM supplier
)
"""


def q_closeness_co(sf_dir):
    """Closeness centrality for the 4 smallest active vertices of the
    co graph: one multi-source BSP BFS (``superstep.multi_bfs`` —
    per-partition (k, n/P) distance planes, messages pre-aggregated
    by destination partition), closeness = reached / sum(dist)."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    seeds = np.flatnonzero(act)[:CLOSENESS_SEEDS].astype(np.int64)
    dist, _ = ss.multi_bfs(g, seeds)
    INF = np.iinfo(np.int64).max
    reach = ((dist < INF) & (dist > 0)).sum(axis=1).astype(np.int64)
    sum_d = np.where(dist < INF, dist, 0).sum(axis=1)
    clo = np.where(sum_d > 0, reach / np.where(sum_d > 0, sum_d, 1), 0.0)
    return pa.table({"vid": pa.array(seeds),
                     "n_reached": pa.array(reach),
                     "closeness": pa.array(round6(clo))})


SQL_CLOSENESS_CO = f"""
WITH RECURSIVE
{_SQL_CO_EDGES_BOTH},
seeds AS (SELECT a AS s FROM e GROUP BY a ORDER BY a
          LIMIT {CLOSENESS_SEEDS}),
bfs(s, v, d) AS (
  SELECT s, s, 0 FROM seeds
  UNION
  SELECT bfs.s, e.b, bfs.d + 1 FROM bfs JOIN e ON e.a = bfs.v
  WHERE bfs.d < 30
),
sd AS (SELECT s, v, min(d) AS d FROM bfs GROUP BY s, v)
SELECT s AS vid,
       CAST(count(*) FILTER (WHERE d > 0) AS BIGINT) AS n_reached,
       round(count(*) FILTER (WHERE d > 0) / sum(d), 6) AS closeness
FROM sd GROUP BY s
"""


SPATH_MAX_D = 6


def q_spath_counts_co(sf_dir):
    """Shortest-path counts (Brandes' sigma) from the smallest
    active vertex of the co graph, to vertices within 6 hops: the
    level-synchronous integer BSP kernel ``superstep.spath_counts``
    — exact path counts, which is what makes the iterative part of
    betweenness driver-verifiable (the float dependency sweep is
    pinned by pytest against serial Brandes)."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    source = int(np.flatnonzero(act)[0])
    dist, sigma = ss.spath_counts(g, source)
    INF = np.iinfo(np.int64).max
    keep = np.flatnonzero((dist < INF) & (dist <= SPATH_MAX_D))
    return pa.table({"vid": pa.array(keep.astype(np.int64)),
                     "dist": pa.array(dist[keep]),
                     "n_paths": pa.array(sigma[keep])})


def _sigma_levels_sql(max_d):
    """Chained per-level aggregation CTEs (recursive CTEs cannot
    aggregate): l_d = sum of l_{d-1} sigmas over edges into
    still-unseen vertices."""
    # MATERIALIZED: DuckDB inlines plain CTEs at every reference, so
    # the chained levels re-evaluate exponentially without it
    parts = ["l0 AS MATERIALIZED "
             "(SELECT v, CAST(1 AS HUGEINT) AS sigma FROM s)"]
    union = ["SELECT v, 0 AS d, sigma FROM l0"]
    for d in range(1, max_d + 1):
        seen = " UNION ALL ".join(
            f"SELECT v FROM l{k}" for k in range(d))
        parts.append(
            f"l{d} AS MATERIALIZED "
            f"(SELECT e.b AS v, sum(l{d-1}.sigma) AS sigma\n"
            f"  FROM l{d-1} JOIN e ON e.a = l{d-1}.v\n"
            f"  WHERE e.b NOT IN ({seen}) GROUP BY e.b)")
        union.append(f"SELECT v, {d} AS d, sigma FROM l{d}")
    return ",\n".join(parts), " UNION ALL ".join(union)


_SIG_CTES, _SIG_UNION = _sigma_levels_sql(SPATH_MAX_D)

SQL_SPATH_COUNTS_CO = f"""
WITH
{_SQL_CO_EDGES_BOTH_MAT},
s AS (SELECT min(a) AS v FROM e),
{_SIG_CTES}
SELECT v AS vid, CAST(d AS BIGINT) AS dist,
       CAST(sigma AS BIGINT) AS n_paths
FROM ({_SIG_UNION})
"""


BETWEENNESS_SEEDS = 3


def q_betweenness_co(sf_dir):
    """Seed-sampled betweenness centrality (Brandes) on the co
    graph: forward integer sigma BSP + backward float dependency
    sweep (``superstep.betweenness``). The float accumulation is not
    SQL-expressible order-stably, so this row is rows-only at the
    driver; the sweep is pinned by
    ``tests/test_dist.py::test_betweenness_matches_serial`` and the
    integer forward pass is driver-verified via ``spath_counts_co``."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    seeds = np.flatnonzero(act)[:BETWEENNESS_SEEDS].astype(np.int64)
    bc = ss.betweenness(g, seeds)
    vids = np.flatnonzero(act).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "betweenness": pa.array(round6(bc[vids]))})


def q_eccentricity_co(sf_dir):
    """Eccentricity (max finite hop distance) of the 4 smallest
    active co-graph vertices — a diameter probe from the same
    ``multi_bfs`` distance planes as closeness."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    seeds = np.flatnonzero(act)[:CLOSENESS_SEEDS].astype(np.int64)
    dist, _ = ss.multi_bfs(g, seeds)
    INF = np.iinfo(np.int64).max
    ecc = np.where(dist < INF, dist, 0).max(axis=1).astype(np.int64)
    return pa.table({"vid": pa.array(seeds),
                     "eccentricity": pa.array(ecc)})


SQL_ECCENTRICITY_CO = f"""
WITH RECURSIVE
{_SQL_CO_EDGES_BOTH},
seeds AS (SELECT a AS s FROM e GROUP BY a ORDER BY a
          LIMIT {CLOSENESS_SEEDS}),
bfs(s, v, d) AS (
  SELECT s, s, 0 FROM seeds
  UNION
  SELECT bfs.s, e.b, bfs.d + 1 FROM bfs JOIN e ON e.a = bfs.v
  WHERE bfs.d < 30
),
sd AS (SELECT s, v, min(d) AS d FROM bfs GROUP BY s, v)
SELECT s AS vid, CAST(max(d) AS BIGINT) AS eccentricity
FROM sd GROUP BY s
"""


MIS_SQL_ROUNDS = 12


def q_mis_co(sf_dir):
    """Maximal independent set on the co graph via deterministic Luby
    rounds (``superstep.luby_mis``): the classic BSP symmetry-breaking
    primitive — a vertex joins when its per-round hash priority beats
    every active neighbour's, then deactivates its neighbourhood.
    Output = the MIS membership."""
    g = _co_distgraph(sf_dir)
    state, rounds = ss.luby_mis(g)
    assert rounds <= MIS_SQL_ROUNDS, \
        f"Luby took {rounds} rounds; raise MIS_SQL_ROUNDS"
    vids = np.flatnonzero(state == 1).astype(np.int64)
    return pa.table({"vid": pa.array(vids)})


def _mis_rounds_sql(max_r):
    """Round-unrolled Luby oracle (materialized — see sigma note):
    c_r = active local-priority minima, m advances, a shrinks by the
    joined set and its neighbourhood. Extra rounds no-op once a is
    empty, so unrolling past convergence is safe."""
    def key(col, r):
        return (f"(((({col}) % 1000003) * 7919 + ({r} % 1000003) * "
                f"104729) % 1000003) * 100000000 + ({col})")
    parts = [
        "a0 AS MATERIALIZED (SELECT DISTINCT a AS v FROM e)",
        "m0 AS MATERIALIZED (SELECT CAST(NULL AS BIGINT) AS v "
        "WHERE FALSE)",
    ]
    for r in range(max_r):
        parts.append(
            f"c{r} AS MATERIALIZED (SELECT av.v FROM a{r} av\n"
            f"  WHERE NOT EXISTS (SELECT 1 FROM e JOIN a{r} nb\n"
            f"    ON nb.v = e.b WHERE e.a = av.v\n"
            f"    AND {key('nb.v', r)} < {key('av.v', r)}))")
        parts.append(
            f"m{r + 1} AS MATERIALIZED (SELECT v FROM m{r}\n"
            f"  UNION ALL SELECT v FROM c{r})")
        parts.append(
            f"a{r + 1} AS MATERIALIZED (SELECT v FROM a{r}\n"
            f"  WHERE v NOT IN (SELECT v FROM c{r})\n"
            f"  AND v NOT IN (SELECT e.b FROM e JOIN c{r} cc\n"
            f"                ON e.a = cc.v))")
    return ",\n".join(parts), f"m{max_r}"


_MIS_CTES, _MIS_FINAL = _mis_rounds_sql(MIS_SQL_ROUNDS)

SQL_MIS_CO = f"""
WITH
{_SQL_CO_EDGES_BOTH_MAT},
{_MIS_CTES}
SELECT v AS vid FROM {_MIS_FINAL}
"""


def q_coloring_co(sf_dir):
    """Greedy distributed graph coloring (iterated Luby MIS layers,
    ``superstep.mis_coloring``) on the co graph. Rows-only at the
    driver: the colour count depends on iterate-to-fixed-point MIS
    layers (too deep to unroll in SQL); properness, completeness and
    parallelism-invariance are pinned by
    ``tests/test_dist.py::test_mis_coloring_valid_and_invariant``,
    and the single-layer MIS primitive is driver-verified via
    ``mis_co``."""
    g = _co_distgraph(sf_dir)
    colors, _ = ss.mis_coloring(g)
    vids = np.flatnonzero(colors >= 0).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "color": pa.array(colors[vids])})


def q_betweenness_paths(sf_dir):
    """Planted SQL-green twin for the Brandes sweep: one simple path
    per nation (suppliers in suppkey order), seeds = the min-suppkey
    end of each path. Shortest paths on a path are unique, so the
    dependency of the vertex at position i in a k-path is exactly
    k-1-i (0 for the seed) — integral, hence order-stable, hence
    SQL-expressible. Runs the full distributed forward-sigma +
    backward-dependency schedule of ``superstep.betweenness``."""
    from ..dist.blocks import symmetrize_edges
    n = tg.supplier_count(sf_dir)
    g = DistGraph.from_dataset(
        symmetrize_edges(tg.nation_path_edges(sf_dir)),
        n=n, P=8, directed=False, dedup=False)
    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = su["s_suppkey"].to_numpy(np.int64)
    nk = su["s_nationkey"].to_numpy(np.int64)
    counts = np.bincount(nk)
    order = np.lexsort((sk, nk))
    sk_s, nk_s = sk[order], nk[order]
    first = np.r_[True, nk_s[1:] != nk_s[:-1]]
    seeds = np.sort(sk_s[first & (counts[nk_s] >= 2)])
    bc = ss.betweenness(g, seeds)
    vids = np.sort(sk[counts[nk] >= 2])
    return pa.table({"vid": pa.array(vids),
                     "betweenness": pa.array(round6(bc[vids]))})


SQL_BETWEENNESS_PATHS = """
WITH s2 AS (SELECT s_suppkey,
                   count(*) OVER (PARTITION BY s_nationkey) AS k,
                   row_number() OVER (PARTITION BY s_nationkey
                                      ORDER BY s_suppkey) - 1 AS pos
            FROM supplier)
SELECT CAST(s_suppkey AS BIGINT) AS vid,
       round(CAST(CASE WHEN pos = 0 THEN 0 ELSE k - 1 - pos END
                  AS DOUBLE), 6) AS betweenness
FROM s2 WHERE k >= 2
"""


def q_coloring_cliques(sf_dir):
    """Planted SQL-green twin for Luby-layer coloring: on disjoint
    nation cliques every MIS layer removes exactly one vertex per
    remaining clique (independence => at most one; maximality => at
    least one), so a k-clique consumes colors 0..k-1 exactly. The
    per-nation profile (distinct colors, min, max) is closed-form
    without replicating hash priorities, and pins properness +
    completeness of ``superstep.mis_coloring`` through the
    distributed schedule."""
    from ..dist.blocks import symmetrize_edges
    import pandas as pd
    n = tg.supplier_count(sf_dir)
    g = DistGraph.from_dataset(
        symmetrize_edges(tg.nation_clique_edges(sf_dir)),
        n=n, P=8, directed=False, dedup=False)
    colors, _ = ss.mis_coloring(g)
    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = su["s_suppkey"].to_numpy(np.int64)
    nk = su["s_nationkey"].to_numpy(np.int64)
    counts = np.bincount(nk)
    keep = counts[nk] >= 2
    df = pd.DataFrame({"nationkey": nk[keep],
                       "color": colors[sk[keep]]})
    agg = df.groupby("nationkey")["color"] \
        .agg(["nunique", "min", "max"]).reset_index()
    return pa.table({
        "nationkey": pa.array(agg["nationkey"].to_numpy(np.int64)),
        "n_colors": pa.array(agg["nunique"].to_numpy(np.int64)),
        "min_color": pa.array(agg["min"].to_numpy(np.int64)),
        "max_color": pa.array(agg["max"].to_numpy(np.int64)),
    })


SQL_COLORING_CLIQUES = """
SELECT CAST(s_nationkey AS BIGINT) AS nationkey,
       CAST(count(*) AS BIGINT) AS n_colors,
       CAST(0 AS BIGINT) AS min_color,
       CAST(count(*) - 1 AS BIGINT) AS max_color
FROM supplier
GROUP BY s_nationkey
HAVING count(*) >= 2
"""


KTRUSS_K = 10
KTRUSS_SQL_ROUNDS = 12


def q_ktruss_co(sf_dir):
    """k-truss (k=10) of the co graph: iterative support peel over
    the compact-forward triangle plan (``dist/truss.k_truss``) —
    every surviving edge closes >= 8 triangles inside the subgraph.
    This is the broadcast tier (sorted edge keys shipped once, 16
    bytes/edge — same envelope as ``triangle_count_fast``); past
    node memory the peel swaps its support step for the bucketed
    spill plan of ``triangles.triangle_count`` (see truss.py)."""
    t = pa.concat_tables(
        [b for b in tg.co_edge_rows(sf_dir).iter_batches(
            batch_size=None, batch_format="pyarrow")])
    s = t["src"].to_numpy(zero_copy_only=False)
    d = t["dst"].to_numpy(zero_copy_only=False)
    n = int(max(s.max(), d.max())) + 1
    a, b, rounds = k_truss(s, d, n, k=KTRUSS_K, P=8)
    assert rounds <= KTRUSS_SQL_ROUNDS, \
        f"peel took {rounds} rounds; raise KTRUSS_SQL_ROUNDS"
    return pa.table({"a": pa.array(a), "b": pa.array(b)})


def _ktruss_rounds_sql(k, max_r):
    """Round-unrolled peel (materialized): support via the
    both-direction wedge join, HAVING >= k-2 keeps the edge. Extra
    rounds past the fixed point are no-ops."""
    parts = ["t0 AS MATERIALIZED (SELECT a, b FROM e0)"]
    for r in range(max_r):
        parts.append(
            f"d{r} AS MATERIALIZED (SELECT a, b FROM t{r}\n"
            f"  UNION ALL SELECT b AS a, a AS b FROM t{r})")
        parts.append(
            f"t{r + 1} AS MATERIALIZED (\n"
            f"  SELECT e.a, e.b FROM t{r} e\n"
            f"  JOIN d{r} x ON x.a = e.a\n"
            f"  JOIN d{r} y ON y.a = e.b AND y.b = x.b\n"
            f"  GROUP BY e.a, e.b HAVING count(*) >= {k - 2})")
    return ",\n".join(parts), f"t{max_r}"


_KT_CTES, _KT_FINAL = _ktruss_rounds_sql(KTRUSS_K, KTRUSS_SQL_ROUNDS)

SQL_KTRUSS_CO = f"""
WITH
{_SQL_CO_EDGES_BOTH_MAT},
{_KT_CTES}
SELECT a, b FROM {_KT_FINAL}
"""


MOD_TERMS_C = 10


def q_modularity_terms_co(sf_dir):
    """Per-community modularity terms of the deterministic partition
    ``comm = vid % 10`` on the (unweighted, deduped) co graph —
    driver-verifies the quality FORMULA itself on real graph data
    (``quality.py ModularityQuality``: term_c = w_in_c - d_c^2/(4m);
    the planted Leiden queries verify the optimiser, this verifies
    the arithmetic). Integer stats aggregate distributively (one
    small shuffle); the float term is a single deterministic IEEE
    expression per community, identical to the SQL.
    Cross-checked against the in-memory tier in
    ``tests/test_partition.py::test_modularity_terms_query_formula``."""
    edges = tg.co_edges(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        ca, cb = a % MOD_TERMS_C, b % MOD_TERMS_C
        win = np.bincount(ca[ca == cb], minlength=MOD_TERMS_C)
        dsum = (np.bincount(ca, minlength=MOD_TERMS_C)
                + np.bincount(cb, minlength=MOD_TERMS_C))
        return pa.table({
            "comm": pa.array(np.arange(MOD_TERMS_C, dtype=np.int64)),
            "w_in": pa.array(win.astype(np.int64)),
            "d_sum": pa.array(dsum.astype(np.int64)),
            "m": pa.array(np.full(MOD_TERMS_C, len(a), np.int64)),
        })

    agg = edges.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .groupby("comm").aggregate(Sum("w_in", alias_name="w_in"),
                                   Sum("d_sum", alias_name="d_sum"),
                                   Sum("m", alias_name="m"))

    def finish(t: pa.Table) -> pa.Table:
        w = t["w_in"].to_numpy(zero_copy_only=False).astype(np.float64)
        d = t["d_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        m = t["m"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "comm": pc.cast(t["comm"], pa.int64()),
            "w_in": pc.cast(t["w_in"], pa.int64()),
            "d_sum": pc.cast(t["d_sum"], pa.int64()),
            "term": pa.array(round6(w - d * d / (4.0 * m))),
        })
    return agg.map_batches(finish, batch_format="pyarrow")


SQL_MODULARITY_TERMS_CO = f"""
WITH e AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_partkey < l2.l_partkey
           GROUP BY 1, 2),
s AS (SELECT a % {MOD_TERMS_C} AS ca, b % {MOD_TERMS_C} AS cb FROM e),
m AS (SELECT count(*) AS m FROM e),
stats AS (
  SELECT comm,
         sum(CASE WHEN ca = cb AND src = 'a' THEN 1 ELSE 0 END) AS w_in,
         count(*) AS d_half
  FROM (SELECT ca AS comm, ca, cb, 'a' AS src FROM s
        UNION ALL SELECT cb, ca, cb, 'b' FROM s)
  GROUP BY comm)
SELECT comm, CAST(w_in AS BIGINT) AS w_in,
       CAST(d_half AS BIGINT) AS d_sum,
       round(w_in - (d_half * d_half) / (4.0 * m.m), 6) AS term
FROM stats, m
"""


PROFILE_COLS = ("l_quantity", "l_extendedprice", "l_discount", "l_tax")


def q_profile_lineitem(sf_dir):
    """Column-profiling operator (the 'describe' a data engine runs
    before a training job): one streaming pass computes
    count/nulls/min/max/mean for every numeric column via per-batch
    partials + a tiny driver combine. One row per column."""
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=list(PROFILE_COLS))

    def part(t: pa.Table) -> pa.Table:
        rows = {"column": [], "n": [], "n_null": [], "vmin": [],
                "vmax": [], "s": []}
        for c in PROFILE_COLS:
            col = t[c]
            x = col.to_numpy(zero_copy_only=False)
            nn = col.null_count
            v = x[~np.isnan(x)] if nn else x
            rows["column"].append(c)
            rows["n"].append(len(x))
            rows["n_null"].append(nn)
            rows["vmin"].append(float(v.min()) if len(v) else np.inf)
            rows["vmax"].append(float(v.max()) if len(v) else -np.inf)
            # exact integer-cents sum: float summation ORDER differs
            # between the engine's partials and DuckDB, which flips
            # the 6th decimal of the mean for near-boundary values
            rows["s"].append(
                int(np.round(v * 100.0).astype(np.int64).sum()))
        return pa.table({"column": pa.array(rows["column"], pa.string()),
                         "n": pa.array(rows["n"], pa.int64()),
                         "n_null": pa.array(rows["n_null"], pa.int64()),
                         "vmin": pa.array(rows["vmin"], pa.float64()),
                         "vmax": pa.array(rows["vmax"], pa.float64()),
                         "s": pa.array(rows["s"], pa.int64())})

    acc = {c: [0, 0, np.inf, -np.inf, 0] for c in PROFILE_COLS}
    for t in li.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .iter_batches(batch_format="pyarrow"):
        for c, n, nn, lo, hi, s in zip(*(t[k].to_pylist() for k in
                                         ("column", "n", "n_null",
                                          "vmin", "vmax", "s"))):
            a = acc[c]
            a[0] += n
            a[1] += nn
            a[2] = min(a[2], lo)
            a[3] = max(a[3], hi)
            a[4] += s
    cols = sorted(PROFILE_COLS)
    return pa.table({
        "column": pa.array(cols, pa.string()),
        "n_rows": pa.array([acc[c][0] for c in cols], pa.int64()),
        "n_null": pa.array([acc[c][1] for c in cols], pa.int64()),
        "vmin": pa.array([acc[c][2] for c in cols], pa.float64()),
        "vmax": pa.array([acc[c][3] for c in cols], pa.float64()),
        "mean": pa.array(
            round6(np.array([acc[c][4]
                             / (100.0 * max(acc[c][0] - acc[c][1], 1))
                             for c in cols])), pa.float64()),
    })


SQL_PROFILE_LINEITEM = """
SELECT 'l_discount' AS column, count(*) AS n_rows,
       count(*) - count(l_discount) AS n_null,
       min(l_discount) AS vmin, max(l_discount) AS vmax,
       round(sum(CAST(round(l_discount * 100) AS BIGINT))
             / (100.0 * count(l_discount)), 6) AS mean
FROM lineitem
UNION ALL
SELECT 'l_extendedprice', count(*), count(*) - count(l_extendedprice),
       min(l_extendedprice), max(l_extendedprice),
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
             / (100.0 * count(l_extendedprice)), 6)
FROM lineitem
UNION ALL
SELECT 'l_quantity', count(*), count(*) - count(l_quantity),
       min(l_quantity), max(l_quantity),
       round(sum(CAST(round(l_quantity * 100) AS BIGINT))
             / (100.0 * count(l_quantity)), 6)
FROM lineitem
UNION ALL
SELECT 'l_tax', count(*), count(*) - count(l_tax),
       min(l_tax), max(l_tax),
       round(sum(CAST(round(l_tax * 100) AS BIGINT))
             / (100.0 * count(l_tax)), 6)
FROM lineitem
"""


HARMONIC_LCM = 2329089562800  # lcm(1..30); 30 caps the BFS depth


def q_harmonic_co(sf_dir):
    """Harmonic centrality (sum of 1/d over reached vertices) for the
    same seeds as ``closeness_co``, from one multi-source BSP BFS.
    The sum is computed over a common denominator lcm(1..30) so both
    sides accumulate INTEGERS — no float-order dependence at all."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    seeds = np.flatnonzero(act)[:CLOSENESS_SEEDS].astype(np.int64)
    dist, _ = ss.multi_bfs(g, seeds)
    INF = np.iinfo(np.int64).max
    harm = np.empty(len(seeds), dtype=np.float64)
    for i in range(len(seeds)):
        d = dist[i]
        d = d[(d > 0) & (d < INF)]
        cnt = np.bincount(d)
        ds = np.flatnonzero(cnt)
        num = int((cnt[ds] * (HARMONIC_LCM // ds)).sum())
        harm[i] = float(num) / float(HARMONIC_LCM)
    return pa.table({"vid": pa.array(seeds),
                     "harmonic": pa.array(round6(harm))})


SQL_HARMONIC_CO = f"""
WITH RECURSIVE
{_SQL_CO_EDGES_BOTH},
seeds AS (SELECT a AS s FROM e GROUP BY a ORDER BY a
          LIMIT {CLOSENESS_SEEDS}),
bfs(s, v, d) AS (
  SELECT s, s, 0 FROM seeds
  UNION
  SELECT bfs.s, e.b, bfs.d + 1 FROM bfs JOIN e ON e.a = bfs.v
  WHERE bfs.d < 30
),
sd AS (SELECT s, v, min(d) AS d FROM bfs GROUP BY s, v)
SELECT s AS vid,
       round(CAST(sum({HARMONIC_LCM} // d) AS DOUBLE)
             / {HARMONIC_LCM}.0, 6) AS harmonic
FROM sd WHERE d > 0 GROUP BY s
"""


EDGE_SAMPLE_MOD = 8


def q_edges_sample_co(sf_dir):
    """Deterministic graph sampling: keep co edges whose pair-hash
    residue is 0 (1/8 rate) — reproducible across runs, shards and
    parallelism (same md5-prefix hash family as ``hash_sample``).
    Pure map stage over the edge Dataset, no shuffle."""
    import hashlib as _h
    e = tg.co_edges(sf_dir)

    def pick(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        keep = np.fromiter(
            (int(_h.md5(f"{x}_{y}".encode()).hexdigest()[:16], 16)
             % EDGE_SAMPLE_MOD == 0 for x, y in zip(a, b)),
            count=len(a), dtype=bool)
        return t.filter(pa.array(keep))

    return e.map_batches(pick, batch_format="pyarrow",
                         zero_copy_batch=True)


SQL_EDGES_SAMPLE_CO = """
WITH e AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
                  CAST(count(*) AS DOUBLE) AS weight
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_partkey < l2.l_partkey
           GROUP BY 1, 2)
SELECT a, b, weight FROM e
WHERE ('0x' || substr(md5(CAST(a AS VARCHAR) || '_'
                          || CAST(b AS VARCHAR)), 1, 16))::UBIGINT
      % 8 = 0
"""


def q_community_graph_cliques(sf_dir):
    """Coarse (community) graph after distributed Leiden on the
    planted per-nation cliques — driver-verifies the
    ``aggregate_partition`` edge contraction (membership joined to the
    edge Dataset, grouped by community pair) against a closed form:
    cliques are disjoint, so the coarse graph is pure self-loops of
    weight C(n_c, 2). Reference ``VertexPartition.py`` aggregate
    semantics; contraction runs over the edge Dataset with the
    membership broadcast once."""
    import ray as _ray
    edges = tg.nation_clique_edges(sf_dir)
    s, d, w = _planted_edges(edges)
    n = tg.supplier_count(sf_dir)
    dl = DistLeiden(s, d, weight=w, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.5, P=8, seed=42)
    mem, q, info = dl.run()
    comm = _renumber_dense(mem, n)
    ref = _ray.put(comm)

    def contract(t: pa.Table) -> pa.Table:
        c = _ray.get(ref)
        ca = c[t["src"].to_numpy(zero_copy_only=False)]
        cb = c[t["dst"].to_numpy(zero_copy_only=False)]
        tt = pa.table({"ca": pa.array(np.minimum(ca, cb)),
                       "cb": pa.array(np.maximum(ca, cb)),
                       "w": t["weight"]})
        return tt.group_by(["ca", "cb"]).aggregate([("w", "sum")]) \
            .rename_columns(["ca", "cb", "w"])

    pre = edges.map_batches(contract, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas()
    out = pre.groupby(["ca", "cb"], as_index=False)["w"].sum()
    return pa.table({
        "ca": pa.array(out["ca"].to_numpy(np.int64)),
        "cb": pa.array(out["cb"].to_numpy(np.int64)),
        "weight": pa.array(out["w"].to_numpy(np.float64)),
    })


SQL_COMMUNITY_GRAPH_CLIQUES = """
WITH sz AS (SELECT s_nationkey, count(*) AS cnt, min(s_suppkey) AS mv
            FROM supplier GROUP BY s_nationkey),
r AS (SELECT CAST(dense_rank() OVER (ORDER BY cnt DESC, mv ASC)
                  AS BIGINT) - 1 AS comm, cnt
      FROM sz)
SELECT comm AS ca, comm AS cb,
       CAST(cnt * (cnt - 1) // 2 AS DOUBLE) AS weight
FROM r WHERE cnt > 1
"""


BIPROJ_MOD = 50  # sampled projection: parts with p % 50 == 0


def q_bipartite_projection_ps(sf_dir):
    """Bipartite projection (igraph ``bipartite_projection`` parity):
    project the part-supplier bipartite graph onto parts — pairs
    sharing >=1 supplier, weight = #shared suppliers. Sampled to the
    p%50==0 part slice (both sides, part of the operator contract) so
    the pair explosion stays bounded; the full projection is the same
    plan without the filter. Distinct (part, supplier) is one
    groupby; the pair enumeration is a supplier-keyed self-join with
    per-batch pre-aggregation before the final pair groupby."""
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_suppkey"])

    def dedup_part(t: pa.Table) -> pa.Table:
        p = t["l_partkey"].to_numpy(zero_copy_only=False)
        m = (p % BIPROJ_MOD) == 0
        return t.filter(pa.array(m)) \
            .select(["l_partkey", "l_suppkey"])

    pre = li.map_batches(dedup_part, batch_format="pyarrow",
                         zero_copy_batch=True)
    distinct = pre.groupby(["l_partkey", "l_suppkey"]).aggregate(
        Count(alias_name="cnt")).drop_columns(["cnt"])
    right = distinct.map_batches(
        lambda t: t.rename_columns(["partkey_r", "l_suppkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = distinct.join(right, "inner", join_partitions(8),
                           on=("l_suppkey",))

    def pairs(t: pa.Table) -> pa.Table:
        a, b = t["l_partkey"], t["partkey_r"]
        tt = pa.table({"a": a, "b": b}).filter(pc.less(a, b))
        return tt.group_by(["a", "b"]).aggregate([([], "count_all")]) \
            .rename_columns(["a", "b", "shared_suppliers"])

    agg = joined.map_batches(pairs, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby(["a", "b"]).aggregate(
            Sum("shared_suppliers", alias_name="shared_suppliers"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": pc.cast(t["a"], pa.int64()),
            "b": pc.cast(t["b"], pa.int64()),
            "shared_suppliers": pc.cast(t["shared_suppliers"],
                                        pa.int64()),
        })
    return agg.map_batches(finish, batch_format="pyarrow")


SQL_BIPARTITE_PROJECTION_PS = f"""
WITH ps AS (SELECT l_partkey AS p, l_suppkey AS s FROM lineitem
            WHERE l_partkey % {BIPROJ_MOD} = 0 GROUP BY 1, 2)
SELECT p1.p AS a, p2.p AS b, count(*) AS shared_suppliers
FROM ps p1 JOIN ps p2 ON p1.s = p2.s AND p1.p < p2.p
GROUP BY 1, 2
"""


COND_PARTS = 8


def q_conductance_co(sf_dir):
    """Per-partition conductance on the co-purchase graph under the
    hash partitioning part(v) = v % 8 — the cut-quality diagnostic a
    partitioner/community pipeline reports (cut / min(vol, 2E - vol)).
    Per-batch 8x8 cell-count partials, tiny driver reduce; all-integer
    until the final ratio, so the match is exact."""
    e = tg.co_edges(sf_dir)

    def part(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False) % COND_PARTS
        b = t["b"].to_numpy(zero_copy_only=False) % COND_PARTS
        cnt = np.bincount(a * COND_PARTS + b,
                          minlength=COND_PARTS * COND_PARTS)
        return pa.table({"cell": pa.array(np.arange(len(cnt)),
                                          pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    m = np.zeros(COND_PARTS * COND_PARTS, dtype=np.int64)
    for t in e.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True) \
              .iter_batches(batch_format="pyarrow"):
        # np.add.at, not fancy-index +=: iter_batches may coalesce
        # blocks, producing repeated cell ids within one batch
        np.add.at(m, t["cell"].to_numpy(zero_copy_only=False),
                  t["n"].to_numpy(zero_copy_only=False))
    M = m.reshape(COND_PARTS, COND_PARTS)
    internal = np.diag(M)
    cut = M.sum(axis=0) + M.sum(axis=1) - 2 * internal
    vol = 2 * internal + cut
    tot = int(vol.sum())
    denom = np.minimum(vol, tot - vol)
    cond = np.where(denom > 0, cut / np.maximum(denom, 1), 0.0)
    return pa.table({
        "part": pa.array(np.arange(COND_PARTS), pa.int64()),
        "internal_edges": pa.array(internal, pa.int64()),
        "cut_edges": pa.array(cut, pa.int64()),
        "vol": pa.array(vol, pa.int64()),
        "conductance": pa.array(round6(cond), pa.float64()),
    })


SQL_CONDUCTANCE_CO = """
WITH e AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_partkey < l2.l_partkey
           GROUP BY 1, 2),
parts AS (SELECT UNNEST(generate_series(0, 7)) AS part),
agg AS (SELECT part,
               CAST(sum(CASE WHEN a % 8 = part AND b % 8 = part
                             THEN 1 ELSE 0 END) AS BIGINT) AS internal_edges,
               CAST(sum(CASE WHEN (a % 8 = part) <> (b % 8 = part)
                             THEN 1 ELSE 0 END) AS BIGINT) AS cut_edges
        FROM e, parts GROUP BY part),
v AS (SELECT part, internal_edges, cut_edges,
             2 * internal_edges + cut_edges AS vol
      FROM agg),
tot AS (SELECT sum(vol) AS t FROM v)
SELECT part, internal_edges, cut_edges, CAST(vol AS BIGINT) AS vol,
       CASE WHEN least(vol, tot.t - vol) > 0
            THEN round(CAST(cut_edges AS DOUBLE)
                       / least(vol, tot.t - vol), 6)
            ELSE 0.0 END AS conductance
FROM v, tot
"""


def q_edge_jaccard_co(sf_dir):
    """Per-edge neighborhood Jaccard similarity (edge embeddedness)
    on the simple co graph: support (= common-neighbor count) from the
    compact-forward wedge plan (``truss.edge_supports`` — the same
    broadcast envelope as ``triangle_count_fast``; past node memory
    the bucketed spill plan of ``triangles.triangle_count`` supplies
    the same per-edge supports), degrees from bincounts, jaccard =
    support / (deg_a + deg_b - support) as ONE integer division per
    edge — deterministic across engines. igraph similarity_jaccard
    parity for adjacent pairs."""
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
    union = deg[a] + deg[b] - sup
    return pa.table({"a": pa.array(a), "b": pa.array(b),
                     "support": pa.array(sup),
                     "jaccard": pa.array(round6(sup / union))})


SQL_EDGE_JACCARD_CO = f"""
WITH {_SQL_CO_PAIRS},
dd AS (SELECT a, b FROM e0 UNION ALL SELECT b AS a, a AS b FROM e0),
sup AS (SELECT e.a, e.b, count(*) AS sp
        FROM e0 e JOIN dd x ON x.a = e.a
                  JOIN dd y ON y.a = e.b AND y.b = x.b
        GROUP BY 1, 2),
deg AS (SELECT a AS v, count(*) AS dg FROM dd GROUP BY 1)
SELECT e.a, e.b,
       CAST(COALESCE(sup.sp, 0) AS BIGINT) AS support,
       round(COALESCE(sup.sp, 0)
             / (da.dg + db.dg - COALESCE(sup.sp, 0)), 6) AS jaccard
FROM e0 e
LEFT JOIN sup ON sup.a = e.a AND sup.b = e.b
JOIN deg da ON da.v = e.a
JOIN deg db ON db.v = e.b
"""


def q_bfs_locality_co(sf_dir):
    """WebGraph-style locality renumbering: relabel reachable
    vertices in (BFS level, old vid) order from the smallest active
    vid and report the mean absolute edge gap |id(a) - id(b)| before
    vs after — the number that drives delta-encoded adjacency
    compression (Boldi & Vigna 2004). Integer gap sums + one
    division, so the SQL twin is exact."""
    g = _co_distgraph(sf_dir)
    act = g.active_global()
    source = int(np.flatnonzero(act)[0])
    dist, _ = ss.bfs_distances(g, [source])
    INF = np.iinfo(np.int64).max
    reach = np.flatnonzero(act & (dist < INF)).astype(np.int64)
    order = reach[np.lexsort((reach, dist[reach]))]
    new_id = np.full(g.n, -1, np.int64)
    new_id[order] = np.arange(len(order), dtype=np.int64)

    t = pa.concat_tables(
        [bt for bt in tg.co_edge_rows(sf_dir).iter_batches(
            batch_size=None, batch_format="pyarrow")])
    s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(max(s.max(), d.max())) + 1
    lo, hi = np.minimum(s, d), np.maximum(s, d)
    keys = np.unique(lo[lo != hi] * np.int64(n) + hi[lo != hi])
    a, b = keys // n, keys % n
    ok = (new_id[a] >= 0) & (new_id[b] >= 0)
    a, b = a[ok], b[ok]
    gap_old = int(np.abs(a - b).sum())
    gap_new = int(np.abs(new_id[a] - new_id[b]).sum())
    m = len(a)
    return pa.table({
        "n_reachable": pa.array([len(reach)], pa.int64()),
        "n_edges": pa.array([m], pa.int64()),
        "mean_gap_old": pa.array(round6([gap_old / m])),
        "mean_gap_new": pa.array(round6([gap_new / m])),
    })


SQL_BFS_LOCALITY_CO = """
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
e AS (SELECT a, b FROM e0 UNION ALL SELECT b AS a, a AS b FROM e0),
s AS (SELECT min(a) AS v FROM e),
bfs(v, d) AS (
  SELECT v, 0 FROM s
  UNION
  SELECT e.b, bfs.d + 1 FROM bfs JOIN e ON e.a = bfs.v
  WHERE bfs.d < 30
),
lvl AS (SELECT v, min(d) AS d FROM bfs GROUP BY v),
ren AS (SELECT v, row_number() OVER (ORDER BY d, v) - 1 AS nid
        FROM lvl),
ge AS (SELECT abs(e0.a - e0.b) AS go, abs(ra.nid - rb.nid) AS gn
       FROM e0 JOIN ren ra ON ra.v = e0.a JOIN ren rb ON rb.v = e0.b)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM ren) AS n_reachable,
       CAST(count(*) AS BIGINT) AS n_edges,
       round(CAST(sum(go) AS DOUBLE) / count(*), 6) AS mean_gap_old,
       round(CAST(sum(gn) AS DOUBLE) / count(*), 6) AS mean_gap_new
FROM ge
"""


def q_avg_neighbor_degree_co(sf_dir):
    """Average neighbour degree per vertex (the knn(v) curve, the
    local form of degree assortativity): degrees broadcast once from
    the deduped edge arrays, neighbour-degree sums by vectorised
    scatter-add, ONE integer division per vertex. The companion to
    ``assortativity_co`` (global corr) at per-vertex granularity."""
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
    nsum = np.zeros(n, dtype=np.int64)
    np.add.at(nsum, a, deg[b])
    np.add.at(nsum, b, deg[a])
    vids = np.flatnonzero(deg > 0).astype(np.int64)
    return pa.table({
        "vid": pa.array(vids),
        "degree": pa.array(deg[vids]),
        "avg_nbr_deg": pa.array(round6(nsum[vids] / deg[vids])),
    })


SQL_AVG_NEIGHBOR_DEGREE_CO = f"""
WITH {_SQL_CO_PAIRS},
d2 AS (SELECT a, b FROM e0 UNION ALL SELECT b AS a, a AS b FROM e0),
deg AS (SELECT a AS v, count(*) AS dg FROM d2 GROUP BY 1)
SELECT d2.a AS vid,
       CAST(da.dg AS BIGINT) AS degree,
       round(sum(db.dg) / da.dg, 6) AS avg_nbr_deg
FROM d2 JOIN deg da ON da.v = d2.a
        JOIN deg db ON db.v = d2.b
GROUP BY d2.a, da.dg
"""


def _co_edges_decayed(sf_dir, num_partitions=16):
    """Co-occurrence edges with recency-decayed weights: each order's
    pair contributes 2^(year - 1998) (1 for the newest year down to
    1/64) — the web-crawl 'fresh links count more' weighting. Powers
    of two are exact dyadic floats, so the distributed weight sums are
    order-independent and the SQL replica exact. Plan: one
    l_orderkey hash-join attaches the order year (both sides stream;
    no driver materialisation), then the same self-join + per-batch
    pre-aggregation as ``co_edge_rows``."""
    num_partitions = join_partitions(num_partitions)
    li = tg.read_lineitem(sf_dir, ["l_orderkey", "l_partkey"])
    oy = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_orderdate"])

    def year(t: pa.Table) -> pa.Table:
        y = pc.year(t["o_orderdate"])
        return pa.table({
            "l_orderkey": t["o_orderkey"],
            "decay": pc.power(
                pa.scalar(2.0),
                pc.cast(pc.subtract(y, 1998), pa.float64())),
        })

    dated = li.join(oy.map_batches(year, batch_format="pyarrow"),
                    "inner", num_partitions, on=("l_orderkey",))
    right = li.map_batches(
        lambda t: t.rename_columns(["l_orderkey", "partkey_r"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = dated.join(right, "inner", num_partitions,
                        on=("l_orderkey",))

    def pairs(t: pa.Table) -> pa.Table:
        keep = pc.less(t["l_partkey"], t["partkey_r"])
        tt = pa.table({"src": t["l_partkey"], "dst": t["partkey_r"],
                       "weight": t["decay"]}).filter(keep)
        out = tt.group_by(["src", "dst"]).aggregate([("weight", "sum")])
        return pa.table({
            "src": pc.cast(out["src"], pa.int64()),
            "dst": pc.cast(out["dst"], pa.int64()),
            "weight": pc.cast(out["weight_sum"], pa.float64()),
        })

    return joined.map_batches(pairs, batch_format="pyarrow",
                              zero_copy_batch=True)


def q_pagerank_decayed_co(sf_dir):
    """Weighted PageRank over the recency-decayed co graph (temporal
    link-graph weighting): same BSP kernel and fixed iteration count
    as ``pagerank_co``, only the edge-weight definition changes —
    demonstrating weight plugins compose with the kernels."""
    from ..dist.blocks import symmetrize_edges
    n = int(rd.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey"]).max("p_partkey")) + 1
    edges = symmetrize_edges(_co_edges_decayed(sf_dir))
    g = DistGraph.from_dataset(edges, n=n, P=8, directed=False,
                               dedup=True)
    rank, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                          max_iter=PAGERANK_ITERS, weighted=True,
                          active=True)
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "rank": pa.array(round6(rank[vids]))})


SQL_PAGERANK_DECAYED_CO = f"""
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
              sum(power(2.0, CAST(year(o.o_orderdate) - 1998
                                  AS DOUBLE))) AS w
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       JOIN orders o ON o.o_orderkey = l1.l_orderkey
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


_BRAND_GRAPH_CACHE = {}


def q_brand_graph_co(sf_dir):
    """Contract the part co-occurrence graph to brand level (the
    host-graph contraction: url->host becomes part->brand). The
    brand lookup broadcasts once via ``ray.put``; each edge batch
    relabels vectorised and emits a fixed B*B integer partial, merged
    on the driver (bounded O(B^2) state, no shuffle) — the edge list
    never moves. Self-pairs (intra-brand edges) are kept — they are
    the intra-host link mass. Memoised per sf_dir (brand_pagerank
    reuses the contraction)."""
    if sf_dir in _BRAND_GRAPH_CACHE:
        return _BRAND_GRAPH_CACHE[sf_dir]
    import ray as _ray
    brands, lut = _brand_codes(sf_dir)
    B = len(brands)
    ref = _ray.put(lut)
    edges = tg.co_edge_rows(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        m = _ray.get(ref)
        a = m[t["src"].to_numpy(zero_copy_only=False)]
        b = m[t["dst"].to_numpy(zero_copy_only=False)]
        w = t["weight"].to_numpy(zero_copy_only=False)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        key = lo * B + hi
        # weights are integer-valued doubles (co counts): bincount in
        # int64 so the partial sums are exact and order-free
        ws = np.bincount(key, weights=w, minlength=B * B) \
            .astype(np.int64)
        nz = np.flatnonzero(ws)
        return pa.table({"key": pa.array(nz.astype(np.int64)),
                         "w": pa.array(ws[nz])})

    # merge the fixed B*B partials on the driver (bounded state; a
    # Ray Data groupby here would pay the ~12 s fixed shuffle cost
    # for a 325-row merge — CLAUDE.md hot-path rule)
    acc = np.zeros(B * B, dtype=np.int64)
    for part_t in edges.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        np.add.at(acc, part_t["key"].to_numpy(zero_copy_only=False),
                  part_t["w"].to_numpy(zero_copy_only=False))
    nz = np.flatnonzero(acc)
    out = pa.table({
        "brand_a": pa.array(brands[nz // B]),
        "brand_b": pa.array(brands[nz % B]),
        "weight": pa.array(acc[nz].astype(np.float64)),
    })
    _BRAND_GRAPH_CACHE[sf_dir] = out
    return out


def q_brand_pagerank(sf_dir):
    """Weighted PageRank over the contracted brand graph — the
    host-level PageRank workflow (contract, then rank hosts). The
    contracted graph is community-space sized, but it flows through
    the same Dataset -> DistGraph -> superstep path as the full graph
    (kernels are graph-source-agnostic), including self-loop strength
    handling the full co graph never exercises."""
    from ..dist.blocks import DistGraph

    brands, _ = _brand_codes(sf_dir)
    B = len(brands)
    t = q_brand_graph_co(sf_dir)         # memoised contraction table

    a = np.searchsorted(brands, np.asarray(t["brand_a"].to_pylist()))
    b = np.searchsorted(brands, np.asarray(t["brand_b"].to_pylist()))
    w = t["weight"].to_numpy(zero_copy_only=False)
    nl = a != b                          # self-loops stay single
    sym = pa.table({
        "src": pa.array(np.concatenate([a, b[nl]])),
        "dst": pa.array(np.concatenate([b, a[nl]])),
        "weight": pa.array(np.concatenate([w, w[nl]])),
    })
    g = DistGraph.from_dataset(
        rd.from_arrow(sym), n=B, P=4, directed=False, dedup=True)
    rank, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                          max_iter=PAGERANK_ITERS, weighted=True)
    return pa.table({"brand": pa.array(brands),
                     "rank": pa.array(round6(rank))})


SQL_BRAND_PAGERANK = f"""
WITH RECURSIVE
e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b, count(*) AS w
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
c0 AS (SELECT least(p1.p_brand, p2.p_brand) AS ba,
              greatest(p1.p_brand, p2.p_brand) AS bb,
              CAST(sum(e0.w) AS DOUBLE) AS w
       FROM e0 JOIN part p1 ON p1.p_partkey = e0.a
               JOIN part p2 ON p2.p_partkey = e0.b
       GROUP BY 1, 2),
e AS (SELECT ba AS a, bb AS b, w FROM c0
      UNION ALL
      SELECT bb, ba, w FROM c0 WHERE ba <> bb),
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
SELECT v AS brand, round(r, 6) AS rank
FROM pr WHERE i = {PAGERANK_ITERS}
"""


def _temporal_recrawl_pages(n=60, shift=5):
    """Deterministic two-epoch recrawl corpus: same urls, planted
    10-cliques shifted by ``shift`` between epochs, epoch 1 pushed
    1000 h later in ``warc_ts``. Shared by the rows-only end-to-end
    row (``pages_temporal``) and its closed-form driver-green twin
    (``pages_temporal_cliques``)."""
    from ..sources.pages import generate_pages_table

    def cliq(sh):
        s, d = [], []
        for base in range(0, n, 10):
            mem = [(base + k + sh) % n for k in range(10)]
            for i in range(10):
                for j in range(i + 1, 10):
                    s.append(mem[i])
                    d.append(mem[j])
        return np.asarray(s), np.asarray(d)

    sA, dA = cliq(0)
    sB, dB = cliq(shift)
    tabA = generate_pages_table(sA, dA, n, seed=1, dup_prob=0.0)
    tabB = generate_pages_table(sB, dB, n, seed=2, dup_prob=0.0)
    tsB = pa.array(tabB["warc_ts"].cast(pa.int64()).to_numpy()
                   + 3_600_000_000_000, pa.timestamp("us"))
    tabB = tabB.set_column(tabB.schema.get_field_index("warc_ts"),
                           "warc_ts", tsB)
    return rd.from_arrow(pa.concat_tables([tabA, tabB]))


def _temporal_communities(interslice_weight, n=60):
    """pages -> pages_temporal_graph -> temporal Leiden -> (slice,
    url, comm) with per-slice labels canonicalised by first url
    appearance (temporal vids are url-rank-ordered, so vid order IS
    url order)."""
    from ..functions_api import find_partition_temporal_dataset
    from ..stages.graph_build import pages_temporal_graph

    pages = _temporal_recrawl_pages(n)
    slices, mapping, nv, _ = pages_temporal_graph(
        pages, n_slices=2, B=4, num_partitions=8)
    mems, q, info = find_partition_temporal_dataset(
        slices, n_nodes=nv, quality="cpm", resolution_parameter=0.5,
        interslice_weight=interslice_weight, P=4, seed=3,
        n_iterations=-1)

    m = mapping.to_pandas().sort_values("vid")
    urls = m["url"].to_numpy()
    # bucket-rank vids are NOT globally url-ordered — canonicalise by
    # actual url order so the labels are id-assignment-independent
    url_order = np.argsort(urls)
    out_slice, out_url, out_comm = [], [], []
    for t in range(2):
        # canonicalise labels by first appearance in url order
        seen = {}
        for v in url_order:
            lab = int(mems[t][v])
            c = seen.setdefault(lab, len(seen))
            out_slice.append(t)
            out_url.append(urls[v])
            out_comm.append(c)
    return pa.table({
        "slice": pa.array(np.asarray(out_slice, np.int64)),
        "url": pa.array(out_url, pa.string()),
        "comm": pa.array(np.asarray(out_comm, np.int64)),
    })


def q_pages_temporal(sf_dir):
    """End-to-end crawl-snapshot communities: the two-epoch recrawl
    corpus -> ``pages_temporal_graph`` (slice spill, shared id space,
    per-slice extraction) -> ``find_partition_temporal_dataset`` with
    a small positive interslice coupling. Rows-only: the coupled
    Leiden fixed point is non-SQL; the slicing/extraction plumbing is
    oracle-checked in ``tests/test_extract.py::
    test_pages_temporal_graph_slices_recrawl`` and the SAME path is
    driver-green via the closed-form ``pages_temporal_cliques`` twin
    (interslice_weight=0)."""
    return _temporal_communities(interslice_weight=0.01)


def q_pages_temporal_cliques(sf_dir):
    """Driver-green twin of ``pages_temporal`` (reference
    ``functions.py:337-364`` slice->layer coupling): the identical
    corpus and temporal slicing path with ``interslice_weight=0``, so
    each snapshot's fixed point is CLOSED FORM — its epoch's planted
    10-cliques (CPM gamma=0.5 on disjoint cliques, decoupled layers).
    Slice 0 cliques are v // 10; slice 1 (shifted by 5) cliques are
    ((v + 55) % 60) // 10; labels are canonicalised by first url
    appearance, i.e. dense rank of each clique's min url. Urls are
    SQL-reconstructible (``url_of``: zero-padded vid), so the oracle
    needs only generate_series — the one formerly rows-only row with
    no planted twin now has one."""
    return _temporal_communities(interslice_weight=0.0)


SQL_PAGES_TEMPORAL_CLIQUES = """
WITH v AS (SELECT unnest(generate_series(0, 59)) AS v),
u AS (SELECT v, 'https://s' || lpad(CAST(v % 16 AS VARCHAR), 2, '0')
            || '.example/p' || lpad(CAST(v AS VARCHAR), 9, '0')
            || '.html' AS url,
            v // 10 AS cl0,
            ((v + 55) % 60) // 10 AS cl1
      FROM v),
r0 AS (SELECT cl0, CAST(dense_rank() OVER (ORDER BY min(url))
                        AS BIGINT) - 1 AS comm
       FROM u GROUP BY cl0),
r1 AS (SELECT cl1, CAST(dense_rank() OVER (ORDER BY min(url))
                        AS BIGINT) - 1 AS comm
       FROM u GROUP BY cl1)
SELECT CAST(0 AS BIGINT) AS slice, u.url AS url, r0.comm AS comm
FROM u JOIN r0 ON u.cl0 = r0.cl0
UNION ALL
SELECT CAST(1 AS BIGINT), u.url, r1.comm
FROM u JOIN r1 ON u.cl1 = r1.cl1
"""


# ----------------------------------------------------------------------
# cocitation / bibliographic coupling (igraph cocitation()/bibcoupling()
# parity, top pairs) over the directed item-sequence graph
# ----------------------------------------------------------------------
COCITE_DEG_CAP = 64
COCITE_TOPK = 100

# the shared directed-edge CTE every item-seq oracle uses (same total
# order as _item_seq_edges: l_linenumber ties broken on l_partkey)
_SQL_SEQ_E = """seq AS (SELECT l_partkey AS a,
               lead(l_partkey) OVER (PARTITION BY l_orderkey
                                     ORDER BY l_linenumber, l_partkey) AS b
        FROM lineitem),
e AS (SELECT DISTINCT a, b FROM seq WHERE b IS NOT NULL)"""


def _top_pairs_table(u, v, c, topk):
    """(count DESC, u ASC, v ASC) top-k — the same total order the
    oracle's ORDER BY ... LIMIT uses, so ties at the cut are stable."""
    order = np.lexsort((v, u, -c))[:topk]
    return pa.table({"u": pa.array(u[order]), "v": pa.array(v[order]),
                     "n_common": pa.array(c[order])})


def q_cocitation_items(sf_dir):
    """Cocitation counts (igraph ``Graph.cocitation`` parity, top
    pairs): cocitation(u, v) = number of pages citing BOTH u and v =
    common in-neighbours, emitted per citing source over its distinct
    out-neighbour set from the cached forward item-sequence DistGraph
    (reference workflows call igraph cocitation on the same graphs
    leidenalg partitions). Sources above COCITE_DEG_CAP out-degree are
    skipped with a drop count — the hub-page skew guard — and the SQL
    oracle applies the same filter."""
    g = _item_seq_distgraph(sf_dir)
    u, v, c, _ = _neighbor_pair_counts(g, COCITE_DEG_CAP)
    return _top_pairs_table(u, v, c, COCITE_TOPK)


SQL_COCITATION_ITEMS = f"""
WITH {_SQL_SEQ_E},
dg AS (SELECT a, count(*) AS k FROM e GROUP BY 1),
el AS (SELECT e.a, e.b FROM e JOIN dg ON dg.a = e.a
       WHERE dg.k BETWEEN 2 AND {COCITE_DEG_CAP}),
p AS (SELECT x.b AS u, y.b AS v FROM el x JOIN el y
      ON x.a = y.a AND x.b < y.b),
c AS (SELECT u, v, count(*) AS n_common FROM p GROUP BY 1, 2)
SELECT CAST(u AS BIGINT) AS u, CAST(v AS BIGINT) AS v,
       CAST(n_common AS BIGINT) AS n_common
FROM c ORDER BY n_common DESC, u, v LIMIT {COCITE_TOPK}
"""


def q_bibcoupling_items(sf_dir):
    """Bibliographic coupling (igraph ``Graph.bibcoupling`` parity,
    top pairs): coupling(u, v) = number of pages BOTH u and v cite =
    common out-neighbours — the same pair kernel run on the cached
    REVERSED item-sequence graph (out-neighbours of the reversal are
    in-neighbours, so pairs per reversed source = pairs of citers per
    cited page). Cap + oracle filter as in cocitation, applied to the
    cited page's in-degree."""
    g = _item_seq_rev_distgraph(sf_dir)
    u, v, c, _ = _neighbor_pair_counts(g, COCITE_DEG_CAP)
    return _top_pairs_table(u, v, c, COCITE_TOPK)


SQL_BIBCOUPLING_ITEMS = f"""
WITH {_SQL_SEQ_E},
dg AS (SELECT b, count(*) AS k FROM e GROUP BY 1),
el AS (SELECT e.a, e.b FROM e JOIN dg ON dg.b = e.b
       WHERE dg.k BETWEEN 2 AND {COCITE_DEG_CAP}),
p AS (SELECT x.a AS u, y.a AS v FROM el x JOIN el y
      ON x.b = y.b AND x.a < y.a),
c AS (SELECT u, v, count(*) AS n_common FROM p GROUP BY 1, 2)
SELECT CAST(u AS BIGINT) AS u, CAST(v AS BIGINT) AS v,
       CAST(n_common AS BIGINT) AS n_common
FROM c ORDER BY n_common DESC, u, v LIMIT {COCITE_TOPK}
"""


# ----------------------------------------------------------------------
# global transitivity, Dice similarity, graph summary (igraph
# transitivity_undirected / similarity_dice / summary parity)
# ----------------------------------------------------------------------

def q_k4_cliques_co(sf_dir):
    """4-clique (K4) census on the simple co graph — the next motif up
    from triangles (graphlet counting / community-density diagnostic).
    Compact-forward DAG: each K4's minimum-rank vertex sees the other
    three as a triangle inside its forward neighbourhood, so the count
    is one small dense matmul per vertex with |N+| = O(sqrt(2m))
    (``dist/triangles.k4_count_fast``); same broadcast envelope as
    ``triangle_count_fast``, partitioned variant swaps the closing
    lookup exactly as triangles does. The edge list is assembled from
    the shared deduped CSR blocks inside a worker task (driver stays
    o(E); r4 verdict item 4)."""
    import ray

    g, refs = _co_canon_refs(sf_dir)

    @ray.remote
    def run(*parts):
        from leidenalg_ray.dist.triangles import k4_count_fast
        aa = np.concatenate([p[0] for p in parts])
        bb = np.concatenate([p[1] for p in parts])
        n = int(max(aa.max(initial=-1), bb.max(initial=-1))) + 1
        return k4_count_fast(aa, bb, n, P=16)

    n_tri, n_k4 = ray.get(run.remote(*refs))
    return pa.table({"n_triangles": pa.array([n_tri], pa.int64()),
                     "n_k4": pa.array([n_k4], pa.int64())})


SQL_K4_CLIQUES_CO = """
WITH e AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_partkey < l2.l_partkey
           GROUP BY 1, 2),
tri AS (SELECT e1.a, e1.b, e2.b AS c
        FROM e e1 JOIN e e2 ON e2.a = e1.b JOIN e e3
          ON e3.a = e1.a AND e3.b = e2.b)
SELECT (SELECT count(*) FROM tri) AS n_triangles,
       (SELECT count(*) FROM tri t
          JOIN e x ON x.a = t.c
          JOIN e y ON y.a = t.b AND y.b = x.b
          JOIN e z ON z.a = t.a AND z.b = x.b) AS n_k4
"""



CONSTRAINT_PQ = 1_000_000            # p_ij fixed point (1e-6)
CONSTRAINT_TQ = 1_000_000_000        # term^2 fixed point (1e-9)


def q_constraint_co(sf_dir):
    """Burt's constraint (igraph ``constraint()`` parity, weighted):
    c_i = sum_{j in N(i)} (p_ij + sum_{q in N(i), q != i,j} p_iq
    p_qj)^2 with p_ij = w_ij / strength_i. Proportions are quantised
    to 1e-6 fixed point so every two-hop product and sum is an exact
    integer (order-independent across partitions); the squared term is
    re-quantised to 1e-9 before the per-vertex sum, so both engines
    evaluate the identical IEEE expressions (the ``doc_lm_xent``
    fixed-point pattern). Two-hop partials run as P vid-stripe tasks
    against the broadcast quantised CSR — the gate-scale form of the
    worker-to-worker wedge shipping the partitioned triangle kernel
    uses past node memory (quantisation keeps that exchange exact at
    any P). Edge arrays are assembled from the shared deduped CSR
    blocks inside a worker task (driver stays o(E); r4 verdict
    item 4)."""
    import ray

    g, refs = _co_canon_refs(sf_dir)

    @ray.remote
    def run(*parts):
        aa = np.concatenate([p[0] for p in parts])
        bb = np.concatenate([p[1] for p in parts])
        ww = np.concatenate([p[2] for p in parts])
        n = int(max(aa.max(initial=-1), bb.max(initial=-1))) + 1
        return _constraint_scores(aa, bb, ww, n)

    return ray.get(run.remote(*refs))


def _constraint_scores(aa, bb, ww, n, P=8):
    """Quantised Burt-constraint kernel over undirected weighted
    (a, b, w) edge arrays — see ``q_constraint_co``."""
    import ray
    i = np.concatenate([aa, bb])
    j = np.concatenate([bb, aa])
    w = np.concatenate([ww, ww]).astype(np.float64)
    st = np.zeros(n)
    np.add.at(st, i, w)
    pq = np.floor(w / st[i] * CONSTRAINT_PQ + 0.5).astype(np.int64)
    order = np.argsort(i, kind="stable")
    i, j, pq = i[order], j[order], pq[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, i + 1, 1)
    np.cumsum(indptr, out=indptr)
    csr_ref = ray.put((indptr, j, pq))

    @ray.remote
    def stripe(p, P):
        indptr_, j_, pq_ = ray.get(csr_ref)
        vids, cons = [], []
        acc = np.zeros(n, dtype=np.int64)
        for u in range(p, n, P):
            lo, hi = int(indptr_[u]), int(indptr_[u + 1])
            if lo == hi:
                continue
            nb, pu = j_[lo:hi], pq_[lo:hi]
            # inner[j] = sum_q p_uq * p_qj over 2-paths u -> q -> j
            segs = [(int(indptr_[q]), int(indptr_[q + 1]))
                    for q in nb]
            qj = np.concatenate([j_[a:b] for a, b in segs])
            qv = np.concatenate(
                [pq_[a:b] * pu[k] for k, (a, b) in enumerate(segs)])
            np.add.at(acc, qj, qv)
            t = pu * np.int64(CONSTRAINT_PQ) + acc[nb]
            tf = t / 1e12
            tq = np.floor(tf * tf * CONSTRAINT_TQ + 0.5) \
                .astype(np.int64)
            vids.append(u)
            cons.append(int(tq.sum()))
            acc[qj] = 0                     # sparse reset
        return (np.asarray(vids, np.int64),
                np.asarray(cons, np.int64))

    res = ray.get([stripe.remote(p, P) for p in range(P)])
    vid = np.concatenate([r[0] for r in res])
    cs = np.concatenate([r[1] for r in res])
    o = np.argsort(vid)
    return pa.table({
        "vid": pa.array(vid[o]),
        "constraint_score": pa.array(round6(cs[o] / CONSTRAINT_TQ)),
    })


SQL_CONSTRAINT_CO = f"""
WITH e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
                   count(*) AS weight
            FROM lineitem l1 JOIN lineitem l2
              ON l1.l_orderkey = l2.l_orderkey
             AND l1.l_partkey < l2.l_partkey
            GROUP BY 1, 2),
ed AS (SELECT a AS i, b AS j, weight FROM e0
       UNION ALL SELECT b, a, weight FROM e0),
s AS (SELECT i, sum(weight) AS st FROM ed GROUP BY 1),
p AS (SELECT ed.i, ed.j,
             CAST(floor(ed.weight / s.st * {CONSTRAINT_PQ} + 0.5)
                  AS BIGINT) AS pq
      FROM ed JOIN s USING (i)),
inn AS (SELECT p1.i, p2.j, sum(p1.pq * p2.pq) AS v
        FROM p p1 JOIN p p2 ON p2.i = p1.j AND p2.j <> p1.i
        GROUP BY 1, 2),
t AS (SELECT p.i,
             (p.pq * {CONSTRAINT_PQ} + COALESCE(inn.v, 0))
               / 1000000000000.0 AS tf
      FROM p LEFT JOIN inn ON inn.i = p.i AND inn.j = p.j)
SELECT CAST(i AS BIGINT) AS vid,
       round(sum(CAST(floor(tf * tf * {CONSTRAINT_TQ} + 0.5)
                      AS BIGINT)) / {CONSTRAINT_TQ}.0, 6)
         AS constraint_score
FROM t GROUP BY i
"""


def q_transitivity_global_co(sf_dir):
    """Global transitivity (igraph ``transitivity_undirected``):
    3 * triangles / wedges on the simple co graph, wedges = sum over
    vertices of C(deg, 2). Triangles from the partitioned
    compact-forward plan; the wedge sum reduces SHARD-SIDE over the
    CSR degree shards (one scalar per shard to the driver, no O(n)
    assemble)."""
    import ray
    g = _co_distgraph(sf_dir)
    n_tri = triangle_count(tg.co_edge_rows(sf_dir), num_partitions=8)

    @ray.remote
    def wedge_partial(deg):
        d = deg.astype(np.float64)
        return float((d * (d - 1.0) / 2.0).sum())

    n_wedges = int(sum(ray.get([wedge_partial.remote(r)
                                for r in g.out_deg])))
    return pa.table({
        "n_triangles": pa.array([int(n_tri)], pa.int64()),
        "n_wedges": pa.array([n_wedges], pa.int64()),
        "transitivity": pa.array(round6([3.0 * n_tri / n_wedges])),
    })


SQL_TRANSITIVITY_GLOBAL_CO = """
WITH e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
            FROM lineitem l1 JOIN lineitem l2
              ON l1.l_orderkey = l2.l_orderkey
             AND l1.l_partkey < l2.l_partkey
            GROUP BY 1, 2),
tri AS (SELECT count(*) AS t
        FROM e0 e1 JOIN e0 e2 ON e2.a = e1.b JOIN e0 e3
          ON e3.a = e1.a AND e3.b = e2.b),
deg AS (SELECT v, count(*) AS d FROM (
          SELECT a AS v FROM e0 UNION ALL SELECT b AS v FROM e0)
        GROUP BY v),
w AS (SELECT sum(d * (d - 1) // 2) AS wedges FROM deg)
SELECT CAST(tri.t AS BIGINT) AS n_triangles,
       CAST(w.wedges AS BIGINT) AS n_wedges,
       round(3.0 * tri.t / w.wedges, 6) AS transitivity
FROM tri, w
"""


SPARSIFY_K = 8


def q_graph_sparsify_co(sf_dir):
    """Top-k edge sparsification (the pre-Leiden pruning step a dense
    co-occurrence graph needs at scale): keep an undirected edge iff
    it ranks in EITHER endpoint's top-SPARSIFY_K by (weight desc,
    neighbour asc). Each vertex's full out-list is resident in its one
    CSR block (src-partitioned), so ranking is shuffle-free; blocks
    emit their kept (lo, hi, w) partials and the union dedup is one
    pair-key pass (bounded by K*V — at scale a pair-key shuffle).
    Output: edge/weight retention summary (integer weights, exact)."""
    import ray
    g = _co_distgraph(sf_dir)
    P, n = g.P, g.n

    @ray.remote
    def kept_partial(block, p):
        s = block["src_local"] * np.int64(P) + p
        d = block["dst_local"] * np.int64(P) + block["dst_part"]
        w = block["weight"].astype(np.int64)
        order = np.lexsort((d, -w, s))
        s, d, w = s[order], d[order], w[order]
        cuts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        ends = np.r_[cuts[1:], len(s)]
        rank = np.arange(len(s)) - np.repeat(cuts, ends - cuts)
        m = rank < SPARSIFY_K
        lo = np.minimum(s[m], d[m])
        hi = np.maximum(s[m], d[m])
        tot_w = int(w.sum())          # directed rows; halves global
        return lo * np.int64(n) + hi, w[m], len(s), tot_w

    res = ray.get([kept_partial.remote(g.blocks[p], p)
                   for p in range(P)])
    keys = np.concatenate([r[0] for r in res])
    ws = np.concatenate([r[1] for r in res])
    n_dir_edges = sum(r[2] for r in res)
    w_dir_total = sum(r[3] for r in res)
    uk, idx = np.unique(keys, return_index=True)
    n_edges = n_dir_edges // 2
    w_total = w_dir_total // 2
    w_kept = int(ws[idx].sum())
    return pa.table({
        "n_edges": pa.array([n_edges], pa.int64()),
        "n_kept": pa.array([len(uk)], pa.int64()),
        "w_total": pa.array([w_total], pa.int64()),
        "w_kept": pa.array([w_kept], pa.int64()),
        "edge_retention": pa.array(round6([len(uk) / n_edges])),
        "weight_retention": pa.array(round6([w_kept / w_total])),
    })


SQL_GRAPH_SPARSIFY_CO = f"""
WITH e0 AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b,
                   count(*) AS w
            FROM lineitem l1 JOIN lineitem l2
              ON l1.l_orderkey = l2.l_orderkey
             AND l1.l_partkey < l2.l_partkey
            GROUP BY 1, 2),
ed AS (SELECT a AS i, b AS j, w FROM e0
       UNION ALL SELECT b, a, w FROM e0),
r AS (SELECT i, j, w,
             row_number() OVER (PARTITION BY i
                                ORDER BY w DESC, j) AS rn
      FROM ed),
kept AS (SELECT DISTINCT least(i, j) AS lo, greatest(i, j) AS hi, w
         FROM r WHERE rn <= {SPARSIFY_K})
SELECT (SELECT CAST(count(*) AS BIGINT) FROM e0) AS n_edges,
       (SELECT CAST(count(*) AS BIGINT) FROM kept) AS n_kept,
       (SELECT CAST(sum(w) AS BIGINT) FROM e0) AS w_total,
       (SELECT CAST(sum(w) AS BIGINT) FROM kept) AS w_kept,
       round((SELECT count(*) FROM kept) * 1.0
             / (SELECT count(*) FROM e0), 6) AS edge_retention,
       round((SELECT sum(w) FROM kept) * 1.0
             / (SELECT sum(w) FROM e0), 6) AS weight_retention
"""


def q_graph_summary_co(sf_dir):
    """One-row graph summary (igraph ``summary()`` numbers) for the
    simple co graph: vertices with >= 1 edge, distinct undirected
    edges, density over active vertices, max and mean degree — all
    from per-shard degree partials (scalars to the driver)."""
    import ray
    g = _co_distgraph(sf_dir)

    @ray.remote
    def part(deg):
        act = deg > 0
        return (int(act.sum()), int(deg.sum()), int(deg.max(initial=0)))

    parts = ray.get([part.remote(r) for r in g.out_deg])
    n_v = sum(p[0] for p in parts)
    n_e = sum(p[1] for p in parts) // 2     # undirected: both dirs stored
    max_d = max(p[2] for p in parts)
    return pa.table({
        "n_vertices": pa.array([n_v], pa.int64()),
        "n_edges": pa.array([n_e], pa.int64()),
        "density": pa.array(round6([2.0 * n_e / (n_v * (n_v - 1.0))])),
        "max_degree": pa.array([max_d], pa.int64()),
        "mean_degree": pa.array(round6([2.0 * n_e / n_v])),
    })


SQL_GRAPH_SUMMARY_CO = f"""
WITH {_SQL_CO_PAIRS},
dd AS (SELECT a, b FROM e0 UNION ALL SELECT b AS a, a AS b FROM e0),
deg AS (SELECT a AS v, count(*) AS dg FROM dd GROUP BY 1),
s AS (SELECT count(*) AS n_v, sum(dg) AS sd, max(dg) AS mx FROM deg)
SELECT CAST(n_v AS BIGINT) AS n_vertices,
       CAST(sd // 2 AS BIGINT) AS n_edges,
       round(CAST(sd AS DOUBLE) / (n_v * (n_v - 1.0)), 6) AS density,
       CAST(mx AS BIGINT) AS max_degree,
       round(CAST(sd AS DOUBLE) / n_v, 6) AS mean_degree
FROM s
"""


# ----------------------------------------------------------------------
# dyad census (igraph dyad_census parity) over the directed
# precedence co graph — same graph as reciprocity_co
# ----------------------------------------------------------------------
def q_dyad_census_co(sf_dir):
    """Dyad census (igraph ``dyad_census``) of the directed precedence
    co graph: mutual / asymmetric / null unordered dyads over the
    vertices with at least one directed edge. Same one-pair-key-
    shuffle plan as ``reciprocity_co`` (per-batch direction-flag
    partials, idempotent max combine); the null count is closed-form
    C(n_active, 2) - mut - asym so no all-pairs stage exists."""
    from ray.data.aggregate import Max
    li = tg.read_lineitem(sf_dir,
                          ["l_orderkey", "l_partkey", "l_linenumber"])
    right = li.map_batches(
        lambda t: t.rename_columns(
            ["l_orderkey", "partkey_r", "linenumber_r"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = li.join(right, "inner", join_partitions(16),
                     on=("l_orderkey",))

    def pre(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.less(t["l_linenumber"], t["linenumber_r"]),
                       pc.not_equal(t["l_partkey"], t["partkey_r"]))
        tt = t.filter(keep)
        a, b = tt["l_partkey"], tt["partkey_r"]
        g = pa.table({
            "lo": pc.min_element_wise(a, b),
            "hi": pc.max_element_wise(a, b),
            "f": pc.cast(pc.less(a, b), pa.int64()),
            "r": pc.cast(pc.greater(a, b), pa.int64()),
        }).group_by(["lo", "hi"]).aggregate([("f", "max"), ("r", "max")])
        return g.rename_columns(["lo", "hi", "f", "r"])

    agg = joined.map_batches(pre, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby(["lo", "hi"]).aggregate(Max("f", alias_name="f"),
                                         Max("r", alias_name="r"))

    mut = asym = 0
    vids: set[int] = set()
    for t in agg.iter_batches(batch_format="pyarrow"):
        f = t["f"].to_numpy(zero_copy_only=False)
        r = t["r"].to_numpy(zero_copy_only=False)
        mut += int(((f == 1) & (r == 1)).sum())
        asym += int((f + r == 1).sum())
        vids.update(t["lo"].to_pylist())
        vids.update(t["hi"].to_pylist())
    n = len(vids)
    return pa.table({
        "mut": pa.array([mut], pa.int64()),
        "asym": pa.array([asym], pa.int64()),
        "null_dyads": pa.array([n * (n - 1) // 2 - mut - asym],
                               pa.int64()),
    })


SQL_DYAD_CENSUS_CO = """
WITH d AS (SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_linenumber < l2.l_linenumber
            AND l1.l_partkey <> l2.l_partkey),
p AS (SELECT least(a, b) AS lo, greatest(a, b) AS hi,
             max(CASE WHEN a < b THEN 1 ELSE 0 END) AS f,
             max(CASE WHEN a > b THEN 1 ELSE 0 END) AS r
      FROM d GROUP BY 1, 2),
v AS (SELECT count(DISTINCT x) AS n FROM (
        SELECT lo AS x FROM p UNION SELECT hi FROM p)),
s AS (SELECT sum(CASE WHEN f = 1 AND r = 1 THEN 1 ELSE 0 END) AS mut,
             sum(CASE WHEN f + r = 1 THEN 1 ELSE 0 END) AS asym
      FROM p)
SELECT CAST(s.mut AS BIGINT) AS mut,
       CAST(s.asym AS BIGINT) AS asym,
       CAST(v.n * (v.n - 1) // 2 - s.mut - s.asym AS BIGINT)
           AS null_dyads
FROM s, v
"""


def _co_brand_pair_counts(sf_dir):
    """(B, B) int64 brand-pair endpoint counts over the deduped
    DIRECTED co edge set (blocks hold both directions, so each
    undirected edge contributes one count per orientation — exactly
    the doubled mixing-matrix convention nominal assortativity uses).
    One per-block bincount task per partition, B*B integers to the
    driver, brand LUT broadcast once."""
    import ray as _ray
    g = _co_distgraph(sf_dir)
    brands, lut = _brand_codes(sf_dir)
    B = len(brands)
    P = g.P
    lut_ref = _ray.put(lut)

    @_ray.remote
    def counts(block, lut_, p):
        src_g = block["src_local"] * P + p
        dst_g = block["dst_local"] * P + block["dst_part"]
        key = lut_[src_g] * B + lut_[dst_g]
        return np.bincount(key, minlength=B * B).astype(np.int64)

    parts = _ray.get([counts.remote(g.blocks[p], lut_ref, p)
                      for p in range(P)])
    return brands, sum(parts).reshape(B, B)


def q_assortativity_nominal_co(sf_dir):
    """Nominal (categorical) assortativity of the co graph by part
    brand — igraph ``assortativity_nominal`` parity: r = (sum_i e_ii
    - sum_i a_i^2) / (1 - sum_i a_i^2) over the edge-endpoint mixing
    matrix. Computed from all-integer brand-pair counts (per-block
    bincounts, B^2 driver state) with ONE final float division:
    r = (T*same - sum_A^2) / (T^2 - sum_A^2)."""
    _, E = _co_brand_pair_counts(sf_dir)
    T = int(E.sum())
    same = int(np.trace(E))
    a = E.sum(axis=1)
    sa2 = int((a.astype(object) ** 2).sum())
    r = (T * same - sa2) / (T * T - sa2)
    return pa.table({
        "r_nominal": pa.array(round6(np.array([r]))),
        "n_endpoints": pa.array([T], pa.int64()),
        "same_brand": pa.array([same], pa.int64()),
    })


SQL_ASSORT_NOMINAL_CO = f"""
WITH {_SQL_CO_PAIRS},
dd AS (SELECT a, b FROM e0 UNION ALL SELECT b AS a, a AS b FROM e0),
m AS (SELECT pa.p_brand AS ba, pb.p_brand AS bb, count(*) AS c
      FROM dd JOIN part pa ON pa.p_partkey = dd.a
              JOIN part pb ON pb.p_partkey = dd.b
      GROUP BY 1, 2),
t AS (SELECT sum(c) AS T,
             sum(CASE WHEN ba = bb THEN c ELSE 0 END) AS same FROM m),
arow AS (SELECT ba, sum(c) AS av FROM m GROUP BY 1),
s AS (SELECT sum(av * av) AS sa2 FROM arow)
SELECT round((t.T * t.same - s.sa2) * 1.0
             / (t.T * t.T - s.sa2), 6) AS r_nominal,
       CAST(t.T AS BIGINT) AS n_endpoints,
       CAST(t.same AS BIGINT) AS same_brand
FROM t, s
"""


TRIAD_LABELS = ("003", "012", "102", "021D", "021U", "021C", "111D",
                "111U", "030T", "030C", "201", "120D", "120U", "120C",
                "210", "300")


def q_triad_census_co(sf_dir):
    """Full directed triad census (igraph ``triad_census``, all 16
    MAN classes) of the precedence co graph, over the active vertex
    set (vertices with at least one directed edge — the same
    convention as ``dyad_census_co``).

    Decomposition (no all-triples stage anywhere):
    - 3-linked classes (030T/030C/120*/210/300) from the
      compact-forward triangle enumeration with dyad codes broadcast
      (``triangles.triad_triangle_census``), which also returns how
      many wedges of each 2-dyad class its triangles contain;
    - 2-linked classes (021*/111*/201) = closed-form per-vertex
      (mutual, asym-in, asym-out) wedge formulas minus those
      triangle-interior wedges;
    - 1-linked classes (012/102) per dyad from linked degrees and the
      per-edge common-neighbour supports (``truss.edge_supports`` —
      the edge_jaccard plan);
    - 003 = C(n,3) minus everything else.
    Verified against an independent per-triple brute-force classifier
    in ``tests/test_dist.py::test_triad_census_matches_bruteforce``."""
    from ray.data.aggregate import Max
    from ..dist.triangles import (triad_triangle_census,
                                  TRIAD_L3_LABELS, TRIAD_WEDGE_LABELS)
    from ..dist.truss import edge_supports
    li = tg.read_lineitem(sf_dir,
                          ["l_orderkey", "l_partkey", "l_linenumber"])
    right = li.map_batches(
        lambda t: t.rename_columns(
            ["l_orderkey", "partkey_r", "linenumber_r"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = li.join(right, "inner", join_partitions(16),
                     on=("l_orderkey",))

    def pre(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.less(t["l_linenumber"], t["linenumber_r"]),
                       pc.not_equal(t["l_partkey"], t["partkey_r"]))
        tt = t.filter(keep)
        a, b = tt["l_partkey"], tt["partkey_r"]
        g = pa.table({
            "lo": pc.min_element_wise(a, b),
            "hi": pc.max_element_wise(a, b),
            "f": pc.cast(pc.less(a, b), pa.int64()),
            "r": pc.cast(pc.greater(a, b), pa.int64()),
        }).group_by(["lo", "hi"]).aggregate([("f", "max"), ("r", "max")])
        return g.rename_columns(["lo", "hi", "f", "r"])

    agg = joined.map_batches(pre, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby(["lo", "hi"]).aggregate(Max("f", alias_name="f"),
                                         Max("r", alias_name="r")) \
        .to_pandas()
    lo = agg["lo"].to_numpy(np.int64)
    hi = agg["hi"].to_numpy(np.int64)
    f = agg["f"].to_numpy(np.int64)
    r = agg["r"].to_numpy(np.int64)
    code = np.where((f == 1) & (r == 1), 3, np.where(f == 1, 1, 2)) \
        .astype(np.int64)
    n_raw = int(hi.max()) + 1 if len(hi) else 0
    verts = np.unique(np.concatenate([lo, hi]))
    N = len(verts)
    cl = np.searchsorted(verts, lo)
    ch = np.searchsorted(verts, hi)
    m_v = np.bincount(cl[code == 3], minlength=N) \
        + np.bincount(ch[code == 3], minlength=N)
    i_v = np.bincount(cl[code == 2], minlength=N) \
        + np.bincount(ch[code == 1], minlength=N)
    o_v = np.bincount(cl[code == 1], minlength=N) \
        + np.bincount(ch[code == 2], minlength=N)
    W = {"021D": int((o_v * (o_v - 1) // 2).sum()),
         "021U": int((i_v * (i_v - 1) // 2).sum()),
         "021C": int((i_v * o_v).sum()),
         "111D": int((m_v * i_v).sum()),
         "111U": int((m_v * o_v).sum()),
         "201": int((m_v * (m_v - 1) // 2).sum())}
    l3, wd = triad_triangle_census(lo, hi, code, n=n_raw, P=16)
    sup = edge_supports(cl, ch, N, P=8)
    dL = m_v + i_v + o_v
    nulls = (N - 2) - (dL[cl] - 1) - (dL[ch] - 1) + sup
    out = {lab: int(l3[k]) for k, lab in enumerate(TRIAD_L3_LABELS)}
    for k, lab in enumerate(TRIAD_WEDGE_LABELS):
        out[lab] = W[lab] - int(wd[k])
    out["012"] = int(nulls[code != 3].sum())
    out["102"] = int(nulls[code == 3].sum())
    out["003"] = N * (N - 1) * (N - 2) // 6 - sum(out.values())
    return pa.table({
        "clazz": pa.array(list(TRIAD_LABELS)),
        "cnt": pa.array([out[c] for c in TRIAD_LABELS], pa.int64()),
    })


_TRIAD_CORNER_CLS = """CASE WHEN m{k} = 2 THEN '201'
         WHEN m{k} = 1 AND i{k} = 1 THEN '111D'
         WHEN m{k} = 1 THEN '111U'
         WHEN i{k} = 2 THEN '021U'
         WHEN o{k} = 2 THEN '021D'
         ELSE '021C' END"""

SQL_TRIAD_CENSUS_CO = f"""
WITH d AS (SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_linenumber < l2.l_linenumber
            AND l1.l_partkey <> l2.l_partkey),
p AS (SELECT least(a, b) AS lo, greatest(a, b) AS hi,
             max(CASE WHEN a < b THEN 1 ELSE 0 END) AS fw,
             max(CASE WHEN a > b THEN 1 ELSE 0 END) AS rv
      FROM d GROUP BY 1, 2),
c AS MATERIALIZED (SELECT lo, hi,
       CASE WHEN fw = 1 AND rv = 1 THEN 3
            WHEN fw = 1 THEN 1 ELSE 2 END AS code FROM p),
nv AS (SELECT count(DISTINCT x) AS n FROM (
         SELECT lo AS x FROM c UNION SELECT hi FROM c)),
inc AS (SELECT lo AS v,
               CASE WHEN code = 3 THEN 1 ELSE 0 END AS m,
               CASE WHEN code = 2 THEN 1 ELSE 0 END AS i,
               CASE WHEN code = 1 THEN 1 ELSE 0 END AS o
        FROM c
        UNION ALL
        SELECT hi AS v,
               CASE WHEN code = 3 THEN 1 ELSE 0 END,
               CASE WHEN code = 1 THEN 1 ELSE 0 END,
               CASE WHEN code = 2 THEN 1 ELSE 0 END
        FROM c),
vio AS MATERIALIZED (SELECT v, sum(m) AS m, sum(i) AS i, sum(o) AS o
                     FROM inc GROUP BY 1),
w AS (SELECT sum(o * (o - 1) // 2) AS w021d,
             sum(i * (i - 1) // 2) AS w021u,
             sum(i * o) AS w021c, sum(m * i) AS w111d,
             sum(m * o) AS w111u,
             sum(m * (m - 1) // 2) AS w201 FROM vio),
dd AS (SELECT lo AS x, hi AS y FROM c
       UNION ALL SELECT hi, lo FROM c),
sup AS (SELECT e.lo, e.hi, count(*) AS cn
        FROM c e JOIN dd s1 ON s1.x = e.lo
                 JOIN dd s2 ON s2.x = e.hi AND s2.y = s1.y
        GROUP BY 1, 2),
l1 AS (SELECT
         sum(CASE WHEN c.code <> 3 THEN
               (nv.n - 2) - (du.m + du.i + du.o - 1)
               - (dv.m + dv.i + dv.o - 1) + COALESCE(sup.cn, 0)
             ELSE 0 END) AS n012,
         sum(CASE WHEN c.code = 3 THEN
               (nv.n - 2) - (du.m + du.i + du.o - 1)
               - (dv.m + dv.i + dv.o - 1) + COALESCE(sup.cn, 0)
             ELSE 0 END) AS n102
       FROM c
       JOIN vio du ON du.v = c.lo
       JOIN vio dv ON dv.v = c.hi
       LEFT JOIN sup ON sup.lo = c.lo AND sup.hi = c.hi, nv),
tri AS (SELECT e1.code AS c12, e2.code AS c13, e3.code AS c23
        FROM c e1 JOIN c e2 ON e2.lo = e1.lo AND e2.hi > e1.hi
                  JOIN c e3 ON e3.lo = e1.hi AND e3.hi = e2.hi),
tstat AS MATERIALIZED (SELECT
    (CASE WHEN c12 = 3 THEN 1 ELSE 0 END
     + CASE WHEN c13 = 3 THEN 1 ELSE 0 END) AS m1,
    (CASE WHEN c12 = 2 THEN 1 ELSE 0 END
     + CASE WHEN c13 = 2 THEN 1 ELSE 0 END) AS i1,
    (CASE WHEN c12 = 1 THEN 1 ELSE 0 END
     + CASE WHEN c13 = 1 THEN 1 ELSE 0 END) AS o1,
    (CASE WHEN c12 = 3 THEN 1 ELSE 0 END
     + CASE WHEN c23 = 3 THEN 1 ELSE 0 END) AS m2,
    (CASE WHEN c12 = 1 THEN 1 ELSE 0 END
     + CASE WHEN c23 = 2 THEN 1 ELSE 0 END) AS i2,
    (CASE WHEN c12 = 2 THEN 1 ELSE 0 END
     + CASE WHEN c23 = 1 THEN 1 ELSE 0 END) AS o2,
    (CASE WHEN c13 = 3 THEN 1 ELSE 0 END
     + CASE WHEN c23 = 3 THEN 1 ELSE 0 END) AS m3,
    (CASE WHEN c13 = 1 THEN 1 ELSE 0 END
     + CASE WHEN c23 = 1 THEN 1 ELSE 0 END) AS i3,
    (CASE WHEN c13 = 2 THEN 1 ELSE 0 END
     + CASE WHEN c23 = 2 THEN 1 ELSE 0 END) AS o3,
    (CASE WHEN c12 = 3 THEN 1 ELSE 0 END
     + CASE WHEN c13 = 3 THEN 1 ELSE 0 END
     + CASE WHEN c23 = 3 THEN 1 ELSE 0 END) AS mm
  FROM tri),
tcls AS (SELECT CASE
           WHEN mm = 3 THEN '300'
           WHEN mm = 2 THEN '210'
           WHEN mm = 1 THEN
             CASE WHEN (CASE WHEN m1 = 0 THEN o1
                             WHEN m2 = 0 THEN o2 ELSE o3 END) = 2
                    THEN '120D'
                  WHEN (CASE WHEN m1 = 0 THEN i1
                             WHEN m2 = 0 THEN i2 ELSE i3 END) = 2
                    THEN '120U'
                  ELSE '120C' END
           ELSE CASE WHEN i1 = 1 AND o1 = 1 AND i2 = 1 AND o2 = 1
                     THEN '030C' ELSE '030T' END
         END AS cls FROM tstat),
l3 AS (SELECT cls, count(*) AS n FROM tcls GROUP BY 1),
wdec AS (SELECT cls, count(*) AS n FROM (
           SELECT {_TRIAD_CORNER_CLS.format(k=1)} AS cls FROM tstat
           UNION ALL
           SELECT {_TRIAD_CORNER_CLS.format(k=2)} FROM tstat
           UNION ALL
           SELECT {_TRIAD_CORNER_CLS.format(k=3)} FROM tstat)
         GROUP BY 1),
base AS (
  SELECT '012' AS clazz, (SELECT n012 FROM l1) AS cnt
  UNION ALL SELECT '102', (SELECT n102 FROM l1)
  UNION ALL SELECT '021D', (SELECT w021d FROM w)
    - COALESCE((SELECT n FROM wdec WHERE cls = '021D'), 0)
  UNION ALL SELECT '021U', (SELECT w021u FROM w)
    - COALESCE((SELECT n FROM wdec WHERE cls = '021U'), 0)
  UNION ALL SELECT '021C', (SELECT w021c FROM w)
    - COALESCE((SELECT n FROM wdec WHERE cls = '021C'), 0)
  UNION ALL SELECT '111D', (SELECT w111d FROM w)
    - COALESCE((SELECT n FROM wdec WHERE cls = '111D'), 0)
  UNION ALL SELECT '111U', (SELECT w111u FROM w)
    - COALESCE((SELECT n FROM wdec WHERE cls = '111U'), 0)
  UNION ALL SELECT '201', (SELECT w201 FROM w)
    - COALESCE((SELECT n FROM wdec WHERE cls = '201'), 0)
  UNION ALL SELECT '030T',
    COALESCE((SELECT n FROM l3 WHERE cls = '030T'), 0)
  UNION ALL SELECT '030C',
    COALESCE((SELECT n FROM l3 WHERE cls = '030C'), 0)
  UNION ALL SELECT '120D',
    COALESCE((SELECT n FROM l3 WHERE cls = '120D'), 0)
  UNION ALL SELECT '120U',
    COALESCE((SELECT n FROM l3 WHERE cls = '120U'), 0)
  UNION ALL SELECT '120C',
    COALESCE((SELECT n FROM l3 WHERE cls = '120C'), 0)
  UNION ALL SELECT '210',
    COALESCE((SELECT n FROM l3 WHERE cls = '210'), 0)
  UNION ALL SELECT '300',
    COALESCE((SELECT n FROM l3 WHERE cls = '300'), 0))
SELECT clazz, CAST(cnt AS BIGINT) AS cnt FROM base
UNION ALL
SELECT '003', CAST((SELECT n * (n - 1) * (n - 2) // 6 FROM nv)
                   - (SELECT sum(cnt) FROM base) AS BIGINT)
"""


# ----------------------------------------------------------------------
# local community detection: ACL PPR push + conductance sweep
# ----------------------------------------------------------------------
def q_ppr_local_cliques(sf_dir):
    """ACL local community (PPR push + sweep, Andersen-Chung-Lang
    FOCS'06) on the planted nation cliques, seed = supplier 0: the
    sweep-minimum-conductance set is EXACTLY supplier 0's nation
    clique — its conductance is 0 (the clique is a whole component)
    and every proper prefix has positive cut, so the oracle is closed
    form and independent of float score ordering. Driver state is the
    push support only (bounded by 1/(eps*alpha), o(n))."""
    from ..dist.ppr import ppr_local_community
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    g = DistGraph.from_edges(s, d, weight=w, n=n, P=8,
                             directed=False, both_directions=True)
    members, phi, _, _ = ppr_local_community(g, seed=0, alpha=0.15,
                                             eps=1e-7)
    assert phi == 0.0, "planted clique component must sweep to phi=0"
    return pa.table({"vid": pa.array(members)})


SQL_PPR_LOCAL_CLIQUES = """
SELECT CAST(s_suppkey AS BIGINT) AS vid
FROM supplier
WHERE s_nationkey = (SELECT s_nationkey FROM supplier
                     WHERE s_suppkey = 0)
"""


def q_ppr_local_co(sf_dir):
    """ACL local community around vertex 0 of the real co graph —
    the seeded-expansion form of community detection (iterative +
    sweep, not SQL-expressible; the planted twin ``ppr_local_cliques``
    is the driver-green closed form). Output: members with their
    (rounded) PPR mass."""
    from ..dist.ppr import ppr_local_community
    g = _co_distgraph(sf_dir)
    members, phi, p_map, _ = ppr_local_community(g, seed=0,
                                                 alpha=0.15, eps=1e-5)
    return pa.table({
        "vid": pa.array(members),
        "ppr": pa.array(round6([p_map[int(v)] for v in members])),
    })


# ----------------------------------------------------------------------
# WARC ingestion under the gate: CC-layout shard -> extraction ->
# edge table, against a closed-form oracle
# ----------------------------------------------------------------------
def q_edges_warc_cliques(sf_dir):
    """End-to-end WARC ingestion: the planted six-10-clique corpus is
    written as a per-record-gzip WARC shard (the Common Crawl layout),
    read back through ``read_pages_warc``, link-extracted by the REAL
    extractor, and deduped to the weighted edge table — which the
    closed form pins to exactly the 540 in-clique ordered pairs at
    weight 1. Exercises the whole crawl-archive -> graph path the
    input_hint describes."""
    import tempfile

    from ..sources.pages import generate_pages_table
    from ..sources.warc import read_pages_warc, write_warc
    from ..stages.extract import extract_dataset, links_of

    n = 60
    ii, jj = np.meshgrid(np.arange(10), np.arange(10))
    keep = ii.ravel() != jj.ravel()
    bi, bj = ii.ravel()[keep], jj.ravel()[keep]
    src = np.concatenate([bi + 10 * c for c in range(6)])
    dst = np.concatenate([bj + 10 * c for c in range(6)])
    pages_t = generate_pages_table(src, dst, n, seed=1, dup_prob=0.0)
    with tempfile.TemporaryDirectory(prefix="lray_warc_") as d:
        shard = f"{d}/planted.warc.gz"
        write_warc(pages_t, shard, per_record_gzip=True)
        pages = read_pages_warc([shard])
        links = links_of(extract_dataset(pages, concurrency=4,
                                         batch_size=16))

        def pre(t: pa.Table) -> pa.Table:
            tt = t.filter(pc.starts_with(t["dst_url"], "https://s"))
            g = pa.table({"src_url": tt["src_url"],
                          "dst_url": tt["dst_url"]}) \
                .group_by(["src_url", "dst_url"]) \
                .aggregate([([], "count_all")])
            return g.rename_columns(["src_url", "dst_url", "weight"])

        agg = links.map_batches(pre, batch_format="pyarrow") \
            .to_pandas().groupby(["src_url", "dst_url"],
                                 as_index=False)["weight"].sum()
    return pa.table({
        "src_url": pa.array(agg["src_url"], pa.string()),
        "dst_url": pa.array(agg["dst_url"], pa.string()),
        "weight": pa.array(agg["weight"].to_numpy(np.int64)),
    })


SQL_EDGES_WARC_CLIQUES = """
WITH v AS (SELECT unnest(generate_series(0, 59)) AS v),
u AS (SELECT v, 'https://s' || lpad(CAST(v % 16 AS VARCHAR), 2, '0')
            || '.example/p' || lpad(CAST(v AS VARCHAR), 9, '0')
            || '.html' AS url
      FROM v)
SELECT a.url AS src_url, b.url AS dst_url, CAST(1 AS BIGINT) AS weight
FROM u a JOIN u b
  ON a.v // 10 = b.v // 10 AND a.v <> b.v
"""


MATCH_SQL_ROUNDS = 14


def q_matching_co(sf_dir):
    """Greedy maximal matching on the co graph via locally-dominant
    edges (``superstep.maximal_matching``): per round every active
    vertex points at its minimum-key incident edge and an edge that
    is the minimum at BOTH endpoints matches — exactly the sequential
    greedy matching in ascending ``match_key`` order (greedy matching
    is confluent), which the round-unrolled SQL oracle replicates.
    Output = one row per matched vertex (both directions present)."""
    g = _co_distgraph(sf_dir)
    partner, rounds = ss.maximal_matching(g)
    assert rounds <= MATCH_SQL_ROUNDS, \
        f"matching took {rounds} rounds; raise MATCH_SQL_ROUNDS"
    vids = np.flatnonzero(partner >= 0).astype(np.int64)
    return pa.table({"vid": pa.array(vids),
                     "partner": pa.array(partner[vids])})


def _matching_rounds_sql(max_r):
    """Round-unrolled locally-dominant-edge oracle: ae = active
    edges with the engine's packed key, vm = per-vertex minima, d =
    edges minimal at both endpoints (both directions land in d since
    e carries both). Extra rounds no-op once a is empty."""
    key = ("((((least(e.a, e.b) % 1000003) * 7919 + "
           "(greatest(e.a, e.b) % 1000003) * 104729) % 1000003) "
           "* 4000000000000 + least(e.a, e.b) * 2000000 "
           "+ greatest(e.a, e.b))")
    parts = [
        "a0 AS MATERIALIZED (SELECT DISTINCT a AS v FROM e)",
        "m0 AS MATERIALIZED (SELECT CAST(NULL AS BIGINT) AS v, "
        "CAST(NULL AS BIGINT) AS partner WHERE FALSE)",
    ]
    for r in range(max_r):
        parts.append(
            f"ae{r} AS MATERIALIZED (SELECT e.a, e.b, {key} AS k\n"
            f"  FROM e JOIN a{r} x ON x.v = e.a\n"
            f"         JOIN a{r} y ON y.v = e.b\n"
            f"  WHERE e.a <> e.b)")
        parts.append(
            f"vm{r} AS MATERIALIZED (SELECT a AS v, min(k) AS km\n"
            f"  FROM ae{r} GROUP BY a)")
        parts.append(
            f"d{r} AS MATERIALIZED (SELECT ae.a AS v, ae.b AS partner\n"
            f"  FROM ae{r} ae\n"
            f"  JOIN vm{r} va ON va.v = ae.a AND va.km = ae.k\n"
            f"  JOIN vm{r} vb ON vb.v = ae.b AND vb.km = ae.k)")
        parts.append(
            f"m{r + 1} AS MATERIALIZED (SELECT v, partner FROM m{r}\n"
            f"  UNION ALL SELECT v, partner FROM d{r})")
        parts.append(
            f"a{r + 1} AS MATERIALIZED (SELECT v FROM a{r}\n"
            f"  WHERE v NOT IN (SELECT v FROM d{r}))")
    return ",\n".join(parts), f"m{max_r}"


_MATCH_CTES, _MATCH_FINAL = _matching_rounds_sql(MATCH_SQL_ROUNDS)

SQL_MATCHING_CO = f"""
WITH
{_SQL_CO_EDGES_BOTH_MAT},
{_MATCH_CTES}
SELECT v AS vid, partner FROM {_MATCH_FINAL}
"""


def _mst_by_nation(edges_ds, sf_dir):
    """Shared tail of the planted MSF queries: run the distributed
    Borůvka kernel (``dist/mst.py``) over the planted per-nation
    graph, then aggregate the emitted forest edges by the nation of
    their endpoints (both endpoints share a nation by construction —
    the planted graphs never cross nations)."""
    from ..dist.blocks import symmetrize_edges
    from ..dist.mst import minimum_spanning_forest

    n = tg.supplier_count(sf_dir)
    g = DistGraph.from_dataset(symmetrize_edges(edges_ds), n=n, P=8,
                               directed=False)
    info, _ = minimum_spanning_forest(g)
    su = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"]) \
        .to_pandas()
    nk = np.zeros(n, dtype=np.int64)
    nk[su["s_suppkey"].to_numpy(np.int64)] = \
        su["s_nationkey"].to_numpy(np.int64)
    nat = nk[info["u"]]
    cnt = np.bincount(nat)
    wsum = np.bincount(nat, weights=info["weight"])
    nz = np.flatnonzero(cnt)
    return pa.table({
        "nation": pa.array(nz, pa.int64()),
        "n_edges": pa.array(cnt[nz], pa.int64()),
        "mst_weight": pa.array(
            [round_half_away(x, 6) for x in wsum[nz]], pa.float64()),
    })


def q_mst_cliques(sf_dir):
    """Minimum spanning forest through the distributed Borůvka
    kernel on per-nation cliques weighted w(i,j)=min(i,j): every
    weight-m edge (m = the nation's minimum vid) is incident to m, so
    the unique MSF is the star at m with total (k-1)*m — closed-form
    in SQL from per-nation counts/minima. The tie-heavy weighting
    (all k-1 star edges share weight m) exercises the lexicographic
    tie-break; multi-round convergence is pinned by ``mst_paths`` and
    the Kruskal-oracle pytest suite (tests/test_mst.py)."""
    ed = tg.nation_clique_edges(sf_dir)

    def reweight(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        return pa.table({
            "src": t["src"], "dst": t["dst"],
            "weight": pa.array(np.minimum(s, d).astype(np.float64)),
        })

    return _mst_by_nation(
        ed.map_batches(reweight, batch_format="pyarrow",
                       zero_copy_batch=True), sf_dir)


SQL_MST_CLIQUES = """
SELECT CAST(s_nationkey AS BIGINT) AS nation,
       CAST(count(*) - 1 AS BIGINT) AS n_edges,
       ROUND(CAST((count(*) - 1) * min(s_suppkey) AS DOUBLE), 6)
           AS mst_weight
FROM supplier
GROUP BY s_nationkey
HAVING count(*) > 1
ORDER BY nation
"""


def q_mst_paths(sf_dir):
    """MSF on per-nation unit-weight paths: the forest IS the path
    set (k-1 edges, weight k-1 per nation), while Borůvka needs
    O(log k) rounds of pairwise merging to find it — the multi-round
    driver-green row for the kernel."""
    return _mst_by_nation(tg.nation_path_edges(sf_dir), sf_dir)


SQL_MST_PATHS = """
SELECT CAST(s_nationkey AS BIGINT) AS nation,
       CAST(count(*) - 1 AS BIGINT) AS n_edges,
       ROUND(CAST(count(*) - 1 AS DOUBLE), 6) AS mst_weight
FROM supplier
GROUP BY s_nationkey
HAVING count(*) > 1
ORDER BY nation
"""


PERC_BUCKETS = (64, 128, 192, 256)   # of 256 md5 buckets kept


def q_percolation_co(sf_dir):
    """Bond-percolation robustness curve of the co graph: for each
    deterministic edge-retention level (md5 bucket of the canonical
    edge key < kept/256), the retained edge count and the giant
    component size among vertices with >= 1 retained edge — the
    standard crawl-graph robustness diagnostic (how fast does the
    web graph shatter as links drop). Each level runs the SAME
    distributed min-label CC kernel on the filtered edge set; the
    oracle replays every level with the closure-recursion CC CTE.
    The md5 bucketing and the per-level orchestration run inside a
    worker task over the shared deduped CSR blocks (driver receives
    only the 3 x len(PERC_BUCKETS) scalars; r4 verdict item 4)."""
    import ray

    _, refs = _co_canon_refs(sf_dir)

    @ray.remote
    def run(*parts):
        import hashlib as _h
        a = np.concatenate([p[0] for p in parts])
        b = np.concatenate([p[1] for p in parts])
        n = int(max(a.max(initial=-1), b.max(initial=-1))) + 1 \
            if len(a) else 0
        h = np.asarray([int(_h.md5(f"{x}_{y}".encode())
                            .hexdigest()[:2], 16)
                        for x, y in zip(a, b)], dtype=np.int64)
        kept, n_edges, giant = [], [], []
        for T in PERC_BUCKETS:
            m = h < T
            g = DistGraph.from_edges(a[m], b[m], n=n, P=4,
                                     directed=False,
                                     both_directions=True)
            comp, _ = ss.connected_components(g)
            act = np.flatnonzero(g.active_global())
            labs = comp[act]
            sizes = np.unique(labs, return_counts=True)[1] \
                if len(labs) else np.array([0])
            kept.append(T)
            n_edges.append(int(m.sum()))
            giant.append(int(sizes.max()))
        return kept, n_edges, giant

    kept, n_edges, giant = ray.get(run.remote(*refs))
    return pa.table({
        "kept_buckets": pa.array(kept, pa.int64()),
        "n_edges": pa.array(n_edges, pa.int64()),
        "giant_size": pa.array(giant, pa.int64()),
    })


def _percolation_sql():
    blocks, finals = [], []
    for T in PERC_BUCKETS:
        blocks.append(f"""
ek{T} AS (SELECT a, b FROM eh WHERE h < {T}),
eek{T} AS (SELECT a, b FROM ek{T}
           UNION SELECT b AS a, a AS b FROM ek{T}),
vk{T} AS (SELECT DISTINCT a AS v FROM eek{T}),
reach{T}(v, lab) AS (
  SELECT v, v FROM vk{T}
  UNION
  SELECT e.b, r.lab FROM reach{T} r JOIN eek{T} e ON e.a = r.v
),
comp{T} AS (SELECT v, min(lab) AS lab FROM reach{T} GROUP BY v)""")
        finals.append(f"""
SELECT CAST({T} AS BIGINT) AS kept_buckets,
       (SELECT CAST(count(*) AS BIGINT) FROM ek{T}) AS n_edges,
       (SELECT CAST(coalesce(max(sz), 0) AS BIGINT)
        FROM (SELECT count(*) AS sz FROM comp{T} GROUP BY lab))
           AS giant_size""")
    return f"""
WITH RECURSIVE
e0 AS MATERIALIZED (SELECT l1.l_partkey AS a, l2.l_partkey AS b
       FROM lineitem l1 JOIN lineitem l2
         ON l1.l_orderkey = l2.l_orderkey
        AND l1.l_partkey < l2.l_partkey
       GROUP BY 1, 2),
eh AS MATERIALIZED (SELECT a, b,
        ('0x' || substr(md5(CAST(a AS VARCHAR) || '_'
                            || CAST(b AS VARCHAR)), 1, 2))::INT AS h
      FROM e0),
{",".join(blocks)}
{" UNION ALL ".join(finals)}
ORDER BY kept_buckets
"""


SQL_PERCOLATION_CO = _percolation_sql()


POWERLAW_DMIN = 5


def q_degree_powerlaw_co(sf_dir):
    """Power-law tail exponent of the co-graph degree distribution —
    the Hill / Clauset-Shalizi-Newman continuous-approximation MLE at
    a fixed cutoff: alpha = 1 + m / sum_{d_i >= dmin}
    ln(d_i / (dmin - 0.5)). The heavy-tail diagnostic every web-graph
    audit runs before trusting sampling/skew assumptions. Degrees
    come from the shared deduped CSR graph's per-shard degree arrays
    (``_co_distgraph().out_deg`` — symmetrised, so out-degree is full
    degree), combined as BOUNDED per-shard histograms: the driver
    never holds a per-vertex or per-edge array for this row (r4
    verdict item 4). The ln terms are quantised to 1e-9 fixed point
    over the degree histogram so the SQL twin reproduces the sum
    exactly (the repo's standard qln parity trick, cf. compare.py)."""
    import ray

    g = _co_distgraph(sf_dir)

    @ray.remote
    def hist(deg):
        dd_ = deg[deg > 0]
        return np.unique(dd_, return_counts=True)

    parts = ray.get([hist.remote(r) for r in g.out_deg])
    d = np.unique(np.concatenate([p[0] for p in parts]))
    nv = np.zeros(len(d), dtype=np.int64)
    for u, c in parts:
        nv[np.searchsorted(d, u)] += c
    tail = d >= POWERLAW_DMIN
    m = int(nv[tail].sum())
    qln = np.floor(np.log(d[tail].astype(np.float64)
                          / (POWERLAW_DMIN - 0.5)) * 1e9
                   + 0.5).astype(np.int64)
    s_fp = int(np.sum(nv[tail].astype(object) * qln.astype(object)))
    alpha = 0.0 if s_fp == 0 else 1.0 + float(m) / (s_fp / 1e9)
    return pa.table({
        "dmin": pa.array([POWERLAW_DMIN], pa.int64()),
        "n_tail": pa.array([m], pa.int64()),
        "alpha": pa.array([round_half_away(alpha, 6)], pa.float64()),
    })


SQL_DEGREE_POWERLAW_CO = f"""
WITH
{_SQL_CO_EDGES_BOTH},
deg AS (SELECT a AS vid, count(*) AS deg FROM e GROUP BY a),
tail AS (SELECT deg, count(*) AS nv FROM deg
         WHERE deg >= {POWERLAW_DMIN} GROUP BY deg),
s AS (SELECT sum(nv) AS m,
             sum(nv * CAST(floor(ln(CAST(deg AS DOUBLE)
                                    / {POWERLAW_DMIN - 0.5}) * 1e9
                                 + 0.5) AS BIGINT)) AS sfp
      FROM tail)
SELECT CAST({POWERLAW_DMIN} AS BIGINT) AS dmin,
       CAST(coalesce(m, 0) AS BIGINT) AS n_tail,
       ROUND(CASE WHEN coalesce(sfp, 0) = 0 THEN 0.0
             ELSE 1.0 + CAST(m AS DOUBLE)
                  / (CAST(sfp AS DOUBLE) / 1e9) END, 6) AS alpha
FROM s
"""


DOULION_BUCKETS = 256
DOULION_KEEP = 64   # p = 64/256 = 1/4; estimator scale = p^-3 = 64


def q_triangles_sampled_co(sf_dir):
    """DOULION sampled triangle count (Tsourakakis, Kang, Miller &
    Faloutsos, KDD 2009): keep each canonical co edge iff its md5
    bucket < 64/256 (p = 1/4 — deterministic hash sampling, so every
    multi-edge copy of a pair filters identically at any
    partitioning), run the SAME partitioned compact-forward kernel
    on the sparsified graph, scale by p^-3 = 64. The estimator for
    when even the >node-memory exact plan is too hot: unbiased, and
    ~p^2 of the exact plan's traffic. All-integer output."""
    import hashlib

    edges = tg.co_edge_rows(sf_dir)

    def sample(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        key = a.astype(np.int64) * (1 << 32) + b
        uk, inv = np.unique(key, return_inverse=True)
        ub = np.array([int.from_bytes(
            hashlib.md5(f"{k >> 32}:{k & 0xffffffff}".encode())
            .digest()[:4], "big") % DOULION_BUCKETS for k in uk],
            dtype=np.int64)
        keep = (ub < DOULION_KEEP)[inv]
        return t.filter(pa.array(keep))

    sampled = edges.map_batches(sample, batch_format="pyarrow",
                                zero_copy_batch=True)
    n_tri = triangle_count(sampled, num_partitions=8)
    kept = _doulion_kept_count(sf_dir)
    scale = (DOULION_BUCKETS // DOULION_KEEP) ** 3
    return pa.table({
        "n_kept_edges": pa.array([kept], pa.int64()),
        "n_sampled_triangles": pa.array([int(n_tri)], pa.int64()),
        "estimate": pa.array([int(n_tri) * scale], pa.int64()),
    })


def _doulion_kept_count(sf_dir):
    """Distinct canonical co pairs surviving the DOULION hash sample
    (shared by ``q_triangles_sampled_co``; driver sees one int)."""
    import hashlib

    df = q_edges_co(sf_dir).to_pandas()
    a = df["a"].to_numpy(np.int64)
    b = df["b"].to_numpy(np.int64)
    ub = np.array([int.from_bytes(
        hashlib.md5(f"{x}:{y}".encode()).digest()[:4], "big")
        % DOULION_BUCKETS for x, y in zip(a, b)], dtype=np.int64)
    return int((ub < DOULION_KEEP).sum())


SQL_TRIANGLES_SAMPLED_CO = f"""
WITH e AS (SELECT l1.l_partkey AS a, l2.l_partkey AS b
           FROM lineitem l1 JOIN lineitem l2
             ON l1.l_orderkey = l2.l_orderkey
            AND l1.l_partkey < l2.l_partkey
           GROUP BY 1, 2),
s AS (SELECT a, b FROM e
      WHERE ('0x' || substr(md5(CAST(a AS VARCHAR) || ':'
                                || CAST(b AS VARCHAR)), 1, 8))
              ::UBIGINT % {DOULION_BUCKETS} < {DOULION_KEEP}),
tri AS (SELECT count(*) AS c
        FROM s e1 JOIN s e2 ON e2.a = e1.b
        JOIN s e3 ON e3.a = e1.a AND e3.b = e2.b)
SELECT CAST((SELECT count(*) FROM s) AS BIGINT) AS n_kept_edges,
       CAST(tri.c AS BIGINT) AS n_sampled_triangles,
       CAST(tri.c * {(DOULION_BUCKETS // DOULION_KEEP) ** 3} AS BIGINT)
         AS estimate
FROM tri
"""


SBM_K = 8          # planted blocks
SBM_SIZE = 64      # vertices per block
SBM_PIN = 0.25     # within-block edge probability
SBM_POUT = 0.01    # cross-block edge probability


def _sbm_edges():
    """Deterministic stochastic-block-model graph: edge (u < v) iff
    md5-uniform(u, v) < p_in (same block) / p_out (cross block) —
    the standard planted-partition benchmark for community
    detection, hash-sampled so it is identical at any parallelism.
    Returns (src, dst, labels)."""
    import hashlib
    n = SBM_K * SBM_SIZE
    iu, iv = np.triu_indices(n, k=1)
    h = np.array([int(hashlib.md5(f"sbm:{u}:{v}".encode())
                      .hexdigest()[:16], 16)
                  for u, v in zip(iu, iv)], dtype=np.uint64)
    u01 = h / 2.0 ** 64
    same = (iu // SBM_SIZE) == (iv // SBM_SIZE)
    keep = np.where(same, u01 < SBM_PIN, u01 < SBM_POUT)
    labels = np.arange(n, dtype=np.int64) // SBM_SIZE
    return (iu[keep].astype(np.int64), iv[keep].astype(np.int64),
            labels)


def q_sbm_edges_planted(sf_dir):
    """The deterministic SBM generator behind
    ``sbm_leiden_recovery``, pinned cross-engine: edge totals within
    / across blocks from the identical md5-uniform sampling rule —
    the oracle replays every pair decision, so the recovery
    benchmark's input graph is itself gate-verified."""
    s, d, labels = _sbm_edges()
    same = labels[s] == labels[d]
    return pa.table({
        "n_edges": pa.array([len(s)], pa.int64()),
        "n_within": pa.array([int(same.sum())], pa.int64()),
        "n_cross": pa.array([int((~same).sum())], pa.int64()),
    })


SQL_SBM_EDGES_PLANTED = f"""
WITH p AS (SELECT u.u AS u, v.v AS v
           FROM generate_series(0, {SBM_K * SBM_SIZE - 1}) u(u),
                generate_series(0, {SBM_K * SBM_SIZE - 1}) v(v)
           WHERE u.u < v.v),
h AS (SELECT u, v, (u // {SBM_SIZE}) = (v // {SBM_SIZE}) AS same,
             ('0x' || substr(md5('sbm:' || u || ':' || v), 1, 16))
               ::UBIGINT AS hv
      FROM p),
kept AS (SELECT same FROM h
         WHERE CAST(hv AS DOUBLE) / 18446744073709551616.0
               < CASE WHEN same THEN CAST({SBM_PIN} AS DOUBLE)
                      ELSE CAST({SBM_POUT} AS DOUBLE) END)
SELECT CAST(count(*) AS BIGINT) AS n_edges,
       CAST(sum(CASE WHEN same THEN 1 ELSE 0 END) AS BIGINT)
         AS n_within,
       CAST(sum(CASE WHEN same THEN 0 ELSE 1 END) AS BIGINT)
         AS n_cross
FROM kept
"""


def q_sbm_leiden_recovery(sf_dir):
    """Planted-partition recovery benchmark: the DISTRIBUTED Leiden
    schedule must recover the ground-truth blocks of a deterministic
    hash-sampled SBM (8 blocks x 64 vertices, p_in=0.25,
    p_out=0.01 — a regime well above the detectability threshold).
    Reports blocks found, Danon-NMI / ARI vs the planted labels
    (``compare.compare_partitions``) and the CPM quality. The
    standard external-validity check every community-detection
    engine publishes (Lancichinetti & Fortunato 2009 benchmarking
    methodology); iterative => rows-only, pinned by the pytest
    NMI >= 0.95 recovery bar."""
    from ..compare import compare_partitions

    s, d, labels = _sbm_edges()
    n = SBM_K * SBM_SIZE
    dl = DistLeiden(s, d, n=n, directed=False, quality="cpm",
                    resolution_parameter=0.05, P=8, seed=42)
    mem, q, info = dl.run()
    nmi = compare_partitions(mem, labels, "nmi")
    ari = compare_partitions(mem, labels, "ari")
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "k_planted": pa.array([SBM_K], pa.int64()),
        "k_found": pa.array([int(len(np.unique(mem)))], pa.int64()),
        "nmi": pa.array([round6(nmi)], pa.float64()),
        "ari": pa.array([round6(ari)], pa.float64()),
        "quality": pa.array([round6(q)], pa.float64()),
    })


HYPERANF_ROUNDS = 8


def q_hyperanf_co(sf_dir):
    """HyperANF neighbourhood function of the co graph (Boldi, Rosa &
    Vigna 2011): NF(t) estimated from per-vertex 64-register HLL
    sketches max-merged along edges — the at-scale effective-diameter
    path covering EVERY vertex at 64 bytes/vertex (the exact-BFS
    companion is ``effective_diameter_items``; the planted SQL-green
    twin of this kernel is ``hyperanf_cliques``). Per-vertex
    estimates quantise to 1e-6 fixed point before summing, so NF is
    an exact integer sum — P-independent. Iterative (rows-only);
    pinned by a pytest serial replica and the twin."""
    g = _co_distgraph(sf_dir)
    nf_q, _ = ss.hyperanf(g, rounds=HYPERANF_ROUNDS)
    return pa.table({
        "t": pa.array(np.arange(len(nf_q), dtype=np.int64)),
        "nf": pa.array(round6(nf_q / 1e6)),
    })


def q_hyperanf_cliques(sf_dir):
    """HyperANF through the REAL distributed kernel on the planted
    per-nation cliques, where every round is closed-form: ball(v,0)
    = {v} (single-register sketch), ball(v,>=1) = v's whole clique
    (the clique's max-merged registers), and the kernel stops one
    round after the fixed point. The oracle replicates the md5
    register derivation, the max-merge, the gate-proven HLL
    estimator, the 1e-6 quantised sum, AND the changed-row stop rule
    — any drift in sketch init, merge order handling, estimator
    arithmetic or stop logic is a driver FAIL."""
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    g = DistGraph.from_edges(s, d, weight=w, n=n, P=8,
                             both_directions=True)
    nf_q, _ = ss.hyperanf(g, rounds=HYPERANF_ROUNDS)
    return pa.table({
        "t": pa.array(np.arange(len(nf_q), dtype=np.int64)),
        "nf": pa.array(round6(nf_q / 1e6)),
    })


def q_harmonic_hyperball_cliques(sf_dir):
    """HyperBall harmonic approximation through the REAL distributed
    kernel on the planted per-nation cliques — closed-form per
    vertex: ball grows {v} -> clique at t=1 and stops, so
    ``harm(v) = (est1_q(clique) - est0_q(v)) / 1e6`` exactly. The
    oracle replicates register init, max-merge, estimator,
    quantisation AND the one-round accumulator arithmetic per
    vertex."""
    s, d, w = _planted_edges(tg.nation_clique_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    g = DistGraph.from_edges(s, d, weight=w, n=n, P=8,
                             both_directions=True)
    harm, _ = ss.hyperball_harmonic(g, rounds=HYPERANF_ROUNDS)
    act = np.flatnonzero(g.active_global())
    return pa.table({
        "vid": pa.array(act.astype(np.int64)),
        "harmonic": pa.array(round6(harm[act])),
    })


def q_harmonic_hyperball_co(sf_dir):
    """HyperBall approximate harmonic centrality of the co graph —
    per-vertex closeness-family centrality for EVERY vertex at 64
    bytes/vertex (the exact companion ``harmonic_co`` ships one BFS
    per seed; this is the 100-TB path). Iterative => rows-only;
    pinned by a serial replica test, a rank-correlation check
    against the exact kernel, and the SQL-green
    ``harmonic_hyperball_cliques`` twin. Top-20 by (rounded score
    desc, vid asc)."""
    g = _co_distgraph(sf_dir)
    harm, _ = ss.hyperball_harmonic(g, rounds=HYPERANF_ROUNDS)
    act = np.flatnonzero(g.active_global())
    r6 = round6(harm[act])
    order = np.lexsort((act, -r6))[:20]
    return pa.table({
        "vid": pa.array(act[order].astype(np.int64)),
        "harmonic": pa.array(r6[order]),
    })


SQL_HARMONIC_HYPERBALL_CLIQUES = f"""
WITH ck AS (SELECT s_nationkey AS nk FROM supplier
            GROUP BY 1 HAVING count(*) >= 2),
v AS (SELECT s_suppkey AS vid, s_nationkey AS nk
      FROM supplier WHERE s_nationkey IN (SELECT nk FROM ck)),
h AS (SELECT vid, nk,
             ('0x' || substr(md5(CAST(vid AS VARCHAR)), 1, 8))
               ::UBIGINT AS h
      FROM v),
b2 AS (SELECT vid, nk, CAST(h >> 26 AS BIGINT) AS bucket,
              CASE WHEN h % 67108864 = 0 THEN 27
                   ELSE 26 - (SELECT max(kk)
                              FROM generate_series(0, 26) g(kk)
                              WHERE h % 67108864
                                    >= (CAST(1 AS BIGINT) << kk))
              END AS rho
       FROM h),
a0 AS (SELECT vid, nk, (CAST(1 AS BIGINT) << (27 - rho))
                         + CAST(63 AS BIGINT) * 134217728 AS s_int,
              CAST(63 AS BIGINT) AS v_empty
       FROM b2),
e0 AS (SELECT vid, nk, CAST(floor(
           CASE WHEN {{RAW}} <= 160.0 AND v_empty > 0
                THEN 64 * ln(64.0 / v_empty)
                ELSE {{RAW}} END * 1e6 + 0.5) AS BIGINT) AS eq
       FROM a0),
r1 AS (SELECT nk, bucket, max(rho) AS rho FROM b2 GROUP BY 1, 2),
a1 AS (SELECT nk, 64 - count(*) AS v_empty,
              sum(CAST(1 AS BIGINT) << (27 - rho))
                + (64 - count(*)) * 134217728 AS s_int
       FROM r1 GROUP BY 1),
e1 AS (SELECT nk, CAST(floor(
           CASE WHEN {{RAW}} <= 160.0 AND v_empty > 0
                THEN 64 * ln(64.0 / v_empty)
                ELSE {{RAW}} END * 1e6 + 0.5) AS BIGINT) AS eq
       FROM a1)
SELECT e0.vid, ROUND(((e1.eq - e0.eq) / 1e6) / 1, 6) AS harmonic
FROM e0 JOIN e1 USING (nk)
"""


def q_sumdist_hyperball_paths(sf_dir):
    """HyperBall total-distance (closeness numerator) through the
    REAL distributed kernel in ``weight="distance"`` mode on the
    planted per-nation paths — the MULTI-ROUND geometric-centrality
    twin (the cliques twin only exercises one round): ball(v,t) on a
    path is the position window [pos-t, pos+t], so the oracle can
    rebuild every round's sketch as a windowed register max,
    replicate the estimator, and sum the EXACT integer
    ``Δq * t`` series — any drift in round scheduling, merge,
    estimator or the integer accumulator is a driver FAIL."""
    s, d, w = _planted_edges(tg.nation_path_edges(sf_dir))
    n = tg.supplier_count(sf_dir)
    g = DistGraph.from_edges(s, d, weight=w, n=n, P=8,
                             both_directions=True)
    acc_q, _ = ss.hyperball_harmonic(g, rounds=HYPERANF_ROUNDS,
                                     weight="distance")
    act = np.flatnonzero(g.active_global())
    return pa.table({
        "vid": pa.array(act.astype(np.int64)),
        "sumdist": pa.array(round6(acc_q[act] / 1e6)),
    })


def q_closeness_hyperball_co(sf_dir):
    """HyperBall average-distance / closeness approximation of the
    co graph: ``sumdist_q`` from the distance-mode kernel over EVERY
    vertex (the exact companion ``closeness_co`` ships one BFS per
    seed). Iterative => rows-only; pinned by the multi-round
    SQL-green ``sumdist_hyperball_paths`` twin and a serial replica
    test. Top-20 most-central (smallest sumdist > 0, tie vid)."""
    g = _co_distgraph(sf_dir)
    acc_q, _ = ss.hyperball_harmonic(g, rounds=HYPERANF_ROUNDS,
                                     weight="distance")
    act = np.flatnonzero(g.active_global())
    r6 = round6(acc_q[act] / 1e6)
    pos = r6 > 0
    act, r6 = act[pos], r6[pos]
    order = np.lexsort((act, r6))[:20]
    return pa.table({
        "vid": pa.array(act[order].astype(np.int64)),
        "sumdist": pa.array(r6[order]),
    })


SQL_SUMDIST_HYPERBALL_PATHS = """
WITH ck AS (SELECT s_nationkey AS nk FROM supplier
            GROUP BY 1 HAVING count(*) >= 2),
v AS (SELECT s_suppkey AS vid, s_nationkey AS nk,
             row_number() OVER (PARTITION BY s_nationkey
                                ORDER BY s_suppkey) AS pos
      FROM supplier WHERE s_nationkey IN (SELECT nk FROM ck)),
h AS (SELECT vid, ('0x' || substr(md5(CAST(vid AS VARCHAR)), 1, 8))
               ::UBIGINT AS h
      FROM v),
b2 AS (SELECT vid, CAST(h >> 26 AS BIGINT) AS bucket,
              CASE WHEN h % 67108864 = 0 THEN 27
                   ELSE 26 - (SELECT max(kk)
                              FROM generate_series(0, 26) g(kk)
                              WHERE h % 67108864
                                    >= (CAST(1 AS BIGINT) << kk))
              END AS rho
       FROM h),
grid AS (SELECT a.vid AS v, t.t, b.bucket, max(b.rho) AS rho
         FROM v a JOIN v u ON u.nk = a.nk
         JOIN b2 b ON b.vid = u.vid
         CROSS JOIN generate_series(0, {T}) t(t)
         WHERE abs(a.pos - u.pos) <= t.t
         GROUP BY 1, 2, 3),
agg AS (SELECT v, t, 64 - count(*) AS v_empty,
               sum(CAST(1 AS BIGINT) << (27 - rho))
                 + (64 - count(*)) * 134217728 AS s_int
        FROM grid GROUP BY 1, 2),
eq AS (SELECT v, t, CAST(floor(
           CASE WHEN {RAW} <= 160.0 AND v_empty > 0
                THEN 64 * ln(64.0 / v_empty)
                ELSE {RAW} END * 1e6 + 0.5) AS BIGINT) AS eq
       FROM agg),
d AS (SELECT v, t,
             eq - lag(eq) OVER (PARTITION BY v ORDER BY t) AS dq
      FROM eq),
acc AS (SELECT v, CAST(COALESCE(sum(dq * t), 0) AS BIGINT) AS q
        FROM d WHERE t >= 1 GROUP BY v)
SELECT v AS vid, ROUND(CAST(q AS DOUBLE) / 1e6, 6) AS sumdist
FROM acc
"""


_SQL_HLL_RAW = ("((0.7213 / (1 + 1.079 / 64)) * 64 * 64)"
                " / (s_int / 134217728.0)")
SQL_SUMDIST_HYPERBALL_PATHS = SQL_SUMDIST_HYPERBALL_PATHS \
    .replace("{RAW}", _SQL_HLL_RAW).replace("{T}", str(HYPERANF_ROUNDS))
SQL_HARMONIC_HYPERBALL_CLIQUES = SQL_HARMONIC_HYPERBALL_CLIQUES \
    .replace("{RAW}", _SQL_HLL_RAW)

SQL_HYPERANF_CLIQUES = f"""
WITH ck AS (SELECT s_nationkey AS nk FROM supplier
            GROUP BY 1 HAVING count(*) >= 2),
v AS (SELECT s_suppkey AS vid, s_nationkey AS nk
      FROM supplier WHERE s_nationkey IN (SELECT nk FROM ck)),
h AS (SELECT vid, nk,
             ('0x' || substr(md5(CAST(vid AS VARCHAR)), 1, 8))
               ::UBIGINT AS h
      FROM v),
b2 AS (SELECT vid, nk, CAST(h >> 26 AS BIGINT) AS bucket,
              CASE WHEN h % 67108864 = 0 THEN 27
                   ELSE 26 - (SELECT max(kk)
                              FROM generate_series(0, 26) g(kk)
                              WHERE h % 67108864
                                    >= (CAST(1 AS BIGINT) << kk))
              END AS rho
       FROM h),
a0 AS (SELECT vid, (CAST(1 AS BIGINT) << (27 - rho))
                     + CAST(63 AS BIGINT) * 134217728 AS s_int,
              CAST(63 AS BIGINT) AS v_empty
       FROM b2),
e0 AS (SELECT vid, CAST(floor(
           CASE WHEN {_SQL_HLL_RAW} <= 160.0 AND v_empty > 0
                THEN 64 * ln(64.0 / v_empty)
                ELSE {_SQL_HLL_RAW} END * 1e6 + 0.5) AS BIGINT) AS eq
       FROM a0),
r1 AS (SELECT nk, bucket, max(rho) AS rho FROM b2 GROUP BY 1, 2),
a1 AS (SELECT nk, 64 - count(*) AS v_empty,
              sum(CAST(1 AS BIGINT) << (27 - rho))
                + (64 - count(*)) * 134217728 AS s_int
       FROM r1 GROUP BY 1),
e1 AS (SELECT nk, CAST(floor(
           CASE WHEN {_SQL_HLL_RAW} <= 160.0 AND v_empty > 0
                THEN 64 * ln(64.0 / v_empty)
                ELSE {_SQL_HLL_RAW} END * 1e6 + 0.5) AS BIGINT) AS eq
       FROM a1),
sz AS (SELECT nk, count(*) AS k FROM v GROUP BY 1),
nf0 AS (SELECT CAST(COALESCE(sum(eq), 0) AS BIGINT) AS q FROM e0),
nf1 AS (SELECT CAST(COALESCE(sum(sz.k * e1.eq), 0) AS BIGINT) AS q
        FROM e1 JOIN sz USING (nk)),
chg AS (SELECT count(*) AS c FROM (
          SELECT nk FROM b2 GROUP BY nk
          HAVING count(DISTINCT bucket * 100 + rho) >= 2))
SELECT * FROM (
  SELECT CAST(0 AS BIGINT) AS t,
         ROUND(CAST(q AS DOUBLE) / 1e6, 6) AS nf FROM nf0
  UNION ALL
  SELECT CAST(1 AS BIGINT), ROUND(CAST(q AS DOUBLE) / 1e6, 6)
  FROM nf1
  UNION ALL
  SELECT CAST(2 AS BIGINT), ROUND(CAST(q AS DOUBLE) / 1e6, 6)
  FROM nf1 WHERE (SELECT c FROM chg) > 0)
"""
