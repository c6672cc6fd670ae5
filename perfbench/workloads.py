"""The three workloads: inputs, one timed round, independent checks.

Each workload loads one layer of the engine heavily and leaves at least
one other idle:

- ``crawl-job``: the ``scripts/run_job.py`` pipeline over a synthetic
  crawl (Ray Data stages and shuffles, checkpoints, shard-side outputs,
  parquet-backed Leiden shards);
- ``co-leiden``: distributed Leiden CPM on the part co-occurrence graph,
  then the exact in-memory solver on a smaller one (no Ray Data stage,
  no BSP kernel);
- ``rmat-kernels``: BSP kernels and triangle counting on a hub-skewed
  RMAT graph, results assembled in the Ray driver process (no Ray Data
  stage, no Leiden).

A workload object makes its inputs from the seed (``make_inputs``,
timed as set-up), runs whole rounds of the same public calls
(``run_round``, timed), and checks every round's outputs against
computations made apart from the engine (``check``, untimed, after the
measurement).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import checks

# Sizes: one round of each workload takes 15-25 s at LOGICAL_CPUS
# logical CPUs on a 4-vCPU VM, and a whole run (Ray start, set-up,
# round, checks) about 40 s.
CRAWL_PAGES = 5000
CRAWL_P = 4
RMAT_SCALE = 16
RMAT_EDGE_FACTOR = 16
RMAT_P = 4
LP_ROUNDS = 20
CO_SF = 0.02
CO_SMALL_SF = 0.005
CO_P = 8
LEIDEN_SEED = 42
GAMMA = 0.5
PR_TOL = 1e-6


def read_vid_column(path, column):
    """Dense array from shard-written (vid, <column>) parquet files."""
    t = pq.read_table(path)
    vid = t["vid"].to_numpy()
    out = np.empty(len(vid), dtype=t[column].type.to_pandas_dtype())
    out[vid] = t[column].to_numpy()
    if not np.array_equal(np.sort(vid), np.arange(len(vid))):
        raise ValueError(f"{path}: vids are not 0..n-1 exactly once")
    return out


def dir_stats(path):
    """(bytes, saved steps) of a checkpoint root: file bytes on disk and
    the step number each algorithm's LATEST pointer names."""
    nbytes, steps = 0, 0
    for d, _, files in os.walk(path):
        for f in files:
            nbytes += os.path.getsize(os.path.join(d, f))
            if f == "LATEST":
                with open(os.path.join(d, f)) as fh:
                    name = fh.read().strip()
                if name.startswith("step-"):
                    steps += int(name[len("step-"):])
    return nbytes, steps


def leiden_counts(prefix, info):
    t = info["timings"]
    steps = int(info["level0_supersteps"])
    out = {f"{prefix}.{k}_s": float(t[k]) for k in (
        "step_rounds", "stats_sync", "commit", "refine", "aggregate",
        "tail")}
    out[f"{prefix}.level0_supersteps"] = steps
    out[f"{prefix}.s_per_superstep"] = float(t["local_move"]) / max(steps, 1)
    out[f"{prefix}.levels"] = len(info["levels"])
    out[f"{prefix}.communities"] = int(info["n_communities"])
    return out


# ----------------------------------------------------------------------
class CrawlJob:
    name = "crawl-job"
    setup_reps = 3
    sizes = {"pages": CRAWL_PAGES, "P": CRAWL_P}

    def make_inputs(self, ctx, rep):
        from leidenalg_ray.sources.pages import ensure_pages_corpus
        path = os.path.join(ctx.run_dir, f"pages-{rep}")
        ensure_pages_corpus(path, CRAWL_PAGES, seed=ctx.seed)
        return path

    def run_round(self, ctx, pages_dir, k):
        import ray
        import ray.data as rd

        from leidenalg_ray.dist import superstep as ss
        from leidenalg_ray.dist.blocks import DistGraph
        from leidenalg_ray.dist.leiden import DistLeiden
        from leidenalg_ray.stages.extract import extract_dataset
        from leidenalg_ray.stages.graph_build import pages_to_graph

        rec, P, J = ctx.rec, CRAWL_P, ctx.join_partitions
        work = os.path.join(ctx.run_dir, f"round-{k}")
        out = os.path.join(work, "out")
        ckpt = os.path.join(work, "ckpt")
        walls = {}
        with ctx.wall(walls, "build_s"):
            pages = rd.read_parquet(pages_dir)
            with rec.span("stages.extract.s") as c:
                ex = extract_dataset(pages, concurrency=ctx.cpus) \
                    .materialize()
                c["stages.extract.link_rows"] = ex.count() - CRAWL_PAGES
            with rec.span("stages.graph_build.s") as c:
                edges, mapping, n = pages_to_graph(
                    pages, B=32, num_partitions=J, dedup=False,
                    extracted=ex)
                edges = edges.materialize()
                mapping = mapping.materialize()
                c["stages.graph_build.edges"] = edges.count()
            with rec.span("dist.blocks.from_dataset_s") as c:
                g = DistGraph.from_dataset(
                    edges, n=n, P=P, directed=True, dedup=True,
                    spill_dir=os.path.join(work, "spill-directed"))
                g2 = DistGraph.from_dataset(
                    edges.map_batches(_both_directions,
                                      batch_format="pyarrow",
                                      zero_copy_batch=True),
                    n=n, P=P, directed=False, dedup=True,
                    spill_dir=os.path.join(work, "spill-undirected"))
                c["dist.blocks.edges"] = int(
                    sum(int(d.sum()) for d in ray.get(g.out_deg))
                    + sum(int(d.sum()) for d in ray.get(g2.out_deg)))
        with ctx.wall(walls, "ranks_s"):
            with rec.span("dist.superstep.pagerank_s") as c:
                pr, it = ss.pagerank(
                    g, tol=PR_TOL, checkpoint=ckpt,
                    result_out=os.path.join(out, "pagerank"))
                c["dist.superstep.pagerank_supersteps"] = it
                c["dist.superstep.result_rows"] = pr["rows"]
            with rec.span("dist.superstep.cc_s") as c:
                cc, it = ss.connected_components(
                    g2, checkpoint=ckpt,
                    result_out=os.path.join(out, "components"))
                c["dist.superstep.cc_supersteps"] = it
                c["dist.superstep.result_rows"] = cc["rows"]
        del g, g2
        with ctx.wall(walls, "communities_s"):
            with rec.span("dist.leiden.construct_s"):
                dl = DistLeiden.from_dataset(
                    edges, n=n, directed=False, quality="cpm",
                    resolution_parameter=GAMMA, P=P, seed=LEIDEN_SEED,
                    spill_dir=os.path.join(work, "spill-leiden"))
            with rec.span("dist.leiden.run_s") as c:
                _, q, info = dl.run(
                    checkpoint=ckpt,
                    membership_out=os.path.join(out, "communities"))
                c.update(leiden_counts("dist.leiden", info))
        _release(dl)
        mapping.write_parquet(os.path.join(out, "url_mapping"))
        nbytes, steps = dir_stats(ckpt)
        rec.add("dist.checkpoint.bytes", nbytes)
        rec.add("dist.checkpoint.steps", steps)
        walls["leiden_quality"] = float(q)
        return walls, {"dir": work, "n": n, "q": float(q),
                       "membership_rows": info["membership_rows"]}

    def reference(self, ctx, pages_dir):
        """Link rows parsed from the raw html with a regex of our own."""
        import re
        href = re.compile(rb'href="(https?://[^"]*)"')
        t = pq.read_table(pages_dir, columns=["url", "html"])
        urls = t["url"].to_pylist()
        src, dst = [], []
        for u, h in zip(urls, t["html"].to_pylist()):
            for m in href.finditer(h):
                src.append(u)
                dst.append(m.group(1).decode())
        return {"urls": urls, "src": src, "dst": dst}

    def check(self, ctx, ref, out):
        problems = []
        work, n = out["dir"], out["n"]
        m = pq.read_table(os.path.join(work, "out", "url_mapping"))
        url_of = dict(zip(m["url"].to_pylist(), m["vid"].to_pylist()))
        if len(url_of) != n or sorted(url_of) != sorted(ref["urls"]) \
                or sorted(url_of.values()) != list(range(n)):
            return ["crawl: url mapping is not a bijection of the page "
                    "urls onto 0..n-1"]
        keep = [(url_of[s], url_of[d]) for s, d in
                zip(ref["src"], ref["dst"]) if d in url_of]
        rows = np.array(keep, dtype=np.int64).reshape(-1, 2)
        src, dst = rows[:, 0], rows[:, 1]
        pairs = np.unique(src * n + dst)
        ps, pd_ = pairs // n, pairs % n
        res = os.path.join(work, "out")
        problems += checks.check_pagerank(
            ps, pd_, n, read_vid_column(os.path.join(res, "pagerank"),
                                        "rank"), PR_TOL)
        problems += checks.check_components(
            ps, pd_, n, read_vid_column(os.path.join(res, "components"),
                                        "component"), ctx.memo(
                "crawl-roots", lambda: checks.union_find_roots(ps, pd_, n)))
        if out["membership_rows"] != n:
            problems.append(f"leiden: {out['membership_rows']} rows, n={n}")
        problems += checks.check_leiden(
            src, dst, np.ones(len(src)), n,
            read_vid_column(os.path.join(res, "communities"), "comm"),
            out["q"], GAMMA)
        shutil.rmtree(work, ignore_errors=True)
        return problems


def _both_directions(t):
    s = t["src"].combine_chunks()
    d = t["dst"].combine_chunks()
    w = t["weight"].combine_chunks()
    return pa.table({"src": pa.concat_arrays([s, d]),
                     "dst": pa.concat_arrays([d, s]),
                     "weight": pa.concat_arrays([w, w])})


def _release(dl):
    """Kill a DistLeiden's shard actors now instead of whenever the
    handles are collected, so they cannot hold memory or CPU into the
    next round."""
    import ray
    for a in dl.actors:
        ray.kill(a)


# ----------------------------------------------------------------------
class RmatKernels:
    name = "rmat-kernels"
    setup_reps = 2
    sizes = {"scale": RMAT_SCALE, "edge_factor": RMAT_EDGE_FACTOR,
             "rmat_abc": [0.57, 0.19, 0.19], "P": RMAT_P,
             "lp_rounds": LP_ROUNDS}

    def make_inputs(self, ctx, rep):
        import ray

        from leidenalg_ray.sources.rmat import rmat_edges
        ds = rmat_edges(RMAT_SCALE, RMAT_EDGE_FACTOR, seed=ctx.seed,
                        num_partitions=ctx.join_partitions)
        t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        src = t["src"].to_numpy()
        dst = t["dst"].to_numpy()
        order = np.lexsort((dst, src))
        return src[order], dst[order], 1 << RMAT_SCALE

    def run_round(self, ctx, graph, k):
        import ray

        from leidenalg_ray.dist import superstep as ss
        from leidenalg_ray.dist.blocks import DistGraph
        from leidenalg_ray.dist.triangles import triangle_count_fast

        src, dst, n = graph
        rec, P = ctx.rec, RMAT_P
        walls = {}
        with ctx.wall(walls, "build_s"):
            with rec.span("dist.blocks.from_edges_s") as c:
                g = DistGraph.from_edges(src, dst, n=n, P=P)
                g2 = DistGraph.from_edges(src, dst, n=n, P=P,
                                          both_directions=True)
                e1 = sum(int(d.sum()) for d in ray.get(g.out_deg))
                e2 = sum(int(d.sum()) for d in ray.get(g2.out_deg))
                c["dist.blocks.edges"] = e1 + e2
        with ctx.wall(walls, "ranks_s"):
            with rec.span("dist.superstep.pagerank_s") as c:
                rank, it_pr = ss.pagerank(g, tol=PR_TOL)
                c["dist.superstep.pagerank_supersteps"] = it_pr
            with rec.span("dist.superstep.cc_s") as c:
                comp, it_cc = ss.connected_components(g2)
                c["dist.superstep.cc_supersteps"] = it_cc
        with ctx.wall(walls, "lp_s"):
            with rec.span("dist.superstep.lp_s") as c:
                lab, it_lp = ss.label_propagation(g2, max_iter=LP_ROUNDS)
                c["dist.superstep.lp_supersteps"] = it_lp
        del g, g2
        with ctx.wall(walls, "triangles_s"):
            with rec.span("dist.triangles.s") as c:
                tri = triangle_count_fast(src, dst, n, P=P)
                c["dist.triangles.count"] = int(tri)
        walls["edge_traversals_per_s"] = (
            (it_pr * e1 + (it_cc + it_lp) * e2)
            / (walls["ranks_s"] + walls["lp_s"]))
        return walls, {"rank": rank, "comp": comp, "lab": lab,
                       "lp_iters": it_lp, "tri": int(tri)}

    def reference(self, ctx, graph):
        src, dst, n = graph
        return {"roots": checks.union_find_roots(src, dst, n),
                "triangles": checks.count_triangles(src, dst)}

    def check(self, ctx, ref, out):
        src, dst, n = ctx.inputs
        loops = src == dst
        # the message rows of a both-directions block build
        s2 = np.concatenate([src, dst[~loops]])
        d2 = np.concatenate([dst, src[~loops]])
        replay = ctx.memo(("lp", out["lp_iters"]),
                          lambda: checks.replay_label_propagation(
                              s2, d2, n, out["lp_iters"]))
        return (checks.check_pagerank(src, dst, n, out["rank"], PR_TOL)
                + checks.check_components(src, dst, n, out["comp"],
                                          ref["roots"])
                + checks.check_label_propagation(replay, out["lab"])
                + checks.check_triangles(ref["triangles"], out["tri"]))


# ----------------------------------------------------------------------
class CoLeiden:
    name = "co-leiden"
    setup_reps = 2
    sizes = {"sf": CO_SF, "find_partition_sf": CO_SMALL_SF, "P": CO_P,
             "gamma": GAMMA, "leiden_seed": LEIDEN_SEED}

    def make_inputs(self, ctx, rep):
        from leidenalg_ray.pipelines import tpch_graphs as tg
        d = os.path.join(ctx.run_dir, f"tpch-{rep}")
        write_lineitem(d, ctx.seed)
        with ctx.rec.span("pipelines.tpch_graphs.co_edge_arrays_s"):
            a, b, w = tg.co_edge_arrays(
                d, num_partitions=ctx.join_partitions)
        graphs = {"lineitem": os.path.join(d, "lineitem.parquet"),
                  "edges": (a, b, w)}
        # the two order sets share no part key, so every co edge lies
        # inside one of them
        for tag, keep in (("dist", a < SMALL_PART_OFFSET),
                          ("small", a >= SMALL_PART_OFFSET)):
            vids, inv = np.unique(np.concatenate([a[keep], b[keep]]),
                                  return_inverse=True)
            m = int(keep.sum())
            graphs[tag] = {"n": len(vids), "src": inv[:m],
                           "dst": inv[m:], "weight": w[keep]}
        return graphs

    def run_round(self, ctx, graphs, k):
        from leidenalg_ray.dist.leiden import DistLeiden
        from leidenalg_ray.functions_api import find_partition
        from leidenalg_ray.graph import Graph
        from leidenalg_ray.partition import CPMVertexPartition

        rec, big, small = ctx.rec, graphs["dist"], graphs["small"]
        walls = {}
        with ctx.wall(walls, "communities_s"):
            with ctx.wall(walls, "build_s"):
                with rec.span("dist.leiden.construct_s"):
                    dl = DistLeiden(big["src"], big["dst"],
                                    weight=big["weight"], n=big["n"],
                                    quality="cpm",
                                    resolution_parameter=GAMMA, P=CO_P,
                                    seed=LEIDEN_SEED)
            with rec.span("dist.leiden.run_s") as c:
                mem, q, info = dl.run()
                c.update(leiden_counts("dist.leiden", info))
        _release(dl)
        with ctx.wall(walls, "find_partition_s"):
            with rec.span("optimiser.find_partition_s") as c:
                g = Graph(small["n"], src=small["src"], dst=small["dst"],
                          weights=small["weight"])
                part = find_partition(g, CPMVertexPartition,
                                      resolution_parameter=GAMMA,
                                      seed=LEIDEN_SEED)
                q_small = float(part.quality())
                c["optimiser.quality"] = q_small
        walls["leiden_quality"] = float(q)
        return walls, {"mem": mem, "q": float(q),
                       "mem_small": np.asarray(part.membership),
                       "q_small": q_small}

    def reference(self, ctx, graphs):
        return checks.co_graph_sql(graphs["lineitem"])

    def check(self, ctx, ref, out):
        g = ctx.inputs
        problems = checks.check_co_graph(ref, g["edges"])
        for tag, key in (("dist", ""), ("small", "_small")):
            problems += checks.check_leiden(
                g[tag]["src"], g[tag]["dst"], g[tag]["weight"],
                g[tag]["n"], out["mem" + key], out["q" + key], GAMMA)
        return problems


SMALL_PART_OFFSET = 1 << 20


def write_lineitem(d, seed):
    """TPC-H-shaped lineitem (l_orderkey, l_partkey) holding two order
    sets, at scale factors CO_SF and CO_SMALL_SF: 1.5M*sf orders each
    with Poisson(4) lines (at least one), parts drawn uniformly from
    200k*sf keys. The second set's part keys start at SMALL_PART_OFFSET
    and its order keys after the first set's, so one self-join builds
    both co graphs."""
    okeys, pkeys = [], []
    for tag, sf in enumerate((CO_SF, CO_SMALL_SF)):
        rng = np.random.default_rng([seed, 0x11E1, tag])
        n_orders = int(1_500_000 * sf)
        lines = np.clip(rng.poisson(4.0, n_orders), 1, None)
        base = okeys[-1][-1] + 1 if okeys else 0
        okeys.append(base + np.repeat(np.arange(n_orders, dtype=np.int64),
                                      lines))
        pkeys.append(tag * SMALL_PART_OFFSET
                     + rng.integers(0, int(200_000 * sf), lines.sum()))
    os.makedirs(d, exist_ok=True)
    pq.write_table(pa.table({"l_orderkey": np.concatenate(okeys),
                             "l_partkey": np.concatenate(pkeys)}),
                   os.path.join(d, "lineitem.parquet"))


WORKLOADS = {w.name: w for w in (CrawlJob, CoLeiden, RmatKernels)}
