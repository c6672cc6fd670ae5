"""Flagship link-graph job — the ``ray job submit`` entry point.

    ray job submit --working-dir . -- python scripts/run_job.py \
        --pages /tmp/lray_pages_100000 --out /tmp/lray_out \
        --checkpoint /tmp/lray_ckpt

Runs the whole north-star pipeline: read pages parquet -> extract
links/text -> build the id-assigned edge table -> PageRank (tol 1e-6)
+ connected components + Leiden CPM over partitioned CSR blocks, all
superstep-checkpointed under --checkpoint (rerun after a kill resumes
from the latest complete manifest), and writes partitioned parquet
outputs (one directory per table; per-vertex results sharded by
vid % P so a rerun can skip finished partitions).

Per-vertex results (out/pagerank, out/components, out/communities)
are written FROM THE SHARDS (``result_out=`` / ``membership_out=``):
no kernel output is ever assembled into an O(n) driver array, so the
job's driver footprint is O(P) refs + counters at any vertex count.

Standalone safety: initialises Ray only if no session exists.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pages", required=True,
                    help="pages parquet directory")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--checkpoint", default=None,
                    help="checkpoint root (enables resume)")
    ap.add_argument("--quality", default="cpm",
                    choices=["cpm", "modularity"])
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--partitions", type=int, default=16)
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--build", default="distributed",
                    choices=["distributed", "broadcast"],
                    help="distributed: bucket-rank id assignment + "
                         "edge resolution on one bucketed task "
                         "exchange + Dataset-built CSR blocks (the "
                         ">node-memory path, default); broadcast: "
                         "driver-sorted mapping broadcast (faster "
                         "while the url set fits one node)")
    ap.add_argument("--host-graph", action="store_true",
                    help="also write the contracted host->host graph "
                         "(streaming url->host contraction of the "
                         "link stream; out/host_graph/)")
    ap.add_argument("--canonicalize", action="store_true",
                    help="canonicalize urls (case/fragments/tracking "
                         "params/default ports) before id assignment "
                         "so url variants merge into one vertex "
                         "(distributed build only)")
    ap.add_argument("--anchors", action="store_true",
                    help="write per-target inbound anchor-term "
                         "counts (out/anchor_terms/)")
    ap.add_argument("--anf", type=int, default=0, metavar="R",
                    help="also run HyperANF for R rounds: "
                         "neighbourhood function + 90%%-effective "
                         "diameter in summary.json, per-vertex ball "
                         "estimates sharded to out/ball_est/")
    ap.add_argument("--temporal", type=int, default=0, metavar="T",
                    help="also slice the crawl into T equal-width "
                         "warc_ts windows and write per-snapshot "
                         "communities from the distributed temporal "
                         "Leiden (out/temporal_communities/)")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 num_cpus=args.num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import logging

    import pyarrow as pa
    import ray.data as rd
    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from leidenalg_ray.stages.graph_build import (
        pages_to_graph, pages_to_graph_arrays)
    from leidenalg_ray.dist.blocks import DistGraph
    from leidenalg_ray.dist import superstep as ss
    from leidenalg_ray.dist.leiden import DistLeiden

    P = args.partitions
    pages = rd.read_parquet(args.pages)
    t0 = time.time()
    # extraction is the dominant stage: run it ONCE and share the
    # materialised result between the main build and --host-graph
    shared_extracted = None
    if args.build == "distributed" or args.host_graph:
        from leidenalg_ray.stages.extract import extract_dataset
        shared_extracted = extract_dataset(pages).materialize()
    if args.canonicalize and args.build != "distributed":
        ap.error("--canonicalize requires --build distributed")
    if args.build == "distributed":
        # >node-memory shape: the driver never holds urls or edges
        edges_ds, mapping_ds, n = pages_to_graph(
            pages, B=32, num_partitions=P, extracted=shared_extracted,
            canonicalize=args.canonicalize)
        edges_ds = edges_ds.materialize()   # reused by three builds
        mapping = mapping_ds.materialize()
        n_edges = edges_ds.count()
    else:
        src, dst, w, mapping, n = pages_to_graph_arrays(pages)
        n_edges = len(src)
    t_build = time.time() - t0

    t0 = time.time()
    if args.build == "distributed":
        g = DistGraph.from_dataset(edges_ds, n=n, P=P, directed=True,
                                   dedup=True)
        sym = edges_ds.map_batches(
            lambda t: pa.table({
                "src": pa.concat_arrays(
                    [t["src"].combine_chunks(),
                     t["dst"].combine_chunks()]),
                "dst": pa.concat_arrays(
                    [t["dst"].combine_chunks(),
                     t["src"].combine_chunks()]),
                "weight": pa.concat_arrays(
                    [t["weight"].combine_chunks()] * 2),
            }), batch_format="pyarrow", zero_copy_batch=True)
        g2 = DistGraph.from_dataset(sym, n=n, P=P, directed=False,
                                    dedup=True)
    else:
        g = DistGraph.from_edges(src, dst, weight=w, n=n, P=P,
                                 directed=True)
        g2 = DistGraph.from_edges(src, dst, n=n, P=P,
                                  both_directions=True)
    # per-vertex outputs are written shard-side (resumable: finished
    # part files are skipped on rerun); the driver sees only counters
    os.makedirs(args.out, exist_ok=True)
    pr_res, pr_iters = ss.pagerank(
        g, tol=1e-6, checkpoint=args.checkpoint,
        result_out=os.path.join(args.out, "pagerank"))
    cc_res, cc_iters = ss.connected_components(
        g2, checkpoint=args.checkpoint,
        result_out=os.path.join(args.out, "components"))
    anf_summary = None
    if args.anf:
        # HyperANF: neighbourhood function + effective diameter over
        # ALL vertices (64 bytes/vertex sketches); ball estimates
        # write shard-side like every other per-vertex result
        anf_res, nf_q, anf_rounds = ss.hyperanf(
            g2, rounds=args.anf, checkpoint=args.checkpoint,
            result_out=os.path.join(args.out, "ball_est"))
        thr = -(-9 * int(nf_q[-1]) // 10)     # ceil(0.9 * NF_final)
        eff = int(np.searchsorted(nf_q, thr))
        anf_summary = {
            "rounds": int(anf_rounds),
            "nf": [round(int(v) / 1e6, 6) for v in nf_q],
            "effective_diameter_90": eff,
            "ball_rows": int(anf_res["rows"]),
        }
    t_bsp = time.time() - t0

    t0 = time.time()
    if args.build == "distributed":
        dl = DistLeiden.from_dataset(
            edges_ds, n=n, directed=False, quality=args.quality,
            resolution_parameter=args.gamma, P=P, seed=42)
    else:
        dl = DistLeiden(src, dst, weight=w, n=n, directed=False,
                        quality=args.quality,
                        resolution_parameter=args.gamma, P=P, seed=42)
    _, q, info = dl.run(checkpoint=args.checkpoint,
                        membership_out=os.path.join(args.out,
                                                    "communities"))
    t_leiden = time.time() - t0
    if args.host_graph:
        from leidenalg_ray.stages.extract import links_of
        from leidenalg_ray.stages.graph_build import host_graph
        host_graph(links_of(shared_extracted)) \
            .write_parquet(os.path.join(args.out, "host_graph"))
    if args.anchors:
        import pandas as pd

        from ray.data.aggregate import Sum

        from leidenalg_ray.stages.extract import anchors_dataset

        def term_partial(t: pa.Table) -> "pd.DataFrame":
            df = t.select(["dst_url", "anchor"]).to_pandas()
            df = df.assign(term=df.anchor.str.split()).explode("term")
            df = df.dropna(subset=["term"])
            out = df.groupby(["dst_url", "term"],
                             as_index=False).size()
            return out.rename(columns={"size": "cnt"})

        # per-batch partials, ONE (dst_url, term) shuffle, streamed
        # straight to partitioned parquet
        anchors_dataset(pages).map_batches(
            term_partial, batch_format="pyarrow") \
            .groupby(["dst_url", "term"]) \
            .aggregate(Sum("cnt", alias_name="cnt")) \
            .write_parquet(os.path.join(args.out, "anchor_terms"))
    if args.temporal > 0:
        from leidenalg_ray.functions_api import (
            find_partition_temporal_dataset)
        from leidenalg_ray.stages.graph_build import (
            pages_temporal_graph)
        t_sl = time.time()
        slices, t_mapping, t_n, bounds = pages_temporal_graph(
            pages, n_slices=args.temporal, num_partitions=P)
        # shard-side output: union-space (vid, comm) parquet where
        # slice = vid // t_n and node = vid % t_n — the driver never
        # holds the (T, n) membership matrix
        tdir = os.path.join(args.out, "temporal_communities")
        _, t_q, t_info = find_partition_temporal_dataset(
            slices, n_nodes=t_n, quality=args.quality,
            resolution_parameter=args.gamma, P=P, seed=42,
            membership_out=tdir)
        # the temporal pipeline has its OWN id space (auto-B bucket
        # ranking over the recrawl-deduped url set) — write its
        # mapping so temporal vids are interpretable; do NOT join
        # temporal_communities against the main url_mapping
        t_mapping.write_parquet(
            os.path.join(args.out, "temporal_url_mapping"))
        summary_temporal = {
            "n_slices": args.temporal, "quality": float(t_q),
            "sec_temporal": round(time.time() - t_sl, 2),
        }
    else:
        summary_temporal = None
    if args.build == "distributed":
        mapping.write_parquet(os.path.join(args.out, "url_mapping"))
    else:
        mapping.to_parquet(
            os.path.join(args.out, "url_mapping.parquet"), index=False)
    summary = {
        "n_vertices": int(n), "n_edges": int(n_edges),
        "pagerank_iters": int(pr_iters), "cc_iters": int(cc_iters),
        "pagerank_rows": int(pr_res["rows"]),
        "component_rows": int(cc_res["rows"]),
        "membership_rows": int(info["membership_rows"]),
        "leiden_quality": float(q),
        "n_communities": info["n_communities"],
        "sec_build": round(t_build, 2), "sec_bsp": round(t_bsp, 2),
        "sec_leiden": round(t_leiden, 2),
    }
    if summary_temporal is not None:
        summary["temporal"] = summary_temporal
    if anf_summary is not None:
        summary["anf"] = anf_summary
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()
