"""Headline benchmark over $GRAFT_SF_DIR (default /root/testdata/sf0.1).

Prints ONE JSON line:
``{"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "edges_traversed_per_sec": ...}``

``--scaling``: runs the same bench twice in fresh processes at
num_cpus=8 and num_cpus=32 (the sandbox proxy for N vs 4N cluster
nodes — SURVEY.md §4.3.7) and prints throughput at both plus the
scaling efficiency.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time


def _burn_fp(_):
    """Raw-machine FP yardstick task (module-level: mp.Pool pickles it).
    Same cache-resident kernel as the compute-bound BSP probe."""
    import numpy as np
    x = np.full(32768, 0.5)
    t = np.empty_like(x)
    for _ in range(768 * 6):
        np.multiply(x, x, out=t)
        t += 1.000001
        np.sqrt(t, out=x)
    return float(x[0])


def _probe_membw():
    """64 MiB copy bandwidth in GiB/s — the machine-health yardstick
    (the shared host's DRAM bandwidth drifts orders of magnitude)."""
    import numpy as np
    mb = np.empty(1 << 23)  # 64 MiB
    mb[:] = 1.0
    t0 = time.time()
    mb2 = mb.copy()
    bw = round((mb.nbytes / 2**30) / max(time.time() - t0, 1e-9), 3)
    del mb, mb2
    return bw


def run_bench():
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR", log_to_driver=False)
    import logging

    import numpy as np
    import ray.data as rd
    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from leidenalg_ray.pipelines import queries as Q
    from leidenalg_ray.pipelines import tpch_graphs as tg
    from leidenalg_ray.pipelines.queries import _compact
    from leidenalg_ray.dist.blocks import DistGraph
    from leidenalg_ray.dist import superstep as ss

    # warm the page cache so we measure compute + shuffle, not disk
    for t in ("lineitem", "documents", "embeddings", "events"):
        with open(f"{sf_dir}/{t}.parquet", "rb") as f:
            while f.read(1 << 24):
                pass

    times = {}

    # Machine-health yardstick recorded with every run: the shared
    # host's DRAM bandwidth drifts by orders of magnitude between
    # windows (measured 7 MB/s-13 GB/s); every bandwidth-bound stage
    # scales with it, so absolute walls are only comparable between
    # runs with similar membw_gib_s.
    membw = _probe_membw()

    # ------------------------------------------------------------------
    # Flagship: Common-Crawl-style pages -> extract -> graph -> ranks
    # (the north-star pipeline; corpus synthesized once and cached)
    # ------------------------------------------------------------------
    from leidenalg_ray.sources.pages import ensure_pages_corpus
    from leidenalg_ray.stages.graph_build import pages_to_graph_arrays

    base = os.path.basename(sf_dir.rstrip("/"))
    n_pages = int(os.environ.get(
        "LRAY_PAGES_N",
        {"sf0.001": 4_000, "sf0.01": 20_000}.get(base, 100_000)))
    pages_only = os.environ.get("LRAY_BENCH_MODE") == "pages"
    corpus = f"/tmp/lray_pages_{n_pages}"
    ensure_pages_corpus(corpus, n_pages)  # cached; not timed

    t0 = time.time()
    pages_ds = rd.read_parquet(corpus)
    psrc, pdst, pw, mapping_df, n_verts = pages_to_graph_arrays(
        pages_ds, B=32, concurrency=num_cpus)
    times["pages_extract_build"] = round(time.time() - t0, 3)
    n_links = float(pw.sum())

    # P follows the DATA size, not the cpu count — the partition
    # layout of a production run is fixed per dataset, and the two
    # scaling levels must execute the identical plan
    P_pages = max(4, min(16, len(psrc) // 250_000 + 1))
    t0 = time.time()
    pg = DistGraph.from_edges(
        psrc, pdst, weight=pw, n=n_verts, P=P_pages, directed=True)
    prank, p_iters = ss.pagerank(pg, damping=0.85, tol=1e-6)
    times["pages_pagerank"] = round(time.time() - t0, 3)

    t0 = time.time()
    pg2 = DistGraph.from_edges(
        psrc, pdst, n=n_verts, P=P_pages, both_directions=True)
    pcomp, _ = ss.connected_components(pg2)
    times["pages_cc"] = round(time.time() - t0, 3)

    if pages_only:
        # cpu-bound probe: parse every page but move almost no data —
        # isolates compute scaling from the single-node memory-
        # bandwidth ceiling that caps the materialising stages. Fixed
        # 128-way granularity so both scaling levels run the same plan.
        import pyarrow as pa
        from leidenalg_ray.stages.extract import extract_links, \
            extract_text

        def probe(t: pa.Table) -> pa.Table:
            n_l = 0
            n_c = 0
            for h in t["html"].to_pylist():
                n_l += len(extract_links(h))
                n_c += len(extract_text(h))
            return pa.table({"links": pa.array([n_l]),
                             "chars": pa.array([n_c])})

        t0 = time.time()
        rd.read_parquet(corpus, override_num_blocks=128).map_batches(
            probe, batch_format="pyarrow", batch_size=None,
            zero_copy_batch=True).count()
        times["extract_cpu_probe"] = round(time.time() - t0, 3)

        # pure-compute probe (no data movement): separates the
        # machine's CPU scaling from its shared-memory-bandwidth
        # ceiling, which is what caps the data-heavy stages on ONE box
        # (on a multi-node cluster every node adds bandwidth)
        @ray.remote
        def burn(k):
            import hashlib
            h = b"x" * 4096
            for _ in range(25_000 if k >= 0 else 50):
                h = hashlib.blake2b(h, digest_size=64).digest() * 64
            return len(h)

        # warm the worker pool first (process spawn is a fixed cost
        # that would otherwise be billed to the high-cpu level)
        ray.get([burn.remote(-1 - i) for i in range(num_cpus)])
        t0 = time.time()
        ray.get([burn.remote(i) for i in range(128)])
        times["pure_compute_probe"] = round(time.time() - t0, 3)

        # fixed-plan BSP probe: synthetic 24M-edge graph, P=32 CSR
        # partitions (identical layout at both scaling levels; 32
        # tasks/superstep = 4 waves at 8 cpus, 1 wave at 32), float32
        # messages. On one box this kernel is memory-bandwidth-bound —
        # its efficiency is the bandwidth ceiling, not the scheduler;
        # BASELINE.md quantifies the bytes/superstep it ships.
        bsp_n, bsp_m, bsp_P, bsp_iters = 2_000_000, 24_000_000, 32, 10
        rng = np.random.default_rng(42)
        bsrc = rng.integers(0, bsp_n, bsp_m)
        bdst = rng.integers(0, bsp_n, bsp_m)
        bg = DistGraph.from_edges(bsrc, bdst, n=bsp_n, P=bsp_P,
                                  directed=True)
        bg.total_edges()   # force block build before timing
        t0 = time.time()
        ss.pagerank(bg, tol=0.0, max_iter=bsp_iters,
                    message_dtype=np.float32)
        times["bsp_probe"] = round(time.time() - t0, 3)
        bsp_edges_per_sec = int(bsp_m * bsp_iters
                                / max(times["bsp_probe"], 1e-9))

        # compute-bound BSP probe: the SAME superstep structure (P x P
        # worker-to-worker exchange over CSR blocks, float32 messages)
        # but with heavy cache-resident FP math per edge — the regime
        # of a production cluster, where each node's subgraph is big
        # enough that per-superstep compute dominates the exchange.
        # Interpreted against raw_fp_probe (below): if this probe's
        # efficiency matches the machine's own concurrent-FP ceiling,
        # the superstep engine adds no scaling penalty of its own.
        cn, cm, cP, citers, crounds = 500_000, 6_000_000, 32, 5, 768
        crng = np.random.default_rng(7)
        cg = DistGraph.from_edges(crng.integers(0, cn, cm),
                                  crng.integers(0, cn, cm),
                                  n=cn, P=cP, directed=True)
        cg.total_edges()
        csizes = cg.sizes

        def _heavy_fp(x, rounds=crounds):
            tmp = np.empty(1 << 15)
            for i in range(0, len(x), 1 << 15):
                c = x[i:i + (1 << 15)]
                t = tmp[:len(c)]
                for _ in range(rounds):
                    np.multiply(c, c, out=t)
                    t += 1.000001
                    np.sqrt(t, out=c)
            return x

        @ray.remote
        def cgather(block, rank):
            per_edge = _heavy_fp(rank[block["src_local"]].copy())
            off = block["dst_offsets"]
            outs = []
            for q in range(cP):
                sl = slice(int(off[q]), int(off[q + 1]))
                arr = np.zeros(csizes[q])
                np.add.at(arr, block["dst_local"][sl], per_edge[sl])
                outs.append(arr.astype(np.float32))
            return outs

        @ray.remote
        def creduce(q_size, *incoming):
            new = np.zeros(q_size)
            for arr in incoming:
                new += arr
            new /= max(float(new.sum()), 1e-12)
            return new

        cstate = [ray.put(np.full(csizes[p], 1.0 / cn))
                  for p in range(cP)]
        t0 = time.time()
        for _ in range(citers):
            cmsg = [cgather.options(num_returns=cP).remote(
                cg.blocks[p], cstate[p]) for p in range(cP)]
            cstate = [creduce.remote(csizes[q],
                                     *[cmsg[p][q] for p in range(cP)])
                      for q in range(cP)]
        ray.get(cstate)
        times["bsp_compute_probe"] = round(time.time() - t0, 3)

        # machine yardstick: the same FP kernel under plain
        # multiprocessing (no Ray) — whatever efficiency THIS shows is
        # the box's concurrent-FP ceiling in the current measurement
        # window (co-tenant load and frequency droop included), the
        # fair denominator for the engine probes above.
        import multiprocessing as mp
        with mp.Pool(num_cpus) as pool:
            pool.map(_burn_fp, range(num_cpus))  # warm
            t0 = time.time()
            pool.map(_burn_fp, range(32))
            times["raw_fp_probe"] = round(time.time() - t0, 3)

        pages_time = sum(times.values()) - times["pure_compute_probe"] \
            - times["extract_cpu_probe"] - times["bsp_probe"] \
            - times["bsp_compute_probe"] - times["raw_fp_probe"]
        traversed = 2 * len(psrc) * int(p_iters)
        result = {
            "metric": "pages pipeline wall time (extract -> id assign "
                      "-> dedup -> PageRank tol 1e-6 -> CC)",
            "value": round(pages_time, 3),
            "unit": "sec",
            "queries": times,
            "sf": sf_dir,
            "num_cpus": num_cpus,
            "pages": {"n_pages": int(n_pages), "n_vertices": int(n_verts),
                      "links": int(n_links),
                      "pages_per_sec": int(n_pages / max(pages_time, 1e-9)),
                      "pagerank_iters": int(p_iters)},
            "edges_traversed_per_sec": int(
                traversed / max(times["pages_pagerank"], 1e-9)),
            "bsp_probe": {"n": bsp_n, "edges": bsp_m, "P": bsp_P,
                          "iters": bsp_iters,
                          "edges_traversed_per_sec": bsp_edges_per_sec,
                          # per superstep: messages (float32, ~n values)
                          # + rank/norm shard reads (float64)
                          "msg_bytes_per_superstep": int(4 * bsp_n)},
            # window-health keys: run_scaling reads both from each
            # subprocess result, so the pages-mode early return must
            # carry them like the full run does (bench.py:391-394)
            "membw_gib_s": membw,
            "membw_end_gib_s": _probe_membw(),
        }
        print(json.dumps(result))
        ray.shutdown()
        return result

    # the at-scale build path end-to-end: distributed bucket-rank id
    # assignment + exchange edge resolution (no driver url sort, no
    # broadcast mapping) feeding Dataset-built CSR blocks + PageRank —
    # the pipeline shape a >node-memory corpus must use
    from leidenalg_ray.stages.graph_build import pages_to_graph

    t0 = time.time()
    pedges_ds, pmapping, pn = pages_to_graph(pages_ds, B=32)
    pgd = DistGraph.from_dataset(pedges_ds, n=pn, P=P_pages,
                                 directed=True, dedup=True)
    prank_d, _ = ss.pagerank(pgd, damping=0.85, tol=1e-6)
    times["pages_build_distributed"] = round(time.time() - t0, 3)

    def timed(name, fn):
        t0 = time.time()
        out = fn(sf_dir)
        # consume lazily-built results
        if hasattr(out, "count") and not isinstance(out, (int, float)):
            try:
                out.count()
            except AttributeError:
                pass
        times[name] = round(time.time() - t0, 3)
        return out

    timed("pricing_summary", Q.q_pricing_summary)

    # graph algorithms share one co-occurrence graph build
    t0 = time.time()
    a, b, w = tg.co_edge_arrays(sf_dir)
    vids, s_, d_ = _compact(a, b)
    times["co_graph_build"] = round(time.time() - t0, 3)
    n = len(vids)
    m_edges = len(a)

    t0 = time.time()
    g = DistGraph.from_edges(s_, d_, weight=w, n=n, P=min(16, max(4, num_cpus // 2)),
                             both_directions=True)
    rank, pr_iters = ss.pagerank(g, damping=0.85, tol=1e-6, weighted=True)
    pr_time = time.time() - t0
    times["pagerank"] = round(pr_time, 3)

    t0 = time.time()
    comp, cc_iters = ss.connected_components(g)
    times["connected_components"] = round(time.time() - t0, 3)

    t0 = time.time()
    lab, lp_iters = ss.label_propagation(g, max_iter=20)
    times["label_propagation"] = round(time.time() - t0, 3)

    # Leiden on the SAME co graph the BSP kernels use (co_graph_build
    # is timed separately above; the Dataset-native construction path
    # is exercised — and timed — by pages_build_distributed)
    from leidenalg_ray.dist.leiden import DistLeiden
    # P follows the data size, like P_pages: the per-superstep propose
    # is compute-bound (BASELINE r5), so bigger graphs take more
    # shards; sf0.1 stays at the P=8 layout every prior round used
    P_leiden = 8 if m_edges < 3_000_000 else 16
    t0 = time.time()
    dl = DistLeiden(s_, d_, weight=w, n=n, directed=False,
                    quality="cpm", resolution_parameter=0.5,
                    P=P_leiden, seed=42)
    lmem, lq, linfo = dl.run()
    times["leiden_cpm"] = round(time.time() - t0, 3)
    leiden_quality = round(float(lq), 3)
    # triangles: broadcast fast path for the headline (arrays already
    # built above), partitioned compact-forward (= q_triangles_co, the
    # >node-memory plan) timed separately
    from leidenalg_ray.dist.triangles import triangle_count_fast
    t0 = time.time()
    n_raw = int(max(a.max(initial=0), b.max(initial=0))) + 1
    triangle_count_fast(a, b, n_raw, P=16)
    times["triangles"] = round(time.time() - t0, 3)
    timed("triangles_partitioned", Q.q_triangles_co)
    timed("token_counts", lambda s: Q.q_token_counts(s).count())
    timed("dedup_minhash", lambda s: Q.q_dedup_minhash(s).count())
    timed("ann_topk", Q.q_ann_topk)
    timed("events_sessionize",
          lambda s: Q.q_events_sessionize(s).count())

    total = round(sum(times.values()), 3)
    # symmetrised edge traversals per superstep for the BSP algorithms
    traversals = 2 * m_edges * (pr_iters + cc_iters + lp_iters)
    bsp_time = (times["pagerank"] + times["connected_components"]
                + times["label_propagation"])
    pages_time = (times["pages_extract_build"] + times["pages_pagerank"]
                  + times["pages_cc"])
    result = {
        "metric": "headline pipeline wall time (pages extract->graph->"
                  "PageRank/CC + TPC-H graph build + PageRank tol 1e-6 "
                  "+ CC + LP + Leiden CPM + triangles + text ops)",
        "value": total,
        "unit": "sec",
        "queries": times,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "graph": {"n": int(n), "edges": int(m_edges),
                  "leiden_quality": leiden_quality,
                  "leiden_supersteps": int(
                      linfo["level0_supersteps"]),
                  "pagerank_iters": int(pr_iters)},
        "pages": {"n_pages": int(n_pages), "n_vertices": int(n_verts),
                  "links": int(n_links),
                  "pages_per_sec": int(n_pages / max(pages_time, 1e-9)),
                  "pagerank_iters": int(p_iters)},
        "edges_traversed_per_sec": int(traversals / max(bsp_time, 1e-9)),
        "membw_gib_s": membw,
        # probed again AFTER the run: a healthy-window claim needs
        # the window to have held for the whole measurement
        "membw_end_gib_s": _probe_membw(),
    }
    print(json.dumps(result))
    ray.shutdown()
    return result


def run_scaling():
    """North-rule scaling evidence: the flagship pages pipeline (the
    part of the workload whose cost grows with the corpus) at two
    parallelism levels in fresh processes. The sf0.1 relational suite
    is too small for 32 cpus — its strong-scaling floor is scheduler
    latency, reported per-component by the plain bench."""
    def run(ncpu):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   LRAY_BENCH_MODE="pages",
                   LRAY_PAGES_N=os.environ.get("LRAY_PAGES_N", "400000"))
        out = subprocess.run([sys.executable, __file__], env=env,
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    lo, hi = 8, 32
    r_lo = run(lo)
    r_hi = run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    speedup = t_lo / t_hi
    eff = speedup / (hi / lo)
    per_component = {
        k: round((r_lo["queries"][k] / max(r_hi["queries"][k], 1e-9))
                 / (hi / lo), 3)
        for k in r_lo["queries"]
    }
    print(json.dumps({
        "metric": "scaling efficiency (same input, fresh processes, "
                  f"num_cpus={lo} vs {hi})",
        "sec_8": t_lo,
        "sec_32": t_hi,
        "speedup": round(speedup, 3),
        "scaling_efficiency": round(eff, 3),
        "component_efficiency": per_component,
        "pure_compute_efficiency":
            per_component.get("pure_compute_probe"),
        "bsp_probe_efficiency": per_component.get("bsp_probe"),
        "bsp_compute_efficiency":
            per_component.get("bsp_compute_probe"),
        "raw_fp_efficiency": per_component.get("raw_fp_probe"),
        # the engine probe normalised by the machine's own concurrent-
        # FP ceiling measured in the SAME window (shared host): ~1.0
        # means the superstep engine adds no scaling penalty beyond
        # what the box itself gives 32 plain processes
        "bsp_compute_vs_machine": round(
            per_component.get("bsp_compute_probe", 0.0)
            / max(per_component.get("raw_fp_probe", 1e-9), 1e-9), 3),
        "bsp_probe": r_hi.get("bsp_probe"),
        "edges_traversed_per_sec_8": r_lo["edges_traversed_per_sec"],
        "edges_traversed_per_sec_32": r_hi["edges_traversed_per_sec"],
        "bsp_edges_per_sec_8":
            r_lo.get("bsp_probe", {}).get("edges_traversed_per_sec"),
        "bsp_edges_per_sec_32":
            r_hi.get("bsp_probe", {}).get("edges_traversed_per_sec"),
        "pages_per_sec_8": r_lo["pages"]["pages_per_sec"],
        "pages_per_sec_32": r_hi["pages"]["pages_per_sec"],
        "pages": r_lo["pages"],
        "queries_8": r_lo["queries"],
        "queries_32": r_hi["queries"],
        # window health spanning BOTH runs so a collapse mid-scaling
        # is visible (and rejectable) downstream, same contract as a
        # plain run's membw_gib_s / membw_end_gib_s
        "membw_gib_s": r_lo["membw_gib_s"],
        "membw_end_gib_s": r_hi["membw_end_gib_s"],
        "membw_min_gib_s": min(
            r_lo["membw_gib_s"], r_lo["membw_end_gib_s"],
            r_hi["membw_gib_s"], r_hi["membw_end_gib_s"]),
    }))


def _json_only_stdout(fn):
    """Guarantee the ONE-JSON-LINE stdout contract at the fd level:
    raylet log-monitor lines can reach fd 1 even with
    ``log_to_driver=False``, so run the suite with fd 1 pointed at
    stderr and emit only the final JSON on the real stdout."""
    real = os.dup(1)
    sys.stdout.flush()
    os.dup2(2, 1)
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        fn()
    finally:
        sys.stdout = old
        sys.stdout.flush()
        os.dup2(real, 1)
        os.close(real)
    line = buf.getvalue().strip().splitlines()[-1]
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        _json_only_stdout(run_scaling)
    else:
        _json_only_stdout(run_bench)
