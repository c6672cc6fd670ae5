"""Distributed Borůvka minimum spanning forest over partitioned CSR
blocks.

Classic Borůvka re-expressed in the repo's BSP superstep form
(``dist/superstep.py``): each round every component selects its
minimum-weight outgoing edge under the lexicographic total order
``(weight, min(u,v), max(u,v))`` (which makes effective weights
distinct, so the forest is unique and tie-handling is deterministic),
the selected edges merge components, and merging is resolved WITHOUT
any driver-side union-find:

  - every selected edge makes component ``c`` point at its target
    component ``t``; the pointer graph has exactly one out-edge per
    selected component, so every cycle is a mutual 2-cycle (both
    endpoints of one lex-minimal edge choosing each other),
  - 2-cycles are detected by one distributed lookup
    (``tgt[tgt[c]] == c``) and broken by rooting the smaller id,
  - chains collapse by pointer doubling (``ptr = ptr[ptr]``,
    O(log C) lookups) — the same mechanism as the redirect-chain
    kernel — then vertex labels re-map through the rooted pointers.

Driver state per round is O(P) object refs plus scalar counters; the
selected edges are emitted shard-side and either written as
partitioned parquet (``result_out=``, the at-scale seam shared with
``_finish`` kernels) or assembled only at the very end (the oracle
path). Blocks stay static across rounds (like CC/LP); intra-component
edges are filtered where the destination label is resident, so each
round scans the full edge set once — the standard Borůvka bound of
O(E log V) work over O(log V) rounds.
"""

from __future__ import annotations

import os

import numpy as np
import ray

from .blocks import DistGraph


def _lookup(P, state_refs, query_refs):
    """Distributed gather: per-shard int64 global-id query arrays ->
    per-shard refs of ``state[query]`` (state sharded vid % P). Three
    task layers (split by owner, answer at owner, scatter back); the
    driver only routes refs."""

    @ray.remote(num_returns=max(P, 2))
    def split(q):
        outs = [q[(q % P) == r] // P for r in range(P)]
        return outs if P > 1 else outs + [None]

    @ray.remote(num_returns=max(P, 2))
    def answer(state, *chunks):
        outs = [state[c] for c in chunks]
        return outs if P > 1 else outs + [None]

    @ray.remote
    def scatter(q, *answers):
        out = np.empty(len(q), dtype=np.int64)
        for r in range(P):
            out[(q % P) == r] = answers[r]
        return out

    qs = [split.remote(query_refs[p]) for p in range(P)]
    ans = [answer.remote(state_refs[r], *[qs[p][r] for p in range(P)])
           for r in range(P)]
    return [scatter.remote(query_refs[p],
                           *[ans[r][p] for r in range(P)])
            for p in range(P)]


def minimum_spanning_forest(g: DistGraph, max_rounds=64,
                            result_out=None):
    """Minimum spanning forest of an undirected weighted graph
    (``DistGraph.from_edges(..., both_directions=True)``).

    Returns ``(info, rounds)`` where ``info`` carries
    ``total_weight`` / ``n_edges`` always, plus either the edge
    arrays ``(u, v, weight)`` (``result_out=None``, driver assemble —
    the oracle path) or ``{"path", "rows"}`` when each shard wrote
    its selected edges as ``part-r{round}-p{shard}.parquet`` from the
    worker (o(n) driver, resumable via skip-if-exists + tmp/replace
    like ``superstep._write_shard``)."""
    P, n, sizes = g.P, g.n, g.sizes

    @ray.remote(num_returns=max(P, 2))
    def cand_gather(p, block, comp):
        """Per-edge candidate messages routed to the dst's shard:
        (dst_local, comp_src, weight, u_global)."""
        cu = comp[block["src_local"]]
        u = block["src_local"] * P + p
        off = block["dst_offsets"]
        outs = []
        for q in range(P):
            sl = slice(int(off[q]), int(off[q + 1]))
            outs.append((block["dst_local"][sl], cu[sl],
                         block["weight"][sl], u[sl]))
        return outs if P > 1 else outs + [None]

    @ray.remote(num_returns=max(P, 2))
    def cand_local(q, comp, *msgs):
        """At dst shard q: resolve comp_dst locally, drop internal
        edges, pre-reduce to one lex-min candidate per destination
        component, route by the component's owner shard."""
        dl = np.concatenate([m[0] for m in msgs])
        cu = np.concatenate([m[1] for m in msgs])
        w = np.concatenate([m[2] for m in msgs])
        u = np.concatenate([m[3] for m in msgs])
        v = dl * P + q
        cv = comp[dl]
        m = cu != cv
        cu, w, u, v, cv = cu[m], w[m], u[m], v[m], cv[m]
        umin = np.minimum(u, v)
        umax = np.maximum(u, v)
        order = np.lexsort((umax, umin, w, cv))
        cv, w, u, v, cu = (cv[order], w[order], u[order], v[order],
                           cu[order])
        first = np.ones(len(cv), dtype=bool)
        first[1:] = cv[1:] != cv[:-1]
        cv, w, u, v, cu = cv[first], w[first], u[first], v[first], \
            cu[first]
        outs = []
        for r in range(P):
            sel = (cv % P) == r
            outs.append((cv[sel], w[sel], u[sel], v[sel], cu[sel]))
        return outs if P > 1 else outs + [None]

    @ray.remote(num_returns=6)
    def best_of(*parts):
        """At the component's owner shard: global lex-min per
        component over the pre-reduced candidates."""
        cv = np.concatenate([p[0] for p in parts])
        w = np.concatenate([p[1] for p in parts])
        u = np.concatenate([p[2] for p in parts])
        v = np.concatenate([p[3] for p in parts])
        cu = np.concatenate([p[4] for p in parts])
        umin = np.minimum(u, v)
        umax = np.maximum(u, v)
        order = np.lexsort((umax, umin, w, cv))
        cv, w, u, v, cu = (cv[order], w[order], u[order], v[order],
                           cu[order])
        first = np.ones(len(cv), dtype=bool)
        first[1:] = cv[1:] != cv[:-1]
        cv, w, u, v, cu = cv[first], w[first], u[first], v[first], \
            cu[first]
        return cv, w, u, v, cu, len(cv)

    @ray.remote
    def tgt_dense(r_size, r, bc, bt):
        """Dense comp->target map for this owner shard (identity ==
        'no outgoing edge this round' is encoded as -1)."""
        dense = np.full(r_size, -1, dtype=np.int64)
        dense[bc // P] = bt
        return dense

    @ray.remote(num_returns=4)
    def elect(r_size, r, bc, bt, bw, bu, bv, tgt_of_bt):
        """Mutual-pair detection + root election + edge emission.
        ptr[c] = c when c roots a mutual pair (c < t), else t; the
        larger side of a mutual pair does NOT emit (both picked the
        same lex-minimal edge)."""
        mut = tgt_of_bt == bc
        ptr = np.arange(r, r + r_size * P, P, dtype=np.int64)[:r_size]
        ptr[bc // P] = np.where(mut & (bc < bt), bc, bt)
        emit = ~(mut & (bc > bt))
        return ptr, bu[emit], bv[emit], bw[emit]

    @ray.remote
    def ptr_step(old, new):
        return int(np.count_nonzero(old != new))

    @ray.remote
    def write_edges(u, v, w, out_dir, rnd, p):
        import pyarrow as pa
        import pyarrow.parquet as pq
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"part-r{rnd:03d}-p{p:05d}.parquet")
        if os.path.exists(path):
            return len(u)
        tmp = path + f".tmp-{os.getpid()}"
        pq.write_table(pa.table({"u": pa.array(u), "v": pa.array(v),
                                 "weight": pa.array(w)}), tmp)
        os.replace(tmp, path)
        return len(u)

    comp_refs = [ray.put(np.arange(p, n, P, dtype=np.int64))
                 for p in range(P)]
    edge_refs = []           # (u_ref, v_ref, w_ref) per emission
    total_weight = 0.0
    n_edges = 0
    rnd = 0
    for rnd in range(max_rounds):
        msg = [cand_gather.remote(p, g.blocks[p], comp_refs[p])
               for p in range(P)]
        loc = [cand_local.remote(q, comp_refs[q],
                                 *[msg[p][q] for p in range(P)])
               for q in range(P)]
        best = [best_of.remote(*[loc[q][r] for q in range(P)])
                for r in range(P)]
        counts = ray.get([best[r][5] for r in range(P)])
        if sum(counts) == 0:
            break
        # mutual-pair check: tgt_of(bt) for every best entry
        dense_refs = [tgt_dense.remote(sizes[r], r, best[r][0],
                                       best[r][4]) for r in range(P)]
        tgt_of_bt = _lookup(P, dense_refs,
                            [best[r][4] for r in range(P)])
        elected = [elect.remote(sizes[r], r, best[r][0], best[r][4],
                                best[r][1], best[r][2], best[r][3],
                                tgt_of_bt[r]) for r in range(P)]
        ptr_refs = [e[0] for e in elected]
        if result_out is not None:
            rows = ray.get([write_edges.remote(
                elected[r][1], elected[r][2], elected[r][3],
                result_out, rnd, r) for r in range(P)])
            n_edges += int(sum(rows))
            total_weight += float(sum(ray.get(
                [_wsum.remote(elected[r][3]) for r in range(P)])))
        else:
            for r in range(P):
                edge_refs.append((elected[r][1], elected[r][2],
                                  elected[r][3]))
        # pointer doubling to roots
        for _ in range(max(1, int(np.ceil(np.log2(max(n, 2)))) + 1)):
            new_refs = _lookup(P, ptr_refs, ptr_refs)
            changed = sum(ray.get([ptr_step.remote(ptr_refs[r],
                                                   new_refs[r])
                                   for r in range(P)]))
            ptr_refs = new_refs
            if changed == 0:
                break
        # relabel vertices through the rooted pointers
        comp_refs = _lookup(P, ptr_refs, comp_refs)
    if result_out is not None:
        return {"path": result_out, "rows": n_edges,
                "total_weight": round(total_weight, 9),
                "n_edges": n_edges}, rnd + 1
    us, vs, ws = [], [], []
    for (ur, vr, wr) in edge_refs:
        us.append(ray.get(ur))
        vs.append(ray.get(vr))
        ws.append(ray.get(wr))
    u = np.concatenate(us) if us else np.zeros(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.zeros(0, dtype=np.int64)
    w = np.concatenate(ws) if ws else np.zeros(0)
    return {"u": u, "v": v, "weight": w,
            "total_weight": float(w.sum()),
            "n_edges": int(len(u))}, rnd + 1


@ray.remote
def _wsum(w):
    return float(np.sum(w))
