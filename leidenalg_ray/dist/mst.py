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

import math

import numpy as np
import ray

from .blocks import DistGraph
from .superstep import _by_dest, _claim_output, _map, _tasks, _write_part
from .triangles import _split_by


def _split_query(P, q):
    """Global-id queries as P parts of owner-local ids (owner
    ``q % P``), in query order within each part."""
    return [c for (c,) in _split_by(q % P, P, q // P)]


def _answer(state, *chunks):
    """At an owner shard: ``state`` at each querying shard's ids."""
    return [state[c] for c in chunks]


def _scatter_back(P, q, *answers):
    """Owner answers back in the order of the queries ``q``."""
    out = np.empty(len(q), dtype=np.int64)
    for r in range(P):
        out[(q % P) == r] = answers[r]
    return out


def _lookup(P, state_refs, query_refs):
    """Distributed gather: per-shard int64 global-id query arrays ->
    per-shard refs of ``state[query]`` (state sharded vid % P). Three
    task layers (split by owner, answer at owner, scatter back); the
    driver only routes refs."""
    split = _tasks(_split_query, P, split=True)
    answer = _tasks(_answer, P, split=True)
    scatter = _tasks(_scatter_back)
    qs = [split(P, q) for q in query_refs]
    ans = [answer(state_refs[r], *[qs[p][r] for p in range(P)])
           for r in range(P)]
    return [scatter(P, query_refs[p], *[ans[r][p] for r in range(P)])
            for p in range(P)]


def _candidates(P, p, block, comp):
    """Shard p's per-edge candidate messages, cut per destination
    shard: ``(dst_local, comp_src, weight, u_global)``."""
    return _by_dest(block, comp[block["src_local"]], block["weight"],
                    block["src_local"] * P + p)


def _lex_min(cv, w, u, v, cu):
    """One candidate per component ``cv``: its lexicographically
    smallest ``(weight, min(u, v), max(u, v))`` edge."""
    order = np.lexsort((np.maximum(u, v), np.minimum(u, v), w, cv))
    cv, w, u, v, cu = (x[order] for x in (cv, w, u, v, cu))
    first = np.ones(len(cv), dtype=bool)
    first[1:] = cv[1:] != cv[:-1]
    return tuple(x[first] for x in (cv, w, u, v, cu))


def _local_candidates(P, q, comp, *msgs):
    """At dst shard q: resolve comp_dst locally, drop internal edges,
    pre-reduce to one lex-min candidate per destination component,
    route by the component's owner shard."""
    dl, cu, w, u = (np.concatenate([m[c] for m in msgs]) for c in range(4))
    cv = comp[dl]
    m = cu != cv
    cv, w, u, v, cu = _lex_min(cv[m], w[m], u[m], (dl * P + q)[m], cu[m])
    return _split_by(cv % P, P, cv, w, u, v, cu)


def _best_of(*parts):
    """At the component's owner shard: global lex-min per component
    over the pre-reduced candidates, and their count."""
    best = _lex_min(*(np.concatenate([p[c] for p in parts])
                      for c in range(5)))
    return (*best, len(best[0]))


def _tgt_dense(P, r_size, bc, bt):
    """Dense comp->target map for this owner shard (identity ==
    'no outgoing edge this round' is encoded as -1)."""
    dense = np.full(r_size, -1, dtype=np.int64)
    dense[bc // P] = bt
    return dense


def _elect(P, r_size, r, bc, bt, bw, bu, bv, tgt_of_bt):
    """Mutual-pair detection + root election + edge emission.
    ptr[c] = c when c roots a mutual pair (c < t), else t; the
    larger side of a mutual pair does NOT emit (both picked the
    same lex-minimal edge)."""
    mut = tgt_of_bt == bc
    ptr = np.arange(r, r + r_size * P, P, dtype=np.int64)[:r_size]
    ptr[bc // P] = np.where(mut & (bc < bt), bc, bt)
    emit = ~(mut & (bc > bt))
    return ptr, bu[emit], bv[emit], bw[emit]


def _count_changed(old, new):
    """How many pointers one doubling step moved."""
    return int(np.count_nonzero(old != new))


def _write_edges(u, v, w, out_dir, rnd, p):
    """Shard p's edges selected in round ``rnd`` as their part file;
    returns their count and correctly rounded weight sum."""
    _write_part(out_dir, f"part-r{rnd:03d}-p{p:05d}.parquet",
                {"u": u, "v": v, "weight": w})
    return len(u), math.fsum(w)


def minimum_spanning_forest(g: DistGraph, max_rounds=64,
                            result_out=None):
    """Minimum spanning forest of an undirected weighted graph
    (``DistGraph.from_edges(..., both_directions=True)``).

    Returns ``(info, rounds)`` where ``info`` carries
    ``total_weight`` / ``n_edges`` always, plus either the edge
    arrays ``(u, v, weight)`` (``result_out=None``, driver assemble —
    the oracle path) or ``{"path", "rows"}`` when each shard wrote
    its selected edges as ``part-r{round}-p{shard}.parquet`` from the
    worker (o(n) driver, resumable and identity-checked through
    ``superstep._claim_output`` / ``_write_part``)."""
    P, n, sizes = g.P, g.n, g.sizes
    gather = _tasks(_candidates, P, split=True)
    local = _tasks(_local_candidates, P, split=True)
    best_of = _tasks(_best_of, 6)
    tgt_dense = _tasks(_tgt_dense)
    elect = _tasks(_elect, 4)
    if result_out is not None:
        _claim_output(result_out, n, P, "weight", max_rounds=max_rounds)
        write = _tasks(_write_edges)

    comp_refs = [ray.put(np.arange(p, n, P, dtype=np.int64))
                 for p in range(P)]
    edge_refs = []           # (u_ref, v_ref, w_ref) per emission
    part_sums = []           # per written part, result_out only
    n_edges = 0
    rnd = 0
    for rnd in range(max_rounds):
        msg = [gather(P, p, g.blocks[p], comp_refs[p]) for p in range(P)]
        loc = [local(P, q, comp_refs[q], *[msg[p][q] for p in range(P)])
               for q in range(P)]
        best = [best_of(*[loc[q][r] for q in range(P)]) for r in range(P)]
        counts = ray.get([best[r][5] for r in range(P)])
        if sum(counts) == 0:
            break
        # mutual-pair check: tgt_of(bt) for every best entry
        dense_refs = [tgt_dense(P, sizes[r], best[r][0], best[r][4])
                      for r in range(P)]
        tgt_of_bt = _lookup(P, dense_refs,
                            [best[r][4] for r in range(P)])
        elected = [elect(P, sizes[r], r, best[r][0], best[r][4],
                         best[r][1], best[r][2], best[r][3], tgt_of_bt[r])
                   for r in range(P)]
        ptr_refs = [e[0] for e in elected]
        if result_out is not None:
            rows = ray.get([write(elected[r][1], elected[r][2],
                                  elected[r][3], result_out, rnd, r)
                            for r in range(P)])
            n_edges += int(sum(c for c, _ in rows))
            part_sums += [w for _, w in rows]
        else:
            for r in range(P):
                edge_refs.append((elected[r][1], elected[r][2],
                                  elected[r][3]))
        # pointer doubling to roots
        for _ in range(max(1, int(np.ceil(np.log2(max(n, 2)))) + 1)):
            new_refs = _lookup(P, ptr_refs, ptr_refs)
            changed = sum(ray.get(_map(_count_changed, ptr_refs,
                                       new_refs)))
            ptr_refs = new_refs
            if changed == 0:
                break
        # relabel vertices through the rooted pointers
        comp_refs = _lookup(P, ptr_refs, comp_refs)
    if result_out is not None:
        return {"path": result_out, "rows": n_edges,
                "total_weight": round(math.fsum(part_sums), 9),
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
            # correctly rounded, so the same forest gives the same
            # total at any P (a plain sum follows the emission order)
            "total_weight": math.fsum(w),
            "n_edges": int(len(u))}, rnd + 1

