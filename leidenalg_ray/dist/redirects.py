"""Redirect-chain resolution by distributed pointer doubling.

A crawl emits a partial functional mapping ``src -> dst`` (HTTP 301/
302/canonical redirects). Resolution follows the chain to its
terminal (a vid with no outgoing redirect). Pointer doubling reaches
chains of length up to ``2**rounds`` in ``rounds`` BSP supersteps:
after round r every live pointer has skipped ``2**r`` hops, so a
billion-hop-capable resolve is 30 rounds, not a billion.

Sharding: entries live on ``src % P``; each round every shard buckets
its live pointers by owner, the owner answers (found, next, hops) for
each query, and the shard composes. Cycle members (and chains longer
than ``2**rounds``) never reach a terminal and are reported
unresolved — the caller decides whether to drop or flag them. Driver
state is O(1): only shard refs and live counts cross the driver.
"""

from __future__ import annotations

import numpy as np
import ray

from .superstep import _tasks


@ray.remote
def _build_shard(src, dst, p, P):
    m = (src % P) == p
    s, d = src[m], dst[m]
    order = np.argsort(s, kind="stable")
    return {"src": s[order], "nxt": d[order],
            "hops": np.ones(len(s), dtype=np.int64),
            "done": np.zeros(len(s), dtype=bool)}


@ray.remote
def _lookup(shard, queries):
    """For each queried vid: (found, its current nxt, its hops,
    whether it is already done)."""
    s = shard["src"]
    idx = np.searchsorted(s, queries)
    idx_c = np.minimum(idx, max(len(s) - 1, 0))
    found = (len(s) > 0) & (s[idx_c] == queries) if len(s) else \
        np.zeros(len(queries), dtype=bool)
    safe = np.where(found, idx_c, 0)
    if len(s):
        return (found, shard["nxt"][safe], shard["hops"][safe],
                shard["done"][safe])
    z = np.zeros(len(queries), dtype=np.int64)
    return found, z, z, np.zeros(len(queries), dtype=bool)


@ray.remote(num_returns=2)
def _compose(shard, P, *responses):
    """Apply one doubling round from the owners' answers; returns the
    updated shard and its live count."""
    live = np.flatnonzero(~shard["done"])
    if len(live) == 0:
        return shard, 0
    tgt = shard["nxt"][live]
    owner = (tgt % P).astype(np.int64)
    nxt = shard["nxt"].copy()
    hops = shard["hops"].copy()
    done = shard["done"].copy()
    for q in range(P):
        m = np.flatnonzero(owner == q)
        if len(m) == 0:
            continue
        found, n2, h2, d2 = responses[q]
        rows = live[m]
        # target has no redirect entry -> it IS the terminal
        done[rows[~found]] = True
        hit = rows[found]
        nxt[hit] = n2[found]
        hops[hit] = hops[hit] + h2[found]
        # target resolved already: composing lands on ITS terminal
        done[hit[d2[found]]] = True
    out = dict(shard)
    out["nxt"], out["hops"], out["done"] = nxt, hops, done
    return out, int((~done).sum())


def _queries_of(shard, P):
    """A shard's live pointer targets, one array per owner shard."""
    live = shard["nxt"][~shard["done"]]
    return [live[(live % P) == q] for q in range(P)]


@ray.remote
def _emit(shard):
    d = shard["done"]
    return (shard["src"][d], shard["nxt"][d], shard["hops"][d])


def resolve_redirects(src, dst, P=8, rounds=20):
    """Resolve a functional redirect mapping given as int64 arrays.

    Returns (vid, final, hops) int64 arrays covering every src whose
    chain terminates within ``2**rounds`` hops; cycle members and
    over-long chains are omitted. The per-round query targets of a
    live pointer double, so total work is O(E log L) messages for
    maximum chain length L.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    shards = [_build_shard.remote(src, dst, p, P) for p in range(P)]
    queries_of = _tasks(_queries_of, P, split=True)
    for _ in range(rounds):
        # owners answer against the PRE-round snapshot: classic
        # synchronous doubling (hops exactly double per round)
        snap = list(shards)
        qrefs = [queries_of(snap[p], P) for p in range(P)]
        new = []
        counts = []
        for p in range(P):
            resp = [_lookup.remote(snap[q], qrefs[p][q])
                    for q in range(P)]
            s2, c = _compose.remote(snap[p], P, *resp)
            new.append(s2)
            counts.append(c)
        shards = new
        if sum(ray.get(counts)) == 0:
            break
    parts = ray.get([_emit.remote(s) for s in shards])
    return (np.concatenate([t[0] for t in parts]),
            np.concatenate([t[1] for t in parts]),
            np.concatenate([t[2] for t in parts]))
