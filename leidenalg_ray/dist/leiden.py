"""Distributed Leiden (SURVEY.md §4.3.2, §7.1.4).

Level 0 — where the graph is huge — runs as synchronous supersteps over
P hash-partitioned ``LeidenShard`` incidence blocks, held on
H = min(P, cluster CPUs) ``_ShardHost`` actors (host h holds the shards
p ≡ h mod H and runs them in its own thread pool; each round is one
batched call per host, ``DistLeiden._fan``):

1. *gather/propose*: each shard computes per-vertex
   neighbour-community weights (partial-aggregated inside the block)
   and the exact quality delta for every candidate move against the
   committed snapshot; only vertices in the active hash-colour class
   propose.
2. *commit*: the driver broadcasts the colour class's accepted moves
   (a few small arrays — vids, targets and the per-vid degree/loop/size
   scalars the proposals already carry); every shard and the driver
   apply the identical incremental update to their membership + stats
   copies, so no O(n) array is re-``ray.put`` per superstep. The
   incremental stats are EXACT (r5): the one drift source — an edge
   between two same-step movers — is corrected by per-shard partials
   computed during the commit's reverse-adjacency pass
   (``_mark_dirty``), so quality is verified every cycle from the
   corrected incremental stats with NO per-cycle O(E/P) recompute
   (one full recompute remains every 16th cycle as a self-check, and
   for non-frontier candidate modes). A cycle that *decreased*
   quality (conflicting parallel moves) is rolled back and re-run in
   safe mode — per-step recompute plus a greedy non-interfering
   subset — so quality is monotone non-decreasing like the
   reference's sequential queue and the fixed point satisfies the
   same node-optimality property (reference
   ``tests/test_Optimiser.py:84-94``).

After level-0 convergence the aggregate graph is orders of magnitude
smaller (SURVEY.md §7.0): refinement runs per-community in parallel
tasks (internal edges bucketed by community hash and shipped
worker-to-worker — the driver only passes refs), the aggregate is
built from per-shard ``(comm_src, comm_dst) -> w`` partials, and the
remaining levels run the exact in-memory schedule
(``leidenalg_ray.optimiser``) — the identical semantics at P=1.

Scale notes: the driver holds O(n) state (membership, node sizes,
community stats) but never O(edges); edges live only in the shard
hosts (``from_dataset`` routes them through a partitioned parquet
spill that each shard loads its own partition from). Each shard's
resident state is O((n + E)/P): membership only for the vids its
block references (``ref_vids``/``mem_ref``) and community stats
compressed to its tracked labels (``stat_labels``), with
driver-authoritative values upserted from each move broadcast. Full
O(n) arrays appear on shards only transiently, as zero-copy reads of
broadcast objects at cycle boundaries (init/rollback), and are sliced
before retention.

All six quality families run distributed. The linear ones
(Modularity, RBConfiguration, RBER, CPM, Significance) evaluate move
deltas directly from the two affected communities' terms; Surprise's
nonlinear combine evaluates every candidate against the GLOBAL
aggregated term vector (recomputed from the broadcast stats snapshot
inside each propose call) via the plugin's vectorised
``combine_many`` — reference semantics at
``/root/reference/src/leidenalg/VertexPartition.py:470-492``, formula
still owned solely by ``leidenalg_ray.quality``.
"""

from __future__ import annotations

import os

import numpy as np
import ray

from ..graph import Graph
from ..partition import (
    CPMVertexPartition,
    ModularityVertexPartition,
    RBConfigurationVertexPartition,
    RBERVertexPartition,
    SignificanceVertexPartition,
    SurpriseVertexPartition,
)
from ..optimiser import Optimiser
from ..util import session_cpus
from .superstep import _claim_output, _write_shard

PARTITION_TYPES = {
    "modularity": ModularityVertexPartition,
    "rb_configuration": RBConfigurationVertexPartition,
    "rber": RBERVertexPartition,
    "cpm": CPMVertexPartition,
    "significance": SignificanceVertexPartition,
    "surprise": SurpriseVertexPartition,
}


class _ScalarGraph:
    """Just enough graph surface for the quality plugins: global
    scalars + possible_edges."""

    def __init__(self, n, directed, total_weight, total_size):
        self.n = n
        self.directed = directed
        self.total_weight = total_weight
        self.total_size = total_size

    def possible_edges(self, size, correct_self_loops=False):
        size = np.asarray(size, dtype=np.float64)
        denom = 1.0 if self.directed else 2.0
        if correct_self_loops:
            return size * size / denom
        return size * (size - 1.0) / denom


def _make_qf(quality, sg, gamma, correct_self_loops):
    from ..quality import QUALITY_REGISTRY
    cls = QUALITY_REGISTRY[quality]
    return cls(sg, resolution_parameter=gamma,
               correct_self_loops=correct_self_loops)


def _layer_qfs(scal):
    """One (quality_fn, gamma, lambda_k) triple per layer, built from
    the per-layer scalars. Formula source stays leidenalg_ray.quality —
    the multiplex objective is just Q = sum_k lambda_k Q_k (reference
    ``Optimiser.py:357-461``)."""
    out = []
    for lc in scal["layers"]:
        sg = _ScalarGraph(scal["n"], scal["directed"], lc["m"],
                          lc["total_size"])
        out.append((_make_qf(lc["quality"], sg, lc["gamma"],
                             scal["correct_self_loops"]),
                    lc["gamma"], lc["weight"]))
    return out


def _empty_props(L):
    """No-proposal sentinel: 1-D index arrays + (L, 0) per-layer
    scalar blocks (+ the empty-intent flag row)."""
    e1 = np.empty(0, np.int64)
    e2 = np.empty((L, 0))
    return (e1, e1.copy(), np.empty(0), e2, e2.copy(), e2.copy(),
            e2.copy(), e2.copy(), e2.copy(), e1.copy(),
            np.empty(0, bool))


def _colour_hash(vids):
    """Mixed-bit colour hash. A plain Knuth multiply keeps the vid's
    low bits' parity (odd multiplier), which correlates colour classes
    with the vid%P partitioning — half the shards would idle every
    2-colour superstep. The splitmix-style shift decorrelates."""
    x = vids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(29)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    return ((x >> np.uint64(32)) & np.uint64(0x7FFFFFFF)) \
        .astype(np.int64)


def _lab_idx(stat_labels, lab):
    """Translate global community labels into the shard's compressed
    stats index; raises on an untracked label (protocol violation)
    rather than silently reading a neighbour's slot."""
    i = np.searchsorted(stat_labels, lab)
    if len(stat_labels) == 0:
        if len(lab) == 0:
            return i
        raise ValueError("untracked community label in propose")
    i = np.minimum(i, len(stat_labels) - 1)
    if not np.array_equal(stat_labels[i], lab):
        raise ValueError("untracked community label in propose")
    return i


def _propose_kernel(block, kv, st, scal, color, n_colors):
    """Gather + propose for one shard's block, over L layers sharing
    one membership (L=1 is plain single-graph Leiden).

    block: dict(src_local, dst_global, weight, layer, dst_ref_idx)
    sorted by src_local (symmetrised incidence: weight(v, c) sums each
    edge once from v's side; for directed graphs the pair carries
    w_to + w_from combined, which is exactly what the quality delta
    needs).
    kv: per-local-vertex arrays (k_out, k_in, loop, nsz), each of
    shape (L, n_local), for this shard's own vertices.
    st: the shard's compressed state — membership over the shard's
    REFERENCED vids only (``mem_ref`` indexed via ``own_ref_idx`` /
    ``dst_ref_idx``) and label-compressed community stats
    (``stat_labels`` + (L, n_tracked) w_in/s_out/s_in/size aligned to
    it, plus per-layer global term-sum vectors ``agg0`` for nonlinear
    qualities). No O(n) array is resident.
    The move delta is the multiplex objective
    dq = sum_k lambda_k dq_k (reference ``Optimiser.py:357-461``);
    each layer's dq_k comes from the same quality plugin the in-memory
    tier uses.
    Returns accepted proposals for the active colour class, each row
    carrying the per-(layer, vid) scalars needed to apply the move
    anywhere: (vids, targets, dq, wnew, wcur, loop, k_out, k_in, nsz,
    cur, empty) with the six middle blocks shaped (L, n_moves) and
    ``empty`` the kernel's empty-intent flag (the driver re-targets
    colliding empty labels; see ``_relabel_occupied_empty``).
    """
    L = len(scal["layers"])
    src_local = block["src_local"]
    if len(src_local) == 0:
        return _empty_props(L)
    P = scal["P"]
    vid_base = scal["p"]
    M = scal["label_space"]

    # the caller (LeidenShard.step) pre-slices the block to the active
    # colour class (cached per colour — no per-superstep boolean
    # compress); here only the dynamic masks apply
    row_active = None
    front = st.get("front_local")
    if front is not None:
        # active-frontier propose (reference ``Optimiser.py:485-521``
        # work-queue semantics, made distributed): only vertices whose
        # neighbourhood changed since their last propose — plus
        # never-proposed ones — re-enter the gather. The expensive
        # per-(v, comm) np.unique then shrinks with the frontier, so
        # late supersteps (tiny frontiers) cost ~nothing.
        row_active = front[src_local]
    fixed_local = st.get("fixed_local")
    if fixed_local is not None:
        # fixed vertices never propose (reference
        # ``python_optimiser_interface.cpp:77-97``); their rows drop
        # out before the per-(v, comm) grouping
        fa = ~fixed_local[src_local]
        row_active = fa if row_active is None else row_active & fa
    if row_active is None:
        weight = block["weight"]
        dref = block["dst_ref_idx"]
        lay = block["layer"]
    else:
        if not row_active.any():
            return _empty_props(L)
        if row_active.all():
            weight = block["weight"]
            dref = block["dst_ref_idx"]
            lay = block["layer"]
        else:
            src_local = src_local[row_active]
            weight = block["weight"][row_active]
            dref = block["dst_ref_idx"][row_active]
            lay = block["layer"][row_active]

    qfs = _layer_qfs(scal)

    mem_ref = st["mem_ref"]
    own_idx = st["own_ref_idx"]
    dst_comm = mem_ref[dref]
    key = src_local.astype(np.int64) * M + dst_comm
    uniq, inv = np.unique(key, return_inverse=True)
    # per-layer gather: weight(v -> community) by (pair, layer) —
    # bincount, not np.add.at (unbuffered ufunc.at is ~5x slower)
    if L == 1:
        w_vc = np.bincount(inv, weights=weight,
                           minlength=len(uniq))[None, :]
    else:
        w_vc = np.zeros((L, len(uniq)))
        for k in range(L):
            mk = lay == k
            w_vc[k] = np.bincount(inv[mk], weights=weight[mk],
                                  minlength=len(uniq))

    # candidate-set variants (reference ``Optimiser.py:77-112``; the
    # in-memory twin is ``optimiser.py:140-162``). The default
    # "all_neighbors" keeps the neighbour-community pairs as-is.
    consider = scal.get("consider_comms", "all_neighbors")
    if consider == "all":
        # ALL_COMMS: every live community is a candidate for every
        # active vertex — required for negative-weight graphs, where
        # the best target can share NO edge with the vertex. The
        # shard tracks ALL live labels in this mode (set_config), so
        # this is inherently Ω(V·C) work and O(C) shard state; the
        # cross-product pairs carry w=0 unless a neighbour pair
        # already exists.
        live = st["stat_labels"][
            (np.asarray(st["size"]).sum(axis=0) > 0)]
        act_v = np.unique(
            (uniq // M).astype(np.int64))
        keys_all = (act_v[:, None] * M + live[None, :]).ravel()
        merged = np.union1d(uniq, keys_all)
        w2 = np.zeros((L, len(merged)))
        w2[:, np.searchsorted(merged, uniq)] = w_vc
        uniq, w_vc = merged, w2
    if consider == "rand":
        # RAND_COMM (reference Optimiser.py:104-107): one candidate
        # per vertex, drawn uniformly from the driver's broadcast
        # size-proportional label pool (see DistLeiden docstring).
        # The pool labels' stats were upserted by the same broadcast,
        # so scoring a non-neighbour target works; pairs absent from
        # the neighbour gather carry w=0.
        pool = st.get("rand_pool")
        if pool is None or len(pool) == 0:
            return _empty_props(L)
        rng = np.random.default_rng(st["rng_seed"])
        act_v = np.unique((uniq // M).astype(np.int64))
        draw = pool[rng.integers(0, len(pool), len(act_v))]
        merged = np.union1d(uniq, act_v * M + draw)
        w2 = np.zeros((L, len(merged)))
        w2[:, np.searchsorted(merged, uniq)] = w_vc
        uniq, w_vc = merged, w2
        chosen_of = np.full(int(act_v.max()) + 1, -1, dtype=np.int64)
        chosen_of[act_v] = draw
    pv = (uniq // M).astype(np.int64)   # src_local per pair
    pc_ = (uniq % M).astype(np.int64)   # candidate community per pair
    if consider == "rand":
        keep = ((pc_ == chosen_of[pv])
                | (pc_ == mem_ref[own_idx[pv]]))
        uniq, w_vc = uniq[keep], w_vc[:, keep]
        pv, pc_ = pv[keep], pc_[keep]
        if len(uniq) == 0:
            return _empty_props(L)
    if consider == "rand_neighbor":
        # RAND_NEIGH_COMM: one candidate per vertex — the community
        # of a uniformly random incident edge (edge-multiplicity
        # weighted, like the in-memory kernel's random-neighbour
        # draw); the vertex's own community pair is kept so w_cur
        # stays exact. Seeded per (run seed, shard, superstep) for
        # reproducibility.
        rng = np.random.default_rng(st["rng_seed"])
        vb = np.flatnonzero(np.r_[True,
                                  src_local[1:] != src_local[:-1]])
        vcnt = np.diff(np.append(vb, len(src_local)))
        pick = vb + rng.integers(0, vcnt)
        chosen_of = np.full(int(src_local.max()) + 1, -1,
                            dtype=np.int64)
        chosen_of[src_local[vb]] = mem_ref[dref[pick]]
        keep = ((pc_ == chosen_of[pv])
                | (pc_ == mem_ref[own_idx[pv]]))
        uniq, w_vc = uniq[keep], w_vc[:, keep]
        pv, pc_ = pv[keep], pc_[keep]
        if len(uniq) == 0:
            return _empty_props(L)

    cur = mem_ref[own_idx[pv]]

    # per-vertex weight to current community, dense local-vertex
    # indexed (vectorised; no per-pair Python lookups)
    is_cur = pc_ == cur
    max_loc = int(pv.max()) + 1
    w_cur_arr = np.zeros((L, max_loc))
    w_cur_arr[:, pv[is_cur]] = w_vc[:, is_cur]

    cand = ~is_cur
    if not cand.any():
        return _empty_props(L)
    ci = np.flatnonzero(cand)
    v_loc = pv[ci]
    cs = pc_[ci]
    cur_c = cur[ci]

    SL = st["stat_labels"]
    W, SO, SI, SZ = (st["w_in"], st["s_out"], st["s_in"], st["size"])
    csi = _lab_idx(SL, cs)

    # per-vertex segment layout (candidate rows sorted by (vertex,
    # community) — the np.unique key ordering)
    starts = np.flatnonzero(np.r_[True, v_loc[1:] != v_loc[:-1]])
    vu = v_loc[starts]
    vids_u = vu * P + vid_base
    # candidate rows of one vertex share its current community, so the
    # per-vertex lookups run on the segment heads only
    cur_u = cur_c[starts]
    curui = _lab_idx(SL, cur_u)

    counts = np.diff(np.append(starts, len(v_loc)))
    seg_id = np.repeat(np.arange(len(vu)), counts)

    dq = np.zeros(len(ci))
    dq_e = np.zeros(len(vu))
    # summed-over-layers size the vertex leaves behind (alone check);
    # the max_comm_size cap itself is layer-0 only (SZ[0] + nsz0_new),
    # matching the in-memory kernel's p0.csize check.
    tot_sz_cur_left = np.zeros(len(vu))
    nsz0_new = np.zeros(len(ci))

    for k, (qf, gamma, lam) in enumerate(qfs):
        scale = qf.linear_scale()

        def term(w, so, si, sz, _qf=qf, _g=gamma):
            return np.atleast_2d(_qf.term(w, so, si, sz, _g))

        if scale is None:
            # nonlinear combine (Surprise): every candidate's exact
            # global delta = combine(global term sum + local term
            # shift) - Q0. agg0 (term_dim scalars, not O(n)) is
            # maintained per layer by the driver and shipped with
            # every state push; formula lives only in quality.py.
            agg0 = np.atleast_1d(np.asarray(st["agg0"][k],
                                            dtype=np.float64))
            q0 = qf.combine(agg0, gamma)

            def dq_of(d_new, d_old, _qf=qf, _g=gamma, _a=agg0, _q0=q0):
                aggs = _a[:, None] + d_new + d_old
                return _qf.combine_many(aggs, _g) - _q0
        else:
            def dq_of(d_new, d_old, _s=scale):
                return _s * (d_new + d_old)[0]

        Wk, SOk, SIk, SZk = W[k], SO[k], SI[k], SZ[k]
        # terms are elementwise in the community stats, so the
        # candidate community's BASE term is a gather from one
        # term() over all tracked labels (O(labels), not O(pairs)),
        # and d_old — the cost of leaving the current community —
        # depends only on the vertex: computed once per active vertex
        # and repeated over its candidate segment. Only the "plus"
        # term (target stats + the vertex's contribution) is
        # inherently per-candidate.
        term_all = term(Wk, SOk, SIk, SZk)

        # per-vertex block (also the empty-community candidate)
        w_cur_u = w_cur_arr[k][vu]
        k_out_u = kv["k_out"][k][vu]
        k_in_u = kv["k_in"][k][vu]
        loop_u = kv["loop"][k][vu]
        nsz_u = kv["nsz"][k][vu]
        zero = np.zeros(len(vu))
        d_old_v = term(Wk[curui] - w_cur_u - loop_u,
                       SOk[curui] - k_out_u, SIk[curui] - k_in_u,
                       SZk[curui] - nsz_u) - term_all[:, curui]
        d_new_e = term(zero + loop_u, k_out_u, k_in_u, nsz_u) \
            - term(zero, zero, zero, zero)
        dq_e += lam * dq_of(d_new_e, d_old_v)
        tot_sz_cur_left += SZk[curui] - nsz_u

        # per-candidate block
        wv = w_vc[k][ci]
        k_out = k_out_u[seg_id]
        k_in = k_in_u[seg_id]
        loop = loop_u[seg_id]
        nsz = nsz_u[seg_id]
        d_new = term(Wk[csi] + wv + loop, SOk[csi] + k_out,
                     SIk[csi] + k_in, SZk[csi] + nsz) \
            - term_all[:, csi]
        dq += lam * dq_of(d_new, d_old_v[:, seg_id])
        if k == 0:
            nsz0_new = nsz

    max_size = scal.get("max_comm_size", 0)
    if max_size > 0:
        # cap on layer-0 community size, matching the in-memory
        # kernel's p0.csize check (optimiser.py:183-190)
        dq = np.where(SZ[0][csi] + nsz0_new > max_size, -np.inf, dq)
    # empty move only meaningful if the vertex is not alone in its
    # community (summed over layers: each vertex carries its node
    # size in at least one layer)
    alone_u = tot_sz_cur_left <= 0
    dq_e[alone_u] = -np.inf
    empty_target = scal["n"] + vids_u

    # soft min-community-size constraint — the same engine-defined
    # bonus/penalty as the in-memory kernel (optimiser.py:218-228,
    # layer-0 sizes): +E on moves filling a community to <= min_s,
    # -E on every move away from a current community that would drop
    # under min_s. Selection runs on dq + bonus; the driver disables
    # the monotone-rollback check while enforcement is active.
    E = float(scal.get("enforcement", 0.0))
    min_s = int(scal.get("min_comm_size", 0))
    if E > 0 and min_s > 0:
        nsz0 = kv["nsz"][0]
        dq = dq + np.where(SZ[0][csi] + nsz0[v_loc] <= min_s, E, 0.0)
        dq_e = dq_e + np.where(nsz0[vu] <= min_s, E, 0.0)
        leave_pen = np.where(
            ~alone_u & (SZ[0][curui] - nsz0[vu] < min_s), -E, 0.0)
        counts0 = np.diff(np.append(starts, len(v_loc)))
        dq = dq + np.repeat(leave_pen, counts0)
        dq_e = dq_e + leave_pen

    # combine: segmented argmax per vertex (deterministic tie-break:
    # highest dq, then lowest target label — within a segment the
    # communities ascend, so the first max row is the lowest label)
    counts = np.diff(np.append(starts, len(v_loc)))
    seg_id = np.repeat(np.arange(len(vu)), counts)
    seg_max = np.maximum.reduceat(dq, starts)
    is_max = dq >= seg_max[seg_id]
    row_idx = np.where(is_max, np.arange(len(dq)), len(dq))
    first_idx = np.minimum.reduceat(row_idx, starts)
    nb_d = dq[first_idx]
    nb_t = cs[first_idx]
    use_empty = (dq_e > nb_d) | ((dq_e == nb_d)
                                 & (empty_target < nb_t))
    best_d = np.where(use_empty, dq_e, nb_d)
    best_t = np.where(use_empty, empty_target, nb_t)
    best_wnew = np.where(use_empty[None, :], 0.0,
                         w_vc[:, ci[first_idx]])
    good = best_d > 1e-10
    return (vids_u[good], best_t[good], best_d[good],
            best_wnew[:, good], w_cur_arr[:, vu][:, good],
            kv["loop"][:, vu][:, good], kv["k_out"][:, vu][:, good],
            kv["k_in"][:, vu][:, good], kv["nsz"][:, vu][:, good],
            cur_u[good],
            # empty-INTENT flag: the driver must not confuse a real
            # empty-community move (scored against an empty target)
            # with an ordinary join of a community that merely lives
            # at a label >= n (someone's former empty label)
            use_empty[good])


def _apply_moves_stats(stats, mv):
    """Incremental commit against the driver's label-indexed stats.
    Each proposal carries its current community (``cur``), so the
    driver needs NO vid-indexed membership array. Shards apply the
    same moves to their compressed state via
    ``LeidenShard._apply_moves`` — membership deltas for referenced
    vids plus driver-authoritative stat values for touched labels, so
    copies never diverge."""
    vids, targs, old = mv["vids"], mv["targs"], mv["cur"]
    L = stats["w_in"].shape[0]
    for k in range(L):
        np.subtract.at(stats["w_in"][k], old,
                       mv["wcur"][k] + mv["loop"][k])
        np.add.at(stats["w_in"][k], targs,
                  mv["wnew"][k] + mv["loop"][k])
        np.subtract.at(stats["s_out"][k], old, mv["k_out"][k])
        np.add.at(stats["s_out"][k], targs, mv["k_out"][k])
        np.subtract.at(stats["s_in"][k], old, mv["k_in"][k])
        np.add.at(stats["s_in"][k], targs, mv["k_in"][k])
        np.subtract.at(stats["size"][k], old, mv["nsz"][k])
        np.add.at(stats["size"][k], targs, mv["nsz"][k])


@ray.remote
def _build_leiden_block(p, P, src, dst, weight, lay):
    """One shard's symmetrised incidence block (see
    ``DistLeiden.__init__``): forward rows whose source hashes here,
    then reverse copies of non-loop rows whose DESTINATION hashes
    here — the same rows, in the same order, the serial driver loop
    used to slice out of the concatenated arrays."""
    loop = src == dst
    mf = (src % P) == p
    mr = ((dst % P) == p) & ~loop
    return {
        "src_local": np.concatenate([src[mf], dst[mr]]) // P,
        "dst_global": np.concatenate([dst[mf], src[mr]]),
        "weight": np.concatenate([weight[mf], weight[mr]]),
        "is_rev": np.concatenate(
            [np.zeros(int(mf.sum()), dtype=bool),
             np.ones(int(mr.sum()), dtype=bool)]),
        "layer": np.concatenate([lay[mf], lay[mr]]),
    }


class LeidenShard:
    """One partition's state: incidence block + per-vertex shards +
    membership over the shard's REFERENCED vids only and
    label-compressed community stats — O((n + E)/P) resident, no O(n)
    array per shard. Full arrays are read zero-copy from broadcast
    objects only at cycle boundaries (init/rollback) and sliced.
    Lives in a ``_ShardHost``, which never runs two calls on one shard
    at once."""

    def __init__(self, p, P, block=None, parquet_dir=None):
        self.p, self.P = int(p), int(P)
        self.parquet_dir = parquet_dir
        if block is None:
            block = self._load_parquet(parquet_dir)
        self._set_block(block)
        self.mem_ref = None
        self.stat_labels = None
        self.stats = None
        self.agg0 = None
        self.scal = None
        self.fixed_local = None

    def _load_parquet(self, parquet_dir):
        import os
        import pyarrow.dataset as pads
        d = os.path.join(parquet_dir, f"part={self.p}")
        if not os.path.isdir(d):
            e = np.empty(0, np.int64)
            return {"src_local": e, "dst_global": e.copy(),
                    "weight": np.empty(0), "is_rev": np.empty(0, bool)}
        dset = pads.dataset(d)
        cols = ["src", "dst", "weight", "is_rev"]
        has_layer = "layer" in dset.schema.names
        if has_layer:
            cols.append("layer")
        t = dset.to_table(columns=cols)
        src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        out = {
            "src_local": src // self.P,
            "dst_global": t["dst"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
            "weight": t["weight"].to_numpy(zero_copy_only=False)
                .astype(np.float64),
            "is_rev": t["is_rev"].to_numpy(zero_copy_only=False)
                .astype(bool),
        }
        if has_layer:
            out["layer"] = t["layer"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
        return out

    def _set_block(self, block):
        order = np.argsort(block["src_local"], kind="stable")
        self.block = {k: np.ascontiguousarray(v[order])
                      for k, v in block.items()}
        if "layer" not in self.block:
            self.block["layer"] = np.zeros(
                len(self.block["src_local"]), dtype=np.int64)
        vids_row = self.block["src_local"] * self.P + self.p
        self.block["row_hash"] = _colour_hash(vids_row)
        # self-loop rows are EXCLUDED from the propose gather (their
        # weight ships via kv["loop"], which the delta formulas add
        # explicitly): including them made w_cur double-count the
        # loop on leave — a long-standing kernel inexactness for
        # loopy graphs that the r5 exact-incremental-stats self-check
        # surfaced (gate graphs are loop-free, so trajectories there
        # are unchanged)
        self._nl_rows = vids_row != self.block["dst_global"]
        self.front = None           # active-frontier mask (lazy)
        self._rows_by_dref = None   # reverse-adjacency index (lazy)
        self._cblocks = {}          # per-colour row slices (lazy)
        self._cblocks_nc = 0

    def load_level(self, block):
        """Reuse this shard for the next (smaller) level's graph."""
        self._set_block(block)
        self.mem_ref = None
        self.stat_labels = None
        self.stats = None
        self.agg0 = None
        self.scal = None
        self.fixed_local = None
        return True

    def reload_parquet(self):
        """Restore this shard's LEVEL-0 block from its parquet spill
        (probe runs mutate blocks across levels) so one host pool can
        serve many optimisation runs — e.g. every gamma probe of a
        resolution profile — without actor respawns per run."""
        if self.parquet_dir is None:
            raise ValueError("shard was not parquet-backed")
        return self.load_level(self._load_parquet(self.parquet_dir))

    def forget_parquet(self):
        """The spill is gone: ``reload_parquet`` raises from now on."""
        self.parquet_dir = None
        return True

    def set_fixed(self, fixed):
        """Adopt the full fixed-membership mask (zero-copy broadcast
        read), keeping only this shard's own-vertex slice."""
        if fixed is None:
            self.fixed_local = None
        else:
            self.fixed_local = np.asarray(fixed)[self.p::self.P] \
                .astype(bool)
        return True

    # ------------------------------------------------------------------
    def vertex_summary(self, n, directed, n_layers=1,
                       node_sizes_shard=None):
        """Compute per-vertex shards from the incidence block, one row
        per layer; return the per-layer global-scalar partials the
        driver needs. ``node_sizes_shard``: (L, n_local) — per-layer
        node sizes for this shard's own vertices (None -> all ones)."""
        P, p = self.P, self.p
        L = int(n_layers)
        n_local = (n - p + P - 1) // P
        b = self.block
        sl, w, rev = b["src_local"], b["weight"], b["is_rev"]
        dst, lay = b["dst_global"], b["layer"]
        loop = np.zeros((L, n_local))
        is_loop = (~rev) & (sl * P + p == dst)
        np.add.at(loop, (lay[is_loop], sl[is_loop]), w[is_loop])
        k_out = np.zeros((L, n_local))
        k_in = np.zeros((L, n_local))
        if directed:
            np.add.at(k_out, (lay[~rev], sl[~rev]), w[~rev])
            np.add.at(k_in, (lay[rev], sl[rev]), w[rev])
            k_in += loop
        else:
            np.add.at(k_out, (lay, sl), w)
            k_out += loop            # loops stored once, count double
            k_in = k_out
        nsz = (np.ones((L, n_local)) if node_sizes_shard is None
               else np.asarray(node_sizes_shard,
                               dtype=np.float64).reshape(L, n_local))
        self.kv = {"k_out": k_out, "k_in": k_in, "loop": loop,
                   "nsz": nsz}
        deg = np.zeros(n_local, dtype=np.int64)
        np.add.at(deg, sl, 1)
        # the shard's referenced vid set (own vertices + block
        # neighbours) and the precomputed lookup indices into it — the
        # only membership this shard ever needs
        own_vids = np.arange(n_local, dtype=np.int64) * P + p
        self._own_hash = _colour_hash(own_vids)
        self.ref_vids = np.union1d(own_vids, dst)
        self.own_ref_idx = np.searchsorted(self.ref_vids, own_vids)
        self.block["dst_ref_idx"] = np.searchsorted(self.ref_vids, dst)
        return {
            "m": np.bincount(lay[~rev], weights=w[~rev], minlength=L),
            "n_edges": int((~rev).sum()),
            "size": nsz.sum(axis=1),
            "has_loops": bool(is_loop.any()),
            "active_local": np.flatnonzero(deg > 0),
        }

    def set_config(self, scal):
        scal = dict(scal)
        scal["p"] = self.p
        self.scal = scal
        # ALL_COMMS mode: the shard must be able to score a move into
        # ANY live community, so stats track all live labels (O(C)
        # resident — the cost the user opts into with consider_comms=
        # "all"; reference Optimiser.py:77-112 is Ω(V·C) too)
        self._track_all = scal.get("consider_comms") == "all"
        self._frontier = bool(scal.get("frontier", False))
        self._step_no = 0
        return True

    def set_state(self, mem, stats, agg0=None):
        """Adopt a (broadcast) full state snapshot: slice membership to
        the referenced vids, compress stats to the referenced labels.
        The full arrays are read zero-copy from the object store; only
        the slices stay resident."""
        self.mem_ref = np.asarray(mem)[self.ref_vids].astype(np.int64)
        self._compress_stats(stats, agg0)
        return True

    def init_mem(self, seed=None):
        """Shard-resident membership init — no O(n) driver array.
        ``seed=None``: singletons (label = vid, which ``ref_vids``
        already is); else a broadcast seed read zero-copy and sliced
        to the referenced vids before retention."""
        if seed is None:
            self.mem_ref = self.ref_vids.copy()
        else:
            self.mem_ref = np.asarray(seed)[self.ref_vids] \
                .astype(np.int64)
        # every vertex starts dirty (never proposed yet)
        self.front = (np.ones(len(self.own_ref_idx), dtype=bool)
                      if getattr(self, "_frontier", False) else None)
        return True

    def own_mem(self):
        """This shard's own-vertex membership slice (== mem[p::P])."""
        return self.mem_ref[self.own_ref_idx]

    def snapshot_state(self):
        """Cycle-boundary snapshot for the rollback path (replaces the
        driver's O(n) cycle_mem copy)."""
        self._snap = (self.mem_ref.copy(), self.stat_labels.copy(),
                      {k: v.copy() for k, v in self.stats.items()},
                      self.agg0,
                      None if self.front is None else self.front.copy())
        return True

    def restore_state(self):
        mem, sl, stats, agg0, front = self._snap
        self.mem_ref = mem.copy()
        self.stat_labels = sl.copy()
        self.stats = {k: v.copy() for k, v in stats.items()}
        self.agg0 = agg0
        self.front = None if front is None else front.copy()
        return True

    # ------------------------------------------------------------------
    # sharded refine / aggregate support (no vid-space driver arrays)
    # ------------------------------------------------------------------
    def refine_group_partials(self, R):
        """Own vertices grouped by community, bucketed by comm % R —
        the shard-side half of the refine grouping (the driver no
        longer argsorts an O(n) membership). Returns R tuples
        (comm, vid, nsz (L, k)), each sorted by (comm, vid)."""
        own = self.mem_ref[self.own_ref_idx]
        vids = np.arange(len(own), dtype=np.int64) * self.P + self.p
        order = np.lexsort((vids, own))
        comm = own[order]
        vv = vids[order]
        nz = self.kv["nsz"][:, order]
        bucket = comm % R
        border = np.argsort(bucket, kind="stable")
        comm, vv, bucket = comm[border], vv[border], bucket[border]
        nz = nz[:, border]
        bounds = np.searchsorted(bucket, np.arange(R + 1))
        return [(comm[bounds[r]:bounds[r + 1]],
                 vv[bounds[r]:bounds[r + 1]],
                 nz[:, bounds[r]:bounds[r + 1]]) for r in range(R)]

    def adopt_refined(self, labels_sorted, sticky, *refined_parts):
        """Build this shard's dense refined codes for its referenced
        vids from the refine tasks' (vids, labels) outputs — read
        zero-copy, sliced before retention. ``labels_sorted`` is the
        global sorted refined-label array (community-space)."""
        labels_sorted = np.asarray(labels_sorted)
        rv = self.ref_vids
        code = np.full(len(rv), -1, dtype=np.int64)
        for vv, ll in refined_parts:
            # a shard with no vertex (n < P at an upper level) has
            # nothing to look up
            if len(vv) == 0 or len(rv) == 0:
                continue
            i = np.searchsorted(rv, vv)
            i = np.minimum(i, len(rv) - 1)
            hit = rv[i] == vv
            code[i[hit]] = np.searchsorted(labels_sorted, ll[hit])
        if (code < 0).any():
            raise ValueError("refine outputs did not cover all "
                             "referenced vids")
        self.ref_code = code
        if sticky:
            # sticky own-vertex codes survive load_level so the final
            # unwind can map this shard's ORIGINAL level-0 vertices
            self.sticky_code = code[self.own_ref_idx].copy()
        return True

    def own_codes(self):
        """This shard's own-vertex refined codes (== dense[p::P]) —
        gathered by the driver only for the SMALL upper levels."""
        return self.ref_code[self.own_ref_idx]

    def fixed_code_partials(self):
        """Distinct refined codes containing one of this shard's own
        fixed vertices (community-space; for the next level's fixed
        mask)."""
        if self.fixed_local is None or not self.fixed_local.any():
            return np.empty(0, np.int64)
        return np.unique(
            self.ref_code[self.own_ref_idx][self.fixed_local])

    def write_final(self, out_dir, upper_map, relabel_keys,
                    relabel_vals):
        """Write this shard's final (vid, comm) rows as its part file
        (``superstep._write_shard``: atomic, resumable) — the
        o(n)-driver output path."""
        fl = self.final_own_labels(upper_map, relabel_keys,
                                   relabel_vals)
        return int(_write_shard(fl, self.p, self.P, out_dir, "comm"))

    def agg_partials_sharded(self, n_labels, directed):
        """Per-layer (comm_src, comm_dst) -> weight partial sums over
        this block's non-rev edges under the shard-resident refined
        codes (``adopt_refined``), plus per-(layer, label) node-size
        partials — the distributed aggregate build (no O(edges) or
        O(n)-broadcast driver pass)."""
        b = self.block
        L = self.kv["nsz"].shape[0]
        keep = ~b["is_rev"]
        w = b["weight"][keep]
        lay = b["layer"][keep]
        cs = self.ref_code[self.own_ref_idx[b["src_local"][keep]]]
        cd = self.ref_code[b["dst_ref_idx"][keep]]
        if not directed:
            lo = np.minimum(cs, cd)
            hi = np.maximum(cs, cd)
            cs, cd = lo, hi
        key = (lay * n_labels + cs) * n_labels + cd
        uniq, inv = np.unique(key, return_inverse=True)
        ws = np.zeros(len(uniq))
        np.add.at(ws, inv, w)
        labs = self.ref_code[self.own_ref_idx]
        u2, inv2 = np.unique(labs, return_inverse=True)
        sz = np.zeros((L, len(u2)))
        for k in range(L):
            np.add.at(sz[k], inv2, self.kv["nsz"][k])
        return uniq, ws, u2, sz

    def final_label_partials(self, upper_map):
        """Per-final-label (count, min vid) partials over this
        shard's ORIGINAL level-0 vertices (``sticky_code``), for the
        driver's community-space renumber. ``upper_map`` maps level-0
        refined codes -> final labels."""
        um = np.asarray(upper_map)
        fl = um[self.sticky_code]
        vids = np.arange(len(fl), dtype=np.int64) * self.P + self.p
        u, inv = np.unique(fl, return_inverse=True)
        cnt = np.bincount(inv)
        mn = np.full(len(u), np.iinfo(np.int64).max)
        np.minimum.at(mn, inv, vids)
        return u, cnt, mn

    def final_own_labels(self, upper_map, relabel_keys=None,
                         relabel_vals=None):
        """Final labels for this shard's original level-0 vertices:
        ``upper_map[sticky_code]``, optionally remapped through the
        driver's (community-space) relabel table."""
        um = np.asarray(upper_map)
        fl = um[self.sticky_code]
        if relabel_keys is not None:
            i = np.searchsorted(np.asarray(relabel_keys), fl)
            fl = np.asarray(relabel_vals)[i]
        return fl

    def fixed_label_partials(self, upper_map, seed0, fixed):
        """(final label, seeded label) pairs for this shard's original
        fixed vertices — the community-space inputs of the
        label-preserving fixed remap. ``seed0``/``fixed`` are the
        user-provided broadcast arrays, read zero-copy and sliced."""
        um = np.asarray(upper_map)
        fl = um[self.sticky_code]
        n_local = len(fl)
        own_vids = np.arange(n_local, dtype=np.int64) * self.P + self.p
        fx = np.asarray(fixed)[own_vids]
        return fl[fx], np.asarray(seed0)[own_vids][fx]

    def set_stats(self, stats, agg0=None):
        self._compress_stats(stats, agg0)
        return True

    def _compress_stats(self, stats, agg0):
        labels = np.unique(self.mem_ref)
        if getattr(self, "_track_all", False):
            live = np.flatnonzero(
                np.asarray(stats["size"]).sum(axis=0) > 0)
            labels = np.union1d(labels, live)
        self.stat_labels = labels
        # stats arrive (L, 2n); keep (L, n_tracked) slices
        self.stats = {k: np.asarray(stats[k])[:, labels]
                      .astype(np.float64)
                      for k in ("w_in", "s_out", "s_in", "size")}
        self.agg0 = agg0

    def _upsert(self, labels, vals, allow_new=None):
        """Adopt driver-authoritative stat values for the given labels.
        ``allow_new=None`` inserts any untracked label; a boolean mask
        restricts insertion to the flagged labels (untracked,
        un-flagged labels are dropped — this shard never reads them,
        and a later move that makes one relevant re-ships its value),
        keeping the tracked set O(referenced labels), not O(moves)."""
        labels = np.asarray(labels, dtype=np.int64)
        if len(labels) == 0:
            return
        sl = self.stat_labels
        if len(sl):
            i = np.searchsorted(sl, labels)
            tracked = sl[np.minimum(i, len(sl) - 1)] == labels
        else:
            tracked = np.zeros(len(labels), dtype=bool)
        if allow_new is not None:
            keep = tracked | allow_new
            if not keep.all():
                labels = labels[keep]
                vals = {k: np.asarray(v)[:, keep]
                        for k, v in vals.items()}
                tracked = tracked[keep]
                if len(labels) == 0:
                    return
        miss = ~tracked
        if miss.any():
            merged = np.union1d(sl, labels[miss])
            remap = np.searchsorted(merged, sl)
            for k in self.stats:
                L = self.stats[k].shape[0]
                arr = np.zeros((L, len(merged)))
                arr[:, remap] = self.stats[k]
                self.stats[k] = arr
            self.stat_labels = sl = merged
        i = np.searchsorted(sl, labels)
        for k in self.stats:
            self.stats[k][:, i] = np.asarray(vals[k])

    def _mark_dirty(self, vids, targs):
        """Active-frontier bookkeeping + EXACT interaction correction.

        Re-queues this shard's own vertices adjacent to any moved vid
        (reference ``Optimiser.py:485-521`` re-queues the neighbours
        of each committed move), plus own moved vids themselves —
        O(adjacency of the moved set) via a lazily-built
        reverse-adjacency permutation of the block rows.

        Returns the per-(layer, label) w_in CORRECTION partials for
        rows joining two same-step movers — the one place the
        incremental bookkeeping drifts from truth (each proposal's
        w_new/w_cur were measured pre-step; s_out/s_in/size are
        per-vertex sums and never drift). For an edge (u, v) with
        pre-step communities (a_u, a_v) and targets (b_u, b_v), this
        shard's src=u row contributes
            +w/2 at a_u  if a_u == a_v   (the edge was removed twice)
            +w/2 at b_u  if b_u == b_v   (the true new internal edge)
            -w   at b_u  if a_v == b_u   (u's stale add: it scored v
                                          as still in a_v)
        and the v-side row (this or another shard) the mirror terms,
        so summing all shards' partials makes the driver's
        incremental w_in EXACT. Returns (labels, vals) — possibly
        empty — or None when the frontier index is off (non-frontier
        candidate modes keep the per-cycle recompute)."""
        if self.front is None:
            return None
        L = self.kv["k_out"].shape[0]
        empty = (np.empty(0, np.int64), np.empty((L, 0)))
        own = vids % self.P == self.p
        if own.any():
            self.front[vids[own] // self.P] = True
        if self._rows_by_dref is None:
            self._rows_by_dref = np.argsort(self.block["dst_ref_idx"],
                                            kind="stable")
            self._dref_sorted = \
                self.block["dst_ref_idx"][self._rows_by_dref]
        rv = self.ref_vids
        if len(rv) == 0:
            return empty
        ri = np.minimum(np.searchsorted(rv, vids), len(rv) - 1)
        ri = ri[rv[ri] == vids]
        lo = np.searchsorted(self._dref_sorted, ri, side="left")
        hi = np.searchsorted(self._dref_sorted, ri, side="right")
        cnt = hi - lo
        tot = int(cnt.sum())
        if tot == 0:
            return empty
        idx = np.repeat(lo, cnt) \
            + (np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt))
        rows = self._rows_by_dref[idx]
        src_loc = self.block["src_local"][rows]
        self.front[src_loc] = True
        # interacting rows: dst is a mover AND src is a DIFFERENT
        # mover (self-loops carry their weight exactly via the
        # proposal's loop term)
        src_g = src_loc * self.P + self.p
        dst_g = self.block["dst_global"][rows]
        vs = np.sort(vids)
        order = np.argsort(vids, kind="stable")
        ts = targs[order]
        si = np.minimum(np.searchsorted(vs, src_g), len(vs) - 1)
        hit = (vs[si] == src_g) & (src_g != dst_g)
        if not hit.any():
            return empty
        r = rows[hit]
        b_s = ts[si[hit]]
        di = np.searchsorted(vs, dst_g[hit])
        b_d = ts[di]
        # pre-step memberships (mem_ref not yet updated)
        a_s = self.mem_ref[self.own_ref_idx[src_loc[hit]]]
        a_d = self.mem_ref[self.block["dst_ref_idx"][r]]
        w = self.block["weight"][r]
        lay = self.block["layer"][r]
        labs = []
        lays = []
        dels = []
        m1 = a_s == a_d
        labs.append(a_s[m1]); lays.append(lay[m1]); dels.append(w[m1] / 2.0)
        m2 = b_s == b_d
        labs.append(b_s[m2]); lays.append(lay[m2]); dels.append(w[m2] / 2.0)
        m3 = a_d == b_s
        labs.append(b_s[m3]); lays.append(lay[m3]); dels.append(-w[m3])
        lab = np.concatenate(labs)
        if len(lab) == 0:
            return empty
        ly = np.concatenate(lays)
        dv = np.concatenate(dels)
        u, inv = np.unique(lab, return_inverse=True)
        vals = np.stack([np.bincount(inv[ly == k],
                                     weights=dv[ly == k],
                                     minlength=len(u))
                         for k in range(L)])
        return u, vals

    def _apply_moves(self, moves):
        """Commit a broadcast move set: membership deltas for the vids
        this shard references, stat values for the touched labels —
        inserting only labels a referenced vid just moved to."""
        vids, targs = moves["vids"], moves["targs"]
        self._last_corr = self._mark_dirty(vids, targs)
        rv = self.ref_vids
        new_ref = targs[:0]
        if len(rv):
            i = np.minimum(np.searchsorted(rv, vids), len(rv) - 1)
            found = rv[i] == vids
            self.mem_ref[i[found]] = targs[found]
            new_ref = targs[found]
        labels = np.asarray(moves["upd_labels"], dtype=np.int64)
        self._upsert(labels, moves["upd_vals"],
                     allow_new=(None if getattr(self, "_track_all",
                                                False)
                                else np.isin(labels, new_ref)))
        if "agg0" in moves:
            self.agg0 = moves["agg0"]

    def _colour_block(self, color, n_colors):
        """The block restricted to the active colour class's NON-LOOP
        rows, materialised ONCE per (colour, n_colors) and reused
        every cycle — replaces the per-superstep boolean compress of
        four O(E/P) arrays. Memory: one extra copy of the kernel
        columns across the colour slices (still O(E/P) per shard)."""
        if n_colors <= 1:
            color = -1
            n_colors = 1
        if self._cblocks_nc != n_colors:
            self._cblocks = {}
            self._cblocks_nc = n_colors
        cb = self._cblocks.get(color)
        if cb is None:
            msk = self._nl_rows if color < 0 else (
                ((self.block["row_hash"] % n_colors) == color)
                & self._nl_rows)
            cb = {k: np.ascontiguousarray(self.block[k][msk])
                  for k in ("src_local", "weight", "dst_ref_idx",
                            "layer")}
            self._cblocks[color] = cb
        return cb

    # ------------------------------------------------------------------
    def step(self, moves, color, n_colors, push=None,
             snapshot=False, step_no=None, rand=None):
        """Apply the previously-committed moves (broadcast deltas) —
        or adopt a driver-verified stats upsert ``push`` at a cycle
        boundary — then propose for the given colour: one host round
        per colour superstep, no full-array broadcast in the steady
        state. ``snapshot=True`` (the cycle's first colour) saves the
        post-push state for a possible rollback — the shard-resident
        replacement for the driver's old O(n) cycle_mem copy.
        ``rand``: the RAND_COMM broadcast — a size-proportional label
        pool plus those labels' driver-authoritative stat values
        (upserted before propose so non-neighbour targets score)."""
        if push is not None:
            # boundary correction: update tracked labels only (an
            # untracked label can't be read until a move references
            # it, and that move re-ships its value); in ALL_COMMS
            # mode every pushed label is adopted — all live labels
            # are candidates
            nlab = len(push["labels"])
            self._upsert(push["labels"], push["vals"],
                         allow_new=(None if getattr(self, "_track_all",
                                                    False)
                                    else np.zeros(nlab, dtype=bool)))
            if "agg0" in push:
                self.agg0 = push["agg0"]
        if snapshot:
            self.snapshot_state()
        # commit info for THIS call's applied moves: "corr" carries
        # the exact w_in correction partials (None = not available —
        # non-frontier mode — so the driver keeps the per-cycle
        # recompute), "applied" says whether anything was committed
        cinfo = {"applied": False, "corr": None}
        if moves is not None and len(moves["vids"]):
            import time as _t
            t0 = _t.time()
            self._apply_moves(moves)
            self._t_apply = getattr(self, "_t_apply", 0.0) \
                + (_t.time() - t0)
            cinfo = {"applied": True, "corr": self._last_corr}
        if color is None:
            return None, cinfo
        # rand_neighbor draws are seeded per (run seed, shard,
        # superstep). The driver passes its global superstep counter
        # (checkpoint-resumed runs continue the sequence instead of
        # replaying from 0); the per-shard counter is only the
        # fallback for driverless calls (safe cycles).
        self._step_no = getattr(self, "_step_no", 0) + 1
        sn = self._step_no if step_no is None else int(step_no)
        rng_seed = (int(self.scal.get("seed", 42)) * 1_000_003
                    + sn * self.P + self.p) % (2 ** 63)
        # frontier filtering only on driver-scheduled supersteps; safe
        # cycles (step_no=None) propose for EVERY vertex — their greedy
        # subset commit drops proposals that must stay re-proposable
        if rand is not None:
            self._upsert(rand["labels"], rand["vals"])
        use_front = self.front is not None and step_no is not None
        st = {"mem_ref": self.mem_ref, "own_ref_idx": self.own_ref_idx,
              "stat_labels": self.stat_labels, "agg0": self.agg0,
              "fixed_local": self.fixed_local, "rng_seed": rng_seed,
              "front_local": self.front if use_front else None,
              "rand_pool": None if rand is None else rand["pool"],
              **self.stats}
        import time as _t
        t0 = _t.time()
        props = _propose_kernel(self._colour_block(color, n_colors),
                                self.kv, st, self.scal,
                                color, n_colors)
        self._t_kernel = getattr(self, "_t_kernel", 0.0) \
            + (_t.time() - t0)
        props = (props, cinfo)
        if use_front:
            # vertices that just had their propose turn are clean
            # until a neighbour (or they themselves) moves again
            if n_colors > 1:
                sel = self.front \
                    & ((self._own_hash % n_colors) == color)
                self.front[sel] = False
            else:
                self.front[:] = False
        return props

    def state_footprint(self):
        """Resident-state sizes (diagnostics / scale tests): the shard
        holds membership only for its referenced vids and stats only
        for its tracked labels — never O(n) arrays."""
        return {
            "ref_vids": int(len(self.ref_vids)),
            "stat_labels": (0 if self.stat_labels is None
                            else int(len(self.stat_labels))),
            "block_rows": int(len(self.block["src_local"])),
            "t_kernel": round(getattr(self, "_t_kernel", 0.0), 3),
            "t_apply": round(getattr(self, "_t_apply", 0.0), 3),
        }

    def stats_partials(self, moves=None):
        """Label-compressed community stat partials from local state:
        internal weights from the block, strength/size sums from own
        vertices. Non-loop symmetrised edges are counted from both
        sides across shards -> driver divides by 2. ``moves`` lets the
        cycle's last colour commit fold into this round."""
        if moves is not None and len(moves["vids"]):
            self._apply_moves(moves)
        b = self.block
        L = self.kv["k_out"].shape[0]
        mem_src = self.mem_ref[self.own_ref_idx[b["src_local"]]]
        mem_dst = self.mem_ref[b["dst_ref_idx"]]
        same = mem_src == mem_dst
        lab = mem_src[same]
        w = b["weight"][same]
        lay = b["layer"][same]
        src_g = b["src_local"] * self.P + self.p
        isloop = src_g[same] == b["dst_global"][same]
        uniq, inv = np.unique(lab, return_inverse=True)
        nq = len(uniq)
        if L == 1:
            wn = np.bincount(inv[~isloop], weights=w[~isloop],
                             minlength=nq)[None, :]
            wl = np.bincount(inv[isloop], weights=w[isloop],
                             minlength=nq)[None, :]
        else:
            wn = np.zeros((L, nq))
            wl = np.zeros((L, nq))
            np.add.at(wn, (lay[~isloop], inv[~isloop]), w[~isloop])
            np.add.at(wl, (lay[isloop], inv[isloop]), w[isloop])
        # own-vertex strength/size partials
        vlab = self.mem_ref[self.own_ref_idx]
        u2, inv2 = np.unique(vlab, return_inverse=True)
        n2 = len(u2)
        so = np.stack([np.bincount(inv2, weights=self.kv["k_out"][k],
                                   minlength=n2) for k in range(L)])
        si = np.stack([np.bincount(inv2, weights=self.kv["k_in"][k],
                                   minlength=n2) for k in range(L)])
        sz = np.stack([np.bincount(inv2, weights=self.kv["nsz"][k],
                                   minlength=n2) for k in range(L)])
        return (uniq, wn, wl), (u2, so, si, sz)

    # ------------------------------------------------------------------
    def internal_edge_buckets(self, R):
        """Internal (same-community) edges of this block, canonicalised
        (non-rev only, so the symmetrised duplicates collapse), bucketed
        by community hash for the distributed refinement tasks."""
        b = self.block
        src_g = b["src_local"] * self.P + self.p
        dst_g = b["dst_global"]
        mem_src = self.mem_ref[self.own_ref_idx[b["src_local"]]]
        mem_dst = self.mem_ref[b["dst_ref_idx"]]
        same = (mem_src == mem_dst) & ~b["is_rev"]
        s, d, w = src_g[same], dst_g[same], b["weight"][same]
        ly = b["layer"][same]
        lab = mem_src[same]
        bucket = lab % R
        order = np.argsort(bucket, kind="stable")
        s, d, w, ly, lab, bucket = (s[order], d[order], w[order],
                                    ly[order], lab[order],
                                    bucket[order])
        bounds = np.searchsorted(bucket, np.arange(R + 1))
        return [(s[bounds[r]:bounds[r + 1]], d[bounds[r]:bounds[r + 1]],
                 w[bounds[r]:bounds[r + 1]],
                 lab[bounds[r]:bounds[r + 1]],
                 ly[bounds[r]:bounds[r + 1]]) for r in range(R)]


@ray.remote(num_cpus=0)
class _ShardHost:
    """One worker process holding the shards p ≡ h (mod H) — the
    Pregelix layout: partitions on a fixed set of workers, not one
    process per partition. ``blocks`` (one per shard in ``ps``, as
    top-level arguments so Ray resolves them) or ``parquet_dir`` give
    the level-0 blocks. ``num_cpus=0`` so a small test cluster isn't
    starved while the hosts idle between supersteps; on a real cluster
    pin via custom resources."""

    def __init__(self, ps, P, parquet_dir, *blocks):
        from concurrent.futures import ThreadPoolExecutor
        self._pool = ThreadPoolExecutor(max_workers=len(ps))
        blocks = blocks or [None] * len(ps)
        self.shards = dict(zip(ps, self._pool.map(
            lambda p, b: LeidenShard(p, P, block=b,
                                     parquet_dir=parquet_dir),
            ps, blocks)))

    def each(self, ps, name, split, *args):
        """Run shard method ``name`` on every shard in ``ps`` in this
        host's thread pool (numpy releases the GIL, so shards overlap)
        and return the results in ``ps`` order. ``split``: the last
        ``len(ps)`` arguments are one per shard, each passed after the
        shared ones. The host itself is a single-threaded actor, so
        calls to one shard never overlap."""
        if split:
            args, own = args[:-len(ps)], [(a,) for a in args[-len(ps):]]
        else:
            own = [()] * len(ps)
        return list(self._pool.map(
            lambda p, o: getattr(self.shards[p], name)(*args, *o),
            ps, own))

    def call(self, p, name, *args):
        """Run one shard's method; for ``num_returns=R`` fan-outs over
        a method that returns R values. A one-element list comes back
        as its element, since ``num_returns=1`` stores the whole
        return value as one object."""
        out = getattr(self.shards[p], name)(*args)
        return out[0] if isinstance(out, list) and len(out) == 1 \
            else out


@ray.remote(num_returns=3)
def _refine_bucket(layers_cfg, correct_self_loops,
                   directed, seed, max_comm_size, refine_max,
                   n_groups_parts, *parts_flat):
    """Refine the communities of one hash bucket: fetch this bucket's
    per-shard group partials (own vids per community, worker-to-worker
    refs — the driver never groups an O(n) membership) and
    internal-edge partials, merge them per community, run the exact
    merge-constrained in-memory kernel per induced subgraph — the
    multiplex kernel when L > 1, sharing one membership across the
    per-layer induced subgraphs (reference ``Optimiser.py:357-461``).
    ``parts_flat`` is ``n_groups_parts`` group partials
    (comm, vid, nsz (L, k)) followed by the edge partials
    (src, dst, w, comm, layer); ``layers_cfg`` is
    [{"quality", "gamma", "weight"}] per layer.
    Returns three objects (separate refs so consumers fetch only what
    they need): (vids, refined_label) with labels globally unique
    (label = global vid of the refined community's smallest member),
    the per-refined-label (label, parent community) seed pairs, and
    the giant-community count. Communities above ``refine_max``
    internal edges keep singleton refinement (valid, conservative) —
    their rows are still emitted so every vid appears exactly once."""
    group_parts = parts_flat[:n_groups_parts]
    edge_parts = parts_flat[n_groups_parts:]

    def cat(parts, i, dtype=None):
        if not parts:
            return np.empty(0, dtype or np.float64)
        return np.concatenate([e[i] for e in parts])
    gcomm = cat(group_parts, 0, np.int64)
    gvid = cat(group_parts, 1, np.int64)
    gnsz = np.concatenate([e[2] for e in group_parts], axis=1) \
        if group_parts else np.empty((len(layers_cfg), 0))
    gorder = np.lexsort((gvid, gcomm))
    gcomm, gvid = gcomm[gorder], gvid[gorder]
    gnsz = gnsz[:, gorder]
    comms, gstarts = np.unique(gcomm, return_index=True)
    gbounds = np.append(gstarts, len(gcomm))

    src = cat(edge_parts, 0, np.int64)
    dst = cat(edge_parts, 1, np.int64)
    w = cat(edge_parts, 2)
    lab = cat(edge_parts, 3, np.int64)
    ly = cat(edge_parts, 4, np.int64)
    order = np.argsort(lab, kind="stable")
    src, dst, w, lab, ly = (src[order], dst[order], w[order],
                            lab[order], ly[order])

    out_v, out_l = [], []
    seed_l, seed_c = [], []
    from ..partition import MutableVertexPartition
    L = len(layers_cfg)
    lam = [float(lc["weight"]) for lc in layers_cfg]
    n_giant = 0
    for gi, comm in enumerate(comms):
        vids = gvid[gbounds[gi]:gbounds[gi + 1]]
        nsz = gnsz[:, gbounds[gi]:gbounds[gi + 1]]
        lo = np.searchsorted(lab, comm, side="left")
        hi = np.searchsorted(lab, comm, side="right")
        if hi - lo > refine_max:
            n_giant += 1   # singleton refinement (valid, conservative)
            out_v.append(vids)
            out_l.append(vids)
            seed_l.append(vids)
            seed_c.append(np.full(len(vids), comm, dtype=np.int64))
            continue
        ls = np.searchsorted(vids, src[lo:hi])
        ld = np.searchsorted(vids, dst[lo:hi])
        wk = w[lo:hi]
        lk = ly[lo:hi]
        parts = []
        for k, lc in enumerate(layers_cfg):
            mk = lk == k
            g = Graph(len(vids), src=ls[mk], dst=ld[mk],
                      weights=wk[mk], node_sizes=nsz[k],
                      directed=directed)
            cls = PARTITION_TYPES[lc["quality"]]
            part = cls.__new__(cls)
            MutableVertexPartition.__init__(
                part, g, initial_membership=None,
                resolution_parameter=lc["gamma"],
                correct_self_loops=correct_self_loops,
                _validate=False)
            parts.append(part)
        opt = Optimiser()
        opt.set_rng_seed(seed)
        opt.max_comm_size = max_comm_size
        # merge-constrained within this community (constraint = all
        # zeros == the old merge_nodes_constrained(part, zero-part))
        opt._move_kernel(parts, lam, None, opt.refine_consider_comms,
                         constraint=np.zeros(len(vids), dtype=np.int64),
                         merge_only=True)
        local_mem = np.asarray(parts[0].membership)
        labels = np.full(local_mem.max() + 1, -1, dtype=np.int64)
        # label = global vid of the first (smallest, vids sorted)
        # member of the refined community
        for i in range(len(vids)):
            c = local_mem[i]
            if labels[c] < 0:
                labels[c] = vids[i]
        out_v.append(vids)
        out_l.append(labels[local_mem])
        ul = labels[labels >= 0]
        seed_l.append(ul)
        seed_c.append(np.full(len(ul), comm, dtype=np.int64))
    if not out_v:
        e = np.empty(0, np.int64)
        return ((e, e.copy()), (e.copy(), e.copy()), n_giant)
    return ((np.concatenate(out_v), np.concatenate(out_l)),
            (np.concatenate(seed_l), np.concatenate(seed_c)),
            n_giant)


class DistLeiden:
    """Distributed Leiden driver. Hybrid: distributed level 0 over the
    shard-host pool + exact in-memory tail on the (small) aggregate.

    Construct from driver arrays (``__init__`` — small/aggregate
    graphs) or from a Ray Data edge Dataset (``from_dataset`` — the
    at-scale path: edges spill to partitioned parquet and each shard
    loads only its own partition; the driver never holds the edge
    list)."""

    def __init__(self, src=None, dst=None, weight=None, n=None,
                 directed=False, quality="cpm",
                 resolution_parameter=1.0, P=8, seed=42, n_colors=2,
                 node_sizes=None, correct_self_loops=None,
                 max_comm_size=0, layer=None, layer_weights=None,
                 n_layers=None, min_comm_size=0,
                 community_constraint_enforcement=0.0,
                 consider_comms="all_neighbors",
                 _actors=None, _parquet_dir=None):
        """``quality`` / ``resolution_parameter`` may be lists (one per
        layer) for multiplex graphs; ``layer`` tags each edge with its
        layer index; ``node_sizes`` is (n,) or (L, n) — per-layer node
        sizes (temporal slices mark vertex presence this way,
        reference ``functions.py:517-526``).

        ``consider_comms`` (reference ``Optimiser.py:77-112``; accepts
        the in-memory tier's int constants or the strings
        "all_neighbors" / "all" / "rand_neighbor" / "rand"): the
        local-move candidate set. "all" (ALL_COMMS) scores every live
        community for every active vertex — required for
        negative-weight graphs (e.g. bipartite CPM with a negative
        layer), inherently Ω(V·C) with O(C) shard stat state. "rand"
        (RAND_COMM, r5): instead of O(n) shard state, the driver
        broadcasts a size-proportional 256-label reservoir per
        superstep (seeded, sampled from its authoritative community
        sizes — layer-0 node-size-proportional, which equals the
        reference's node-count-proportional random-vertex draw
        whenever node sizes are uniform, the default) together with
        those labels' stat values; each active vertex draws uniformly
        from the pool, preserving the reference's marginal
        distribution (``Optimiser.py:104-107``)."""
        self.n = None if n is None else int(n)
        self.P, self.directed = int(P), bool(directed)
        # normalise the per-layer configuration
        qs = list(quality) if isinstance(quality, (list, tuple)) \
            else None
        gs = list(resolution_parameter) \
            if isinstance(resolution_parameter, (list, tuple)) else None
        lw = None if layer_weights is None else list(layer_weights)
        L = n_layers
        for cand in (qs, gs, lw):
            if cand is not None:
                if L is not None and len(cand) != L:
                    raise ValueError("inconsistent layer counts")
                L = len(cand)
        if L is None:
            L = (int(np.asarray(layer).max()) + 1
                 if layer is not None and len(layer) else 1)
        self.L = int(L)
        qs = qs or [quality] * L
        gs = gs or [float(resolution_parameter)] * L
        lw = lw or [1.0] * L
        self.layers_cfg = [{"quality": q, "gamma": float(g),
                            "weight": float(w_)}
                           for q, g, w_ in zip(qs, gs, lw)]
        # single-layer compat attributes (queries/tests read these)
        self.quality = qs[0]
        self.gamma = float(gs[0])
        self.seed = seed
        self.n_colors = int(n_colors)
        self.max_comm_size = int(max_comm_size)
        self.min_comm_size = int(min_comm_size)
        self.enforcement = float(community_constraint_enforcement)
        # The propose kernel only applies the soft bonus when BOTH
        # enforcement > 0 and min_comm_size > 0; the driver's
        # rollback/convergence relaxations must use the same condition
        # or enforcement-without-min-size silently runs plain Leiden
        # with monotone rollback disabled. Normalise here so every
        # downstream `self.enforcement` check agrees with the kernel.
        if self.min_comm_size <= 0:
            self.enforcement = 0.0
        from ..optimiser import (ALL_NEIGH_COMMS, ALL_COMMS,
                                 RAND_COMM, RAND_NEIGH_COMM)
        int_map = {ALL_NEIGH_COMMS: "all_neighbors",
                   ALL_COMMS: "all", RAND_COMM: "rand",
                   RAND_NEIGH_COMM: "rand_neighbor"}
        if isinstance(consider_comms, (int, np.integer)):
            consider_comms = int_map.get(int(consider_comms))
        if consider_comms not in ("all_neighbors", "all",
                                  "rand_neighbor", "rand"):
            raise ValueError(
                f"consider_comms={consider_comms!r} is not a "
                "recognised candidate-set mode")
        self.consider_comms = consider_comms
        self._corr_loops_arg = correct_self_loops
        # one host actor per logical CPU, host h holding the shards
        # p ≡ h (mod H): P worker processes would start only as many at
        # a time as there are CPUs
        H = len(_actors) if _actors is not None else min(
            self.P, session_cpus())
        self._hosted = [list(range(h, self.P, H)) for h in range(H)]

        if _parquet_dir is not None:
            self.node_size = self._norm_sizes(node_sizes)
            if _actors is not None:
                # recycle a parquet-backed pool (e.g. the previous
                # resolution-profile probe): reload level-0 blocks
                # instead of respawning the hosts
                self.actors = _actors
                self._fan("reload_parquet")
            else:
                self.actors = [_ShardHost.remote(ps, P, _parquet_dir)
                               for ps in self._hosted]
            self._finish_init(node_sizes)
            return

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if n is None:
            self.n = n = int(max(src.max(initial=-1),
                                 dst.max(initial=-1))) + 1
        if weight is None:
            weight = np.ones(len(src))
        weight = np.asarray(weight, dtype=np.float64)
        lay = (np.zeros(len(src), dtype=np.int64) if layer is None
               else np.asarray(layer, dtype=np.int64))
        self.node_size = self._norm_sizes(node_sizes)

        # symmetrised incidence rows keyed by source partition (both
        # directions for BOTH directed and undirected: the propose
        # gather needs w_to + w_from per (v, comm) pair). Partitioning
        # runs as P parallel tasks against the arrays put once (the
        # serial driver loop was ~25% of a cold sf1 run); each task
        # emits exactly the rows the old `s2[msk]` slice produced —
        # forward rows first, then reverse — so blocks are
        # bit-identical to the serial construction.
        src_ref = ray.put(src)
        dst_ref = ray.put(dst)
        w_ref = ray.put(weight)
        l_ref = ray.put(lay)
        blocks = [_build_leiden_block.remote(p, P, src_ref, dst_ref,
                                             w_ref, l_ref)
                  for p in range(P)]
        if _actors is not None:      # reuse the pool across levels
            self.actors = _actors
            self._fan("load_level", per_shard=blocks)
        else:
            self.actors = [_ShardHost.remote(ps, P, None,
                                             *[blocks[p] for p in ps])
                           for ps in self._hosted]
        self._finish_init(node_sizes)

    def _fan(self, name, *args, per_shard=None):
        """Run shard method ``name`` on all P shards — one batched call
        per host — and return the P results in shard order.
        ``per_shard``: P values, shard p's passed after ``args``."""
        refs = [host.each.remote(
            ps, name, per_shard is not None, *args,
            *([] if per_shard is None else [per_shard[p] for p in ps]))
            for host, ps in zip(self.actors, self._hosted)]
        out = [None] * self.P
        for ps, res in zip(self._hosted, ray.get(refs)):
            for p, r in zip(ps, res):
                out[p] = r
        return out

    def _norm_sizes(self, node_sizes):
        """node_sizes -> (L, n) float array (None -> all ones)."""
        if node_sizes is None:
            return np.ones((self.L, self.n))
        arr = np.asarray(node_sizes, dtype=np.float64)
        if arr.ndim == 1:
            arr = np.broadcast_to(arr, (self.L, self.n)).copy()
        if arr.shape != (self.L, self.n):
            raise ValueError("node_sizes must be (n,) or (L, n)")
        return arr

    def _finish_init(self, node_sizes):
        P, n, L = self.P, self.n, self.L
        shards = [None] * P if node_sizes is None else \
            [self.node_size[:, p::P] for p in range(P)]
        sums = self._fan("vertex_summary", n, self.directed, L,
                         per_shard=shards)
        m_k = np.sum([s["m"] for s in sums], axis=0)
        size_k = np.sum([s["size"] for s in sums], axis=0)
        for k, lc in enumerate(self.layers_cfg):
            lc["m"] = float(m_k[k])
            lc["total_size"] = float(size_k[k])
        self.m = float(m_k.sum())
        self.n_edges = int(sum(s["n_edges"] for s in sums))
        self.total_size = float(size_k.sum())
        has_loops = any(s["has_loops"] for s in sums)
        self._active_vids = np.sort(np.concatenate(
            [s["active_local"] * P + p for p, s in enumerate(sums)]))
        corr = self._corr_loops_arg
        if corr is None:
            corr = has_loops if self.quality == "cpm" else False
        self.correct_self_loops = bool(corr)
        scal = {
            "P": P, "n": n, "layers": self.layers_cfg,
            "directed": self.directed,
            "correct_self_loops": self.correct_self_loops,
            "max_comm_size": self.max_comm_size,
            "min_comm_size": self.min_comm_size,
            "enforcement": self.enforcement,
            "label_space": 2 * n,
            "consider_comms": self.consider_comms,
            # active-frontier propose is exactly the reference's
            # work-queue semantics (Optimiser.py:485-521): a vertex
            # re-proposes only after a neighbourhood change. Global
            # candidate sets (ALL_COMMS) and size-constraint bonuses
            # depend on NON-neighbour state, so those modes keep the
            # propose-everyone schedule.
            "frontier": (self.consider_comms == "all_neighbors"
                         and self.enforcement <= 0
                         and self.min_comm_size <= 0
                         and self.max_comm_size <= 0
                         and not os.environ.get("LRAY_NO_FRONTIER")),
            "seed": (int(self.seed) if np.isscalar(self.seed)
                     else 42),
        }
        self._fan("set_config", scal)

    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, edges_ds, n, directed=False, quality="cpm",
                     resolution_parameter=1.0, P=8, seed=42, n_colors=2,
                     correct_self_loops=None, max_comm_size=0,
                     spill_dir=None, node_sizes=None, layer_weights=None,
                     n_layers=None, min_comm_size=0,
                     community_constraint_enforcement=0.0,
                     consider_comms="all_neighbors"):
        """Dataset-native construction: edges Dataset(src, dst
        [, weight][, layer]) -> symmetrised incidence rows ->
        partitioned parquet spill -> each shard loads only its own
        partition's files. The driver never materialises the edge
        list (SURVEY.md §4.3.1). A spill directory this call makes
        itself is removed once the shards hold their blocks (so
        ``reload_parquet`` then raises); a caller's ``spill_dir`` is
        kept and can be reloaded from. A
        ``layer`` column makes this a multiplex graph: one membership
        across layers, Q = sum_k lambda_k Q_k (``quality`` /
        ``resolution_parameter`` / ``layer_weights`` may be per-layer
        lists; reference ``functions.py:95-176``)."""
        import shutil
        import tempfile
        import pyarrow as pa

        own_spill = spill_dir is None
        spill_dir = spill_dir or tempfile.mkdtemp(prefix="lray_leiden_")
        os.makedirs(spill_dir, exist_ok=True)
        Pv = int(P)

        # A layer column with no explicit per-layer config would
        # otherwise leave L=1 in __init__ and crash the shards with
        # an out-of-bounds IndexError on the first gather. Infer the
        # layer count from the data (one column-pruned scan) so the
        # documented "a layer column makes this multiplex" usage works.
        if (n_layers is None
                and not isinstance(quality, (list, tuple))
                and not isinstance(resolution_parameter, (list, tuple))
                and layer_weights is None
                and "layer" in edges_ds.schema().names):
            n_layers = int(edges_ds.select_columns(["layer"])
                           .max("layer")) + 1

        def incidence(t: pa.Table) -> pa.Table:
            src = t["src"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            dst = t["dst"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if "weight" in t.column_names:
                w = t["weight"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
            else:
                w = np.ones(len(src))
            lay = (t["layer"].to_numpy(zero_copy_only=False)
                   .astype(np.int64) if "layer" in t.column_names
                   else np.zeros(len(src), dtype=np.int64))
            nl = src != dst
            s2 = np.concatenate([src, dst[nl]])
            d2 = np.concatenate([dst, src[nl]])
            w2 = np.concatenate([w, w[nl]])
            l2 = np.concatenate([lay, lay[nl]])
            rev = np.concatenate([np.zeros(len(src), dtype=bool),
                                  np.ones(int(nl.sum()), dtype=bool)])
            return pa.table({
                "src": pa.array(s2), "dst": pa.array(d2),
                "weight": pa.array(w2), "is_rev": pa.array(rev),
                "layer": pa.array(l2),
                "part": pa.array((s2 % Pv).astype(np.int32)),
            })

        edges_ds.map_batches(incidence, batch_format="pyarrow",
                             zero_copy_batch=True) \
            .write_parquet(spill_dir, partition_cols=["part"])
        dl = cls(n=n, directed=directed, quality=quality,
                 resolution_parameter=resolution_parameter, P=Pv,
                 seed=seed, n_colors=n_colors,
                 correct_self_loops=correct_self_loops,
                 max_comm_size=max_comm_size, node_sizes=node_sizes,
                 layer_weights=layer_weights, n_layers=n_layers,
                 min_comm_size=min_comm_size,
                 community_constraint_enforcement=(
                     community_constraint_enforcement),
                 consider_comms=consider_comms,
                 _parquet_dir=spill_dir)
        if own_spill:
            # the hosts hold their blocks now and nothing else knows
            # this directory; a caller's spill_dir stays theirs
            dl._fan("forget_parquet")
            shutil.rmtree(spill_dir, ignore_errors=True)
        return dl

    @classmethod
    def bipartite(cls, src=None, dst=None, types=None, weight=None,
                  n=None, resolution_parameter_01=1.0,
                  resolution_parameter_0=0.0, resolution_parameter_1=0.0,
                  degree_as_node_size=False, directed=False, P=8,
                  seed=42, consider_comms="all_neighbors", **kwargs):
        """Distributed ``CPMVertexPartition.Bipartite`` equivalent
        (reference ``VertexPartition.py:950-1105``, construction at
        ``:1091-1105``): THREE CPM layers sharing one membership with
        layer weights [1, -1, -1] baked in — layer 0 is the real graph
        at gamma_01, layers 1/2 are edgeless with node sizes masked to
        each vertex class at gamma_01 - gamma_0 / gamma_01 - gamma_1.
        ``run()`` then optimises the bipartite objective through the
        shard schedule; the in-memory twin is ``partition.py``'s
        ``CPMVertexPartition.Bipartite`` + ``optimise_partition_
        multiplex``. Negative within-class resolutions (gamma_0/1 < 0)
        make non-neighbour targets attractive — pass
        ``consider_comms="all"`` for those, as the reference does."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if n is None:
            n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        if weight is None:
            weight = np.ones(len(src))
        weight = np.asarray(weight, dtype=np.float64)
        types = np.asarray(types)
        if len(types) != n:
            raise ValueError("types must have length n")
        uniq = np.unique(types)
        if len(uniq) > 2:
            raise ValueError("More than one type specified.")
        cls01 = np.searchsorted(uniq, types).astype(np.int64)
        if degree_as_node_size:
            if directed:
                raise ValueError("degree_as_node_size requires an "
                                 "undirected graph")
            loop = src == dst
            n_size = np.bincount(src[~loop], weights=weight[~loop],
                                 minlength=n)
            n_size += np.bincount(dst[~loop], weights=weight[~loop],
                                  minlength=n)
            n_size += 2.0 * np.bincount(src[loop], weights=weight[loop],
                                        minlength=n)
        else:
            n_size = np.ones(n)
        sizes = np.stack([n_size,
                          np.where(cls01 == 0, n_size, 0.0),
                          np.where(cls01 == 1, n_size, 0.0)])
        g01 = float(resolution_parameter_01)
        return cls(src, dst, weight=weight, n=n, directed=directed,
                   quality=["cpm", "cpm", "cpm"],
                   resolution_parameter=[
                       g01, g01 - float(resolution_parameter_0),
                       g01 - float(resolution_parameter_1)],
                   layer_weights=[1.0, -1.0, -1.0],
                   layer=np.zeros(len(src), dtype=np.int64),
                   n_layers=3, node_sizes=sizes, P=P, seed=seed,
                   consider_comms=consider_comms, **kwargs)

    @classmethod
    def bipartite_from_dataset(cls, edges_ds, types, n,
                               resolution_parameter_01=1.0,
                               resolution_parameter_0=0.0,
                               resolution_parameter_1=0.0,
                               degree_as_node_size=False, P=8, seed=42,
                               consider_comms="all_neighbors",
                               spill_dir=None, **kwargs):
        """Dataset-native bipartite construction: the edge Dataset is
        spilled/partitioned once (``from_dataset``); only the (L, n)
        node-size mask and the length-n ``types`` vector touch the
        driver — the same O(n)-driver contract every ``node_sizes``
        caller already has. Strengths for ``degree_as_node_size`` come
        from per-batch bincount partials (one streaming pass, no
        shuffle)."""
        types = np.asarray(types)
        if len(types) != n:
            raise ValueError("types must have length n")
        uniq = np.unique(types)
        if len(uniq) > 2:
            raise ValueError("More than one type specified.")
        cls01 = np.searchsorted(uniq, types).astype(np.int64)
        if degree_as_node_size:
            import pyarrow as pa
            n_size = np.zeros(n)

            def partial(t: pa.Table) -> pa.Table:
                s = t["src"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                d = t["dst"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                w = (t["weight"].to_numpy(zero_copy_only=False)
                     .astype(np.float64) if "weight" in t.column_names
                     else np.ones(len(s)))
                loop = s == d
                k = np.bincount(s[~loop], weights=w[~loop], minlength=n)
                k += np.bincount(d[~loop], weights=w[~loop],
                                 minlength=n)
                k += 2.0 * np.bincount(s[loop], weights=w[loop],
                                       minlength=n)
                nz = np.flatnonzero(k)
                return pa.table({"vid": pa.array(nz),
                                 "k": pa.array(k[nz])})

            for b in edges_ds.map_batches(
                    partial, batch_format="pyarrow",
                    zero_copy_batch=True).iter_batches(
                        batch_format="pyarrow"):
                n_size[b["vid"].to_numpy()] += b["k"].to_numpy()
        else:
            n_size = np.ones(n)
        sizes = np.stack([n_size,
                          np.where(cls01 == 0, n_size, 0.0),
                          np.where(cls01 == 1, n_size, 0.0)])
        g01 = float(resolution_parameter_01)
        return cls.from_dataset(
            edges_ds, n=n, directed=False,
            quality=["cpm", "cpm", "cpm"],
            resolution_parameter=[
                g01, g01 - float(resolution_parameter_0),
                g01 - float(resolution_parameter_1)],
            layer_weights=[1.0, -1.0, -1.0], n_layers=3,
            node_sizes=sizes, P=P, seed=seed,
            consider_comms=consider_comms, spill_dir=spill_dir,
            **kwargs)

    @classmethod
    def from_layer_datasets(cls, layer_ds_list, n, directed=False,
                            quality="cpm", resolution_parameter=1.0,
                            P=8, seed=42, n_colors=2,
                            correct_self_loops=None, max_comm_size=0,
                            spill_dir=None, node_sizes=None,
                            layer_weights=None,
                            consider_comms="all_neighbors"):
        """Multiplex construction from one edge Dataset per layer on a
        shared vertex id space [0, n): each Dataset is tagged with its
        layer index and unioned, then spilled/partitioned once
        (reference ``functions.py:95-176`` — the Datasets play the
        role of the K igraph layers)."""
        import pyarrow as pa

        def tag(k):
            def fn(t: pa.Table) -> pa.Table:
                if "layer" in t.column_names:
                    t = t.drop_columns(["layer"])
                return t.append_column(
                    "layer", pa.array(np.full(t.num_rows, k,
                                              dtype=np.int64)))
            return fn

        tagged = [ds.map_batches(tag(k), batch_format="pyarrow",
                                 zero_copy_batch=True)
                  for k, ds in enumerate(layer_ds_list)]
        union = tagged[0]
        for t in tagged[1:]:
            union = union.union(t)
        return cls.from_dataset(
            union, n=n, directed=directed, quality=quality,
            resolution_parameter=resolution_parameter, P=P, seed=seed,
            n_colors=n_colors, correct_self_loops=correct_self_loops,
            max_comm_size=max_comm_size, spill_dir=spill_dir,
            node_sizes=node_sizes, layer_weights=layer_weights,
            n_layers=len(layer_ds_list),
            consider_comms=consider_comms)

    def active_vids(self):
        """Vids with at least one incident edge (degree > 0) — the
        graph's actual vertex set when the id space is sparse."""
        return self._active_vids

    # ------------------------------------------------------------------
    def _stats_of(self, mem=None, moves_ref=None):
        """Combine per-shard stat partials into the label-indexed
        arrays. When ``mem`` is given (rollback path) it is broadcast
        first; ``moves_ref`` folds the last colour's un-shipped deltas
        into the same round."""
        if mem is not None:
            stats0 = {k: np.zeros((self.L, 2 * self.n)) for k in
                      ("w_in", "s_out", "s_in", "size")}
            mem_ref = ray.put(mem)
            # shards recompute against the pushed membership
            self._fan("set_state", mem_ref, stats0)
        parts = self._fan("stats_partials", moves_ref)
        M = 2 * self.n
        w_in = np.zeros((self.L, M))
        s_out = np.zeros((self.L, M))
        s_in = np.zeros((self.L, M))
        size = np.zeros((self.L, M))
        for (labs, wn, wl), (labs2, so, si, sz) in parts:
            w_in[:, labs] += wn / 2.0 + wl
            s_out[:, labs2] += so
            s_in[:, labs2] += si
            size[:, labs2] += sz
        return {"w_in": w_in, "s_out": s_out, "s_in": s_in,
                "size": size}

    def _scal(self):
        return {"n": self.n, "directed": self.directed,
                "layers": self.layers_cfg,
                "correct_self_loops": self.correct_self_loops}

    def _quality_of(self, stats, gamma=None):
        """Q = sum_k lambda_k Q_k over the per-layer stats (reference
        ``Optimiser.py:357-461``; L=1 is plain quality). ``gamma``
        overrides every layer's resolution (the partition.quality(res)
        form the resolution profile bisection needs, reference
        ``VertexPartition.py:186-196``)."""
        scal = self._scal()
        if gamma is not None:
            scal = dict(scal)
            scal["layers"] = [dict(lc, gamma=float(gamma))
                              for lc in scal["layers"]]
        total = 0.0
        for k, (qf, g_, lam) in enumerate(_layer_qfs(scal)):
            nz = (stats["size"][k] > 0) | (stats["w_in"][k] != 0)
            t = np.atleast_2d(qf.term(
                stats["w_in"][k][nz], stats["s_out"][k][nz],
                stats["s_in"][k][nz], stats["size"][k][nz], g_))
            agg = t.sum(axis=1)
            total += lam * float(qf.combine(
                agg if qf.term_dim > 1 else agg[0], g_))
        return total

    def _term_sum(self, stats):
        """Per-layer global term-sum vectors for nonlinear combines
        (Surprise); None when every layer is linear — those kernels
        don't need it."""
        out = []
        any_nl = False
        for k, (qf, gamma, lam) in enumerate(_layer_qfs(self._scal())):
            if qf.linear_scale() is not None:
                out.append(None)
                continue
            any_nl = True
            nz = (stats["size"][k] > 0) | (stats["w_in"][k] != 0)
            t = np.atleast_2d(qf.term(
                stats["w_in"][k][nz], stats["s_out"][k][nz],
                stats["s_in"][k][nz], stats["size"][k][nz], gamma))
            out.append(t.sum(axis=1))
        return out if any_nl else None

    @staticmethod
    def _concat_props(props):
        props = [p for p in props if p is not None]
        keys = ("vids", "targs", "dq", "wnew", "wcur", "loop", "k_out",
                "k_in", "nsz", "cur", "empty")
        # per-layer blocks are (L, n_moves); concat along the move axis
        return {k: np.concatenate([p[i] for p in props], axis=-1)
                for i, k in enumerate(keys)}

    def _relabel_occupied_empty(self, mv, stats):
        """An empty-community proposal's deterministic label (n + vid)
        can collide with a STILL-LIVE community from an earlier visit
        (other vertices joined it after the proposer left) — the
        kernel scored the move against an empty target, so committing
        it into the live community would corrupt both the quality
        accounting and the incremental stats (the old per-cycle
        recompute silently patched the stats half; the r5 exact path
        surfaced it via LRAY_LEIDEN_SELFCHECK). Re-target such moves
        to a deterministic genuinely-free label; in the (pathological)
        case of pool exhaustion the residue is dropped."""
        # only KERNEL-flagged empty-intent moves are candidates — an
        # ordinary join of a community living at a label >= n
        # (someone's former empty label) must not be touched
        emp = np.flatnonzero(mv["empty"])
        if len(emp) == 0:
            return mv
        occ = stats["size"][:, mv["targs"][emp]].sum(axis=0) > 0
        if not occ.any():
            return mv
        dead = ((stats["size"].sum(axis=0) <= 0)
                & (np.abs(stats["w_in"]).sum(axis=0) <= 0)
                & (np.abs(stats["s_out"]).sum(axis=0) <= 0))
        free = np.flatnonzero(dead)
        free = free[~np.isin(free, mv["targs"])]
        need = int(occ.sum())
        take = min(need, len(free))
        tg = mv["targs"].copy()
        tg[emp[occ][:take]] = free[:take]
        mv = dict(mv)
        mv["targs"] = tg
        if take < need:
            keep = np.ones(len(tg), dtype=bool)
            keep[emp[occ][take:]] = False
            mv = {k: v[..., keep] for k, v in mv.items()}
        return mv

    @staticmethod
    def _apply_corr(cinfos, stats, corr_dirty):
        """Fold the shards' exact w_in correction partials into the
        driver stats; mark the corrected labels for shipping with the
        next broadcast. Returns False if some shard committed moves
        WITHOUT correction capability (non-frontier mode) — the
        per-cycle recompute then stays on."""
        exact = True
        for ci in cinfos:
            if not ci["applied"]:
                continue
            if ci["corr"] is None:
                exact = False
                continue
            cl, cv = ci["corr"]
            if len(cl):
                stats["w_in"][:, cl] += cv
                corr_dirty[cl] = True
        return exact

    # ------------------------------------------------------------------
    def _push_stats(self, stats):
        """Broadcast verified stats (one put, zero-copy reads); shards
        compress to their referenced labels."""
        stats_ref = ray.put(stats)
        agg0 = self._term_sum(stats)
        self._fan("set_stats", stats_ref, agg0)

    def local_move_level0(self, mem=None, max_supersteps=200,
                          min_rel_improvement=1e-9, checkpoint=None,
                          level_tag="L0", fixed=None):
        """Distributed local move to the fixed point. Returns
        (quality, n_supersteps, history).

        MEMBERSHIP IS SHARD-RESIDENT: the driver never holds a
        vid-indexed array — it maintains only the label-indexed
        community stats, updated from the move broadcasts (each
        proposal carries its current community, so no mem[] lookup is
        needed), and cycle rollback snapshots/restores state ON the
        shards. O(n) arrays touch the driver only transiently: a
        caller-supplied warm seed (broadcast once, zero-copy reads)
        and the per-cycle checkpoint gather when checkpointing is on.

        Each colour superstep is ONE round of shard-host calls
        (``step`` = apply previous colour's committed deltas +
        propose). Once per colour cycle the stats are recomputed from
        shard partials and quality verified: a cycle that decreased
        quality (conflicting parallel moves) is rolled back and re-run
        in safe mode — per-step recompute plus a greedy
        non-interfering subset — so quality is monotone non-decreasing
        like the reference's sequential queue. When a cycle commits
        few moves the colour count adaptively drops to 1. Convergence:
        a cycle with no moves, or relative improvement below
        ``min_rel_improvement``."""
        from .checkpoint import CheckpointManager

        seed_ref = (None if mem is None
                    else ray.put(np.asarray(mem, dtype=np.int64)))
        ckpt = (CheckpointManager(checkpoint, f"leiden-{level_tag}",
                                  self.P, n=self.n)
                if checkpoint else None)
        start_cycle = 0
        resume_step = 0
        resumed_metrics = None
        if ckpt is not None:
            resumed = ckpt.resume()
            if resumed is not None:
                start_cycle, shards, metrics = resumed
                resume_step = int(metrics.get("step", 0))
                full = np.empty(self.n, dtype=np.int64)  # transient
                for p in range(self.P):
                    full[p::self.P] = shards[p]
                seed_ref = ray.put(full)
                del full
                if metrics.get("converged"):
                    resumed_metrics = metrics
        fref = None if fixed is None \
            else ray.put(np.asarray(fixed, dtype=bool))
        self._fan("set_fixed", fref)
        self._fan("init_mem", seed_ref)
        import time as _time
        tm = self._lm_timings = {"step_rounds": 0.0, "stats_sync": 0.0,
                                 "commit": 0.0}
        t0 = _time.time()
        stats = self._stats_of()
        q = self._quality_of(stats)
        self._push_stats(stats)
        tm["stats_sync"] += _time.time() - t0
        if resumed_metrics is not None:
            return q, int(resumed_metrics.get("step", 0)), []
        history = []
        step = resume_step   # continue the per-superstep rng sequence
        cycle_no = 0
        cur_colors = self.n_colors
        # labels whose driver-side w_in received an exactness
        # correction not yet shipped to the shards
        corr_dirty = np.zeros(2 * self.n, dtype=bool)
        pending_ref = None    # moves committed but not yet shipped
        stats_push = None     # verified stats to adopt at cycle start
        while step < max_supersteps:
            q_cycle_start = q
            cycle_moves = 0
            cycle_exact = True
            snapshot = True   # shards snapshot on the cycle's first colour
            for color in range(cur_colors):
                t0 = _time.time()
                rand_ref = None
                if self.consider_comms == "rand":
                    # size-proportional label reservoir for RAND_COMM,
                    # seeded per (run seed, superstep); ships with the
                    # pooled labels' authoritative stat values
                    rng = np.random.default_rng(
                        (int(self.seed) if np.isscalar(self.seed)
                         else 42) * 1_000_003 + step)
                    sz = stats["size"][0]
                    live = np.flatnonzero(sz > 0)
                    pool = live[rng.choice(
                        len(live), size=256,
                        p=sz[live] / sz[live].sum())].astype(np.int64)
                    labs = np.unique(pool)
                    rand_ref = ray.put({
                        "pool": pool, "labels": labs,
                        "vals": {k: stats[k][:, labs].copy()
                                 for k in stats}})
                rets = self._fan("step", pending_ref, color, cur_colors,
                                 stats_push, snapshot, step, rand_ref)
                props = [r[0] for r in rets]
                tm["step_rounds"] += _time.time() - t0
                t0 = _time.time()
                # previous commit's exact w_in corrections (see
                # LeidenShard._mark_dirty) apply BEFORE this round's
                # proposals are processed
                cycle_exact &= self._apply_corr(
                    [r[1] for r in rets], stats, corr_dirty)
                snapshot = False
                mv = self._concat_props(props)
                pending_ref = None
                stats_push = None
                step += 1
                vids = mv["vids"]
                if len(vids):
                    mv = self._relabel_occupied_empty(mv, stats)
                    vids = mv["vids"]
                if len(vids) and self.max_comm_size > 0:
                    # parallel joins may overshoot the hard cap:
                    # greedy admit by delta, tracking running layer-0
                    # sizes (the in-memory kernel's p0.csize check)
                    order = np.argsort(-mv["dq"], kind="stable")
                    run_size = stats["size"][0].copy()
                    admit = np.zeros(len(vids), dtype=bool)
                    for i in order:
                        t_ = int(mv["targs"][i])
                        nsv = mv["nsz"][0][i]
                        if run_size[t_] + nsv <= self.max_comm_size:
                            run_size[t_] += nsv
                            run_size[int(mv["cur"][i])] -= nsv
                            admit[i] = True
                    mv = {k: v[..., admit] for k, v in mv.items()}
                    vids = mv["vids"]
                if len(vids) and self.enforcement > 0 \
                        and self.min_comm_size > 0:
                    # parallel commits can pile every +E-chasing vertex
                    # into the same small community in one step (the
                    # fill bonus is computed against a stale snapshot);
                    # admit greedily by score, honouring the fill
                    # premise against RUNNING sizes so a community
                    # fills to min_comm_size at most once per step —
                    # the sequential in-memory queue's behaviour
                    order = np.argsort(-mv["dq"], kind="stable")
                    min_s = self.min_comm_size
                    run_size = stats["size"][0].copy()
                    admit = np.zeros(len(vids), dtype=bool)
                    for i in order:
                        t_ = int(mv["targs"][i])
                        c_ = int(mv["cur"][i])
                        nsv = mv["nsz"][0][i]
                        snap_fill = stats["size"][0][t_] + nsv <= min_s
                        if snap_fill and run_size[t_] + nsv > min_s:
                            continue
                        # leave premise: the kernel charged -E only
                        # when the SNAPSHOT said the source drops
                        # under min_s (dist/leiden.py:348-349);
                        # parallel leavers can drain it below without
                        # any penalty in the same step — skip a move
                        # whose un-penalised leave premise broke
                        # against RUNNING sizes (the sequential queue
                        # would have re-scored it with -E)
                        snap_left = stats["size"][0][c_] - nsv
                        run_left = run_size[c_] - nsv
                        if (0 < run_left < min_s) \
                                and not (0 < snap_left < min_s):
                            continue
                        run_size[t_] += nsv
                        run_size[c_] -= nsv
                        admit[i] = True
                    mv = {k: v[..., admit] for k, v in mv.items()}
                    vids = mv["vids"]
                if len(vids):
                    old_lab = mv["cur"]
                    _apply_moves_stats(stats, mv)
                    # ship the post-commit stat values for every label
                    # this colour touched: shards upsert them into
                    # their compressed stores (absolute values from
                    # the driver's authoritative copy, so a label a
                    # shard newly references arrives with full history)
                    extra = np.flatnonzero(corr_dirty)
                    if len(extra):
                        corr_dirty[extra] = False
                        touched = np.unique(np.concatenate(
                            [old_lab, mv["targs"], extra]))
                    else:
                        touched = np.unique(np.concatenate(
                            [old_lab, mv["targs"]]))
                    mv["upd_labels"] = touched
                    mv["upd_vals"] = {k: stats[k][:, touched].copy()
                                      for k in stats}
                    a0 = self._term_sum(stats)
                    if a0 is not None:
                        mv["agg0"] = a0
                    # one put: every shard reads the same ref zero-copy
                    pending_ref = ray.put(mv)
                    cycle_moves += len(vids)
                history.append({"step": step, "moves": int(len(vids))})
                tm["commit"] += _time.time() - t0
            cycle_no += 1
            converged = cycle_moves == 0
            t0 = _time.time()
            need_verify = True
            if not converged and cycle_exact \
                    and self.enforcement <= 0 and cycle_no % 16 != 0:
                # every commit this cycle shipped exact corrections —
                # the driver's incremental stats are TRUE. Flush the
                # last colour's pending commit with a LIGHT apply-only
                # round (O(mover adjacency) per shard, no O(E/P)
                # pass) and skip the stats-recompute round entirely.
                # Every 16th cycle still runs the full recompute as a
                # float-crumb cleanup / self-check.
                if pending_ref is not None:
                    rets = self._fan("step", pending_ref, None,
                                     cur_colors)
                    pending_ref = None
                    cycle_exact &= self._apply_corr(
                        [r[1] for r in rets], stats, corr_dirty)
                need_verify = not cycle_exact
            if not converged and not need_verify:
                if os.environ.get("LRAY_LEIDEN_SELFCHECK"):
                    # test hook: prove the corrected incremental stats
                    # equal a from-scratch recompute EVERY cycle (the
                    # invariant the skip path rests on)
                    truth = self._stats_of()
                    for k_ in ("w_in", "s_out", "s_in", "size"):
                        if not np.allclose(stats[k_], truth[k_],
                                           atol=1e-9):
                            bad = np.flatnonzero(~np.isclose(
                                stats[k_], truth[k_],
                                atol=1e-9).all(axis=0))[:5]
                            raise AssertionError(
                                f"incremental {k_} drifted at labels "
                                f"{bad.tolist()}: "
                                f"{stats[k_][:, bad]} vs "
                                f"{truth[k_][:, bad]}")
                q2 = self._quality_of(stats)   # exact by construction
                if q2 + 1e-9 < q_cycle_start:
                    # conflicting parallel moves (exactly measured):
                    # same rollback as the verify path. Cycle-start
                    # stats are re-derived from the restored shards —
                    # cheaper than the per-cycle O(n) driver copy the
                    # rare rollback used to justify.
                    self._fan("restore_state")
                    stats = self._stats_of()
                    corr_dirty[:] = False
                    stats, q2, safe_moves = self._safe_cycle(stats)
                    history.append({"step": step, "moves": safe_moves,
                                    "safe": True})
                else:
                    # ship any unshipped corrections at the cycle
                    # boundary so shard stat copies converge
                    extra = np.flatnonzero(corr_dirty)
                    if len(extra):
                        corr_dirty[extra] = False
                        push = {"labels": extra.astype(np.int64),
                                "vals": {k: stats[k][:, extra].copy()
                                         for k in stats}}
                        a0 = self._term_sum(stats)
                        if a0 is not None:
                            push["agg0"] = a0
                        stats_push = ray.put(push)
                q = q2
                converged = (q - q_cycle_start
                             < min_rel_improvement * (1 + abs(q)))
            elif not converged:
                # recompute true stats from shard partials (incremental
                # community internal weights can drift when same-step
                # moves interact); the last colour's deltas fold into
                # the same round
                stats_inc = stats
                stats = self._stats_of(moves_ref=pending_ref)
                pending_ref = None
                q2 = self._quality_of(stats)
                if q2 + 1e-9 < q_cycle_start and self.enforcement <= 0:
                    # conflicting parallel moves: shards restore their
                    # cycle-start snapshots and the cycle is redone
                    # safely (with soft min-size enforcement active a
                    # cycle may trade raw quality for the constraint —
                    # the in-memory kernel allows that too, so the
                    # monotone-rollback check stands down)
                    self._fan("restore_state")
                    stats = self._stats_of()
                    corr_dirty[:] = False
                    stats, q2, safe_moves = self._safe_cycle(stats)
                    history.append({"step": step, "moves": safe_moves,
                                    "safe": True})
                else:
                    # shards adopt the verified stats with the next
                    # step call (no extra round) — only the labels
                    # whose values drifted from the incremental copies
                    # ship (shards' copies drift identically to the
                    # driver's, so an un-drifted label is already
                    # exact everywhere)
                    drift = ((stats_inc["w_in"] != stats["w_in"])
                             | (stats_inc["s_out"] != stats["s_out"])
                             | (stats_inc["s_in"] != stats["s_in"])
                             | (stats_inc["size"] != stats["size"])) \
                        .any(axis=0)
                    # corrected labels' SHARD copies are stale even
                    # where the driver already matches the recompute
                    dl = np.flatnonzero(drift | corr_dirty)
                    corr_dirty[:] = False
                    push = {"labels": dl.astype(np.int64),
                            "vals": {k: stats[k][:, dl].copy()
                                     for k in stats}}
                    a0 = self._term_sum(stats)
                    if a0 is not None:
                        push["agg0"] = a0
                    stats_push = ray.put(push)
                q = q2
                if self.enforcement <= 0:
                    converged = (q - q_cycle_start
                                 < min_rel_improvement * (1 + abs(q)))
                # with soft enforcement the raw quality can plateau
                # (or dip) while constraint-driven moves still make
                # progress — converge only on a move-free cycle
            tm["stats_sync"] += _time.time() - t0
            if ckpt is not None:
                # transient O(n) gather, checkpointing only
                slices = self._fan("own_mem")
                ckpt.save(start_cycle + cycle_no, slices,
                          metrics={"quality": q, "step": step,
                                   "moves": int(cycle_moves),
                                   "converged": bool(converged)})
            if converged:
                break
            if cycle_moves < max(8, self.n // 200):
                cur_colors = 1
        # final true stats/quality (also leaves shards in sync for the
        # refinement pass; converged cycles have no pending moves and
        # stats already verified — but flush defensively)
        if pending_ref is not None or stats_push is None:
            stats = self._stats_of(moves_ref=pending_ref)
            q = self._quality_of(stats)
        else:
            self._fan("step", None, None, cur_colors, stats_push)
        return q, step, history

    def _safe_cycle(self, stats):
        """One colour cycle with per-step distributed stats recompute
        and a greedy non-interfering commit subset (exact, monotone).
        The shards must already hold the cycle-start state
        (``restore_state``); ``stats`` is the matching driver copy."""
        self._push_stats(stats)
        total_moves = 0
        for color in range(self.n_colors):
            rets = self._fan("step", None, color, self.n_colors)
            mv = self._concat_props([r[0] for r in rets])
            if len(mv["vids"]) == 0:
                continue
            mv = self._relabel_occupied_empty(mv, stats)
            if len(mv["vids"]) == 0:
                continue
            order = np.argsort(-mv["dq"], kind="stable")
            touched = set()
            sel = []
            for i in order:
                a_, b_ = int(mv["cur"][i]), int(mv["targs"][i])
                if a_ in touched or b_ in touched:
                    continue
                touched.add(a_)
                touched.add(b_)
                sel.append(i)
            sel = np.asarray(sel, dtype=np.int64)
            mv_sel = {k: v[..., sel] for k, v in mv.items()}
            _apply_moves_stats(stats, mv_sel)
            tl = np.unique(np.concatenate([mv_sel["cur"],
                                           mv_sel["targs"]]))
            mv_sel["upd_labels"] = tl
            mv_sel["upd_vals"] = {k: stats[k][:, tl].copy()
                                  for k in stats}
            a0 = self._term_sum(stats)
            if a0 is not None:
                mv_sel["agg0"] = a0
            mv_ref = ray.put(mv_sel)
            # shards apply the selected subset, then verified stats
            # recompute from their partials (folding the moves in)
            stats = self._stats_of(moves_ref=mv_ref)
            self._push_stats(stats)
            total_moves += len(sel)
        q = self._quality_of(stats)
        return stats, q, total_moves

    # ------------------------------------------------------------------
    REFINE_MAX = 500_000  # internal edges per community refinement

    def refine_distributed(self):
        """Per-community parallel refinement (merge-constrained) on the
        base graph — FULLY SHARDED: internal edges AND the per-
        community vertex groups are bucketed on the shards and shipped
        worker-to-worker to the refine tasks; the refined (vid, label)
        rows stay in the object store. The driver sees only the
        community-space (refined label -> parent community) seed pairs
        and the giant count. Returns (refined_refs, seed_pairs)."""
        R = max(self.P, 1)

        def split(name):
            # R refs per shard; shard p lives on host p % H
            refs = [self.actors[p % len(self.actors)].call.options(
                num_returns=R).remote(p, name, R) for p in range(self.P)]
            return refs if R > 1 else [[r] for r in refs]
        bucket_refs = split("internal_edge_buckets")
        group_refs = split("refine_group_partials")
        outs = [_refine_bucket.remote(
            self.layers_cfg, self.correct_self_loops, self.directed,
            self.seed, self.max_comm_size, self.REFINE_MAX, self.P,
            *[group_refs[p][r] for p in range(self.P)],
            *[bucket_refs[p][r] for p in range(self.P)])
            for r in range(R)]
        refined_refs = [o[0] for o in outs]
        seed_pairs = ray.get([o[1] for o in outs])
        n_giant = int(sum(ray.get([o[2] for o in outs])))
        if n_giant:
            import logging
            logging.getLogger(__name__).warning(
                "refinement: %d giant communities (>%d internal edges)"
                " kept singleton refinement", n_giant, self.REFINE_MAX)
        return refined_refs, seed_pairs

    # ------------------------------------------------------------------
    def aggregate_sharded(self, refined_refs, seed_pairs,
                          sticky=False):
        """Aggregate by the refined membership WITHOUT a vid-indexed
        driver array: shards adopt the refine tasks' outputs (read
        zero-copy, sliced to their referenced vids) and emit
        (layer, comm_src, comm_dst) partials against their resident
        codes. The driver combines only community-space arrays.
        Returns (per-layer agg Graphs, labels, seed_mem) where
        seed_mem[i] = the parent community of refined community i (the
        Leiden seed-from-unrefined twist)."""
        sl = np.concatenate([p[0] for p in seed_pairs]) \
            if seed_pairs else np.empty(0, np.int64)
        sc = np.concatenate([p[1] for p in seed_pairs]) \
            if seed_pairs else np.empty(0, np.int64)
        labels = np.unique(sl)
        nl = len(labels)
        lab_ref = ray.put(labels)
        self._fan("adopt_refined", lab_ref, sticky, *refined_refs)
        parts = self._fan("agg_partials_sharded", nl, self.directed)
        keys = np.concatenate([p[0] for p in parts])
        ws = np.concatenate([p[1] for p in parts])
        uniq, inv = np.unique(keys, return_inverse=True)
        w = np.zeros(len(uniq))
        np.add.at(w, inv, ws)
        sizes = np.zeros((self.L, nl))
        for p in parts:
            sizes[:, p[2]] += p[3]
        # split the folded (layer, src, dst) keys back per layer
        lay_u = (uniq // (nl * nl)).astype(np.int64)
        pair = uniq % (nl * nl)
        graphs = []
        for k in range(self.L):
            mk = lay_u == k
            graphs.append(Graph(
                nl, src=(pair[mk] // nl).astype(np.int64),
                dst=(pair[mk] % nl).astype(np.int64), weights=w[mk],
                node_sizes=sizes[k], directed=self.directed))
        seed_mem = np.empty(nl, dtype=np.int64)
        seed_mem[np.searchsorted(labels, sl)] = sc
        return graphs, labels, seed_mem

    def _gather_codes(self):
        """Assemble the full vid -> refined-code map from shard slices
        — used ONLY for the small upper levels (community-space from
        level 1 on), never for level 0."""
        slices = self._fan("own_codes")
        m = np.empty(self.n, dtype=np.int64)
        for p in range(self.P):
            m[p::self.P] = slices[p]
        return m

    def _agg_fixed_mask(self, nl):
        """Fixed mask over the refined codes (an aggregate containing
        a fixed vertex is fixed) from shard partials."""
        parts = self._fan("fixed_code_partials")
        mask = np.zeros(nl, dtype=bool)
        for u in parts:
            mask[u] = True
        return mask

    # ------------------------------------------------------------------
    def run(self, n_iterations=2, max_supersteps=200,
            tail_max_edges=150_000, tail_max_n=3000, max_levels=8,
            min_rel_improvement=1e-9, checkpoint=None,
            initial_membership=None, is_membership_fixed=None,
            membership_out=None):
        """Full multi-level pipeline; returns (membership, quality,
        info). ``n_iterations`` follows the reference contract
        (``Optimiser.py:341-352``) in the form that fits a multi-level
        engine: one ``run`` pass already iterates distributed levels
        until quality plateaus, and a POSITIVE ``n_iterations``
        additionally governs the in-memory tail's optimisation passes
        (the reference's per-pass loop at the scale where it can still
        improve anything). ``n_iterations < 0`` is the explicit
        "iterate until no improvement" contract: FULL
        move+refine+aggregate passes repeat, each warm-started from
        the previous pass's membership, until a pass no longer
        improves quality (``info["passes"]`` reports the count).
        With ``is_membership_fixed`` the multi-pass loop is skipped —
        fixed-label outputs live in the ``2n + min-vid`` space, which
        is not a valid warm-seed label space; a single pass already
        reaches the reference fixed point on the pinned fixtures."""
        if n_iterations >= 0 or is_membership_fixed is not None:
            return self._run_pass(
                n_iterations=n_iterations,
                max_supersteps=max_supersteps,
                tail_max_edges=tail_max_edges, tail_max_n=tail_max_n,
                max_levels=max_levels,
                min_rel_improvement=min_rel_improvement,
                checkpoint=checkpoint,
                initial_membership=initial_membership,
                is_membership_fixed=is_membership_fixed,
                membership_out=membership_out)
        seed_cur = initial_membership
        itr, q_prev = 0, None
        while True:
            mem, q, info = self._run_pass(
                n_iterations=-1, max_supersteps=max_supersteps,
                tail_max_edges=tail_max_edges, tail_max_n=tail_max_n,
                max_levels=max_levels,
                min_rel_improvement=min_rel_improvement,
                checkpoint=checkpoint, initial_membership=seed_cur,
                membership_out=None,
                tag_prefix=("" if itr == 0 else f"P{itr}"))
            itr += 1
            if q_prev is not None \
                    and q - q_prev <= min_rel_improvement * (1 + abs(q)):
                break
            q_prev = q
            seed_cur = mem
        info["passes"] = itr
        if membership_out is not None:
            # the -1 multi-pass loop already holds the length-n
            # membership on the driver (each pass's warm seed — the
            # documented O(n) warm-seed contract), so the output is
            # written directly from it, partitioned by vid % P like
            # the shard-side path — no extra move+refine+aggregate
            # pass just to route bytes
            _claim_output(membership_out, self.n, self.P, "comm",
                          quality=float(q))
            for p in range(self.P):
                _write_shard(mem[p::self.P], p, self.P, membership_out,
                             "comm")
            info["membership_rows"] = int(self.n)
            info["membership_path"] = membership_out
            return None, q, info
        return mem, q, info

    def _run_pass(self, n_iterations=2, max_supersteps=200,
                  tail_max_edges=150_000, tail_max_n=3000, max_levels=8,
                  min_rel_improvement=1e-9, checkpoint=None,
                  initial_membership=None, is_membership_fixed=None,
                  membership_out=None, tag_prefix=""):
        """One full multi-level pass: distributed local-move + refine +
        aggregate per level (the shard-host pool is reused across
        levels). The exact in-memory schedule runs only on genuinely
        small aggregates (edge count below ``tail_max_edges``);
        edge-dense aggregates keep iterating distributed levels until
        quality stops improving. Returns (membership, quality, info).

        DRIVER MEMORY: level-0 membership and the level-0 coarsening
        map live only on the shards; the driver handles community-
        space arrays (stats, seeds, upper-level maps) plus the user's
        own O(n) inputs (warm seed / fixed mask, broadcast once). The
        returned membership array is the one O(n) driver object — pass
        ``membership_out=<dir>`` to have each shard write its
        (vid, comm) slice as partitioned parquet instead (membership
        in the returned tuple is then None), keeping the driver o(n)
        end to end.

        ``initial_membership``: length-n labels (< 2n) warm-starting
        level 0 — incremental re-clustering after graph updates
        (reference ``VertexPartition.py`` constructors' own
        ``initial_membership``): the local move starts from yesterday's
        communities instead of singletons, and refinement still
        re-validates every community from singletons inside it, so a
        stale merge gets split rather than frozen in."""
        chain_upper = []    # level>=1 coarsening maps (community-space)
        n1 = None           # number of level-0 refined communities
        level = self
        level_idx = 0
        seed = None
        if initial_membership is not None:
            seed = np.asarray(initial_membership, dtype=np.int64).copy()
            if len(seed) != self.n:
                raise ValueError("initial_membership length != n")
            if seed.min(initial=0) < 0 or \
                    seed.max(initial=0) >= 2 * self.n:
                raise ValueError("initial_membership labels out of "
                                 "range [0, 2n)")
        fixed = None
        seed0 = None
        if is_membership_fixed is not None:
            fixed = np.asarray(list(is_membership_fixed), dtype=bool)
            if len(fixed) != self.n:
                raise ValueError("is_membership_fixed length != n")
            if not fixed.any():
                fixed = None
            elif seed is None:
                raise ValueError("is_membership_fixed requires "
                                 "initial_membership (the labels the "
                                 "fixed vertices keep — reference "
                                 "test_Optimiser.py:145-164)")
            else:
                seed0 = seed.copy()
        level_fixed = fixed
        level_infos = []
        total_steps = 0
        prev_q = -np.inf
        final_mem_agg = None
        quality = None
        import time as _time
        timings = {"local_move": 0.0, "refine": 0.0, "aggregate": 0.0,
                   "tail": 0.0, "step_rounds": 0.0, "stats_sync": 0.0,
                   "commit": 0.0}
        while True:
            t0 = _time.time()
            q, steps, history = level.local_move_level0(
                mem=seed, max_supersteps=max_supersteps,
                min_rel_improvement=min_rel_improvement,
                checkpoint=checkpoint,
                level_tag=f"{tag_prefix}L{level_idx}",
                fixed=level_fixed)
            timings["local_move"] += _time.time() - t0
            for k_, v_ in getattr(level, "_lm_timings", {}).items():
                timings[k_] += v_
            total_steps += steps
            t0 = _time.time()
            refined_refs, seed_pairs = level.refine_distributed()
            timings["refine"] += _time.time() - t0
            t0 = _time.time()
            agg_graphs, labels, seed_mem = level.aggregate_sharded(
                refined_refs, seed_pairs, sticky=(level_idx == 0))
            timings["aggregate"] += _time.time() - t0
            if level_idx == 0:
                n1 = len(labels)
            else:
                # small upper level: gather its vid -> code map for
                # the driver-side composition (community-space)
                chain_upper.append(level._gather_codes())
            level_infos.append({"n": level.n, "edges": level.n_edges,
                                "supersteps": steps, "quality": q})
            agg_fixed = None
            if level_fixed is not None:
                agg_fixed = level._agg_fixed_mask(len(labels))
            n_agg_edges = sum(g.ecount for g in agg_graphs)
            small = (n_agg_edges <= tail_max_edges
                     and agg_graphs[0].n <= tail_max_n)
            plateaued = (q - prev_q) < min_rel_improvement * (1 + abs(q))
            if small or level_idx + 1 >= max_levels or \
                    (plateaued and level_idx > 0):
                t0 = _time.time()
                if small:
                    from ..partition import MutableVertexPartition
                    parts = []
                    for g2, lc in zip(agg_graphs, self.layers_cfg):
                        cls2 = PARTITION_TYPES[lc["quality"]]
                        part = cls2.__new__(cls2)
                        MutableVertexPartition.__init__(
                            part, g2, initial_membership=seed_mem,
                            resolution_parameter=lc["gamma"],
                            correct_self_loops=self.correct_self_loops,
                            _validate=False)
                        parts.append(part)
                    opt = Optimiser()
                    opt.set_rng_seed(self.seed)
                    from ..optimiser import (ALL_NEIGH_COMMS,
                                             ALL_COMMS,
                                             RAND_COMM,
                                             RAND_NEIGH_COMM)
                    opt.consider_comms = {
                        "all_neighbors": ALL_NEIGH_COMMS,
                        "all": ALL_COMMS,
                        "rand_neighbor": RAND_NEIGH_COMM,
                        "rand": RAND_COMM,
                    }[self.consider_comms]
                    opt.max_comm_size = self.max_comm_size
                    opt.min_comm_size = self.min_comm_size
                    opt.community_constraint_enforcement = \
                        self.enforcement
                    opt.optimise_partition_multiplex(
                        parts,
                        layer_weights=[lc["weight"]
                                       for lc in self.layers_cfg],
                        n_iterations=n_iterations,
                        is_membership_fixed=agg_fixed)
                    final_mem_agg = np.asarray(parts[0].membership)
                    quality = sum(
                        lc["weight"] * p.quality()
                        for lc, p in zip(self.layers_cfg, parts))
                else:
                    final_mem_agg = seed_mem
                    quality = q
                timings["tail"] += _time.time() - t0
                break
            prev_q = q
            lay_next = np.concatenate(
                [np.full(len(g.src), k, dtype=np.int64)
                 for k, g in enumerate(agg_graphs)])
            nxt = DistLeiden(
                np.concatenate([g.src for g in agg_graphs]),
                np.concatenate([g.dst for g in agg_graphs]),
                np.concatenate([g.weight for g in agg_graphs]),
                n=agg_graphs[0].n,
                directed=self.directed,
                quality=[lc["quality"] for lc in self.layers_cfg],
                resolution_parameter=[lc["gamma"]
                                      for lc in self.layers_cfg],
                P=self.P, seed=self.seed, n_colors=self.n_colors,
                node_sizes=np.stack([g.node_size
                                     for g in agg_graphs]),
                correct_self_loops=self.correct_self_loops,
                max_comm_size=self.max_comm_size,
                min_comm_size=self.min_comm_size,
                community_constraint_enforcement=self.enforcement,
                consider_comms=self.consider_comms,
                layer=lay_next,
                layer_weights=[lc["weight"]
                               for lc in self.layers_cfg],
                _actors=level.actors)
            # dense-relabel the seed for the next level's label space
            _, seed = np.unique(seed_mem, return_inverse=True)
            seed = seed.astype(np.int64)
            level_fixed = agg_fixed
            level = nxt
            level_idx += 1

        # unwind: upper maps compose driver-side (community-space);
        # the level-0 map stays on the shards (sticky codes)
        composite = np.arange(n1, dtype=np.int64)
        for m in chain_upper:
            composite = m[composite]
        upper_map = final_mem_agg[composite]      # (n1,)
        um_ref = ray.put(upper_map)

        # community-space renumber from shard partials
        parts = self._fan("final_label_partials", um_ref)
        ulab = np.unique(np.concatenate([p[0] for p in parts]))
        counts = np.zeros(len(ulab), dtype=np.int64)
        minv = np.full(len(ulab), np.iinfo(np.int64).max)
        for u, c, mn in parts:
            i = np.searchsorted(ulab, u)
            counts[i] += c
            np.minimum.at(minv, i, mn)
        if fixed is not None:
            # label-preserving output: fixed vertices keep their
            # seeded labels (they never moved, and a final community
            # holds fixed vertices of at most one original label —
            # fixed nodes cannot merge with each other at any level);
            # non-fixed communities get the collision-free label
            # 2n + min member vid. No renumber, mirroring the
            # in-memory optimise path (reference
            # test_Optimiser.py:145-164).
            s0_ref = ray.put(seed0)
            fx_ref = ray.put(fixed)
            fparts = self._fan("fixed_label_partials", um_ref, s0_ref,
                               fx_ref)
            fix_lab = np.full(len(ulab), -1, dtype=np.int64)
            for fl, sl_ in fparts:
                i = np.searchsorted(ulab, fl)
                bad = (fix_lab[i] >= 0) & (fix_lab[i] != sl_)
                if bad.any():
                    raise AssertionError(
                        "fixed-membership invariant violated")
                fix_lab[i] = sl_
            vals = np.where(fix_lab >= 0, fix_lab, 2 * self.n + minv)
        else:
            # dense renumber by decreasing size (deterministic)
            order = np.lexsort((minv, -counts))
            rank = np.empty(len(ulab), dtype=np.int64)
            rank[order] = np.arange(len(ulab))
            vals = rank
        keys_ref = ray.put(ulab)
        vals_ref = ray.put(vals)

        info = {
            "levels": level_infos,
            "timings": {k: round(v, 3) for k, v in timings.items()},
            "level0_supersteps": total_steps,
            "level0_quality": level_infos[0]["quality"],
            "final_quality": quality,
            "n_communities": int(len(ulab)),
        }
        if membership_out is not None:
            # the quality names the result: a rerun that found another
            # partition clears the parts instead of keeping them
            _claim_output(membership_out, self.n, self.P, "comm",
                          quality=float(quality))
            rows = self._fan("write_final", membership_out, um_ref,
                             keys_ref, vals_ref)
            info["membership_rows"] = int(sum(rows))
            info["membership_path"] = membership_out
            return None, quality, info
        slices = self._fan("final_own_labels", um_ref, keys_ref,
                           vals_ref)
        final = np.empty(self.n, dtype=np.int64)
        for p in range(self.P):
            final[p::self.P] = slices[p]
        return final, quality, info
