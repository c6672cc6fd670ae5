"""Hash-partitioned CSR edge blocks — the graph-state substrate
(SURVEY.md §1.3, §4.3.1).

Partitioning key: ``part(v) = v % P``, ``local(v) = v // P`` over
contiguous int64 vids. Edges live in the block of their *source*
partition, so a superstep's gather reads source-vertex state
partition-locally; messages shuffle to destination partitions.

Each block is a dict of numpy arrays pinned in the Ray object store
(zero-copy reads from every task on the node; on a multi-node cluster
the same refs transfer once per node):

- ``src_local``: local id of the source vertex per edge
- ``dst_part`` / ``dst_local``: destination partition + local id
- ``weight``: float64
- ``order``: edges sorted by (dst_part) so per-destination slices are
  contiguous (one ``np.searchsorted`` per target partition instead of a
  boolean mask scan)

Skew note (SURVEY.md §4.3.3): a hub's out-edges stay in one block but
messages pre-aggregate *inside the task* by destination local id before
they shuffle, so a high-degree vertex contributes O(#distinct dst per
block) message rows, not O(degree). Community-side skew is handled the
same way in the Leiden kernel (per-block partial aggregation on comm).
"""

from __future__ import annotations

import numpy as np
import ray

from .exchange import _map, _tasks


def part_of(v, P):
    return v % P


def local_of(v, P):
    return v // P


def part_sizes(n, P):
    """Vertices per partition under vid % P."""
    return [int((n - p + P - 1) // P) for p in range(P)]


def _check_partitions(P):
    """A graph needs at least one partition: P < 1 would build no
    block and every kernel would return an empty answer."""
    if P < 1:
        raise ValueError(f"partition count P must be >= 1, got {P}")


def symmetrize_edges(edges_ds):
    """Dataset (src, dst[, weight]) -> both directions per non-loop
    edge, emitted batch-locally (no shuffle). Undirected kernels over
    ``from_dataset`` need the reversed copies present in the input
    because each direction hash-partitions to a different block."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def both(t: pa.Table) -> pa.Table:
        w = (t["weight"] if "weight" in t.column_names
             else pa.array(np.ones(t.num_rows)))
        fwd = pa.table({"src": t["src"], "dst": t["dst"], "weight": w})
        nl = pc.invert(pc.equal(t["src"], t["dst"]))
        rev = pa.table({"src": t["dst"], "dst": t["src"],
                        "weight": w}).filter(nl)
        return pa.concat_tables([fwd, rev])

    return edges_ds.map_batches(both, batch_format="pyarrow",
                                zero_copy_batch=True)


def _build_block(src, dst, weight, P):
    order = np.argsort(dst % P, kind="stable")
    src, dst, weight = src[order], dst[order], weight[order]
    dst_part = (dst % P).astype(np.int32)
    # contiguous slice offsets per destination partition
    offsets = np.searchsorted(dst_part, np.arange(P + 1))
    return {
        "src_local": (src // P).astype(np.int64),
        "dst_part": dst_part,
        "dst_local": (dst // P).astype(np.int64),
        "weight": weight.astype(np.float64),
        "dst_offsets": offsets.astype(np.int64),
    }


def _edge_block(p, P, n, both_directions, src, dst, weight):
    """Block p of ``DistGraph.from_edges`` and its out-degree and
    out-strength shards: the rows with ``src % P == p`` (weight None:
    ones), then with ``both_directions`` the reversed non-loop rows
    with ``dst % P == p``, in input order."""
    if weight is None:
        weight = np.ones(len(src))
    m = (src % P) == p
    sp, dp, wp = src[m], dst[m], weight[m]
    if both_directions:
        mr = ((dst % P) == p) & (src != dst)
        sp = np.concatenate([sp, dst[mr]])
        dp = np.concatenate([dp, src[mr]])
        wp = np.concatenate([wp, weight[mr]])
    size = part_sizes(n, P)[p]
    deg = np.zeros(size, dtype=np.int64)
    stg = np.zeros(size)
    np.add.at(deg, sp // P, 1)
    np.add.at(stg, sp // P, wp)
    return _build_block(sp, dp, wp, P), deg, stg


class DistGraph:
    """P CSR blocks + per-partition degree/strength shards, all in the
    object store."""

    def __init__(self, n, P, directed, block_refs, out_deg_refs,
                 out_strength_refs):
        _check_partitions(P)
        self.n = int(n)
        self.P = int(P)
        self.directed = bool(directed)
        self.blocks = block_refs
        self.out_deg = out_deg_refs
        self.out_strength = out_strength_refs
        self.sizes = part_sizes(n, P)
        self._in_deg = None
        self._active = None

    # ------------------------------------------------------------------
    # Sparse-id support: kernels that need "the vertex set is the
    # vertices with at least one edge" (PageRank teleport/dangling
    # denominators, output filtering) run on the raw id space with an
    # active mask instead of requiring a driver-side id compaction.
    # ------------------------------------------------------------------
    def in_degree_shards(self):
        """Per-partition in-degree arrays (one scatter pass over the
        blocks, P x P worker-to-worker like a superstep; cached)."""
        if self._in_deg is not None:
            return self._in_deg
        # superstep imports this module; its runtime is loaded lazily
        from .superstep import _exchange, _fold, _scatter
        sizes = self.sizes

        def gather(block, _):
            return _scatter(block, np.ones(len(block["dst_local"]), np.int64),
                            sizes, np.add, 0, np.int64)

        self._in_deg = _exchange(self, gather,
                                 lambda _, *incoming: _fold(incoming),
                                 [None] * self.P, num_returns=1)
        return self._in_deg

    def active_masks(self):
        """(per-partition bool mask refs, n_active): vertex is active
        iff it has any in- or out-edge."""
        if self._active is not None:
            return self._active

        def mask(outd, indd):
            m = (outd > 0) | (indd > 0)
            return m, int(m.sum())

        masks, counts = _map(mask, self.out_deg, self.in_degree_shards(),
                             num_returns=2)
        self._active = (masks, int(sum(ray.get(counts))))
        return self._active

    def active_global(self):
        """Driver-side bool mask over the raw id space (O(n) — the
        size of the query output, not of the edge set)."""
        masks, _ = self.active_masks()
        out = np.zeros(self.n, dtype=bool)
        for p in range(self.P):
            out[p::self.P] = ray.get(masks[p])
        return out

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, src, dst, weight=None, n=None, P=8, directed=True,
                   both_directions=False):
        """both_directions: store each non-loop edge in both source
        partitions (needed by undirected gather kernels: CC, LP,
        undirected PageRank).

        Block construction runs as P parallel ``_edge_block`` tasks
        against the edge arrays put once in the object store (the
        per-partition sort is the expensive part — serial driver-side
        construction was a flat cost that capped scaling). The reversed
        rows and default weights are made inside the tasks, so the
        driver never holds doubled arrays."""
        _check_partitions(P)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if n is None:
            n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        if weight is not None:
            weight = np.asarray(weight, dtype=np.float64)
        launch = _tasks(_edge_block, num_returns=3)
        refs = [ray.put(src), ray.put(dst),
                None if weight is None else ray.put(weight)]
        outs = [launch(p, P, n, both_directions, *refs) for p in range(P)]
        blocks = [o[0] for o in outs]
        degs = [o[1] for o in outs]
        strengths = [o[2] for o in outs]
        # surface any build error now rather than at first superstep
        ray.wait(blocks, num_returns=len(blocks))
        return cls(n, P, directed, blocks, degs, strengths)

    @classmethod
    def from_dataset(cls, edges_ds, n, P=8, directed=True,
                     both_directions=False, spill_dir=None,
                     dedup=False):
        """Ray Data path: edges Dataset(src, dst[, weight]) -> partitioned
        parquet spill (the L0 checkpoint, resumable) -> P block-build
        tasks. The shuffle is the partitioned write; block building
        reads only its own partition's files.

        ``dedup=True`` collapses duplicate (src, dst) rows (summing
        weights) INSIDE each block-build task: every copy of an edge
        hashes to the same src%P partition, so partition-local dedup is
        exact — it replaces a whole groupby shuffle (~12 s of fixed
        Ray-Data aggregate overhead at sandbox scale) with one
        vectorised lexsort per partition.

        A spill directory this call creates is removed once the blocks
        are built; a caller's ``spill_dir`` is left in place."""
        import os
        import shutil
        import tempfile
        import pyarrow as pa

        _check_partitions(P)
        owned = spill_dir is None
        spill_dir = spill_dir or tempfile.mkdtemp(prefix="lray_edges_")
        os.makedirs(spill_dir, exist_ok=True)

        # add the partition column vectorised, then let Ray Data shuffle
        # by it and write one directory per partition
        def with_part(t: pa.Table) -> pa.Table:
            src = t["src"].to_numpy(zero_copy_only=False)
            part = (src % P).astype(np.int32)
            cols = {"src": t["src"], "dst": t["dst"],
                    "weight": (t["weight"] if "weight" in t.column_names
                               else pa.array(np.ones(len(src))))}
            cols["part"] = pa.array(part)
            return pa.table(cols)

        @ray.remote
        def build(p):
            import pyarrow.dataset as pads
            d = os.path.join(spill_dir, f"part={p}")
            sizes = part_sizes(n, P)
            if not os.path.isdir(d):
                empty = np.empty(0, np.int64)
                return (_build_block(empty, empty, np.empty(0), P),
                        np.zeros(sizes[p], dtype=np.int64),
                        np.zeros(sizes[p]))
            t = pads.dataset(d).to_table(columns=["src", "dst", "weight"])
            src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            dst = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            w = t["weight"].to_numpy(zero_copy_only=False).astype(np.float64)
            if both_directions:
                raise ValueError("symmetrize before from_dataset: a "
                                 "reversed edge belongs to another "
                                 "partition's files")
            if dedup:
                order = np.lexsort((dst, src))
                src, dst, w = src[order], dst[order], w[order]
                first = np.r_[True, (src[1:] != src[:-1])
                              | (dst[1:] != dst[:-1])]
                starts = np.flatnonzero(first)
                w = np.add.reduceat(w, starts) if len(starts) else w
                src, dst = src[first], dst[first]
            deg = np.zeros(sizes[p], dtype=np.int64)
            stg = np.zeros(sizes[p])
            np.add.at(deg, src // P, 1)
            np.add.at(stg, src // P, w)
            return _build_block(src, dst, w, P), deg, stg

        try:
            edges_ds.map_batches(with_part, batch_format="pyarrow",
                                 zero_copy_batch=True) \
                .write_parquet(spill_dir, partition_cols=["part"])
            results = [build.options(num_returns=3).remote(p)
                       for p in range(P)]
            ray.wait([r[0] for r in results], num_returns=P)
        finally:
            if owned:
                shutil.rmtree(spill_dir, ignore_errors=True)
        blocks = [r[0] for r in results]
        degs = [r[1] for r in results]
        strengths = [r[2] for r in results]
        return cls(n, P, directed, blocks, degs, strengths)

    def total_edges(self):
        return sum(len(ray.get(b)["weight"]) for b in self.blocks)
