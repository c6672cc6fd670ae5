"""BSP superstep runtime and the kernels built on it (SURVEY.md §2.8).

Vertex state lives in P shards (vid ``v`` in shard ``v % P`` at local
id ``v // P``), one object ref each; the edges of source partition p
live in ``g.blocks[p]`` (``blocks.py``). Every kernel is written
against one runtime of private helpers:

- ``_scatter(block, per_edge, sizes, ufunc, fill, dtype)`` — the
  per-destination-partition combine inside a gather task: one array
  per destination partition q, ``fill``-initialised and
  ``ufunc.at``-combined at the edges' destination local ids. A hub's
  out-edges pre-aggregate here, so a block ships O(#distinct dst)
  message rows per destination, not O(degree).
- ``_exchange(g, gather, reduce, state_refs, ...)`` — one superstep:
  P gather tasks ``gather(block_p, state_p, *args_p)``, each returning
  P per-destination messages, then P reduce tasks
  ``reduce(state_q, *args_q, *messages_into_q)`` (messages in source
  partition order). Message refs flow worker to worker; the driver
  only folds the reduce's last output, a per-partition scalar metric
  (summed by default). Correct at any P >= 1.
- ``_fixed_point(g, algo, state_refs, step, converged, max_iter,
  checkpoint, result_out, column, **identity)`` — the loop of every
  checkpointed
  kernel: resume from ``<checkpoint>/<algo>/`` (returning at once when
  the checkpointed run had converged), ``step`` until
  ``converged(metrics)`` or ``max_iter`` supersteps, save the shards
  and metrics after each superstep (``checkpoint.py``), then
  ``_finish``. It reports the supersteps completed, resumed ones
  included.
- ``_changes(g, gather, reduce, frontier)`` — the ``_fixed_point``
  step of the kernels that run until no vertex changes. Their reduce
  returns ``_changed``'s (state, changed mask, #changed); the masks
  stay refs that flow worker to worker, never through the driver and
  never into a checkpoint. From the second superstep on, ``frontier``
  cuts each gather's block (``_select``) to the edges whose message
  can differ from the last superstep's:

  - ``"push"`` (min / max through ``_combine``): the edges whose
    source changed. A destination with no message keeps the fill,
    which the combine leaves unchanged, so the result is exact.
  - ``"pull"`` (label propagation, whose plurality needs every
    in-edge of a destination): one light exchange marks the
    destinations with a changed in-neighbour, then the gather keeps
    the edges into marked destinations. Every other destination's
    in-neighbours kept their labels, so the synchronous rule gives it
    its label again, which ``_plurality`` leaves in place.
  - ``None`` (k-core's summed degree): every edge, every superstep.

  The first superstep, the first after a resume included, gathers
  every edge, so outputs, superstep counts and checkpoints are those
  of full gathers. A new min / max kernel gets the push frontier by
  passing ``_combine`` and ``"push"``.

So a kernel is its initial state, its per-edge message and its
combine. Shard work runs as stateless tasks of two module-level
remote functions (``_run``, ``_run_split``) — no actor, no long-lived
process — that take the kernel's function as an argument, pickled
once per launch by ``_tasks``. Output goes through ``_finish``: an
assembled array on the driver, or with ``result_out=<dir>`` one
``(vid, <column>)`` parquet file per shard written by the workers,
into a directory named by the kernel's result-changing arguments
(``**identity``, see ``_claim_output``).
"""

from __future__ import annotations

import numpy as np
import ray
from ray import cloudpickle

from .blocks import DistGraph
from .checkpoint import CheckpointManager

BIG = np.iinfo(np.int64).max   # int64 min-identity / "unreached"


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
@ray.remote
def _run(fn, *args):
    """Every shard task of this module: ``fn`` (pickled by ``_tasks``)
    applied to ``args`` on a worker."""
    return cloudpickle.loads(fn)(*args)


@ray.remote
def _run_split(fn, *args):
    """``_run`` of a function returning one output per destination
    partition, launched with ``num_returns=P``. Ray stores a single
    return value whole, so at P=1 the one output goes back bare."""
    outs = cloudpickle.loads(fn)(*args)
    return outs[0] if len(outs) == 1 else outs


def _tasks(fn, num_returns=1, split=False):
    """Launcher of ``fn`` tasks: ``launch(*args)`` starts one and
    returns its ref(s). ``fn`` is pickled once here, not once per
    task. ``split``: each task returns ``num_returns`` = P outputs,
    one per destination partition, handed back as a list of P refs
    at any P."""
    blob = cloudpickle.dumps(fn)
    task = (_run_split if split else _run).options(num_returns=num_returns)
    if split and num_returns == 1:
        return lambda *args: [task.remote(blob, *args)]
    return lambda *args: task.remote(blob, *args)


def _map(fn, *cols, num_returns=1):
    """One ``fn(cols[0][p], cols[1][p], ...)`` task per partition p: the
    list of result refs, or one such list per return value when
    ``num_returns > 1``."""
    launch = _tasks(fn, num_returns)
    outs = [launch(*args) for args in zip(*cols)]
    return outs if num_returns == 1 else [list(c) for c in zip(*outs)]


def _by_dest(block, *per_edge):
    """Per destination partition q: ``(dst_local, *per_edge)`` cut to
    the block's edges into q (contiguous — blocks sort by dst_part)."""
    off = block["dst_offsets"]
    cols = (block["dst_local"],) + per_edge
    return [tuple(c[int(off[q]):int(off[q + 1])] for c in cols)
            for q in range(len(off) - 1)]


def _select(block, keep):
    """The block cut to the edges where ``keep`` is set (the columns a
    gather reads), for a masked message set."""
    if keep.all():
        return block
    pos = np.concatenate(([0], np.cumsum(keep)))
    return {"src_local": block["src_local"][keep],
            "dst_local": block["dst_local"][keep],
            "weight": block["weight"][keep],
            "dst_offsets": pos[block["dst_offsets"]]}


def _scatter(block, per_edge, sizes, ufunc, fill, dtype):
    """The per-destination combine of one block's per-edge messages:
    array q has shape ``(sizes[q],) + per_edge.shape[1:]``, starts at
    ``fill`` and takes ``ufunc.at`` of the messages into partition q
    at their destination local ids, in edge order."""
    outs = []
    for size, (dst, msg) in zip(sizes, _by_dest(block, per_edge)):
        arr = np.full((size,) + per_edge.shape[1:], fill, dtype=dtype)
        ufunc.at(arr, dst, msg)
        outs.append(arr)
    return outs


def _exchange(g, gather, reduce, state_refs, gather_args=(),
              reduce_args=(), num_returns=2, metric=sum):
    """One superstep over ``g``'s blocks (see the module docstring).
    ``gather_args`` / ``reduce_args`` are per-partition lists. Returns
    the reduce refs — one list per output when ``num_returns > 1``,
    with the last output replaced by ``metric`` of its values
    (``metric=None`` keeps the refs)."""
    P = g.P
    launch = _tasks(gather, P, split=True)
    msgs = [launch(g.blocks[p], state_refs[p], *[a[p] for a in gather_args])
            for p in range(P)]
    outs = _map(reduce, state_refs, *reduce_args, *msgs,
                num_returns=num_returns)
    if num_returns > 1 and metric is not None:
        outs[-1] = metric(ray.get(outs[-1]))
    return outs


def _fixed_point(g, algo, state_refs, step, converged, max_iter,
                 checkpoint, result_out, column, /, **identity):
    """Run ``state_refs, metrics = step(state_refs, metrics)`` to the
    fixed point (see the module docstring); ``metrics`` starts as the
    resumed checkpoint's or ``{}``. Returns ``_finish``'s result, or
    ``(state_refs, supersteps, metrics)`` when ``column`` is None.
    ``identity`` names the result with ``max_iter`` (see ``_finish``)."""
    ckpt = CheckpointManager(checkpoint, algo, g.P, n=g.n) \
        if checkpoint else None
    steps, metrics, done = 0, {}, False
    if ckpt is not None:
        resumed = ckpt.resume()
        if resumed is not None:
            steps, shards, metrics = resumed
            state_refs = [ray.put(s) for s in shards]
            done = converged(metrics)
    while not done and steps < max_iter:
        state_refs, metrics = step(state_refs, metrics)
        steps += 1
        if ckpt is not None:
            ckpt.save(steps, ray.get(state_refs), metrics=metrics)
        done = converged(metrics)
    if column is None:
        return state_refs, steps, metrics
    return _finish(g, state_refs, steps, result_out, column,
                   max_iter=max_iter, **identity)


def _settled(metrics):
    """Converged: the last superstep changed no vertex."""
    return metrics.get("changed", -1) == 0


def _changed(new, old):
    """A frontier reduce's outputs: ``new``, the mask of the vertices
    whose state changed (in any column of a 2-D state) and their
    count."""
    changed = new != old
    if changed.ndim > 1:
        changed = changed.any(axis=1)
    return new, changed, int(changed.sum())


def _push(gather):
    """``gather`` on the block cut to the edges whose source changed in
    the last superstep (``changed`` None: every edge)."""
    def cut(block, state, changed):
        if changed is not None:
            block = _select(block, changed[block["src_local"]])
        return gather(block, state)
    return cut


def _pull(gather):
    """``gather`` on the block cut to the edges into marked
    destinations (``marks``: one mask per destination partition, or P
    Nones for every edge)."""
    def cut(block, state, *marks):
        if marks[0] is not None:
            block = _select(block, np.concatenate(
                [m[dl] for m, (dl,) in zip(marks, _by_dest(block))]))
        return gather(block, state)
    return cut


def _mark_gather(sizes):
    """Gather marking the destinations of edges from changed sources."""
    def gather(block, changed):
        block = _select(block, changed[block["src_local"]])
        return _scatter(block, np.ones(len(block["dst_local"]), bool),
                        sizes, np.logical_or, False, bool)
    return gather


def _changes(g, gather, reduce, frontier=None):
    """``_fixed_point`` step for a reduce returning ``_changed``'s
    outputs, with the ``frontier`` cut of the module docstring."""
    P = g.P
    gather = {None: gather, "push": _push(gather),
              "pull": _pull(gather)}[frontier]
    masks = None    # the last superstep's changed masks (None: first)

    def step(refs, _):
        nonlocal masks
        if frontier == "push":
            args = ([None] * P if masks is None else masks,)
        elif frontier == "pull":
            marks = [None] * P if masks is None else _exchange(
                g, _mark_gather(g.sizes),
                lambda _, *incoming: _fold(incoming, np.logical_or),
                masks, num_returns=1)
            args = tuple([m] * P for m in marks)
        else:
            args = ()
        refs, masks, changed = _exchange(g, gather, reduce, refs, args,
                                         num_returns=3)
        return refs, {"changed": changed}
    return step


def _fold(arrays, ufunc=np.add):
    """``ufunc`` folded over message arrays (sum by default), in
    source-partition order, into a copy of the first."""
    acc = arrays[0].copy()
    for arr in arrays[1:]:
        ufunc(acc, arr, out=acc)
    return acc


def _combine(ufunc):
    """Reduce of an order-free combine (min / max): fold the incoming
    messages into the old state; outputs as ``_changed``."""
    def reduce(old, *incoming):
        return _changed(_fold((old,) + incoming, ufunc), old)
    return reduce


def _degree_gather(sizes):
    """Gather counting, per vertex, its edges from alive sources."""
    def gather(block, alive):
        return _scatter(block, alive[block["src_local"]].astype(np.int64),
                        sizes, np.add, 0, np.int64)
    return gather


def _copy_shards(refs):
    """Driver-side private copies of shard arrays, put back as refs."""
    return [ray.put(np.asarray(ray.get(r)).copy()) for r in refs]


def _seed_shards(sizes, P, seeds, value, fill, dtype):
    """Per-partition state arrays holding ``value`` at the seed vids."""
    seeds = np.asarray(seeds, dtype=np.int64)
    refs = []
    for p in range(P):
        shard = np.full(sizes[p], fill, dtype=dtype)
        shard[seeds[seeds % P == p] // P] = value
        refs.append(ray.put(shard))
    return refs


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def assemble(g: DistGraph, shard_refs):
    """Shards -> one dense array indexed by global vid."""
    out = np.zeros(g.n, dtype=np.asarray(ray.get(shard_refs[0])).dtype)
    for p in range(g.P):
        out[p::g.P] = ray.get(shard_refs[p])
    return out


def _write_part(out_dir, name, columns):
    """Write one part file ``<out_dir>/<name>`` of a shard-side output
    (the table of ``columns``, name -> array) from the process that
    holds the rows — every result writer goes through here.

    Crash-safe + resumable: writes to a tmp name and ``os.replace``s
    into place, and skips a part file that already exists, so a rerun
    after a mid-write crash neither duplicates nor re-does finished
    parts (a torn write only ever exists under the tmp name). Call
    ``_claim_output`` on the directory first."""
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    if os.path.exists(path):
        return
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(pa.table({c: pa.array(v) for c, v in columns.items()}),
                   tmp)
    os.replace(tmp, path)


def _write_shard(shard, p, P, out_dir, column):
    """One shard's ``(vid, <column>)`` rows as ``part-{p:05d}.parquet``
    (``_write_part``); returns the row count."""
    shard = np.asarray(shard)
    vids = p + P * np.arange(len(shard), dtype=np.int64)
    _write_part(out_dir, f"part-{p:05d}.parquet",
                {"vid": vids, column: shard})
    return len(shard)


def _identity_value(v):
    """One result-identity entry as JSON: numbers, strings and None
    as they are, numpy scalars as Python numbers, arrays and
    sequences (seed sets, warm starts) by a sha1 of dtype and bytes."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, np.generic):
        return v.item()
    import hashlib
    a = np.ascontiguousarray(np.asarray(v))
    return hashlib.sha1(str(a.dtype).encode() + a.tobytes()).hexdigest()


def _claim_output(out_dir, n, P, column, /, **extra):
    """Make ``out_dir`` the directory of one result, identified by
    ``(n, P, column)`` and ``extra`` (the arguments that change the
    result, through ``_identity_value``), before any part is written.

    Resume is IDENTITY-CHECKED: a ``_RESULT_MANIFEST.json`` records the
    identity; existing part files are skipped by ``_write_part`` only
    when the manifest matches — a dir left by a different graph size,
    partition count or kernel, or without a manifest, is cleared
    instead of silently reused (the same stale-output rule as the
    temporal spill's ``_SPILL_DONE``)."""
    import json
    import os
    manifest = os.path.join(out_dir, "_RESULT_MANIFEST.json")
    expect = {"n": int(n), "P": int(P), "column": column,
              **{k: _identity_value(v) for k, v in extra.items()}}
    if os.path.isdir(out_dir):
        ok = False
        if os.path.exists(manifest):
            try:
                with open(manifest) as f:
                    ok = json.load(f) == expect
            except (ValueError, OSError):
                ok = False
        if not ok:
            for f in os.listdir(out_dir):
                if f.startswith("part-") \
                        or f == "_RESULT_MANIFEST.json":
                    os.remove(os.path.join(out_dir, f))
    os.makedirs(out_dir, exist_ok=True)
    if not os.path.exists(manifest):
        tmp = manifest + f".tmp-{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(expect, f)
        os.replace(tmp, manifest)


def write_shard_results(g: DistGraph, shard_refs, out_dir, column, /,
                        **identity):
    """Shard-side partitioned parquet output — the o(n)-driver seam.

    Each shard writes its own ``part-{p:05d}.parquet`` with columns
    ``(vid, <column>)`` directly from a worker task (the shard ref
    never moves through the driver), mirroring
    ``DistLeiden.run(membership_out=)``, into a directory claimed by
    ``_claim_output`` with ``identity``. Returns total rows written.
    At 10^10 vertices the driver holds P object refs and P ints —
    never an O(n) array."""
    P = g.P
    _claim_output(out_dir, g.n, P, column, **identity)
    rows = ray.get(_map(_write_shard, shard_refs, range(P), [P] * P,
                        [out_dir] * P, [column] * P))
    return int(sum(rows))


def _finish(g: DistGraph, shard_refs, iters, result_out, column, /,
            **identity):
    """Common kernel epilogue: assemble on the driver (the in-memory
    tier / oracle path), or — when ``result_out`` is a directory —
    write per-shard parquet from the workers and hand back only
    ``{"path", "rows", "column"}`` (the at-scale path; driver state
    stays o(n)). ``identity``: the kernel arguments that change the
    result, so a rerun with other ones into the same directory
    replaces its parts instead of keeping them."""
    if result_out is None:
        return assemble(g, shard_refs), iters
    rows = write_shard_results(g, shard_refs, result_out, column,
                               **identity)
    return {"path": result_out, "rows": rows, "column": column}, iters


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
def pagerank(g: DistGraph, damping=0.85, tol=1e-6, max_iter=200,
             weighted=False, checkpoint=None,
             message_dtype=np.float64, active=False, personalize=None,
             init_rank=None, result_out=None):
    """North-rule semantics: rank = (1-d)/n + d*(sum_in rank/outdeg +
    dangling_mass/n); iterate until L1 delta < tol. ``weighted`` uses
    strength-normalised contributions instead of degree.
    ``message_dtype=np.float32`` halves the bytes each superstep ships
    through the object store (messages accumulate partition-locally in
    float64 and downcast only for the exchange; rank state stays
    float64) — for throughput probes and bandwidth-tight clusters, not
    for 1e-6-oracle runs.

    ``active=True``: the vertex set is the vertices with >= 1 edge
    (per-partition masks from the graph itself), so sparse raw id
    spaces — ``DistGraph.from_dataset`` without any driver-side id
    compaction — get the same n/teleport/dangling denominators a
    compacted build would; inactive ids hold rank 0.

    ``personalize``: seed vids — teleport (and dangling
    redistribution) becomes uniform over the seeds (personalized
    PageRank) instead of uniform over the vertex set.

    ``init_rank``: dense length-n warm-start vector (e.g. the ranks
    of the graph before a delta-edge batch landed, or a prior run's
    converged state). Iterating from it is bit-identical to having
    reached that state in-run, so warm-starting a converged vector
    after small graph updates re-converges in a handful of supersteps
    instead of from scratch — the dynamic-recrawl path for a web-scale
    link graph.

    ``result_out=<dir>``: each shard writes its ``(vid, rank)``
    parquet from its worker instead of the driver assembling an O(n)
    array — returns ``({"path", "rows", "column"}, iters)``. The
    at-scale output seam (all superstep kernels share it via
    ``_finish``), mirroring ``DistLeiden.run(membership_out=)``."""
    P, n, sizes = g.P, g.n, g.sizes
    if active:
        act_refs, n_eff = g.active_masks()
    else:
        act_refs, n_eff = [None] * P, n
    if personalize is not None:
        p_refs = _seed_shards(sizes, P, personalize,
                              1.0 / len(personalize), 0.0, np.float64)
    else:
        p_refs = [None] * P

    def gather(block, rank, norm):
        src_contrib = np.zeros(len(rank))
        nz = norm > 0
        src_contrib[nz] = rank[nz] / norm[nz]
        per_edge = src_contrib[block["src_local"]]
        if weighted:
            per_edge = per_edge * block["weight"]
        return [a.astype(message_dtype, copy=False) for a in
                _scatter(block, per_edge, sizes, np.add, 0.0, np.float64)]

    def dangling_of(rank, norm, act):
        m = norm <= 0 if act is None else (act & (norm <= 0))
        return float(rank[m].sum())

    def reduce(old, act, pvec, *rest):
        # rest: the P per-partition dangling masses, then the messages
        dangling_total = sum(rest[:P])
        if pvec is None:
            new = np.full(len(old), (1.0 - damping) / n_eff)
            new += damping * dangling_total / n_eff
        else:
            new = (1.0 - damping + damping * dangling_total) * pvec
        for arr in rest[P:]:
            new += damping * arr
        if act is not None:
            new[~act] = 0.0
        return new, float(np.abs(new - old).sum())

    def init_shard(q_size, act, pvec, warm):
        if warm is not None:
            r = warm.astype(np.float64, copy=True)
        elif pvec is None:
            r = np.full(q_size, 1.0 / n_eff)
        else:
            r = pvec.copy()
        if act is not None:
            r[~act] = 0.0
        return r

    if init_rank is not None:
        init_rank = np.asarray(init_rank, dtype=np.float64)
        if len(init_rank) != g.n:
            raise ValueError(
                f"init_rank has length {len(init_rank)}, graph has "
                f"n={g.n}")
        warm_refs = [ray.put(init_rank[p::P]) for p in range(P)]
    else:
        warm_refs = [None] * P
    norm_refs = g.out_strength if weighted else g.out_deg

    def step(rank_refs, _):
        dang = _map(dangling_of, rank_refs, norm_refs, act_refs)
        rank_refs, delta = _exchange(
            g, gather, reduce, rank_refs, (norm_refs,),
            (act_refs, p_refs, *([d] * P for d in dang)))
        return rank_refs, {"l1_delta": delta}

    return _fixed_point(
        g, "pagerank", _map(init_shard, sizes, act_refs, p_refs, warm_refs),
        step, lambda m: m.get("l1_delta", np.inf) < tol, max_iter,
        checkpoint, result_out, "rank", damping=damping, tol=tol,
        weighted=weighted, active=active,
        message_dtype=str(np.dtype(message_dtype)),
        personalize=personalize, init_rank=init_rank)


# ----------------------------------------------------------------------
# Connected components (weak): min-label propagation to fixed point
# ----------------------------------------------------------------------
def connected_components(g: DistGraph, max_iter=10_000, checkpoint=None,
                         init_labels=None, result_out=None):
    """Exact membership; graph blocks must contain both edge
    directions (``from_edges(..., both_directions=True)``).

    ``init_labels``: dense length-n warm-start labels — incremental
    recompute after edge insertions. Min-label propagation started
    from any labelling where ``label[v]`` is a vid in ``v``'s
    component (e.g. the pre-delta component minima; identity for new
    vertices) converges to the same fixed point as the identity init
    — the component minimum — but only the regions bridged by the new
    edges move, so re-convergence takes ~diameter-of-change
    supersteps, not diameter-of-graph."""
    P, n, sizes = g.P, g.n, g.sizes

    def gather(block, label):
        return _scatter(block, label[block["src_local"]], sizes,
                        np.minimum, BIG, np.int64)

    if init_labels is not None:
        init_labels = np.asarray(init_labels, dtype=np.int64)
        if len(init_labels) != g.n:
            raise ValueError(
                f"init_labels has length {len(init_labels)}, graph has "
                f"n={g.n}")
        label_refs = [ray.put(init_labels[p::P].copy())
                      for p in range(P)]
    else:
        label_refs = [ray.put(np.arange(p, n, P, dtype=np.int64))
                      for p in range(P)]
    return _fixed_point(g, "cc", label_refs,
                        _changes(g, gather, _combine(np.minimum), "push"),
                        _settled, max_iter, checkpoint, result_out,
                        "component", init_labels=init_labels)


# ----------------------------------------------------------------------
# BFS distances: frontier min-distance propagation from seed vertices
# ----------------------------------------------------------------------
def bfs_distances(g: DistGraph, sources, max_iter=10_000,
                  checkpoint=None, result_out=None):
    """Unweighted hop distance from ``sources`` to every reachable
    vertex; unreachable vertices hold ``INF`` (int64 max). Same
    superstep shape as connected components (min-combine), so it
    inherits the scale properties: per-block pre-aggregation by
    destination partition, worker-to-worker message refs, the driver
    only sums per-partition change counts. Blocks must hold both
    directions for undirected semantics."""
    sizes = g.sizes

    def gather(block, dist):
        # dist+1 per edge; saturating so INF stays INF
        d = dist[block["src_local"]]
        return _scatter(block, np.where(d == BIG, BIG, d + 1), sizes,
                        np.minimum, BIG, np.int64)

    return _fixed_point(g, "bfs",
                        _seed_shards(sizes, g.P, sources, 0, BIG, np.int64),
                        _changes(g, gather, _combine(np.minimum), "push"),
                        _settled, max_iter, checkpoint, result_out, "dist",
                        sources=sources)


# ----------------------------------------------------------------------
# Weighted SSSP: Bellman-Ford min-plus relaxation to fixed point
# ----------------------------------------------------------------------
def sssp(g: DistGraph, sources, max_iter=10_000, checkpoint=None,
         result_out=None):
    """Weighted shortest distances from ``sources`` (min-plus
    relaxation per superstep — the BSP Bellman-Ford); unreachable
    vertices hold ``inf``. Same exchange shape as ``bfs_distances``
    with ``dist[src] + weight`` as the per-edge message; weights must
    be non-negative. Blocks must hold both directions for undirected
    semantics."""
    sizes = g.sizes

    def gather(block, dist):
        return _scatter(block, dist[block["src_local"]] + block["weight"],
                        sizes, np.minimum, np.inf, np.float64)

    return _fixed_point(g, "sssp",
                        _seed_shards(sizes, g.P, sources, 0.0, np.inf,
                                     np.float64),
                        _changes(g, gather, _combine(np.minimum), "push"),
                        _settled, max_iter, checkpoint, result_out, "dist",
                        sources=sources)


# ----------------------------------------------------------------------
# Onion decomposition: layered peel refining the k-core decomposition
# ----------------------------------------------------------------------
def onion_layers(g: DistGraph, max_iter=10_000, result_out=None):
    """Onion decomposition (Hébert-Dufresne, Grochow & Allard 2016):
    each round removes EVERY alive vertex whose remaining degree is
    <= the running core value, where core = max(core, min remaining
    degree) — so ``layer(v)`` (1-based removal round) refines the
    k-core decomposition and ``coreness(v)`` is the core value at
    removal. Deterministic: rounds remove whole degree classes, no
    tie-breaking. Blocks must hold BOTH directions.

    Shard state is (alive, layer, core) per partition; each round is
    one degree gather (the kcore exchange) + an O(P) driver min +
    a shard-local peel — the driver never holds an O(n) array on the
    ``result_out`` path (layer under ``<dir>/layer``, coreness under
    ``<dir>/coreness``). Inactive vertices (no edges) keep layer 0.

    Returns ((layers, coreness), rounds) — or ({"layer": {...},
    "coreness": {...}}, rounds) with ``result_out``."""
    import os

    P, sizes = g.P, g.sizes

    def local_min(alive, *incoming):
        deg = _fold(incoming)
        m = int(deg[alive].min()) if alive.any() else BIG
        return deg, m

    def peel(alive, layer, core, deg, k, rnd):
        rm = alive & (deg <= k)
        layer = layer.copy()
        core_out = core.copy()
        layer[rm] = rnd
        core_out[rm] = k
        alive = alive & ~rm
        return alive, layer, core_out, int(alive.sum())

    alive_refs = _copy_shards(g.active_masks()[0])
    layer_refs = [ray.put(np.zeros(s, np.int64)) for s in sizes]
    core_refs = [ray.put(np.zeros(s, np.int64)) for s in sizes]
    core_k = 0
    rounds = 0
    for rnd in range(1, max_iter + 1):
        deg_refs, low = _exchange(g, _degree_gather(sizes), local_min,
                                  alive_refs, metric=min)
        if low == BIG:
            break
        core_k = max(core_k, low)
        alive_refs, layer_refs, core_refs, left = _map(
            peel, alive_refs, layer_refs, core_refs, deg_refs,
            [core_k] * P, [rnd] * P, num_returns=4)
        rounds = rnd
        if sum(ray.get(left)) == 0:
            break
    if result_out is None:
        return (assemble(g, layer_refs), assemble(g, core_refs)), rounds
    return ({col: _finish(g, refs, rounds, os.path.join(result_out, col),
                          col, max_iter=max_iter)[0]
             for col, refs in (("layer", layer_refs),
                               ("coreness", core_refs))}, rounds)


# ----------------------------------------------------------------------
# Densest subgraph: batched greedy peel (2(1+eps)-approximation)
# ----------------------------------------------------------------------
def densest_subgraph(g: DistGraph, eps=0.0, max_iter=10_000):
    """Bahmani, Kumar & Vassilvitskii (VLDB 2012) batched peel: each
    round evaluates the remaining graph's density rho = E_r/V_r, then
    removes EVERY vertex with remaining degree <= 2(1+eps)*rho. The
    densest level seen is a 2(1+eps)-approximation of the densest
    subgraph; eps>0 gives O(log n) rounds, eps=0 still terminates
    (min degree <= average) and is exactly replicable by a
    level-indexed SQL peel. Blocks must hold BOTH directions.

    One kcore-shaped degree gather per round; driver state is O(P)
    scalars plus P object refs for the best level's alive mask.
    Returns ({"density", "round", "n_vertices", "n_edges"},
    best_mask_refs, rounds) — the mask stays sharded."""
    def stats(alive, *incoming):
        deg = _fold(incoming)
        return deg, int(alive.sum()), int(deg[alive].sum())

    alive_refs = _copy_shards(g.active_masks()[0])
    best = {"density": 0.0, "round": -1, "n_vertices": 0,
            "n_edges": 0}
    best_refs = list(alive_refs)
    for rnd in range(max_iter):
        deg_refs, v_refs, e_refs = _exchange(
            g, _degree_gather(g.sizes), stats, alive_refs, num_returns=3,
            metric=None)
        v_r = sum(ray.get(v_refs))
        e_r = sum(ray.get(e_refs)) // 2
        if v_r == 0:
            return best, best_refs, rnd
        rho = e_r / v_r
        if rho > best["density"]:
            best = {"density": rho, "round": rnd, "n_vertices": v_r,
                    "n_edges": e_r}
            best_refs = list(alive_refs)
        thr = 2.0 * (1.0 + eps) * rho
        alive_refs = _map(lambda alive, deg: alive & (deg > thr),
                          alive_refs, deg_refs)
    raise RuntimeError("densest_subgraph did not terminate in "
                       f"{max_iter} rounds")


# ----------------------------------------------------------------------
# DAG longest path (critical-path depth): max-plus relaxation
# ----------------------------------------------------------------------
def dag_longest_path(g: DistGraph, max_iter=10_000, checkpoint=None,
                     result_out=None):
    """Longest-path depth (in edges) per vertex of a DAG: integer
    max-plus relaxation per superstep — depth[v] = max(depth[v],
    max over in-edges (depth[u] + 1)), init 0. Same exchange shape as
    ``sssp`` with max instead of min. Converges in (longest path
    length) supersteps; a CYCLIC input never converges, so the kernel
    raises when ``max_iter`` is exhausted — feed it the SCC
    condensation of a cyclic graph. Blocks must hold the FORWARD
    direction only (``directed=True``)."""
    sizes = g.sizes

    def gather(block, depth):
        return _scatter(block, depth[block["src_local"]] + np.int64(1),
                        sizes, np.maximum, -1, np.int64)

    depth_refs, steps, metrics = _fixed_point(
        g, "dag_longest_path",
        [ray.put(np.zeros(s, np.int64)) for s in sizes],
        _changes(g, gather, _combine(np.maximum), "push"), _settled,
        max_iter, checkpoint, None, None)
    if not _settled(metrics):
        raise RuntimeError(
            "dag_longest_path did not converge in %d supersteps — "
            "the input graph has a cycle (run scc + condense first)"
            % max_iter)
    return _finish(g, depth_refs, steps, result_out, "depth")


# ----------------------------------------------------------------------
# k-core: iterative peel to the maximal subgraph with min degree >= k
# ----------------------------------------------------------------------
def kcore(g: DistGraph, k, max_iter=10_000, checkpoint=None,
          init_alive=None, result_out=None):
    """Boolean per-partition membership masks; each superstep counts,
    per vertex, its edges whose *source* endpoint is still in the core
    candidate set (blocks hold both directions, so that is the degree
    within the remaining subgraph) and drops vertices below ``k``.
    Fixed point = the k-core. Returns (mask over vids, iterations).

    Idempotent after convergence, so a fixed-iteration SQL oracle that
    runs past the fixed point reproduces it exactly.

    ``init_alive``: dense length-n bool warm start. The k-core is a
    subset of the (k-1)-core, so a core *decomposition* peels each
    level from the previous level's survivors instead of the whole
    graph — the fixed point is unchanged (peeling is monotone from
    any superset of the k-core). For the fully shard-resident
    decomposition use :func:`coreness`.

    ``result_out=<dir>``: shard-side ``(vid, in_core)`` parquet —
    see :func:`pagerank`."""
    P = g.P
    if init_alive is not None:
        init_alive = np.asarray(init_alive, dtype=bool)
        if len(init_alive) != g.n:
            raise ValueError(
                f"init_alive has length {len(init_alive)}, graph has "
                f"n={g.n}")
        alive_refs = [ray.put(init_alive[p::P].copy())
                      for p in range(P)]
    else:
        alive_refs = None
    alive_refs, iters = _kcore_shards(g, k, alive_refs, max_iter,
                                      checkpoint)
    return _finish(g, alive_refs, iters, result_out, "in_core", k=k,
                   max_iter=max_iter, init_alive=init_alive)


def _kcore_shards(g: DistGraph, k, alive_refs=None, max_iter=10_000,
                  checkpoint=None):
    """Shard-level peel loop: takes/returns per-partition bool mask
    refs so callers (``kcore``, ``coreness``) can compose levels
    without ever assembling an O(n) array on the driver."""
    def reduce(old, *incoming):
        return _changed(old & (_fold(incoming) >= k), old)

    # default start: the active vertex set (vertices with >= 1 edge)
    if alive_refs is None:
        alive_refs = _copy_shards(g.active_masks()[0])
    alive_refs, steps, _ = _fixed_point(
        g, f"kcore{k}", alive_refs,
        _changes(g, _degree_gather(g.sizes), reduce), _settled,
        max_iter, checkpoint, None, None)
    return alive_refs, steps


def coreness(g: DistGraph, levels, max_iter=10_000, checkpoint=None,
             result_out=None):
    """Stepped core decomposition entirely on shards: per vertex, the
    highest level k in ``levels`` (ascending) whose k-core still
    contains it; 1 for active vertices in no listed core, 0 for
    inactive (degree-0) ids. Each level's peel warm-starts from the
    previous level's survivors (k-core ⊆ (k-1)-core) and the running
    ``coreness`` vector is updated by per-shard worker tasks — the
    driver holds only per-level alive counts, never an O(n) array
    (the decomposition twin of ``q_coreness_co``'s semantics with the
    driver-side level loop pushed onto the shards)."""
    act_refs, _ = g.active_masks()

    def bump(core, alive, k):
        new = core.copy()
        new[alive] = k
        return new

    core_refs = _map(lambda act: np.where(np.asarray(act), np.int64(1),
                                          np.int64(0)), act_refs)
    alive_refs = _map(lambda act: np.asarray(act, dtype=bool).copy(),
                      act_refs)
    total_iters = 0
    for k in levels:
        alive_refs, iters = _kcore_shards(g, int(k), alive_refs,
                                          max_iter, checkpoint)
        total_iters += iters
        n_alive = sum(ray.get(_map(lambda a: int(a.sum()), alive_refs)))
        if n_alive == 0:
            break
        core_refs = _map(bump, core_refs, alive_refs, [int(k)] * g.P)
    return _finish(g, core_refs, total_iters, result_out, "coreness",
                   levels=levels, max_iter=max_iter)


# ----------------------------------------------------------------------
# Linear fixed-iteration kernels: HITS / SALSA, Katz, eigenvector
# ----------------------------------------------------------------------
def _linear_gather(sizes, weighted=False):
    """Gather pushing ``x[src]`` (times the edge weight) along edges."""
    def gather(block, x, deg=None):
        per_edge = x[block["src_local"]]
        if deg is not None:
            # deg[src_local] >= 1: a vertex with no edge in this
            # orientation never appears as a sender here
            per_edge = per_edge / deg[block["src_local"]]
        if weighted:
            per_edge = per_edge * block["weight"]
        return _scatter(block, per_edge, sizes, np.add, 0.0, np.float64)
    return gather


def _masked_total(_, act, *incoming):
    """Reduce: summed messages, zero off the vertex set; metric = sum."""
    tot = _fold(incoming)
    tot[~act] = 0.0
    return tot, float(tot.sum())


def _scale(arr, s):
    return arr / s if s > 0 else arr


def _uniform_on(act_refs, value):
    """Per-partition float state: ``value`` on the mask, 0 elsewhere."""
    def init(act):
        x = np.zeros(len(act))
        x[act] = value
        return x
    return _map(init, act_refs)


def hits(g: DistGraph, g_rev: DistGraph, iters=20, result_out=None,
         degree_normalized=False):
    """Fixed-iteration HITS on a directed graph. Per iteration, from
    the OLD state: authority_raw(v) = sum of hub over in-edges,
    hub_raw(v) = sum of authority over out-edges; both vectors L1
    normalise (sum = 1). The simultaneous update keeps the recursion
    single-step so the SQL oracle can reproduce it exactly; it
    converges to the same principal eigenvectors as the Gauss–Seidel
    form. ``g_rev`` is the same edge set with src/dst swapped (built
    once via ``DistGraph.from_dataset`` on the swapped Dataset): the
    hub gather reads authority state partition-locally there instead
    of shipping destination state into source blocks.

    Isolated ids (no in- or out-edge anywhere) are excluded from the
    vertex set via the union of both graphs' active masks.

    ``degree_normalized=True`` gives SALSA (Lempel & Moran 2000): each
    sender's state is split equally over its edges in that orientation
    (hub mass / out-degree on the forward gather, authority mass /
    in-degree on the reversed gather) — the power iteration of the two
    stochastic SALSA chains instead of the unnormalised HITS matrices.
    The sender degrees are the build's existing per-partition
    out-degree shards; no extra task or exchange."""
    P = g.P
    assert g_rev.P == P and g_rev.n == g.n

    if degree_normalized:
        # the build already holds per-partition out-degree shards
        # (exactly the bincount of each block's src_local)
        fwd_deg, rev_deg = g.out_deg, g_rev.out_deg
    else:
        fwd_deg = rev_deg = [None] * P
    gather = _linear_gather(g.sizes)

    def union(a, b):
        m = a | b
        return m, int(m.sum())

    # vertex set: active in either orientation
    act_refs, counts = _map(union, g.active_masks()[0],
                            g_rev.active_masks()[0], num_returns=2)
    n_act = int(sum(ray.get(counts)))

    hub_refs = _uniform_on(act_refs, 1.0 / n_act)
    auth_refs = _uniform_on(act_refs, 1.0 / n_act)
    for _ in range(iters):
        # authority_raw <- forward edges carrying OLD hub;
        # hub_raw <- reversed edges carrying OLD authority
        a_out, a_tot = _exchange(g, gather, _masked_total, hub_refs,
                                 (fwd_deg,), (act_refs,), metric=None)
        h_out, h_tot = _exchange(g_rev, gather, _masked_total, auth_refs,
                                 (rev_deg,), (act_refs,), metric=None)
        a_tot = sum(ray.get(a_tot))
        h_tot = sum(ray.get(h_tot))
        auth_refs = _map(_scale, a_out, [a_tot] * P)
        hub_refs = _map(_scale, h_out, [h_tot] * P)

    if result_out is not None:
        # shard-side (vid, hub)/(vid, authority) parquet under
        # <dir>/hub and <dir>/authority; the per-shard active masks
        # are never assembled either
        import os
        ident = {"iters": iters, "degree_normalized": degree_normalized}
        return (_finish(g, hub_refs, None, os.path.join(result_out, "hub"),
                        "hub", **ident)[0],
                _finish(g, auth_refs, None,
                        os.path.join(result_out, "authority"),
                        "authority", **ident)[0], None)
    return (assemble(g, hub_refs), assemble(g, auth_refs),
            assemble(g, act_refs))


def salsa(g: DistGraph, g_rev: DistGraph, iters=20, result_out=None):
    """SALSA (Lempel & Moran, 'The stochastic approach for
    link-structure analysis', 2000): HITS with each gather
    degree-normalised on the sender side, i.e. the power iteration of
    the two stochastic chains. Same exchange shape, masks, and
    ``result_out`` seam as ``hits``."""
    return hits(g, g_rev, iters=iters, result_out=result_out,
                degree_normalized=True)


def katz(g: DistGraph, alpha=0.005, beta=1.0, iters=20,
         weighted=False, result_out=None):
    """Katz centrality, simultaneous (Jacobi) update from the OLD
    state: x_{k+1}(v) = beta + alpha * sum over in-edges (u, v) of
    x_k(u) [* weight]; x_0 = beta on the active vertex set (vertices
    with any edge), 0 elsewhere. Fixed ``iters`` supersteps so a
    recursive-CTE oracle reproduces it exactly; converges when
    alpha < 1/lambda_max. Same exchange shape as ``pagerank``:
    per-block destination-partition pre-aggregation, worker-to-worker
    message refs, no driver-side per-edge work."""
    def reduce(_, act, *incoming):
        new = beta + alpha * _fold(incoming)
        new[~act] = 0.0
        return new

    act_refs, _ = g.active_masks()
    gather = _linear_gather(g.sizes, weighted)
    x_refs = _uniform_on(act_refs, beta)
    for _ in range(iters):
        x_refs = _exchange(g, gather, reduce, x_refs,
                           reduce_args=(act_refs,), num_returns=1)
    if result_out is not None:
        return _finish(g, x_refs, None, result_out, "katz", alpha=alpha,
                       beta=beta, iters=iters, weighted=weighted)[0]
    return assemble(g, x_refs)


def eigenvector_centrality(g: DistGraph, iters=20, weighted=False,
                           result_out=None):
    """Power iteration on the (weighted) adjacency operator with L1
    normalisation (sum = 1) per superstep, from the uniform vector on
    the active vertex set. Fixed ``iters`` so the SQL oracle can
    reproduce it exactly; blocks must hold both directions for
    undirected semantics. Returns (x, active_mask)."""
    act_refs, n_act = g.active_masks()
    gather = _linear_gather(g.sizes, weighted)
    x_refs = _uniform_on(act_refs, 1.0 / n_act)
    for _ in range(iters):
        out, tot = _exchange(g, gather, _masked_total, x_refs,
                             reduce_args=(act_refs,))
        x_refs = _map(_scale, out, [tot] * g.P)
    if result_out is not None:
        return _finish(g, x_refs, None, result_out, "eigenvector",
                       iters=iters, weighted=weighted)[0], None
    return assemble(g, x_refs), g.active_global()


# ----------------------------------------------------------------------
# Weisfeiler-Lehman color refinement
# ----------------------------------------------------------------------
def wl_refinement(g: DistGraph, iters=2):
    """1-WL (color refinement) vertex fingerprints: the initial color
    is the degree (as a decimal string); each round every vertex's new
    color is ``md5(own || '|' || join(sorted(neighbour colors), ','))``
    — exactly reproducible in SQL as ``md5(own || '|' ||
    string_agg(nlab, ',' ORDER BY nlab))``, so the whole refinement is
    driver-verifiable. Sorting is lexicographic on both sides (numpy
    unicode sort == VARCHAR byte order for this hex/digit alphabet).

    BSP shape: neighbour colors ship per destination partition
    (strings, so ~33 bytes/edge/round — WL is a fingerprint pass, not
    a hot kernel); the md5 loop runs inside the partition task.
    Returns (labels '<U32' over vids, active mask)."""
    def gather(block, lab):
        return _by_dest(block, lab[block["src_local"]])

    def reduce(own, *incoming):
        import hashlib
        dl = np.concatenate([x[0] for x in incoming])
        lb = np.concatenate([x[1] for x in incoming])
        order = np.lexsort((lb, dl))
        dl, lb = dl[order], lb[order]
        m = len(own)
        starts = np.searchsorted(dl, np.arange(m))
        ends = np.searchsorted(dl, np.arange(1, m + 1))
        out = np.empty(m, dtype="<U32")
        for i in range(m):
            s = f"{own[i]}|" + ",".join(lb[starts[i]:ends[i]])
            out[i] = hashlib.md5(s.encode()).hexdigest()
        return out

    # degree over the stored (both-direction) blocks
    lab_refs = _map(lambda d: d.astype(np.int64).astype("<U20")
                    .astype("<U32"), g.out_deg)
    for _ in range(iters):
        lab_refs = _exchange(g, gather, reduce, lab_refs, num_returns=1)
    return assemble(g, lab_refs), g.active_global()


# ----------------------------------------------------------------------
# Label propagation: plurality label of neighbours, ties -> lowest label
# ----------------------------------------------------------------------
def _label_sums(dl, lb, w, base):
    """Per-(dst, label) weight sums as (dst, label, weight) arrays;
    ``base`` exceeds every label (pair key ``dst * base + label``)."""
    if len(dl) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0))
    key = dl * base + lb
    uniq, inv = np.unique(key, return_inverse=True)
    ws = np.zeros(len(uniq))
    np.add.at(ws, inv, w)
    return ((uniq // base).astype(np.int64),
            (uniq % base).astype(np.int64), ws)


def _plurality(old, incoming, base):
    """``old`` with every destination that got a message set to its
    heaviest incoming label (ties -> lowest label)."""
    new = old.copy()
    dl = np.concatenate([x[0] for x in incoming])
    if len(dl):
        d, l, tot = _label_sums(
            dl, np.concatenate([x[1] for x in incoming]),
            np.concatenate([x[2] for x in incoming]), base)
        # rows are sorted by (dst, label): per dst, the first row
        # whose weight is the dst's maximum (no second sort)
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        top = np.flatnonzero(tot == np.repeat(
            np.maximum.reduceat(tot, starts), np.diff(np.r_[starts, len(d)])))
        top = top[np.r_[True, d[top[1:]] != d[top[:-1]]]]
        new[d[top]] = l[top]
    return new


def _label_gather(weighted, base):
    """Gather of the per-(dst, label) partial weight sums of the edges
    from labelled sources (label >= 0), per destination partition."""
    def gather(block, label):
        block = _select(block, label[block["src_local"]] >= 0)
        lab = label[block["src_local"]]
        w = block["weight"] if weighted else np.ones(len(lab))
        return [_label_sums(dl, lb, ww, base)
                for dl, lb, ww in _by_dest(block, lab, w)]
    return gather


def label_propagation(g: DistGraph, max_iter=100, weighted=True,
                      checkpoint=None, result_out=None):
    """Synchronous supersteps; each vertex adopts the neighbour label
    with the highest total edge weight (ties: lowest label); vertices
    with no neighbours keep their label. Fixed point or max_iter.
    Blocks must hold both directions for undirected semantics. The
    gathers after the first superstep pull only the in-edges of
    vertices with a changed neighbour (module docstring)."""
    P, n = g.P, g.n

    def reduce(old, *incoming):
        return _changed(_plurality(old, incoming, n + 1), old)

    label_refs = [ray.put(np.arange(p, n, P, dtype=np.int64))
                  for p in range(P)]
    return _fixed_point(g, "labelprop", label_refs,
                        _changes(g, _label_gather(weighted, n + 1), reduce,
                                 "pull"),
                        _settled, max_iter, checkpoint, result_out, "label",
                        weighted=weighted)


def label_propagation_seeded(g: DistGraph, seeds, seed_labels,
                             iters=10, weighted=True, result_out=None):
    """Semi-supervised label spreading (the distributed analogue of
    the reference's ``is_membership_fixed``): seed vertices hold
    pinned class labels; every other vertex is unlabeled (-1) until a
    labeled neighbour appears, then re-takes the plurality label of
    its LABELED neighbours each superstep (ties -> lowest label;
    unlabeled vertices with no labeled neighbour keep -1). Labels
    never disappear, so a fixed-iteration recursive-CTE oracle
    reproduces the run exactly. Blocks must hold both directions.
    Class labels may be arbitrary non-negative int64 (the packing
    base adapts)."""
    P, n, sizes = g.P, g.n, g.sizes
    seeds = np.asarray(seeds, dtype=np.int64)
    seed_labels = np.asarray(seed_labels, dtype=np.int64)
    # (dst, label) pair packing base: labels are seed class ids, which
    # may exceed n
    L = int(max(n, seed_labels.max(initial=0) + 1, 2))

    gather = _label_gather(weighted, L)

    def reduce(old, fixed, *incoming):
        new = _plurality(old, incoming, L)
        new[fixed] = old[fixed]
        return new

    label_refs, fixed_refs = [], []
    for p in range(P):
        lab = np.full(sizes[p], -1, dtype=np.int64)
        fx = np.zeros(sizes[p], dtype=bool)
        m = seeds % P == p
        lab[seeds[m] // P] = seed_labels[m]
        fx[seeds[m] // P] = True
        label_refs.append(ray.put(lab))
        fixed_refs.append(ray.put(fx))
    for _ in range(iters):
        label_refs = _exchange(g, gather, reduce, label_refs,
                               reduce_args=(fixed_refs,), num_returns=1)
    if result_out is not None:
        return _finish(g, label_refs, None, result_out, "label",
                       seeds=seeds, seed_labels=seed_labels, iters=iters,
                       weighted=weighted)[0]
    return assemble(g, label_refs)


# ----------------------------------------------------------------------
# Strongly connected components: FW-BW colouring
# ----------------------------------------------------------------------
def scc(g_fwd: DistGraph, g_bwd: DistGraph, max_rounds=1_000,
        result_out=None):
    """SCC labels (= min vid in the component) via the distributed
    FW-BW-colouring algorithm (Orzan-style; public BSP formulation):

    per outer round, over the still-unassigned subgraph:
      1. forward min-label colouring to fixed point: F[v] = min vid
         that reaches v (same sharded min-propagation as
         ``connected_components`` but along directed edges only);
      2. backward root-mark sweep: every root (F[r] == r) marks,
         along REVERSED edges, the vertices u that can reach it while
         sharing its colour — those are exactly r's SCC. The mark
         ships as the root's label; because F[w] <= F[u] on every
         edge u->w, "some out-neighbour carries my colour" is a
         max-reduce + equality test (no per-edge colour exchange).
    Each round assigns >= the SCC of every current colour root (at
    minimum the globally smallest unassigned vid), so rounds <=
    number of SCCs and in practice a handful.

    ``g_bwd`` must be the same edge set with src/dst swapped (same
    ``n`` and ``P``). Returns (labels over raw vids, supersteps).

    SHARD-RESIDENT (round 4): the running assignment lives as
    per-partition object refs mutated by worker tasks; the driver
    orchestrates refs and per-round unassigned counts only.
    ``result_out=<dir>``: shard-side ``(vid, scc)`` parquet.
    """
    P, n, sizes = g_fwd.P, g_fwd.n, g_fwd.sizes
    assert g_bwd.P == P and g_bwd.n == n
    parts = range(P)

    def fgather(block, F):
        return _scatter(block, F[block["src_local"]], sizes, np.minimum,
                        BIG, np.int64)

    def freduce(old, assigned, *incoming):
        new = _fold((old,) + incoming, np.minimum)
        new[assigned] = BIG
        return new, int((new != old).sum())

    def bgather(block, m):
        return _scatter(block, m[block["src_local"]], sizes, np.maximum,
                        -1, np.int64)

    def breduce(m_old, F, *incoming):
        hit = (m_old == -1) & (F != BIG) \
            & (_fold(incoming, np.maximum) == F)
        new = m_old.copy()
        new[hit] = F[hit]
        return new, int(hit.sum())

    def init_scc(act, p):
        vids = np.arange(p, n, P, dtype=np.int64)
        # inactive vertices are their own singleton (filtered by
        # callers via active_global); start them assigned so they
        # never colour
        s = np.where(np.asarray(act), np.int64(-1), vids)
        return s, int((s < 0).sum())

    def round_state(scc_q, p):
        vids = np.arange(p, n, P, dtype=np.int64)
        return scc_q >= 0, np.where(scc_q < 0, vids, BIG)

    def mk_marks(F_q, scc_q, p):
        vids = np.arange(p, n, P, dtype=np.int64)
        return np.where((F_q == vids) & (scc_q < 0), F_q,
                        np.int64(-1))

    def apply_marks(scc_q, m_q):
        newly = m_q >= 0
        new = scc_q.copy()
        new[newly] = m_q[newly]
        return new, int((new < 0).sum())

    scc_refs, counts = _map(init_scc, g_fwd.active_masks()[0], parts,
                            num_returns=2)
    unassigned = sum(ray.get(counts))
    steps = 0
    for _round in range(max_rounds):
        if unassigned == 0:
            break
        assigned_refs, F_refs = _map(round_state, scc_refs, parts,
                                     num_returns=2)
        changed = None
        while changed != 0:
            F_refs, changed = _exchange(g_fwd, fgather, freduce, F_refs,
                                        reduce_args=(assigned_refs,))
            steps += 1
        m_refs = _map(mk_marks, F_refs, scc_refs, parts)
        changed = None
        while changed != 0:
            m_refs, changed = _exchange(g_bwd, bgather, breduce, m_refs,
                                        reduce_args=(F_refs,))
            steps += 1
        scc_refs, counts = _map(apply_marks, scc_refs, m_refs,
                                num_returns=2)
        unassigned = sum(ray.get(counts))
    return _finish(g_fwd, scc_refs, steps, result_out, "scc",
                   max_rounds=max_rounds)


# ----------------------------------------------------------------------
# Deterministic random walks (node2vec-style corpus prep)
# ----------------------------------------------------------------------
WALK_MOD = 1_000_003


def walk_hash(w, s, u):
    """Deterministic per-step ranking hash, fully numpy-vectorised
    and reproducible verbatim in SQL:
    ``((w % M) * 7919 + (s % M) * 104729 + (u % M) * 15485863) % M``
    (same modular-hash idiom as ``linkpred.neighbor_sample``)."""
    M = WALK_MOD
    return ((w % M) * 7919 + (s % M) * 104729
            + (u % M) * 15485863) % M


def _block_csr_view(block, P, size_p):
    """Per-partition src-sorted CSR view of a block for the walk
    kernels: (starts, dstg_global, src_sorted), with each src run's
    destinations sorted ascending (lexsort) so membership tests can
    binary-search a run."""
    src = block["src_local"]
    dstg = np.concatenate([dl * P + q
                           for q, (dl,) in enumerate(_by_dest(block))])
    order = np.lexsort((dstg, src))
    ss_, dg = src[order], dstg[order]
    starts = np.searchsorted(ss_, np.arange(size_p + 1))
    return starts, dg, ss_


def _walk_frontier(P, step_fn, adj_refs, wids, cur, *extra):
    """One walk step: each partition advances the walks standing on
    its vertices; -1 marks a dead end."""
    parts = (cur % P).astype(np.int64)
    nxt = np.full(len(wids), -1, dtype=np.int64)
    launch = _tasks(step_fn)
    futs = {}
    for p in range(P):
        idx = np.flatnonzero(parts == p)
        if len(idx):
            futs[p] = (idx, launch(adj_refs[p], wids[idx], cur[idx],
                                   *extra))
    for p, (idx, f) in futs.items():
        nxt[idx] = ray.get(f)
    return nxt




def _walk_step(adj, wids, curs, step, P, n):
    """Advance each walk to its out-neighbour ``u`` minimising
    ``(walk_hash(w, step, u), u)``; -1 at a dead end."""
    starts, dg = adj[0], adj[1]
    loc = curs // P
    deg = starts[loc + 1] - starts[loc]
    out = np.full(len(wids), -1, dtype=np.int64)
    live = np.flatnonzero(deg > 0)
    if len(live) == 0:
        return out
    # flatten every live walk's neighbour list, rank by
    # (hash, u) packed into one int64, segmented min
    counts = deg[live]
    offs = np.concatenate(([0], np.cumsum(counts)))
    flat = np.concatenate(
        [dg[starts[loc[i]]:starts[loc[i] + 1]] for i in live])
    w_rep = np.repeat(wids[live], counts)
    key = walk_hash(w_rep, step, flat) * np.int64(n) + flat
    best = np.minimum.reduceat(key, offs[:-1])
    out[live] = best % n
    return out


def random_walks(g: DistGraph, seeds, length):
    """Fixed-length walks along directed edges; the step from ``cur``
    for walk ``w`` at step ``s`` goes to the out-neighbour ``u``
    minimising ``(walk_hash(w, s, u), u)`` — a deterministic hash
    choice (reproducible across runs and parallelism levels, and
    exactly replicable in SQL), standing in for the RNG draw of a
    production walk engine. Walks stop at dead ends.

    BSP shape: each partition builds a src-sorted CSR view of its own
    block once; per superstep the walk frontier is bucketed by
    ``cur % P`` and each partition advances only its own walks — walk
    state never exceeds O(frontier / P) per task and the driver holds
    only the frontier (which IS the query output, O(walks x length)).

    Returns (walk_id, step, vid) int64 arrays.
    """
    P, sizes = g.P, g.sizes
    adj_refs = _map(lambda block, p: _block_csr_view(block, P,
                                                     sizes[p])[:2],
                    g.blocks, range(P))
    wids = np.asarray(seeds, dtype=np.int64)
    cur = wids.copy()
    out_w = [wids.copy()]
    out_s = [np.zeros(len(wids), dtype=np.int64)]
    out_v = [cur.copy()]
    for s in range(1, length + 1):
        if len(wids) == 0:
            break
        nxt = _walk_frontier(P, _walk_step, adj_refs, wids, cur, s, P,
                             g.n)
        alive = nxt >= 0
        wids, cur = wids[alive], nxt[alive]
        out_w.append(wids.copy())
        out_s.append(np.full(len(wids), s, dtype=np.int64))
        out_v.append(cur.copy())
    return (np.concatenate(out_w), np.concatenate(out_s),
            np.concatenate(out_v))


N2V_R_MAX = 4         # class multiplicities live in 1..N2V_R_MAX
N2V_R_PRIME = 32452843


def node2vec_hash(w, s, u, r):
    """``walk_hash`` extended with the multiset-replica index ``r``
    (same modular idiom, one more prime multiplier); replicable
    verbatim in SQL."""
    M = WALK_MOD
    return ((w % M) * 7919 + (s % M) * 104729
            + (u % M) * 15485863 + (r % M) * N2V_R_PRIME) % M


def node2vec_walks(g: DistGraph, seeds, length,
                   mult_return=1, mult_common=2, mult_far=1):
    """Second-order (node2vec; Grover & Leskovec 2016) biased walks.
    From ``cur`` with predecessor ``prev``, each out-neighbour ``u``
    falls in a class — return (``u == prev``), common (``u`` is an
    out-neighbour of ``prev``), far (neither) — with integer
    multiplicity ``m`` in 1..N2V_R_MAX standing in for node2vec's
    1/p, 1, 1/q edge weights. The step goes to the candidate
    minimising ``(min_{r<m} node2vec_hash(w, s, u, r), u)``: a
    deterministic draw from the weighted multiset (each candidate
    entered m times), reproducible across runs / parallelism levels
    and replicable in SQL. The first step (no predecessor) is the
    uniform m=1 draw — ``random_walks``' step, since
    ``node2vec_hash(w, s, u, 0) == walk_hash(w, s, u)``.

    BSP shape: two shard rounds per step. Round A on cur's partition
    enumerates the walk's candidates and buckets them by
    ``prev % P``; round B on prev's partition classifies each
    candidate against prev's adjacency run (CSR sorted by
    (src, dst): membership is one binary search on the combined
    ``src_local * n + dst`` key — fits int64 while n^2/P < 2^63) and
    returns ONE best candidate per walk; the driver merges
    O(frontier) per-walk partials, never the candidate set.

    Returns (walk_id, step, vid) int64 arrays like ``random_walks``.
    """
    for m in (mult_return, mult_common, mult_far):
        if not 1 <= m <= N2V_R_MAX:
            raise ValueError(f"class multiplicity {m} outside "
                             f"1..{N2V_R_MAX}")
    P, sizes, n = g.P, g.sizes, g.n
    nI = np.int64(n)

    def build_adj(block, p):
        starts, dg, ss_ = _block_csr_view(block, P, sizes[p])
        return starts, dg, ss_ * nI + dg   # member key: globally sorted

    def enumerate_candidates(adj, wids, prevs, curs):
        """Round A: candidate (wid, prev, u) triples bucketed by
        prev % P."""
        starts, dg, _ = adj
        loc = curs // P
        deg = starts[loc + 1] - starts[loc]
        live = np.flatnonzero(deg > 0)
        if len(live) == 0:
            empty = np.empty(0, dtype=np.int64)
            return [(empty, empty, empty)] * P
        counts = deg[live]
        flat = np.concatenate(
            [dg[starts[loc[i]]:starts[loc[i] + 1]] for i in live])
        w_rep = np.repeat(wids[live], counts)
        p_rep = np.repeat(prevs[live], counts)
        buckets = (p_rep % P).astype(np.int64)
        outs = []
        for q in range(P):
            m = buckets == q
            outs.append((w_rep[m], p_rep[m], flat[m]))
        return outs

    def classify_and_pick(adj, step, *incoming):
        """Round B: class multiplicity against prev's adjacency, then
        per-walk (hash, u) min — returns one partial best per walk."""
        _, _, member_key = adj
        w = np.concatenate([t[0] for t in incoming])
        pv = np.concatenate([t[1] for t in incoming])
        u = np.concatenate([t[2] for t in incoming])
        if len(w) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0,
                                                         dtype=np.int64)
        qk = (pv // P) * nI + u
        if len(member_key):
            idx = np.minimum(np.searchsorted(member_key, qk),
                             len(member_key) - 1)
            is_nbr = member_key[idx] == qk
        else:
            is_nbr = np.zeros(len(w), dtype=bool)
        mcls = np.full(len(w), mult_far, dtype=np.int64)
        mcls[is_nbr] = mult_common
        mcls[u == pv] = mult_return
        base = ((w % WALK_MOD) * 7919 + (step % WALK_MOD) * 104729
                + (u % WALK_MOD) * 15485863)
        key = base % WALK_MOD
        for r in range(1, N2V_R_MAX):
            hr = (base + r * N2V_R_PRIME) % WALK_MOD
            key = np.where(r < mcls, np.minimum(key, hr), key)
        packed = key * nI + u
        order = np.lexsort((packed, w))
        ws, ps = w[order], packed[order]
        first = np.ones(len(ws), dtype=bool)
        first[1:] = ws[1:] != ws[:-1]
        return ws[first], ps[first]

    adj_refs = _map(build_adj, g.blocks, range(P))
    enumerate_task = _tasks(enumerate_candidates, P, split=True)
    wids = np.asarray(seeds, dtype=np.int64)
    cur = wids.copy()
    prev = np.full(len(wids), -1, dtype=np.int64)
    out_w = [wids.copy()]
    out_s = [np.zeros(len(wids), dtype=np.int64)]
    out_v = [cur.copy()]
    for s in range(1, length + 1):
        if len(wids) == 0:
            break
        if s == 1:
            nxt = _walk_frontier(P, _walk_step, adj_refs, wids, cur, s,
                                 P, n)
            alive = nxt >= 0
            wids, cur, prev = wids[alive], nxt[alive], cur[alive]
        else:
            parts = (cur % P).astype(np.int64)
            cand_futs = []
            for p in range(P):
                idx = np.flatnonzero(parts == p)
                if len(idx):
                    cand_futs.append(enumerate_task(
                        adj_refs[p], wids[idx], prev[idx], cur[idx]))
            parts_out = ray.get(_map(classify_and_pick, adj_refs,
                                     [s] * P, *cand_futs))
            aw = np.concatenate([t[0] for t in parts_out])
            ap = np.concatenate([t[1] for t in parts_out])
            if len(aw) == 0:
                break
            order = np.lexsort((ap, aw))
            aw_s, ap_s = aw[order], ap[order]
            first = np.ones(len(aw_s), dtype=bool)
            first[1:] = aw_s[1:] != aw_s[:-1]
            win_w, win_u = aw_s[first], ap_s[first] % nI
            # realign to walk order, vectorised (win_w is sorted);
            # dead walks simply drop out of the frontier
            keep = np.isin(wids, win_w)
            new_cur = win_u[np.searchsorted(win_w, wids[keep])]
            prev = cur[keep]
            wids = wids[keep]
            cur = new_cur
        out_w.append(wids.copy())
        out_s.append(np.full(len(wids), s, dtype=np.int64))
        out_v.append(cur.copy())
    return (np.concatenate(out_w), np.concatenate(out_s),
            np.concatenate(out_v))


def multi_bfs(g: DistGraph, sources, max_iter=10_000):
    """Per-source unweighted hop distances for a SMALL seed set
    (closeness / eccentricity probes): one (size_p, k) int64 plane
    per partition — state O(k * n / P), messages pre-aggregated by
    destination partition exactly like ``bfs_distances``, driver only
    sums change counts. Returns a (k, n) distance matrix (INF =
    unreachable).
    """
    P, n, sizes = g.P, g.n, g.sizes
    k = len(sources)

    def gather(block, dist):
        d = dist[block["src_local"]]
        return _scatter(block, np.where(d == BIG, BIG, d + 1), sizes,
                        np.minimum, BIG, np.int64)

    sources = np.asarray(sources, dtype=np.int64)
    dist_refs = []
    for p in range(P):
        shard = np.full((sizes[p], k), BIG, dtype=np.int64)
        for i, s in enumerate(sources):
            if s % P == p:
                shard[s // P, i] = 0
        dist_refs.append(ray.put(shard))
    dist_refs, steps, _ = _fixed_point(
        g, "multi_bfs", dist_refs,
        _changes(g, gather, _combine(np.minimum), "push"), _settled,
        max_iter, None, None, None)
    out = np.full((k, n), BIG, dtype=np.int64)
    for p in range(P):
        out[:, p::P] = ray.get(dist_refs[p]).T
    return out, steps


def _spath_shards(g: DistGraph, source, max_depth=64):
    """Shard-level forward pass of Brandes: returns (dist_refs,
    sig_refs, maxd) — per-partition int64 shards as object refs plus
    the deepest assigned level; the driver holds only refs and
    per-level change counts."""
    P, sizes = g.P, g.sizes

    def gather(block, dist, sigma, d):
        block = _select(block, dist[block["src_local"]] == d)
        return _scatter(block, sigma[block["src_local"]], sizes, np.add,
                        0, np.int64)

    def reduce(dist, sigma, d, *incoming):
        total = _fold(incoming)
        new = (dist == BIG) & (total > 0)
        nd, ns = dist.copy(), sigma.copy()
        nd[new] = d + 1
        ns[new] = total[new]
        return nd, ns, int(new.sum())

    dist_refs = _seed_shards(sizes, P, [source], 0, BIG, np.int64)
    sig_refs = _seed_shards(sizes, P, [source], 1, 0, np.int64)
    maxd = 0
    for d in range(max_depth):
        dist_refs, sig_refs, reached = _exchange(
            g, gather, reduce, dist_refs, (sig_refs, [d] * P),
            (sig_refs, [d] * P), num_returns=3)
        if reached == 0:
            break
        maxd = d + 1
    return dist_refs, sig_refs, maxd


def spath_counts(g: DistGraph, source, max_depth=64):
    """Single-source shortest-path counts (the sigma of Brandes'
    betweenness): level-synchronous BSP — at level d every edge
    (u, v) with dist[u] == d contributes sigma[u] to v's incoming
    sum, pre-aggregated per destination partition inside the block
    task; the reduce assigns dist = d + 1 and sigma = total incoming
    to still-unlabelled vertices. Integer-exact (int64 counts;
    overflow only on pathological path-count blowups).

    Returns (dist, sigma) length-n int64 arrays (INF / 0 where
    unreached) — the oracle-facing assembled form of
    ``_spath_shards``.
    """
    dist_refs, sig_refs, _ = _spath_shards(g, source, max_depth)
    return assemble(g, dist_refs), assemble(g, sig_refs)


def betweenness(g: DistGraph, sources, result_out=None):
    """Seed-sampled betweenness centrality (Brandes): forward
    ``_spath_shards`` per seed, then the backward dependency sweep
    level by level — delta[v] += sigma[v]/sigma[w] * (1 + delta[w])
    over DAG edges (v, w), dist[w] == dist[v] + 1 — run as one block
    task round per level with destination-partition pre-aggregation.
    Endpoints excluded (the classic definition). Blocks must hold
    both directions (undirected semantics).

    SHARD-RESIDENT end to end (round 4): dist/sigma/delta/acc live as
    per-partition object refs; the driver orchestrates refs and
    per-level counts only — no O(n) array per source. With
    ``result_out=<dir>`` the accumulated dependencies write per shard
    (column ``betweenness``) and the return is {path, rows, column}.

    Sampled sources approximate full betweenness at 100-TB scale
    (Brandes & Pich 2007); pass every vertex for the exact value.
    Returns a length-n float64 array of summed dependencies (or the
    result_out descriptor).
    """
    P, sizes = g.P, g.sizes

    def back_gather(block, p, d, *shards):
        # edges (src, dst) with dist[dst] == d, dist[src] == d - 1:
        # contribution to src: sigma[src]/sigma[dst] * (1 + delta[dst])
        # grouped per src partition owner == this block's partition.
        # ``shards`` = P dist shards, P sigma shards, P delta shards.
        dist = shards[:P]
        sigma = shards[P:2 * P]
        delta = shards[2 * P:]
        keep, contrib = [], []
        for q, (dl,) in enumerate(_by_dest(block)):
            m = dist[q][dl] == d
            with np.errstate(divide="ignore", invalid="ignore"):
                contrib.append(np.where(
                    m, (1.0 + delta[q][dl]) / sigma[q][dl], 0.0))
            keep.append(m)
        keep, contrib = np.concatenate(keep), np.concatenate(contrib)
        out = np.zeros(sizes[p], dtype=np.float64)
        np.add.at(out, block["src_local"][keep], contrib[keep])
        return out

    def back_update(delta_q, dist_q, sig_q, upd_q, d):
        new = delta_q.copy()
        m = dist_q == d - 1
        new[m] += sig_q[m] * upd_q[m]
        return new

    def acc_update(acc_q, delta_q, dist_q):
        m = (dist_q > 0) & (dist_q < BIG)
        new = acc_q.copy()
        new[m] += delta_q[m]
        return new

    back_task = _tasks(back_gather)
    acc_refs = _map(np.zeros, sizes)
    for s in sources:
        dist_refs, sig_refs, maxd = _spath_shards(g, int(s))
        delta_refs = _map(np.zeros, sizes)
        for d in range(maxd, 0, -1):
            upd_refs = [back_task(g.blocks[p], p, d, *dist_refs,
                                  *sig_refs, *delta_refs)
                        for p in range(P)]
            delta_refs = _map(back_update, delta_refs, dist_refs,
                              sig_refs, upd_refs, [d] * P)
        acc_refs = _map(acc_update, acc_refs, delta_refs, dist_refs)
    if result_out is not None:
        return _finish(g, acc_refs, None, result_out, "betweenness",
                       sources=sources)[0]
    return assemble(g, acc_refs)


MIS_KEY_STRIDE = 100_000_000


def mis_key(v, r):
    """Deterministic Luby priority for round ``r``, packed with the
    vid tiebreak into one int64 (== the SQL oracle's expression):
    ``walk-hash(v, r) * 1e8 + v`` — requires ``n < 1e8``; raise the
    stride (or split the comparison) past that."""
    M = WALK_MOD
    h = ((v % M) * 7919 + (r % M) * 104729) % M
    return h * MIS_KEY_STRIDE + v


def _key_refs(g, r):
    """Per-partition ``mis_key`` arrays of round ``r``."""
    return [ray.put(mis_key(np.arange(p, g.n, g.P, dtype=np.int64), r))
            for p in range(g.P)]


def _not_loop(block, p):
    """Per edge of partition ``p``'s block: False on a self-loop (a
    vertex is not its own neighbour)."""
    return (block["dst_part"] != p) | (block["dst_local"]
                                       != block["src_local"])


def _nbr_min_gather(sizes, candidate):
    """Gather of each vertex's minimum key over candidate neighbours:
    ``candidate(state)`` marks the sources still in the running;
    gather args ``(keys, p)``."""
    def gather(block, state, keys, p):
        src = block["src_local"]
        send = candidate(state)[src] & _not_loop(block, p)
        return _scatter(block, np.where(send, keys[src], BIG), sizes,
                        np.minimum, BIG, np.int64)
    return gather


def luby_mis(g: DistGraph, max_rounds=64, result_out=None):
    """Maximal independent set via deterministic Luby rounds: a
    vertex joins the MIS when its priority key is strictly smaller
    than every ACTIVE neighbour's; its neighbours then deactivate.
    Two BSP half-steps per round (neighbour-min of keys, then
    exclusion broadcast), destination-aggregated messages, driver
    sums only change counts. Blocks must hold both directions.

    Returns (state, rounds): state per vertex — 1 = in MIS,
    2 = excluded, 0 = never active (no edges).
    """
    sizes = g.sizes

    def join_mis(state, keys, *incoming):
        new = state.copy()
        cand = (state == 0) & (keys < _fold(incoming, np.minimum))
        new[cand] = 1
        return new, int(cand.sum())

    def excl_gather(block, state, prev_state, p):
        src = block["src_local"]
        joined = (state[src] == 1) & (prev_state[src] == 0)
        return _scatter(block, joined & _not_loop(block, p), sizes,
                        np.logical_or, False, bool)

    def exclude(state, *incoming):
        hit = _fold(incoming, np.logical_or)
        new = state.copy()
        new[(state == 0) & hit] = 2
        return new, int((state == 0).sum() - ((state == 0) & hit).sum())

    # active = vertices with at least one edge
    act_refs, _ = g.active_masks()
    state_refs = []
    for p in range(g.P):
        act = ray.get(act_refs[p])
        st = np.where(act, 0, 3).astype(np.int64)  # 3 = inactive/no-edge
        state_refs.append(ray.put(st))

    nbr_min = _nbr_min_gather(sizes, lambda state: state == 0)
    parts = list(range(g.P))
    rounds = 0
    for r in range(max_rounds):
        key_refs = _key_refs(g, r)
        prev_refs = state_refs
        state_refs, _ = _exchange(g, nbr_min, join_mis, state_refs,
                                  (key_refs, parts), (key_refs,))
        state_refs, remaining = _exchange(g, excl_gather, exclude,
                                          state_refs, (prev_refs, parts))
        rounds = r + 1
        if remaining == 0:
            break

    def norm_state(s):
        out = s.copy()
        out[out == 3] = 0
        return out

    return _finish(g, _map(norm_state, state_refs), rounds, result_out,
                   "state", max_rounds=max_rounds)


def mis_coloring(g: DistGraph, max_colors=256, result_out=None):
    """Distributed greedy graph coloring by iterated Luby layers:
    colour c = maximal independent set of the still-uncoloured
    subgraph. Deterministic (inherits ``mis_key``), parallelism-
    invariant, and every colour class is independent by construction;
    the colour count is within the usual MIS-layering bound (no
    optimality claim). Blocks must hold both directions.

    Returns (colors, n_colors): colour per vertex (-1 = no edges).
    """
    P, sizes = g.P, g.sizes

    def join(avail, keys, *incoming):
        cand = avail & (keys < _fold(incoming, np.minimum))
        return cand, int(cand.sum())

    def excl_gather(block, cand, p):
        send = cand[block["src_local"]] & _not_loop(block, p)
        return _scatter(block, send, sizes, np.logical_or, False, bool)

    def apply_round(cand, colors, avail, color, *incoming):
        nc = colors.copy()
        nc[cand] = color
        # excluded this MIS round
        na = avail & ~cand & ~_fold(incoming, np.logical_or)
        return nc, na, int(na.sum())

    def still_uncolored(colors, rem):
        na = rem & (colors < 0)
        return na, int(na.sum())

    act_refs, _ = g.active_masks()
    color_refs, avail_refs, uncolored = [], [], 0
    for p in range(P):
        act = ray.get(act_refs[p])
        color_refs.append(ray.put(np.full(sizes[p], -1, dtype=np.int64)))
        avail_refs.append(ray.put(act.copy()))
        uncolored += int(act.sum())
    # 'remaining to colour' per colour layer: vertices not yet
    # coloured; within a layer, Luby rounds shrink 'avail'
    nbr_min = _nbr_min_gather(sizes, lambda avail: avail)
    parts = list(range(P))
    color = 0
    remaining_refs = avail_refs
    while uncolored > 0 and color < max_colors:
        # one full MIS over the uncoloured subgraph, Luby round r
        avail_refs = _copy_shards(remaining_refs)
        r = 0
        left = None
        while left != 0:
            key_refs = _key_refs(g, color * 1000 + r)
            cand_refs, _ = _exchange(g, nbr_min, join, avail_refs,
                                     (key_refs, parts), (key_refs,))
            color_refs, avail_refs, left = _exchange(
                g, excl_gather, apply_round, cand_refs, (parts,),
                reduce_args=(color_refs, avail_refs, [color] * P),
                num_returns=3)
            r += 1
        # uncoloured = previous uncoloured minus this colour class
        remaining_refs, counts = _map(still_uncolored, color_refs,
                                      remaining_refs, num_returns=2)
        uncolored = sum(ray.get(counts))
        color += 1
    return _finish(g, color_refs, color, result_out, "color",
                   max_colors=max_colors)


# ----------------------------------------------------------------------
# Greedy maximal matching (locally-dominant edges)
# ----------------------------------------------------------------------
MATCH_KEY_STRIDE = 4_000_000_000_000
MATCH_VID_BOUND = 2_000_000


def match_key(a, b):
    """Deterministic symmetric edge key, unique per unordered pair,
    packed into one int64 (mirrored verbatim by the SQL oracle):
    ``hash(min,max) * 4e12 + min * 2e6 + max``. Uniqueness (required
    for the dominance test — a key tie at a shared endpoint could
    confirm the wrong partner) needs ``n < 2e6``; past that, split
    the comparison into a (hash, min, max) lexicographic tuple
    carried as two message arrays."""
    mn = np.minimum(a, b)
    mx = np.maximum(a, b)
    M = WALK_MOD
    h = ((mn % M) * 7919 + (mx % M) * 104729) % M
    return h * MATCH_KEY_STRIDE + mn * MATCH_VID_BOUND + mx


def maximal_matching(g: DistGraph, max_rounds=256, result_out=None):
    """Greedy maximal matching via locally-dominant edges: per round,
    every active vertex points at its minimum-key active incident
    edge; an edge whose key is the minimum at BOTH endpoints is
    matched and its endpoints deactivate. Keys are fixed hash values,
    so the result is exactly the sequential greedy matching in
    ascending key order (greedy matching is confluent), which the
    serial test oracle and the round-unrolled SQL twin replicate.
    The global minimum active edge is always dominant, so every round
    makes progress; hashed keys give O(log n) expected rounds.

    Blocks must hold both directions, so a vertex's full incidence
    list is resident in its own partition's block: the propose phase
    is partition-local, and only per-destination candidate minima
    (the dominance confirmations) shuffle.

    Returns (partner, rounds): ``partner[v]`` = matched neighbour vid,
    -1 when unmatched. ``result_out=<dir>``: per-shard ``(vid,
    partner)`` parquet, driver sees ``{path, rows, column}``.
    """
    P, n, sizes = g.P, g.n, g.sizes
    if n >= MATCH_VID_BOUND:
        raise ValueError(
            f"packed match_key needs n < {MATCH_VID_BOUND}; split the "
            "key comparison into (hash, min, max) message tuples")

    def propose(p, block, state_p, *dst_states):
        """Partition-local argmin edge per resident vertex + candidate
        minima shipped to each destination partition."""
        src = block["src_local"]
        src_g = src * P + p
        dst_g = block["dst_local"] * P + block["dst_part"]
        dstate = np.concatenate([dst_states[q][dl] for q, (dl,)
                                 in enumerate(_by_dest(block))])
        ok = (state_p[src] == 0) & (dstate == 0) & (src_g != dst_g)
        ke = np.where(ok, match_key(src_g, dst_g), BIG)
        kmin = np.full(sizes[p], BIG, dtype=np.int64)
        np.minimum.at(kmin, src, ke)
        win = ok & (ke == kmin[src])
        partner = np.full(sizes[p], -1, dtype=np.int64)
        partner[src[win]] = dst_g[win]
        return [kmin, partner] + _scatter(_select(block, win), ke[win],
                                          sizes, np.minimum, BIG,
                                          np.int64)

    def confirm(state_q, partner_prev_q, kmin_q, partner_q, *cands):
        """v is matched iff its own minimum edge came back as a
        candidate (the proposer's minimum too — mutual by key
        uniqueness)."""
        matched = (state_q == 0) & (kmin_q < BIG) \
            & (_fold(cands, np.minimum) == kmin_q)
        ns = state_q.copy()
        ns[matched] = 1
        npart = partner_prev_q.copy()
        npart[matched] = partner_q[matched]
        return ns, npart, int(matched.sum())

    act_refs, _ = g.active_masks()
    state_refs, partner_refs = [], []
    for p in range(P):
        act = ray.get(act_refs[p])
        state_refs.append(ray.put(
            np.where(act, 0, 3).astype(np.int8)))
        partner_refs.append(ray.put(
            np.full(sizes[p], -1, dtype=np.int64)))

    propose_task = _tasks(propose, 2 + P)
    rounds = 0
    for r in range(max_rounds):
        msg = [propose_task(p, g.blocks[p], state_refs[p], *state_refs)
               for p in range(P)]
        state_refs, partner_refs, matched = _map(
            confirm, state_refs, partner_refs, [m[0] for m in msg],
            [m[1] for m in msg], *[m[2:] for m in msg], num_returns=3)
        rounds = r + 1
        if sum(ray.get(matched)) == 0:
            break
    return _finish(g, partner_refs, rounds, result_out, "partner",
                   max_rounds=max_rounds)


# ----------------------------------------------------------------------
# Batched multi-seed personalized PageRank: S PPR vectors per exchange
# ----------------------------------------------------------------------
def pagerank_batch(g: DistGraph, seed_sets, damping=0.85, tol=0.0,
                   max_iter=20, weighted=False, active=False,
                   result_out=None):
    """S personalized-PageRank vectors fused into ONE superstep
    schedule: vertex state is a (shard_size, S) float64 matrix and
    each gather/reduce exchange carries (dst_shard_size, S) blocks,
    so S seed sets cost one exchange per iteration instead of S runs
    — at cluster scale the fixed superstep latency dominates a
    single-seed run, making this the batch form for PPR similarity
    features / recommendation candidates (same semantics per column
    as ``pagerank(personalize=seed_sets[s])``: teleport AND dangling
    mass uniform over that column's seeds).

    ``tol``: stop when the summed per-column L1 delta drops below it
    (0.0 = fixed ``max_iter``, the oracle form). ``result_out=<dir>``
    writes long-format ``(vid, seed, rank)`` parquet per shard (seed
    = the column index into ``seed_sets``) and returns
    ``({"path", "rows", "column"}, iters)``."""
    P, n, sizes = g.P, g.n, g.sizes
    S = len(seed_sets)
    if S == 0:
        raise ValueError("seed_sets must be non-empty")
    if active:
        act_refs, _n_eff = g.active_masks()
    else:
        act_refs = [None] * P
    pv_refs = []
    for p in range(P):
        m = np.zeros((sizes[p], S))
        for s, seeds in enumerate(seed_sets):
            seeds = np.asarray(seeds, dtype=np.int64)
            if len(seeds) == 0:
                raise ValueError(f"seed set {s} is empty")
            sp = seeds[seeds % P == p]
            m[sp // P, s] = 1.0 / len(seeds)
        pv_refs.append(ray.put(m))
    norm_refs = g.out_strength if weighted else g.out_deg

    def init_shard(act, pvec):
        r = pvec.copy()
        if act is not None:
            r[~act] = 0.0
        return r

    def gather(block, rank, norm):
        src_contrib = np.zeros_like(rank)
        nz = norm > 0
        src_contrib[nz] = rank[nz] / norm[nz, None]
        per_edge = src_contrib[block["src_local"]]
        if weighted:
            per_edge = per_edge * block["weight"][:, None]
        return _scatter(block, per_edge, sizes, np.add, 0.0, np.float64)

    def dangling_of(rank, norm, act):
        m = norm <= 0 if act is None else (act & (norm <= 0))
        return rank[m].sum(axis=0)

    def reduce(old, act, pvec, *rest):
        # rest: the P per-partition dangling masses, then the messages
        dang = np.sum(rest[:P], axis=0)
        new = pvec * (1.0 - damping + damping * dang)[None, :]
        for arr in rest[P:]:
            new += damping * arr
        if act is not None:
            new[~act] = 0.0
        return new, float(np.abs(new - old).sum())

    def write_long(shard, p):
        vids = p + P * np.arange(len(shard), dtype=np.int64)
        _write_part(result_out, f"part-{p:05d}.parquet", {
            "vid": np.repeat(vids, S),
            "seed": np.tile(np.arange(S, dtype=np.int64), len(shard)),
            "rank": shard.ravel()})
        return shard.size

    rank_refs = _map(init_shard, act_refs, pv_refs)
    it = -1
    for it in range(max_iter):
        dang = _map(dangling_of, rank_refs, norm_refs, act_refs)
        rank_refs, delta = _exchange(
            g, gather, reduce, rank_refs, (norm_refs,),
            (act_refs, pv_refs, *([d] * P for d in dang)))
        if tol > 0 and delta < tol:
            break

    if result_out is not None:
        _claim_output(result_out, n, P, "rank", seeds=S,
                      seed_sets=[_identity_value(np.asarray(s_, np.int64))
                                 for s_ in seed_sets],
                      damping=damping, tol=tol, max_iter=max_iter,
                      weighted=weighted, active=active)
        rows = int(sum(ray.get(_map(write_long, rank_refs, range(P)))))
        return {"path": result_out, "rows": rows,
                "column": "rank"}, it + 1
    out = np.zeros((n, S))
    for p in range(P):
        out[p::P] = ray.get(rank_refs[p])
    return out, it + 1


# ----------------------------------------------------------------------
# Truncated expected hitting time to a target set (value iteration)
# ----------------------------------------------------------------------
def hitting_time(g: DistGraph, targets, iters=30, weighted=False,
                 result_out=None):
    """Expected steps of the (weighted) random walk to reach the
    target set, truncated at ``iters`` (value iteration from h=0:
    h_{t}(v) = 0 for targets, else 1 + sum_u P(v,u) h_{t-1}(u) with
    P(v,u) = w(v,u)/strength(v) — after K sweeps h equals the
    expectation of min(hitting time, K)'s Bellman truncation, the
    fixed-iteration form the SQL oracle replays). Messages push
    w*h(src) along src->dst edges and divide by strength at the
    destination, so the symmetric-graph gather is the same exchange
    shape as PageRank. ``result_out=`` shares ``_finish``."""
    P, sizes = g.P, g.sizes
    tgt_refs = _seed_shards(sizes, P, targets, True, False, bool)
    norm_refs = g.out_strength if weighted else g.out_deg

    def reduce(_, norm, tgt, *incoming):
        acc = _fold(incoming)
        new = np.zeros(len(norm))
        nz = norm > 0
        new[nz] = 1.0 + acc[nz] / norm[nz]
        new[~nz] = 0.0   # isolated vertices never move: undefined, 0
        new[tgt] = 0.0
        return new

    gather = _linear_gather(sizes, weighted)
    h_refs = [ray.put(np.zeros(s)) for s in sizes]
    for _ in range(iters):
        h_refs = _exchange(g, gather, reduce, h_refs,
                           reduce_args=(norm_refs, tgt_refs),
                           num_returns=1)
    return _finish(g, h_refs, iters, result_out, "hitting_time",
                   targets=targets, iters=iters, weighted=weighted)


# ----------------------------------------------------------------------
# HyperANF: neighbourhood function via per-vertex HLL sketches
# ----------------------------------------------------------------------
def _hll_init(mask, p, P):
    """One 64-register HLL sketch per vertex of partition p, holding
    the vertex itself (active vertices only)."""
    from ..stages.sketch import HLL_M, HLL_REM_BITS, HLL_RHO_MAX, hash32
    loc = np.flatnonzero(mask)
    reg = np.zeros((len(mask), HLL_M), dtype=np.uint8)
    if len(loc):
        vids = p + P * loc.astype(np.int64)
        h = hash32(vids)
        bucket = (h >> HLL_REM_BITS).astype(np.int64)
        rem = h & ((1 << HLL_REM_BITS) - 1)
        bl = np.zeros(len(rem), dtype=np.int64)
        x = rem.copy()
        while (x > 0).any():
            nz = x > 0
            bl[nz] += 1
            x = x >> 1
        reg[loc, bucket] = (HLL_RHO_MAX - bl).astype(np.uint8)
    return reg


def _hll_est_q(reg):
    """Per-vertex ball estimates, 1e-6 fixed point (empty sketch = 0)."""
    from ..stages.sketch import HLL_RHO_MAX, hll_estimate_from_sums
    pres = reg > 0
    npres = pres.sum(axis=1).astype(np.int64)
    vals = np.where(pres,
                    np.int64(1) << (HLL_RHO_MAX - reg.astype(np.int64)),
                    np.int64(0))
    est = hll_estimate_from_sums(vals.sum(axis=1), npres)
    est[npres == 0] = 0.0      # empty sketch = inactive vertex
    return np.floor(est * 1e6 + 0.5).astype(np.int64)


def _hll_gather(sizes):
    def gather(block, reg):
        return _scatter(block, reg[block["src_local"]], sizes, np.maximum,
                        0, np.uint8)
    return gather


def hyperanf(g: DistGraph, rounds=8, result_out=None,
             checkpoint=None):
    """HyperANF (Boldi, Rosa & Vigna, WWW 2011): the neighbourhood
    function NF(t) = sum_v |ball(v, t)| estimated with one 64-register
    HyperLogLog sketch per vertex, max-merged along edges each
    superstep — THE scalable effective-diameter algorithm for web
    graphs (exact multi-BFS ships O(n) per seed; this ships 64
    bytes/vertex total and covers EVERY vertex).

    Same superstep shape as connected components (CC is this kernel
    with a min over one int64): per-block destination-partition
    pre-aggregation, worker-to-worker message refs, elementwise max
    combine — idempotent and order-free, so the result is
    deterministic at any P. Registers/estimator are the gate-proven
    ``stages/sketch.py`` HLL (md5 hash32, exact-integer inner sums,
    the bit-identical-in-SQL estimator); per-vertex estimates are
    quantised to 1e-6 fixed point BEFORE summing so NF itself is an
    exact integer sum — partitioning-independent.

    Returns ``(nf_q, rounds_run)`` — ``nf_q[t]`` = the integer
    1e-6-fixed-point NF estimate over active vertices at hop t,
    t = 0..rounds (early exit at the fixed point, where the last two
    entries are equal). Inactive (edgeless) vertices carry empty
    sketches and contribute 0. With ``result_out=<dir>`` the FINAL
    per-vertex ball estimates also write per shard (column
    ``ball_est``, the o(n)-driver seam) and the return becomes
    ``({path, rows, column}, nf_q, rounds_run)``.
    ``checkpoint=<root>`` saves the register shards + the NF prefix
    per round through ``CheckpointManager`` (the standard kernel
    resume contract).
    """
    P = g.P
    merge = _changes(g, _hll_gather(g.sizes), _combine(np.maximum), "push")

    def nf_of(reg_refs):
        return int(sum(ray.get(_map(lambda r: int(_hll_est_q(r).sum()),
                                    reg_refs))))

    def step(reg_refs, metrics):
        nf = [int(v) for v in metrics.get("nf") or [nf_of(reg_refs)]]
        reg_refs, m = merge(reg_refs, metrics)
        return reg_refs, {**m, "nf": nf + [nf_of(reg_refs)]}

    reg_refs, t, metrics = _fixed_point(
        g, "hyperanf", _map(_hll_init, g.active_masks()[0], range(P),
                            [P] * P),
        step, _settled, rounds, checkpoint, None, None)
    nf_q = np.asarray(metrics.get("nf") or [nf_of(reg_refs)],
                      dtype=np.int64)
    if result_out is None:
        return nf_q, t
    ball_refs = _map(lambda r: _hll_est_q(r) / 1e6, reg_refs)
    return (_finish(g, ball_refs, None, result_out, "ball_est",
                    rounds=rounds)[0], nf_q, t)


def hyperball_harmonic(g: DistGraph, rounds=8, result_out=None,
                       weight="harmonic"):
    """HyperBall geometric-centrality approximation (Boldi & Vigna,
    "In-core computation of geometric centralities with HyperBall",
    ICDMW 2013) over the same per-vertex HLL sketches as
    ``hyperanf`` — per-vertex closeness-family centrality for EVERY
    vertex at 64 bytes/vertex, where the exact kernel
    (``harmonic_centrality``) ships one BFS per seed.

    ``weight="harmonic"``: ``harm(v) ~= sum_t (|ball(v,t)| -
    |ball(v,t-1)|)/t`` (harmonic centrality; float accumulator in
    fixed t order). ``weight="distance"``: ``sumdist_q(v) = sum_t
    t * (est_q(v,t) - est_q(v,t-1))`` — the total-distance numerator
    of closeness / average distance / Lin's index as an EXACT
    1e-6-fixed-point INTEGER (order-free => SQL-twinnable); the
    caller divides by its reachable-count estimate.

    Same gather/reduce as ``hyperanf``; additionally each shard keeps
    (prev_est_q, acc) and folds ``acc += ((new_q - prev_q)/1e6)/t``
    (or ``* t``) after every round — est_q are the 1e-6-quantised
    integer estimates, so the accumulator is a fixed-length sum of
    deterministic doubles in a fixed order: P-independent. Returns
    ``(acc, rounds_run)`` — dense float64 (or the ``result_out``
    descriptor, column ``harmonic_est`` / ``sumdist_est``)."""
    if weight not in ("harmonic", "distance"):
        raise ValueError(f"unknown weight mode {weight!r}")
    P = g.P
    harmonic = weight == "harmonic"
    gather, fold = _push(_hll_gather(g.sizes)), _combine(np.maximum)

    def init(mask, p):
        reg = _hll_init(mask, p, P)
        # int64 zeros: harmonic's first float add promotes to
        # float64; distance mode stays exact-integer throughout
        return reg, _hll_est_q(reg), np.zeros(len(mask), dtype=np.int64)

    def reduce(old, prev_q, acc, t, *incoming):
        new, changed, count = fold(old, *incoming)
        new_q = _hll_est_q(new)
        if harmonic:
            # float accumulator, fixed t-order (matches the serial
            # replica term by term)
            acc = acc + ((new_q - prev_q) / 1e6) / t
        else:
            # EXACT integer accumulator: sum of Δq * t is
            # order-free, so an SQL twin can sum it as integers
            acc = acc + (new_q - prev_q) * t
        return new, new_q, acc, changed, count

    reg_refs, prev_refs, acc_refs = _map(init, g.active_masks()[0],
                                         range(P), num_returns=3)
    masks = [None] * P      # first round: every edge (``_changes``)
    t = 0
    for t in range(1, rounds + 1):
        reg_refs, prev_refs, acc_refs, masks, changed = _exchange(
            g, gather, reduce, reg_refs, (masks,),
            (prev_refs, acc_refs, [t] * P), num_returns=5)
        if changed == 0:
            break
    col = "harmonic_est" if harmonic else "sumdist_est"
    return _finish(g, acc_refs, t, result_out, col, rounds=rounds)
