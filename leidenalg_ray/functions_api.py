"""Package-level entry points mirroring reference
``src/leidenalg/functions.py``: ``find_partition`` (``:21-93``),
``find_partition_multiplex`` (``:95-176``), ``find_partition_temporal``
(``:178-306``), ``slices_to_layers`` (``:366-528``) and
``time_slices_to_layers`` (``:337-364``).

The reference moves igraph objects with vertex attributes; this engine
is table-first: a slice is a ``Graph`` plus an array of external vertex
ids, and the slice→layer transform returns plain arrays (the
distributed tier runs the identical transform as Dataset ops — see
``leidenalg_ray.dist``).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .graph import Graph
from .optimiser import Optimiser


def find_partition(graph, partition_type, initial_membership=None,
                   weights=None, n_iterations=2, max_comm_size=0, seed=None,
                   **kwargs):
    """Detect communities using the Leiden algorithm
    (reference ``functions.py:21-93``)."""
    partition = partition_type(graph, initial_membership=initial_membership,
                               weights=weights, **kwargs)
    optimiser = Optimiser()
    optimiser.max_comm_size = max_comm_size
    if seed is not None:
        optimiser.set_rng_seed(seed)
    optimiser.optimise_partition(partition, n_iterations)
    return partition


def find_partition_dataset(edges_ds, n, quality="modularity",
                           resolution_parameter=1.0, P=8, seed=42,
                           n_iterations=2, max_comm_size=0,
                           initial_membership=None,
                           is_membership_fixed=None, min_comm_size=0,
                           community_constraint_enforcement=0.0,
                           **kwargs):
    """Ray-Data-first ``find_partition``: Leiden over an edge Dataset
    ``(src, dst[, weight])`` on the raw id space — the >node-memory
    entry point (reference ``functions.py:21-93`` semantics; the
    reference itself is in-RAM by design, ``__init__.py:3-5``).

    The Dataset spills to partitioned parquet and each shard actor
    loads only its own partition; the driver never materialises the
    edge list. Returns ``(membership, quality, info, active_vids)``
    where membership indexes the raw id space and ``active_vids`` is
    the actual (degree > 0) vertex set."""
    from .dist.leiden import DistLeiden

    dl = DistLeiden.from_dataset(
        edges_ds, n=n, quality=quality,
        resolution_parameter=resolution_parameter, P=P, seed=seed,
        max_comm_size=max_comm_size, min_comm_size=min_comm_size,
        community_constraint_enforcement=(
            community_constraint_enforcement), **kwargs)
    mem, q, info = dl.run(n_iterations=n_iterations,
                          initial_membership=initial_membership,
                          is_membership_fixed=is_membership_fixed)
    return mem, q, info, dl.active_vids()


def find_partition_multiplex(graphs, partition_type, layer_weights=None,
                             n_iterations=2, max_comm_size=0, seed=None,
                             **kwargs):
    """Multiplex community detection over K graphs on an identical vertex
    set; returns (membership, improvement)
    (reference ``functions.py:95-176``). When ``graphs`` are Ray
    Datasets the >node-memory distributed schedule runs instead (see
    ``find_partition_multiplex_dataset``)."""
    if graphs and not isinstance(graphs[0], Graph):
        raise TypeError(
            "find_partition_multiplex takes Graph layers; for edge "
            "Datasets use find_partition_multiplex_dataset")
    n_layers = len(graphs)
    partitions = [partition_type(g, **kwargs) for g in graphs]
    if layer_weights is None:
        layer_weights = [1.0] * n_layers
    optimiser = Optimiser()
    optimiser.max_comm_size = max_comm_size
    if seed is not None:
        optimiser.set_rng_seed(seed)
    improvement = optimiser.optimise_partition_multiplex(
        partitions, layer_weights, n_iterations)
    return list(partitions[0].membership), improvement


def find_partition_multiplex_dataset(layer_datasets, n,
                                     quality="modularity",
                                     resolution_parameter=1.0,
                                     layer_weights=None, P=8, seed=42,
                                     n_iterations=2, max_comm_size=0,
                                     node_sizes=None, **kwargs):
    """Distributed multiplex ``find_partition_multiplex``: K edge
    Datasets ``(src, dst[, weight])`` on a shared vertex id space
    [0, n) optimise ONE membership maximising
    Q = sum_k lambda_k Q_k (reference ``functions.py:95-176`` +
    ``Optimiser.py:357-461``), through the shard-actor supersteps —
    the >node-memory path the reference lacks.

    ``quality`` / ``resolution_parameter`` may be per-layer lists;
    ``node_sizes`` is (n,) or (K, n). Returns
    ``(membership, quality, info, active_vids)``."""
    from .dist.leiden import DistLeiden

    dl = DistLeiden.from_layer_datasets(
        layer_datasets, n=n, quality=quality,
        resolution_parameter=resolution_parameter,
        layer_weights=layer_weights, P=P, seed=seed,
        max_comm_size=max_comm_size, node_sizes=node_sizes, **kwargs)
    mem, q, info = dl.run(n_iterations=n_iterations)
    return mem, q, info, dl.active_vids()


def find_partition_temporal_dataset(slice_datasets, n_nodes,
                                    quality="cpm",
                                    resolution_parameter=1.0,
                                    interslice_weight=1.0, P=8,
                                    seed=42, n_iterations=2,
                                    max_comm_size=0,
                                    membership_out=None, **kwargs):
    """Distributed ``find_partition_temporal``: T edge Datasets (one
    per time slice, all on the shared node id space [0, n_nodes)) are
    laid out on the union vertex space ``vid = t*n_nodes + node``,
    path-coupled by an interslice CPM(gamma=0) layer with
    ``interslice_weight`` self-edges between consecutive slices, and
    optimised as one multiplex membership — the Dataset form of
    reference ``functions.py:178-306`` / ``time_slices_to_layers``
    (``functions.py:337-364``): slice layer t carries node size 1 on
    its own vertices and 0 elsewhere, the coupling layer all zeros
    (reference ``functions.py:517-526``).

    Returns ``(memberships, quality, info)`` with ``memberships`` a
    (T, n_nodes) array — row t is slice t's communities, labels shared
    across slices. ``membership_out=<dir>``: the shards write the
    union-space ``(vid, comm)`` labels as partitioned parquet instead
    (``slice = vid // n_nodes``, ``node = vid % n_nodes``) and
    ``memberships`` is None — the o(n·T)-driver output path.

    Scale note (documented assumption): the per-layer node-size
    matrix is (T+1, T*n_nodes) on the driver — structured (slice
    indicators), so at extreme T*n the dense form should be replaced
    by shard-side generation; for the expected regime (tens of
    snapshots of a web graph, run per epoch) it is dwarfed by the
    edge data."""
    import pyarrow as pa
    import ray.data as rd

    from .dist.leiden import DistLeiden

    T = len(slice_datasets)
    if T < 1:
        raise ValueError("need at least one slice")
    n_union = T * n_nodes

    def shift(t):
        off = t * n_nodes

        def fn(tb: pa.Table) -> pa.Table:
            src = tb["src"].to_numpy(zero_copy_only=False) \
                .astype(np.int64) + off
            dst = tb["dst"].to_numpy(zero_copy_only=False) \
                .astype(np.int64) + off
            w = (tb["weight"].to_numpy(zero_copy_only=False)
                 .astype(np.float64) if "weight" in tb.column_names
                 else np.ones(len(src)))
            return pa.table({
                "src": pa.array(src), "dst": pa.array(dst),
                "weight": pa.array(w),
                "layer": pa.array(np.full(len(src), t, np.int64)),
            })
        return fn

    union = None
    for t, ds in enumerate(slice_datasets):
        part = ds.map_batches(shift(t), batch_format="pyarrow",
                              zero_copy_batch=True)
        union = part if union is None else union.union(part)
    if T > 1:
        def couple(tb: pa.Table) -> pa.Table:
            ids = tb["id"].to_numpy(zero_copy_only=False)
            t_of = ids // n_nodes
            v_of = ids % n_nodes
            return pa.table({
                "src": pa.array(t_of * n_nodes + v_of),
                "dst": pa.array((t_of + 1) * n_nodes + v_of),
                "weight": pa.array(np.full(len(ids),
                                           float(interslice_weight))),
                "layer": pa.array(np.full(len(ids), T, np.int64)),
            })
        coupling = rd.range(n_nodes * (T - 1)).map_batches(
            couple, batch_format="pyarrow")
        union = union.union(coupling)

    L = T + 1 if T > 1 else T
    sizes = np.zeros((L, n_union))
    for t in range(T):
        sizes[t, t * n_nodes:(t + 1) * n_nodes] = 1.0
    qualities = [quality] * T + (["cpm"] if T > 1 else [])
    gammas = [float(resolution_parameter)] * T \
        + ([0.0] if T > 1 else [])
    dl = DistLeiden.from_dataset(
        union, n=n_union, quality=qualities,
        resolution_parameter=gammas, layer_weights=[1.0] * L,
        n_layers=L, P=P, seed=seed, max_comm_size=max_comm_size,
        node_sizes=sizes, **kwargs)
    mem, q, info = dl.run(n_iterations=n_iterations,
                          membership_out=membership_out)
    if membership_out is not None:
        return None, q, info
    return mem.reshape(T, n_nodes), q, info


class _ProfilePoint:
    """One resolution-profile probe result on the dataset tier: holds
    the final membership's label-stats so ``quality(res)`` and the
    bisect value evaluate driver-side without touching the graph again
    (reference ``VertexPartition.py:186-196`` quality-at-gamma and
    ``total_weight_in_all_comms`` as the default bisect function)."""

    def __init__(self, resolution_parameter, membership, stats,
                 stats_dl):
        self.resolution_parameter = float(resolution_parameter)
        self.membership = membership
        self._stats = stats
        self._dl = stats_dl

    def quality(self, res=None):
        return self._dl._quality_of(
            self._stats, gamma=(self.resolution_parameter
                                if res is None else res))

    def bisect_value(self):
        return float(self._stats["w_in"][0].sum())

    def n_communities(self):
        return int(len(np.unique(self.membership)))


def resolution_profile_dataset(edges_ds, n, quality="cpm",
                               resolution_range=(0.1, 1), P=8,
                               seed=42, min_diff_bisect_value=1,
                               min_diff_resolution=1e-3,
                               linear_bisection=False, n_iterations=2,
                               spill_dir=None, **kwargs):
    """Resolution profile over an edge Dataset through the DISTRIBUTED
    schedule — the reference's recursive bisection
    (``Optimiser.py:661-861``: geometric midpoints in log space,
    monotonicity repair, stepwise cleaning) with every probe a
    ``DistLeiden`` run. The edge Dataset spills to partitioned parquet
    ONCE; each probe's shard actors load from that spill, so the >node-
    memory profile never re-reads or re-shuffles the input. Returns
    ``_ProfilePoint``s sorted by resolution (``.membership``,
    ``.bisect_value()``, ``.n_communities()``, ``.quality(res)``).
    A spill directory this call creates is removed once the profile
    returns; a caller's ``spill_dir`` is left in place."""
    import shutil
    import tempfile
    from math import log, sqrt

    from .dist.leiden import DistLeiden

    spill = spill_dir or tempfile.mkdtemp(prefix="lray_profile_")
    try:
        # writes the spill; this instance also serves the first probe
        first = DistLeiden.from_dataset(
            edges_ds, n=n, quality=quality,
            resolution_parameter=float(resolution_range[0]), P=P,
            seed=seed, spill_dir=spill, **kwargs)
        # a pristine shard set that always holds the LEVEL-0 blocks: used
        # only to recompute final-membership stats (probe actors mutate
        # their blocks across levels)
        stats_dl = DistLeiden(n=n, quality=quality,
                              resolution_parameter=1.0, P=P, seed=seed,
                              _parquet_dir=spill, **kwargs)

        probes = {"next": first}

        def find_partition(res):
            dl = probes.pop("next", None)
            if dl is None or dl.gamma != float(res):
                # recycle the previous probe's shard pool (level-0 blocks
                # reload from the spill) — no P actor respawns per gamma
                prev = probes.pop("prev", None)
                dl = DistLeiden(n=n, quality=quality,
                                resolution_parameter=float(res), P=P,
                                seed=seed, _parquet_dir=spill,
                                _actors=(prev.actors if prev is not None
                                         else None), **kwargs)
            probes["prev"] = dl
            mem, q, info = dl.run(n_iterations=n_iterations)
            stats = stats_dl._stats_of(mem)
            return _ProfilePoint(res, mem, stats, stats_dl)

        # --- the reference bisection control flow (Optimiser.py:661-861),
        # shared verbatim with the in-memory tier's resolution_profile ---
        from collections import namedtuple
        BisectPartition = namedtuple("BisectPartition",
                                     ["partition", "bisect_value"])

        def ensure_monotonicity(bisect_values, new_res):
            # reference Optimiser.py:762-773; the second repair loop is a
            # no-op in the reference too (see optimiser.py note) — kept
            # identical for behavioural parity.
            for res, bp in list(bisect_values.items()):
                if (bisect_values[new_res].partition.quality(res)
                        > bp.partition.quality(res)):
                    bisect_values[res] = bisect_values[new_res]
            current_quality = \
                bisect_values[new_res].partition.quality(new_res)
            best_res = new_res
            for res, bp in bisect_values.items():
                if bp.partition.quality(new_res) > current_quality:
                    best_res = new_res
            bisect_values[new_res] = bisect_values[best_res]

        def clean_stepwise(bisect_values):
            # reference Optimiser.py:732-757
            for res, bp in list(bisect_values.items()):
                best_bp = bp
                best_quality = bp.partition.quality(res)
                for res2, bp2 in bisect_values.items():
                    if bp2.partition.quality(res) > best_quality:
                        best_bp = bp2
                        best_quality = bp2.partition.quality(res)
                if best_bp is not bp:
                    bisect_values[res] = best_bp
            blist = sorted(((r, bp.bisect_value)
                            for r, bp in bisect_values.items()))
            for (r1, v1), (r2, v2) in zip(blist, blist[1:]):
                if v1 == v2 and r2 in bisect_values:
                    del bisect_values[r2]
            for res, bp in bisect_values.items():
                bp.partition.resolution_parameter = res

        bisect_values = {}
        stack = [tuple(resolution_range)]
        for res in resolution_range:
            part = find_partition(res)
            bisect_values[res] = BisectPartition(part, part.bisect_value())
        while stack:
            lo, hi = stack.pop()
            diff_bisect = abs(bisect_values[lo].bisect_value
                              - bisect_values[hi].bisect_value)
            if lo > 0 and hi > 0 and not linear_bisection:
                diff_res = log(hi / lo)
            else:
                diff_res = abs(hi - lo)
            if diff_bisect > min_diff_bisect_value and \
                    diff_res > min_diff_resolution:
                if lo > 0 and hi > 0 and not linear_bisection:
                    new_res = sqrt(hi * lo)
                else:
                    new_res = (lo + hi) / 2.0
                stack.append((lo, new_res))
                stack.append((new_res, hi))
                if new_res not in bisect_values:
                    part = find_partition(new_res)
                    bisect_values[new_res] = BisectPartition(
                        part, part.bisect_value())
                    ensure_monotonicity(bisect_values, new_res)
        clean_stepwise(bisect_values)
        return sorted((bp.partition for bp in bisect_values.values()),
                      key=lambda p: p.resolution_parameter)
    finally:
        if spill_dir is None:
            shutil.rmtree(spill, ignore_errors=True)


def slices_to_layers(slice_graphs, slice_ids=None, coupling_edges=None,
                     coupling_weight=1.0):
    """Convert slices on arbitrary vertex sets plus a coupling structure
    into layers over the disjoint-union vertex set keyed by
    ``(slice, id)`` (reference ``functions.py:366-528``).

    Parameters
    ----------
    slice_graphs : list of Graph
    slice_ids : list of 1-d arrays — external vertex id per slice vertex
        (default: ``0..n_k-1``). Ids must be unique within a slice
        (reference ``functions.py:492-503``).
    coupling_edges : list of (slice_i, slice_j, weight) — interslice
        couplings (default: none). Vertices with the same external id in
        the two slices are coupled (reference ``functions.py:504-515``).

    Returns
    -------
    (layers, interslice_layer, slice_of, id_of)
        ``layers[k]``: Graph over the union vertex set holding slice k's
        edges; ``node_size`` 1 on slice-k vertices, 0 elsewhere
        (reference ``functions.py:517-526``). ``interslice_layer``:
        coupling edges, all node sizes 0. ``slice_of``/``id_of``: arrays
        mapping union vid -> (slice index, external id).
    """
    T = len(slice_graphs)
    if slice_ids is None:
        slice_ids = [np.arange(g.n) for g in slice_graphs]
    offsets = np.zeros(T + 1, dtype=np.int64)
    for k, g in enumerate(slice_graphs):
        ids = np.asarray(slice_ids[k])
        if len(ids) != g.n:
            raise ValueError(f"slice {k}: ids length != vertex count")
        dup = [i for i, c in Counter(ids.tolist()).items() if c > 1]
        if dup:
            raise ValueError(
                f"The vertex id attribute is not unique for slice {k}: "
                f"duplicates {dup[:5]} "
                "(reference functions.py:492-503)")
        offsets[k + 1] = offsets[k] + g.n
    n_union = int(offsets[T])
    slice_of = np.concatenate([np.full(g.n, k, dtype=np.int64)
                               for k, g in enumerate(slice_graphs)]) \
        if T else np.empty(0, np.int64)
    id_of = np.concatenate([np.asarray(slice_ids[k])
                            for k in range(T)]) if T else np.empty(0)

    directed = any(g.directed for g in slice_graphs)
    layers = []
    for k, g in enumerate(slice_graphs):
        node_size = np.zeros(n_union)
        node_size[offsets[k]:offsets[k + 1]] = 1.0
        layers.append(Graph(n_union, src=g.src + offsets[k],
                            dst=g.dst + offsets[k], weights=g.weight.copy(),
                            node_sizes=node_size, directed=directed))

    isrc, idst, iw = [], [], []
    for (a, b, w) in (coupling_edges or []):
        ids_a = np.asarray(slice_ids[a])
        ids_b = np.asarray(slice_ids[b])
        # intersect on sorted external ids (reference functions.py:504-515)
        common, ia, ib = np.intersect1d(ids_a, ids_b, return_indices=True)
        isrc.append(ia + offsets[a])
        idst.append(ib + offsets[b])
        iw.append(np.full(len(common), float(w)))
    interslice = Graph(
        n_union,
        src=np.concatenate(isrc) if isrc else np.empty(0, np.int64),
        dst=np.concatenate(idst) if idst else np.empty(0, np.int64),
        weights=np.concatenate(iw) if iw else None,
        node_sizes=np.zeros(n_union),
        directed=directed)
    return layers, interslice, slice_of, id_of


def time_slices_to_layers(graphs, interslice_weight=1, slice_ids=None):
    """Path-coupled slices 1--2--...--T with uniform interslice weight
    (reference ``functions.py:337-364``)."""
    coupling = [(k, k + 1, interslice_weight) for k in range(len(graphs) - 1)]
    return slices_to_layers(graphs, slice_ids, coupling)


def find_partition_temporal(graphs, partition_type, interslice_weight=1,
                            slice_ids=None, n_iterations=2, max_comm_size=0,
                            seed=None, **kwargs):
    """Temporal community detection across time slices; returns
    (memberships per slice, improvement)
    (reference ``functions.py:178-306``)."""
    from .partition import CPMVertexPartition

    layers, interslice, slice_of, id_of = time_slices_to_layers(
        graphs, interslice_weight, slice_ids)
    partitions = [partition_type(H, node_sizes=H.node_size,
                                 weights=H.weight, **kwargs)
                  for H in layers]
    partition_interslice = CPMVertexPartition(
        interslice, resolution_parameter=0.0,
        node_sizes=interslice.node_size, weights=interslice.weight)
    optimiser = Optimiser()
    optimiser.max_comm_size = max_comm_size
    if seed is not None:
        optimiser.set_rng_seed(seed)
    improvement = optimiser.optimise_partition_multiplex(
        partitions + [partition_interslice],
        layer_weights=[1.0] * (len(partitions) + 1),
        n_iterations=n_iterations)
    union_mem = np.asarray(partitions[0].membership)
    memberships = []
    for k, g in enumerate(graphs):
        memberships.append(union_mem[slice_of == k].tolist())
    return memberships, improvement
