"""The bucketed task exchange: the one primitive under every
partitioned plan of the package (Pregelix's partitioned dataflow,
written as plain Ray tasks).

Contract. An exchange is K partitions wide. Rows are cut by a key into
K parts; partition k then runs one task over part k of every input,
and the caller gets back object refs:

1. one cut task per input block returns K parts, part k holding the
   block's rows whose key maps to k (``_split_by`` on a bucket array,
   ``_cut`` on a string column through ``_bucket_of``), launched by
   ``_tasks(fn, K, split=True)`` so the caller holds a list of K refs
   per block at any K >= 1;
2. one partition task per k takes part k of every block
   (``launch(*[parts[k] for parts in blocks])``) and returns its
   result, or K parts again for the next round of the exchange.

Parts flow worker to worker; the driver holds refs and whatever small
partials the caller pulls. Every task is a stateless task of one of
two module-level remote functions (``_run``, ``_run_split``) that take
the work function as an argument, pickled once per launch. No Ray Data
shuffle, join or groupby is involved, so a task waiting for its inputs
holds no CPU: a width K above the session's CPU count only queues
tasks. ``_width`` sizes K from the row count so one task's share stays
bounded. Results are the same at every K when the partition task's
output depends only on the rows of one key, which is what cutting by
key gives it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray import cloudpickle

# target rows per partition task: ``_width`` raises K so that one
# task's share stays near this size whatever the input size
_TASK_ROWS = 1 << 17


@ray.remote
def _run(fn, *args):
    """Every exchange task: ``fn`` (pickled by ``_tasks``) applied to
    ``args`` on a worker."""
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


def _split_by(bucket, K, *cols):
    """``cols`` cut into K parts by ``bucket`` (stable): a list of K
    tuples, part k holding the rows with ``bucket == k``."""
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], np.arange(K + 1))
    cols = [c[order] for c in cols]
    return [tuple(c[bounds[k]:bounds[k + 1]] for c in cols)
            for k in range(K)]


def _width(num_partitions, n_rows, rows_per_task=_TASK_ROWS):
    """Exchange width: ``num_partitions``, raised to
    ceil(n_rows / rows_per_task) for an input too large for it."""
    return max(1, int(num_partitions), -(-int(n_rows) // rows_per_task))


def _bucket_of(urls: pa.ChunkedArray, B: int) -> np.ndarray:
    """Deterministic url -> bucket via FNV-1a, vectorised over the
    Arrow string buffers: one numpy pass per byte position (urls are
    short), no per-row Python. Stable across processes (unlike
    Python's salted hash). Changing this hash re-maps every assigned
    vid of ``stages/graph_build.assign_ids`` — bump
    ``dist.checkpoint.ID_FORMAT`` in lockstep so old vid-keyed
    checkpoints are rejected on resume, not mis-applied."""
    arr = urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) \
        else urls
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    bufs = arr.buffers()
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    off = np.frombuffer(bufs[1], dtype=odt)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    lens = np.diff(off)
    h = np.full(n, 0xcbf29ce484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    starts = off[:-1]
    with np.errstate(over="ignore"):
        for p in range(int(lens.max(initial=0))):
            active = lens > p
            h[active] = ((h[active]
                          ^ data[starts[active] + p].astype(np.uint64))
                         * prime)
    return (h % np.uint64(B)).astype(np.int64)


def _cut(K, B, col, t):
    """Block ``t`` cut into K parts by ``_bucket_of(t[col], B) % K``.
    A zero-column empty block (Ray Data emits them for dataless
    shuffle partitions) cuts into K empty parts."""
    if col not in t.column_names:
        return [t] * K
    part = _bucket_of(t[col], B) % K
    return [t.take(idx)
            for (idx,) in _split_by(part, K, np.arange(t.num_rows))]


def _concat(parts, **types):
    """The rows of ``parts`` as one table, or an empty table of
    ``types`` (column -> Arrow type) when no part has a row."""
    parts = [t for t in parts if t.num_rows]
    if not parts:
        return pa.table({c: pa.array([], ty) for c, ty in types.items()})
    return pa.concat_tables(parts, promote_options="permissive")
