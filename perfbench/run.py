"""Layer-by-layer benchmark of the engine.

    python3 perfbench/run.py --workload crawl-job --seed 1 --seconds 15 \
        --trace 0

Run from the repository root. One run is one fresh process with its
own Ray session. It makes the workload's inputs from ``--seed`` (timed
as set-up, several times, median reported), then runs whole rounds of
the workload's public calls for about ``--seconds`` seconds, and then
checks every round's outputs against computations made apart from the
engine. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, which also writes one span per timed call as JSONL
under ``.perfbench/traces/``). The line before it is a report with the
workload's own phase walls, sizes and the host-health probe.

Everything the run writes (inputs, spills, checkpoints, outputs) lives
under ``.perfbench/run-<pid>/`` and Ray's session directory under
``.ray/``; both are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Shape of the Ray session. A constant, not read from the host: on a
# one-core host one logical CPU lets an actor pool or a hash join take
# the only CPU while its upstream read waits for it.
LOGICAL_CPUS = 2
# Partition count of every Ray Data join and hash shuffle.
JOIN_PARTITIONS = 2
OBJECT_STORE_BYTES = 512 << 20
# Ray's sockets live at <temp>/session_<date>_<usec>_<pid>/sockets/
# plasma_store, 64 characters past its temp dir for a 7-digit pid, and
# a unix socket path holds at most 107.
RAY_TEMP_MAX = 43

END_TO_END = ("setup_s", "job_s", "driver_peak_rss_mb")
PER_LAYER = (
    "stages.extract.s", "stages.extract.link_rows",
    "stages.graph_build.s", "stages.graph_build.edges",
    "pipelines.tpch_graphs.co_edge_arrays_s",
    "dist.blocks.from_dataset_s", "dist.blocks.from_edges_s",
    "dist.blocks.edges",
    "dist.superstep.pagerank_s", "dist.superstep.pagerank_supersteps",
    "dist.superstep.cc_s", "dist.superstep.cc_supersteps",
    "dist.superstep.lp_s", "dist.superstep.lp_supersteps",
    "dist.superstep.s_per_superstep", "dist.superstep.result_rows",
    "dist.checkpoint.bytes", "dist.checkpoint.steps",
    "dist.leiden.construct_s", "dist.leiden.run_s",
    "dist.leiden.step_rounds_s", "dist.leiden.stats_sync_s",
    "dist.leiden.commit_s", "dist.leiden.level0_supersteps",
    "dist.leiden.s_per_superstep", "dist.leiden.refine_s",
    "dist.leiden.aggregate_s", "dist.leiden.tail_s",
    "dist.leiden.levels", "dist.leiden.communities",
    "optimiser.find_partition_s", "optimiser.quality",
    "dist.triangles.s", "dist.triangles.count",
)


def unit_of(metric):
    if metric.endswith("per_superstep"):
        return "s"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("quality"):
        return "Q"
    return "count"


def check_session_shape():
    """Refuse a session shape under which a Ray Data stage can stall."""
    if LOGICAL_CPUS < 2:
        raise SystemExit(f"LOGICAL_CPUS={LOGICAL_CPUS}: an actor pool or "
                         "hash join can take the only CPU; use >= 2")
    if not 1 <= JOIN_PARTITIONS <= LOGICAL_CPUS:
        raise SystemExit(f"JOIN_PARTITIONS={JOIN_PARTITIONS} must be in "
                         f"1..LOGICAL_CPUS={LOGICAL_CPUS}")


class Context:
    """What a workload needs from the run: its directory, seed, session
    shape, the recorder and a per-run memo for reference results."""

    def __init__(self, run_dir, seed, rec):
        self.run_dir = run_dir
        self.seed = seed
        self.rec = rec
        self.cpus = LOGICAL_CPUS
        self.join_partitions = JOIN_PARTITIONS
        self.inputs = None
        self._memo = {}

    @contextmanager
    def wall(self, walls, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            walls[name] = walls.get(name, 0.0) + time.perf_counter() - t0

    def memo(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]


def llc_bytes():
    """Size of the largest CPU cache, from sysfs (0 if unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for e in entries:
        try:
            with open(os.path.join(base, e, "size")) as f:
                s = f.read().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(s[-1:], 1)
        best = max(best, int(s.rstrip("KMG")) * mult)
    return best


def host_probe():
    """DRAM copy bandwidth over an array at least 4x the last-level
    cache: the first half is copied onto the second, three times, and
    the best pass is kept."""
    import numpy as np
    llc = llc_bytes()
    size = max(4 * llc, 256 << 20)
    a = np.ones(size // 8)
    half = len(a) // 2
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        a[half:2 * half] = a[:half]
        best = min(best, time.perf_counter() - t0)
    del a
    return {"llc_bytes": llc, "array_bytes": size,
            "copy_gib_s": (half * 8 / 2**30) / best}


def start_ray(run_dir):
    """Start the session; returns its session directory and, when Ray's
    temp dir could be placed in the checkout, that directory."""
    import logging

    import ray
    import ray.data as rd

    kw = {}
    ray_tmp = os.path.join(ROOT, ".ray")
    if len(ray_tmp) <= RAY_TEMP_MAX:
        kw["_temp_dir"] = ray_tmp
    ray.init(address="local", num_cpus=LOGICAL_CPUS,
             object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False,
             runtime_env={"env_vars": {"PYTHONPATH": ROOT,
                                       "TMPDIR": run_dir}}, **kw)
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.default_hash_shuffle_parallelism = JOIN_PARTITIONS
    ctx.max_hash_shuffle_aggregators = JOIN_PARTITIONS
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    @ray.remote
    def warm():
        import leidenalg_ray  # noqa: F401  (fails here if not importable)
        return os.getpid()

    ray.get([warm.remote() for _ in range(LOGICAL_CPUS)])
    session_dir = ray._private.worker._global_node.get_session_dir_path()
    return session_dir, (ray_tmp if kw else None)


def median_of(dicts):
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0) for d in dicts)
            for k in keys}


def run(args, workload):
    from perfbench.trace import Recorder

    wl = workload()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    state_dir = os.path.join(ROOT, ".perfbench")
    run_dir = os.path.join(state_dir, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    # every mkdtemp of the engine lands in the per-run directory
    os.environ["TMPDIR"] = run_dir
    tempfile.tempdir = run_dir
    rec = Recorder(args.workload, run_id, bool(args.trace))
    ctx = Context(run_dir, args.seed, rec)
    session_dir = ray_tmp = None
    import ray
    try:
        t0 = time.perf_counter()
        session_dir, ray_tmp = start_ray(run_dir)
        # after ray.init, which installs its own handler: a timeout's
        # SIGTERM still stops Ray and removes the run directory
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        session_s = time.perf_counter() - t0
        input_s, setup_layers = [], []
        for rep in range(wl.setup_reps):
            t0 = time.perf_counter()
            ctx.inputs = wl.make_inputs(ctx, rep)
            input_s.append(time.perf_counter() - t0)
            setup_layers.append(rec.new_round())
        setup_s = session_s + statistics.median(input_s)
        calls_before = rec.calls

        rounds, layers, outs = [], [], []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            walls, out = wl.run_round(ctx, ctx.inputs, len(rounds))
            walls["job_s"] = time.perf_counter() - t0
            rounds.append(walls)
            layers.append(rec.new_round())
            outs.append(out)
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(r["job_s"] for r in rounds)
            if elapsed + typical > args.seconds:
                break
        attempted = rec.calls - calls_before
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        probe = host_probe()
        t0 = time.perf_counter()
        ref = wl.reference(ctx, ctx.inputs)
        problems = []
        for out in outs:
            problems += wl.check(ctx, ref, out)
        check_s = time.perf_counter() - t0
    finally:
        ray.shutdown()
        for d in (run_dir, session_dir, ray_tmp):
            if d:
                shutil.rmtree(d, ignore_errors=True)

    phase = median_of(rounds)
    e2e = {"setup_s": setup_s, "job_s": phase["job_s"],
           "driver_peak_rss_mb": peak_mb}
    layer = {k: 0 for k in PER_LAYER}
    layer.update(median_of(setup_layers))
    layer.update(median_of(layers))
    steps = sum(layer[f"dist.superstep.{k}_supersteps"]
                for k in ("pagerank", "cc", "lp"))
    if steps:
        layer["dist.superstep.s_per_superstep"] = sum(
            layer[f"dist.superstep.{k}_s"]
            for k in ("pagerank", "cc", "lp")) / steps
    report = {
        "workload": args.workload, "seed": args.seed, "run_id": run_id,
        "rounds": len(rounds), "round_job_s": [r["job_s"] for r in rounds],
        "sizes": wl.sizes,
        "logical_cpus": LOGICAL_CPUS, "join_partitions": JOIN_PARTITIONS,
        "phases": {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(phase.items())},
        "setup": {"session_s": session_s, "inputs_s": input_s},
        "check_s": check_s, "problems": problems[:20],
        "host_probe": probe,
    }
    if args.trace:
        trace_dir = os.path.join(state_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{run_id}.jsonl")
        rec.write(path)
        report["trace"] = os.path.relpath(path, ROOT)
        report["spans"] = len(rec.spans)
        metrics = {k: layer[k] for k in PER_LAYER}
    else:
        metrics = {k: e2e[k] for k in END_TO_END}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": 0,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))


def main():
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    check_session_shape()
    try:
        import leidenalg_ray  # noqa: F401
    except ImportError as e:
        sys.exit(f"cannot import the engine from {ROOT}: {e}")
    run(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    main()
