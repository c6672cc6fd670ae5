"""Per-superstep checkpointing with per-partition lineage + metrics
(north-rule requirement; the reference has none — SURVEY.md §4.3.5).

Layout under ``<dir>/<algo>/``:

- ``step-<k>/shard-<p>.npy`` — vertex-state shard p after superstep k
- ``step-<k>/manifest.json`` — superstep number, partition count,
  per-partition row counts + content hashes, convergence metrics,
  written ATOMICALLY (tmp file + rename) so a torn write is never a
  "complete" checkpoint
- ``LATEST`` — pointer file to the newest complete step

Resume = read LATEST's manifest, load shards, continue from the next
superstep. Old steps are pruned (keep last 2).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np

# Version tag for the url -> vid assignment the checkpointed vertex
# state is keyed on (stages/graph_build._bucket_of + assign_ids).
# Changing the bucket hash or ranking order re-maps every vid, so any
# checkpoint written under the old mapping would silently apply labels
# to the wrong vertices on resume. Bump this when the mapping changes;
# resume() rejects manifests with a different tag.
# History: v1 = zlib.crc32 per-row (rounds 1-2); v2 = vectorised
# FNV-1a (round 3).
ID_FORMAT = "vids-fnv1a-v2"


class CheckpointManager:
    def __init__(self, root, algo, P, keep=2, every=1, n=None,
                 fmt=ID_FORMAT):
        self.dir = os.path.join(root, algo)
        self.P = int(P)
        self.keep = keep
        self.every = max(1, int(every))
        self.n = None if n is None else int(n)
        self.fmt = fmt
        os.makedirs(self.dir, exist_ok=True)

    def _step_dir(self, step):
        return os.path.join(self.dir, f"step-{step:06d}")

    def save(self, step, shards, metrics=None):
        if step % self.every:
            return
        d = self._step_dir(step)
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        lineage = []
        for p, shard in enumerate(shards):
            path = os.path.join(tmp, f"shard-{p:04d}.npy")
            np.save(path, shard)
            lineage.append({
                "part": p,
                "rows": int(len(shard)),
                "sha1": hashlib.sha1(np.ascontiguousarray(shard).tobytes())
                .hexdigest(),
            })
        manifest = {
            "step": int(step),
            "P": self.P,
            "n": self.n,
            "fmt": self.fmt,
            # integer ms: a fixed-width field keeps the manifest's
            # size the same from save to save
            "wall_time_ms": time.time_ns() // 1_000_000,
            "partitions": lineage,
            "metrics": metrics or {},
        }
        with open(os.path.join(tmp, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
        latest_tmp = os.path.join(self.dir, "LATEST.tmp")
        with open(latest_tmp, "w") as f:
            f.write(os.path.basename(d))
        os.replace(latest_tmp, os.path.join(self.dir, "LATEST"))
        self._prune(step)

    def _prune(self, newest):
        steps = sorted(s for s in os.listdir(self.dir)
                       if s.startswith("step-") and not s.endswith(".tmp"))
        for s in steps[:-self.keep]:
            shutil.rmtree(os.path.join(self.dir, s), ignore_errors=True)

    def resume(self):
        """(step, shards, metrics) of the latest complete checkpoint,
        or None."""
        latest = os.path.join(self.dir, "LATEST")
        if not os.path.exists(latest):
            return None
        with open(latest) as f:
            name = f.read().strip()
        d = os.path.join(self.dir, name)
        mpath = os.path.join(d, "manifest.json")
        if not os.path.exists(mpath):
            return None
        with open(mpath) as f:
            manifest = json.load(f)
        # a checkpoint from a DIFFERENT job shape (stale directory,
        # changed input, changed partition plan) must not resume —
        # ignore it instead of loading mismatched shards
        if manifest.get("P") != self.P or (
                self.n is not None and manifest.get("n") is not None
                and manifest["n"] != self.n) or \
                manifest.get("fmt", "vids-crc32-v1") != self.fmt:
            import logging
            logging.getLogger(__name__).warning(
                "ignoring checkpoint %s: shape/format mismatch "
                "(P=%s n=%s fmt=%s, expected P=%s n=%s fmt=%s)", d,
                manifest.get("P"), manifest.get("n"),
                manifest.get("fmt", "vids-crc32-v1"),
                self.P, self.n, self.fmt)
            return None
        shards = []
        for entry in manifest["partitions"]:
            arr = np.load(os.path.join(d, f"shard-{entry['part']:04d}.npy"))
            if len(arr) != entry["rows"]:
                raise IOError(f"checkpoint shard {entry['part']} corrupt")
            shards.append(arr)
        return manifest["step"], shards, manifest.get("metrics", {})
