"""Small shared helpers.

``round_half_away`` exists because every oracle-compared float column
must round IDENTICALLY on both sides (CLAUDE.md rule): DuckDB's
``round()`` is half-away-from-zero (C ``round`` on ``x * 10^d``), while
``np.round`` / ``pandas.Series.round`` are half-to-even.  A value
landing exactly on a .5 boundary at the target decimal would otherwise
hash-mismatch under the driver's value hash.
"""

from __future__ import annotations

import os

import numpy as np


def round_half_away(x, ndigits: int = 6) -> np.ndarray:
    """Round to ``ndigits`` decimals, ties away from zero — the same
    decision C/DuckDB ``round()`` makes on doubles."""
    a = np.asarray(x, dtype=np.float64)
    p = 10.0 ** ndigits
    return np.sign(a) * np.floor(np.abs(a) * p + 0.5) / p


def round6(x) -> np.ndarray:
    return round_half_away(x, 6)


def round2(x) -> np.ndarray:
    return round_half_away(x, 2)


def session_cpus() -> int:
    """Logical CPUs of the Ray session (at least 1; 1 when the cluster
    reports no CPU resource). Library code never starts Ray: when it
    is not running this is the host's CPU count, the size of the
    session the next Ray call starts by default."""
    import ray
    if not ray.is_initialized():
        return os.cpu_count() or 1
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def join_partitions(num_partitions):
    """``num_partitions`` capped at ``session_cpus()``: a Ray Data
    hash join runs one shuffle aggregator per partition, and more of
    them than CPUs can stall the join for minutes."""
    return max(1, min(int(num_partitions), session_cpus()))
