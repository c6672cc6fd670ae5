"""The co-occurrence graph on the bucketed task exchange
(``pipelines/tpch_graphs.py``): the same graph at every exchange width,
equal to a DuckDB self-join, and no stall or Ray start where the Ray
Data join path had one."""

import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from leidenalg_ray.pipelines import tpch_graphs as tg
from perfbench.checks import co_graph_sql
from tests.test_catalogue_ops import SF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def lineitem_dir(tmp_path_factory):
    """A ``lineitem.parquet`` directory of two files with several row
    groups each. It holds single-line orders, an order listing one
    part three times (its equal-part pairs count for nothing), an
    order split over both files, and a null part key."""
    rng = np.random.default_rng(11)
    lines = rng.integers(1, 8, 400)
    okey = list(np.repeat(np.arange(400) * 3, lines))
    pkey = list(rng.integers(0, 60, len(okey)))
    # single-line orders; order 6000 lists part 109 three times and has
    # a row without a part; order 7000's two rows open and close the
    # table, so they land in different files
    okey = [7000] + okey + [5000, 5001, 5002, 6000, 6000, 6000, 6000,
                            6000, 7000]
    pkey = [108] + pkey + [101, 102, 103, 109, 109, 109, 104, None, 102]
    half = len(okey) // 2
    d = tmp_path_factory.mktemp("co") / "lineitem.parquet"
    d.mkdir()
    for i, sl in enumerate((slice(0, half), slice(half, None))):
        t = pa.table({"l_orderkey": pa.array(okey[sl], pa.int64()),
                      "l_partkey": pa.array(pkey[sl], pa.int64())})
        pq.write_table(t, d / f"part-{i}.parquet", row_group_size=250)
        assert pq.ParquetFile(d / f"part-{i}.parquet") \
            .metadata.num_row_groups >= 3
    return str(d.parent)


def test_co_graph_same_at_every_width_and_equal_to_duckdb(lineitem_dir):
    want = co_graph_sql(os.path.join(lineitem_dir, "lineitem.parquet",
                                     "*.parquet"))
    assert len(want[0]) > 0
    first = None
    for K in (1, 2, 3, 7):
        tg._CO_CACHE.pop(lineitem_dir, None)
        got = tg.co_edge_arrays(lineitem_dir, num_partitions=K)
        if first is None:
            first = got
        for x, y in zip(got, first):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
        df = tg.co_edges(lineitem_dir, num_partitions=K).to_pandas() \
            .sort_values(["a", "b"])
        assert list(df.columns) == ["a", "b", "weight"]
        for col, y in zip(("a", "b", "weight"), want):
            assert np.array_equal(df[col].to_numpy(), y)
    # parts above 100 are only in the hand-made orders: order 6000's
    # repeated part pairs only with part 104
    a, b, w = first
    assert not np.any(a == b)
    assert w[b > 100].tolist() == [1.0, 3.0]
    assert a[b > 100].tolist() == [102, 104]


def _run(code, timeout):
    """``code`` in a fresh interpreter at the repository root, with its
    own local Ray session when it starts one."""
    env = dict(os.environ, RAY_ADDRESS="local", PYTHONPATH=REPO)
    return subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_session_cpus_does_not_start_ray():
    r = _run("import os, ray\n"
             "from leidenalg_ray.util import join_partitions, session_cpus\n"
             "assert session_cpus() == (os.cpu_count() or 1)\n"
             "assert join_partitions(8) == min(8, session_cpus())\n"
             "print(ray.is_initialized())\n", timeout=120)
    assert r.returncode == 0, r.stderr[-3000:]
    assert r.stdout.strip() == "False"


def test_co_graph_returns_in_a_one_cpu_session():
    """At one logical CPU the Ray Data self-join never returned; the
    exchange is plain tasks, so both builds finish."""
    r = _run("import ray\n"
             "ray.init(num_cpus=1, include_dashboard=False,"
             " logging_level='ERROR')\n"
             "from leidenalg_ray.pipelines import tpch_graphs as tg\n"
             f"a, b, w = tg.co_edge_arrays({SF!r}, num_partitions=1)\n"
             f"n = tg.co_edges({SF!r}, num_partitions=1).count()\n"
             "print(len(a), n)\n"
             "ray.shutdown()\n", timeout=120)
    assert r.returncode == 0, r.stderr[-3000:]
    n_arrays, n_rows = map(int, r.stdout.split()[-2:])
    assert n_arrays == n_rows > 0
