"""Each independent check accepts a correct output and rejects a
corrupted one. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import checks, run
from perfbench.trace import Recorder


def power_pagerank(src, dst, n, tol, damping=0.85):
    outdeg = np.bincount(src, minlength=n).astype(float)
    rank = np.full(n, 1.0 / n)
    while True:
        contrib = np.where(outdeg > 0, rank / np.maximum(outdeg, 1), 0.0)
        new = (1 - damping) / n + damping * (
            np.bincount(dst, weights=contrib[src], minlength=n)
            + rank[outdeg == 0].sum() / n)
        if np.abs(new - rank).sum() < tol:
            return new
        rank = new


@pytest.fixture
def small_graph():
    rng = np.random.default_rng(3)
    n = 60
    src = rng.integers(0, n, 300)
    dst = rng.integers(0, n, 300)
    return src, dst, n


def test_pagerank_accepts_fixed_point_and_rejects_corruption(small_graph):
    src, dst, n = small_graph
    rank = power_pagerank(src, dst, n, 1e-9)
    assert checks.check_pagerank(src, dst, n, rank, 1e-6) == []
    scaled = rank * 1.01
    assert any("sum" in p for p in
               checks.check_pagerank(src, dst, n, scaled, 1e-6))
    swapped = rank.copy()
    i, j = np.argmax(rank), np.argmin(rank)
    swapped[[i, j]] = swapped[[j, i]]
    assert any("residual" in p for p in
               checks.check_pagerank(src, dst, n, swapped, 1e-6))


def test_components_reject_split_wrong_label_and_merge():
    # two components {0,1,2} and {3,4}, plus isolated 5
    src = np.array([0, 1, 3])
    dst = np.array([1, 2, 4])
    n = 6
    good = np.array([0, 0, 0, 3, 3, 5])
    assert checks.check_components(src, dst, n, good) == []
    split = good.copy()
    split[2] = 2
    assert checks.check_components(src, dst, n, split)
    not_min = np.array([1, 1, 1, 3, 3, 5])
    assert any("smallest" in p for p in
               checks.check_components(src, dst, n, not_min))
    merged = np.array([0, 0, 0, 0, 0, 5])
    assert any("union-find" in p for p in
               checks.check_components(src, dst, n, merged))


def test_union_find_matches_known_components():
    roots = checks.union_find_roots(np.array([5, 4, 2]),
                                    np.array([4, 3, 0]), 7)
    assert roots.tolist() == [0, 1, 0, 3, 3, 3, 6]


def test_label_propagation_replay_and_rejection():
    # star: centre 0, leaves 1..3, messages in both directions
    src = np.array([0, 0, 0, 1, 2, 3])
    dst = np.array([1, 2, 3, 0, 0, 0])
    one = checks.replay_label_propagation(src, dst, 4, 1)
    # leaves take the centre's label; the centre ties 1/2/3 -> lowest
    assert one.tolist() == [1, 0, 0, 0]
    assert checks.check_label_propagation(one, one.copy()) == []
    bad = one.copy()
    bad[2] = 3
    assert checks.check_label_propagation(one, bad)


def test_label_propagation_weights_beat_ties():
    src = np.array([1, 2, 2])
    dst = np.array([0, 0, 0])
    assert checks.replay_label_propagation(src, dst, 3, 1)[0] == 2
    w = np.array([5.0, 1.0, 1.0])
    assert checks.replay_label_propagation(src, dst, 3, 1, w)[0] == 1


def test_triangle_recount_and_rejection():
    # K4 with a duplicate, a reversed copy and a loop: 4 triangles
    src = np.array([0, 0, 0, 1, 1, 2, 1, 3, 2])
    dst = np.array([1, 2, 3, 2, 3, 3, 0, 3, 0])
    want = checks.count_triangles(src, dst)
    assert want == 4
    assert checks.check_triangles(want, 4) == []
    assert checks.check_triangles(want, 5)


def test_co_graph_recount_and_rejection(tmp_path):
    path = str(tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({"l_orderkey": [0, 0, 0, 1, 1],
                             "l_partkey": [1, 2, 3, 2, 1]}), path)
    want = checks.co_graph_sql(path)
    assert list(zip(*want)) == [(1, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)]
    got = (np.array([2, 1, 1]), np.array([3, 3, 2]),
           np.array([1.0, 1.0, 2.0]))
    assert checks.check_co_graph(want, got) == []
    heavier = (got[0], got[1], np.array([1.0, 1.0, 3.0]))
    assert checks.check_co_graph(want, heavier)
    missing = tuple(x[:2] for x in got)
    assert checks.check_co_graph(want, missing)


@pytest.fixture
def two_triangles():
    src = np.array([0, 1, 2, 3, 4, 5, 2])
    dst = np.array([1, 2, 0, 4, 5, 3, 3])
    return src, dst, np.ones(7), 6


def test_leiden_accepts_correct_membership(two_triangles):
    src, dst, w, n = two_triangles
    mem = np.array([0, 0, 0, 1, 1, 1])
    q = checks.cpm_quality(src, dst, w, mem, 0.5)
    # 2 * (6 internal - 0.5 * (3 + 3) possible pairs)
    assert q == 6.0
    assert checks.check_leiden(src, dst, w, n, mem, q, 0.5) == []


def test_leiden_rejects_wrong_quality(two_triangles):
    src, dst, w, n = two_triangles
    mem = np.array([0, 0, 0, 1, 1, 1])
    assert any("Q" in p for p in
               checks.check_leiden(src, dst, w, n, mem, 6.5, 0.5))


def test_leiden_rejects_disconnected_community(two_triangles):
    src, dst, w, n = two_triangles
    mem = np.array([0, 0, 1, 1, 1, 0])   # {0,1,5}: 5 touches neither
    q = checks.cpm_quality(src, dst, w, mem, 0.5)
    assert any("connected" in p for p in
               checks.check_leiden(src, dst, w, n, mem, q, 0.5))


def test_leiden_rejects_sparse_or_unordered_labels(two_triangles):
    src, dst, w, n = two_triangles
    sparse = np.array([0, 0, 0, 2, 2, 2])
    q = checks.cpm_quality(src, dst, w, sparse, 0.5)
    assert any("dense" in p for p in
               checks.check_leiden(src, dst, w, n, sparse, q, 0.5))
    unordered = np.array([1, 1, 1, 1, 0, 0])
    # {4,5} and {0..3}: the smaller community holds label 0
    q = checks.cpm_quality(src, dst, w, unordered, 0.5)
    assert any("ordered" in p for p in
               checks.check_leiden(src, dst, w, n, unordered, q, 0.5))


def test_leiden_rejects_wrong_row_count(two_triangles):
    src, dst, w, n = two_triangles
    assert checks.check_leiden(src, dst, w, n, np.zeros(5, int), 0.0, 0.5)


def test_cpm_uses_loop_correction_when_the_graph_has_loops():
    src, dst = np.array([0, 0]), np.array([0, 1])
    mem = np.array([0, 0])
    # 2 * (2 internal - 0.5 * 2^2 / 2)
    assert checks.cpm_quality(src, dst, np.ones(2), mem, 0.5) == 2.0


def test_recorder_nests_spans_and_sums_counts():
    rec = Recorder("w", "r", traced=True)
    with rec.span("outer_s"):
        with rec.span("inner_s") as c:
            c["inner.rows"] = 3
        with rec.span("inner_s") as c:
            c["inner.rows"] = 4
    assert rec.calls == 3 and rec.totals["inner.rows"] == 7
    by_id = {s["id"]: s for s in rec.spans}
    assert [by_id[i]["parent"] for i in (1, 2)] == [0, 0]
    assert by_id[0]["parent"] is None
    assert rec.new_round()["outer_s"] >= rec.totals.get("outer_s", 0)


def test_session_shape_guard(monkeypatch):
    run.check_session_shape()
    monkeypatch.setattr(run, "LOGICAL_CPUS", 1)
    with pytest.raises(SystemExit):
        run.check_session_shape()
    monkeypatch.setattr(run, "LOGICAL_CPUS", 2)
    monkeypatch.setattr(run, "JOIN_PARTITIONS", 16)
    with pytest.raises(SystemExit):
        run.check_session_shape()
