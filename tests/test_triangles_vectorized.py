"""The triangle family on its one wedge path (``_forward_csr`` +
``_row_pairs`` in ``dist/triangles.py``): every kernel equal to a dense
numpy brute force at P = 1, 3 and 4, the edge cases of the wedge
enumeration, the chunking contract of ``_row_pairs``, and the spill
directory of the partitioned ``triangle_count``."""

import itertools
import os

import numpy as np
import pyarrow as pa
import pytest
import ray

from leidenalg_ray.dist import triangles as T
from leidenalg_ray.dist.truss import edge_supports

PARTITIONS = (1, 3, 4)


def _hub_graph():
    """Seeded random multigraph with self-loops, duplicate edges and a
    hub (vertex 0 joined to half the vertices)."""
    rng = np.random.default_rng(41)
    n = 70
    src = np.concatenate([rng.integers(0, n, 420), np.zeros(35, np.int64),
                          [5, 5, 9, 3]])
    dst = np.concatenate([rng.integers(0, n, 420),
                          rng.choice(np.arange(1, n), 35, replace=False),
                          [5, 9, 5, 3]])
    return src, dst, n


def _adjacency(src, dst, n):
    A = np.zeros((n, n), dtype=np.int64)
    A[src, dst] = 1
    A[dst, src] = 1
    np.fill_diagonal(A, 0)
    return A


def _brute(src, dst, n):
    """Dense ground truth: triangles and per-vertex counts from A^3,
    per-edge supports from A^2, K4s by extending each triangle."""
    A = _adjacency(src, dst, n)
    A2 = A @ A
    A3 = A2 @ A
    lo, hi = np.nonzero(np.triu(A))
    tri = np.argwhere(A[:, :, None] & A[None, :, :] & A[:, None, :])
    tri = tri[(tri[:, 0] < tri[:, 1]) & (tri[:, 1] < tri[:, 2])]
    common = A[tri[:, 0]] & A[tri[:, 1]] & A[tri[:, 2]]
    k4 = int((common * (np.arange(n) > tri[:, 2:3])).sum())
    return {"total": int(np.trace(A3)) // 6, "per_vertex": np.diag(A3) // 2,
            "lo": lo, "hi": hi, "supports": A2[lo, hi], "k4": k4,
            "triangles": tri}


def _census_brute(lo, hi, code, tri):
    """Linked-triangle classes and in-triangle wedge classes, by
    direct inspection of each triangle's three dyads."""
    dyad = {}
    for a, b, c in zip(lo.tolist(), hi.tolist(), code.tolist()):
        dyad[a, b] = c

    def arcs(x, y):
        """(x->y, y->x) present."""
        c = dyad[min(x, y), max(x, y)]
        fwd, rev = bool(c & 1), bool(c & 2)
        return (fwd, rev) if x < y else (rev, fwd)

    l3 = np.zeros(7, np.int64)
    wd = np.zeros(6, np.int64)
    wedge = {(0, 0, 2): 0, (0, 2, 0): 1, (0, 1, 1): 2, (1, 1, 0): 3,
             (1, 0, 1): 4, (2, 0, 0): 5}
    for t in tri.tolist():
        corner = {}
        for x in t:
            m = i = o = 0
            for y in t:
                if y == x:
                    continue
                out, inn = arcs(x, y)
                m += out and inn
                o += out and not inn
                i += inn and not out
            corner[x] = (m, i, o)
            wd[wedge[m, i, o]] += 1
        mm = sum(c[0] for c in corner.values()) // 2
        if mm == 3:
            cls = 6
        elif mm == 2:
            cls = 5
        elif mm == 1:
            _, i, o = next(c for c in corner.values() if c[0] == 0)
            cls = 2 if o == 2 else 3 if i == 2 else 4
        else:
            cyc = all(c == (0, 1, 1) for c in corner.values())
            cls = 1 if cyc else 0
        l3[cls] += 1
    return l3, wd


def _dyads(src, dst, n):
    """Unordered dyads (lo, hi) of a directed graph with the census
    code: 1 = lo->hi, 2 = hi->lo, 3 = mutual."""
    keep = src != dst
    s, d = src[keep], dst[keep]
    keys = np.unique(np.minimum(s, d) * n + np.maximum(s, d))
    arcs = set((s * n + d).tolist())
    lo, hi = keys // n, keys % n
    fw = np.isin(lo * n + hi, list(arcs))
    rv = np.isin(hi * n + lo, list(arcs))
    return lo, hi, np.where(fw & rv, 3, np.where(fw, 1, 2))


def _per_vertex_array(ds, n):
    """The ``(v, count())`` Dataset as a dense array, read through its
    Arrow blocks (Ray Data's ``to_pandas()`` drops the columns of a
    zero-row Dataset)."""
    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    full = np.zeros(n, dtype=np.int64)
    full[t["v"].to_numpy()] = t["count()"].to_numpy()
    return full


@pytest.fixture(scope="module")
def hub():
    src, dst, n = _hub_graph()
    return src, dst, n, _brute(src, dst, n)


@pytest.mark.parametrize("P", PARTITIONS)
def test_fast_kernels_match_bruteforce(hub, P):
    src, dst, n, want = hub
    assert want["total"] > 50 and want["k4"] > 0
    assert T.triangle_count_fast(src, dst, n, P=P) == want["total"]
    total, pv = T.triangle_count_fast(src, dst, n, P=P, per_vertex=True)
    assert total == want["total"]
    assert np.array_equal(pv, want["per_vertex"])
    assert T.k4_count_fast(src, dst, n, P=P) == (want["total"], want["k4"])
    sup = edge_supports(want["lo"], want["hi"], n, P=P)
    assert np.array_equal(sup, want["supports"])


@pytest.mark.parametrize("P", PARTITIONS)
def test_triad_census_matches_bruteforce(hub, P):
    src, dst, n, want = hub
    lo, hi, code = _dyads(src, dst, n)
    l3, wd = T.triad_triangle_census(lo, hi, code, n, P=P)
    assert l3.sum() == want["total"]
    exp_l3, exp_wd = _census_brute(lo, hi, code, want["triangles"])
    assert np.array_equal(l3, exp_l3)
    assert np.array_equal(wd, exp_wd)


@pytest.mark.parametrize("P", PARTITIONS)
def test_partitioned_count_matches_bruteforce(hub, P):
    src, dst, n, want = hub
    assert T.triangle_count_arrays(src, dst, n, num_partitions=P) \
        == want["total"]
    total, ds = T.triangle_count_arrays(src, dst, n, num_partitions=P,
                                        per_vertex=True)
    assert total == want["total"]
    assert np.array_equal(_per_vertex_array(ds, n), want["per_vertex"])


EDGE_CASES = {
    "empty": (np.empty(0, np.int64), np.empty(0, np.int64), 6),
    # a star: every wedge sits at the hub and none closes
    "star": (np.zeros(7, np.int64), np.arange(1, 8), 8),
    # one triangle written with self-loops and repeated edges
    "loops_and_duplicates": (np.array([0, 1, 2, 0, 1, 2, 1, 3, 3]),
                             np.array([1, 2, 0, 1, 0, 2, 1, 3, 0]), 4),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases(case):
    src, dst, n = EDGE_CASES[case]
    want = _brute(src, dst, n)
    for P in (1, 3):
        total, pv = T.triangle_count_fast(src, dst, n, P=P,
                                          per_vertex=True)
        assert total == want["total"]
        assert np.array_equal(pv, want["per_vertex"])
        assert T.k4_count_fast(src, dst, n, P=P) == (want["total"], 0)
        sup = edge_supports(want["lo"], want["hi"], n, P=P)
        assert np.array_equal(sup, want["supports"])
        lo, hi, code = _dyads(src, dst, n)
        l3, _ = T.triad_triangle_census(lo, hi, code, n, P=P)
        assert l3.sum() == want["total"]
    total, ds = T.triangle_count_arrays(src, dst, n, num_partitions=2,
                                        per_vertex=True)
    assert total == want["total"]
    assert ds.schema().names == ["v", "count()"]
    assert ds.schema().types == [pa.int64(), pa.int64()]
    assert np.array_equal(_per_vertex_array(ds, n), want["per_vertex"])


def test_ego_density_of_a_star():
    """A triangle-free graph gives a zero-row per-vertex count, which
    the ego-density query reads through its Arrow blocks."""
    from leidenalg_ray.pipelines.qcore import _ego_density
    src, dst, n = EDGE_CASES["star"]
    out = _ego_density(ray.data.from_arrow(pa.table({"src": src,
                                                     "dst": dst})))
    assert out["vid"].to_pylist() == list(range(n))
    assert out["ego_n"].to_pylist() == [8] + [2] * 7
    assert out["ego_edges"].to_pylist() == [7] + [1] * 7
    # the hub's 7 spokes of C(8, 2) = 28 pairs; a leaf's one of one
    assert out["density"].to_pylist() == [0.25] + [1.0] * 7


def _check_chunks(indptr, rows, chunk):
    """Every pair of every row appears exactly once, chunks never
    split a row, and a chunk exceeds ``chunk`` pairs only when it is
    a single row."""
    deg = np.diff(indptr)
    seen = set()
    n_pairs = 0
    for i, j in T._row_pairs(indptr, rows):
        row_i = np.searchsorted(indptr, i, "right") - 1
        row_j = np.searchsorted(indptr, j, "right") - 1
        assert np.array_equal(row_i, row_j) and (i < j).all()
        in_chunk = np.unique(row_i)
        assert not seen & set(in_chunk.tolist())
        seen |= set(in_chunk.tolist())
        full = deg[in_chunk] * (deg[in_chunk] - 1) // 2
        assert len(i) == full.sum()
        assert len(np.unique(i * indptr[-1] + j)) == len(i)
        assert len(i) <= chunk or len(in_chunk) == 1
        n_pairs += len(i)
    rows = np.asarray(rows)
    assert seen == set(rows[deg[rows] >= 2].tolist())
    assert n_pairs == (deg[rows] * (deg[rows] - 1) // 2).sum()


def test_row_pairs_small_chunks(monkeypatch):
    """Random rows against a small chunk, in a non-contiguous row
    order, so many rows straddle a chunk boundary."""
    rng = np.random.default_rng(2)
    deg = rng.integers(0, 12, 300)
    indptr = np.r_[0, np.cumsum(deg)]
    monkeypatch.setattr(T, "_CHUNK_PAIRS", 40)
    _check_chunks(indptr, np.arange(0, 300, 3), 40)
    _check_chunks(indptr, rng.permutation(300), 40)
    # a pair count exactly on the boundary
    monkeypatch.setattr(T, "_CHUNK_PAIRS", 10)
    _check_chunks(np.r_[0, np.cumsum([5, 5, 2, 5])], np.arange(4), 10)


def test_row_pairs_default_chunk_boundaries():
    """Rows whose pair counts straddle the module's chunk size: two
    1500-wide rows overflow one chunk together, and a 2049-wide row
    holds more pairs than a chunk on its own."""
    chunk = T._CHUNK_PAIRS
    deg = np.array([1500, 1500, 1000, 2049, 3, 0, 1, 2])
    assert 1500 * 1499 // 2 + 1000 * 999 // 2 <= chunk
    assert 2 * (1500 * 1499 // 2) > chunk and 2049 * 2048 // 2 > chunk
    indptr = np.r_[0, np.cumsum(deg)]
    sizes = [len(i) for i, _ in T._row_pairs(indptr, np.arange(len(deg)))]
    assert sizes == [1500 * 1499 // 2, 1500 * 1499 // 2 + 1000 * 999 // 2,
                     2049 * 2048 // 2, 3 + 1]
    _check_chunks(indptr, np.arange(len(deg)), chunk)


def test_forward_csr_orientation():
    """Every edge once, from its lower-(degree, vid) endpoint, rows
    ascending by target."""
    src, dst, n = _hub_graph()
    keys, a, b = T._canonical_edges(src, dst, n)
    indptr, fsrc, fdst, pos = T._forward_csr(a, b, n)
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    assert np.array_equal(np.argsort(pos), np.lexsort((np.arange(n), deg)))
    assert (pos[fsrc] < pos[fdst]).all()
    assert np.array_equal(np.sort(np.minimum(fsrc, fdst) * n
                                  + np.maximum(fsrc, fdst)), keys)
    assert np.array_equal(np.diff(indptr), np.bincount(fsrc, minlength=n))
    same = fsrc[1:] == fsrc[:-1]
    assert (fdst[1:][same] > fdst[:-1][same]).all()


def test_partitioned_spill_dir(tmp_path, monkeypatch):
    """A spill directory ``triangle_count`` makes itself is removed;
    a caller's ``spill_dir`` is left in place."""
    import tempfile

    import ray.data as rd

    src, dst, n = _hub_graph()
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    want = _brute(src, dst, n)["total"]
    assert T.triangle_count_arrays(src, dst, n, num_partitions=3) == want
    assert not [d for d in os.listdir(scratch) if d.startswith("lray_")]
    own = tmp_path / "own"
    ds = rd.from_arrow(pa.table({"src": src, "dst": dst}))
    assert T.triangle_count(ds, 3, spill_dir=str(own)) == want
    assert any(d.startswith("part=") for d in os.listdir(own))


def test_wedges_by_bucket_every_wedge_once():
    """The partitioned plan's wedge keys: each forward-neighbour pair
    once, in the bucket of its closing key's lower endpoint."""
    rng = np.random.default_rng(9)
    u = rng.integers(0, 20, 150)
    v = rng.integers(20, 60, 150)
    keep = np.unique(u * 100 + v, return_index=True)[1]
    u, v = u[keep], v[keep]
    K = 3
    parts = T._wedges_by_bucket(K, (u[:70], v[:70]), (u[70:], v[70:]))
    got = sorted((int(m), int(lo), int(hi)) for k, (mid, los, his)
                 in enumerate(parts)
                 for m, lo, hi in zip(mid, los, his) if lo % K == k)
    assert sum(len(p[0]) for p in parts) == len(got)
    want = sorted((x, min(y, z), max(y, z)) for x in set(u.tolist())
                  for y, z in itertools.combinations(
                      sorted(v[u == x].tolist()), 2))
    assert got == want


@pytest.mark.parametrize("P", (1, 3, 8))
def test_row_ranges_cover_rows(P):
    """P contiguous ranges over all rows; with many small rows no range
    holds much more than its share of the wedges."""
    rng = np.random.default_rng(4)
    deg = rng.integers(0, 6, 500)
    indptr = np.r_[0, np.cumsum(deg)]
    ranges = T._row_ranges(indptr, P)
    assert len(ranges) == P and ranges[0][0] == 0 and ranges[-1][1] == 500
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    pairs = deg * (deg - 1) // 2
    share = [pairs[lo:hi].sum() for lo, hi in ranges]
    assert max(share) <= pairs.sum() / P + pairs.max()
