"""Distributed Leiden on shard hosts: the P shards live on
min(P, cluster CPUs) host actors, and every result is pinned to the
values of the one-actor-per-shard layout at P ∈ {3, 8, 16}.

P = 1 and the multi-level run at P = 16 are pinned to the P-invariant
value of the other P: the one-actor layout raised in refinement there
(a one-bucket split handed a list to the refine task, and a shard with
no vertex at an upper level indexed an empty array)."""

import glob
import hashlib
import os
import tempfile

import numpy as np
import pyarrow as pa
import pytest
import ray

from leidenalg_ray.dist.leiden import DistLeiden

PS = (1, 3, 8, 16)
PLANTED = ("75b305eda6f9263ac09d233b6d655d7d0e7cd961",
           1405.1399999999999, 33, 1)
# case -> P -> (membership sha1, Q, level0_supersteps, levels)
PINNED = {
    "array": dict.fromkeys(PS, PLANTED),
    "dataset": dict.fromkeys(PS, PLANTED),
    "all": dict.fromkeys(PS, PLANTED),
    "multilevel": dict.fromkeys(PS, PLANTED[:2] + (43, 4)),
    "multiplex": dict.fromkeys(
        PS, ("c1467d23e8161a87102af9f70273365ae6a38d12", 1118.67, 34, 1)),
    "rand": {
        1: ("b1aea1aa1e71d1d67f39a11010c349846146674a",
            1187.8199999999997, 64, 1),
        3: ("327f27d1c896f269169b597cf00e49709fd36f45", 1261.56, 75, 1),
        8: ("4b8cbbc6cf026f9ec400c3636a097bd5e3db2305",
            1297.9999999999998, 99, 1),
        16: ("a04afd8e645e82cf2659b91681788a37267ccb15",
             1302.4599999999998, 86, 1),
    },
}


@pytest.fixture(scope="module")
def planted():
    """240 vertices in 12 planted groups, weighted, with a second
    layer tag on ~30% of the edges."""
    rng = np.random.default_rng(20261020)
    n, k = 240, 12
    grp = np.arange(n) % k
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < np.where(grp[iu] == grp[ju], 0.3, 0.012)
    src, dst = iu[keep].astype(np.int64), ju[keep].astype(np.int64)
    w = np.round(rng.uniform(0.5, 2.0, len(src)), 2)
    lay = (rng.random(len(src)) < 0.3).astype(np.int64)
    return src, dst, w, lay, n


def _build(case, P, src, dst, w, lay, n):
    kw = dict(quality="cpm", resolution_parameter=0.05, P=P, seed=7)
    if case == "dataset":
        ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst,
                                           "weight": w}))
        return DistLeiden.from_dataset(ds, n, **kw)
    if case == "multiplex":
        return DistLeiden(src, dst, w, n=n, layer=lay, P=P, seed=7,
                          quality=["cpm", "cpm"],
                          resolution_parameter=[0.05, 0.02],
                          layer_weights=[1.0, 0.5])
    if case in ("all", "rand"):
        return DistLeiden(src, dst, w, n=n, consider_comms=case, **kw)
    return DistLeiden(src, dst, w, n=n, **kw)


@pytest.mark.parametrize("P", PS)
@pytest.mark.parametrize("case", sorted(PINNED))
def test_results_pinned_across_host_layout(planted, case, P):
    dl = _build(case, P, *planted)
    assert len(dl.actors) == min(P, int(ray.cluster_resources()["CPU"]))
    run = (dict(tail_max_n=8, tail_max_edges=10)
           if case == "multilevel" else {})
    mem, q, info = dl.run(**run)
    got = (hashlib.sha1(np.asarray(mem, np.int64).tobytes()).hexdigest(),
           float(q), info["level0_supersteps"], len(info["levels"]))
    assert got == PINNED[case][P]


def test_fan_returns_shard_order(planted):
    """``_fan`` hands back one result per shard, in shard order, from
    fewer hosts than shards."""
    src, dst, w, _, n = planted
    dl = DistLeiden(src, dst, w, n=n, P=8, seed=7)
    assert len(dl.actors) < dl.P
    dl._fan("init_mem", None)
    own = dl._fan("own_mem")
    assert len(own) == 8
    for p, sl in enumerate(own):
        assert np.array_equal(sl, np.arange(p, n, 8))


def test_from_dataset_removes_only_its_own_spill(planted, tmp_path):
    src, dst, w, _, n = planted
    ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    pattern = os.path.join(tempfile.gettempdir(), "lray_leiden_*")
    before = set(glob.glob(pattern))
    dl = DistLeiden.from_dataset(ds, n, resolution_parameter=0.05, P=3)
    assert set(glob.glob(pattern)) == before
    with pytest.raises(ValueError, match="not parquet-backed"):
        dl._fan("reload_parquet")
    mem, _, _ = dl.run()
    assert len(mem) == n
    # a caller's spill_dir stays, and the shards can reload from it
    mine = str(tmp_path / "spill")
    dl2 = DistLeiden.from_dataset(ds, n, resolution_parameter=0.05, P=3,
                                  spill_dir=mine)
    assert os.path.isdir(mine)
    dl2._fan("reload_parquet")
