"""The graph build's bucketed exchange (``stages/graph_build.py``)
against an oracle that does not use the engine: vids by the FNV-1a
bucket-rank rule computed here in plain Python, edge weights as a
``Counter`` of the link rows, at exchange widths K in {1, 3, 4} and
bucket counts B in {1, 4, 32}."""

from collections import Counter, defaultdict

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from leidenalg_ray.stages.graph_build import assign_ids, links_to_edges

WIDTHS = (1, 3, 4)
BUCKETS = (1, 4, 32)


def _fnv_bucket(url, B):
    h = 0xcbf29ce484222325
    for byte in url.encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % B


def _oracle_vids(urls, B):
    """vid = (urls in lower buckets) + rank inside the bucket, urls
    ordered by their UTF-8 bytes."""
    by_bucket = defaultdict(list)
    for u in set(urls):
        by_bucket[_fnv_bucket(u, B)].append(u)
    vid, off = {}, 0
    for b in range(B):
        for r, u in enumerate(sorted(by_bucket[b], key=str.encode)):
            vid[u] = off + r
        off += len(by_bucket[b])
    return vid


def _blocks(*tables):
    """A Dataset whose blocks are exactly ``tables`` (a zero-column
    empty table stays a schema-less block)."""
    return rd.from_arrow_refs([ray.put(t) for t in tables])


@pytest.fixture(scope="module")
def corpus():
    r = np.random.default_rng(11)
    urls = [f"https://site{i % 5}.example/page{i}" for i in range(40)]
    urls += ["https://ü.example/é", "https://lonely.example/"]
    linked = urls[:-1]                # the last page links nowhere
    src = [linked[i] for i in r.integers(0, len(linked), 150)]
    dst = [linked[i] for i in r.integers(0, len(linked), 150)]
    src += [urls[0], urls[0], urls[3], urls[3], urls[7], urls[7]]
    dst += [urls[0], urls[0],         # a duplicated self-link
            urls[9], urls[9],         # a duplicated link
            "https://outside.example/a", "https://outside.example/b"]
    src += [urls[-2]] * 3
    dst += ["https://outside.example/a"] * 3
    slice_t = list(r.integers(0, 3, len(src)))
    return urls, src, dst, slice_t


def _build(corpus, K, B, drop_dangling=True, carry=False):
    urls, src, dst, slice_t = corpus
    half = len(urls) // 2
    # a url listed twice, across blocks, gets one vid
    urls_ds = _blocks(pa.table({"url": urls[:half]}), pa.table({}),
                      pa.table({"url": urls[half:] + urls[:2]}))
    cols = {"src_url": src, "dst_url": dst}
    if carry:
        cols["slice_t"] = pa.array(slice_t, pa.int64())
    links = pa.table(cols)
    links_ds = _blocks(links.slice(0, 60), pa.table({}), links.slice(60))
    mapping, n = assign_ids(urls_ds, B=B, num_partitions=K)
    edges = links_to_edges(links_ds, mapping, n, num_partitions=K,
                           drop_dangling=drop_dangling,
                           carry=["slice_t"] if carry else ())
    return mapping.to_pandas(), n, edges.to_pandas()


def _mapping_of(mdf):
    return dict(zip(mdf["url"], mdf["vid"]))


@pytest.mark.parametrize("B", BUCKETS)
def test_exchange_matches_oracle_at_every_width(corpus, B):
    urls, src, dst, _ = corpus
    vid = _oracle_vids(urls, B)
    want = Counter((vid[s], vid[d]) for s, d in zip(src, dst)
                   if d in vid)
    mappings = []
    for K in WIDTHS:
        mdf, n, edf = _build(corpus, K, B)
        assert n == len(vid) == len(mdf)
        assert _mapping_of(mdf) == vid
        got = {(int(s), int(d)): w for s, d, w in
               zip(edf["src"], edf["dst"], edf["weight"])}
        assert len(got) == len(edf)           # one row per pair
        assert got == {k: float(c) for k, c in want.items()}
        assert edf["weight"].dtype == np.float64
        mappings.append(_mapping_of(mdf))
    assert mappings[0] == mappings[1] == mappings[2]


@pytest.mark.parametrize("K", WIDTHS)
def test_exchange_keeps_dangling_as_null(corpus, K):
    urls, src, dst, _ = corpus
    vid = _oracle_vids(urls, 4)
    _, _, edf = _build(corpus, K, 4, drop_dangling=False)
    null = edf["dst"].isna()
    resolved = edf[~null]
    got = {(int(s), int(d)): w for s, d, w in
           zip(resolved["src"], resolved["dst"], resolved["weight"])}
    want = Counter((vid[s], vid[d]) for s, d in zip(src, dst)
                   if d in vid)
    assert got == {k: float(c) for k, c in want.items()}
    dangling = Counter(vid[s] for s, d in zip(src, dst) if d not in vid)
    got_dangling = Counter()
    for s, w in zip(edf["src"][null], edf["weight"][null]):
        got_dangling[int(s)] += int(w)
    assert got_dangling == dangling and sum(dangling.values()) == 5


@pytest.mark.parametrize("K", WIDTHS)
def test_exchange_carry_is_a_group_key(corpus, K):
    urls, src, dst, slice_t = corpus
    vid = _oracle_vids(urls, 32)
    _, _, edf = _build(corpus, K, 32, carry=True)
    want = Counter((vid[s], vid[d], int(t))
                   for s, d, t in zip(src, dst, slice_t) if d in vid)
    got = {(int(s), int(d), int(t)): w for s, d, t, w in
           zip(edf["src"], edf["dst"], edf["slice_t"], edf["weight"])}
    assert len(got) == len(edf)
    assert got == {k: float(c) for k, c in want.items()}


@pytest.mark.parametrize("K", WIDTHS)
def test_exchange_on_a_corpus_without_links(corpus, K):
    urls = corpus[0]
    mapping, n = assign_ids(_blocks(pa.table({"url": urls})), B=4,
                            num_partitions=K)
    assert _mapping_of(mapping.to_pandas()) == _oracle_vids(urls, 4)
    for links in (_blocks(pa.table({})),
                  _blocks(pa.table({"src_url": pa.array([], pa.string()),
                                    "dst_url": pa.array([], pa.string())}))):
        edges = links_to_edges(links, mapping, n, num_partitions=K)
        assert edges.count() == 0
        assert edges.schema().names == ["src", "dst", "weight"]


def test_auto_bucket_count_widens_the_exchange(corpus, monkeypatch):
    """With B=None the exchange widens with the url count so a task
    holds about ``_IDS_BUCKET_ROWS`` urls; the vids still follow the
    bucket-rank rule."""
    from leidenalg_ray.stages import graph_build

    monkeypatch.setattr(graph_build, "_IDS_BUCKET_ROWS", 8)
    urls, src, dst, _ = corpus
    mapping, n = assign_ids(_blocks(pa.table({"url": urls})),
                            num_partitions=1)
    assert mapping.num_blocks() == -(-len(urls) // 8)
    vid = _oracle_vids(urls, 32)
    assert _mapping_of(mapping.to_pandas()) == vid
    edges = links_to_edges(_blocks(pa.table({"src_url": src,
                                             "dst_url": dst})),
                           mapping, n, num_partitions=1)
    assert edges.num_blocks() == -(-n // 8)
    edf = edges.to_pandas()
    got = {(int(s), int(d)): w for s, d, w in
           zip(edf["src"], edf["dst"], edf["weight"])}
    want = Counter((vid[s], vid[d]) for s, d in zip(src, dst)
                   if d in vid)
    assert got == {k: float(c) for k, c in want.items()}


def test_temporal_build_identical_at_every_width():
    """``pages_temporal_graph`` gives the same url mapping and the same
    slice edge tables at exchange widths 1, 3 and 4."""
    from leidenalg_ray.sources.pages import generate_pages_table
    from leidenalg_ray.stages.graph_build import pages_temporal_graph

    n = 24
    r = np.random.default_rng(5)
    tabA = generate_pages_table(r.integers(0, n, 60), r.integers(0, n, 60),
                                n, seed=1)
    tabB = generate_pages_table(r.integers(0, n, 60), r.integers(0, n, 60),
                                n, seed=2)
    ts = tabB["warc_ts"].cast(pa.int64()).to_numpy() + 4_000_000_000_000
    tabB = tabB.set_column(tabB.schema.get_field_index("warc_ts"),
                           "warc_ts", pa.array(ts, pa.timestamp("us")))
    pages = rd.from_arrow(pa.concat_tables([tabA, tabB]))

    runs = []
    for K in WIDTHS:
        slices, mapping, nv, bounds = pages_temporal_graph(
            pages, n_slices=3, B=4, num_partitions=K)
        tables = [sorted((r["src"], r["dst"], r["weight"])
                         for r in e.take_all()) for e in slices]
        runs.append((_mapping_of(mapping.to_pandas()), nv, bounds, tables))
    assert runs[0][1] == n
    assert runs[0][3][0] and runs[0][3][2] and not runs[0][3][1]
    assert runs[0] == runs[1] == runs[2]
