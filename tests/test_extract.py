"""Parser invariant: distributed extraction byte-identical to the
serial oracle; edge multiset exact; id assignment deterministic
(FIXTURES.md §4.5-4.6)."""

from collections import Counter

import numpy as np
import pytest
import ray.data as rd

from leidenalg_ray.sources.pages import generate_pages_table
from leidenalg_ray.stages.extract import (extract_dataset,
                                          extract_links, extract_text,
                                          texts_of)
from leidenalg_ray.stages.graph_build import pages_to_graph


@pytest.fixture(scope="module")
def pages():
    r = np.random.default_rng(4)
    n = 150
    mask = r.random((n, n)) < 0.04
    src, dst = np.nonzero(mask)
    return generate_pages_table(src, dst, n, seed=42)


def test_stored_text_matches_extractor(pages):
    for u, h, t in zip(pages["url"].to_pylist(),
                       pages["html"].to_pylist(),
                       pages["text"].to_pylist()):
        assert extract_text(h) == t


def test_distributed_text_byte_identical(pages):
    ser = {u: extract_text(h) for u, h in
           zip(pages["url"].to_pylist(), pages["html"].to_pylist())}
    ds = rd.from_arrow(pages)
    got = texts_of(extract_dataset(ds, concurrency=2)).to_pandas()
    assert dict(zip(got.url, got.text)) == ser


def test_edge_multiset_and_determinism(pages):
    urlset = set(pages["url"].to_pylist())
    oracle = Counter()
    for u, h in zip(pages["url"].to_pylist(),
                    pages["html"].to_pylist()):
        for link in extract_links(h):
            if link in urlset:
                oracle[(u, link)] += 1

    edges, mapping, n = pages_to_graph(rd.from_arrow(pages), B=4,
                                       num_partitions=4)
    edf = edges.to_pandas()
    mdf = mapping.to_pandas()
    assert n == pages.num_rows
    vid2url = dict(zip(mdf.vid, mdf.url))
    got = Counter({(vid2url[r.src], vid2url[r.dst]): int(r.weight)
                   for r in edf.itertuples()})
    assert got == oracle

    # deterministic id assignment across runs
    edges2, mapping2, _ = pages_to_graph(rd.from_arrow(pages), B=4,
                                         num_partitions=4)
    m1 = mdf.sort_values("url").reset_index(drop=True)
    m2 = mapping2.to_pandas().sort_values("url").reset_index(drop=True)
    assert m1.equals(m2)


def test_entity_and_edge_cases():
    html = (b"<html><body><p>a &amp; b &lt;c&gt; &quot;d&#39;</p>"
            b'<a href="https://x.example/p1">x</a>'
            b'<a href="/relative">rel</a>'
            b'<a href="https://x.example/p1">x again</a>'
            b"</body></html>")
    assert extract_text(html) == "a & b <c> \"d' x rel x again"
    assert extract_links(html) == ["https://x.example/p1",
                                   "https://x.example/p1"]
    assert extract_text(b"") == ""
    assert extract_links(b"<html></html>") == []


def test_arrays_variant_matches_join_variant(pages):
    from leidenalg_ray.stages.graph_build import pages_to_graph_arrays
    edges, mapping, n = pages_to_graph(rd.from_arrow(pages), B=4,
                                       num_partitions=4)
    edf = edges.to_pandas()
    mdf = mapping.to_pandas()
    vid2url = dict(zip(mdf.vid, mdf.url))
    join_set = {(vid2url[r.src], vid2url[r.dst]): r.weight
                for r in edf.itertuples()}

    src, dst, w, mdf2, n2 = pages_to_graph_arrays(rd.from_arrow(pages),
                                                  concurrency=2)
    assert n2 == n
    vid2url2 = dict(zip(mdf2.vid, mdf2.url))
    arr_set = {(vid2url2[s], vid2url2[d]): wt
               for s, d, wt in zip(src, dst, w)}
    assert join_set == arr_set


def test_host_graph_matches_urlparse_oracle(pages):
    """Streaming host contraction == brute-force contraction of the
    same links via urllib.parse (an independent host parser), and the
    vectorised regex agrees with urlparse on every corpus url."""
    from collections import Counter
    from urllib.parse import urlparse

    from leidenalg_ray.stages.extract import links_of
    from leidenalg_ray.stages.graph_build import host_graph

    links = links_of(extract_dataset(rd.from_arrow(pages))).materialize()
    got = {(r["src_host"], r["dst_host"]): r["weight"]
           for r in host_graph(links).take_all()}

    want = Counter()
    for row in links.take_all():
        hs = urlparse(row["src_url"]).netloc.lower()
        hd = urlparse(row["dst_url"]).netloc.lower()
        if hs and hd:
            want[(hs, hd)] += 1.0
    assert got == dict(want)
    assert len({a for a, _ in got} | {b for _, b in got}) >= 16


def test_host_of_edge_cases():
    import pyarrow as pa
    from leidenalg_ray.stages.graph_build import host_of

    arr = pa.chunked_array([pa.array([
        "https://A.Example/p.html",          # case folds
        "http://h.example:8080/x?q=1",       # port kept, query cut
        "ftp://f.example",                   # no path
        "https://q.example?x=1",             # query before any slash
        "not-a-url",                         # no scheme -> null
        "//scheme-relative.example/x",       # no scheme -> null
    ])])
    got = host_of(arr).to_pylist()
    assert got == ["a.example", "h.example:8080", "f.example",
                   "q.example", None, None]


def test_pages_temporal_graph_slices_recrawl():
    """Two crawl snapshots of the same url set (different link
    structure, shifted warc_ts): pages_temporal_graph must cut at the
    snapshot boundary, map every url to ONE shared vid, and each
    slice's edge multiset must equal the per-snapshot build under the
    same mapping; the slices then drive the distributed temporal
    entry point."""
    import pyarrow as pa
    from leidenalg_ray import find_partition_temporal_dataset
    from leidenalg_ray.sources.pages import generate_pages_table
    from leidenalg_ray.stages.graph_build import pages_temporal_graph

    n = 60
    # epoch 0: 10-cliques at offset 0; epoch 1: shifted by 5
    def cliq(shift):
        s, d = [], []
        for base in range(0, n, 10):
            mem = [(base + k + shift) % n for k in range(10)]
            for i in range(10):
                for j in range(i + 1, 10):
                    s.append(mem[i]); d.append(mem[j])
        return np.array(s), np.array(d)

    sA, dA = cliq(0)
    sB, dB = cliq(5)
    tabA = generate_pages_table(sA, dA, n, seed=1, dup_prob=0.0)
    tabB = generate_pages_table(sB, dB, n, seed=2, dup_prob=0.0)
    # push epoch 1 into a later warc_ts window
    shift_us = 3_600_000_000_000  # 1000 h
    tsB = pa.array((tabB["warc_ts"].cast(pa.int64()).to_numpy()
                    + shift_us), pa.timestamp("us"))
    tabB = tabB.set_column(tabB.schema.get_field_index("warc_ts"),
                           "warc_ts", tsB)
    pages = rd.from_arrow(pa.concat_tables([tabA, tabB]))

    slices, mapping, nv, bounds = pages_temporal_graph(
        pages, n_slices=2, B=4, num_partitions=4)
    assert nv == n          # shared id space, recrawled urls deduped
    url2vid = {r["url"]: r["vid"] for r in mapping.take_all()}

    from leidenalg_ray.sources.pages import url_of
    for edges_ds, (s_, d_) in zip(slices, [(sA, dA), (sB, dB)]):
        got = Counter((r["src"], r["dst"], r["weight"])
                      for r in edges_ds.take_all())
        want = Counter()
        for a, b in zip(s_, d_):
            want[(url2vid[url_of(int(a))],
                  url2vid[url_of(int(b))], 1.0)] += 1
        assert got == Counter({k: 1 for k in want})

    mems, q, info = find_partition_temporal_dataset(
        slices, n_nodes=nv, quality="cpm", resolution_parameter=0.5,
        interslice_weight=0.01, P=4, seed=3, n_iterations=-1)
    assert mems.shape == (2, n)
    # weak coupling: each slice recovers its own planted cliques
    # (membership rows are indexed by ASSIGNED vid, not corpus vertex)
    for row, shift in zip(mems, (0, 5)):
        for base in range(0, n, 10):
            vids = [url2vid[url_of((base + k + shift) % n)]
                    for k in range(10)]
            assert len({row[v] for v in vids}) == 1


def test_pages_temporal_graph_empty_window_and_bounds():
    """Clustered crawl timestamps leave middle windows empty: those
    slices must come back as empty edge Datasets (not crash), and the
    returned bounds must agree with the tagging formula."""
    import pyarrow as pa
    from leidenalg_ray.sources.pages import generate_pages_table
    from leidenalg_ray.stages.graph_build import pages_temporal_graph

    n = 20
    s = np.array([0, 1, 2, 3])
    d = np.array([1, 2, 3, 0])
    tabA = generate_pages_table(s, d, n, seed=1, dup_prob=0.0)
    tabB = generate_pages_table(d, s, n, seed=2, dup_prob=0.0)
    shift = 4_000_000_000_000
    tsB = pa.array(tabB["warc_ts"].cast(pa.int64()).to_numpy()
                   + shift, pa.timestamp("us"))
    tabB = tabB.set_column(tabB.schema.get_field_index("warc_ts"),
                           "warc_ts", tsB)
    pages = rd.from_arrow(pa.concat_tables([tabA, tabB]))

    slices, mapping, nv, bounds = pages_temporal_graph(
        pages, n_slices=4, B=4, num_partitions=4)
    assert len(slices) == 4 and len(bounds) == 5
    counts = [e.count() for e in slices]
    assert counts[0] > 0 and counts[-1] > 0
    assert counts[1] == 0 and counts[2] == 0   # empty middle windows
    # bounds consistent with the tag formula: a ts at bounds[t] lands
    # in slice t, and bounds[t]-1 lands in slice t-1
    lo, hi = bounds[0], bounds[-1] - 1
    span = hi - lo + 1
    T = 4
    for t in range(1, T):
        assert (bounds[t] - lo) * T // span == t
        assert (bounds[t] - 1 - lo) * T // span == t - 1


def test_pages_temporal_graph_stale_spill_recovery(tmp_path):
    """A crash mid-spill leaves slice=* files WITHOUT the _SPILL_DONE
    marker; a rerun with the same spill_dir must clear the stale
    files and produce the same edges as a clean run — not silently
    duplicate pages and double per-slice edge weights."""
    import pyarrow as pa
    from leidenalg_ray.sources.pages import generate_pages_table
    from leidenalg_ray.stages.graph_build import pages_temporal_graph

    n = 20
    s = np.array([0, 1, 2, 3, 4, 5])
    d = np.array([1, 2, 3, 4, 5, 0])
    tab = generate_pages_table(s, d, n, seed=1, dup_prob=0.0)
    pages = rd.from_arrow(tab)

    spill = str(tmp_path / "spill")
    slices, _, _, _ = pages_temporal_graph(
        pages, n_slices=2, B=4, num_partitions=4, spill_dir=spill)
    clean = sorted((r["src"], r["dst"], r["weight"])
                   for e in slices for r in e.take_all())

    # simulate the crash: completed slice files present, marker gone
    import os
    os.remove(os.path.join(spill, "_SPILL_DONE"))
    slices2, _, _, _ = pages_temporal_graph(
        pages, n_slices=2, B=4, num_partitions=4, spill_dir=spill)
    redo = sorted((r["src"], r["dst"], r["weight"])
                  for e in slices2 for r in e.take_all())
    assert redo == clean


def test_extract_anchors_semantics():
    """Anchor text: body up to the matching </a>, tags stripped,
    entities decoded, whitespace collapsed; non-http(s) hrefs
    skipped; duplicates preserved in document order."""
    from leidenalg_ray.stages.extract import extract_anchors

    html = (b'<a href="https://x.example/a">one <b>bold</b>  text</a>'
            b'<a href="mailto:z@example">skip</a>'
            b'<a href="https://x.example/a">one &amp; two</a>'
            b'<a class="c" href="http://y.example/">  padded </a>')
    got = extract_anchors(html)
    assert got == [
        ("https://x.example/a", "one bold text"),
        ("https://x.example/a", "one & two"),
        ("http://y.example/", "padded"),
    ]


def test_anchors_dataset_matches_serial(ray_session):
    """Actor-pool anchors output == per-row serial extraction."""
    import ray.data as rd

    from leidenalg_ray.sources.pages import generate_pages_table
    from leidenalg_ray.stages.extract import (anchors_dataset,
                                              extract_anchors)

    src = np.array([0, 0, 1, 2, 3], dtype=np.int64)
    dst = np.array([1, 2, 2, 0, 0], dtype=np.int64)
    tab = generate_pages_table(src, dst, 4, seed=9)
    out = anchors_dataset(rd.from_arrow(tab), concurrency=2,
                          batch_size=2).to_pandas()
    want = []
    for u, h in zip(tab["url"].to_pylist(), tab["html"].to_pylist()):
        for i, (link, text) in enumerate(extract_anchors(h)):
            want.append((u, link, text, i))
    got = list(map(tuple, out[["src_url", "dst_url", "anchor",
                               "link_pos"]].to_numpy()))
    assert sorted(got) == sorted(want)


def test_url_canonicalize_rules():
    """Rule-by-rule edge cases for stages/urls.py: fragments, case,
    default vs non-default ports, tracking params in every query
    position, dangling '?', scheme-less passthrough."""
    import pyarrow as pa

    from leidenalg_ray.stages.urls import canonicalize_url_array

    cases = {
        "HTTPS://A.B:443/p?id=1#f": "https://a.b/p?id=1",
        "http://Host.EX:80": "http://host.ex",
        "https://a.b:8443/p": "https://a.b:8443/p",   # non-default kept
        "https://a.b/p?utm_source=x": "https://a.b/p",
        "https://a.b/p?utm_source=x&keep=1": "https://a.b/p?keep=1",
        "https://a.b/p?keep=1&fbclid=z&x=2": "https://a.b/p?keep=1&x=2",
        "https://a.b/P?Keep=UP": "https://a.b/P?Keep=UP",  # path case kept
        "plain#frag": "plain",
    }
    got = canonicalize_url_array(
        pa.array(list(cases.keys()), pa.string())).to_pylist()
    assert got == list(cases.values())


def test_pages_to_graph_canonicalize_merges_variants(ray_session):
    """canonicalize=True: url variants (case/fragment/tracking params)
    merge into one vertex and their links resolve; without it the
    messy hrefs dangle. Also pins the tiny layout: most exchange
    partitions of a 3-page corpus hold no row."""
    import pyarrow as pa
    import ray.data as rd

    from leidenalg_ray.stages.graph_build import pages_to_graph

    pages = rd.from_arrow(pa.table({
        "url": pa.array(["https://A.example/", "https://b.example/p",
                         "https://c.example/"]),
        "html": pa.array([
            b'<a href="https://B.example/p?utm_source=x">b</a>',
            b'<a href="https://A.example/#top">a</a>',
            b'no links'], pa.binary()),
    }))
    e0, _, n0 = pages_to_graph(pages, B=4, num_partitions=4)
    assert n0 == 3 and e0.count() == 0      # messy hrefs dangle
    e1, m1, n1 = pages_to_graph(pages, B=4, num_partitions=4,
                                canonicalize=True)
    assert n1 == 3 and e1.count() == 2      # variants resolved
    assert sorted(m1.to_pandas()["url"]) == [
        "https://a.example/", "https://b.example/p",
        "https://c.example/"]
