"""Graph build: url canonicalisation, deterministic vid assignment,
exact edge dedup (SURVEY.md §7.1.2), on one bucketed task exchange.

Id assignment is the classic two-pass deterministic scheme that avoids
a global sort: urls hash into B buckets (``_bucket_of``), pass 1
counts per bucket (B numbers per partition -> offsets on the driver),
pass 2 ranks *within* each bucket and assigns
``vid = bucket_offset + local_rank``. Deterministic in (urls, B),
contiguous, and the driver never holds the url set.

The exchange is the P x P task pattern of ``dist/`` (Pregelix's
partitioned dataflow), K partitions wide:

1. one task per url block cuts it by ``_bucket_of(url, B) % K``;
2. one rank task per partition sorts its urls by (bucket, url), drops
   duplicates and counts each bucket;
3. the driver sums the K count vectors into the B offsets and one
   task per partition turns ranks into vids;
4. link blocks are cut by the hash of ``src_url``, and partition k
   resolves ``src`` with ``pc.index_in`` against its share of the
   mapping (cut the same way), then cuts its rows by ``dst_url``;
5. partition k resolves ``dst`` and sums the link count per
   (src, dst[, carry...]) -- the per-partition final combine of
   external hash aggregation. Every copy of a pair shares its
   ``dst_url``, so the dedup is exact.

These are tasks of ``dist/exchange.py``, not Ray Data shuffles: no
join, groupby or repartition, so a width above the CPU count only
queues tasks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..dist.exchange import _bucket_of, _concat, _cut, _tasks, _width


def canonicalize(url: str) -> str:
    """Url canonicalisation: lowercase scheme+host, strip fragment,
    strip trailing slash on bare paths."""
    u = url.split("#", 1)[0]
    if "://" in u:
        scheme, rest = u.split("://", 1)
        host, slash, path = rest.partition("/")
        u = scheme.lower() + "://" + host.lower() + slash + path
    if u.endswith("/") and u.count("/") > 3:
        u = u[:-1]
    return u


# target urls per id bucket and per exchange partition: with B=None
# (assign_ids) B grows with the url count, and there and in
# links_to_edges so does the width K, so one task's share of the urls
# stays near this size whatever the corpus size
_IDS_BUCKET_ROWS = 1 << 17


def _lookup(urls, mapping):
    """The vid of each url in the ``(url, vid)`` table, null where the
    url is not in it."""
    value_set = mapping["url"].combine_chunks().cast(urls.type)
    return mapping["vid"].take(pc.index_in(urls, value_set=value_set))


def _rank(B, *parts):
    """One id partition's distinct non-null urls sorted by (bucket,
    url), and how many urls each of the B buckets holds."""
    urls = pc.drop_null(pc.unique(_concat(parts, url=pa.string())["url"]))
    t = pa.table({"bucket": _bucket_of(urls, B), "url": urls})
    t = t.take(pc.sort_indices(t, sort_keys=[("bucket", "ascending"),
                                             ("url", "ascending")]))
    return np.bincount(t["bucket"].to_numpy(), minlength=B), t


def _vids(offsets, ranked):
    """``(url, vid)`` of one id partition: the offset of the url's
    bucket plus its rank inside the bucket (rows sort by bucket)."""
    b = ranked["bucket"].to_numpy()
    rank = np.arange(len(b)) - np.searchsorted(b, b)
    return pa.table({"url": ranked["url"],
                     "vid": pa.array(offsets[b] + rank)})


def assign_ids(urls_ds, B=None, num_partitions=16):
    """Dataset with a ``url`` column -> Dataset ``(url, vid)`` with
    deterministic contiguous vids, one vid per distinct non-null url.

    A rank task sorts the urls of one of K partitions, about
    n_urls / K rows. ``B=None`` counts the urls and scales both with
    the corpus: B = ceil(n_urls / 128Ki) (floor 32) buckets and K
    raised to ceil(n_urls / 128Ki), so a rank task holds about 128Ki
    urls at most. An explicit B is honoured (tests pin it) and K is
    ``num_partitions``: the caller sizes it for the corpus. K is
    capped at B; the vids do not depend on it.

    Returns (mapping Dataset, n)."""
    if B is None:
        urls_ds = urls_ds.materialize()
        n_urls = urls_ds.count()
        B = max(32, -(-n_urls // _IDS_BUCKET_ROWS))
        num_partitions = _width(num_partitions, n_urls, _IDS_BUCKET_ROWS)
    K = max(1, min(int(num_partitions), B))
    cut = _tasks(_cut, K, split=True)
    parts = [cut(K, B, "url", block) for block in urls_ds.to_arrow_refs()]
    rank = _tasks(_rank, 2)
    ranked = [rank(B, *[p[k] for p in parts]) for k in range(K)]
    offsets = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(sum(ray.get([c for c, _ in ranked])), out=offsets[1:])
    vids, off_ref = _tasks(_vids), ray.put(offsets)
    return (rd.from_arrow_refs([vids(off_ref, r) for _, r in ranked]),
            int(offsets[-1]))


def _by_src(K, n_map, carry, *parts):
    """Partition k of the edge exchange, first half: its mapping share
    (the first ``n_map`` parts) and its links with ``src`` resolved
    (links from a url outside the mapping dropped), cut into K parts
    by ``dst_url``. Returns ``[mapping, part_0, ..., part_{K-1}]``."""
    mapping = _concat(parts[:n_map], url=pa.string(), vid=pa.int64())
    links = _concat(parts[n_map:], src_url=pa.string(),
                    dst_url=pa.string(),
                    **{c: pa.int64() for c in carry})
    src = _lookup(links["src_url"], mapping)
    t = pa.table({"src": src, "dst_url": links["dst_url"],
                  **{c: links[c] for c in carry}})
    return [mapping] + _cut(K, K, "dst_url", t.filter(pc.is_valid(src)))


def _by_dst(drop_dangling, carry, mapping, *parts):
    """Partition k of the edge exchange, second half: ``dst`` resolved
    against its mapping share (null for a url outside it, or the row
    dropped with ``drop_dangling``) and the links counted per
    (src, dst[, carry...]) as a float ``weight``."""
    t = _concat(parts, src=pa.int64(), dst_url=pa.string(),
                **{c: pa.int64() for c in carry})
    dst = _lookup(t["dst_url"], mapping)
    keys = ["src", "dst"] + carry
    t = pa.table({"src": t["src"], "dst": dst,
                  **{c: t[c] for c in carry}})
    if drop_dangling:
        t = t.filter(pc.is_valid(dst))
    out = t.group_by(keys).aggregate([([], "count_all")])
    return pa.table({**{k: out[k] for k in keys},
                     "weight": pc.cast(out["count_all"], pa.float64())})


_HOST_RE = r"^[^:/?#]+://(?P<host>[^/?#]+)"


def host_of(urls):
    """Vectorised url -> host (the authority between ``://`` and the
    first ``/``), lowercased: one Arrow regex kernel, no per-row
    Python. Scheme-relative or malformed urls (no ``://``) yield
    null."""
    got = pc.extract_regex(urls, _HOST_RE)
    return pc.utf8_lower(pc.struct_field(got, "host"))


def host_graph(links_ds, src="src_url", dst="dst_url"):
    """Contract the url->url link stream to the directed host->host
    graph (the Common-Crawl host-webgraph workflow). Pure streaming:
    hosts are extracted and pre-aggregated inside each batch, so the
    shuffle carries (host, host, count) partials — bounded by the host
    domain (~1e8 at crawl scale), never the 1e12 link rows. No id
    space, no driver state. Weight = link count including duplicate
    links (host-level mass); rows with an unparseable src or dst url
    are dropped. Returns Dataset(src_host, dst_host, weight:double)."""
    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"src_host": host_of(t[src]),
                       "dst_host": host_of(t[dst])})
        tt = tt.drop_null()
        return tt.group_by(["src_host", "dst_host"]) \
                 .aggregate([([], "count_all")]) \
                 .rename_columns(["src_host", "dst_host", "weight"])

    pre = links_ds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
    out = pre.groupby(["src_host", "dst_host"]) \
             .aggregate(Sum("weight", alias_name="weight"))

    def to_float(t: pa.Table) -> pa.Table:
        return t.set_column(t.schema.get_field_index("weight"),
                            "weight",
                            pc.cast(t["weight"], pa.float64()))
    return out.map_batches(to_float, batch_format="pyarrow")


def links_to_edges(links_ds, mapping_ds, n, num_partitions=16,
                   drop_dangling=True, carry=()):
    """(src_url, dst_url) links -> (src, dst[, carry...], weight) int
    edge table, one row per distinct edge, ``weight`` = link count;
    two rounds of a K wide exchange resolve ``src`` and then ``dst``
    against the ``(url, vid)`` mapping of ``n`` urls. K is
    ``num_partitions``, raised to ceil(n / 128Ki) so a task holds
    about 128Ki mapping rows at most, plus 1/K of the links.
    Links to urls outside the corpus are dropped (dangling targets,
    FIXTURES.md §1), or kept with a null ``dst`` when
    ``drop_dangling=False`` (those rows sum per source within each
    partition). ``carry`` names extra int64 link columns (e.g. a
    crawl-slice tag) kept through the exchange and folded into the
    dedup key, so ONE pass can serve every slice."""
    K = _width(num_partitions, n, _IDS_BUCKET_ROWS)
    carry = list(carry)
    cut = _tasks(_cut, K, split=True)
    m_parts = [cut(K, K, "url", b) for b in mapping_ds.to_arrow_refs()]
    l_parts = [cut(K, K, "src_url", b) for b in links_ds.to_arrow_refs()]
    by_src = _tasks(_by_src, K + 1)
    outs = [by_src(K, len(m_parts), carry, *[p[k] for p in m_parts],
                   *[p[k] for p in l_parts]) for k in range(K)]
    by_dst = _tasks(_by_dst)
    return rd.from_arrow_refs([
        by_dst(drop_dangling, carry, outs[k][0],
               *[o[1 + k] for o in outs]) for k in range(K)])


def pages_to_graph_arrays(pages_ds, B=32, concurrency=8):
    """pages -> (src, dst, weight arrays, mapping DataFrame, n).

    Small-side-broadcast variant: the url->vid mapping is broadcast
    once via ``ray.put`` and links resolve with a dict lookup inside
    ``map_batches`` — no exchange at all (ray_guide.md "Joins and
    lookups"). Right while the mapping fits a node's memory; beyond
    that use ``pages_to_graph`` (the bucketed exchange). Final dedup is a
    driver-side ``np.unique`` over per-batch pre-deduped pairs, since
    the caller consumes driver-side arrays anyway."""
    import ray

    from .extract import extract_dataset, links_of, texts_of

    import pandas as pd

    extracted = extract_dataset(pages_ds,
                                concurrency=concurrency).materialize()
    links = links_of(extracted)
    urls = texts_of(extracted).select_columns(["url"])
    # the mapping must fit in memory to be broadcast at all, so the
    # arrays path assigns ids with one driver-side sort (deterministic:
    # vid = rank in global url order); the Dataset path keeps the
    # distributed bucket-rank scheme (assign_ids) for corpora whose
    # url set exceeds a node
    parts = [b["url"].to_numpy(zero_copy_only=False)
             for b in urls.iter_batches(batch_format="pyarrow",
                                        batch_size=1 << 18)]
    all_urls = np.concatenate(parts) if parts else np.empty(0, object)
    sorted_urls = np.sort(all_urls.astype(np.str_))
    n = len(sorted_urls)
    vids_sorted = np.arange(n, dtype=np.int64)
    mdf = pd.DataFrame({"url": sorted_urls, "vid": vids_sorted})
    ref = ray.put((sorted_urls, vids_sorted))

    def resolve(t: pa.Table) -> pa.Table:
        sorted_urls, vids = ray.get(ref)
        su = t["src_url"].to_numpy(zero_copy_only=False).astype(np.str_)
        du = t["dst_url"].to_numpy(zero_copy_only=False).astype(np.str_)
        si = np.searchsorted(sorted_urls, su).clip(0, len(vids) - 1)
        di = np.searchsorted(sorted_urls, du).clip(0, len(vids) - 1)
        ok = (sorted_urls[di] == du)  # drop dangling targets
        src = vids[si[ok]]
        dst = vids[di[ok]]
        key = src * np.int64(n) + dst
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table({
            "key": pa.array(uniq),
            "weight": pa.array(counts.astype(np.float64)),
        })

    keys, weights = [], []
    for batch in links.map_batches(resolve, batch_format="pyarrow",
                                   zero_copy_batch=True) \
                      .iter_batches(batch_format="pyarrow",
                                    batch_size=1 << 18):
        keys.append(batch["key"].to_numpy(zero_copy_only=False))
        weights.append(batch["weight"].to_numpy(zero_copy_only=False))
    key = np.concatenate(keys) if keys else np.empty(0, np.int64)
    wt = np.concatenate(weights) if weights else np.empty(0)
    uniq, inv = np.unique(key, return_inverse=True)
    w = np.zeros(len(uniq))
    np.add.at(w, inv, wt)
    return ((uniq // n).astype(np.int64), (uniq % n).astype(np.int64),
            w, mdf, n)


def pages_temporal_graph(pages_ds, n_slices, B=None,
                         num_partitions=16, spill_dir=None):
    """Crawl-snapshot slicing: cut the pages table into ``n_slices``
    equal-width ``warc_ts`` windows and build one url->url edge table
    per window on ONE shared id space — the input form
    ``find_partition_temporal_dataset`` consumes (community evolution
    across crawl snapshots).

    Streaming shape: two column-pruned min/max scans for the window
    bounds, one pass tagging each page with its slice and spilling to
    slice-partitioned parquet (each page is extracted exactly once;
    re-running with the same ``spill_dir`` reuses a completed spill —
    a ``_SPILL_DONE`` marker guards against the double-append a naive
    rerun would silently produce), a single shared ``assign_ids`` over
    the corpus urls (a url recrawled in several snapshots gets ONE
    vid: the rank tasks drop duplicates), then one ``links_to_edges``
    exchange for every slice's links, the slice tag a group key.
    ``num_partitions`` is the exchange width.
    Returns ``(slice_edge_datasets, mapping_ds, n, bounds_us)`` where
    ``bounds_us[t]`` is the first timestamp of slice t (consistent
    with the tagging: slice(ts) = floor((ts-lo)*T/span)).
    """
    import os
    import shutil
    import tempfile

    from .extract import extract_dataset, links_of, texts_of

    T = int(n_slices)
    if T < 1:
        raise ValueError("need at least one slice")
    # window bounds via int64 per-batch partials (timestamp-typed
    # Dataset.min/max support varies across Ray versions); empty
    # blocks yield null partials — drop them
    mm = pages_ds.select_columns(["warc_ts"]).map_batches(
        lambda t: pa.table({
            "lo": pa.array([pc.min(pc.cast(t["warc_ts"],
                                           pa.int64())).as_py()],
                           pa.int64()),
            "hi": pa.array([pc.max(pc.cast(t["warc_ts"],
                                           pa.int64())).as_py()],
                           pa.int64()),
        }), batch_format="pyarrow", zero_copy_batch=True).take_all()
    los = [r["lo"] for r in mm if r["lo"] is not None]
    if not los:
        raise ValueError("pages dataset is empty")
    lo = min(los)
    hi = max(r["hi"] for r in mm if r["hi"] is not None)
    span = max(hi - lo + 1, 1)
    # slice t starts at the first ts with floor((ts-lo)*T/span) == t,
    # i.e. lo + ceil(span*t/T) — matches the tag() assignment exactly
    bounds = [lo + (span * t + T - 1) // T for t in range(T)] \
        + [hi + 1]

    spill_dir = spill_dir or tempfile.mkdtemp(prefix="lray_slices_")
    os.makedirs(spill_dir, exist_ok=True)
    marker = os.path.join(spill_dir, "_SPILL_DONE")

    def tag(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["warc_ts"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        sl = np.minimum(((ts - lo) * T) // span, T - 1)
        return t.append_column("slice",
                               pa.array(sl.astype(np.int64)))

    if not os.path.exists(marker):
        # the marker only protects COMPLETED spills: a crash mid
        # write_parquet leaves partial slice=* files without it, and
        # Ray writes uuid-named files, so a blind re-spill would add
        # a full second copy alongside them (duplicated pages double
        # per-slice edge weights silently). Clear stale slice dirs
        # before re-spilling.
        for d in os.listdir(spill_dir):
            if d.startswith("slice="):
                shutil.rmtree(os.path.join(spill_dir, d),
                              ignore_errors=True)
        pages_ds.map_batches(tag, batch_format="pyarrow",
                             zero_copy_batch=True) \
            .write_parquet(spill_dir, partition_cols=["slice"])
        with open(marker, "w") as f:
            f.write("ok")

    # a window with zero pages writes no directory (clustered crawl
    # timestamps): such slices are tracked and get a typed empty edge
    # Dataset at the end
    present = [t for t in range(T)
               if os.path.isdir(os.path.join(spill_dir,
                                             f"slice={t}"))]
    slice_pages = {t: rd.read_parquet(os.path.join(spill_dir,
                                                   f"slice={t}"))
                   for t in present}
    # shared id space: every url in the corpus, whichever slice
    extracted = {t: extract_dataset(slice_pages[t]).materialize()
                 for t in present}
    urls = None
    for t in present:
        u = slice_pages[t].select_columns(["url"])
        urls = u if urls is None else urls.union(u)
    if urls is None:
        raise ValueError("pages dataset is empty")
    mapping, n = assign_ids(urls, B=B, num_partitions=num_partitions)

    # ONE exchange for every slice (the slice tag rides through it
    # into the dedup key)
    def tag_links(t_idx):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "slice_t", pa.array(np.full(t.num_rows, t_idx,
                                            np.int64)))
        return fn

    links_all = None
    for t_idx in present:
        tagged = links_of(extracted[t_idx]) \
            .map_batches(tag_links(t_idx), batch_format="pyarrow",
                         zero_copy_batch=True)
        links_all = tagged if links_all is None \
            else links_all.union(tagged)
    edges_all = links_to_edges(links_all, mapping, n,
                               num_partitions=num_partitions,
                               carry=["slice_t"])

    empty_edges = rd.from_arrow(pa.table({
        "src": pa.array([], pa.int64()),
        "dst": pa.array([], pa.int64()),
        "weight": pa.array([], pa.float64()),
    }))

    def take_slice(t_idx):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["slice_t"], t_idx)) \
                    .select(["src", "dst", "weight"])
        return fn

    slice_edges = [edges_all.map_batches(take_slice(t_idx),
                                         batch_format="pyarrow",
                                         zero_copy_batch=True)
                   if t_idx in extracted else empty_edges
                   for t_idx in range(T)]
    return slice_edges, mapping, n, bounds


def pages_to_graph(pages_ds, B=None, num_partitions=16, dedup=True,
                   extracted=None, canonicalize=False):
    """Full pipeline: pages -> extract -> id-assign -> dedup'd int edge
    table. Returns (edges Dataset(src,dst,weight), mapping Dataset, n).
    ``num_partitions`` is the exchange width K of ``assign_ids`` and
    ``links_to_edges`` (both raise it for a large corpus); ``dedup``
    is accepted for compatibility (the edge table is exact, one row
    per pair, either way). Pass ``extracted`` (a materialised
    ``extract_dataset`` result) to share one extraction run with other
    consumers (host graph, text stages) instead of re-parsing the
    corpus.

    ``canonicalize=True`` runs `stages/urls.py` over page urls and
    both link endpoints before id assignment, so url variants (case,
    fragments, tracking params, default ports) merge into one vertex
    and their links resolve. Colliding page urls get one vid (the
    rank tasks of `assign_ids` drop duplicates); off the default path
    because it changes vertex identity."""
    from .extract import extract_dataset, links_of, texts_of

    if extracted is None:
        extracted = extract_dataset(pages_ds).materialize()
    links = links_of(extracted)
    urls = texts_of(extracted).select_columns(["url"])
    if canonicalize:
        from .urls import canonicalize_url_array

        links = links.map_batches(
            lambda t: pa.table({
                "src_url": canonicalize_url_array(t["src_url"]),
                "dst_url": canonicalize_url_array(t["dst_url"])}),
            batch_format="pyarrow", zero_copy_batch=True)
        urls = urls.map_batches(
            lambda t: pa.table({"url": canonicalize_url_array(t["url"])}),
            batch_format="pyarrow", zero_copy_batch=True)
    mapping, n = assign_ids(urls, B=B, num_partitions=num_partitions)
    edges = links_to_edges(links, mapping, n,
                           num_partitions=num_partitions)
    return edges, mapping, n
