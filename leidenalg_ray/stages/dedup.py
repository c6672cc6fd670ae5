"""Deduplication operators over the documents table: exact,
MinHash+LSH, SimHash, n-gram Jaccard verification, embedding-cosine
near-dup (task brief; ray_guide.md "Aggregation at scale").

Pipeline shapes:

- exact: content-hash in a vectorised ``map_batches`` ->
  ``groupby(hash)`` -> min(doc_id) representative + count. One shuffle
  of (hash, doc_id) pairs only.
- MinHash-LSH: shingle -> 64 minhashes -> band rows
  ``(band_id, band_hash, doc_id)`` -> ``groupby`` bands -> candidate
  pairs inside buckets -> exact Jaccard verify (per-pair, only on
  candidates) -> near-dup pairs.
- SimHash: 64-bit signature per doc; band blocking on 4x16-bit chunks;
  Hamming-distance verify.
- embedding cosine: random-hyperplane LSH buckets -> in-bucket cosine
  verify against threshold (the scale path); the sandbox-size oracle
  is the full O(n^2) cross join in DuckDB.

All hashes are process-stable (blake2b / crc32), so reruns and
different parallelism levels produce identical output.
"""

from __future__ import annotations

import hashlib
import logging
import zlib

import numpy as np

from leidenalg_ray.util import join_partitions, round6
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count, Min

from .text import TOKEN_RE, hash_token, hash_tokens

logger = logging.getLogger("leidenalg_ray.dedup")


@ray.remote(num_cpus=0)
class DropCounter:
    """Side-channel for bounded stages' skew guards — the brief's "no
    silent caps" rule: an over-cap LSH bucket that returns zero pairs
    increments this counter (and logs) instead of vanishing. Create
    one, pass its handle as ``drop_counter=``, read
    ``snapshot.remote()`` after the run."""

    def __init__(self):
        self.dropped_buckets = 0
        self.dropped_ids = 0

    def add(self, n_ids):
        self.dropped_buckets += 1
        self.dropped_ids += int(n_ids)

    def snapshot(self):
        return {"dropped_buckets": self.dropped_buckets,
                "dropped_ids": self.dropped_ids}


# ----------------------------------------------------------------------
# exact dedup
# ----------------------------------------------------------------------
def exact_dedup(docs_ds):
    """(text_hash, rep_doc_id, n_dups): one row per distinct text,
    representative = min doc_id. SQL oracle: group by md5(text)."""
    def h(batch: pa.Table) -> pa.Table:
        # md5 each DISTINCT text once — duplicate-heavy batches (the
        # whole point of this stage) skip repeat digests
        texts = np.asarray(batch["text"].to_pylist(), dtype=object)
        uniq, inv = np.unique(texts, return_inverse=True)
        digests = np.asarray(
            [hashlib.md5(t.encode("utf-8")).hexdigest()
             for t in uniq], dtype=object)
        return pa.table({
            "text_hash": pa.array(digests[inv], pa.string()),
            "doc_id": batch["doc_id"],
        })
    hashed = docs_ds.map_batches(h, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return hashed.groupby("text_hash").aggregate(
        Min("doc_id", alias_name="rep_doc_id"),
        Count(alias_name="n_dups"))


# ----------------------------------------------------------------------
# MinHash + LSH
# ----------------------------------------------------------------------
_M61 = (1 << 61) - 1


def _minhash_params(num_hashes, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _M61, num_hashes, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _M61, num_hashes, dtype=np.int64).astype(np.uint64)
    return a, b


def _shingles(text, k=3):
    """Word k-shingles as stable 64-bit hashes."""
    toks = TOKEN_RE.findall(text.lower())
    if len(toks) < k:
        return np.array([hash_token(" ".join(toks))], dtype=np.uint64) \
            if toks else np.empty(0, np.uint64)
    return np.unique(np.array(
        [hash_token(" ".join(toks[i:i + k])) for i in
         range(len(toks) - k + 1)], dtype=np.uint64))


def _shingles_batch(texts, k=3):
    """``_shingles`` over a whole batch with one distinct-string md5
    pass (``hash_tokens``): shingle strings repeat heavily across
    natural-language documents, and md5-per-occurrence was the CPU
    floor of every dedup stage. Bit-identical output to the per-doc
    form (same md5 strings, same sorted-unique per doc)."""
    all_sh, spans = [], []
    for t in texts:
        toks = TOKEN_RE.findall(t.lower())
        if len(toks) < k:
            sh = [" ".join(toks)] if toks else []
        else:
            sh = [" ".join(toks[i:i + k])
                  for i in range(len(toks) - k + 1)]
        spans.append((len(all_sh), len(all_sh) + len(sh)))
        all_sh.extend(sh)
    hv = hash_tokens(all_sh)
    return [np.unique(hv[lo:hi]) if hi > lo
            else np.empty(0, np.uint64) for lo, hi in spans]


class MinHasher:
    """Actor-pool stage: doc -> (band_id, band_hash, doc_id) rows."""

    def __init__(self, num_hashes=64, bands=16, shingle_k=3, seed=7):
        self.a, self.b = _minhash_params(num_hashes, seed)
        self.num_hashes = num_hashes
        self.bands = bands
        self.rows = num_hashes // bands
        self.k = shingle_k

    def signature(self, text):
        # (a*x + b) mod M61 per hash function, min over shingles
        return self.sig_of_shingles(_shingles(text, self.k))

    # Band bucket key: polynomial fold of the band's minhash values in
    # wrapping uint64 (FNV-64 prime) — SQL-expressible (HUGEINT mod
    # 2^64), unlike the r1 blake2b digest, so the LSH candidate set
    # has an exact DuckDB oracle.
    _BAND_C = np.uint64(1099511628211)

    def band_hashes(self, sig):
        """(bands,) uint64 bucket keys from a (num_hashes,) signature."""
        chunks = sig.reshape(self.bands, self.rows)
        bh = np.zeros(self.bands, dtype=np.uint64)
        for r in range(self.rows):
            bh = bh * self._BAND_C + chunks[:, r]
        return bh

    def sig_of_shingles(self, sh):
        if len(sh) == 0:
            return np.zeros(self.num_hashes, dtype=np.uint64)
        vals = (sh[None, :] * self.a[:, None] + self.b[:, None]) \
            % np.uint64(_M61)
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        n = len(doc_ids)
        band_hash = np.empty((n, self.bands), dtype=np.uint64)
        shingles = _shingles_batch(batch["text"].to_pylist(), self.k)
        for i, sh in enumerate(shingles):
            band_hash[i] = self.band_hashes(self.sig_of_shingles(sh))
        return pa.table({
            "band_id": pa.array(
                np.tile(np.arange(self.bands, dtype=np.int32), n)),
            "band_hash": pa.array(band_hash.ravel()),
            "doc_id": pa.array(np.repeat(
                np.asarray(doc_ids, dtype=np.int64), self.bands)),
        })


def minhash_candidates(docs_ds, num_hashes=64, bands=16, shingle_k=3,
                       seed=7, concurrency=4, max_bucket=2000,
                       drop_counter=None):
    """Candidate near-dup pairs (a < b) from LSH band buckets.
    ``MinHasher`` runs as an autoscaling actor pool so the hash-param
    setup happens once per actor, not once per batch.

    ``max_bucket``: skew guard — a band bucket with more ids would
    emit O(bucket^2) pairs (a degenerate boilerplate cluster, not a
    near-dup signal). Dropped buckets are NOT silent: each logs a
    warning and, when a ``DropCounter`` handle is passed as
    ``drop_counter``, increments it with the bucket size."""
    bands_ds = docs_ds.map_batches(
        MinHasher,
        fn_constructor_kwargs=dict(num_hashes=num_hashes, bands=bands,
                                   shingle_k=shingle_k, seed=seed),
        concurrency=(1, concurrency), batch_format="pyarrow",
        zero_copy_batch=True)

    def pairs(t: pa.Table) -> pa.Table:
        ids = np.sort(t["doc_id"].to_numpy(zero_copy_only=False))
        if len(ids) > max_bucket:   # capped pathological bucket
            if drop_counter is not None:
                drop_counter.add.remote(len(ids))
            logger.warning(
                "LSH band bucket with %d ids exceeds max_bucket=%d — "
                "dropping its pairs (skew guard)", len(ids),
                max_bucket)
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        if len(ids) < 2:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        ii, jj = np.triu_indices(len(ids), k=1)
        return pa.table({"a": pa.array(ids[ii]), "b": pa.array(ids[jj])})

    cand = bands_ds.groupby(["band_id", "band_hash"]).map_groups(
        pairs, batch_format="pyarrow")
    return cand.groupby(["a", "b"]).count().select_columns(["a", "b"])


def shingle_signatures(docs_ds, shingle_k=3):
    """(doc_id, sh: binary) — each document's sorted-unique shingle
    hash set, computed exactly once, packed as a uint64 blob (Arrow's
    hash join cannot carry list columns as payload, binary it can)."""
    def rows(t: pa.Table) -> pa.Table:
        sh = [s.tobytes()   # _shingles_batch output is already sorted
              for s in _shingles_batch(t["text"].to_pylist(),
                                       shingle_k)]
        return pa.table({
            "doc_id": t["doc_id"],
            "sh": pa.array(sh, pa.binary()),
        })
    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        rows, batch_format="pyarrow", zero_copy_batch=True)


def jaccard_verify(pairs_ds, docs_ds, threshold=0.8, shingle_k=3,
                   num_partitions=8):
    """Exact n-gram Jaccard on candidate pairs, as a distributed
    double hash-join against the per-document shingle-signature
    dataset: pairs ⋈ signatures on ``a`` then on ``b``. Each document
    is shingled exactly once; no side is ever materialised on the
    driver (the r1 whole-corpus broadcast dict is gone — candidates
    are a minuscule fraction of the corpus and the signatures side
    streams through the join shuffle)."""
    sigs = shingle_signatures(docs_ds, shingle_k)
    left = sigs.map_batches(
        lambda t: t.rename_columns(["a", "sh_a"]),
        batch_format="pyarrow", zero_copy_batch=True)
    right = sigs.map_batches(
        lambda t: t.rename_columns(["b", "sh_b"]),
        batch_format="pyarrow", zero_copy_batch=True)
    K = join_partitions(num_partitions)
    j1 = pairs_ds.join(left, "inner", K, on=("a",))
    j2 = j1.join(right, "inner", K, on=("b",))

    def verify(t: pa.Table) -> pa.Table:
        from leidenalg_ray.util import round_half_away
        out_a, out_b, jac = [], [], []
        sha = t["sh_a"].to_pylist()
        shb = t["sh_b"].to_pylist()
        for i, (x, y) in enumerate(zip(t["a"].to_pylist(),
                                       t["b"].to_pylist())):
            sx = np.frombuffer(sha[i], dtype=np.uint64)
            sy = np.frombuffer(shb[i], dtype=np.uint64)
            if len(sx) == 0 and len(sy) == 0:
                j = 1.0
            else:
                inter = len(np.intersect1d(sx, sy, assume_unique=True))
                j = (inter / (len(sx) + len(sy) - inter)
                     if inter else 0.0)
            if j >= threshold:
                out_a.append(x)
                out_b.append(y)
                jac.append(float(round_half_away(j, 6)))
        return pa.table({"a": pa.array(out_a, pa.int64()),
                         "b": pa.array(out_b, pa.int64()),
                         "jaccard": pa.array(jac, pa.float64())})
    return j2.map_batches(verify, batch_format="pyarrow")


def jaccard_all_pairs(docs_ds, threshold=0.5, shingle_k=3):
    """Exact all-pairs n-gram Jaccard (sandbox-verifiable form of the
    verify stage: the candidate set is the full a<b cross product, so
    a DuckDB list-comprehension oracle computes the identical
    result). Only the O(V) doc-id list touches the driver."""
    import pyarrow as pa_
    import ray.data as rd
    ids = np.sort(docs_ds.select_columns(["doc_id"]).to_pandas()
                  ["doc_id"].to_numpy(np.int64))
    ii, jj = np.triu_indices(len(ids), k=1)
    pairs = rd.from_arrow(pa_.table({"a": pa_.array(ids[ii]),
                                     "b": pa_.array(ids[jj])}))
    return jaccard_verify(pairs, docs_ds, threshold=threshold,
                          shingle_k=shingle_k)


def jaccard_verify_candidates(pairs_ds, docs_ds, threshold=0.8,
                              shingle_k=3):
    """Jaccard verify for a SMALL candidate set (LSH output): semi-join
    documents to the candidate doc ids (broadcast id set, vectorised
    filter), compute shingle signatures for those docs only, broadcast
    the O(candidates) signature dict, verify pairs per batch. Zero
    join shuffles; the driver holds candidate-proportional state only
    (never the corpus). For candidate sets that are themselves huge
    (e.g. all-pairs) use ``jaccard_verify`` — the double hash-join."""
    import ray

    pairs_mat = pairs_ds.materialize()
    ids = [np.empty(0, np.int64)]
    for t in pairs_mat.iter_batches(batch_format="pyarrow"):
        ids.append(t["a"].to_numpy(zero_copy_only=False)
                   .astype(np.int64))
        ids.append(t["b"].to_numpy(zero_copy_only=False)
                   .astype(np.int64))
    ids_ref = ray.put(np.unique(np.concatenate(ids)))

    def keep(t: pa.Table) -> pa.Table:
        # broadcast sorted id array + vectorised membership (np.isin),
        # not a per-row Python set probe
        want = ray.get(ids_ref)
        d = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return t.filter(pa.array(np.isin(d, want)))

    sig_rows = shingle_signatures(
        docs_ds.map_batches(keep, batch_format="pyarrow",
                            zero_copy_batch=True), shingle_k)
    sigs = {}
    for t in sig_rows.iter_batches(batch_format="pyarrow"):
        for d, s in zip(t["doc_id"].to_pylist(), t["sh"].to_pylist()):
            sigs[d] = s
    sig_ref = ray.put(sigs)

    def verify(t: pa.Table) -> pa.Table:
        from leidenalg_ray.util import round_half_away
        table = ray.get(sig_ref)
        out_a, out_b, jac = [], [], []
        for x, y in zip(t["a"].to_pylist(), t["b"].to_pylist()):
            sx = np.frombuffer(table[x], dtype=np.uint64)
            sy = np.frombuffer(table[y], dtype=np.uint64)
            if len(sx) == 0 and len(sy) == 0:
                j = 1.0
            else:
                inter = len(np.intersect1d(sx, sy, assume_unique=True))
                j = (inter / (len(sx) + len(sy) - inter)
                     if inter else 0.0)
            if j >= threshold:
                out_a.append(x)
                out_b.append(y)
                jac.append(float(round_half_away(j, 6)))
        return pa.table({"a": pa.array(out_a, pa.int64()),
                         "b": pa.array(out_b, pa.int64()),
                         "jaccard": pa.array(jac, pa.float64())})
    return pairs_mat.map_batches(verify, batch_format="pyarrow")


def minhash_dedup(docs_ds, threshold=0.8, **kwargs):
    """Full MinHash-LSH near-dup pipeline -> verified pairs
    (a, b, jaccard). Candidates are a tiny fraction of the corpus, so
    the verify uses the semi-join + broadcast-signatures path."""
    cand = minhash_candidates(docs_ds, **kwargs)
    return jaccard_verify_candidates(
        cand, docs_ds, threshold=threshold,
        shingle_k=kwargs.get("shingle_k", 3))


# ----------------------------------------------------------------------
# SimHash
# ----------------------------------------------------------------------
def simhash_signatures(docs_ds):
    """64-bit SimHash per document over token hashes. Bit counting is
    vectorised across the whole batch (one (tokens, 64) pass +
    ``np.add.at`` scatter per doc); only the tokenise/hash of each
    token stays Python (the stable hash the oracle replicates)."""
    def sig(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        doc_idx, all_toks = [], []
        for i, t in enumerate(batch["text"].to_pylist()):
            toks = TOKEN_RE.findall(t.lower())
            if toks:
                doc_idx.append(np.full(len(toks), i, dtype=np.int64))
                all_toks.extend(toks)
        counts = np.zeros((n, 64), dtype=np.int64)
        if all_toks:
            # one md5 per DISTINCT token across the batch
            hs = hash_tokens(all_toks)
            di = np.concatenate(doc_idx)
            shifts = np.arange(64, dtype=np.uint64)[None, :]
            bits = ((hs[:, None] >> shifts) & np.uint64(1)) \
                .astype(np.int8)
            np.add.at(counts, di, 2 * bits - 1)
        out = ((counts > 0).astype(np.uint64)
               << np.arange(64, dtype=np.uint64)[None, :]) \
            .sum(axis=1, dtype=np.uint64)
        return pa.table({"doc_id": batch["doc_id"],
                         "simhash": pa.array(out, pa.uint64())})
    return docs_ds.map_batches(sig, batch_format="pyarrow",
                               zero_copy_batch=True)


def simhash_dedup(docs_ds, max_hamming=3, max_bucket=2000,
                  drop_counter=None):
    """Near-dup pairs by SimHash: block on each of the four 16-bit
    chunks (any pair within Hamming<=3 of 64 bits shares at least one
    identical chunk... with 4 chunks and <=3 differing bits, yes by
    pigeonhole), verify Hamming distance. ``max_bucket`` /
    ``drop_counter``: the same non-silent skew guard as
    ``minhash_candidates``."""
    sigs = simhash_signatures(docs_ds)

    def bandrows(t: pa.Table) -> pa.Table:
        s = t["simhash"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        bid, bh, dd, ss = [], [], [], []
        for c in range(4):
            chunk = (s >> np.uint64(16 * c)) & np.uint64(0xFFFF)
            bid.append(np.full(len(s), c, dtype=np.int32))
            bh.append(chunk.astype(np.int64))
            dd.append(d)
            ss.append(s)
        return pa.table({
            "band_id": pa.array(np.concatenate(bid)),
            "band_hash": pa.array(np.concatenate(bh)),
            "doc_id": pa.array(np.concatenate(dd)),
            "simhash": pa.array(np.concatenate(ss).astype(np.uint64)),
        })

    def pairs(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        s = t["simhash"].to_numpy(zero_copy_only=False)
        order = np.argsort(d)
        d, s = d[order], s[order]
        keep = np.ones(len(d), dtype=bool)
        keep[1:] = d[1:] != d[:-1]
        d, s = d[keep], s[keep]
        if len(d) > max_bucket:     # capped pathological bucket
            if drop_counter is not None:
                drop_counter.add.remote(len(d))
            logger.warning(
                "SimHash chunk bucket with %d ids exceeds "
                "max_bucket=%d — dropping its pairs (skew guard)",
                len(d), max_bucket)
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int32())})
        if len(d) < 2:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int32())})
        ii, jj = np.triu_indices(len(d), k=1)
        x = s[ii] ^ s[jj]
        ham = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):
            ham += (x & np.uint64(1)).astype(np.int64)
            x >>= np.uint64(1)
        ok = ham <= max_hamming
        return pa.table({"a": pa.array(d[ii[ok]]),
                         "b": pa.array(d[jj[ok]]),
                         "hamming": pa.array(ham[ok].astype(np.int32))})

    cand = sigs.map_batches(bandrows, batch_format="pyarrow") \
               .groupby(["band_id", "band_hash"]) \
               .map_groups(pairs, batch_format="pyarrow")
    # a pair can match in several bands -> dedup, keep min hamming
    return cand.groupby(["a", "b"]).aggregate(
        Min("hamming", alias_name="hamming"))


# ----------------------------------------------------------------------
# embedding cosine near-dup
# ----------------------------------------------------------------------
class _HyperplaneBucketer:
    """Stateful bucketing stage: the (seeded, deterministic) random
    hyperplanes are generated once per instance — not once per batch —
    lazily on the first batch (the embedding dim isn't known before)."""

    def __init__(self, n_planes, seed, use_lsh):
        self.n_planes = n_planes
        self.seed = seed
        self.use_lsh = use_lsh
        self.planes = None

    def __call__(self, t: pa.Table) -> pa.Table:
        vec = np.stack([np.asarray(v, dtype=np.float64)
                        for v in t["embedding"].to_pylist()])
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        if self.use_lsh:
            if self.planes is None:
                rng = np.random.default_rng(self.seed)
                self.planes = rng.standard_normal(
                    (vec.shape[1], self.n_planes))
            bits = (vec @ self.planes) > 0
            bucket = np.zeros(len(ids), dtype=np.int64)
            for j in range(self.n_planes):
                bucket |= bits[:, j].astype(np.int64) << j
        else:
            bucket = np.zeros(len(ids), dtype=np.int64)
        norm = np.linalg.norm(vec, axis=1)
        norm[norm == 0] = 1.0
        unit = vec / norm[:, None]
        return pa.table({
            "bucket": pa.array(bucket),
            "vec_id": pa.array(ids.astype(np.int64)),
            "unit": pa.array(list(unit)),
        })


def embedding_cosine_pairs(emb_ds, threshold=0.95, n_planes=8, seed=11,
                           use_lsh=True):
    """Near-duplicate (a, b, cos) pairs with cosine >= threshold.

    Scale path: random-hyperplane LSH buckets the vectors, pairs are
    verified only within buckets (misses across buckets possible — the
    standard recall/cost trade; n_planes tunes it). With
    ``use_lsh=False`` every pair is verified (exact; used for the
    sandbox-size oracle comparison)."""

    def pairs(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        unit = np.stack([np.asarray(u, dtype=np.float64)
                         for u in t["unit"].to_pylist()])
        order = np.argsort(ids)
        ids, unit = ids[order], unit[order]
        if len(ids) < 2:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        sim = unit @ unit.T
        ii, jj = np.triu_indices(len(ids), k=1)
        cs = sim[ii, jj]
        ok = cs >= threshold
        return pa.table({"a": pa.array(ids[ii[ok]].astype(np.int64)),
                         "b": pa.array(ids[jj[ok]].astype(np.int64)),
                         "cos": pa.array(round6(cs[ok]))})

    bucketed = emb_ds.map_batches(
        _HyperplaneBucketer,
        fn_constructor_kwargs=dict(n_planes=n_planes, seed=seed,
                                   use_lsh=use_lsh),
        concurrency=(1, 4), batch_format="pyarrow")
    return bucketed.groupby("bucket").map_groups(pairs,
                                                 batch_format="pyarrow")


# ----------------------------------------------------------------------
# Near-dup clustering (dup pairs -> components -> canonical keep list)
# ----------------------------------------------------------------------
def dedup_cluster(docs_ds, threshold=0.8, n=None, P=4, **kwargs):
    """Near-duplicate CLUSTERS: MinHash-LSH verified pairs ->
    connected components over the dup graph -> canonical
    representative (= min doc_id in the component, which is exactly
    the min-label the BSP kernel converges to over raw vids). The
    removal list a training pipeline acts on is ``doc_id !=
    rep_doc_id``.

    Scale shape: the dup-pair graph is a tiny fraction of the corpus
    (only docs with a near-duplicate appear), the edges stay a
    Dataset into ``DistGraph.from_dataset`` (partitioned CSR blocks,
    no driver edge list), and components run as the same sharded
    min-label supersteps as ``connected_components``. Output:
    (doc_id, rep_doc_id) for every doc in at least one dup pair.
    """
    from ..dist.blocks import DistGraph, symmetrize_edges
    from ..dist import superstep as ss

    if n is None:
        n = int(docs_ds.max("doc_id")) + 1
    pairs = minhash_dedup(docs_ds, threshold=threshold, **kwargs)
    edges = pairs.map_batches(
        lambda t: pa.table({"src": pc.cast(t["a"], pa.int64()),
                            "dst": pc.cast(t["b"], pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    g = DistGraph.from_dataset(symmetrize_edges(edges), n=n, P=P,
                               directed=False, dedup=True)
    comp, _ = ss.connected_components(g)
    vids = np.flatnonzero(g.active_global()).astype(np.int64)
    return pa.table({"doc_id": pa.array(vids),
                     "rep_doc_id": pa.array(comp[vids].astype(np.int64))})


# ----------------------------------------------------------------------
# SemDeDup — cluster-bucketed semantic dedup (Abbas et al. 2023,
# arXiv:2303.09540)
# ----------------------------------------------------------------------
def semdedup(emb_ds, centroids, tau=0.4):
    """SemDeDup: assign every vector to its nearest centroid (cosine,
    ties -> lowest centroid index), then WITHIN each cluster mark a
    vector as a semantic duplicate if some other member has cosine >=
    ``tau`` to it and wins the keep rule. Keep rule is the paper's:
    among mutually-similar members keep the one with the LOWEST
    cosine to the cluster centroid (ties -> lowest vec_id) — the
    farthest-from-centroid member carries the most marginal
    information (arXiv:2303.09540 §3).

    Scale shape: the pairwise pass is bounded by the CLUSTER, never
    the corpus — assignment is a shuffle-free map_batches against the
    broadcast centroid matrix, and the per-cluster verify is one
    groupby over the cluster key (exactly the LSH-bucket plan of
    ``embedding_cosine_pairs``, with learned buckets instead of random
    hyperplanes).

    Returns (vec_id, bucket, ccos, keep) for every vector.
    """
    cm = np.asarray(centroids, dtype=np.float64)
    cn = np.linalg.norm(cm, axis=1)
    cn[cn == 0] = 1.0
    cm = cm / cn[:, None]

    def assign(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        vec = np.stack([np.asarray(v, dtype=np.float64)
                        for v in t["embedding"].to_pylist()])
        norm = np.linalg.norm(vec, axis=1)
        norm[norm == 0] = 1.0
        unit = vec / norm[:, None]
        sim = unit @ cm.T
        b = np.argmax(sim, axis=1)         # first max == lowest index
        ccos = sim[np.arange(len(ids)), b]
        return pa.table({
            "bucket": pa.array(b.astype(np.int64)),
            "vec_id": pa.array(ids.astype(np.int64)),
            "ccos": pa.array(ccos),
            "unit": pa.array(list(unit)),
        })

    def verify(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        ccos = t["ccos"].to_numpy(zero_copy_only=False)
        unit = np.stack([np.asarray(u, dtype=np.float64)
                         for u in t["unit"].to_pylist()])
        sim = unit @ unit.T
        np.fill_diagonal(sim, -np.inf)
        wins = (ccos[None, :] < ccos[:, None]) | (
            (ccos[None, :] == ccos[:, None]) & (ids[None, :] < ids[:, None]))
        removed = ((sim >= tau) & wins).any(axis=1)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "bucket": pc.cast(t["bucket"], pa.int64()),
            "ccos": pa.array(round6(ccos)),
            "keep": pa.array((~removed).astype(np.int64)),
        })

    assigned = emb_ds.map_batches(assign, batch_format="pyarrow",
                                  zero_copy_batch=True)
    return assigned.groupby("bucket").map_groups(verify,
                                                 batch_format="pyarrow")


# ----------------------------------------------------------------------
# shingle containment (asymmetric near-dup: quote / subset detection)
# ----------------------------------------------------------------------
def containment_all_pairs(docs_ds, threshold=0.5, shingle_k=3,
                          num_partitions=8):
    """Directed containment pairs: containment(a -> b) =
    |S_a ∩ S_b| / |S_a| — the fraction of a's shingles found in b
    (Broder 1997's other resemblance measure; catches quotes and
    subset documents that symmetric Jaccard misses because the union
    denominator dilutes them). Docs with no shingles emit nothing.

    Same distribution plan as ``jaccard_verify``: per-doc shingle
    signatures computed exactly once, double hash-join onto the
    unordered candidate pairs, each surviving direction emitted from
    the verify kernel. This is the all-pairs oracle-verifiable form
    (like ``jaccard_all_pairs``); at scale feed LSH candidates from
    ``minhash_candidates`` through the same verify."""
    import ray.data as rd
    ids = np.sort(docs_ds.select_columns(["doc_id"]).to_pandas()
                  ["doc_id"].to_numpy(np.int64))
    ii, jj = np.triu_indices(len(ids), k=1)
    pairs = rd.from_arrow(pa.table({"a": pa.array(ids[ii]),
                                    "b": pa.array(ids[jj])}))
    sigs = shingle_signatures(docs_ds, shingle_k)
    left = sigs.map_batches(
        lambda t: t.rename_columns(["a", "sh_a"]),
        batch_format="pyarrow", zero_copy_batch=True)
    right = sigs.map_batches(
        lambda t: t.rename_columns(["b", "sh_b"]),
        batch_format="pyarrow", zero_copy_batch=True)
    K = join_partitions(num_partitions)
    j1 = pairs.join(left, "inner", K, on=("a",))
    j2 = j1.join(right, "inner", K, on=("b",))

    def verify(t: pa.Table) -> pa.Table:
        from leidenalg_ray.util import round_half_away
        src, dst, cont = [], [], []
        sha = t["sh_a"].to_pylist()
        shb = t["sh_b"].to_pylist()
        for i, (x, y) in enumerate(zip(t["a"].to_pylist(),
                                       t["b"].to_pylist())):
            sx = np.frombuffer(sha[i], dtype=np.uint64)
            sy = np.frombuffer(shb[i], dtype=np.uint64)
            inter = len(np.intersect1d(sx, sy, assume_unique=True)) \
                if len(sx) and len(sy) else 0
            for (u, v, su) in ((x, y, sx), (y, x, sy)):
                if len(su) == 0:
                    continue
                c = inter / len(su)
                if c >= threshold:
                    src.append(u)
                    dst.append(v)
                    cont.append(float(round_half_away(c, 6)))
        return pa.table({"a": pa.array(src, pa.int64()),
                         "b": pa.array(dst, pa.int64()),
                         "containment": pa.array(cont, pa.float64())})
    return j2.map_batches(verify, batch_format="pyarrow")


# ----------------------------------------------------------------------
# prefix-filtered set-similarity join (PPJoin-style, Xiao et al. 2008)
# ----------------------------------------------------------------------
def ppjoin_pairs(docs_ds, threshold=0.4, shingle_k=2,
                 num_partitions=8):
    """Shingle-set Jaccard self-join >= ``threshold`` via PREFIX
    filtering (the candidate-pruning idea of PPJoin, Xiao et al.
    2008): order every doc's distinct shingles by (corpus df, hash) —
    rarest first — and emit only its first |d| - ceil(t*|d|) + 1 as
    candidate keys. Two docs can reach the threshold ONLY if their
    prefixes share a shingle (pigeonhole on the Jaccard overlap
    bound), so the candidate set is provably lossless while buckets
    form on RARE shingles instead of an all-pairs product — the
    selectivity LSH gets probabilistically, prefix filtering gets
    exactly.

    Fully distributed: document frequencies attach via one hash-join
    (no driver vocabulary), the per-doc prefix pick is a bounded
    map_groups, and verification is the shared double-hash-join exact
    Jaccard. Returns (a, b, jaccard) with a < b; docs with no
    shingles emit nothing."""
    import math

    def rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        shs = _shingles_batch(t["text"].to_pylist(), shingle_k)
        out_id, out_h = [], []
        for i, sh in enumerate(shs):
            out_id.extend([int(ids[i])] * len(sh))
            out_h.extend(sh.view(np.int64).tolist())
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "h": pa.array(out_h, pa.int64())})

    exp = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        rows, batch_format="pyarrow", zero_copy_batch=True)
    dfq = exp.groupby("h").aggregate(Count(alias_name="df"))         .repartition(num_partitions)   # drop schema-less empties
    joined = exp.join(dfq, "inner", join_partitions(num_partitions),
                      on=("h",)).repartition(num_partitions)

    def prefix(t: pa.Table) -> pa.Table:
        h = t["h"].to_numpy(zero_copy_only=False)
        df = t["df"].to_numpy(zero_copy_only=False)
        did = int(t["doc_id"][0].as_py())
        order = np.lexsort((h, df))
        plen = len(h) - math.ceil(threshold * len(h)) + 1
        return pa.table({
            "h": pa.array(h[order][:plen]),
            "doc_id": pa.array(np.full(plen, did, np.int64)),
        })

    pref = joined.groupby("doc_id").map_groups(
        prefix, batch_format="pyarrow")

    def pairs(t: pa.Table) -> pa.Table:
        ids = np.sort(t["doc_id"].to_numpy(zero_copy_only=False))
        if len(ids) < 2:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        ii, jj = np.triu_indices(len(ids), k=1)
        return pa.table({"a": pa.array(ids[ii]),
                         "b": pa.array(ids[jj])})

    cand = pref.groupby("h").map_groups(pairs, batch_format="pyarrow")         .groupby(["a", "b"]).count().select_columns(["a", "b"])         .repartition(num_partitions)
    return jaccard_verify(cand, docs_ds, threshold=threshold,
                          shingle_k=shingle_k,
                          num_partitions=num_partitions)


# ----------------------------------------------------------------------
# Winnowing (Schleimer, Wilkerson & Aiken, SIGMOD 2003)
# ----------------------------------------------------------------------
def winnow_fingerprints(docs_ds, kgram=4, window=4, concurrency=4):
    """Winnowing document fingerprints: polynomial k-gram hashes over
    the token stream (base 257 mod 2^61-1, same family as
    ``rolling_fingerprint``), minimum per sliding window of
    ``window`` consecutive k-gram hashes, DISTINCT selected values
    per document. The selection guarantee: any shared token run of
    >= kgram + window - 1 tokens produces at least one shared
    fingerprint (the MOSS detection bound). Only the selected VALUE
    SET is kept — tie positions are irrelevant — so the window-min
    list comprehension in SQL reproduces the set exactly.

    Documents with fewer than ``kgram`` tokens emit nothing; with
    1 <= #k-grams < window they emit the single global minimum."""
    P3, P2, P1 = 257 ** 3, 257 ** 2, 257
    if kgram != 4:
        raise ValueError("kgram is fixed at 4 (SQL twin unrolls the "
                         "polynomial)")

    def fp(batch: pa.Table) -> pa.Table:
        from numpy.lib.stride_tricks import sliding_window_view
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        all_toks, spans = [], []
        for t in texts:
            toks = TOKEN_RE.findall(t.lower())
            spans.append((len(all_toks), len(all_toks) + len(toks)))
            all_toks.extend(toks)
        hv = hash_tokens(all_toks)
        out_id, out_fp = [], []
        for i, (lo, hi) in enumerate(spans):
            h = hv[lo:hi].astype(object)
            if len(h) < 4:
                continue
            # full-precision Horner then one mod — exactly the SQL
            # sum h[j+t]*257^(3-t) % M61
            g = ((h[:-3] * P3 + h[1:-2] * P2 + h[2:-1] * P1
                  + h[3:]) % _M61).astype(np.int64)
            if len(g) < window:
                sel = np.array([g.min()], dtype=np.int64)
            else:
                sel = sliding_window_view(g, window).min(axis=1)
            sel = np.unique(sel)
            out_id.append(np.full(len(sel), ids[i], dtype=np.int64))
            out_fp.append(sel)
        if not out_id:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "fp": pa.array([], pa.int64())})
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_id)),
            "fp": pa.array(np.concatenate(out_fp)),
        })

    return docs_ds.map_batches(fp, batch_format="pyarrow",
                               zero_copy_batch=True)


def winnow_matches(docs_ds, kgram=4, window=4, min_shared=2,
                   max_bucket=2000, drop_counter=None,
                   concurrency=4):
    """Cross-document overlap pairs from shared winnowing
    fingerprints: bucket by fingerprint value (the same
    bucket-groupby shape as LSH bands — never all-pairs), pairs
    within a bucket, count shared fingerprints per (a < b) pair,
    keep pairs sharing >= ``min_shared``. Buckets above
    ``max_bucket`` ids (degenerate boilerplate) are dropped with a
    warning + ``DropCounter``, like every other capped stage."""
    fps = winnow_fingerprints(docs_ds, kgram=kgram, window=window,
                              concurrency=concurrency)

    def pairs(t: pa.Table) -> pa.Table:
        ids = np.sort(t["doc_id"].to_numpy(zero_copy_only=False))
        if len(ids) > max_bucket:
            if drop_counter is not None:
                drop_counter.add.remote(len(ids))
            logger.warning(
                "winnow fingerprint bucket with %d ids exceeds "
                "max_bucket=%d — dropping its pairs (skew guard)",
                len(ids), max_bucket)
            ids = ids[:0]
        if len(ids) < 2:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        ii, jj = np.triu_indices(len(ids), k=1)
        return pa.table({"a": pa.array(ids[ii]),
                         "b": pa.array(ids[jj])})

    from ray.data.aggregate import Count as _Count
    cand = fps.groupby("fp").map_groups(pairs, batch_format="pyarrow")
    agg = cand.groupby(["a", "b"]).aggregate(
        _Count(alias_name="n_shared"))

    def keep(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:  # dataless shuffle partition
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "n_shared": pa.array([], pa.int64())})
        t = t.filter(pc.greater_equal(t["n_shared"], min_shared))
        return pa.table({
            "a": pc.cast(t["a"], pa.int64()),
            "b": pc.cast(t["b"], pa.int64()),
            "n_shared": pc.cast(t["n_shared"], pa.int64()),
        })

    return agg.map_batches(keep, batch_format="pyarrow",
                           zero_copy_batch=True)


def _gram_hashes(texts, n):
    """Per-doc ``n``-gram polynomial hashes over the token stream
    (base 257 mod 2^61-1, full-precision Horner — same family as
    ``winnow_fingerprints``). Tokens are lowercased ``[a-z0-9]+``
    runs (the shared SQL-twin tokenizer). Returns a list of int64
    arrays, one per text; docs with < n tokens yield an empty array.
    Token hashes come from ``hash_tokens`` (md5 once per DISTINCT
    token), so the per-gram cost is n vectorised object-int ops."""
    import re
    tok = re.compile(r"[a-z0-9]+")
    all_toks, spans = [], []
    for t in texts:
        ts = tok.findall(t.lower())
        spans.append((len(all_toks), len(all_toks) + len(ts)))
        all_toks.extend(ts)
    hv = hash_tokens(all_toks)
    pows = [257 ** (n - 1 - j) for j in range(n)]
    out = []
    for lo, hi in spans:
        h = hv[lo:hi].astype(object)
        if len(h) < n:
            out.append(np.empty(0, np.int64))
            continue
        m = len(h) - n + 1
        acc = h[:m] * pows[0]
        for j in range(1, n):
            acc = acc + h[j:m + j] * pows[j]
        out.append((acc % _M61).astype(np.int64))
    return out


def exact_substr_spans(docs_ds, n=8):
    """ExactSubstr-style duplicated-span detection (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"): a
    token ``n``-gram is *duplicated* when it occurs >= 2 times in the
    corpus (across OR within documents); per document, overlapping /
    adjacent duplicated grams merge into maximal spans. Output one
    row per span: (doc_id, span_start, span_end) in token positions,
    end exclusive (span covers tokens [start, end)).

    Shape (100-TB path): pass 1 hashes grams (md5-per-distinct-token
    + vectorised polynomial roll) and pre-aggregates per batch, so
    the shuffle carries one (gram, min_doc, max_doc, cnt) row per
    distinct gram per batch — the exact-substring analogue of the
    suffix-array build, and the only token-stream-sized exchange.
    The duplicated-gram set that comes back is bounded by the
    CORPUS'S DUPLICATION VOLUME, not its size; it is broadcast once
    (``ray.put``) for the second scoring pass. If duplication volume
    ever exceeded worker memory, swap the broadcast for a hash
    semi-join of (gram, doc, pos) against the dup set — same
    semantics, one extra exchange. Span-merging is per-document and
    never leaves the batch."""
    import ray
    from ray.data.aggregate import Max, Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        gs = _gram_hashes(t["text"].to_pylist(), n)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        g = np.concatenate(gs) if gs else np.empty(0, np.int64)
        d = np.concatenate([np.full(len(a), i, np.int64)
                            for a, i in zip(gs, ids)]) \
            if gs else np.empty(0, np.int64)
        agg = pa.table({"g": pa.array(g), "d": pa.array(d)}) \
            .group_by("g").aggregate([("d", "min"), ("d", "max"),
                                      ([], "count_all")])
        return pa.table({"g": agg["g"],
                         "mind": agg["d_min"],
                         "maxd": agg["d_max"],
                         "cnt": agg["count_all"]})

    per_gram = docs_ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True) \
        .groupby("g").aggregate(Min("mind", alias_name="mind"),
                                Max("maxd", alias_name="maxd"),
                                Sum("cnt", alias_name="cnt"))

    def dup_only(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:  # dataless shuffle partition
            return pa.table({"g": pa.array([], pa.int64())})
        return pa.table(
            {"g": t.filter(pc.greater_equal(t["cnt"], 2))["g"]})

    dp = per_gram.map_batches(dup_only,
                              batch_format="pyarrow").to_pandas()
    # a corpus with NO duplicated grams yields an all-empty dataset
    # whose schema-less blocks skip dup_only (map_batches passes
    # empties through uncalled) — treat missing column as empty set
    dup = dp["g"].to_numpy(np.int64) if "g" in dp.columns \
        else np.empty(0, np.int64)
    dup_ref = ray.put(np.sort(dup))

    def spans(t: pa.Table) -> pa.Table:
        dup_sorted = ray.get(dup_ref)
        gs = _gram_hashes(t["text"].to_pylist(), n)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_d, out_s, out_e = [], [], []
        for a, i in zip(gs, ids):
            if len(a) == 0:
                continue
            pos = np.searchsorted(dup_sorted, a)
            pos = np.minimum(pos, len(dup_sorted) - 1) \
                if len(dup_sorted) else pos
            hit = np.flatnonzero(
                (dup_sorted[pos] == a) if len(dup_sorted) else
                np.zeros(len(a), bool))
            if len(hit) == 0:
                continue
            new = np.ones(len(hit), bool)
            new[1:] = hit[1:] - hit[:-1] > n
            starts = np.flatnonzero(new)
            ends = np.r_[starts[1:], len(hit)] - 1
            out_d.append(np.full(len(starts), i, np.int64))
            out_s.append(hit[starts].astype(np.int64))
            out_e.append(hit[ends].astype(np.int64) + n)
        if not out_d:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "span_start": pa.array([], pa.int64()),
                             "span_end": pa.array([], pa.int64())})
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_d)),
            "span_start": pa.array(np.concatenate(out_s)),
            "span_end": pa.array(np.concatenate(out_e)),
        })

    return docs_ds.map_batches(spans, batch_format="pyarrow",
                               zero_copy_batch=True)


def exact_substr_rewrite(docs_ds, n=8, emit_text=False):
    """The ExactSubstr *apply* step (Lee et al. 2022): cut every
    duplicated-``n``-gram-covered token from each document and emit
    (doc_id, n_tokens, n_cut, clean_md5) where ``clean_md5`` is the
    md5 of the surviving tokens joined by single spaces — a slim,
    value-checkable fingerprint of the rewritten corpus (the same
    md5-pinned-rewrite trick as ``strip_boilerplate``).

    Same two-pass shape as ``exact_substr_spans`` (one gram-partial
    shuffle + broadcast dup set); the rewrite itself is per-document
    and never leaves the batch. Coverage marking is the interval
    +1/-1 cumsum, not a per-position loop. ``emit_text=True`` adds a
    ``clean_text`` column (the surviving tokens) for curation jobs
    that write the rewritten corpus; the default stays slim for the
    oracle row."""
    import ray
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        gs = _gram_hashes(t["text"].to_pylist(), n)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        g = np.concatenate(gs) if gs else np.empty(0, np.int64)
        d = np.concatenate([np.full(len(a), i, np.int64)
                            for a, i in zip(gs, ids)]) \
            if gs else np.empty(0, np.int64)
        agg = pa.table({"g": pa.array(g), "d": pa.array(d)}) \
            .group_by("g").aggregate([([], "count_all")])
        return pa.table({"g": agg["g"], "cnt": agg["count_all"]})

    per_gram = docs_ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True) \
        .groupby("g").aggregate(Sum("cnt", alias_name="cnt"))

    def dup_only(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return pa.table({"g": pa.array([], pa.int64())})
        return pa.table(
            {"g": t.filter(pc.greater_equal(t["cnt"], 2))["g"]})

    dp = per_gram.map_batches(dup_only,
                              batch_format="pyarrow").to_pandas()
    dup = dp["g"].to_numpy(np.int64) if "g" in dp.columns \
        else np.empty(0, np.int64)  # no duplicated grams anywhere
    dup_ref = ray.put(np.sort(dup))

    import re
    tok_re = re.compile(r"[a-z0-9]+")

    def rewrite(t: pa.Table) -> pa.Table:
        dup_sorted = ray.get(dup_ref)
        texts = t["text"].to_pylist()
        gs = _gram_hashes(texts, n)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_d, out_nt, out_nc, out_h = [], [], [], []
        out_t = []
        for a, i, txt in zip(gs, ids, texts):
            toks = tok_re.findall(txt.lower())
            nt = len(toks)
            if len(a) and len(dup_sorted):
                pos = np.minimum(np.searchsorted(dup_sorted, a),
                                 len(dup_sorted) - 1)
                hit = np.flatnonzero(dup_sorted[pos] == a)
            else:
                hit = np.empty(0, np.int64)
            delta = np.zeros(nt + 1, np.int64)
            np.add.at(delta, hit, 1)
            np.add.at(delta, np.minimum(hit + n, nt), -1)
            covered = np.cumsum(delta[:nt]) > 0
            kept = [w for w, c in zip(toks, covered) if not c]
            clean = " ".join(kept)
            out_d.append(int(i))
            out_nt.append(nt)
            out_nc.append(int(covered.sum()))
            out_h.append(hashlib.md5(
                clean.encode("utf-8")).hexdigest())
            if emit_text:
                out_t.append(clean)
        cols = {
            "doc_id": pa.array(out_d, pa.int64()),
            "n_tokens": pa.array(out_nt, pa.int64()),
            "n_cut": pa.array(out_nc, pa.int64()),
            "clean_md5": pa.array(out_h, pa.string()),
        }
        if emit_text:
            cols["clean_text"] = pa.array(out_t, pa.string())
        return pa.table(cols)

    return docs_ds.map_batches(rewrite, batch_format="pyarrow",
                               zero_copy_batch=True)
