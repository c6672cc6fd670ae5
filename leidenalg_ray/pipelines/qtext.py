"""Text-analysis catalogue rows — see queries.py."""

from .qcore import *  # noqa: F401,F403
from .qcore import (  # noqa: F401
    _FunnelFlags,
    _M61_SQL,
    _SQL_TOKEN_HASHES,
    _docs,
)


# ======================================================================
# Text analysis
# ======================================================================
def q_token_counts(sf_dir):
    return tx.token_counts(_docs(sf_dir))


SQL_TOKEN_COUNTS = """
SELECT doc_id,
       len(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS n_tokens,
       len(list_filter(regexp_extract_all(lower(text), '[a-z0-9_]+'),
           x -> x IN ('the','and','of','a','to','is','in','it','that',
                      'for'))) AS n_stopwords,
       length(text) AS n_chars
FROM documents
"""


def q_doc_quality(sf_dir):
    return tx.quality_scores(_docs(sf_dir))


SQL_DOC_QUALITY = """
SELECT doc_id,
       len(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS n_tokens,
       round(len(list_filter(regexp_extract_all(lower(text),
                 '[a-z0-9_]+'),
             x -> x IN ('the','and','of','a','to','is','in','it','that',
                        'for')))
           / greatest(1, len(regexp_extract_all(lower(text),
                 '[a-z0-9_]+'))), 6) AS stop_ratio,
       round(length(regexp_replace(text, '[^A-Za-z0-9_ ]', '', 'g'))
           / greatest(1, length(text)), 6) AS alnum_ratio
FROM documents
"""


def q_lang_id(sf_dir):
    return tx.lang_id(_docs(sf_dir))


def _lang_score_sql(lang):
    words = ",".join(f"'{w}'" for w in tx.LANG_MARKERS[lang])
    return ("len(list_filter(regexp_extract_all(lower(text), "
            f"'[a-z0-9_]+'), x -> x IN ({words})))")


SQL_LANG_ID = f"""
SELECT doc_id,
       CASE
         WHEN {_lang_score_sql('en')} >= {_lang_score_sql('de')}
          AND {_lang_score_sql('en')} >= {_lang_score_sql('fr')}
           THEN 'en'
         WHEN {_lang_score_sql('de')} >= {_lang_score_sql('fr')}
           THEN 'de'
         ELSE 'fr'
       END AS pred_lang
FROM documents
"""


# ======================================================================
# Dedup
# ======================================================================
# doc-id hash expression shared by the sampling / split oracles —
# identical to stages/pack._id_hash (md5 first 8 bytes, big-endian)
_SQL_DOC_HASH = ("('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))"
                 "::UBIGINT")


def q_doc_sample(sf_dir):
    """Deterministic ~10% corpus sample by id-hash residue."""
    from ..stages import pack as pk
    return pk.hash_sample(_docs(sf_dir, columns=("doc_id",)),
                          mod=10, keep=0)


SQL_DOC_SAMPLE = f"""
SELECT doc_id FROM documents WHERE {_SQL_DOC_HASH} % 10 = 0
"""


def q_doc_split(sf_dir):
    """Deterministic 80/10/10 train/val/test assignment by id-hash
    percentile."""
    from ..stages import pack as pk
    return pk.hash_split(_docs(sf_dir, columns=("doc_id",)))


SQL_DOC_SPLIT = f"""
SELECT doc_id,
       CASE WHEN {_SQL_DOC_HASH} % 100 < 80 THEN 'train'
            WHEN {_SQL_DOC_HASH} % 100 < 90 THEN 'val'
            ELSE 'test' END AS split
FROM documents
"""


PACK_BUDGET = 512


def q_doc_pack_chunks(sf_dir):
    """Sequence packing (greedy concat-and-cut): chunk assignment via
    a distributed prefix scan over doc_id order — per-bucket token
    totals, driver-side exclusive offsets (O(n_docs/bucket) state),
    one hash shuffle on the bucket key."""
    from ..stages import pack as pk
    return pk.pack_chunks(_docs(sf_dir), budget=PACK_BUDGET)


SQL_DOC_PACK_CHUNKS = f"""
WITH tok AS (SELECT doc_id,
                    len(regexp_extract_all(lower(text), '[a-z0-9_]+'))
                      AS n_tokens
             FROM documents),
c AS (SELECT doc_id, n_tokens,
             COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS prev
      FROM tok)
SELECT doc_id, n_tokens,
       CAST(prev // {PACK_BUDGET} AS BIGINT) AS chunk_id
FROM c
"""


VOCAB_TOP_K = 50


def q_vocab_top_terms(sf_dir):
    """Corpus vocabulary build (the BPE-ish pre-tokenization stat a
    training pipeline runs first): top-50 ``[a-z0-9]+`` tokens by
    frequency across all documents."""
    return tx.vocab_top_terms(_docs(sf_dir, columns=("text",)),
                              k=VOCAB_TOP_K)


SQL_VOCAB_TOP_TERMS = f"""
WITH toks AS (
  SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))
           AS term
  FROM documents),
agg AS (SELECT term, count(*) AS n FROM toks WHERE term <> ''
        GROUP BY term)
SELECT term, n FROM agg ORDER BY n DESC, term ASC LIMIT {VOCAB_TOP_K}
"""


TFIDF_K = 5


def q_tfidf_topk(sf_dir):
    """Top-5 terms per document by tf-idf: one vocab-sized df groupby
    (per-batch partials) + broadcast lookup; scoring and per-doc top-k
    stay shuffle-free because a doc is complete within its row."""
    return tx.tfidf_topk(_docs(sf_dir), k=TFIDF_K)


SQL_TFIDF_TOPK = f"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))
           AS term
  FROM documents),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term <> '' GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
n AS (SELECT count(*) AS n FROM documents),
scored AS (SELECT tf.doc_id, tf.term,
                  tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS tfidf
           FROM tf JOIN df USING (term) CROSS JOIN n),
ranked AS (SELECT doc_id, term, tfidf,
                  row_number() OVER (PARTITION BY doc_id
                                     ORDER BY tfidf DESC, term ASC)
                    AS rn
           FROM scored)
SELECT doc_id, term, round(tfidf, 6) AS tfidf
FROM ranked WHERE rn <= {TFIDF_K}
"""
BM25_K = 10
BM25_K1 = 1.2
BM25_B = 0.75


def q_bm25_topk(sf_dir):
    """BM25 top-10 documents for a fixed 5-term query (Robertson/
    Lucene idf). Pass 1 is a shuffle-free streaming reduction
    (n_docs, total tokens, per-term df); pass 2 scores in parallel
    with a per-batch partial top-k, so only k x n_batches rows reach
    the final sort. Ranks by the ROUNDED score (both sides) so a
    last-ulp ln() difference between numpy and DuckDB can't flip the
    k boundary."""
    return tx.bm25_topk(_docs(sf_dir), BM25_TERMS, k=BM25_K,
                        k1=BM25_K1, b=BM25_B)


SQL_BM25_TOPK = f"""
WITH q(term) AS (
  SELECT unnest({list(BM25_TERMS)!r})),
toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))
           AS term
  FROM documents),
tok2 AS (SELECT * FROM toks WHERE term <> ''),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT CAST(count(*) AS DOUBLE) FROM tok2)
           / (SELECT count(*) FROM documents) AS avgdl),
dl AS (SELECT d.doc_id, count(t.term) AS dl
       FROM documents d LEFT JOIN tok2 t USING (doc_id) GROUP BY 1),
df AS (SELECT q.term, count(DISTINCT t.doc_id) AS df
       FROM q LEFT JOIN tok2 t ON t.term = q.term GROUP BY 1),
tf AS (SELECT t.doc_id, t.term, count(*) AS tf
       FROM tok2 t JOIN q USING (term) GROUP BY 1, 2),
scored AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * ({BM25_K1} + 1)
             / (tf.tf + {BM25_K1} * (1 - {BM25_B}
                + {BM25_B} * dl.dl / stats.avgdl))) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id)
  CROSS JOIN stats GROUP BY 1)
SELECT doc_id, round(s, 6) AS score FROM scored
WHERE round(s, 6) > 0
ORDER BY round(s, 6) DESC, doc_id ASC LIMIT {BM25_K}
"""


SHUFFLE_SEED = 17


def q_docs_shuffle(sf_dir):
    """Seeded global training order: dense rank 0..n-1 in
    md5(seed:doc_id) order via order-compatible md5-prefix range
    buckets (one B-row count groupby + per-bucket key sort; O(B)
    driver state) — never a whole-corpus sort."""
    from ..stages import pack as pk
    return pk.global_shuffle_rank(_docs(sf_dir, columns=("doc_id",)),
                                  seed=SHUFFLE_SEED)


SQL_DOCS_SHUFFLE = f"""
SELECT doc_id,
       row_number() OVER (
         ORDER BY md5('{SHUFFLE_SEED}:' || CAST(doc_id AS VARCHAR)))
         - 1 AS rank
FROM documents
"""


def q_doc_cdc_chunks(sf_dir):
    """Content-defined chunking: boundaries where the 4-token gram
    hash is 0 mod 16; per-chunk (idx, token count, md5). Exact SQL
    twin via the shared md5-token-hash + base-257 polynomial CTEs."""
    return tx.cdc_chunks(_docs(sf_dir), mod=CDC_MOD)


def _sql_doc_cdc_chunks():
    """Deferred build: reuses ``_SQL_TOKEN_HASHES`` / ``_M61_SQL``
    (defined later in this module)."""
    return f"""
WITH {_SQL_TOKEN_HASHES},
g AS (SELECT doc_id,
        CASE WHEN len(h) >= 4 THEN
          [(h[j]::HUGEINT * 16974593 + h[j+1]::HUGEINT * 66049
            + h[j+2]::HUGEINT * 257 + h[j+3]::HUGEINT) % {_M61_SQL}
           FOR j IN range(1, len(h) - 2)]
        ELSE [] END AS gs
      FROM th),
bounds AS (
  SELECT doc_id, unnest([j + 3 FOR j IN range(1, len(gs) + 1)
                         IF gs[j] % {CDC_MOD} = 0]) AS be
  FROM g),
tokpos AS (
  SELECT doc_id,
         unnest([{{'i': i, 'w': tk[i]}}
                 FOR i IN range(1, len(tk) + 1)],
                recursive := true)
  FROM toks),
cid AS (SELECT tp.doc_id, tp.i, tp.w, count(b.be) AS c
        FROM tokpos tp LEFT JOIN bounds b
          ON b.doc_id = tp.doc_id AND b.be < tp.i
        GROUP BY tp.doc_id, tp.i, tp.w)
SELECT doc_id, c AS chunk_idx, CAST(count(*) AS BIGINT) AS n_tokens,
       md5(string_agg(w, ' ' ORDER BY i)) AS chunk_md5
FROM cid GROUP BY doc_id, c
"""


PHRASE = ("slow", "hash", "batch")


def q_phrase_search(sf_dir):
    """Exact phrase search ("slow hash batch"): every (doc_id,
    token position) where the consecutive token triple matches —
    vectorised shifted equality per document row, no index, no
    shuffle."""
    docs = _docs(sf_dir)
    p0, p1, p2 = PHRASE

    def hits(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                      "[^a-z0-9]+")
        flat = toks.to_pylist()
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_d, out_p = [], []
        for i, ts in enumerate(flat):
            ts = [w for w in ts if w]
            a = np.asarray(ts, dtype=object)
            if len(a) < 3:
                continue
            m = (a[:-2] == p0) & (a[1:-1] == p1) & (a[2:] == p2)
            for p in np.flatnonzero(m):
                out_d.append(int(ids[i]))
                out_p.append(int(p))
        return pa.table({"doc_id": pa.array(out_d, pa.int64()),
                         "pos": pa.array(out_p, pa.int64())})

    return docs.map_batches(hits, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_PHRASE_SEARCH = f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
g AS (SELECT doc_id,
        unnest([{{'pos': j - 1,
                 'g': array_to_string(ts[j : j + 2], ' ')}}
                FOR j IN range(1, len(ts) - 1)],
               recursive := true)
      FROM toks)
SELECT doc_id, CAST(pos AS BIGINT) AS pos
FROM g WHERE g = '{' '.join(PHRASE)}'
"""


def q_doc_winnow_matches(sf_dir):
    """Winnowing (MOSS) overlap pairs: k-gram polynomial hashes ->
    sliding-window minima -> distinct selected fingerprints per doc
    -> bucket-groupby on fingerprint value -> pairs sharing >=
    WINNOW_MIN_SHARED fingerprints (``stages/dedup.winnow_matches``;
    Schleimer, Wilkerson & Aiken, SIGMOD 2003). Detects partial
    overlap runs >= kgram+window-1 tokens — the positional
    complement to MinHash's whole-doc Jaccard. The engine's
    >WINNOW_MAX_BUCKET fingerprint-bucket cap is replicated in the
    oracle (HAVING count <= cap), like the cocitation degree cap."""
    return dd.winnow_matches(_docs(sf_dir),
                             min_shared=WINNOW_MIN_SHARED,
                             max_bucket=WINNOW_MAX_BUCKET)


SQL_DOC_WINNOW_MATCHES = f"""
WITH {_SQL_TOKEN_HASHES},
g AS (SELECT doc_id,
        CASE WHEN len(h) >= 4 THEN
          [(h[j]::HUGEINT * 16974593 + h[j+1]::HUGEINT * 66049
            + h[j+2]::HUGEINT * 257 + h[j+3]::HUGEINT) % {_M61_SQL}
           FOR j IN range(1, len(h) - 2)]
        ELSE [] END AS gs
      FROM th),
sel AS (SELECT doc_id,
          list_distinct(CASE
            WHEN len(gs) = 0 THEN []
            WHEN len(gs) < 4 THEN [list_min(gs)]
            ELSE [list_min(gs[j : j + 3])
                  FOR j IN range(1, len(gs) - 2)]
          END) AS fps
        FROM g),
fp AS (SELECT doc_id, CAST(unnest(fps) AS BIGINT) AS fp FROM sel),
ok AS (SELECT fp FROM fp GROUP BY fp
       HAVING count(*) <= {WINNOW_MAX_BUCKET})
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM fp x JOIN fp y ON x.fp = y.fp AND x.doc_id < y.doc_id
JOIN ok ON ok.fp = x.fp
GROUP BY 1, 2
HAVING count(*) >= {WINNOW_MIN_SHARED}
"""


BPE_TOPK = 20


def q_bpe_merge_candidates(sf_dir):
    """Tokenizer-training primitive — the counting step of one BPE
    merge round (Sennrich et al. 2016): frequency of every adjacent
    CHARACTER pair across all word occurrences in the corpus; the
    argmax pair is the merge a BPE trainer would perform. Per-batch
    partial counts use a distinct-word cache (pairs counted once per
    distinct word, scaled by its batch multiplicity — the
    ``hash_tokens`` trick), then one bounded pair groupby. All
    integers; top BPE_TOPK by (count desc, pair asc)."""
    docs = _docs(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        from collections import Counter
        cnt = Counter()
        for txt in t["text"].to_pylist():
            words = tx.TOKEN_RE.findall(txt.lower())
            uw, uc = np.unique(np.asarray(words, dtype=object),
                               return_counts=True)
            for w, c in zip(uw, uc):
                # the SQL oracle enumerates pair positions with
                # generate_series(1, 30): fail loudly past its bound
                assert len(w) <= 31, \
                    f"word of length {len(w)} exceeds the SQL " \
                    f"oracle's generate_series bound"
                for i in range(len(w) - 1):
                    cnt[w[i:i + 2]] += int(c)
        if not cnt:
            return pa.table({"pair": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        ks = sorted(cnt)
        return pa.table({"pair": pa.array(ks, pa.string()),
                         "n": pa.array([cnt[k] for k in ks],
                                       pa.int64())})

    agg = docs.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)         .groupby("pair").aggregate(Sum("n", alias_name="n"))         .to_pandas()
    agg = agg.sort_values(["n", "pair"],
                          ascending=[False, True]).head(BPE_TOPK)
    return pa.table({
        "pair": pa.array(agg["pair"].astype(str), pa.string()),
        "n": pa.array(agg["n"].to_numpy(np.int64)),
    })


SQL_BPE_MERGE_CANDIDATES = f"""
WITH w AS (SELECT unnest(regexp_extract_all(lower(text),
                                            '[a-z0-9_]+')) AS w
           FROM documents),
p AS (SELECT substr(w, i, 2) AS pair
      FROM w, generate_series(1, 30) gs(i)
      WHERE i <= len(w) - 1)
SELECT pair, CAST(count(*) AS BIGINT) AS n
FROM p GROUP BY pair
ORDER BY n DESC, pair LIMIT {BPE_TOPK}
"""


def q_bloom_seen_parts(sf_dir):
    """Bloom-filter seen-set (``stages/sketch.py``): build the
    4096-bit / k=4 filter over the DISTINCT part keys appearing in
    lineitem (per-batch word-OR partials, O(1) driver state), then
    probe every part key plus a shifted non-member range. No false
    negatives by construction; the false-positive pattern is
    deterministic (md5 bit positions), so the SQL twin reproduces the
    ENTIRE output bit for bit — build and probe."""
    from ..stages import sketch as sk
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey"])
    words = sk.bloom_build(li, "l_partkey")
    pk = rd.read_parquet(f"{sf_dir}/part.parquet",
                         columns=["p_partkey"])

    def mk_probes(t: pa.Table) -> pa.Table:
        x = t["p_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"probe_id": pa.array(
            np.concatenate([x, x + 1_000_000]))})

    probes = pk.map_batches(mk_probes, batch_format="pyarrow",
                            zero_copy_batch=True)
    return sk.bloom_contains(probes, "probe_id", words)


SQL_BLOOM_SEEN_PARTS = """
WITH ins AS (SELECT DISTINCT l_partkey AS x FROM lineitem),
js AS (SELECT unnest([0, 1, 2, 3]) AS j),
ipos AS (SELECT (('0x' || substr(md5(CAST(j AS VARCHAR) || ':'
                                     || CAST(x AS VARCHAR)), 1, 16))
                 ::UBIGINT % 4096) AS pos
         FROM ins CROSS JOIN js),
words AS (SELECT pos // 64 AS w,
                 bit_or(1::UBIGINT << CAST(pos % 64 AS INT)) AS bits
          FROM ipos GROUP BY 1),
probes AS (SELECT CAST(p_partkey AS BIGINT) AS probe_id FROM part
           UNION ALL
           SELECT CAST(p_partkey AS BIGINT) + 1000000 FROM part),
ppos AS (SELECT probe_id, j,
                (('0x' || substr(md5(CAST(j AS VARCHAR) || ':'
                     || CAST(probe_id AS VARCHAR)), 1, 16))
                 ::UBIGINT % 4096) AS pos
         FROM probes CROSS JOIN js),
hits AS (SELECT probe_id, j,
                coalesce(((w.bits >> CAST(pos % 64 AS INT))
                          & 1) = 1, FALSE) AS b
         FROM ppos LEFT JOIN words w ON w.w = pos // 64)
SELECT probe_id,
       CAST(CASE WHEN bool_and(b) THEN 1 ELSE 0 END AS BIGINT)
           AS maybe_present
FROM hits GROUP BY probe_id
"""


DOC_LANGS = ("de", "en", "es", "fr", "zh")


def q_docs_pivot_lang(sf_dir):
    """Pivot / conditional aggregation: documents per source with one
    count column per language. The pivot happens INSIDE the per-batch
    partial (one int64 column per known language), so the shuffle
    carries |sources| x (|langs|+1) integers, not the document rows."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["source", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        lang = t["lang"].to_numpy(zero_copy_only=False)
        cols = {"source": t["source"]}
        for lg in DOC_LANGS:
            cols[f"n_{lg}"] = pa.array(
                (lang == lg).astype(np.int64))
        return pa.table(cols).group_by("source").aggregate(
            [(f"n_{lg}", "sum") for lg in DOC_LANGS]) \
            .rename_columns(["source"] + [f"n_{lg}" for lg in DOC_LANGS])

    agg = docs.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True) \
        .groupby("source").aggregate(
            *[Sum(f"n_{lg}", alias_name=f"n_{lg}") for lg in DOC_LANGS])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {"source": t["source"],
             **{f"n_{lg}": pc.cast(t[f"n_{lg}"], pa.int64())
                for lg in DOC_LANGS}})
    return agg.map_batches(finish, batch_format="pyarrow")


SQL_DOCS_PIVOT_LANG = """
SELECT source,
       count(*) FILTER (WHERE lang = 'de') AS n_de,
       count(*) FILTER (WHERE lang = 'en') AS n_en,
       count(*) FILTER (WHERE lang = 'es') AS n_es,
       count(*) FILTER (WHERE lang = 'fr') AS n_fr,
       count(*) FILTER (WHERE lang = 'zh') AS n_zh
FROM documents GROUP BY source
"""


STRATA_RATES = {"en": 2, "de": 3, "es": 3, "fr": 3, "zh": 3}


def q_doc_sample_stratified(sf_dir):
    """Stratified deterministic sampling: per-language keep rates
    (1/2 for en, 1/3 otherwise) by id-hash residue — the
    training-data rebalancing op (downsample the dominant language).
    Pure map stage, no shuffle; reproducible across runs, shards and
    parallelism (same md5 id-hash as ``stages/pack.hash_sample``)."""
    from ..stages.pack import _id_hash
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])

    def pick(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        lang = t["lang"].to_numpy(zero_copy_only=False)
        h = _id_hash(ids)
        keep = np.zeros(len(ids), dtype=bool)
        for lg, mod in STRATA_RATES.items():
            m = lang == lg
            keep[m] = (h[m] % np.uint64(mod)) == np.uint64(0)
        return pa.table({"doc_id": pa.array(ids[keep]),
                         "lang": pa.array(lang[keep], pa.string())})

    return docs.map_batches(pick, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_DOC_SAMPLE_STRATIFIED = """
WITH h AS (SELECT doc_id, lang,
                  ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                    ::UBIGINT AS h
           FROM documents)
SELECT doc_id, lang FROM h
WHERE h % (CASE WHEN lang = 'en' THEN 2 ELSE 3 END) = 0
"""


def q_doc_pii_scrub(sf_dir):
    """PII scrubbing (email/phone masking) — the synthetic corpus has
    no PII, so the query plants a deterministic contact line per doc
    (derived from doc_id only) and scrubs it: the stage's RE2 masking
    + counts run for real and the SQL oracle replants and re-scrubs
    with the SAME pattern strings (DuckDB is also RE2)."""
    docs = _docs(sf_dir)

    def plant(t: pa.Table) -> pa.Table:
        i = pc.cast(t["doc_id"], pa.string())
        ph = pc.cast(pc.add(pc.multiply(t["doc_id"], 7), 1000000),
                     pa.string())
        dirty = pc.binary_join_element_wise(
            t["text"], " contact doc", i, "@mail.example.com or +1555",
            ph, " now", "")
        return pa.table({"doc_id": t["doc_id"], "text": dirty})

    return tx.pii_scrub(docs.map_batches(plant, batch_format="pyarrow",
                                         zero_copy_batch=True))


SQL_DOC_PII_SCRUB = rf"""
WITH dirty AS (
  SELECT doc_id,
         text || ' contact doc' || CAST(doc_id AS VARCHAR)
              || '@mail.example.com or +1555'
              || CAST(doc_id * 7 + 1000000 AS VARCHAR)
              || ' now' AS text
  FROM documents),
s1 AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text,
              '{tx.PII_EMAIL_RE}')) AS BIGINT) AS n_emails,
         regexp_replace(text, '{tx.PII_EMAIL_RE}', '[EMAIL]', 'g')
           AS text
  FROM dirty)
SELECT doc_id, n_emails,
       CAST(len(regexp_extract_all(text,
            '{tx.PII_PHONE_RE}')) AS BIGINT) AS n_phones,
       md5(regexp_replace(text, '{tx.PII_PHONE_RE}', '[PHONE]', 'g'))
         AS clean_md5
FROM s1
"""


def q_docs_normalize(sf_dir):
    """Text normalisation stage: lowercase, collapse whitespace runs
    to one space, trim; output the md5 of the normalised text (the
    canonical-form fingerprint that exact dedup would key on after
    cleaning). Vectorised RE2 kernels; SQL replicates with
    lower/regexp_replace/trim/md5."""
    import hashlib as _h
    docs = _docs(sf_dir)

    def norm(t: pa.Table) -> pa.Table:
        x = pc.utf8_lower(t["text"])
        x = pc.replace_substring_regex(x, r"\s+", " ")
        x = pc.utf8_trim_whitespace(x)
        return pa.table({
            "doc_id": t["doc_id"],
            "norm_md5": pa.array(
                [_h.md5(s.encode("utf-8")).hexdigest()
                 for s in x.to_pylist()], pa.string()),
        })
    return docs.map_batches(norm, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_DOCS_NORMALIZE = r"""
SELECT doc_id,
       md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g')))
         AS norm_md5
FROM documents
"""


def q_doc_repetition(sf_dir):
    """Word-trigram repetition ratio per doc (boilerplate/loop-spam
    quality signal): 1 - distinct/total trigrams."""
    return tx.repetition_stats(_docs(sf_dir))


SQL_DOC_REPETITION = """
WITH toks AS (SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
              FROM documents),
tri AS (SELECT doc_id,
               ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS g
        FROM toks, UNNEST(generate_series(1, len(ws) - 2)) AS t(i)
        WHERE len(ws) >= 3)
SELECT doc_id,
       count(*) AS n_tri,
       count(DISTINCT g) AS n_uniq,
       round(1.0 - count(DISTINCT g) / count(*), 6) AS rep_ratio
FROM tri GROUP BY doc_id
"""


def q_doc_entropy(sf_dir):
    """Word-unigram Shannon entropy per doc (perplexity-proxy quality
    score; base-2)."""
    return tx.entropy_stats(_docs(sf_dir))


SQL_DOC_ENTROPY = """
WITH toks AS (SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
              FROM documents),
w AS (SELECT doc_id, UNNEST(ws) AS w FROM toks WHERE len(ws) > 0),
cnt AS (SELECT doc_id, w, count(*) AS c FROM w GROUP BY doc_id, w),
tot AS (SELECT doc_id, sum(c) AS n FROM cnt GROUP BY doc_id)
SELECT cnt.doc_id,
       CAST(any_value(tot.n) AS BIGINT) AS n_tokens,
       round(-sum((c / tot.n) * log2(c / tot.n)), 6) AS entropy
FROM cnt JOIN tot ON cnt.doc_id = tot.doc_id
GROUP BY cnt.doc_id
"""


def q_contamination(sf_dir):
    """Benchmark-contamination check: fraction of each training doc's
    word 5-grams present in the eval slice (doc_id % 19 == 0). Eval
    grams are the broadcast small side; the corpus streams."""
    return tx.contamination_check(_docs(sf_dir))


def q_contamination_bloom(sf_dir):
    """The at-scale contamination form: a broadcast Bloom filter
    (2^18 bits over the eval grams) gates the exact membership probe
    — only Bloom-positive grams touch the exact set. No false
    negatives + exact verify make the output bit-identical to the
    unfiltered stage, so the SAME exact SQL oracle is the gate: a
    PASS here proves the prefilter loses nothing."""
    return tx.contamination_check_bloom(_docs(sf_dir))


SQL_CONTAMINATION = """
WITH toks AS (SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
              FROM documents),
g AS (SELECT doc_id,
             ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' ||
             ws[i+3] || ' ' || ws[i+4] AS g
      FROM toks, UNNEST(generate_series(1, len(ws) - 4)) AS t(i)
      WHERE len(ws) >= 5),
ev AS (SELECT DISTINCT g FROM g WHERE doc_id % 19 = 0),
tr AS (SELECT doc_id, g.g AS gg FROM g WHERE doc_id % 19 <> 0)
SELECT tr.doc_id,
       count(*) AS n_grams,
       CAST(sum(CASE WHEN ev.g IS NOT NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS n_hit,
       round(CAST(sum(CASE WHEN ev.g IS NOT NULL THEN 1 ELSE 0 END)
                  AS DOUBLE) / count(*), 6) AS contamination
FROM tr LEFT JOIN ev ON tr.gg = ev.g
GROUP BY tr.doc_id
"""


FUZZY_PREFIX_LEN = 16
FUZZY_BLOCK_LEN = 4
FUZZY_MAX_DIST = 2
FUZZY_BLOCK_CAP = 256  # lowest doc_ids kept per block (skew guard)


def _levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def q_doc_fuzzy_pairs(sf_dir):
    """Fuzzy (edit-distance) string self-join: document pairs whose
    16-char text prefixes are within Levenshtein distance 2,
    candidate-blocked by the 4-char prefix (blocking is part of the
    operator contract — both sides enumerate only in-block pairs).
    One block-key shuffle; per-block O(k^2) verify on short strings.
    Pathological blocks cap at the 256 lowest doc_ids (the dedup
    family's skew guard) — the cap is replicated in the oracle so the
    comparison stays exact."""
    docs = _docs(sf_dir)

    def keyed(t: pa.Table) -> pa.Table:
        s16 = pc.utf8_slice_codeunits(t["text"], 0, FUZZY_PREFIX_LEN)
        blk = pc.utf8_slice_codeunits(t["text"], 0, FUZZY_BLOCK_LEN)
        return pa.table({"doc_id": t["doc_id"], "s16": s16,
                         "blk": blk})

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].to_numpy(np.int64)
        ss_ = g["s16"].to_numpy(object)
        order = np.argsort(ids)
        ids, ss_ = ids[order], ss_[order]
        ids, ss_ = ids[:FUZZY_BLOCK_CAP], ss_[:FUZZY_BLOCK_CAP]
        a_out, b_out, d_out = [], [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                d = _levenshtein(ss_[i], ss_[j])
                if d <= FUZZY_MAX_DIST:
                    a_out.append(ids[i])
                    b_out.append(ids[j])
                    d_out.append(d)
        return pd.DataFrame({
            "a": np.asarray(a_out, dtype=np.int64),
            "b": np.asarray(b_out, dtype=np.int64),
            "dist": np.asarray(d_out, dtype=np.int64)})

    return docs.map_batches(keyed, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .groupby("blk").map_groups(verify, batch_format="pandas")


SQL_DOC_FUZZY_PAIRS = """
WITH s0 AS (SELECT doc_id, substr(text, 1, 16) AS s16,
                   substr(text, 1, 4) AS blk
            FROM documents),
s AS (SELECT doc_id, s16, blk FROM s0
      QUALIFY row_number() OVER (PARTITION BY blk
                                 ORDER BY doc_id) <= 256)
SELECT s1.doc_id AS a, s2.doc_id AS b,
       CAST(levenshtein(s1.s16, s2.s16) AS BIGINT) AS dist
FROM s s1 JOIN s s2 ON s1.blk = s2.blk AND s1.doc_id < s2.doc_id
WHERE levenshtein(s1.s16, s2.s16) <= 2
"""


BLOCKWORDS = ("spark", "slow", "big")


def q_doc_blocklist(sf_dir):
    """Content filtering: per-document blocklist hit count and the
    keep decision (the toxicity/keyword-filter stage of a
    training-data pipeline). Vectorised token scan, no shuffle."""
    docs = _docs(sf_dir)
    block = set(BLOCKWORDS)
    token_re = tx.TOKEN_RE

    def scan(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n_blocked = np.empty(len(texts), dtype=np.int64)
        for i, txt in enumerate(texts):
            n_blocked[i] = sum(1 for w in token_re.findall(txt.lower())
                               if w in block)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_blocked": pa.array(n_blocked),
            "keep": pa.array((n_blocked == 0).astype(np.int64)),
        })

    return docs.map_batches(scan, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_DOC_BLOCKLIST = f"""
SELECT doc_id,
       len(list_filter(regexp_extract_all(lower(text), '[a-z0-9_]+'),
                       x -> x IN {BLOCKWORDS!r}))::BIGINT AS n_blocked,
       CAST(CASE WHEN len(list_filter(
                regexp_extract_all(lower(text), '[a-z0-9_]+'),
                x -> x IN {BLOCKWORDS!r})) = 0
            THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM documents
"""


SEG_LEN = 10



def q_doc_segment_dedup(sf_dir):
    """Segment-level exact dedup ratio (the MassiveText/'Deduplicating
    Training Data' line-dedup op adapted to fixed 10-token chunks):
    per-doc fraction of non-overlapping 10-token segments whose hash
    occurs >= 2 times corpus-wide. Plan: explode segments per batch,
    ONE segment-hash groupby for corpus counts, one hash-join back,
    per-doc count aggregates — no driver-side segment state."""
    from ray.data.aggregate import Count
    segs = _docs(sf_dir).map_batches(_segment_explode,
                                     batch_format="pyarrow",
                                     zero_copy_batch=True)
    cnts = segs.groupby("h").aggregate(Count(alias_name="cnt"))
    dup = cnts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["cnt"], 2)),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = segs.join(dup, "inner", join_partitions(8), on=("h",))
    ndup = joined.groupby("doc_id").aggregate(
        Count(alias_name="n_dup")).to_pandas()
    nseg = segs.groupby("doc_id").aggregate(
        Count(alias_name="n_segs")).to_pandas()
    df = nseg.merge(ndup, on="doc_id", how="left")
    n_segs = df["n_segs"].to_numpy(np.int64)
    n_dup = df["n_dup"].fillna(0).to_numpy(np.int64)
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
        "n_segs": pa.array(n_segs),
        "n_dup": pa.array(n_dup),
        "dup_ratio": pa.array(round6(n_dup / n_segs)),
    })


def _segment_explode(t: pa.Table) -> pa.Table:
    """(doc_id, text) -> one row per non-overlapping SEG_LEN-token
    segment: (doc_id, md5-of-joined-tokens). Same tokenizer as the
    bigram/vocab family."""
    import hashlib
    toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                  "[^a-z0-9]+")
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = flat != ""
    f, p = flat[keep], par[keep]
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    out_id, out_h = [], []
    for row in np.unique(p) if len(p) else []:
        w = f[p == row]
        # the SQL oracle enumerates segments with generate_series(0,
        # 998); a doc with >=999 segments (~9990 tokens) would silently
        # diverge, so fail loudly instead (corpus docs are ~200 tokens)
        assert len(w) // SEG_LEN <= 998, \
            f"doc with {len(w)} tokens exceeds the SQL oracle's " \
            f"generate_series segment bound"
        for k in range(len(w) // SEG_LEN):
            seg = " ".join(w[k * SEG_LEN:(k + 1) * SEG_LEN])
            out_id.append(int(ids[row]))
            out_h.append(hashlib.md5(seg.encode()).hexdigest())
    return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                     "h": pa.array(out_h, pa.string())})


SQL_DOC_SEGMENT_DEDUP = f"""
WITH t AS (SELECT doc_id, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9]+'),
             x -> x <> '') AS arr
           FROM documents),
segs AS (SELECT doc_id,
                md5(array_to_string(
                    arr[(k * {SEG_LEN} + 1):(k * {SEG_LEN} + {SEG_LEN})],
                    ' ')) AS h
         FROM t, generate_series(0, 998) g(k)
         WHERE k < CAST(floor(len(arr) / {SEG_LEN}) AS BIGINT)),
c AS (SELECT h, count(*) AS cnt FROM segs GROUP BY h),
perdoc AS (SELECT s.doc_id, count(*) AS n_segs,
                  sum(CASE WHEN c.cnt >= 2 THEN 1 ELSE 0 END) AS n_dup
           FROM segs s JOIN c ON c.h = s.h GROUP BY 1)
SELECT doc_id, CAST(n_segs AS BIGINT) AS n_segs,
       CAST(n_dup AS BIGINT) AS n_dup,
       round(n_dup / n_segs, 6) AS dup_ratio
FROM perdoc
"""


def q_lang_confusion(sf_dir):
    """Language-ID confusion matrix (lang-id quality audit): the
    LangId actor-pool predictions counted against the ground-truth
    ``lang`` column. The doc->lang map is the broadcast small side
    (at corpus scale: carry ``lang`` through the prediction batch);
    per-batch (true, pred) count partials, |langs|^2-bounded
    groupby."""
    import ray
    meta = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"]).to_pandas()
    lm = dict(zip(meta["doc_id"].astype(int), meta["lang"]))
    lref = ray.put(lm)
    pred = tx.lang_id(_docs(sf_dir))

    def tag(t: pa.Table) -> pa.Table:
        m = ray.get(lref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        tt = pa.table({
            "lang_true": pa.array([m[int(i)] for i in ids],
                                  pa.string()),
            "pred_lang": t["pred_lang"],
        })
        return tt.group_by(["lang_true", "pred_lang"]).aggregate(
            [([], "count_all")]).rename_columns(
                ["lang_true", "pred_lang", "n"])

    out = pred.map_batches(tag, batch_format="pyarrow") \
        .groupby(["lang_true", "pred_lang"]).aggregate(
            Sum("n", alias_name="n"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "lang_true": pc.cast(t["lang_true"], pa.string()),
            "pred_lang": pc.cast(t["pred_lang"], pa.string()),
            "n": pc.cast(t["n"], pa.int64()),
        })
    return out.map_batches(finish, batch_format="pyarrow")


SQL_LANG_CONFUSION = f"""
WITH pred AS ({SQL_LANG_ID})
SELECT d.lang AS lang_true, p.pred_lang, count(*) AS n
FROM pred p JOIN documents d ON d.doc_id = p.doc_id
GROUP BY 1, 2
"""


def q_source_similarity(sf_dir):
    """Corpus-similarity matrix between sources: cosine over the
    per-source term-count vectors — 'which feeds look alike'
    curation diagnostic. Per-batch (source, term) count partials, one
    vocabulary-bounded groupby; the |sources| x |vocab| table is tiny
    whatever the corpus size, so the pairwise cosines assemble on the
    driver. All-integer dot products; sqrt/divide are the only float
    ops, written identically in SQL."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                      "[^a-z0-9]+")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        par = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False)
        keep = flat != ""
        src = t["source"].to_numpy(zero_copy_only=False)[par[keep]]
        df = pd.DataFrame({"source": src, "w": flat[keep]})
        g = df.groupby(["source", "w"], as_index=False).size()
        return pa.table({"source": pa.array(g["source"]),
                         "w": pa.array(g["w"]),
                         "c": pa.array(g["size"].to_numpy(np.int64))})

    agg = docs.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True) \
        .groupby(["source", "w"]).aggregate(
            Sum("c", alias_name="c")).to_pandas()
    piv = agg.pivot_table(index="source", columns="w", values="c",
                          fill_value=0, aggfunc="sum").astype(np.int64)
    srcs = list(piv.index)
    m = piv.to_numpy()
    n2 = (m * m).sum(axis=1)
    oa, ob, od, oc = [], [], [], []
    for i in range(len(srcs)):
        for j in range(len(srcs)):
            if srcs[i] < srcs[j]:
                dot = int(m[i] @ m[j])
                oa.append(srcs[i])
                ob.append(srcs[j])
                od.append(dot)
                oc.append(dot / (np.sqrt(n2[i]) * np.sqrt(n2[j])))
    return pa.table({"src_a": pa.array(oa, pa.string()),
                     "src_b": pa.array(ob, pa.string()),
                     "dot": pa.array(od, pa.int64()),
                     "cos": pa.array(round6(oc))})


SQL_SOURCE_SIMILARITY = """
WITH tok AS (SELECT source,
                    unnest(list_filter(
                        regexp_split_to_array(lower(text),
                                              '[^a-z0-9]+'),
                        x -> x <> '')) AS w
             FROM documents),
c AS (SELECT source, w, count(*) AS c FROM tok GROUP BY 1, 2),
nrm AS (SELECT source, sum(c * c) AS n2 FROM c GROUP BY 1),
dot AS (SELECT a.source AS src_a, b.source AS src_b,
               sum(a.c * b.c) AS dot
        FROM c a JOIN c b ON a.w = b.w AND a.source < b.source
        GROUP BY 1, 2)
SELECT d.src_a, d.src_b, CAST(d.dot AS BIGINT) AS dot,
       round(d.dot / (sqrt(na.n2) * sqrt(nb.n2)), 6) AS cos
FROM dot d JOIN nrm na ON na.source = d.src_a
           JOIN nrm nb ON nb.source = d.src_b
"""


def q_anchor_terms_cliques(sf_dir):
    """Inbound anchor-text term counts per target page — the classic
    web-link relevance signal — through the REAL extraction actor
    pool (``ExtractAnchors``) over a planted corpus: six disjoint
    10-cliques, every member linking to its 9 peers with anchor
    'to {v}', so each target receives exactly 9 'to' tokens and 9 of
    its own vid token (closed form). Off-corpus hrefs (the
    generator's occasional dangling absent.example link) are dropped
    by the corpus-url prefix filter, matching the oracle's
    generate_series universe. Per-batch explode partials; the final
    combine runs on the bounded (targets x terms) partial table."""
    from ..sources.pages import generate_pages_table
    from ..stages.extract import anchors_dataset

    n = 60
    ii, jj = np.meshgrid(np.arange(10), np.arange(10))
    keep = ii.ravel() != jj.ravel()
    bi, bj = ii.ravel()[keep], jj.ravel()[keep]
    src = np.concatenate([bi + 10 * c for c in range(6)])
    dst = np.concatenate([bj + 10 * c for c in range(6)])
    pages = rd.from_arrow(generate_pages_table(src, dst, n, seed=1,
                                               dup_prob=0.0))
    anchors = anchors_dataset(pages, concurrency=4, batch_size=16)

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.select(["dst_url", "anchor"]).to_pandas()
        df = df[df.dst_url.str.startswith("https://s")]
        df = df.assign(term=df.anchor.str.split()).explode("term")
        out = df.groupby(["dst_url", "term"], as_index=False).size()
        return out.rename(columns={"size": "cnt"})

    agg = anchors.map_batches(partial, batch_format="pyarrow") \
        .to_pandas().groupby(["dst_url", "term"],
                             as_index=False)["cnt"].sum()
    return pa.table({
        "dst_url": pa.array(agg["dst_url"], pa.string()),
        "term": pa.array(agg["term"], pa.string()),
        "cnt": pa.array(agg["cnt"].to_numpy(np.int64)),
    })


SQL_ANCHOR_TERMS_CLIQUES = """
WITH v AS (SELECT unnest(generate_series(0, 59)) AS v),
u AS (SELECT v, 'https://s' || lpad(CAST(v % 16 AS VARCHAR), 2, '0')
            || '.example/p' || lpad(CAST(v AS VARCHAR), 9, '0')
            || '.html' AS url
      FROM v)
SELECT url AS dst_url, 'to' AS term, CAST(9 AS BIGINT) AS cnt FROM u
UNION ALL
SELECT url, CAST(v AS VARCHAR), CAST(9 AS BIGINT) FROM u
"""


# ----------------------------------------------------------------------
# per-source boilerplate detection (template n-grams shared across a
# source's documents — the web-pipeline "same-site template" signal)
# ----------------------------------------------------------------------
BOILER_GRAM = 3


def _trigram_explode(t: pa.Table) -> pa.Table:
    """(doc_id, source, text) -> one row per DISTINCT sliding
    BOILER_GRAM-token window per doc: (source, h). Same tokenizer as
    the segment-dedup family."""
    import hashlib
    toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                  "[^a-z0-9]+")
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = flat != ""
    f, p = flat[keep], par[keep]
    srcs = t["source"].to_pylist()
    out_s, out_h = [], []
    for row in (np.unique(p) if len(p) else []):
        w = f[p == row]
        # the SQL oracle enumerates windows with generate_series(0,
        # 998): fail loudly past its bound (corpus docs are ~40 tokens)
        assert len(w) <= 998 + BOILER_GRAM, \
            f"doc with {len(w)} tokens exceeds the SQL oracle's " \
            f"generate_series window bound"
        seen = set()
        for k in range(len(w) - BOILER_GRAM + 1):
            hh = hashlib.md5(
                " ".join(w[k:k + BOILER_GRAM]).encode()).hexdigest()
            if hh not in seen:
                seen.add(hh)
                out_s.append(srcs[int(row)])
                out_h.append(hh)
    return pa.table({"source": pa.array(out_s, pa.string()),
                     "h": pa.array(out_h, pa.string())})


def q_doc_boilerplate(sf_dir):
    """Per-source template (boilerplate) n-gram detection — the
    same-site-template signal a web curation pipeline uses to strip
    repeated navigation/footer text before training: a sliding 3-token
    gram that appears in >= 2 distinct documents of the same source is
    a template candidate. Plan: per-batch per-doc-distinct gram
    explode (a doc is complete within its row, so per-doc dedup never
    shuffles), ONE (source, h) groupby for doc counts, per-source
    aggregate. Output: source, n_grams (distinct grams), n_shared
    (grams in >= 2 docs), shared_ratio."""
    docs = _docs(sf_dir, columns=("doc_id", "text", "source"))
    grams = docs.map_batches(_trigram_explode, batch_format="pyarrow",
                             zero_copy_batch=True)
    cnt = grams.groupby(["source", "h"]).aggregate(
        Count(alias_name="nd"))

    def per_source(t: pa.Table) -> pa.Table:
        nd = t["nd"].to_numpy(zero_copy_only=False)
        return pa.table({
            "source": t["source"],
            "one": pa.array(np.ones(len(nd), dtype=np.int64)),
            "shared": pa.array((nd >= 2).astype(np.int64)),
        })

    agg = cnt.map_batches(per_source, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("source").aggregate(
            Sum("one", alias_name="n_grams"),
            Sum("shared", alias_name="n_shared")).to_pandas()
    n_grams = agg["n_grams"].to_numpy(np.int64)
    n_shared = agg["n_shared"].to_numpy(np.int64)
    return pa.table({
        "source": pa.array(agg["source"].astype(str), pa.string()),
        "n_grams": pa.array(n_grams),
        "n_shared": pa.array(n_shared),
        "shared_ratio": pa.array(round6(n_shared / n_grams)),
    })


SQL_DOC_BOILERPLATE = f"""
WITH t AS (SELECT doc_id, source, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9]+'),
             x -> x <> '') AS arr
           FROM documents),
g AS (SELECT DISTINCT source, doc_id,
             md5(array_to_string(
                 arr[(k + 1):(k + {BOILER_GRAM})], ' ')) AS h
      FROM t, generate_series(0, 998) gs(k)
      WHERE k <= len(arr) - {BOILER_GRAM}),
c AS (SELECT source, h, count(*) AS nd FROM g GROUP BY 1, 2)
SELECT source, CAST(count(*) AS BIGINT) AS n_grams,
       CAST(sum(CASE WHEN nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_shared,
       round(sum(CASE WHEN nd >= 2 THEN 1 ELSE 0 END)
             / count(*), 6) AS shared_ratio
FROM c GROUP BY source
"""


# ----------------------------------------------------------------------
# unigram-LM cross-entropy quality score (perplexity proxy)
# ----------------------------------------------------------------------
def q_doc_novelty(sf_dir):
    """Per-document n-gram novelty (arrival order = doc_id): the
    fraction of a doc's DISTINCT sliding trigrams whose corpus-wide
    FIRST occurrence (min doc_id) is this doc — the freshness /
    curriculum-ordering signal (a recrawl or boilerplate-heavy doc
    scores near 0, genuinely new text near 1). Plan: per-doc-distinct
    trigram explode, ONE gram groupby for min doc_id, one hash-join
    back, per-doc count aggregates — no driver-side gram state."""
    from ray.data.aggregate import Min as _Min
    docs = _docs(sf_dir)

    def explode(t: pa.Table) -> pa.Table:
        import hashlib
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                      "[^a-z0-9]+")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = flat != ""
        f, p = flat[keep], par[keep]
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_h = [], []
        for row in (np.unique(p) if len(p) else []):
            w = f[p == row]
            assert len(w) <= 998 + BOILER_GRAM, \
                "doc exceeds the SQL oracle's generate_series bound"
            seen = set()
            for k in range(len(w) - BOILER_GRAM + 1):
                hh = hashlib.md5(
                    " ".join(w[k:k + BOILER_GRAM]).encode()).hexdigest()
                if hh not in seen:
                    seen.add(hh)
                    out_id.append(int(ids[int(row)]))
                    out_h.append(hh)
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "h": pa.array(out_h, pa.string())})

    grams = docs.map_batches(explode, batch_format="pyarrow",
                             zero_copy_batch=True)
    firsts = grams.groupby("h").aggregate(
        _Min("doc_id", alias_name="first_doc"))
    joined = grams.join(firsts, "inner", join_partitions(8),
                        on=("h",))

    def flag(t: pa.Table) -> pa.Table:
        nov = pc.equal(t["doc_id"], t["first_doc"])
        return pa.table({
            "doc_id": t["doc_id"],
            "one": pa.array(np.ones(t.num_rows, np.int64)),
            "novel": pc.cast(nov, pa.int64()),
        })

    agg = joined.map_batches(flag, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .groupby("doc_id").aggregate(
            Sum("one", alias_name="n_grams"),
            Sum("novel", alias_name="n_novel")).to_pandas()
    n_grams = agg["n_grams"].to_numpy(np.int64)
    n_novel = agg["n_novel"].to_numpy(np.int64)
    return pa.table({
        "doc_id": pa.array(agg["doc_id"].to_numpy(np.int64)),
        "n_grams": pa.array(n_grams),
        "n_novel": pa.array(n_novel),
        "novelty": pa.array(round6(n_novel / n_grams)),
    })


SQL_DOC_NOVELTY = f"""
WITH t AS (SELECT doc_id, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9]+'),
             x -> x <> '') AS arr
           FROM documents),
g AS (SELECT DISTINCT doc_id,
             md5(array_to_string(
                 arr[(k + 1):(k + {BOILER_GRAM})], ' ')) AS h
      FROM t, generate_series(0, 998) gs(k)
      WHERE k <= len(arr) - {BOILER_GRAM}),
f AS (SELECT h, min(doc_id) AS first_doc FROM g GROUP BY 1)
SELECT g.doc_id, CAST(count(*) AS BIGINT) AS n_grams,
       CAST(sum(CASE WHEN f.first_doc = g.doc_id THEN 1 ELSE 0 END)
            AS BIGINT) AS n_novel,
       round(sum(CASE WHEN f.first_doc = g.doc_id THEN 1 ELSE 0 END)
             / count(*), 6) AS novelty
FROM g JOIN f USING (h) GROUP BY g.doc_id
"""



def q_doc_strip_boilerplate(sf_dir):
    """Boilerplate-segment REMOVAL with a verifiable rewrite (the
    curation op that actually edits the corpus, not just flags it):
    a non-overlapping SEG_LEN-token segment is template iff it occurs
    in >= 2 distinct documents of the SAME source; the cleaned doc is
    the k-ordered join of its kept segments (partial tail segments
    are dropped by the segmenter on both engines). Output per doc:
    n_segs, n_kept, md5 of the cleaned token stream — the rewrite is
    pinned byte-for-byte, no floats anywhere. Plan: segment explode
    (doc complete within its row), per-doc-distinct (source, seg)
    groupby for doc counts, one hash-join back, per-doc ordered
    reconstruct in a bounded map_groups."""
    import hashlib
    docs = _docs(sf_dir, columns=("doc_id", "text", "source"))

    def explode(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                      "[^a-z0-9]+")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = flat != ""
        f, p = flat[keep], par[keep]
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        srcs = t["source"].to_pylist()
        out_id, out_src, out_k, out_seg = [], [], [], []
        for row in (np.unique(p) if len(p) else []):
            w = f[p == row]
            assert len(w) // SEG_LEN <= 998, \
                "doc exceeds the SQL oracle's generate_series bound"
            for k in range(len(w) // SEG_LEN):
                out_id.append(int(ids[int(row)]))
                out_src.append(srcs[int(row)])
                out_k.append(k)
                out_seg.append(
                    " ".join(w[k * SEG_LEN:(k + 1) * SEG_LEN]))
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "source": pa.array(out_src, pa.string()),
                         "k": pa.array(out_k, pa.int64()),
                         "seg": pa.array(out_seg, pa.string())})

    segs = docs.map_batches(explode, batch_format="pyarrow",
                            zero_copy_batch=True)

    def dedup_doc(t: pa.Table) -> pa.Table:
        # per-doc-distinct rows for the doc-count groupby (a doc is
        # complete within its batch row)
        tt = pa.table({"doc_id": t["doc_id"], "source": t["source"],
                       "seg": t["seg"]})
        return tt.group_by(["doc_id", "source", "seg"]).aggregate([])

    nd = segs.map_batches(dedup_doc, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby(["source", "seg"]).aggregate(Count(alias_name="nd"))

    # groupby aggregates emit ZERO-COLUMN empty blocks for dataless
    # shuffle partitions; the hash join then crashes layout-dependently
    # (CLAUDE.md gotcha) — rebuild the declared schema at the producer
    def norm_nd(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "seg": pa.array([], pa.string()),
                             "nd": pa.array([], pa.int64())})
        return t

    nd = nd.map_batches(norm_nd, batch_format="pyarrow")
    # map_batches passes schema-less empties through WITHOUT calling
    # fn — repartition coalesces blocks so they vanish before the join
    nd = nd.repartition(8)
    joined = segs.join(nd, "inner", join_partitions(8),
                       on=("source", "seg"))
    # the join itself emits schema-less empties too; repartition
    # coalesces them away before the map_groups shuffle
    joined = joined.repartition(8)

    def reconstruct(t: pa.Table) -> pa.Table:
        order = np.argsort(t["k"].to_numpy(zero_copy_only=False))
        segs_ = np.asarray(t["seg"].to_pylist(), dtype=object)[order]
        keep_ = (t["nd"].to_numpy(zero_copy_only=False) < 2)[order]
        cleaned = " ".join(segs_[keep_])
        return pa.table({
            "doc_id": pa.array([int(t["doc_id"][0].as_py())],
                               pa.int64()),
            "n_segs": pa.array([t.num_rows], pa.int64()),
            "n_kept": pa.array([int(keep_.sum())], pa.int64()),
            "cleaned_md5": pa.array(
                [hashlib.md5(cleaned.encode()).hexdigest()],
                pa.string()),
        })

    return joined.groupby("doc_id").map_groups(
        reconstruct, batch_format="pyarrow")


SQL_DOC_STRIP_BOILERPLATE = f"""
WITH t AS (SELECT doc_id, source, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9]+'),
             x -> x <> '') AS arr
           FROM documents),
s AS (SELECT doc_id, source, k,
             array_to_string(
                 arr[(k * {SEG_LEN} + 1):(k * {SEG_LEN} + {SEG_LEN})],
                 ' ') AS seg
      FROM t, generate_series(0, 998) gs(k)
      WHERE k < len(arr) // {SEG_LEN}),
c AS (SELECT source, seg, count(DISTINCT doc_id) AS nd
      FROM s GROUP BY 1, 2)
SELECT s.doc_id,
       CAST(count(*) AS BIGINT) AS n_segs,
       CAST(sum(CASE WHEN c.nd < 2 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_kept,
       md5(COALESCE(string_agg(CASE WHEN c.nd < 2 THEN s.seg END,
                               ' ' ORDER BY s.k), '')) AS cleaned_md5
FROM s JOIN c USING (source, seg)
GROUP BY s.doc_id
"""


def q_doc_lm_xent(sf_dir):
    """Unigram-LM cross-entropy per document against the CORPUS
    unigram distribution — the perplexity-proxy quality score LLM
    curation pipelines threshold on (a doc of rare tokens scores
    high, a doc of corpus-typical text scores low). p(w) = corpus
    count / total; xent(d) = -(1/|d|) * sum_{tokens} ln p(w).

    Determinism: per-distinct-word ln p(w) is quantised to 1e-9 fixed
    point (floor(ln(p)*1e9 + 0.5), identical expression in the SQL
    oracle) so per-doc sums are exact integers — order-independent —
    with ONE IEEE division at the end. Plan: per-batch (term, n)
    partials -> vocab-bounded groupby -> tiny (vocab-sized) broadcast
    -> pure map scoring stage. No full-corpus materialisation."""
    docs = _docs(sf_dir)

    def wc(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                      "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat)
        return pa.table({"w": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    counts = docs.map_batches(wc, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .groupby("w").aggregate(Sum("n", alias_name="n")).to_pandas()
    words = counts["w"].to_numpy()
    cnt = counts["n"].to_numpy(np.int64)
    total = int(cnt.sum())
    qv = np.floor(np.log(cnt / total) * 1e9 + 0.5).astype(np.int64)
    order = np.argsort(words)
    words_s, qv_s = words[order], qv[order]

    def score(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                      "[^a-z0-9]+")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = flat != ""
        f, p = flat[keep], par[keep]
        s = np.zeros(len(t), dtype=np.int64)
        ntok = np.zeros(len(t), dtype=np.int64)
        if len(f):
            idx = np.searchsorted(words_s, f)
            np.add.at(s, p, qv_s[idx])
            np.add.at(ntok, p, 1)
        nz = ntok > 0
        ids = t["doc_id"].to_numpy(zero_copy_only=False)[nz]
        sn, tn = s[nz], ntok[nz]
        return pa.table({
            "doc_id": pa.array(ids),
            "n_tokens": pa.array(tn),
            "xent": pa.array(round6(-(sn / 1e9) / tn)),
        })

    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_DOC_LM_XENT = """
WITH t AS (SELECT doc_id, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9]+'),
             x -> x <> '') AS arr
           FROM documents),
tok AS (SELECT doc_id, unnest(arr) AS w FROM t),
c AS (SELECT w, count(*) AS cnt FROM tok GROUP BY 1),
n AS (SELECT sum(cnt) AS total FROM c),
q AS (SELECT w, CAST(floor(ln(CAST(cnt AS DOUBLE) / total)
                           * 1000000000 + 0.5) AS BIGINT) AS qv
      FROM c, n),
d AS (SELECT tok.doc_id, count(*) AS n_tokens, sum(q.qv) AS s
      FROM tok JOIN q USING (w) GROUP BY 1)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       round(-(CAST(s AS DOUBLE) / 1000000000) / n_tokens, 6) AS xent
FROM d
"""


# ----------------------------------------------------------------------
# Gopher quality rules (composite document-quality gate)
# ----------------------------------------------------------------------
def q_doc_gopher_rules(sf_dir):
    """Gopher quality gate (Rae et al. 2021 §A1.1) over documents:
    per-doc signals (word count, mean word length, symbol/bullet/
    ellipsis ratios, alphabetic-word fraction, stop-word hits) plus
    the composite ``keep`` flag — the standard pre-filter an LLM
    corpus pipeline runs before dedup. Pure map stage (actor pool),
    no shuffle; thresholds are applied to the UNROUNDED signals on
    both engines."""
    return tx.gopher_rules(_docs(sf_dir))


SQL_DOC_GOPHER_RULES = f"""
WITH t AS (SELECT doc_id, text,
             list_filter(regexp_split_to_array(lower(text),
                                               '[^a-z0-9]+'),
                         x -> x <> '') AS toks,
             string_split(text, chr(10)) AS lines
           FROM documents),
m AS (SELECT doc_id, len(toks) AS n_words,
        CASE WHEN len(toks) > 0 THEN
          CAST(list_sum(list_transform(toks, w -> length(w)))
               AS DOUBLE) / len(toks) ELSE 0 END AS mean_word_len,
        CASE WHEN len(toks) > 0 THEN
          CAST((length(text) - length(replace(text, '#', '')))
               + (length(text) - length(replace(text, '...', ''))) / 3
               AS DOUBLE) / len(toks) ELSE 0 END AS symbol_ratio,
        CAST(len(list_filter(lines,
               l -> ltrim(l, ' ') LIKE '-%' OR ltrim(l, ' ') LIKE '*%'))
             AS DOUBLE) / len(lines) AS bullet_ratio,
        CAST(len(list_filter(lines, l -> rtrim(l, ' ') LIKE '%...'))
             AS DOUBLE) / len(lines) AS ellipsis_ratio,
        CASE WHEN len(toks) > 0 THEN
          CAST(len(list_filter(toks, w -> regexp_matches(w, '[a-z]')))
               AS DOUBLE) / len(toks) ELSE 0 END AS alpha_word_ratio,
        len(list_filter(['the','be','to','of','and','that','have',
                         'with'],
                        s -> list_contains(toks, s))) AS stop_hits
      FROM t)
SELECT doc_id, CAST(n_words AS BIGINT) AS n_words,
       round(mean_word_len, 6) AS mean_word_len,
       round(symbol_ratio, 6) AS symbol_ratio,
       round(bullet_ratio, 6) AS bullet_ratio,
       round(ellipsis_ratio, 6) AS ellipsis_ratio,
       round(alpha_word_ratio, 6) AS alpha_word_ratio,
       CAST(stop_hits AS BIGINT) AS stop_hits,
       CAST(CASE WHEN n_words >= {tx.GOPHER_MIN_WORDS}
                  AND n_words <= {tx.GOPHER_MAX_WORDS}
                  AND mean_word_len >= {tx.GOPHER_MIN_MEAN_LEN}
                  AND mean_word_len <= {tx.GOPHER_MAX_MEAN_LEN}
                  AND symbol_ratio <= {tx.GOPHER_MAX_SYMBOL_RATIO}
                  AND bullet_ratio <= {tx.GOPHER_MAX_BULLET_RATIO}
                  AND ellipsis_ratio <= {tx.GOPHER_MAX_ELLIPSIS_RATIO}
                  AND alpha_word_ratio >= {tx.GOPHER_MIN_ALPHA_RATIO}
                  AND stop_hits >= {tx.GOPHER_MIN_STOP_HITS}
             THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM m
"""


# ----------------------------------------------------------------------
# DSIR importance resampling (data selection for LM pretraining)
# ----------------------------------------------------------------------
DSIR_BUCKETS = 512      # divides 2^64, so uint64 wraparound mod B ==
                        # plain mod B and the SQL twin needs no HUGEINT
DSIR_TOP_K = 100
DSIR_TARGET_LANG = "en"


def _dsir_doc_buckets(t: pa.Table):
    """Hashed-bigram feature stream for a batch: (doc_index, bucket)
    per within-doc adjacent token pair. bucket = (h(w1) * 1000003 +
    h(w2)) % B in uint64 wraparound arithmetic; because B divides
    2^64 the SQL twin computes the identical value with small-int
    mod algebra ((h1 % B) * 1000003 + h2 % B) % B."""
    toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                  "[^a-z0-9]+")
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = flat != ""
    f, p = flat[keep], par[keep]
    if len(f) < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    h = tx.hash_tokens(f)
    same = p[1:] == p[:-1]
    bk = ((h[:-1] * np.uint64(1_000_003) + h[1:])
          % np.uint64(DSIR_BUCKETS))[same]
    return p[:-1][same].astype(np.int64), bk.astype(np.int64)


def q_dsir_select(sf_dir):
    """DSIR — Data Selection via Importance Resampling (Xie et al.
    2023): score every document by how much more likely its hashed
    bigram features are under the TARGET distribution (here the
    ``lang='en'`` slice) than under the raw corpus, then resample by
    Gumbel-noised top-k — the standard recipe for selecting
    pretraining data that "looks like" a high-quality target set.

    log w(d) = sum_features c_f * (ln p_target(f) - ln p_corpus(f)),
    Laplace-smoothed over B=512 hash buckets. Determinism: the two
    per-bucket ln terms are quantised to 1e-9 fixed point (identical
    expression in the oracle) so per-doc sums are exact integers; the
    Gumbel key g = -ln(-ln(u)) draws u from the md5 of the doc id so
    both engines rank the identical float key.

    Plan: pass 1 = per-batch B-bucket bincount partials (driver
    merges a 512-int array, O(B) state); pass 2 = broadcast the
    512-int delta vector, per-batch scoring + partial top-k — the
    driver sees K rows per batch, never the corpus."""
    docs = _docs(sf_dir, columns=("doc_id", "text", "lang"))
    B = DSIR_BUCKETS

    def bcounts(t: pa.Table) -> pa.Table:
        di, bk = _dsir_doc_buckets(t)
        is_t = pc.equal(t["lang"], DSIR_TARGET_LANG) \
            .to_numpy(zero_copy_only=False)
        nc = np.bincount(bk, minlength=B)
        nt = np.bincount(bk[is_t[di]], minlength=B)
        return pa.table({"bucket": pa.array(np.arange(B)),
                         "nc": pa.array(nc.astype(np.int64)),
                         "nt": pa.array(nt.astype(np.int64))})

    nc = np.zeros(B, np.int64)
    nt = np.zeros(B, np.int64)
    for b in docs.map_batches(bcounts, batch_format="pyarrow",
                              zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        np.add.at(nc, b["bucket"].to_numpy(zero_copy_only=False),
                  b["nc"].to_numpy(zero_copy_only=False))
        np.add.at(nt, b["bucket"].to_numpy(zero_copy_only=False),
                  b["nt"].to_numpy(zero_copy_only=False))
    ct, tt = int(nc.sum()), int(nt.sum())
    delta = (np.floor(np.log((nt + 1.0) / (tt + B)) * 1e9 + 0.5)
             - np.floor(np.log((nc + 1.0) / (ct + B)) * 1e9 + 0.5)
             ).astype(np.int64)

    def score(t: pa.Table) -> pa.Table:
        di, bk = _dsir_doc_buckets(t)
        s = np.zeros(t.num_rows, np.int64)
        np.add.at(s, di, delta[bk])
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        u = (tx.hash_tokens(ids.astype(str)) % np.uint64(1_000_000)
             + 0.5) / 1_000_000.0
        g = -np.log(-np.log(u))
        key = s / 1e9 + g
        k = min(DSIR_TOP_K, t.num_rows)
        top = np.argpartition(-key, k - 1)[:k] if t.num_rows else \
            np.empty(0, np.int64)
        return pa.table({"doc_id": pa.array(ids[top]),
                         "sq": pa.array(s[top]),
                         "key": pa.array(key[top])})

    parts = docs.map_batches(score, batch_format="pyarrow",
                             zero_copy_batch=True).to_pandas()
    order = np.lexsort((parts["doc_id"].to_numpy(),
                        -parts["key"].to_numpy()))[:DSIR_TOP_K]
    sel = parts.iloc[order]
    return pa.table({
        "doc_id": pa.array(sel["doc_id"].to_numpy(np.int64)),
        "logw": pa.array(round6(sel["sq"].to_numpy(np.int64) / 1e9)),
        "sample_key": pa.array(round6(sel["key"].to_numpy())),
    })


_DSIR_H = "('0x' || substr(md5({x}), 1, 16))::UBIGINT"

SQL_DSIR_SELECT = f"""
WITH t AS (SELECT doc_id, lang, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9]+'),
             x -> x <> '') AS arr
           FROM documents),
tok AS (SELECT doc_id, lang, unnest(arr) AS w,
               generate_subscripts(arr, 1) AS i FROM t),
seq AS (SELECT doc_id, lang, w AS a,
               lead(w) OVER (PARTITION BY doc_id ORDER BY i) AS b
        FROM tok),
bg AS (SELECT doc_id, lang,
              (({_DSIR_H.format(x='a')} % {DSIR_BUCKETS}) * 1000003
               + {_DSIR_H.format(x='b')} % {DSIR_BUCKETS})
              % {DSIR_BUCKETS} AS bucket
       FROM seq WHERE b IS NOT NULL),
c AS (SELECT bucket, count(*) AS nc,
             count(*) FILTER (WHERE lang = '{DSIR_TARGET_LANG}') AS nt
      FROM bg GROUP BY 1),
tot AS (SELECT sum(nc) AS ct, sum(nt) AS tt FROM c),
d AS (SELECT bucket,
             CAST(floor(ln((nt + 1.0) / (tt + {DSIR_BUCKETS}))
                        * 1000000000 + 0.5) AS BIGINT)
           - CAST(floor(ln((nc + 1.0) / (ct + {DSIR_BUCKETS}))
                        * 1000000000 + 0.5) AS BIGINT) AS delta
      FROM c, tot),
s AS (SELECT bg.doc_id, sum(d.delta) AS sq
      FROM bg JOIN d USING (bucket) GROUP BY 1),
k AS (SELECT doc_id, COALESCE(s.sq, 0) AS sq,
             CAST(COALESCE(s.sq, 0) AS DOUBLE) / 1000000000
             - ln(-ln(({_DSIR_H.format(x='CAST(doc_id AS VARCHAR)')}
                       % 1000000 + 0.5) / 1000000.0)) AS key
      FROM documents LEFT JOIN s USING (doc_id))
SELECT doc_id,
       round(CAST(sq AS DOUBLE) / 1000000000, 6) AS logw,
       round(key, 6) AS sample_key
FROM k ORDER BY key DESC, doc_id LIMIT {DSIR_TOP_K}
"""
                 # mixing uses to upweight small sources


def q_source_mix_weights(sf_dir):
    """Per-source sampling weights for temperature-scaled data mixing
    (the corpus-balancing stage an LLM pipeline runs before packing):
    weight(source) ∝ n_docs^alpha with alpha=0.5 — small sources get
    upweighted relative to proportional sampling. sqrt(n) is IEEE
    correctly-rounded on both engines, then quantised to 1e-9 fixed
    point so the normalising sum is an exact integer (order-free);
    ONE final division per source. Per-batch count partials merge on
    the driver (|sources|-bounded, CLAUDE.md hot-path rule)."""
    from collections import defaultdict
    docs = _docs(sf_dir, columns=("source",))

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t["source"])
        return pa.table({"source": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    tot = defaultdict(int)
    for b in docs.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        for s, n in zip(b["source"].to_pylist(),
                        b["n"].to_pylist()):
            tot[s] += n
    srcs = sorted(tot)
    n_docs = np.array([tot[s] for s in srcs], dtype=np.int64)
    qv = np.floor(np.sqrt(n_docs.astype(np.float64))
                  * 1e9 + 0.5).astype(np.int64)
    return pa.table({
        "source": pa.array(srcs, pa.string()),
        "n_docs": pa.array(n_docs),
        "weight": pa.array(round6(qv / qv.sum())),
    })


SQL_SOURCE_MIX_WEIGHTS = """
WITH c AS (SELECT source, count(*) AS n_docs FROM documents GROUP BY 1),
q AS (SELECT source, n_docs,
             CAST(floor(sqrt(CAST(n_docs AS DOUBLE))
                        * 1000000000 + 0.5) AS BIGINT) AS qv
      FROM c),
t AS (SELECT sum(qv) AS tq FROM q)
SELECT source, CAST(n_docs AS BIGINT) AS n_docs,
       round(CAST(qv AS DOUBLE) / tq, 6) AS weight
FROM q, t
"""


TEXTRANK_TOPK = 20


def q_textrank_keywords(sf_dir):
    """TextRank keyword extraction (Mihalcea & Tarau, EMNLP 2004):
    corpus-level top-``TEXTRANK_TOPK`` tokens by weighted PageRank
    over the adjacent-token co-occurrence graph (window 2,
    undirected, weight = adjacency count) — the graph engine feeding
    text analytics in one pipeline. Bigram extraction is a
    vectorised per-batch partial (pair counts pre-reduced per
    batch); the edge list is vocabulary-bounded, so the driver folds
    partials into arrays and runs the SAME weighted fixed-iteration
    PageRank kernel as ``pagerank_co`` over dense vocab ids (the
    repo's vocab-bounded driver-state precedent, cf.
    ``vocab_top_terms``). Selection orders by (rounded rank DESC,
    token ASC) on BOTH engines so the top-k boundary is
    deterministic."""
    docs = _docs(sf_dir)

    def bigrams(t: pa.Table) -> pa.Table:
        xs, ys = [], []
        for txt in t["text"].to_pylist():
            toks = np.asarray(tx.TOKEN_RE.findall(txt.lower()),
                              dtype=object)
            if len(toks) < 2:
                continue
            x, y = toks[:-1], toks[1:]
            m = x != y
            if not m.any():
                continue
            xs.append(np.minimum(x[m], y[m]))
            ys.append(np.maximum(x[m], y[m]))
        if not xs:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "w": pa.array([], pa.int64())})
        tt = pa.table({"a": pa.array(np.concatenate(xs)),
                       "b": pa.array(np.concatenate(ys))})
        return tt.group_by(["a", "b"]).aggregate([([], "count_all")]) \
            .rename_columns(["a", "b", "w"])

    agg: dict = {}
    for b in docs.map_batches(bigrams, batch_format="pyarrow",
                              zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        if b.num_columns == 0:
            continue
        for a_, b_, w_ in zip(b["a"].to_pylist(), b["b"].to_pylist(),
                              b["w"].to_pylist()):
            agg[(a_, b_)] = agg.get((a_, b_), 0) + int(w_)
    pairs = sorted(agg)
    toks_a = np.asarray([p[0] for p in pairs], dtype=object)
    toks_b = np.asarray([p[1] for p in pairs], dtype=object)
    w = np.asarray([agg[p] for p in pairs], dtype=np.float64)
    vocab = np.unique(np.concatenate([toks_a, toks_b]))
    src = np.searchsorted(vocab, toks_a)
    dst = np.searchsorted(vocab, toks_b)
    g = DistGraph.from_edges(src, dst, w, n=len(vocab), P=4,
                             directed=False, both_directions=True)
    rank, _ = ss.pagerank(g, damping=DAMPING, tol=0.0,
                          max_iter=PAGERANK_ITERS, weighted=True)
    r6 = round6(rank)
    order = sorted(range(len(vocab)), key=lambda i: (-r6[i],
                                                     str(vocab[i])))
    top = order[:TEXTRANK_TOPK]
    return pa.table({
        "token": pa.array([str(vocab[i]) for i in top], pa.string()),
        "rank": pa.array([float(r6[i]) for i in top], pa.float64()),
    })


SQL_TEXTRANK_KEYWORDS = f"""
WITH RECURSIVE
toks AS (SELECT doc_id,
                regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk
         FROM documents),
bi AS (SELECT least(tk[i], tk[i + 1]) AS a,
              greatest(tk[i], tk[i + 1]) AS b
       FROM toks, unnest(generate_series(1, len(tk) - 1)) AS u(i)
       WHERE tk[i] <> tk[i + 1]),
e0 AS (SELECT a, b, CAST(count(*) AS DOUBLE) AS w
       FROM bi GROUP BY 1, 2),
e AS (SELECT a, b, w FROM e0 UNION ALL SELECT b, a, w FROM e0),
verts AS (SELECT a AS v, sum(w) AS strength FROM e GROUP BY a),
nn AS (SELECT count(*) AS n FROM verts),
pr(i, v, r) AS (
  SELECT 0, v, 1.0 / (SELECT n FROM nn) FROM verts
  UNION ALL
  SELECT p.i + 1, e.b,
         (1 - {DAMPING}) / (SELECT n FROM nn)
         + {DAMPING} * sum(p.r * e.w / vs.strength)
  FROM pr p
  JOIN verts vs ON vs.v = p.v
  JOIN e ON e.a = p.v
  WHERE p.i < {PAGERANK_ITERS}
  GROUP BY p.i, e.b
)
SELECT v AS token, round(r, 6) AS rank
FROM pr WHERE i = {PAGERANK_ITERS}
ORDER BY round(r, 6) DESC, v ASC LIMIT {TEXTRANK_TOPK}
"""


def q_docs_funnel(sf_dir):
    """CCNet-style preprocessing funnel (Wenzek et al. 2020 order:
    dedup -> language id -> quality filter) composed from the
    GATE-IDENTICAL stage outputs: exact-dedup representatives
    (``dd.exact_dedup``), ``tx.lang_id`` == 'en', then a quality cut
    on the Gopher signals (``tx.gopher_rules``; the funnel uses the
    integer n_words/stop_hits signals with thresholds that
    discriminate on the synthetic corpus — the full Gopher ``keep``
    conjunction keeps zero synthetic docs, which would feed an
    all-empty side into the join). One row per stage with the
    surviving doc count — the corpus-curation report every pipeline
    run emits; each underlying stage is separately oracle-verified,
    this row pins their composition.

    Execution shape: ONE fused actor stage computes per-doc
    (text_hash, key) with the lang/quality flags packed into the low
    bits of ``key = doc_id*4 + f_en*2 + f_q``, so a single
    ``groupby(text_hash).aggregate(Min(key))`` both elects the
    exact-dedup representative (min doc_id dominates the key order —
    flags contribute < 4 and doc_ids are distinct) AND carries that
    representative's own flags out of the shuffle. One shuffle, no
    joins (two chained Ray hash joins deadlock a small test session;
    duplicate texts share flags anyway, so the rep's flags are
    well-defined)."""
    docs = _docs(sf_dir)
    n_total = docs.count()
    agg = docs.map_batches(
        _FunnelFlags, batch_format="pyarrow", batch_size=2048,
        zero_copy_batch=True, concurrency=(1, 4)) \
        .groupby("text_hash").aggregate(Min("key", alias_name="key"))
    n_exact = n_lang = n_q = 0
    for b in agg.iter_batches(batch_format="pyarrow"):
        if b.num_columns == 0 or b.num_rows == 0:
            continue
        k = b["key"].to_numpy(zero_copy_only=False)
        f_en = (k >> 1) & 1
        f_q = k & 1
        n_exact += len(k)
        n_lang += int(f_en.sum())
        n_q += int((f_en & f_q).sum())
    return pa.table({
        "stage": pa.array([0, 1, 2, 3], pa.int64()),
        "name": pa.array(["total", "exact_dedup", "lang_en",
                          "quality"], pa.string()),
        "n_docs": pa.array([n_total, n_exact, n_lang, n_q],
                           pa.int64()),
    })


SQL_DOCS_FUNNEL = f"""
WITH reps AS (SELECT min(doc_id) AS doc_id
              FROM documents GROUP BY md5(text)),
lang AS ({SQL_LANG_ID}),
gop AS ({SQL_DOC_GOPHER_RULES})
SELECT * FROM (
  SELECT CAST(0 AS BIGINT) AS stage, 'total' AS name,
         CAST(count(*) AS BIGINT) AS n_docs FROM documents
  UNION ALL
  SELECT 1, 'exact_dedup', count(*) FROM reps
  UNION ALL
  SELECT 2, 'lang_en', count(*)
  FROM reps r JOIN lang l USING (doc_id)
  WHERE l.pred_lang = 'en'
  UNION ALL
  SELECT 3, 'quality', count(*)
  FROM reps r JOIN lang l USING (doc_id)
              JOIN gop g USING (doc_id)
  WHERE l.pred_lang = 'en'
    AND g.n_words >= {FUNNEL_MIN_WORDS}
    AND g.stop_hits >= {FUNNEL_MIN_STOP_HITS}
) ORDER BY stage
"""


def q_doc_gopher_repetition(sf_dir):
    """Gopher §A1.2 repetition signals (Rae et al. 2021) — the
    duplicated-n-gram filters that complement the §A1.1 quality gate
    (``doc_gopher_rules``): per doc, (a) ``top2_frac`` = characters
    covered by ALL occurrences of the doc's most frequent word
    2-gram (ties: lexicographically smallest) / total word
    characters, and (b) ``dup5_frac`` = characters covered by every
    occurrence of a duplicated (count >= 2 in-doc) word 5-gram /
    total word characters — overlap counted, the standard
    reimplementation convention. All-integer numerators (gram char
    length x occurrence count) with ONE IEEE division per signal, so
    both engines agree exactly. Docs with <2 words are out of scope
    on both engines."""
    docs = _docs(sf_dir)

    def rep(t: pa.Table) -> pa.Table:
        from collections import Counter
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out = {"doc_id": [], "n_words": [], "top2_frac": [],
               "dup5_frac": []}
        for i, txt in enumerate(t["text"].to_pylist()):
            ws = tx.TOKEN_RE.findall(txt.lower())
            if len(ws) < 2:
                continue
            total = sum(len(w) for w in ws)
            c2 = Counter(" ".join(ws[j:j + 2])
                         for j in range(len(ws) - 1))
            best = min(c2.items(), key=lambda kv: (-kv[1], kv[0]))
            t2 = best[1] * (len(best[0]) - 1)
            d5 = 0
            if len(ws) >= 5:
                c5 = Counter(" ".join(ws[j:j + 5])
                             for j in range(len(ws) - 4))
                d5 = sum(c * (len(g) - 4) for g, c in c5.items()
                         if c >= 2)
            out["doc_id"].append(int(ids[i]))
            out["n_words"].append(len(ws))
            out["top2_frac"].append(t2 / total)
            out["dup5_frac"].append(d5 / total)
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "n_words": pa.array(out["n_words"], pa.int64()),
            "top2_frac": pa.array(round6(np.array(out["top2_frac"]))),
            "dup5_frac": pa.array(round6(np.array(out["dup5_frac"]))),
        })

    return docs.map_batches(rep, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_DOC_GOPHER_REPETITION = """
WITH t AS (SELECT doc_id, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
             x -> x <> '') AS ws
           FROM documents WHERE len(list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
             x -> x <> '')) >= 2),
tot AS (SELECT doc_id, len(ws) AS n_words,
               CAST(list_sum(list_transform(ws, w -> length(w)))
                    AS BIGINT) AS total
        FROM t),
g2 AS (SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS g
       FROM t, generate_series(1, 999) gs(i) WHERE i <= len(ws) - 1),
c2 AS (SELECT doc_id, g, count(*) AS c,
              length(g) - 1 AS chars
       FROM g2 GROUP BY 1, 2),
top2 AS (SELECT doc_id, c * chars AS t2
         FROM (SELECT doc_id, c, chars,
                      row_number() OVER (PARTITION BY doc_id
                                         ORDER BY c DESC, g) AS rn
               FROM c2)
         WHERE rn = 1),
g5 AS (SELECT doc_id,
              ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' '
                    || ws[i+3] || ' ' || ws[i+4] AS g
       FROM t, generate_series(1, 999) gs(i) WHERE i <= len(ws) - 4),
c5 AS (SELECT doc_id, g, count(*) AS c, length(g) - 4 AS chars
       FROM g5 GROUP BY 1, 2),
d5 AS (SELECT doc_id, CAST(COALESCE(sum(CASE WHEN c >= 2
                                             THEN c * chars END), 0)
                           AS BIGINT) AS d5
       FROM c5 GROUP BY 1)
SELECT tot.doc_id, tot.n_words,
       ROUND(CAST(top2.t2 AS DOUBLE) / tot.total, 6) AS top2_frac,
       ROUND(CAST(COALESCE(d5.d5, 0) AS DOUBLE) / tot.total, 6)
         AS dup5_frac
FROM tot JOIN top2 USING (doc_id) LEFT JOIN d5 USING (doc_id)
"""


BPE_MERGES = 8


def _bpe_train(words_hist):
    """Greedy BPE training (Sennrich et al. 2016) on a distinct-word
    histogram: BPE_MERGES rounds of (count adjacent symbol pairs
    weighted by word frequency -> merge the (count desc, pair asc)
    argmax everywhere). Returns (merges, pieces) with ``pieces`` the
    final symbol sequence per distinct word. Pure driver-side
    function of the exact integer histogram — O(vocab) per round,
    independent of corpus size (the standard BPE-trainer
    representation)."""
    from collections import Counter

    seq = {w: tuple(w) for w in words_hist}
    merges = []
    for _ in range(BPE_MERGES):
        cnt = Counter()
        for w, c in words_hist.items():
            s = seq[w]
            for i in range(len(s) - 1):
                cnt[(s[i], s[i + 1])] += c
        if not cnt:
            break
        best = min(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        joined = best[0] + best[1]
        for w, s in seq.items():
            if best[0] not in s:
                continue
            out, i = [], 0
            while i < len(s):
                if (i + 1 < len(s) and s[i] == best[0]
                        and s[i + 1] == best[1]):
                    out.append(joined)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            seq[w] = tuple(out)
    return merges, seq


def q_bpe_train_apply(sf_dir):
    """Full BPE tokenizer training + corpus re-tokenization — the
    tokenizer step of an LLM data pipeline, end to end: ONE pass
    builds the distinct-word histogram (vocab-bounded driver fold),
    BPE_MERGES=8 greedy merge rounds run on the histogram
    driver-side, and the resulting word->pieces table broadcasts
    into a pure apply map. Per doc: word count, piece count, and the
    md5 of the piece stream (pieces joined '+' within a word, words
    by ' ') — the rewrite is pinned byte-for-byte.

    Inherently iterative (each merge depends on the argmax of the
    previous round) => rows-only at the driver gate; pinned by (a) a
    pytest serial replica of the whole train+apply, (b) merge #1 ==
    the SQL-green ``bpe_merge_candidates`` argmax (same tokenizer,
    same tie order), (c) the md5-pinned output. Reference for the
    algorithm: Sennrich, Haddow & Birch 2016 §3.2."""
    docs = _docs(sf_dir)

    def wc(t: pa.Table) -> pa.Table:
        out_w, out_n = [], []
        from collections import Counter
        cnt = Counter()
        for txt in t["text"].to_pylist():
            cnt.update(tx.TOKEN_RE.findall(txt.lower()))
        ks = sorted(cnt)
        return pa.table({"w": pa.array(ks, pa.string()),
                         "n": pa.array([cnt[k] for k in ks],
                                       pa.int64())})

    hist_df = docs.map_batches(wc, batch_format="pyarrow",
                               zero_copy_batch=True).to_pandas() \
        .groupby("w")["n"].sum()
    merges, pieces = _bpe_train(dict(hist_df))

    def apply_(t: pa.Table) -> pa.Table:
        import hashlib
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        nw = np.zeros(len(t), dtype=np.int64)
        npc = np.zeros(len(t), dtype=np.int64)
        h = []
        for i, txt in enumerate(t["text"].to_pylist()):
            words = tx.TOKEN_RE.findall(txt.lower())
            nw[i] = len(words)
            npc[i] = sum(len(pieces[w]) for w in words)
            stream = " ".join("+".join(pieces[w]) for w in words)
            h.append(hashlib.md5(stream.encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array(nw),
            "n_pieces": pa.array(npc),
            "pieces_md5": pa.array(h, pa.string()),
        })

    return docs.map_batches(apply_, batch_format="pyarrow",
                            zero_copy_batch=True)


SRC_QUALITY_MIN_RATE = 0.5  # source keep threshold on gopher pass rate


def q_source_quality_gate(sf_dir):
    """Source-level (FineWeb-style per-domain) quality gate: per
    ``source``, the Gopher keep-rate of its documents and a composite
    source keep flag (``rate >= 0.5``) — the curation step that drops
    whole low-quality domains rather than individual documents.
    Thresholds apply to the UNROUNDED rate on both engines.

    Plan: ONE actor-pool map_batches pass reusing the gate-identical
    ``GopherRules`` callable, combined per batch into (source, n,
    n_keep) integer partials — a |sources|-bounded driver fold, no
    shuffle, no per-doc materialisation."""
    from ..stages.text import GopherRules

    docs = _docs(sf_dir, columns=("doc_id", "text", "source"))

    class SourceGate:
        def __init__(self):
            self.rules = GopherRules()

        def __call__(self, t: pa.Table) -> pa.Table:
            keep = self.rules(t)["keep"].to_numpy(zero_copy_only=False)
            src = np.asarray(t["source"].to_pylist(), dtype=object)
            us, inv = np.unique(src.astype(str), return_inverse=True)
            n = np.bincount(inv, minlength=len(us)).astype(np.int64)
            nk = np.zeros(len(us), dtype=np.int64)
            np.add.at(nk, inv, keep)
            return pa.table({"source": pa.array(us, pa.string()),
                             "n": pa.array(n),
                             "n_keep": pa.array(nk)})

    parts = docs.map_batches(SourceGate, batch_format="pyarrow",
                             batch_size=2048, zero_copy_batch=True,
                             concurrency=(1, 4)).to_pandas()
    g = parts.groupby("source", as_index=False)[["n", "n_keep"]].sum()
    n = g["n"].to_numpy(np.int64)
    nk = g["n_keep"].to_numpy(np.int64)
    rate = nk / n
    return pa.table({
        "source": pa.array(g["source"].to_numpy(dtype=object),
                           pa.string()),
        "n_docs": pa.array(n),
        "n_keep": pa.array(nk),
        "keep_rate": pa.array(round6(rate)),
        "source_keep": pa.array(
            (rate >= SRC_QUALITY_MIN_RATE).astype(np.int64)),
    })


SQL_SOURCE_QUALITY_GATE = f"""
WITH gop AS ({SQL_DOC_GOPHER_RULES}),
j AS (SELECT d.source, g.keep
      FROM documents d JOIN gop g USING (doc_id))
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(keep) AS BIGINT) AS n_keep,
       ROUND(CAST(sum(keep) AS DOUBLE) / count(*), 6) AS keep_rate,
       CAST(CASE WHEN CAST(sum(keep) AS DOUBLE) / count(*)
                      >= {SRC_QUALITY_MIN_RATE}
                 THEN 1 ELSE 0 END AS BIGINT) AS source_keep
FROM j GROUP BY source
"""


LM2_LAMBDA = 0.7  # bigram weight in the interpolated LM


def q_doc_lm_xent2(sf_dir):
    """Interpolated bigram-LM cross-entropy per document — the
    KenLM-style perplexity quality score of CCNet (Wenzek et al.
    2020) reduced to a 2-gram model with unigram interpolation:
    ``p(w2|w1) = 0.7 * c(w1,w2)/starts(w1) + 0.3 * c(w2)/T``,
    ``xent(d) = -(1/#bigrams) * sum ln p`` over the doc's adjacent
    token pairs. The model is trained on the corpus itself in the
    same job (one counting pass), so train+score is exactly
    SQL-expressible.

    Determinism: per-distinct-bigram ln p is quantised to 1e-9 fixed
    point (identical IEEE expression in the oracle — the operand
    order ``0.7*nb/ns + 0.3*n/T`` is written the same on both
    engines) so per-doc sums are exact integers, with one IEEE
    division at the end. Plan: one map_batches pass emits per-batch
    unigram + bigram count partials (bigram-vocab-bounded driver
    fold — at 100 TB this fold becomes one bounded groupby and the
    model table a hash-bucketed broadcast, the doc_lm_xent scale
    note); the quantised bigram score table is broadcast into a pure
    scoring map. Docs with <2 tokens are out of scope on both
    engines."""
    docs = _docs(sf_dir)

    def _toks(t: pa.Table):
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]),
                                      "[^a-z0-9]+")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = flat != ""
        return flat[keep], par[keep]

    def counts(t: pa.Table) -> pa.Table:
        f, p = _toks(t)
        out_1, out_2, out_n = [], [], []
        if len(f):
            assert int(np.bincount(p).max()) <= 1000, \
                "doc exceeds the SQL oracle's generate_series bound"
            uw, code = np.unique(f, return_inverse=True)
            uc = np.bincount(code)
            out_1 += list(uw)
            out_2 += [None] * len(uw)
            out_n += [int(c) for c in uc]
            adj = p[1:] == p[:-1]
            if adj.any():
                k = code[:-1][adj].astype(np.int64) * len(uw) \
                    + code[1:][adj]
                ub, cb = np.unique(k, return_counts=True)
                out_1 += list(uw[ub // len(uw)])
                out_2 += list(uw[ub % len(uw)])
                out_n += [int(c) for c in cb]
        return pa.table({"w1": pa.array(out_1, pa.string()),
                         "w2": pa.array(out_2, pa.string()),
                         "n": pa.array(out_n, pa.int64())})

    parts = docs.map_batches(counts, batch_format="pyarrow",
                             zero_copy_batch=True).to_pandas()
    uni = parts[parts["w2"].isna()].groupby("w1")["n"].sum()
    bi = parts[parts["w2"].notna()].groupby(
        ["w1", "w2"])["n"].sum().reset_index()
    T = int(uni.sum())
    starts = bi.groupby("w1")["n"].sum()
    vocab = np.sort(uni.index.to_numpy().astype(object))
    w1c = np.searchsorted(vocab, bi["w1"].to_numpy(dtype=object))
    w2c = np.searchsorted(vocab, bi["w2"].to_numpy(dtype=object))
    nb = bi["n"].to_numpy(np.int64)
    ns = starts[bi["w1"]].to_numpy(np.int64)
    un = uni[bi["w2"]].to_numpy(np.int64)
    p_int = LM2_LAMBDA * nb / ns + (1.0 - LM2_LAMBDA) * un / T
    qv = np.floor(np.log(p_int) * 1e9 + 0.5).astype(np.int64)
    key = w1c.astype(np.int64) * len(vocab) + w2c
    order = np.argsort(key)
    key_s, qv_s = key[order], qv[order]

    def score(t: pa.Table) -> pa.Table:
        f, p = _toks(t)
        s = np.zeros(len(t), dtype=np.int64)
        nbg = np.zeros(len(t), dtype=np.int64)
        if len(f):
            code = np.searchsorted(vocab, f)
            adj = p[1:] == p[:-1]
            k = code[:-1][adj].astype(np.int64) * len(vocab) \
                + code[1:][adj]
            par = p[:-1][adj]
            np.add.at(s, par, qv_s[np.searchsorted(key_s, k)])
            np.add.at(nbg, par, 1)
        nz = nbg > 0
        ids = t["doc_id"].to_numpy(zero_copy_only=False)[nz]
        return pa.table({
            "doc_id": pa.array(ids),
            "n_bigrams": pa.array(nbg[nz]),
            "xent": pa.array(round6(-(s[nz] / 1e9) / nbg[nz])),
        })

    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_DOC_LM_XENT2 = f"""
WITH t AS (SELECT doc_id, list_filter(
             regexp_split_to_array(lower(text), '[^a-z0-9]+'),
             x -> x <> '') AS arr
           FROM documents),
uni AS (SELECT w2, count(*) AS n
        FROM (SELECT unnest(arr) AS w2 FROM t) GROUP BY 1),
tt AS (SELECT CAST(sum(n) AS BIGINT) AS tot FROM uni),
big AS (SELECT doc_id, k, arr[k] AS w1, arr[k + 1] AS w2
        FROM t, generate_series(1, 999) gs(k)
        WHERE k < len(arr)),
bi AS (SELECT w1, w2, count(*) AS nb FROM big GROUP BY 1, 2),
cs AS (SELECT w1, CAST(sum(nb) AS BIGINT) AS ns FROM bi GROUP BY 1),
q AS (SELECT b.w1, b.w2,
             CAST(floor(ln(CAST({LM2_LAMBDA} AS DOUBLE) * b.nb / cs.ns
                           + CAST({1.0 - LM2_LAMBDA} AS DOUBLE) * u.n
                             / tt.tot) * 1e9
                        + 0.5) AS BIGINT) AS qv
      FROM bi b JOIN cs USING (w1) JOIN uni u ON u.w2 = b.w2
      CROSS JOIN tt)
SELECT g.doc_id,
       CAST(count(*) AS BIGINT) AS n_bigrams,
       ROUND(-(CAST(sum(q.qv) AS DOUBLE) / 1e9) / count(*), 6) AS xent
FROM big g JOIN q ON g.w1 = q.w1 AND g.w2 = q.w2
GROUP BY g.doc_id
"""


NB_TEST_MOD = 5  # doc_id % 5 == 0 -> held-out test split


def q_nb_lang_classify(sf_dir):
    """Multinomial Naive-Bayes language classifier, trained and
    applied in one job — the fastText-style linear quality/lang
    classifier step of LLM curation pipelines (GPT-3 / LLaMA corpus
    filters), with closed-form one-pass training so the whole
    train+score job is exactly SQL-expressible.

    Split: train = ``doc_id % 5 != 0``, test = ``doc_id % 5 == 0``
    (deterministic, engine-independent). Model: Laplace-smoothed
    multinomial NB over lowercase ``[^a-z0-9]+`` tokens —
    ``logp(w|c) = ln((n_wc + 1)/(tot_c + V))``, prior
    ``ln(docs_c/docs)``. Determinism: every ln is quantised to 1e-9
    fixed point (identical expression in the oracle) so per-doc
    class scores are exact integer sums — order-independent at any
    partitioning — and argmax ties break to the lexicographically
    smallest class on both engines.

    Plan: ONE pass over train emits per-batch (lang, w, n) token
    partials plus (lang, NULL, n_docs) doc-count partials (vocab x
    |langs|-bounded driver fold — the doc_lm_xent pattern); the
    quantised (V+1) x C log-prob matrix (+1 = unseen-token row) is
    broadcast into a pure scoring map over the test split. No
    full-corpus materialisation; test docs with zero tokens are out
    of scope on both engines."""
    docs = _docs(sf_dir, columns=("doc_id", "text", "lang"))

    def train_mask(t: pa.Table):
        return (t["doc_id"].to_numpy(zero_copy_only=False)
                % NB_TEST_MOD != 0)

    model = tx.nb_train(docs, mask_fn=train_mask)

    def score(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % NB_TEST_MOD == 0))
        scored = tx.nb_score_batch(model, t)
        # join the true label back (nb_score_batch keeps row order
        # over its >=1-token subset)
        byid = dict(zip(t["doc_id"].to_pylist(),
                        t["lang"].to_pylist()))
        true = np.asarray([byid[d] for d in
                           scored["doc_id"].to_pylist()], dtype=object)
        plang = np.asarray(scored["pred_lang"].to_pylist(),
                           dtype=object)
        return pa.table({
            "doc_id": scored["doc_id"],
            "lang": pa.array(true, pa.string()),
            "pred_lang": scored["pred_lang"],
            "score_q": scored["score_q"],
            "correct": pa.array((plang == true).astype(np.int64)),
        })

    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


SQL_NB_LANG_CLASSIFY = f"""
WITH train AS (SELECT * FROM documents WHERE doc_id % {NB_TEST_MOD} <> 0),
tok AS (SELECT lang,
               unnest(list_filter(
                   regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                   x -> x <> '')) AS w
        FROM train),
cnt AS (SELECT lang, w, count(*) AS n FROM tok GROUP BY 1, 2),
tot AS (SELECT lang, count(*) AS tot FROM tok GROUP BY 1),
vocab AS (SELECT count(DISTINCT w) AS v FROM tok),
ndoc AS (SELECT count(*) AS nd FROM train),
prior AS (SELECT lang,
                 CAST(floor(ln(CAST(count(*) AS DOUBLE) / nd) * 1e9
                            + 0.5) AS BIGINT) AS pq
          FROM train, ndoc GROUP BY lang, nd),
stok AS (SELECT doc_id, lang AS true_lang,
                unnest(list_filter(
                    regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                    x -> x <> '')) AS w
         FROM documents WHERE doc_id % {NB_TEST_MOD} = 0),
scored AS (SELECT s.doc_id, s.true_lang, t.lang AS clang,
                  p.pq + CAST(sum(CAST(floor(
                      ln((COALESCE(c.n, 0) + 1.0) / (t.tot + v.v)) * 1e9
                      + 0.5) AS BIGINT)) AS BIGINT) AS score_q
           FROM stok s
           CROSS JOIN tot t
           CROSS JOIN vocab v
           JOIN prior p ON p.lang = t.lang
           LEFT JOIN cnt c ON c.lang = t.lang AND c.w = s.w
           GROUP BY s.doc_id, s.true_lang, t.lang, p.pq),
best AS (SELECT doc_id, true_lang, clang, score_q,
                row_number() OVER (PARTITION BY doc_id
                                   ORDER BY score_q DESC, clang) AS rn
         FROM scored)
SELECT doc_id, true_lang AS lang, clang AS pred_lang, score_q,
       CAST(CASE WHEN clang = true_lang THEN 1 ELSE 0 END AS BIGINT)
         AS correct
FROM best WHERE rn = 1
"""
