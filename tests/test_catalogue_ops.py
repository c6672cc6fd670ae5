"""Property tests for the late-round catalogue operators (their
value-exactness is pinned by the DuckDB oracles via the gate; these
pin the *semantic* invariants that an oracle bug could miss)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from leidenalg_ray.pipelines import queries as Q

SF = "/root/testdata/sf0.001"


def _df(res):
    return res.to_pandas() if hasattr(res, "to_pandas") else res


def test_embed_quantize_error_within_half_step(ray_session):
    df = _df(Q.QUERIES["embed_quantize"](SF))
    step = (df["vmax"] - df["vmin"]) / 255
    # rounding to 6dp on both sides -> allow 2e-6 slack
    assert (df["max_err"] <= step / 2 + 2e-6).all()
    assert (df["max_err"] >= 0).all()


def test_walk_skipgrams_match_bruteforce(ray_session):
    walks = _df(Q.QUERIES["random_walks"](SF))
    pairs = _df(Q.QUERIES["walk_skipgrams"](SF))
    want = {}
    for _, g in walks.groupby("walk_id"):
        v = g.sort_values("step")["vid"].to_numpy()
        for i in range(len(v)):
            for j in range(len(v)):
                if i != j and abs(i - j) <= Q.SKIPGRAM_WINDOW:
                    want[(v[i], v[j])] = want.get((v[i], v[j]), 0) + 1
    got = {(r.center, r.context): r.cnt for r in pairs.itertuples()}
    assert got == want


def test_dedup_delta_pairs_are_cross_role(ray_session):
    df = _df(Q.QUERIES["dedup_delta"](SF))
    assert (df["new_id"] % Q.DELTA_MOD == 0).all()
    assert (df["old_id"] % Q.DELTA_MOD != 0).all()


def test_segment_explode_chunking():
    toks25 = " ".join(f"w{i}" for i in range(25))
    toks9 = " ".join(f"w{i}" for i in range(9))
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array([toks25, toks9])})
    out = Q._segment_explode(t)
    df = out.to_pandas()
    assert (df["doc_id"] == 1).all()          # 9 tokens -> no segment
    assert len(df) == 2                        # floor(25/10) segments
    assert df["h"].nunique() == 2


def test_k_anonymity_flag_matches_count(ray_session):
    df = _df(Q.QUERIES["k_anonymity"](SF))
    assert ((df["n"] < Q.K_ANON).astype(int) == df["at_risk"]).all()


def test_co_self_join_partitions_capped_at_cpus(ray_session):
    """A co-graph self-join asked for more partitions than the
    session has CPUs runs one per CPU (more can stall the join), and
    the memoised rows are shared under the capped count."""
    import ray
    from leidenalg_ray.pipelines import tpch_graphs as tg
    from leidenalg_ray.util import join_partitions, session_cpus

    cpus = int(ray.cluster_resources()["CPU"])
    assert session_cpus() == cpus
    assert join_partitions(4 * cpus) == cpus
    assert join_partitions(1) == 1
    rows = tg.co_edge_rows(SF, num_partitions=4 * cpus)
    assert rows.count() > 0
    assert tg.co_edge_rows(SF, num_partitions=cpus) is rows


def test_rich_club_monotone_shrinking_club(ray_session):
    df = _df(Q.QUERIES["rich_club_co"](SF)).sort_values("k")
    # the club can only shrink as k grows
    assert (np.diff(df["n_k"].to_numpy()) <= 0).all()
    assert (np.diff(df["e_k"].to_numpy()) <= 0).all()


def test_audience_overlap_bounds(ray_session):
    df = _df(Q.QUERIES["audience_overlap"](SF))
    assert (df["inter"] <= np.minimum(df["n_a"], df["n_b"])).all()
    assert ((df["jaccard"] > 0) & (df["jaccard"] <= 1)).all()


# ----------------------------------------------------------------------
# cocitation / bibliographic coupling
# ----------------------------------------------------------------------
def _brute_cocitation(edges, cap):
    """Common-in-neighbour counts over distinct edges, sources with
    out-degree > cap excluded — the oracle's definition, by hand."""
    from collections import defaultdict
    out = defaultdict(set)
    for a, b in set(edges):
        out[a].add(b)
    want = defaultdict(int)
    for a, nbrs in out.items():
        if len(nbrs) > cap:
            continue
        nb = sorted(nbrs)
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                want[(nb[i], nb[j])] += 1
    return dict(want)


def test_neighbor_pair_counts_match_bruteforce(ray_session):
    from leidenalg_ray.dist.blocks import DistGraph
    rng = np.random.default_rng(7)
    src = rng.integers(0, 40, 300)
    dst = rng.integers(0, 40, 300)
    g = DistGraph.from_edges(src, dst, n=40, P=4, directed=True)
    u, v, c, dropped = Q._neighbor_pair_counts(g, cap=64)
    got = {(int(a), int(b)): int(k) for a, b, k in zip(u, v, c)}
    assert got == _brute_cocitation(list(zip(src, dst)), 64)
    assert dropped == 0


def test_neighbor_pair_counts_cap_drops_hub(ray_session):
    """A hub source above the degree cap contributes no pairs and is
    counted (no silent caps)."""
    import ray

    from leidenalg_ray.dist.blocks import DistGraph
    from leidenalg_ray.stages.dedup import DropCounter

    # hub 0 -> 1..10 (deg 10 > cap 4); source 20 -> 1,2,3 (under cap)
    src = np.r_[np.zeros(10, np.int64), [20, 20, 20]]
    dst = np.r_[np.arange(1, 11), [1, 2, 3]]
    g = DistGraph.from_edges(src, dst, n=32, P=4, directed=True)
    ctr = DropCounter.remote()
    u, v, c, dropped = Q._neighbor_pair_counts(g, cap=4,
                                               drop_counter=ctr)
    assert dropped == 1
    got = {(int(a), int(b)): int(k) for a, b, k in zip(u, v, c)}
    assert got == {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    deadline_snap = ray.get(ctr.snapshot.remote())
    assert deadline_snap["dropped_buckets"] >= 1


def test_cocitation_and_bibcoupling_orders(ray_session):
    for name in ("cocitation_items", "bibcoupling_items"):
        df = _df(Q.QUERIES[name](SF))
        assert len(df) <= Q.COCITE_TOPK
        assert (df["u"] < df["v"]).all()
        assert (df["n_common"] >= 1).all()
        # sorted by (count desc, u, v)
        key = list(zip(-df["n_common"], df["u"], df["v"]))
        assert key == sorted(key)


# ----------------------------------------------------------------------
# boilerplate trigrams
# ----------------------------------------------------------------------
def test_trigram_explode_dedups_within_doc():
    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "source": pa.array(["s", "s"]),
        # doc 1 repeats the same trigram twice -> one row; doc 2 has
        # only 2 tokens -> no window
        "text": pa.array(["a b c a b c a b c", "a b"]),
    })
    df = Q._trigram_explode(t).to_pandas()
    # windows of doc 1: abc bca cab abc bca cab abc -> 3 distinct
    assert len(df) == 3
    assert (df["source"] == "s").all()


def test_doc_boilerplate_bounds(ray_session):
    df = _df(Q.QUERIES["doc_boilerplate"](SF))
    assert (df["n_shared"] <= df["n_grams"]).all()
    assert ((df["shared_ratio"] >= 0) & (df["shared_ratio"] <= 1)).all()
    assert df["source"].is_unique


# ----------------------------------------------------------------------
# unigram-LM cross-entropy
# ----------------------------------------------------------------------
def test_doc_lm_xent_bounds(ray_session):
    df = _df(Q.QUERIES["doc_lm_xent"](SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    n_nonempty = int((docs["text"].str.strip() != "").sum())
    assert len(df) == n_nonempty
    # xent is a mixture of -ln p(w) terms: strictly positive, bounded
    # by -ln(p_min) = ln(total / min count) <= ln(total)
    total = df["n_tokens"].sum()
    assert (df["xent"] > 0).all()
    assert (df["xent"] <= np.log(total) + 1e-6).all()


def test_doc_lm_xent_uniform_corpus(ray_session, tmp_path):
    """On a corpus where every token is equally frequent, every doc's
    cross-entropy is exactly ln(vocab)."""
    docs = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["aa bb", "cc dd"]),
    })
    import pyarrow.parquet as pq
    pq.write_table(docs, tmp_path / "documents.parquet")
    df = _df(Q.QUERIES["doc_lm_xent"](str(tmp_path)))
    want = round(float(np.log(4.0)), 6)
    assert np.allclose(df["xent"], want, atol=2e-6)
    assert (df["n_tokens"] == 2).all()


# ----------------------------------------------------------------------
# source mixing weights
# ----------------------------------------------------------------------
def test_source_mix_weights_sum_and_upweighting(ray_session):
    df = _df(Q.QUERIES["source_mix_weights"](SF))
    assert abs(df["weight"].sum() - 1.0) < 1e-4
    # temperature < 1 upweights small sources: weight per doc decreases
    # with source size
    d = df.sort_values("n_docs")
    per_doc = d["weight"].to_numpy() / d["n_docs"].to_numpy()
    assert (np.diff(per_doc) <= 1e-12).all()


def test_source_mix_weights_closed_form(ray_session, tmp_path):
    import pyarrow.parquet as pq
    docs = pa.table({
        "doc_id": pa.array(np.arange(5), pa.int64()),
        "source": pa.array(["a", "b", "b", "b", "b"]),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    df = _df(Q.QUERIES["source_mix_weights"](str(tmp_path))) \
        .set_index("source")
    # sqrt(1)=1, sqrt(4)=2 -> weights 1/3, 2/3
    assert abs(df.loc["a", "weight"] - 1 / 3) < 2e-6
    assert abs(df.loc["b", "weight"] - 2 / 3) < 2e-6


# ----------------------------------------------------------------------
# dedup keep-best
# ----------------------------------------------------------------------
def test_dedup_keep_best_is_max_quality_member(ray_session):
    best = _df(Q.QUERIES["dedup_keep_best"](SF))
    clusters = _df(Q.QUERIES["dedup_cluster"](SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "n_chars"]) \
        .set_index("doc_id")["n_chars"]
    for r in best.itertuples():
        members = clusters.loc[clusters["rep_doc_id"] == r.cluster_id,
                               "doc_id"].to_numpy()
        assert r.n_members == len(members)
        assert r.keep_doc_id in members
        assert r.keep_n_chars == docs.loc[members].max()
        # tie-break: min doc_id among max-quality members
        top = members[docs.loc[members].to_numpy() == r.keep_n_chars]
        assert r.keep_doc_id == top.min()


# ----------------------------------------------------------------------
# hard negatives
# ----------------------------------------------------------------------
def test_ann_hard_negatives_match_bruteforce(ray_session):
    df = _df(Q.QUERIES["ann_hard_negatives"](SF)).set_index("query_id")
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    mat = np.stack([np.asarray(v, np.float64) for v in emb["embedding"]])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    ids = emb["vec_id"].to_numpy(np.int64)
    lab = emb["label"].to_numpy(np.int64)
    for qi in range(Q.HARDNEG_NQ):
        qrow = np.flatnonzero(ids == qi)[0]
        sim = mat @ mat[qrow]
        mask = lab != lab[qrow]
        w = np.lexsort((ids[mask], -sim[mask]))[0]
        assert df.loc[qi, "vec_id"] == ids[mask][w]
        assert df.loc[qi, "neg_label"] == lab[mask][w]
        assert df.loc[qi, "neg_label"] != lab[qrow]
        assert abs(df.loc[qi, "cos"] - sim[mask][w]) < 2e-6


# ----------------------------------------------------------------------
# transitivity / dice / summary
# ----------------------------------------------------------------------
def test_transitivity_consistent_with_clustering(ray_session):
    t = _df(Q.QUERIES["transitivity_global_co"](SF)).iloc[0]
    tri = _df(Q.QUERIES["triangles_co"](SF)).iloc[0]
    assert t["n_triangles"] == tri["n_triangles"]
    assert 0 <= t["transitivity"] <= 1
    assert abs(t["transitivity"]
               - 3 * t["n_triangles"] / t["n_wedges"]) < 2e-6


def test_dice_vs_jaccard_relation(ray_session):
    dice = _df(Q.QUERIES["edge_dice_co"](SF)) \
        .set_index(["a", "b"]).sort_index()
    jac = _df(Q.QUERIES["edge_jaccard_co"](SF)) \
        .set_index(["a", "b"]).sort_index()
    assert (dice.index == jac.index).all()
    # d = 2j/(1+j) edge-wise (both 6dp-rounded -> small slack)
    j = jac["jaccard"].to_numpy()
    assert np.allclose(dice["dice"], 2 * j / (1 + j), atol=5e-6)
    assert (dice["support"].to_numpy()
            == jac["support"].to_numpy()).all()


def test_graph_summary_consistency(ray_session):
    s = _df(Q.QUERIES["graph_summary_co"](SF)).iloc[0]
    edges = _df(Q.QUERIES["edges_co"](SF))
    assert s["n_edges"] == len(edges)
    verts = pd.unique(pd.concat([edges["a"], edges["b"]]))
    assert s["n_vertices"] == len(verts)
    assert abs(s["mean_degree"] - 2 * s["n_edges"] / s["n_vertices"]) \
        < 2e-6


def test_dyad_census_consistent_with_reciprocity(ray_session):
    d = _df(Q.QUERIES["dyad_census_co"](SF)).iloc[0]
    r = _df(Q.QUERIES["reciprocity_co"](SF)).iloc[0]
    assert r["n_edges"] == 2 * d["mut"] + d["asym"]
    assert r["n_reciprocal"] == 2 * d["mut"]
    assert d["null_dyads"] >= 0


# ----------------------------------------------------------------------
# ACL PPR push + sweep
# ----------------------------------------------------------------------
def _two_cliques_bridge():
    """Two 6-cliques {0..5} and {6..11} joined by one bridge 5-6."""
    from itertools import combinations
    edges = [(a, b) for a, b in combinations(range(6), 2)]
    edges += [(a + 6, b + 6) for a, b in combinations(range(6), 2)]
    edges += [(5, 6)]
    src = np.array([e[0] for e in edges], np.int64)
    dst = np.array([e[1] for e in edges], np.int64)
    return src, dst


def test_ppr_sweep_finds_seed_clique_across_bridge(ray_session):
    from leidenalg_ray.dist.blocks import DistGraph
    from leidenalg_ray.dist.ppr import ppr_local_community
    src, dst = _two_cliques_bridge()
    g = DistGraph.from_edges(src, dst, n=12, P=4, directed=False,
                             both_directions=True)
    members, phi, p_map, _ = ppr_local_community(g, seed=0,
                                                 alpha=0.15, eps=1e-8)
    assert members.tolist() == [0, 1, 2, 3, 4, 5]
    # cut = 1 bridge edge; vol(S) = 2*15 + 1 = 31
    assert abs(phi - 1.0 / 31.0) < 1e-9


def test_ppr_push_mass_conservation_and_residual_bound(ray_session):
    from leidenalg_ray.dist.blocks import DistGraph
    from leidenalg_ray.dist.ppr import ppr_push
    src, dst = _two_cliques_bridge()
    g = DistGraph.from_edges(src, dst, n=12, P=4, directed=False,
                             both_directions=True)
    eps = 1e-6
    p, r, rounds = ppr_push(g, seed=0, alpha=0.15, eps=eps)
    assert rounds >= 1
    # push conserves p + r mass exactly (up to float error)
    assert abs(sum(p.values()) + sum(r.values()) - 1.0) < 1e-9
    # termination contract: every residual under eps * strength
    deg = np.zeros(12)
    for a, b in zip(src, dst):
        deg[a] += 1
        deg[b] += 1
    for v, rv in r.items():
        assert rv <= eps * deg[v] + 1e-15


def test_ppr_isolated_seed_is_own_community(ray_session):
    from leidenalg_ray.dist.blocks import DistGraph
    from leidenalg_ray.dist.ppr import ppr_local_community
    # vertex 5 isolated; an edge elsewhere so the graph is non-empty
    g = DistGraph.from_edges(np.array([0], np.int64),
                             np.array([1], np.int64), n=8, P=4,
                             directed=False, both_directions=True)
    members, phi, _, _ = ppr_local_community(g, seed=5)
    assert members.tolist() == [5]
    assert phi == 0.0


def test_ppr_support_stays_local(ray_session):
    """Push support never leaves the seed's component, and driver
    state is support-bounded (the o(n) contract)."""
    from leidenalg_ray.dist.blocks import DistGraph
    from leidenalg_ray.dist.ppr import ppr_push
    src, dst = _two_cliques_bridge()
    # add a far-away component the walk cannot reach
    src = np.r_[src, [20, 21]]
    dst = np.r_[dst, [21, 22]]
    g = DistGraph.from_edges(src, dst, n=64, P=4, directed=False,
                             both_directions=True)
    p, r, _ = ppr_push(g, seed=0, alpha=0.15, eps=1e-8)
    touched = set(p) | set(r)
    assert touched <= set(range(12))


# ----------------------------------------------------------------------
# DSIR importance resampling
# ----------------------------------------------------------------------
def test_dsir_select_upweights_target_like_docs(ray_session, tmp_path,
                                                monkeypatch):
    """Planted corpus: target (en) docs repeat one bigram, off-target
    docs another; a fresh doc written in the target's bigram must get
    a strictly higher importance weight than one written in the
    off-target bigram."""
    import pyarrow.parquet as pq
    # dense enough that the +1-per-512-bucket Laplace smoothing does
    # not flatten the 2-bucket planted distributions
    texts = (["alpha beta"] * 200           # en: bigram 'alpha beta'
             + ["gamma delta"] * 200        # de: bigram 'gamma delta'
             + ["alpha beta",               # probes (de so they don't
                "gamma delta"])             # move the target dist)
    langs = ["en"] * 200 + ["de"] * 202
    docs = pa.table({
        "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(langs),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    # patch the DEFINING module (post-split, q_dsir_select reads its
    # own domain module's global; queries only re-exports it)
    from leidenalg_ray.pipelines import qtext
    monkeypatch.setattr(qtext, "DSIR_TOP_K", 500)   # keep every doc
    df = _df(Q.QUERIES["dsir_select"](str(tmp_path))) \
        .set_index("doc_id")
    assert len(df) == len(texts)
    assert df.loc[400, "logw"] > 0 > df.loc[401, "logw"]
    # sample_key = logw + Gumbel(md5(doc_id)) exactly
    h = int.from_bytes(
        __import__("hashlib").md5(b"400").digest()[:8], "big")
    g = -np.log(-np.log((h % 1_000_000 + 0.5) / 1_000_000))
    assert abs(df.loc[400, "sample_key"]
               - round(df.loc[400, "logw"] + g, 6)) < 2e-6


def test_dsir_bucket_stream_matches_naive(ray_session):
    """_dsir_doc_buckets == per-doc adjacent-pair bigrams hashed with
    the documented mod algebra."""
    import re
    t = pa.table({"text": pa.array(["The quick brown fox", "",
                                    "one", "a b a"])})
    di, bk = Q._dsir_doc_buckets(t)
    want = []
    for i, s in enumerate(["The quick brown fox", "", "one", "a b a"]):
        toks = [w for w in re.split("[^a-z0-9]+", s.lower()) if w]
        for a, b in zip(toks, toks[1:]):
            ha = Q.tx.hash_token(a)
            hb = Q.tx.hash_token(b)
            want.append((i, ((ha % 512) * 1000003 + hb % 512) % 512))
    assert list(zip(di.tolist(), bk.tolist())) == want


# ----------------------------------------------------------------------
# Gopher quality rules
# ----------------------------------------------------------------------
def test_gopher_rules_planted(ray_session, tmp_path):
    import pyarrow.parquet as pq
    good = ("the data be good and that have with of to " * 6).strip()
    texts = [
        good,                                   # passes every rule
        "short text the be",                    # < 50 words
        good + "\n" + "\n".join(["- bullet"] * 60),  # bullet lines
        good.replace(" ", " # ")[:],            # symbol-heavy
        ("12345 67890 " * 30).strip() + " the be",  # non-alpha words
    ]
    docs = pa.table({
        "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    df = _df(Q.QUERIES["doc_gopher_rules"](str(tmp_path))) \
        .set_index("doc_id").sort_index()
    assert df.loc[0, "keep"] == 1
    assert df.loc[0, "n_words"] == 60
    assert df.loc[0, "stop_hits"] == 8
    assert (df.loc[1:, "keep"] == 0).all()
    assert df.loc[1, "n_words"] < 50
    assert df.loc[2, "bullet_ratio"] > 0.9
    assert df.loc[3, "symbol_ratio"] > 0.1
    assert df.loc[4, "alpha_word_ratio"] < 0.8


# ----------------------------------------------------------------------
# Product-quantization ANN
# ----------------------------------------------------------------------
def test_ann_pq_matches_naive_replica(ray_session):
    """Engine output == a straight-line numpy PQ replica (codebooks
    from the first 16 vectors, argmin codes, integer-quantised ADC)."""
    df = _df(Q.QUERIES["ann_pq"](SF)).sort_values(
        ["query_id", "rank"]).reset_index(drop=True)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    vec = np.stack([np.asarray(v, np.float64) for v in emb["embedding"]])
    ids = emb["vec_id"].to_numpy(np.int64)
    order = np.argsort(ids)
    vec, ids = vec[order], ids[order]
    anchors = vec[ids < Q.PQ_K]
    M, SD, K = Q.PQ_M, Q.PQ_SUBDIM, Q.PQ_K
    codes = np.empty((len(ids), M), dtype=np.int64)
    for m in range(M):
        cb = anchors[:, m * SD:(m + 1) * SD]
        d2 = ((vec[:, None, m * SD:(m + 1) * SD]
               - cb[None]) ** 2).sum(-1)
        codes[:, m] = np.argmin(d2, axis=1)
    rows = []
    for qi in np.flatnonzero(ids < Q.PQ_NQ):
        s = np.zeros(len(ids), dtype=np.int64)
        for m in range(M):
            cb = anchors[:, m * SD:(m + 1) * SD]
            d2 = ((vec[qi, m * SD:(m + 1) * SD][None] - cb) ** 2) \
                .sum(-1)
            dq = np.floor(d2 * 1e9 + 0.5).astype(np.int64)
            s += dq[codes[:, m]]
        top = np.lexsort((ids, s))[:Q.PQ_TOPK]
        for r, t in enumerate(top, 1):
            rows.append((ids[qi], ids[t],
                         round(float(s[t] / 1e9), 6), r))
    want = pd.DataFrame(rows, columns=["query_id", "vec_id",
                                       "adist", "rank"]) \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert len(df) == len(want)
    for c in want.columns:
        assert (df[c].to_numpy() == want[c].to_numpy()).all(), c


def test_ann_pq_self_distance_is_reconstruction_error(ray_session):
    """A query's ADC distance to ITSELF equals its total quantisation
    error — and every anchor vector (vec_id < 16) has adist 0 to the
    query whose codes it defines, when the query IS that anchor."""
    df = _df(Q.QUERIES["ann_pq"](SF))
    # queries are vec_id < 5, all anchors: self distance must be 0
    # (each subvector's nearest codeword is itself), hence rank 1
    self_rows = df[df["query_id"] == df["vec_id"]]
    assert len(self_rows) == Q.PQ_NQ
    assert (self_rows["adist"] == 0).all()
    assert (self_rows["rank"] == 1).all()


# ----------------------------------------------------------------------
# nominal assortativity / crossing / per-group reservoir sample
# ----------------------------------------------------------------------
def test_assortativity_nominal_bounds_and_consistency(ray_session):
    df = _df(Q.QUERIES["assortativity_nominal_co"](SF))
    assert -1.0 <= df["r_nominal"].iloc[0] <= 1.0
    cross = _df(Q.QUERIES["crossing_brand_co"](SF))
    # endpoint count = 2x undirected edges; same-brand endpoints =
    # 2x non-crossing edges
    assert df["n_endpoints"].iloc[0] == 2 * len(cross)
    assert df["same_brand"].iloc[0] == 2 * int(
        (cross["crossing"] == 0).sum())


def test_events_sample_per_user_is_deterministic_subset(ray_session):
    df = _df(Q.QUERIES["events_sample_per_user"](SF))
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "event_id"])
    assert (df.groupby("user_id").size() <= Q.SAMPLE_PER_USER_K).all()
    # every (user, event) pair exists in the source, and users with
    # <= K events keep all of them
    src = set(map(tuple, ev.to_numpy()))
    assert all((u, e) in src for u, e in df.to_numpy())
    sizes = ev.groupby("user_id").size()
    got = df.groupby("user_id").size()
    small = sizes[sizes <= Q.SAMPLE_PER_USER_K]
    assert (got.reindex(small.index).fillna(0) == small).all()
    # rerun is bit-identical (hash priorities, no RNG)
    df2 = _df(Q.QUERIES["events_sample_per_user"](SF))
    a = df.sort_values(["user_id", "event_id"]).reset_index(drop=True)
    b = df2.sort_values(["user_id", "event_id"]).reset_index(drop=True)
    assert a.equals(b)


# ----------------------------------------------------------------------
# bipartite butterflies
# ----------------------------------------------------------------------
def test_butterflies_side_symmetry_and_bruteforce(ray_session):
    """4-cycles counted from the part side must equal the supplier
    side (an independent route to the same total), and both must match
    the distributed kernel's output."""
    from collections import defaultdict

    df = _df(Q.QUERIES["butterflies_ps"](SF))
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_partkey", "l_suppkey"])
    edges = set(map(tuple, li.to_numpy()))
    by_part, by_supp = defaultdict(set), defaultdict(set)
    for p, s in edges:
        by_part[p].add(s)
        by_supp[s].add(p)

    def butterflies(nbr):
        pair = defaultdict(int)
        for _, ns in nbr.items():
            nb = sorted(ns)
            for i in range(len(nb)):
                for j in range(i + 1, len(nb)):
                    pair[(nb[i], nb[j])] += 1
        return sum(c * (c - 1) // 2 for c in pair.values())

    b_from_parts = butterflies(by_part)     # pairs of suppliers
    b_from_supps = butterflies(by_supp)     # pairs of parts
    assert b_from_parts == b_from_supps
    assert int(df["n_butterflies"].iloc[0]) == b_from_parts
    cat = sum((len(by_part[p]) - 1) * (len(by_supp[s]) - 1)
              for p, s in edges)
    assert int(df["n_caterpillars"].iloc[0]) == cat
    if cat:
        assert abs(df["bipartite_cc"].iloc[0]
                   - round(4.0 * b_from_parts / cat, 6)) < 1e-12


# ----------------------------------------------------------------------
# SemDeDup
# ----------------------------------------------------------------------
def test_semdedup_matches_bruteforce(ray_session):
    df = _df(Q.QUERIES["semdedup"](SF)).sort_values("vec_id") \
        .reset_index(drop=True)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"]) \
        .sort_values("vec_id").reset_index(drop=True)
    X = np.stack([np.asarray(v, np.float64) for v in emb["embedding"]])
    U = X / np.linalg.norm(X, axis=1, keepdims=True)
    C = U[emb["vec_id"].to_numpy() < Q.SEMDEDUP_K]
    sim_c = U @ C.T
    b = np.argmax(sim_c, axis=1)
    ccos = sim_c[np.arange(len(U)), b]
    ids = emb["vec_id"].to_numpy()
    keep = np.ones(len(ids), dtype=np.int64)
    for i in range(len(ids)):
        same = np.flatnonzero((b == b[i]) & (ids != ids[i]))
        s = U[same] @ U[i]
        wins = (ccos[same] < ccos[i]) | ((ccos[same] == ccos[i])
                                         & (ids[same] < ids[i]))
        if ((s >= Q.SEMDEDUP_TAU) & wins).any():
            keep[i] = 0
    assert (df["vec_id"].to_numpy() == ids).all()
    assert (df["bucket"].to_numpy() == b).all()
    assert (df["keep"].to_numpy() == keep).all()
    # the per-cluster lowest-centroid-cosine member is always kept
    low = df.sort_values(["ccos", "vec_id"]).groupby("bucket").head(1)
    assert (low["keep"] == 1).all()


def test_kmeans_fixed_matches_serial_lloyd(ray_session):
    """The distributed 2-round Lloyd must equal a serial numpy
    replica (same quantised-mean update, same tie rule)."""
    df = _df(Q.QUERIES["kmeans_fixed"](SF)).sort_values("bucket") \
        .reset_index(drop=True)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"]) \
        .sort_values("vec_id").reset_index(drop=True)
    X = np.stack([np.asarray(v, np.float64) for v in emb["embedding"]])
    U = X / np.linalg.norm(X, axis=1, keepdims=True)
    cm = X[emb["vec_id"].to_numpy() < Q.KMEANS_K]
    labels = np.arange(Q.KMEANS_K, dtype=np.int64)
    for _ in range(Q.KMEANS_ITERS):
        cmn = cm / np.linalg.norm(cm, axis=1, keepdims=True)
        b = np.argmax(U @ cmn.T, axis=1)
        qz = np.floor(X * Q.CENTROID_Q + 0.5).astype(np.int64)
        ub = np.unique(b)
        cm = np.stack([
            (qz[b == i].sum(axis=0) / Q.CENTROID_Q) / (b == i).sum()
            for i in ub])
        sizes = np.array([(b == i).sum() for i in ub], np.int64)
        labels = labels[ub]
    assert (df["bucket"].to_numpy() == labels).all()
    assert (df["n"].to_numpy() == sizes).all()
    assert int(df["n"].sum()) == len(emb)
    for j in range(Q.CENTROID_DIMS):
        assert np.allclose(df[f"c{j}"].to_numpy(),
                           np.round(cm[:, j], 6), atol=1e-12)


def test_containment_asymmetry_and_relation_to_jaccard(ray_session):
    """containment(a->b) >= jaccard(a,b) always; a doc fully inside
    another has containment 1.0 regardless of the host's size."""
    from leidenalg_ray.stages import dedup as dd
    import ray.data as rd
    docs = rd.from_items([
        {"doc_id": 0, "text": "alpha beta gamma delta epsilon zeta"},
        {"doc_id": 1, "text": "alpha beta gamma delta epsilon zeta "
                              "eta theta iota kappa lam mu nu xi"},
        {"doc_id": 2, "text": "unrelated words entirely different "
                              "tokens here now"},
    ])
    df = _df(dd.containment_all_pairs(docs, threshold=0.9)) \
        .sort_values(["a", "b"]).reset_index(drop=True)
    # doc 0's shingles are a strict subset of doc 1's
    assert ((df["a"] == 0) & (df["b"] == 1)
            & (df["containment"] == 1.0)).any()
    # the reverse direction is diluted below 0.9 -> absent
    assert not ((df["a"] == 1) & (df["b"] == 0)).any()
    assert not (df["a"] == 2).any() and not (df["b"] == 2).any()


def test_k4_count_closed_form_and_bruteforce(ray_session):
    from itertools import combinations

    from leidenalg_ray.dist.triangles import k4_count_fast

    # two disjoint cliques: K6 (15 tri, 15 K4) + K4 (4 tri, 1 K4)
    edges = [(u, v) for u, v in combinations(range(6), 2)]
    edges += [(u + 6, v + 6) for u, v in combinations(range(4), 2)]
    src = np.array([e[0] for e in edges], np.int64)
    dst = np.array([e[1] for e in edges], np.int64)
    tri, k4 = k4_count_fast(src, dst, 10, P=4)
    assert (tri, k4) == (20 + 4, 15 + 1)

    # random graph vs brute force over all 4-subsets
    rng = np.random.default_rng(3)
    rs = rng.integers(0, 18, 160)
    rdst = rng.integers(0, 18, 160)
    es = {(min(a, b), max(a, b)) for a, b in zip(rs, rdst) if a != b}
    brute = sum(1 for q in combinations(range(18), 4)
                if all((min(x, y), max(x, y)) in es
                       for x, y in combinations(q, 2)))
    _, k4r = k4_count_fast(rs, rdst, 18, P=4)
    assert k4r == brute


def test_doc_novelty_first_doc_and_duplicate(ray_session):
    df = _df(Q.QUERIES["doc_novelty"](SF)).set_index("doc_id")
    # the earliest doc's grams are all first occurrences by definition
    assert df.loc[df.index.min(), "novelty"] == 1.0
    assert (df["n_novel"] <= df["n_grams"]).all()
    assert ((df["novelty"] >= 0) & (df["novelty"] <= 1)).all()
    # novelty sums: every distinct gram is novel in exactly one doc
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    import re
    grams = set()
    for t in docs["text"]:
        w = [x for x in re.split(r"[^a-z0-9]+", t.lower()) if x]
        grams |= {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}
    assert int(df["n_novel"].sum()) == len(grams)


def test_strip_boilerplate_rewrite(ray_session, tmp_path):
    """Planted template: two docs of one source share a 10-token
    header segment; the cleaned stream drops it from both, and a
    unique doc passes through byte-identically."""
    import hashlib

    import pyarrow.parquet as pq

    hdr = " ".join(f"tpl{i}" for i in range(10))
    body_a = " ".join(f"worda{i}" for i in range(10))
    body_b = " ".join(f"wordb{i}" for i in range(10))
    uniq = " ".join(f"solo{i}" for i in range(10))
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([f"{hdr} {body_a}", f"{hdr} {body_b}", uniq]),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s0", "s0", "s0"]),
        "n_chars": pa.array([1, 1, 1], pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    df = _df(Q.QUERIES["doc_strip_boilerplate"](str(d))) \
        .set_index("doc_id")
    assert df.loc[0, "n_segs"] == 2 and df.loc[0, "n_kept"] == 1
    assert df.loc[0, "cleaned_md5"] == hashlib.md5(
        body_a.encode()).hexdigest()
    assert df.loc[1, "cleaned_md5"] == hashlib.md5(
        body_b.encode()).hexdigest()
    assert df.loc[2, "n_kept"] == 1
    assert df.loc[2, "cleaned_md5"] == hashlib.md5(
        uniq.encode()).hexdigest()


def test_constraint_closed_forms(ray_session):
    """igraph constraint() parity: star center = 1/k, leaves = 1.0,
    triangle vertices = 1.125 — the textbook closed forms."""
    from leidenalg_ray.pipelines.queries import _constraint_scores

    aa = np.zeros(4, np.int64)
    bb = np.arange(1, 5, dtype=np.int64)
    df = _df(_constraint_scores(aa, bb, np.ones(4), 5)) \
        .set_index("vid")
    assert df.loc[0, "constraint_score"] == 0.25
    assert (df.loc[1:, "constraint_score"] == 1.0).all()

    aa = np.array([0, 0, 1], np.int64)
    bb = np.array([1, 2, 2], np.int64)
    df = _df(_constraint_scores(aa, bb, np.ones(3), 3))
    assert (df["constraint_score"] == 1.125).all()


def test_constraint_matches_unquantised_reference(ray_session):
    """Quantisation error stays under 1e-4 of the exact float formula
    on a random weighted graph, at any partition count."""
    from collections import defaultdict

    from leidenalg_ray.pipelines.queries import _constraint_scores

    rng = np.random.default_rng(11)
    aa = rng.integers(0, 25, 80).astype(np.int64)
    bb = rng.integers(0, 25, 80).astype(np.int64)
    keep = aa != bb
    aa, bb = np.minimum(aa, bb)[keep], np.maximum(aa, bb)[keep]
    k = np.unique(aa * 25 + bb)
    aa, bb = k // 25, k % 25
    ww = rng.integers(1, 5, len(aa)).astype(np.float64)
    adj = defaultdict(dict)
    for x, y, w in zip(aa, bb, ww):
        adj[x][y] = w
        adj[y][x] = w
    exact = {}
    for u in adj:
        s = sum(adj[u].values())
        c = 0.0
        for j in adj[u]:
            t = adj[u][j] / s
            for q in adj[u]:
                if q != j and j in adj[q]:
                    sq = sum(adj[q].values())
                    t += (adj[u][q] / s) * (adj[q][j] / sq)
            c += t * t
        exact[u] = c
    for P in (2, 8):
        df = _df(_constraint_scores(aa, bb, ww, 25, P=P)) \
            .set_index("vid")
        for u, c in exact.items():
            assert abs(df.loc[u, "constraint_score"] - c) < 1e-4


# ----------------------------------------------------------------------
# A-ES weighted sampling / WL drift
# ----------------------------------------------------------------------
def test_aes_sample_matches_serial_replica(ray_session):
    import hashlib

    df = _df(Q.QUERIES["orders_aes_sample"](SF))
    od = pd.read_parquet(f"{SF}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice"])
    k = od["o_orderkey"].to_numpy()
    w = np.floor(od["o_totalprice"].to_numpy() * 100 + 0.5) \
        .astype(np.int64)
    h = np.array([int.from_bytes(
        hashlib.md5(str(int(x)).encode()).digest()[:8], "big")
        for x in k], dtype=np.uint64)
    u = ((h >> np.uint64(12)).astype(np.float64) + 1.0) / (2.0 ** 52)
    q = np.floor(np.log(u) * Q.AES_LN_Q + 0.5).astype(np.int64)
    key = q.astype(np.float64) / w
    order = np.lexsort((k, -key))[:Q.AES_TOPK]
    assert (df["o_orderkey"].to_numpy() == k[order]).all()
    assert df["o_orderkey"].is_unique          # without replacement
    assert len(df) == min(Q.AES_TOPK, len(od))
    # weighted sampling upweights: mean weight of the sample exceeds
    # the corpus mean (deterministic on this corpus)
    assert od.set_index("o_orderkey").loc[
        df["o_orderkey"], "o_totalprice"].mean() \
        > od["o_totalprice"].mean()


def test_wl_drift_identical_slices_is_one(ray_session):
    df = _df(Q.q_wl_drift_co(SF, num_partitions=4))
    assert 0.0 <= df["wl_jaccard"].iloc[0] <= 1.0
    assert int(df["n_common"].iloc[0]) <= min(df["n_colors_a"].iloc[0],
                                              df["n_colors_b"].iloc[0])
    ident = _df(Q.q_wl_drift_co(SF, years=(1995, 1995),
                                num_partitions=4))
    assert ident["wl_jaccard"].iloc[0] == 1.0
    assert ident["n_colors_a"].iloc[0] == ident["n_common"].iloc[0]


def test_sparsify_bounds_and_rrf_sanity(ray_session):
    df = _df(Q.QUERIES["graph_sparsify_co"](SF))
    r = df.iloc[0]
    assert 0 < r["n_kept"] <= r["n_edges"]
    assert 0 < r["w_kept"] <= r["w_total"]
    # keeping each vertex's top-k favours heavy edges: weight
    # retention must beat edge retention
    assert r["weight_retention"] >= r["edge_retention"]

    rrf = _df(Q.QUERIES["rrf_centrality_co"](SF))
    assert len(rrf) == Q.RRF_TOPN
    assert rrf["vid"].is_unique
    assert (rrf["rrf"] <= round(2.0 / (Q.RRF_K + 1), 6)).all()
    # sorted by fused score desc
    v = rrf["rrf"].to_numpy()
    assert (v[:-1] >= v[1:]).all()


def test_ann_ivfpq_is_probe_filtered_pq(ray_session):
    """IVF-PQ results are exactly the PQ results restricted to each
    query's probed buckets — the composite adds pruning, not new
    distances — and self-retrieval still ranks first."""
    pq = _df(Q.QUERIES["ann_pq"](SF))
    ivfpq = _df(Q.QUERIES["ann_ivfpq"](SF))
    assert set(ivfpq["query_id"]) <= set(pq["query_id"])
    m = ivfpq.merge(pq, on=["query_id", "vec_id"], how="left",
                    suffixes=("", "_pq"))
    # any candidate both pipelines scored carries the same distance
    both = m.dropna(subset=["adist_pq"])
    assert (both["adist"] == both["adist_pq"]).all()
    # a query is its own nearest code (zero reconstruction ADC when
    # the query is an anchor): rank 1 is the query itself
    for q in ivfpq["query_id"].unique():
        top = ivfpq[ivfpq["query_id"] == q].sort_values("rank").iloc[0]
        assert top["vec_id"] == q


def test_ppjoin_equals_all_pairs(ray_session):
    """Prefix filtering is lossless: the PPJoin result must equal the
    brute-force all-pairs verify at the same threshold/shingles."""
    from leidenalg_ray.stages import dedup as dd
    docs = Q._docs(SF)
    pp = _df(dd.ppjoin_pairs(docs, threshold=Q.PPJOIN_TAU,
                             shingle_k=2, num_partitions=4)) \
        .sort_values(["a", "b"]).reset_index(drop=True)
    ap = _df(dd.jaccard_all_pairs(Q._docs(SF),
                                  threshold=Q.PPJOIN_TAU,
                                  shingle_k=2)) \
        .sort_values(["a", "b"]).reset_index(drop=True)
    assert pp.equals(ap)
    assert (pp["jaccard"] >= Q.PPJOIN_TAU).all()


def test_knn_eval_consistency(ray_session):
    ev = _df(Q.QUERIES["knn_eval"](SF))
    pred = _df(Q.QUERIES["knn_label_predict"](SF))
    # sum of per-class TP == total correct predictions
    assert int(ev["tp"].sum()) == int(pred["correct"].sum())
    # FP total == FN total == wrong predictions (single-label tasks)
    wrong = len(pred) - int(pred["correct"].sum())
    assert int(ev["fp"].sum()) == wrong
    assert int(ev["fn"].sum()) == wrong
    assert ((ev["f1"] >= 0) & (ev["f1"] <= 1)).all()


def test_bpe_merge_candidates_bruteforce(ray_session):
    import re
    from collections import Counter

    df = _df(Q.QUERIES["bpe_merge_candidates"](SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["text"])
    cnt = Counter()
    for t in docs["text"]:
        for w in re.findall(r"[a-z0-9_]+", t.lower()):
            for i in range(len(w) - 1):
                cnt[w[i:i + 2]] += 1
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
    want = want[:Q.BPE_TOPK]
    got = list(zip(df["pair"], df["n"]))
    assert got == [(p, n) for p, n in want]


def test_spearman_bounds_and_selfcorrelation(ray_session):
    df = _df(Q.QUERIES["spearman_centrality_co"](SF))
    assert -1.0 <= df["spearman_rho"].iloc[0] <= 1.0
    # rho of a ranking with itself: sum_d2 == 0 -> rho == 1
    n = int(df["n"].iloc[0])
    assert n > 0 and int(df["sum_d2"].iloc[0]) >= 0


def test_degree_powerlaw_hill_quantisation(ray_session):
    from leidenalg_ray.pipelines import tpch_graphs as tg
    df = _df(Q.QUERIES["degree_powerlaw_co"](SF))
    a, b, _w = tg.co_edge_arrays(SF)
    L = int(max(a.max(), b.max())) + 1
    degs = np.bincount(a, minlength=L) + np.bincount(b, minlength=L)
    degs = degs[degs >= Q.POWERLAW_DMIN]
    # unquantised Hill MLE: the 1e-9 fixed-point version must agree
    alpha = 1.0 + len(degs) / np.sum(
        np.log(degs / (Q.POWERLAW_DMIN - 0.5)))
    assert df["n_tail"].iloc[0] == len(degs)
    assert df["alpha"].iloc[0] == pytest.approx(alpha, abs=1e-6)
    assert df["alpha"].iloc[0] > 1.0


def test_docs_funnel_monotone(ray_session):
    df = _df(Q.QUERIES["docs_funnel"](SF)).sort_values("stage")
    n = df["n_docs"].to_numpy()
    assert len(n) == 4
    assert (np.diff(n) <= 0).all(), "funnel counts must be monotone"
    assert n[0] > 0 and n[-1] >= 0


def test_textrank_keywords_properties(ray_session):
    df = _df(Q.QUERIES["textrank_keywords"](SF))
    assert len(df) == Q.TEXTRANK_TOPK
    assert (df["rank"] > 0).all()
    # selection order: rounded rank desc, token asc
    key = list(zip(-df["rank"], df["token"]))
    assert key == sorted(key)
    # every keyword actually occurs in the corpus
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["text"])
    corpus_tokens = set()
    for t in docs["text"]:
        corpus_tokens.update(Q.tx.TOKEN_RE.findall(t.lower()))
    assert set(df["token"]) <= corpus_tokens


def test_percolation_monotone_and_full_graph_limit(ray_session):
    df = _df(Q.QUERIES["percolation_co"](SF)).sort_values(
        "kept_buckets")
    assert list(df["kept_buckets"]) == list(Q.PERC_BUCKETS)
    assert (np.diff(df["n_edges"].to_numpy()) >= 0).all()
    assert (np.diff(df["giant_size"].to_numpy()) >= 0).all()
    # the 256/256 level is the unfiltered graph: giant == the largest
    # component of the plain CC query
    cc = _df(Q.QUERIES["cc_sizes_ps"](SF))  # ps graph, sanity only
    full = df[df["kept_buckets"] == 256]
    assert int(full["giant_size"].iloc[0]) >= 2


def test_nb_lang_classify_matches_serial_replica(ray_session):
    import math
    import re
    from collections import Counter

    df = _df(Q.QUERIES["nb_lang_classify"](SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    tok = re.compile("[a-z0-9]+")
    train = docs[docs["doc_id"] % Q.NB_TEST_MOD != 0]
    cnt, tot, ndoc = {}, Counter(), Counter()
    vocab = set()
    for _, r in train.iterrows():
        ndoc[r["lang"]] += 1
        for w in tok.findall(r["text"].lower()):
            cnt[(r["lang"], w)] = cnt.get((r["lang"], w), 0) + 1
            tot[r["lang"]] += 1
            vocab.add(w)
    classes = sorted(ndoc)
    V = len(vocab)
    n_train = len(train)

    def q(x):
        return int(math.floor(math.log(x) * 1e9 + 0.5))

    got = {int(r.doc_id): (r.pred_lang, int(r.score_q), int(r.correct))
           for r in df.itertuples()}
    test = docs[docs["doc_id"] % Q.NB_TEST_MOD == 0]
    n_checked = 0
    for _, r in test.iterrows():
        words = tok.findall(r["text"].lower())
        if not words:
            assert int(r["doc_id"]) not in got
            continue
        best = None
        for c in classes:
            s = q(ndoc[c] / n_train)
            for w in words:
                s += q((cnt.get((c, w), 0) + 1.0) / (tot[c] + V))
            if best is None or s > best[1]:
                best = (c, s)
        pred, score = best
        assert got[int(r["doc_id"])] == (
            pred, score, int(pred == r["lang"]))
        n_checked += 1
    assert n_checked == len(got) and n_checked > 0


def test_doc_lm_xent2_matches_serial_replica(ray_session):
    import math
    import re
    from collections import Counter

    df = _df(Q.QUERIES["doc_lm_xent2"](SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    tok = re.compile("[a-z0-9]+")
    uni, bi, starts = Counter(), Counter(), Counter()
    toks = {}
    for _, r in docs.iterrows():
        ws = tok.findall(r["text"].lower())
        toks[int(r["doc_id"])] = ws
        uni.update(ws)
        for a, b in zip(ws, ws[1:]):
            bi[(a, b)] += 1
            starts[a] += 1
    T = sum(uni.values())
    got = {int(r.doc_id): (int(r.n_bigrams), r.xent)
           for r in df.itertuples()}
    n_checked = 0
    for did, ws in toks.items():
        pairs = list(zip(ws, ws[1:]))
        if not pairs:
            assert did not in got
            continue
        s = 0
        for a, b in pairs:
            p = (Q.LM2_LAMBDA * bi[(a, b)] / starts[a]
                 + (1.0 - Q.LM2_LAMBDA) * uni[b] / T)
            s += int(math.floor(math.log(p) * 1e9 + 0.5))
        want = Q.round6(-(s / 1e9) / len(pairs))
        assert got[did] == (len(pairs), want)
        n_checked += 1
    assert n_checked == len(got) > 0


def test_embed_pca_properties(ray_session):
    df = _df(Q.QUERIES["embed_pca"](SF)).sort_values("dim")
    v = df["loading"].to_numpy()
    assert len(v) == Q.PCA_DIM
    # unit norm (up to the 6dp rounding of each entry)
    assert abs(v @ v - 1.0) < 1e-4
    # sign convention: first nonzero loading is positive
    nz = v[v != 0]
    assert len(nz) and nz[0] > 0
    emb = pd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["embedding"])
    X = np.stack([np.asarray(e, np.float64) for e in emb["embedding"]])
    C = np.cov(X.T, bias=True)
    w = np.linalg.eigvalsh(C)
    start = np.ones(Q.PCA_DIM) / np.sqrt(Q.PCA_DIM)
    r0 = start @ C @ start
    r3 = v @ C @ v / (v @ v)
    # power iteration never decreases the Rayleigh quotient, and
    # three steps should recover a large fraction of lambda_max even
    # on this nearly-flat synthetic spectrum
    assert r3 >= r0 - 1e-9
    assert r3 >= 0.5 * w[-1]


def test_embed_pca_converges_on_anisotropic_planted(ray_session, tmp_path):
    # planted corpus with a dominant direction: the 3-step iterate
    # must align with the true top PC when a real eigengap exists
    import pyarrow.parquet as papq
    rng = np.random.default_rng(7)
    top = rng.normal(size=Q.PCA_DIM)
    top /= np.linalg.norm(top)
    X = (rng.normal(size=(400, 1)) * 5.0) @ top[None, :] \
        + rng.normal(size=(400, Q.PCA_DIM)) * 0.3
    t = pa.table({
        "vec_id": pa.array(np.arange(400, dtype=np.int64)),
        "embedding": pa.array([x.astype(np.float32) for x in X],
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(400, dtype=np.int32)),
    })
    papq.write_table(t, f"{tmp_path}/embeddings.parquet")
    df = _df(Q.QUERIES["embed_pca"](str(tmp_path))).sort_values("dim")
    v = df["loading"].to_numpy()
    assert abs(v @ top) > 0.99


def test_embed_detop_is_exact_projection(ray_session):
    pca = _df(Q.QUERIES["embed_pca"](SF)).sort_values("dim")
    det = _df(Q.QUERIES["embed_detop"](SF))
    emb = pd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    X = np.stack([np.asarray(e, np.float64) for e in emb["embedding"]])
    xq = np.floor(X * Q.PCA_QSCALE + 0.5).astype(np.int64)
    vq = np.floor(pca["loading"].to_numpy() * 1e6 + 0.5).astype(np.int64)
    want = Q.round6((xq @ vq) / 1e12)
    got = det.set_index("vec_id").loc[
        emb["vec_id"].to_numpy()]["coef"].to_numpy()
    assert np.array_equal(got, want)
    # the common component is actually common: mean |coef| is a
    # nontrivial fraction of mean vector norm
    norms = np.linalg.norm(X, axis=1)
    assert np.abs(got).mean() > 0.01 * norms.mean()


def test_source_quality_gate_consistency(ray_session):
    sg = _df(Q.QUERIES["source_quality_gate"](SF))
    gop = _df(Q.QUERIES["doc_gopher_rules"](SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "source"])
    j = gop.merge(docs, on="doc_id")
    want = j.groupby("source").agg(
        n_docs=("keep", "size"), n_keep=("keep", "sum")).reset_index()
    m = sg.merge(want, on="source", suffixes=("", "_w"))
    assert len(m) == len(sg) == docs["source"].nunique()
    assert (m["n_docs"] == m["n_docs_w"]).all()
    assert (m["n_keep"] == m["n_keep_w"]).all()
    rate = m["n_keep"].to_numpy() / m["n_docs"].to_numpy()
    assert np.array_equal(
        m["source_keep"].to_numpy(),
        (rate >= Q.SRC_QUALITY_MIN_RATE).astype(np.int64))


def test_embed_rp_distance_preservation(ray_session):
    rp = _df(Q.QUERIES["embed_rp"](SF))
    emb = pd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    X = np.stack([np.asarray(e, np.float64) for e in emb["embedding"]])
    ids = emb["vec_id"].to_numpy()
    Y = rp.pivot(index="vec_id", columns="k", values="y") \
        .loc[ids].to_numpy()
    assert Y.shape == (len(ids), Q.RP_K)
    # JL: squared distances preserved in expectation; with K=16 the
    # MEAN distortion over many pairs concentrates near 1
    rng = np.random.default_rng(3)
    a = rng.integers(0, len(ids), 200)
    b = rng.integers(0, len(ids), 200)
    keep = a != b
    dx = ((X[a[keep]] - X[b[keep]]) ** 2).sum(1)
    dy = ((Y[a[keep]] - Y[b[keep]]) ** 2).sum(1)
    ratio = dy / dx
    assert 0.8 < ratio.mean() < 1.2
    # unbiased sign matrix: every projected dim is nonconstant
    assert (Y.std(0) > 0).all()


def test_bpe_train_apply_matches_serial_replica(ray_session):
    import hashlib
    from collections import Counter

    df = _df(Q.QUERIES["bpe_train_apply"](SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    hist = Counter()
    toks = {}
    for _, r in docs.iterrows():
        ws = Q.tx.TOKEN_RE.findall(r["text"].lower())
        toks[int(r["doc_id"])] = ws
        hist.update(ws)
    merges, pieces = Q._bpe_train(dict(hist))
    assert len(merges) == Q.BPE_MERGES
    # merge #1 == the SQL-green round-1 argmax (same tokenizer/ties)
    cand = _df(Q.QUERIES["bpe_merge_candidates"](SF))
    assert merges[0][0] + merges[0][1] == cand["pair"].iloc[0]
    got = {int(r.doc_id): (int(r.n_words), int(r.n_pieces),
                           r.pieces_md5) for r in df.itertuples()}
    assert len(got) == len(toks)
    for did, ws in toks.items():
        npc = sum(len(pieces[w]) for w in ws)
        stream = " ".join("+".join(pieces[w]) for w in ws)
        assert got[did] == (len(ws), npc,
                            hashlib.md5(stream.encode()).hexdigest())
        # merging only ever shrinks: words <= pieces <= chars
        assert len(ws) <= npc <= sum(len(w) for w in ws)


def test_hyperanf_matches_serial_replica(ray_session):
    from leidenalg_ray.stages import sketch as sk

    df = _df(Q.QUERIES["hyperanf_co"](SF)).sort_values("t")
    edges = _df(Q.QUERIES["edges_co"](SF))
    a = edges["a"].to_numpy(np.int64)
    b = edges["b"].to_numpy(np.int64)
    vids = np.unique(np.concatenate([a, b]))
    # serial replica: one HLL register per active vertex, max-merge
    # along edges until fixed point, quantised estimator sums
    n = int(vids.max()) + 1
    reg = np.zeros((n, sk.HLL_M), dtype=np.uint8)
    h = sk.hash32(vids)
    bucket = (h >> sk.HLL_REM_BITS).astype(np.int64)
    rem = h & ((1 << sk.HLL_REM_BITS) - 1)
    rho = np.array([sk.HLL_RHO_MAX - int(r).bit_length()
                    for r in rem])
    reg[vids, bucket] = rho.astype(np.uint8)

    def nf_q(reg):
        pres = reg > 0
        npres = pres.sum(1).astype(np.int64)
        vals = np.where(pres, np.int64(1) << (sk.HLL_RHO_MAX
                                              - reg.astype(np.int64)),
                        np.int64(0))
        est = sk.hll_estimate_from_sums(vals.sum(1), npres)
        est[npres == 0] = 0.0
        return int(np.floor(est * 1e6 + 0.5).astype(np.int64).sum())

    want = [nf_q(reg)]
    for _ in range(Q.HYPERANF_ROUNDS):
        new = reg.copy()
        np.maximum.at(new, b, reg[a])
        np.maximum.at(new, a, reg[b])
        changed = (new != reg).any(axis=1).sum()
        reg = new
        want.append(nf_q(reg))
        if changed == 0:
            break
    got = [round(v * 1e6) for v in df["nf"]]
    assert len(got) == len(want)
    assert got == want
    # NF is monotone non-decreasing in t
    assert (np.diff(df["nf"].to_numpy()) >= 0).all()


def test_sbm_leiden_recovery_bar(ray_session):
    df = _df(Q.QUERIES["sbm_leiden_recovery"](SF))
    r = df.iloc[0]
    assert r["n"] == Q.SBM_K * Q.SBM_SIZE
    assert r["k_planted"] == Q.SBM_K
    # well above the detectability threshold: near-perfect recovery
    assert r["nmi"] >= 0.95
    assert r["ari"] >= 0.95
    assert abs(r["k_found"] - Q.SBM_K) <= 1
    # the hash-sampled SBM is deterministic: edge count is pinned
    s, d, labels = Q._sbm_edges()
    assert len(s) == len(d) > 0
    same = (labels[s] == labels[d]).mean()
    assert same > 0.5  # assortative regime


def test_hyperball_harmonic_replica_and_rank_agreement(ray_session):
    from leidenalg_ray.stages import sketch as sk

    got = _df(Q.QUERIES["harmonic_hyperball_co"](SF))
    edges = _df(Q.QUERIES["edges_co"](SF))
    a = edges["a"].to_numpy(np.int64)
    b = edges["b"].to_numpy(np.int64)
    vids = np.unique(np.concatenate([a, b]))
    n = int(vids.max()) + 1
    reg = np.zeros((n, sk.HLL_M), dtype=np.uint8)
    h = sk.hash32(vids)
    bucket = (h >> sk.HLL_REM_BITS).astype(np.int64)
    rem = h & ((1 << sk.HLL_REM_BITS) - 1)
    rho = np.array([sk.HLL_RHO_MAX - int(r).bit_length()
                    for r in rem])
    reg[vids, bucket] = rho.astype(np.uint8)

    def est_q(reg):
        pres = reg > 0
        npres = pres.sum(1).astype(np.int64)
        vals = np.where(pres, np.int64(1) << (sk.HLL_RHO_MAX
                                              - reg.astype(np.int64)),
                        np.int64(0))
        est = sk.hll_estimate_from_sums(vals.sum(1), npres)
        est[npres == 0] = 0.0
        return np.floor(est * 1e6 + 0.5).astype(np.int64)

    prev = est_q(reg)
    acc = np.zeros(n)
    for t in range(1, Q.HYPERANF_ROUNDS + 1):
        new = reg.copy()
        np.maximum.at(new, b, reg[a])
        np.maximum.at(new, a, reg[b])
        nq = est_q(new)
        acc = acc + ((nq - prev) / 1e6) / t
        changed = (new != reg).any(axis=1).sum()
        reg, prev = new, nq
        if changed == 0:
            break
    r6 = Q.round6(acc[vids])
    order = np.lexsort((vids, -r6))[:20]
    want = list(zip(vids[order], r6[order]))
    assert [(int(r.vid), r.harmonic)
            for r in got.itertuples()] == \
        [(int(v), float(x)) for v, x in want]
    # sanity vs the exact kernel on its seed set: the HLL
    # approximation tracks exact harmonic closely (HLL with 64
    # registers has ~13% relative error per estimate)
    exact = _df(Q.QUERIES["harmonic_co"](SF))
    ev = exact["vid"].to_numpy(np.int64)
    approx = acc[ev]
    ex = exact["harmonic"].to_numpy()
    corr = np.corrcoef(approx, ex)[0, 1]
    assert corr > 0.6
    ratio = approx[ex > 0] / ex[ex > 0]
    assert 0.7 < np.median(ratio) < 1.3


def test_ann_recall_consistency(ray_session):
    df = _df(Q.QUERIES["ann_recall"](SF)).sort_values("query_id")
    assert list(df["query_id"]) == [0, 1, 2, 3, 4]
    assert ((df["n_hit"] >= 0) & (df["n_hit"] <= 10)).all()
    assert np.allclose(df["recall"], df["n_hit"] / 10.0)
    # the IVF index always finds the query vector itself (cos=1 in
    # its own probed bucket), so recall is never zero
    assert (df["n_hit"] >= 1).all()


def test_doc_gopher_repetition_planted(ray_session):
    df = _df(Q.QUERIES["doc_gopher_repetition"](SF))
    assert ((df["top2_frac"] > 0) & (df["top2_frac"] <= 1)).all()
    assert ((df["dup5_frac"] >= 0)).all()
    # serial spot-check of one doc
    from collections import Counter
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    r = docs.iloc[7]
    ws = Q.tx.TOKEN_RE.findall(r["text"].lower())
    total = sum(len(w) for w in ws)
    c2 = Counter(" ".join(ws[j:j + 2]) for j in range(len(ws) - 1))
    best = min(c2.items(), key=lambda kv: (-kv[1], kv[0]))
    want = Q.round6(np.array([best[1] * (len(best[0]) - 1) / total]))[0]
    got = df[df["doc_id"] == r["doc_id"]]["top2_frac"].iloc[0]
    assert got == want


def test_doulion_estimator_tracks_exact(ray_session):
    samp = _df(Q.QUERIES["triangles_sampled_co"](SF)).iloc[0]
    exact = _df(Q.QUERIES["triangles_co"](SF)).iloc[0]["n_triangles"]
    edges = _df(Q.QUERIES["edges_co"](SF))
    # p=1/4 edge sampling keeps ~1/4 of the edges
    frac = samp["n_kept_edges"] / len(edges)
    assert 0.15 < frac < 0.35
    # unbiased estimator: within a generous band of the exact count
    # (variance ~ 1/(p^3 T); this graph has thousands of triangles)
    assert exact > 0
    assert 0.5 * exact < samp["estimate"] < 2.0 * exact
    assert samp["estimate"] == samp["n_sampled_triangles"] * 64


def test_hyperball_distance_mode_serial_replica(ray_session):
    from leidenalg_ray.stages import sketch as sk

    got = _df(Q.QUERIES["closeness_hyperball_co"](SF))
    edges = _df(Q.QUERIES["edges_co"](SF))
    a = edges["a"].to_numpy(np.int64)
    b = edges["b"].to_numpy(np.int64)
    vids = np.unique(np.concatenate([a, b]))
    n = int(vids.max()) + 1
    reg = np.zeros((n, sk.HLL_M), dtype=np.uint8)
    h = sk.hash32(vids)
    bucket = (h >> sk.HLL_REM_BITS).astype(np.int64)
    rem = h & ((1 << sk.HLL_REM_BITS) - 1)
    rho = np.array([sk.HLL_RHO_MAX - int(r).bit_length()
                    for r in rem])
    reg[vids, bucket] = rho.astype(np.uint8)

    def est_q(reg):
        pres = reg > 0
        npres = pres.sum(1).astype(np.int64)
        vals = np.where(pres, np.int64(1) << (sk.HLL_RHO_MAX
                                              - reg.astype(np.int64)),
                        np.int64(0))
        est = sk.hll_estimate_from_sums(vals.sum(1), npres)
        est[npres == 0] = 0.0
        return np.floor(est * 1e6 + 0.5).astype(np.int64)

    prev = est_q(reg)
    acc = np.zeros(n, dtype=np.int64)
    for t in range(1, Q.HYPERANF_ROUNDS + 1):
        new = reg.copy()
        np.maximum.at(new, b, reg[a])
        np.maximum.at(new, a, reg[b])
        nq = est_q(new)
        acc = acc + (nq - prev) * t
        changed = (new != reg).any(axis=1).sum()
        reg, prev = new, nq
        if changed == 0:
            break
    r6 = Q.round6(acc[vids] / 1e6)
    pos = r6 > 0
    vv, rr = vids[pos], r6[pos]
    order = np.lexsort((vv, rr))[:20]
    want = [(int(v), float(x)) for v, x in zip(vv[order], rr[order])]
    assert [(int(r.vid), r.sumdist) for r in got.itertuples()] == want
