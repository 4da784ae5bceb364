"""Self-check of the driver contract: every queries() entry with an
oracle_sql() twin must match DuckDB on row count, column names, and
order-insensitive values (mirroring the driver's comparison) at sf0.001."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
GOLDENS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "goldens", "sf0.01")
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import __ray_entry__ as E

    return E


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


SQL_CHECKED = [
    "pricing_summary", "latest_order_per_customer", "exact_dedup_docs",
    "distinct_flag_status", "filter_docs_regex", "nation_revenue",
    "orders_pivot", "customers_without_orders", "events_hourly", "sessionize",
    "token_stats", "quality_features", "lang_id", "fingerprint_md5",
    "ann_topk", "ngram_jaccard_pairs", "top_orders", "union_custkeys",
    "source_histogram_salted", "embedding_topk_pairs",
    "asof_latest_order", "events_sliding_3h", "range_join_order_events",
    "topk_orders_per_customer", "cumulative_spend", "group_quantiles",
    "rollup_revenue", "hash_sample_docs", "word_count_top100",
    "tfidf_top_term", "brand_region_revenue",
    "orders_unpivot", "chunk_documents", "pps_sample_orders",
    "source_doc_concat", "ann_multi_topk", "group_quantiles_cont",
    "full_outer_activity", "group_variance",
    "redact_docs", "decontaminate_docs", "shuffle_shards",
    "pack_sequences", "parts_with_lineitems", "heavy_hitters",
    "group_centroids", "export_pipeline", "winsorize_prices",
    "snapshot_dedup", "percent_rank_orders",
    "rolling_sum_orders", "lag_delta_orders", "running_max_orders",
    "ntile_orders", "mode_quantity_by_flag",
    "dense_rank_orders", "first_last_order", "new_users_daily",
    "corr_price_qty", "bigram_repetition", "mad_prices",
    "doc_length_histogram", "source_quota_sample",
    "funnel_users", "sliding_distinct_users_3h", "revenue_share_bps",
    "copurchase_pairs", "cohort_retention", "all_orders_final",
    "event_paths", "char_class_stats", "dup_family_sizes",
    "monthly_order_growth", "weekday_histogram", "top_part_by_flag",
    "vocab_growth", "source_vocab_overlap",
    "priority_transitions", "order_gap_stats", "active_day_streaks",
    "bigram_top50", "returns_by_month", "supplier_coverage_hist",
    "burst_days", "customer_rfm", "exclusive_vocab",
    "region_segment_revenue", "hourly_peak_per_type",
    "cume_dist_orders", "cube_revenue", "weighted_avg_disc",
    "systematic_sample_orders", "skyline_orders", "dup_ngram_docs",
    "copurchase_degree_hist", "bloom_semi_join_orders",
    "lead_next_order", "interval_union_days",
    "supplier_brand_diversity", "late_shipments_monthly",
    "json_extract_stats", "type_token_ratio_docs", "decile_docs",
    "top_parts_with_ties", "daily_active_users",
    "orders_running_share", "acctbal_histogram_signed",
    "bottomk_hash_sample", "event_value_quantiles",
    "late_events_watermark", "embedding_norm_stats",
    "local_supplier_volume", "conversion_time_stats",
    "copurchase_triangles", "fuzzy_name_pairs",
    "weighted_median_price", "brand_price_qty_slope", "quality_audit",
    "token_entropy_by_source", "priority_region_grid", "asof_next_event",
    "order_count_gini", "minmax_scaled_values", "langid_confusion",
    "orders_above_cust_avg", "trailing_7d_spend", "copurchase_lift",
    "brand_rank_shift", "order_seasonality", "train_val_test_split",
    "weekday_hour_heatmap", "value_outliers_by_type", "benford_first_digit",
    "pareto_customers", "interarrival_burstiness",
    "supplier_hhi_by_nation", "daily_peak_drop", "theil_index_spend",
    "q6_forecast_revenue", "chi2_priority_by_region", "top_bigrams_per_source",
    "ks_click_vs_purchase", "q3_shipping_priority",
    "mutual_info_priority_region", "q10_returned_items",
    "decile_transition_matrix", "embedding_dim_stats",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_duckdb(entrymod, con, name):
    got = _canon(_to_df(entrymod.queries()[name](SF)))
    want = _canon(con.execute(entrymod.oracle_sql()[name]).fetchdf())
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_every_sql_key_has_a_query(entrymod):
    q = entrymod.queries()
    for k in entrymod.oracle_sql():
        assert k in q


ROWS_ONLY = ["decode_psnr_stats", "rolling_fingerprint", "simhash", "minhash_lsh_dedup",
             "ann_lsh_topk", "ann_ivf_topk", "dedup_retention", "kll_quantiles_value"]


def test_chunk_documents_reconstructs(entrymod):
    """Chunk k must equal text[k*stride : k*stride+size], and stitching the
    first `stride` chars of every chunk in order must reconstruct each doc."""
    import pyarrow.parquet as pq

    chunks = _to_df(entrymod.queries()["chunk_documents"](SF))
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]
                         ).to_pandas().set_index("doc_id")["text"]
    stride, size = 150, 200
    for did, g in chunks.groupby("doc_id"):
        text = docs[did]
        g = g.sort_values("chunk_id")
        assert list(g["chunk_id"]) == list(range(len(g)))
        rebuilt = "".join(c[:stride] for c in g["chunk_text"])
        assert rebuilt == text
        for k, c in zip(g["chunk_id"], g["chunk_text"]):
            assert c == text[k * stride: k * stride + size]


def test_ann_ivf_recall(entrymod):
    """IVF is approximate; assert it still finds most of the brute-force
    top-10 (recall ≥ 0.5 at n_probe=4/16 cells on the synthetic corpus)."""
    exact = set(_to_df(entrymod.queries()["ann_topk"](SF))["vec_id"])
    approx = set(_to_df(entrymod.queries()["ann_ivf_topk"](SF))["vec_id"])
    assert len(exact & approx) >= len(exact) // 2


def test_embedding_pairs_ivf_mode_recall(entrymod, ray_session):
    """The IVF scale variant of the pair search: approximate on the random
    fixture embeddings — assert ≥ half the exact top-k survives (on real
    near-dup geometry, cos≈1, recall would be ~1)."""
    from cninfo_crawler_ray.pipelines import queries as Q

    exact = set(map(tuple, Q.q_embedding_topk_pairs(SF).values))
    ivf = set(map(tuple, Q.q_embedding_topk_pairs(SF, mode="ivf").values))
    assert len(exact & ivf) >= len(exact) // 2


GOLDEN_CHECKED = ["rolling_fingerprint", "simhash", "simhash_near_dup",
                  "minhash_lsh_dedup", "ann_lsh_topk", "ann_ivf_topk",
                  "dup_clusters", "approx_distinct_users",
                  # image near-dup, resize and curation operators, plus one
                  # count_hist histogram from each generator
                  "phash_near_dup", "image_dhash_near_dup",
                  "image_dup_clusters", "image_region_near_dup",
                  "image_thumbnails", "image_curation_pipeline",
                  "image_luma_histogram", "image_orientation_hist"]


@pytest.mark.parametrize("name", GOLDEN_CHECKED)
def test_query_matches_spec_golden(entrymod, name):
    """Goldens (goldens/sf0.01, valid at sf0.01 only) come from independent
    implementations of each operator's spec, all in tools/golden_oracles.py
    and written by tools/make_goldens.py: row-at-a-time text/embedding
    oracles, brute-force hamming pairs, union-find clusters, a dict-bucket
    region index, a loop-based resize, per-image kernels written another
    way."""
    import pyarrow.parquet as pq

    got = _canon(_to_df(entrymod.queries()[name]("/root/testdata/sf0.01")))
    want = _canon(pq.read_table(os.path.join(GOLDENS, f"{name}.parquet")).to_pandas())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_minhash_batch_matches_per_doc():
    """signatures_batch must be bit-identical to the per-doc signature()
    path (the golden tables were generated from per-doc semantics), and
    band_keys_batch must key equal signatures equally."""
    import pyarrow.parquet as pq
    from cninfo_crawler_ray.functions import dedup as D

    texts = pq.read_table(f"{SF}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    texts += ["", "a", "one two", "x y z w " * 50, "one two"]
    mh = D.MinHasher(64)
    per_doc = np.stack([mh.signature(t, cache={}) for t in texts])
    batch = mh.signatures_batch(texts, cache={})
    cache: dict = {}
    warm1 = mh.signatures_batch(texts, cache=cache)
    warm2 = mh.signatures_batch(texts, cache=cache)
    assert np.array_equal(per_doc, batch)
    assert np.array_equal(per_doc, warm1) and np.array_equal(per_doc, warm2)
    keys = mh.band_keys_batch(batch, 16)
    assert keys.shape == (len(texts), 16) and keys.dtype == np.int64
    # the two identical "one two" docs must share every band key
    assert np.array_equal(keys[-1], keys[-3])


def test_lsh_band_keys_are_exact_per_band():
    """Band keys are (band << 16) | 16-bit band value: the same value in
    two different bands must give two different keys."""
    from cninfo_crawler_ray.functions import dedup as D

    same = np.array([0x0005_0005_0005_0005], dtype=np.uint64).view(np.int64)
    keys = D.lsh_band_keys(same)
    assert keys.dtype == np.int64 and keys.shape == (1, D.LSH_BANDS)
    assert len(set(keys[0].tolist())) == D.LSH_BANDS
    assert (keys[0] >> 16).tolist() == list(range(D.LSH_BANDS))
    assert ((keys[0] & 0xFFFF) == 5).all()
    # top bit set (a negative int64) stays inside its band
    neg = np.array([-1], dtype=np.int64)
    assert ((D.lsh_band_keys(neg)[0] & 0xFFFF) == 0xFFFF).all()


@pytest.mark.parametrize("id_type", ["str", "int64"])
def test_hamming_lsh_pairs_matches_brute_force(ray_session, id_type):
    """Banded LSH must return exactly the brute-force all-pairs hamming set:
    planted pairs at distances 0-3 (flips spread over distinct bands, so a
    distance-3 pair shares ONE band), the same 16-bit value planted in
    different bands of unrelated hashes, one input block with no pair, and
    no self-pair left over from the empty-bucket rows."""
    import ray.data as rd

    from cninfo_crawler_ray.functions import dedup as D

    rng = np.random.default_rng(11)
    u = list(rng.integers(0, 2**64 - 1, size=120, dtype=np.uint64))
    for i, d in enumerate((0, 0, 1, 2, 3, 3, 4)):
        # d flipped bits, one in each of d different bands
        u.append(np.uint64(int(u[i]) ^ sum(1 << (16 * k + 5 + i) for k in range(d))))
    # band 0's value of hash 20 planted in band 2 of an unrelated hash
    u.append(np.uint64(((int(u[20]) & 0xFFFF) << 32) | 0x1234_0000_0000_9999))
    h = np.array(u, dtype=np.uint64).view(np.int64)
    n = len(h)
    ids = (np.array([f"img_{(i * 37) % 1000:04d}" for i in range(n)], dtype=object)
           if id_type == "str" else (np.arange(n, dtype=np.int64) * 37) % 1000)
    df = pd.DataFrame({"id": ids, "h": h})
    # a last block of fresh random hashes: no pair inside it or with others
    lone = pd.DataFrame({
        "id": (np.array([f"z_{i}" for i in range(20)], dtype=object)
               if id_type == "str" else np.arange(20, dtype=np.int64) + 5000),
        "h": rng.integers(0, 1 << 62, size=20, dtype=np.int64)})
    full = pd.concat([df, lone], ignore_index=True)

    for max_h in (2, 3):
        hv = full["h"].to_numpy()
        ii, jj = np.triu_indices(len(full), k=1)
        close = D.hamming64(hv[ii], hv[jj]) <= max_h
        want = {tuple(sorted((full["id"][i], full["id"][j])))
                for i, j in zip(ii[close], jj[close])}
        assert len(want) >= 4  # the planted pairs at or under max_h
        ds = rd.from_pandas([df.iloc[:60], df.iloc[60:], lone])
        got = D.collect_pairs(D.hamming_lsh_pairs(ds, "id", "h", max_h),
                              ("a", "b"))
        assert (got["a"] < got["b"]).all()
        assert set(zip(got["a"], got["b"])) == want
        assert len(got) == len(want)

    none = D.collect_pairs(D.hamming_lsh_pairs(rd.from_pandas(lone), "id", "h", 3),
                           ("a", "b"))
    assert none.empty and list(none.columns) == ["a", "b"]
    with pytest.raises(ValueError):
        D.hamming_lsh_pairs(rd.from_pandas(lone), "id", "h", 4)


def test_simhash_semantic(entrymod, ray_session):
    """A near-identical pair of texts must land at small hamming distance,
    an unrelated pair near 32 (the uint64-overflow regression made every
    simhash ≈ -1, collapsing all distances to ~0)."""
    import numpy as np

    from cninfo_crawler_ray.functions import dedup as D

    base = " ".join(f"tok{i}" for i in range(200))
    near = base.replace("tok5 ", "tok5x ")
    other = " ".join(f"zzz{i}" for i in range(200))
    h = D.simhash64(pd.Series([base, near, other])).to_numpy()
    d_near = D.hamming64(h[0:1], h[1:2])[0]
    d_far = D.hamming64(h[0:1], h[2:3])[0]
    assert d_near <= 8 < d_far
    assert 16 <= d_far <= 48


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(entrymod, name):
    df = _to_df(entrymod.queries()[name](SF))
    assert df is not None and len(df) >= 0
    # determinism: run twice, same result
    df2 = _to_df(entrymod.queries()[name](SF))
    pd.testing.assert_frame_equal(
        df.reset_index(drop=True).sort_index(axis=1),
        df2.reset_index(drop=True).sort_index(axis=1),
    )


def test_word_grams_matches_naive():
    """Vectorized word_grams vs a per-row reference implementation."""
    from cninfo_crawler_ray.functions import text as T

    texts = pd.Series(["a b c d e", "x y", "", "p q r s", "a b c d e f"])
    got = T.word_grams(texts, n=4)
    want = []
    for i, t in enumerate(texts):
        toks = t.split(" ")
        for j in range(len(toks) - 3):
            want.append((i, " ".join(toks[j:j + 4])))
    assert sorted(map(tuple, got.itertuples(index=False))) == sorted(want)


def test_decontaminate_semantics(entrymod):
    """Every flagged doc must genuinely share >=1 word 8-gram with the
    benchmark source, with the exact distinct-overlap count; no benchmark
    doc may be flagged; every non-benchmark doc with overlap must appear."""
    import pyarrow.parquet as pq

    flagged = _to_df(entrymod.queries()["decontaminate_docs"](SF))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "source", "text"]).to_pandas()

    def grams(t):
        toks = t.split(" ")
        return {" ".join(toks[i:i + 8]) for i in range(len(toks) - 7)}

    bench = set()
    for t in docs[docs["source"] == "src0"]["text"]:
        bench |= grams(t)
    want = {}
    for _, r in docs[docs["source"] != "src0"].iterrows():
        n = len(grams(r["text"]) & bench)
        if n:
            want[r["doc_id"]] = n
    got = dict(zip(flagged["doc_id"], flagged["n_shared"]))
    assert got == want and len(want) > 0


def test_redact_docs_clean(entrymod):
    """Redacted output must contain no surviving pattern matches, and the
    per-doc counts must sum to the corpus-wide original match count."""
    import re

    import pyarrow.parquet as pq

    out = _to_df(entrymod.queries()["redact_docs"](SF))
    pat = re.compile(r"\b(customer|spark)\b")
    assert not out["clean_text"].str.contains(pat).any()
    orig = pq.read_table(f"{SF}/documents.parquet", columns=["text"]
                         ).to_pandas()["text"]
    assert out["n_redacted"].sum() == orig.str.count(pat).sum() > 0


def test_shuffle_shards_ranks(entrymod):
    """Each shard's ranks must be exactly 1..n_shard with no gaps, shards
    must match the Knuth hash, and every doc appears exactly once."""
    out = _to_df(entrymod.queries()["shuffle_shards"](SF))
    assert out["doc_id"].is_unique
    h = (out["doc_id"].astype("int64") * 2654435761) % (1 << 32)
    assert (out["shard"] == h % 8).all()
    for _, g in out.groupby("shard"):
        assert sorted(g["rk"]) == list(range(1, len(g) + 1))


def test_pack_sequences_invariants(entrymod):
    """Packing must be a consistent exclusive prefix layout: sorted by
    doc_id, each doc's global start == cumsum of all earlier docs' tokens,
    bin_id/bin_offset decompose that start exactly, offsets stay < budget,
    and bin ids are non-decreasing with no skipped bins."""
    out = _to_df(entrymod.queries()["pack_sequences"](SF)).sort_values(
        "doc_id").reset_index(drop=True)
    budget = 2048
    prev = out["n_tokens"].cumsum().shift(fill_value=0).to_numpy()
    start = out["bin_id"].to_numpy() * budget + out["bin_offset"].to_numpy()
    assert (start == prev).all()
    assert (out["bin_offset"] < budget).all()
    b = out["bin_id"].to_numpy()
    assert (np.diff(b) >= 0).all() and set(np.diff(b)) <= {0, 1}


def test_export_pipeline_pandas_chain(entrymod):
    """Single-process pandas re-derivation of the export chain (gate →
    md5 keep-min dedup → 8-gram decontamination drop → Knuth shard →
    stats) must equal the engine's distributed composition exactly."""
    import hashlib

    import pyarrow.parquet as pq

    from cninfo_crawler_ray.functions import text as T

    out = (_to_df(entrymod.queries()["export_pipeline"](SF))
           .sort_values("shard").reset_index(drop=True))
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()

    corp = docs[docs["source"] != "src0"].reset_index(drop=True)
    feats = T.quality_features(corp["text"])
    lang = T.lang_id(corp["text"])
    mask = ((lang == "en") & (feats["n_tokens"] >= 30)
            & (2 * feats["n_alpha"] >= feats["n_chars"]))
    kept = corp[mask].assign(n_tokens=feats.loc[mask, "n_tokens"].astype("int64"))
    kept = kept.assign(md5=[hashlib.md5(t.encode()).hexdigest()
                            for t in kept["text"]])
    ded = (kept.sort_values(["md5", "doc_id"], kind="stable")
           .groupby("md5", sort=False).head(1))

    def grams(t):
        toks = t.split(" ")
        return {" ".join(toks[i:i + 8]) for i in range(len(toks) - 7)}

    bench = set()
    for t in docs[docs["source"] == "src0"]["text"]:
        bench |= grams(t)
    ded = ded[[not (grams(t) & bench) for t in ded["text"]]]

    h = (ded["doc_id"].astype("int64") * 2654435761) % (1 << 32)
    want = (pd.DataFrame({"shard": (h % 8).astype("int64"),
                          "one": np.int64(1),
                          "tok": ded["n_tokens"].astype("int64")})
            .groupby("shard", as_index=False)
            .agg(n_docs=("one", "sum"), total_tokens=("tok", "sum"))
            .sort_values("shard").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        out[["shard", "n_docs", "total_tokens"]].astype("int64"),
        want.astype("int64"))
