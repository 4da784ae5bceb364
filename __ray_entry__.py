"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship crawl pipeline (seeds → frontier → seen-set
admission → politeness-gated fetch → decode/validate/extract → wide report)
over the deterministic sf0.001-scale synthetic corpus.

``queries()`` exposes every operator family from SURVEY.md §2 plus the
training-data extensions; ``oracle_sql()`` gives DuckDB equivalents for every
SQL-expressible entry (column names match exactly). This file defines only
the crawl wrappers (frontier, fetch+decode stats, wide report, scheduled
crawl); every other operator lives in ``cninfo_crawler_ray.pipelines``, the
image operators in ``pipelines/images.py``. Crawl-specific entries run the
synthetic image+caption corpus (BASELINE.json input_hint); their real
conformance gate is tests/test_stage{1,2}.py against the per-row oracle.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# the driver may exec this file by path from any cwd — make the package
# importable regardless (idempotent; no-op when already on sys.path)
_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

from cninfo_crawler_ray.pipelines import analytics as A
from cninfo_crawler_ray.pipelines import images as IMG
from cninfo_crawler_ray.pipelines import media as MED
from cninfo_crawler_ray.pipelines import queries as Q


def entry() -> Any:
    """Flagship pipeline at smoke scale; driver checks rows >= 0."""
    from cninfo_crawler_ray.pipelines.crawl import run_crawl

    return run_crawl(n_images=1_000)["wide"]


_FRONTIER_CONFORMANCE_COLS = ["股票代码", "公司名称", "财报名称", "报告日期",
                              "PDF链接", "order_key"]


def _crawl_frontier(sf_dir: str):
    """Stage-1 frontier, projected to the reference-conformance columns (the
    crawl semantics; url_sha1/host are engine plumbing tested in
    tests/). Checked against a golden generated from the independent per-row
    oracle (tests/oracle_impl.py) — see tools/make_goldens.py."""
    from cninfo_crawler_ray.pipelines import stage1
    from cninfo_crawler_ray.sources.corpus import ensure_fixtures, scale_for_sf_dir

    fdir = ensure_fixtures(min(scale_for_sf_dir(sf_dir), 10_000))
    ds = stage1.build_frontier(fdir)
    return ds.select_columns(_FRONTIER_CONFORMANCE_COLS)


def _fetch_decode_stats(sf_dir: str):
    import pandas as pd

    from ray.data.aggregate import Count, Sum
    from cninfo_crawler_ray.config import CrawlConfig
    from cninfo_crawler_ray.pipelines import stage1, stage2
    from cninfo_crawler_ray.sources.corpus import ensure_fixtures, scale_for_sf_dir

    fdir = ensure_fixtures(min(scale_for_sf_dir(sf_dir), 10_000))
    frontier = stage1.build_frontier(fdir)
    decoded = stage2.fetch_decode(frontier, f"{fdir}/corpus.parquet", CrawlConfig())

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        ok = df[df["type_ok"]]
        g = (pd.DataFrame({
            "fmt": ok["PDF链接"].str.rsplit(".", n=1).str[-1],
            "flag": ok["_has_data_resource"].astype("int64"),
        }).groupby("fmt", as_index=False)
           .agg(n_docs=("flag", "size"), n_with_flag=("flag", "sum")))
        g["n_docs"] = g["n_docs"].astype("int64")
        return g

    # per-batch partials (≤ #formats rows each) → a domain-sized aggregate;
    # the decode output never lands on the driver
    from cninfo_crawler_ray.functions import bucketed as _B

    out = _B.grouped_aggregate_small(
        decoded.map_batches(proj, batch_format="pandas"), "fmt",
        [Sum("n_docs", alias_name="n_docs"),
         Sum("n_with_flag", alias_name="n_with_flag")],
        key_domain=4).to_pandas()
    return out.sort_values("fmt").reset_index(drop=True)


def _wide_report(sf_dir: str):
    from cninfo_crawler_ray.config import CrawlConfig
    from cninfo_crawler_ray.pipelines import stage1, stage2
    from cninfo_crawler_ray.sources.corpus import ensure_fixtures, scale_for_sf_dir

    fdir = ensure_fixtures(min(scale_for_sf_dir(sf_dir), 10_000))
    frontier = stage1.build_frontier(fdir)
    decoded = stage2.fetch_decode(frontier, f"{fdir}/corpus.parquet", CrawlConfig())
    return stage2.wide_view(stage2.wide_from_long(stage2.long_from_decoded(decoded)))


def _scheduled_crawl(sf_dir: str):
    """Round-based execution of the flagship crawl: priority min-heap
    frontier shards + politeness gate drained in admissible waves (north
    rule's frontier-in-actor-pools path; byte-identical to the batch path,
    tests/test_scheduler.py)."""
    from cninfo_crawler_ray.pipelines.scheduler import run_scheduled_crawl
    from cninfo_crawler_ray.sources.corpus import ensure_fixtures, scale_for_sf_dir

    fdir = ensure_fixtures(min(scale_for_sf_dir(sf_dir), 10_000))
    return run_scheduled_crawl(fdir, wave_size=4096)["wide"]


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # aggregation / dedup / sort / pivot / join operator families
        "pricing_summary": Q.q_pricing_summary,
        "latest_order_per_customer": Q.q_latest_order_per_customer,
        "exact_dedup_docs": Q.q_exact_dedup_docs,
        "distinct_flag_status": Q.q_distinct_flag_status,
        "filter_docs_regex": Q.q_filter_docs_regex,
        "nation_revenue": Q.q_nation_revenue,
        "orders_pivot": Q.q_orders_pivot,
        "orders_unpivot": Q.q_orders_unpivot,
        "customers_without_orders": Q.q_customers_without_orders,
        "customer_order_counts": Q.q_customer_order_counts,
        # streaming-shaped
        "events_hourly": Q.q_events_hourly,
        "sessionize": Q.q_sessionize,
        "events_sliding_3h": Q.q_events_sliding_3h,
        # custom relational operators Ray Data lacks as primitives
        "asof_latest_order": Q.q_asof_latest_order,
        "range_join_order_events": Q.q_range_join_order_events,
        "funnel_users": Q.q_funnel_users,
        "sliding_distinct_users_3h": Q.q_sliding_distinct_users_3h,
        "revenue_share_bps": Q.q_revenue_share_bps,
        "copurchase_pairs": Q.q_copurchase_pairs,
        "cohort_retention": Q.q_cohort_retention,
        "all_orders_final": Q.q_all_orders_final,
        "event_paths": Q.q_event_paths,
        "char_class_stats": Q.q_char_class_stats,
        "dup_family_sizes": Q.q_dup_family_sizes,
        "monthly_order_growth": Q.q_monthly_order_growth,
        "weekday_histogram": Q.q_weekday_histogram,
        "top_part_by_flag": Q.q_top_part_by_flag,
        "vocab_growth": Q.q_vocab_growth,
        "source_vocab_overlap": Q.q_source_vocab_overlap,
        "priority_transitions": Q.q_priority_transitions,
        "order_gap_stats": Q.q_order_gap_stats,
        "active_day_streaks": Q.q_active_day_streaks,
        "bigram_top50": Q.q_bigram_top50,
        "returns_by_month": Q.q_returns_by_month,
        "supplier_coverage_hist": Q.q_supplier_coverage_hist,
        "burst_days": Q.q_burst_days,
        "customer_rfm": Q.q_customer_rfm,
        "exclusive_vocab": Q.q_exclusive_vocab,
        "region_segment_revenue": Q.q_region_segment_revenue,
        "hourly_peak_per_type": Q.q_hourly_peak_per_type,
        # text analysis
        "token_stats": Q.q_token_stats,
        "quality_features": Q.q_quality_features,
        "lang_id": Q.q_lang_id,
        "fingerprint_md5": Q.q_fingerprint_md5,
        "rolling_fingerprint": Q.q_rolling_fingerprint,
        "chunk_documents": Q.q_chunk_documents,
        # near-dup dedup family
        "minhash_lsh_dedup": Q.q_minhash_lsh_dedup,
        "dedup_retention": Q.q_dedup_retention,
        "curation_pipeline": Q.q_curation_pipeline,
        "redact_docs": Q.q_redact_docs,
        "decontaminate_docs": Q.q_decontaminate_docs,
        "shuffle_shards": Q.q_shuffle_shards,
        "export_pipeline": Q.q_export_pipeline,
        "snapshot_dedup": Q.q_snapshot_dedup,
        "simhash": Q.q_simhash,
        "simhash_near_dup": Q.q_simhash_near_dup,
        "embedding_topk_pairs": Q.q_embedding_topk_pairs,
        "ngram_jaccard_pairs": Q.q_ngram_jaccard_pairs,
        # window / rollup / quantile / sampling analytics
        "topk_orders_per_customer": A.q_topk_orders_per_customer,
        "cumulative_spend": A.q_cumulative_spend,
        "group_quantiles": A.q_group_quantiles,
        "group_quantiles_cont": A.q_group_quantiles_cont,
        "rollup_revenue": A.q_rollup_revenue,
        "hash_sample_docs": A.q_hash_sample_docs,
        "pps_sample_orders": A.q_pps_sample_orders,
        "pack_sequences": A.q_pack_sequences,
        "source_doc_concat": A.q_source_doc_concat,
        # text aggregation / sketches / graph
        "word_count_top100": A.q_word_count_top100,
        "tfidf_top_term": A.q_tfidf_top_term,
        "brand_region_revenue": A.q_brand_region_revenue,
        "dup_clusters": A.q_dup_clusters,
        "approx_distinct_users": A.q_approx_distinct_users,
        "approx_distinct_by_type": A.q_approx_distinct_by_type,
        "stratified_sample_events": A.q_stratified_sample_events,
        "custkeys_intersect": A.q_custkeys_intersect,
        "custkeys_except": A.q_custkeys_except,
        "full_outer_activity": A.q_full_outer_activity,
        "parts_with_lineitems": A.q_parts_with_lineitems,
        "heavy_hitters": A.q_heavy_hitters,
        "winsorize_prices": A.q_winsorize_prices,
        "percent_rank_orders": A.q_percent_rank_orders,
        "rolling_sum_orders": A.q_rolling_sum_orders,
        "lag_delta_orders": A.q_lag_delta_orders,
        "running_max_orders": A.q_running_max_orders,
        "ntile_orders": A.q_ntile_orders,
        "mode_quantity_by_flag": A.q_mode_quantity_by_flag,
        "dense_rank_orders": A.q_dense_rank_orders,
        "first_last_order": A.q_first_last_order,
        "new_users_daily": A.q_new_users_daily,
        "corr_price_qty": A.q_corr_price_qty,
        "bigram_repetition": A.q_bigram_repetition,
        "mad_prices": A.q_mad_prices,
        "doc_length_histogram": A.q_doc_length_histogram,
        "source_quota_sample": A.q_source_quota_sample,
        "group_variance": A.q_group_variance,
        "cume_dist_orders": A.q_cume_dist_orders,
        "cube_revenue": A.q_cube_revenue,
        "weighted_avg_disc": A.q_weighted_avg_disc,
        "systematic_sample_orders": A.q_systematic_sample_orders,
        "skyline_orders": A.q_skyline_orders,
        "dup_ngram_docs": A.q_dup_ngram_docs,
        "copurchase_degree_hist": Q.q_copurchase_degree_hist,
        "bloom_semi_join_orders": A.q_bloom_semi_join_orders,
        "lead_next_order": A.q_lead_next_order,
        "interval_union_days": A.q_interval_union_days,
        "supplier_brand_diversity": A.q_supplier_brand_diversity,
        "late_shipments_monthly": A.q_late_shipments_monthly,
        "json_extract_stats": A.q_json_extract_stats,
        "type_token_ratio_docs": A.q_type_token_ratio_docs,
        "decile_docs": A.q_decile_docs,
        "top_parts_with_ties": A.q_top_parts_with_ties,
        "daily_active_users": A.q_daily_active_users,
        "orders_running_share": A.q_orders_running_share,
        "acctbal_histogram_signed": A.q_acctbal_histogram_signed,
        "bottomk_hash_sample": A.q_bottomk_hash_sample,
        "event_value_quantiles": A.q_event_value_quantiles,
        "kll_quantiles_value": A.q_kll_quantiles_value,
        "late_events_watermark": A.q_late_events_watermark,
        "embedding_norm_stats": A.q_embedding_norm_stats,
        "local_supplier_volume": A.q_local_supplier_volume,
        "conversion_time_stats": A.q_conversion_time_stats,
        "copurchase_triangles": A.q_copurchase_triangles,
        "fuzzy_name_pairs": A.q_fuzzy_name_pairs,
        "weighted_median_price": A.q_weighted_median_price,
        "brand_price_qty_slope": A.q_brand_price_qty_slope,
        "quality_audit": A.q_quality_audit,
        "token_entropy_by_source": A.q_token_entropy_by_source,
        "priority_region_grid": A.q_priority_region_grid,
        "asof_next_event": A.q_asof_next_event,
        "order_count_gini": A.q_order_count_gini,
        "minmax_scaled_values": A.q_minmax_scaled_values,
        "langid_confusion": A.q_langid_confusion,
        "orders_above_cust_avg": A.q_orders_above_cust_avg,
        "name_dup_clusters": A.q_name_dup_clusters,
        "trailing_7d_spend": A.q_trailing_7d_spend,
        "copurchase_lift": A.q_copurchase_lift,
        "brand_rank_shift": A.q_brand_rank_shift,
        "order_seasonality": A.q_order_seasonality,
        "train_val_test_split": A.q_train_val_test_split,
        "weekday_hour_heatmap": A.q_weekday_hour_heatmap,
        "value_outliers_by_type": A.q_value_outliers_by_type,
        "benford_first_digit": A.q_benford_first_digit,
        "pareto_customers": A.q_pareto_customers,
        "interarrival_burstiness": A.q_interarrival_burstiness,
        "supplier_hhi_by_nation": A.q_supplier_hhi_by_nation,
        "daily_peak_drop": A.q_daily_peak_drop,
        "theil_index_spend": A.q_theil_index_spend,
        "q6_forecast_revenue": A.q_q6_forecast_revenue,
        "chi2_priority_by_region": A.q_chi2_priority_by_region,
        "top_bigrams_per_source": A.q_top_bigrams_per_source,
        "ks_click_vs_purchase": A.q_ks_click_vs_purchase,
        "q3_shipping_priority": A.q_q3_shipping_priority,
        "mutual_info_priority_region": A.q_mutual_info_priority_region,
        "q10_returned_items": A.q_q10_returned_items,
        "q4_priority_semijoin": A.q_q4_priority_semijoin,
        "q7_volume_shipping": A.q_q7_volume_shipping,
        "q8_market_share": A.q_q8_market_share,
        "q13_custdist": A.q_q13_custdist,
        "q14_promo_revenue": A.q_q14_promo_revenue,
        "q15_top_supplier": A.q_q15_top_supplier,
        "q17_small_qty_revenue": A.q_q17_small_qty_revenue,
        "q18_large_orders": A.q_q18_large_orders,
        "q19_disjunctive_pred": A.q_q19_disjunctive_pred,
        "q9_profit": A.q_q9_profit,
        "q12_late_lines": A.q_q12_late_lines,
        "q16_supplier_cnt": A.q_q16_supplier_cnt,
        "q21_waiting_supplier": A.q_q21_waiting_supplier,
        "q22_idle_rich": A.q_q22_idle_rich,
        "q11_part_value": A.q_q11_part_value,
        "spearman_d2_brand": A.q_spearman_d2_brand,
        "hoover_index_spend": A.q_hoover_index_spend,
        "second_third_order": A.q_second_third_order,
        "brand_top3_names": A.q_brand_top3_names,
        "q2_min_cost_supplier": A.q_q2_min_cost_supplier,
        "q20_excess_suppliers": A.q_q20_excess_suppliers,
        "inversion_count_brand": A.q_inversion_count_brand,
        "mannwhitney_u_value": A.q_mannwhitney_u_value,
        "ewma_daily_revenue": A.q_ewma_daily_revenue,
        "cusum_daily_orders": A.q_cusum_daily_orders,
        "pagerank_2iter": A.q_pagerank_2iter,
        "two_hop_reach": A.q_two_hop_reach,
        "embedding_quantize_error": A.q_embedding_quantize_error,
        "embedding_l2_pair_hist": A.q_embedding_l2_pair_hist,
        "hapax_ratio_by_source": A.q_hapax_ratio_by_source,
        "grouping_sets_revenue": A.q_grouping_sets_revenue,
        "trimmed_mean_qty": A.q_trimmed_mean_qty,
        "rolling_median_daily_orders": A.q_rolling_median_daily_orders,
        "decile_transition_matrix": A.q_decile_transition_matrix,
        "embedding_dim_stats": A.q_embedding_dim_stats,
        "bizday_ship_delay_hist": A.q_bizday_ship_delay_hist,
        "peak_active_customers": A.q_peak_active_customers,
        "increasing_run_hist": A.q_increasing_run_hist,
        "token_pmi_top": A.q_token_pmi_top,
        "autocorr_daily_orders": A.q_autocorr_daily_orders,
        "moment3_qty_by_flag": A.q_moment3_qty_by_flag,
        "price_point_islands": A.q_price_point_islands,
        "token_first_position": A.q_token_first_position,
        "locf_gapfill_daily": A.q_locf_gapfill_daily,
        "partition_balance_audit": A.q_partition_balance_audit,
        "kmv_distinct_users": A.q_kmv_distinct_users,
        "loo_target_encoding": A.q_loo_target_encoding,
        "integrity_audit": A.q_integrity_audit,
        "iso_week_revenue": A.q_iso_week_revenue,
        "bag_except_partkeys": A.q_bag_except_partkeys,
        "equidepth_boundaries": A.q_equidepth_boundaries,
        "bloom_fp_audit": A.q_bloom_fp_audit,
        "pct_of_parent_revenue": A.q_pct_of_parent_revenue,
        "cms_estimate_audit": A.q_cms_estimate_audit,
        "ams_f2_audit": A.q_ams_f2_audit,
        "div_customers_all_years": A.q_div_customers_all_years,
        "median_via_bisection": A.q_median_via_bisection,
        "zorder_bucket_hist": A.q_zorder_bucket_hist,
        "boilerplate_prefix_families": A.q_boilerplate_prefix_families,
        "event_hourly_dedup_counts": A.q_event_hourly_dedup_counts,
        "table_checksum_orders": A.q_table_checksum_orders,
        "type_user_bitmap_overlap": A.q_type_user_bitmap_overlap,
        "log2_price_hist": A.q_log2_price_hist,
        "hamilton_apportionment": A.q_hamilton_apportionment,
        "global_row_numbering": A.q_global_row_numbering,
        "source_hist_intersection": A.q_source_hist_intersection,
        "schema_evolution_union": A.q_schema_evolution_union,
        "linear_interp_gapfill": A.q_linear_interp_gapfill,
        "session_bounce_rate": A.q_session_bounce_rate,
        "peak_sliding_60min": A.q_peak_sliding_60min,
        "theilsen_slope_daily": A.q_theilsen_slope_daily,
        "kmv_jaccard_click_purchase": A.q_kmv_jaccard_click_purchase,
        "equidepth_by_type": A.q_equidepth_by_type,
        "parts_per_order_hist": A.q_parts_per_order_hist,
        # sort / limit / set ops
        "top_orders": Q.q_top_orders,
        "union_custkeys": Q.q_union_custkeys,
        "source_histogram_salted": Q.q_source_histogram_salted,
        # similarity search
        "ann_topk": Q.q_ann_topk,
        "ann_multi_topk": Q.q_ann_multi_topk,
        "ann_lsh_topk": Q.q_ann_lsh_topk,
        "ann_ivf_topk": Q.q_ann_ivf_topk,
        "embed_clusters": Q.q_embed_clusters,
        "group_centroids": Q.q_group_centroids,
        # crawl engine (synthetic corpus; conformance-tested vs oracle in tests/)
        "crawl_frontier": _crawl_frontier,
        "fetch_decode_stats": _fetch_decode_stats,
        "wide_report": _wide_report,
        "image_features": IMG.q_image_features,
        "image_size_histogram": IMG.q_image_size_histogram,
        "image_luma_histogram": IMG.q_image_luma_histogram,
        "image_dominant_color": IMG.q_image_dominant_color,
        "image_border_contrast": IMG.q_image_border_contrast,
        "image_quadrant_range": IMG.q_image_quadrant_range,
        "image_mirror_asymmetry": IMG.q_image_mirror_asymmetry,
        "host_fetch_histogram": IMG.q_host_fetch_histogram,
        "decode_psnr_stats": IMG.q_decode_psnr_stats,
        "image_thumbnails": IMG.q_image_thumbnails,
        "phash_near_dup": IMG.q_phash_near_dup,
        "image_dup_clusters": IMG.q_image_dup_clusters,
        "image_region_near_dup": IMG.q_image_region_near_dup,
        "scheduled_crawl": _scheduled_crawl,
        "image_aspect_ratio_hist": IMG.q_image_aspect_ratio_hist,
        "image_gradient_energy_hist": IMG.q_image_gradient_energy_hist,
        "image_dhash_near_dup": IMG.q_image_dhash_near_dup,
        "image_format_size_stats": IMG.q_image_format_size_stats,
        "image_channel_cast_hist": IMG.q_image_channel_cast_hist,
        "caption_token_stats": IMG.q_caption_token_stats,
        "caption_dup_groups": IMG.q_caption_dup_groups,
        # video/audio media axis (synthetic VID0/AUD0 containers,
        # golden-parquet oracles — pipelines/media.py)
        "video_frame_stats": MED.q_video_frame_stats,
        "audio_clip_stats": MED.q_audio_clip_stats,
        "phash_bit_balance": IMG.q_phash_bit_balance,
        "image_otsu_hist": IMG.q_image_otsu_hist,
        "image_rle_ratio_hist": IMG.q_image_rle_ratio_hist,
        "image_euler_hist": IMG.q_image_euler_hist,
        "image_colorfulness_hist": IMG.q_image_colorfulness_hist,
        "image_centroid_offset_hist": IMG.q_image_centroid_offset_hist,
        "image_glcm_contrast_hist": IMG.q_image_glcm_contrast_hist,
        "image_spread_hist": IMG.q_image_spread_hist,
        "image_palette_size_hist": IMG.q_image_palette_size_hist,
        "image_blockiness_hist": IMG.q_image_blockiness_hist,
        "image_tile_dup_hist": IMG.q_image_tile_dup_hist,
        "image_rg_cov_hist": IMG.q_image_rg_cov_hist,
        "image_curation_pipeline": IMG.q_image_curation_pipeline,
        "image_orientation_hist": IMG.q_image_orientation_hist,
    }


#: Crawl-specific queries run the synthetic image+caption corpus, so their
#: DuckDB oracle is a GOLDEN TABLE generated by the independent per-row
#: reference-semantics oracle (tests/oracle_impl.py) at the driver's
#: correctness scale (sf0.01 ↔ 10k-image fixture) — see tools/make_goldens.py
#: for provenance and the engine cross-check performed at generation time.
_GOLDEN_DIR = os.path.join(_HERE, "goldens", "sf0.01")
def _corpus_10k_path() -> str:
    from cninfo_crawler_ray.sources.corpus import fixture_dir

    return f"{fixture_dir(10_000)}/corpus.parquet"


_CRAWL_ORACLE_SQL = {
    # decoded pixel shapes vs the corpus's STORED (w, h) metadata joined to
    # the golden frontier by image id — two independent dimension sources
    "image_size_histogram": f"""
        WITH f AS (SELECT regexp_extract("PDF链接", 'img_[0-9]+') AS iid
                   FROM read_parquet('{_GOLDEN_DIR}/crawl_frontier.parquet'))
        SELECT CAST(c.w AS BIGINT) AS w, CAST(c.h AS BIGINT) AS h,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM f JOIN read_parquet('{_corpus_10k_path()}') c
            ON c.image_id = f.iid
        GROUP BY 1, 2
    """,
    # decoded aspect ratio vs the corpus's STORED (w, h) metadata joined to
    # the golden frontier — the same two-independent-source design as
    # image_size_histogram
    "image_aspect_ratio_hist": f"""
        WITH f AS (SELECT regexp_extract("PDF链接", 'img_[0-9]+') AS iid
                   FROM read_parquet('{_GOLDEN_DIR}/crawl_frontier.parquet'))
        SELECT CAST((100 * c.w) // c.h AS BIGINT) AS ar_pct,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM f JOIN read_parquet('{_corpus_10k_path()}') c
            ON c.image_id = f.iid
        GROUP BY 1
    """,
    "host_fetch_histogram": f"""
        SELECT string_split("PDF链接", '/')[3] AS host,
               CAST(COUNT(*) AS BIGINT) AS n_urls
        FROM read_parquet('{_GOLDEN_DIR}/crawl_frontier.parquet')
        GROUP BY 1
    """,
    # luma: channel-sum factorization golden; dominant color: unique+counts
    # with explicit min-over-maxima tie rule (tools/golden_oracles.py)
    "image_luma_histogram": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_luma_histogram.parquet')",
    "video_frame_stats": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/video_frame_stats.parquet') ORDER BY video_id",
    "audio_clip_stats": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/audio_clip_stats.parquet') ORDER BY clip_id",
    "image_dominant_color": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_dominant_color.parquet')",
    # whole−interior / summed-area / algebraic factorizations
    # (tools/golden_oracles.py) — independent decompositions per docstring
    "image_border_contrast": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_border_contrast.parquet')",
    "image_quadrant_range": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_quadrant_range.parquet')",
    "image_mirror_asymmetry": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_mirror_asymmetry.parquet')",
    # gradient energy: factorization golden (Σa²+Σb²−2Σab vs the engine's
    # direct Σ(a−b)² — identical exact integers, different code path);
    # dhash near-dup: brute-force hamming golden (pigeonhole: 4 bands cover
    # every pair at hamming ≤ 3) — both in tools/golden_oracles.py
    "image_gradient_energy_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_gradient_energy_hist.parquet')",
    "image_dhash_near_dup": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_dhash_near_dup.parquet')",
    # Otsu: within-class Fraction argmin golden vs the engine's between-class
    # integer argmax; RLE: itertools.groupby row encoder vs vectorized
    # transitions; Euler: flood-fill components−holes vs the 2×2 quad-count
    # formula — all in tools/golden_oracles.py
    "image_otsu_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_otsu_hist.parquet')",
    "image_rle_ratio_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_rle_ratio_hist.parquet')",
    "image_euler_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_euler_hist.parquet')",
    # colorfulness: per-value histogram-moment golden vs direct pixel sums;
    # centroid offset: row/col marginal decomposition vs full-2-D weighted
    # sum; GLCM contrast: Σ(a−b)² factorization vs the actual 8×8
    # co-occurrence matrix — all in tools/golden_oracles.py
    "image_colorfulness_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_colorfulness_hist.parquet')",
    "image_centroid_offset_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_centroid_offset_hist.parquet')",
    "image_glcm_contrast_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_glcm_contrast_hist.parquet')",
    # spread: marginal-decomposition golden vs full-2-D weighted sum;
    # palette: sort-based distinct vs bincount distinct; blockiness:
    # reduceat block sums + global-Σx² identity vs reshape two-moment
    # reduction — all in tools/golden_oracles.py
    "image_spread_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_spread_hist.parquet')",
    "image_palette_size_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_palette_size_hist.parquet')",
    "image_blockiness_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_blockiness_hist.parquet')",
    # tile dup: hash-set .tobytes() golden vs void-view np.unique;
    # R/G covariance: joint-histogram moments vs direct pixel sums —
    # both in tools/golden_oracles.py
    "image_tile_dup_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_tile_dup_hist.parquet')",
    "image_rg_cov_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_rg_cov_hist.parquet')",
    # composed curation flagship: independent gate kernels + brute-force
    # O(n²) hamming pair discovery vs the engine's banded LSH + independent
    # drop-rule replay — tools/golden_oracles.py
    "image_curation_pipeline": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_curation_pipeline.parquet')",
    # orientation classes: 27-bin sign/cmp encode + Python lookup golden
    # vs vectorized masks — tools/golden_oracles.py
    "image_orientation_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_orientation_hist.parquet')",
    # channel cast: per-channel bincount-factorization golden
    "image_channel_cast_hist": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_channel_cast_hist.parquet')",
    # encoded-bytes + decoded-pixels totals vs the corpus's STORED
    # octet_length(bytes) and w×h metadata — independent of fetch AND decode
    # hash-health audit: engine = numpy shift/mask popcounts per bit;
    # oracle = DuckDB arithmetic-shift bit ops over the same stored column
    "phash_bit_balance": f"""
        SELECT CAST(t.b AS BIGINT) AS b,
               CAST(SUM((c.phash >> t.b) & 1) AS BIGINT) AS n_set,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM read_parquet('{_corpus_10k_path()}') c, range(64) t(b)
        GROUP BY 1
    """,
    # captions measured from the PAYLOAD metadata trailer; oracle = the
    # stored caption column (fmt lie corrected) — a codec that mangles the
    # trailer fails. Token rule: whitespace split, '' → 0 tokens.
    "caption_token_stats": f"""
        WITH f AS (SELECT regexp_extract("PDF链接", 'img_[0-9]+') AS iid
                   FROM read_parquet('{_GOLDEN_DIR}/crawl_frontier.parquet')),
             j AS (SELECT CASE WHEN CAST(SUBSTR(c.image_id, 5) AS BIGINT)
                                    % 103 = 0
                               AND CAST(SUBSTR(c.image_id, 5) AS BIGINT) > 0
                          THEN 'raw' ELSE c.fmt END AS fmt,
                          c.caption
                   FROM f JOIN read_parquet('{_corpus_10k_path()}') c
                       ON c.image_id = f.iid)
        SELECT fmt, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CASE WHEN caption = '' THEN 0
                             ELSE len(string_split(caption, ' ')) END)
                    AS BIGINT) AS total_tokens,
               CAST(SUM(CASE WHEN caption = '' THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_empty
        FROM j GROUP BY 1
    """,
    "caption_dup_groups": f"""
        WITH f AS (SELECT regexp_extract("PDF链接", 'img_[0-9]+') AS iid
                   FROM read_parquet('{_GOLDEN_DIR}/crawl_frontier.parquet'))
        SELECT c.caption, CAST(COUNT(*) AS BIGINT) AS n
        FROM f JOIN read_parquet('{_corpus_10k_path()}') c
            ON c.image_id = f.iid
        WHERE c.caption <> ''
        GROUP BY 1 HAVING COUNT(*) > 1
    """,
    # the fmt column LIES for planted rows (sources/corpus.py:172-175:
    # i % 103 == 0 stores a raw payload under fmt='qlossy'); the engine
    # reports the SNIFFED container, so the oracle corrects the metadata by
    # the planted rule — a decoder that trusts the metadata fails the gate
    "image_format_size_stats": f"""
        WITH f AS (SELECT regexp_extract("PDF链接", 'img_[0-9]+') AS iid
                   FROM read_parquet('{_GOLDEN_DIR}/crawl_frontier.parquet'))
        SELECT CASE WHEN CAST(SUBSTR(c.image_id, 5) AS BIGINT) % 103 = 0
                         AND CAST(SUBSTR(c.image_id, 5) AS BIGINT) > 0
                    THEN 'raw' ELSE c.fmt END AS fmt,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(octet_length(c.bytes)) AS BIGINT) AS total_bytes,
               CAST(SUM(CAST(c.w AS BIGINT) * c.h) AS BIGINT) AS total_pixels
        FROM f JOIN read_parquet('{_corpus_10k_path()}') c
            ON c.image_id = f.iid
        GROUP BY 1
    """,
    "crawl_frontier": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/crawl_frontier.parquet')",
    "wide_report": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/wide_report.parquet')",
    "scheduled_crawl": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/wide_report.parquet')",
    "fetch_decode_stats": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/fetch_decode_stats.parquet')",
    # brute-force hamming oracle: with 4 16-bit bands every pair at hamming
    # ≤ 3 shares an untouched band (pigeonhole), so banded LSH provably
    # equals brute force at the query's max_hamming=2
    "phash_near_dup": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/phash_near_dup.parquet')",
    # union-find golden over the brute-force pair list — independent
    # algorithm family from the engine's min-label propagation
    "image_dup_clusters": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_dup_clusters.parquet')",
    # dict-bucket-index golden over per-quadrant phashes (no LSH machinery)
    "image_region_near_dup": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_region_near_dup.parquet')",
    "image_features": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_features.parquet')",
    # deterministic-but-not-SQL text/embedding operators: goldens re-derived
    # from the algorithm spec by a single-process row-at-a-time implementation
    # (tools/golden_oracles.py — pure-Python bit ops / dict bucket index /
    # one driver-side numpy pass; engine-cross-checked at generation time)
    "image_thumbnails": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/image_thumbnails.parquet')",
    "rolling_fingerprint": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/rolling_fingerprint.parquet')",
    "simhash": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/simhash.parquet')",
    # brute-force hamming over independently-recomputed simhashes; exact vs
    # banded LSH at max_hamming=3 with 4 bands (pigeonhole)
    "simhash_near_dup": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/simhash_near_dup.parquet')",
    "minhash_lsh_dedup": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/minhash_lsh_dedup.parquet')",
    # hybrid oracle: exact-dedup in SQL over the live table, near-dup drops
    # from the spec-derived golden pair list (keep-smaller retention)
    "dedup_retention": f"""
        WITH exact AS (SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id
                       FROM documents GROUP BY md5(text))
        SELECT doc_id FROM exact
        WHERE doc_id NOT IN
              (SELECT doc_b FROM read_parquet('{_GOLDEN_DIR}/minhash_lsh_dedup.parquet'))
    """,
    # hybrid oracle (same pattern as dedup_retention): the filter → exact
    # dedup → stats chain in SQL over the live table; the near-dup drop list
    # from the spec-derived minhash golden, semi-joined on surviving doc_a
    "curation_pipeline": f"""
        WITH feat AS (
          SELECT doc_id, source, text,
                 length(text) AS n_chars,
                 length(text) - length(regexp_replace(text, '[A-Za-z]', '', 'g')) AS n_alpha,
                 CASE WHEN trim(text) = '' THEN 0
                      ELSE len(string_split_regex(trim(text), '\\s+')) END AS n_tokens,
                 CASE WHEN (length(text) - length(regexp_replace(text, '[一-鿿]', '', 'g'))) * 5
                           > GREATEST(length(text), 1) THEN 'zh'
                      WHEN (length(text) - length(regexp_replace(text, '[Ѐ-ӿ]', '', 'g'))) * 5
                           > GREATEST(length(text), 1) THEN 'ru'
                      WHEN (length(text) - length(regexp_replace(text, '[A-Za-z]', '', 'g'))) * 5
                           > GREATEST(length(text), 1) * 2 THEN 'en'
                      ELSE 'unknown' END AS pred_lang
          FROM documents),
        filt AS (SELECT * FROM feat
                 WHERE pred_lang = 'en' AND n_tokens >= 30 AND 2*n_alpha >= n_chars),
        exact AS (SELECT MIN(doc_id) AS doc_id FROM filt GROUP BY md5(text)),
        surv AS (SELECT f.doc_id, f.source, f.n_tokens
                 FROM filt f JOIN exact e USING (doc_id)),
        drops AS (SELECT DISTINCT p.doc_b
                  FROM read_parquet('{_GOLDEN_DIR}/minhash_lsh_dedup.parquet') p
                  JOIN surv a ON p.doc_a = a.doc_id),
        final AS (SELECT * FROM surv
                  WHERE doc_id NOT IN (SELECT doc_b FROM drops))
        SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_tokens) AS BIGINT) AS total_tokens
        FROM final GROUP BY source ORDER BY source
    """,
    "ann_lsh_topk": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/ann_lsh_topk.parquet')",
    "ann_ivf_topk": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/ann_ivf_topk.parquet')",
    # k-means labeling: nearest spec-centroid assignment recomputed by a
    # single driver-side numpy pass (same deterministic quantizer spec)
    "embed_clusters": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/embed_clusters.parquet')",
}


#: dup_clusters / approx_distinct_users are deterministic but not
#: SQL-expressible; their goldens come from independent spec implementations
#: (union-find / pure-python HLL in tools/golden_oracles.py)
_ANALYTICS_GOLDEN_SQL = {
    "dup_clusters": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/dup_clusters.parquet')",
    # union-find over DuckDB-levenshtein pairs (tools/golden_oracles.py)
    # — independent candidate generation AND clustering algorithm
    "name_dup_clusters": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/name_dup_clusters.parquet')",
    "approx_distinct_users": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/approx_distinct_users.parquet')",
    "approx_distinct_by_type": f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/approx_distinct_by_type.parquet')",
}


def oracle_sql() -> dict[str, str]:
    return {**Q.ORACLE_SQL, **A.ANALYTICS_ORACLE_SQL,
            **_CRAWL_ORACLE_SQL, **_ANALYTICS_GOLDEN_SQL}
