"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline on sf0.001; ``queries()`` maps each
implemented operator/pipeline to a callable over ``sf_dir``;
``oracle_sql()`` gives the DuckDB-equivalent SQL for the SQL-expressible
entries (the rest get the driver's rows-only check).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library code) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF0001 = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline on sf0.001: the streaming table-extraction job over
    the Common-Crawl-style pages table (synthesized deterministically at
    sf0.001 scale — testdata carries no binary pages table; FIXTURES.md §1),
    returning one row per extracted table."""
    from img2table_ray.pipelines import extraction_queries

    return extraction_queries.extract_tables(SF0001)


def queries() -> dict[str, Callable[[str], Any]]:
    from img2table_ray.pipelines import (
        dedup,
        docops,
        extraction_queries,
        joins,
        multimodal,
        relational,
        similarity,
    )

    return {
        # --- extraction engine (rows-only: not SQL-expressible) ---
        "extract_tables": extraction_queries.extract_tables,
        # a contract name kept from a second words path: the same query
        "extract_tables_joined": extraction_queries.extract_tables,
        "extract_tables_en": extraction_queries.extract_tables_en,
        "extract_metrics": extraction_queries.extract_metrics,
        "extract_lines": extraction_queries.extract_lines,
        "extract_tables_borderless": extraction_queries.extract_tables_borderless,
        "pdf_words": extraction_queries.pdf_words,
        "image_features": multimodal.image_features,
        "image_thumbnails": multimodal.image_thumbnails,
        "audio_features": multimodal.audio_features,
        "video_frames": multimodal.video_frames,
        # --- text analysis over documents ---
        "token_count": docops.token_count,
        "text_quality": docops.text_quality,
        "lang_id": docops.lang_id,
        "doc_fingerprint": docops.doc_fingerprint,
        "deterministic_sample": docops.deterministic_sample,
        "main_content": docops.main_content,
        "stratified_sample": docops.stratified_sample,
        "repetition_signals": docops.repetition_signals,
        "decontaminate": docops.decontaminate,
        "pii_scrub": docops.pii_scrub,
        "url_canonicalize": docops.url_canonicalize,
        # --- deduplication family ---
        "exact_dedup": dedup.exact_dedup,
        "minhash_lsh_pairs": dedup.minhash_lsh_pairs,
        "minhash_dedup": dedup.minhash_dedup,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "simhash_near_dup": dedup.simhash_near_dup,
        "embedding_dup_pairs": dedup.embedding_dup_pairs,
        # --- similarity search ---
        "ann_topk": similarity.ann_topk,
        "ann_ivf_topk": similarity.ann_ivf_topk,  # rows-only (approximate)
        "winnow_fingerprints": docops.winnow_fingerprints,
        # --- relational / windowed demos ---
        "pricing_summary": relational.pricing_summary,
        "events_hourly": relational.events_hourly,
        "sessionize": relational.sessionize,
        "nation_revenue": relational.nation_revenue,
        "json_props_agg": relational.json_props_agg,
        "group_quantiles": relational.group_quantiles,
        "distinct_users_daily": relational.distinct_users_daily,
        "approx_distinct_users": relational.approx_distinct_users,  # HLL, rows-only
        "top_orders_per_nation": relational.top_orders_per_nation,
        # --- custom joins / windows Ray Data lacks natively ---
        "asof_join": joins.asof_join,
        "range_join": joins.range_join,
        "sliding_window": joins.sliding_window,
    }


def oracle_sql() -> dict[str, str]:
    from img2table_ray.pipelines import oracles

    return {
        "token_count": oracles.token_count_sql(),
        "text_quality": oracles.text_quality_sql(),
        "lang_id": oracles.lang_id_sql(),
        "doc_fingerprint": oracles.doc_fingerprint_sql(),
        "deterministic_sample": oracles.deterministic_sample_sql(),
        "main_content": oracles.main_content_sql(),
        "stratified_sample": oracles.stratified_sample_sql(),
        "repetition_signals": oracles.repetition_signals_sql(),
        "decontaminate": oracles.decontaminate_sql(),
        "pii_scrub": oracles.pii_scrub_sql(),
        "url_canonicalize": oracles.url_canonicalize_sql(),
        "exact_dedup": oracles.exact_dedup_sql(),
        "minhash_lsh_pairs": oracles.minhash_lsh_pairs_sql(),
        "minhash_dedup": oracles.minhash_dedup_sql(),
        "ngram_jaccard_pairs": oracles.ngram_jaccard_pairs_sql(),
        "embedding_dup_pairs": oracles.embedding_dup_pairs_sql(),
        "ann_topk": oracles.ann_topk_sql(),
        "simhash_near_dup": oracles.simhash_near_dup_sql(),
        "winnow_fingerprints": oracles.winnow_fingerprints_sql(),
        "sessionize": oracles.sessionize_sql(),
        "pricing_summary": oracles.pricing_summary_sql(),
        "events_hourly": oracles.events_hourly_sql(),
        "nation_revenue": oracles.nation_revenue_sql(),
        "json_props_agg": oracles.json_props_agg_sql(),
        "group_quantiles": oracles.group_quantiles_sql(),
        "distinct_users_daily": oracles.distinct_users_daily_sql(),
        "top_orders_per_nation": oracles.top_orders_per_nation_sql(),
        "asof_join": oracles.asof_join_sql(),
        "range_join": oracles.range_join_sql(),
        "sliding_window": oracles.sliding_window_sql(),
    }
