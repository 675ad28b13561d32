"""The flagship Ray-Data extraction pipeline (north_rule): streaming
extraction over a Common-Crawl-style pages table.

    read_parquet(selected shards, columns=[url, html],
                 filter=lang pushdown)                  # prune at the read
      -> tag part (= input-shard index)                 # lineage key
      -> map_batches(probe)                             # size + container sniff
      -> map_batches(explode_pages)                     # 1 doc -> N page rows
      -> map_batches(segregate_by_weight)               # size-aware repartition
      -> PageExtractor.map_batches                      # fused per-page algorithm
      -> write_parquet(out/data, partition_cols=[part]) # resumable layout
      -> manifests per partition (counts from the       # checkpoint + lineage
         distributed StatsCollector, no output re-read)

Partitions ARE input shards (sorted parquet files): resume and checkpoint
waves select shards at the read, so a wave never rescans the rest of the
corpus (at 100 TB each wave reads only its own shards; the granularity is
the Common-Crawl WARC-shard layout).  Skew mitigation is explicit: page
explode bounds per-row work at one page, and ``segregate_by_weight`` emits
heavy rows (big pages) as their own small sub-batches so one giant page
cannot head-of-line-block a batch of light rows.

Words sidecar (stand-in for the external OCR service) is co-partitioned
with the pages: ``words/<name>.parquet`` holds the words of
``pages/<name>.parquet``, so each page task reads its own part's words
file where it runs (a map-side co-partitioned join, *MapReduce
Algorithms for Big Data Analysis*, VLDB 2012) and neither side is
broadcast or shuffled.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from img2table_ray.stages.extractor import (
    OUTPUT_SCHEMA,
    PageExtractor,
    page_rows,
)
from img2table_ray.state import manifest as mf

HEAVY_BYTES = 512 * 1024  # page rows above this are yielded as tiny sub-batches
HEAVY_CHUNK = 2

def input_shards(pages_dir: str) -> list[str]:
    """Sorted parquet shards of the pages table; index = partition id."""
    return sorted(glob.glob(os.path.join(pages_dir, "pages", "*.parquet")))


def segregate_by_weight(batch: pa.Table):
    """Size-aware streaming repartition: orders each batch into a light
    run followed by tiny heavy sub-batches.  Downstream re-batching can
    still join runs across block boundaries, so the guarantee is
    ORDERING (heavy rows cluster together, bounding how many light rows
    can sit behind a giant page in one batch), not strict isolation —
    per-row work is already bounded by the page explode upstream."""
    mask = pc.greater(batch["doc_bytes"], HEAVY_BYTES)
    if not pc.any(mask).as_py():
        yield batch
        return
    light = batch.filter(pc.invert(mask))
    if light.num_rows:
        yield light
    heavy = batch.filter(mask)
    for s in range(0, heavy.num_rows, HEAVY_CHUNK):
        yield heavy.slice(s, HEAVY_CHUNK)


def tag_part_batch(batch: pa.Table, lut: dict[str, int]) -> pa.Table:
    """Replace the read's ``path`` column with the shard's partition id.

    A miss (path normalized beyond the basename, e.g. a copied/renamed
    shard) routes the row to sentinel part -1 instead of failing the read
    task; such rows still extract (without words: part -1 has no words
    file) and land in the ``part=-1`` output directory, where they are
    visible rather than silently lost."""
    paths = batch["path"].to_pylist()
    part = pa.array([lut.get(os.path.basename(p), -1) for p in paths],
                    pa.int32())
    return batch.drop_columns(["path"]).append_column("part", part)


def words_files(words_dir: str | None, shards: list[str],
                parts) -> dict[int, str]:
    """{part: words file} of ``parts``: ``words_dir/<name of the part's
    pages shard>`` where that file exists.

    The sidecar must be co-partitioned with the pages: every ``*.parquet``
    under ``words_dir`` sits directly in it and is named after a pages
    shard, else ``ValueError`` names the file (a misaligned sidecar would
    otherwise give word-less rows).  No ``words_dir``, or a missing one,
    means no words."""
    if words_dir is None or not os.path.isdir(words_dir):
        return {}
    names = {os.path.basename(s) for s in shards}
    for path in glob.glob(os.path.join(words_dir, "**", "*.parquet"),
                          recursive=True):
        if os.path.relpath(path, words_dir) not in names:
            raise ValueError(f"words file {path} is not named after a pages "
                             f"shard directly under {words_dir}")
    files = {p: os.path.join(words_dir, os.path.basename(shards[p]))
             for p in parts}
    return {p: f for p, f in files.items() if os.path.isfile(f)}


def extract_pages(pages_dir: str, words_dir: str | None = None,
                  keep_parts: set[int] | None = None, implicit_rows: bool = True,
                  borderless: bool = False, lang_filter: str | None = None,
                  stats_handle=None) -> ray.data.Dataset:
    """Build the lazy extraction Dataset (no sink).

    ``keep_parts`` selects input shards at the READ — the excluded shards
    are never opened.  Words come from ``words_dir``, co-partitioned with
    the pages (:func:`words_files`): each page task reads the words file
    of the part it is extracting, so the sidecar is never broadcast or
    shuffled."""
    shards = input_shards(pages_dir)
    parts = set(range(len(shards)))
    if keep_parts is not None:
        parts &= set(keep_parts)
    words = words_files(words_dir, shards, parts)
    selected = [shards[p] for p in sorted(parts)]
    if not selected:
        return ray.data.from_arrow(OUTPUT_SCHEMA.empty_table())
    # key by BASENAME (unique within the shard dir): include_paths may
    # report a differently-normalized path than the driver-side glob
    # (relative cwd, symlinks), and a lookup miss must not fail the task
    part_of_name = {os.path.basename(shards[p]): p for p in sorted(parts)}

    read_filter = (pc.field("lang") == lang_filter) if lang_filter else None
    ds = ray.data.read_parquet(selected, columns=["url", "html"],
                               filter=read_filter, include_paths=True)

    ds = ds.map_batches(lambda b, lut=part_of_name: tag_part_batch(b, lut),
                        batch_format="pyarrow")
    # 1 multi-page doc -> N page rows BEFORE the heavy per-page work
    ds = page_rows(ds)
    ds = ds.map_batches(segregate_by_weight, batch_format="pyarrow")

    return PageExtractor.map_batches(
        ds, batch_size=16, words_files=words, implicit_rows=implicit_rows,
        borderless=borderless, stats_handle=stats_handle)


def run_extraction_job(pages_dir: str, out_dir: str, words_dir: str | None = None,
                       implicit_rows: bool = True, borderless: bool = False,
                       waves: int = 4) -> dict:
    """Resumable job: partitions (= input shards) with complete manifests are
    skipped; the remaining shards run in ``waves`` checkpoint rounds, each
    wave writing its data directories and then publishing manifests — so a
    kill at ANY point loses at most one wave of work.  Partial data of
    unfinished partitions is cleared before rewriting (idempotent)."""
    from img2table_ray.state.stats import StatsShards

    t0 = time.time()
    n_parts = len(input_shards(pages_dir))
    done = mf.completed_partitions(out_dir)
    ddir = mf.data_dir(out_dir)

    # clear partial output of unfinished partitions (idempotent rewrite)
    if os.path.isdir(ddir):
        for name in os.listdir(ddir):
            if name.startswith("part="):
                part = int(name.split("=")[1])
                if part not in done:
                    shutil.rmtree(os.path.join(ddir, name), ignore_errors=True)

    todo = sorted(set(range(n_parts)) - done)
    wave_size = max(1, -(-len(todo) // max(1, waves)))
    # no collectors on a fully-resumed job (actor creation would race
    # an immediately-following ray.shutdown in short scripts)
    stats_actor = StatsShards() if todo else None
    stats = {}
    try:
        for w in range(0, len(todo), wave_size):
            wave_parts = set(todo[w : w + wave_size])
            ds = extract_pages(pages_dir, words_dir=words_dir,
                               keep_parts=wave_parts,
                               implicit_rows=implicit_rows,
                               borderless=borderless,
                               stats_handle=stats_actor)
            ds.write_parquet(ddir, partition_cols=["part"])

            # publish manifests for this wave (data is durable at this
            # point); counts come from the distributed collectors, not an
            # output re-read.  flush() is the drain barrier for the
            # workers' fire-and-forget stats sends (state/stats.py:add_rows)
            # — after it, every add submitted by this wave's tasks has
            # been processed.
            stats_actor.flush()
            totals = stats_actor.totals()
            err_fmt = stats_actor.errors_by_format()
            for part in sorted(wave_parts):
                n_docs, n_tables, n_errors = totals.get(part, [0, 0, 0])
                by_fmt = err_fmt.get(part, {})
                mf.write_manifest(out_dir, part, n_docs=n_docs,
                                  n_tables=n_tables, n_errors=n_errors,
                                  wall_s=time.time() - t0,
                                  errors_by_format=by_fmt)
                stats[part] = {"n_docs": n_docs, "n_tables": n_tables,
                               "n_errors": n_errors,
                               "errors_by_format": by_fmt}
                # manifest is durable -> free the partition's dedup state
                stats_actor.drop_part(part)
    finally:
        if stats_actor is not None:
            stats_actor.close()

    return {
        "out_dir": out_dir,
        "resumed_parts": sorted(done),
        "new_parts": sorted(stats),
        "wall_s": round(time.time() - t0, 3),
    }
