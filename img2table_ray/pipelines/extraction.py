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

Words sidecar (stand-in for the external OCR service) is broadcast via
``ray.put`` when small; past ``WORDS_BROADCAST_MAX_BYTES`` it is served by
the partitioned lookup service (``state/words_service.py``), so the
document-carrying pages side never shuffles.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from img2table_ray.stages.extractor import (
    OUTPUT_SCHEMA,
    PageExtractor,
    page_rows,
)
from img2table_ray.stages.util import actor_concurrency
from img2table_ray.state import manifest as mf

HEAVY_BYTES = 512 * 1024  # page rows above this are yielded as tiny sub-batches
HEAVY_CHUNK = 2

# Broadcast-vs-service cutover for the words sidecar (VERDICT r4 §next-6):
# the broadcast path ray.puts one {(url, page): hocr} dict that every task
# worker deserializes into its heap, so it is only safe while that dict
# fits comfortably beside the extraction working set.  Parquet is ~2-4x
# smaller than the in-heap dict (string object overhead), so 256 MB
# on disk ~= 0.5-1 GB per worker heap — past that, route to the
# partitioned words service, which shards the table over K lookup actors
# and never materializes it in task workers.
WORDS_BROADCAST_MAX_BYTES = 256 * 1024 * 1024
WORDS_MODES = ("auto", "broadcast", "service")


def _words_dir_bytes(words_dir: str) -> int:
    total = 0
    for root, _, files in os.walk(words_dir):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


def resolve_words_mode(words_dir: str | None, join_words: str = "auto") -> str:
    """Pick the words-attachment mode at PLAN time from the sidecar's
    on-disk size; an explicit ``"broadcast"`` or ``"service"`` overrides.
    Returns ``"broadcast"`` or ``"service"``; any other value raises."""
    if join_words not in WORDS_MODES:
        raise ValueError(f"join_words={join_words!r}: expected one of "
                         f"{', '.join(WORDS_MODES)}")
    if join_words != "auto":
        return join_words
    if words_dir is None or not os.path.isdir(words_dir):
        return "broadcast"
    if _words_dir_bytes(words_dir) > WORDS_BROADCAST_MAX_BYTES:
        return "service"
    return "broadcast"


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
    task; such rows still extract and land in the ``part=-1`` output
    directory, where they are visible rather than silently lost."""
    paths = batch["path"].to_pylist()
    part = pa.array([lut.get(os.path.basename(p), -1) for p in paths],
                    pa.int32())
    return batch.drop_columns(["path"]).append_column("part", part)


def load_words_lookup(words_dir: str) -> dict:
    """Driver-side load of the words sidecar -> {(url, page): hocr}.  Small
    side of the broadcast join; at 100 TB the partitioned words service
    replaces it."""
    import pyarrow.parquet as pq

    if not os.path.isdir(words_dir):
        return {}
    tbl = pq.read_table(words_dir)
    if "page" in tbl.schema.names:
        return {(u, p): h for u, p, h in zip(tbl["url"].to_pylist(),
                                             tbl["page"].to_pylist(),
                                             tbl["hocr"].to_pylist())}
    return {(u, 0): h for u, h in zip(tbl["url"].to_pylist(), tbl["hocr"].to_pylist())}


def extract_pages(pages_dir: str, words_dir: str | None = None,
                  keep_parts: set[int] | None = None, implicit_rows: bool = True,
                  borderless: bool = False, lang_filter: str | None = None,
                  join_words: str = "auto",
                  stats_handle=None) -> ray.data.Dataset:
    """Build the lazy extraction Dataset (no sink).

    ``keep_parts`` selects input shards at the READ — the excluded shards
    are never opened.  Word-provider attachment defaults to ``"auto"``:
    :func:`resolve_words_mode` picks broadcast vs the partitioned service
    from the sidecar's on-disk size at plan time
    (``WORDS_BROADCAST_MAX_BYTES``); passing an explicit mode overrides.
    The two modes:

    * ``"broadcast"`` — broadcast the sidecar via ``ray.put``
      (small-side fast path; fine while the words table fits one worker).
    * ``"service"`` — the 100 TB path: a PARTITIONED LOOKUP SERVICE
      (``state/words_service.py``).  Only the words shuffle (into K shard
      actors); pages — whose rows carry the full document bytes — never
      move, and each extraction batch bulk-fetches exactly its keys'
      hOCR strings."""
    join_words = resolve_words_mode(words_dir, join_words)
    shards = input_shards(pages_dir)
    parts = set(range(len(shards)))
    if keep_parts is not None:
        parts &= set(keep_parts)
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

    words_ref = None
    words_service = None
    if words_dir is not None and join_words == "service":
        from img2table_ray.state.words_service import build_words_service

        words_service = build_words_service(
            words_dir, num_shards=max(2, actor_concurrency() // 4))
        if stats_handle is not None:  # a job's wave: the job frees them
            stats_handle.owned.extend(words_service.shards)
    elif words_dir is not None:
        lookup = load_words_lookup(words_dir)
        if lookup:
            words_ref = ray.put(lookup)

    return PageExtractor.map_batches(
        ds, batch_size=16, words_ref=words_ref, words_service=words_service,
        implicit_rows=implicit_rows, borderless=borderless,
        stats_handle=stats_handle)


def run_extraction_job(pages_dir: str, out_dir: str, words_dir: str | None = None,
                       implicit_rows: bool = True, borderless: bool = False,
                       waves: int = 4, join_words: str = "auto") -> dict:
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
                               stats_handle=stats_actor,
                               join_words=join_words)
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
