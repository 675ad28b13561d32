"""``ray job submit`` entrypoint for the extraction pipeline.

The north rule runs the pipeline "via ray job submit on a fixed-size
multi-node Ray cluster"; this module is the submittable driver script:

    ray job submit --working-dir . -- \\
        python -m img2table_ray.job --input /data/pages --out /data/tables

On a cluster the Ray Jobs runtime exports ``RAY_ADDRESS`` and the guarded
``ray.init()`` attaches to it; standalone (tests, this sandbox) the same
command runs in local mode.  The job is RESUMABLE: re-submitting with the
same ``--out`` skips partitions whose manifests are complete (see
``pipelines.extraction.run_extraction_job``), so a preempted or killed
submission continues where it stopped — at most one checkpoint wave of
work is recomputed.

Prints one JSON summary line on stdout (per-partition doc/table/error
counts from the distributed manifest stats — the driver never re-reads
the output parquet).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m img2table_ray.job",
        description="Resumable Ray Data table-extraction job over a "
                    "Common-Crawl-style pages table.")
    p.add_argument("--input", required=True,
                   help="directory of input parquet shards (pages table)")
    p.add_argument("--out", required=True,
                   help="output directory (data/ + manifests/; reuse to "
                        "resume)")
    p.add_argument("--words-dir", default=None,
                   help="optional OCR words sidecar, co-partitioned with "
                        "the input: words/<pages shard name> holds the "
                        "words (url, page, hocr) of that pages shard")
    p.add_argument("--borderless", action="store_true",
                   help="also run borderless-table detection")
    p.add_argument("--no-implicit-rows", action="store_true",
                   help="disable implicit row splitting")
    p.add_argument("--waves", type=int, default=4,
                   help="checkpoint waves per submission (a kill loses at "
                        "most one wave)")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS points at the cluster; when
        # unset this falls back to a local session (tests/sandbox)
        ray.init(include_dashboard=False, logging_level="ERROR")

    from img2table_ray.pipelines.extraction import run_extraction_job

    summary = run_extraction_job(
        args.input, args.out, words_dir=args.words_dir,
        implicit_rows=not args.no_implicit_rows,
        borderless=args.borderless, waves=args.waves,
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
