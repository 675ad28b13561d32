"""Per-scale-factor synthetic pages corpora (cached under /tmp).

The driver's testdata has no binary pages table, so the mandated
(url, warc_ts, html, text, lang) table is synthesized deterministically
(FIXTURES.md §1) at a size derived from the sf directory name.
"""

from __future__ import annotations

import os

from img2table_ray.sources.pages import generate_pages

CORPUS_ROOT = "/tmp/img2table_ray_corpus"

# rows per scale factor (docs; extraction cost ~140ms/doc for synth rows)
SF_ROWS = {"sf0.001": 64, "sf0.01": 192, "sf0.1": 6144}
DEFAULT_ROWS = 64


def corpus_for(sf_dir: str) -> str:
    """Return (and lazily build) the pages corpus for a testdata sf dir.

    GRAFT_SYNTH_CORPUS=1 (bench-only, set by ``bench.py --scaling-protocol``
    for its synth-corpus session)
    selects a variant with the replicated reference fixtures left out —
    every page is a small unique synthetic grid, keeping the per-page
    kernel working set cache-resident.  That variant isolates DATAFLOW
    scaling from the one-box shared-memory-bandwidth artifact documented
    in BASELINE.md."""
    sf_name = os.path.basename(os.path.normpath(sf_dir))
    n_rows = SF_ROWS.get(sf_name, DEFAULT_ROWS)
    synth_only = bool(os.environ.get("GRAFT_SYNTH_CORPUS"))
    dir_name = f"synth-{sf_name}" if synth_only else sf_name
    out = os.path.join(CORPUS_ROOT, dir_name)
    # v13: VP8 rows re-encoded against the real RFC 6386 tables
    # (vp8_tables.py) — pre-v13 lossy-WebP rows used placeholder default
    # probabilities and do not parse under the table-correct decoder.
    # v14: JPEG rows from the BLAS-free forward DCT (same bytes on every
    # host; a v13 corpus may hold another host's JPEG bytes)
    marker = os.path.join(out, f".complete-v14-{n_rows}")
    if not os.path.exists(marker):
        generate_pages(out, n_rows, include_fixtures=not synth_only)
        with open(marker, "w") as f:
            f.write(str(n_rows))
    return out
