"""Single-page latency of the table extraction on the vendored fixtures.

    python tests/tools/page_bench.py [--runs N]

Times ``decode_image(data)`` followed by
``extract_tables_from_image(img, words=words, implicit_rows=True)`` on
``test.png``, ``dark.png``, ``borderless.png``, ``borderless.webp`` and
``blank.png`` (an all-white page; the benchmark corpus replicates it), in
this process, after one warm-up call per page.  ``test.png`` runs with the
words of its hOCR fixture (``tesseract_hocr.html``, parsed in the timed
loop); the other pages run without words.  ``borderless.webp`` is a lossy
WebP built as the benchmark corpus builds its lossy pages:
``borderless.png``'s gray plane through ``encode_webp_vp8(qindex=40)``,
encoded once at start-up.
Prints one line per page: min and median ms per page (decode plus
extraction) over N runs, then the median ms of the decode and of the three
classical-CV layers inside the extraction: threshold
(``threshold_dark_areas``), metrics (``compute_img_metrics``) and lines
(``detect_lines``); then two kernels that run across those layers: ccl
(every connected-component entry point, wrapped where each calling module
imported it) and cells (``identify_cells``); then the Python tail:
tables (``get_tables``, ``implicit_content`` and
``merge_consecutive_tables``), and the two layers that words feed,
content (``parse_hocr``, ``OCRWords.from_records`` and
``Table.get_content``) and titles (``get_title_tables``).  Run it on both sides of a
change, one right after the other, and compare.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

PAGES = ("test.png", "dark.png", "borderless.png", "borderless.webp",
         "blank.png")
LAYERS = (("threshold", "threshold_dark_areas"),
          ("metrics", "compute_img_metrics"),
          ("lines", "detect_lines"),
          ("tables", "get_tables"),
          ("tables", "implicit_content"),
          ("tables", "merge_consecutive_tables"))
CCL_ENTRIES = ("connected_components_with_stats", "connected_components_stats")
CCL_CALLERS = ("threshold", "metrics", "lines", "rotation", "titles",
               "borderless", "borderless.rlsa")
WORDS = {"test.png": "tesseract_hocr.html"}
COLUMNS = ("decode", "threshold", "metrics", "lines", "ccl", "cells",
           "tables", "content", "titles")


def _timed(fn, spent, layer):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[layer] += time.perf_counter() - t0
    return wrapper


def _page_bytes(page: str) -> bytes:
    import numpy as np

    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.kernels import rgb2gray
    from img2table_ray.imgops.png import decode_image
    from img2table_ray.imgops.vp8 import encode_webp_vp8

    if page != "borderless.webp":
        return fixture_bytes(page)
    gray = rgb2gray(decode_image(fixture_bytes("borderless.png")))
    data, _ = encode_webp_vp8(np.repeat(gray[:, :, None], 3, axis=2),
                              qindex=40)
    return data


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=20)
    args = ap.parse_args()

    sys.path.insert(0, REPO)
    from img2table_ray.core.objects import Table
    from img2table_ray.extract import cells, content, document
    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.png import decode_image

    spent = {column: 0.0 for column in COLUMNS}
    for layer, name in LAYERS:
        setattr(document, name, _timed(getattr(document, name), spent, layer))
    # a kernel is timed in the namespace of each module that calls it;
    # older checkouts lack the stats-only entry, so skip missing names
    for caller in CCL_CALLERS:
        module = importlib.import_module(f"img2table_ray.extract.{caller}")
        for name in CCL_ENTRIES:
            if hasattr(module, name):
                setattr(module, name, _timed(getattr(module, name), spent, "ccl"))
    cells.identify_cells = _timed(cells.identify_cells, spent, "cells")
    Table.get_content = _timed(Table.get_content, spent, "content")
    document.get_title_tables = _timed(document.get_title_tables, spent,
                                       "titles")

    def words_of(hocr):
        if hocr is None:
            return None
        t0 = time.perf_counter()
        words = content.OCRWords.from_records(content.parse_hocr(hocr))
        spent["content"] += time.perf_counter() - t0
        return words

    for page in PAGES:
        data = _page_bytes(page)
        hocr = fixture_bytes(WORDS[page]).decode() if page in WORDS else None
        img = decode_image(data)
        document.extract_tables_from_image(img, words=words_of(hocr),
                                           implicit_rows=True)
        totals, splits = [], {column: [] for column in COLUMNS}
        for _ in range(args.runs):
            for layer in spent:
                spent[layer] = 0.0
            t0 = time.perf_counter()
            img = decode_image(data)
            spent["decode"] = time.perf_counter() - t0
            document.extract_tables_from_image(img, words=words_of(hocr),
                                               implicit_rows=True)
            totals.append(time.perf_counter() - t0)
            for layer, v in spent.items():
                splits[layer].append(v)
        parts = "  ".join(f"{layer} {1e3 * statistics.median(v):7.1f}"
                          for layer, v in splits.items())
        print(f"{page:15s} {img.shape[1]}x{img.shape[0]}  "
              f"min {1e3 * min(totals):7.1f}  "
              f"median {1e3 * statistics.median(totals):7.1f} ms/page  "
              f"({parts})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
