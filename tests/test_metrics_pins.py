"""Regression pins for the image metrics layer on whole pages.

``tests/data/metrics_pins.json`` holds, per page,
``compute_img_metrics(threshold_dark_areas(img, 11))``: the character
length, the median line separation and every text contour box
``[x1, y1, x2, y2]``, in order.  The pages:

* the vendored image fixtures (``test.png``, ``dark.png``,
  ``borderless.png``, ``contours.png``, ``titles.jpg`` and ``blank.png``);
* the image pages of the page_api benchmark workload's first cycle for
  seeds 1-2: a bordered PNG grid, a bordered JPEG grid and six line-free
  grids each, drawn as ``perfbench/gen.py`` draws them;
* the distinct PNG pages of the crawl_mix workload for seed 1 (its single
  PNG grids and the three pages of each MPNG document).

The grids are drawn with ``sources.pages.synth_table_image``; a PNG page
is its drawn gray plane (the codec is lossless, and the page path keeps
one plane of a gray page), a JPEG page goes through
``encode_jpeg(quality=95)`` and ``decode_image``.

These are pins of the engine's own earlier outputs, not goldens.  A change
that moves one on purpose rewrites the table (run this file as a script)
and says which entries moved and why.

    python tests/test_metrics_pins.py     # rewrite the table
"""

from __future__ import annotations

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

TABLE = os.path.join(HERE, "data", "metrics_pins.json")

FIXTURE_PAGES = ("test.png", "dark.png", "borderless.png", "contours.png",
                 "titles.jpg", "blank.png")
# page_api: shapes of the bordered grids, and the line-free grid's shape
API_BORDERED = [(2, 2), (3, 3), (4, 2), (2, 3)]
API_LINE_FREE = (3, 4)
# crawl_mix: the shapes its grids cycle through, and its document count
CRAWL_SHAPES = [(3, 3), (4, 2), (5, 4), (2, 5)]
CRAWL_DOCS = 128

_WORD_BOX = re.compile(r"class='ocrx_word'[^>]*title='bbox (\d+) (\d+) (\d+) (\d+);")


def _line_free(img: np.ndarray, hocr: str) -> np.ndarray:
    """The page with the grid rules removed: only the word ink stays."""
    out = np.full_like(img, 255)
    for m in _WORD_BOX.finditer(hocr):
        x1, y1, x2, y2 = (int(v) for v in m.groups())
        out[y1:y2, x1:x2] = img[y1:y2, x1:x2]
    return out


def _page_api_pages(seed: int) -> dict:
    """The image calls of page_api's first 10-call cycle for ``seed``."""
    from img2table_ray.imgops.jpeg import encode_jpeg
    from img2table_ray.imgops.png import decode_image
    from img2table_ray.sources.pages import synth_table_image

    pages = {}
    for i in range(8):
        idx = seed * 1_000_003 + i
        if i >= 2:
            img, hocr = synth_table_image(*API_LINE_FREE, idx)
            pages[f"page_api {seed} line_free {i}"] = _line_free(img, hocr)
            continue
        shape = API_BORDERED[(seed + 2 * i) % len(API_BORDERED)]
        img, _ = synth_table_image(*shape, idx)
        if i == 1:
            img = decode_image(encode_jpeg(img, quality=95))
        pages[f"page_api {seed} bordered {('png', 'jpeg')[i]}"] = img
    return pages


def _crawl_mix_pages(seed: int) -> dict:
    """The distinct PNG pages of crawl_mix for ``seed``: rows 3-6 of each
    16-row cycle are PNG grids, row 7 a three-page MPNG document."""
    from img2table_ray.sources.pages import synth_table_image

    pages, seen = {}, set()
    for i in range(CRAWL_DOCS):
        if i % 16 not in (3, 4, 5, 6, 7):
            continue
        idx = seed * 1_000_003 + i
        turn = i // 32 + i % 16 + seed
        draws = ([(CRAWL_SHAPES[(turn + k) % len(CRAWL_SHAPES)], idx + k * 7919, k)
                  for k in range(3)] if i % 16 == 7
                 else [(CRAWL_SHAPES[turn % len(CRAWL_SHAPES)], idx, 0)])
        for shape, draw_idx, page in draws:
            img, _ = synth_table_image(*shape, draw_idx)
            key = (img.shape, img.tobytes())
            if key not in seen:
                seen.add(key)
                pages[f"crawl_mix {seed} doc {i} page {page}"] = img
    return pages


def _pages() -> dict:
    """name -> image."""
    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.png import decode_image

    pages = {name: decode_image(fixture_bytes(name)) for name in FIXTURE_PAGES}
    for seed in (1, 2):
        pages.update(_page_api_pages(seed))
    pages.update(_crawl_mix_pages(1))
    return pages


def _metrics(img: np.ndarray) -> dict:
    from img2table_ray.extract.metrics import compute_img_metrics
    from img2table_ray.extract.threshold import threshold_dark_areas

    char_length, median_line_sep, contours = compute_img_metrics(
        threshold_dark_areas(img, 11))
    return {"char_length": None if char_length is None else float(char_length),
            "median_line_sep": median_line_sep,
            "contours": [[c.x1, c.y1, c.x2, c.y2] for c in contours or []]}


@pytest.fixture(scope="module")
def pages():
    return _pages()


def _table() -> dict:
    with open(TABLE) as f:
        return json.load(f)


def test_table_covers_every_page(pages):
    assert sorted(_table()) == sorted(pages)


@pytest.mark.parametrize("name", sorted(_table()))
def test_metrics_page_pinned(name, pages):
    assert _metrics(pages[name]) == _table()[name]


def test_pins_cover_text_and_blank_pages():
    table = _table()
    assert table["blank.png"] == {"char_length": None, "median_line_sep": None,
                                  "contours": []}
    assert all(table[name]["median_line_sep"] and table[name]["contours"]
               for name in table if name != "blank.png")


if __name__ == "__main__":
    pins = {name: _metrics(img) for name, img in _pages().items()}
    with open(TABLE, "w") as f:  # one line per page
        f.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in sorted(pins.items())) + "\n}\n")
    print(f"wrote {len(pins)} pages to {TABLE}")
