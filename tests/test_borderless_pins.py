"""Regression pins for borderless detection on whole pages.

``tests/data/borderless_pins.json`` holds, per page, every table that
``extract_tables_from_image(..., borderless_tables=True,
implicit_rows=True)`` returns: its bbox, rows x columns, title, cell
text and cell boxes.  The pages:

* the line-free grids of the page_api benchmark workload (a 3 x 4
  ``synth_table_image`` grid with its rules removed, read with the words
  of its own hOCR), the first cycle of seeds 1-3;
* a line-free 3 x 3 grid, where the detector finds no table;
* ``borderless.png``, and ``borderless.webp``: its gray plane through
  ``encode_webp_vp8(qindex=40)``, as ``tests/tools/page_bench.py`` builds
  it.  Both run without words.

These are pins of the engine's own earlier outputs, not goldens.  A change
that moves one on purpose rewrites the table (run this file as a script)
and says which entries moved and why.

    python tests/test_borderless_pins.py     # rewrite the table
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

TABLE = os.path.join(HERE, "data", "borderless_pins.json")

# the first cycle of page_api's call list: slots 2-7 are line-free grids,
# call i of seed s drawn with idx s * 1_000_003 + i
LINE_FREE = [(3, 4, seed * 1_000_003 + i) for seed in (1, 2, 3)
             for i in range(2, 8)]
THREE_COLUMNS = [(3, 3, 1_000_005)]

_WORD_BOX = re.compile(r"class='ocrx_word'[^>]*title='bbox (\d+) (\d+) (\d+) (\d+);")


def _line_free(img: np.ndarray, hocr: str) -> np.ndarray:
    """The page with the grid rules removed: only the word ink stays."""
    out = np.full_like(img, 255)
    for m in _WORD_BOX.finditer(hocr):
        x1, y1, x2, y2 = (int(v) for v in m.groups())
        out[y1:y2, x1:x2] = img[y1:y2, x1:x2]
    return out


def _pages():
    """name -> (image, hocr or None)."""
    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.kernels import rgb2gray
    from img2table_ray.imgops.png import decode_image
    from img2table_ray.imgops.vp8 import encode_webp_vp8
    from img2table_ray.sources.pages import synth_table_image

    pages = {}
    for n_rows, n_cols, idx in LINE_FREE + THREE_COLUMNS:
        img, hocr = synth_table_image(n_rows, n_cols, idx)
        pages[f"line_free_{n_rows}x{n_cols}_{idx}"] = (_line_free(img, hocr), hocr)
    png = decode_image(fixture_bytes("borderless.png"))
    pages["borderless.png"] = (png, None)
    webp, _ = encode_webp_vp8(np.repeat(rgb2gray(png)[:, :, None], 3, axis=2),
                              qindex=40)
    pages["borderless.webp"] = (decode_image(webp), None)
    return pages


def _tables(img: np.ndarray, hocr) -> list:
    from img2table_ray.extract.content import OCRWords, parse_hocr
    from img2table_ray.extract.document import extract_tables_from_image

    words = OCRWords.from_records(parse_hocr(hocr)) if hocr else None
    out = extract_tables_from_image(img, words=words, implicit_rows=True,
                                    borderless_tables=True)
    return [{"bbox": [t.bbox.x1, t.bbox.y1, t.bbox.x2, t.bbox.y2],
             "shape": [t.nb_rows, t.nb_columns],
             "title": t.title,
             "cells": t.df_values(),
             "boxes": [[[c.bbox.x1, c.bbox.y1, c.bbox.x2, c.bbox.y2] for c in row]
                       for row in t.content.values()]} for t in out.tables]


@pytest.fixture(scope="module")
def pages():
    return _pages()


def _table() -> dict:
    with open(TABLE) as f:
        return json.load(f)


def test_table_covers_every_page(pages):
    assert sorted(_table()) == sorted(pages)


@pytest.mark.parametrize("name", sorted(_table()))
def test_borderless_page_pinned(name, pages):
    assert _tables(*pages[name]) == _table()[name]


def test_pins_cover_tables_and_no_table():
    table = _table()
    assert all(len(table[f"line_free_3x4_{idx}"]) == 1 for _, _, idx in LINE_FREE)
    assert table[f"line_free_3x3_{THREE_COLUMNS[0][2]}"] == []
    assert table["borderless.png"] and table["borderless.webp"]


if __name__ == "__main__":
    pins = {name: _tables(*page) for name, page in _pages().items()}
    with open(TABLE, "w") as f:  # one line per page
        f.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in sorted(pins.items())) + "\n}\n")
    print(f"wrote {len(pins)} pages to {TABLE}")
