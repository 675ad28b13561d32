"""Seeded input generator for the extraction benchmark.

Each workload's inputs are a pure function of ``(workload, seed)``.  They are
built with the program's public encoders and the ``sources.pages`` drawing
helpers, written once under ``<work>/inputs/<workload>-<seed>/`` and reused,
and never timed.  The program sees only what is written here:

* ``pages/*.parquet`` and ``words/*.parquet`` -- the pages table and its
  hOCR sidecar, for the Ray workloads;
* ``calls.parquet`` -- one library call per row, for ``page_api``;
* ``truth.json`` -- per ``url|page`` the expected tables, each as
  ``[n_rows, n_cols, [[cell text, ...], ...]]``.

Truth for synthetic pages comes from the generator's own layout (the hOCR it
drew, or the text it put in the PDF).  The replicated reference fixtures
have no generator truth; their expected tables are the single-process
library output (``img2table_ray.api``), computed once per work directory.
"""

from __future__ import annotations

import json
import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORKLOADS = ("crawl_mix", "tiny_pages", "page_api")

CRAWL_DOCS = 128
TINY_SHARDS = 8
TINY_ROWS_PER_SHARD = 256
TINY_DISTINCT_PER_SHARD = 16
API_PAGES = 200

# (n_rows, n_cols) of the unique grids.  Each format slot of the 16-row
# cycle recurs CRAWL_DOCS / 16 = 8 times and moves one step along the shape
# list, from a seed offset, every 32 rows.  The slots that alternate between
# two formats row-cycle by row-cycle (JPEG, TIFF, WebP) thus give each format
# every shape once, so every seed draws each shape equally often per format
# and the per-run cost stays level.
CRAWL_SHAPES = [(3, 3), (4, 2), (5, 4), (2, 5)]
# Line-free grids keep 4 or more columns: with 3 columns the borderless
# detector returned no table in every case tried (see README).
API_BORDERED = [(2, 2), (3, 3), (4, 2), (2, 3)]
API_LINE_FREE = (3, 4)

_WORD_RE = re.compile(
    r"class='ocrx_word' id='word_(\d+)_(\d+)' title='bbox (\d+) (\d+) (\d+) "
    r"(\d+);[^']*'>([^<]*)<")


def grid_values(hocr: str, n_rows: int, n_cols: int) -> list[list[str]]:
    """Cell text of a grid drawn by ``synth_table_image``, read back from
    the hOCR it returned (one word per cell)."""
    vals = [[""] * n_cols for _ in range(n_rows)]
    for m in _WORD_RE.finditer(hocr):
        vals[int(m.group(1))][int(m.group(2))] = m.group(7)
    return vals


def pdf_values(n_rows: int, n_cols: int, idx: int, page: int):
    """Cell text ``synth_table_pdf`` writes on ``page`` of document ``idx``."""
    return [[f"r{r}c{c}v{(idx + page * 31 + r * n_cols + c) % 97}"
             for c in range(n_cols)] for r in range(n_rows)]


def line_free(img: np.ndarray, hocr: str) -> np.ndarray:
    """The same page with the grid rules removed: only the word ink stays."""
    out = np.full_like(img, 255)
    for m in _WORD_RE.finditer(hocr):
        x1, y1, x2, y2 = (int(m.group(k)) for k in range(3, 7))
        out[y1:y2, x1:x2] = img[y1:y2, x1:x2]
    return out


def specks_page(rng: np.random.Generator) -> np.ndarray:
    """A small blank page with a few dark specks and no table."""
    h, w = int(rng.integers(120, 160)), int(rng.integers(160, 220))
    img = np.full((h, w), 255, dtype=np.uint8)
    for _ in range(int(rng.integers(3, 7))):
        y, x = int(rng.integers(4, h - 6)), int(rng.integers(4, w - 6))
        img[y:y + 2, x:x + 2] = 0
    return img


def _grid(shape, idx):
    from img2table_ray.sources.pages import synth_table_image

    g, hocr = synth_table_image(shape[0], shape[1], idx)
    return g, hocr, [[shape[0], shape[1], grid_values(hocr, *shape)]]


def encode_as(fmt: str, g: np.ndarray) -> bytes:
    """Encode a gray page in one of the crawl formats."""
    if fmt == "png":
        from img2table_ray.imgops.png import encode_png

        return encode_png(g)
    if fmt in ("jpeg", "jpega"):
        from img2table_ray.imgops.jpeg import encode_jpeg

        return encode_jpeg(g, quality=95, arithmetic=fmt == "jpega")
    if fmt == "tiff":
        from img2table_ray.imgops.tiff import encode_tiff

        return encode_tiff(g, compression="lzw", predictor=True,
                           rows_per_strip=64)
    if fmt in ("fax3", "fax4"):
        from img2table_ray.imgops.tiff import encode_tiff_g4

        return encode_tiff_g4((g < 128).astype(np.uint8),
                              compression=int(fmt[-1]))
    if fmt == "gif":
        from img2table_ray.imgops.gif import encode_gif

        return encode_gif(g)
    if fmt == "webp":
        from img2table_ray.imgops.webp import encode_webp_lossless

        return encode_webp_lossless(g, subtract_green=True, run_lz77=True)
    if fmt == "webplossy":
        from img2table_ray.imgops.vp8 import encode_webp_vp8

        data, _ = encode_webp_vp8(np.repeat(g[:, :, None], 3, axis=2),
                                  qindex=40)
        return data
    raise ValueError(f"unknown format {fmt}")


def _crawl_doc(i: int, seed: int):
    """Row ``i`` of the crawl mix, following ``sources.pages.generate_pages``:
    returns (name, bytes, [(page, hocr or None, truth or None), ...]).
    ``truth None`` marks a fixture page checked against the library."""
    from img2table_ray.extract.pdf import encode_mpng
    from img2table_ray.imgops.png import encode_png
    from img2table_ray.sources.pages import synth_table_pdf

    if i % 8 < 3:
        return (FIXTURES[i % 8], None, [(0, None, None)])
    idx = seed * 1_000_003 + i
    turn = i // 32 + i % 16 + seed
    shape = CRAWL_SHAPES[turn % len(CRAWL_SHAPES)]
    if i % 16 == 7:
        pages_png, pages = [], []
        for k in range(3):
            sh = CRAWL_SHAPES[(turn + k) % len(CRAWL_SHAPES)]
            g, hocr, truth = _grid(sh, idx + k * 7919)
            pages_png.append(encode_png(g))
            pages.append((k, hocr, truth))
        return ("mpng", encode_mpng(pages_png), pages)
    if i % 16 == 15:
        return ("pdf", synth_table_pdf(shape[0], shape[1], idx),
                [(p, None, [[shape[0], shape[1],
                             pdf_values(shape[0], shape[1], idx, p)]])
                 for p in range(2)])
    alt = (i // 16) % 2
    fmt = {11: ("jpeg", "jpega")[alt], 12: ("tiff", ("fax3", "fax4")[(i // 32) % 2])[alt],
           13: "gif", 14: ("webp", "webplossy")[alt]}.get(i % 16, "png")
    if fmt == "webplossy":
        shape = (3, 3)  # pure-Python VP8 encode: keep the page small
    g, hocr, truth = _grid(shape, idx)
    return (fmt, encode_as(fmt, g), [(0, hocr, truth)])


FIXTURES = ("test", "dark", "blank")


def fixture_docs() -> dict:
    """name -> (bytes, hocr or None): the replicated reference fixtures,
    re-encoded with filter-0 rows exactly as ``generate_pages`` does."""
    from img2table_ray.imgops.png import decode_png, encode_png
    from img2table_ray.sources.pages import MOCK_HOCR, REF_FIXTURES

    with open(MOCK_HOCR) as f:
        hocr = f.read()
    out = {}
    for name in FIXTURES:
        with open(REF_FIXTURES[name], "rb") as f:
            out[name] = (encode_png(decode_png(f.read())),
                         hocr if name == "test" else None)
    return out


def library_tables(data: bytes, hocr) -> list:
    """Single-process library output in truth form, with the options the
    extraction job uses."""
    from img2table_ray.api import HocrOCR, Image

    tables = Image(data).extract_tables(
        ocr=HocrOCR([hocr]) if hocr else None, implicit_rows=True)
    return [[t.nb_rows, t.nb_columns, t.df_values()] for t in tables]


def _fixture_truth(work: str) -> dict:
    path = os.path.join(work, "inputs", "fixtures.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    truth = {name: library_tables(b, h)
             for name, (b, h) in fixture_docs().items()}
    _atomic_json(path, truth)
    return truth


def _atomic_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _write_pages(out: str, shards: list[list[tuple]]) -> None:
    """shards: lists of (url, bytes, [(page, hocr), ...])."""
    os.makedirs(os.path.join(out, "pages"))
    os.makedirs(os.path.join(out, "words"))
    for s, rows in enumerate(shards):
        wurls, wpages, hocrs = [], [], []
        for url, _, page_hocrs in rows:
            for page, hocr in page_hocrs:
                if hocr is not None:
                    wurls.append(url)
                    wpages.append(page)
                    hocrs.append(hocr)
        pages = pa.table({
            "url": pa.array([r[0] for r in rows], pa.string()),
            "html": pa.array([r[1] for r in rows], pa.binary()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        })
        pq.write_table(pages, os.path.join(out, "pages",
                                           f"part-{s:05d}.parquet"))
        pq.write_table(
            pa.table({"url": pa.array(wurls, pa.string()),
                      "page": pa.array(wpages, pa.int32()),
                      "hocr": pa.array(hocrs, pa.string())}),
            os.path.join(out, "words", f"part-{s:05d}.parquet"))


def _gen_crawl_mix(out: str, seed: int, work: str, n_docs: int) -> dict:
    fixtures = fixture_docs()
    fx_truth = _fixture_truth(work)
    rows, truth = [], {}
    for i in range(n_docs):
        name, data, pages = _crawl_doc(i, seed)
        if data is None:
            data, hocr = fixtures[name]
            pages = [(0, hocr, fx_truth[name])]
        url = f"https://example.org/{seed}/{name}/{i:06d}"
        rows.append((url, data, [(p, h) for p, h, _ in pages]))
        for p, _, t in pages:
            truth[f"{url}|{p}"] = t
    _write_pages(out, [rows])
    return truth


def _gen_tiny_pages(out: str, seed: int, n_shards: int, rows_per_shard: int,
                    distinct_per_shard: int) -> dict:
    """Each shard repeats its own pool of distinct documents, so the number
    of extractions per job does not depend on which worker runs which
    shard.  A quarter of each pool is blank pages with specks, the rest
    2x2 grids."""
    from img2table_ray.imgops.png import encode_png

    rng = np.random.default_rng([seed, 2])
    shards, truth = [], {}
    for s in range(n_shards):
        pool = []
        for d in range(distinct_per_shard):
            if d % 4 == 3:
                pool.append((encode_png(specks_page(rng)), None, []))
            else:
                g, hocr, t = _grid((2, 2), seed * 1_000_003 + s * 1000 + d)
                pool.append((encode_png(g), hocr, t))
        picks = list(range(distinct_per_shard)) + rng.integers(
            0, distinct_per_shard, rows_per_shard - distinct_per_shard).tolist()
        rows = []
        for r, d in enumerate(picks):
            data, hocr, t = pool[d]
            url = f"https://example.org/{seed}/tiny/{s}/{r:05d}"
            rows.append((url, data, [(0, hocr)] if hocr else []))
            truth[f"{url}|0"] = t
        shards.append(rows)
    _write_pages(out, shards)
    return truth


def _gen_page_api(out: str, seed: int, n_pages: int) -> dict:
    """One library call per row: ``kind`` is ``image`` (with hOCR) or
    ``pdf`` (``page`` selects the page, words from the text layer).

    Each cycle of 10 calls is a bordered PNG and a bordered JPEG grid, six
    line-free grids of one shape, and both pages of a 2-page PDF.  The
    line-free pages are the slowest kind, so the median and the 95th
    percentile both fall inside that one group instead of on the edge
    between two kinds, where a small shift moves a percentile a lot."""
    from img2table_ray.sources.pages import synth_table_pdf

    kinds, datas, pages, hocrs, urls, truth = [], [], [], [], [], {}
    pdf = None
    for i in range(n_pages):
        idx = seed * 1_000_003 + i
        slot = i % 10
        # a slot's shape moves on by one per cycle: every seed draws each
        # bordered shape equally often, as 20 cycles divide by 4
        turn = i // 10 + seed
        url = f"https://example.org/{seed}/api/{i:05d}"
        if slot >= 8:
            if slot == 8:
                shape = API_BORDERED[turn % len(API_BORDERED)]
                pdf = (synth_table_pdf(shape[0], shape[1], idx), shape, idx)
            data, shape, pidx = pdf
            page = slot - 8
            kinds.append("pdf")
            datas.append(data)
            pages.append(page)
            hocrs.append(None)
            t = [[shape[0], shape[1], pdf_values(shape[0], shape[1], pidx, page)]]
        elif slot >= 2:
            g, hocr, t = _grid(API_LINE_FREE, idx)
            kinds.append("image")
            datas.append(encode_as("png", line_free(g, hocr)))
            pages.append(0)
            hocrs.append(hocr)
        else:
            g, hocr, t = _grid(API_BORDERED[(turn + 2 * slot) % len(API_BORDERED)], idx)
            kinds.append("image")
            datas.append(encode_as(("png", "jpeg")[slot], g))
            pages.append(0)
            hocrs.append(hocr)
        urls.append(url)
        truth[f"{url}|{pages[-1]}"] = t
    pq.write_table(pa.table({
        "url": pa.array(urls, pa.string()),
        "kind": pa.array(kinds, pa.string()),
        "data": pa.array(datas, pa.binary()),
        "page": pa.array(pages, pa.int32()),
        "hocr": pa.array(hocrs, pa.string()),
    }), os.path.join(out, "calls.parquet"))
    return truth


WARM_FORMATS = ("png", "jpeg", "jpega", "tiff", "fax3", "fax4", "gif",
                "webp", "webplossy")


def _gen_warm(out: str, work: str) -> dict:
    """A fixed small input that touches every decoder: one tiny grid per
    image format, a 2-page MPNG and a 2-page PDF, plus the three reference
    fixtures, the largest pages any workload has, so the heap has grown
    before the timed phase."""
    from img2table_ray.extract.pdf import encode_mpng
    from img2table_ray.imgops.png import encode_png
    from img2table_ray.sources.pages import synth_table_pdf

    rows, truth = [], {}
    for k, fmt in enumerate(WARM_FORMATS):
        g, hocr, t = _grid((2, 2), 900_000 + k)
        url = f"https://example.org/warm/{fmt}"
        rows.append((url, encode_as(fmt, g), [(0, hocr)]))
        truth[f"{url}|0"] = t
    mp = [_grid((2, 2), 900_100 + k) for k in range(2)]
    url = "https://example.org/warm/mpng"
    rows.append((url, encode_mpng([encode_png(g) for g, _, _ in mp]),
                 [(k, h) for k, (_, h, _) in enumerate(mp)]))
    for k, (_, _, t) in enumerate(mp):
        truth[f"{url}|{k}"] = t
    url = "https://example.org/warm/pdf"
    rows.append((url, synth_table_pdf(2, 2, 900_200), []))
    for p in range(2):
        truth[f"{url}|{p}"] = [[2, 2, pdf_values(2, 2, 900_200, p)]]
    fx_truth = _fixture_truth(work)
    for name, (data, hocr) in fixture_docs().items():
        url = f"https://example.org/warm/{name}"
        rows.append((url, data, [(0, hocr)]))
        truth[f"{url}|0"] = fx_truth[name]
    _write_pages(out, [rows])
    return truth


def ensure_inputs(work: str, workload: str, seed: int,
                  scale: float = 1.0) -> str:
    """Directory holding the inputs of (workload, seed); generated once.
    ``scale`` < 1 shrinks the inputs for self-tests."""
    tag = "warm" if workload == "warm" else f"{workload}-{seed}"
    if scale != 1.0:
        tag += f"-x{scale:g}"
    out = os.path.join(work, "inputs", tag)
    if os.path.exists(os.path.join(out, "truth.json")):
        return out
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if workload == "warm":
        truth = _gen_warm(tmp, work)
    elif workload == "crawl_mix":
        truth = _gen_crawl_mix(tmp, seed, work, max(16, int(CRAWL_DOCS * scale)))
    elif workload == "tiny_pages":
        truth = _gen_tiny_pages(tmp, seed, TINY_SHARDS,
                                max(8, int(TINY_ROWS_PER_SHARD * scale)),
                                max(4, int(TINY_DISTINCT_PER_SHARD * scale)))
    elif workload == "page_api":
        truth = _gen_page_api(tmp, seed, max(20, int(API_PAGES * scale)))
    else:
        raise ValueError(f"unknown workload {workload}")
    _atomic_json(os.path.join(tmp, "truth.json"), truth)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out
