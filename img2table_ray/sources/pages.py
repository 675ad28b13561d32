"""Deterministic synthesis of the Common-Crawl-style ``pages`` Parquet table
(schema mandated by BASELINE.json input_hint):

    url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string

``html`` carries PNG bytes: either a reference fixture document (replicated
across urls, cycled deterministically) or a generated synthetic table image
with known grid + word layout.  A ``words`` sidecar parquet (url, hocr)
carries the word-provider input (stands in for the external OCR service the
reference integrates; joined back by url in the pipeline).

Everything is seed-free deterministic: content depends only on the row
index.  No wall clock, no RNG.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from img2table_ray.extract.pdf import encode_mpng
from img2table_ray.fixtures import fixture_path
from img2table_ray.imgops.png import encode_png

REF_FIXTURES = {
    "test": fixture_path("test.png"),
    "dark": fixture_path("dark.png"),
    "blank": fixture_path("blank.png"),
}
MOCK_HOCR = fixture_path("tesseract_hocr.html")

_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc).replace(tzinfo=None)


# ---- synthetic table-image generator -----------------------------------

def synth_table_image(n_rows: int, n_cols: int, idx: int):
    """Draw a bordered table grid with fake word blocks; return (gray image,
    hOCR string with one word per cell).  Deterministic in (n_rows, n_cols,
    idx); margins vary with idx so every row is a UNIQUE image (keeps the
    extractor's memo-cache honest in benchmarks)."""
    cell_w, cell_h = 90, 40
    mx = 30 + (idx * 7) % 23
    my = 30 + (idx * 11) % 19
    width = mx * 2 + cell_w * n_cols
    height = my * 2 + cell_h * n_rows
    img = np.full((height, width), 255, dtype=np.uint8)

    x0, y0 = mx, my
    # grid lines (2px)
    for r in range(n_rows + 1):
        y = y0 + r * cell_h
        img[y : y + 2, x0 : x0 + n_cols * cell_w + 2] = 0
    for c in range(n_cols + 1):
        x = x0 + c * cell_w
        img[y0 : y0 + n_rows * cell_h + 2, x : x + 2] = 0

    # fake words: small black blocks, 2 per cell (so char metrics resolve)
    words = []
    for r in range(n_rows):
        for c in range(n_cols):
            wx = x0 + c * cell_w + 10
            wy = y0 + r * cell_h + 12
            # "character" blocks per word: 5x14 (roundness < 0.7 so the
            # dot-removal kernel keeps them), 3px gaps
            for k in range(3):
                bx = wx + k * 8
                img[wy : wy + 14, bx : bx + 5] = 0
            value = f"r{r}c{c}v{(idx + r * n_cols + c) % 97}"
            words.append((f"word_{r}_{c}", value, wx, wy, wx + 21, wy + 14))

    # hOCR document mirroring tesseract's structure
    lines = [
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
        "<html><body>",
        f"<div class='ocr_page' id='page_1' title='bbox 0 0 {width} {height}'>",
    ]
    for wid, value, x1, y1, x2, y2 in words:
        lines.append(
            f"<span class='ocr_line' id='line_{wid}' title='bbox {x1} {y1} {x2} {y2}'>"
            f"<span class='ocrx_word' id='{wid}' title='bbox {x1} {y1} {x2} {y2}; "
            f"x_wconf 95'>{value}</span></span>"
        )
    lines.append("</div></body></html>")
    return img, "\n".join(lines)


_SYNTH_SHAPES = [(3, 3), (4, 2), (5, 4), (2, 5), (6, 3)]


def synth_table_pdf(n_rows: int, n_cols: int, idx: int) -> bytes:
    """TWO-page vector PDF, one bordered table per page, with a real
    native text layer (no hOCR sidecar — the pipeline's extractor falls
    back to the PDF text layer).  Geometry mirrors
    :func:`synth_table_image` in device pixels: 1 pt = 200/72 px, so the
    same px sizes are authored at ``px * 0.36`` pt.  Deterministic in
    (n_rows, n_cols, idx).  Exercises, at bench scale: PDF page-count
    explode, the vector rasterizer, and text-layer word extraction."""
    S = 0.36  # px -> pt at 200 DPI
    cell_w, cell_h = 90 * S, 40 * S
    lw = 2 * S
    mx = (30 + (idx * 7) % 23) * S
    my = (30 + (idx * 11) % 19) * S
    w_pt = mx * 2 + cell_w * n_cols
    h_pt = my * 2 + cell_h * n_rows
    fs = 6.0  # Courier @600/1000: 6 chars = 21.6 pt = 60 px per word

    def page_content(p: int) -> bytes:
        out = ["0 0 0 rg"]
        x0, y_top = mx, h_pt - my
        # grid (matches the PNG generator's 2px rules)
        for r in range(n_rows + 1):
            y = y_top - r * cell_h - lw
            out.append(f"{x0:.2f} {y:.2f} {n_cols * cell_w + lw:.2f} {lw:.2f} re f")
        for c in range(n_cols + 1):
            x = x0 + c * cell_w
            out.append(f"{x:.2f} {y_top - n_rows * cell_h - lw:.2f} {lw:.2f} "
                       f"{n_rows * cell_h + lw:.2f} re f")
        for r in range(n_rows):
            for c in range(n_cols):
                tx = x0 + c * cell_w + 10 * S
                ty = y_top - r * cell_h - 26 * S  # baseline inside the cell
                val = f"r{r}c{c}v{(idx + p * 31 + r * n_cols + c) % 97}"
                out.append(f"BT /F1 {fs} Tf {tx:.2f} {ty:.2f} Td ({val}) Tj ET")
        return " ".join(out).encode()

    mb = f"[0 0 {w_pt:.2f} {h_pt:.2f}]".encode()
    res = b"<< /Font << /F1 8 0 R >> >>"
    widths = b"[" + b" ".join([b"600"] * 95) + b"]"
    c0, c1 = page_content(0), page_content(1)
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R 4 0 R] /Count 2 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox " + mb
            + b" /Contents 5 0 R /Resources " + res + b" >>"),
        4: (b"<< /Type /Page /Parent 2 0 R /MediaBox " + mb
            + b" /Contents 6 0 R /Resources " + res + b" >>"),
        5: (b"<< /Length " + str(len(c0)).encode() + b" >>\nstream\n" + c0
            + b"\nendstream"),
        6: (b"<< /Length " + str(len(c1)).encode() + b" >>\nstream\n" + c1
            + b"\nendstream"),
        7: (b"<< /Type /FontDescriptor /FontName /Courier /Flags 33"
            b" /FontBBox [-23 -250 715 805] /ItalicAngle 0 /Ascent 750"
            b" /Descent -250 /CapHeight 562 /StemV 51 >>"),
        8: (b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier"
            b" /FirstChar 32 /LastChar 126 /Widths " + widths
            + b" /FontDescriptor 7 0 R >>"),
    }
    parts = [b"%PDF-1.4"]
    for num in sorted(objs):
        parts.append(b"%d 0 obj\n" % num + objs[num] + b"\nendobj")
    parts.append(b"%%EOF")
    return b"\n".join(parts)


def generate_pages(out_dir: str, n_rows: int, include_fixtures: bool = True,
                   rows_per_file: int = 384) -> str:
    """Write pages/ + words/ parquet under out_dir; returns out_dir.

    Row i: i % 8 in {0,1,2} -> a reference fixture (replicated; exercises
    the memo-cache path); i % 16 == 7 -> a heavy MULTI-PAGE document (MPNG
    container, 3 unique pages — exercises the 1-doc -> N-page-rows explode
    and the size-aware skew routing); i % 16 == 15 -> a TWO-page native
    vector PDF (no hOCR: per-page explode by page count, the 200-DPI
    vector rasterizer, and text-layer words all run at bench scale);
    i % 16 == 11 -> a JPEG page, alternating baseline and ARITHMETIC-coded
    (SOF9 QM coder; web crawls are mostly JPEG and cv2/libjpeg decodes
    both entropy layers); i % 16 == 12 -> TIFF
    (alternating LZW+predictor strips and bilevel CCITT fax scans, G4
    MMR / G3 2-D); i % 16 == 13 -> GIF; i % 16 == 14 -> WebP, alternating
    lossless (VP8L, subtract-green + LZ77) and LOSSY (VP8 keyframe —
    crawl WebP is mostly lossy); else a UNIQUE synthetic grid PNG.  A
    minority slice gets lang='de' for predicate-pushdown tests."""
    # Re-encode fixtures with filter-0 rows: identical pixels, but decode is
    # vectorized (the originals are Paeth-heavy -> ~1.5s/decode in pure
    # Python, paid once per actor otherwise).
    from img2table_ray.imgops.png import decode_png

    fixture_bytes = (
        {k: encode_png(decode_png(open(p, "rb").read())) for k, p in REF_FIXTURES.items()}
        if include_fixtures else {}
    )
    mock_hocr = open(MOCK_HOCR).read() if include_fixtures else None
    fixtures: list[tuple[str, bytes, str | None]] = []
    for name, b in fixture_bytes.items():
        fixtures.append((name, b, mock_hocr if name == "test" else None))

    def doc_for(i: int):
        """Returns (name, html bytes, [(page, hocr), ...])."""
        if fixtures and i % 8 < len(fixtures):
            name, b, hocr = fixtures[i % 8]
            return (name, b, [(0, hocr)] if hocr else [])
        if i % 16 == 7:
            pages_png, hocrs = [], []
            for k in range(3):
                shape = _SYNTH_SHAPES[(i + k) % len(_SYNTH_SHAPES)]
                g, hocr = synth_table_image(shape[0], shape[1], i + k * 1000003)
                pages_png.append(encode_png(g))
                hocrs.append((k, hocr))
            return ("multi", encode_mpng(pages_png), hocrs)
        shape = _SYNTH_SHAPES[i % len(_SYNTH_SHAPES)]
        if i % 16 == 15:
            # native two-page vector PDF: no hOCR sidecar — the pipeline
            # explodes by page count and reads the PDF's own text layer
            return (f"pdf{shape[0]}x{shape[1]}",
                    synth_table_pdf(shape[0], shape[1], i), [])
        g, hocr = synth_table_image(shape[0], shape[1], i)
        if i % 16 == 11:
            from img2table_ray.imgops.jpeg import encode_jpeg

            if (i // 16) % 2:
                # arithmetic-coded JPEG (SOF9) — the remaining real-web
                # entropy layer (imgops/jpega.py; libjpeg-interop pinned)
                return (f"jpega{shape[0]}x{shape[1]}",
                        encode_jpeg(g, quality=95, arithmetic=True),
                        [(0, hocr)])
            return (f"jpeg{shape[0]}x{shape[1]}", encode_jpeg(g, quality=95),
                    [(0, hocr)])
        if i % 16 == 12:
            from img2table_ray.imgops.tiff import encode_tiff, encode_tiff_g4

            if (i // 16) % 2:
                # bilevel fax scan (G4 MMR / G3 2-D alternating) — the
                # shape scanned-document TIFFs in crawls actually take
                bits = (g < 128).astype(np.uint8)
                comp = 4 if (i // 32) % 2 else 3
                return (f"fax{shape[0]}x{shape[1]}",
                        encode_tiff_g4(bits, compression=comp),
                        [(0, hocr)])
            return (f"tiff{shape[0]}x{shape[1]}",
                    encode_tiff(g, compression="lzw", predictor=True,
                                rows_per_strip=64),
                    [(0, hocr)])
        if i % 16 == 13:
            from img2table_ray.imgops.gif import encode_gif

            return (f"gif{shape[0]}x{shape[1]}", encode_gif(g), [(0, hocr)])
        if i % 16 == 14:
            if (i // 16) % 2:
                # lossy WebP (VP8 keyframe) — crawl WebP is mostly lossy;
                # small grid keeps the pure-Python encode affordable at
                # corpus-generation time (decode is what the bench times)
                from img2table_ray.imgops.vp8 import encode_webp_vp8

                g2, hocr2 = synth_table_image(3, 3, i)
                data, _recon = encode_webp_vp8(g2, qindex=40)
                return ("webplossy3x3", data, [(0, hocr2)])
            from img2table_ray.imgops.webp import encode_webp_lossless

            return (f"webp{shape[0]}x{shape[1]}",
                    encode_webp_lossless(g, subtract_green=True,
                                         run_lz77=True),
                    [(0, hocr)])
        return (f"synth{shape[0]}x{shape[1]}", encode_png(g), [(0, hocr)])

    # clear any previous layout (a sharding change must not leave stale
    # part files behind)
    import shutil

    for sub in ("pages", "words"):
        shutil.rmtree(f"{out_dir}/{sub}", ignore_errors=True)
        os.makedirs(f"{out_dir}/{sub}", exist_ok=True)

    file_idx = 0
    for start in range(0, n_rows, rows_per_file):
        stop = min(start + rows_per_file, n_rows)
        urls, ts, html, text, lang = [], [], [], [], []
        wurls, wpages, hocrs = [], [], []
        for i in range(start, stop):
            name, b, page_hocrs = doc_for(i)
            url = f"https://example.org/{name}/{i:08d}"
            urls.append(url)
            ts.append(_EPOCH + np.timedelta64(i, "s").astype("timedelta64[us]").item())
            html.append(b)
            text.append(f"pre-extracted text {i}")
            lang.append("de" if i % 17 == 0 else "en")
            for page, hocr in page_hocrs:
                wurls.append(url)
                wpages.append(page)
                hocrs.append(hocr)
        pages = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(ts, pa.timestamp("us")),
                "html": pa.array(html, pa.binary()),
                "text": pa.array(text, pa.string()),
                "lang": pa.array(lang, pa.string()),
            }
        )
        # small row groups: Ray Data splits parquet reads at ROW-GROUP
        # granularity, and the downstream fused map chain inherits the
        # read's block count — one row group per shard would cap the whole
        # extraction at n_shards-way parallelism (measured: 16 blocks left
        # half of a 32-CPU session idle).  48 rows/group -> 8 blocks per
        # 384-row shard, with shard files still the unit of resume.
        pq.write_table(pages, f"{out_dir}/pages/part-{file_idx:05d}.parquet",
                       row_group_size=48)
        words = pa.table(
            {"url": pa.array(wurls, pa.string()),
             "page": pa.array(wpages, pa.int32()),
             "hocr": pa.array(hocrs, pa.string())}
        )
        pq.write_table(words, f"{out_dir}/words/part-{file_idx:05d}.parquet")
        file_idx += 1
    return out_dir


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--rows", type=int, default=64)
    ap.add_argument("--no-fixtures", action="store_true")
    args = ap.parse_args()
    generate_pages(args.out, args.rows, include_fixtures=not args.no_fixtures)
    print(f"wrote {args.rows} rows under {args.out}")
