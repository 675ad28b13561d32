"""Single-page latency of the table extraction, by layer, in this process.

    python tests/tools/page_bench.py [--runs N] [--pages SET] [--seed S]
    python tests/tools/page_bench.py --parent DIR [--runs N] [--pages SET]

Page sets (``--pages``, default ``fixtures``):

* ``fixtures`` -- ``test.png``, ``dark.png``, ``borderless.png``,
  ``borderless.webp`` and ``blank.png`` (an all-white page; the benchmark
  corpus replicates it): ``decode_image(data)`` then
  ``extract_tables_from_image(img, words=words, implicit_rows=True)``.
  ``test.png`` runs with the words of its hOCR fixture
  (``tesseract_hocr.html``, parsed in the timed call); the other pages run
  without words.  ``borderless.webp`` is a lossy WebP built as the
  benchmark corpus builds its lossy pages: ``borderless.png``'s gray plane
  through ``encode_webp_vp8(qindex=40)``, encoded once at start-up.
* ``page_api`` -- the first two 10-call cycles of the page_api workload
  for ``--seed`` (12 line-free grids, 4 bordered images, both pages of
  two PDFs), called as that workload calls the library (``api.Image`` or
  ``api.PDF`` with ``implicit_rows=True, borderless_tables=True``).
  Results are grouped as line-free, bordered and PDF pages.
* ``crawl_mix`` -- every distinct page of the crawl_mix workload for
  ``--seed``, each one a memo miss through ``PageExtractor._extract``.

The pages come from ``perfbench/gen.py``'s helpers, used read-only.

Layers (each the time inside the named calls, summed per page): decode
(``decode_image`` and the PDF renderer),
threshold (``threshold_dark_areas``), metrics (``compute_img_metrics``),
lines (``detect_lines``); two kernels that run across those layers: ccl
(every connected-component entry point, wrapped where each calling module
imported it) and cells (``identify_cells``); then tables (``get_tables``,
``implicit_content`` and ``merge_consecutive_tables``), borderless
(``TableImage.extract_borderless_tables``), textmask (``identify_text_mask``,
wrapped where ``extract.borderless`` imported it), content (``parse_hocr``,
``OCRWords.from_records`` and ``Table.get_content``) and titles
(``get_title_tables``).  Layers overlap: ccl and cells also count inside
the layers that call them, and borderless holds its own threshold call
and the textmask time.

Without ``--parent`` it prints, per page, the min and median ms per page
and the median ms of each layer over N runs, after one warm-up call.

With ``--parent DIR`` (a ``git archive`` copy of the parent commit), the
parent's ``img2table_ray`` is copied to a temporary directory under the
name ``img2table_ray_parent`` and imported beside this checkout's.  Every
call runs on both sides back to back, the side that goes first alternating
from call to call, so both see the same speed window.  Per group of pages
and per layer it prints the median ms of each side, then over the calls
where the layer ran: the median of the change/parent ratio, its
interquartile range, and in how many calls the change was faster.  A
layer that a side lacks reads 0 and is left out of the ratios.

The warm-up call of every page also compares the two sides' outputs: the
tables' ``canonical_text()``, plus ``char_length``, ``median_line_sep``
and ``n_contours`` where the call returns them (the fixtures), and the
value rows of ``PageExtractor._extract`` for crawl_mix.  A page whose
outputs differ is named, and the tool exits 1 without timing.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import shutil
import statistics
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

FIXTURE_PAGES = ("test.png", "dark.png", "borderless.png", "borderless.webp",
                 "blank.png")
LAYERS = (("threshold", "extract.document", "threshold_dark_areas"),
          ("metrics", "extract.document", "compute_img_metrics"),
          ("lines", "extract.document", "detect_lines"),
          ("tables", "extract.document", "get_tables"),
          ("tables", "extract.document", "implicit_content"),
          ("tables", "extract.document", "merge_consecutive_tables"),
          ("titles", "extract.document", "get_title_tables"),
          ("textmask", "extract.borderless", "identify_text_mask"),
          ("cells", "extract.cells", "identify_cells"),
          ("content", "extract.content", "parse_hocr"),
          ("decode", "imgops.png", "decode_image"))
METHODS = (("borderless", "extract.document", "TableImage",
            "extract_borderless_tables"),
           ("content", "extract.content", "OCRWords", "from_records"),
           ("content", "core.objects", "Table", "get_content"),
           ("decode", "extract.pdf", "PdfiumRenderer", "render"))
CCL_ENTRIES = ("connected_components_with_stats", "connected_components_stats")
CCL_CALLERS = ("threshold", "metrics", "lines", "rotation", "titles",
               "borderless", "borderless.rlsa")
WORDS = {"test.png": "tesseract_hocr.html"}
COLUMNS = ("decode", "threshold", "metrics", "lines", "ccl", "cells",
           "tables", "borderless", "textmask", "content", "titles")


def _timed(fn, spent, layer):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[layer] += time.perf_counter() - t0
    return wrapper


class Side:
    """One copy of the package, its layer functions wrapped to add their
    time to ``spent``.  Names a copy lacks are skipped."""

    def __init__(self, pkg: str) -> None:
        self.pkg = pkg
        self.spent = {column: 0.0 for column in COLUMNS}
        for layer, module, name in LAYERS:
            self._wrap(self.module(module), name, layer)
        for layer, module, cls, name in METHODS:
            owner = getattr(self.module(module), cls)
            # a classmethod is wrapped bound and set back as a staticmethod
            self._wrap(owner, name, layer)
        for caller in CCL_CALLERS:
            for name in CCL_ENTRIES:
                self._wrap(self.module(f"extract.{caller}"), name, "ccl")

    def module(self, name: str):
        return importlib.import_module(f"{self.pkg}.{name}")

    def _wrap(self, owner, name: str, layer: str) -> None:
        if hasattr(owner, name):
            fn = getattr(owner, name)
            wrapped = _timed(fn, self.spent, layer)
            setattr(owner, name, staticmethod(wrapped)
                    if isinstance(owner, type) and getattr(fn, "__self__", None) is owner
                    else wrapped)

    def run(self, page) -> dict:
        """Time one call of ``page``: {"total": s, layer: s, ...}; the
        call's output is kept as ``self.output``."""
        for layer in self.spent:
            self.spent[layer] = 0.0
        t0 = time.perf_counter()
        self.output = page(self)
        return {"total": time.perf_counter() - t0, **self.spent}


def import_parent(parent_dir: str) -> str:
    """Copy ``parent_dir/img2table_ray`` to a temporary directory as
    ``img2table_ray_parent``, with every reference to the package renamed,
    and put it on ``sys.path``."""
    root = tempfile.mkdtemp(prefix="page_bench_parent_")
    dest = os.path.join(root, "img2table_ray_parent")
    shutil.copytree(os.path.join(parent_dir, "img2table_ray"), dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    pattern = re.compile(r"\bimg2table_ray\b")
    for folder, _, files in os.walk(dest):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as f:
                    text = f.read()
                with open(path, "w") as f:
                    f.write(pattern.sub("img2table_ray_parent", text))
    sys.path.insert(0, root)
    return root


# --- page sets: name -> [(group, label, call)], call(side) runs one page ---


def fixture_pages(args) -> list:
    import numpy as np

    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.kernels import rgb2gray
    from img2table_ray.imgops.png import decode_image
    from img2table_ray.imgops.vp8 import encode_webp_vp8

    def call(data, hocr):
        def run(side):
            content = side.module("extract.content")
            words = (content.OCRWords.from_records(content.parse_hocr(hocr))
                     if hocr is not None else None)
            img = side.module("imgops.png").decode_image(data)
            res = side.module("extract.document").extract_tables_from_image(
                img, words=words, implicit_rows=True)
            return (_texts(res.tables), res.char_length, res.median_line_sep,
                    res.n_contours)
        return run

    pages = []
    for page in FIXTURE_PAGES:
        if page == "borderless.webp":
            gray = rgb2gray(decode_image(fixture_bytes("borderless.png")))
            data, _ = encode_webp_vp8(np.repeat(gray[:, :, None], 3, axis=2),
                                      qindex=40)
        else:
            data = fixture_bytes(page)
        hocr = fixture_bytes(WORDS[page]).decode() if page in WORDS else None
        pages.append((page, page, call(data, hocr)))
    return pages


def page_api_pages(args) -> list:
    import pyarrow.parquet as pq

    from perfbench import gen

    def call(kind, data, page, hocr):
        def run(side):
            api = side.module("api")
            if kind == "pdf":
                out = api.PDF(data, pages=[page]).extract_tables(
                    ocr=api.PdfOCR(), implicit_rows=True, borderless_tables=True)
                return {p: _texts(tables) for p, tables in out.items()}
            return _texts(api.Image(data).extract_tables(
                ocr=api.HocrOCR([hocr]) if hocr else None,
                implicit_rows=True, borderless_tables=True))
        return run

    with tempfile.TemporaryDirectory() as tmp:
        gen._gen_page_api(tmp, args.seed, 20)
        calls = pq.read_table(os.path.join(tmp, "calls.parquet")).to_pylist()
    pages = []
    for i, row in enumerate(calls):
        group = ("pdf" if row["kind"] == "pdf" else
                 "bordered" if i % 10 < 2 else "line-free")
        pages.append((f"page_api {group}", f"call {i}",
                      call(row["kind"], row["data"], row["page"], row["hocr"])))
    return pages


def crawl_mix_pages(args) -> list:
    from img2table_ray.extract.pdf import sniff_kind, split_mpng
    from perfbench import gen

    def call(data, hocr, page):
        def run(side):
            return side.extractor._extract(data, hocr, page)
        return run

    fixtures = gen.fixture_docs()
    seen, pages = set(), []
    for i in range(gen.CRAWL_DOCS):
        name, data, doc_pages = gen._crawl_doc(i, args.seed)
        if data is None:
            data, hocr = fixtures[name]
            doc_pages = [(0, hocr, None)]
        # a page row holds one MPNG page's bytes, as explode_pages slices them
        mpng = split_mpng(data) if sniff_kind(data[:16]) == "mpng" else None
        for page, hocr, _ in doc_pages:
            row = (mpng[page], 0) if mpng else (data, page)
            if row not in seen:
                seen.add(row)
                pages.append(("crawl_mix misses", f"doc {i} page {page}",
                              call(row[0], hocr, row[1])))
    return pages


def _texts(tables) -> list:
    return [t.canonical_text() for t in tables]


PAGE_SETS = {"fixtures": fixture_pages, "page_api": page_api_pages,
             "crawl_mix": crawl_mix_pages}


def _ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def single(side: Side, pages: list, runs: int) -> None:
    for _, label, page in pages:
        side.run(page)
        samples = [side.run(page) for _ in range(runs)]
        totals = [s["total"] for s in samples]
        parts = "  ".join(f"{layer} {_ms([s[layer] for s in samples]):7.1f}"
                          for layer in COLUMNS)
        print(f"{label:18s} min {1e3 * min(totals):7.1f}  "
              f"median {_ms(totals):7.1f} ms/page  ({parts})", flush=True)


def paired(parent: Side, change: Side, pages: list, runs: int) -> bool:
    """Time ``pages`` on both sides; False if their outputs differ."""
    differ = []
    for _, label, page in pages:  # warm-up, and the outputs compared
        parent.run(page)
        change.run(page)
        if change.output != parent.output:
            differ.append(label)
    if differ:
        print(f"outputs differ from the parent's on {len(differ)} of "
              f"{len(pages)} pages: {', '.join(differ)}", flush=True)
        return False
    print(f"outputs equal on all {len(pages)} pages", flush=True)
    samples = {}  # group -> [(parent sample, change sample)]
    k = 0
    for _ in range(runs):
        for group, _, page in pages:
            first, second = (parent, change) if k % 2 == 0 else (change, parent)
            a, b = first.run(page), second.run(page)
            samples.setdefault(group, []).append((a, b) if k % 2 == 0 else (b, a))
            k += 1
    for group, pairs in samples.items():
        print(f"\n{group}: {len(pairs)} calls per side, alternating")
        print(f"{'layer':11s} {'parent ms':>10s} {'change ms':>10s} "
              f"{'ratio':>7s} {'IQR':>13s} {'wins':>9s}")
        for layer in ("total", *COLUMNS):
            p = [a[layer] for a, _ in pairs]
            c = [b[layer] for _, b in pairs]
            ratios = [y / x for x, y in zip(p, c) if x > 0 and y > 0]
            if not ratios:
                continue
            q1, _, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                         else ratios * 3)
            wins = sum(y < x for x, y in zip(p, c) if x > 0 and y > 0)
            print(f"{layer:11s} {_ms(p):10.2f} {_ms(c):10.2f} "
                  f"{statistics.median(ratios):7.3f} "
                  f"{q1:6.3f}-{q3:6.3f} {wins:4d}/{len(ratios):<4d}", flush=True)
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--pages", choices=sorted(PAGE_SETS), default="fixtures")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--parent", help="a checkout of the parent commit")
    args = ap.parse_args()

    sys.path.insert(0, REPO)
    pages = PAGE_SETS[args.pages](args)
    if not args.parent:
        single(_side("img2table_ray", args), pages, args.runs)
        return 0
    root = import_parent(args.parent)
    try:
        same = paired(_side("img2table_ray_parent", args),
                      _side("img2table_ray", args), pages, args.runs)
    finally:
        shutil.rmtree(root)
    return 0 if same else 1


def _side(pkg: str, args) -> Side:
    side = Side(pkg)
    if args.pages == "crawl_mix":
        side.extractor = side.module("stages.extractor").PageExtractor()
    return side


if __name__ == "__main__":
    sys.exit(main())
