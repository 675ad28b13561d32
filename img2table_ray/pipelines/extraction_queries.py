"""queries() entries for the extraction engine (rows-only driver checks —
image extraction is not SQL-expressible).

Each callable takes a testdata sf_dir, derives the deterministic pages
corpus for that scale, and returns a lazy Ray Dataset.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from img2table_ray.pipelines.corpus import corpus_for
from img2table_ray.pipelines.extraction import extract_pages
from img2table_ray.stages.extractor import page_rows
from img2table_ray.stages.util import PayloadStage


def extract_tables(sf_dir: str) -> ray.data.Dataset:
    """Full extraction pipeline output (one row per extracted table)."""
    corpus = corpus_for(sf_dir)
    return extract_pages(corpus, words_dir=f"{corpus}/words")


def extract_tables_joined(sf_dir: str) -> ray.data.Dataset:
    """Extraction with the PARTITIONED WORDS SERVICE (``join_words=
    "service"``) — the 100 TB design for a words side too big to
    broadcast: only the words shuffle (into K shard actors); pages, whose
    rows carry the full document bytes, never move
    (state/words_service.py).  Same rows as extract_tables (pinned in
    tests/test_pipeline.py::test_words_paths_all_match_broadcast); timed
    separately in bench.py.  Measured sf0.1 @32: service 21.8 s vs
    broadcast 17.9-24.5 s (window noise)."""
    corpus = corpus_for(sf_dir)
    return extract_pages(corpus, words_dir=f"{corpus}/words",
                         join_words="service")


def extract_tables_en(sf_dir: str) -> ray.data.Dataset:
    """Same with a lang pushdown filter (projection + predicate demo)."""
    corpus = corpus_for(sf_dir)
    return extract_pages(corpus, words_dir=f"{corpus}/words", lang_filter="en")


def _metrics(ti) -> tuple:
    nc = len(ti.contours) if ti.contours is not None else -1
    return ti.char_length, ti.median_line_sep, nc


def _lines(ti) -> tuple:
    if ti.char_length is None:
        return 0, 0
    h_lines, v_lines = ti.ruling_lines()
    return len(h_lines), len(v_lines)


# summary -> (per-page TableImage reader, value columns, error sentinel)
_SUMMARIES = {
    "metrics": (_metrics, {"char_length": pa.float64(),
                           "median_line_sep": pa.float64(),
                           "n_contours": pa.int64()}, (None, None, -2)),
    "lines": (_lines, {"n_h_lines": pa.int64(), "n_v_lines": pa.int64()},
              (-1, -1)),
}


class _PageSummaryStage(PayloadStage):
    """Actor-pool stage over exploded page rows: one summary row per
    (url, page).  Each page is decoded by the engine's ``decode_page`` and
    read through ``TableImage``; a page that fails gives the summary's
    sentinel row.  PDF page rows share their document bytes, so the page
    is part of the memo key."""

    keys = ("url", "page")
    reads = ("page",)

    def __init__(self, summary: str) -> None:
        super().__init__()
        self._read, columns, self._sentinel = _SUMMARIES[summary]
        self.schema = {"url": pa.string(), "page": pa.int64(), **columns}

    def rows(self, data: bytes, page: int) -> list[tuple]:
        from img2table_ray.extract.document import TableImage
        from img2table_ray.stages.extractor import decode_page

        return [self._read(TableImage(img=decode_page(data, page)))]

    def failed(self, data: bytes, status: str, exc: Exception) -> tuple:
        return self._sentinel


def summarize_pages(pages_dir: str, summary: str) -> ray.data.Dataset:
    """The ``extract_tables`` page rows of a pages table (``page_rows``)
    summarized per page instead of extracted; ``summary`` is
    ``"metrics"`` or ``"lines"``."""
    pages = page_rows(ray.data.read_parquet(f"{pages_dir}/pages",
                                            columns=["url", "html"]))
    return _PageSummaryStage.map_batches(pages, batch_size=16,
                                         summary=summary)


def extract_metrics(sf_dir: str) -> ray.data.Dataset:
    """Per-(url, page) image metrics (char_length, median_line_sep,
    contours) over every page of every document.  At sf0.01 that is 228
    rows from 192 documents (12 three-page MPNG docs and 12 two-page
    PDFs)."""
    return summarize_pages(corpus_for(sf_dir), "metrics")


def extract_lines(sf_dir: str) -> ray.data.Dataset:
    """Per-(url, page) detected ruling-line counts (B-phase ops)."""
    return summarize_pages(corpus_for(sf_dir), "lines")


def _borderless_corpus(sf_dir: str) -> str:
    """Small dedicated corpus including the reference's borderless fixture
    (kept separate from the main corpus: borderless docs cost ~3.5 s each)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.png import encode_png
    from img2table_ray.pipelines.corpus import CORPUS_ROOT
    from img2table_ray.sources.pages import _EPOCH, _SYNTH_SHAPES, synth_table_image

    sf_name = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(CORPUS_ROOT, f"borderless-{sf_name}")
    marker = os.path.join(out, ".complete-v2")
    if os.path.exists(marker):
        return out
    os.makedirs(f"{out}/pages", exist_ok=True)
    fixture = fixture_bytes("borderless.png")
    urls, html = [], []
    for i in range(8):
        if i % 2 == 0:
            urls.append(f"https://example.org/borderless/{i:08d}")
            html.append(fixture)
        else:
            shape = _SYNTH_SHAPES[i % len(_SYNTH_SHAPES)]
            g, _ = synth_table_image(shape[0], shape[1], i)
            urls.append(f"https://example.org/synth/{i:08d}")
            html.append(encode_png(g))
    tbl = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([_EPOCH] * len(urls), pa.timestamp("us")),
        "html": pa.array(html, pa.binary()),
        "text": pa.array([""] * len(urls), pa.string()),
        "lang": pa.array(["en"] * len(urls), pa.string()),
    })
    pq.write_table(tbl, f"{out}/pages/part-00000.parquet")
    with open(marker, "w") as f:
        f.write("ok")
    return out


def extract_tables_borderless(sf_dir: str) -> ray.data.Dataset:
    """Extraction with the borderless chain enabled (C1-C13 through the Ray
    pipeline; rows-only check — detects the reference's borderless fixture
    as a 16-row table without ruling lines)."""
    corpus = _borderless_corpus(sf_dir)
    return extract_pages(corpus, words_dir=None, borderless=True,
                         implicit_rows=False)


class _PdfWordsStage(PayloadStage):
    """Actor-pool stage: native PDF text-layer words per document
    (ref ocr/pdf.py:157-235 via extract/pdftext.py).

    The PDF bytes ride the batch (``pdf`` binary column).  Output: one row
    per word — the OCRDataframe schema plus ``doc_id``; a document that
    does not parse gives one ``page=-1`` row whose status carries the
    reason."""

    keys = ("doc_id",)
    payload = "pdf"
    schema = {"doc_id": pa.int64(), "page": pa.int64(),
              "word_id": pa.string(), "parent": pa.string(),
              "value": pa.string(), "confidence": pa.int64(),
              "x1": pa.int64(), "y1": pa.int64(), "x2": pa.int64(),
              "y2": pa.int64(), "status": pa.string()}

    def rows(self, data: bytes) -> list[tuple]:
        from img2table_ray.extract.pdftext import pdf_words_content

        return [(w["page"], w["id"], w["parent"], w["value"], w["confidence"],
                 w["x1"], w["y1"], w["x2"], w["y2"], "ok")
                for page_words in pdf_words_content(data)
                for w in page_words if w["class"] == "ocrx_word"]

    def failed(self, data: bytes, status: str, exc: Exception) -> tuple:
        return (-1, None, None, None, None, -1, -1, -1, -1,
                f"error: {exc}" if status == "error" else status)


def _pdf_corpus(sf_dir: str) -> str:
    """Deterministic PDF corpus: the vendored 2-page fixture replicated
    with doc ids (no external data; FIXTURES.md §5)."""
    import os

    import pyarrow.parquet as pq

    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.pipelines.corpus import CORPUS_ROOT, SF_ROWS

    sf_name = os.path.basename(os.path.normpath(sf_dir))
    n_rows = max(8, SF_ROWS.get(sf_name, 64) // 8)
    out = os.path.join(CORPUS_ROOT, f"pdf-{sf_name}")
    marker = os.path.join(out, ".complete-v1")
    if os.path.exists(marker):
        return out
    os.makedirs(f"{out}/pdfs", exist_ok=True)
    pdf = fixture_bytes("test.pdf")
    tbl = pa.table({
        "doc_id": pa.array(range(n_rows), pa.int64()),
        "pdf": pa.array([pdf] * n_rows, pa.binary()),
    })
    pq.write_table(tbl, f"{out}/pdfs/part-00000.parquet")
    with open(marker, "w") as f:
        f.write("ok")
    return out


def pdf_words(sf_dir: str) -> ray.data.Dataset:
    """Native PDF text-layer words through the Ray pipeline (rows-only:
    PDF parsing is not SQL-expressible)."""
    pdfs = ray.data.read_parquet(f"{_pdf_corpus(sf_dir)}/pdfs",
                                 columns=["doc_id", "pdf"])
    return _PdfWordsStage.map_batches(pdfs, batch_size=8)
