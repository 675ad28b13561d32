"""Ray Data stages for the extraction pipeline.

``PageExtractor`` is the fused per-page stage (SURVEY.md §3): decode ->
threshold -> metrics -> lines -> cells -> tables -> content -> titles per
page, emitting one output row per extracted table (plus a no-table /
error marker row per page so lineage is complete).  It is a
``PayloadStage`` (stages/util.py) and runs on the one stage runner, a
task pool with one instance per stage class per worker process.  That
instance's state: the base's memo (corpora replicate documents heavily),
warm malloc arenas, and the words of the part it last read
(``load_words``: the sidecar is co-partitioned with the pages, so a task
reads only its own part's words file).
``page_rows`` turns documents into page rows (``probe_batch`` then
``explode_pages``) and ``decode_page`` is the one per-page decode; the
extraction pipeline and the page summaries of ``extract_metrics`` and
``extract_lines`` (pipelines/extraction_queries.py) share both.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from typing import Optional

import numpy as np
import pyarrow as pa
import ray

from img2table_ray.stages.util import PayloadStage

OUTPUT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("part", pa.int32()),
        ("page", pa.int32()),
        ("table_idx", pa.int32()),
        ("x1", pa.int32()),
        ("y1", pa.int32()),
        ("x2", pa.int32()),
        ("y2", pa.int32()),
        ("title", pa.string()),
        ("nb_rows", pa.int32()),
        ("nb_columns", pa.int32()),
        ("cells", pa.string()),  # JSON [[{x1,y1,x2,y2,value}...]...] row-major
        ("extracted_text", pa.string()),  # canonical serialization (byte-stable)
        ("status", pa.string()),  # ok | no_tables | error
        ("error", pa.string()),
    ]
)


def probe_batch(batch: pa.Table) -> pa.Table:
    """SizeProbe: stateless, cheap.  Adds content size + container kind
    (PNG/MPNG/PDF magic sniff) used for the page explode and size-aware
    routing — heavy documents go to a dedicated pool (skew mitigation)."""
    import pyarrow.compute as pc

    from img2table_ray.extract.pdf import sniff_kind

    html = batch["html"]
    sizes = pc.binary_length(html)
    kinds = [sniff_kind(v.as_py()[:16] if v.is_valid else b"") for v in html]
    return batch.append_column("doc_bytes", sizes).append_column(
        "doc_kind", pa.array(kinds, pa.string())
    )


def explode_pages(batch: pa.Table) -> pa.Table:
    """1 multi-page document row -> N per-page rows (SURVEY.md §4: explode
    BEFORE the heavy per-page work so a many-page document cannot stall one
    task slot).  MPNG page bytes are container slices — no decode here.
    PDF pages cannot be sliced (objects are shared across pages), so each
    exploded PDF row repeats the full document bytes with a ``page`` index;
    the render stage selects the page.  The duplication trades object-store
    bytes for slot-level parallelism — the right trade for the multi-table
    report PDFs that otherwise pin one task for the whole document.

    Arrow-native: only the multi-page rows' ``html`` payloads are
    materialized into Python; every other column is duplicated with
    ``Table.take`` so big binary columns of single-page rows never round-trip
    through Python lists."""
    import pyarrow.compute as pc

    from img2table_ray.extract.pdf import split_mpng

    mask_mpng = pc.equal(batch["doc_kind"], "mpng")
    mask_pdf = pc.equal(batch["doc_kind"], "pdf")
    mask_multi = pc.or_(mask_mpng, mask_pdf)
    if not pc.any(mask_multi).as_py():
        return batch.append_column(
            "page", pa.array([0] * len(batch), pa.int32()))

    plain = batch.filter(pc.invert(mask_multi))
    plain = plain.append_column("page", pa.array([0] * len(plain), pa.int32()))
    parts = [plain]

    if pc.any(mask_mpng).as_py():
        sub = batch.filter(mask_mpng)
        page_lists: list[list[bytes]] = []
        for b in sub["html"].to_pylist():
            try:
                page_lists.append(split_mpng(b))
            except ValueError:
                page_lists.append([b])
        counts = [len(p) for p in page_lists]
        rep = np.repeat(np.arange(len(sub), dtype=np.int64), counts)
        rows = sub.take(pa.array(rep))
        flat = [pb for lst in page_lists for pb in lst]
        names = rows.schema.names
        rows = rows.set_column(names.index("html"), "html",
                               pa.array(flat, pa.binary()))
        rows = rows.set_column(
            names.index("doc_bytes"), "doc_bytes",
            pa.array([len(pb) for pb in flat],
                     batch.schema.field("doc_bytes").type))
        rows = rows.set_column(
            names.index("doc_kind"), "doc_kind",
            pa.array(["png"] * len(flat), pa.string()))
        page_ids = np.concatenate([np.arange(c, dtype=np.int32)
                                   for c in counts])
        rows = rows.append_column("page", pa.array(page_ids, pa.int32()))
        parts.append(rows)

    if pc.any(mask_pdf).as_py():
        from img2table_ray.extract.pdftext import pdf_page_count

        sub = batch.filter(mask_pdf)
        counts = []
        for b in sub["html"].to_pylist():
            try:
                counts.append(max(1, pdf_page_count(b)))
            except Exception:
                counts.append(1)  # undecodable: one error row downstream
        rep = np.repeat(np.arange(len(sub), dtype=np.int64), counts)
        rows = sub.take(pa.array(rep))
        page_ids = np.concatenate([np.arange(c, dtype=np.int32)
                                   for c in counts])
        rows = rows.append_column("page", pa.array(page_ids, pa.int32()))
        parts.append(rows)

    return pa.concat_tables(parts)


def page_rows(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Documents (``url``, ``html`` and any other columns) -> one row per
    page: ``probe_batch`` adds ``doc_bytes``/``doc_kind``, then
    ``explode_pages`` adds the int32 ``page`` index."""
    return (ds.map_batches(probe_batch, batch_format="pyarrow")
            .map_batches(explode_pages, batch_format="pyarrow"))


def decode_page(data: bytes, page: int = 0) -> np.ndarray:
    """(H, W) gray or (H, W, 3) RGB uint8 array of one exploded page row:
    a PDF row carries the whole document plus its page index, so the
    selected page is rendered; any other row's bytes are one image (MPNG
    pages were sliced by ``explode_pages``)."""
    from img2table_ray.extract.pdf import sniff_kind
    from img2table_ray.imgops.png import decode_image

    if sniff_kind(data[:8]) == "pdf":
        from img2table_ray.extract.pdf import PdfiumRenderer

        # vector rasterizer @200 DPI (extract/pdfraster.py)
        return PdfiumRenderer().render(data, pages=[page])[0]
    return decode_image(data)


def load_words(path: str) -> dict:
    """{(url, page): hocr} of one words file; a file without a ``page``
    column holds the words of page 0."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(path)
    pages = (tbl["page"].to_pylist() if "page" in tbl.schema.names
             else [0] * tbl.num_rows)
    return dict(zip(zip(tbl["url"].to_pylist(), pages),
                    tbl["hocr"].to_pylist()))


def _marker_row(status: str, error: Optional[str] = None) -> tuple:
    """The one value row a page without tables (``no_tables``) or a failed
    page (``error``) contributes, so lineage stays complete."""
    return (-1, -1, -1, -1, -1, None, 0, 0, None, None, status, error)


class PageExtractor(PayloadStage):
    """The fused per-page stage: page rows (``url``, ``part``, ``page``,
    ``html``) -> extracted-table rows (OUTPUT_SCHEMA).

    A ``PayloadStage``: it runs on the task pool, one instance per worker
    process (``stages/util.py:run_stage``), and the base owns the memo,
    the row loop and the output table; ``__call__`` attaches each page's
    words as the ``hocr`` column and sends the job's stats.
    ``words_files`` maps a part to its words file; the instance holds the
    words of one part at a time and loads a part's file when a batch row
    of that part first arrives (a part without a file has no words).
    """

    keys = ("url", "part", "page")
    reads = ("hocr", "page")
    schema = dict(zip(OUTPUT_SCHEMA.names, OUTPUT_SCHEMA.types))

    def __init__(self, words_files: Optional[dict] = None,
                 implicit_rows: bool = True, borderless: bool = False,
                 stats_handle=None) -> None:
        # Once-per-process setup: words of one part + extraction memo.
        #
        # malloc tuning: keep freed arenas (no trim, no mmap for big arrays)
        # so numpy temporaries reuse warm pages.  This sandbox faults fresh
        # memory at ~7.5 MB/s (hypervisor lazy paging), so page reuse is the
        # difference between 100 ms and 10 s per page batch.
        try:
            import ctypes

            libc = ctypes.CDLL("libc.so.6")
            libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
            libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        except Exception:
            pass
        super().__init__()
        self._words_files = words_files or {}
        self._words: tuple = (None, {})  # (part, its words)
        self._stats = stats_handle
        self._implicit_rows = implicit_rows
        self._borderless = borderless

    def _words_of(self, part: int) -> dict:
        if self._words[0] != part:
            path = self._words_files.get(part)
            self._words = (part, load_words(path) if path else {})
        return self._words[1]

    def _decode(self, data: bytes, page: int = 0):
        return decode_page(data, page)

    def rows(self, data: bytes, hocr: Optional[str], page: int) -> list:
        # a forwarder, not an alias: perfbench's page-latency probe
        # (perfbench/spans.py:install_probe) replaces ``_extract`` and
        # ``_decode`` on the class and times each miss through them
        return self._extract(data, hocr, page)

    def _extract(self, data: bytes, hocr: Optional[str], page: int = 0):
        """The value rows (without url/part/page) of one page: one per
        extracted table, or one ``no_tables`` marker row."""
        from img2table_ray.extract.content import OCRWords, parse_hocr
        from img2table_ray.extract.document import extract_tables_from_image

        img = self._decode(data, page)
        if hocr is not None:
            words = OCRWords.from_records(parse_hocr(hocr, page=0))
        elif data[:4] == b"%PDF":
            # no hOCR sidecar: PDFs carry their own text layer
            from img2table_ray.extract.pdftext import (PdfTextError,
                                                       pdf_words_content)

            try:
                # the one selected page is numbered 0, as parse_hocr(page=0)
                words = OCRWords.from_records(
                    pdf_words_content(data, pages=[page])[0])
            except PdfTextError:
                words = None
        else:
            words = None
        res = extract_tables_from_image(
            img, words=words, implicit_rows=self._implicit_rows,
            borderless_tables=self._borderless)

        rows = []
        for t_idx, tb in enumerate(res.tables):
            cells_json = json.dumps(
                [
                    [
                        {"x1": c.bbox.x1, "y1": c.bbox.y1, "x2": c.bbox.x2,
                         "y2": c.bbox.y2, "value": c.value}
                        for c in row
                    ]
                    for row in tb.content.values()
                ],
                ensure_ascii=False,
            )
            rows.append((t_idx, tb.bbox.x1, tb.bbox.y1, tb.bbox.x2,
                         tb.bbox.y2, tb.title, tb.nb_rows, tb.nb_columns,
                         cells_json, tb.canonical_text(), "ok", None))
        return rows or [_marker_row("no_tables")]

    def failed(self, data: bytes, status: str, exc: Exception) -> tuple:
        # every failure is an error row, NotImplementedError included
        return _marker_row("error", f"{type(exc).__name__}: {exc}\n"
                                    + traceback.format_exc(limit=3))

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        pages = batch["page"].to_pylist()
        parts = batch["part"].to_pylist()
        # part by part, so a batch that mixes parts loads each one once
        hocr_list = [None] * len(urls)
        for i in sorted(range(len(urls)), key=parts.__getitem__):
            hocr_list[i] = self._words_of(parts[i]).get((urls[i], pages[i]))
        out = super().__call__(
            batch.append_column("hocr", pa.array(hocr_list, pa.string())))

        # distributed manifest accounting: per-batch (part -> counts) partials
        # go to the part-hashed stats shards (state/stats.py:StatsShards) —
        # the driver never re-reads output parquet.  The send is
        # fire-and-forget (no RPC round-trip in the hot path); the driver
        # drains with StatsShards.flush() before each manifest publish.
        if self._stats is not None:
            # row-identity keys -> idempotent under retries AND re-chunked
            # batch boundaries (ADVICE r2): one entry per output row.
            # Error rows carry the sniffed container kind so unsupported
            # formats are countable per partition (manifest errors_by_format).
            kinds = (batch["doc_kind"].to_pylist()
                     if "doc_kind" in batch.schema.names
                     else ["unknown"] * len(batch))
            kind_of = {(u, p): k for u, p, k in zip(urls, pages, kinds)}
            stat_rows = []
            for url, part, page, ti, st in zip(
                    *(out[c].to_pylist()
                      for c in ("url", "part", "page", "table_idx", "status"))):
                rk = hashlib.md5(f"{url}\x1f{page}\x1f{ti}".encode()).digest()
                stat_rows.append((
                    rk, int(part),
                    1 if (page == 0 and ti <= 0) else 0,  # one per document
                    1 if st == "ok" else 0,
                    1 if st == "error" else 0,
                    kind_of.get((url, page), "unknown"),
                ))
            self._stats.add_rows(stat_rows)

        return out
