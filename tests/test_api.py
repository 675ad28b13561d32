"""User-facing API tests mirroring the reference's document tests
(tests/document/image/test_image.py flow with the mocked-Tesseract hOCR)."""

from io import BytesIO

import pytest

from img2table_ray.fixtures import fixture_path
from tests.conftest import REFERENCE


@pytest.fixture(scope="module")
def mock_hocr():
    return open(fixture_path("tesseract_hocr.html")).read()


def test_validators():
    from img2table_ray.api import Image

    with pytest.raises(TypeError):
        Image(src=1)
    with pytest.raises(TypeError):
        Image(src="img", detect_rotation=3)


def test_load_image():
    from img2table_ray.api import Image

    p = fixture_path("test.png")
    from_path = Image(src=p)
    from_bytes = Image(src=open(p, "rb").read())
    from_bytesio = Image(src=BytesIO(open(p, "rb").read()))
    assert from_path.bytes == from_bytes.bytes == from_bytesio.bytes
    assert from_path.images[0].shape == (417, 1365, 3)


def test_image_extract_tables(mock_hocr):
    from img2table_ray.api import HocrOCR, Image

    img = Image(src=fixture_path("test.png"), detect_rotation=True)
    result = img.extract_tables(ocr=HocrOCR([mock_hocr]), implicit_rows=True,
                                min_confidence=50)
    assert len(result) == 2
    assert (result[0].bbox.x1, result[0].bbox.y1,
            result[0].bbox.x2, result[0].bbox.y2) == (36, 21, 770, 327)
    assert (result[0].nb_rows, result[0].nb_columns) == (6, 3)
    assert (result[1].nb_rows, result[1].nb_columns) == (2, 2)


@pytest.mark.requires_reference(f"{REFERENCE}/document/image/test_data/expected.xlsx")
def test_image_to_xlsx(mock_hocr):
    from img2table_ray.api import HocrOCR, Image
    from img2table_ray.core.xlsx import read_xlsx_values

    img = Image(src=fixture_path("test.png"), detect_rotation=True)
    buf = img.to_xlsx(BytesIO(), ocr=HocrOCR([mock_hocr]), implicit_rows=True,
                      min_confidence=50)
    got = read_xlsx_values(buf.read())
    exp = read_xlsx_values(open(
        f"{REFERENCE}/document/image/test_data/expected.xlsx", "rb").read())
    assert list(got) == list(exp)
    for name in exp:
        assert got[name] == exp[name], name


def test_multipage_document():
    from img2table_ray.api import MultiPageDocument
    from img2table_ray.extract.pdf import encode_mpng
    from img2table_ray.imgops.png import encode_png
    from img2table_ray.sources.pages import synth_table_image

    pages_png = []
    for k in range(3):
        g, _ = synth_table_image(3, 3, 10 + k)
        pages_png.append(encode_png(g))
    doc = MultiPageDocument(src=encode_mpng(pages_png))
    tables = doc.extract_tables()
    assert sorted(tables) == [0, 1, 2]
    assert all(len(v) == 1 and (v[0].nb_rows, v[0].nb_columns) == (3, 3)
               for v in tables.values())

    # page selection remaps output keys (ref base/__init__.py:138-140)
    sel = MultiPageDocument(src=encode_mpng(pages_png), pages=[2, 0])
    tables_sel = sel.extract_tables()
    assert sorted(tables_sel) == [0, 2]


def test_tesseract_adapter_missing_binary_raises():
    from img2table_ray.api import TesseractOCR

    with pytest.raises(OSError, match="Tesseract not found"):
        TesseractOCR(tessdata_dir="/nonexistent")  # no tesseract in container


def test_tesseract_adapter_mocked_e2e(monkeypatch, mock_hocr):
    """The ADAPTER (availability probe, subprocess drive, hOCR parse) is
    the tested surface, with the tesseract binary mocked to emit the
    reference's canned hOCR — mirrors test_image.py:60-90 asserts through
    the reference's own mock_tesseract strategy (tests/conftest.py:23-39)."""
    import subprocess

    class _Ret:
        returncode = 0

    def fake_run(cmd, **kw):
        assert "tesseract --version" in cmd
        return _Ret()

    def fake_check_output(cmd, **kw):
        if "--list-langs" in cmd:
            return b"List of available languages:\neng\n"
        assert "hocr" in cmd and "--psm 11" in cmd
        return mock_hocr.encode()

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(subprocess, "check_output", fake_check_output)

    from img2table_ray.api import Image, TesseractOCR

    ocr = TesseractOCR(n_threads=2, lang="eng", psm=11)
    img = Image(src=fixture_path("test.png"), detect_rotation=True)
    result = img.extract_tables(ocr=ocr, implicit_rows=True, min_confidence=50)
    assert len(result) == 2
    assert (result[0].bbox.x1, result[0].bbox.y1,
            result[0].bbox.x2, result[0].bbox.y2) == (36, 21, 770, 327)
    assert (result[0].nb_rows, result[0].nb_columns) == (6, 3)
    assert result[0].title is None
    assert (result[1].bbox.x1, result[1].bbox.y1,
            result[1].bbox.x2, result[1].bbox.y2) == (962, 21, 1154, 123)
    assert (result[1].nb_rows, result[1].nb_columns) == (2, 2)


def test_tesseract_adapter_bad_lang_raises(monkeypatch):
    import subprocess

    class _Ret:
        returncode = 0

    monkeypatch.setattr(subprocess, "run", lambda cmd, **kw: _Ret())
    monkeypatch.setattr(
        subprocess, "check_output",
        lambda cmd, **kw: b"List of available languages:\neng\n")

    from img2table_ray.api import TesseractOCR

    with pytest.raises(OSError, match="'fra' trainned data"):
        TesseractOCR(lang="fra")


def test_to_xlsx_round_trip(mock_hocr):
    """Each table is one sheet; a merged cell's value sits in its anchor
    (top-left) slot only, with its range listed in mergeCells."""
    import re
    import zipfile

    from img2table_ray.api import HocrOCR, Image
    from img2table_ray.core.xlsx import read_xlsx_values

    img = Image(src=fixture_path("test.png"))
    kwargs = dict(ocr=HocrOCR([mock_hocr]), implicit_rows=True)
    tables = img.extract_tables(**kwargs)
    data = img.to_xlsx(BytesIO(), **kwargs).read()

    sheets = read_xlsx_values(data)
    assert list(sheets) == ["Page 1 - Table 1", "Page 1 - Table 2"]
    for grid, table in zip(sheets.values(), tables):
        expected, seen = [], set()
        for row in table.content.values():
            expected.append([])
            for cell in row:
                key = (cell.bbox.x1, cell.bbox.y1, cell.bbox.x2, cell.bbox.y2)
                expected[-1].append(None if key in seen else cell.value)
                seen.add(key)
        assert grid == expected
    assert sheets["Page 1 - Table 1"][0] == ["Title", None, None]
    assert sheets["Page 1 - Table 1"][2:5] == [
        ["Line Col 1", "Merged Cells", "Line Col 3"],
        ["Line 3-Col 1", None, "Line 3-Col 3"],
        ["Line Col 1", None, "Line Col 3"]]
    assert sheets["Page 1 - Table 2"] == tables[1].df_values()

    sheet1 = zipfile.ZipFile(BytesIO(data)).read(
        "xl/worksheets/sheet1.xml").decode()
    assert sorted(re.findall(r'<mergeCell ref="([A-Z0-9:]+)"/>', sheet1)) == \
        ["A1:C1", "B3:B5"]


def test_extracted_table_html():
    """A colspan, a rowspan, a line break, an escaped character and an
    empty cell, against the hand-written prettified table."""
    from img2table_ray.core.objects import BBox, ExtractedTable, TableCell

    def cell(x1, y1, x2, y2, value):
        return TableCell(bbox=BBox(x1=x1, y1=y1, x2=x2, y2=y2), value=value)

    wide = cell(0, 0, 20, 10, "a&b")
    tall = cell(20, 10, 30, 30, "e")
    table = ExtractedTable(
        bbox=BBox(x1=0, y1=0, x2=30, y2=30), title=None,
        content={0: [wide, wide, cell(20, 0, 30, 10, "b")],
                 1: [cell(0, 10, 10, 20, "line1\nline2"),
                     cell(10, 10, 20, 20, None), tall],
                 2: [cell(0, 20, 10, 30, "f"), cell(10, 20, 20, 30, "g"), tall]})
    assert table.html == "\n".join([
        "<table>",
        " <tr>",
        '  <td colspan="2" rowspan="1">',
        "   a&amp;b",
        "  </td>",
        '  <td colspan="1" rowspan="1">',
        "   b",
        "  </td>",
        " </tr>",
        " <tr>",
        '  <td colspan="1" rowspan="1">',
        "   line1",
        "   <br/>",
        "   line2",
        "  </td>",
        '  <td colspan="1" rowspan="1">',
        "  </td>",
        '  <td colspan="1" rowspan="2">',
        "   e",
        "  </td>",
        " </tr>",
        " <tr>",
        '  <td colspan="1" rowspan="1">',
        "   f",
        "  </td>",
        '  <td colspan="1" rowspan="1">',
        "   g",
        "  </td>",
        " </tr>",
        "</table>"])


def test_pdf_ocr_content_is_the_text_layer():
    from img2table_ray.api import PDF, PdfOCR
    from img2table_ray.extract.pdftext import pdf_words_content

    doc = PDF(src=fixture_path("test.pdf"))
    content = PdfOCR().content(doc)
    assert len(content) == 2
    assert content == pdf_words_content(doc.bytes)
