"""Reference-fixture golden tests for the extraction engine (no Ray).

These mirror the reference's own pytest asserts (its test strategy is the
correctness oracle — SURVEY.md §5): metric values, detected lines, cell
grids, assembled tables, and full-page extraction with the mocked-Tesseract
hOCR words."""

import json

import polars as pl
import pytest

from img2table_ray.fixtures import fixture_path
from tests.conftest import REFERENCE as REF
from tests.readers import read_xlsx_values


def _png(path):
    from img2table_ray.imgops.png import decode_png

    return decode_png(open(path, "rb").read())


@pytest.fixture(scope="module")
def mock_words():
    from img2table_ray.extract.content import OCRWords, parse_hocr

    hocr = open(fixture_path("tesseract_hocr.html")).read()
    return OCRWords.from_records(parse_hocr(hocr, page=0))


@pytest.mark.requires_reference(f"{REF}/tables/image/test_data")
def test_img_metrics():
    # ref tests/tables/image/test_metrics.py:8-43
    from img2table_ray.extract.metrics import compute_img_metrics
    from img2table_ray.extract.threshold import threshold_dark_areas

    img = _png(f"{REF}/tables/image/test_data/test.png")
    thresh = threshold_dark_areas(img=img, char_length=11)
    char_length, sep, contours = compute_img_metrics(thresh.copy())
    assert char_length == 9.0
    assert sep == 51
    assert len(contours) == 71

    blank = _png(f"{REF}/tables/image/test_data/blank.png")
    thresh = threshold_dark_areas(img=blank, char_length=11)
    assert compute_img_metrics(thresh.copy()) == (None, None, None)


@pytest.mark.requires_reference(f"{REF}/tables/processing/bordered_tables/lines/test_data")
def test_detect_lines_golden():
    # ref tests/tables/processing/bordered_tables/lines/test_lines.py
    from img2table_ray.core.objects import Cell, Line
    from img2table_ray.extract.lines import detect_lines

    base = f"{REF}/tables/processing/bordered_tables/lines/test_data"
    img = _png(f"{base}/test.png")
    contours = [Cell(**el) for el in json.load(open(f"{base}/contours.json"))]
    h_lines, v_lines = detect_lines(img=img, contours=contours,
                                    char_length=8.85, min_line_length=10)
    data = json.load(open(f"{base}/expected.json"))

    def key(ln):
        return (ln.x1, ln.y1, ln.x2, ln.y2)

    assert sorted(h_lines, key=key) == sorted([Line(**el) for el in data["h_lines"]], key=key)
    assert sorted(v_lines, key=key) == sorted([Line(**el) for el in data["v_lines"]], key=key)


@pytest.mark.requires_reference(f"{REF}/tables/processing/bordered_tables/cells/test_data")
def test_get_cells_golden():
    # ref tests/tables/processing/bordered_tables/cells/test_cells.py
    from img2table_ray.core.objects import Cell, Line
    from img2table_ray.extract.cells import get_cells

    base = f"{REF}/tables/processing/bordered_tables/cells/test_data"
    data = json.load(open(f"{base}/lines.json"))
    result = get_cells(horizontal_lines=[Line(**el) for el in data["h_lines"]],
                       vertical_lines=[Line(**el) for el in data["v_lines"]])
    expected = [Cell(x1=r["x1"], x2=r["x2"], y1=r["y1"], y2=r["y2"])
                for r in pl.read_csv(f"{base}/expected.csv", separator=";").to_dicts()]

    def key(c):
        return (c.x1, c.y1, c.x2, c.y2)

    assert sorted(result, key=key) == sorted(expected, key=key)


@pytest.mark.requires_reference(f"{REF}/tables/processing/bordered_tables/tables/test_data")
def test_get_tables_golden():
    # ref tests/tables/processing/bordered_tables/tables/test_tables.py
    from img2table_ray.core.objects import Cell, Line, Row, Table
    from img2table_ray.extract.tables import get_tables

    base = f"{REF}/tables/processing/bordered_tables/tables/test_data"
    cells = [Cell(**el) for el in json.load(open(f"{base}/cells.json"))]
    contours = [Cell(**el) for el in json.load(open(f"{base}/contours.json"))]
    ld = json.load(open(f"{base}/lines.json"))
    lines = [Line(**el) for el in ld["h_lines"] + ld["v_lines"]]
    result = get_tables(cells=cells, elements=contours, lines=lines, char_length=8.44)
    expected = [Table(rows=[Row(cells=[Cell(**el) for el in row]) for row in tb])
                for tb in json.load(open(f"{base}/expected.json"))]
    assert result == expected


def test_image_e2e_with_ocr(mock_words):
    # ref tests/document/image/test_image.py:60-77 + expected.xlsx values
    from img2table_ray.extract.document import extract_tables_from_image

    img = _png(fixture_path("test.png"))
    res = extract_tables_from_image(img, words=mock_words, implicit_rows=True,
                                    min_confidence=50)
    assert len(res.tables) == 2

    t0, t1 = res.tables
    assert t0.title is None
    assert (t0.bbox.x1, t0.bbox.y1, t0.bbox.x2, t0.bbox.y2) == (36, 21, 770, 327)
    assert (t0.nb_rows, t0.nb_columns) == (6, 3)
    assert t0.df_values() == [
        ["Title", "Title", "Title"],
        ["Line 1-Col 1", "Line Col 2", "Line 1-Col 3"],
        ["Line Col 1", "Merged Cells", "Line Col 3"],
        ["Line 3-Col 1", "Merged Cells", "Line 3-Col 3"],
        ["Line Col 1", "Merged Cells", "Line Col 3"],
        ["Line 5-Col 1", "Line 5 - Col 2", "Line 5-Col 3"],
    ]

    assert t1.title is None
    assert (t1.bbox.x1, t1.bbox.y1, t1.bbox.x2, t1.bbox.y2) == (962, 21, 1154, 123)
    assert (t1.nb_rows, t1.nb_columns) == (2, 2)
    assert t1.df_values() == [["Test 1", "Test 2"], ["Test 3", "Test 4"]]


def test_image_e2e_dark_no_ocr():
    # ref tests/document/image/test_image.py:81-90
    from img2table_ray.extract.document import extract_tables_from_image

    img = _png(fixture_path("dark.png"))
    res = extract_tables_from_image(img, words=None, implicit_rows=True, min_confidence=50)
    assert len(res.tables) == 1
    tb = res.tables[0]
    assert (tb.bbox.x1, tb.bbox.y1, tb.bbox.x2, tb.bbox.y2) == (46, 37, 836, 529)
    assert (tb.nb_rows, tb.nb_columns) == (19, 5)


def test_image_e2e_blank(mock_words):
    # ref tests/document/image/test_image.py:37-58
    from img2table_ray.extract.document import extract_tables_from_image

    img = _png(fixture_path("blank.png"))
    res = extract_tables_from_image(img, words=mock_words, implicit_rows=True,
                                    min_confidence=50)
    assert res.tables == []


@pytest.mark.requires_reference(f"{REF}/document/base/test_data/test.png")
def test_rotation_module():
    # ref tests/document/base/test_rotation.py asserts
    import numpy as np

    from img2table_ray.extract.rotation import (
        angle_dixon_q_test,
        fix_rotation_image,
        get_connected_components,
        get_relevant_angles,
        rotate_img_with_border,
    )
    from img2table_ray.imgops.kernels import rgb2gray

    img = _png(f"{REF}/document/base/test_data/test.png")
    cc, ref_h, thresh = get_connected_components(img_gray=rgb2gray(img))
    assert len(cc) == 98

    centroids = [[35.8676, 5473.6768], [45.4648, 8734.32], [476.386, 98.437],
                 [9834.4648, 468.47], [746.746, 7348.43], [846.462, 8474.48],
                 [2983.846, 94483.46], [1093.46, 8473.46], [3676.77, 84783.64]]
    assert len(get_relevant_angles(np.array(centroids), ref_height=1000, n_max=5)) == 5

    assert round(angle_dixon_q_test(angles=[12.23, 12.78, 12.79, 12.82], confidence=0.9), 3) == 12.797

    rotated = rotate_img_with_border(img=img.copy(), angle=9)
    _, was_rotated = fix_rotation_image(img=rotated)
    assert was_rotated
    _, straight_rotated = fix_rotation_image(img=img)
    assert not straight_rotated


@pytest.mark.requires_reference(f"{REF}/tables/objects/test_data")
def test_html_and_rectangles_goldens():
    # ref tests/tables/objects/test_extraction.py:13-37
    from img2table_ray.core.objects import BBox, Cell, Row, Table, TableCell, table_to_extracted
    from img2table_ray.core.spans import CellPosition, CellSpan, create_all_rectangles

    c = TableCell(bbox=BBox(x1=0, y1=0, x2=0, y2=0), value="Test")
    cps = [CellPosition(cell=c, row=r, col=col) for r, col in
           [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1),
            (2, 2), (3, 2), (2, 3), (3, 3)]]
    assert create_all_rectangles(cell_positions=cps) == [
        CellSpan(top_row=0, bottom_row=3, col_left=0, col_right=1, value="Test"),
        CellSpan(top_row=2, bottom_row=3, col_left=2, col_right=3, value="Test")]

    base = f"{REF}/tables/objects/test_data"
    table = [Table(rows=[Row(cells=[Cell(**el) for el in row]) for row in tb])
             for tb in json.load(open(f"{base}/expected_tables.json"))].pop()
    expected = open(f"{base}/table.html").read()
    assert table_to_extracted(table).html == expected


@pytest.mark.requires_reference(f"{REF}/document/image/test_data/expected.xlsx")
def test_xlsx_golden(mock_words):
    # ref tests/document/image/test_image.py:95-108 (cell-by-cell vs expected.xlsx)
    from img2table_ray.core.xlsx import tables_to_xlsx
    from img2table_ray.extract.document import extract_tables_from_image

    img = _png(fixture_path("test.png"))
    res = extract_tables_from_image(img, words=mock_words, implicit_rows=True,
                                    min_confidence=50)
    got = read_xlsx_values(tables_to_xlsx({0: res.tables}))
    exp = read_xlsx_values(open(f"{REF}/document/image/test_data/expected.xlsx", "rb").read())
    assert list(got) == list(exp)
    for name in exp:
        assert got[name] == exp[name], name
