"""Remaining operator-level goldens from the reference's unit tests
(cell identification/dedup, clustering, normalization, semi-bordered,
table creation, implicit rows/columns)."""

import json

import polars as pl
import pytest

from tests.conftest import REFERENCE

REF = f"{REFERENCE}/tables/processing/bordered_tables"


def _cells_csv(path):
    from img2table_ray.core.objects import Cell

    return [Cell(x1=r["x1"], x2=r["x2"], y1=r["y1"], y2=r["y2"])
            for r in pl.read_csv(path, separator=";").to_dicts()]


def _key(c):
    return (c.x1, c.y1, c.x2, c.y2)


@pytest.mark.requires_reference(f"{REF}/cells/test_data")
def test_cells_identification_golden():
    from img2table_ray.core.objects import Line
    from img2table_ray.extract.cells import get_cells_dataframe

    base = f"{REF}/cells/test_data"
    data = json.load(open(f"{base}/lines.json"))
    result = get_cells_dataframe(
        horizontal_lines=[Line(**el) for el in data["h_lines"]],
        vertical_lines=[Line(**el) for el in data["v_lines"]])
    expected = _cells_csv(f"{base}/expected_ident_cells.csv")
    assert sorted(result, key=_key) == sorted(expected, key=_key)


@pytest.mark.requires_reference(f"{REF}/cells/test_data")
def test_cells_deduplication_golden():
    from img2table_ray.extract.cells import deduplicate_cells

    base = f"{REF}/cells/test_data"
    cells = _cells_csv(f"{base}/expected_ident_cells.csv")
    result = deduplicate_cells(cells=cells)
    expected = _cells_csv(f"{base}/expected.csv")
    assert sorted(result, key=_key) == sorted(expected, key=_key)


@pytest.mark.requires_reference(f"{REF}/tables/test_data")
def test_cell_clustering_golden():
    from img2table_ray.core.objects import Cell
    from img2table_ray.extract.tables import cluster_cells_in_tables

    base = f"{REF}/tables/test_data"
    cells = [Cell(**el) for el in json.load(open(f"{base}/cells.json"))]
    result = cluster_cells_in_tables(cells=cells)
    expected = [[Cell(**el) for el in cl]
                for cl in json.load(open(f"{base}/cells_clustered.json"))]
    assert all(cl in result for cl in expected)
    assert all(cl in expected for cl in result)


@pytest.mark.requires_reference(f"{REF}/tables/test_data")
def test_normalize_table_cells_golden():
    from img2table_ray.core.objects import Cell
    from img2table_ray.extract.tables import normalize_table_cells

    base = f"{REF}/tables/test_data"
    clusters = [[Cell(**el) for el in cl]
                for cl in json.load(open(f"{base}/cells_clustered.json"))]
    result = [normalize_table_cells(cluster_cells=cl) for cl in clusters]
    expected = [[Cell(**el) for el in cl]
                for cl in json.load(open(f"{base}/cell_clusters_normalized.json"))]
    assert result == expected


@pytest.mark.requires_reference(f"{REF}/tables/test_data")
def test_cluster_to_table_golden():
    from img2table_ray.core.objects import Cell, Row, Table
    from img2table_ray.extract.tables import cluster_to_table

    base = f"{REF}/tables/test_data"
    clusters = [[Cell(**el) for el in cl]
                for cl in json.load(open(f"{base}/cell_clusters_normalized.json"))]
    contours = [Cell(**el) for el in json.load(open(f"{base}/contours.json"))]
    result = [cluster_to_table(cl, contours) for cl in clusters]
    expected = [Table(rows=[Row(cells=[Cell(**el) for el in row]) for row in tb])
                for tb in json.load(open(f"{base}/tables_from_cells.json"))]
    assert result == expected


def test_remove_unwanted_elements_golden():
    from img2table_ray.core.objects import Cell, Row, Table
    from img2table_ray.extract.tables import remove_unwanted_elements

    table = Table(rows=[
        Row(cells=[Cell(x1=0, y1=0, x2=20, y2=20), Cell(x1=20, y1=0, x2=40, y2=20),
                   Cell(x1=40, y1=0, x2=60, y2=20)]),
        Row(cells=[Cell(x1=0, y1=20, x2=20, y2=40), Cell(x1=20, y1=20, x2=40, y2=40),
                   Cell(x1=40, y1=20, x2=60, y2=40)]),
        Row(cells=[Cell(x1=0, y1=40, x2=20, y2=60), Cell(x1=20, y1=40, x2=40, y2=60),
                   Cell(x1=40, y1=40, x2=60, y2=60)])])
    elements = [Cell(x1=25, y1=5, x2=35, y2=15), Cell(x1=45, y1=5, x2=55, y2=15),
                Cell(x1=25, y1=25, x2=35, y2=35), Cell(x1=45, y1=25, x2=55, y2=35)]
    result = remove_unwanted_elements(table=table, elements=elements)
    expected = Table(rows=[
        Row(cells=[Cell(x1=20, y1=0, x2=40, y2=20), Cell(x1=40, y1=0, x2=60, y2=20)]),
        Row(cells=[Cell(x1=20, y1=20, x2=40, y2=40), Cell(x1=40, y1=20, x2=60, y2=40)])])
    assert result == expected


def test_semi_bordered_goldens():
    from img2table_ray.core.objects import Cell, Line
    from img2table_ray.extract.tables import (
        _get_lines_in_cluster,
        _identify_potential_new_cells,
        _identify_table_dimensions,
        _update_cluster_cells,
        add_semi_bordered_cells,
    )

    cluster = [Cell(x1=100, x2=200, y1=100, y2=200)]
    lines = [Line(x1=50, x2=205, y1=100, y2=100),
             Line(x1=50, x2=205, y1=200, y2=200),
             Line(x1=100, x2=100, y1=30, y2=270),
             Line(x1=200, x2=200, y1=30, y2=270)]
    h_cl, v_cl = _get_lines_in_cluster(cluster=cluster, lines=lines)
    assert h_cl == lines[:2]
    assert v_cl == lines[2:]

    dims = _identify_table_dimensions(cluster, h_cl, v_cl, char_length=5)
    assert dims == (50, 200, 30, 270)

    new_cells = _identify_potential_new_cells(cluster, h_cl, v_cl, *dims)
    expected_new = [Cell(x1=100, y1=200, x2=200, y2=270), Cell(x1=50, y1=30, x2=100, y2=100),
                    Cell(x1=50, y1=100, x2=100, y2=200), Cell(x1=100, y1=100, x2=200, y2=200),
                    Cell(x1=100, y1=30, x2=200, y2=100), Cell(x1=50, y1=200, x2=100, y2=270)]
    assert sorted(new_cells, key=_key) == sorted(expected_new, key=_key)

    updated = _update_cluster_cells(cluster=cluster, new_cells=expected_new)
    assert sorted(updated, key=_key) == sorted(expected_new, key=_key)

    full = add_semi_bordered_cells(cluster=cluster, lines=lines, char_length=5)
    assert sorted(full, key=_key) == sorted(expected_new, key=_key)


@pytest.mark.requires_reference(f"{REF}/tables/test_data")
def test_implicit_goldens():
    from img2table_ray.core.objects import Cell, Row, Table
    from img2table_ray.extract.borderless.model import ImageSegment
    from img2table_ray.extract.implicit import implicit_columns_lines, implicit_rows_lines
    from img2table_ray.extract.tables import implicit_content

    base = f"{REF}/tables/test_data"
    table = Table(rows=[Row(cells=[Cell(**el) for el in row])
                        for row in json.load(open(f"{base}/table_implicit.json"))])
    contours = [Cell(**el) for el in json.load(open(f"{base}/contours_implicit.json"))]
    segment = ImageSegment(x1=table.x1, y1=table.y1, x2=table.x2, y2=table.y2,
                           elements=contours)

    rows_lines = implicit_rows_lines(table=table, segment=segment)
    assert all(line.width == table.width for line in rows_lines)
    assert sorted(line.y1 for line in rows_lines) == [
        682, 716, 784, 817, 884, 919, 986, 1020, 1089, 1121, 1189, 1223,
        1292, 1325, 1394, 1427, 1494, 1529, 1597, 1630]

    cols_lines = implicit_columns_lines(table=table, segment=segment, char_length=11)
    assert all(line.height == table.height for line in cols_lines)
    assert sorted(line.x1 for line in cols_lines) == [395, 605, 725, 809, 886, 1212, 1285, 1396]

    result = implicit_content(table=table, contours=contours, char_length=11,
                              implicit_rows=True, implicit_columns=True)
    assert result.nb_rows == table.nb_rows + 20
    assert result.nb_columns == table.nb_columns + 8


def test_object_goldens():
    # ref tests/tables/objects/test_line.py, test_row.py, test_table.py
    from img2table_ray.core.objects import Cell, Line, Row, Table

    line = Line(x1=0, y1=20, x2=46, y2=73)
    assert round(line.angle) == 49
    assert (line.width, line.height, round(line.length)) == (46, 53, 70)
    assert not line.vertical and not line.horizontal

    rep = Line(x1=20, y1=73, x2=19, y2=20, thickness=18).reprocess()
    assert rep == Line(x1=20, x2=20, y1=20, y2=73, thickness=18)
    assert rep.vertical

    row = Row(cells=[Cell(x1=0, x2=20, y1=0, y2=20), Cell(x1=20, x2=40, y1=0, y2=20)])
    assert (row.x1, row.y1, row.x2, row.y2, row.nb_columns) == (0, 0, 40, 20, 2)
    assert row.v_consistent
    row.add_cells(cells=Cell(x1=40, x2=60, y1=0, y2=20))
    assert (row.nb_columns, row.x2) == (3, 60)

    row2 = Row(cells=[Cell(x1=0, x2=20, y1=0, y2=20), Cell(x1=20, x2=40, y1=0, y2=20)])
    split = row2.split_in_rows(vertical_delimiters=[10, 15])
    assert split == [
        Row(cells=[Cell(x1=0, x2=20, y1=0, y2=10), Cell(x1=20, x2=40, y1=0, y2=10)]),
        Row(cells=[Cell(x1=0, x2=20, y1=10, y2=15), Cell(x1=20, x2=40, y1=10, y2=15)]),
        Row(cells=[Cell(x1=0, x2=20, y1=15, y2=20), Cell(x1=20, x2=40, y1=15, y2=20)])]

    t = Table(rows=[Row(cells=[Cell(x1=0, x2=100, y1=0, y2=10)]),
                    Row(cells=[Cell(x1=0, x2=100, y1=10, y2=20)]),
                    Row(cells=[Cell(x1=0, x2=100, y1=20, y2=30)])])
    t.remove_rows(row_ids=[1])
    assert t == Table(rows=[Row(cells=[Cell(x1=0, x2=100, y1=0, y2=15)]),
                            Row(cells=[Cell(x1=0, x2=100, y1=15, y2=30)])])

    t2 = Table(rows=[Row(cells=[Cell(x1=0, x2=100, y1=0, y2=10),
                                Cell(x1=100, x2=200, y1=0, y2=10),
                                Cell(x1=200, x2=300, y1=0, y2=10)]),
                     Row(cells=[Cell(x1=0, x2=100, y1=10, y2=20),
                                Cell(x1=100, x2=200, y1=10, y2=20),
                                Cell(x1=200, x2=300, y1=10, y2=20)])])
    t2.remove_columns(col_ids=[1])
    assert t2 == Table(rows=[Row(cells=[Cell(x1=0, x2=150, y1=0, y2=10),
                                        Cell(x1=150, x2=300, y1=0, y2=10)]),
                             Row(cells=[Cell(x1=0, x2=150, y1=10, y2=20),
                                        Cell(x1=150, x2=300, y1=10, y2=20)])])


@pytest.mark.requires_reference(f"{REFERENCE}/tables/objects/test_data")
def test_table_content_golden():
    # ref tests/tables/objects/test_table.py::test_table + test_get_table_content
    from img2table_ray.core.objects import Cell, Row, Table
    from img2table_ray.extract.content import load_words_csv

    base = f"{REFERENCE}/tables/objects/test_data"
    tables = [Table(rows=[Row(cells=[Cell(**el) for el in row]) for row in tb])
              for tb in json.load(open(f"{base}/tables.json"))]
    assert (tables[0].nb_columns, tables[0].nb_rows) == (3, 6)
    assert tables[0].bbox() == (35, 20, 770, 326)
    assert (tables[1].nb_columns, tables[1].nb_rows) == (2, 2)
    assert tables[1].bbox() == (961, 21, 1154, 123)

    words = load_words_csv(f"{base}/ocr.csv")
    result = [tb.get_content(ocr_words=words, min_confidence=50) for tb in tables]
    expected = [Table(rows=[Row(cells=[Cell(**el) for el in row]) for row in tb])
                for tb in json.load(open(f"{base}/expected_tables.json"))]
    assert result == expected


@pytest.mark.requires_reference(f"{REFERENCE}/tables/image/test_data/test.png")
def test_table_image_golden():
    # ref tests/tables/image/test_image.py (TableImage level)
    from img2table_ray.extract.document import TableImage
    from img2table_ray.imgops.png import decode_image

    img = decode_image(open(
        f"{REFERENCE}/tables/image/test_data/test.png", "rb").read())
    result = TableImage(img=img, min_confidence=50).extract_tables(implicit_rows=True)
    result = sorted(result, key=lambda tb: tb.x1 + tb.x2)
    assert (result[0].x1, result[0].y1, result[0].x2, result[0].y2) == (36, 21, 770, 327)
    assert (result[0].nb_rows, result[0].nb_columns) == (6, 3)
    assert (result[1].x1, result[1].y1, result[1].x2, result[1].y2) == (962, 21, 1154, 123)
    assert (result[1].nb_rows, result[1].nb_columns) == (2, 2)


def _ssim_gray(a, b):
    """Windowed SSIM (11x11 gaussian, K1=0.01, K2=0.03, L=255) — standard
    public formula, mean over the map; enough fidelity for the reference's
    >= 0.85 round-trip threshold."""
    import numpy as np

    from img2table_ray.imgops.kernels import _convolve_axis, gaussian_kernel_1d

    def win_mean(x):
        k = gaussian_kernel_1d(11, 1.5)
        return _convolve_axis(_convolve_axis(x, k, axis=1), k, axis=0)

    a = a.astype(np.float64)
    b = b.astype(np.float64)
    mu_a, mu_b = win_mean(a), win_mean(b)
    var_a = win_mean(a * a) - mu_a ** 2
    var_b = win_mean(b * b) - mu_b ** 2
    cov = win_mean(a * b) - mu_a * mu_b
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    s = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    return float(s.mean())


@pytest.mark.requires_reference(f"{REFERENCE}/document/base/test_data/test.png")
def test_fix_rotation_roundtrip():
    # ref tests/document/base/test_rotation.py::test_fix_rotation_image
    # (subset of angles to bound runtime; same crop + mean-SSIM criterion)
    import numpy as np

    from img2table_ray.extract.rotation import fix_rotation_image, rotate_img_with_border
    from img2table_ray.imgops.kernels import rgb2gray
    from img2table_ray.imgops.png import decode_image

    img = decode_image(open(
        f"{REFERENCE}/document/base/test_data/test.png", "rb").read())

    def crop_to_orig(rotated):
        oh, ow = img.shape[:2]
        cy, cx = rotated.shape[0] // 2, rotated.shape[1] // 2
        return rotated[cy - oh // 2 : cy + oh // 2 + 1, cx - ow // 2 : cx + ow // 2 + 1]

    sims = []
    for angle in (-12, 9, 24):
        test_img = rotate_img_with_border(img=img.copy(), angle=angle)
        fixed, _ = fix_rotation_image(img=test_img)
        cropped = crop_to_orig(fixed)
        h = min(cropped.shape[0], img.shape[0])
        w = min(cropped.shape[1], img.shape[1])
        sims.append(_ssim_gray(rgb2gray(img[:h, :w]), rgb2gray(cropped[:h, :w])))
    assert float(np.mean(sims)) >= 0.85, sims
