"""Table assembly and borderless geometry against the forms they replaced.

``cluster_to_table`` and ``remove_unwanted_elements`` broadcast over
(grid slot x cell) and (cell x element); their per-slot and per-cell loop
forms live here as oracles, and both must give the same grid, the same
cell objects in the same slots (a merged cell is one instance in several
slots) and the same rows and columns removed.  ``Row``/``Table`` cache
their boxes, and ``Column.height`` counts a union of spans instead of a
set of every y.
"""

from __future__ import annotations

import numpy as np
import pytest

from img2table_ray.core.common import is_contained_cell
from img2table_ray.core.objects import Cell, Row, Table
from img2table_ray.extract import tables
from img2table_ray.extract.borderless.model import Column, VerticalWS, Whitespace


def _remove_unwanted_elements_loop(table: Table, elements: list[Cell]) -> Table:
    if len(elements) == 0 or table.nb_rows * table.nb_columns == 0:
        return Table(rows=[])
    ex1 = np.array([el.x1 for el in elements])
    ey1 = np.array([el.y1 for el in elements])
    ex2 = np.array([el.x2 for el in elements])
    ey2 = np.array([el.y2 for el in elements])
    earea = (ex2 - ex1) * (ey2 - ey1)
    nb_rows, nb_cols = table.nb_rows, table.nb_columns
    contains = np.zeros((nb_rows, nb_cols), dtype=bool)
    coords: dict[tuple, list] = {}
    for ir, row in enumerate(table.items):
        for ic, c in enumerate(row.items):
            xo = np.maximum(0, np.minimum(c.x2, ex2) - np.maximum(c.x1, ex1))
            yo = np.maximum(0, np.minimum(c.y2, ey2) - np.maximum(c.y1, ey1))
            contains[ir, ic] = bool(((xo * yo) / earea >= 0.6).any())
            coords.setdefault((c.x1, c.y1, c.x2, c.y2), []).append((ir, ic))
    merged_col = np.zeros((nb_rows, nb_cols), dtype=bool)
    merged_row = np.zeros((nb_rows, nb_cols), dtype=bool)
    for positions in coords.values():
        rows_ = {p[0] for p in positions}
        cols_ = {p[1] for p in positions}
        for ir, ic in positions:
            if len(rows_) > 1:
                merged_col[ir, ic] = True
            if len(cols_) > 1:
                merged_row[ir, ic] = True
    empty_rows = [ir for ir in range(nb_rows)
                  if not contains[ir].any() or (not merged_col[ir].all()
                                               and not (contains[ir] & ~merged_col[ir]).any())]
    empty_cols = [ic for ic in range(nb_cols)
                  if not contains[:, ic].any() or (not merged_row[:, ic].all()
                                                   and not (contains[:, ic] & ~merged_row[:, ic]).any())]
    table.remove_rows(row_ids=empty_rows)
    table.remove_columns(col_ids=empty_cols)
    return table


def _cluster_to_table_loop(cluster_cells: list[Cell], elements: list[Cell],
                           borderless: bool = False) -> Table:
    v_delims = sorted({v for c in cluster_cells for v in (c.y1, c.y2)})
    h_delims = sorted({v for c in cluster_cells for v in (c.x1, c.x2)})
    list_rows = []
    for y_top, y_bottom in zip(v_delims, v_delims[1:]):
        matching_cells = [c for c in cluster_cells
                          if min(c.y2, y_bottom) - max(c.y1, y_top) >= 0.9 * (y_bottom - y_top)]
        list_cells = []
        for x_left, x_right in zip(h_delims, h_delims[1:]):
            default_cell = Cell(x1=x_left, y1=y_top, x2=x_right, y2=y_bottom)
            containing = sorted(
                [c for c in matching_cells
                 if is_contained_cell(inner_cell=default_cell, outer_cell=c, percentage=0.9)],
                key=lambda c: c.area)
            if containing:
                list_cells.append(containing[0])
            elif matching_cells:
                x_value = sorted([v for cell in matching_cells for v in (cell.x1, cell.x2)],
                                 key=lambda x: min(abs(x - x_left), abs(x - x_right)))[0]
                list_cells.append(Cell(x1=x_value, y1=y_top, x2=x_value, y2=y_bottom))
            else:
                list_cells.append(default_cell)
        list_rows.append(Row(cells=list_cells))
    return _remove_unwanted_elements_loop(Table(rows=list_rows, borderless=borderless), elements)


def _cluster(rng) -> list[tuple]:
    """A grid cluster with merged cells, jittered edges, and now and then
    an overlapping or stray cell, as (x1, y1, x2, y2) tuples."""
    xs = np.cumsum(rng.integers(8, 60, int(rng.integers(2, 7)))).tolist()
    ys = np.cumsum(rng.integers(8, 40, int(rng.integers(2, 7)))).tolist()
    boxes, taken = [], set()
    for r in range(len(ys) - 1):
        for c in range(len(xs) - 1):
            if (r, c) in taken:
                continue
            dr = int(rng.integers(1, 3)) if rng.random() < 0.2 else 1
            dc = int(rng.integers(1, 3)) if rng.random() < 0.2 else 1
            dr, dc = min(dr, len(ys) - 1 - r), min(dc, len(xs) - 1 - c)
            if any((r + i, c + j) in taken for i in range(dr) for j in range(dc)):
                dr = dc = 1
            taken |= {(r + i, c + j) for i in range(dr) for j in range(dc)}
            jitter = rng.integers(-2, 3, 4) * (rng.random() < 0.3)
            boxes.append((xs[c] + jitter[0], ys[r] + jitter[1],
                          xs[c + dc] + jitter[2], ys[r + dr] + jitter[3]))
    if rng.random() < 0.3:
        x, y = int(rng.integers(0, xs[-1])), int(rng.integers(0, ys[-1]))
        boxes.append((x, y, x + int(rng.integers(1, 80)), y + int(rng.integers(1, 50))))
    rng.shuffle(boxes)
    return boxes


def _elements(rng, boxes) -> list[Cell]:
    x2, y2 = max(b[2] for b in boxes), max(b[3] for b in boxes)
    out = []
    for _ in range(int(rng.integers(0, 30))):
        x, y = int(rng.integers(-5, x2)), int(rng.integers(-5, y2))
        out.append(Cell(x1=x, y1=y, x2=x + int(rng.integers(1, 25)),
                        y2=y + int(rng.integers(1, 15))))
    return out


def _grid(table: Table, cells: list[Cell]) -> list:
    """Per slot: the box, and the index of the cluster cell placed there
    (None for a cell the assembly made)."""
    index = {id(c): k for k, c in enumerate(cells)}
    return [[((c.x1, c.y1, c.x2, c.y2), index.get(id(c))) for c in row.items]
            for row in table.items]


@pytest.mark.parametrize("seed", range(4))
def test_cluster_to_table_matches_loop_form(seed):
    rng = np.random.default_rng(seed)
    for _ in range(150):
        boxes = _cluster(rng)
        elements = _elements(rng, boxes)
        got_cells = [Cell(*b) for b in boxes]
        want_cells = [Cell(*b) for b in boxes]
        got = tables.cluster_to_table(got_cells, elements, borderless=True)
        want = _cluster_to_table_loop(want_cells, elements, borderless=True)
        assert _grid(got, got_cells) == _grid(want, want_cells)
        assert got.borderless == want.borderless
        if got.nb_rows * got.nb_columns:
            assert (got.x1, got.y1, got.x2, got.y2) == (want.x1, want.y1, want.x2, want.y2)


def test_cluster_to_table_edge_cases():
    assert tables.cluster_to_table([], [Cell(0, 0, 5, 5)]).nb_rows == 0
    # one cell, no element inside: removed; with one: kept, same instance
    cell = Cell(0, 0, 40, 20)
    assert tables.cluster_to_table([cell], []).nb_rows == 0
    table = tables.cluster_to_table([cell], [Cell(5, 5, 15, 15)])
    assert table.nb_rows == 1 and table.items[0].items[0] is cell
    # a merged cell is one instance in both slots it covers
    merged, left, right = Cell(0, 0, 40, 10), Cell(0, 10, 20, 20), Cell(20, 10, 40, 20)
    els = [Cell(5, 2, 35, 8), Cell(2, 12, 8, 18), Cell(25, 12, 35, 18)]
    table = tables.cluster_to_table([merged, left, right], els)
    assert table.items[0].items[0] is merged and table.items[0].items[1] is merged


def test_row_and_table_boxes_follow_edits():
    def span(cells):
        return (min(c.x1 for c in cells), min(c.y1 for c in cells),
                max(c.x2 for c in cells), max(c.y2 for c in cells))

    shared = Cell(0, 0, 10, 20)  # one instance in both rows
    rows = [Row([shared, Cell(10, 0, 20, 10)]), Row([shared, Cell(10, 10, 20, 20)]),
            Row([Cell(0, 30, 10, 40), Cell(10, 30, 20, 40)])]
    table = Table(rows=rows)
    assert table.box == (0, 0, 20, 40) and rows[0].box == (0, 0, 20, 20)
    table.remove_rows(row_ids=[1])  # moves row 0's and row 2's edges to the gap
    for row in table.items:
        assert row.box == span(row.items)
    assert table.box == span([c for row in table.items for c in row.items])
    table.remove_columns(col_ids=[1])
    for row in table.items:
        assert row.box == span(row.items)
    assert table.box == span([c for row in table.items for c in row.items])
    row = table.items[0]
    row.add_cells(Cell(-5, -5, 1, 1))
    assert row.box == span(row.items)
    with pytest.raises(ValueError):
        Table(rows=[]).x1


def test_column_height_is_union_length():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        cells = [Cell(0, int(a), 5, int(a + d))  # d < 0: an empty span
                 for a, d in zip(rng.integers(0, 60, n), rng.integers(-3, 25, n))]
        split = int(rng.integers(1, n + 1))
        col = Column(whitespaces=[VerticalWS(ws=Whitespace(cells=part))
                                  for part in (cells[:split], cells[split:]) if part])
        ys = {y for c in cells for y in range(c.y1, c.y2 + 1)}
        assert col.height == len(ys) - 1


def test_column_add_keeps_box():
    def ws(x1, y1, x2, y2, position):
        return VerticalWS(ws=Whitespace(cells=[Cell(x1, y1, x2, y2)]), position=position)

    col = Column.from_ws(ws(10, 0, 30, 50, 0))
    col.add(ws(15, 40, 40, 90, 1))
    col.add(ws(5, 80, 25, 120, 2))
    assert (col.x1, col.y1, col.x2, col.y2) == (15, 0, 25, 120)


def test_equal_objects_hash_equal():
    """``Line``, ``Row``, ``Table`` and ``TableCell`` hash by value: equal
    objects built apart hash equal, so a set keeps one of them."""
    from img2table_ray.core.objects import BBox, Line, TableCell

    def table(content):
        return Table(rows=[Row(cells=[Cell(x1=0, y1=0, x2=10, y2=10, content=content),
                                      Cell(x1=10, y1=0, x2=20, y2=10)]),
                           Row(cells=[Cell(x1=0, y1=10, x2=20, y2=20)])])

    pairs = [
        (Line(x1=0, y1=5, x2=40, y2=5, thickness=2),
         Line(x1=0, y1=5, x2=40, y2=5, thickness=2),
         Line(x1=0, y1=5, x2=40, y2=5, thickness=3)),
        (table("a").items[0], table("a").items[0], table("b").items[0]),
        (table("a"), table("a"), table("b")),
        (TableCell(bbox=BBox(x1=0, y1=0, x2=10, y2=10), value="a"),
         TableCell(bbox=BBox(x1=0, y1=0, x2=10, y2=10), value="a"),
         TableCell(bbox=BBox(x1=0, y1=0, x2=10, y2=11), value="a")),
    ]
    for one, same, other in pairs:
        assert one == same and one is not same and one != other
        assert hash(one) == hash(same)
        assert len({one, same, other}) == 2


def test_implicit_columns_recover_a_missing_rule():
    """A 4x4 ruled grid whose rule between columns 1 and 2 is erased: the
    ruled cells give 3 columns; ``implicit_columns`` puts a column edge in
    the whitespace between the two columns' words and gives 4."""
    from img2table_ray.extract.document import extract_tables_from_image
    from img2table_ray.sources.pages import synth_table_image

    img, _ = synth_table_image(4, 4, 0)  # margins 30, cells 90 x 40
    img[30:30 + 4 * 40 + 2, 30 + 2 * 90:30 + 2 * 90 + 2] = 255
    (ruled,) = extract_tables_from_image(img).tables
    (implicit,) = extract_tables_from_image(img, implicit_columns=True).tables
    assert (ruled.nb_rows, ruled.nb_columns) == (4, 3)
    assert (implicit.nb_rows, implicit.nb_columns) == (4, 4)
    assert implicit.bbox == ruled.bbox
    # column 1's words end at x 151, column 2's start at x 220
    edge = implicit.content[0][1].bbox.x2
    assert 151 < edge < 220 and implicit.content[0][2].bbox.x1 == edge


def test_remaining_segments_tile_around_an_obstacle():
    """The empty rectangles left around one obstacle in the middle of a
    square: full-height strips on each side and the two pieces above and
    below it, which together cover everything but the obstacle."""
    from img2table_ray.extract.borderless.column_segments import (
        Rectangle, identify_remaining_segments)

    segments = identify_remaining_segments(
        searched_rectangle=Rectangle(x1=0, y1=0, x2=100, y2=100),
        existing_segments=[Cell(x1=40, y1=40, x2=60, y2=60)])
    assert sorted(segments, key=lambda c: (c.x1, c.y1)) == [
        Cell(x1=0, y1=0, x2=40, y2=100), Cell(x1=40, y1=0, x2=60, y2=40),
        Cell(x1=40, y1=60, x2=60, y2=100), Cell(x1=60, y1=0, x2=100, y2=100)]


def test_deduplicate_whitespaces_keeps_merged_ones_beside_a_taller_one():
    """Four equal-height vertical whitespaces with disjoint y spans merge
    pairwise; a taller one to the side deletes the four and is kept. No
    merged whitespace lies inside it, so every merged pair is kept after it
    (the containment test ``w in f`` runs on each)."""
    from img2table_ray.extract.borderless.whitespaces import deduplicate_whitespaces

    short = [Whitespace(cells=[Cell(x1=10, y1=y, x2=12, y2=y + 10)]) for y in (0, 20, 40, 60)]
    tall = Whitespace(cells=[Cell(x1=100, y1=0, x2=102, y2=100)])
    out = deduplicate_whitespaces(ws=short + [tall], elements=[])

    def spans(w):
        return sorted((c.x1, c.y1, c.x2, c.y2) for c in w.cells)

    assert out[0] is tall
    assert [spans(w) for w in out[1:]] == [
        [(10, a, 12, a + 10), (10, b, 12, b + 10)]
        for a, b in [(0, 20), (0, 40), (0, 60), (20, 40), (20, 60), (40, 60)]]
    assert short[1] in Whitespace(cells=[Cell(x1=5, y1=15, x2=20, y2=35)])
    assert short[1] not in tall
