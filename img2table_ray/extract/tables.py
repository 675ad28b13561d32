"""Table assembly from cell grids (ref: src/img2table/tables/processing/
bordered_tables/tables/*), polars cross-joins re-expressed as numpy
broadcasts (per-page cell counts are tiny).
"""

from __future__ import annotations

import numpy as np

from img2table_ray.core.common import boxes_of, find_components, row_blocks
from img2table_ray.core.objects import Cell, Line, Row, Table


def get_adjacent_cells(cells: list[Cell]) -> list[set[int]]:
    """Adjacency = overlap > 5px on one axis & edge distance <= min(5, 5% dim)
    on the other (ref cell_clustering.py:8-57)."""
    if len(cells) == 0:
        return []
    x1, y1, x2, y2 = boxes_of(cells).T
    width = x2 - x1
    height = y2 - y1

    x_ov = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    y_ov = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])

    diff_x = np.min(
        np.abs(np.stack([x1[:, None] - x1[None, :], x1[:, None] - x2[None, :],
                         x2[:, None] - x1[None, :], x2[:, None] - x2[None, :]])), axis=0
    )
    diff_y = np.min(
        np.abs(np.stack([y1[:, None] - y1[None, :], y1[:, None] - y2[None, :],
                         y2[:, None] - y1[None, :], y2[:, None] - y2[None, :]])), axis=0
    )
    thresh_x = np.minimum(5, 0.05 * np.minimum(width[:, None], width[None, :]))
    thresh_y = np.minimum(5, 0.05 * np.minimum(height[:, None], height[None, :]))

    adj = ((y_ov > 5) & (diff_x <= thresh_x)) | ((x_ov > 5) & (diff_y <= thresh_y))
    ii, jj = np.where(adj)
    # match reference ordering: unique sorted (idx, idx_right) pairs
    return [{int(i), int(j)} for i, j in zip(ii, jj)]


def cluster_cells_in_tables(cells: list[Cell]) -> list[list[Cell]]:
    adjacent = get_adjacent_cells(cells=cells)
    clusters = find_components(edges=adjacent)
    return [[cells[idx] for idx in cl] for cl in clusters]


def normalize_table_cells(cluster_cells: list[Cell]) -> list[Cell]:
    """Snap cell borders to grouped delimiter values
    (ref table_creation.py:11-44)."""
    width = max(c.x2 for c in cluster_cells) - min(c.x1 for c in cluster_cells)
    height = max(c.y2 for c in cluster_cells) - min(c.y1 for c in cluster_cells)

    h_values = sorted({v for c in cluster_cells for v in (c.x1, c.x2)})
    h_delims = [round(np.mean(g)) for g in
                np.split(h_values, np.where(np.diff(h_values) >= min(width * 0.02, 10))[0] + 1)]

    v_values = sorted({v for c in cluster_cells for v in (c.y1, c.y2)})
    v_delims = [round(np.mean(g)) for g in
                np.split(v_values, np.where(np.diff(v_values) >= min(height * 0.02, 10))[0] + 1)]

    normalized = []
    for cell in cluster_cells:
        nc = Cell(x1=min(h_delims, key=lambda d: abs(d - cell.x1)),
                  x2=min(h_delims, key=lambda d: abs(d - cell.x2)),
                  y1=min(v_delims, key=lambda d: abs(d - cell.y1)),
                  y2=min(v_delims, key=lambda d: abs(d - cell.y2)))
        if nc.area > 0:
            normalized.append(nc)
    return normalized


# --- semi-bordered cluster extension (ref semi_bordered.py) ---


def _get_lines_in_cluster(cluster: list[Cell], lines: list[Line]):
    x_min, x_max = min(c.x1 for c in cluster), max(c.x2 for c in cluster)
    y_min, y_max = min(c.y1 for c in cluster), max(c.y2 for c in cluster)
    y_vals = {c.y1 for c in cluster} | {c.y2 for c in cluster}
    h_cl = [ln for ln in lines if ln.horizontal
            and min(abs(ln.y1 - y) for y in y_vals) <= 0.05 * (y_max - y_min)]
    x_vals = {c.x1 for c in cluster} | {c.x2 for c in cluster}
    v_cl = [ln for ln in lines if ln.vertical
            and min(abs(ln.x1 - x) for x in x_vals) <= 0.05 * (x_max - x_min)]
    return h_cl, v_cl


def _identify_table_dimensions(cluster, h_cl, v_cl, char_length):
    if h_cl:
        left = min(ln.x1 for ln in h_cl)
        right = max(ln.x2 for ln in h_cl)
        left_end = [ln for ln in h_cl if ln.x1 - left <= 0.05 * (right - left)]
        if len({id(h_cl[0]), id(h_cl[-1])} - {id(ln) for ln in left_end}) == 0:
            cl_left = min(c.x1 for c in cluster)
            left_val = cl_left if cl_left - left <= 2 * char_length else left
        else:
            left_val = min(c.x1 for c in cluster)
        right_end = [ln for ln in h_cl if right - ln.x2 <= 0.05 * (right - left)]
        if len({id(h_cl[0]), id(h_cl[-1])} - {id(ln) for ln in right_end}) == 0:
            cl_right = max(c.x2 for c in cluster)
            right_val = cl_right if right - cl_right <= 2 * char_length else right
        else:
            right_val = max(c.x2 for c in cluster)
    else:
        left_val, right_val = min(c.x1 for c in cluster), max(c.x2 for c in cluster)

    if v_cl:
        top = min(ln.y1 for ln in v_cl)
        bottom = max(ln.y2 for ln in v_cl)
        top_end = [ln for ln in v_cl if ln.y1 - top <= 0.05 * (bottom - top)]
        if len({id(v_cl[0]), id(v_cl[-1])} - {id(ln) for ln in top_end}) == 0:
            cl_top = min(c.y1 for c in cluster)
            top_val = cl_top if cl_top - top <= 2 * char_length else top
        else:
            top_val = min(c.y1 for c in cluster)
        bottom_end = [ln for ln in v_cl if bottom - ln.y2 <= 0.05 * (bottom - top)]
        if len({id(v_cl[0]), id(v_cl[-1])} - {id(ln) for ln in bottom_end}) == 0:
            cl_bottom = max(c.y2 for c in cluster)
            bottom_val = cl_bottom if bottom - cl_bottom <= 2 * char_length else bottom
        else:
            bottom_val = max(c.y2 for c in cluster)
    else:
        top_val, bottom_val = min(c.y1 for c in cluster), max(c.y2 for c in cluster)

    return left_val, right_val, top_val, bottom_val


def _identify_potential_new_cells(cluster, h_cl, v_cl, left_val, right_val, top_val, bottom_val):
    x_cluster = sorted({c.x1 for c in cluster} | {c.x2 for c in cluster} | {left_val, right_val})
    y_cluster = sorted({c.y1 for c in cluster} | {c.y2 for c in cluster} | {top_val, bottom_val})

    new_cells = []
    for x1, x2 in [(x_cluster[0], x_cluster[1]), (x_cluster[-2], x_cluster[-1])]:
        y_vals = sorted({top_val, bottom_val}
                        | {ln.y1 for ln in h_cl if min(ln.x2, x2) - max(ln.x1, x1) >= 0.9 * (x2 - x1)})
        for y1, y2 in zip(y_vals, y_vals[1:]):
            nc = Cell(x1=x1, y1=y1, x2=x2, y2=y2)
            if nc.area > 0:
                new_cells.append(nc)
    for y1, y2 in [(y_cluster[0], y_cluster[1]), (y_cluster[-2], y_cluster[-1])]:
        x_vals = sorted({left_val, right_val}
                        | {ln.x1 for ln in v_cl if min(ln.y2, y2) - max(ln.y1, y1) >= 0.9 * (y2 - y1)})
        for x1, x2 in zip(x_vals, x_vals[1:]):
            nc = Cell(x1=x1, y1=y1, x2=x2, y2=y2)
            if nc.area > 0:
                new_cells.append(nc)
    # dedup, deterministic order
    return sorted(set(new_cells), key=lambda c: (c.x1, c.y1, c.x2, c.y2))


def _update_cluster_cells(cluster: list[Cell], new_cells: list[Cell]) -> list[Cell]:
    if len(new_cells) == 0:
        return cluster
    cx1, cy1, cx2, cy2 = boxes_of(cluster).T
    carea = (cx2 - cx1) * (cy2 - cy1)

    nx1, ny1, nx2, ny2 = boxes_of(new_cells).T
    narea = (nx2 - nx1) * (ny2 - ny1)

    x_ov = np.maximum(0, np.minimum(nx2[:, None], cx2[None, :]) - np.maximum(nx1[:, None], cx1[None, :]))
    y_ov = np.maximum(0, np.minimum(ny2[:, None], cy2[None, :]) - np.maximum(ny1[:, None], cy1[None, :]))
    pct = (x_ov * y_ov) / np.minimum(narea[:, None], carea[None, :])
    indep = pct.max(axis=1) < 0.5
    indep_idx = np.where(indep)[0]
    if len(indep_idx) == 0:
        return cluster

    # remove duplicates among independent new cells: a cell overlapping a
    # same-or-larger independent cell by >= 50% of the smaller is dropped
    keep = []
    for i in indep_idx:
        dup = False
        for j in indep_idx:
            if i == j or narea[i] > narea[j]:
                continue
            xo = max(0, min(nx2[i], nx2[j]) - max(nx1[i], nx1[j]))
            yo = max(0, min(ny2[i], ny2[j]) - max(ny1[i], ny1[j]))
            if (xo * yo) / min(narea[i], narea[j]) >= 0.5:
                dup = True
                break
        if not dup:
            keep.append(new_cells[i])
    if keep:
        return normalize_table_cells(cluster_cells=cluster + keep)
    return cluster


def add_semi_bordered_cells(cluster: list[Cell], lines: list[Line], char_length: float) -> list[Cell]:
    if len(cluster) == 0:
        return cluster
    h_cl, v_cl = _get_lines_in_cluster(cluster=cluster, lines=lines)
    left_val, right_val, top_val, bottom_val = _identify_table_dimensions(
        cluster, h_cl, v_cl, char_length)
    new_cells = _identify_potential_new_cells(
        cluster, h_cl, v_cl, left_val, right_val, top_val, bottom_val)
    return _update_cluster_cells(cluster=cluster, new_cells=new_cells)


# --- table creation (ref table_creation.py:47-149) ---


def remove_unwanted_elements(table: Table, elements: list[Cell]) -> Table:
    """Drop rows/columns whose cells contain no element >= 60% overlap,
    honoring merged-cell flags (ref table_creation.py:47-99)."""
    if len(elements) == 0 or table.nb_rows * table.nb_columns == 0:
        return Table(rows=[])

    ex1, ey1, ex2, ey2 = boxes_of(elements).T
    earea = (ex2 - ex1) * (ey2 - ey1)

    nb_rows, nb_cols = table.nb_rows, table.nb_columns
    cells = [c for row in table.items for c in row.items]
    cx1, cy1, cx2, cy2 = (b[:, None] for b in boxes_of(cells).T)
    contains = np.zeros(len(cells), dtype=bool)
    for a, b in row_blocks(len(cells), len(elements)):
        xo = np.maximum(0, np.minimum(cx2[a:b], ex2) - np.maximum(cx1[a:b], ex1))
        yo = np.maximum(0, np.minimum(cy2[a:b], ey2) - np.maximum(cy1[a:b], ey1))
        contains[a:b] = ((xo * yo) / earea >= 0.6).any(axis=1)
    contains = contains.reshape(nb_rows, nb_cols)

    coords: dict[tuple, list] = {}
    for k, c in enumerate(cells):
        coords.setdefault((c.x1, c.y1, c.x2, c.y2), []).append(divmod(k, nb_cols))
    merged_col = np.zeros((nb_rows, nb_cols), dtype=bool)  # same bbox spans rows
    merged_row = np.zeros((nb_rows, nb_cols), dtype=bool)  # same bbox spans cols
    for positions in coords.values():
        rows_ = {p[0] for p in positions}
        cols_ = {p[1] for p in positions}
        for ir, ic in positions:
            if len(rows_) > 1:
                merged_col[ir, ic] = True
            if len(cols_) > 1:
                merged_row[ir, ic] = True

    def empty(merged, axis):
        return np.flatnonzero(~contains.any(axis=axis) | (
            ~merged.all(axis=axis) & ~(contains & ~merged).any(axis=axis))).tolist()

    table.remove_rows(row_ids=empty(merged_col, 1))
    table.remove_columns(col_ids=empty(merged_row, 0))
    return table


def cluster_to_table(cluster_cells: list[Cell], elements: list[Cell],
                     borderless: bool = False) -> Table:
    """(ref table_creation.py:102-149).  Each grid slot takes the smallest
    cell (first in cluster order on ties) that covers >= 90% of it among
    the cells covering >= 90% of its row band, as one broadcast over
    (slot x cell)."""
    v_delims = sorted({v for c in cluster_cells for v in (c.y1, c.y2)})
    h_delims = sorted({v for c in cluster_cells for v in (c.x1, c.x2)})
    n_cells = len(cluster_cells)
    cx1, cy1, cx2, cy2 = boxes_of(cluster_cells).T
    carea = (cx2 - cx1) * (cy2 - cy1)
    top, bottom = (np.array(v_delims[:-1])[:, None, None],
                   np.array(v_delims[1:])[:, None, None])
    left, right = (np.array(h_delims[:-1])[None, :, None],
                   np.array(h_delims[1:])[None, :, None])
    band_h = bottom - top
    # (band x cell): the cells spanning >= 90% of a row band
    matching = (np.minimum(cy2, bottom[:, 0]) - np.maximum(cy1, top[:, 0])
                >= 0.9 * band_h[:, 0])
    pick = np.full((max(len(v_delims) - 1, 0), max(len(h_delims) - 1, 0)), -1)
    for a, b in row_blocks(len(pick), pick.shape[1] * n_cells):
        inter = (np.maximum(0, np.minimum(right, cx2) - np.maximum(left, cx1))
                 * np.maximum(0, np.minimum(bottom[a:b], cy2) - np.maximum(top[a:b], cy1)))
        # is_contained_cell(slot, cell, 0.9): inter / slot area >= 0.9
        containing = matching[a:b, None, :] & (inter / ((right - left) * band_h[a:b]) >= 0.9)
        first = np.where(containing, carea, np.inf).argmin(axis=2)
        pick[a:b] = np.where(containing.any(axis=2), first, -1)

    list_rows = []
    for ir, (y_top, y_bottom) in enumerate(zip(v_delims, v_delims[1:])):
        list_cells = []
        for k, (x_left, x_right) in zip(pick[ir].tolist(), zip(h_delims, h_delims[1:])):
            if k >= 0:
                # NB: append the cell OBJECT itself — merged cells share one
                # instance across grid slots (content set once propagates,
                # and the single-unique-cell collapse relies on identity)
                list_cells.append(cluster_cells[k])
            elif matching[ir].any():
                x_value = sorted([v for i in np.flatnonzero(matching[ir]).tolist()
                                  for v in (cluster_cells[i].x1, cluster_cells[i].x2)],
                                 key=lambda x: min(abs(x - x_left), abs(x - x_right)))[0]
                list_cells.append(Cell(x1=x_value, y1=y_top, x2=x_value, y2=y_bottom))
            else:
                list_cells.append(Cell(x1=x_left, y1=y_top, x2=x_right, y2=y_bottom))
        list_rows.append(Row(cells=list_cells))

    table = Table(rows=list_rows, borderless=borderless)
    return remove_unwanted_elements(table=table, elements=elements)


def get_tables(cells: list[Cell], elements: list[Cell], lines: list[Line],
               char_length: float) -> list[Table]:
    """(ref tables/__init__.py:9-33)"""
    list_cluster_cells = cluster_cells_in_tables(cells=cells)
    clusters_normalized = [normalize_table_cells(cl) for cl in list_cluster_cells]
    complete = [add_semi_bordered_cells(cluster=cl, lines=lines, char_length=char_length)
                for cl in clusters_normalized if len(cl) > 0]
    tables = [cluster_to_table(cluster_cells=cl, elements=elements) for cl in complete]
    return [tb for tb in tables if tb.nb_rows * tb.nb_columns >= 2]


def merge_consecutive_tables(tables: list[Table], contours: list[Cell]) -> list[Table]:
    """(ref consecutive.py:6-45)"""
    if len(tables) == 0:
        return []
    seq = iter(sorted(tables, key=lambda t: t.y1))
    clusters = [[next(seq)]]
    for tb in seq:
        prev = clusters[-1][-1]
        in_between = [c for c in contours if c.y1 >= prev.y2 and c.y2 <= tb.y1
                      and c.x2 >= min(prev.x1, tb.x1) and c.x1 <= max(prev.x2, tb.x2)]
        prev_cols = sorted([ln for ln in prev.lines if ln.vertical], key=lambda ln: ln.x1)
        tb_cols = sorted([ln for ln in tb.lines if ln.vertical], key=lambda ln: ln.x1)
        coherency = all(abs(l1.x1 - l2.x1) <= 2 for l1, l2 in zip(prev_cols, tb_cols))
        if not (len(in_between) == 0 and prev.nb_columns == tb.nb_columns and coherency):
            clusters.append([])
        clusters[-1].append(tb)

    merged = []
    for cl in clusters:
        if len(cl) == 1:
            merged += cl
        else:
            merged.append(Table(rows=[row for tb in cl for row in tb.items], borderless=False))
    return merged


def implicit_content(table: Table, contours: list[Cell], char_length: float,
                     implicit_rows: bool = False, implicit_columns: bool = False) -> Table:
    """Recover unruled rows/columns from whitespaces (ref implicit.py:83-115).
    Requires the whitespace machinery from the borderless chain."""
    if not implicit_rows and not implicit_columns:
        return table
    from img2table_ray.extract.borderless.model import ImageSegment
    from img2table_ray.extract.cells import get_cells
    from img2table_ray.extract.implicit import implicit_columns_lines, implicit_rows_lines

    x1, y1, x2, y2 = table.bbox()  # each one a min/max over every cell
    tb_contours = [c for c in contours
                   if c.x1 >= x1 and c.x2 <= x2 and c.y1 >= y1 and c.y2 <= y2]
    segment = ImageSegment(x1=x1, y1=y1, x2=x2, y2=y2, elements=tb_contours)
    lines = table.lines
    if implicit_rows:
        lines += implicit_rows_lines(table=table, segment=segment)
    if implicit_columns:
        lines += implicit_columns_lines(table=table, segment=segment, char_length=char_length)

    cells = get_cells(horizontal_lines=[ln for ln in lines if ln.horizontal],
                      vertical_lines=[ln for ln in lines if ln.vertical])
    return cluster_to_table(cluster_cells=cells, elements=tb_contours, borderless=False)
