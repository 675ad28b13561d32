"""Borderless-table detection (ref: src/img2table/tables/processing/
borderless_tables/*): RLSA text mask -> image elements -> column-layout
segmentation -> table segments -> columns -> row delimiters -> table
creation -> coherency -> dedup vs bordered tables.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from img2table_ray.core.common import boxes_of, is_contained_cell
from img2table_ray.core.objects import Cell, Line, Table
from img2table_ray.extract.borderless.column_segments import segment_image_columns
from img2table_ray.extract.borderless.columns import identify_columns
from img2table_ray.extract.borderless.model import ImageSegment, TableSegment
from img2table_ray.extract.borderless.rlsa import identify_text_mask
from img2table_ray.extract.borderless.rows import identify_delimiter_group_rows
from img2table_ray.extract.borderless.table import identify_table
from img2table_ray.extract.borderless.table_segments import get_table_segments
from img2table_ray.imgops.ccl import connected_components_stats


def get_image_elements(thresh: np.ndarray, char_length: float) -> list[Cell]:
    """(ref layout/image_elements.py:8-28) — findContours RETR_EXTERNAL
    bounding rects == 8-connectivity component bboxes."""
    x, y, w, h = connected_components_stats(thresh)[1:, :4].T.astype(np.int64)
    keep = (((np.minimum(h, w) >= 0.5 * char_length) & (np.maximum(h, w) >= char_length))
            | ((w / h >= 2) & (0.5 * char_length <= w) & (w <= 1.5 * char_length)))
    return [Cell(x1=x1, y1=y1, x2=x2, y2=y2) for x1, y1, x2, y2 in
            np.stack([x, y, x + w, y + h], axis=1)[keep].tolist()]


def segment_image(thresh: np.ndarray, lines: list[Line], char_length: float,
                  median_line_sep: float,
                  existing_tables: Optional[list[Table]] = None) -> list[TableSegment]:
    """(ref layout/__init__.py:16-51)"""
    text_thresh = identify_text_mask(thresh=thresh, lines=lines,
                                     char_length=char_length,
                                     existing_tables=existing_tables)
    img_elements = get_image_elements(thresh=text_thresh, char_length=char_length)
    if len(img_elements) == 0:
        return []

    y_min = min(el.y1 for el in img_elements)
    y_max = max(el.y2 for el in img_elements)
    image_segment = ImageSegment(x1=0, y1=y_min, x2=thresh.shape[1], y2=y_max,
                                 elements=img_elements)
    col_segments = segment_image_columns(image_segment=image_segment,
                                         char_length=char_length, lines=lines)
    return [table_segment for col_segment in col_segments
            for table_segment in get_table_segments(segment=col_segment,
                                                    char_length=char_length,
                                                    median_line_sep=median_line_sep)]


def coherent_table(tb: Table, elements: list[Cell]) -> Optional[Table]:
    """Trim table to rows with >= 3 distinct cells and > 1 contained
    elements (ref borderless_tables/__init__.py:16-58, polars -> numpy)."""
    # the distinct cell boxes of each row holding >= 3 of them
    row_ids, boxes = [], []
    for row_id, row in enumerate(tb.items):
        distinct = {(c.x1, c.y1, c.x2, c.y2) for c in row.items}
        if len(distinct) >= 3:
            row_ids += [row_id] * len(distinct)
            boxes += distinct
    if not boxes:
        return None

    ex1, ey1, ex2, ey2 = boxes_of(elements).T
    cx1, cy1, cx2, cy2 = (b[:, None] for b in np.array(boxes).T)
    xo = np.minimum(cx2, ex2) - np.maximum(cx1, ex1)
    yo = np.minimum(cy2, ey2) - np.maximum(cy1, ey1)
    # (cell x element) pairs where the element lies >= 50% inside the cell
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = (xo > 0) & (yo > 0) & ((xo * yo) / ((ex2 - ex1) * (ey2 - ey1)) >= 0.5)
    counts = np.bincount(row_ids, weights=inside.sum(axis=1))
    matching_rows = np.flatnonzero(counts > 1).tolist()

    if matching_rows:
        new_rows = tb.items[min(matching_rows) : max(matching_rows) + 1]
        if len(new_rows) >= 2:
            return Table(rows=new_rows, borderless=True)
    return None


def deduplicate_tables(identified_tables: list[Table],
                       existing_tables: list[Table]) -> list[Table]:
    """(ref borderless_tables/__init__.py:61-79)"""
    identified_tables = sorted(identified_tables, key=lambda tb: tb.area, reverse=True)
    final_tables: list[Table] = []
    for table in identified_tables:
        if not any(
            max(is_contained_cell(inner_cell=table.cell, outer_cell=tb.cell, percentage=0.1),
                is_contained_cell(inner_cell=tb.cell, outer_cell=table.cell, percentage=0.1))
            for tb in existing_tables + final_tables
        ):
            final_tables.append(table)
    return final_tables


def identify_borderless_tables(thresh: np.ndarray, lines: list[Line], char_length: float,
                               median_line_sep: float, contours: list[Cell],
                               existing_tables: list[Table]) -> list[Table]:
    """(ref borderless_tables/__init__.py:82-126)"""
    table_segments = segment_image(thresh=thresh, lines=lines, char_length=char_length,
                                   median_line_sep=median_line_sep,
                                   existing_tables=existing_tables)

    tables = []
    for table_segment in table_segments:
        column_group = identify_columns(table_segment=table_segment,
                                        char_length=char_length)
        if column_group:
            row_delimiters = identify_delimiter_group_rows(column_group=column_group,
                                                           contours=contours)
            if row_delimiters:
                borderless_table = identify_table(columns=column_group,
                                                  row_delimiters=row_delimiters,
                                                  contours=contours,
                                                  median_line_sep=median_line_sep,
                                                  char_length=char_length)
                if borderless_table:
                    corrected = coherent_table(tb=borderless_table,
                                               elements=table_segment.elements)
                    if corrected:
                        tables.append(corrected)

    return deduplicate_tables(identified_tables=tables, existing_tables=existing_tables)
