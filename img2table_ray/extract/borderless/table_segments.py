"""Table-segment identification inside column segments (ref: src/img2table/
tables/processing/borderless_tables/layout/table_segments.py).
"""

from __future__ import annotations

import numpy as np

from img2table_ray.core.common import boxes_of, cells_within, is_contained_cell
from img2table_ray.core.objects import Cell
from img2table_ray.extract.borderless.model import ImageSegment, TableSegment, Whitespace
from img2table_ray.extract.borderless.whitespaces import (
    get_relevant_vertical_whitespaces,
    get_whitespaces,
)


def get_table_areas(segment: ImageSegment, char_length: float,
                    median_line_sep: float) -> list[ImageSegment]:
    """(ref table_segments.py:11-100)"""
    h_ws = get_whitespaces(segment=segment, vertical=False, pct=1,
                           min_width=0.5 * median_line_sep)
    h_ws = sorted(h_ws, key=lambda ws: ws.y1)

    if len(h_ws) == 0:
        h_ws = [Whitespace(cells=[Cell(x1=min(el.x1 for el in segment.elements),
                                       x2=max(el.x2 for el in segment.elements),
                                       y1=segment.y1, y2=segment.y1)]),
                Whitespace(cells=[Cell(x1=min(el.x1 for el in segment.elements),
                                       x2=max(el.x2 for el in segment.elements),
                                       y1=segment.y2, y2=segment.y2)])]

    if h_ws[0].y1 > segment.y1:
        h_ws.insert(0, Whitespace(cells=[Cell(x1=min(ws.x1 for ws in h_ws),
                                              x2=max(ws.x2 for ws in h_ws),
                                              y1=segment.y1,
                                              y2=min(el.y1 for el in segment.elements))]))
    if h_ws[-1].y2 < segment.y2:
        h_ws.append(Whitespace(cells=[Cell(x1=min(ws.x1 for ws in h_ws),
                                           x2=max(ws.x2 for ws in h_ws),
                                           y1=segment.y2,
                                           y2=max(el.y2 for el in segment.elements))]))

    table_areas = []
    boxes = boxes_of(segment.elements)
    for idx, (up, down) in enumerate(zip(h_ws, h_ws[1:])):
        delimited = Cell(x1=max(min(up.x1, down.x1) - int(char_length), 0),
                         y1=up.y2,
                         x2=min(max(up.x2, down.x2) + int(char_length), segment.x2),
                         y2=down.y1)
        area_elements = cells_within(segment.elements, delimited, boxes)
        seg_area = ImageSegment(x1=delimited.x1, x2=delimited.x2, y1=delimited.y1,
                                y2=delimited.y2, elements=area_elements, position=idx + 1)
        if area_elements:
            v_ws = get_relevant_vertical_whitespaces(segment=seg_area, char_length=char_length,
                                                     median_line_sep=median_line_sep, pct=0.66)
            middle_ws = [ws for ws in v_ws if ws.x1 != seg_area.x1 and ws.x2 != seg_area.x2]
            if len(middle_ws) >= 1:
                left_ws = Whitespace(cells=[Cell(x1=seg_area.x1, y1=seg_area.y1,
                                                 x2=min(el.x1 for el in seg_area.elements),
                                                 y2=seg_area.y2)])
                right_ws = Whitespace(cells=[Cell(x1=max(el.x2 for el in seg_area.elements),
                                                  y1=seg_area.y1, x2=seg_area.x2,
                                                  y2=seg_area.y2)])
                max_middle_h = max(w.height for w in middle_ws)
                v_ws = [ws for ws in v_ws
                        if not is_contained_cell(inner_cell=ws, outer_cell=left_ws, percentage=0.1)
                        and not is_contained_cell(inner_cell=ws, outer_cell=right_ws, percentage=0.1)
                        and ((len({ws.y1, ws.y2} & {seg_area.y1, seg_area.y2}) > 0)
                             or (ws.height >= 0.66 * max_middle_h))]
                seg_area.set_whitespaces(
                    whitespaces=sorted([*v_ws, left_ws, right_ws], key=lambda ws: ws.x1 + ws.x2))
                table_areas.append(seg_area)
    return table_areas


def merge_consecutive_ws(whitespaces: list[Whitespace]) -> list[Cell]:
    """(ref table_segments.py:103-121)"""
    whitespaces = sorted(whitespaces, key=lambda ws: ws.x1 + ws.x2)
    seq = iter(whitespaces)
    groups = [[next(seq)]]
    for ws in seq:
        if ws.x1 > groups[-1][-1].x2:
            groups.append([])
        groups[-1].append(ws)
    return [Cell(x1=gp[0].x1, x2=gp[-1].x2,
                 y1=min(ws.y1 for ws in gp), y2=max(ws.y2 for ws in gp))
            for gp in groups]


def coherent_table_areas(tb_area_1: ImageSegment, tb_area_2: ImageSegment,
                         char_length: float, median_line_sep: float) -> bool:
    """(ref table_segments.py:124-170)"""
    v_diff = max(tb_area_1.y1, tb_area_2.y1) - min(tb_area_1.y2, tb_area_2.y2)
    if abs(tb_area_1.position - tb_area_2.position) != 1 or v_diff > 2.5 * median_line_sep:
        return False

    if tb_area_1.position < tb_area_2.position:
        ws_tb_1 = merge_consecutive_ws([ws for ws in tb_area_1.whitespaces if ws.y2 == tb_area_1.y2])
        ws_tb_2 = merge_consecutive_ws([ws for ws in tb_area_2.whitespaces if ws.y1 == tb_area_2.y1])
    else:
        ws_tb_1 = merge_consecutive_ws([ws for ws in tb_area_1.whitespaces if ws.y1 == tb_area_1.y1])
        ws_tb_2 = merge_consecutive_ws([ws for ws in tb_area_2.whitespaces if ws.y2 == tb_area_2.y2])

    if len(ws_tb_1) >= len(ws_tb_2):
        coherency = {
            idx_1: [w2 for w2 in ws_tb_2
                    if min(w1.x2, w2.x2) - max(w1.x1, w2.x1) >= 0.5 * char_length]
            for idx_1, w1 in enumerate(ws_tb_1[1:-1])
        }
    else:
        coherency = {
            idx_2: [w1 for w1 in ws_tb_1
                    if min(w1.x2, w2.x2) - max(w1.x1, w2.x1) >= 0.5 * char_length]
            for idx_2, w2 in enumerate(ws_tb_2[1:-1])
        }

    if min(len(ws_tb_1), len(ws_tb_2)) < 4:
        threshold = 1
    elif v_diff < median_line_sep:
        threshold = 0.66
    else:
        threshold = 0.8

    return np.mean([int(len(v) == 1) for v in coherency.values()]) >= threshold


def get_table_segments(segment: ImageSegment, char_length: float,
                       median_line_sep: float) -> list[TableSegment]:
    """(ref table_segments.py:192-221)"""
    table_areas = get_table_areas(segment=segment, char_length=char_length,
                                  median_line_sep=median_line_sep)
    if len(table_areas) == 0:
        return []

    table_areas = sorted(table_areas, key=lambda tb: tb.position)
    seq = iter(table_areas)
    groups = [[next(seq)]]
    for tb_area in seq:
        prev = groups[-1][-1]
        if not coherent_table_areas(tb_area_1=prev, tb_area_2=tb_area,
                                    char_length=char_length, median_line_sep=median_line_sep):
            groups.append([])
        groups[-1].append(tb_area)

    return [TableSegment(table_areas=gp) for gp in groups
            if max(len(a.whitespaces) for a in gp) > 3]
