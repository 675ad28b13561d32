"""Column identification across table areas (ref: src/img2table/tables/
processing/borderless_tables/columns.py).
"""

from __future__ import annotations

from typing import Optional

from img2table_ray.core.common import cells_within
from img2table_ray.core.objects import Cell
from img2table_ray.extract.borderless.model import (
    Column,
    ColumnGroup,
    TableSegment,
    VerticalWS,
    Whitespace,
)


def get_columns_delimiters(table_segment: TableSegment, char_length: float) -> list[Column]:
    """(ref columns.py:9-75)"""
    table_areas = sorted(table_segment.table_areas, key=lambda x: x.position)

    columns: list[Column] = []
    for id_area, tb_area in enumerate(table_areas):
        new_columns = []
        whitespaces = [VerticalWS(ws=ws,
                                  top=ws.y1 == tb_area.y1,
                                  bottom=ws.y2 == tb_area.y2,
                                  position=id_area)
                       for ws in tb_area.whitespaces]

        for col in columns:
            matching_ws = [v_ws for v_ws in whitespaces
                           if col.corresponds(v_ws=v_ws, char_length=char_length)]
            if matching_ws:
                for v_ws in matching_ws:
                    v_ws.used = True
                    # the reference deep-copies the column; nothing below
                    # mutates a whitespace of an earlier area, so a new
                    # list over the same whitespaces is the same column
                    new_col = Column(whitespaces=list(col.whitespaces), top=col.top,
                                     bottom=col.bottom, top_position=col.top_position,
                                     bottom_position=col.bottom_position)
                    new_col.add(v_ws)
                    new_columns.append(new_col)
            else:
                new_columns.append(col)

        new_columns += [Column.from_ws(v_ws=v_ws) for v_ws in whitespaces if not v_ws.used]
        columns = new_columns

    # Recompute boundaries of columns (up to previous/next area)
    dict_bounds = {k: {"y_min": table_areas[k].y1, "y_max": table_areas[k].y2}
                   for k in range(len(table_areas))}
    reshaped_columns = []
    for col in columns:
        reshaped_whitespaces = []
        for v_ws in col.whitespaces:
            # NB: operator precedence preserved from the reference
            # (columns.py:60-61): `a or b if cond else b` parses as
            # `(a or b) if cond else b`
            y_min = (dict_bounds.get(v_ws.position - 1, {}).get("y_max") or v_ws.y1) \
                if v_ws.top else v_ws.y1
            y_max = (dict_bounds.get(v_ws.position + 1, {}).get("y_min") or v_ws.y2) \
                if v_ws.bottom else v_ws.y2
            reshaped_v_ws = VerticalWS(ws=Whitespace(cells=[
                Cell(x1=col.x1,
                     y1=y_min if c.y1 == v_ws.y1 else c.y1,
                     x2=col.x2,
                     y2=y_max if c.y2 == v_ws.y2 else c.y2)
                for c in v_ws.ws.cells]))
            reshaped_whitespaces.append(reshaped_v_ws)
        reshaped_columns.append(Column(whitespaces=reshaped_whitespaces))

    max_height = max(col.height for col in reshaped_columns)
    return [col for col in reshaped_columns if col.height >= 0.66 * max_height]


def identify_columns(table_segment: TableSegment, char_length: float) -> Optional[ColumnGroup]:
    """(ref columns.py:78-100)"""
    columns = get_columns_delimiters(table_segment=table_segment, char_length=char_length)
    if columns:
        bbox = Cell(x1=min(d.x1 for d in columns), y1=min(d.y1 for d in columns),
                    x2=max(d.x2 for d in columns), y2=max(d.y2 for d in columns))
        column_group = ColumnGroup(
            columns=columns,
            elements=cells_within(table_segment.elements, bbox),
            char_length=char_length)
        return (column_group
                if len(column_group.columns) >= 4 and len(column_group.elements) > 0
                else None)
    return None
