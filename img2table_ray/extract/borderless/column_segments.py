"""Multi-column page layout segmentation (ref: src/img2table/tables/
processing/borderless_tables/layout/column_segments.py).

⚠ The reference breaks priority-queue ties with an unseeded
``random.uniform(0, 1)`` (column_segments.py:89).  We use a deterministic
monotone counter instead — ordering-only, results are order-insensitive
downstream, and determinism is required for reproducible runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from img2table_ray.core.common import boxes_of, cells_within, cluster_items
from img2table_ray.core.objects import Cell, Line
from img2table_ray.extract.borderless.model import ImageSegment
from img2table_ray.extract.borderless.whitespaces import get_whitespaces


@dataclass
class Rectangle:
    x1: int
    y1: int
    x2: int
    y2: int

    @classmethod
    def from_cell(cls, cell: Cell) -> "Rectangle":
        return cls(x1=cell.x1, y1=cell.y1, x2=cell.x2, y2=cell.y2)

    @property
    def area(self) -> int:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + self.x2) / 2, (self.y1 + self.y2) / 2

    def distance(self, other: "Rectangle") -> float:
        return (self.center[0] - other.center[0]) ** 2 + (self.center[1] - other.center[1]) ** 2

    def overlaps(self, other: "Rectangle") -> bool:
        x_left = max(self.x1, other.x1)
        y_top = max(self.y1, other.y1)
        x_right = min(self.x2, other.x2)
        y_bottom = min(self.y2, other.y2)
        return max(x_right - x_left, 0) * max(y_bottom - y_top, 0) > 0


def identify_remaining_segments(searched_rectangle: Rectangle,
                                existing_segments: list) -> list[Cell]:
    """Max-empty-rectangle decomposition via priority queue
    (ref column_segments.py:48-91; deterministic tiebreak)."""
    obstacles = [Rectangle.from_cell(cell=el) for el in existing_segments]

    counter = 0
    heap: list = [(-searched_rectangle.area, counter, searched_rectangle, obstacles)]
    segments: list[Rectangle] = []

    while heap:
        _, _, r, obs = heapq.heappop(heap)
        if len(obs) == 0:
            segments.append(r)
            # add the new segment as an obstacle to overlapping queue entries
            for entry in heap:
                if entry[2].overlaps(r):
                    entry[3].append(r)
            continue

        pivot = sorted(obs, key=lambda o: o.distance(r))[0]
        rects = [Rectangle(x1=pivot.x2, y1=r.y1, x2=r.x2, y2=r.y2),
                 Rectangle(x1=r.x1, y1=r.y1, x2=pivot.x1, y2=r.y2),
                 Rectangle(x1=r.x1, y1=pivot.y2, x2=r.x2, y2=r.y2),
                 Rectangle(x1=r.x1, y1=r.y1, x2=r.x2, y2=pivot.y1)]
        for rect in rects:
            if rect.area > searched_rectangle.area / 100:
                rect_obstacles = [o for o in obs if o.overlaps(rect)]
                counter += 1
                heapq.heappush(heap, (-rect.area + counter * 1e-9, counter, rect, rect_obstacles))

    return [Cell(x1=seg.x1, y1=seg.y1, x2=seg.x2, y2=seg.y2) for seg in segments]


def get_vertical_ws(image_segment: ImageSegment, char_length: float,
                    lines: list[Line]) -> list[Cell]:
    """(ref column_segments.py:94-157)"""
    v_ws = get_whitespaces(segment=image_segment, vertical=True, pct=0.5)
    v_ws = [ws for ws in v_ws
            if ws.width >= char_length or ws.x1 == image_segment.x1 or ws.x2 == image_segment.x2]
    if len(v_ws) == 0:
        return []

    line_ws = []
    h_lines = [ln for ln in lines if ln.horizontal]
    for ws in v_ws:
        crossing = sorted(
            [ln for ln in h_lines if ws.y1 < ln.y1 < ws.y2
             and min(ws.x2, ln.x2) - max(ws.x1, ln.x1) >= 0.5 * ws.width],
            key=lambda ln: ln.y1)
        if crossing:
            y_values = sorted([ws.y1, ws.y2]
                              + [ln.y1 - ln.thickness for ln in crossing]
                              + [ln.y1 + ln.thickness for ln in crossing])
            for y_top, y_bottom in [y_values[i : i + 2] for i in range(0, len(y_values), 2)]:
                if y_bottom - y_top >= 0.5 * image_segment.height:
                    line_ws.append(Cell(x1=ws.x1, y1=y_top, x2=ws.x2, y2=y_bottom))
        else:
            line_ws.append(Cell(x1=ws.x1, y1=ws.y1, x2=ws.x2, y2=ws.y2))

    if len(line_ws) == 0:
        return []

    line_ws = sorted(line_ws, key=lambda ws: ws.x1 + ws.x2)
    seq = iter(line_ws)
    groups = [[next(seq)]]
    for ws in seq:
        prev_ws = groups[-1][-1]
        x1_area, x2_area = min(prev_ws.x2, ws.x1), max(prev_ws.x2, ws.x1)
        y1_area, y2_area = max(prev_ws.y1, ws.y1), min(prev_ws.y2, ws.y2)
        separating = [el for el in image_segment.elements
                      if el.x1 >= x1_area and el.x2 <= x2_area
                      and el.y1 >= y1_area and el.y2 <= y2_area]
        if separating:
            groups.append([])
        groups[-1].append(ws)

    return [sorted([ws for ws in cl if ws.height == max(w.height for w in cl)],
                   key=lambda w: w.area)[-1]
            for cl in groups]


def is_column_section(ws_group: list[Cell]) -> bool:
    """(ref column_segments.py:163-174)"""
    if not 3 <= len(ws_group) <= 4:
        return False
    ws_group = sorted(ws_group, key=lambda ws: ws.x1 + ws.x2)
    col_widths = [r.x1 - l.x2 for l, r in zip(ws_group, ws_group[1:])]
    return max(col_widths) / min(col_widths) <= 1.25


def top_matches(col_1: Cell, col_2: Cell) -> bool:
    return abs(col_1.y1 - col_2.y1) / max(col_1.height, col_2.height) <= 0.05


def bottom_matches(col_1: Cell, col_2: Cell) -> bool:
    return abs(col_1.y2 - col_2.y2) / max(col_1.height, col_2.height) <= 0.05


def identify_column_groups(image_segment: ImageSegment,
                           vertical_ws: list[Cell]) -> list[list[Cell]]:
    """(ref column_segments.py:197-237)"""
    middle_ws = [ws for ws in vertical_ws
                 if len({ws.x1, ws.x2} & {image_segment.x1, image_segment.x2}) == 0]
    edge_ws = [ws for ws in vertical_ws
               if len({ws.x1, ws.x2} & {image_segment.x1, image_segment.x2}) > 0]

    top_groups = [cl + edge_ws for cl in cluster_items(items=middle_ws, clustering_func=top_matches)]
    bottom_groups = [cl + edge_ws for cl in cluster_items(items=middle_ws, clustering_func=bottom_matches)]

    col_groups = sorted([gp for gp in top_groups + bottom_groups if is_column_section(gp)],
                        key=len, reverse=True)

    filtered = []
    for col_gp in col_groups:
        y_min = min(ws.y1 for ws in col_gp)
        y_max = max(ws.y2 for ws in col_gp)
        matching = [ws for ws in vertical_ws
                    if min(ws.y2, y_max) - max(ws.y1, y_min) > 0.2 * ws.height
                    and len({ws.x1, ws.x2} & {image_segment.x1, image_segment.x2}) == 0]
        if len(set(matching) - set(col_gp)) == 0:
            filtered.append(col_gp)

    if len(filtered) == 0:
        return []

    seq = iter(filtered)
    dedup = [next(seq)]
    for col_gp in seq:
        if not any(set(col_gp) & set(gp) == set(col_gp) for gp in dedup):
            dedup.append(col_gp)
    return dedup


def get_column_group_segments(col_group: list[Cell]) -> list[ImageSegment]:
    """(ref column_segments.py:240-266)"""
    col_group = sorted(col_group, key=lambda ws: ws.x1 + ws.x2)
    col_segments = []
    for left_ws, right_ws in zip(col_group, col_group[1:]):
        col_segments.append(ImageSegment(
            x1=round((left_ws.x1 + left_ws.x2) / 2),
            y1=max(left_ws.y1, right_ws.y1),
            x2=round((right_ws.x1 + right_ws.x2) / 2),
            y2=min(left_ws.y2, right_ws.y2)))

    cols_rectangle = Rectangle(x1=min(s.x1 for s in col_segments),
                               y1=min(s.y1 for s in col_segments),
                               x2=max(s.x2 for s in col_segments),
                               y2=max(s.y2 for s in col_segments))
    remaining = [ImageSegment(x1=a.x1, y1=a.y1, x2=a.x2, y2=a.y2)
                 for a in identify_remaining_segments(searched_rectangle=cols_rectangle,
                                                      existing_segments=col_segments)]
    return col_segments + remaining


def get_segments_from_columns(image_segment: ImageSegment,
                              column_groups: list[list[Cell]]) -> list[ImageSegment]:
    """(ref column_segments.py:269-305)"""
    col_group_segments = [seg for gp in column_groups for seg in get_column_group_segments(gp)]

    top_segment = ImageSegment(x1=image_segment.x1, y1=image_segment.y1,
                               x2=image_segment.x2,
                               y2=min(s.y1 for s in col_group_segments))
    bottom_segment = ImageSegment(x1=image_segment.x1,
                                  y1=max(s.y2 for s in col_group_segments),
                                  x2=image_segment.x2, y2=image_segment.y2)
    left_segment = ImageSegment(x1=image_segment.x1,
                                y1=min(s.y1 for s in col_group_segments),
                                x2=min(s.x1 for s in col_group_segments),
                                y2=max(s.y2 for s in col_group_segments))
    right_segment = ImageSegment(x1=max(s.x2 for s in col_group_segments),
                                 y1=min(s.y1 for s in col_group_segments),
                                 x2=image_segment.x2,
                                 y2=max(s.y2 for s in col_group_segments))

    img_segments = [*col_group_segments, top_segment, bottom_segment, left_segment, right_segment]
    missing = [ImageSegment(x1=a.x1, y1=a.y1, x2=a.x2, y2=a.y2)
               for a in identify_remaining_segments(
                   searched_rectangle=Rectangle(x1=image_segment.x1, y1=image_segment.y1,
                                                x2=image_segment.x2, y2=image_segment.y2),
                   existing_segments=img_segments)]
    return img_segments + missing


def segment_image_columns(image_segment: ImageSegment, char_length: float,
                          lines: list[Line]) -> list[ImageSegment]:
    """(ref column_segments.py:308-341)"""
    vertical_ws = get_vertical_ws(image_segment=image_segment, char_length=char_length,
                                  lines=lines)
    column_groups = identify_column_groups(image_segment=image_segment,
                                           vertical_ws=vertical_ws)
    if len(column_groups) == 0:
        return [image_segment]

    col_segments = get_segments_from_columns(image_segment=image_segment,
                                             column_groups=column_groups)

    final_segments = []
    boxes = boxes_of(image_segment.elements)
    for segment in col_segments:
        segment_elements = cells_within(image_segment.elements, segment, boxes)
        if segment_elements:
            segment.set_elements(elements=segment_elements)
            final_segments.append(segment)
    return final_segments
