"""Core table data model — from-scratch equivalents of the reference's
object graph (ref: src/img2table/tables/objects/*), kept pure-Python/numpy so
they can live inside Ray Data map_batches UDFs.

Semantics follow the reference exactly where outputs are observable:
bbox/height/width/area (objects/__init__.py:4-37), Line.reprocess angle
snapping (line.py:50-66), Row.v_consistent / split (row.py:42-83), Table
row/column removal with gap renormalization (table.py:104-156) and content
collapse (table.py:158-188).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


class TableObject:
    """Box geometry shared by cells, lines, rows and tables: subclasses
    provide x1, y1, x2, y2 (ref objects/__init__.py:4-37)."""

    def bbox(self, margin: int = 0, height_margin: int = 0, width_margin: int = 0) -> tuple:
        if margin != 0:
            return (self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin)
        return (self.x1 - width_margin, self.y1 - height_margin,
                self.x2 + width_margin, self.y2 + height_margin)

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def area(self) -> int:
        return self.height * self.width


@dataclass
class Cell(TableObject):
    x1: int
    y1: int
    x2: int
    y2: int
    content: Optional[str] = None

    def __hash__(self) -> int:
        return hash((self.x1, self.y1, self.x2, self.y2, self.content))


@dataclass
class Line(TableObject):
    x1: int
    y1: int
    x2: int
    y2: int
    thickness: Optional[int] = None

    @property
    def angle(self) -> float:
        return math.atan2(self.y2 - self.y1, self.x2 - self.x1) * 180 / math.pi

    @property
    def length(self) -> float:
        return math.sqrt(self.height ** 2 + self.width ** 2)

    @property
    def horizontal(self) -> bool:
        return self.angle % 180 == 0

    @property
    def vertical(self) -> bool:
        return self.angle % 180 == 90

    def reprocess(self) -> "Line":
        _x1, _x2 = min(self.x1, self.x2), max(self.x1, self.x2)
        _y1, _y2 = min(self.y1, self.y2), max(self.y1, self.y2)
        self.x1, self.x2, self.y1, self.y2 = _x1, _x2, _y1, _y2
        # snap almost-horizontal / almost-vertical lines (ref line.py:56-63)
        if abs(self.angle) <= 5:
            y_val = round((self.y1 + self.y2) / 2)
            self.y2 = self.y1 = y_val
        elif abs(self.angle - 90) <= 5:
            x_val = round((self.x1 + self.x2) / 2)
            self.x2 = self.x1 = x_val
        return self

    def __hash__(self) -> int:
        return hash((self.x1, self.y1, self.x2, self.y2, self.thickness))


def _span(boxes: list) -> tuple:
    """(min x1, min y1, max x2, max y2) over objects with a box."""
    return (min(b.x1 for b in boxes), min(b.y1 for b in boxes),
            max(b.x2 for b in boxes), max(b.y2 for b in boxes))


class Row(TableObject):
    """The bounding box is cached; ``add_cells`` and the ``Table`` methods
    that move cell edges (``remove_rows``, ``remove_columns``) drop it."""

    def __init__(self, cells) -> None:
        if cells is None:
            raise ValueError("cells parameter is null")
        self._items = [cells] if isinstance(cells, Cell) else cells
        self._box: Optional[tuple] = None

    @property
    def items(self) -> list[Cell]:
        return self._items

    @property
    def nb_columns(self) -> int:
        return len(self._items)

    @property
    def box(self) -> tuple:
        if self._box is None:
            self._box = _span(self._items)
        return self._box

    @property
    def x1(self) -> int:
        return self.box[0]

    @property
    def x2(self) -> int:
        return self.box[2]

    @property
    def y1(self) -> int:
        return self.box[1]

    @property
    def y2(self) -> int:
        return self.box[3]

    @property
    def v_consistent(self) -> bool:
        return all((c.y1 == self.y1) and (c.y2 == self.y2) for c in self._items)

    def add_cells(self, cells) -> "Row":
        self._items += [cells] if isinstance(cells, Cell) else cells
        self._box = None
        return self

    def split_in_rows(self, vertical_delimiters: list[int]) -> list["Row"]:
        delims = [self.y1, *vertical_delimiters, self.y2]
        return [Row(cells=[Cell(x1=c.x1, y1=top, x2=c.x2, y2=bottom, content=c.content)
                           for c in self._items])
                for top, bottom in zip(delims, delims[1:])]

    def __eq__(self, other) -> bool:
        return isinstance(other, Row) and self._items == other._items

    def __hash__(self) -> int:
        return hash(tuple(hash(c) for c in self._items))


class Table(TableObject):
    """The bounding box is cached like ``Row``'s; every method that moves
    a cell edge or changes the rows drops the table's and its rows' boxes.
    Merged cells are one instance in several grid slots, so an edge moved
    through one row can move another row's box."""

    def __init__(self, rows=None, borderless: bool = False) -> None:
        if rows is None:
            self._items = []
        elif isinstance(rows, Row):
            self._items = [rows]
        else:
            self._items = rows
        self._title: Optional[str] = None
        self._borderless = borderless
        self._box: Optional[tuple] = None

    def _moved(self) -> None:
        """Drop the cached boxes after cell edges or rows changed."""
        self._box = None
        for row in self._items:
            row._box = None

    @property
    def items(self) -> list[Row]:
        return self._items

    @property
    def title(self) -> Optional[str]:
        return self._title

    def set_title(self, title: str) -> None:
        self._title = title

    @property
    def borderless(self) -> bool:
        return self._borderless

    @property
    def nb_rows(self) -> int:
        return len(self._items)

    @property
    def nb_columns(self) -> int:
        return self._items[0].nb_columns if self._items else 0

    @property
    def box(self) -> tuple:
        if self._box is None:
            self._box = _span(self._items)
        return self._box

    @property
    def x1(self) -> int:
        return self.box[0]

    @property
    def x2(self) -> int:
        return self.box[2]

    @property
    def y1(self) -> int:
        return self.box[1]

    @property
    def y2(self) -> int:
        return self.box[3]

    @property
    def cell(self) -> Cell:
        return Cell(x1=self.x1, y1=self.y1, x2=self.x2, y2=self.y2)

    @property
    def lines(self) -> list[Line]:
        """Grid lines recreated from cell borders (ref table.py:68-102)."""
        h_lines, v_lines = [], []
        for row in self._items:
            for cell in row.items:
                v_lines.append(Line(x1=cell.x1, y1=cell.y1, x2=cell.x1, y2=cell.y2))
                v_lines.append(Line(x1=cell.x2, y1=cell.y1, x2=cell.x2, y2=cell.y2))
                h_lines.append(Line(x1=cell.x1, y1=cell.y1, x2=cell.x2, y2=cell.y1))
                h_lines.append(Line(x1=cell.x1, y1=cell.y2, x2=cell.x2, y2=cell.y2))

        seq = iter(sorted(v_lines, key=lambda ln: (ln.x1, ln.y1)))
        v_groups = [[next(seq)]]
        for line in seq:
            prev = v_groups[-1][-1]
            if line.x1 > prev.x1 or line.y1 > prev.y2:
                v_groups.append([])
            v_groups[-1].append(line)

        seq = iter(sorted(h_lines, key=lambda ln: (ln.y1, ln.x1)))
        h_groups = [[next(seq)]]
        for line in seq:
            prev = h_groups[-1][-1]
            if line.y1 > prev.y1 or line.x1 > prev.x2:
                h_groups.append([])
            h_groups[-1].append(line)

        return [Line(x1=min(ln.x1 for ln in gp), y1=min(ln.y1 for ln in gp),
                     x2=max(ln.x2 for ln in gp), y2=max(ln.y2 for ln in gp))
                for gp in v_groups + h_groups]

    def remove_rows(self, row_ids: list[int]) -> None:
        remaining = [idx for idx in range(self.nb_rows) if idx not in row_ids]
        if len(remaining) > 1:
            gaps = [(i, j) for i, j in zip(remaining, remaining[1:]) if j - i > 1]
            for id_row, id_next in gaps:
                y_gap = round((self._items[id_row].y2 + self._items[id_next].y1) / 2)
                for c in self._items[id_row].items:
                    c.y2 = max(c.y2, y_gap)
                for c in self._items[id_next].items:
                    c.y1 = min(c.y1, y_gap)
        for idx in reversed(row_ids):
            self._items.pop(idx)
        self._moved()

    def remove_columns(self, col_ids: list[int]) -> None:
        import numpy as np

        remaining = [idx for idx in range(self.nb_columns) if idx not in col_ids]
        if len(remaining) > 1:
            gaps = [(i, j) for i, j in zip(remaining, remaining[1:]) if j - i > 1]
            for id_col, id_next in gaps:
                x_gap = round(
                    np.mean([row.items[id_col].x2 + row.items[id_next].x1 for row in self._items]) / 2
                )
                for row in self._items:
                    row.items[id_col].x2 = max(row.items[id_col].x2, x_gap)
                    row.items[id_next].x1 = min(row.items[id_next].x1, x_gap)
        for idx in reversed(col_ids):
            for row in self._items:
                row.items.pop(idx)
        self._moved()

    def get_content(self, ocr_words, min_confidence: int = 50) -> "Table":
        """Fill cell text from OCR words, drop empty rows/cols, collapse
        single-unique-cell tables (ref table.py:158-188)."""
        from img2table_ray.extract.content import assign_text_to_table

        assign_text_to_table(table=self, words=ocr_words, min_confidence=min_confidence)

        empty_rows = [idx for idx, row in enumerate(self._items)
                      if all(c.content is None for c in row.items)]
        self.remove_rows(row_ids=empty_rows)

        empty_cols = [idx for idx in range(self.nb_columns)
                      if all(row.items[idx].content is None for row in self._items)]
        self.remove_columns(col_ids=empty_cols)

        unique_cells = {cell for row in self._items for cell in row.items}
        if len(unique_cells) == 1:
            self._items = [Row(cells=self._items[0].items[0])]
            self._box = None
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Table)
            and self._items == other._items
            and self._title == other._title
        )

    def __hash__(self) -> int:
        return hash((tuple(hash(r) for r in self._items), self._title))


# --- final extraction model (ref tables/objects/extraction.py) ---


@dataclass
class BBox:
    x1: int
    y1: int
    x2: int
    y2: int


@dataclass
class TableCell:
    bbox: BBox
    value: Optional[str]

    def __hash__(self) -> int:
        return hash(repr(self))


@dataclass
class ExtractedTable:
    bbox: BBox
    title: Optional[str]
    content: "dict[int, list[TableCell]]"

    @property
    def nb_rows(self) -> int:
        return len(self.content)

    @property
    def nb_columns(self) -> int:
        return len(self.content[0]) if self.content else 0

    def df_values(self) -> list[list[Optional[str]]]:
        return [[c.value for c in row] for row in self.content.values()]

    def canonical_text(self) -> str:
        """Canonical byte-stable serialization of the extracted content:
        title, bbox and the row/col/value grid.  This is the per-url
        invariant string compared against the reference."""
        lines = [
            f"title={self.title if self.title is not None else ''}",
            f"bbox=({self.bbox.x1},{self.bbox.y1},{self.bbox.x2},{self.bbox.y2})",
            f"shape=({self.nb_rows},{self.nb_columns})",
        ]
        for idx, row in self.content.items():
            for col, cell in enumerate(row):
                v = cell.value if cell.value is not None else ""
                lines.append(
                    f"[{idx},{col}]({cell.bbox.x1},{cell.bbox.y1},"
                    f"{cell.bbox.x2},{cell.bbox.y2})={v}"
                )
        return "\n".join(lines)

    @property
    def html(self) -> str:
        """Minimal HTML rendering with merged-cell span recovery."""
        from img2table_ray.core.spans import html_table

        return html_table(self)


def table_to_extracted(table: Table) -> ExtractedTable:
    from collections import OrderedDict

    bbox = BBox(x1=table.x1, x2=table.x2, y1=table.y1, y2=table.y2)
    content = OrderedDict(
        {
            idx: [TableCell(bbox=BBox(x1=c.x1, x2=c.x2, y1=c.y1, y2=c.y2), value=c.content)
                  for c in row.items]
            for idx, row in enumerate(table.items)
        }
    )
    return ExtractedTable(bbox=bbox, title=table.title, content=content)
