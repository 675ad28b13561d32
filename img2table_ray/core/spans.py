"""Merged-cell span recovery + HTML rendering
(ref: src/img2table/tables/objects/extraction.py:28-174).

Merged cells appear duplicated in every grid slot they cover; spans are
recovered by grouping identical TableCell objects and tiling each group with
maximal fully-covered rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional


class CellPosition(NamedTuple):
    cell: object  # TableCell
    row: int
    col: int


@dataclass
class CellSpan:
    top_row: int
    bottom_row: int
    col_left: int
    col_right: int
    value: Optional[str]

    @property
    def colspan(self) -> int:
        return self.col_right - self.col_left + 1

    @property
    def rowspan(self) -> int:
        return self.bottom_row - self.top_row + 1

    def html_cell_span(self) -> list["CellSpan"]:
        if self.colspan > 1 and self.rowspan > 1:
            if self.colspan > self.rowspan:
                return [CellSpan(top_row=r, bottom_row=r, col_left=self.col_left,
                                 col_right=self.col_right, value=self.value)
                        for r in range(self.top_row, self.bottom_row + 1)]
            return [CellSpan(top_row=self.top_row, bottom_row=self.bottom_row,
                             col_left=c, col_right=c, value=self.value)
                    for c in range(self.col_left, self.col_right + 1)]
        return [self]


def create_all_rectangles(cell_positions: list[CellPosition]) -> list[CellSpan]:
    """Tile a duplicated-cell group with maximal fully-covered rectangles
    (ref extraction.py:81-126)."""
    cell_value = cell_positions[0].cell.value
    min_col = min(cp.col for cp in cell_positions)
    max_col = max(cp.col for cp in cell_positions)
    min_row = min(cp.row for cp in cell_positions)
    max_row = max(cp.row for cp in cell_positions)

    largest_area, area_cell_pos, cell_span = 0, None, None
    for col_left in range(min_col, max_col + 1):
        for col_right in range(col_left, max_col + 1):
            for top_row in range(min_row, max_row + 1):
                for bottom_row in range(top_row, max_row + 1):
                    matching = [cp for cp in cell_positions
                                if col_left <= cp.col <= col_right and top_row <= cp.row <= bottom_row]
                    fully_covered = (
                        len(matching) == (col_right - col_left + 1) * (bottom_row - top_row + 1)
                    )
                    if fully_covered and len(matching) > largest_area:
                        largest_area = len(matching)
                        area_cell_pos = matching
                        cell_span = CellSpan(col_left=col_left, top_row=top_row,
                                             col_right=col_right, bottom_row=bottom_row,
                                             value=cell_value)

    remaining = [cp for cp in cell_positions if cp not in area_cell_pos]
    if remaining:
        return [cell_span, *create_all_rectangles(remaining)]
    return [cell_span]


def _escape_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def html_table(extracted) -> str:
    """Render an ExtractedTable as an HTML <table> with recovered spans,
    byte-identical to the reference's bs4-prettified output
    (extraction.py:144-174): one tag per line, 1-space indent per depth,
    text on its own line, `\\n` in values rendered as `<br/>`."""
    # Group cell positions by identical TableCell (merged cells duplicate)
    groups: dict = {}
    for row_idx, row in extracted.content.items():
        for col_idx, cell in enumerate(row):
            groups.setdefault(
                (cell.bbox.x1, cell.bbox.y1, cell.bbox.x2, cell.bbox.y2, cell.value), []
            ).append(CellPosition(cell=cell, row=row_idx, col=col_idx))

    spans = []
    for cell_positions in groups.values():
        for span in create_all_rectangles(cell_positions):
            spans.extend(span.html_cell_span())

    lines = ["<table>"]
    for row_idx in range(len(extracted.content)):
        row_spans = sorted([s for s in spans if s.top_row == row_idx],
                           key=lambda s: s.col_left)
        lines.append(" <tr>")
        for s in row_spans:
            lines.append(f'  <td colspan="{s.colspan}" rowspan="{s.rowspan}">')
            if s.value is not None and s.value != "":
                parts = s.value.split("\n")
                for i, part in enumerate(parts):
                    if part:
                        lines.append(f"   {_escape_text(part)}")
                    if i < len(parts) - 1:
                        lines.append("   <br/>")
            lines.append("  </td>")
        lines.append(" </tr>")
    lines.append("</table>")
    return "\n".join(lines)
