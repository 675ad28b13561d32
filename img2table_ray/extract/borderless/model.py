"""Borderless-table intermediate model
(ref: src/img2table/tables/processing/borderless_tables/model.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from img2table_ray.core.objects import Cell


class once:
    """A property computed on first use and then stored on the instance,
    where later reads find it without calling back (``cached_property``
    without its lock, which Python 3.11 takes on every first use)."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass
class Whitespace:
    """Geometry is computed on first use: nothing changes ``cells`` after
    a whitespace is built."""

    cells: list[Cell]

    @once
    def x1(self) -> int:
        return min(c.x1 for c in self.cells)

    @once
    def y1(self) -> int:
        return min(c.y1 for c in self.cells)

    @once
    def x2(self) -> int:
        return max(c.x2 for c in self.cells)

    @once
    def y2(self) -> int:
        return max(c.y2 for c in self.cells)

    @once
    def width(self) -> int:
        return sum(c.width for c in self.cells)

    @once
    def height(self) -> int:
        return sum(c.height for c in self.cells)

    @once
    def area(self) -> int:
        return sum(c.area for c in self.cells)

    @property
    def continuous(self) -> bool:
        return len(self.cells) == 1

    def flipped(self) -> "Whitespace":
        return Whitespace(cells=[Cell(x1=c.y1, y1=c.x1, x2=c.y2, y2=c.x2) for c in self.cells])

    def __contains__(self, item: "Whitespace") -> bool:
        return (self.x1 <= item.x1 and self.y1 <= item.y1
                and self.x2 >= item.x2 and self.y2 >= item.y2)

    def __hash__(self) -> int:
        return hash(tuple(hash(c) for c in self.cells))


@dataclass
class ImageSegment:
    x1: int
    y1: int
    x2: int
    y2: int
    elements: Optional[list[Cell]] = None
    whitespaces: Optional[list["Whitespace"]] = None
    position: Optional[int] = None

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def element_height(self) -> int:
        if self.elements:
            return max(el.y2 for el in self.elements) - min(el.y1 for el in self.elements)
        return self.height

    def set_elements(self, elements: list[Cell]) -> None:
        self.elements = elements

    def set_whitespaces(self, whitespaces: list["Whitespace"]) -> None:
        self.whitespaces = whitespaces

    def __hash__(self) -> int:
        return hash((self.x1, self.y1, self.x2, self.y2, self.position))


@dataclass
class TableSegment:
    """Computed on first use: the areas are complete when a segment is
    built."""

    table_areas: list[ImageSegment]

    @once
    def x1(self) -> int:
        return min(a.x1 for a in self.table_areas)

    @once
    def y1(self) -> int:
        return min(a.y1 for a in self.table_areas)

    @once
    def x2(self) -> int:
        return max(a.x2 for a in self.table_areas)

    @once
    def y2(self) -> int:
        return max(a.y2 for a in self.table_areas)

    @once
    def elements(self) -> list[Cell]:
        return [el for a in self.table_areas for el in a.elements]

    @once
    def whitespaces(self) -> list[Whitespace]:
        return [ws for a in self.table_areas for ws in a.whitespaces]


@dataclass
class VerticalWS:
    ws: Whitespace
    position: int = 0
    top: bool = True
    bottom: bool = True
    used: bool = False

    @property
    def x1(self) -> int:
        return self.ws.x1

    @property
    def y1(self) -> int:
        return self.ws.y1

    @property
    def x2(self) -> int:
        return self.ws.x2

    @property
    def y2(self) -> int:
        return self.ws.y2

    @property
    def width(self) -> int:
        return self.ws.x2 - self.ws.x1

    @property
    def height(self) -> int:
        return self.ws.y2 - self.ws.y1

    @property
    def continuous(self) -> bool:
        return self.ws.continuous


@dataclass
class Column:
    """``x1``/``x2`` are the innermost whitespace edges, ``y1``/``y2`` the
    outermost; they are kept up to date by ``add``, the one way a column
    grows."""

    whitespaces: list[VerticalWS]
    top: bool = True
    bottom: bool = True
    top_position: int = 0
    bottom_position: int = 0

    def __post_init__(self) -> None:
        self.x1 = max(v.ws.x1 for v in self.whitespaces)
        self.y1 = min(v.ws.y1 for v in self.whitespaces)
        self.x2 = min(v.ws.x2 for v in self.whitespaces)
        self.y2 = max(v.ws.y2 for v in self.whitespaces)

    @property
    def height(self) -> int:
        """The number of distinct integer y in the cells' closed [y1, y2]
        spans, less one: the length of the union of the spans."""
        spans = sorted((c.y1, c.y2) for v in self.whitespaces for c in v.ws.cells
                       if c.y2 >= c.y1)
        count, end = 0, None
        for y1, y2 in spans:
            if end is None or y1 > end:
                count += y2 - y1 + 1
                end = y2
            elif y2 > end:
                count += y2 - end
                end = y2
        return count - 1

    @property
    def continuous(self) -> bool:
        return all(v.continuous for v in self.whitespaces)

    @classmethod
    def from_ws(cls, v_ws: VerticalWS) -> "Column":
        return cls(whitespaces=[v_ws], top=v_ws.top, bottom=v_ws.bottom,
                   top_position=v_ws.position, bottom_position=v_ws.position)

    def corresponds(self, v_ws: VerticalWS, char_length: float) -> bool:
        if self.bottom_position is None:
            return True
        if v_ws.position != self.bottom_position + 1:
            return False
        if not self.bottom or not v_ws.top:
            return False
        return min(self.x2, v_ws.x2) - max(self.x1, v_ws.x1) >= 0.5 * char_length

    def add(self, v_ws: VerticalWS) -> None:
        self.whitespaces.append(v_ws)
        self.x1, self.x2 = max(self.x1, v_ws.x1), min(self.x2, v_ws.x2)
        self.y1, self.y2 = min(self.y1, v_ws.y1), max(self.y2, v_ws.y2)
        self.top_position = min(self.top_position, v_ws.position)
        self.bottom_position = max(self.bottom_position, v_ws.position)
        if v_ws.position == self.top_position:
            self.top = v_ws.top
        if v_ws.position == self.bottom_position:
            self.bottom = v_ws.bottom


@dataclass
class ColumnGroup:
    columns: list[Column]
    char_length: float
    elements: list[Cell] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.columns = sorted(self.columns, key=lambda col: col.x1)
        if len(self.columns) >= 2 and len(self.elements) > 0:
            x_left = min(el.x1 for el in self.elements)
            x_right = max(el.x2 for el in self.elements)
            self.columns[0] = Column(whitespaces=[
                VerticalWS(ws=Whitespace(cells=[
                    Cell(x1=x_left - int(0.5 * self.char_length), y1=c.y1,
                         x2=x_left - int(0.5 * self.char_length), y2=c.y2)
                    for c in v.ws.cells]))
                for v in self.columns[0].whitespaces])
            self.columns[-1] = Column(whitespaces=[
                VerticalWS(ws=Whitespace(cells=[
                    Cell(x1=x_right + int(0.5 * self.char_length), y1=c.y1,
                         x2=x_right + int(0.5 * self.char_length), y2=c.y2)
                    for c in v.ws.cells]))
                for v in self.columns[-1].whitespaces])

    # computed on first use: the columns are final after __post_init__
    @once
    def x1(self) -> int:
        return min((d.x1 for d in self.columns), default=0)

    @once
    def y1(self) -> int:
        return min((d.y1 for d in self.columns), default=0)

    @once
    def x2(self) -> int:
        return max((d.x2 for d in self.columns), default=0)

    @once
    def y2(self) -> int:
        return max((d.y2 for d in self.columns), default=0)

    @property
    def bbox(self) -> Cell:
        return Cell(x1=self.x1, y1=self.y1, x2=self.x2, y2=self.y2)

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def area(self) -> int:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def __hash__(self) -> int:
        return hash((tuple(hash(tuple(hash(v.ws) for v in c.whitespaces)) for c in self.columns),))
