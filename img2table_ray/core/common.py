"""Shared geometric helpers (ref: src/img2table/tables/__init__.py:58-126 and
src/img2table/tables/processing/common.py), re-expressed with numpy instead
of polars cross-joins — per-page element counts are tiny, so broadcasting
beats any dataflow join.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Optional, Union

import numpy as np

from img2table_ray.core.objects import Cell


def is_contained_cell(inner_cell: Union[Cell, tuple], outer_cell: Union[Cell, tuple],
                      percentage: float = 0.9) -> bool:
    """True if >= percentage of inner_cell's area intersects outer_cell
    (ref processing/common.py:12-36)."""
    if isinstance(inner_cell, tuple):
        inner_cell = Cell(*inner_cell)
    if isinstance(outer_cell, tuple):
        outer_cell = Cell(*outer_cell)
    x_left = max(inner_cell.x1, outer_cell.x1)
    y_top = max(inner_cell.y1, outer_cell.y1)
    x_right = min(inner_cell.x2, outer_cell.x2)
    y_bottom = min(inner_cell.y2, outer_cell.y2)
    intersection = max(0, x_right - x_left) * max(0, y_bottom - y_top)
    return intersection / inner_cell.area >= percentage


def boxes_of(cells: list) -> np.ndarray:
    """(n, 4) array of the cells' x1, y1, x2, y2."""
    return np.array([(c.x1, c.y1, c.x2, c.y2) for c in cells]).reshape(-1, 4)


def cells_within(cells: list, box: Cell, boxes: Optional[np.ndarray] = None) -> list:
    """The cells that lie inside ``box``, edges included, in their order.
    ``boxes`` is ``boxes_of(cells)``, passed when one list is filtered
    many times."""
    if boxes is None:
        boxes = boxes_of(cells)
    keep = ((boxes[:, 0] >= box.x1) & (boxes[:, 2] <= box.x2)
            & (boxes[:, 1] >= box.y1) & (boxes[:, 3] <= box.y2))
    return [cells[i] for i in np.flatnonzero(keep).tolist()]


def row_blocks(n_rows: int, per_row: int, pairs: int = 1 << 20):
    """(start, stop) blocks of rows holding at most ``pairs`` row x column
    pairs each (at least one row): a broadcast over a large grid is cut
    into such blocks so that its temporaries stay small."""
    step = max(1, pairs // max(1, per_row))
    return ((r, min(r + step, n_rows)) for r in range(0, n_rows, step))


def cluster_items(items: list[Any], clustering_func: Callable) -> list[list[Any]]:
    """Transitive clustering by a pairwise predicate (ref tables/__init__.py:58-82).
    Preserves the reference's cluster ordering (insertion order of first edge,
    merged clusters appended last)."""
    clusters: list[set] = []
    for i in range(len(items)):
        for j in range(i, len(items)):
            corresponds = clustering_func(items[i], items[j]) or (items[i] == items[j])
            if corresponds:
                matching = [idx for idx, cl in enumerate(clusters) if {i, j}.intersection(cl)]
                if matching:
                    remaining = [cl for idx, cl in enumerate(clusters) if idx not in matching]
                    new_cluster = {i, j}.union(*[clusters[idx] for idx in matching])
                    clusters = [*remaining, new_cluster]
                else:
                    clusters.append({i, j})
    return [[items[idx] for idx in cl] for cl in clusters]


class _Node:
    __slots__ = ("key", "parent", "size")

    def __init__(self, key):
        self.key = key
        self.parent = self
        self.size = 1


class UnionFind(dict):
    """Union-find over arbitrary keys (ref tables/__init__.py:92-112)."""

    def find(self, key):
        node = self.get(key)
        if node is None:
            node = self[key] = _Node(key)
        else:
            while node.parent != node:
                node.parent, node = node.parent.parent, node.parent
        return node

    def union(self, key_a, key_b):
        na, nb = self.find(key_a), self.find(key_b)
        if na != nb:
            if na.size < nb.size:
                na.parent = nb
                nb.size += na.size
            else:
                nb.parent = na
                na.size += nb.size


def find_components(edges: list) -> list[list]:
    """Connected components over edge sets, preserving reference ordering
    (ref tables/__init__.py:115-126: components keyed by root in insertion
    order, members in insertion order)."""
    forest = UnionFind()
    for edge in edges:
        edge = list(edge)
        forest.union(*(edge if len(edge) > 1 else edge * 2))
    result = defaultdict(list)
    for key in forest:
        result[forest.find(key).key].append(key)
    return list(result.values())


def merge_contours(contours: list[Cell], vertically: bool = True) -> list[Cell]:
    """Merge contours along an axis (ref processing/common.py:93-130)."""
    if len(contours) == 0:
        return contours

    idx_1 = "y1" if vertically else "x1"
    idx_2 = "y2" if vertically else "x2"
    sort_idx_1 = "x1" if vertically else "y1"
    sort_idx_2 = "x2" if vertically else "y2"

    sorted_cnts = sorted(
        contours,
        key=lambda cnt: (getattr(cnt, idx_1), getattr(cnt, idx_2), getattr(cnt, sort_idx_1)),
    )
    seq = iter(sorted_cnts)
    merged = [_copy_cell(next(seq))]
    for cnt in seq:
        if getattr(cnt, idx_1) <= getattr(merged[-1], idx_2):
            setattr(merged[-1], idx_2, max(getattr(merged[-1], idx_2), getattr(cnt, idx_2)))
            setattr(merged[-1], sort_idx_1, min(getattr(merged[-1], sort_idx_1), getattr(cnt, sort_idx_1)))
            setattr(merged[-1], sort_idx_2, max(getattr(merged[-1], sort_idx_2), getattr(cnt, sort_idx_2)))
        else:
            merged.append(_copy_cell(cnt))
    return merged


def _copy_cell(cell: Cell) -> Cell:
    """A copy of a flat cell (ints and a string), field by field."""
    return Cell(x1=cell.x1, y1=cell.y1, x2=cell.x2, y2=cell.y2, content=cell.content)
