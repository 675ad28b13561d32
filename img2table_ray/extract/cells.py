"""Cell-grid identification from detected ruling lines
(ref: src/img2table/tables/processing/bordered_tables/cells/*), numpy.

``identify_cells`` keeps the reference's order of operations without its
Python loops: every horizontal-line pair is tested at once (int64
differences over float64 division, the same IEEE operation as Python's
int / int, so the +-0.02 tests hold exactly), the two sorted dedup passes
are a lexsort plus first-of-group, and the delimiter scan is one
(cells x vertical lines) mask.  Pair and delimiter masks are built in row
blocks so their temporaries stay bounded on pages with many lines.
"""

from __future__ import annotations

import numpy as np

from img2table_ray.core.objects import Cell, Line

_BLOCK = 1 << 16  # mask entries per block


def _blocks(n_rows: int, n_cols: int):
    step = max(1, _BLOCK // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _first_of_groups(rows: np.ndarray) -> np.ndarray:
    """Sort (n, 4) rows lexicographically and keep each row whose first
    three columns differ from the row before.  The reference seeds the
    previous key with (0, 0, 0), so a first group keyed (0, 0, 0) is
    dropped (ref identification.py:39-60)."""
    rows = rows[np.lexsort(rows.T[::-1])]
    key = rows[:, :3]
    prev = np.concatenate([np.zeros((1, 3), dtype=key.dtype), key])[:-1]
    return rows[(key != prev).any(axis=1)]


def identify_cells(h_lines_arr: np.ndarray, v_lines_arr: np.ndarray) -> np.ndarray:
    """Candidate cell bands from h-line pairs + v-line delimiters
    (ref cells/identification.py:9-90, order of operations preserved)."""
    lines = np.asarray(h_lines_arr, dtype=np.int64).reshape(-1, 4)
    x1, y1, x2, y2 = lines.T
    ends = lines[:, [0, 2]]
    denom = x2 - x1
    denom[denom == 0] = 1
    potential = [np.empty((0, 4), dtype=np.int64)]
    for blk in _blocks(len(lines), len(lines)):
        # left and right ends at once: each corresponds within 2% of line
        # i's width, or lies inside the other line
        e_i = ends[blk, None]
        ok = ((np.abs((e_i - ends) / denom[blk, None, None]) <= 0.02)
              | ((x1[blk, None, None] <= ends) & (ends <= x2[blk, None, None]))
              | ((x1[:, None] <= e_i) & (e_i <= x2[:, None])))
        i, j = np.nonzero((y1[blk, None] < y1) & ok.all(axis=2))
        i += blk.start
        potential.append(np.column_stack([np.maximum(x1[i], x1[j]),
                                          np.minimum(x2[i], x2[j]), y1[i], y2[j]]))
    # Two-pass dedup: keep lowest lower bound per (x1, x2, y1), then highest
    # upper bound per (x1, x2, y2)
    upper = _first_of_groups(np.concatenate(potential))
    lower = _first_of_groups(upper[:, [0, 1, 3, 2]] * np.array([1, 1, 1, -1]))
    cx1, cx2, cy2 = lower[:, 0], lower[:, 1], lower[:, 2]
    cy1 = -lower[:, 3]

    # delimiters: v-lines in x order, so each cell's hits come out sorted
    v = np.asarray(v_lines_arr, dtype=np.int64).reshape(-1, 4)
    v = v[np.argsort(v[:, 0], kind="stable")]
    xv, y1v, y2v = v[:, 0], v[:, 1], v[:, 3]
    margin = np.maximum(5, (cx2 - cx1) * 0.025)
    tolerance = np.maximum(5, np.minimum(10, 0.1 * (cy2 - cy1)))
    cells = [np.empty((0, 4), dtype=np.int64)]
    for blk in _blocks(len(cx1), len(xv)):
        c1, c2 = cy1[blk, None], cy2[blk, None]
        overlap = np.minimum(c2, y2v) - np.maximum(c1, y1v)
        hit = ((cx1[blk, None] - margin[blk, None] <= xv)
               & (xv <= cx2[blk, None] + margin[blk, None])
               & (c2 - c1 - overlap <= tolerance[blk, None]))
        r, c = np.nonzero(hit)
        k = np.flatnonzero(r[:-1] == r[1:])
        r = r[k] + blk.start
        cells.append(np.column_stack([xv[c[k]], cy1[r], xv[c[k + 1]], cy2[r]]))
    return np.concatenate(cells)


def get_cells_dataframe(horizontal_lines: list[Line], vertical_lines: list[Line]) -> list[Cell]:
    if len(horizontal_lines) * len(vertical_lines) == 0:
        return []
    h_arr = np.array([[ln.x1, ln.y1, ln.x2, ln.y2] for ln in horizontal_lines], dtype=np.int64)
    v_arr = np.array([[ln.x1, ln.y1, ln.x2, ln.y2] for ln in vertical_lines], dtype=np.int64)
    cells_array = identify_cells(h_lines_arr=h_arr, v_lines_arr=v_arr)
    return [Cell(x1=int(c[0]), y1=int(c[1]), x2=int(c[2]), y2=int(c[3])) for c in cells_array]


def deduplicate_cells(cells: list[Cell]) -> list[Cell]:
    """Paint coverage smallest-first; keep cell iff >= 25% uncovered
    (ref cells/deduplication.py:7-25)."""
    x_max = max([c.x2 for c in cells] + [0])
    y_max = max([c.y2 for c in cells] + [0])
    coverage = np.ones((y_max, x_max), dtype=np.uint8)
    dedup = []
    for c in sorted(cells, key=lambda c: c.area):
        cropped = coverage[c.y1 : c.y2, c.x1 : c.x2]
        if cropped.sum() >= 0.25 * c.area:
            dedup.append(c)
            coverage[c.y1 : c.y2, c.x1 : c.x2] = 0
    return dedup


def get_cells(horizontal_lines: list[Line], vertical_lines: list[Line]) -> list[Cell]:
    cells = get_cells_dataframe(horizontal_lines=horizontal_lines, vertical_lines=vertical_lines)
    return deduplicate_cells(cells=cells)
